"""``Detections`` validation and the array paths against their per-detection references.

The scenes live on small integer grids so that points fall exactly on RoI
faces (the RoI test is a strict ``<``), centers repeat, association
distances tie and land exactly on a gate.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalpanoptic.cloud import ClassDef, Taxonomy
from modalpanoptic.inference import fuse_panoptic
from modalpanoptic.membership import DetectionRow, Detections, gather_pairs
from modalpanoptic.tracking import Tracklet, greedy_associate

from fakes import make_table_membership, stack
from oracles import fuse_reference, gather_pairs_reference, greedy_associate_reference

TAX = Taxonomy((ClassDef(1, "car", "thing"), ClassDef(2, "ped", "thing"),
                ClassDef(3, "road", "stuff")), 5)
PROPERTY = settings(max_examples=150, deadline=None)


def three(n):
    return np.zeros((n, 3))


class TestDetections:
    @pytest.mark.parametrize("center, confidence, class_id, extent", [
        (three(2), np.ones(2), np.ones(3, dtype=int), three(2)),     # class ids
        (np.zeros((2, 2)), np.ones(2), np.ones(2, dtype=int), three(2)),  # 2-D centers
        (three(2), np.ones(2), np.ones(2, dtype=int), three(3)),     # extents
        (three(1), np.ones((1, 1)), np.ones(1, dtype=int), three(1)),  # (D, 1) confidences
        (np.zeros(3), 1.0, 1, np.zeros(3)),                          # a bare row
    ])
    def test_wrong_shape_rejected(self, center, confidence, class_id, extent):
        with pytest.raises(ValueError, match="D, 3"):
            Detections(center, confidence, class_id, extent, np.zeros((len(center), 2)))

    @pytest.mark.parametrize("velocity", [np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(2)])
    def test_wrong_velocity_shape_rejected(self, velocity):
        with pytest.raises(ValueError, match=r"\(D, 2\) velocities"):
            Detections(three(2), np.ones(2), np.ones(2, dtype=int), three(2), velocity)

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError, match="extent"):
            stack([(np.zeros(3), 0.9, 1, [1.0, -0.01, 1.0])])

    @pytest.mark.parametrize("extent", [np.inf, np.nan])
    def test_non_finite_extent_rejected(self, extent):
        # An RoI's radius is extent + max(frac * extent, floor): with zero
        # margins it equals the extent only when the extent is finite.
        with pytest.raises(ValueError, match="finite"):
            stack([(np.zeros(3), 0.9, 1, [1.0, extent, 1.0])])

    @pytest.mark.parametrize("confidence", [-0.1, 1.5, np.nan])
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            stack([(np.zeros(3), confidence, 1, np.ones(3))])

    def test_unsorted_detections_rejected(self):
        with pytest.raises(ValueError, match="decreasing confidence"):
            stack([(np.zeros(3), 0.5, 1, np.ones(3)), (np.zeros(3), 0.9, 1, np.ones(3))])

    def test_equal_confidences_and_empty_accepted(self):
        assert len(stack([(np.zeros(3), 0.7, 1, np.ones(3))] * 3)) == 3
        assert len(stack([])) == 0 and list(stack([])) == []

    def test_rows_are_plain_values(self):
        dets = stack([([1.0, 2.0, 3.0], 0.9, 2, [0.5, 0.5, 0.5]),
                      ([4.0, 5.0, 6.0], 0.4, 1, [1.0, 2.0, 0.0])])
        rows = list(dets)
        assert all(type(r) is DetectionRow for r in rows)
        assert [(r.confidence, r.class_id) for r in rows] == [(0.9, 2), (0.4, 1)]
        assert type(rows[0].confidence) is float and type(rows[0].class_id) is int
        np.testing.assert_array_equal(rows[1].center, [4.0, 5.0, 6.0])
        np.testing.assert_array_equal(rows[1].extent, [1.0, 2.0, 0.0])
        np.testing.assert_array_equal(rows[1].velocity, [0.0, 0.0])

    def test_to_world_matches_each_row(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            yaw = rng.uniform(-np.pi, np.pi)
            pose = np.eye(4)
            pose[:2, :2] = [[np.cos(yaw), -np.sin(yaw)], [np.sin(yaw), np.cos(yaw)]]
            pose[:3, 3] = rng.uniform(-50, 50, 3)
            dets = stack((rng.uniform(-40, 40, 3), 0.5, 1, np.ones(3), rng.normal(size=2))
                         for _ in range(30))
            moved = dets.to_world(pose)
            want = np.array([pose[:3, :3] @ c + pose[:3, 3] for c in dets.center])
            assert moved.center.tobytes() == want.tobytes()
            np.testing.assert_array_equal(moved.extent, dets.extent)
            np.testing.assert_array_equal(moved.class_id, dets.class_id)
            # Velocities are world-frame already: no pose moves them.
            assert moved.velocity.tobytes() == dets.velocity.tobytes()


# ---------------------------------------------------------------- RoI pairs

def grid_points(draw, n_max=40):
    n = draw(st.integers(0, n_max))
    xyz = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * 3), min_size=n, max_size=n))
    return np.array(xyz, dtype=np.float64).reshape(-1, 3) * 0.5


@st.composite
def grid_detections(draw, max_dets=6):
    d = draw(st.integers(0, max_dets))
    centers = draw(st.lists(st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 1), (-1, -1, 0)]),
                            min_size=d, max_size=d))
    extents = draw(st.lists(st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 1.5])] * 3),
                            min_size=d, max_size=d))
    classes = draw(st.lists(st.sampled_from([1, 2]), min_size=d, max_size=d))
    confs = sorted(draw(st.lists(st.sampled_from([0.3, 0.6, 0.9]), min_size=d, max_size=d)),
                   reverse=True)
    return stack(zip(np.array(centers, dtype=np.float64).reshape(-1, 3) * 0.5, confs, classes,
                     np.array(extents).reshape(-1, 3)))


@st.composite
def roi_scenes(draw):
    pts = grid_points(draw)
    sem = np.array(draw(st.lists(st.sampled_from([1, 2, 3]), min_size=len(pts),
                                 max_size=len(pts))), dtype=np.int64)
    margins = (draw(st.sampled_from([0.0, 0.5])), draw(st.sampled_from([0.0, 0.5, 1.0])))
    return pts, sem, draw(grid_detections()), margins


def assert_same_pairs(got, want):
    for name in ("det", "point", "offsets"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        assert getattr(got, name).dtype == np.int64, name
    assert (got.margin_frac, got.margin_floor) == (want.margin_frac, want.margin_floor)


class TestGatherPairsProperties:
    @PROPERTY
    @given(roi_scenes())
    def test_equals_reference(self, scene):
        pts, sem, dets, margins = scene
        assert_same_pairs(gather_pairs(pts, sem, dets, *margins),
                          gather_pairs_reference(pts, sem, dets, *margins))

    @PROPERTY
    @given(roi_scenes(), st.randoms(use_true_random=False))
    def test_permuting_points_permutes_pairs(self, scene, random):
        pts, sem, dets, margins = scene
        perm = np.array(random.sample(range(len(pts)), len(pts)), dtype=np.int64)
        base = gather_pairs(pts, sem, dets, *margins)
        moved = gather_pairs(pts[perm], sem[perm], dets, *margins)
        np.testing.assert_array_equal(moved.offsets, base.offsets)
        for d in range(len(dets)):
            np.testing.assert_array_equal(np.sort(perm[moved.point[moved.group(d)]]),
                                          base.point[base.group(d)])

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("margins", [(0.0, 0.5), (0.5, 0.25)])
    def test_each_face_alone_matches_reference(self, axis, margins):
        # Inflated half size 1.5 around (0.5, -0.5, 1.0) under both margin
        # rules. Along one axis only, points sit exactly on each face, just
        # inside it and just outside it; the other coordinates stay at the
        # center.
        center = np.array([0.5, -0.5, 1.0])
        dets = stack([(center, 0.9, 1, np.ones(3))])
        offsets = [-1.5, 1.5, -1.25, 1.25, -1.75, 1.75]
        pts = np.repeat(center[None, :], len(offsets), axis=0)
        pts[:, axis] += offsets
        sem = np.ones(len(pts), dtype=np.int64)
        got = gather_pairs(pts, sem, dets, *margins)
        assert_same_pairs(got, gather_pairs_reference(pts, sem, dets, *margins))
        assert got.point.tolist() == [2, 3]

    def test_points_on_faces_are_outside(self):
        # frac 0 and floor 0.5 around extent 1: faces at exactly 1.5.
        dets = stack([(np.zeros(3), 0.9, 1, np.ones(3))])
        pts = np.array([[1.5, 0, 0], [0, -1.5, 0], [0, 0, 1.5], [1.25, -1.25, 1.25]])
        pairs = gather_pairs(pts, np.ones(4, dtype=int), dets, 0.0, 0.5)
        assert pairs.point.tolist() == [3]


# ---------------------------------------------------------------- association

@st.composite
def association_scenes(draw):
    sweeps = []
    for _ in range(draw(st.integers(1, 5))):
        dets = draw(grid_detections(max_dets=5))
        # Detections live on a 0.5 m grid and move in whole m/s over dt = 0.5,
        # so distances tie exactly and can land exactly on a gate.
        velocities = np.array(draw(st.lists(st.tuples(*[st.integers(-2, 2)] * 2),
                                            min_size=len(dets), max_size=len(dets))),
                              dtype=np.float64).reshape(-1, 2)
        sweeps.append((dataclasses.replace(dets, velocity=velocities), velocities))
    gates = draw(st.sampled_from([None, {1: 0.5}, {1: 1.0, 2: 1.5}]))
    return sweeps, gates, draw(st.sampled_from([0.5, 1.0, 2.0])), draw(st.integers(0, 2))


def track_state(tracks):
    return [(tr.track_id, tr.class_id, tr.last_center.tobytes(), tr.last_velocity.tobytes(),
             tr.last_seen) for tr in tracks]


class TestGreedyAssociateProperties:
    @PROPERTY
    @given(association_scenes())
    def test_equals_reference_over_sweeps(self, scene):
        sweeps, gates, default_gate, max_age = scene
        got_tracks, want_tracks, got_id, want_id, ages = [], [], 1, 1, {}
        for t, (dets, velocities) in enumerate(sweeps):
            got_tracks, got_ids, got_id = greedy_associate(
                got_tracks, dets, 0.5, t, got_id, gates, default_gate, max_age)
            want_tracks, want_ids, want_id = greedy_associate_reference(
                want_tracks, dets, velocities, 0.5, t, want_id, gates, default_gate, max_age,
                ages)
            assert got_ids == want_ids and type(got_ids) is list
            assert all(type(i) is int for i in got_ids)
            assert got_id == want_id
            assert track_state(got_tracks) == track_state(want_tracks)

    def test_distance_tie_breaks_by_track_id(self):
        # Both tracks sit 1 m from the detection; the lower track id wins,
        # whatever the order of the track list.
        rows = stack([(np.zeros(3), 0.9, 1, np.ones(3))])
        for xs in ((1.0, -1.0), (-1.0, 1.0)):
            tracks = [Tracklet(tid, 1, np.array([x, 0.0, 0.0]), np.zeros(2))
                      for tid, x in zip((5, 3), xs)]
            for order in ((0, 1), (1, 0)):
                _, ids, _ = greedy_associate(copy.deepcopy([tracks[i] for i in order]), rows,
                                             0.5, 1, 9)
                assert ids == [3]

    def test_distance_on_the_gate_does_not_match(self):
        rows = stack([(np.array([1.0, 0.0, 0.0]), 0.9, 1, np.ones(3))])
        tracks, _, next_id = greedy_associate([], stack([(np.zeros(3), 0.9, 1, np.ones(3))]),
                                              0.5, 0, 1)
        _, ids, _ = greedy_associate(tracks, rows, 0.5, 1, next_id, default_gate=1.0)
        assert ids == [2]


# ---------------------------------------------------------------- fusion

@st.composite
def fusion_scenes(draw):
    pts, sem, dets, margins = draw(roi_scenes())
    table = np.array(draw(st.lists(st.sampled_from([0.2, 0.5, 0.7, 0.9, 1.0]),
                                   min_size=len(dets) * len(pts),
                                   max_size=len(dets) * len(pts))), dtype=np.float64)
    return pts, sem, dets, margins, table.reshape(len(dets), len(pts))


class TestFusePanopticProperties:
    @PROPERTY
    @given(fusion_scenes(), st.sampled_from(["first_wins", "argmax"]))
    def test_equals_reference(self, scene, conflict):
        pts, sem, dets, margins, table = scene
        got = fuse_panoptic(pts, dets, sem, make_table_membership(table),
                            TAX, *margins, conflict)
        want_sem, want_inst = fuse_reference(pts, sem, dets, table, set(TAX.thing_ids),
                                             *margins, conflict=conflict)
        np.testing.assert_array_equal(got.sem, want_sem)
        np.testing.assert_array_equal(got.inst, want_inst)
        assert got.sem.dtype == got.inst.dtype == np.int32

    @pytest.mark.parametrize("conflict", ["first_wins", "argmax"])
    def test_ids_skip_detections_that_claim_nothing(self, conflict):
        # Detections 1 and 2 claim nothing (low membership; every point of
        # detection 2 is also detection 0's and 0 wins it), detection 4
        # has no same-class point: ids count only detections 0 and 3.
        pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [3.0, 0, 0], [6.0, 0, 0], [6.5, 0, 0]])
        dets = stack((np.array([x, 0.0, 0.0]), conf, cid, np.ones(3))
                     for x, conf, cid in ((0.0, 0.9, 1), (3.0, 0.8, 1), (0.5, 0.7, 1),
                                          (6.0, 0.6, 1), (6.0, 0.5, 2)))
        table = np.array([[0.9, 0.9, 0.0, 0.0, 0.0], [0.0, 0.0, 0.2, 0.0, 0.0],
                          [0.8, 0.8, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.9, 0.9],
                          [0.9, 0.9, 0.9, 0.9, 0.9]])
        sem = np.array([1, 1, 1, 1, 1])
        got = fuse_panoptic(pts, dets, sem, make_table_membership(table),
                            TAX, 0.0, 0.5, conflict)
        want_sem, want_inst = fuse_reference(pts, sem, dets, table, set(TAX.thing_ids), 0.0, 0.5,
                                             conflict=conflict)
        np.testing.assert_array_equal(got.sem, want_sem)
        np.testing.assert_array_equal(got.inst, want_inst)
        assert got.inst.tolist() == [1, 1, 0, 2, 2]
        assert got.point_detection.tolist() == [0, 0, -1, 3, 3]

    def test_argmax_ties_go_to_the_earlier_detection(self):
        dets = stack([(np.zeros(3), 0.9, 1, np.ones(3)), (np.zeros(3), 0.9, 1, np.ones(3))])
        table = np.array([[0.6, 0.7], [0.6, 0.8]])
        got = fuse_panoptic(np.zeros((2, 3)), dets, [1, 1],
                            make_table_membership(table), TAX, margin_floor=0.1,
                            conflict="argmax")
        assert got.point_detection.tolist() == [0, 1]
