import numpy as np
import pytest

from modalpanoptic.cloud import ClassDef, PointCloudSweep, Taxonomy
from modalpanoptic.inference import (
    CwmExtents,
    NearestCenterExtents,
    PredictedMaps,
    fuse_panoptic,
    make_table_membership,
    nms_detect,
)
from modalpanoptic.membership import (
    Detection,
    PairTable,
    gather_pairs,
    nn_baseline,
    nn_scores,
    oracle_scores,
)
from modalpanoptic.tracking import SweepInputs
from modalpanoptic.voxels import BevMap, GridSpec

from oracles import fuse_reference

TAX = Taxonomy((ClassDef(1, "car", "thing"), ClassDef(2, "ped", "thing"),
                ClassDef(3, "road", "stuff")), 5)
SPEC = GridSpec((0.5, 0.5, 0.5), 8.0, -2.0, 2.0, 2)  # 32x32 voxels, 16x16 BEV


def empty_bev():
    return BevMap(np.zeros((SPEC.bev_width, SPEC.bev_depth, 0)), SPEC.bev_cell_size,
                  SPEC.planar_range)


def maps_of(heat, height=None, velocity=None, point_sem=None, n_points=0):
    k = TAX.num_channels
    hm = np.zeros((k, SPEC.bev_width, SPEC.bev_depth))
    for cid, grid in heat.items():
        hm[cid] = grid
    return PredictedMaps(
        hm,
        np.zeros((SPEC.bev_width, SPEC.bev_depth)) if height is None else height,
        np.zeros((SPEC.bev_width, SPEC.bev_depth, 2)) if velocity is None else velocity,
        np.zeros(n_points, dtype=np.int32) if point_sem is None else np.asarray(point_sem, dtype=np.int32),
        empty_bev(),
        np.zeros((n_points if point_sem is None else len(point_sem), 0)),
    )


class TestNmsDetect:
    def test_single_peak(self):
        grid = np.zeros((SPEC.bev_width, SPEC.bev_depth))
        grid[5, 7] = 0.9
        grid[5, 8] = 0.5
        maps = maps_of({1: grid})
        dets = nms_detect(maps, SPEC, CwmExtents({}, default=np.ones(3)), 0.3, 10)
        assert len(dets) == 1
        assert dets[0].confidence == 0.9
        assert dets[0].class_id == 1
        np.testing.assert_allclose(dets[0].center[:2], SPEC.bev_cell_center(5, 7))

    def test_uniform_zero_gives_nothing(self):
        dets = nms_detect(maps_of({}), SPEC, CwmExtents({}, default=np.ones(3)))
        assert dets == []

    def test_two_separated_peaks_match_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        grid = np.zeros((SPEC.bev_width, SPEC.bev_depth))
        for cx, cy, peak in [(4, 4, 0.9), (4, 14, 0.7)]:
            for i in range(SPEC.bev_width):
                for j in range(SPEC.bev_depth):
                    d2 = (i - cx) ** 2 + (j - cy) ** 2
                    grid[i, j] = max(grid[i, j], peak * np.exp(-d2 / 4.0))
        maps = maps_of({1: grid})
        dets = nms_detect(maps, SPEC, CwmExtents({}, default=np.ones(3)), 0.3, 10)
        # Exhaustive local-maximum scan.
        want = []
        for i in range(SPEC.bev_width):
            for j in range(SPEC.bev_depth):
                window = grid[max(0, i - 1):i + 2, max(0, j - 1):j + 2]
                if grid[i, j] > 0.3 and grid[i, j] == window.max():
                    want.append((i, j))
        got = {SPEC.bev_cell_of(d.center[:2]) for d in dets}
        assert got == set(want) == {(4, 4), (4, 14)}

    def test_threshold_strict(self):
        grid = np.zeros((SPEC.bev_width, SPEC.bev_depth))
        grid[3, 3] = 0.3
        dets = nms_detect(maps_of({1: grid}), SPEC, CwmExtents({}, default=np.ones(3)), 0.3, 10)
        assert dets == []

    def test_max_detections_keeps_strongest(self):
        grid = np.zeros((SPEC.bev_width, SPEC.bev_depth))
        peaks = [(2, 2, 0.9), (2, 10, 0.8), (10, 2, 0.7), (10, 10, 0.6)]
        for i, j, v in peaks:
            grid[i, j] = v
        dets = nms_detect(maps_of({1: grid}), SPEC, CwmExtents({}, default=np.ones(3)),
                          0.3, 2)
        assert [d.confidence for d in dets] == [0.9, 0.8]

    def test_height_and_extent_lookup(self):
        grid = np.zeros((SPEC.bev_width, SPEC.bev_depth))
        grid[5, 7] = 0.9
        height = np.zeros_like(grid)
        height[5, 7] = 1.25
        provider = NearestCenterExtents(
            centers=np.array([[*SPEC.bev_cell_center(5, 7), 1.25]]),
            class_ids=np.array([1]),
            extents=np.array([[2.0, 1.0, 0.5]]),
        )
        dets = nms_detect(maps_of({1: grid}, height=height), SPEC, provider, 0.3, 10)
        assert dets[0].center[2] == 1.25
        np.testing.assert_array_equal(dets[0].extent, [2.0, 1.0, 0.5])

    def test_sorted_by_decreasing_confidence(self):
        rng = np.random.default_rng(1)
        grid = np.zeros((SPEC.bev_width, SPEC.bev_depth))
        for _ in range(6):
            i, j = rng.integers(1, 15, 2) * 1
            grid[i, j] = max(grid[i, j], rng.uniform(0.35, 1.0))
        dets = nms_detect(maps_of({1: grid}), SPEC, CwmExtents({}, default=np.ones(3)), 0.3, 50)
        confs = [d.confidence for d in dets]
        assert confs == sorted(confs, reverse=True)


def random_fusion_case(rng, n_points=60, n_dets=4, include_half=False):
    pts = rng.uniform(-6, 6, size=(n_points, 3)) * [1, 1, 0.25]
    sems = rng.choice([1, 2, 3], size=n_points)
    dets = []
    confs = np.sort(rng.uniform(0.3, 1.0, n_dets))[::-1]
    for d in range(n_dets):
        dets.append(Detection(rng.uniform(-5, 5, 3) * [1, 1, 0.2], float(confs[d]),
                              int(rng.integers(1, 3)), rng.uniform(0.5, 2.5, 3)))
    table = rng.uniform(0, 1, size=(n_dets, n_points))
    if include_half:
        table[rng.uniform(size=table.shape) < 0.15] = 0.5  # exact boundary cells
    return pts, sems, dets, table


class TestFusePanoptic:
    def test_stuff_only_scene(self):
        pts = np.zeros((4, 3))
        maps = maps_of({}, point_sem=[3, 3, 3, 3])
        result = fuse_panoptic(pts, [], maps, make_table_membership(np.zeros((0, 4))), TAX)
        np.testing.assert_array_equal(result.sem, [3, 3, 3, 3])
        np.testing.assert_array_equal(result.inst, [0, 0, 0, 0])

    def test_single_instance_and_boundary_strictness(self):
        pts = np.array([[0.0, 0, 0], [0.2, 0, 0], [0.4, 0, 0], [5.0, 0, 0]])
        sems = [1, 1, 1, 3]
        det = Detection(np.array([0.2, 0, 0]), 0.9, 1, np.ones(3))
        table = np.array([[0.9, 0.500000, 0.51, 0.9]])  # membership 0.5 exactly -> out
        maps = maps_of({}, point_sem=sems)
        result = fuse_panoptic(pts, [det], maps, make_table_membership(table), TAX)
        np.testing.assert_array_equal(result.inst, [1, 0, 1, 0])
        assert result.sem[1] == 1  # falls back to predicted semantics
        assert result.sem[3] == 3

    def test_class_mismatch_filtered(self):
        pts = np.zeros((2, 3))
        det = Detection(np.zeros(3), 0.9, 1, np.ones(3))
        maps = maps_of({}, point_sem=[2, 1])
        table = np.ones((1, 2))
        result = fuse_panoptic(pts, [det], maps, make_table_membership(table), TAX)
        np.testing.assert_array_equal(result.inst, [0, 1])

    def test_confident_detection_wins_contested_points(self):
        pts = np.zeros((1, 3))
        d1 = Detection(np.array([0.1, 0, 0]), 0.9, 1, np.ones(3))
        d2 = Detection(np.array([-0.1, 0, 0]), 0.6, 1, np.ones(3))
        maps = maps_of({}, point_sem=[1])
        table = np.array([[0.7], [0.99]])
        result = fuse_panoptic(pts, [d1, d2], maps, make_table_membership(table), TAX)
        assert result.point_detection[0] == 0  # first (more confident) keeps it

    def test_argmax_mode_prefers_higher_membership(self):
        pts = np.zeros((1, 3))
        d1 = Detection(np.array([0.1, 0, 0]), 0.9, 1, np.ones(3))
        d2 = Detection(np.array([-0.1, 0, 0]), 0.6, 1, np.ones(3))
        maps = maps_of({}, point_sem=[1])
        table = np.array([[0.7], [0.99]])
        result = fuse_panoptic(pts, [d1, d2], maps, make_table_membership(table), TAX,
                               conflict="argmax")
        assert result.point_detection[0] == 1

    def test_unsorted_detections_rejected(self):
        pts = np.zeros((1, 3))
        d1 = Detection(np.zeros(3), 0.5, 1, np.ones(3))
        d2 = Detection(np.zeros(3), 0.9, 1, np.ones(3))
        maps = maps_of({}, point_sem=[1])
        with pytest.raises(ValueError):
            fuse_panoptic(pts, [d1, d2], maps, make_table_membership(np.ones((2, 1))), TAX)

    def test_matches_line_by_line_reference(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            pts, sems, dets, table = random_fusion_case(
                rng, n_points=int(rng.integers(20, 80)),
                n_dets=int(rng.integers(1, 6)), include_half=True)
            maps = maps_of({}, point_sem=sems)
            got = fuse_panoptic(pts, dets, maps, make_table_membership(table), TAX,
                                margin_frac=0.1, margin_floor=0.1)
            want_sem, want_inst = fuse_reference(pts, sems, dets, table,
                                                 set(TAX.thing_ids),
                                                 margin_frac=0.1, margin_floor=0.1)
            np.testing.assert_array_equal(got.sem, want_sem, err_msg=f"trial {trial}")
            np.testing.assert_array_equal(got.inst, want_inst, err_msg=f"trial {trial}")

    def test_fusion_invariants_on_random_cases(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pts, sems, dets, table = random_fusion_case(rng)
            maps = maps_of({}, point_sem=sems)
            result = fuse_panoptic(pts, dets, maps, make_table_membership(table), TAX)
            result.labeling.validate(TAX)
            inst = result.inst
            assert len(np.unique(inst[inst > 0])) <= len(dets)
            thing = np.isin(result.sem, list(TAX.thing_ids))
            assert np.all(inst[~thing] == 0)
            # Claimed points really were in RoI with matching class and > 0.5.
            for i in np.flatnonzero(result.point_detection >= 0):
                d = result.point_detection[i]
                det = dets[d]
                radius = det.extent + np.maximum(0.1 * det.extent, 0.1)
                assert np.all(np.abs(pts[i] - det.center) < radius)
                assert sems[i] == det.class_id
                assert table[d, i] > 0.5

    def test_determinism(self):
        rng = np.random.default_rng(4)
        pts, sems, dets, table = random_fusion_case(rng)
        maps = maps_of({}, point_sem=sems)
        a = fuse_panoptic(pts, dets, maps, make_table_membership(table), TAX)
        b = fuse_panoptic(pts, dets, maps, make_table_membership(table), TAX)
        np.testing.assert_array_equal(a.sem, b.sem)
        np.testing.assert_array_equal(a.inst, b.inst)


def inputs_of(pts, sems, inst=None):
    pts = np.asarray(pts, dtype=float)
    inst = np.zeros(len(pts)) if inst is None else inst
    sweep = PointCloudSweep(0.0, np.column_stack([pts, np.zeros((len(pts), 2))]), sems, inst)
    return SweepInputs(sweep, maps_of({}, point_sem=sems), CwmExtents({}, default=np.ones(3)))


def one_group(n_points):
    """All points paired with detection 0."""
    return PairTable(np.zeros(n_points, dtype=np.int64), np.arange(n_points),
                     np.array([0, n_points]))


class TestMembershipAdapters:
    def test_nn_membership_is_indicator_of_assignment(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-3, 3, size=(30, 3))
        sems = rng.choice([1, 2], size=30)
        dets = [Detection(rng.uniform(-2, 2, 3), 0.9, int(rng.integers(1, 3)),
                          rng.uniform(1, 2, 3)) for _ in range(3)]
        pairs = gather_pairs(pts, sems, dets)
        probs = nn_scores(inputs_of(pts, sems), dets, pairs)
        assert set(np.unique(probs)) <= {0.0, 1.0}
        np.testing.assert_array_equal(
            probs, nn_baseline(pts, sems, dets)[pairs.point] == pairs.det)

    def test_oracle_membership_claims_source_instance(self):
        pts = np.array([[0.0, 0, 0], [0.1, 0, 0], [3.0, 0, 0]])
        gt_inst = np.array([7, 7, 9])
        det = Detection(np.array([0.05, 0, 0]), 1.0, 1, np.ones(3))
        probs = oracle_scores(inputs_of(pts, [1, 1, 1], gt_inst), [det], one_group(3))
        np.testing.assert_array_equal(probs, [1.0, 1.0, 0.0])

    def test_oracle_membership_unmatched_detection_claims_nothing(self):
        pts = np.zeros((2, 3))
        det = Detection(np.array([10.0, 0, 0]), 1.0, 1, np.ones(3))
        probs = oracle_scores(inputs_of(pts, [1, 1], np.array([1, 1])), [det], one_group(2))
        np.testing.assert_array_equal(probs, [0.0, 0.0])
