from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modalpanoptic as mp
from modalpanoptic.synth import (
    EGO_MOTIONS,
    MOTIONS,
    NO_NOISE,
    DetectorNoise,
    HandcraftedFeatures,
    _sample_face,
    flip_semantics,
    visible_faces,
)
from modalpanoptic.inference import nms_detect
from modalpanoptic.membership import (MembershipTrainConfig, PairFeatureConfig,
                                      build_training_pairs, features_for_pairs, gather_pairs,
                                      mlp_scores)
from modalpanoptic.mlp import build_mlp
from modalpanoptic.targets import (
    BOX_EXTENT,
    BOX_VELOCITY,
    BOX_Z,
    BevTargets,
    build_trajectories,
    instance_boxes,
    modal_center,
)
from modalpanoptic.tracking import SweepInputs
from modalpanoptic.voxels import GridSpec, interpolate_bev_many

from fakes import PAPER_GRID, listed, rotated
from oracles import (
    bev_mean_reference,
    feature_rows_reference,
    flip_semantics_reference,
    handcrafted_features_reference,
    simulate_detector_reference,
)

TAX = mp.default_taxonomy()
SPEC = GridSpec()


def simulate_all(seq, trajs, noise, seed=0):
    """``simulate_detector``'s (maps, point semantics) on every sweep of ``seq``, in order,
    each record predicting its own shrink-wrapped extent."""
    return [mp.simulate_detector(sweep, t, trajs, trajs.extent, noise, SPEC, TAX, seed=seed)
            for t, sweep in enumerate(seq.sweeps)]


def every_row(sweep):
    return np.arange(len(sweep))


def simple_cfg(**kw):
    base = dict(seed=0, sweep_count=4, period=0.5, count_range=(2, 3),
                min_separation=8.0, points_per_m2=40.0)
    base.update(kw)
    return mp.SceneConfig(**base)


@pytest.mark.parametrize("field, allowed", [("motion", MOTIONS), ("ego_motion", EGO_MOTIONS)])
def test_scene_motions_are_the_named_tuples(field, allowed):
    for value in allowed:
        assert getattr(mp.SceneConfig(**{field: value}), field) == value
    with pytest.raises(ValueError, match=f"unknown {field.replace('_', ' ')} 'yaw'"):
        mp.SceneConfig(**{field: "yaw"})


class TestVisibleFaces:
    def test_sensor_on_plus_x_low(self):
        center = np.array([0.0, 0.0, 0.75])
        half = np.array([2.25, 1.0, 0.75])
        sensor = np.array([20.0, 0.0, 1.0])  # below the 1.5 m roof
        faces = visible_faces(center, half, sensor, occlusion=True)
        assert faces == [(0, 1.0)]

    def test_top_face_when_sensor_above(self):
        center = np.array([0.0, 0.0, 0.75])
        half = np.array([2.25, 1.0, 0.75])
        sensor = np.array([20.0, 0.0, 3.0])
        faces = visible_faces(center, half, sensor, occlusion=True)
        assert (0, 1.0) in faces and (2, 1.0) in faces

    def test_occlusion_off_samples_all_faces(self):
        faces = visible_faces(np.zeros(3), np.ones(3), np.array([5.0, 0, 0]), occlusion=False)
        assert len(faces) == 6

    def test_normals_face_the_sensor(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            center = rng.uniform(-20, 20, 3)
            center[2] = abs(center[2])
            half = rng.uniform(0.2, 2.0, 3)
            sensor = np.array([0.0, 0.0, 1.0])
            for axis, sign in visible_faces(center, half, sensor, occlusion=True):
                normal = np.zeros(3)
                normal[axis] = sign
                face_point = center + normal * half
                assert np.dot(normal, sensor - face_point) >= 0


class TestSampleFace:
    def test_points_on_the_plane(self):
        rng = np.random.default_rng(1)
        pts = _sample_face(np.array([1.0, 2.0, 0.5]), np.array([2.0, 1.0, 0.5]),
                           0, 1.0, density=20.0, rng=rng)
        np.testing.assert_allclose(pts[:, 0], 3.0)
        assert np.all(np.abs(pts[:, 1] - 2.0) <= 1.0)
        assert np.all(np.abs(pts[:, 2] - 0.5) <= 0.5)

    def test_stratified_mean_near_face_center(self):
        rng = np.random.default_rng(2)
        pts = _sample_face(np.zeros(3), np.array([2.0, 1.0, 0.75]), 1, -1.0,
                           density=100.0, rng=rng)
        assert abs(pts[:, 0].mean()) < 0.1
        assert abs(pts[:, 2].mean()) < 0.1


class TestGenerateSequence:
    def test_same_seed_bit_identical(self):
        a, _ = mp.generate_sequence(simple_cfg(), TAX)
        b, _ = mp.generate_sequence(simple_cfg(), TAX)
        for sa, sb in zip(a.sweeps, b.sweeps):
            np.testing.assert_array_equal(sa.points, sb.points)
            np.testing.assert_array_equal(sa.sem_labels, sb.sem_labels)
            np.testing.assert_array_equal(sa.inst_labels, sb.inst_labels)

    def test_labels_pass_validation(self):
        seq, _ = mp.generate_sequence(simple_cfg(seed=5), TAX)
        seq.validate_labels(TAX)

    def test_constant_velocity_boxes(self):
        cfg = simple_cfg(seed=6, motion="pass", sweep_count=6)
        seq, reg = mp.generate_sequence(cfg, TAX)
        for inst in reg.instances.values():
            c0 = inst.center_at(0.0)
            c3 = inst.center_at(3 * cfg.period)
            np.testing.assert_allclose(c3 - c0, inst.velocity * 3 * cfg.period, atol=1e-12)

    def test_single_box_front_face_only(self):
        # A static box dead ahead with a low sensor: only its facing plane
        # is sampled, collapsing the shrink-wrapped extent along the bearing.
        cfg = mp.SceneConfig(seed=7, sweep_count=1, count_range=(1, 1),
                             box_specs={1: mp.BoxSpec((2.25, 1.0, 0.75), (0.0, 0.0, 0.0))},
                             motion="static", min_separation=1.0, points_per_m2=120.0)
        seq, reg = mp.generate_sequence(cfg, TAX)
        inst = next(iter(reg.instances.values()))
        sweep = seq.sweeps[0]
        members = sweep.inst_labels == inst.instance_id
        pts_world = sweep.xyz[members] + sweep.ego_pose[:3, 3]
        bearing = inst.base_center[:2] / np.linalg.norm(inst.base_center[:2])
        axis = int(np.argmax(np.abs(bearing)))
        face_coord = inst.base_center[axis] - np.sign(bearing[axis]) * inst.half_extent[axis]
        np.testing.assert_allclose(pts_world[:, axis], face_coord, atol=1e-9)
        _, _, _, _, (r,) = instance_boxes(pts_world, np.ones(len(pts_world), dtype=np.int64))
        assert r[axis] < 0.05 * inst.half_extent[axis]

    def test_elevated_sensor_adds_top_face(self):
        # A 0.6 m tall box sits below the sensor, which rides 1 m above the ground.
        cfg = mp.SceneConfig(seed=8, sweep_count=1, count_range=(1, 1),
                             box_specs={1: mp.BoxSpec((2.25, 1.0, 0.3), (0.0, 0.0, 0.0))},
                             motion="static", min_separation=1.0, points_per_m2=60.0)
        seq, reg = mp.generate_sequence(cfg, TAX)
        inst = next(iter(reg.instances.values()))
        sweep = seq.sweeps[0]
        pts_world = sweep.xyz[sweep.inst_labels == inst.instance_id] + sweep.ego_pose[:3, 3]
        top = np.isclose(pts_world[:, 2], 2 * inst.half_extent[2])
        assert top.any() and (~top).any()  # roof plus one lateral face

    def test_orbit_covers_all_lateral_faces(self):
        cfg = mp.SceneConfig(seed=9, sweep_count=8, period=0.5, count_range=(1, 1),
                             box_specs={1: mp.BoxSpec((2.0, 1.0, 0.75), (0.0, 0.0, 0.0))},
                             motion="static", min_separation=1.0, ego_motion="orbit",
                             orbit_radius=12.0, points_per_m2=150.0, spawn_radius_range=(1.0, 4.0))
        seq, reg = mp.generate_sequence(cfg, TAX)
        inst = next(iter(reg.instances.values()))
        # Re-derive which faces got sampled from the world-frame point planes.
        seen = set()
        for sweep in seq.sweeps:
            pts = sweep.xyz[sweep.inst_labels == inst.instance_id] + sweep.ego_pose[:3, 3]
            for axis in (0, 1):
                for sign in (1.0, -1.0):
                    plane = inst.base_center[axis] + sign * inst.half_extent[axis]
                    if np.isclose(pts[:, axis], plane, atol=1e-9).any():
                        seen.add((axis, sign))
        assert seen == {(0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0)}
        # With all faces observed, the MAX-aggregated extent recovers the box.
        trajs = build_trajectories(seq, TAX)
        assert trajs.instance_id[0] == inst.instance_id
        rel_err = np.abs(trajs.max_extents[0] - inst.half_extent) / inst.half_extent
        assert rel_err.max() < 0.05

    def test_density_falls_with_range(self):
        cfg = mp.SceneConfig(seed=10, sweep_count=1, count_range=(2, 2),
                             box_specs={1: mp.BoxSpec((2.0, 1.0, 0.75), (0.0, 0.0, 0.0))},
                             motion="static", min_separation=12.0, points_per_m2=60.0)
        seq, reg = mp.generate_sequence(cfg, TAX)
        sweep = seq.sweeps[0]
        counts = {}
        for iid, inst in reg.instances.items():
            n = int((sweep.inst_labels == iid).sum())
            r = np.linalg.norm(inst.base_center[:2])
            counts[iid] = (r, n)
        (r1, n1), (r2, n2) = sorted(counts.values())
        if r2 > 1.5 * r1:  # only meaningful when ranges clearly differ
            assert n2 < n1


class TestSimulateDetector:
    def test_zero_noise_heatmap_peaks_at_centers(self):
        cfg = simple_cfg(seed=11)
        seq, _ = mp.generate_sequence(cfg, TAX)
        trajs = build_trajectories(seq, TAX)
        extents = trajs.max_extents[trajs.row_instance]
        maps, _ = mp.simulate_detector(seq.sweeps[0], 0, trajs, extents, NO_NOISE, SPEC, TAX)
        sweep = seq.sweeps[0]
        ids = sweep.inst_labels
        for iid in np.unique(ids[ids > 0]):
            members = sweep.xyz[ids == iid]
            center = modal_center(members)
            cx, cy = SPEC.bev_cell_of(center[:2])
            cid = int(sweep.sem_labels[ids == iid][0])
            assert maps.heatmaps.dense()[cid, cx, cy] == 1.0
            box = maps.boxes.dense()[cid, cx, cy]
            assert box[BOX_Z] == pytest.approx(center[2])
            row = np.flatnonzero((trajs.sweep_index == 0) & (trajs.instance_id == iid))
            assert box[BOX_EXTENT].tobytes() == extents[row[0]].tobytes()

    def test_drop_probability_one_empties_heatmaps(self):
        cfg = simple_cfg(seed=12)
        seq, _ = mp.generate_sequence(cfg, TAX)
        noise = DetectorNoise(drop_probability=1.0)
        for m, _ in simulate_all(seq, build_trajectories(seq, TAX), noise):
            assert m.heatmaps.dense().max() == 0.0
            assert m.boxes.keys.size == 0

    def test_semantic_flips_respect_probability(self):
        cfg = simple_cfg(seed=13)
        seq, _ = mp.generate_sequence(cfg, TAX)
        noise = DetectorNoise(semantic_flip_probability=0.2)
        maps = simulate_all(seq, build_trajectories(seq, TAX), noise, seed=3)
        frac = np.mean([np.mean(sem != s.sem_labels)
                        for (_, sem), s in zip(maps, seq.sweeps)])
        assert 0.15 < frac < 0.25

    def test_center_jitter_within_tolerance(self):
        # Detected peak cells stay within jitter + one cell of the true
        # modal centers with overwhelming frequency.
        from modalpanoptic.inference import nms_detect

        cfg = simple_cfg(seed=14, count_range=(2, 2), min_separation=12.0)
        seq, _ = mp.generate_sequence(cfg, TAX)
        trajs = build_trajectories(seq, TAX)
        sigma = 0.2
        hits = total = 0
        for trial in range(40):
            maps, _ = mp.simulate_detector(seq.sweeps[0], 0, trajs, trajs.extent,
                                           DetectorNoise(center_jitter=sigma), SPEC, TAX,
                                           seed=trial)
            dets = nms_detect(maps, SPEC, 0.3, 50)
            sweep = seq.sweeps[0]
            ids = sweep.inst_labels
            for iid in np.unique(ids[ids > 0]):
                center = modal_center(sweep.xyz[ids == iid])
                best = min(np.linalg.norm(d.center[:2] - center[:2]) for d in dets)
                total += 1
                # 4 sigma of planar jitter plus the half-diagonal of a cell.
                hits += best < 4 * sigma + SPEC.bev_cell_size
        assert hits / total >= 0.99

    def test_determinism(self):
        cfg = simple_cfg(seed=15)
        seq, _ = mp.generate_sequence(cfg, TAX)
        noise = DetectorNoise(center_jitter=0.1, semantic_flip_probability=0.1)
        trajs = build_trajectories(seq, TAX)
        a = simulate_all(seq, trajs, noise, seed=5)
        b = simulate_all(seq, trajs, noise, seed=5)
        for (ma, sa), (mb, sb) in zip(a, b):
            np.testing.assert_array_equal(ma.heatmaps.dense(), mb.heatmaps.dense())
            np.testing.assert_array_equal(sa, sb)
            np.testing.assert_array_equal(ma.boxes.dense(), mb.boxes.dense())

    def test_trajectories_of_another_sequence_rejected(self):
        seq, _ = mp.generate_sequence(simple_cfg(seed=17), TAX)
        other, _ = mp.generate_sequence(simple_cfg(seed=18, count_range=(4, 4)), TAX)
        table = build_trajectories(other, TAX)
        with pytest.raises(ValueError, match="sweep 0: trajectories hold an instance"):
            mp.simulate_detector(seq.sweeps[0], 0, table, table.extent, NO_NOISE, SPEC, TAX)

    def test_one_extent_per_record_required(self):
        seq, _ = mp.generate_sequence(simple_cfg(seed=17), TAX)
        table = build_trajectories(seq, TAX)
        for extents in (table.extent[1:], table.extent[:, :2], table.extent[0]):
            with pytest.raises(ValueError, match="one .3,. extent per trajectory row"):
                mp.simulate_detector(seq.sweeps[0], 0, table, extents, NO_NOISE, SPEC, TAX)

    # Extents to predict: each instance's componentwise maximum, or each
    # record's own shrink-wrapped extent.
    @pytest.mark.parametrize("max_extents, subset", [(True, False), (False, True)])
    def test_sweeps_match_the_per_sequence_reference(self, monkeypatch, max_extents, subset):
        seq, _ = mp.generate_sequence(simple_cfg(seed=19, sweep_count=5, count_range=(4, 5),
                                                 min_separation=5.0), TAX)
        trajs = build_trajectories(seq, TAX)
        if subset:
            trajs = trajs.select(trajs.point_count >= 30)
        extents = trajs.max_extents[trajs.row_instance] if max_extents else trajs.extent
        noise = DetectorNoise(center_jitter=0.2, confidence_noise=0.2, drop_probability=0.2,
                              semantic_flip_probability=0.05, velocity_noise=0.3)
        want = simulate_detector_reference(seq, trajs, extents, noise, SPEC, TAX, seed=9)
        made, default_rng = [], np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda *args: made.append(default_rng(*args)) or made[-1])
        centers = 0
        # Last sweep first: each sweep seeds its own stream.
        for t in reversed(range(len(seq))):
            got, got_sem = mp.simulate_detector(seq.sweeps[t], t, trajs, extents, noise, SPEC,
                                                TAX, seed=9)
            dense, sem, rng = want[t]
            assert len(made) == len(seq) - t
            assert made[-1].bit_generator.state == rng.bit_generator.state
            assert got.heatmaps.dense().tobytes() == dense.heatmaps.tobytes()
            assert got.boxes.dense().tobytes() == dense.boxes.tobytes()
            assert listed(got.boxes).tobytes() == dense.valid.tobytes()
            assert type(got) is BevTargets
            assert got_sem.tobytes() == sem.tobytes()
            centers += got.boxes.keys.size
        assert centers > len(seq)

    def test_yawed_sensor_frames_match_the_per_sequence_reference(self):
        # World and sensor centers differ by a turn here, so a world-frame
        # column read in place of a sensor-frame one moves the peaks.
        seq, _ = mp.generate_sequence(simple_cfg(seed=19, sweep_count=4, count_range=(4, 5),
                                                 min_separation=5.0), TAX)
        seq = rotated(seq, [0.3 + 0.7 * t for t in range(len(seq))])
        trajs = build_trajectories(seq, TAX)
        noise = DetectorNoise(center_jitter=0.2, confidence_noise=0.2, drop_probability=0.2,
                              velocity_noise=0.3)
        want = simulate_detector_reference(seq, trajs, trajs.extent, noise, SPEC, TAX, seed=9)
        for t, (got, _) in enumerate(simulate_all(seq, trajs, noise, seed=9)):
            dense = want[t][0]
            assert got.heatmaps.dense().tobytes() == dense.heatmaps.tobytes(), t
            assert got.boxes.dense().tobytes() == dense.boxes.tobytes(), t
            assert listed(got.boxes).tobytes() == dense.valid.tobytes(), t

    def test_velocity_from_registry_vs_labels(self):
        cfg = simple_cfg(seed=16, motion="pass", sweep_count=6)
        seq, reg = mp.generate_sequence(cfg, TAX)
        trajs = build_trajectories(seq, TAX)
        # Interior sweeps: centered differences of modal centers track the
        # true velocity to within sampling noise of the centers.
        t = 2
        maps = simulate_all(seq, trajs, NO_NOISE)[t][0]
        rows = np.flatnonzero(trajs.sweep_index == t)
        rows = rows[SPEC.in_range(trajs.sensor_center[rows])]
        assert rows.size
        for row in rows:
            cx, cy = SPEC.bev_cell_of(trajs.sensor_center[row])
            truth = reg.instances[int(trajs.instance_id[row])].velocity[:2]
            box = maps.boxes.dense()[trajs.class_id[row], cx, cy]
            np.testing.assert_allclose(box[BOX_VELOCITY], truth, atol=0.2)


class TestHandcraftedFeatures:
    def test_shapes_and_determinism(self):
        seq, _ = mp.generate_sequence(simple_cfg(seed=17, sweep_count=1), TAX)
        provider = HandcraftedFeatures(SPEC)
        every = every_row(seq.sweeps[0])
        f1 = provider.point_features(seq.sweeps[0], every)
        f2 = provider.point_features(seq.sweeps[0], every)
        assert f1.shape == (len(seq.sweeps[0]), HandcraftedFeatures.DIM)
        np.testing.assert_array_equal(f1, f2)
        bev = provider.bev_map(seq.sweeps[0], every, f1)
        assert bev.columns.shape == (SPEC.bev_width, SPEC.bev_depth, HandcraftedFeatures.DIM)


def bench_row_cfg(seed):
    """Row scenes with the benchmark's settings: 0.1-0.35 m gaps between boxes."""
    return mp.SceneConfig(seed=seed, sweep_count=1, motion="drift", count_range=(2, 3),
                          min_separation=10.0, max_range=24.0, pair_gap_range=(0.1, 0.35),
                          row_partners=2, speed_range=(0.5, 1.5), points_per_m2=40.0)


FEATURE_SCENES = {
    "row-a": bench_row_cfg(1_000_000),
    "row-b": bench_row_cfg(2_000_007),
    "crowded-pass": mp.SceneConfig(seed=31, sweep_count=2, count_range=(8, 12),
                                   min_separation=4.0, points_per_m2=40.0),
    "near-orbit": mp.SceneConfig(seed=53, sweep_count=2, ego_motion="orbit", max_range=12.0,
                                 count_range=(3, 5), points_per_m2=40.0),
}


def bare_sweep(xyz):
    xyz = np.asarray(xyz, dtype=float).reshape(-1, 3)
    points = np.zeros((xyz.shape[0], 4))
    points[:, :3] = xyz
    n = xyz.shape[0]
    return mp.PointCloudSweep(0.0, points, np.zeros(n, np.int32), np.zeros(n, np.int32))


class TestHandcraftedFeaturesOracle:
    """Array features must equal the per-point loop byte for byte."""

    @pytest.mark.parametrize("name", sorted(FEATURE_SCENES))
    @pytest.mark.parametrize("spec", [SPEC, PAPER_GRID], ids=["test-grid", "default-grid"])
    def test_scene_bytes(self, name, spec):
        seq, _ = mp.generate_sequence(FEATURE_SCENES[name], TAX)
        provider = HandcraftedFeatures(spec)
        for sweep in seq.sweeps:
            feats = provider.point_features(sweep, every_row(sweep))
            ref = handcrafted_features_reference(sweep.xyz)
            assert feats.tobytes() == ref.tobytes()
            bev = provider.bev_map(sweep, every_row(sweep), feats)
            want = bev_mean_reference(sweep.points, spec, ref)
            assert bev.columns.dense().tobytes() == want.tobytes()

    @pytest.mark.parametrize("xyz", [
        np.zeros((0, 3)),
        [[1.3, -2.7, 0.4]],
        [[0.5, 0.5, 0.1]] * 4 + [[0.5, 0.9, 0.2]] * 3 + [[0.5, 0.5, 0.1]],
        [[0.6 * i, -0.6 * j, 0.1 * (i + j)] for i in range(-3, 4) for j in range(-3, 4)],
        [[1.2, 0.0, 0.0], [0.6, 0.0, 0.0], [-0.6, 0.6, 0.0], [0.0, -0.6, 1.0], [-1.2, -1.2, 0.5]],
        # Points within an ulp or two of 0.6 m from the origin, where the
        # distance test decides membership in the last bit.
        [[0.0, 0.0, 0.0]] + [[np.nextafter(0.6 * np.cos(a), k), 0.6 * np.sin(a), 0.0]
                             for a in np.linspace(0.0, 2 * np.pi, 90, endpoint=False)
                             for k in (-1.0, 1.0)],
    ], ids=["empty", "single", "duplicates", "on-cell-edges", "radius-apart", "radius-ring"])
    def test_edge_case_bytes(self, xyz):
        sweep = bare_sweep(xyz)
        feats = HandcraftedFeatures(SPEC).point_features(sweep, every_row(sweep))
        assert feats.shape == (len(sweep), HandcraftedFeatures.DIM)
        assert feats.tobytes() == handcrafted_features_reference(sweep.xyz).tobytes()

    def test_dense_cell_spans_chunks(self):
        # One crowded patch expands far more candidate pairs than one chunk holds.
        rng = np.random.default_rng(11)
        xyz = np.concatenate([rng.uniform(-0.9, 0.9, size=(900, 3)),
                              rng.uniform(-20, 20, size=(300, 3))])
        sweep = bare_sweep(xyz)
        feats = HandcraftedFeatures(SPEC).point_features(sweep, every_row(sweep))
        assert feats.tobytes() == handcrafted_features_reference(sweep.xyz).tobytes()


# Planar coordinates on 0.6 m cell boundaries, or anywhere in a few cells
# around the origin, negative ones included.
_CELL_EDGE_OR_FREE = st.one_of(st.integers(-5, 5).map(lambda k: 0.6 * k),
                               st.floats(-3.0, 3.0, allow_nan=False, width=32))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_CELL_EDGE_OR_FREE, _CELL_EDGE_OR_FREE, st.floats(-2.0, 2.0)),
                min_size=1, max_size=40),
       st.data())
def test_point_features_of_rows_match_reference(points, data):
    """Any row set reads the full-sweep oracle's rows: every point is a candidate."""
    copies = data.draw(st.lists(st.integers(0, len(points) - 1), max_size=10))
    sweep = bare_sweep(points + [points[i] for i in copies])
    n = len(sweep)
    rows = data.draw(st.one_of(
        st.just([]), st.integers(0, n - 1).map(lambda i: [i]), st.just(list(range(n))),
        st.lists(st.integers(0, n - 1), unique=True)), label="rows")
    rows = np.asarray(rows, dtype=np.int64)
    got = HandcraftedFeatures(SPEC).point_features(sweep, rows)
    want = handcrafted_features_reference(sweep.xyz)[rows]
    assert got.shape == (rows.size, HandcraftedFeatures.DIM)
    assert got.tobytes() == want.tobytes()


def test_far_points_find_their_neighbors():
    """Cell keys too large for int64 are clamped; counts match an O(N^2) scan, far and near."""
    rng = np.random.default_rng(8)
    near = rng.uniform(-2.0, 2.0, size=(60, 3))
    far = [(1e20, 1e20, 0.0), (1e20, 1e20, 0.5), (1e20, 0.0, 0.0), (1e20, 0.5, 0.0),
           (-1e20, 3.0, 0.0), (-1e20, 3.4, 0.0), (0.0, -1e19, 0.0), (0.55, -1e19, 0.0),
           (6.5e8, 0.0, 0.0), (6.5e8, 0.59, 0.0), (-6.5e8, -6.5e8, 0.0), (1e20, -1e20, 0.0)]
    sweep = bare_sweep(np.concatenate([near, far]))
    xy = sweep.xyz[:, :2]
    dx = xy[:, None, 0] - xy[None, :, 0]
    dy = xy[:, None, 1] - xy[None, :, 1]
    close = np.sqrt(dx * dx + dy * dy) <= 0.6
    count = close.sum(axis=1)
    assert count[len(near):].tolist() == [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1]
    feats = HandcraftedFeatures(SPEC).point_features(sweep, every_row(sweep))
    assert feats[:, 0].tobytes() == np.log1p(count).tobytes()
    centroid = (close @ sweep.xyz) / count[:, None] - sweep.xyz
    np.testing.assert_allclose(feats[:, 2:5], centroid, rtol=0, atol=1e-9)


class CountingFeatures(HandcraftedFeatures):
    """Records the rows of every ``point_features`` call."""

    def __init__(self, spec):
        super().__init__(spec)
        self.asked = []

    def point_features(self, sweep, rows):
        self.asked.append(np.array(rows))
        return super().point_features(sweep, rows)


class TestFeaturesOncePerSweep:
    def test_simulate_detector(self):
        # The simulated first stage computes no features. The MLP scorer asks
        # once per sweep, for the rows its pair encoding reads and no others.
        seq, _ = mp.generate_sequence(simple_cfg(seed=5, sweep_count=3), TAX)
        trajs = build_trajectories(seq, TAX)
        provider = CountingFeatures(SPEC)
        pair_cfg = PairFeatureConfig(TAX.num_channels, HandcraftedFeatures.DIM,
                                     HandcraftedFeatures.DIM)
        score = partial(mlp_scores, build_mlp([pair_cfg.width, 8, 1], batchnorm=True, seed=0),
                        pair_cfg, provider)
        maps = simulate_all(seq, trajs, NO_NOISE)
        assert provider.asked == []
        tables = []
        for t, (sweep, (sweep_maps, sem)) in enumerate(zip(seq.sweeps, maps)):
            dets = nms_detect(sweep_maps, SPEC)
            pairs = gather_pairs(sweep.xyz, sem, dets)
            assert score(SweepInputs(sweep, sweep_maps, sem, trajs, t), dets, pairs).shape \
                == (len(pairs),)
            tables.append((sweep, dets, pairs))
        assert len(provider.asked) == len(seq.sweeps)
        for rows, (sweep, dets, pairs) in zip(provider.asked, tables):
            want = feature_rows_reference(sweep, dets, pairs, SPEC)
            assert len(pairs) and rows.tolist() == want
            assert len(want) < len(sweep)
            # What the pairs read equals the eager full-sweep features and map.
            feats, bev = features_for_pairs(provider, pair_cfg, sweep, dets, pairs)
            full = provider.point_features(sweep, every_row(sweep))
            assert feats[rows].tobytes() == full[rows].tobytes()
            queries = np.concatenate([sweep.xyz[pairs.point, :2], dets.center[pairs.det, :2]])
            assert interpolate_bev_many(bev, queries).tobytes() == interpolate_bev_many(
                provider.bev_map(sweep, every_row(sweep), full), queries).tobytes()

    @pytest.mark.parametrize("include_point", [True, False])
    def test_build_training_pairs(self, include_point):
        seq, _ = mp.generate_sequence(simple_cfg(seed=6, sweep_count=3), TAX)
        provider = CountingFeatures(SPEC)
        cfg = MembershipTrainConfig(PairFeatureConfig(
            TAX.num_channels, HandcraftedFeatures.DIM if include_point else 0,
            HandcraftedFeatures.DIM), margin_floor=0.1)
        build_training_pairs([seq], TAX, cfg, provider)
        assert len(provider.asked) == len(seq.sweeps)
        assert all(0 < rows.size < len(sweep) for rows, sweep in zip(provider.asked, seq.sweeps))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=2, max_size=10, unique=True),
       st.lists(st.integers(0, 32), max_size=60),
       st.sampled_from([0.0, 0.02, 0.5, 1.0]),
       st.integers(0, 2**32 - 1))
def test_flip_semantics_matches_scalar_loop(class_ids, labels, probability, seed):
    """Same labels and same generator state afterwards, listed classes or not."""
    got = np.array(labels, dtype=np.int32)
    want = got.copy()
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    flip_semantics(got, class_ids, probability, rng_got)
    flip_semantics_reference(want, class_ids, probability, rng_want)
    assert got.tobytes() == want.tobytes()
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
