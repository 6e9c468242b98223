import numpy as np
import pytest

import modalpanoptic as mp
from modalpanoptic.synth import (
    NO_NOISE,
    DetectorNoise,
    HandcraftedFeatures,
    _sample_face,
    visible_faces,
)
from modalpanoptic.membership import MembershipTrainConfig, build_training_pairs
from modalpanoptic.targets import build_trajectories, modal_center, extent_sw
from modalpanoptic.voxels import GridSpec

from oracles import bev_mean_reference, handcrafted_features_reference

TAX = mp.default_taxonomy()
SPEC = GridSpec((0.1, 0.1, 0.2), 40.0, -2.0, 3.0, 2)


def simple_cfg(**kw):
    base = dict(seed=0, sweep_count=4, period=0.5, count_range=(2, 3),
                min_separation=8.0, points_per_m2=40.0)
    base.update(kw)
    return mp.SceneConfig(**base)


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
                             motion="static", min_separation=1.0, sensor_height=1.0,
                             ground_points_per_m2=0.0, points_per_m2=120.0)
        seq, reg = mp.generate_sequence(cfg, TAX)
        inst = next(iter(reg.instances.values()))
        sweep = seq.sweeps[0]
        members = sweep.inst_labels == inst.instance_id
        pts_world = sweep.xyz[members] + sweep.ego_pose[:3, 3]
        bearing = inst.base_center[:2] / np.linalg.norm(inst.base_center[:2])
        axis = int(np.argmax(np.abs(bearing)))
        face_coord = inst.base_center[axis] - np.sign(bearing[axis]) * inst.half_extent[axis]
        np.testing.assert_allclose(pts_world[:, axis], face_coord, atol=1e-9)
        c = modal_center(pts_world)
        r = extent_sw(pts_world, c)
        assert r[axis] < 0.05 * inst.half_extent[axis]

    def test_elevated_sensor_adds_top_face(self):
        cfg = mp.SceneConfig(seed=8, sweep_count=1, count_range=(1, 1),
                             box_specs={1: mp.BoxSpec((2.25, 1.0, 0.75), (0.0, 0.0, 0.0))},
                             motion="static", min_separation=1.0, sensor_height=4.0,
                             ground_points_per_m2=0.0)
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
                             orbit_radius=12.0, ground_points_per_m2=0.0,
                             points_per_m2=150.0, spawn_radius_range=(1.0, 4.0))
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
        traj = trajs[inst.instance_id]
        rel_err = np.abs(traj.max_extent - inst.half_extent) / inst.half_extent
        assert rel_err.max() < 0.05

    def test_density_falls_with_range(self):
        cfg = mp.SceneConfig(seed=10, sweep_count=1, count_range=(2, 2),
                             box_specs={1: mp.BoxSpec((2.0, 1.0, 0.75), (0.0, 0.0, 0.0))},
                             motion="static", min_separation=12.0,
                             ground_points_per_m2=0.0, points_per_m2=60.0)
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
        seq, reg = mp.generate_sequence(cfg, TAX)
        trajs = build_trajectories(seq, TAX)
        maps = mp.simulate_detector(seq, trajs, reg, NO_NOISE, SPEC, TAX)
        sweep = seq.sweeps[0]
        ids = sweep.inst_labels
        for iid in np.unique(ids[ids > 0]):
            members = sweep.xyz[ids == iid]
            center = modal_center(members)
            cx, cy = SPEC.bev_cell_of(center[:2])
            cid = int(sweep.sem_labels[ids == iid][0])
            assert maps[0].heatmaps[cid, cx, cy] == 1.0
            assert maps[0].height[cx, cy] == pytest.approx(center[2])

    def test_drop_probability_one_empties_heatmaps(self):
        cfg = simple_cfg(seed=12)
        seq, reg = mp.generate_sequence(cfg, TAX)
        noise = DetectorNoise(drop_probability=1.0)
        maps = mp.simulate_detector(seq, build_trajectories(seq, TAX), reg, noise, SPEC, TAX)
        for m in maps:
            assert m.heatmaps.max() == 0.0

    def test_semantic_flips_respect_probability(self):
        cfg = simple_cfg(seed=13)
        seq, reg = mp.generate_sequence(cfg, TAX)
        noise = DetectorNoise(semantic_flip_probability=0.2)
        maps = mp.simulate_detector(seq, build_trajectories(seq, TAX), reg, noise, SPEC, TAX,
                                    seed=3)
        frac = np.mean([np.mean(m.point_sem != s.sem_labels)
                        for m, s in zip(maps, seq.sweeps)])
        assert 0.15 < frac < 0.25

    def test_center_jitter_within_tolerance(self):
        # Detected peak cells stay within jitter + one cell of the true
        # modal centers with overwhelming frequency.
        from fakes import CwmExtents
        from modalpanoptic.inference import nms_detect

        cfg = simple_cfg(seed=14, count_range=(2, 2), min_separation=12.0)
        seq, reg = mp.generate_sequence(cfg, TAX)
        trajs = build_trajectories(seq, TAX)
        sigma = 0.2
        hits = total = 0
        for trial in range(40):
            maps = mp.simulate_detector(seq, trajs, reg, DetectorNoise(center_jitter=sigma),
                                        SPEC, TAX, seed=trial)
            provider = CwmExtents({}, default=np.ones(3))
            dets = nms_detect(maps[0], SPEC, provider, 0.3, 50)
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
        seq, reg = mp.generate_sequence(cfg, TAX)
        noise = DetectorNoise(center_jitter=0.1, semantic_flip_probability=0.1)
        trajs = build_trajectories(seq, TAX)
        a = mp.simulate_detector(seq, trajs, reg, noise, SPEC, TAX, seed=5)
        b = mp.simulate_detector(seq, trajs, reg, noise, SPEC, TAX, seed=5)
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma.heatmaps, mb.heatmaps)
            np.testing.assert_array_equal(ma.point_sem, mb.point_sem)
            np.testing.assert_array_equal(ma.velocity, mb.velocity)

    def test_velocity_from_registry_vs_labels(self):
        cfg = simple_cfg(seed=16, motion="pass", sweep_count=6)
        seq, reg = mp.generate_sequence(cfg, TAX)
        trajs = build_trajectories(seq, TAX)
        with_reg = mp.simulate_detector(seq, trajs, reg, NO_NOISE, SPEC, TAX)
        label_only = mp.simulate_detector(seq, trajs, None, NO_NOISE, SPEC, TAX)
        # Interior sweeps: centered differences of modal centers track the
        # true velocity to within sampling noise of the centers.
        t = 2
        cells = np.argwhere(with_reg[t].velocity.any(axis=2))
        for cx, cy in cells:
            np.testing.assert_allclose(label_only[t].velocity[cx, cy],
                                       with_reg[t].velocity[cx, cy], atol=0.2)


class TestHandcraftedFeatures:
    def test_shapes_and_determinism(self):
        seq, _ = mp.generate_sequence(simple_cfg(seed=17, sweep_count=1), TAX)
        provider = HandcraftedFeatures(SPEC)
        f1 = provider.point_features(seq.sweeps[0])
        f2 = provider.point_features(seq.sweeps[0])
        assert f1.shape == (len(seq.sweeps[0]), HandcraftedFeatures.DIM)
        np.testing.assert_array_equal(f1, f2)
        bev = provider.bev_map(seq.sweeps[0], f1)
        assert bev.data.shape == (SPEC.bev_width, SPEC.bev_depth, HandcraftedFeatures.DIM)


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
    points = np.zeros((xyz.shape[0], 5))
    points[:, :3] = xyz
    n = xyz.shape[0]
    return mp.PointCloudSweep(0.0, points, np.zeros(n, np.int32), np.zeros(n, np.int32))


class TestHandcraftedFeaturesOracle:
    """Array features must equal the per-point loop byte for byte."""

    @pytest.mark.parametrize("name", sorted(FEATURE_SCENES))
    @pytest.mark.parametrize("spec", [SPEC, GridSpec()], ids=["test-grid", "default-grid"])
    def test_scene_bytes(self, name, spec):
        seq, _ = mp.generate_sequence(FEATURE_SCENES[name], TAX)
        provider = HandcraftedFeatures(spec)
        for sweep in seq.sweeps:
            feats = provider.point_features(sweep)
            ref = handcrafted_features_reference(sweep.xyz)
            assert feats.tobytes() == ref.tobytes()
            bev = provider.bev_map(sweep, feats)
            assert bev.data.tobytes() == bev_mean_reference(sweep.points, spec, ref).tobytes()

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
        feats = HandcraftedFeatures(SPEC).point_features(sweep)
        assert feats.shape == (len(sweep), HandcraftedFeatures.DIM)
        assert feats.tobytes() == handcrafted_features_reference(sweep.xyz).tobytes()

    def test_dense_cell_spans_chunks(self):
        # One crowded patch expands far more candidate pairs than one chunk holds.
        rng = np.random.default_rng(11)
        xyz = np.concatenate([rng.uniform(-0.9, 0.9, size=(900, 3)),
                              rng.uniform(-20, 20, size=(300, 3))])
        sweep = bare_sweep(xyz)
        feats = HandcraftedFeatures(SPEC).point_features(sweep)
        assert feats.tobytes() == handcrafted_features_reference(sweep.xyz).tobytes()


class CountingFeatures(HandcraftedFeatures):
    def __init__(self, spec):
        super().__init__(spec)
        self.calls = 0

    def point_features(self, sweep):
        self.calls += 1
        return super().point_features(sweep)


class TestFeaturesOncePerSweep:
    def test_simulate_detector(self):
        seq, reg = mp.generate_sequence(simple_cfg(seed=5, sweep_count=3), TAX)
        provider = CountingFeatures(SPEC)
        maps = mp.simulate_detector(seq, build_trajectories(seq, TAX), reg, NO_NOISE, SPEC, TAX,
                                    provider=provider)
        assert provider.calls == len(seq.sweeps)
        assert maps[0].bev_features.data.tobytes() == provider.bev_map(
            seq.sweeps[0], maps[0].point_features).data.tobytes()

    @pytest.mark.parametrize("include_point", [True, False])
    def test_build_training_pairs(self, include_point):
        seq, _ = mp.generate_sequence(simple_cfg(seed=6, sweep_count=3), TAX)
        provider = CountingFeatures(SPEC)
        cfg = MembershipTrainConfig(num_classes=TAX.num_channels,
                                    point_feature_dim=HandcraftedFeatures.DIM,
                                    bev_feature_dim=HandcraftedFeatures.DIM,
                                    include_point_features=include_point, include_bev=True)
        build_training_pairs([seq], TAX, cfg, provider)
        assert provider.calls == len(seq.sweeps)
