from functools import partial

import numpy as np
import pytest

import modalpanoptic as mp
from modalpanoptic import cli
from modalpanoptic.cloud import ClassDef, PointCloudSweep, SweepSequence, Taxonomy
from modalpanoptic.dataio import write_sequence
from modalpanoptic.inference import fuse_panoptic, nms_detect
from modalpanoptic.membership import (
    MembershipTrainConfig,
    PairFeatureConfig,
    PairTable,
    assemble_pair_features,
    build_training_pairs,
    gather_pairs,
    mlp_scores,
    nn_baseline,
    predict_membership,
    roi_points,
    train_membership_stage2,
)
from modalpanoptic.mlp import Layer, MlpModel, build_mlp
from modalpanoptic.pipeline import prepare_sweep_inputs
from modalpanoptic.synth import DetectorNoise, HandcraftedFeatures
from modalpanoptic.targets import ExtentStrategy
from modalpanoptic.voxels import GridSpec

from fakes import dense_bev, row as det, stack
from oracles import build_training_pairs_reference, nn_baseline_reference, pair_rows_reference

TAX = Taxonomy((ClassDef(1, "car", "thing"), ClassDef(2, "ped", "thing"),
                ClassDef(3, "road", "stuff")), 5)


class TestRoiPoints:
    def test_point_at_center_included(self):
        pts = np.array([[1.0, 2.0, 0.5]])
        d = det([1.0, 2.0, 0.5])
        assert roi_points(d, pts, margin_floor=0.1).tolist() == [0]

    def test_boundary_strictness_and_margin(self):
        d = det([0.0, 0.0, 0.0], extent=(1.0, 1.0, 1.0))
        boundary = np.array([[1.0, 0.0, 0.0]])
        # Strict <, and the margin lets the boundary point in.
        assert roi_points(d, boundary, inflate=False, margin_floor=0.1).size == 0
        assert roi_points(d, boundary, inflate=True, margin_floor=0.1).size == 1

    def test_margin_floor_on_small_extents(self):
        d = det([0.0, 0.0, 0.0], extent=(0.2, 0.2, 0.2))
        p = np.array([[0.25, 0.0, 0.0]])
        assert roi_points(d, p, inflate=True, margin_floor=0.1).size == 1  # 0.1 > 10% of 0.2

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-3, 3, size=(500, 3))
        d = det([0.3, -0.5, 0.2], extent=(1.2, 0.7, 0.9))
        got = set(roi_points(d, pts, inflate=True, margin_floor=0.1).tolist())
        radius = d.extent + np.maximum(0.1 * d.extent, 0.1)
        want = {i for i in range(500) if all(abs(pts[i] - d.center) < radius)}
        assert got == want

    def test_permutation_invariance_as_set(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2, 2, size=(100, 3))
        d = det([0, 0, 0])
        base = set(roi_points(d, pts, margin_floor=0.1).tolist())
        perm = rng.permutation(100)
        again = set(perm[roi_points(d, pts[perm], margin_floor=0.1)].tolist())
        assert base == again


def one_group(n):
    """A table in which detection 0 owns points 0..n-1."""
    return PairTable(np.zeros(n, dtype=np.int64), np.arange(n), np.array([0, n]),
                     margin_floor=0.1)


class TestPairFeatures:
    def test_layout_offsets(self):
        cfg = PairFeatureConfig(num_classes=3, point_feature_dim=0, bev_feature_dim=0)
        pts = np.array([[1.0, 2.0, 3.0]])
        rows = assemble_pair_features(pts, np.array([1]), stack([det([4.0, 5.0, 6.0], cid=1)]),
                                      one_group(1), cfg)
        assert rows.shape == (1, cfg.width) == (1, 12)
        np.testing.assert_array_equal(rows[0, :3], [-3, -3, -3])    # point offset from center
        np.testing.assert_array_equal(rows[0, 3:6], [0, 1, 0])      # point class one-hot
        np.testing.assert_allclose(rows[0, 6:9],
                                   [np.hypot(4.0, 5.0) / 10.0, 6.0, 0.0])  # center range/height
        np.testing.assert_array_equal(rows[0, 9:12], [0, 1, 0])     # center class one-hot

    def test_center_block_shared(self):
        cfg = PairFeatureConfig(num_classes=3)
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        rows = assemble_pair_features(pts, np.array([2, 2]), stack([det([4.0, 5.0, 6.0], cid=2)]),
                                      one_group(2), cfg)
        np.testing.assert_array_equal(rows[0, cfg.point_block:], rows[1, cfg.point_block:])

    def test_rows_follow_the_table(self):
        # Detection 1 owns nothing; point 2 is in both other groups.
        cfg = PairFeatureConfig(num_classes=3)
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 0.0, 0.0]])
        dets = stack([det([0.0, 0.0, 0.0], cid=1), det([9.0, 9.0, 0.0], cid=2),
                      det([3.0, 0.0, 0.0], cid=1)])
        table = PairTable(np.array([0, 0, 2]), np.array([0, 2, 2]), np.array([0, 2, 2, 3]),
                          margin_floor=0.1)
        rows = assemble_pair_features(pts, np.array([1, 1, 1]), dets, table, cfg)
        np.testing.assert_array_equal(rows[:, :3], [[0, 0, 0], [2, 0, 0], [-1, 0, 0]])
        np.testing.assert_array_equal(rows[:, 6], [0.0, 0.0, 0.3])

    def test_width_arithmetic_with_features(self):
        cfg = PairFeatureConfig(num_classes=4, point_feature_dim=5, bev_feature_dim=2)
        assert cfg.width == (3 + 5 + 2 + 4) + (3 + 2 + 4)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, size=(7, 3))
        bev = dense_bev(rng.normal(size=(6, 6, 2)), cell_size=1.0, planar_range=3.0)
        rows = assemble_pair_features(pts, np.ones(7, dtype=int), stack([det(np.zeros(3))]),
                                      one_group(7), cfg,
                                      point_features=rng.normal(size=(7, 5)), bev=bev)
        assert rows.shape == (7, cfg.width)

    def test_missing_provider_data_rejected(self):
        cfg = PairFeatureConfig(num_classes=3, point_feature_dim=2)
        with pytest.raises(ValueError):
            assemble_pair_features(np.zeros((1, 3)), np.array([1]), stack([det(np.zeros(3))]),
                                   one_group(1), cfg)


class TestPredictMembership:
    def test_zero_weight_model_gives_half(self):
        cfg = PairFeatureConfig(num_classes=3)
        model = MlpModel([Layer(np.zeros((1, cfg.width)), np.zeros(1), None, "sigmoid")])
        rows = np.random.default_rng(3).normal(size=(5, cfg.width))
        probs = predict_membership(model, rows)
        np.testing.assert_array_equal(probs, np.full(5, 0.5))

    def test_outputs_strictly_inside_unit_interval(self):
        model = build_mlp([12, 8, 1], seed=4)
        rows = np.random.default_rng(5).normal(size=(20, 12))
        probs = predict_membership(model, rows)
        assert np.all((probs > 0) & (probs < 1))

    def test_batch_equals_per_row(self):
        model = build_mlp([12, 8, 1], seed=6)
        rows = np.random.default_rng(7).normal(size=(9, 12))
        batch = predict_membership(model, rows)
        singles = np.array([predict_membership(model, r[None, :])[0] for r in rows])
        np.testing.assert_allclose(batch, singles, atol=1e-12)

    def test_width_mismatch(self):
        model = build_mlp([12, 8, 1], seed=8)
        with pytest.raises(ValueError):
            predict_membership(model, np.zeros((2, 10)))


class TestNnBaseline:
    def test_single_detection(self):
        pts = np.array([[0.1, 0.0, 0.0]])
        assign = nn_baseline(pts, np.array([1]), stack([det([0, 0, 0])]), margin_floor=0.1)
        assert assign.tolist() == [0]

    def test_prefers_nearer_center(self):
        pts = np.array([[1.0, 0.0, 0.0]])
        dets = stack([det([0.0, 0.0, 0.0], extent=(3, 3, 3)),
                      det([3.0, 0.0, 0.0], extent=(3, 3, 3))])
        assert nn_baseline(pts, np.array([1]), dets, margin_floor=0.1).tolist() == [0]

    def test_class_filter(self):
        pts = np.array([[0.0, 0.0, 0.0]])
        dets = stack([det([0.1, 0, 0], cid=2)])
        assert nn_baseline(pts, np.array([1]), dets, margin_floor=0.1).tolist() == [-1]

    def test_tie_breaks_by_confidence_then_index(self):
        pts = np.array([[0.0, 0.0, 0.0]])
        dets = stack([det([-1.0, 0, 0], conf=0.9), det([1.0, 0, 0], conf=0.5)])
        assert nn_baseline(pts, np.array([1]), dets, margin_floor=0.1).tolist() == [0]
        dets = stack([det([1.0, 0, 0], conf=0.7), det([-1.0, 0, 0], conf=0.7)])
        assert nn_baseline(pts, np.array([1]), dets, margin_floor=0.1).tolist() == [0]

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-5, 5, size=(200, 3))
        sems = rng.integers(1, 3, size=200)
        confs = np.sort(rng.uniform(0.3, 1.0, 6))[::-1]
        dets = stack(det(rng.uniform(-4, 4, 3), conf=float(conf), cid=int(rng.integers(1, 3)),
                         extent=rng.uniform(0.5, 2.5, 3))
                     for conf in confs)
        got = nn_baseline(pts, sems, dets, margin_floor=0.1)
        for i in range(200):
            candidates = []
            for didx, d in enumerate(dets):
                if d.class_id != sems[i]:
                    continue
                radius = d.extent + np.maximum(0.1 * d.extent, 0.1)
                if not np.all(np.abs(pts[i] - d.center) < radius):
                    continue
                dist = float(np.linalg.norm(pts[i] - d.center))
                candidates.append((dist, -d.confidence, didx))
            want = min(candidates)[2] if candidates else -1
            assert got[i] == want, i

    def test_never_crosses_classes(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(-5, 5, size=(100, 3))
        sems = rng.integers(1, 3, size=100)
        dets = stack(det(rng.uniform(-4, 4, 3), cid=int(rng.integers(1, 3)),
                         extent=rng.uniform(1, 3, 3)) for _ in range(5))
        assign = nn_baseline(pts, sems, dets, margin_floor=0.1)
        for i, a in enumerate(assign):
            if a >= 0:
                assert dets.class_id[a] == sems[i]


def random_nn_case(rng, grid):
    """Points and detections; on an integer grid, distances tie exactly."""
    n_points, n_dets = int(rng.integers(0, 120)), int(rng.integers(0, 7))
    if grid:
        pts = rng.integers(-2, 3, size=(n_points, 3)).astype(float)
        centers = rng.integers(-2, 3, size=(n_dets, 3)).astype(float)
        extents = rng.integers(1, 4, size=(n_dets, 3)).astype(float)
    else:
        pts = rng.uniform(-5, 5, size=(n_points, 3))
        centers = rng.uniform(-4, 4, size=(n_dets, 3))
        extents = rng.uniform(0.5, 3.0, size=(n_dets, 3))
    confs = np.sort(rng.choice([0.4, 0.7, 0.9], size=n_dets))[::-1]  # equal ones repeat
    sems = rng.integers(1, 3, size=n_points)
    dets = stack(det(c, conf=float(k), cid=int(rng.integers(1, 3)), extent=e)
                 for c, k, e in zip(centers, confs, extents))
    return pts, sems, dets


class TestGatherPairs:
    def test_groups_are_class_filtered_rois(self):
        rng = np.random.default_rng(11)
        pts, sems, dets = random_nn_case(rng, grid=False)
        while not len(dets):
            pts, sems, dets = random_nn_case(rng, grid=False)
        pairs = gather_pairs(pts, sems, dets, 0.1, 0.3)
        assert len(pairs) == pairs.offsets[-1] == pairs.det.size
        for d, one in enumerate(dets):
            want = roi_points(one, pts, True, 0.1, 0.3)
            want = want[sems[want] == one.class_id]
            np.testing.assert_array_equal(pairs.point[pairs.group(d)], want)
            assert np.all(pairs.det[pairs.group(d)] == d)

    def test_empty_inputs(self):
        pairs = gather_pairs(np.zeros((0, 3)), np.zeros(0, dtype=int), stack([det([0, 0, 0])]),
                             margin_floor=0.1)
        assert len(pairs) == 0 and pairs.offsets.tolist() == [0, 0]
        pairs = gather_pairs(np.zeros((3, 3)), np.ones(3, dtype=int), stack([]),
                             margin_floor=0.1)
        assert len(pairs) == 0 and pairs.offsets.tolist() == [0]


class TestNnBaselineAgainstReference:
    @pytest.mark.parametrize("grid", [False, True])
    def test_random_scenes(self, grid):
        rng = np.random.default_rng(12 + grid)
        ties = 0
        for trial in range(150):
            pts, sems, dets = random_nn_case(rng, grid)
            margins = dict(margin_frac=0.1, margin_floor=float(rng.choice([0.1, 0.3])))
            got = nn_baseline(pts, sems, dets, **margins)
            want = nn_baseline_reference(pts, sems, dets, **margins)
            np.testing.assert_array_equal(got, want, err_msg=f"trial {trial}")
            pairs = gather_pairs(pts, sems, dets, **margins)
            np.testing.assert_array_equal(nn_baseline(pts, sems, dets, **margins, pairs=pairs),
                                          want)
            if grid and len(pairs):
                dist = np.linalg.norm(pts[pairs.point] - dets.center[pairs.det], axis=1)
                keys = set()
                for i, dd in zip(pairs.point, dist):
                    ties += (i, dd) in keys
                    keys.add((i, dd))
        if grid:
            assert ties > 100  # the grid really exercises the tie rule

    def test_exact_ties_between_non_adjacent_detections(self):
        # Point 0 is 1 m from detections 0 and 2, and detection 1 (another
        # class) lies between them in row order; point 1 is 1 m from
        # detections 1 and 3 and outside 0 and 2. All four are equally
        # confident, so each point goes to the lower of its tied indices.
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
        sems = np.array([1, 2])
        dets = stack([det([1.0, 0, 0], conf=0.9), det([0.0, 11.0, 0], conf=0.9, cid=2),
                      det([-1.0, 0, 0], conf=0.9), det([0.0, 9.0, 0], conf=0.9, cid=2)])
        want = nn_baseline_reference(pts, sems, dets, margin_floor=0.1)
        assert want.tolist() == [0, 1]
        np.testing.assert_array_equal(nn_baseline(pts, sems, dets, margin_floor=0.1), want)

    def test_empty_detections_and_points(self):
        pts = np.random.default_rng(13).uniform(-1, 1, size=(5, 3))
        assert nn_baseline(pts, np.ones(5, dtype=int), stack([]),
                           margin_floor=0.1).tolist() == [-1] * 5
        assert nn_baseline(np.zeros((0, 3)), np.zeros(0, dtype=int), stack([det([0, 0, 0])]),
                           margin_floor=0.1).shape == (0,)


# Row scenes: adjacent same-class boxes a few decimeters apart.
ROW_TAX = mp.default_taxonomy()
ROW_SPEC = GridSpec()


def row_scene(seed):
    cfg = mp.SceneConfig(seed=seed, sweep_count=2, period=0.5, count_range=(2, 3),
                         box_specs={1: mp.BoxSpec((2.25, 1.0, 0.75), (0.2, 0.1, 0.06))},
                         min_separation=10.0, points_per_m2=40.0, speed_range=(0.5, 1.5),
                         motion="drift", pair_gap_range=(0.1, 0.35),
                         pair_offset_range=(0.5, 2.0), row_partners=2, max_range=24.0)
    return mp.generate_sequence(cfg, ROW_TAX)


@pytest.fixture(scope="module")
def row_model():
    provider = HandcraftedFeatures(ROW_SPEC)
    cfg = MembershipTrainConfig(
        PairFeatureConfig(ROW_TAX.num_channels, HandcraftedFeatures.DIM, HandcraftedFeatures.DIM),
        epochs=3, learning_rate=1e-3, optimizer="adam", center_jitter=0.3, margin_floor=0.3,
        seed=7)
    model, _ = train_membership_stage2([row_scene(600)[0]], ROW_TAX, cfg, provider)
    sweeps = []
    for seed in (700, 701):
        seq, _ = row_scene(seed)
        sweeps += prepare_sweep_inputs(seq, mp.build_trajectories(seq, ROW_TAX), ROW_TAX,
                                       ROW_SPEC, ExtentStrategy("MAX"),
                                       DetectorNoise(center_jitter=0.3), seed=99)
    return model, cfg.features, provider, sweeps


def per_detection_scores(model, pair_cfg, provider, inputs, dets, pairs):
    """One forward per detection group."""
    out = [np.zeros(0)]
    for d, one in enumerate(dets):
        idx = pairs.point[pairs.group(d)]
        table = PairTable(np.zeros(idx.size, dtype=np.int64), idx, np.array([0, idx.size]),
                          margin_floor=0.1)
        out.append(mlp_scores(model, pair_cfg, provider, inputs, stack([one]), table))
    return np.concatenate(out)


class TestBatchedMlpScores:
    def test_one_forward_matches_per_detection_forwards(self, row_model):
        model, pair_cfg, provider, sweeps = row_model
        scored = 0
        for inputs in sweeps:
            dets = nms_detect(inputs.maps, ROW_SPEC)
            pairs = gather_pairs(inputs.sweep.xyz, inputs.point_sem, dets, 0.1, 0.3)
            batch = mlp_scores(model, pair_cfg, provider, inputs, dets, pairs)
            single = per_detection_scores(model, pair_cfg, provider, inputs, dets, pairs)
            assert batch.shape == single.shape == (len(pairs),)
            np.testing.assert_allclose(batch, single, rtol=0, atol=1e-12)
            assert np.all(np.abs(batch - 0.5) > 1e-12)  # no claim flips at 0.5
            scored += len(pairs)
        assert scored > 1000

    def test_feature_blocks_need_a_provider(self, row_model):
        model, pair_cfg, _, sweeps = row_model
        inputs = sweeps[0]
        dets = nms_detect(inputs.maps, ROW_SPEC)
        pairs = gather_pairs(inputs.sweep.xyz, inputs.point_sem, dets, 0.1, 0.3)
        with pytest.raises(ValueError, match="requires a provider"):
            mlp_scores(model, pair_cfg, None, inputs, dets, pairs)
        with pytest.raises(ValueError, match="requires a provider"):
            build_training_pairs([row_scene(600)[0]], ROW_TAX, MembershipTrainConfig(pair_cfg))

    @pytest.mark.parametrize("conflict", ["first_wins", "argmax"])
    def test_fused_labels_equal(self, row_model, conflict):
        model, pair_cfg, provider, sweeps = row_model
        claimed = 0
        for inputs in sweeps:
            dets = nms_detect(inputs.maps, ROW_SPEC)
            fused = [fuse_panoptic(inputs.sweep.xyz, dets, inputs.point_sem,
                                   partial(score, model, pair_cfg, provider, inputs, dets),
                                   ROW_TAX, 0.1, 0.3, conflict)
                     for score in (mlp_scores, per_detection_scores)]
            np.testing.assert_array_equal(fused[0].sem, fused[1].sem)
            np.testing.assert_array_equal(fused[0].inst, fused[1].inst)
            np.testing.assert_array_equal(fused[0].point_detection, fused[1].point_detection)
            claimed += np.count_nonzero(fused[0].point_detection >= 0)
        assert claimed > 500


class TestBuildTrainingPairs:
    def test_produces_both_labels_on_adjacent_scene(self):
        import modalpanoptic as mp

        cfg = mp.SceneConfig(seed=3, sweep_count=2, count_range=(1, 1),
                             box_specs={1: mp.BoxSpec((2.25, 1.0, 0.75), (0.1, 0.05, 0.05))},
                             motion="static", occlusion=False,
                             pair_gap_range=(0.1, 0.25),
                             pair_offset_range=(0.3, 0.8), min_separation=6.0,
                             speed_range=(0.0, 0.1), points_per_m2=60.0,
                             spawn_radius_range=(8.0, 12.0))
        seq, _ = mp.generate_sequence(cfg, mp.default_taxonomy())
        tcfg = MembershipTrainConfig(
            PairFeatureConfig(mp.default_taxonomy().num_channels),
            seed=1, margin_floor=0.3)
        pairs, labels = build_training_pairs([seq], mp.default_taxonomy(), tcfg)
        assert pairs.shape[1] == tcfg.features.width
        assert set(np.unique(labels).tolist()) == {0.0, 1.0}


# ---------------------------------------------------------------- one pair path

# Each feature set's (point, BEV) block widths, as multiples of the provider's.
FEATURE_SETS = {"geo": (0, 0), "geo+bev": (0, 1), "full": (1, 1)}


def feature_config(name, num_classes, point_dim, bev_dim):
    point_share, bev_share = FEATURE_SETS[name]
    return PairFeatureConfig(num_classes, point_dim * point_share, bev_dim * bev_share)


class TestAssemblyAgainstReference:
    @pytest.mark.parametrize("features", sorted(FEATURE_SETS))
    def test_random_tables(self, features):
        cfg = feature_config(features, 4, 3, 2)
        rng = np.random.default_rng(40)
        empty_groups = 0
        for trial in range(120):
            pts, sems, dets = random_nn_case(rng, grid=bool(trial % 2))
            if trial % 3 == 0:
                # A detection off the BEV grid with nothing in its RoI, at a random rank.
                rows = list(dets)
                at = int(rng.integers(0, len(rows) + 1))
                conf = rows[at - 1].confidence if at else 1.0
                rows.insert(at, det([20.0, -20.0, 0.0], conf=conf, cid=1))
                dets = stack(rows)
            pairs = gather_pairs(pts, sems, dets, 0.1, float(rng.choice([0.1, 0.3])))
            feats = rng.normal(size=(len(pts), 3))
            bev = dense_bev(rng.normal(size=(16, 16, 2)), cell_size=1.0, planar_range=8.0)
            got = assemble_pair_features(pts, sems, dets, pairs, cfg, feats, bev)
            want = pair_rows_reference(pts, sems, dets, pairs, cfg, feats, bev)
            assert got.shape == want.shape == (len(pairs), cfg.width), f"trial {trial}"
            assert got.tobytes() == want.tobytes(), f"trial {trial}"
            empty_groups += int(np.count_nonzero(np.diff(pairs.offsets) == 0))
        assert empty_groups > 40


EDGE_SPEC = GridSpec((0.1, 0.1, 0.2), 8.0, -2.0, 3.0, 2)


def edge_sequence(border_x=7.55, border_half=0.06):
    """A car near the grid border, a stuff-only sweep, a flat car and two cars side by side.

    The border car is a few centimeters across, so a meter of center jitter
    leaves its RoI empty, often with the center off the grid. The flat car
    never spans its height axis, which is widened from the class mean.
    """
    rng = np.random.default_rng(41)

    def block(center, half, n):
        return np.asarray(center) + rng.uniform(-1.0, 1.0, size=(n, 3)) * half

    ground = np.column_stack([rng.uniform(-7.5, 7.5, size=(200, 2)), np.full(200, -1.5)])
    border = block([border_x, 0.0, 0.0], [border_half] * 3, 20)
    flat = block([-3.0, -4.0, 0.0], [1.0, 0.5, 0.01], 40)
    cars = np.concatenate([block([0.0, 0.0, 0.0], [2.0, 0.9, 0.7], 80),
                           block([0.0, 2.0, 0.0], [2.0, 0.9, 0.7], 80)])
    walker = block([-3.0, 3.0, 0.0], [0.3, 0.3, 0.9], 30)
    layouts = [
        [(ground, 3, 0), (border, 1, 1), (walker, 2, 4), (flat, 1, 5)],
        [(ground, 3, 0)],
        [(ground, 3, 0), (border, 1, 1), (cars[:80], 1, 2), (cars[80:], 1, 3)],
    ]
    sweeps = []
    for t, parts in enumerate(layouts):
        xyz = np.concatenate([part for part, _, _ in parts])
        points = np.zeros((len(xyz), 4))
        points[:, :3] = xyz
        sem = np.concatenate([np.full(len(part), c) for part, c, _ in parts])
        inst = np.concatenate([np.full(len(part), i) for part, _, i in parts])
        sweeps.append(PointCloudSweep(0.5 * t, points, sem, inst, np.eye(4)))
    return SweepSequence(tuple(sweeps), period=0.5)


class TestTrainingPairsAgainstReference:
    @pytest.mark.parametrize("features", sorted(FEATURE_SETS))
    def test_scenes(self, features):
        pair_cfg = feature_config(features, ROW_TAX.num_channels, HandcraftedFeatures.DIM,
                                  HandcraftedFeatures.DIM)
        corpora = [([row_scene(600)[0], row_scene(601)[0]], ROW_SPEC)]
        corpora += [([edge_sequence()], EDGE_SPEC)] * 4
        off_grid = 0
        for seed, (sequences, spec) in enumerate(corpora):
            provider = HandcraftedFeatures(spec)
            cfg = MembershipTrainConfig(pair_cfg, center_jitter=0.3 if seed == 0 else 1.0,
                                        margin_floor=0.3, seed=seed)
            skipped = []
            got = build_training_pairs(sequences, ROW_TAX, cfg, provider)
            want = build_training_pairs_reference(sequences, ROW_TAX, cfg, provider, skipped)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), f"corpus {seed}"
            off_grid += sum(not spec.in_range(c[None, :])[0] for c in skipped)
        assert off_grid > 0


class TestOffGridTrainingCenters:
    """A 4 cm car 0.28 m inside the border: a meter of jitter can move its center
    off the BEV footprint while its RoI still holds its points."""

    @pytest.mark.parametrize("features", ["geo+bev", "full"])
    def test_dropped_like_reference(self, features):
        pair_cfg = feature_config(features, ROW_TAX.num_channels, HandcraftedFeatures.DIM,
                                  HandcraftedFeatures.DIM)
        provider = HandcraftedFeatures(EDGE_SPEC)
        seq = edge_sequence(border_x=8.0 - 0.28, border_half=0.02)
        off_grid = 0
        for seed in range(4):
            cfg = MembershipTrainConfig(pair_cfg, center_jitter=1.0, margin_floor=0.3, seed=seed)
            skipped = []
            got = build_training_pairs([seq], ROW_TAX, cfg, provider)
            want = build_training_pairs_reference([seq], ROW_TAX, cfg, provider, skipped)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), f"seed {seed}"
            off_grid += sum(not EDGE_SPEC.in_range(c[None, :])[0] for c in skipped)
        assert off_grid > 0

    def test_train_mem_full_exits_0(self, tmp_path):
        # On the CLI's 40 m grid; the row scene gives every seed negative pairs.
        write_sequence(tmp_path / "data", "0000", edge_sequence(40.0 - 0.28, 0.02), ROW_TAX)
        write_sequence(tmp_path / "data", "0001", row_scene(600)[0], ROW_TAX)
        for seed in range(4):
            assert cli.main(["train-mem", "--data", str(tmp_path / "data"),
                             "--out", str(tmp_path / "m.bin"), "--features", "full",
                             "--train-jitter", "1.0", "--margin-floor", "0.3",
                             "--epochs", "1", "--seed", str(seed)]) == 0, f"seed {seed}"
