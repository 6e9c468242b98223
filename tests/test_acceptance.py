"""End-to-end acceptance checks.

Each test prints one PASS line when its criterion holds; run with
``pytest tests/test_acceptance.py -v -s`` to see them. The heavyweight
corpora are module-scoped fixtures so the suite stays within its time
budget.
"""

import time
from functools import partial

import numpy as np
import pytest

import modalpanoptic as mp
from modalpanoptic.inference import nms_detect
from modalpanoptic.losses import bce_loss, focal_loss, l1_loss, masked_cross_entropy
from modalpanoptic.membership import (
    MembershipTrainConfig,
    PairFeatureConfig,
    mlp_scores,
    nn_baseline,
    nn_scores,
    oracle_scores,
    train_membership_stage2,
)
from modalpanoptic.metrics import membership_accuracy
from modalpanoptic.mlp import backward, build_mlp, forward
from modalpanoptic.pipeline import prepare_sweep_inputs, infer_sequence
from modalpanoptic.synth import NO_NOISE, DetectorNoise, HandcraftedFeatures
from modalpanoptic.targets import (
    ExtentStrategy,
    aggregate_extent,
    build_trajectories,
    class_wise_mean_extents,
    modal_center,
    render_bev_targets,
    heatmap_sigma,
)
from modalpanoptic.tracking import PipelineConfig, panoptic_track_sequence
from modalpanoptic.voxels import GridSpec

from fakes import make_table_membership
from oracles import fd_gradient, fuse_reference, pq_counts, rel_err, tube_s_assoc
from test_inference import TAX as FUSE_TAX, random_fusion_case

TAX = mp.default_taxonomy()
SPEC = GridSpec()
CAR_BOX = {1: mp.BoxSpec((2.25, 1.0, 0.75), (0.2, 0.1, 0.06))}
MARGIN = dict(margin_frac=0.1, margin_floor=0.3)


def weighted(pairs):
    return sum(a * n for a, n in pairs) / sum(n for _, n in pairs)


# ---------------------------------------------------------------- criterion 1

def passing_corpus(seed):
    cfg = mp.SceneConfig(seed=seed, sweep_count=12, period=1.0, count_range=(3, 4),
                         box_specs=CAR_BOX, min_separation=8.0, points_per_m2=25.0,
                         speed_range=(2.0, 5.0), approach_range=(3.0, 8.0),
                         max_range=38.0)
    return mp.generate_sequence(cfg, TAX)


@pytest.fixture(scope="module")
def extent_corpus():
    return [passing_corpus(1000 + s) for s in range(50)]


def test_acceptance_1_extent_strategy_trend(extent_corpus):
    t0 = time.time()
    seqs = extent_corpus

    # Extent recovery statistics against the generator's true half extents.
    max_errs, sw_errs = [], []
    seq_trajs = []
    for seq, reg in seqs:
        trajs = build_trajectories(seq, TAX)
        seq_trajs.append(trajs)
        true = np.array([reg.instances[int(iid)].half_extent for iid in trajs.instance_id])
        agg, _ = aggregate_extent(trajs, ExtentStrategy("MAX"))
        max_errs.extend(np.max(np.abs(agg - true) / true, axis=1)[trajs.offsets[:-1]])
        # Heavily occluded by construction: each sweep resolves a single
        # dominant face, so the worst axis is unobserved.
        sw_errs.extend(np.max(np.abs(trajs.extent - true) / true, axis=1))
    max_median = float(np.median(max_errs))
    sw_median = float(np.median(sw_errs))
    assert max_median < 0.05, f"MAX extent median relative error {max_median:.3f}"
    assert sw_median > 0.20, f"SW extent median relative error {sw_median:.3f}"

    cwm_stats = class_wise_mean_extents(seq_trajs, TAX)
    strategies = {
        "SW": ExtentStrategy("SW"),
        "MAX": ExtentStrategy("MAX"),
        "CWM": ExtentStrategy("CWM", cwm_stats=cwm_stats),
        "DSB": ExtentStrategy("DSB", dsb_min_points=40),
    }
    pcfg = PipelineConfig(margin_floor=0.25)
    pq = {}
    for name, strategy in strategies.items():
        acc = mp.PqAccumulator(TAX)
        for (seq, _), trajs in zip(seqs, seq_trajs):
            inputs = prepare_sweep_inputs(seq, trajs, TAX, SPEC, strategy, NO_NOISE)
            labs = infer_sequence(inputs, TAX, SPEC, nn_scores, pcfg)
            for sweep, lab in zip(seq.sweeps, labs):
                acc.add(mp.PanopticLabeling(sweep.sem_labels, sweep.inst_labels), lab)
        pq[name] = acc.report().pq
    elapsed = time.time() - t0
    assert pq["MAX"] > pq["CWM"] >= pq["SW"] > pq["DSB"], pq
    assert elapsed < 300.0, f"criterion 1 took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 1 PASS: PQ MAX {pq['MAX']:.3f} > CWM {pq['CWM']:.3f} >= "
          f"SW {pq['SW']:.3f} > DSB {pq['DSB']:.3f}; extent err MAX {max_median:.3%} "
          f"SW {sw_median:.3%}; {elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 2

def ambiguous_corpus(seed):
    cfg = mp.SceneConfig(seed=seed, sweep_count=4, period=0.5, count_range=(2, 3),
                         box_specs=CAR_BOX, min_separation=10.0, points_per_m2=40.0,
                         speed_range=(0.5, 1.5), motion="drift",
                         pair_gap_range=(0.1, 0.35), pair_offset_range=(0.5, 2.0),
                         row_partners=2, max_range=24.0)
    return mp.generate_sequence(cfg, TAX)


@pytest.fixture(scope="module")
def membership_setup():
    train_seqs = [ambiguous_corpus(400 + s)[0] for s in range(8)]
    test_scenes = [ambiguous_corpus(500 + s) for s in range(4)]
    provider = HandcraftedFeatures(SPEC)
    return train_seqs, test_scenes, provider


def mlp_assignments(model, cfgm, provider, inputs, dets):
    # Each point goes to the detection with the highest membership above 0.5.
    score = partial(mlp_scores, model, cfgm.features, provider, inputs, dets)
    return mp.fuse_panoptic(inputs.sweep.xyz, dets, inputs.point_sem, score, TAX,
                            conflict="argmax", **MARGIN).point_detection


def eval_membership(test_scenes, assign_of):
    results = []
    noise = DetectorNoise(center_jitter=0.3)
    for seq, _ in test_scenes:
        inputs = prepare_sweep_inputs(seq, build_trajectories(seq, TAX), TAX, SPEC,
                                      ExtentStrategy("MAX"), noise, seed=99)
        for inp in inputs:
            dets = nms_detect(inp.maps, SPEC, 0.3, 500)
            sweep = inp.sweep
            ids = sweep.inst_labels
            uniq = np.unique(ids[ids > 0])
            centers = {int(i): modal_center(sweep.xyz[ids == i]) for i in uniq}
            classes = {int(i): int(sweep.sem_labels[ids == i][0]) for i in uniq}
            assign = assign_of(inp, dets)
            results.append(membership_accuracy(sweep.xyz, ids, centers, classes,
                                               dets, assign, **MARGIN))
    return weighted(results)


def test_acceptance_2_membership_trend(membership_setup):
    train_seqs, test_scenes, provider = membership_setup
    t0 = time.time()
    full_cfg = MembershipTrainConfig(
        PairFeatureConfig(TAX.num_channels, HandcraftedFeatures.DIM, HandcraftedFeatures.DIM),
        epochs=30, learning_rate=1e-3, optimizer="adam", center_jitter=0.3, margin_floor=0.3,
        seed=7)
    geo_cfg = MembershipTrainConfig(
        PairFeatureConfig(TAX.num_channels),
        epochs=30, learning_rate=1e-3, optimizer="adam", center_jitter=0.3,
        margin_floor=0.3, seed=7)
    full_model, _ = train_membership_stage2(train_seqs, TAX, full_cfg, provider)
    geo_model, _ = train_membership_stage2(train_seqs, TAX, geo_cfg, None)
    train_time = time.time() - t0
    assert train_time < 600.0, f"training took {train_time:.0f}s"

    nn_acc = eval_membership(
        test_scenes,
        lambda inp, dets: nn_baseline(inp.sweep.xyz, inp.point_sem, dets, **MARGIN))
    full_acc = eval_membership(
        test_scenes,
        lambda inp, dets: mlp_assignments(full_model, full_cfg, provider, inp, dets))
    geo_acc = eval_membership(
        test_scenes, lambda inp, dets: mlp_assignments(geo_model, geo_cfg, None, inp, dets))

    assert full_acc >= nn_acc + 0.05, f"full {full_acc:.3f} vs NN {nn_acc:.3f}"
    assert full_acc >= geo_acc, f"full {full_acc:.3f} vs geo {geo_acc:.3f}"
    print(f"\nACCEPTANCE 2 PASS: membership acc NN {nn_acc:.3f} -> geo {geo_acc:.3f} "
          f"-> full {full_acc:.3f} (train {train_time:.0f}s)")


# ---------------------------------------------------------------- criterion 3

def test_acceptance_3_perfect_input_identity():
    pcfg = PipelineConfig(margin_floor=0.25, default_gate=3.0)
    for seed in (11, 12, 13):
        cfg = mp.SceneConfig(seed=seed, sweep_count=10, count_range=(3, 4),
                             min_separation=8.0, points_per_m2=60.0)
        seq, _ = mp.generate_sequence(cfg, TAX)
        inputs = prepare_sweep_inputs(seq, build_trajectories(seq, TAX), TAX, SPEC,
                                      ExtentStrategy("MAX"), NO_NOISE)
        labelings = panoptic_track_sequence(inputs, TAX, SPEC, oracle_scores,
                                            seq.period, pcfg)
        gts = [mp.PanopticLabeling(s.sem_labels, s.inst_labels) for s in seq.sweeps]
        acc = mp.PqAccumulator(TAX)
        for gt, lab in zip(gts, labelings):
            acc.add(gt, lab)
        report = acc.report()
        tubes = mp.LstqAccumulator(TAX)
        tubes.add_sequence(gts, labelings)
        lstq = tubes.report()
        assert abs(report.pq - 1.0) <= 1e-9, f"seed {seed} PQ {report.pq}"
        assert abs(lstq.s_assoc - 1.0) <= 1e-9, f"seed {seed} S_assoc {lstq.s_assoc}"
        assert abs(lstq.lstq - 1.0) <= 1e-9, f"seed {seed} LSTQ {lstq.lstq}"
    print("\nACCEPTANCE 3 PASS: zero-noise pipeline reproduces ground truth "
          "(PQ = S_assoc = LSTQ = 1.0 on 3 seeds x 10 sweeps)")


# ---------------------------------------------------------------- criterion 4

def test_acceptance_4_metric_oracle_equivalence():
    from test_metrics import TAX as MTAX, random_scene

    rng = np.random.default_rng(42)
    for trial in range(200):
        n_points = int(rng.integers(40, 2000))
        n_inst = int(rng.integers(1, 9))
        gt, pred = random_scene(rng, n_points=n_points, n_inst=n_inst)
        acc = mp.PqAccumulator(MTAX)
        acc.add(gt, pred)
        report = acc.report()
        want = pq_counts(gt.sem, gt.inst, pred.sem, pred.inst,
                         set(MTAX.thing_ids), set(MTAX.stuff_ids),
                         set(MTAX.ignore_ids), MTAX.min_instance_points)
        for cid, (iou_sum, tp, fp, fn) in want.items():
            st = report.per_class[cid]
            assert (st.tp, st.fp, st.fn) == (tp, fp, fn), f"trial {trial} class {cid}"
            assert abs(st.iou_sum - iou_sum) < 1e-12
        acc = mp.LstqAccumulator(MTAX)
        acc.add_sequence([gt], [pred])
        got = acc.report().s_assoc
        ref = tube_s_assoc([gt.sem], [gt.inst], [pred.sem], [pred.inst],
                           set(MTAX.thing_ids), set(MTAX.ignore_ids))
        assert abs(got - ref) < 1e-12, f"trial {trial}"

    # Hand-derived id-switch construction.
    gt = [mp.PanopticLabeling(np.full(8, 1), np.full(8, 3)) for _ in range(10)]
    pred = [mp.PanopticLabeling(np.full(8, 1), np.full(8, 1 if t < 5 else 2))
            for t in range(10)]
    acc = mp.LstqAccumulator(MTAX)
    acc.add_sequence(gt, pred)
    s = acc.report().s_assoc
    assert abs(s - 0.5) <= 1e-12
    print("\nACCEPTANCE 4 PASS: PQ and LSTQ match brute-force matchers on 200 "
          "random scenes; id-switch S_assoc = 0.5 exact")


# ---------------------------------------------------------------- criterion 5

def test_acceptance_5_gradient_suite():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        # focal
        target = rng.uniform(0, 0.9, size=(6, 6))
        target[tuple(rng.integers(6, size=2))] = 1.0
        pred = rng.uniform(0.1, 0.9, size=(6, 6))
        grad = focal_loss(pred, target).gradient
        fd = fd_gradient(lambda p: focal_loss(p, target).value, pred.copy())
        worst = max(worst, rel_err(grad, fd, floor=1e-6))
        # masked CE
        logits = rng.normal(size=(10, 4))
        labels = rng.integers(0, 4, size=10)
        mask = rng.uniform(size=10) > 0.3
        grad = masked_cross_entropy(logits, labels, mask).gradient
        fd = fd_gradient(lambda z: masked_cross_entropy(z, labels, mask).value,
                         logits.copy())
        worst = max(worst, rel_err(grad, fd, floor=1e-6))
        # L1 away from the kink
        pred = rng.normal(size=(8,))
        target = pred + np.where(rng.uniform(size=8) > 0.5, 1, -1) * rng.uniform(0.5, 2, 8)
        grad = l1_loss(pred, target).gradient
        fd = fd_gradient(lambda p: l1_loss(p, target).value, pred.copy())
        worst = max(worst, rel_err(grad, fd, floor=1e-6))
        # BCE
        pred = rng.uniform(0.05, 0.95, size=25)
        labels = rng.integers(0, 2, size=25).astype(float)
        grad = bce_loss(pred, labels).gradient
        fd = fd_gradient(lambda p: bce_loss(p, labels).value, pred.copy())
        worst = max(worst, rel_err(grad, fd, floor=1e-6))
        # every MLP parameter through BCE
        model = build_mlp([4, 6, 5, 1], seed=seed).set_train()
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 2, size=8).astype(float)

        def model_loss():
            out, cache = forward(model, x, update_running=False)
            return bce_loss(out.reshape(-1), y), cache

        loss, cache = model_loss()
        grads, _ = backward(model, cache, loss.gradient.reshape(-1, 1))
        for li, layer in enumerate(model.layers):
            params = {"weights": layer.weights, "bias": layer.bias}
            if layer.batchnorm is not None:
                params.update(gamma=layer.batchnorm.gamma, beta=layer.batchnorm.beta)
            for name, param in params.items():
                def scalar(arr, param=param):
                    saved = param.copy()
                    param[...] = arr
                    value = model_loss()[0].value
                    param[...] = saved
                    return value
                fd = fd_gradient(scalar, param.copy())
                # Components below 1e-6 compare absolutely: central FD noise
                # (~1e-11) otherwise shows up as a fake relative error.
                worst = max(worst, rel_err(grads[li][name], fd, floor=1e-6))
    assert worst < 1e-4, f"worst relative error {worst:.2e}"
    print(f"\nACCEPTANCE 5 PASS: all gradients within 1e-4 of finite differences "
          f"over 20 seeds (worst {worst:.2e})")


# ---------------------------------------------------------------- criterion 6

def test_acceptance_6_fusion_conformance():
    rng = np.random.default_rng(7)
    for trial in range(100):
        pts, sems, dets, table = random_fusion_case(
            rng, n_points=int(rng.integers(20, 120)),
            n_dets=int(rng.integers(1, 7)), include_half=True)
        got = mp.fuse_panoptic(pts, dets, sems, make_table_membership(table), FUSE_TAX,
                               margin_frac=0.1, margin_floor=0.1)
        want_sem, want_inst = fuse_reference(pts, sems, dets, table,
                                             set(FUSE_TAX.thing_ids),
                                             margin_frac=0.1, margin_floor=0.1)
        np.testing.assert_array_equal(got.sem, want_sem, err_msg=f"trial {trial}")
        np.testing.assert_array_equal(got.inst, want_inst, err_msg=f"trial {trial}")
    print("\nACCEPTANCE 6 PASS: fusion equals the line-by-line reference on 100 "
          "randomized inputs including exact-0.5 memberships")


# ---------------------------------------------------------------- criterion 7

def test_acceptance_7_target_math():
    # Peak exactly 1.0 at each center cell.
    centers = [(180, 200), (220, 210), (190, 230)]
    xyz = [[*SPEC.bev_cell_center(cx, cy), 0.4] for cx, cy in centers]
    out = render_bev_targets(xyz, np.ones(3, dtype=int), np.tile([1.0, 0.6, 0.5], (3, 1)),
                             np.zeros((3, 2)), SPEC, TAX.num_channels)
    for cx, cy in centers:
        assert out.heatmaps.dense()[1, cx, cy] == 1.0

    # Gaussian value one sigma away.
    small = np.array([0.3, 0.2, 0.5])
    rendered = render_bev_targets([[*SPEC.bev_cell_center(210, 170), 0.0]], [1], [small],
                                  np.zeros((1, 2)), SPEC, TAX.num_channels)
    sigma = heatmap_sigma(small, SPEC)
    assert sigma == 2.0 * SPEC.bev_cell_size
    assert abs(rendered.heatmaps.dense()[1, 212, 170] - np.exp(-0.5)) <= 1e-9

    # Velocity targets: exact centered difference, zero for singletons. Car 5
    # is one point per sweep, so its modal centers are exact; car 6 shows once.
    v = np.array([1.25, -0.75])
    sweeps = tuple(mp.PointCloudSweep(
        0.5 * t, [[v[0] * 0.5 * t, v[1] * 0.5 * t, 0.0, 0.0], [5.0, 5.0, 0.0, 0.0]],
        [1, 1], [5, 6 if t == 0 else 0]) for t in range(5))
    table = build_trajectories(mp.SweepSequence(sweeps, 0.5), TAX)
    for t in (1, 2, 3):
        np.testing.assert_array_almost_equal(table.velocity[t], v, decimal=12)
    assert table.instance_id[5] == 6
    np.testing.assert_array_equal(table.velocity[5], [0, 0])
    print("\nACCEPTANCE 7 PASS: heatmap peaks exactly 1.0, sigma value exp(-1/2), "
          "velocity targets exact")


# ---------------------------------------------------------------- criterion 8

def test_acceptance_8_determinism_and_io(tmp_path):
    from modalpanoptic.cli import main
    from modalpanoptic.dataio import decode_labels, encode_labels
    from test_dataio_cli import tree_bytes

    args = ["synth", "--sequences", "2", "--sweeps", "3", "--seed", "17",
            "--min-instances", "2", "--max-instances", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert tree_bytes(a) == tree_bytes(b)

    p1, p2 = tmp_path / "p1", tmp_path / "p2"
    infer_args = ["track", "--data", str(a), "--membership", "nn", "--seed", "3",
                  "--center-jitter", "0.1", "--drop-probability", "0.05"]
    assert main(infer_args + ["--out", str(p1)]) == 0
    assert main(infer_args + ["--out", str(p2)]) == 0
    assert tree_bytes(p1) == tree_bytes(p2)

    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    assert main(["eval", "--data", str(a), "--pred", str(p1), "--out", str(e1)]) == 0
    assert main(["eval", "--data", str(a), "--pred", str(p2), "--out", str(e2)]) == 0
    assert tree_bytes(e1) == tree_bytes(e2)

    # Label word packing.
    words = encode_labels(np.array([1, 9]), np.array([5, 700]))
    assert int(words[0]) == 0x0005_0001
    sem, inst = decode_labels(words)
    assert sem.tolist() == [1, 9] and inst.tolist() == [5, 700]
    assert all(int(w) & 0xFFFF == s for w, s in zip(words, sem))
    assert all(int(w) >> 16 == i for w, i in zip(words, inst))

    # Round-trip of a real sweep, bit-exact.
    from modalpanoptic.dataio import read_point_bin
    seq = None
    from modalpanoptic.dataio import read_sequence
    seq = read_sequence(a, "0000")
    raw = read_point_bin(a / "sequences" / "0000" / "velodyne" / "000000.bin")
    np.testing.assert_array_equal(raw, seq.sweeps[0].points[:, :4])
    print("\nACCEPTANCE 8 PASS: byte-reproducible CLI runs, bit-exact round trips, "
          "16/16 label packing verified")
