import dataclasses
import weakref
from functools import partial

import numpy as np
import pytest

import modalpanoptic as mp
from modalpanoptic.cli import _noise, _pair_config, build_parser, main
from modalpanoptic.cloud import PanopticLabeling
from modalpanoptic.dataio import (
    dataset_taxonomy,
    list_sequences,
    read_sequence,
    write_predictions,
    write_sequence,
)
from modalpanoptic.inference import nms_detect
from modalpanoptic.membership import oracle_scores
from modalpanoptic.mlp import load_model
from modalpanoptic.pipeline import build_extent_model, infer_sequence, prepare_sweep_inputs
from modalpanoptic.synth import NO_NOISE, HandcraftedFeatures
from modalpanoptic.targets import ExtentStrategy, class_wise_mean_extents
from modalpanoptic.tracking import (
    PipelineConfig,
    TrackIdOverflow,
    Tracklet,
    class_gates,
    greedy_associate,
    panoptic_track_sequence,
)
from modalpanoptic.voxels import GridSpec

from fakes import rotated, row as det, stack
from oracles import (
    fuse_reference,
    gather_pairs_reference,
    greedy_associate_reference,
    mlp_scores_reference,
    nms_detect_reference,
    nn_baseline_reference,
    simulate_detector_reference,
)

TAX = mp.default_taxonomy()
SPEC = GridSpec()


def associate(tracks, dets, velocities, **kw):
    args = dict(dt=0.5, sweep_index=kw.pop("sweep_index", 0), next_track_id=kw.pop("next_track_id", 1))
    args.update(kw)
    rows = [d._replace(velocity=v) for d, v in zip(dets, np.reshape(velocities, (-1, 2)))]
    return greedy_associate(tracks, stack(rows), **args)


class TestGreedyAssociate:
    def test_tracks_copy_the_sampled_velocity(self):
        # The detections' velocities are views into a sweep's velocity map;
        # tracks must not keep that map alive.
        velocity = np.arange(32, dtype=np.float64).reshape(4, 4, 2)
        first = dataclasses.replace(stack([det([0.0, 0, 0])]), velocity=velocity[1, 2:3])
        second = dataclasses.replace(stack([det([0.0, 0, 0]), det([9.0, 0, 0])]),
                                     velocity=np.broadcast_to(velocity[0, 0], (2, 2)))
        assert np.shares_memory(first.velocity, velocity)
        assert np.shares_memory(second.velocity, velocity)
        tracks, _, next_id = greedy_associate([], first, dt=0.5, sweep_index=0, next_track_id=1)
        tracks, ids, _ = greedy_associate(tracks, second, dt=0.5, sweep_index=1,
                                          next_track_id=next_id)
        assert ids == [1, 2]
        for track in tracks:
            assert track.last_velocity.tolist() == [0.0, 1.0]
            assert not np.shares_memory(track.last_velocity, velocity)

    def test_static_object_keeps_id(self):
        tracks, ids0, next_id = associate([], [det([5.0, 0, 0])], [[0, 0]])
        assert ids0 == [1]
        tracks, ids1, next_id = associate(tracks, [det([5.0, 0, 0])], [[0, 0]],
                                          sweep_index=1, next_track_id=next_id)
        assert ids1 == [1]

    def test_velocity_compensation_bridges_fast_motion(self):
        # Object moves 1.5 m/sweep; gate 1 m fails without compensation.
        tracks, _, next_id = associate([], [det([0.0, 0, 0])], [[3.0, 0.0]])
        tracks, ids, _ = associate(tracks, [det([1.5, 0, 0])], [[3.0, 0.0]],
                                   sweep_index=1, next_track_id=next_id,
                                   default_gate=1.0)
        assert ids == [1]

    def test_gate_blocks_uncompensated_match(self):
        tracks, _, next_id = associate([], [det([0.0, 0, 0])], [[0.0, 0.0]])
        tracks, ids, _ = associate(tracks, [det([1.5, 0, 0])], [[0.0, 0.0]],
                                   sweep_index=1, next_track_id=next_id,
                                   default_gate=1.0)
        assert ids == [2]  # new track

    def test_class_mismatch_never_matches(self):
        tracks, _, next_id = associate([], [det([0.0, 0, 0], cid=1)], [[0, 0]])
        tracks, ids, _ = associate(tracks, [det([0.0, 0, 0], cid=2)], [[0, 0]],
                                   sweep_index=1, next_track_id=next_id)
        assert ids == [2]

    def test_one_detection_per_track(self):
        tracks, _, next_id = associate([], [det([0.0, 0, 0])], [[0, 0]])
        dets = [det([0.1, 0, 0]), det([-0.1, 0, 0])]
        tracks, ids, _ = associate(tracks, dets, [[0, 0], [0, 0]],
                                   sweep_index=1, next_track_id=next_id)
        assert sorted(ids) == [1, 2]
        assert ids.count(1) == 1

    def test_greedy_prefers_smaller_distance(self):
        t1 = Tracklet(1, 1, np.array([0.0, 0, 0]), np.zeros(2))
        t2 = Tracklet(2, 1, np.array([2.0, 0, 0]), np.zeros(2))
        dets = [det([0.4, 0, 0]), det([1.9, 0, 0])]
        tracks, ids, _ = associate([t1, t2], dets, [[0, 0], [0, 0]],
                                   sweep_index=1, next_track_id=3, default_gate=3.0)
        assert ids == [1, 2]

    def test_track_dropped_after_max_age(self):
        tracks, _, next_id = associate([], [det([0.0, 0, 0])], [[0, 0]])
        for t in range(1, 4):  # absent for 3 sweeps with max_age 2
            tracks, _, next_id = associate(tracks, [], [], sweep_index=t,
                                           next_track_id=next_id, max_age=2)
        tracks, ids, _ = associate(tracks, [det([0.0, 0, 0])], [[0, 0]],
                                   sweep_index=4, next_track_id=next_id, max_age=2)
        assert ids == [2]

    def test_track_survives_within_max_age(self):
        tracks, _, next_id = associate([], [det([0.0, 0, 0])], [[0, 0]])
        for t in range(1, 3):  # absent for 2 sweeps, max_age 2
            tracks, _, next_id = associate(tracks, [], [], sweep_index=t,
                                           next_track_id=next_id, max_age=2)
        tracks, ids, _ = associate(tracks, [det([0.0, 0, 0])], [[0, 0]],
                                   sweep_index=3, next_track_id=next_id, max_age=2)
        assert ids == [1]

    def test_id_overflow_aborts(self):
        with pytest.raises(TrackIdOverflow):
            associate([], [det([0.0, 0, 0])], [[0, 0]], next_track_id=65536)


def run_tracked(seed=21, noise=NO_NOISE, score=oracle_scores, sweep_count=10, drop_sweep=None,
                max_age=2):
    cfg = mp.SceneConfig(seed=seed, sweep_count=sweep_count, count_range=(3, 4),
                         min_separation=8.0, points_per_m2=60.0)
    seq, _ = mp.generate_sequence(cfg, TAX)
    inputs = list(prepare_sweep_inputs(seq, mp.build_trajectories(seq, TAX), TAX, SPEC,
                                       ExtentStrategy("MAX"), noise, seed=7))
    if drop_sweep is not None:
        # Zero the heatmaps of one middle sweep: a detector dropout.
        m = inputs[drop_sweep].maps
        blank = dataclasses.replace(m, heatmaps=mp.SparseGrid(m.heatmaps.shape, [], []))
        inputs[drop_sweep] = dataclasses.replace(inputs[drop_sweep], maps=blank)
    pcfg = PipelineConfig(margin_floor=0.25, default_gate=3.0, max_age=max_age)
    labelings = panoptic_track_sequence(inputs, TAX, SPEC, score, seq.period, pcfg)
    gts = [PanopticLabeling(s.sem_labels, s.inst_labels) for s in seq.sweeps]
    return seq, gts, labelings


class TestPanopticTrackSequence:
    def test_single_sweep_equals_fusion(self):
        seq, gts, labelings = run_tracked(seed=22, sweep_count=1)
        assert len(labelings) == 1
        acc = mp.PqAccumulator(TAX)
        acc.add(gts[0], labelings[0])
        report = acc.report()
        assert report.pq == pytest.approx(1.0, abs=1e-9)

    def test_perfect_inputs_no_id_switches(self):
        seq, gts, labelings = run_tracked(seed=23)
        acc = mp.LstqAccumulator(TAX)
        acc.add_sequence(gts, labelings)
        lstq = acc.report()
        assert lstq.s_assoc == pytest.approx(1.0, abs=1e-9)
        assert lstq.lstq == pytest.approx(1.0, abs=1e-9)

    def test_identity_bridged_across_detector_dropout(self):
        seq, gts, labelings = run_tracked(seed=24, drop_sweep=4, max_age=2)
        # Ids of the sweeps around the gap agree per instance.
        before, after = labelings[3], labelings[5]
        gt_before, gt_after = gts[3], gts[5]
        for iid in np.unique(gt_before.inst[gt_before.inst > 0]):
            sel_b = gt_before.inst == iid
            sel_a = gt_after.inst == iid
            if not sel_a.any():
                continue
            ids_b = np.unique(before.inst[sel_b])
            ids_a = np.unique(after.inst[sel_a])
            ids_b = ids_b[ids_b > 0]
            ids_a = ids_a[ids_a > 0]
            assert ids_b.size == 1 and ids_a.size == 1
            assert ids_b[0] == ids_a[0], f"instance {iid} changed track id across the gap"

    def test_track_ids_are_temporally_stable(self):
        seq, gts, labelings = run_tracked(seed=25)
        mapping = {}
        for gt, lab in zip(gts, labelings):
            for iid in np.unique(gt.inst[gt.inst > 0]):
                sel = gt.inst == iid
                got = np.unique(lab.inst[sel])
                got = got[got > 0]
                assert got.size == 1
                assert mapping.setdefault(int(iid), int(got[0])) == int(got[0])


class TestOneSweepAlive:
    """A streamed sequence keeps only the sweep in hand alive."""

    @pytest.mark.parametrize("track", [True, False])
    def test_maps_released_sweep_by_sweep(self, track):
        cfg = mp.SceneConfig(seed=26, sweep_count=10, count_range=(3, 4), min_separation=8.0,
                             points_per_m2=60.0)
        seq, _ = mp.generate_sequence(cfg, TAX)
        stream = prepare_sweep_inputs(seq, mp.build_trajectories(seq, TAX), TAX, SPEC,
                                      ExtentStrategy("MAX"), NO_NOISE)
        alive, most, yielded = set(), [0], []

        def watched(per_sweep):
            for inputs in per_sweep:
                t = len(yielded)
                alive.add(t)
                weakref.finalize(inputs.maps, alive.discard, t)
                most[0] = max(most[0], len(alive))
                yielded.append(t)
                yield inputs
                del inputs

        pcfg = PipelineConfig(margin_floor=0.25, default_gate=3.0)
        if track:
            labelings = panoptic_track_sequence(watched(stream), TAX, SPEC, oracle_scores,
                                                seq.period, pcfg)
        else:
            labelings = infer_sequence(watched(stream), TAX, SPEC, oracle_scores, pcfg)
        assert len(labelings) == len(yielded) == 10
        # Each sweep's maps are gone before the next sweep's are made.
        assert most[0] == 1
        assert alive == set()


class TestSweepRecords:
    """Each streamed sweep lists all of its labeled instances, trained on or not."""

    def test_dsb_suppressed_instances_stay_listed(self):
        cfg = mp.SceneConfig(seed=27, sweep_count=6, count_range=(6, 8), min_separation=4.0,
                             points_per_m2=60.0)
        seq, _ = mp.generate_sequence(cfg, TAX)
        table = mp.build_trajectories(seq, TAX)
        strategy = ExtentStrategy("DSB", dsb_min_points=150)
        _, suppressed = build_extent_model(table, strategy)
        assert suppressed.any() and not suppressed.all()
        stream = prepare_sweep_inputs(seq, table, TAX, SPEC, strategy, NO_NOISE)
        listed = 0
        for t, (sweep, inputs) in enumerate(zip(seq.sweeps, stream)):
            # The oracle's candidate sources: every labeled instance of the sweep.
            ids, _, _, centers, _ = mp.instance_boxes(sweep.xyz, sweep.inst_labels)
            assert inputs.sweep_index == t
            rows = inputs.trajectories.sweep_index == t
            assert inputs.trajectories.instance_id[rows].tolist() == ids.tolist(), t
            assert inputs.trajectories.sensor_center[rows].tobytes() == centers.tobytes(), t
            listed += int(rows.sum())
        assert listed == len(table)


def class_cell(class_id, center):
    return (int(class_id), *map(int, SPEC.bev_cell_of(center)))


class TestDetectedExtents:
    """Without noise each detection reads its own instance's extent estimate at its peak."""

    @pytest.mark.parametrize("yawed", [False, True])
    @pytest.mark.parametrize("strategy", [ExtentStrategy("MAX"),
                                          ExtentStrategy("DSB", dsb_min_points=60)],
                             ids=["MAX", "DSB"])
    def test_each_detection_reads_its_estimate(self, yawed, strategy):
        cfg = mp.SceneConfig(seed=28, sweep_count=6, count_range=(5, 6), min_separation=6.0,
                             ego_motion="orbit", points_per_m2=60.0)
        seq, _ = mp.generate_sequence(cfg, TAX)
        if yawed:
            seq = rotated(seq, [0.4 + 0.9 * t for t in range(len(seq))])
        table = mp.build_trajectories(seq, TAX)
        predicted, suppressed = build_extent_model(table, strategy)
        detected = 0
        for t, inputs in enumerate(prepare_sweep_inputs(seq, table, TAX, SPEC, strategy,
                                                        NO_NOISE)):
            rows = np.flatnonzero((table.sweep_index == t) & ~suppressed)
            rows = rows[SPEC.in_range(table.sensor_center[rows])]
            # Each trained record's peak is the only one of its class in its cell.
            source = {class_cell(table.class_id[r], table.sensor_center[r]): r for r in rows}
            assert len(source) == rows.size, t
            dets = nms_detect(inputs.maps, SPEC)
            assert len(dets) == rows.size, t
            for d in dets:
                r = source[class_cell(d.class_id, d.center)]
                assert d.extent.tobytes() == predicted[table.row_instance[r]].tobytes(), (t, r)
            detected += len(dets)
        assert detected > 2 * len(seq)
        assert suppressed.any() == (strategy.variant == "DSB")


# The bench's crowded scenes and detector noise, cut to one short sequence.
CROWDED = ["--sequences", "1", "--sweeps", "3", "--seed", "1007000", "--min-instances", "8",
           "--max-instances", "12", "--min-separation", "4.0"]
NN_NOISE = ["--center-jitter", "0.15", "--drop-probability", "0.05", "--confidence-noise", "0.1",
            "--semantic-flip", "0.02", "--velocity-noise", "0.2"]


def track_by_references(seq, taxonomy, noise, seed):
    """``track --membership nn`` on one sequence, every per-sweep kernel a reference."""
    trajectories = mp.build_trajectories(seq, taxonomy)
    gates = class_gates(class_wise_mean_extents(trajectories, taxonomy)) or None
    cfg = PipelineConfig(gates=gates)
    predicted, suppressed = build_extent_model(trajectories, ExtentStrategy("MAX"))
    extents = predicted[trajectories.row_instance[~suppressed]]
    margins = (cfg.margin_frac, cfg.margin_floor)
    tracks, next_id, ages, out = [], 1, {}, []
    simulated = simulate_detector_reference(seq, trajectories.select(~suppressed), extents, noise,
                                            SPEC, taxonomy, seed=seed)
    for t, (sweep, (dense, sem, *_)) in enumerate(zip(seq.sweeps, simulated)):
        dets = nms_detect_reference(dense.heatmaps, dense.boxes, SPEC, cfg.nms_threshold,
                                    cfg.nms_max_detections)
        pairs = gather_pairs_reference(sweep.xyz, sem, dets, *margins)
        best = nn_baseline_reference(sweep.xyz, sem, dets, *margins)
        table = np.zeros((len(dets), len(sweep)))
        table[pairs.det, pairs.point] = best[pairs.point] == pairs.det
        sem_out, inst = fuse_reference(sweep.xyz, sem, dets, table, set(taxonomy.thing_ids),
                                       *margins, cfg.conflict)
        # Fused id k belongs to the k-th detection that is some point's nearest.
        point_det = np.append(np.unique(best[best >= 0]), -1)[inst - 1]
        ix, iy = SPEC.bev_cell_of(dets.center)
        velocities = dense.boxes[dets.class_id, np.clip(ix, 0, SPEC.bev_width - 1),
                                 np.clip(iy, 0, SPEC.bev_depth - 1), 4:]
        tracks, det_track, next_id = greedy_associate_reference(
            tracks, dets.to_world(sweep.ego_pose), velocities, seq.period, t, next_id,
            cfg.gates, cfg.default_gate, cfg.max_age, ages)
        out.append(PanopticLabeling(sem_out, np.array(det_track + [0], np.int32)[point_det]))
    return out


class TestWholeLoopAgainstReferences:
    def test_nn_track_labels_match_chained_references(self, tmp_path):
        data, pred, want = tmp_path / "data", tmp_path / "pred", tmp_path / "want"
        assert main(["synth", "--out", str(data)] + CROWDED) == 0
        assert main(["track", "--data", str(data), "--out", str(pred), "--seed", "7",
                     "--membership", "nn"] + NN_NOISE) == 0
        taxonomy = dataset_taxonomy(data)
        noise = _noise(build_parser().parse_args(["track", "--data", "", "--out", ""] + NN_NOISE))
        assert noise.drop_probability > 0 and noise.semantic_flip_probability > 0
        instances = set()
        for name in list_sequences(data):
            labelings = track_by_references(read_sequence(data, name), taxonomy, noise, seed=7)
            write_predictions(want, name, labelings)
            instances.update(np.unique(np.concatenate([lab.inst for lab in labelings])).tolist())
        assert len(instances) > 8
        for frame in sorted(want.rglob("*.label")):
            assert (pred / frame.relative_to(want)).read_bytes() == frame.read_bytes(), frame
        assert sorted(p.relative_to(pred) for p in pred.rglob("*")) \
            == sorted(p.relative_to(want) for p in want.rglob("*"))


# The bench's row scenes and their detector noise, cut to two short sequences.
ROWS = ["--sequences", "2", "--sweeps", "2", "--seed", "1000000", "--motion", "drift",
        "--min-instances", "2", "--max-instances", "3", "--min-separation", "10",
        "--max-range", "24", "--pair-gap", "0.1", "0.35", "--row-partners", "2",
        "--min-speed", "0.5", "--max-speed", "1.5"]
ROW_NOISE = ["--center-jitter", "0.15", "--semantic-flip", "0.01", "--margin-floor", "0.3"]


def mlp_track_by_reference(seq, taxonomy, args, model):
    """``track --membership mlp`` on one sequence, the scorer reading eager full-sweep
    features: every point's row and the full BEV map, made before detection."""
    trajectories = mp.build_trajectories(seq, taxonomy)
    pair_cfg = _pair_config(args, taxonomy)
    score = partial(mlp_scores_reference, model, pair_cfg, HandcraftedFeatures(SPEC))
    gates = class_gates(class_wise_mean_extents(trajectories, taxonomy)) or None
    cfg = PipelineConfig(margin_floor=args.margin_floor, gates=gates)
    stream = prepare_sweep_inputs(seq, trajectories, taxonomy, SPEC, ExtentStrategy("MAX"),
                                  _noise(args), seed=args.seed)
    return panoptic_track_sequence(stream, taxonomy, SPEC, score, seq.period, cfg)


class TestMlpWholeLoopAgainstEagerFeatures:
    @pytest.mark.parametrize("corpus", ["rows", "rotated"])
    @pytest.mark.parametrize("features", ["full", "geo+bev"])
    def test_track_labels_match(self, tmp_path, corpus, features):
        data, pred, want = tmp_path / "data", tmp_path / "pred", tmp_path / "want"
        model = tmp_path / "model.bin"
        assert main(["synth", "--out", str(data)] + ROWS) == 0
        taxonomy = dataset_taxonomy(data)
        if corpus == "rotated":
            for name in list_sequences(data):
                seq = read_sequence(data, name)
                write_sequence(data, name, rotated(seq, [0.4 + 1.1 * t for t in range(len(seq))]),
                               taxonomy)
        assert main(["train-mem", "--data", str(data), "--out", str(model), "--features", features,
                     "--epochs", "3", "--optimizer", "adam", "--learning-rate", "1e-3",
                     "--margin-floor", "0.3"]) == 0
        track = ["track", "--data", str(data), "--out", str(pred), "--seed", "7",
                 "--membership", "mlp", "--model", str(model), "--features", features] + ROW_NOISE
        assert main(track) == 0
        args = build_parser().parse_args(track)
        claimed = 0
        for name in list_sequences(data):
            labelings = mlp_track_by_reference(read_sequence(data, name), taxonomy, args,
                                               load_model(model))
            write_predictions(want, name, labelings)
            claimed += sum(np.count_nonzero(lab.inst) for lab in labelings)
        assert claimed > 300
        for frame in sorted(want.rglob("*.label")):
            assert (pred / frame.relative_to(want)).read_bytes() == frame.read_bytes(), frame
        assert sorted(p.relative_to(pred) for p in pred.rglob("*")) \
            == sorted(p.relative_to(want) for p in want.rglob("*"))
