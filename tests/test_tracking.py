import numpy as np
import pytest

import modalpanoptic as mp
from modalpanoptic.cloud import PanopticLabeling
from modalpanoptic.membership import oracle_scores
from modalpanoptic.pipeline import prepare_sweep_inputs
from modalpanoptic.synth import NO_NOISE, DetectorNoise
from modalpanoptic.targets import ExtentStrategy
from modalpanoptic.tracking import (
    PipelineConfig,
    TrackIdOverflow,
    Tracklet,
    greedy_associate,
    panoptic_track_sequence,
)
from modalpanoptic.voxels import GridSpec

from fakes import row as det, stack

TAX = mp.default_taxonomy()
SPEC = GridSpec((0.1, 0.1, 0.2), 40.0, -2.0, 3.0, 2)


def associate(tracks, dets, velocities, **kw):
    args = dict(dt=0.5, sweep_index=kw.pop("sweep_index", 0), next_track_id=kw.pop("next_track_id", 1))
    args.update(kw)
    return greedy_associate(tracks, stack(dets), np.reshape(velocities, (-1, 2)), **args)


class TestGreedyAssociate:
    def test_tracks_copy_the_sampled_velocity(self):
        # The velocities are views into a sweep's velocity map; tracks must
        # not keep that map alive.
        velocity = np.arange(32, dtype=np.float64).reshape(4, 4, 2)
        tracks, _, next_id = greedy_associate([], stack([det([0.0, 0, 0])]), velocity[1, 2:3],
                                              dt=0.5, sweep_index=0, next_track_id=1)
        tracks, ids, _ = greedy_associate(tracks, stack([det([0.0, 0, 0]), det([9.0, 0, 0])]),
                                          np.broadcast_to(velocity[0, 0], (2, 2)), dt=0.5,
                                          sweep_index=1, next_track_id=next_id)
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
                         min_separation=8.0)
    seq, reg = mp.generate_sequence(cfg, TAX)
    inputs = prepare_sweep_inputs(seq, mp.build_trajectories(seq, TAX), TAX, SPEC,
                                  ExtentStrategy("MAX"), noise, registry=reg, seed=7)
    if drop_sweep is not None:
        # Zero the heatmaps of one middle sweep: a detector dropout.
        m = inputs[drop_sweep].maps
        blank = mp.PredictedMaps(np.zeros_like(m.heatmaps), m.height, m.velocity,
                                 m.point_sem, m.bev_features, m.point_features)
        inputs[drop_sweep] = type(inputs[drop_sweep])(inputs[drop_sweep].sweep, blank,
                                                      inputs[drop_sweep].extent_provider)
    pcfg = PipelineConfig(margin_floor=0.25, default_gate=3.0, max_age=max_age)
    labelings = panoptic_track_sequence(inputs, TAX, SPEC, score, seq.period, pcfg)
    gts = [PanopticLabeling(s.sem_labels, s.inst_labels) for s in seq.sweeps]
    return seq, gts, labelings


class TestPanopticTrackSequence:
    def test_single_sweep_equals_fusion(self):
        seq, gts, labelings = run_tracked(seed=22, sweep_count=1)
        assert len(labelings) == 1
        report = mp.compute_pq(gts[0], labelings[0], TAX)
        assert report.pq == pytest.approx(1.0, abs=1e-9)

    def test_perfect_inputs_no_id_switches(self):
        seq, gts, labelings = run_tracked(seed=23)
        lstq = mp.compute_lstq(gts, labelings, TAX)
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
