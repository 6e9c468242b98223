"""Greedy tracklet formation over per-sweep detections and sequence orchestration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .cloud import PanopticLabeling, PointCloudSweep, Taxonomy
from .inference import (
    DEFAULT_CONFLICT,
    FusionResult,
    NMS_MAX_DETECTIONS,
    NMS_THRESHOLD,
    fuse_panoptic,
    nms_detect,
)
from .membership import ROI_MARGIN_FLOOR, ROI_MARGIN_FRAC, Detections, PairTable
from .targets import BevTargets, Trajectories
from .voxels import GridSpec

MAX_TRACK_ID = 65535  # the on-disk label format packs ids into 16 bits
DEFAULT_GATE = 2.0
DEFAULT_MAX_AGE = 2


class TrackIdOverflow(RuntimeError):
    pass


@dataclass
class Tracklet:
    """One temporally linked chain of detections."""

    track_id: int
    class_id: int
    last_center: np.ndarray        # (3,) world frame
    last_velocity: np.ndarray      # (2,) m/s
    last_seen: int = -1            # sweep index of the last match


def class_gates(cwm_stats: dict[int, np.ndarray]) -> dict[int, float]:
    """Scale-aware association gates: 2 x class-wise mean planar extent."""
    return {cid: 2.0 * float(max(ext[0], ext[1])) for cid, ext in cwm_stats.items()}


def greedy_associate(
    tracks: list[Tracklet],
    detections: Detections,
    dt: float,
    sweep_index: int,
    next_track_id: int,
    gates: dict[int, float] | None = None,
    default_gate: float = DEFAULT_GATE,
    max_age: int = DEFAULT_MAX_AGE,
) -> tuple[list[Tracklet], list[int], int]:
    """Match detections to tracks by velocity-compensated planar distance.

    Candidate pairs share a class and satisfy
    ``|track.last_center - (det.center - v dt)| < gate``, where ``v`` is the
    detection's ``velocity``, the world-frame m/s that ``nms_detect`` read
    at its peak; centers must be in the world frame too. Pairs are consumed
    greedily in increasing (distance, track id, detection, track) order, one
    detection per track. Unmatched detections open new tracks; tracks
    unmatched for more than ``max_age`` sweeps (``sweep_index - last_seen``)
    are dropped. The track a detection ends on keeps a copy of its velocity
    row, so no track holds on to the array it came from.
    Returns (alive tracks, per-detection track ids, next free id).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    velocities = detections.velocity.copy()
    predicted = detections.center[:, :2] - velocities * dt
    det_track = np.full(len(detections), -1, dtype=np.int64)
    last = np.array([tr.last_center[:2] for tr in tracks]).reshape(-1, 2)
    track_class = np.array([tr.class_id for tr in tracks])
    track_id = np.array([tr.track_id for tr in tracks])
    gate = np.array([(gates or {}).get(tr.class_id, default_gate) for tr in tracks])
    diff = (last[:, None, :] - predicted).reshape(-1, 2)
    # The stacked dot keeps every distance bit-equal to a 1-D ``np.linalg.norm``.
    dist = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
    dist = dist.reshape(len(tracks), len(detections))
    ti, d = np.nonzero((track_class[:, None] == detections.class_id) & (dist < gate[:, None]))
    order = np.lexsort((ti, d, track_id[ti], dist[ti, d]))
    used = np.zeros(len(tracks), dtype=bool)
    for t, k in zip(ti[order].tolist(), d[order].tolist()):
        if used[t] or det_track[k] != -1:
            continue
        used[t] = True
        det_track[k] = track_id[t]
        tr = tracks[t]
        tr.last_center = detections.center[k].copy()
        tr.last_velocity = velocities[k]
        tr.last_seen = sweep_index
    born = np.flatnonzero(det_track == -1)
    if born.size and next_track_id + born.size - 1 > MAX_TRACK_ID:
        raise TrackIdOverflow(f"track ids exhausted the 16-bit budget ({MAX_TRACK_ID})")
    det_track[born] = next_track_id + np.arange(born.size)
    alive = [tr for tr in tracks
             if tr.last_seen == sweep_index or sweep_index - tr.last_seen <= max_age]
    alive += [Tracklet(tid, cid, center.copy(), velocity, last_seen=sweep_index)
              for tid, cid, center, velocity in zip(
                  det_track[born].tolist(), detections.class_id[born].tolist(),
                  detections.center[born], velocities[born])]
    return alive, det_track.tolist(), next_track_id + born.size


@dataclass(frozen=True)
class SweepInputs:
    """Everything inference needs for one sweep, sweep ``sweep_index`` of a
    sequence whose full trajectory table (every labeled instance, trained on
    or not) is ``trajectories``; ``membership.oracle_scores`` reads that
    sweep's rows of it. ``maps`` (every box attribute ``nms_detect`` reads,
    velocity included) and ``point_sem`` are ``simulate_detector``'s result."""

    sweep: PointCloudSweep
    maps: BevTargets
    point_sem: np.ndarray
    trajectories: Trajectories
    sweep_index: int


# The membership scorers' signature (``membership.nn_scores`` and its kin).
Scorer = Callable[[SweepInputs, Detections, PairTable], np.ndarray]


@dataclass(frozen=True)
class PipelineConfig:
    nms_threshold: float = NMS_THRESHOLD
    nms_max_detections: int = NMS_MAX_DETECTIONS
    margin_frac: float = ROI_MARGIN_FRAC
    margin_floor: float = ROI_MARGIN_FLOOR
    conflict: str = DEFAULT_CONFLICT
    gates: dict[int, float] | None = None
    default_gate: float = DEFAULT_GATE
    max_age: int = DEFAULT_MAX_AGE


def infer_sweep(
    inputs: SweepInputs,
    taxonomy: Taxonomy,
    spec: GridSpec,
    score: Scorer,
    cfg: PipelineConfig = PipelineConfig(),
) -> tuple[Detections, FusionResult]:
    """NMS followed by panoptic fusion for a single sweep."""
    dets = nms_detect(inputs.maps, spec, cfg.nms_threshold, cfg.nms_max_detections)
    fused = fuse_panoptic(inputs.sweep.xyz, dets, inputs.point_sem,
                          lambda pairs: score(inputs, dets, pairs), taxonomy,
                          cfg.margin_frac, cfg.margin_floor, cfg.conflict)
    return dets, fused


def panoptic_track_sequence(
    per_sweep: Iterable[SweepInputs],
    taxonomy: Taxonomy,
    spec: GridSpec,
    score: Scorer,
    dt: float,
    cfg: PipelineConfig = PipelineConfig(),
) -> list[PanopticLabeling]:
    """Detection, fusion and greedy association over a whole sequence.

    Instance ids in the output are track ids, so identities persist across
    sweeps; association runs in the world frame through each sweep's ego pose.
    Consumes ``per_sweep`` once, in order, and drops each sweep's inputs
    before asking for the next, so a lazy stream such as
    ``pipeline.prepare_sweep_inputs`` keeps one sweep's maps alive at a time.
    """
    tracks: list[Tracklet] = []
    next_id = 1
    out: list[PanopticLabeling] = []
    # No ``enumerate``: its cached result tuple would keep the previous
    # sweep's inputs alive while the stream makes the next one.
    for inputs in per_sweep:
        t = len(out)
        dets, fused = infer_sweep(inputs, taxonomy, spec, score, cfg)
        tracks, det_track, next_id = greedy_associate(
            tracks, dets.to_world(inputs.sweep.ego_pose), dt, t, next_id,
            cfg.gates, cfg.default_gate, cfg.max_age)
        del inputs
        # Point detection -1 (unclaimed) reads the appended instance 0.
        track_of = np.array(det_track + [0], dtype=np.int32)
        out.append(PanopticLabeling(fused.sem, track_of[fused.point_detection]))
    return out
