"""Greedy tracklet formation over per-sweep detections and sequence orchestration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cloud import PanopticLabeling, PointCloudSweep, Taxonomy
from .inference import (
    ExtentProvider,
    FusionResult,
    NMS_MAX_DETECTIONS,
    NMS_THRESHOLD,
    PredictedMaps,
    fuse_panoptic,
    nms_detect,
)
from .membership import ROI_MARGIN_FLOOR, ROI_MARGIN_FRAC, Detections, PairTable
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
    age: int = 0                   # sweeps since the last match
    last_seen: int = -1            # sweep index of the last match


def class_gates(cwm_stats: dict[int, np.ndarray], scale: float = 2.0) -> dict[int, float]:
    """Scale-aware association gates: ``scale`` x class-wise mean planar extent."""
    return {cid: scale * float(max(ext[0], ext[1])) for cid, ext in cwm_stats.items()}


def greedy_associate(
    tracks: list[Tracklet],
    detections: Detections,
    velocities: np.ndarray,
    dt: float,
    sweep_index: int,
    next_track_id: int,
    gates: dict[int, float] | None = None,
    default_gate: float = DEFAULT_GATE,
    max_age: int = DEFAULT_MAX_AGE,
) -> tuple[list[Tracklet], list[int], int]:
    """Match detections to tracks by velocity-compensated planar distance.

    Candidate pairs share a class and satisfy
    ``|track.last_center - (det.center - v dt)| < gate``; pairs are consumed
    greedily in increasing (distance, track id, detection, track) order, one
    detection per track. Unmatched detections open new tracks; tracks
    unmatched for more than ``max_age`` sweeps are dropped. ``velocities``
    holds each detection's (D, 2) regressed velocity, and the track a
    detection ends on keeps a copy of its row. Returns (alive tracks,
    per-detection track ids, next free id).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    velocities = np.array(velocities, dtype=np.float64).reshape(len(detections), 2)
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
    for tr in tracks:
        tr.age = 0 if tr.last_seen == sweep_index else tr.age + 1
    alive = [tr for tr in tracks if tr.last_seen == sweep_index or tr.age <= max_age]
    alive += [Tracklet(tid, cid, center.copy(), velocity, last_seen=sweep_index)
              for tid, cid, center, velocity in zip(
                  det_track[born].tolist(), detections.class_id[born].tolist(),
                  detections.center[born], velocities[born])]
    return alive, det_track.tolist(), next_track_id + born.size


@dataclass(frozen=True)
class SweepInputs:
    """Everything inference needs for one sweep."""

    sweep: PointCloudSweep
    maps: PredictedMaps
    extent_provider: ExtentProvider


# The membership scorers' signature (``membership.nn_scores`` and its kin).
Scorer = Callable[[SweepInputs, Detections, PairTable], np.ndarray]


@dataclass(frozen=True)
class PipelineConfig:
    nms_threshold: float = NMS_THRESHOLD
    nms_max_detections: int = NMS_MAX_DETECTIONS
    margin_frac: float = ROI_MARGIN_FRAC
    margin_floor: float = ROI_MARGIN_FLOOR
    conflict: str = "first_wins"
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
    dets = nms_detect(inputs.maps, spec, inputs.extent_provider,
                      cfg.nms_threshold, cfg.nms_max_detections)
    fused = fuse_panoptic(inputs.sweep.xyz, dets, inputs.maps,
                          lambda pairs: score(inputs, dets, pairs), taxonomy,
                          cfg.margin_frac, cfg.margin_floor, cfg.conflict)
    return dets, fused


def panoptic_track_sequence(
    per_sweep: list[SweepInputs],
    taxonomy: Taxonomy,
    spec: GridSpec,
    score: Scorer,
    dt: float,
    cfg: PipelineConfig = PipelineConfig(),
) -> list[PanopticLabeling]:
    """Detection, fusion and greedy association over a whole sequence.

    Instance ids in the output are track ids, so identities persist across
    sweeps; association runs in the world frame through each sweep's ego pose.
    """
    tracks: list[Tracklet] = []
    next_id = 1
    out: list[PanopticLabeling] = []
    for t, inputs in enumerate(per_sweep):
        dets, fused = infer_sweep(inputs, taxonomy, spec, score, cfg)
        # The regressed velocity is read at each detection's own BEV cell, in
        # the sweep frame where the maps live.
        ix, iy = spec.bev_cell_of(dets.center)
        velocities = inputs.maps.velocity[np.clip(ix, 0, spec.bev_width - 1),
                                          np.clip(iy, 0, spec.bev_depth - 1)]
        tracks, det_track, next_id = greedy_associate(
            tracks, dets.to_world(inputs.sweep.ego_pose), velocities, dt, t, next_id,
            cfg.gates, cfg.default_gate, cfg.max_age)
        # Point detection -1 (unclaimed) reads the appended instance 0.
        track_of = np.array(det_track + [0], dtype=np.int32)
        out.append(PanopticLabeling(fused.sem, track_of[fused.point_detection]))
    return out
