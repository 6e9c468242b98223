"""Greedy tracklet formation over per-sweep detections and sequence orchestration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cloud import PanopticLabeling, PointCloudSweep, Taxonomy
from .inference import (
    Detection,
    ExtentProvider,
    FusionResult,
    NMS_MAX_DETECTIONS,
    NMS_THRESHOLD,
    PredictedMaps,
    fuse_panoptic,
    nms_detect,
)
from .membership import ROI_MARGIN_FLOOR, ROI_MARGIN_FRAC, PairTable
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
    history: list[tuple[int, int]] = field(default_factory=list)  # (sweep, det index)


def class_gates(cwm_stats: dict[int, np.ndarray], scale: float = 2.0) -> dict[int, float]:
    """Scale-aware association gates: ``scale`` x class-wise mean planar extent."""
    return {cid: scale * float(max(ext[0], ext[1])) for cid, ext in cwm_stats.items()}


def greedy_associate(
    tracks: list[Tracklet],
    detections: list[Detection],
    velocity_of: Callable[[Detection], np.ndarray],
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
    greedily in increasing distance, one detection per track. Unmatched
    detections open new tracks; tracks unmatched for more than ``max_age``
    sweeps are dropped. ``velocity_of`` runs once per detection, and the
    track a detection ends on keeps that v. Returns (alive tracks,
    per-detection track ids, next free id).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    candidates = []
    velocities = [np.array(velocity_of(det), dtype=np.float64) for det in detections]
    predicted = [det.center[:2] - v * dt for det, v in zip(detections, velocities)]
    for ti, tr in enumerate(tracks):
        gate = (gates or {}).get(tr.class_id, default_gate)
        for d, det in enumerate(detections):
            if det.class_id != tr.class_id:
                continue
            dist = float(np.linalg.norm(tr.last_center[:2] - predicted[d]))
            if dist < gate:
                candidates.append((dist, tr.track_id, d, ti))
    candidates.sort()
    used_tracks: set[int] = set()
    det_track: list[int] = [-1] * len(detections)
    matched_track_of_det: dict[int, int] = {}
    for dist, _tid, d, ti in candidates:
        if ti in used_tracks or det_track[d] != -1:
            continue
        used_tracks.add(ti)
        det_track[d] = tracks[ti].track_id
        matched_track_of_det[d] = ti
    for d, det in enumerate(detections):
        if det_track[d] != -1:
            tr = tracks[matched_track_of_det[d]]
            tr.last_center = det.center.copy()
            tr.last_velocity = velocities[d]
            tr.age = 0
            tr.history.append((sweep_index, d))
        else:
            if next_track_id > MAX_TRACK_ID:
                raise TrackIdOverflow(
                    f"track ids exhausted the 16-bit budget ({MAX_TRACK_ID})")
            tr = Tracklet(next_track_id, det.class_id, det.center.copy(), velocities[d],
                          history=[(sweep_index, d)])
            det_track[d] = next_track_id
            next_track_id += 1
            tracks.append(tr)
    alive = []
    for tr in tracks:
        if tr.history and tr.history[-1][0] == sweep_index:
            alive.append(tr)
        else:
            tr.age += 1
            if tr.age <= max_age:
                alive.append(tr)
    return alive, det_track, next_track_id


@dataclass(frozen=True)
class SweepInputs:
    """Everything inference needs for one sweep."""

    sweep: PointCloudSweep
    maps: PredictedMaps
    extent_provider: ExtentProvider


# The membership scorers' signature (``membership.nn_scores`` and its kin).
Scorer = Callable[[SweepInputs, list[Detection], PairTable], np.ndarray]


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
) -> tuple[list[Detection], FusionResult]:
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
        pose = inputs.sweep.ego_pose
        world_dets = [
            Detection(pose[:3, :3] @ d.center + pose[:3, 3], d.confidence, d.class_id, d.extent)
            for d in dets
        ]

        def velocity_of(det: Detection) -> np.ndarray:
            # Sample the regressed velocity at the detection's BEV cell, in
            # the sweep frame where the maps live.
            local = pose[:3, :3].T @ (det.center - pose[:3, 3])
            ix, iy = spec.bev_cell_of(local[:2])
            ix = int(np.clip(ix, 0, spec.bev_width - 1))
            iy = int(np.clip(iy, 0, spec.bev_depth - 1))
            return inputs.maps.velocity[ix, iy]

        tracks, det_track, next_id = greedy_associate(
            tracks, world_dets, velocity_of, dt, t, next_id,
            cfg.gates, cfg.default_gate, cfg.max_age)
        inst = np.zeros(len(inputs.sweep), dtype=np.int32)
        for d, tid in enumerate(det_track):
            inst[fused.point_detection == d] = tid
        out.append(PanopticLabeling(fused.sem, inst))
    return out
