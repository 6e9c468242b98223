"""End-to-end composition: labels -> strategy extents -> detector sim -> fusion/tracking.

The extent a detector would predict for an object is modeled as the
componentwise mean of that object's per-sweep training extents under the
chosen strategy (the value a regressor converges to for one identity), so
switching strategies changes inference exactly the way retraining would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PanopticLabeling, SweepSequence, Taxonomy, invert_pose
from .inference import NearestCenterExtents
from .membership import DEGENERATE_EXTENT
from .targets import (
    ExtentStrategy,
    InstanceTrajectory,
    aggregate_extent,
    observed_component_means,
)
from .synth import DetectorNoise, SceneRegistry, simulate_detector
from .tracking import PipelineConfig, Scorer, SweepInputs, infer_sweep
from .voxels import FeatureProvider, GridSpec

FALLBACK_EXTENT = np.array([1.0, 1.0, 1.0])


@dataclass(frozen=True)
class ExtentModel:
    """What the detection branch would predict per object, given a strategy."""

    predicted: dict[int, np.ndarray]          # instance id -> extent estimate
    suppressed: frozenset[tuple[int, int]]    # (instance id, sweep) left untrained


def build_extent_model(
    trajectories: dict[int, InstanceTrajectory],
    strategy: ExtentStrategy,
) -> ExtentModel:
    """Per-object extent estimates from the strategy's training targets.

    Each object's estimate is the mean of its per-sweep targets (excluded
    records leave no supervision: fully excluded objects go undetected).
    Components no viewpoint ever spanned are widened to the class-level mean
    target, the way a regressor trained across many objects would still
    predict class-typical thickness for an unobserved axis.
    """
    predicted: dict[int, np.ndarray] = {}
    suppressed: set[tuple[int, int]] = set()
    for iid, traj in trajectories.items():
        extents, excluded = aggregate_extent(traj, strategy)
        for rec, off in zip(traj.records, excluded):
            if off:
                suppressed.add((iid, rec.sweep_index))
        kept = extents[~excluded]
        if kept.size:
            predicted[iid] = kept.mean(axis=0)
        else:
            suppressed.update((iid, rec.sweep_index) for rec in traj.records)
    class_mean = observed_component_means(
        {iid: trajectories[iid].class_id for iid in predicted}, predicted,
        floor=DEGENERATE_EXTENT)
    for iid, extent in predicted.items():
        degenerate = extent < DEGENERATE_EXTENT
        if degenerate.any():
            fallback = class_mean.get(trajectories[iid].class_id, extent)
            predicted[iid] = np.where(degenerate, np.maximum(fallback, extent), extent)
    return ExtentModel(predicted, frozenset(suppressed))


def extent_entries_for_sweep(
    seq: SweepSequence,
    trajectories: dict[int, InstanceTrajectory],
    model: ExtentModel,
    sweep_index: int,
    default: np.ndarray = FALLBACK_EXTENT,
) -> NearestCenterExtents:
    """Per-sweep extent lookup keyed by sensor-frame instance centers."""
    pose_inv = invert_pose(seq.sweeps[sweep_index].ego_pose)
    centers, classes, extents = [], [], []
    for iid, traj in sorted(trajectories.items()):
        if iid not in model.predicted or (iid, sweep_index) in model.suppressed:
            continue
        rec = traj.record_at(sweep_index)
        if rec is None:
            continue
        centers.append(pose_inv[:3, :3] @ rec.center + pose_inv[:3, 3])
        classes.append(traj.class_id)
        extents.append(model.predicted[iid])
    return NearestCenterExtents(np.reshape(centers, (-1, 3)), np.array(classes, dtype=int),
                                np.reshape(extents, (-1, 3)), default)


def prepare_sweep_inputs(
    seq: SweepSequence,
    trajectories: dict[int, InstanceTrajectory],
    taxonomy: Taxonomy,
    spec: GridSpec,
    strategy: ExtentStrategy,
    noise: DetectorNoise,
    registry: SceneRegistry | None = None,
    provider: FeatureProvider | None = None,
    seed: int = 0,
    extent_default: np.ndarray = FALLBACK_EXTENT,
) -> list[SweepInputs]:
    """Simulated detector outputs plus strategy extents for every sweep.

    ``trajectories`` are the caller's ``build_trajectories(seq, taxonomy)``,
    built once per sequence; the extent model and ``simulate_detector`` both
    read them.
    """
    model = build_extent_model(trajectories, strategy)
    maps = simulate_detector(seq, trajectories, registry, noise, spec, taxonomy,
                             suppressed=model.suppressed, provider=provider, seed=seed)
    inputs = []
    for t in range(len(seq)):
        entries = extent_entries_for_sweep(seq, trajectories, model, t, extent_default)
        inputs.append(SweepInputs(seq.sweeps[t], maps[t], entries))
    return inputs


def infer_sequence(
    per_sweep: list[SweepInputs],
    taxonomy: Taxonomy,
    spec: GridSpec,
    score: Scorer,
    cfg: PipelineConfig = PipelineConfig(),
) -> list[PanopticLabeling]:
    """Per-sweep fusion with fresh ids (no temporal association)."""
    return [infer_sweep(inputs, taxonomy, spec, score, cfg)[1].labeling for inputs in per_sweep]
