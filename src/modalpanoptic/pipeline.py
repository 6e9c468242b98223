"""End-to-end composition: labels -> strategy extents -> detector sim -> fusion/tracking.

The extent a detector would predict for an object is modeled as the
componentwise mean of that object's per-sweep training extents under the
chosen strategy (the value a regressor converges to for one identity). The
simulated first stage writes it into its extent map at the object's center
cell, where detection reads it as it reads height, so switching strategies
changes inference exactly the way retraining would.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .cloud import PanopticLabeling, SweepSequence, Taxonomy
from .targets import ExtentStrategy, Trajectories, aggregate_extent, widen_unobserved_axes
from .synth import DetectorNoise, simulate_detector
from .tracking import PipelineConfig, Scorer, SweepInputs, infer_sweep
from .voxels import GridSpec, _group_sums


def build_extent_model(
    trajectories: Trajectories,
    strategy: ExtentStrategy,
) -> tuple[np.ndarray, np.ndarray]:
    """(I, 3) per-instance extent estimates plus the (R,) records left untrained.

    Each instance's estimate is the mean of its per-sweep targets under the
    strategy. Excluded records leave no supervision, and an instance whose
    records are all excluded has no estimate (NaN) and goes undetected.
    Components no viewpoint ever spanned are widened to the class-level mean
    target (``widen_unobserved_axes``).
    """
    extents, excluded = aggregate_extent(trajectories, strategy)
    n = trajectories.offsets.size - 1
    owner = trajectories.row_instance[~excluded]
    count = np.bincount(owner, minlength=n)
    sums = _group_sums(owner, extents[~excluded], n)
    trained = count > 0
    predicted = np.full((n, 3), np.nan)
    predicted[trained] = widen_unobserved_axes(trajectories.instance_class[trained],
                                               sums[trained] / count[trained, None])
    return predicted, excluded | ~trained[trajectories.row_instance]


def prepare_sweep_inputs(
    seq: SweepSequence,
    trajectories: Trajectories,
    taxonomy: Taxonomy,
    spec: GridSpec,
    strategy: ExtentStrategy,
    noise: DetectorNoise,
    seed: int = 0,
) -> Iterator[SweepInputs]:
    """A lazy stream of each sweep's simulated detector outputs.

    ``trajectories`` is the caller's ``build_trajectories(seq, taxonomy)``,
    built once per sequence. This call builds the per-sequence extent model;
    the returned iterator then runs ``simulate_detector`` for one sweep per
    step, so a consumer that drops each ``SweepInputs`` before asking for
    the next keeps one sweep's maps alive at a time. Iterate it once. Only
    the trained records reach ``simulate_detector``, each with its
    instance's estimate as the extent to predict; ``SweepInputs.trajectories``
    holds all.
    """
    predicted, suppressed = build_extent_model(trajectories, strategy)
    trained = trajectories.select(~suppressed)
    extents = predicted[trajectories.row_instance[~suppressed]]
    return (SweepInputs(sweep, *simulate_detector(sweep, t, trained, extents, noise, spec,
                                                  taxonomy, seed=seed),
                        trajectories, t)
            for t, sweep in enumerate(seq.sweeps))


def infer_sequence(
    per_sweep: Iterable[SweepInputs],
    taxonomy: Taxonomy,
    spec: GridSpec,
    score: Scorer,
    cfg: PipelineConfig = PipelineConfig(),
) -> list[PanopticLabeling]:
    """Per-sweep fusion with fresh ids (no temporal association).

    Consumes ``per_sweep`` once and drops each sweep's inputs before asking
    for the next, so a lazy stream keeps one sweep's maps alive at a time.
    """
    out = []
    for inputs in per_sweep:
        out.append(infer_sweep(inputs, taxonomy, spec, score, cfg)[1].labeling)
        del inputs
    return out
