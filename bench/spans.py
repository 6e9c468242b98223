"""In-memory span tracer that wraps the library's public functions from outside.

Nothing under ``src/`` knows about tracing. ``Tracer.install`` replaces each
named function with a timing wrapper at every module attribute that refers to
it (the package uses ``from .x import f``, so one function can have several
import sites) and patches the named class methods on their classes.
``Tracer.uninstall`` restores the originals, so an untraced iteration runs
the unmodified code.

Each call records a span: name, start, end and parent. Counts that are cheap
(a length, an array shape) are taken when the call returns; counts that cost
real work are stored as thunks over the call's arguments and evaluated only by
``totals``, after the timed iteration, so they never inflate a span.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from modalpanoptic.membership import roi_points, roi_radius
from modalpanoptic.metrics import match_instances_to_detections, membership_accuracy
from modalpanoptic.targets import modal_center

PACKAGE = "modalpanoptic"


@dataclass
class Span:
    id: int
    parent: int
    name: str
    t0: float
    t1: float = 0.0
    info: dict = field(default_factory=dict)


def _args(fn: Callable, args: tuple, kwargs: dict, *names: str) -> list:
    """Arguments of a call by parameter name, with defaults filled in."""
    code = fn.__code__
    params = code.co_varnames[:code.co_argcount]
    defaults = fn.__defaults__ or ()
    bound = dict(zip(params[len(params) - len(defaults):], defaults))
    bound.update(zip(params, args))
    bound.update(kwargs)
    return [bound[name] for name in names]


# ---------------------------------------------------------------- count hooks
# Each hook gets (original function, args, kwargs, result, state from the
# target's ``before`` hook) and returns a dict of counts; values may be
# zero-argument callables evaluated after the iteration. A thunk must not hold
# a sweep's dense maps: keeping them alive across a run distorts its timing.

def _generate_info(fn, args, kwargs, result, before):
    seq, _registry = result
    return {"points": sum(len(s) for s in seq.sweeps)}


def _nms_info(fn, args, kwargs, result, before):
    (maps,) = _args(fn, args, kwargs, "maps")
    return {"cells_scanned": int(np.prod(maps.heatmaps.shape)), "detections": len(result)}


def _fuse_info(fn, args, kwargs, result, before):
    return {"claimed_points": int(np.count_nonzero(result.point_detection >= 0))}


def _nn_info(fn, args, kwargs, result, before):
    pts, sem, dets, frac, floor = _args(fn, args, kwargs, "points_xyz", "point_sem",
                                        "detections", "margin_frac", "margin_floor")

    def candidate_pairs():
        xyz = np.asarray(pts, dtype=np.float64)[:, :3]
        total = 0
        for det in dets:
            inside = np.all(np.abs(xyz - det.center) < roi_radius(det, frac, floor), axis=1)
            total += int(np.count_nonzero(inside & (np.asarray(sem) == det.class_id)))
        return total

    return {"candidate_pairs": candidate_pairs}


def _predict_info(fn, args, kwargs, result, before):
    return {"rows": int(np.size(result))}


def _training_pairs_info(fn, args, kwargs, result, before):
    return {"pairs": int(result[0].shape[0])}


def _train_epochs_info(fn, args, kwargs, result, before):
    features, epochs = _args(fn, args, kwargs, "features", "epochs")
    return {"rows": int(np.shape(features)[0]) * int(epochs)}


def _voxelize_info(fn, args, kwargs, result, before):
    return {"cells": len(result.occupied)}


def _associate_before(fn, args, kwargs):
    # The call moves matched tracks, so the gate test needs the old centers.
    (tracks,) = _args(fn, args, kwargs, "tracks")
    return [(tr.class_id, tr.last_center[:2].copy()) for tr in tracks]


def _associate_info(fn, args, kwargs, result, before):
    dets, dt, next_id, gates, default_gate = _args(
        fn, args, kwargs, "detections", "dt", "next_track_id", "gates", "default_gate")
    alive, det_track, next_after = result
    # Every detection ends on a matched or newborn track that stores the
    # velocity it was given; reading it back keeps the sweep's maps unreferenced.
    by_id = {tr.track_id: tr for tr in alive}
    velocities = [by_id[tid].last_velocity for tid in det_track]
    born = next_after - next_id

    def candidates():
        predicted = [det.center[:2] - v * dt for det, v in zip(dets, velocities)]
        total = 0
        for cid, center in before:
            gate = (gates or {}).get(cid, default_gate)
            total += sum(1 for det, p in zip(dets, predicted)
                         if det.class_id == cid and np.linalg.norm(center - p) < gate)
        return total

    return {"candidates": candidates, "born": born, "matched": len(dets) - born}


def membership_error_split(sweep, dets, point_detection, margin_frac, margin_floor):
    """(evaluated, unassigned, wrong) in-RoI instance points of one sweep.

    ``metrics.membership_accuracy`` gives the accuracy; the split of its
    errors into points no detection claimed and points claimed by the wrong
    detection uses the same RoI and matching rules, and the two must agree.
    """
    xyz, ids = sweep.xyz, sweep.inst_labels
    uniq = np.unique(ids[ids > 0])
    centers = {int(i): modal_center(xyz[ids == i]) for i in uniq}
    classes = {int(i): int(sweep.sem_labels[ids == i][0]) for i in uniq}
    acc, evaluated = membership_accuracy(xyz, ids, centers, classes, dets, point_detection,
                                         margin_frac, margin_floor)
    if evaluated == 0:
        return 0, 0, 0
    in_roi = np.zeros(len(xyz), dtype=bool)
    for det in dets:
        in_roi[roi_points(det, xyz, True, margin_frac, margin_floor)] = True
    idx = np.flatnonzero(in_roi & (ids > 0))
    matched = match_instances_to_detections(centers, classes, dets)
    want = np.array([matched.get(int(i), -2) for i in ids[idx]], dtype=np.int64)
    got = np.asarray(point_detection)[idx]
    unassigned = int(np.count_nonzero(got == -1))
    wrong = int(np.count_nonzero((got != want) & (got != -1)))
    if evaluated - unassigned - wrong != round(acc * evaluated):
        raise AssertionError("membership error split disagrees with membership_accuracy")
    return evaluated, unassigned, wrong


def _infer_sweep_info(fn, args, kwargs, result, before):
    inputs, cfg = _args(fn, args, kwargs, "inputs", "cfg")
    sweep = inputs.sweep
    dets, fused = result
    return {"membership": lambda: membership_error_split(
        sweep, dets, fused.point_detection, cfg.margin_frac, cfg.margin_floor)}


@dataclass(frozen=True)
class Target:
    module: str      # module that defines the function
    attr: str        # function name, or Class.method
    name: str        # span name
    info: Callable | None = None
    before: Callable | None = None


TARGETS = (
    Target("synth", "generate_sequence", "synth.generate_sequence", _generate_info),
    Target("synth", "simulate_detector", "synth.simulate_detector"),
    Target("synth", "HandcraftedFeatures.point_features", "synth.point_features"),
    Target("synth", "HandcraftedFeatures.bev_map", "synth.bev_map"),
    Target("voxels", "voxelize", "voxels.voxelize", _voxelize_info),
    Target("voxels", "flatten_bev", "voxels.flatten_bev"),
    Target("targets", "build_trajectories", "targets.build_trajectories"),
    Target("targets", "render_bev_targets", "targets.render_bev_targets"),
    Target("inference", "nms_detect", "inference.nms_detect", _nms_info),
    Target("inference", "fuse_panoptic", "inference.fuse_panoptic", _fuse_info),
    Target("membership", "nn_baseline", "membership.nn_baseline", _nn_info),
    Target("membership", "assemble_pair_features", "membership.assemble_pair_features"),
    Target("membership", "predict_membership", "membership.predict_membership", _predict_info),
    Target("membership", "build_training_pairs", "membership.build_training_pairs",
           _training_pairs_info),
    Target("mlp", "train_epochs", "mlp.train_epochs", _train_epochs_info),
    Target("tracking", "greedy_associate", "tracking.greedy_associate", _associate_info,
           _associate_before),
    Target("tracking", "infer_sweep", "tracking.infer_sweep", _infer_sweep_info),
    Target("tracking", "panoptic_track_sequence", "tracking.panoptic_track_sequence"),
    Target("metrics", "PqAccumulator.add", "metrics.PqAccumulator.add"),
    Target("metrics", "LstqAccumulator.add_sequence", "metrics.LstqAccumulator.add_sequence"),
    Target("dataio", "read_sequence", "dataio.read_sequence"),
    Target("dataio", "write_predictions", "dataio.write_predictions"),
    Target("pipeline", "prepare_sweep_inputs", "pipeline.prepare_sweep_inputs"),
)


class Tracer:
    """Spans kept in memory with parent links; patches installed on demand."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else -1, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack.pop()

    def _wrap(self, target: Target, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before = target.before(original, args, kwargs) if target.before else None
            span = self.begin(target.name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if target.info is not None:
                span.info = target.info(original, args, kwargs, result, before)
            return result

        return wrapper

    def install(self) -> dict[str, int]:
        """Patch every target; returns the number of sites patched per span name."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        sites: dict[str, int] = {}
        for target in TARGETS:
            home = sys.modules[f"{PACKAGE}.{target.module}"]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(target, original))
                sites[target.name] = 1
                continue
            original = getattr(home, target.attr)
            wrapped = self._wrap(target, original)
            count = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapped)
                        count += 1
            sites[target.name] = count
        return sites

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def resolve(info: dict) -> dict:
    return {k: (v() if callable(v) else v) for k, v in info.items()}


@dataclass
class Totals:
    """Per-name aggregates over a set of spans."""

    calls: dict[str, int] = field(default_factory=dict)
    total: dict[str, float] = field(default_factory=dict)
    self_time: dict[str, float] = field(default_factory=dict)
    counts: dict[str, dict] = field(default_factory=dict)

    def add_count(self, name: str, key: str, value) -> None:
        slot = self.counts.setdefault(name, {})
        if isinstance(value, tuple):
            old = slot.get(key, (0,) * len(value))
            slot[key] = tuple(a + b for a, b in zip(old, value))
        else:
            slot[key] = slot.get(key, 0) + value


def subtree(spans: list[Span], root: Span) -> list[Span]:
    """``root`` and every span below it (spans are stored in start order)."""
    inside = {root.id}
    out = [root]
    for span in spans[root.id + 1:]:
        if span.parent in inside:
            inside.add(span.id)
            out.append(span)
    return out


def totals(spans: list[Span]) -> Totals:
    """Inclusive and self time per span name, plus the resolved counts.

    Self time is a span's duration minus the durations of its direct children.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        child_time[span.parent] = child_time.get(span.parent, 0.0) + (span.t1 - span.t0)
    out = Totals()
    for span in spans:
        dur = span.t1 - span.t0
        out.calls[span.name] = out.calls.get(span.name, 0) + 1
        out.total[span.name] = out.total.get(span.name, 0.0) + dur
        out.self_time[span.name] = (out.self_time.get(span.name, 0.0)
                                    + dur - child_time.get(span.id, 0.0))
        span.info = resolve(span.info)
        for key, value in span.info.items():
            out.add_count(span.name, key, value)
    return out


def coverage(spans: list[Span], root: Span) -> float:
    """Share of ``root``'s duration spent inside its direct child spans."""
    covered = sum(s.t1 - s.t0 for s in spans if s.parent == root.id)
    return covered / (root.t1 - root.t0)
