"""The benchmark's tracer still finds every traced function and the arguments it reads.

``bench/spans.py`` patches each ``TARGETS`` entry at its import sites and its
count hooks read call arguments by parameter name. A traced function with no
import site left, or a renamed parameter, ends a ``--trace 1`` worker with an
error instead of a failed call, so both must fail here first.
"""

import inspect
import sys
from pathlib import Path

import numpy as np

from modalpanoptic import cli  # noqa: F401  (the bench worker imports the CLI too)
from modalpanoptic.voxels import GridSpec, voxelize

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402

# Parameters the count hooks of ``spans`` read through ``spans._args``.
HOOK_PARAMS = {
    "inference.nms_detect": ("maps",),
    "membership.nn_baseline": ("points_xyz", "point_sem", "detections", "margin_frac",
                               "margin_floor"),
    "tracking.infer_sweep": ("inputs", "cfg"),
    "tracking.greedy_associate": ("tracks", "detections", "dt", "next_track_id", "gates",
                                  "default_gate"),
    "mlp.train_epochs": ("features", "epochs"),
}


def target_function(target):
    home = sys.modules[f"{spans.PACKAGE}.{target.module}"]
    owner, _, attr = target.attr.rpartition(".")
    return getattr(getattr(home, owner) if owner else home, attr)


def test_install_patches_every_target():
    originals = {t.name: target_function(t) for t in spans.TARGETS}
    tracer = spans.Tracer()
    try:
        sites = tracer.install()
        assert target_function(spans.TARGETS[0]) is not originals[spans.TARGETS[0].name]
    finally:
        tracer.uninstall()
    assert sorted(sites) == sorted(originals)
    assert {name: n for name, n in sites.items() if n < 1} == {}
    assert {t.name: target_function(t) for t in spans.TARGETS} == originals


def test_hook_parameters_exist():
    targets = {t.name: t for t in spans.TARGETS}
    for name, params in HOOK_PARAMS.items():
        signature = inspect.signature(target_function(targets[name]))
        for param in params:
            assert param in signature.parameters, f"{name} has no parameter {param!r}"
            # ``spans._args`` binds positional-or-keyword parameters only.
            kind = signature.parameters[param].kind
            assert kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, (name, param, kind)


def test_voxelize_hook_counts_occupied_cells():
    spec = GridSpec((0.5, 0.5, 0.5), 8.0, -2.0, 2.0, 2)
    cloud = np.random.default_rng(0).uniform(-6.0, 6.0, size=(300, 5)) * [1, 1, 0.3, 1, 0]
    grid = voxelize(cloud, spec, np.ones((300, 2)))
    assert len(grid) > 1
    assert spans._voxelize_info(voxelize, (cloud, spec), {}, grid, None) == {"cells": len(grid)}


def test_hooks_resolve_on_a_traced_track_and_eval(tmp_path):
    data, pred = tmp_path / "data", tmp_path / "pred"
    assert cli.main(["synth", "--out", str(data), "--seed", "5", "--sweeps", "4",
                     "--min-instances", "4", "--max-instances", "5", "--min-separation", "5"]) == 0
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["track", "--data", str(data), "--out", str(pred), "--membership", "nn",
                         "--center-jitter", "0.15", "--drop-probability", "0.1",
                         "--confidence-noise", "0.1", "--semantic-flip", "0.02"]) == 0
        assert cli.main(["eval", "--data", str(data), "--pred", str(pred),
                         "--out", str(tmp_path / "eval")]) == 0
    finally:
        tracer.uninstall()
    totals = spans.totals(tracer.spans)
    assert all(not callable(v) for span in tracer.spans for v in span.info.values())
    counts = totals.counts
    detections = counts["inference.nms_detect"]["detections"]
    assert totals.calls["inference.nms_detect"] == 4 and detections > 4
    associate = counts["tracking.greedy_associate"]
    assert associate["born"] + associate["matched"] == detections
    assert associate["matched"] > 0 and associate["candidates"] >= associate["matched"]
    assert counts["membership.nn_baseline"]["candidate_pairs"] > 0
    assert counts["inference.fuse_panoptic"]["claimed_points"] > 0
    evaluated, unassigned, wrong = counts["tracking.infer_sweep"]["membership"]
    assert evaluated > unassigned + wrong >= 0
    for name in ("metrics.PqAccumulator.add", "metrics.LstqAccumulator.add_sequence",
                 "tracking.panoptic_track_sequence", "pipeline.prepare_sweep_inputs"):
        assert totals.calls[name] >= 1, name
