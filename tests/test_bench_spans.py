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

from modalpanoptic import cli, inference  # the bench worker imports the CLI too
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
    # Streaming keeps each layer's work inside its own span: one detector
    # simulation per sweep, and every target rendering below one of them.
    assert totals.calls["synth.simulate_detector"] == 4
    by_id = {span.id: span for span in tracer.spans}

    def ancestors(span):
        while span.parent in by_id:
            span = by_id[span.parent]
            yield span.name

    renders = [s for s in tracer.spans if s.name == "targets.render_bev_targets"]
    assert len(renders) == 4
    assert all("synth.simulate_detector" in ancestors(s) for s in renders)


def test_hooks_resolve_on_a_traced_train_mem_and_mlp_track(tmp_path, monkeypatch):
    data, model = tmp_path / "data", tmp_path / "model.bin"
    assert cli.main(["synth", "--out", str(data), "--seed", "6", "--sweeps", "2",
                     "--motion", "drift", "--min-instances", "2", "--max-instances", "3",
                     "--min-separation", "10", "--max-range", "24", "--pair-gap", "0.1", "0.35",
                     "--row-partners", "2"]) == 0
    gathered = []
    gather_pairs = inference.gather_pairs

    def counted_gather_pairs(*args, **kwargs):
        gathered.append(gather_pairs(*args, **kwargs))
        return gathered[-1]

    # Fusion's tables only: training gathers its pairs through ``membership``.
    monkeypatch.setattr(inference, "gather_pairs", counted_gather_pairs)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["train-mem", "--data", str(data), "--out", str(model),
                         "--features", "full", "--epochs", "2", "--margin-floor", "0.3"]) == 0
        assert cli.main(["track", "--data", str(data), "--out", str(tmp_path / "pred"),
                         "--membership", "mlp", "--model", str(model), "--features", "full",
                         "--center-jitter", "0.15", "--margin-floor", "0.3"]) == 0
    finally:
        tracer.uninstall()
    totals = spans.totals(tracer.spans)
    for name in ("membership.build_training_pairs", "membership.assemble_pair_features",
                 "membership.predict_membership", "mlp.train_epochs"):
        assert totals.calls.get(name, 0) >= 1, name
    counts = totals.counts
    assert counts["membership.build_training_pairs"]["pairs"] > 0
    assert counts["mlp.train_epochs"]["rows"] == 2 * counts["membership.build_training_pairs"]["pairs"]
    assert len(gathered) == 2
    assert counts["membership.predict_membership"]["rows"] == sum(map(len, gathered)) > 0
