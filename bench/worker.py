"""One phase of one benchmark run, in a fresh process started by ``run.py``.

    python3 bench/worker.py prepare --workload NAME --seed N --trace 0|1 --work DIR
    python3 bench/worker.py loop --workload NAME --seed N --trace 0|1 --work DIR --seconds S

``prepare`` builds the workload's inputs several times (the set-up cost),
checks that every build is byte-identical, records the corpus size and runs
the zero-noise oracle check. ``loop`` drives the CLI sequence of the workload
in a closed loop, one command at a time, for ``--seconds`` seconds and checks
every output. Each phase writes ``<phase>.json`` into the work directory.
All CLI calls go through ``modalpanoptic.cli.main`` in this process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from modalpanoptic import cli, dataio

import spans

# Set-up is timed several times and reported as a median: at least
# SETUP_MIN_REPEATS builds, more while under SETUP_MIN_SECONDS in total, so
# that sub-second set-ups get enough samples to be steady.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 4.0
SETUP_MAX_REPEATS = 10
POOL_BATCH = 16       # sequences synthesized per pool draw
MAX_POOL_DRAWS = 20

# Crowded pass-motion scenes: many instances per sweep, detector noise on.
CROWDED = ("--sweeps", "10", "--min-instances", "8", "--max-instances", "12",
           "--min-separation", "4.0")
NN_NOISE = ("--center-jitter", "0.15", "--drop-probability", "0.05",
            "--confidence-noise", "0.1", "--semantic-flip", "0.02", "--velocity-noise", "0.2")
# Row scenes: adjacent same-class boxes 0.1-0.35 m apart (the acceptance-2 layout).
ROWS = ("--sweeps", "1", "--motion", "drift", "--min-instances", "2", "--max-instances", "3",
        "--min-separation", "10", "--max-range", "24", "--pair-gap", "0.1", "0.35",
        "--row-partners", "2", "--min-speed", "0.5", "--max-speed", "1.5")
# Instance points per sweep kept in row corpora. Point density falls as
# 1/range^2, so unfiltered row scenes differ by 10x in instance points, and
# the feature and training costs follow; the band keeps the amount of work
# nearly equal across seeds, which is what lets seeds vary the layout only.
ROW_BAND = (600, 1000)
ROW_NOISE = ("--center-jitter", "0.15", "--semantic-flip", "0.01", "--margin-floor", "0.3")
TRAIN = ("--optimizer", "adam", "--learning-rate", "1e-3", "--train-jitter", "0.3",
         "--margin-floor", "0.3", "--seed", "{seed}")
EVAL = ("eval", "--data", "{data}", "--pred", "{pred}", "--out", "{eval}")


@dataclass(frozen=True)
class Corpus:
    """A synthetic corpus: ``sequences`` scenes drawn by ``synth``.

    With a ``band``, scenes are drawn from a seeded pool and kept only when
    their mean instance points per sweep fall inside it.
    """

    out: str
    seed: str
    sequences: int
    args: tuple[str, ...]
    band: tuple[int, int] | None = None


@dataclass(frozen=True)
class Workload:
    """Set-up steps and the timed CLI sequence; ``{name}`` fields are filled per run."""

    corpora: tuple[Corpus, ...]
    train: tuple[str, ...] | None  # CLI call that ends set-up, if any
    loop: tuple[tuple[str, ...], ...]


WORKLOADS = {
    "track_nn": Workload(
        corpora=(Corpus("{data}", "{data_seed}", 8, CROWDED),),
        train=None,
        loop=(("track", "--data", "{data}", "--out", "{pred}", "--seed", "{seed}",
               "--membership", "nn") + NN_NOISE, EVAL),
    ),
    "track_mlp": Workload(
        corpora=(Corpus("{data}", "{data_seed}", 12, ROWS, ROW_BAND),
                 Corpus("{train}", "{train_seed}", 6, ROWS, ROW_BAND)),
        train=("train-mem", "--data", "{train}", "--out", "{model}", "--features", "full",
               "--epochs", "10") + TRAIN,
        loop=(("track", "--data", "{data}", "--out", "{pred}", "--seed", "{seed}",
               "--membership", "mlp", "--model", "{model}", "--features", "full") + ROW_NOISE,
              EVAL),
    ),
    "train_mem": Workload(
        corpora=(Corpus("{data}", "{data_seed}", 24, ROWS, ROW_BAND),
                 Corpus("{train}", "{train_seed}", 12, ROWS, ROW_BAND)),
        train=None,
        loop=(("train-mem", "--data", "{train}", "--out", "{model}", "--features", "geo",
               "--epochs", "20") + TRAIN,
              ("track", "--data", "{data}", "--out", "{pred}", "--seed", "{seed}",
               "--membership", "mlp", "--model", "{model}", "--features", "geo") + ROW_NOISE,
              EVAL),
    ),
}

# Zero-noise corpus for the oracle-membership check (PQ = LSTQ = 1 exactly).
ORACLE = (
    ("synth", "--out", "{oracle}", "--seed", "{oracle_seed}", "--sequences", "1",
     "--sweeps", "10", "--min-instances", "3", "--max-instances", "4",
     "--min-separation", "8"),
    ("track", "--data", "{oracle}", "--out", "{oracle_pred}", "--membership", "oracle"),
    ("eval", "--data", "{oracle}", "--pred", "{oracle_pred}", "--out", "{oracle_eval}"),
)


def fields_for(work: Path, setup_dir: Path, seed: int) -> dict[str, str]:
    return {
        "seed": str(seed),
        "data_seed": str(1_000_000 + 1000 * seed),
        "train_seed": str(2_000_000 + 1000 * seed),
        "oracle_seed": str(3_000_000 + 1000 * seed),
        "data": str(setup_dir / "data"),
        "train": str(setup_dir / "train"),
        "model": str(setup_dir / "model.bin"),
        "pred": str(work / "pred"),
        "eval": str(work / "eval"),
        "oracle": str(work / "oracle" / "data"),
        "oracle_pred": str(work / "oracle" / "pred"),
        "oracle_eval": str(work / "oracle" / "eval"),
    }


def fill(argv: tuple[str, ...], values: dict[str, str]) -> list[str]:
    return [a.format(**values) for a in argv]


class Calls:
    """Runs CLI commands in-process and counts attempts and failures."""

    def __init__(self, tracer: spans.Tracer | None = None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, argv: list[str]) -> tuple[bool, float, spans.Span | None]:
        """(exit code was 0, seconds, root span when traced)."""
        self.attempted += 1
        span = self.tracer.begin("cli." + argv[0]) if self.tracer else None
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except Exception:  # a traceback is a failed call, not a crashed benchmark
            code = -1
            sink.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
        if span is not None:
            self.tracer.end(span)
        if code != 0:
            self.fail(f"{' '.join(argv[:1])} exited {code}: {sink.getvalue()[-2000:]}")
        return code == 0, elapsed, span

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def build_corpus(calls: Calls, corpus: Corpus, values: dict[str, str]) -> None:
    out = Path(corpus.out.format(**values))
    seed = int(corpus.seed.format(**values))

    def synth(root: Path, first_seed: int, count: int) -> bool:
        return calls.run(["synth", "--out", str(root), "--seed", str(first_seed),
                          *corpus.args, "--sequences", str(count)])[0]

    if corpus.band is None:
        synth(out, seed, corpus.sequences)
        return
    lo, hi = corpus.band
    pool = out.with_name(out.name + "-pool")
    (out / "sequences").mkdir(parents=True)
    kept = 0
    for draw in range(MAX_POOL_DRAWS):
        shutil.rmtree(pool, ignore_errors=True)
        if not synth(pool, seed + draw * POOL_BATCH, POOL_BATCH):
            return
        for name in dataio.list_sequences(pool):
            labels = sorted((pool / "sequences" / name / "labels").glob("*.label"))
            points = np.mean([np.count_nonzero(dataio.read_label_file(p)[1]) for p in labels])
            if lo <= points <= hi and kept < corpus.sequences:
                (pool / "sequences" / name).rename(out / "sequences" / f"{kept:04d}")
                kept += 1
        if kept == corpus.sequences:
            shutil.copyfile(pool / "taxonomy.txt", out / "taxonomy.txt")
            shutil.rmtree(pool)
            return
    calls.fail(f"{out}: only {kept} of {corpus.sequences} scenes inside {corpus.band}")


def tree_digest(root: Path) -> str:
    """SHA-256 over every file below ``root``: relative path, then bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def sweep_sizes(data: Path) -> dict[str, list[int]]:
    """Point count of every sweep of every sequence, from the label files."""
    out = {}
    for name in dataio.list_sequences(data):
        labels = sorted((data / "sequences" / name / "labels").glob("*.label"))
        out[name] = [p.stat().st_size // 4 for p in labels]
    return out


def check_predictions(data: Path, pred: Path, sizes: dict[str, list[int]]) -> str | None:
    """None when the prediction tree decodes and matches the corpus, else why not."""
    taxonomy = dataio.dataset_taxonomy(data)
    if sorted(p.name for p in pred.iterdir()) != sorted(sizes):
        return "predicted sequences differ from the corpus"
    for name, counts in sizes.items():
        labelings = dataio.read_predictions(pred, name)
        if len(labelings) != len(counts):
            return f"{name}: {len(labelings)} predicted sweeps for {len(counts)}"
        for t, (lab, n) in enumerate(zip(labelings, counts)):
            if len(lab) != n:
                return f"{name}/{t}: {len(lab)} labels for {n} points"
            try:
                lab.validate(taxonomy)
            except ValueError as exc:
                return f"{name}/{t}: {exc}"
    return None


def read_quality(eval_dir: Path) -> dict[str, float]:
    quality = {
        "pq": cli._read_csv_value(eval_dir / "pq.csv", "all", "pq"),
        "miou": cli._read_csv_value(eval_dir / "pq.csv", "all", "iou"),
        "lstq": cli._read_csv_value(eval_dir / "lstq.csv", "lstq", "value"),
    }
    for name, value in quality.items():
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} = {value} outside [0, 1]")
    return quality


def corpus_size(data: Path) -> dict[str, float]:
    sequences = [dataio.read_sequence(data, n) for n in dataio.list_sequences(data)]
    sweeps = [s for seq in sequences for s in seq.sweeps]
    return {
        "sequences": len(sequences),
        "sweeps": len(sweeps),
        "points_per_sweep": float(np.mean([len(s) for s in sweeps])),
        "instances_per_sweep": float(np.mean(
            [np.unique(s.inst_labels[s.inst_labels > 0]).size for s in sweeps])),
    }


# ---------------------------------------------------------------- prepare

def prepare(workload: Workload, work: Path, seed: int, traced: bool) -> dict:
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    calls = Calls()
    setup_s, digests, generate = [], [], []
    while len(setup_s) < SETUP_MIN_REPEATS or (
            sum(setup_s) < SETUP_MIN_SECONDS and len(setup_s) < SETUP_MAX_REPEATS):
        setup_dir = work / f"setup{len(setup_s)}"
        values = fields_for(work, setup_dir, seed)
        first_span = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        for corpus in workload.corpora:
            build_corpus(calls, corpus, values)
        if workload.train is not None:
            calls.run(fill(workload.train, values))
        setup_s.append(time.perf_counter() - t0)
        digests.append(tree_digest(setup_dir))
        if len(setup_s) > 1:
            shutil.rmtree(setup_dir)
        if tracer is not None:
            t = spans.totals(tracer.spans[first_span:])
            generate.append((t.total.get("synth.generate_sequence", 0.0),
                             t.counts.get("synth.generate_sequence", {}).get("points", 0)))
    if tracer is not None:
        tracer.uninstall()
    if len(set(digests)) != 1:
        calls.fail(f"set-up is not reproducible: {digests}")
    setup_dir = work / "setup0"
    out = {"setup_s": setup_s, "digests": {}, "corpus": corpus_size(setup_dir / "data"),
           "environment": {"nproc": len(os.sched_getaffinity(0)),
                           "python": platform.python_version(), "numpy": np.__version__}}
    for part in ("data", "train", "model.bin"):
        path = setup_dir / part
        if path.is_dir():
            out["digests"][part] = tree_digest(path)
        elif path.exists():
            out["digests"][part] = hashlib.sha256(path.read_bytes()).hexdigest()
    if generate:
        out["generate_sequence_s"] = statistics.median(g[0] for g in generate)
        out["generate_sequence_points"] = generate[0][1]
    out["oracle"] = oracle_check(calls, work, seed)
    out.update(attempted=calls.attempted, failed=calls.failed, errors=calls.errors)
    return out


def oracle_check(calls: Calls, work: Path, seed: int) -> dict:
    """Oracle membership on a zero-noise corpus must reproduce the labels exactly."""
    values = fields_for(work, work, seed)
    for argv in ORACLE:
        if not calls.run(fill(argv, values))[0]:
            return {}
    try:
        quality = read_quality(Path(values["oracle_eval"]))
    except (ValueError, OSError) as exc:
        calls.fail(f"oracle eval output: {exc}")
        return {}
    if abs(quality["pq"] - 1.0) > 1e-9 or abs(quality["lstq"] - 1.0) > 1e-9:
        calls.fail(f"oracle membership gave {quality}, expected PQ = LSTQ = 1")
    return quality


# ---------------------------------------------------------------- loop

def loop(workload: Workload, work: Path, seed: int, seconds: float, traced: bool) -> dict:
    """Closed loop over the CLI sequence; traced runs alternate untraced iterations.

    The first iteration is a warm-up whose outputs are checked in full; every
    later iteration must reproduce its digests and quality exactly.
    """
    values = fields_for(work, work / "setup0", seed)
    data = Path(values["data"])
    sizes = sweep_sizes(data)
    tracer = spans.Tracer() if traced else None
    calls = Calls(tracer)
    kinds = [argv[0] for argv in workload.loop]
    start = time.perf_counter()
    iterations = []
    reference = None
    while True:
        index = len(iterations)
        trace_this = tracer is not None and index % 2 == 1
        if trace_this:
            sites = tracer.install()
            missing = [name for name, count in sites.items() if count == 0]
            if missing:
                raise RuntimeError(f"no import site found for {missing}")
            first_span = len(tracer.spans)
        calls.tracer = tracer if trace_this else None
        times, roots, ok = [], [], True
        t0 = time.perf_counter()
        for argv in workload.loop:
            good, elapsed, root = calls.run(fill(argv, values))
            ok &= good
            times.append(elapsed)
            roots.append(root)
        wall = time.perf_counter() - t0
        if trace_this:
            tracer.uninstall()
        record = {"wall_s": wall, "call_s": dict(zip(kinds, times)), "traced": trace_this}
        if ok:
            outputs = {"pred": tree_digest(Path(values["pred"])),
                       "eval": tree_digest(Path(values["eval"]))}
            if "train-mem" in kinds:
                outputs["model"] = hashlib.sha256(Path(values["model"]).read_bytes()).hexdigest()
            if reference is None:
                problem = check_predictions(data, Path(values["pred"]), sizes)
                if problem:
                    calls.fail(f"track output: {problem}")
                try:
                    quality = read_quality(Path(values["eval"]))
                except (ValueError, OSError) as exc:
                    calls.fail(f"eval output: {exc}")
                    quality = {}
                reference = {"digests": outputs, "quality": quality}
            elif outputs != reference["digests"]:
                calls.fail(f"iteration {index} outputs differ from the first: {outputs}")
        if trace_this:
            record["self_s"], record["layers"] = layer_metrics(
                tracer, first_span, roots[kinds.index("track")], sizes)
        iterations.append(record)
        timed = len(iterations) - 1
        if time.perf_counter() - start >= seconds and timed >= (4 if traced else 3):
            break
    timed = iterations[1:]
    out = {
        "iterations": iterations,
        "wall_s": statistics.median(r["wall_s"] for r in timed if not r["traced"]),
        "track_s": statistics.median(r["call_s"]["track"] for r in timed if not r["traced"]),
        "sweeps": sum(len(v) for v in sizes.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference": reference or {},
        "attempted": calls.attempted,
        "failed": calls.failed,
        "errors": calls.errors,
    }
    if traced:
        runs = [r for r in timed if r["traced"]]
        out["traced_wall_s"] = statistics.median(r["wall_s"] for r in runs)
        for key in ("layers", "self_s"):
            out[key] = {n: statistics.median(r[key].get(n, 0.0) for r in runs)
                        for n in runs[0][key]}
        out["spans"] = [[s.id, s.parent, s.name, s.t0, s.t1] for s in tracer.spans]
    return out


def layer_metrics(tracer: spans.Tracer, first_span: int, track_root: spans.Span,
                  sizes: dict[str, list[int]]) -> tuple[dict[str, float], dict[str, float]]:
    """Self time per span name and the per-layer figures of one traced iteration."""
    every = spans.totals(tracer.spans[first_span:])
    track = spans.totals(spans.subtree(tracer.spans, track_root))
    n_seq = len(sizes)
    n_sweeps = sum(len(v) for v in sizes.values())

    def s(name):
        return every.total.get(name, 0.0)

    def self_s(name):
        return every.self_time.get(name, 0.0)

    def count(name, key):
        return every.counts.get(name, {}).get(key, 0)

    def per(num, den):
        return num / den if den else 0.0

    evaluated, unassigned, wrong = count("tracking.infer_sweep", "membership") or (0, 0, 0)
    nms_calls = every.calls.get("inference.nms_detect", 0)
    return every.self_time, {
        "synth.simulate_detector.self_s": self_s("synth.simulate_detector"),
        "synth.point_features.s": s("synth.point_features"),
        "synth.point_features.calls_per_sweep":
            per(track.calls.get("synth.point_features", 0), n_sweeps),
        "synth.bev_map.self_s": self_s("synth.bev_map"),
        "voxels.voxelize.s": s("voxels.voxelize"),
        "voxels.voxelize.cells":
            per(count("voxels.voxelize", "cells"), every.calls.get("voxels.voxelize", 0)),
        "voxels.flatten_bev.s": s("voxels.flatten_bev"),
        "targets.build_trajectories.s": s("targets.build_trajectories"),
        "targets.build_trajectories.calls_per_seq":
            per(track.calls.get("targets.build_trajectories", 0), n_seq),
        "targets.render_bev_targets.s": s("targets.render_bev_targets"),
        "inference.nms_detect.s": s("inference.nms_detect"),
        "inference.nms_detect.cells_scanned":
            per(count("inference.nms_detect", "cells_scanned"), nms_calls),
        "inference.nms_detect.detections_per_sweep":
            per(count("inference.nms_detect", "detections"), nms_calls),
        "inference.fuse_panoptic.self_s": self_s("inference.fuse_panoptic"),
        "inference.fuse_panoptic.claimed_points":
            count("inference.fuse_panoptic", "claimed_points"),
        "membership.nn_baseline.s": s("membership.nn_baseline"),
        "membership.nn_baseline.candidate_pairs":
            count("membership.nn_baseline", "candidate_pairs"),
        "membership.assemble_pair_features.s": s("membership.assemble_pair_features"),
        "membership.predict_membership.s": s("membership.predict_membership"),
        "membership.predict_membership.rows": count("membership.predict_membership", "rows"),
        "membership.predict_membership.calls_per_sweep":
            per(track.calls.get("membership.predict_membership", 0), n_sweeps),
        "membership.build_training_pairs.s": s("membership.build_training_pairs"),
        "membership.build_training_pairs.pairs":
            count("membership.build_training_pairs", "pairs"),
        "membership.acc": per(evaluated - unassigned - wrong, evaluated),
        "membership.unassigned_frac": per(unassigned, evaluated),
        "membership.wrong_frac": per(wrong, evaluated),
        "mlp.train_epochs.s": s("mlp.train_epochs"),
        "mlp.train_epochs.rows_per_s":
            per(count("mlp.train_epochs", "rows"), s("mlp.train_epochs")),
        "tracking.greedy_associate.s": s("tracking.greedy_associate"),
        "tracking.greedy_associate.candidates":
            count("tracking.greedy_associate", "candidates"),
        "tracking.tracks_born": count("tracking.greedy_associate", "born"),
        "tracking.tracks_matched": count("tracking.greedy_associate", "matched"),
        "tracking.panoptic_track_sequence.self_s": self_s("tracking.panoptic_track_sequence"),
        "metrics.PqAccumulator.add.s": s("metrics.PqAccumulator.add"),
        "metrics.LstqAccumulator.add_sequence.s": s("metrics.LstqAccumulator.add_sequence"),
        "dataio.read_sequence.s": s("dataio.read_sequence"),
        "dataio.write_predictions.s": s("dataio.write_predictions"),
        "pipeline.prepare_sweep_inputs.s": s("pipeline.prepare_sweep_inputs"),
        "trace.coverage_frac": spans.coverage(tracer.spans, track_root),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=["prepare", "loop"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    work = Path(args.work)
    workload = WORKLOADS[args.workload]
    if args.phase == "prepare":
        result = prepare(workload, work, args.seed, bool(args.trace))
    else:
        result = loop(workload, work, args.seed, args.seconds, bool(args.trace))
    (work / f"{args.phase}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
