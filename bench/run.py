"""Repository benchmark: closed-loop CLI workloads on seeded synthetic corpora.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each run starts two fresh worker processes with
BLAS and OpenMP pinned to one thread: ``prepare`` builds the workload's inputs
(timed as set-up, at least three times) and runs the oracle check, then
``loop`` drives the CLI sequence for ``--seconds`` seconds. With ``--trace 0`` the last line
of standard output is a JSON object carrying the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics from a run
that alternates traced and untraced iterations. The full record, with output
digests, corpus sizes, environment and spans, goes to
``.bench_work/reports/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PACKAGE_DIR = Path("src") / "modalpanoptic"
WORK_ROOT = Path(".bench_work")
PREPARE_TIMEOUT_S = 60
LOOP_GRACE_S = 80
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MODAL_PANOPTIC_SEED", None)  # the CLI would let it override --seed
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path("src").resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_phase(phase: str, args, work: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), phase, "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--work", str(work),
           "--seconds", str(args.seconds)]
    # Worker output goes to stderr: this process owns stdout's last line.
    proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} worker exited {proc.returncode}")
    return json.loads((work / f"{phase}.json").read_text(encoding="utf-8"))


def src_lines() -> dict[str, int]:
    return {p.stem: len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted(PACKAGE_DIR.glob("*.py"))}


def end_to_end(prep: dict, loop: dict) -> dict[str, float]:
    quality = loop["reference"].get("quality", {})
    return {
        "setup_s": statistics.median(prep["setup_s"]),
        "wall_s": loop["wall_s"],
        "sweeps_per_s": loop["sweeps"] / loop["track_s"],
        "peak_rss_mb": loop["peak_rss_mb"],
        "pq": quality.get("pq", 0.0),
        "lstq": quality.get("lstq", 0.0),
        "miou": quality.get("miou", 0.0),
    }


def per_layer(prep: dict, loop: dict, lines: dict[str, int], names) -> dict[str, float]:
    out = dict(loop["layers"])
    out["synth.generate_sequence.s"] = prep["generate_sequence_s"]
    out["synth.generate_sequence.points"] = prep["generate_sequence_points"]
    out["trace.overhead_frac"] = loop["traced_wall_s"] / loop["wall_s"] - 1.0
    out["code.src_lines"] = sum(lines.values())
    for name in names:
        if name.startswith("code.src_lines."):
            out[name] = lines.get(name.rsplit(".", 1)[1], 0)
    for key, value in prep["corpus"].items():
        out[f"corpus.{key}"] = value
    return out


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if not (PACKAGE_DIR / "cli.py").is_file():
        print(f"error: run from the repository root; {PACKAGE_DIR}/cli.py not found",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prep = run_phase("prepare", args, work, PREPARE_TIMEOUT_S)
        loop = run_phase("loop", args, work, args.seconds + LOOP_GRACE_S)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    lines = src_lines()
    names = [m["name"] for m in wanted]
    values = (per_layer(prep, loop, lines, names) if args.trace else end_to_end(prep, loop))
    missing = [n for n in names if n not in values]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    attempted = prep["attempted"] + loop["attempted"]
    failed = prep["failed"] + loop["failed"]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "environment": dict(prep["environment"], threads={v: "1" for v in THREAD_VARS}),
        "src_lines": lines,
        "corpus": prep["corpus"], "setup_digests": prep["digests"],
        "output_digests": loop["reference"].get("digests", {}),
        "oracle": prep["oracle"], "setup_s": prep["setup_s"],
        "iterations": loop["iterations"], "errors": prep["errors"] + loop["errors"],
        "metrics": values, "self_s": loop.get("self_s", {}), "spans": loop.get("spans", []),
    }
    reports = WORK_ROOT / "reports"
    reports.mkdir(exist_ok=True)
    (reports / f"{work.name}.json").write_text(json.dumps(report), encoding="utf-8")
    shutil.rmtree(work)
    summary = {k: report[k] for k in ("environment", "corpus", "setup_digests",
                                      "output_digests", "oracle", "errors")}
    summary["timed_iterations"] = len(loop["iterations"]) - 1
    print(json.dumps(summary))
    result = {
        "correct": failed == 0 and bool(loop["reference"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
