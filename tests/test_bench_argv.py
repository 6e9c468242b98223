"""Every CLI call the benchmark makes parses with the current parser.

``bench/worker.py`` runs its calls through ``cli.main`` in-process, and an
argparse error there is a ``SystemExit`` that ends the worker instead of a
failed call, so a dropped or renamed flag must fail here first.
"""

import sys
from pathlib import Path

import pytest

from modalpanoptic import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import worker  # noqa: E402


def bench_calls():
    values = worker.fields_for(Path("work"), Path("setup"), 7)
    for name, workload in sorted(worker.WORKLOADS.items()):
        for corpus in workload.corpora:
            # The synth call as ``worker.build_corpus`` assembles it.
            yield f"{name}-synth-{corpus.out.strip('{}')}", [
                "synth", "--out", corpus.out.format(**values),
                "--seed", corpus.seed.format(**values), *corpus.args,
                "--sequences", str(corpus.sequences)]
        steps = ((workload.train,) if workload.train else ()) + workload.loop
        for i, argv in enumerate(steps):
            yield f"{name}-{i}-{argv[0]}", worker.fill(argv, values)
    for i, argv in enumerate(worker.ORACLE):
        yield f"oracle-{i}-{argv[0]}", worker.fill(argv, values)


CALLS = list(bench_calls())


@pytest.mark.parametrize("argv", [argv for _, argv in CALLS], ids=[i for i, _ in CALLS])
def test_bench_call_parses(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]
