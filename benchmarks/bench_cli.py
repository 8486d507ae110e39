"""Timings of in-process CLI calls: building the argument parser, and
`certify`, `spectrum` and `analyze` through `curvkind.cli.main`.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/bench_cli.py --benchmark-only

This directory lies outside the pytest test paths, so the tier-1 suite does
not run it.  `main` builds its parser on the first call of a process and
reuses it, so the command rows time parsing, loading and validation, the
solves and the JSON output of one call; `test_build_parser` times the one-off
build.  Each input is a model spec (`product_sphere`, `su3_so3`) or a
`--dense` file holding a seeded random tensor; stdout is captured and
discarded.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from curvkind import random_curvature
from curvkind.cli import build_parser, main

SMALL_CALLS = [
    (command, n, source)
    for command in ("certify", "spectrum")
    for n in (5, 12)
    for source in ("product_sphere", "dense")
]
ANALYZE = [
    (p, source) for p in ("half", "all") for source in ("su3_so3", "product_sphere-12", "dense-12")
]


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("bench_cli")
    out = {"su3_so3": ["--model", '{"kind": "su3_so3"}']}
    for n in (5, 12):
        path = workdir / f"dense-{n}.json"
        R = random_curvature(n, np.random.default_rng(n))
        path.write_text(json.dumps({"n": n, "components": R.components.ravel().tolist()}))
        out[f"dense-{n}"] = ["--dense", str(path)]
        out[f"product_sphere-{n}"] = ["--model", json.dumps({"kind": "product_sphere", "n": n})]
    return out


def run_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def test_build_parser(benchmark):
    benchmark(build_parser.__wrapped__)


@pytest.mark.parametrize("command, n, source", SMALL_CALLS)
def test_certify_spectrum(benchmark, sources, command, n, source):
    argv = [command, *sources[f"{source}-{n}"]]
    if command == "spectrum":
        argv += ["--operator", "second"]
    assert benchmark(run_main, argv) == 0


@pytest.mark.parametrize("p, source", ANALYZE)
def test_analyze(benchmark, sources, p, source):
    assert benchmark(run_main, ["analyze", *sources[source], "--p", p]) == 0
