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
discarded.  `test_model_certify_spectrum` runs `certify` and the first-kind
`spectrum` on the other model kinds at n = 8 and 12, where building the tensor, validating it
and writing the report are a larger share of a call than the solves.
`test_report_json` times the report writer alone, `cli._report_json` on
reports prebuilt from the seeded dense n = 12 tensor, and
`test_curvature_from_spec` the spec reader alone,
`model_spaces.curvature_from_spec` on the parsed dense n = 12 file and the
n = 12 `kn_product` spec.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from curvkind import cli, curvature_from_spec, random_curvature
from curvkind.cli import build_parser, main

SMALL_CALLS = [
    (command, n, source)
    for command in ("certify", "spectrum")
    for n in (5, 12)
    for source in ("product_sphere", "dense")
]
MODEL_CALLS = [
    (command, n, kind)
    for command in ("certify", "spectrum")
    for n in (8, 12)
    for kind in ("constant_curvature", "perturbed", "kn_product")
]
REPORTS = {
    "certify": ["certify"],
    "analyze-all": ["analyze", "--p", "all"],
    "ric_l-6": ["spectrum", "--operator", "ric_l", "--ric-l-p", "6"],
}
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
    for n in (8, 12):
        rng = np.random.default_rng(100 + n)
        h, k = (rng.standard_normal((n, n)) for _ in range(2))
        specs = {
            "constant_curvature": {"kind": "constant_curvature", "n": n, "kappa": -1.3},
            "perturbed": {"kind": "perturbed", "base": {"kind": "product_sphere", "n": n},
                          "kappa": 0.4},
            "kn_product": {"kind": "kn_product", "h": (h + h.T).tolist(), "k": (k + k.T).tolist()},
        }
        for kind, spec in specs.items():
            out[f"{kind}-{n}"] = ["--model", json.dumps(spec)]
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


@pytest.mark.parametrize("command, n, kind", MODEL_CALLS)
def test_model_certify_spectrum(benchmark, sources, command, n, kind):
    argv = [command, *sources[f"{kind}-{n}"]]
    if command == "spectrum":
        argv += ["--operator", "first"]
    assert benchmark(run_main, argv) == 0


@pytest.mark.parametrize("p, source", ANALYZE)
def test_analyze(benchmark, sources, p, source):
    assert benchmark(run_main, ["analyze", *sources[source], "--p", p]) == 0


@pytest.mark.parametrize("command", REPORTS)
def test_report_json(benchmark, sources, command):
    args = build_parser().parse_args([*REPORTS[command], *sources["dense-12"]])
    a, descriptor = cli._load_curvature(args)
    report = args.report(a, descriptor, args)
    assert benchmark(cli._report_json, report) == json.dumps(
        report, sort_keys=True, indent=2, allow_nan=False)


@pytest.mark.parametrize("source", ["dense-12", "kn_product-12"])
def test_curvature_from_spec(benchmark, sources, source):
    flag, value = sources[source]
    spec = json.loads(Path(value).read_text() if flag == "--dense" else value)
    spec.setdefault("kind", "dense")
    assert benchmark(curvature_from_spec, spec).n == 12
