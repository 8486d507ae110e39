"""Hash the output of a fixed corpus of in-process `curvkind` calls.

Two trees that print the same bytes for every call print the same digest, so
a refactor that must not change any report can be checked by running this
against each tree:

    PYTHONPATH=<tree>/src python benchmarks/cli_corpus.py

The corpus has two parts.

* `certify` and `analyze`, JSON and `--table`, with --kappa absent, negative
  and positive (a positive kappa exits 2), over every model kind (Einstein
  ones included: round spheres, SU(3)/SO(3) and its constant-curvature
  perturbation, and a random Einstein tensor), flat input, input scaled to
  1e-13, and seeded random `--dense` tensors: 1000 calls.
* `spectrum --operator second`, `first`, and `ric_l` at every 1 <= p < n,
  and `analyze --p all`, JSON and `--table`, over a product sphere, a
  product sphere perturbed by constant curvature, a seeded random `--dense`
  tensor and a random `kn_product`, each at n = 6, 10, 11 and 12: the
  closed-form diagonal path up to the dimension cap, whole solves, and
  both middle-degree splits (n = 0 and 2 mod 4).

Dense files are written to a temporary directory and named by a relative
path, so the echoed input is the same on every run.  The output is one JSON
object: the number of calls, the bytes of stdout and stderr they printed,
and the sha256 over each call's argv, exit code, stdout and stderr.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import tempfile

import numpy as np

from curvkind import kulkarni_nomizu, random_curvature, ricci_scalar
from curvkind.cli import main

KAPPAS = (None, -1.0, -0.3, 0.0, 0.5)
COMMANDS = (("certify",), ("analyze",))
FORMATS = ((), ("--table",))
OPERATOR_DIMS = (6, 10, 11, 12)


def _einstein(R):
    """R with its trace-free Ricci part removed: Einstein, same scalar curvature."""
    s = ricci_scalar(R)
    ric0 = s.ricci - (s.scalar / R.n) * np.eye(R.n)
    return R + kulkarni_nomizu(ric0, np.eye(R.n)) * (-1.0 / (R.n - 2))


def _model_sources():
    specs = [{"kind": "su3_so3"}]
    specs += [{"kind": "perturbed", "base": {"kind": "su3_so3"}, "kappa": k} for k in (-0.25, 1.0)]
    for n in (3, 4, 5, 6, 8):
        for k in (1.0, -1.0, 0.0, 1e-13):
            specs.append({"kind": "constant_curvature", "n": n, "kappa": k})
        specs.append({"kind": "product_sphere", "n": n})
    specs.append(
        {"kind": "perturbed", "base": {"kind": "product_sphere", "n": 6}, "kappa": 1e-13}
    )
    rng = np.random.default_rng(14)
    for n in (3, 4, 5):
        h = rng.standard_normal((n, n))
        specs.append({"kind": "kn_product", "h": (h + h.T).tolist(), "k": np.eye(n).tolist()})
    return [["--model", json.dumps(spec)] for spec in specs]


def _dense_sources():
    rng = np.random.default_rng(2026)
    tensors = {}
    for n in (3, 4, 5, 6, 7, 8):
        R = random_curvature(n, rng)
        tensors[f"random-{n}"] = R
        tensors[f"einstein-{n}"] = _einstein(R)
        tensors[f"tiny-{n}"] = R * 1e-13
    return [_write_dense(name, R) for name, R in tensors.items()]


def _write_dense(name, R):
    path = f"{name}.json"
    with open(path, "w") as handle:
        json.dump({"n": R.n, "components": R.components.ravel().tolist()}, handle)
    return ["--dense", path]


def _operator_sources():
    """The inputs of the spectrum and `analyze --p all` calls, at OPERATOR_DIMS."""
    rng = np.random.default_rng(15)
    out = []
    for n in OPERATOR_DIMS:
        sphere = {"kind": "product_sphere", "n": n}
        h, k = (x + x.T for x in rng.standard_normal((2, n, n)))
        specs = (
            sphere,
            {"kind": "perturbed", "base": sphere, "kappa": -0.04},
            {"kind": "kn_product", "h": h.tolist(), "k": k.tolist()},
        )
        out += [(n, ["--model", json.dumps(spec)]) for spec in specs]
        out.append((n, _write_dense(f"operator-random-{n}", random_curvature(n, rng))))
    return out


def _corpus():
    """Every argv of the corpus, in order."""
    for source, command, fmt, kappa in itertools.product(
        _model_sources() + _dense_sources(), COMMANDS, FORMATS, KAPPAS
    ):
        argv = [*command, *source, *fmt]
        if kappa is not None:
            argv += ["--kappa", repr(kappa)]
        yield argv
    for n, source in _operator_sources():
        yield ["spectrum", *source, "--operator", "second"]
        yield ["spectrum", *source, "--operator", "first"]
        for p in range(1, n):
            yield ["spectrum", *source, "--operator", "ric_l", "--ric-l-p", str(p)]
        for fmt in FORMATS:
            yield ["analyze", *source, "--p", "all", *fmt]


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run():
    digest = hashlib.sha256()
    calls = size = 0
    with tempfile.TemporaryDirectory() as workdir:
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            for argv in _corpus():
                code, out, err = _call(argv)
                digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
                calls += 1
                size += len(out.encode()) + len(err.encode())
        finally:
            os.chdir(cwd)
    return {"calls": calls, "output_bytes": size, "sha256": digest.hexdigest()}


if __name__ == "__main__":
    print(json.dumps(run(), indent=1))
