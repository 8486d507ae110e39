"""Hash the output of a fixed corpus of in-process `curvkind` calls, of
`selftest` and of the demos.

Two trees that print the same bytes for every call print the same digest, so
a refactor that must not change any report can be checked by running this
against each tree:

    PYTHONPATH=<tree>/src python benchmarks/cli_corpus.py

Comparing the four digests of two trees then shows which of the CLI, the
library, `selftest` and the demos print something else.  The corpus, the
demos included, is that of the checkout holding this script; only the
library comes from PYTHONPATH.

The CLI corpus has two parts.

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

A scaling section follows: `certify` and `analyze` on a seeded random
tensor with n = 5 and 8, its Einstein projection and the product sphere,
each scaled by 2^e for e in SCALE_EXPONENTS: 60 calls.  Then
`spectrum --operator ric_l --ric-l-p 1` on the Ricci-flat projection of a
seeded random tensor with n = 5 and 8 (Ric_L on 1-forms is Ric, roundoff
around 0), at unit scale and times each 2^e: 12 calls.  A frames section
ends the CLI corpus: `analyze --p all` and `spectrum --operator ric_l
--ric-l-p 1` on the unit-scale Ricci-flat and random bases of the two
sections above, each in one seeded rotated frame: 8 calls.

Dense files are written to a temporary directory and named by a relative
path, so the echoed input is the same on every run.

A library section then calls the weight calculus directly: `k_partial_sum`
at orders in and out of [1, N], `min_weighted_sum` at feasible and
infeasible weights and totals, and `k_positivity_profile`, over seeded
unsorted spectra (integer ones with exact zeros, and floats scaled by
1e-13, 1 and 1e13) and second-kind spectra; `ric_l_lower_bounds` at every
0 <= p <= n/2 + 1 and `certify` with kappa absent, negative and positive,
over named models with n = 2..8 and 12, and random, Einstein and
1e-13-scaled random tensors with n = 3, 4, 5, 6, 8 and 12.  Each call is
hashed as the repr of its result, or the name and message of the curvkind
error it raised.

The output is one JSON object: the number of CLI calls, the bytes of stdout
and stderr they printed, the sha256 over each call's argv, exit code, stdout
and stderr, and under "library" the number of library calls and the sha256
over their outcomes.  "selftest" is the sha256 of what `run_selftest()`
prints with its default arguments, as `curvkind selftest` does, and "demos"
the sha256 of the stdout of every script under demos/, each run in its own
process, in the order of their names.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
from pathlib import Path
import subprocess
import sys
import tempfile

import numpy as np

from curvkind import (
    Analysis,
    CurvatureTensor,
    CurvkindError,
    certify,
    constant_curvature,
    k_partial_sum,
    k_positivity_profile,
    kulkarni_nomizu,
    min_weighted_sum,
    perturb_constant,
    product_sphere,
    random_curvature,
    ric_l_lower_bounds,
    ricci_scalar,
    su3_so3,
)
from curvkind.cli import main
from curvkind.selftest import run_selftest

KAPPAS = (None, -1.0, -0.3, 0.0, 0.5)
COMMANDS = (("certify",), ("analyze",))
FORMATS = ((), ("--table",))
OPERATOR_DIMS = (6, 10, 11, 12)
SCALE_EXPONENTS = (-400, -45, -30, 60, 400)
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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


def _scaled_bases():
    """{n: the seeded random tensor of the scaling section} for n = 5, 8."""
    rng = np.random.default_rng(18)
    return {n: random_curvature(n, rng) for n in (5, 8)}


def _ricci_flat_bases():
    """{n: the Ricci-flat projection of a seeded random tensor} for n = 5, 8."""
    rng = np.random.default_rng(19)
    out = {}
    for n in (5, 8):
        E = _einstein(random_curvature(n, rng))
        out[n] = perturb_constant(E, -ricci_scalar(E).scalar / (n * (n - 1)))
    return out


def _scaled_sources():
    """Random, Einstein and product-sphere tensors times each 2^e."""
    out = []
    for n, R in _scaled_bases().items():
        for name, base in (("random", R), ("einstein", _einstein(R)), ("product", product_sphere(n))):
            for e in SCALE_EXPONENTS:
                out.append(_write_dense(f"scaled-{name}-{n}-{e}", base * 2.0**e))
    return out


def _ricci_flat_sources():
    """Ricci-flat projections of random tensors, at unit scale and times each 2^e."""
    out = []
    for n, W in _ricci_flat_bases().items():
        for e in (0, *SCALE_EXPONENTS):
            out.append(_write_dense(f"ricci-flat-{n}-{e}", W * 2.0**e))
    return out


def _frame_sources():
    """The Ricci-flat and scaled-random bases in one seeded rotated
    orthonormal frame f_i = sum_a Q_ai e_a."""
    rng = np.random.default_rng(20)
    out = []
    for name, bases in (("ricci-flat", _ricci_flat_bases()), ("random", _scaled_bases())):
        for n, R in bases.items():
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            rotated = np.einsum("abcd,ai,bj,ck,dl->ijkl", R.components, Q, Q, Q, Q, optimize=True)
            out.append(_write_dense(f"rotated-{name}-{n}", CurvatureTensor(n, rotated)))
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
    for source, command in itertools.product(_scaled_sources(), COMMANDS):
        yield [*command, *source]
    for source in _ricci_flat_sources():
        yield ["spectrum", *source, "--operator", "ric_l", "--ric-l-p", "1"]
    for source in _frame_sources():
        yield ["analyze", *source, "--p", "all"]
        yield ["spectrum", *source, "--operator", "ric_l", "--ric-l-p", "1"]


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _analyses():
    """One Analysis per tensor of the library section."""
    rng = np.random.default_rng(16)
    tensors = [su3_so3(), perturb_constant(su3_so3(), -0.25), constant_curvature(2, 1.0)]
    for n in (3, 4, 5, 6, 8, 12):
        R = random_curvature(n, rng)
        tensors += [constant_curvature(n, 1.0), constant_curvature(n, 0.0), product_sphere(n)]
        tensors += [R, _einstein(R), R * 1e-13]
    tensors.append(perturb_constant(product_sphere(7), -0.04))
    return [Analysis(R) for R in tensors]


def _spectra(analyses):
    """Seeded unsorted spectra of 1..77 values, then each second-kind spectrum."""
    rng = np.random.default_rng(17)
    out = []
    for N in (1, 2, 5, 9, 14, 27, 77):
        out.append(rng.integers(-4, 5, N).astype(float))
        out += [rng.standard_normal(N) * scale for scale in (1e-13, 1.0, 1e13)]
    return out + [a.second_kind for a in analyses]


def _library_calls():
    """(label, function, args) of every call of the library section, in order."""
    analyses = _analyses()
    for i, eigs in enumerate(_spectra(analyses)):
        N = len(eigs)
        yield f"profile {i}", k_positivity_profile, (eigs,)
        for k in (0.5, 1.0, 1.5, N / 2, N - 0.25, float(N), N + 0.5):
            yield f"k_partial_sum {i} {k!r}", k_partial_sum, (eigs, k)
        for omega in (-1.0, 0.0, 0.3, 1.0, 1.7):
            for total in (-0.5, 0.0, 0.7, omega * N / 2, omega * N, omega * N * 1.01):
                label = f"min_weighted_sum {i} {omega!r} {total!r}"
                yield label, min_weighted_sum, (eigs, omega, total)
    for i, a in enumerate(analyses):
        for p in range(a.n // 2 + 2):
            yield f"ric_l_lower_bounds {i} {p}", ric_l_lower_bounds, (a, p)
        for kappa in (None, -0.5, 0.5):
            yield f"certify {i} {kappa!r}", certify, (a, kappa)


def _outcome(function, args):
    try:
        return repr(function(*args))
    except CurvkindError as exc:
        return f"{type(exc).__name__}: {exc}"


def run_library():
    digest = hashlib.sha256()
    calls = 0
    for label, function, args in _library_calls():
        digest.update(json.dumps([label, _outcome(function, args)]).encode() + b"\n")
        calls += 1
    return {"calls": calls, "sha256": digest.hexdigest()}


def run_selftest_digest():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run_selftest()
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def run_demos():
    digest = hashlib.sha256()
    for path in DEMOS:
        done = subprocess.run([sys.executable, str(path)], capture_output=True, check=True)
        digest.update(done.stdout)
    return digest.hexdigest()


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
    return {
        "calls": calls,
        "output_bytes": size,
        "sha256": digest.hexdigest(),
        "library": run_library(),
        "selftest": run_selftest_digest(),
        "demos": run_demos(),
    }


if __name__ == "__main__":
    print(json.dumps(run(), indent=1))
