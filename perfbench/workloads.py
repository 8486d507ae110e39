"""The three workloads: inputs generated from the seed, one op per call into
curvkind, and the check each op's outcome must pass.

An op's `run` makes the call and returns its raw outcome; `digest` turns
that into a small hashable value outside the timed region; `check` compares
a digest with the references of `reference.py` and returns a list of
mismatches (empty when the op is correct).
"""

from dataclasses import dataclass
from functools import cached_property
import contextlib
import io
import json
import math
from typing import Callable

import numpy as np

import reference as ref


@dataclass
class Op:
    label: str
    run: Callable
    check: Callable
    sizes: dict
    digest: Callable = lambda outcome: outcome
    # malformed inputs may fail without making the run incorrect
    well_formed: bool = True
    # the op calls the dense p-form path of bochner (traced for memory)
    form_path: bool = False


def random_curvature(n, rng):
    """Generic algebraic curvature tensor with max |R| = 1: a random 4-tensor
    projected onto the curvature symmetries, first Bianchi part removed."""
    A = rng.standard_normal((n, n, n, n))
    A = A - A.transpose(1, 0, 2, 3)
    A = A - A.transpose(0, 1, 3, 2)
    A = A + A.transpose(2, 3, 0, 1)
    R = A - (A + A.transpose(1, 2, 0, 3) + A.transpose(2, 0, 1, 3)) / 3.0
    return R / np.abs(R).max()


def _random_symmetric(n, rng):
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2


class Input:
    """One tensor input of the CLI: its argv words, the `input` descriptor
    the report must echo, and lazily computed reference values."""

    def __init__(self, argv, descriptor, components, n):
        self.argv = argv
        self.descriptor = descriptor
        self.C = components
        self.n = n
        self._ric_l = {}

    @classmethod
    def model(cls, spec):
        C = ref.components(spec)
        return cls(["--model", json.dumps(spec)], spec, C, C.shape[0])

    @classmethod
    def dense(cls, path, components, n=None):
        """Writes the dense file; `n` overrides the declared dimension."""
        n = components.shape[0] if n is None else n
        with open(path, "w") as handle:
            json.dump({"n": n, "components": components.ravel().tolist()}, handle)
        return cls(["--dense", str(path)], {"kind": "dense", "path": str(path), "n": n},
                   components, n)

    @cached_property
    def second(self):
        return ref.second_kind_eigs(self.C)

    @cached_property
    def first(self):
        return ref.first_kind_eigs(self.C)

    @cached_property
    def summary(self):
        return ref.summary(self.C)

    @cached_property
    def tol(self):
        return ref.RTOL * (1.0 + self.n * self.n * float(np.abs(self.C).max()))

    def ric_l(self, degrees):
        missing = [p for p in degrees if p not in self._ric_l]
        if missing:
            self._ric_l.update(ref.ric_l_min_eigs(self.C, missing))
        return {p: self._ric_l[p] for p in degrees}


# ---------------------------------------------------------------------------
# comparing a JSON report with the references


class _Compare:
    def __init__(self, tol):
        self.tol = tol
        self.errors = []

    def equal(self, what, got, want):
        if got != want:
            self.errors.append(f"{what}: got {got!r}, want {want!r}")

    def close(self, what, got, want, tol=None):
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        tol = self.tol if tol is None else tol
        if got.shape != want.shape:
            self.errors.append(f"{what}: shape {got.shape}, want {want.shape}")
        elif got.size and not float(np.abs(got - want).max()) <= tol:
            self.errors.append(f"{what}: off by {float(np.abs(got - want).max()):.3e} (tol {tol:.1e})")

    def spectrum_block(self, what, block, eigs):
        self.close(f"{what} eigenvalues", block["eigenvalues"], eigs)
        clusters = block["clusters"]
        self.equal(f"{what} multiplicities", [m for _, m in clusters], ref.cluster_sizes(eigs))
        bounds = np.cumsum([0] + ref.cluster_sizes(eigs))
        means = [float(eigs[a:b].mean()) for a, b in zip(bounds, bounds[1:])]
        if len(clusters) == len(means):
            self.close(f"{what} cluster values", [v for v, _ in clusters], means)

    def certificates(self, got, inp, kappa):
        want = ref.certificates(inp.second, inp.summary["einstein"], inp.n, kappa)
        self.equal("certificates", [(c["theorem"], c.get("p"), c["verdict"]) for c in got],
                   [(t, p, v) for t, p, v, _ in want])
        for c, (theorem, p, _, sums) in zip(got, want):
            self.equal(f"{theorem} sums", sorted(c["sums"]), sorted(sums))
            if sorted(c["sums"]) == sorted(sums):
                self.close(f"{theorem} p={p} sums", [c["sums"][k] for k in sorted(sums)],
                           [sums[k] for k in sorted(sums)])


def _checked(inp, compare_fn):
    """A check that parses a CLI outcome and runs `compare_fn(compare, doc)`."""

    def check(outcome):
        code, text = outcome
        if code != 0:
            return [f"exit code {code!r}, want 0"]
        cmp = _Compare(inp.tol)
        try:
            compare_fn(cmp, json.loads(text))
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            cmp.errors.append(f"malformed report: {type(exc).__name__}: {exc}")
        return cmp.errors

    return check


def _check_analyze(inp, p_values):
    n = inp.n

    def compare(cmp, doc):
        cmp.equal("keys", sorted(doc), ["certificates", "first_kind", "input", "k_profile",
                                        "n", "per_p", "second_kind", "summary"])
        cmp.equal("input", doc["input"], inp.descriptor)
        cmp.equal("n", doc["n"], n)
        s = inp.summary
        cmp.close("ricci eigenvalues", doc["summary"]["ricci_eigenvalues"], s["ricci_eigenvalues"])
        cmp.close("scalar", doc["summary"]["scalar"], s["scalar"])
        cmp.close("einstein defect", doc["summary"]["einstein_defect"], s["einstein_defect"])
        cmp.spectrum_block("second kind", doc["second_kind"], inp.second)
        cmp.spectrum_block("first kind", doc["first_kind"], inp.first)
        cmp.equal("k_profile", doc["k_profile"], ref.k_profile(inp.second))
        ric_l = inp.ric_l(p_values)
        cmp.equal("degrees", [row["p"] for row in doc["per_p"]], list(p_values))
        for row, p in zip(doc["per_p"], p_values):
            low, radius = ric_l[p]
            cmp.close(f"p={p} Ric_L min", row["ric_l_min_eigenvalue"], low,
                      tol=ref.RTOL * (1.0 + radius))
            if 2 * p <= n:
                cmp.close(f"p={p} c_p", row["c_p"], ref.c_p(n, p))
                want = ref.bounds(inp.second, s["einstein"], n, p)
                cmp.equal(f"p={p} bound variants", sorted(row["bounds"]), sorted(want))
                if sorted(row["bounds"]) == sorted(want):
                    cmp.close(f"p={p} bounds", [row["bounds"][k] for k in sorted(want)],
                              [want[k] for k in sorted(want)])
            else:
                cmp.equal(f"p={p} row keys", sorted(row), ["p", "ric_l_min_eigenvalue"])
        cmp.certificates(doc["certificates"], inp, None)

    return _checked(inp, compare)


def _check_certify(inp, kappa):
    def compare(cmp, doc):
        cmp.equal("keys", sorted(doc), ["certificates", "input", "k_profile", "n"])
        cmp.equal("input", doc["input"], inp.descriptor)
        cmp.equal("n", doc["n"], inp.n)
        cmp.equal("k_profile", doc["k_profile"], ref.k_profile(inp.second))
        cmp.certificates(doc["certificates"], inp, kappa)

    return _checked(inp, compare)


def _check_spectrum(inp, operator):
    def compare(cmp, doc):
        cmp.equal("keys", sorted(doc), ["clusters", "eigenvalues", "input", "n", "operator"])
        cmp.equal("input", doc["input"], inp.descriptor)
        cmp.equal("n", doc["n"], inp.n)
        cmp.equal("operator", doc["operator"], operator)
        cmp.spectrum_block(operator, doc, inp.second if operator == "second" else inp.first)

    return _checked(inp, compare)


def run_cli(cli, argv):
    """Call curvkind's CLI in-process; the outcome is (exit code, stdout)."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an uncaught error is a failed op
                code = f"uncaught {type(exc).__name__}: {exc}"
        return code, out.getvalue()

    return run


def _cli_op(cli, label, command, inp, check, sizes, extra=()):
    argv = list(command) + inp.argv + list(extra)
    return Op(label=label, run=run_cli(cli, argv), check=check, sizes=sizes)


def _sizes(n, degrees=()):
    forms = [math.comb(n, p) for p in degrees]
    return {"n": n, "p": list(degrees), "s02_dim": (n - 1) * (n + 2) // 2,
            "two_form_dim": n * (n - 1) // 2, "form_dims": forms,
            "dense_bytes": sum(8 * c * c for c in forms)}


# ---------------------------------------------------------------------------
# analyze-cap


ANALYZE_KINDS = ("product_sphere", "dense", "perturbed", "kn_product")
# (n, --p) per op.  The median op is an n = 12 `--p half` call, which sits
# in the middle of its group of four, not at a group boundary.
ANALYZE_PATTERN = ((11, "half"), (12, "half"), (12, "all"), (11, "all"), (12, "half"), (12, "all"))


def analyze_cap(seed, workdir, modules):
    rng = np.random.default_rng(seed)
    inputs = {}
    for n in (11, 12):
        inputs["product_sphere", n] = Input.model({"kind": "product_sphere", "n": n})
        inputs["dense", n] = Input.dense(workdir / f"analyze-dense-{n}.json", random_curvature(n, rng))
        inputs["perturbed", n] = Input.model({
            "kind": "perturbed",
            "base": {"kind": "constant_curvature", "n": n, "kappa": float(rng.uniform(0.5, 2.0))},
            "kappa": float(rng.uniform(-1.0, 1.0)),
        })
        inputs["kn_product", n] = Input.model({
            "kind": "kn_product",
            "h": _random_symmetric(n, rng).tolist(),
            "k": _random_symmetric(n, rng).tolist(),
        })
    ops = []
    for j in range(math.lcm(len(ANALYZE_KINDS), len(ANALYZE_PATTERN))):
        n, mode = ANALYZE_PATTERN[j % len(ANALYZE_PATTERN)]
        kind = ANALYZE_KINDS[j % len(ANALYZE_KINDS)]
        degrees = list(range(1, (n // 2 if mode == "half" else n - 1) + 1))
        inp = inputs[kind, n]
        ops.append(_cli_op(modules["cli"], f"analyze n={n} --p {mode} {kind}", ["analyze"],
                           inp, _check_analyze(inp, degrees), _sizes(n, degrees),
                           extra=["--p", mode]))
    return ops


# ---------------------------------------------------------------------------
# certify-mix


CERTIFY_KINDS = ("constant_curvature", "product_sphere", "kn_product", "perturbed", "dense")
COMMANDS = (("certify",), ("spectrum", "--operator", "second"), ("spectrum", "--operator", "first"))


def _malformed_op(cli, label, command, argv, codes, n):
    def check(outcome):
        code, _ = outcome
        return [] if code in codes else [f"exit code {code!r}, want one of {codes}"]

    return Op(label=label, run=run_cli(cli, list(command) + argv), check=check,
              sizes=_sizes(n), well_formed=False)


def certify_mix(seed, workdir, modules):
    cli = modules["cli"]
    rng = np.random.default_rng(seed)
    valid = []
    for row in range(5):
        for n in range(3, 13):
            kind = CERTIFY_KINDS[(row + n) % len(CERTIFY_KINDS)]
            if kind == "constant_curvature":
                inp = Input.model({"kind": kind, "n": n, "kappa": float(rng.uniform(-2.0, 2.0))})
            elif kind == "product_sphere":
                inp = Input.model({"kind": kind, "n": n})
            elif kind == "kn_product":
                inp = Input.model({"kind": kind, "h": _random_symmetric(n, rng).tolist(),
                                   "k": _random_symmetric(n, rng).tolist()})
            elif kind == "perturbed":
                inp = Input.model({"kind": kind, "base": {"kind": "product_sphere", "n": n},
                                   "kappa": float(rng.uniform(-1.0, 1.0))})
            else:
                inp = Input.dense(workdir / f"certify-dense-{n}.json", random_curvature(n, rng))
            valid.append((row, inp, kind))
    valid.append((0, Input.model({"kind": "su3_so3"}), "su3_so3"))

    ops = []
    for row, inp, kind in valid:
        command = COMMANDS[(row + 2 * inp.n) % len(COMMANDS)]
        label = f"{' '.join(command)} n={inp.n} {kind}"
        if command[0] == "certify":
            kappa = -float(rng.uniform(0.05, 1.0)) if row % 2 == 0 else None
            extra = [] if kappa is None else ["--kappa", repr(kappa)]
            ops.append(_cli_op(cli, label, command, inp, _check_certify(inp, kappa),
                               _sizes(inp.n), extra=extra))
        else:
            ops.append(_cli_op(cli, label, command, inp, _check_spectrum(inp, command[2]),
                               _sizes(inp.n)))

    # About one op in ten is malformed, each with its documented exit code.
    asym = random_curvature(7, rng)
    asym[0, 1, 2, 3] += 0.5
    nan = random_curvature(8, rng)
    nan[0, 1, 0, 2] = float("nan")
    inf = random_curvature(9, rng)
    inf[1, 2, 1, 3] = float("inf")
    short = random_curvature(6, rng).ravel()[:-1]
    malformed = [
        _malformed_op(cli, "certify asymmetric n=7", COMMANDS[0],
                      Input.dense(workdir / "bad-asymmetric.json", asym).argv, (3,), 7),
        _malformed_op(cli, "spectrum wrong component count n=6", COMMANDS[1],
                      Input.dense(workdir / "bad-count.json", short, n=6).argv, (2,), 6),
        _malformed_op(cli, "spectrum bad JSON", COMMANDS[2],
                      ["--model", '{"kind": "constant_curvature", "n": 5'], (2,), 5),
        _malformed_op(cli, "certify one NaN component n=8", COMMANDS[0],
                      Input.dense(workdir / "bad-nan.json", nan).argv, (2, 3), 8),
        _malformed_op(cli, "spectrum one infinite component n=9", COMMANDS[2],
                      Input.dense(workdir / "bad-inf.json", inf).argv, (2, 3), 9),
    ]
    step = len(ops) // len(malformed)
    for k, op in enumerate(malformed):
        ops.insert(step * k + k + step, op)
    return ops


# ---------------------------------------------------------------------------
# form-identities


def _form_run(bochner, R, w):
    def run():
        return (bochner.form_s02_expansion(w), bochner.bochner_decomposition(R, w),
                bochner.ogiue_tachibana_term(R, w), bochner.ric_l_quadratic(R, w))

    return run


def _form_digest(outcome):
    exp, dec, ot, quad = outcome
    return (exp.total, float(np.max(exp.weights)), dec.lhs, dec.term_operator,
            dec.term_ricci, dec.term_scal, dec.residual, float(ot), float(quad))


def _form_check(C, coeffs, n, p):
    """The paper's identities at the library selftest's tolerances, plus the
    curvature term against the independently assembled Ric_L matrix."""

    def check(d):
        total, wmax, lhs, t_op, t_ric, t_scal, residual, ot, quad = d
        fact = math.factorial(p)
        norm = fact * float(coeffs @ coeffs)
        cap = p * (n - p) / n
        quad_ref = fact * float(coeffs @ ref.ric_l_matrix(C, p) @ coeffs)
        scal = ref.summary(C)["scalar"]
        checks = [
            ("total weight", abs(total - cap * (n + 2) / 2 * norm) / (1 + total), ref.TOTAL_WEIGHT_TOL),
            ("single weight", wmax - cap * norm, ref.TOTAL_WEIGHT_TOL * (1 + cap * norm)),
            ("decomposition", abs(lhs - t_op - t_ric - t_scal) / (1 + abs(lhs)), ref.DECOMPOSITION_TOL),
            ("reported residual", residual, ref.DECOMPOSITION_TOL),
            ("Ogiue-Tachibana", abs(ot - t_op) / (1 + abs(t_op)), ref.AGREEMENT_TOL),
            ("lhs = 3/2 Ric_L", abs(lhs - 1.5 * quad) / (1 + abs(lhs)), ref.AGREEMENT_TOL),
            ("Ric_L reference", abs(quad - quad_ref) / (1 + abs(quad)), ref.DECOMPOSITION_TOL),
            ("scalar term", abs(t_scal - p * p / (n * n) * scal * norm) / (1 + abs(lhs)),
             ref.AGREEMENT_TOL),
        ]
        return [f"{name}: {value:.3e} > {tol:.1e}" for name, value, tol in checks
                if not value <= tol]

    return check


# Degrees above n/2 are left out: they are Hodge duals of the ones kept, and
# the dense path needs n^p * n^2 * 8 bytes, 14 GiB already at (9, 8).  With
# n = 3 the grid has 29 pairs, an odd count, so the median op is the middle
# one of a group of equal pairs rather than the mean of two different ones.
FORM_GRID = tuple((n, p) for n in range(3, 12) for p in range(1, n // 2 + 1))


def form_identities(seed, workdir, modules):
    tc, bochner = modules["tensor_core"], modules["bochner"]
    rng = np.random.default_rng(seed)
    ops = []
    for n, p in FORM_GRID:
        C = random_curvature(n, rng)
        coeffs = rng.standard_normal(math.comb(n, p))
        R = tc.CurvatureTensor(n, C)
        w = tc.PForm(n, p, coeffs)
        sizes = _sizes(n, [p])
        sizes["dense_bytes"] = 8 * n**p * n * n
        ops.append(Op(label=f"form n={n} p={p}", run=_form_run(bochner, R, w),
                      check=_form_check(C, coeffs, n, p), sizes=sizes,
                      digest=_form_digest, form_path=True))
    return ops


WORKLOADS = {
    "analyze-cap": analyze_cap,
    "certify-mix": certify_mix,
    "form-identities": form_identities,
}
