"""Command-line front end: analyze curvature input, emit spectra, bounds and
certificates as JSON or text tables.

Subcommands: analyze, certify, spectrum, selftest.  Input is either
--model '<json>' (the model-spec vocabulary of model_spaces) or
--dense <path> pointing at {"n": int, "components": [n^4 floats]} in
row-major (i, j, k, l) order.  Exit codes: 1 when a selftest check fails or
the reader closes stdout, 2 for unparsable input or a failed eigensolve, 3
when the tensor fails the curvature-symmetry validation.
"""

import argparse
import functools
import json
from json.encoder import encode_basestring_ascii
import math
import os
import re
import sys

import numpy as np

from . import __version__
from ._blas import one_blas_thread
from .bochner import ric_l_minima, ric_l_spectrum
from .errors import CurvatureSymmetryError, CurvkindError, ShapeMismatch
from .model_spaces import curvature_from_spec
from .operators import Analysis, cluster_eigenvalues
from .tensor_core import dimension_cap
from .weights import certify, constants, k_positivity_profile, ric_l_lower_bounds

CLOSED_OUTPUT, PARSE_ERROR, VALIDATION_ERROR = 1, 2, 3


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _load_curvature(args):
    """The validated input as an Analysis, and the descriptor the report echoes."""
    if bool(args.model) == bool(args.dense):
        _fail(PARSE_ERROR, "provide exactly one of --model or --dense")
    try:
        if args.model:
            spec = json.loads(args.model)
            descriptor = spec
        else:
            with open(args.dense) as handle:
                spec = json.load(handle)
            if not isinstance(spec, dict):
                raise ShapeMismatch(f"expected a JSON object, got {type(spec).__name__}")
            kind = spec.setdefault("kind", "dense")
            if kind != "dense":
                raise ShapeMismatch(f"a --dense file holds kind 'dense', not {kind!r}; use --model")
            descriptor = {"kind": "dense", "path": args.dense, "n": spec.get("n")}
        return Analysis(curvature_from_spec(spec)), descriptor
    # Analysis validates R; its error is a ValueError, so it is caught first
    except CurvatureSymmetryError as exc:
        _fail(VALIDATION_ERROR, f"invalid curvature tensor: {exc}")
    # a KeyError is a spec without a field its kind needs, and its text the key
    except KeyError as exc:
        _fail(PARSE_ERROR, f"cannot build curvature tensor: missing field {exc}")
    # ValueError covers bad JSON, CurvkindError and unconvertible numbers;
    # OverflowError an integer too large for a float; RecursionError a spec
    # or list nested deeper than Python's stack
    except (OSError, ValueError, TypeError, OverflowError, RecursionError) as exc:
        _fail(PARSE_ERROR, f"cannot build curvature tensor: {exc}")


def _spectrum_block(a, eigs):
    """A spectrum of a's tensor and its clusters, which read R's unit scale."""
    return {
        "eigenvalues": eigs.tolist(),
        "clusters": [[value, mult] for value, mult in cluster_eigenvalues(eigs, a.scale)],
    }


def _certificate_dicts(certs):
    """Each Certificate's fields as a dict, its sums as certify built them
    (Python floats); p only when set."""
    return [{key: value for key, value in vars(c).items() if value is not None} for c in certs]


def _per_p_rows(a, p_values):
    minima = ric_l_minima(a, p_values)
    rows = []
    for p in p_values:
        row = {"p": p, "ric_l_min_eigenvalue": minima[p]}
        if 2 * p <= a.n:
            row["c_p"] = constants(a.n, p).c_p
            row["bounds"] = ric_l_lower_bounds(a, p)
        rows.append(row)
    return rows


def _certify_report(a, descriptor, args):
    """The certify report, which the analyze report extends."""
    return {
        "input": descriptor,
        "n": a.n,
        "k_profile": k_positivity_profile(a.second_kind),
        "certificates": _certificate_dicts(certify(a, args.kappa)),
    }


def _analyze_report(a, descriptor, args):
    """The certify report, the summary, both spectra and one row per degree
    of --p: 'half' (1 <= p <= n/2), 'all' (1 <= p < n) or one integer."""
    n = a.n
    if args.p in ("half", "all"):
        p_values = range(1, n // 2 + 1 if args.p == "half" else n)
    else:
        p_values = [int(args.p)]
    return {
        **_certify_report(a, descriptor, args),
        "summary": {
            "ricci_eigenvalues": np.linalg.eigvalsh(a.summary.ricci).tolist(),
            "scalar": a.summary.scalar,
            "einstein_defect": a.summary.einstein_defect,
        },
        "second_kind": _spectrum_block(a, a.second_kind),
        "first_kind": _spectrum_block(a, np.linalg.eigvalsh(a.first_kind)),
        "per_p": _per_p_rows(a, p_values),
    }


def _spectrum_report(a, descriptor, args):
    """The spectrum of --operator (second, first, or Ric_L on --ric-l-p forms)."""
    if args.operator == "second":
        eigs = a.second_kind
    elif args.operator == "first":
        eigs = np.linalg.eigvalsh(a.first_kind)
    else:
        eigs = ric_l_spectrum(a, args.ric_l_p)
    return {"input": descriptor, "n": a.n, "operator": args.operator, **_spectrum_block(a, eigs)}


def _fmt(x):
    return f"{x:.6g}"


def _print_table(report):
    """The report as text: each section it holds, in one fixed order (the
    analyze summary and both spectra, the --operator spectrum, the k-profile,
    the per-degree rows, the certificates)."""
    spectra = []
    if "summary" in report:
        s = report["summary"]
        print(f"n = {report['n']}  input = {json.dumps(report['input'], sort_keys=True)}")
        print(f"scal = {_fmt(s['scalar'])}  einstein defect = {_fmt(s['einstein_defect'])}")
        print("Ricci eigenvalues: " + ", ".join(_fmt(v) for v in s["ricci_eigenvalues"]))
        spectra += [("second kind", report["second_kind"]), ("first kind", report["first_kind"])]
    if "operator" in report:
        spectra.append((report["operator"], report))
    for label, payload in spectra:
        clusters = ", ".join(f"{_fmt(v)} (x{m})" for v, m in payload["clusters"])
        print(f"{label} spectrum: {clusters}")
    if "k_profile" in report:
        print("k-positivity: positive from k = {positive}, "
              "nonnegative from k = {nonnegative}".format(**report["k_profile"]))
    if "per_p" in report:
        print("per-degree table:")
        print("  p   C_p        min eig Ric_L   bounds")
        for row in report["per_p"]:
            cp = _fmt(row["c_p"]) if "c_p" in row else "-"
            btxt = "  ".join(f"{k}={_fmt(v)}" for k, v in row.get("bounds", {}).items())
            print(f"  {row['p']:<3} {cp:<10} {_fmt(row['ric_l_min_eigenvalue']):<15} {btxt}")
    if "certificates" in report:
        print("certificates:")
        for c in report["certificates"]:
            tag = c["theorem"] if "p" not in c else f"{c['theorem']} p={c['p']}"
            sums = "  ".join(f"{k}={_fmt(v)}" for k, v in sorted(c["sums"].items()))
            print(f"  {tag:<14} {c['verdict']:<6} {c['conclusion']}  [{sums}]")


def _finite_repr(x):
    """A float's JSON text: its repr, and json.dumps' ValueError (under
    allow_nan=False) for NaN and the infinities."""
    if math.isfinite(x):
        return float.__repr__(x)
    raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")


# the JSON text of a scalar of each type a report holds, by exact type
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    float: _finite_repr,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _report_json(report):
    """The text of json.dumps(report, sort_keys=True, indent=2,
    allow_nan=False), written directly: under indent, json.dumps runs its
    pure-Python encoder, which costs more than the rest of a small report.

    A report holds JSON values only: dicts with str keys, lists, str, int,
    float, bool and None, as the report builders make them and json.loads
    reads them.  It raises json.dumps' ValueError for NaN and the
    infinities, and a TypeError for any other value, a subclass or a tuple
    included, and for a key that is not a str.  It does not recurse: a spec
    echoed from --model is written however deep json.loads read it."""
    parts, stack = [], []
    # the report is the one entry of a list written without brackets; pad is
    # a newline and the indent of the open container's entries
    entries, keyed, pad, separator = iter((report,)), False, "\n", ""
    while True:
        for entry in entries:
            if keyed:
                key, value = entry
                if type(key) is not str:
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                parts.append(f"{separator}{encode_basestring_ascii(key)}: ")
            else:
                value = entry
                parts.append(separator)
            separator = "," + pad
            write = _SCALAR_JSON.get(type(value))
            if write is not None:
                parts.append(write(value))
            elif type(value) not in (list, dict):
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
            elif not value:
                parts.append("{}" if type(value) is dict else "[]")
            else:
                # open value: its entries come before the rest of entries
                stack.append((entries, keyed, pad))
                keyed = type(value) is dict
                entries = iter(sorted(value.items()) if keyed else value)
                parts.append("{" if keyed else "[")
                pad = separator = pad + "  "
                break
        else:
            if not stack:
                return "".join(parts)
            closer = "}" if keyed else "]"
            entries, keyed, pad = stack.pop()
            separator = "," + pad
            parts.append(pad + closer)


@one_blas_thread
def _cmd_report(args):
    """analyze, certify and spectrum: load the input, build the subcommand's
    report (args.report) and print it as JSON, or through _print_table
    with --table.  The JSON is _report_json's, the bytes of json.dumps with
    sorted keys and an indent of 2 at a fraction of its cost.  A finite
    input can still overflow to a report with an infinity or NaN, which JSON
    cannot hold and the table would state as a result: both exit 2 instead.
    It runs on one OpenBLAS thread, so no BLAS worker spins beside the
    parallel Ric_L solves (bochner.ric_l_minima), and no bit depends on the
    thread count OpenBLAS was given or on the cores."""
    a, descriptor = _load_curvature(args)
    report = args.report(a, descriptor, args)
    try:
        text = _report_json(report)
    except ValueError:
        _fail(PARSE_ERROR, "input out of range: the report has a non-finite value")
    if args.table:
        _print_table(report)
    else:
        print(text)
    return 0


def _cmd_selftest(args):
    from .selftest import run_selftest

    if args.seed < 0:
        _fail(PARSE_ERROR, f"--seed must be non-negative, got {args.seed}")
    if args.seeds < 1:
        _fail(PARSE_ERROR, f"--seeds must be at least 1, got {args.seeds}")
    if args.n_max < 4:
        # estimate soundness sweeps n = 4..n_max
        _fail(PARSE_ERROR, f"--n-max must be at least 4, got {args.n_max}")
    if args.n_max > dimension_cap():
        # the sweeps build forms of C(n_max, n_max/2) coefficients
        _fail(PARSE_ERROR, f"--n-max {args.n_max} exceeds the soft cap {dimension_cap()} "
              "(set CURVKIND_NMAX to raise it)")
    ok = run_selftest(seed=args.seed, seeds=args.seeds, n_max=args.n_max)
    return 0 if ok else 1


def _add_report(parser, report):
    """The input and format options of a report subcommand, and its builder
    report(a, descriptor, args) for _cmd_report."""
    # argparse's default pattern knows only "-1" and "-0.5" as negative
    # numbers and takes "-1e-3" for an option; no option of this CLI is
    # spelled like a negative number, so "-<digit>" and "-.<digit>" are
    # always values
    parser._negative_number_matcher = re.compile(r"-\.?\d")
    parser.add_argument("--model", help="inline model-spec JSON")
    parser.add_argument("--dense", help="path to a dense-components JSON file")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="table", action="store_false", help="JSON output (default)")
    fmt.add_argument("--table", dest="table", action="store_true", help="human-readable table")
    parser.set_defaults(table=False, func=_cmd_report, report=report)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors take the CLI's one-line form,
    `error: <message>` with exit code 2; add_subparsers builds the
    subcommand parsers with this class too.  -h and --version print as
    argparse prints them."""

    def error(self, message):
        _fail(PARSE_ERROR, message)


@functools.cache
def build_parser():
    """The CLI's one parser, built on the first call and reused by every later
    `main` call in the process.  `parse_args` only reads it: each call gets a
    fresh Namespace, and usage and error text read the terminal width when
    they are printed.  Callers must not change the parser."""
    parser = _Parser(
        prog="curvkind",
        description="spectra, eigenvalue-sum bounds and vanishing certificates "
        "for algebraic curvature tensors",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full report: spectra, bounds, certificates")
    _add_report(analyze, _analyze_report)
    analyze.add_argument(
        "--p", default="half", help="'half' (default, p <= n/2), 'all', or a single degree"
    )

    cert = sub.add_parser("certify", help="hypothesis checks only")
    _add_report(cert, _certify_report)
    # only the certificates read kappa
    for reporter in (analyze, cert):
        reporter.add_argument("--kappa", type=float, default=None, help="estimate hypothesis level")

    spec = sub.add_parser("spectrum", help="eigenvalues of one induced operator")
    _add_report(spec, _spectrum_report)
    spec.add_argument(
        "--operator", choices=("second", "first", "ric_l"), default="second"
    )
    spec.add_argument("--ric-l-p", dest="ric_l_p", type=int, default=1)

    self_test = sub.add_parser("selftest", help="run the randomized identity sweeps")
    self_test.add_argument("--seed", type=int, default=20260114, help="base RNG seed")
    self_test.add_argument("--seeds", type=int, default=20, help="draws per sweep")
    self_test.add_argument("--n-max", type=int, default=6, help="largest dimension swept")
    self_test.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "p", None) not in (None, "half", "all"):
        try:
            int(args.p)
        except ValueError:
            _fail(PARSE_ERROR, f"--p must be 'half', 'all' or an integer, got {args.p!r}")
    kappa = getattr(args, "kappa", None)
    if kappa is not None and not math.isfinite(kappa):
        # the report echoes kappa, and JSON has no NaN or infinity
        _fail(PARSE_ERROR, f"--kappa must be a finite number, got {kappa}")
    try:
        # a finite input can overflow: stop at the first infinity or NaN numpy
        # makes, before anything is printed, rather than print a warning
        with np.errstate(over="raise", invalid="raise"):
            code = args.func(args)
        # a closed stdout raises here, not at the interpreter's exit
        sys.stdout.flush()
        return code
    # LinAlgError: an eigensolve that did not converge
    except (CurvkindError, np.linalg.LinAlgError) as exc:
        _fail(PARSE_ERROR, str(exc))
    except FloatingPointError as exc:
        _fail(PARSE_ERROR, f"input out of range: {exc}")
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_OUTPUT


if __name__ == "__main__":
    raise SystemExit(main())
