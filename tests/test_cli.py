from collections import Counter
import contextlib
import io
import json
import os
from pathlib import Path
import subprocess
import sys

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from curvkind import (
    Analysis,
    cluster_eigenvalues,
    constant_curvature,
    curvature_from_spec,
    perturb_constant,
    product_sphere,
    random_curvature,
    ric_l_matrix,
)
from curvkind import cli, model_spaces, operators, selftest, weights
from curvkind.cli import main
from helpers import make_einstein, make_ricci_flat, random_rotation, rotate_curvature


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_product_sphere_json(capsys):
    code, out, _ = run_cli(capsys, ["analyze", "--model", '{"kind":"product_sphere","n":5}'])
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 5
    clusters = report["second_kind"]["clusters"]
    assert [m for _, m in clusters] == [1, 4, 9]
    assert np.allclose([v for v, _ in clusters], [-0.6, 0.0, 1.0], atol=1e-10)
    assert report["k_profile"] == {"positive": 6, "nonnegative": 6}
    assert any(c["theorem"] == "A" and c["verdict"] == "fails" for c in report["certificates"])


def test_analyze_flat_lists_flat_branch(capsys):
    code, out, _ = run_cli(
        capsys, ["analyze", "--model", '{"kind":"constant_curvature","n":4,"kappa":0}']
    )
    assert code == 0
    report = json.loads(out)
    a = next(c for c in report["certificates"] if c["theorem"] == "A")
    assert a["verdict"] == "holds" and "flat" in a["conclusion"]


def test_analyze_json_round_trip_and_determinism(capsys):
    argv = ["analyze", "--model", '{"kind":"su3_so3"}', "--kappa", "-0.5"]
    code, out1, _ = run_cli(capsys, argv)
    assert code == 0
    re_emitted = json.dumps(json.loads(out1), sort_keys=True, indent=2) + "\n"
    assert out1 == re_emitted
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_analyze_dense_invalid_exit_3(tmp_path, capsys):
    R = constant_curvature(3, 1.0).components.copy()
    R[0, 1, 0, 1] = 2.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "components": R.ravel().tolist()}))
    code, _, err = run_cli(capsys, ["analyze", "--dense", str(path)])
    assert code == 3
    assert "residual" in err and "indices" in err


def test_analyze_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, ["analyze", "--model", "{not json"])
    assert code == 2
    code, _, _ = run_cli(capsys, ["analyze", "--model", '{"kind":"nope"}'])
    assert code == 2
    code, _, _ = run_cli(capsys, ["analyze"])
    assert code == 2


def test_certify_infinite_kappa_exit_2(capsys):
    model = '{"kind":"constant_curvature","n":5,"kappa":1e400}'
    code, out, err = run_cli(capsys, ["certify", "--model", model])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "non-finite" in err


def test_analyze_dense_nan_exit_2(tmp_path, capsys):
    R = constant_curvature(4, 1.0).components.copy()
    R[0, 1, 0, 1] = np.nan
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"n": 4, "components": R.ravel().tolist()}))
    code, out, err = run_cli(capsys, ["analyze", "--dense", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "non-finite" in err


def test_dense_round_trip_valid(tmp_path, capsys):
    R = constant_curvature(3, 2.0)
    path = tmp_path / "good.json"
    path.write_text(json.dumps({"n": 3, "components": R.components.ravel().tolist()}))
    code, out, _ = run_cli(capsys, ["analyze", "--dense", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["scalar"] == pytest.approx(12.0)


def test_dimension_cap_env(tmp_path, capsys, monkeypatch):
    argv = ["spectrum", "--model", '{"kind":"product_sphere","n":13}']
    code, _, err = run_cli(capsys, argv)
    assert code == 2 and "CURVKIND_NMAX" in err
    monkeypatch.setenv("CURVKIND_NMAX", "14")
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["clusters"][0][0] == pytest.approx(-11 / 13)


MALFORMED = {
    "n-not-a-number": ("--model", '{"kind":"constant_curvature","n":"abc"}', None),
    "kappa-not-a-number": ("--model", '{"kind":"constant_curvature","n":4,"kappa":"x"}', None),
    "components-string": ("--model", '{"kind":"dense","n":3,"components":"abc"}', None),
    "h-string-entry": ("--model", '{"kind":"kn_product","h":[[1,"a"],[0,1]],"k":[[1,0],[0,1]]}',
                       None),
    # numeric strings and booleans are refused, not converted and echoed
    "h-numeric-strings": ("--model",
                          '{"kind":"kn_product","h":[["1","0"],["0",true]],"k":[[1,0],[0,1]]}',
                          None),
    "k-boolean-entry": ("--model", '{"kind":"kn_product","h":[[1,0],[0,1]],"k":[[1,0],[0,true]]}',
                        None),
    "components-numeric-strings": ("--model", json.dumps(
        {"kind": "dense", "n": 2, "components": ["0"] * 16}), None),
    "dense-file-boolean-component": ("--dense", json.dumps(
        {"n": 2, "components": [0] * 15 + [False]}), None),
    "dense-file-list": ("--dense", "[1, 2, 3]", None),
    "dense-file-string": ("--dense", '"abc"', None),
    "dense-file-other-kind": ("--dense", '{"kind": "su3_so3"}', None),
    "nmax-not-a-number": ("--model", '{"kind":"product_sphere","n":4}', "abc"),
    "n-fractional": ("--model", '{"kind":"product_sphere","n":5.7}', None),
    # one base level above the limit
    "model-nested-65": ("--model", '{"kind":"perturbed","kappa":0,"base":' * 65
                        + '{"kind":"su3_so3"}' + "}" * 65, None),
    # nested deeper than Python's stack: a RecursionError, not a traceback
    "model-nested-3000": ("--model", '{"kind":"perturbed","kappa":0,"base":' * 3000
                          + '{"kind":"su3_so3"}' + "}" * 3000, None),
    "dense-file-nested-3000": ("--dense", '{"n":2,"components":' + "[" * 3000 + "0"
                               + "]" * 3000 + "}", None),
    # an integer beyond the float range is an OverflowError, not a traceback
    "kappa-huge-integer": ("--model", '{"kind":"constant_curvature","n":3,"kappa":1' + "0" * 400
                           + "}", None),
    "h-huge-integer": ("--model", '{"kind":"kn_product","h":[[1' + "0" * 400
                       + ',0],[0,1]],"k":[[1,0],[0,1]]}', None),
    "components-huge-integer": ("--model", '{"kind":"dense","n":2,"components":[1' + "0" * 400
                                + ",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}", None),
}


@pytest.mark.parametrize("flag, text, nmax", MALFORMED.values(), ids=MALFORMED)
def test_malformed_input_exit_2(tmp_path, capsys, monkeypatch, flag, text, nmax):
    if nmax is not None:
        monkeypatch.setenv("CURVKIND_NMAX", nmax)
    if flag == "--dense":
        path = tmp_path / "input.json"
        path.write_text(text)
        text = str(path)
    code, out, err = run_cli(capsys, ["analyze", flag, text])
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


MISSING_FIELD = {
    "perturbed-without-base": ("--model", '{"kind":"perturbed","kappa":1}', "base"),
    "dense-file-without-n": ("--dense", '{"components":[0]}', "n"),
    "kn-product-without-k": ("--model", '{"kind":"kn_product","h":[[1,0],[0,1]]}', "k"),
}


@pytest.mark.parametrize("flag, text, field", MISSING_FIELD.values(), ids=MISSING_FIELD)
def test_missing_field_is_named(tmp_path, capsys, flag, text, field):
    # a spec without a field its kind needs names the field, not a bare key
    if flag == "--dense":
        path = tmp_path / "input.json"
        path.write_text(text)
        text = str(path)
    assert run_cli(capsys, ["analyze", flag, text]) == (
        2, "", f"error: cannot build curvature tensor: missing field '{field}'\n")


def test_perturbed_nesting_limit(capsys):
    # the report echoes the spec indented, one step per base level: 64 levels
    # are read, and a deeper chain is refused before any output
    def chain(depth):
        return '{"kind":"perturbed","kappa":0,"base":' * depth + '{"kind":"su3_so3"}' + "}" * depth

    code, out, _ = run_cli(capsys, ["certify", "--model", chain(64)])
    assert code == 0 and json.loads(out)["n"] == 5
    message = "a perturbed spec nests at most 64 base levels, got 300"
    assert run_cli(capsys, ["certify", "--model", chain(300)]) == (
        2, "", f"error: cannot build curvature tensor: {message}\n")


SU3 = '{"kind":"su3_so3"}'
NOT_A_NUMBER = "cannot build curvature tensor: kappa must be a number, got"
BAD_KAPPA = {
    "flag-nan": (["--model", SU3, "--kappa=nan"], "--kappa must be a finite number, got nan"),
    "flag-minus-inf": (["--model", SU3, "--kappa=-inf"],
                       "--kappa must be a finite number, got -inf"),
    "flag-inf": (["--model", SU3, "--kappa=inf"], "--kappa must be a finite number, got inf"),
    "flag-overflow": (["--model", SU3, "--kappa=1e400"],
                      "--kappa must be a finite number, got inf"),
    "spec-string": (["--model", '{"kind":"constant_curvature","n":4,"kappa":"1"}'],
                    f"{NOT_A_NUMBER} '1'"),
    "spec-true": (["--model", '{"kind":"constant_curvature","n":4,"kappa":true}'],
                  f"{NOT_A_NUMBER} True"),
    "perturbed-string": (["--model", '{"kind":"perturbed","base":{"kind":"su3_so3"},"kappa":"-1"}'],
                         f"{NOT_A_NUMBER} '-1'"),
}


@pytest.mark.parametrize("command", ["analyze", "certify"])
@pytest.mark.parametrize("argv, message", BAD_KAPPA.values(), ids=BAD_KAPPA)
def test_bad_kappa_exit_2(capsys, command, argv, message):
    # the report echoes kappa: NaN and infinities are not JSON, and a string
    # or boolean would be echoed as given while a number was used
    assert run_cli(capsys, [command, *argv]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["analyze", "certify"])
@pytest.mark.parametrize("kappa", ["-1e-3", "-1E-3", "-1.", "-.5e1"])
def test_negative_kappa_any_notation(capsys, command, kappa):
    # argparse's own negative-number pattern knows only "-1" and "-0.5"
    joined = run_cli(capsys, [command, "--model", SU3, f"--kappa={kappa}"])
    assert joined[0] == 0
    assert run_cli(capsys, [command, "--model", SU3, "--kappa", kappa]) == joined


@pytest.mark.parametrize("kappa", ["-inf", "-nan", "-1e400"])
def test_negative_kappa_non_finite_exit_2(capsys, kappa):
    code, out, err = run_cli(capsys, ["certify", "--model", SU3, "--kappa", kappa])
    assert code == 2 and out == "" and "error:" in err


ARGPARSE_ERRORS = {
    "missing-value": (["analyze", "--model", SU3, "--p"], "argument --p: expected one argument"),
    # "-inf" is not a number to argparse's pattern, so it reads as an option
    "kappa-minus-inf": (["certify", "--model", SU3, "--kappa", "-inf"],
                        "argument --kappa: expected one argument"),
    # the list of choices after it is spelled differently across Python versions
    "unknown-subcommand": (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    "unknown-option": (["spectrum", "--model", SU3, "--bogus"], "unrecognized arguments: --bogus"),
    # only the certificates read kappa
    "spectrum-kappa": (["spectrum", "--kappa", "5", "--model", '{"kind":"product_sphere","n":3}'],
                       "unrecognized arguments: --kappa 5"),
}


@pytest.mark.parametrize("argv, message", ARGPARSE_ERRORS.values(), ids=ARGPARSE_ERRORS)
def test_argparse_errors_one_line(capsys, argv, message):
    # argparse's own errors take the same one-line form as input errors,
    # with no usage block
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1 and err.endswith("\n")


def test_help_and_version_unchanged(capsys):
    code, out, err = run_cli(capsys, ["analyze", "-h"])
    assert (code, err) == (0, "") and out.startswith("usage: curvkind analyze")
    assert run_cli(capsys, ["--version"]) == (0, f"{cli.__version__}\n", "")


@pytest.mark.parametrize("argv", [
    ["analyze", "--model", SU3],
    ["analyze", "--model", SU3, "--table"],
    ["spectrum", "--model", SU3],
])
def test_closed_stdout_exit_1_without_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    try:
        done = subprocess.run([sys.executable, "-m", "curvkind.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


def test_reports_refuse_non_finite_numbers(capsys, monkeypatch):
    # a NaN that reached a report would print as NaN, which is not JSON, and
    # the table would state it as a result
    monkeypatch.setattr(cli, "_certificate_dicts", lambda certs: [{"sums": float("nan")}])
    for fmt in ("--json", "--table"):
        code, out, err = run_cli(capsys, ["certify", "--model", SU3, fmt])
        assert code == 2 and out == ""
        assert err == "error: input out of range: the report has a non-finite value\n"


def json_values():
    """JSON values for json.dumps: scalars (the awkward floats, integers past
    2^64, strings with quotes, backslashes, control and non-ASCII
    characters, and a few values JSON cannot hold) nested in lists and in
    dicts with str keys, empty ones included."""
    floats = st.floats() | st.sampled_from(
        [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.5, float("nan"), float("inf"), -float("inf")])
    text = st.text() | st.text(alphabet='"\\\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600ab', max_size=8)
    integers = st.integers() | st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))
    unsupported = st.sampled_from([1j, b"bytes", frozenset(), object()])
    scalars = st.none() | st.booleans() | integers | floats | text
    return st.recursive(
        scalars | unsupported | st.lists(floats, max_size=6),
        lambda children: st.lists(children, max_size=5)
        | st.dictionaries(text, children, max_size=5),
        max_leaves=25,
    )


def dumps_outcome(write, value):
    """write(value), or the type of the exception it raised."""
    try:
        return write(value)
    except (ValueError, TypeError) as exc:
        return type(exc)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(json_values())
def test_report_writer_matches_json_dumps(value):
    # the report writer prints json.dumps' bytes, or raises its exception
    expected = dumps_outcome(
        lambda v: json.dumps(v, sort_keys=True, indent=2, allow_nan=False), value)
    assert dumps_outcome(cli._report_json, value) == expected


class Text(str):
    pass


@pytest.mark.parametrize("value", [
    (1.0, 2),
    {1: "one"},
    np.float64(1.5),
    np.int64(2),
    Text("text"),
], ids=["tuple", "int-key", "float64", "int64", "str-subclass"])
def test_report_writer_refuses_what_json_loads_cannot_return(value):
    # a report holds JSON values only; anything else, nested or not, is a
    # builder's mistake, not something to encode as json.dumps would
    for report in (value, {"report": [value]}):
        with pytest.raises(TypeError):
            cli._report_json(report)


def test_report_writer_is_not_recursive(capsys):
    # a spec echoed from --model can nest as deep as json.loads reads it in a
    # fresh process, deeper than a writer with one Python frame per level
    # could write
    depth = 980
    extra = {}
    for _ in range(depth - 2):
        extra = {"x": extra}
    spec = '{"kind": "su3_so3", "extra": ' + '{"x": ' * (depth - 2) + "{}" + "}" * (depth - 2) + "}"
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "curvkind.cli", "certify", "--model", spec],
                          capture_output=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, b"")
    # the report of su3_so3 echoing that spec, as json.dumps writes it given
    # the stack it needs
    code, out, _ = run_cli(capsys, ["certify", "--model", SU3])
    assert code == 0
    report = json.loads(out)
    report["input"] = {"extra": extra, "kind": "su3_so3"}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2 * depth)
    try:
        expected = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    finally:
        sys.setrecursionlimit(limit)
    assert done.stdout.decode() == expected


OVERFLOWING = {
    "constant": ["certify", "--model", '{"kind":"constant_curvature","n":5,"kappa":1e308}'],
    "perturbed": ["certify", "--model", '{"kind":"perturbed","base":{"kind":"constant_curvature",'
                  '"n":5,"kappa":1},"kappa":1e308}'],
    "kn_product": ["certify", "--model", '{"kind":"kn_product","h":[[1e200,0],[0,1e200]],'
                   '"k":[[1e200,0],[0,1e200]]}'],
    "analyze-table": ["analyze", "--table", "--model",
                      '{"kind":"constant_curvature","n":5,"kappa":1e308}'],
    "analyze-nan": ["analyze", "--model", '{"kind":"constant_curvature","n":5,"kappa":1e307}'],
    "spectrum": ["spectrum", "--model", '{"kind":"constant_curvature","n":5,"kappa":1e308}'],
    "kappa": ["certify", "--model", SU3, "--kappa", "-1e308"],
}


@pytest.mark.parametrize("argv", OVERFLOWING.values(), ids=OVERFLOWING)
def test_overflowing_input_exit_2(capsys, argv):
    # finite input whose evaluation overflows; a numpy RuntimeWarning would
    # fail the test (filterwarnings = error)
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: input out of range: ") and err.count("\n") == 1


@pytest.mark.parametrize("scale", [1e-300, 1e-100, 1e-13, 1e154, 1e200, 1e250, 1e305])
def test_large_finite_tensor_scales_through(tmp_path, capsys, scale):
    # the Einstein defect's squares would overflow from about 1e154 on, and
    # every tolerance must shrink with the input: the reports scale with it
    R = random_curvature(5, np.random.default_rng(15))
    commands = (["spectrum", "--operator", "ric_l", "--ric-l-p", "2"], ["certify"], ["analyze"])
    reports = {}
    for factor in (1.0, scale):
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps({"n": 5, "components": (R.components * factor).ravel().tolist()}))
        for command, *rest in commands:
            code, out, err = run_cli(capsys, [command, "--dense", str(path), *rest])
            assert (code, err) == (0, "")
            reports[command, factor] = json.loads(out)

    def close(unit, scaled):
        unit = np.asarray(unit)
        assert np.abs(np.asarray(scaled) - scale * unit).max() <= 1e-14 * scale * np.abs(unit).max()

    close(reports["spectrum", 1.0]["eigenvalues"], reports["spectrum", scale]["eigenvalues"])
    unit, scaled = reports["analyze", 1.0], reports["analyze", scale]
    close(unit["second_kind"]["eigenvalues"], scaled["second_kind"]["eigenvalues"])
    close(unit["summary"]["einstein_defect"], scaled["summary"]["einstein_defect"])
    close([r["ric_l_min_eigenvalue"] for r in unit["per_p"]],
          [r["ric_l_min_eigenvalue"] for r in scaled["per_p"]])
    for command in ("certify", "analyze"):
        verdicts = [[c["verdict"] for c in reports[command, f]["certificates"]] for f in (1.0, scale)]
        assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("factor", [1.0, 2.0**-30, 2.0**60])
def test_ricci_flat_ric_l_spectrum_is_one_cluster(tmp_path, capsys, n, factor):
    # Ric_L on 1-forms is Ric, roundoff around 0 for a Ricci-flat R; its
    # clusters read R's unit scale, not the spectrum's own radius, so they
    # stay one of multiplicity n
    R = make_ricci_flat(random_curvature(n, np.random.default_rng(n))) * factor
    path = tmp_path / "weyl.json"
    path.write_text(json.dumps({"kind": "dense", "n": n, "components": R.components.ravel().tolist()}))
    argv = ["spectrum", "--dense", str(path), "--operator", "ric_l", "--ric-l-p", "1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert max(abs(v) for v in payload["eigenvalues"]) <= 1e-14 * factor
    assert [m for _, m in payload["clusters"]] == [n]


@pytest.mark.parametrize("n", [4, 6, 8])
def test_rotated_ricci_flat_is_analyzed(tmp_path, capsys, n):
    # a Ricci-flat R in another frame passes validation and is analyzed as
    # in its own: no block of Ric_L is gated again
    rng = np.random.default_rng(50 + n)
    R = make_ricci_flat(random_curvature(n, rng))
    commands = (["analyze", "--p", "all"], ["spectrum", "--operator", "ric_l", "--ric-l-p", "1"])
    reports = []
    for frame in (R, rotate_curvature(R, random_rotation(n, rng))):
        path = tmp_path / "weyl.json"
        path.write_text(json.dumps({"n": n, "components": frame.components.ravel().tolist()}))
        for command, *rest in commands:
            code, out, err = run_cli(capsys, [command, "--dense", str(path), *rest])
            assert (code, err) == (0, ""), (command, err)
            reports.append(json.loads(out))
    own, own_ric_l, rotated, rotated_ric_l = reports
    verdicts = [[(c["theorem"], c.get("p"), c["verdict"]) for c in r["certificates"]]
                for r in (own, rotated)]
    assert verdicts[0] == verdicts[1]
    assert own["k_profile"] == rotated["k_profile"]
    assert len(own_ric_l["clusters"]) == len(rotated_ric_l["clusters"]) == 1


@st.composite
def scaled_inputs(draw):
    """A tensor with n <= 8, a binary exponent e in [-1000, 1000], a kappa,
    a Ric_L degree p >= 2 (degree 1 is always reported) and the largest |e|
    at which every report float scales exactly.  Tensors are seeded random
    ones, their Einstein projection, their Ricci-flat projection (n >= 4:
    Ric, so Ric_L on 1-forms, is roundoff around 0), the product sphere and
    the product sphere perturbed by constant curvature.

    Floats scale exactly while LAPACK's eigensolvers leave them unscaled,
    which holds for |e| <= 400 at unit scale.  A Ricci-flat R's Ricci
    eigenvalues are roundoff, 1e-17 to 1e-16 times |R|, and the tridiagonal
    solver rescales a block below about 1e-122, which they reach from
    about e = -350 on (seen at e = -352); there the bound is 300."""
    n = draw(st.integers(3, 8))
    kinds = ("random", "einstein", "ricci_flat", "product_sphere", "perturbed")
    kind = draw(st.sampled_from(kinds if n >= 4 else kinds[:2] + kinds[3:]))
    if kind in ("random", "einstein", "ricci_flat"):
        R = random_curvature(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
        if kind != "random":
            R = (make_einstein if kind == "einstein" else make_ricci_flat)(R)
    else:
        R = product_sphere(n)
        if kind == "perturbed":
            R = perturb_constant(R, draw(st.sampled_from((-0.3, -0.04, 0.5))))
    kappa = draw(st.sampled_from((None, 0.0, -0.7, -3.0)))
    exact = 300 if kind == "ricci_flat" else 400
    return R, draw(st.integers(-1000, 1000)), kappa, draw(st.integers(2, n - 1)), exact


# report floats that do not scale with R
UNITLESS = {"order", "order_upper", "c_p"}


def _assert_scaled(unit, scaled, factor, exact, key=None):
    """scaled has unit's structure, ints, strings and unitless floats; with
    exact, every other float is factor times its unit value, bit for bit."""
    assert type(scaled) is type(unit), key
    if isinstance(unit, dict):
        assert scaled.keys() == unit.keys()
        for k in unit:
            _assert_scaled(unit[k], scaled[k], factor, exact, k)
    elif isinstance(unit, list):
        assert len(scaled) == len(unit), key
        for u, s in zip(unit, scaled):
            _assert_scaled(u, s, factor, exact, key)
    elif not isinstance(unit, float) or key in UNITLESS:
        assert scaled == unit, key
    elif exact:
        assert scaled == unit * factor, key


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(scaled_inputs())
def test_reports_scale_with_binary_powers(case):
    # 2^e R has every verdict, certificate, k_profile and multiplicity of R;
    # inside |e| <= exact nothing under- or overflows, so every float of the
    # report is 2^e times that of R
    R, e, kappa, p, exact = case
    factor = 2.0**e

    def reports(f):
        spec = json.dumps({"kind": "dense", "n": R.n, "components": (R.components * f).ravel().tolist()})
        k = [] if kappa is None else ["--kappa", repr(kappa * f)]
        out = []
        for argv in (
            ["analyze", "--p", "all", *k],
            ["certify", *k],
            ["spectrum", "--operator", "first"],
            ["spectrum", "--operator", "ric_l", "--ric-l-p", "1"],
            ["spectrum", "--operator", "ric_l", "--ric-l-p", str(p)],
        ):
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                assert main([*argv, "--model", spec]) == 0
            out.append(json.loads(text.getvalue()))
        return out

    _assert_scaled(reports(1.0), reports(factor), factor, abs(e) <= exact)


# (argv, terminal width) per call
REUSE_SEQUENCE = [
    (["analyze", "--model", SU3, "--p", "all", "--table"], 100),
    (["analyze", "--model", SU3], 100),
    (["certify", "--model", SU3, "--kappa", "-0.5"], 100),
    (["certify", "--model", SU3], 100),
    (["spectrum", "--model", SU3, "--operator", "first"], 100),
    (["spectrum", "--model", SU3], 100),
    (["analyze", "-h"], 100),
    (["analyze", "-h"], 40),
    (["analyze", "--model", SU3, "--p"], 100),
    (["analyze", "--model", SU3, "--p", "x"], 100),
    (["--version"], 100),
    (["certify", "--model", SU3], 100),
]


def test_parser_built_once_and_reused(capsys, monkeypatch):
    def run_sequence():
        results = []
        for argv, columns in REUSE_SEQUENCE:
            monkeypatch.setenv("COLUMNS", str(columns))
            results.append(run_cli(capsys, argv))
        return results

    with monkeypatch.context() as fresh_parsers:
        fresh_parsers.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = run_sequence()
    cli.build_parser.cache_clear()
    reused = run_sequence()
    built = cli.build_parser.cache_info()
    assert (built.misses, built.hits) == (1, len(REUSE_SEQUENCE) - 1)
    # no option, default or subcommand of one call leaks into the next
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0] * 8 + [2, 2, 0, 0]
    assert reused[-1] == reused[3]
    # help is laid out at the width read when it is printed
    wide, narrow = reused[6][1], reused[7][1]
    assert wide.startswith("usage: curvkind analyze") and narrow.startswith("usage:")
    assert wide != narrow


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "constant_curvature", "n": 5},
        {"kind": "product_sphere", "n": 5},
        {"kind": "su3_so3"},
        {"kind": "kn_product", "h": np.eye(5).tolist(), "k": np.eye(5).tolist()},
        {"kind": "dense", "n": 5, "components": [0.0] * 5**4},
        {"kind": "perturbed", "base": {"kind": "constant_curvature", "n": 5}, "kappa": 1.0},
    ],
    ids=lambda spec: spec["kind"],
)
def test_dimension_cap_checked_before_building(capsys, monkeypatch, spec):
    def refuse(*args, **kwargs):
        raise AssertionError("a tensor was built above the cap")

    for name in ("constant_curvature", "product_sphere", "su3_so3", "kulkarni_nomizu"):
        monkeypatch.setattr(model_spaces, name, refuse)
    monkeypatch.setattr(model_spaces, "CurvatureTensor", refuse)
    monkeypatch.setenv("CURVKIND_NMAX", "4")
    code, out, err = run_cli(capsys, ["certify", "--model", json.dumps(spec)])
    assert code == 2 and out == ""
    assert err == (
        "error: cannot build curvature tensor: "
        "n=5 exceeds the soft cap 4 (set CURVKIND_NMAX to raise it)\n"
    )


def count_calls(monkeypatch, functions):
    """Count calls of each (module, name), patched in every curvkind module
    that imported the function."""
    counts = Counter()
    package = [m for key, m in sys.modules.items() if key.split(".")[0] == "curvkind"]
    for owner, name in functions:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in package:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_analysis_built_once_per_command(tmp_path, capsys, monkeypatch):
    R = random_curvature(8, np.random.default_rng(31))
    path = tmp_path / "r8.json"
    path.write_text(json.dumps({"n": 8, "components": R.components.ravel().tolist()}))
    functions = [
        (operators, "ricci_scalar"),
        (operators, "first_kind_matrix"),
        (operators, "second_kind_matrix"),
        (weights, "certify"),
        (operators, "validate_curvature"),
    ]
    # R is validated once, and no matrix derived from it is gated again
    counts = count_calls(monkeypatch, [*functions, (operators, "spectrum")])
    code, _, _ = run_cli(capsys, ["analyze", "--dense", str(path), "--p", "all"])
    assert code == 0
    assert counts == Counter({name: 1 for _, name in functions})
    counts.clear()
    code, _, _ = run_cli(capsys, ["spectrum", "--dense", str(path), "--operator", "first"])
    assert code == 0
    assert counts == Counter({"first_kind_matrix": 1, "validate_curvature": 1})


def test_certify_kappa(capsys):
    code, out, _ = run_cli(
        capsys,
        ["certify", "--model", '{"kind":"product_sphere","n":5}', "--kappa", "-1"],
    )
    assert code == 0
    payload = json.loads(out)
    d = next(c for c in payload["certificates"] if c["theorem"] == "D-hypothesis")
    assert d["verdict"] == "holds"


def test_certify_su3_table(capsys):
    code, out, _ = run_cli(capsys, ["certify", "--model", '{"kind":"su3_so3"}', "--table"])
    assert code == 0
    assert "positive from k = 9" in out
    assert "B(a)" in out and "fails" in out


def test_spectrum_operators(capsys):
    for operator, expected_dim in [("second", 14), ("first", 10)]:
        code, out, _ = run_cli(
            capsys,
            ["spectrum", "--model", '{"kind":"su3_so3"}', "--operator", operator],
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["eigenvalues"]) == expected_dim
    code, out, _ = run_cli(
        capsys,
        [
            "spectrum",
            "--model",
            '{"kind":"constant_curvature","n":5,"kappa":1}',
            "--operator",
            "ric_l",
            "--ric-l-p",
            "2",
        ],
    )
    payload = json.loads(out)
    assert payload["clusters"] == [[6.0, 10]]
    # a diagonal Ric_L is summed in closed form, in the middle degree too
    code, out, _ = run_cli(
        capsys,
        [
            "spectrum",
            "--model",
            '{"kind":"constant_curvature","n":4,"kappa":1}',
            "--operator",
            "ric_l",
            "--ric-l-p",
            "2",
        ],
    )
    payload = json.loads(out)
    assert [m for _, m in payload["clusters"]] == [6]
    assert payload["clusters"][0][0] == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("n", range(3, 13))
def test_ric_l_spectrum_of_p_and_n_minus_p_print_the_same_bytes(tmp_path, capsys, n):
    # degrees p and n-p are one Hodge class, solved once, so the two
    # commands print the same stdout on a random dense tensor
    R = random_curvature(n, np.random.default_rng(100 + n))
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"n": n, "components": R.components.ravel().tolist()}))
    for p in range(1, n // 2 + 1):
        printed = set()
        for degree in (p, n - p):
            code, out, _ = run_cli(capsys, ["spectrum", "--dense", str(path), "--operator",
                                            "ric_l", "--ric-l-p", str(degree)])
            assert code == 0
            printed.add(out)
        assert len(printed) == 1, (n, p)


DIAGONAL_12 = [
    '{"kind":"product_sphere","n":12}',
    '{"kind":"perturbed","base":{"kind":"constant_curvature","n":12,"kappa":1.3},"kappa":-0.4}',
]


@pytest.mark.parametrize("spec", DIAGONAL_12, ids=["product_sphere", "perturbed"])
def test_ric_l_diagonal_path_matches_assembled(capsys, spec):
    # Ric and F are diagonal on these inputs, so ric_l_spectrum never
    # assembles Ric_L; the CLI must still report the spectra of the
    # assembled matrices, within the benchmark's 1e-9 * (1 + radius)
    a = Analysis(curvature_from_spec(json.loads(spec)))
    full = {p: np.linalg.eigvalsh(ric_l_matrix(a, p)) for p in range(1, 12)}

    def tol(p):
        return 1e-9 * (1 + np.abs(full[p]).max())

    code, out, _ = run_cli(capsys, ["spectrum", "--model", spec, "--operator", "ric_l",
                                    "--ric-l-p", "6"])
    assert code == 0
    payload = json.loads(out)
    assert np.abs(np.array(payload["eigenvalues"]) - full[6]).max() <= tol(6)
    want = cluster_eigenvalues(full[6], a.summary.scale)
    assert [m for _, m in payload["clusters"]] == [m for _, m in want]
    assert np.abs(np.array([v for v, _ in payload["clusters"]])
                  - [v for v, _ in want]).max() <= tol(6)
    code, out, _ = run_cli(capsys, ["analyze", "--model", spec, "--p", "all"])
    assert code == 0
    rows = json.loads(out)["per_p"]
    assert [row["p"] for row in rows] == list(range(1, 12))
    for row in rows:
        p = row["p"]
        assert abs(row["ric_l_min_eigenvalue"] - full[p][0]) <= tol(p), p


def test_per_p_table_bounds_present(capsys):
    code, out, _ = run_cli(
        capsys, ["analyze", "--model", '{"kind":"constant_curvature","n":6,"kappa":1}']
    )
    report = json.loads(out)
    rows = {row["p"]: row for row in report["per_p"]}
    assert set(rows) == {1, 2, 3}
    assert rows[2]["ric_l_min_eigenvalue"] == pytest.approx(8.0)
    assert rows[2]["bounds"]["einstein"] == pytest.approx(8.0)
    assert "one_form" in rows[1]["bounds"]
    # numbers in the report are reproducible by re-running the operations
    assert rows[1]["c_p"] == pytest.approx(json.loads(out)["per_p"][0]["c_p"])


def test_analyze_p_all(capsys):
    code, out, _ = run_cli(
        capsys,
        ["analyze", "--model", '{"kind":"constant_curvature","n":4,"kappa":1}', "--p", "all"],
    )
    report = json.loads(out)
    assert [row["p"] for row in report["per_p"]] == [1, 2, 3]
    assert "bounds" not in report["per_p"][2]  # p > n/2 carries no variant bounds
    low = [row["ric_l_min_eigenvalue"] for row in report["per_p"]]
    assert low[2] == low[0]  # Hodge dual degrees share one solve


def test_analyze_p_equal_n(capsys):
    code, out, _ = run_cli(
        capsys,
        ["analyze", "--model", '{"kind":"constant_curvature","n":4,"kappa":1}', "--p", "4"],
    )
    assert code == 0
    assert json.loads(out)["per_p"] == [{"p": 4, "ric_l_min_eigenvalue": 0.0}]


def test_analyze_p_out_of_range_exit_2(capsys):
    for p in ("9", "0", "5"):
        code, _, err = run_cli(
            capsys,
            ["analyze", "--model", '{"kind":"constant_curvature","n":4,"kappa":1}', "--p", p],
        )
        assert code == 2
        assert f"got p={p}" in err


def test_selftest_quick(capsys):
    code, out, _ = run_cli(capsys, ["selftest", "--seeds", "4", "--n-max", "4"])
    assert code == 0
    assert "all checks passed" in out


@pytest.mark.parametrize("flag", [["--seeds", "0"], ["--n-max", "3"]], ids=["seeds", "n-max"])
def test_selftest_too_small_exit_2(capsys, flag):
    code, out, err = run_cli(capsys, ["selftest", *flag])
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"got {flag[1]}" in err


@pytest.mark.parametrize("nmax, n_max, cap", [(None, 13, 12), ("5", 6, 5)], ids=["default", "env"])
def test_selftest_above_the_cap_exit_2(capsys, monkeypatch, nmax, n_max, cap):
    if nmax is None:
        monkeypatch.delenv("CURVKIND_NMAX", raising=False)
    else:
        monkeypatch.setenv("CURVKIND_NMAX", nmax)

    def refuse(**kwargs):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(selftest, "run_selftest", refuse)
    code, out, err = run_cli(capsys, ["selftest", "--n-max", str(n_max)])
    assert code == 2 and out == ""
    assert err == (
        f"error: --n-max {n_max} exceeds the soft cap {cap} (set CURVKIND_NMAX to raise it)\n"
    )


def test_selftest_negative_seed_exit_2(capsys):
    code, out, err = run_cli(capsys, ["selftest", "--seed", "-1"])
    assert code == 2 and out == ""
    assert err == "error: --seed must be non-negative, got -1\n"


def test_selftest_failure_path(capsys, monkeypatch):
    checks = (("passes", lambda *_: iter([0.0]), 1e-10), ("exceeds", lambda *_: iter([1e-3]), 1e-10))
    monkeypatch.setattr(selftest, "CHECKS", checks)
    code, out, _ = run_cli(capsys, ["selftest"])
    lines = out.splitlines()
    assert code == 1
    assert lines[0].startswith("ok   passes:")
    assert lines[1] == "FAIL exceeds: worst 1.000e-03 (tol 1.0e-10)"
    assert lines[-1] == "selftest: 1 FAILURES"


def test_selftest_check_without_cases_fails(capsys, monkeypatch):
    checks = (("empty", lambda *_: iter(()), 1.0), ("nan", lambda *_: iter([0.0, np.nan]), 1.0))
    monkeypatch.setattr(selftest, "CHECKS", checks)
    code, out, _ = run_cli(capsys, ["selftest"])
    assert code == 1
    assert out.splitlines() == [
        "FAIL empty: no case evaluated (tol 1.0e+00)",
        "FAIL nan: worst nan (tol 1.0e+00)",
        "selftest: 2 FAILURES",
    ]
