from collections import Counter
import json
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from curvkind import (
    Analysis,
    cluster_eigenvalues,
    constant_curvature,
    curvature_from_spec,
    random_curvature,
    ric_l_matrix,
)
from curvkind import cli, model_spaces, operators, selftest, weights
from curvkind.cli import main


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
    ]
    counts = count_calls(monkeypatch, functions)
    code, _, _ = run_cli(capsys, ["analyze", "--dense", str(path), "--p", "all"])
    assert code == 0
    assert counts == Counter({name: 1 for _, name in functions})
    counts.clear()
    code, _, _ = run_cli(capsys, ["spectrum", "--dense", str(path), "--operator", "first"])
    assert code == 0
    assert counts == Counter({"first_kind_matrix": 1})


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
    want = cluster_eigenvalues(full[6])
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
