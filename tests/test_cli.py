"""CLI behaviour: envelope shape, exit codes, formats, and golden-file bytes."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import periodkit
from periodkit.cli import main
from periodkit.padic import cp_cocycle
from golden_corpus import CORPUS

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name,argv", CORPUS, ids=[name for name, _ in CORPUS])
def test_golden_byte_equality(name, argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    expected = (GOLDEN_DIR / name).read_text()
    assert out == expected, f"output drifted for {argv}"


@pytest.mark.parametrize("name,argv", CORPUS, ids=[name for name, _ in CORPUS])
def test_repeated_runs_are_byte_identical(name, argv):
    _, first, _ = run_cli(argv)
    _, second, _ = run_cli(argv)
    assert first == second


def test_json_envelope_roundtrip():
    code, out, _ = run_cli(["jacobi", "--p", "5", "--k1", "1", "--k2", "1", "--format", "json"])
    assert code == 0
    env = json.loads(out)
    assert env["command"] == "jacobi"
    assert env["version"] == "0.1.0"
    assert env["errors"] == []
    row = env["rows"][0]
    assert row["coeffs"] == [-1, -2]
    assert row["norm"] == 5
    assert isinstance(row["residual"], float)


def test_json_field_types_stable_across_runs():
    argv = ["zeta", "--p", "13", "--curve", "-1,0", "--format", "json"]
    _, first, _ = run_cli(argv)
    _, second, _ = run_cli(argv)
    rows1 = json.loads(first)["rows"]
    rows2 = json.loads(second)["rows"]
    assert [{k: type(v) for k, v in r.items()} for r in rows1] == [
        {k: type(v) for k, v in r.items()} for r in rows2
    ]


def test_tau_spec_example():
    code, out, _ = run_cli(["tau", "--curve", "-1,0", "--format", "json"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert abs(row["tau_re"]) < 1e-9
    assert abs(row["tau_im"] - 1.0) < 1e-9
    assert row["matrix"] == [[1, 0], [0, 1]]


def test_count_matches_library():
    code, out, _ = run_cli(["count", "--p", "5", "--curve", "-1,0", "--format", "json"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["Np"] == 8 and row["ap"] == -2


def test_usage_error_names_flag():
    code, out, err = run_cli(["count", "--p", "4", "--curve", "1,1"])
    assert code == 2
    assert "--p" in err and "4" in err
    assert out == ""


def test_usage_error_bad_curve_format():
    code, _, err = run_cli(["count", "--p", "5", "--curve", "1"])
    assert code == 2 and "--curve" in err


def test_usage_error_unknown_flag():
    code, _, _ = run_cli(["gauss", "--p", "7", "--k1", "1", "--bogus", "3"])
    assert code == 2


def test_domain_errors_exit_one():
    code, _, err = run_cli(["apjacobi", "--p", "7"])
    assert code == 1 and "BadCongruence" in err
    code, _, err = run_cli(["count", "--p", "5", "--curve", "0,0"])
    assert code == 1 and "SingularCurve" in err
    code, _, err = run_cli(["periods", "--curve", "0,1"])
    assert code == 1 and "ComplexRoots" in err


def test_correspond_rejects_csv():
    code, _, err = run_cli(["correspond", "--p", "5", "--format", "csv"])
    assert code == 2 and "--format" in err


def test_csv_has_header():
    code, out, _ = run_cli(["periodmap", "--grid", "1/4,1/2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,tau_re,tau_im,matrix"
    assert len(lines) == 3
    assert lines[1].startswith("1/4,")


def test_markdown_table_shape():
    code, out, _ = run_cli(["gauss", "--p", "7", "--k1", "1", "--format", "md"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# periodkit gauss"
    assert any(line.startswith("| p | k1 |") for line in lines)


def test_correspond_json_schema():
    code, out, _ = run_cli(["correspond", "--p", "5", "--grid", "2.0,1.0", "--format", "json"])
    assert code == 0
    record = json.loads(out)["rows"][0]
    assert set(record) == {"p", "ap", "local", "global", "dictionary"}
    assert all(set(r) == {"k1", "k2", "norm_ok", "J"} for r in record["local"])
    assert all(set(r) == {"s", "t", "A", "at_pole", "n"} for r in record["global"])
    assert len(record["global"]) == 4
    pole_rows = [r for r in record["global"] if r["at_pole"]]
    assert pole_rows and all(r["A"] is None and r["n"] >= 0 for r in pole_rows)


def test_delta_rule_filter():
    code, out, _ = run_cli(
        ["delta", "--p", "3", "--precision", "5", "--x", "4", "--y", "7", "--rule", "sum"]
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["checks"] == {"sum": True}
    code, out, _ = run_cli(["delta", "--p", "3", "--precision", "5", "--x", "4", "--y", "7"])
    row = json.loads(out)["rows"][0]
    assert row["checks"] == {"sum": True, "product": True}


def test_delta_cocycle_is_printed_mod_p_to_the_n_minus_1():
    # The exact cocycle at p = 10007 has about 10^4 digits, beyond what
    # str(int) prints; the residue mod p^(N-1) is what the sum rule uses.
    code, out, err = run_cli(["delta", "--p", "10007", "--precision", "8", "--x", "5", "--y", "7"])
    assert code == 0 and "Traceback" not in err, err
    row = json.loads(out)["rows"][0]
    assert 0 <= row["cocycle"] < 10007**7
    assert row["cocycle"] == cp_cocycle(10007, 5, 7) % 10007**7
    assert row["checks"] == {"sum": True, "product": True}


def test_delta_insufficient_precision_is_domain_error():
    code, _, err = run_cli(["delta", "--p", "5", "--precision", "1", "--x", "2"])
    assert code == 1 and "InsufficientPrecision" in err


def test_numbers_printed_with_fifteen_significant_digits():
    _, out, _ = run_cli(["catalog", "--n", "2", "--format", "json"])
    rows = json.loads(out)["rows"]
    pi_text = [r for r in rows if r["name"] == "pi"][0]
    assert f'{pi_text["value"]:.15g}' in out
    assert "3.14159265358979" in out


def test_every_golden_json_reparses():
    for name, _ in CORPUS:
        if not name.endswith(".json"):
            continue
        env = json.loads((GOLDEN_DIR / name).read_text())
        assert set(env) == {"command", "params", "rows", "errors", "version"}, name
        assert env["errors"] == []


def test_missing_required_flag_is_usage_error():
    code, _, err = run_cli(["gauss", "--p", "7"])
    assert code == 2 and "--k1" in err


def run_python(*args):
    """A fresh interpreter that imports this periodkit, from a checkout or installed."""
    env = dict(os.environ)
    root = str(pathlib.Path(periodkit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


IMPORT_BOUNDARY_CHILD = """
import contextlib, io, json, sys
from periodkit.cli import main

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)

local, quadrature = json.loads(sys.argv[1])
codes = [run(argv) for argv in local]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
codes.append(run(quadrature))
print(json.dumps({"codes": codes, "scipy_after_local": loaded, "integrate_after": "scipy.integrate" in sys.modules}))
"""


def test_scipy_loads_only_when_a_quadrature_runs():
    quadrature = {"periods", "catalog"}
    local = [argv for _, argv in CORPUS if argv[0] not in quadrature]
    periods = next(argv for _, argv in CORPUS if argv[0] == "periods")
    assert len(local) == 16
    proc = run_python("-c", IMPORT_BOUNDARY_CHILD, json.dumps([local, periods]))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 17
    assert result["scipy_after_local"] == []
    assert result["integrate_after"]


def test_module_entry_point():
    proc = run_python("-X", "importtime", "-m", "periodkit", "gauss", "--p", "7", "--k1", "1", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN_DIR / "01_gauss.json").read_text()
    assert "import time:" in proc.stderr
    assert "scipy" not in proc.stderr
    proc = run_python("-m", "periodkit", "gauss", "--p", "4", "--k1", "1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: --p: "), proc.stderr


def test_help_exits_zero():
    code, _, _ = run_cli(["--help"])
    assert code == 0
    code, _, _ = run_cli(["tau", "--help"])
    assert code == 0


# argv, exit code, and what stderr names after "error: ": the flag for an
# invalid argument (2), the error class for a domain error (1).
ARGV_TABLE = [
    (["gauss", "--p", "3215031751", "--k1", "1"], 2, "--p"),  # strong pseudoprime to 2, 3, 5, 7
    (["gauss", "--p", "2147483659", "--k1", "1"], 2, "--p"),  # prime above 2**31
    (["delta", "--p", "3215031751", "--precision", "2", "--x", "3"], 2, "--p"),
    (["count", "--p", "0", "--curve", "1,1"], 2, "--p"),
    (["count", "--p", "7", "--curve", "1,1", "--n", "3"], 2, "--n"),
    (["catalog", "--n", "1"], 2, "--n"),
    (["poles", "--t", "2", "--n", "3"], 2, "--t"),
    (["poles", "--t", "2.5", "--n", "13"], 2, "--n"),
    (["poles", "--t", "nan"], 2, "--t"),
    (["poles", "--t", "inf"], 2, "--t"),
    (["correspond", "--p", "101"], 2, "--p"),
    (["delta", "--p", "5", "--precision", "65", "--x", "1"], 2, "--precision"),
    (["veneziano", "--s", "nan", "--t", "1"], 2, "--s"),
    (["veneziano", "--s", "inf", "--t", "1"], 2, "--s"),
    (["beta", "--s", "nan", "--t", "1"], 2, "--s"),
    (["beta", "--s", "inf", "--t", "1"], 2, "--s"),
    (["correspond", "--p", "5", "--grid", "nan"], 2, "--grid"),
    (["correspond", "--p", "5", "--grid", "1e400"], 2, "--grid"),
    (["beta", "--s", "200", "--t", "200"], 1, "FloatOverflow"),
    (["beta", "--s", "1e308", "--t", "1"], 1, "FloatOverflow"),
    (["periods", "--curve", "-1e400,0"], 1, "FloatOverflow"),
    (["periods", "--curve", "-1e-300,0"], 1, "FloatOverflow"),
    (["tau", "--curve", "1e400,0"], 1, "FloatOverflow"),
    (["periodmap", "--grid", "1e400"], 1, "FloatOverflow"),
    (["count", "--p", "10007", "--curve", "1,1", "--n", "2"], 2, "--p"),  # over the p^2 budget
]


@pytest.mark.parametrize("argv,code,named", ARGV_TABLE, ids=[" ".join(a) for a, _, _ in ARGV_TABLE])
def test_invalid_argv_table(argv, code, named):
    got, out, err = run_cli(argv)
    assert (got, out) == (code, "")
    assert err.startswith(f"error: {named}: "), err


def test_veneziano_large_pole_index():
    # alpha = -200, beta = 1: the cancelled pole leaves -199!/200! = -1/200,
    # a ratio whose factorials do not fit a double.
    code, out, err = run_cli(["veneziano", "--s", "-199", "--t", "2"])
    assert code == 0, err
    row = json.loads(out)["rows"][0]
    assert not row["at_pole"] and abs(row["value"] + 1 / 200) < 1e-15


# Values drawn by the argv property test: each flag takes a plausible value
# three times in four, else a hostile token.  Primes stay at or below 97 (13 for
# correspond) so no call builds a large table; the hostile tokens include no
# prime in [10^4, 2^31), for the same reason.
HOSTILE = ["nan", "inf", "-inf", "1e308", "1e400", "0", "-7", "4", "3215031751", "2147483659", "1/0", "abc"]


def values(*plausible, hostile=HOSTILE):
    return st.sampled_from([plausible] * 3 + [hostile]).flatmap(st.sampled_from)


PRIME = values("2", "3", "5", "7", "11", "13", "29", "97")
INT = values("0", "1", "2", "5", "12")
FLOAT = values("2.5", "-0.5", "1", "2", "0.5", "3.7", "1e-13", "-200")
MALFORMED = ["1", "1,2,3", ",", "", "1/0,1", "a,b", "1e400,0", "-1e400,0", "-1e-400,0", "nan,0", "2.5,nan", "1e308,2"]
CURVE = values("-1,0", "-4,1", "4,1", "5,3", "0,0", "0,1", "-1/3,2/27", hostile=HOSTILE + MALFORMED)
GRID = values("", "1/4,1/2", "3/4", "2.0,1.0", "0", "1", "-0.5,3.7", hostile=HOSTILE + MALFORMED)

ARG_POOLS = {
    "gauss": {"--p": PRIME, "--k1": INT},
    "jacobi": {"--p": PRIME, "--k1": INT, "--k2": INT},
    "count": {"--p": PRIME, "--curve": CURVE, "--n": values("1", "2", "3")},
    "zeta": {"--p": PRIME, "--curve": CURVE},
    "apjacobi": {"--p": PRIME},
    "periods": {"--curve": CURVE},
    "tau": {"--curve": CURVE},
    "periodmap": {"--grid": GRID},
    "catalog": {"--n": values("1", "2", "5", "30")},
    "veneziano": {"--s": FLOAT, "--t": FLOAT, "--tol": FLOAT},
    "beta": {"--s": FLOAT, "--t": FLOAT},
    "poles": {"--t": FLOAT, "--n": values("0", "3", "12", "13")},
    "correspond": {"--p": values("2", "3", "5", "7", "13"), "--grid": GRID},
    "delta": {
        "--p": PRIME,
        "--precision": values("1", "2", "5", "64", "65"),
        "--x": INT,
        "--y": INT,
        "--rule": values("sum", "product"),
    },
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(ARG_POOLS)))
    argv = [command]
    for flag, value in ARG_POOLS[command].items():
        if draw(st.integers(0, 9)) == 0:  # leave a flag out one time in ten
            continue
        v = draw(value)
        argv += [f"{flag}={v}"] if draw(st.booleans()) else [flag, v]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv", "md", "xml"]))]
    return argv


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_any_argv_exits_cleanly(argv):
    code, _, err = run_cli(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
