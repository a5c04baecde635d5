"""CLI behaviour: envelope shape, exit codes, formats, and golden-file bytes."""

import ast
import contextlib
import importlib
import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import periodkit
import periodkit.cli
import periodkit.curve_counts
import periodkit.finite_field
from periodkit import CountResult, CyclotomicNumber
from periodkit.cli import _json, _quote, _read, main, render_json
from golden_corpus import CORPUS
from regen_golden import HELP_FILE, help_pages
from test_padic import cp_cocycle

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


def readme_cli_lines():
    """The argv of each `periodkit ...` line in the code block under README's `## CLI`."""
    section = (pathlib.Path(__file__).parent.parent / "README.md").read_text().split("\n## CLI\n")[1]
    block = section.split("\n## ")[0].split("```sh\n")[1].split("```")[0]
    return [shlex.split(line.split("#")[0])[1:] for line in block.splitlines() if line.startswith("periodkit ")]


def without_default_format(argv):
    """argv less an explicit --format that names its command's default."""
    flag = ["--format", periodkit.cli.COMMANDS[argv[0]].flags[-1].default]
    return next((argv[:i] + argv[i + 2 :] for i in range(len(argv)) if argv[i : i + 2] == flag), argv)


README_CLI = readme_cli_lines()
GOLDEN_OF_ARGV = {" ".join(without_default_format(argv)): name for name, argv in CORPUS}


def test_readme_cli_block_lists_every_subcommand():
    assert sorted({argv[0] for argv in README_CLI}) == sorted(periodkit.cli.COMMANDS)
    assert len([argv for argv in README_CLI if " ".join(without_default_format(argv)) in GOLDEN_OF_ARGV]) == 9


@pytest.mark.parametrize("argv", README_CLI, ids=[" ".join(argv) for argv in README_CLI])
def test_readme_cli_line_runs_and_matches_its_golden(argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    name = GOLDEN_OF_ARGV.get(" ".join(without_default_format(argv)))
    if name is not None:
        assert out == (GOLDEN_DIR / name).read_text()


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


def test_json_int_lists_take_the_flat_path_and_bools_stay_json():
    assert _json([]) == "[]"
    assert _json((-1, 0, 10**20)) == "[-1, 0, 100000000000000000000]"
    assert _json([True, 1, False]) == "[true, 1, false]"
    assert _json([1, 2.5, None, [3, -4]]) == "[1, 2.5, null, [3, -4]]"


# The character classes of json.dumps's ASCII escaping: the two-character
# escapes, the other controls, printable ASCII, DEL, the rest of the BMP, lone
# surrogates and astral characters (a surrogate pair each).
ESCAPE_CLASSES = st.one_of(
    st.sampled_from('"\\\b\f\n\r\t\x7f'),
    st.characters(max_codepoint=0x1F),
    st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    st.characters(min_codepoint=0x80, max_codepoint=0xFFFF),
    st.characters(categories=["Cs"]),
    st.characters(min_codepoint=0x10000),
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.text(alphabet=ESCAPE_CLASSES, max_size=12))
def test_quote_matches_json_dumps(text):
    assert _quote(text) == json.dumps(text)


def test_quote_matches_json_dumps_on_every_code_point():
    for start in range(0, 0x110000, 0x10000):
        text = "".join(map(chr, range(start, start + 0x10000)))
        assert _quote(text) == json.dumps(text), hex(start)


def json_emit_oracle(obj) -> str:
    """The reference for the CLI's one-pass JSON writer: a recursive writer that
    makes one call per row and per value, each value through an isinstance chain."""
    keys: dict[str, str] = {}

    def emit(obj) -> str:
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        if isinstance(obj, float):
            if not math.isfinite(obj):
                return "null"
            return format(obj, ".15g")
        if isinstance(obj, int):
            return str(obj)
        if isinstance(obj, str):
            return json.dumps(obj)
        if isinstance(obj, (list, tuple)):
            if all(type(v) is int for v in obj):
                return "[" + ", ".join(map(str, obj)) + "]"
            return "[" + ", ".join(map(emit, obj)) + "]"
        if isinstance(obj, dict):
            parts = []
            for k, v in obj.items():
                name = str(k)
                quoted = keys.get(name) or keys.setdefault(name, json.dumps(name))
                parts.append(f"{quoted}: {emit(v)}")
            return "{" + ", ".join(parts) + "}"
        raise TypeError(f"cannot serialize {type(obj)!r}")

    return emit(obj)


# Strings with quotes, backslashes and non-ASCII text; floats with NaN and the
# infinities; int lists with a bool inside.
TEXT = st.text(alphabet=st.sampled_from('ab"\\ \n\té€𝔽'), max_size=6) | st.text(max_size=4)
FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
INT_LISTS = st.lists(st.integers(-(10**20), 10**20), max_size=6)
INTS_WITH_BOOL = st.tuples(INT_LISTS, st.booleans(), st.integers(0, 6)).map(
    lambda t: t[0][: t[2]] + [t[1]] + t[0][t[2]:]
)
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | TEXT
VALUES = st.recursive(
    SCALARS | INT_LISTS | INTS_WITH_BOOL,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4)
    | st.lists(st.fixed_dictionaries({"k": inner, "J": INT_LISTS}), max_size=3),  # one shared key tuple
    max_leaves=10,
)
# A column holds one kind of value, as a column of the table does; a "rows"
# column is a nested list of dict rows, as correspond's are.
KINDS = {
    "int": st.integers(),
    "bool": st.booleans(),
    "ints": INT_LISTS.map(tuple),
    "any": VALUES,
    "rows": st.lists(st.tuples(VALUES, INT_LISTS).map(lambda t: {"k": t[0], "J": t[1]}), max_size=3),
}


@st.composite
def envelopes(draw):
    columns = draw(st.lists(st.tuples(TEXT, st.sampled_from(sorted(KINDS))), max_size=5, unique_by=lambda c: c[0]))
    rows = [{key: draw(KINDS[kind]) for key, kind in columns} for _ in range(draw(st.integers(0, 4)))]
    return draw(TEXT), draw(st.dictionaries(TEXT, VALUES, max_size=4)), rows


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(envelopes())
def test_one_pass_json_matches_the_recursive_oracle(envelope):
    command, params, rows = envelope
    expected = {"command": command, "params": params, "rows": rows, "errors": [], "version": periodkit.__version__}
    assert render_json(command, params, rows) == json_emit_oracle(expected) + "\n"
    for value in (params, rows, *params.values()):
        assert _json(value) == json_emit_oracle(value)


def tables(rows):
    """rows, and every list of dict rows nested in their values."""
    yield rows
    for row in rows:
        for value in row.values():
            if isinstance(value, list) and value and all(type(v) is dict for v in value):
                yield from tables(value)


@pytest.mark.parametrize("name,argv", CORPUS, ids=[name for name, _ in CORPUS])
def test_every_table_has_one_key_sequence(name, argv):
    # CSV and Markdown take their header from the first row, so every row of a
    # table, a nested one too, carries the same keys in the same order.
    args = _read(argv)
    command = periodkit.cli.COMMANDS[args.command]
    rows = command.run(importlib.import_module(f"periodkit.{command.module}"), args)
    assert rows, name
    for table in tables(rows):
        assert all(list(row) == list(table[0]) for row in table), name


def test_help_text_is_pinned():
    # --help of the top level and of every subcommand, byte for byte, at 80 columns.
    assert help_pages() == HELP_FILE.read_text()


# The two settings no flag names that once decided the CLI's bytes: the
# terminal width, read by argparse from COLUMNS, and CPython's int-to-str
# digit limit (0 lifts it; 640 is the least it takes).
KNOBS = {"default": {}, "COLUMNS=40": {"columns": "40"}, "COLUMNS=200": {"columns": "200"},
         "digits=0": {"digits": 0}, "digits=640": {"digits": 640}}


@contextlib.contextmanager
def knob(columns=None, digits=None):
    """COLUMNS and the int-to-str digit limit set for the block, both restored afterwards."""
    env, limit = os.environ.get("COLUMNS"), sys.get_int_max_str_digits()
    try:
        if columns is not None:
            os.environ["COLUMNS"] = columns
        if digits is not None:
            sys.set_int_max_str_digits(digits)
        yield
    finally:
        sys.set_int_max_str_digits(limit)
        if env is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = env


ARGV_ALONE = [
    *(argv for _, argv in CORPUS),
    ["--help"],
    *([name, "--help"] for name in periodkit.cli.COMMANDS),
    ["jacobi", "--p", "7", "--k1", "1"],  # a usage error: --k2 is missing
    ["count", "--p", "7", "--curve", "1," + "9" * 5000],  # past the digit limit
    ["delta", "--p", "5", "--precision", "6", "--x", "1" + "0" * 4999],
    ["periods", "--curve", "1/3," + "9" * 3000],  # a curve whose repr is 3000 digits long
    ["periods", "--curve=-1,1e-5000"],  # a denominator past the digit limit
]


@pytest.mark.parametrize("argv", ARGV_ALONE, ids=[" ".join(argv)[:60] for argv in ARGV_ALONE])
def test_argv_alone_decides_the_output(argv):
    # The same stdout, stderr and exit code under every setting of the two
    # knobs, and the caller's digit limit given back after each call.
    got, caller = {}, sys.get_int_max_str_digits()
    for name, settings in KNOBS.items():
        with knob(**settings):
            got[name] = run_cli(argv)
            assert sys.get_int_max_str_digits() == settings.get("digits", caller)
    assert all(result == got["default"] for result in got.values()), [n for n, r in got.items() if r != got["default"]]


def test_count_over_f_p2_counts_once(monkeypatch):
    # N_{p^2} is read off the trace of the one count over F_p.
    calls = []
    count_points = periodkit.curve_counts.count_points
    counted = lambda curve: calls.append(curve) or count_points(curve)  # noqa: E731
    monkeypatch.setattr(periodkit.curve_counts, "count_points", counted)
    code, out, err = run_cli(["count", "--p", "11", "--curve", "4,1", "--n", "2"])
    assert code == 0, err
    assert len(calls) == 1
    assert out == (GOLDEN_DIR / "03_count.json").read_text()


@pytest.mark.parametrize("k1,k2", [(1, 3), (0, 3)], ids=["trivial-product", "trivial-character"])
def test_jacobi_residual_is_null_where_the_ratio_identity_fails(k1, k2):
    # At p = 5 the characters have order 4: k1 + k2 = 4 makes cc' trivial.
    code, out, err = run_cli(["jacobi", "--p", "5", "--k1", str(k1), "--k2", str(k2)])
    assert code == 0, err
    assert json.loads(out)["rows"][0]["residual"] is None
    assert '"residual": null' in out


def test_jacobi_computes_its_sum_once(monkeypatch):
    # The relation check takes the row's Jacobi sum instead of computing it again.
    calls = []
    jacobi_sum = periodkit.characters.jacobi_sum
    counted = lambda c, c2: calls.append((c.k, c2.k)) or jacobi_sum(c, c2)  # noqa: E731
    monkeypatch.setattr(periodkit.characters, "jacobi_sum", counted)
    code, _, err = run_cli(["jacobi", "--p", "13", "--k1", "1", "--k2", "2"])
    assert code == 0, err
    assert calls == [(1, 2)]


def test_jacobi_answers_in_a_ring_of_four_odd_primes():
    # p - 1 = 38038 = 2 * 7 * 11 * 13 * 19: the full-order sum and its norm
    # take the finish over 16 binomials each way, and the row's norm is p.
    code, out, err = run_cli(["jacobi", "--p", "38039", "--k1", "1", "--k2", "1"])
    assert code == 0, err
    row = json.loads(out)["rows"][0]
    assert row["norm"] == 38039 and len(row["coeffs"]) == 12960


def test_a_memory_error_ends_in_one_line_and_exit_1(monkeypatch):
    # A host short of memory can fail an accepted call that no rule on argv
    # refuses; the call ends as a domain error does, never in a traceback.
    def exhausted(*args):
        raise MemoryError("no room for the walk")

    monkeypatch.setattr("periodkit.characters.gauss_sum", exhausted)
    code, out, err = run_cli(["gauss", "--p", "13", "--k1", "1"])
    assert (code, out) == (1, "")
    assert err == "error: MemoryError: no room for the walk\n" and "Traceback" not in err


# The most runs of the prime rule per corpus command: one per value that enters
# from argv (a character, a curve, a p-adic x), two where two enter (jacobi's
# characters, delta's x and y), and one each for the two orderings that check p
# ahead of the character (quartic_character, then p = 1 mod 4; the report, then
# its desk scale).  A result carries its operand's checked p, so no other run.
PRIME_RULE_RUNS = {"gauss": 1, "count": 1, "zeta": 1, "delta": 1, "jacobi": 2, "apjacobi": 2, "correspond": 2}


@pytest.mark.parametrize("name,argv", CORPUS, ids=[name for name, _ in CORPUS])
def test_the_prime_rule_runs_once_per_value_that_enters(monkeypatch, name, argv):
    calls = []
    is_prime = periodkit.finite_field.is_prime
    monkeypatch.setattr(periodkit.finite_field, "is_prime", lambda n: calls.append(n) or is_prime(n))
    code, _, err = run_cli(argv)
    assert code == 0, err
    most = 2 if "--y" in argv else PRIME_RULE_RUNS.get(argv[0], 0)
    assert len(calls) <= most, calls


@pytest.mark.parametrize(
    "argv,params",
    [
        (["count", "--p", "11", "--curve", "4,1"], {"p": 11, "curve": "4,1", "n": 1}),
        (["catalog"], {"n": 2}),
        (["poles", "--t", "2.5"], {"t": 2.5, "n": 5}),
        (["correspond", "--p", "5"], {"p": 5, "grid": ""}),
        (["delta", "--p", "5", "--precision", "6", "--x", "7"], {"p": 5, "precision": 6, "x": 7}),
        (["veneziano", "--s", "-1e-5", "--t", "2.5"], {"s": -1e-5, "t": 2.5}),
    ],
)
def test_params_echo_defaults_and_omit_unset_flags(argv, params):
    code, out, err = run_cli([*argv, "--format", "json"])
    assert code == 0, err
    assert json.loads(out)["params"] == params


def test_corpus_covers_every_subcommand():
    # params come from the argv reader, so the goldens pin them for every command.
    assert {argv[0] for _, argv in CORPUS} == set(periodkit.cli.COMMANDS)


def test_json_field_types_stable_across_runs():
    argv = ["zeta", "--p", "13", "--curve", "-1,0", "--format", "json"]
    _, first, _ = run_cli(argv)
    _, second, _ = run_cli(argv)
    rows1 = json.loads(first)["rows"]
    rows2 = json.loads(second)["rows"]
    assert [{k: type(v) for k, v in r.items()} for r in rows1] == [
        {k: type(v) for k, v in r.items()} for r in rows2
    ]


def assert_quadrature_row_matches_agm(curve):
    code, out, err = run_cli(["periods", f"--curve={curve}", "--format", "json"])
    assert code == 0, err
    agm, quad = json.loads(out)["rows"]
    assert (agm["method"], quad["method"]) == ("agm", "quadrature")
    for key in ("omega1_re", "omega2_im"):
        assert abs(quad[key] / agm[key] - 1) < 1e-12, key


def test_periods_of_a_tiny_scaled_curve():
    # Gauss's integral is about 1.3e3 here; the stop is relative to it.
    assert_quadrature_row_matches_agm("-1/1000000000000,0")


def test_periods_with_the_lower_roots_close():
    # e2 - e3 = 1e-6: the omega2 integrand has a peak (1e-6/3)^(1/4) wide.
    assert_quadrature_row_matches_agm("-3000003000001/1000000000000,-2000003000001/1000000000000")


def test_periods_of_a_curve_near_the_double_underflow():
    # a is near the bottom of the normal double range; the root gaps, about
    # 1e-150, are far from it.
    code, out, err = run_cli(["periods", "--curve", "-1e-300,0", "--format", "json"])
    assert code == 0, err
    for row in json.loads(out)["rows"]:
        assert row["omega1_re"] == row["omega2_im"] == 5.24411510858424e75, row["method"]


def test_periods_of_a_large_curve():
    # Gauss's integral is about 1e-10 and 4e-8 here.  Its stop is relative,
    # so one level no longer passes it under an absolute floor of 1e-12.
    for curve, omega in (("-1e40,0", 5.24411510858424e-10), ("-1e30,0", 1.65833480552274e-07)):
        code, out, err = run_cli(["periods", "--curve", curve, "--format", "json"])
        assert code == 0, err
        for row in json.loads(out)["rows"]:
            assert row["omega1_re"] == row["omega2_im"] == omega, (curve, row["method"])


def test_tau_near_a_double_root():
    # e2 - e3 = 1e-8: as a difference of double-precision roots this gap came
    # out 1.3e-15, and tau_im 12.13.
    curve = "-300000003000000001/100000000000000000,-200000003000000001/100000000000000000"
    code, out, err = run_cli(["tau", f"--curve={curve}", "--format", "json"])
    assert code == 0, err
    assert abs(json.loads(out)["rows"][0]["tau_im"] - 7.095726346758567) <= 1e-12


def test_periodmap_near_the_nodal_member():
    code, out, err = run_cli(["periodmap", "--grid", "1/1000000,1/1000000000", "--format", "json"])
    assert code == 0, err
    rows = {row["t"]: row["tau_im"] for row in json.loads(out)["rows"]}
    assert abs(rows["1/1000000"] - 5.280155834732165) <= 1e-12
    assert abs(rows["1/1000000000"] - 7.478962790366301) <= 1e-12


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


def test_count_over_f_p2_at_the_table_budget():
    # N_{p^2} follows from a_p, so --n 2 takes the same primes as --n 1.
    p = 1999993
    code, out, err = run_cli(["count", "--p", str(p), "--curve", "4,1", "--n", "2", "--format", "json"])
    assert code == 0, err
    row = json.loads(out)["rows"][0]
    ap = row["ap"]
    assert row["Np"] == p + 1 - ap
    assert row["Np2"] == p * p + 1 - (ap * ap - 2 * p)


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
    code, _, err = run_cli(["poles", "--t", "1e300", "--n", "12"])
    assert code == 1 and "FloatOverflow" in err


@pytest.mark.parametrize(
    "target,fake,argv",
    [
        ("curve_counts.count_points", lambda curve: CountResult(curve.p + 1 - 99, 99), ["zeta", "--p", "13", "--curve", "-1,0"]),
        ("characters.jacobi_sum", lambda c, c2: CyclotomicNumber(4, [2, 1]), ["apjacobi", "--p", "13"]),
    ],
    ids=["hasse-bound", "jacobi-norm"],
)
def test_failed_invariant_exits_one(monkeypatch, target, fake, argv):
    # A check of the library's own result raises InvariantFailed, a
    # PeriodkitError, so the argv ends in exit 1 and a message, not a traceback.
    monkeypatch.setattr(f"periodkit.{target}", fake)
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert err.startswith("error: InvariantFailed") and "Traceback" not in err


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


def test_correspond_at_the_desk_scale_cap():
    code, out, err = run_cli(["correspond", "--p", "97", "--grid", "2.5", "--format", "json"])
    assert code == 0, err
    local = json.loads(out)["rows"][0]["local"]
    assert len(local) == 95 * 94
    assert all(r["norm_ok"] for r in local)
    assert sum(r["norm_checked"] for r in local) == 91  # one per orbit of the units and the six orderings


def test_correspond_json_schema():
    code, out, _ = run_cli(["correspond", "--p", "5", "--grid", "2.0,1.0", "--format", "json"])
    assert code == 0
    record = json.loads(out)["rows"][0]
    assert set(record) == {"p", "ap", "local", "global", "dictionary"}
    assert all(set(r) == {"k1", "k2", "norm_ok", "norm_checked", "J"} for r in record["local"])
    assert all(set(r) == {"s", "t", "A", "at_pole", "n"} for r in record["global"])
    assert len(record["global"]) == 4
    pole_rows = [r for r in record["global"] if r["at_pole"]]
    assert pole_rows and all(r["A"] is None and r["n"] >= 0 for r in pole_rows)


@pytest.mark.parametrize("extra", [["--y", "7", "--rule", "sum"], ["--rule", "product"]])
def test_delta_has_no_rule_flag(extra):
    # --y prints both rule verdicts; no flag hides one of them.
    code, out, err = run_cli(["delta", "--p", "3", "--precision", "5", "--x", "4", *extra])
    assert (code, out) == (2, "")
    assert "--rule" in err


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

codes = [run(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
slow_stdlib = sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)
print(json.dumps({"codes": codes, "scipy_loaded": loaded, "integrate_after": "scipy.integrate" in sys.modules,
                  "slow_stdlib": slow_stdlib}))
"""


def test_no_argv_loads_scipy():
    # periods and catalog integrate; they must do it with the library's own rule.
    # Result records are plain tuple subclasses, so no call pays for importing
    # dataclasses and the inspect module it pulls in.
    argvs = [argv for _, argv in CORPUS]
    assert len(argvs) == 18
    proc = run_python("-c", IMPORT_BOUNDARY_CHILD, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 18
    assert result["scipy_loaded"] == []
    assert not result["integrate_after"]
    assert result["slow_stdlib"] == []


# The periodkit modules each command loads besides the package and periodkit.cli;
# "fractions" stands for the standard library module of that name.
_RING = {"_frozen", "errors", "finite_field", "characters", "cyclotomic"}
_COUNTS = _RING | {"curve_counts"}
_POINT_COUNTS = {"_frozen", "errors", "finite_field", "curve_counts"}  # no Jacobi sum, so no ring
_AMPLITUDES = {"_frozen", "errors", "amplitudes"}
_ANALYTIC = {"_frozen", "errors", "complex_periods", "fractions"}
MODULES_OF_COMMAND = {
    "gauss": _RING,
    "jacobi": _RING,
    "count": _POINT_COUNTS,
    "zeta": _POINT_COUNTS,
    "apjacobi": _COUNTS,
    "periods": _ANALYTIC,
    "tau": _ANALYTIC,
    "periodmap": _ANALYTIC,
    "catalog": _ANALYTIC,
    "veneziano": _AMPLITUDES,
    "beta": _AMPLITUDES,
    "poles": _AMPLITUDES,
    "correspond": _COUNTS | {"amplitudes"},
    "delta": {"_frozen", "errors", "finite_field", "padic"},
}

LOADED_MODULES_CHILD = """
import contextlib, io, sys
before = set(sys.modules)
from periodkit.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = [m.removeprefix("periodkit.") for m in sys.modules if m.startswith("periodkit.") or m == "fractions"]
unused = {"__future__", "typing", "json"} & (set(sys.modules) - before)
print(repr((code, sorted(loaded), sorted(unused))))
"""


def test_cold_gauss_loads_no_argparse_stack_and_no_json():
    # argparse, and the gettext, locale, re and enum it brings, were the largest
    # stdlib cost of a cold call; argv is read from the command table instead.
    # -S keeps site, which may import re and enum itself, out of the process.
    proc = run_python("-S", "-X", "importtime", "-m", "periodkit", "gauss", "--p", "7", "--k1", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN_DIR / "01_gauss.json").read_text()
    loaded = {line.split("|")[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    # characters imports cyclotomic at its top, so the ring loads with the Gauss sum.
    assert {"periodkit.cli", "periodkit.cyclotomic"} <= loaded
    assert {"argparse", "gettext", "locale", "re", "enum", "json"} & loaded == set()


@pytest.mark.parametrize("name,argv", CORPUS, ids=[name for name, _ in CORPUS])
def test_command_loads_only_the_modules_it_runs(name, argv):
    # Nor __future__, typing or json: the child imports no json itself and
    # snapshots sys.modules before the call, so what site loaded does not
    # count, and -S keeps site out, as some site hooks import typing.
    proc = run_python("-S", "-c", LOADED_MODULES_CHILD, *argv)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == (0, sorted(MODULES_OF_COMMAND[argv[0]] | {"cli"}), [])


def test_package_import_loads_no_library_module():
    proc = run_python("-c", "import json, sys, periodkit; print(json.dumps(sorted(m for m in sys.modules if 'periodkit' in m)))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["periodkit"]


def test_public_names_resolve_to_their_home_objects():
    for name in periodkit.__all__:
        if name == "__version__":
            continue
        obj = getattr(periodkit, name)
        assert obj.__module__.startswith("periodkit.") and obj.__name__ == name, name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from periodkit import *", namespace)
    assert set(periodkit.__all__) <= set(namespace)


def test_unknown_public_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        periodkit.no_such_name
    with pytest.raises(ImportError):
        exec("from periodkit import no_such_name", {})


@pytest.mark.parametrize(
    "base,flag",
    [
        (["veneziano", "--t", "2.5"], "--s"),
        (["veneziano", "--s", "2.5"], "--t"),
        (["beta", "--t", "0.5"], "--s"),
        (["beta", "--s", "0.5"], "--t"),
        (["poles"], "--t"),
    ],
)
@pytest.mark.parametrize("value", ["-1e-5", "-2.5e0", "-inf"])
def test_negative_float_reads_the_same_with_or_without_equals(base, flag, value):
    # Every flag takes one value, so the token after a flag is its value, even
    # where it starts with "-".
    assert run_cli([*base, flag, value]) == run_cli([*base, f"{flag}={value}"])


def test_module_entry_point():
    proc = run_python("-X", "importtime", "-m", "periodkit", "gauss", "--p", "7", "--k1", "1", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN_DIR / "01_gauss.json").read_text()
    assert "import time:" in proc.stderr
    assert "scipy" not in proc.stderr
    proc = run_python("-m", "periodkit", "gauss", "--p", "4", "--k1", "1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: --p: "), proc.stderr


# argv that the reader refuses (exit 2, a usage line and the refusal on stderr)
# or answers with a help page (exit 0, on stdout), and how that output starts.
# Every command is read by the one reader, so a call reads as with every
# command's parser; argparse's unique prefixes such as --prec are refused.
GAUSS_USAGE = "usage: periodkit gauss --p P --k1 K1 [--format FORMAT]\n"
TOP_USAGE = "usage: periodkit COMMAND [--FLAG VALUE ...]\n"
MALFORMED_ARGV = [
    (["gauss", "--p", "7", "--k1", "1", "--bogus", "3"], 2, GAUSS_USAGE + "error: gauss: '--bogus' is not one of its flags\n"),
    (["gauss", "--p", "7"], 2, GAUSS_USAGE + "error: --k1: required\n"),
    (["gauss", "--p", "x", "--k1", "1"], 2, GAUSS_USAGE + "error: --p: need an int, got 'x'\n"),
    (["jacobi", "--p", "5", "--k1", "1", "--k2"], 2, "usage: periodkit jacobi --p P --k1 K1 --k2 K2 [--format FORMAT]\n"
                                                     "error: --k2: need a value\n"),
    (["correspond", "--p", "5", "--format", "csv"], 2, "usage: periodkit correspond --p P [--grid GRID] [--format FORMAT]\n"
                                                       "error: --format: need one of json, md, got 'csv'\n"),
    (["gaus", "--p", "7", "--k1", "1"], 2, TOP_USAGE + "error: periodkit: 'gaus' is not a command\n"),
    ([], 2, TOP_USAGE + "error: periodkit: need a command\n"),
    (["--format", "json", "gauss", "--p", "7", "--k1", "1"], 2, TOP_USAGE + "error: periodkit: '--format' is not a command\n"),
    (["-h"], 0, TOP_USAGE + "\nPeriods of elliptic curves"),
    (["--help", "gauss"], 0, TOP_USAGE + "\nPeriods of elliptic curves"),
    (["gauss", "-h"], 0, GAUSS_USAGE + "\nGauss sum of a multiplicative character\n"),
    (["gauss", "--p", "7", "--k1", "1", "extra"], 2, GAUSS_USAGE + "error: gauss: 'extra' is not one of its flags\n"),
    (["gauss", "--p", "7", "--k1", "1", "--help"], 0, GAUSS_USAGE),
    (["veneziano", "--s", "abc", "--t", "1"], 2, "usage: periodkit veneziano --s S --t T [--format FORMAT]\n"
                                                 "error: --s: need a real number, got 'abc'\n"),
    (["delta", "--p", "5", "--prec", "6", "--x", "7"], 2, "usage: periodkit delta --p P --precision PRECISION --x X [--y Y] "
                                                          "[--format FORMAT]\nerror: delta: '--prec' is not one of its flags\n"),
]


@pytest.mark.parametrize("argv,code,start", MALFORMED_ARGV, ids=[" ".join(a) or "(none)" for a, _, _ in MALFORMED_ARGV])
def test_malformed_argv_reads_as_with_the_full_parser(argv, code, start):
    got, out, err = run_cli(argv)
    if code == 2:
        assert (got, out) == (2, "") and err.startswith(start), err
    else:
        assert (got, err) == (0, "") and out.startswith(start), out


# A 5000-character token in each place argv may hold one: the reader quotes
# it through errors.shown, as the library does, so no refusal echoes it in full.
LONG_TOKENS = {"digits": "1" + "0" * 4999, "letters": "x" * 5000}
LONG_TOKEN_PLACES = {
    "command": lambda t: [t],
    "unknown-flag": lambda t: ["gauss", "--p", "7", "--k1", "1", "--" + t[2:]],
    "extra-token": lambda t: ["gauss", "--p", "7", "--k1", "1", t],
    "int": lambda t: ["delta", "--p", "5", "--precision", "6", "--x", t],
    "float": lambda t: ["veneziano", "--s", t, "--t", "2.5"],
    "residues": lambda t: ["count", "--p", "7", "--curve", t],
    "rationals": lambda t: ["periods", f"--curve={t}"],
    "format": lambda t: ["gauss", "--p", "7", "--k1", "1", "--format", t],
}


@pytest.mark.parametrize("token", LONG_TOKENS)
@pytest.mark.parametrize("place", LONG_TOKEN_PLACES)
def test_a_long_token_is_refused_in_a_short_message(place, token):
    argv = LONG_TOKEN_PLACES[place](LONG_TOKENS[token])
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "") and err.startswith(("usage: ", "error: --")), err[:300]
    assert len(err) < 200, err[:300]


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
    (["poles", "--t", "-2", "--n", "3"], 2, "--t"),  # a pole of Gamma(beta); --t 2 answers
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
    (["beta", "--s", "-200.5", "--t", "1"], 1, "FloatOverflow"),  # Gamma underflows to 0
    (["beta", "--s", "1e308", "--t", "1"], 1, "FloatOverflow"),
    (["periods", "--curve", "-1e400,0"], 1, "FloatOverflow"),
    (["periods", "--curve", "-1e-310,0"], 1, "FloatOverflow"),  # a subnormal a
    (["tau", "--curve", "1e400,0"], 1, "FloatOverflow"),
    (["periodmap", "--grid", "1e400"], 1, "FloatOverflow"),
    (["count", "--p", "2147483659", "--curve", "1,1", "--n", "2"], 2, "--p"),  # prime above 2**31
    (["jacobi", "--p", "2000003", "--k1", "1", "--k2", "1"], 2, "--p"),  # over the p-entry table budget
    (["catalog", "--n", "22"], 2, "--n"),  # more than twenty logarithms
    (["periods", "--curve=-1,1e-5000"], 2, "--curve"),  # a denominator of 5001 digits
    (["tau", "--curve=-1,1e-5000"], 2, "--curve"),
    (["periodmap", "--grid", "1e4300"], 2, "--grid"),  # 4301 digits; 1e4299 is refused later, by FloatOverflow
    (["periodmap", "--grid", "1e4299"], 1, "FloatOverflow"),
]


@pytest.mark.parametrize(
    "value",
    ["-1,1e-5000", "-1,1e-10000000", "-1,1e+00001", "1," + "1" * 4301, "1,1/" + "7" * 4301],
    ids=["1e-5000", "1e-10000000", "1e+00001", "4301-digit-numerator", "4301-digit-denominator"],
)
def test_rational_flag_values_are_bounded(value):
    # Fraction computes 10**exponent before it refuses anything: 1e-10000000
    # once took seconds, so an exponent of 5 or more digits is refused first.
    # A value of more than 4300 digits above or below the bar is refused after
    # parsing, which str() could not print under the default digit limit.
    start = time.perf_counter()
    code, out, err = run_cli(["periods", f"--curve={value}"])
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "") and err.startswith("error: --curve: need 2 comma-separated rationals of at most 4300 digits"), err
    assert len(err) < 200


@pytest.mark.parametrize(
    "value,code",
    [("9" * 4300, 1), ("1/" + "7" * 4300, 1), ("-" + "9" * 4300 + "/" + "7" * 4300, 0)],
    ids=["4300-digit-numerator", "4300-digit-denominator", "4300-digits-both"],
)
def test_rational_flag_values_of_4300_digits_pass_the_parse(value, code):
    # The counterpart of the 4301-digit refusal: 4300 digits above and below
    # the bar pass the parse.  t near 9e4299 or 1.3e-4300 is then refused by
    # the library, and t near -1.29 is answered.
    got, out, err = run_cli(["periodmap", f"--grid={value}"])
    assert got == code, err
    assert err.startswith("error: FloatOverflow") if code else json.loads(out)["rows"], err


@pytest.mark.parametrize("argv,code,named", ARGV_TABLE, ids=[" ".join(a) for a, _, _ in ARGV_TABLE])
def test_invalid_argv_table(argv, code, named):
    got, out, err = run_cli(argv)
    assert (got, out) == (code, "")
    assert err.startswith(f"error: {named}: "), err


@pytest.mark.parametrize("p", [2000003, 2000029, 2147483629])
@pytest.mark.parametrize("command", [["gauss", "--k1", "1"], ["jacobi", "--k1", "1", "--k2", "1"], ["apjacobi"]],
                         ids=["gauss", "jacobi", "apjacobi"])
def test_a_prime_over_the_table_is_refused_before_any_work(command, p, monkeypatch):
    # The kernels over F_p take p from a character, which refuses a prime over
    # MAX_TABLE_PRIME where it is built: no table, no ring modulus and no
    # primitive root.  The quartic character of apjacobi refuses p = 3 mod 4 first.
    characters, cyclotomic = (importlib.import_module(f"periodkit.{name}") for name in ("characters", "cyclotomic"))
    searched = []
    for module in (characters, periodkit.finite_field):
        monkeypatch.setattr(module, "_smallest_primitive_root", searched.append)
    misses = characters._dlog_table.cache_info().misses, cyclotomic._modulus.cache_info().misses
    got, out, err = run_cli([command[0], "--p", str(p), *command[1:]])
    if command[0] == "apjacobi" and p % 4 == 3:
        assert (got, out, err) == (1, "", f"error: BadCongruence: p = {p} is 3 mod 4; need p = 1 mod 4\n")
    else:
        assert (got, out, err) == (2, "", f"error: --p: the kernels over F_p need p <= 2000000, got {p}\n")
    assert (characters._dlog_table.cache_info().misses, cyclotomic._modulus.cache_info().misses) == misses
    assert searched == []


@pytest.mark.parametrize("argv", [["count", "--n", "2"], ["zeta"]], ids=["count", "zeta"])
def test_count_and_zeta_take_every_prime_below_2_31(argv):
    # A point count builds no table, so the F_p budgets of `characters` do not bound it.
    p = 2**31 - 1
    code, out, err = run_cli([argv[0], "--p", str(p), "--curve", "4,1", *argv[1:]])
    assert code == 0, err
    row = json.loads(out)["rows"][0]
    assert row["ap"] == -9728
    if argv[0] == "count":
        assert (row["Np"], row["Np2"]) == (p + 1 + 9728, p * p + 1 - (9728**2 - 2 * p))
    else:
        assert (row["alpha_re"], row["beta_re"]) == (-4864, -4864)


@pytest.mark.parametrize("tol", ["inf", "0.5"])
def test_veneziano_has_no_tolerance_flag(tol):
    # A wide snap once tagged alpha = -0.3 as the pole alpha = 0.
    code, out, _ = run_cli(["veneziano", "--s", "0.7", "--t", "3.7", "--tol", tol])
    assert (code, out) == (2, "")


def test_veneziano_off_pole_is_finite():
    code, out, err = run_cli(["veneziano", "--s", "0.7", "--t", "3.7"])
    assert code == 0, err
    env = json.loads(out)
    assert env["params"] == {"s": 0.7, "t": 3.7}
    row = env["rows"][0]
    assert not row["at_pole"] and row["pole_index"] is None
    assert abs(row["value"] + 5.38060747874305) < 1e-12


def test_veneziano_large_pole_index():
    # alpha = -200, beta = 1: the cancelled pole leaves -199!/200! = -1/200,
    # a ratio whose factorials do not fit a double.
    code, out, err = run_cli(["veneziano", "--s", "-199", "--t", "2"])
    assert code == 0, err
    row = json.loads(out)["rows"][0]
    assert not row["at_pole"] and abs(row["value"] + 1 / 200) < 1e-15


# Values drawn by the argv property test: each flag takes a plausible value
# three times in four, else a hostile token.  Accepted primes stay at or below
# 97 (13 for correspond) so no call builds a large table; the hostile tokens
# include no prime in [10^4, 2^31), for the same reason.  A point count builds
# no table, so `count` and `zeta` also draw primes near 10^9 and 2^31.  The
# kernels over F_p also draw primes above MAX_TABLE_PRIME, which they must
# refuse from the arguments alone: 2000003 and 2^31 - 1 (3 mod 4), and for
# `apjacobi`, whose quartic character refuses p = 3 mod 4 first, 2000029 and
# 2^31 - 19 (1 mod 4).  A token of 4301 digits is past CPython's default
# int-to-str limit.
HOSTILE = ["nan", "inf", "-inf", "1e308", "1e400", "0", "-7", "4", "3215031751", "2147483659", "1/0", "abc", "9" * 4301]


def values(*plausible, hostile=HOSTILE):
    return st.sampled_from([plausible] * 3 + [hostile]).flatmap(st.sampled_from)


PRIME = values("2", "3", "5", "7", "11", "13", "29", "97")
OVER_TABLE = {"2000003", "2147483647", "2000029", "2147483629"}
TABLE_PRIME = values("2", "3", "5", "7", "11", "13", "29", "97", *sorted(OVER_TABLE))
COUNT_PRIME = values("2", "3", "5", "7", "11", "13", "29", "97", "1000000007", "2147483647")
INT = values("0", "1", "2", "5", "12")
FLOAT = values("2.5", "-0.5", "1", "2", "0.5", "3.7", "1e-13", "-200", "-200.5", "171.5")
MALFORMED = ["1", "1,2,3", ",", "", "1/0,1", "a,b", "1e400,0", "-1e400,0", "-1e-400,0", "nan,0", "2.5,nan", "1e308,2",
             "-1,1e-5000", "-1,1e-10000000"]
CURVE = values("-1,0", "-4,1", "4,1", "5,3", "0,0", "0,1", "-1/3,2/27", hostile=HOSTILE + MALFORMED)
GRID = values("", "1/4,1/2", "3/4", "2.0,1.0", "0", "1", "-0.5,3.7", hostile=HOSTILE + MALFORMED)

ARG_POOLS = {
    "gauss": {"--p": TABLE_PRIME, "--k1": INT},
    "jacobi": {"--p": TABLE_PRIME, "--k1": INT, "--k2": INT},
    "count": {"--p": COUNT_PRIME, "--curve": CURVE, "--n": values("1", "2", "3")},
    "zeta": {"--p": COUNT_PRIME, "--curve": CURVE},
    "apjacobi": {"--p": TABLE_PRIME},
    "periods": {"--curve": CURVE},
    "tau": {"--curve": CURVE},
    "periodmap": {"--grid": GRID},
    "catalog": {"--n": values("1", "2", "5", "30")},
    "veneziano": {"--s": FLOAT, "--t": FLOAT},
    "beta": {"--s": FLOAT, "--t": FLOAT},
    "poles": {"--t": FLOAT, "--n": values("0", "3", "12", "13")},
    "correspond": {"--p": values("2", "3", "5", "7", "13"), "--grid": GRID},
    "delta": {
        "--p": PRIME,
        "--precision": values("1", "2", "5", "64", "65"),
        "--x": INT,
        "--y": INT,
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
    p = next((a.removeprefix("--p=") for a in argv if a.startswith("--p=")), None)
    p = argv[argv.index("--p") + 1] if "--p" in argv else p
    if p in OVER_TABLE and not err.startswith("usage:"):  # the reader took every flag
        if argv[0] == "apjacobi" and int(p) % 4 == 3:
            assert code == 1 and err.startswith("error: BadCongruence: "), err
        else:
            assert code == 2 and err.startswith("error: --p: "), err
