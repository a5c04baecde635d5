"""Command-line front end: one subcommand per library operation, with a
versioned output envelope rendered as JSON (default), CSV, or Markdown.

Each subcommand is one entry of COMMANDS, and only that entry names it:
build_parser, the `params` echo, the map from a library argument back to its
flag and the renderers all read the table.  An entry holds its help text; the
library module it runs, imported only when it runs; its flags (type, default,
help, and the library argument each feeds, so an InvalidInput names the
flag); `run(module, args)`, which returns the row objects; and its row fields
as (key, getter) pairs, a getter being an attribute path of the row object or
a function of it.  An entry may also name fields that follow when a flag
leaves its default, its formats, and its own Markdown renderer.  To add a
subcommand, add one entry.

The envelope's `params` echo every flag but `--format` as parsed, with
defaults filled in and unset flags left out.  JSON is written in one pass,
with one formatter per row shape.  Exit codes: 0 success, 1 domain error
(singular curve, bad congruence, ...), 2 invalid argument, with the flag
named; argument rules live in the library.  All numeric output is printed
with 15 significant digits and identical argv always produces byte-identical
output.
"""

import argparse
import importlib
import io
import math
import sys
from operator import attrgetter
from types import SimpleNamespace

from . import __version__
from .errors import InvalidInput, PeriodkitError

# ---------------------------------------------------------------------------
# Output envelope and rendering


# _quote(s) is json.dumps(s) for a str: CPython's C encoder, the one json.dumps
# calls, so a call never loads json; json.encoder's on other interpreters.
try:
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import encode_basestring_ascii as _quote


def _seq(v) -> str:
    if set(map(type, v)) <= {int}:  # coefficient vectors; a bool is not an int here
        return repr(list(v))
    return "[" + ", ".join(map(_json, v)) + "]"


class _Written(str):
    """JSON text already written, such as a nested list of rows."""


_JSON = {
    _Written: str,
    type(None): lambda v: "null",
    bool: lambda v: "true" if v else "false",
    int: int.__repr__,
    float: lambda v: format(v, ".15g") if math.isfinite(v) else "null",
    str: _quote,
    list: _seq,
    tuple: _seq,
    dict: lambda v: "{" + ", ".join(f"{_quote(str(k))}: {_json(x)}" for k, x in v.items()) + "}",
}


def _json(v) -> str:
    """One JSON value; NaN and the infinities are written as null."""
    return _JSON[type(v)](v)


def _compile(fields) -> list:
    """(key, getter) pairs, an attribute path becoming its attrgetter."""
    return [(key, attrgetter(get) if isinstance(get, str) else get) for key, get in fields]


def _rows(fields):
    """The JSON writer of a list of rows with these fields: each key is quoted
    once, and each value goes through _json."""
    spec = [(_quote(key) + ": ", get) for key, get in _compile(fields)]
    return lambda rows: _Written(
        "[" + ", ".join(["{" + ", ".join([k + _json(g(r)) for k, g in spec]) + "}" for r in rows]) + "]"
    )


def _cell(v) -> str:
    """One CSV or Markdown cell; None and a non-finite float are empty, as JSON writes them as null."""
    if v is None:
        return ""
    if type(v) is float:
        return format(v, ".15g") if math.isfinite(v) else ""
    return _json(v) if type(v) in (list, tuple, dict) else str(v)


def _columns(fields, rows) -> tuple[list, list]:
    """The header and the value rows of a flat table."""
    fields = _compile(fields)
    return [key for key, _ in fields], [[get(row) for _, get in fields] for row in rows]


def _md_table(header, rows) -> list:
    rule = "| " + " | ".join("---" for _ in header) + " |"
    return ["| " + " | ".join(header) + " |", rule, *("| " + " | ".join(map(_cell, row)) + " |" for row in rows)]


def render_json(command: str, params: dict, rows: list, fields) -> str:
    return (
        f'{{"command": {_quote(command)}, "params": {_json(params)}, "rows": {_rows(fields)(rows)}, '
        f'"errors": [], "version": {_quote(__version__)}}}\n'
    )


def render_csv(command: str, params: dict, rows: list, fields) -> str:
    import csv

    out = io.StringIO()
    if rows:
        header, values = _columns(fields, rows)
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(_cell, row) for row in values)
    return out.getvalue()


def render_markdown(command: str, params: dict, rows: list, fields) -> str:
    lines = [f"# periodkit {command}", ""]
    if params:
        lines += ["params: " + ", ".join(f"{k}={_cell(v)}" for k, v in params.items()), ""]
    if rows:
        lines += _md_table(*_columns(fields, rows))
    lines.append("")
    return "\n".join(lines)


RENDERERS = {"json": render_json, "csv": render_csv, "md": render_markdown}


def _correspond_markdown(command: str, params: dict, rows: list, fields) -> str:
    (report,) = rows
    lines = [f"# periodkit correspond (p = {report.p})", "", "## Dictionary", ""]
    lines += _md_table(("global object", "local object"), report.dictionary)
    lines += ["", "## Local side: Jacobi sums with c, c', cc' nontrivial", ""]
    if report.a_p is not None:
        lines += [f"trace defect of y^2 = x^3 - x at p = {report.p}: a_p = {report.a_p}", ""]
    header = ("k1", "k2", "J coefficients", "norm equals p", "norm computed")
    lines += _md_table(header, [(r.k1, r.k2, r.coeffs, r.norm_ok, r.norm_checked) for r in report.local_rows])
    lines += ["", "## Global side: amplitude samples", ""]
    if report.global_rows:
        samples = [(r.s, r.t, r.value, r.at_pole, r.pole_index) for r in report.global_rows]
        lines += _md_table(("s", "t", "A", "at_pole", "n"), samples)
    else:
        lines.append("(empty grid: dictionary rows only)")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Flag values


def _parse_numbers(flag: str, text: str, kind, count=None) -> list:
    """Comma-separated values of one number type (int, float or rational);
    an empty string is an empty list, and count fixes the length."""
    parts = text.split(",") if text.strip() else []
    if count is not None and len(parts) != count:
        raise InvalidInput(flag, f"expected {count} comma-separated values, got {text!r}")
    try:
        return [kind(part) for part in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(flag, str(exc)) from exc


def _rational(text: str):
    from fractions import Fraction  # loaded only by the commands that take rationals

    return Fraction(text)


def _fp_curve(m, a):
    return m.WeierstrassCurveFp(a.p, *_parse_numbers("curve", a.curve, int, 2))


def _q_curve(m, a):
    return m.EllipticCurveQ(*_parse_numbers("curve", a.curve, _rational, 2))


# ---------------------------------------------------------------------------
# The command table

REQUIRED = object()


class Flag(SimpleNamespace):
    """One --<dest> flag: its type, its default (REQUIRED if it has none), its
    help, and the library argument it feeds where that is not named dest."""

    def __init__(self, dest: str, type=int, default=REQUIRED, help=None, feeds=None):
        super().__init__(dest=dest, type=type, default=default, help=help, feeds=feeds)


class Command(SimpleNamespace):
    """One subcommand; `extra` is (flag dest, fields that follow when that flag
    leaves its default), and `markdown` replaces the Markdown renderer."""

    def __init__(self, help, module, flags, run, fields, extra=None, formats=("json", "csv", "md"),
                 default_format="json", markdown=None):
        super().__init__(help=help, module=module, flags=flags, run=run, fields=fields, extra=extra,
                         formats=formats, default_format=default_format, markdown=markdown)


_P, _K1 = Flag("p"), Flag("k1")
_RATIONALS = Flag("curve", str, help="a,b as exact rationals")
_FP_CURVE = (("p", "curve.p"), ("a", "curve.a"), ("b", "curve.b"))
_AB = (("a", lambda r: str(r.curve.a)), ("b", lambda r: str(r.curve.b)))
_OMEGA = (("omega1_re", "lattice.omega1.real"), ("omega1_im", "lattice.omega1.imag"),
          ("omega2_re", "lattice.omega2.real"), ("omega2_im", "lattice.omega2.imag"))
_TAU = (("tau_re", "point.tau.real"), ("tau_im", "point.tau.imag"), ("matrix", "point.transform"))
_LOCAL = (("k1", "k1"), ("k2", "k2"), ("norm_ok", "norm_ok"), ("norm_checked", "norm_checked"), ("J", "coeffs"))
_GLOBAL = (("s", "s"), ("t", "t"), ("A", "value"), ("at_pole", "at_pole"), ("n", "pole_index"))

COMMANDS = {
    "gauss": Command(
        "Gauss sum of a multiplicative character", "characters", (_P, _K1),
        lambda m, a: [SimpleNamespace(c=(c := m.MultiplicativeCharacter(a.p, a.k1)), g=m.gauss_sum(c))],
        (("p", "c.p"), ("k1", "c.k"), ("order", "c.order"), ("value_re", "g.value.real"),
         ("value_im", "g.value.imag"), ("norm", "g.norm_sq")),
    ),
    "jacobi": Command(
        "exact Jacobi sum of two characters", "characters", (_P, _K1, Flag("k2")),
        lambda m, a: [SimpleNamespace(
            c1=(c1 := m.MultiplicativeCharacter(a.p, a.k1)), c2=(c2 := m.MultiplicativeCharacter(a.p, a.k2)),
            j=(j := m.jacobi_sum(c1, c2)),
            residual=None if c1.is_trivial or c2.is_trivial or (c1 * c2).is_trivial
            else m.gauss_jacobi_relation_check(c1, c2, j))],
        (("p", "c1.p"), ("k1", "c1.k"), ("k2", "c2.k"), ("ring_order", "j.m"), ("coeffs", "j.coeffs"),
         ("norm", lambda r: r.j.norm_to_int()), ("residual", "residual")),
    ),
    "count": Command(
        "projective point count of y^2 = x^3 + ax + b over F_p", "curve_counts",
        (_P, Flag("curve", str, help="a,b as integer residues"),
         Flag("n", default=1, help="extension degree (1 or 2)")),
        lambda m, a: [SimpleNamespace(curve=(c := _fp_curve(m, a)), count=(r := m.count_points(c)),
                           ext=m._count_from_trace(c.p, r.a_p, a.n))],
        (*_FP_CURVE, ("Np", "count.n_points"), ("ap", "count.a_p")),
        extra=("n", (("Np2", "ext"),)),
    ),
    "zeta": Command(
        "local zeta numerator roots for a curve over F_p", "curve_counts", (_P, Flag("curve", str)),
        lambda m, a: [SimpleNamespace(curve=(c := _fp_curve(m, a)), zeta=m.zeta_data(c))],
        (*_FP_CURVE, ("ap", "zeta.a_p"), ("alpha_re", "zeta.alpha.real"), ("alpha_im", "zeta.alpha.imag"),
         ("beta_re", "zeta.beta.real"), ("beta_im", "zeta.beta.imag")),
    ),
    "apjacobi": Command(
        "trace defect of y^2 = x^3 - x from a Jacobi sum (p = 1 mod 4)", "curve_counts", (_P,),
        lambda m, a: [SimpleNamespace(a=a, ap=m.a_p_from_jacobi(a.p))],
        (("p", "a.p"), ("ap", "ap")),
    ),
    "periods": Command(
        "lattice generators by AGM and quadrature", "complex_periods", (_RATIONALS,),
        lambda m, a: [SimpleNamespace(curve=c, lattice=L)
                      for c in [_q_curve(m, a)] for L in (m.periods_agm(c), m.periods_quadrature(c))],
        (*_AB, ("method", "lattice.method"), *_OMEGA),
    ),
    "tau": Command(
        "SL2(Z)-reduced tau invariant", "complex_periods", (_RATIONALS,),
        lambda m, a: [SimpleNamespace(curve=c, lattice=L, raw=L.omega2 / L.omega1, point=m.tau_normalize(L))
                      for c in [_q_curve(m, a)] for L in [m.periods_agm(c)]],
        (*_AB, *_OMEGA, ("raw_re", "raw.real"), ("raw_im", "raw.imag"), *_TAU),
    ),
    "periodmap": Command(
        "tau(t) along the family y^2 = x(x-1)(x-t)", "complex_periods",
        (Flag("grid", str, help="comma-separated rational t values", feeds="t"),),
        lambda m, a: [SimpleNamespace(t=t, point=point)
                      for t, point in m.period_map_legendre(_parse_numbers("grid", a.grid, _rational))],
        (("t", lambda r: str(r.t)), *_TAU),
    ),
    "catalog": Command(
        "elementary numeric periods (pi, 2*pi, log n)", "complex_periods",
        (Flag("n", default=2, help="largest logarithm argument, 2..21", feeds="n_max"),),
        lambda m, a: m.numeric_periods_catalog(a.n),
        (("name", "name"), ("value", "value"), ("error", "error_estimate"), ("variety", "variety"),
         ("divisor", "divisor"), ("form", "form"), ("domain", "domain")),
        default_format="md",
    ),
    "veneziano": Command(
        "four-point amplitude at (s, t)", "amplitudes", (Flag("s", float, feeds="s12"), Flag("t", float, feeds="s34")),
        lambda m, a: [SimpleNamespace(x=(x := m.MandelstamInput(s12=a.s, s34=a.t)), amp=m.veneziano(x))],
        (("s", "x.s12"), ("t", "x.s34"), ("alpha", "x.alpha"), ("beta", "x.beta"),
         ("value", "amp.value"), ("at_pole", "amp.at_pole"), ("pole_index", "amp.pole_index")),
    ),
    "beta": Command(
        "Euler Beta via the Gamma ratio; --s and --t are its two arguments", "amplitudes",
        (Flag("s", float, feeds="alpha"), Flag("t", float, feeds="beta")),
        lambda m, a: [SimpleNamespace(a=a, value=m.beta_fn(a.s, a.t))],
        (("alpha", "a.s"), ("beta", "a.t"), ("value", "value")),
    ),
    "poles": Command(
        "residues of the amplitude at alpha = 0..-n, in closed form", "amplitudes",
        (Flag("t", float, help="fixed beta (non-integer)", feeds="beta_fixed"), Flag("n", default=5, feeds="n_max")),
        lambda m, a: [SimpleNamespace(a=a, n=n, residue=res) for n, res in m.pole_scan(a.t, a.n)],
        (("beta", "a.t"), ("n", "n"), ("residue", "residue")),
    ),
    "correspond": Command(
        "two-column local/global report", "amplitudes",
        (_P, Flag("grid", str, "", "comma-separated amplitude grid values", feeds="s_grid")),
        lambda m, a: [m.correspondence_table(a.p, _parse_numbers("grid", a.grid, float))],
        (("p", "p"), ("ap", "a_p"), ("local", lambda r: _rows(_LOCAL)(r.local_rows)),
         ("global", lambda r: _rows(_GLOBAL)(r.global_rows)),
         ("dictionary", lambda r: _rows((("global", lambda d: d[0]), ("local", lambda d: d[1])))(r.dictionary))),
        formats=("json", "md"), default_format="md", markdown=_correspond_markdown,
    ),
    "delta": Command(
        "p-derivation of a fixed-precision p-adic integer", "padic",
        (_P, Flag("precision"), Flag("x"), Flag("y", default=None)),
        lambda m, a: [SimpleNamespace(
            a=a, x=(x := m.PadicInt(a.p, a.precision, a.x)), delta=m.delta_p(x),
            y=(y := None if a.y is None else m.PadicInt(a.p, a.precision, a.y)),
            rules=None if y is None else m.delta_rules_check(x, y))],
        (("p", "a.p"), ("N", "a.precision"), ("x", "x.value"), ("delta", "delta.value")),
        extra=("y", (("y", "y.value"), ("delta_y", "rules.delta_y.value"), ("cocycle", "rules.cocycle"),
                     ("checks", lambda r: {"sum": r.rules.sum_rule_ok, "product": r.rules.product_rule_ok}))),
    ),
}


# ---------------------------------------------------------------------------
# Parser and dispatch


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of argv[0]'s command alone when argv[0] names one, else of
    every command.  Both print the same usage and errors: the one-command
    parser's metavar lists every command where argparse's would list one, and
    the full parser keeps metavar None, so a missing command is named "command"."""
    parser = argparse.ArgumentParser(
        prog="periodkit",
        description="Periods of elliptic curves and their finite-characteristic counterparts",
    )
    commands = {argv[0]: COMMANDS[argv[0]]} if argv and argv[0] in COMMANDS else COMMANDS
    metavar = None if commands is COMMANDS else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, command in commands.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--format", choices=command.formats, default=command.default_format)
        for f in command.flags:
            p.add_argument(f"--{f.dest}", type=f.type, required=f.default is REQUIRED, default=f.default, help=f.help)
    return parser


def _absorb_flag_values(argv: list[str]) -> list[str]:
    # argparse reads "-1,0" or "-1e-5" as an option string; every flag but
    # --help takes a value, so fold it into --flag=value unless the next token
    # is itself a flag.
    out = []
    for tok in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and "=" not in flag and flag != "--help" and not tok.startswith("--"):
            out[-1] = f"{flag}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    try:
        argv = _absorb_flag_values(sys.argv[1:] if argv is None else list(argv))
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = COMMANDS[args.command]
    params = {f.dest: v for f in command.flags if (v := getattr(args, f.dest)) is not None}
    fields = command.fields
    if command.extra:
        dest, more = command.extra
        if getattr(args, dest) != next(f.default for f in command.flags if f.dest == dest):
            fields += more
    render = (args.format == "md" and command.markdown) or RENDERERS[args.format]
    try:
        rows = command.run(importlib.import_module(f".{command.module}", __package__), args)
        text = render(args.command, params, rows, fields)
    except InvalidInput as exc:
        flag = next((f.dest for f in command.flags if f.feeds == exc.arg), exc.arg)
        print(f"error: --{flag}: {exc}", file=sys.stderr)
        return 2
    except PeriodkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
