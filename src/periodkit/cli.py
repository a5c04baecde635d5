"""Command-line front end: one subcommand per library operation, with a
versioned output envelope rendered as JSON (default), CSV, or Markdown.

Each subcommand is one Command entry of COMMANDS, and only that entry names it:
the argv reader, the help pages, the `params` echo, the map from a library
argument back to its flag and the renderers all read the table.  The envelope's
`params` echo every flag but `--format` as parsed, with defaults filled in and
unset flags left out.  Exit codes: 0 success, 1 domain error (singular curve,
bad congruence, ...), 2 invalid argument, with the flag named.  All numeric
output is printed with 15 significant digits, and argv alone decides the bytes
and the exit code, whatever the terminal or the int-to-str limit.
"""

import importlib
import io
import math
import sys
from types import SimpleNamespace

from . import __version__
from .errors import InvalidInput, PeriodkitError, TrivialCharacter, shown

DIGITS = 4300  # CPython's default int-to-str limit: main runs under it, and a rational flag stays within it
_RATIONAL_CAP = 10**DIGITS  # a rational flag's numerator and denominator stay below it

# ---------------------------------------------------------------------------
# Output envelope and rendering


# _quote(s) is json.dumps(s) for a str: CPython's C encoder, the one json.dumps
# calls, so a call never loads json; json.encoder's on other interpreters.
try:
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import encode_basestring_ascii as _quote


def _seq(v) -> str:
    return "[" + ", ".join(map(_json, v)) + "]"


_JSON = {
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


def _cell(v) -> str:
    """One CSV or Markdown cell; None and a non-finite float are empty, as JSON writes them as null."""
    if v is None or type(v) is float and not math.isfinite(v):
        return ""
    return _json(v) if type(v) in (float, list, tuple, dict) else str(v)


def _md_table(header, rows) -> list:
    rule = "| " + " | ".join("---" for _ in header) + " |"
    return ["| " + " | ".join(header) + " |", rule, *("| " + " | ".join(map(_cell, row)) + " |" for row in rows)]


def render_json(command: str, params: dict, rows: list) -> str:
    return (
        f'{{"command": {_quote(command)}, "params": {_json(params)}, "rows": {_json(rows)}, '
        f'"errors": [], "version": {_quote(__version__)}}}\n'
    )


def render_csv(command: str, params: dict, rows: list) -> str:
    import csv

    out = io.StringIO()
    if rows:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(rows[0].keys())
        writer.writerows(map(_cell, row.values()) for row in rows)
    return out.getvalue()


def render_markdown(command: str, params: dict, rows: list) -> str:
    lines = [f"# periodkit {command}", ""]
    if params:
        lines += ["params: " + ", ".join(f"{k}={_cell(v)}" for k, v in params.items()), ""]
    if rows:
        lines += _md_table(rows[0].keys(), [row.values() for row in rows])
    lines.append("")
    return "\n".join(lines)


RENDERERS = {"json": render_json, "csv": render_csv, "md": render_markdown}


def _correspond_markdown(command: str, params: dict, rows: list) -> str:
    """The report from the one row that JSON writes: the dictionary, the local and the global table."""
    (report,) = rows
    lines = [f"# periodkit correspond (p = {report['p']})", "", "## Dictionary", ""]
    lines += _md_table(("global object", "local object"), [d.values() for d in report["dictionary"]])
    lines += ["", "## Local side: Jacobi sums with c, c', cc' nontrivial", ""]
    if report["ap"] is not None:
        lines += [f"trace defect of y^2 = x^3 - x at p = {report['p']}: a_p = {report['ap']}", ""]
    header = ("k1", "k2", "J coefficients", "norm equals p", "norm computed")
    lines += _md_table(header, [(r["k1"], r["k2"], r["J"], r["norm_ok"], r["norm_checked"]) for r in report["local"]])
    lines += ["", "## Global side: amplitude samples", ""]
    if samples := report["global"]:
        lines += _md_table(samples[0].keys(), [r.values() for r in samples])
    else:
        lines.append("(empty grid: dictionary rows only)")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Flag values


def _parse_numbers(flag: str, text: str, kind, count=None) -> list:
    """Comma-separated values of one number type (int, float or rational),
    each refused by `kind` raising or returning None; an empty string is an
    empty list, and count, if given, fixes the length."""
    parts = text.split(",") if text.strip() else []
    try:
        values = [kind(part) for part in parts]
    except (ValueError, ZeroDivisionError):
        values = [None]
    if None in values or count not in (None, len(parts)):
        raise InvalidInput(flag, f"need {count or 'any number of'} comma-separated {_NOUNS[kind]}, got {shown(text)}")
    return values


def _rational(text: str):
    """A Fraction of at most DIGITS digits above and below the bar, else None."""
    from fractions import Fraction  # loaded only by the commands that take rationals

    # Fraction computes 10**exponent before it can refuse anything, so a long exponent is refused first.
    if sum(map(str.isdigit, text.lower().partition("e")[2])) > 4:
        return None
    value = Fraction(text)
    return value if max(abs(value.numerator), value.denominator) < _RATIONAL_CAP else None


_NOUNS = {int: "ints", float: "real numbers",
          _rational: f"rationals of at most {DIGITS} digits, with exponents of at most 4 digits"}


def _fp_curve(m, a):
    return m.WeierstrassCurveFp(a.p, *_parse_numbers("curve", a.curve, int, 2))


def _q_curve(m, a):
    return m.EllipticCurveQ(*_parse_numbers("curve", a.curve, _rational, 2))


# ---------------------------------------------------------------------------
# Rows: the columns that several commands share, and the commands that branch


def _fp_columns(c) -> dict:
    return {"p": c.p, "a": c.a, "b": c.b}


def _omega(L) -> dict:
    return {"omega1_re": L.omega1.real, "omega1_im": L.omega1.imag, "omega2_re": L.omega2.real,
            "omega2_im": L.omega2.imag}


def _tau(point) -> dict:
    return {"tau_re": point.tau.real, "tau_im": point.tau.imag, "matrix": point.transform}


def _jacobi(m, a) -> list:
    c1, c2 = m.MultiplicativeCharacter(a.p, a.k1), m.MultiplicativeCharacter(a.p, a.k2)
    j = m.jacobi_sum(c1, c2)
    try:
        residual = m.gauss_jacobi_relation_check(c1, c2, j)
    except TrivialCharacter:  # c, c' or cc' trivial: the ratio identity does not hold
        residual = None
    return [{"p": c1.p, "k1": c1.k, "k2": c2.k, "ring_order": j.m, "coeffs": j.coeffs, "norm": j.norm_to_int(),
             "residual": residual}]


def _count(m, a) -> list:
    curve = _fp_curve(m, a)
    m._check_degree(a.n)
    count = m.count_points(curve)
    row = {**_fp_columns(curve), "Np": count.n_points, "ap": count.a_p}
    if a.n == 2:  # N_{p^2}
        row["Np2"] = m._count_from_trace(curve.p, count.a_p, a.n)
    return [row]


def _correspond(m, a) -> list:
    report = m.correspondence_table(a.p, _parse_numbers("grid", a.grid, float))
    local = [{"k1": r.k1, "k2": r.k2, "norm_ok": r.norm_ok, "norm_checked": r.norm_checked, "J": r.coeffs}
             for r in report.local_rows]
    samples = [{"s": r.s, "t": r.t, "A": r.value, "at_pole": r.at_pole, "n": r.pole_index} for r in report.global_rows]
    dictionary = [{"global": g, "local": loc} for g, loc in report.dictionary]
    return [{"p": report.p, "ap": report.a_p, "local": local, "global": samples, "dictionary": dictionary}]


def _delta(m, a) -> list:
    x = m.PadicInt(a.p, a.precision, a.x)
    row = {"p": a.p, "N": a.precision, "x": x.value, "delta": m.delta_p(x).value}
    if a.y is not None:
        y = m.PadicInt(a.p, a.precision, a.y)
        rules = m.delta_rules_check(x, y)
        row |= {"y": y.value, "delta_y": rules.delta_y.value, "cocycle": rules.cocycle,
                "checks": {"sum": rules.sum_rule_ok, "product": rules.product_rule_ok}}
    return [row]


# ---------------------------------------------------------------------------
# The command table

REQUIRED = object()


class Flag(SimpleNamespace):
    """One --<dest> flag: its type (int, float, str or a tuple of choices), its default
    (REQUIRED if none), its help, and the library argument it feeds if not dest."""

    def __init__(self, dest: str, type=int, default=REQUIRED, help=None, feeds=None):
        super().__init__(dest=dest, type=type, default=default, help=help, feeds=feeds)


class Command(SimpleNamespace):
    """One subcommand: its help; its library module, imported only when it runs; its
    flags, ending with --format, whose default is its default format; `run(module, args)`,
    which returns the rows as dicts, their keys the output columns in order; and
    `markdown`, if given, its --format md renderer, replacing the flat table and the CSV."""

    def __init__(self, help, module, flags, run, default_format="json", markdown=None):
        formats = ("json", "md") if markdown else ("json", "csv", "md")
        flags += (Flag("format", formats, default_format, f"one of {', '.join(formats)}; default {default_format}"),)
        super().__init__(help=help, module=module, flags=flags, run=run, markdown=markdown)


_P, _K1 = Flag("p"), Flag("k1")
_RATIONALS = Flag("curve", str, help="a,b as exact rationals")

COMMANDS = {
    "gauss": Command(
        "Gauss sum of a multiplicative character", "characters", (_P, _K1),
        lambda m, a: [{"p": (c := m.MultiplicativeCharacter(a.p, a.k1)).p, "k1": c.k, "order": c.order,
                       "value_re": (g := m.gauss_sum(c)).value.real, "value_im": g.value.imag, "norm": g.norm_sq}],
    ),
    "jacobi": Command("exact Jacobi sum of two characters", "characters", (_P, _K1, Flag("k2")), _jacobi),
    "count": Command(
        "projective point count of y^2 = x^3 + ax + b over F_p", "curve_counts",
        (_P, Flag("curve", str, help="a,b as integer residues"),
         Flag("n", default=1, help="extension degree (1 or 2)")), _count,
    ),
    "zeta": Command(
        "local zeta numerator roots for a curve over F_p", "curve_counts", (_P, Flag("curve", str)),
        lambda m, a: [{**_fp_columns(c := _fp_curve(m, a)), "ap": (z := m.zeta_data(c)).a_p, "alpha_re": z.alpha.real,
                       "alpha_im": z.alpha.imag, "beta_re": z.beta.real, "beta_im": z.beta.imag}],
    ),
    "apjacobi": Command(
        "trace defect of y^2 = x^3 - x from a Jacobi sum (p = 1 mod 4)", "curve_counts", (_P,),
        lambda m, a: [{"p": a.p, "ap": m.a_p_from_jacobi(a.p)}],
    ),
    "periods": Command(
        "lattice generators by AGM and quadrature", "complex_periods", (_RATIONALS,),
        lambda m, a: [{"a": str(c.a), "b": str(c.b), "method": L.method, **_omega(L)}
                      for c in [_q_curve(m, a)] for L in (m.periods_agm(c), m.periods_quadrature(c))],
    ),
    "tau": Command(
        "SL2(Z)-reduced tau invariant", "complex_periods", (_RATIONALS,),
        lambda m, a: [{"a": str(c.a), "b": str(c.b), **_omega(L), "raw_re": (raw := L.omega2 / L.omega1).real,
                       "raw_im": raw.imag, **_tau(m.tau_normalize(L))}
                      for c in [_q_curve(m, a)] for L in [m.periods_agm(c)]],
    ),
    "periodmap": Command(
        "tau(t) along the family y^2 = x(x-1)(x-t)", "complex_periods",
        (Flag("grid", str, help="comma-separated rational t values", feeds="t"),),
        lambda m, a: [{"t": str(t), **_tau(point)}
                      for t, point in m.period_map_legendre(_parse_numbers("grid", a.grid, _rational))],
    ),
    "catalog": Command(
        "elementary numeric periods (pi, 2*pi, log n)", "complex_periods",
        (Flag("n", default=2, help="largest logarithm argument, 2..21", feeds="n_max"),),
        lambda m, a: [{"name": r.name, "value": r.value, "error": r.error_estimate, "variety": r.variety,
                       "divisor": r.divisor, "form": r.form, "domain": r.domain}
                      for r in m.numeric_periods_catalog(a.n)],
        default_format="md",
    ),
    "veneziano": Command(
        "four-point amplitude at (s, t)", "amplitudes", (Flag("s", float, feeds="s12"), Flag("t", float, feeds="s34")),
        lambda m, a: [{"s": (x := m.MandelstamInput(s12=a.s, s34=a.t)).s12, "t": x.s34, "alpha": x.alpha,
                       "beta": x.beta, "value": (amp := m.veneziano(x)).value, "at_pole": amp.at_pole,
                       "pole_index": amp.pole_index}],
    ),
    "beta": Command(
        "Euler Beta via the Gamma ratio; --s and --t are its two arguments", "amplitudes",
        (Flag("s", float, feeds="alpha"), Flag("t", float, feeds="beta")),
        lambda m, a: [{"alpha": a.s, "beta": a.t, "value": m.beta_fn(a.s, a.t)}],
    ),
    "poles": Command(
        "residues of the amplitude at alpha = 0..-n, in closed form", "amplitudes",
        (Flag("t", float, help="fixed beta, not 0, -1, -2, ...", feeds="beta_fixed"), Flag("n", default=5, feeds="n_max")),
        lambda m, a: [{"beta": a.t, "n": n, "residue": res} for n, res in m.pole_scan(a.t, a.n)],
    ),
    "correspond": Command(
        "two-column local/global report", "amplitudes",
        (_P, Flag("grid", str, "", "comma-separated amplitude grid values", feeds="s_grid")),
        _correspond, default_format="md", markdown=_correspond_markdown,
    ),
    "delta": Command(
        "p-derivation of a fixed-precision p-adic integer", "padic",
        (_P, Flag("precision"), Flag("x"), Flag("y", default=None)), _delta,
    ),
}


# ---------------------------------------------------------------------------
# Argv and dispatch


def _help(name: str) -> str:
    """`periodkit <name> --help`, or `periodkit --help` if name is no command; a usage error prints line 1."""
    if name not in COMMANDS:
        usage = "COMMAND [--FLAG VALUE ...]"
        about = "Periods of elliptic curves and their finite-characteristic counterparts"
        rows = [(command_name, command.help) for command_name, command in COMMANDS.items()]
    else:
        flags, about = COMMANDS[name].flags, COMMANDS[name].help
        rows = [(f"--{f.dest} {f.dest.upper()}", f.help or "") for f in flags]
        usage = " ".join([name, *(s if f.default is REQUIRED else f"[{s}]" for (s, _), f in zip(rows, flags))])
    width = max(len(left) for left, _ in rows) + 2
    lines = (f"  {left:{width}}{right}".rstrip() for left, right in rows)
    return "\n".join([f"usage: periodkit {usage}", "", about, "", *lines, ""])


def _read(argv: list):
    """Command argv[0]'s args from `--flag value` or `--flag=value` (a value may start with "-"), defaults
    filled in; None for -h or --help.  A refusal's InvalidInput.arg is the flag, the command or periodkit."""
    if argv[:1] in (["-h"], ["--help"]):
        return None
    if not argv or argv[0] not in COMMANDS:
        raise InvalidInput("periodkit", f"{shown(argv[0])} is not a command" if argv else "need a command")
    flags, tokens = {f"--{f.dest}": f for f in COMMANDS[argv[0]].flags}, iter(argv[1:])
    args = SimpleNamespace(command=argv[0], **{f.dest: f.default for f in flags.values()})
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        flag, equals, text = token.partition("=")
        if (f := flags.get(flag)) is None:
            raise InvalidInput(argv[0], f"{shown(token)} is not one of its flags")
        if not equals and (text := next(tokens, None)) is None:
            raise InvalidInput(flag, "need a value")
        try:  # a tuple type is --format's choices, and its index refuses any other text
            setattr(args, f.dest, f.type[f.type.index(text)] if type(f.type) is tuple else f.type(text))
        except ValueError:
            noun = {int: "an int", float: "a real number"}.get(f.type) or "one of " + ", ".join(f.type)
            raise InvalidInput(flag, f"need {noun}, got {shown(text)}") from None
    if missing := [flag for flag, f in flags.items() if getattr(args, f.dest) is REQUIRED]:
        raise InvalidInput(missing[0], "required")
    return args


def main(argv=None) -> int:
    """Run argv under CPython's default int-to-str digit limit, whatever the
    caller set, and give the caller's back."""
    if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter with no limit
        return _run(argv)
    caller = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGITS)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(caller)


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _read(argv)
    except InvalidInput as exc:  # a usage error: the usage line, then the refusal
        print(_help(argv[0] if argv else "").partition("\n")[0], f"error: {exc.arg}: {exc}", sep="\n", file=sys.stderr)
        return 2
    if args is None:
        sys.stdout.write(_help(argv[0]))
        return 0
    command = COMMANDS[args.command]
    params = {f.dest: v for f in command.flags[:-1] if (v := getattr(args, f.dest)) is not None}  # not --format
    render = (args.format == "md" and command.markdown) or RENDERERS[args.format]
    try:
        rows = command.run(importlib.import_module(f".{command.module}", __package__), args)
        text = render(args.command, params, rows)
    except InvalidInput as exc:
        flag = next((f.dest for f in command.flags if f.feeds == exc.arg), exc.arg)
        print(f"error: --{flag}: {exc}", file=sys.stderr)
        return 2
    except (PeriodkitError, MemoryError) as exc:  # a host short of memory is a domain error too: one line, exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
