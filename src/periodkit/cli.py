"""Command-line front end: one subcommand per library operation, with a
versioned output envelope rendered as JSON (default), CSV, or Markdown.

Each subcommand is declared once, in `build_parser`, together with the
function that computes its rows; that function imports the library module it
runs, so a command loads only what it needs.  The envelope's `params` echo
every flag but `--format` as parsed, with defaults filled in and unset flags
left out.

Exit codes: 0 success, 1 domain error (singular curve, bad congruence, ...),
2 invalid argument, with the flag named; argument rules live in the library.
All numeric output is printed with 15 significant digits and identical argv
always produces byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import __version__
from .errors import InvalidInput, PeriodkitError

# ---------------------------------------------------------------------------
# Output envelope and rendering


def _json_emit(obj) -> str:
    keys: dict[str, str] = {}  # each distinct dict key is quoted once per document

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
            if all(type(v) is int for v in obj):  # coefficient vectors; bool is not int here
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


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".15g") if math.isfinite(v) else str(v)
    if isinstance(v, (list, tuple, dict)):
        return _json_emit(v)
    return str(v)


def render_json(command: str, params: dict, rows: list) -> str:
    payload = {"command": command, "params": params, "rows": rows, "errors": [], "version": __version__}
    return _json_emit(payload) + "\n"


def render_csv(command: str, params: dict, rows: list) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if rows:
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(row.get(k)) for k in header])
    return out.getvalue()


def render_markdown(command: str, params: dict, rows: list) -> str:
    lines = [f"# periodkit {command}", ""]
    if params:
        lines.append("params: " + ", ".join(f"{k}={_cell(v)}" for k, v in params.items()))
        lines.append("")
    if rows:
        header = list(rows[0].keys())
        lines.append("| " + " | ".join(header) + " |")
        lines.append("| " + " | ".join("---" for _ in header) + " |")
        for row in rows:
            lines.append("| " + " | ".join(_cell(row.get(k)) for k in header) + " |")
    lines.append("")
    return "\n".join(lines)


RENDERERS = {"json": render_json, "csv": render_csv, "md": render_markdown}


# ---------------------------------------------------------------------------
# Flag parsing helpers


def _parse_numbers(flag: str, text: str, kind, count=None) -> list:
    """Comma-separated values of one number type (int, float or Fraction);
    an empty string is an empty list, and count fixes the length."""
    parts = text.split(",") if text.strip() else []
    if count is not None and len(parts) != count:
        raise InvalidInput(flag, f"expected {count} comma-separated values, got {text!r}")
    try:
        return [kind(part) for part in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(flag, str(exc)) from exc


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns its rows


def _re_im(z: complex) -> tuple[float, float]:
    return float(z.real), float(z.imag)


def _omega_fields(lattice) -> dict:
    o1r, o1i = _re_im(lattice.omega1)
    o2r, o2i = _re_im(lattice.omega2)
    return {"omega1_re": o1r, "omega1_im": o1i, "omega2_re": o2r, "omega2_im": o2i}


def _tau_fields(point) -> dict:
    return {
        "tau_re": float(point.tau.real),
        "tau_im": float(point.tau.imag),
        "matrix": [list(point.transform[0]), list(point.transform[1])],
    }


def _cmd_gauss(args) -> list:
    from .characters import MultiplicativeCharacter, gauss_sum
    c = MultiplicativeCharacter(args.p, args.k1)
    g = gauss_sum(c)
    re, im = _re_im(g.value)
    return [{"p": c.p, "k1": c.k, "order": c.order, "value_re": re, "value_im": im, "norm": g.norm_sq}]


def _cmd_jacobi(args) -> list:
    from .characters import MultiplicativeCharacter, gauss_jacobi_relation_check, jacobi_sum
    c1 = MultiplicativeCharacter(args.p, args.k1)
    c2 = MultiplicativeCharacter(args.p, args.k2)
    j = jacobi_sum(c1, c2)
    residual = None
    if not (c1.is_trivial or c2.is_trivial or (c1 * c2).is_trivial):
        residual = gauss_jacobi_relation_check(c1, c2)
    row = {
        "p": c1.p,
        "k1": c1.k,
        "k2": c2.k,
        "ring_order": j.m,
        "coeffs": list(j.coeffs),
        "norm": j.norm_to_int(),
        "residual": residual,
    }
    return [row]


def _cmd_count(args) -> list:
    from .curve_counts import WeierstrassCurveFp, count_points, count_points_ext
    curve = WeierstrassCurveFp(args.p, *_parse_numbers("curve", args.curve, int, 2))
    result = count_points(curve)
    row = {"p": curve.p, "a": curve.a, "b": curve.b, "Np": result.n_points, "ap": result.a_p}
    if args.n != 1:
        row[f"Np{args.n}"] = count_points_ext(curve, args.n)
    return [row]


def _cmd_zeta(args) -> list:
    from .curve_counts import WeierstrassCurveFp, zeta_data
    curve = WeierstrassCurveFp(args.p, *_parse_numbers("curve", args.curve, int, 2))
    data = zeta_data(curve)
    ar, ai = _re_im(data.alpha)
    br, bi = _re_im(data.beta)
    row = {
        "p": curve.p,
        "a": curve.a,
        "b": curve.b,
        "ap": data.a_p,
        "alpha_re": ar,
        "alpha_im": ai,
        "beta_re": br,
        "beta_im": bi,
    }
    return [row]


def _cmd_apjacobi(args) -> list:
    from .curve_counts import a_p_from_jacobi
    return [{"p": args.p, "ap": a_p_from_jacobi(args.p)}]


def _cmd_periods(args) -> list:
    from fractions import Fraction
    from .complex_periods import EllipticCurveQ, periods_agm, periods_quadrature
    a, b = _parse_numbers("curve", args.curve, Fraction, 2)
    curve = EllipticCurveQ(a, b)
    return [
        {"a": str(a), "b": str(b), "method": lattice.method, **_omega_fields(lattice)}
        for lattice in (periods_agm(curve), periods_quadrature(curve))
    ]


def _cmd_tau(args) -> list:
    from fractions import Fraction
    from .complex_periods import EllipticCurveQ, periods_agm, tau_normalize
    a, b = _parse_numbers("curve", args.curve, Fraction, 2)
    lattice = periods_agm(EllipticCurveQ(a, b))
    raw = lattice.omega2 / lattice.omega1
    row = {
        "a": str(a),
        "b": str(b),
        **_omega_fields(lattice),
        "raw_re": float(raw.real),
        "raw_im": float(raw.imag),
        **_tau_fields(tau_normalize(lattice)),
    }
    return [row]


def _cmd_periodmap(args) -> list:
    from fractions import Fraction
    from .complex_periods import period_map_legendre
    ts = _parse_numbers("grid", args.grid, Fraction)
    return [{"t": str(t), **_tau_fields(point)} for t, point in period_map_legendre(ts)]


def _cmd_catalog(args) -> list:
    from .complex_periods import numeric_periods_catalog
    return [
        {
            "name": entry.name,
            "value": entry.value,
            "error": entry.error_estimate,
            "variety": entry.variety,
            "divisor": entry.divisor,
            "form": entry.form,
            "domain": entry.domain,
        }
        for entry in numeric_periods_catalog(args.n)
    ]


def _cmd_veneziano(args) -> list:
    from .amplitudes import MandelstamInput, veneziano
    m = MandelstamInput(s12=args.s, s34=args.t)
    amp = veneziano(m)
    row = {
        "s": args.s,
        "t": args.t,
        "alpha": m.alpha,
        "beta": m.beta,
        "value": amp.value if math.isfinite(amp.value) else None,
        "at_pole": amp.at_pole,
        "pole_index": amp.pole_index,
    }
    return [row]


def _cmd_beta(args) -> list:
    from .amplitudes import beta_fn
    # --s and --t carry the two Beta arguments directly.
    return [{"alpha": args.s, "beta": args.t, "value": beta_fn(args.s, args.t)}]


def _cmd_poles(args) -> list:
    from .amplitudes import pole_scan
    return [{"beta": args.t, "n": n, "residue": res} for n, res in pole_scan(args.t, args.n)]


def _cmd_correspond(args) -> list:
    from .amplitudes import correspondence_table
    report = correspondence_table(args.p, _parse_numbers("grid", args.grid, float))
    record = {
        "p": report.p,
        "ap": report.a_p,
        "local": [
            {"k1": r.k1, "k2": r.k2, "norm_ok": r.norm_ok, "norm_checked": r.norm_checked, "J": list(r.coeffs)}
            for r in report.local_rows
        ],
        "global": [
            {
                "s": r.s,
                "t": r.t,
                "A": r.value if math.isfinite(r.value) else None,
                "at_pole": r.at_pole,
                "n": r.pole_index,
            }
            for r in report.global_rows
        ],
        "dictionary": [{"global": g, "local": l} for g, l in report.dictionary],
    }
    return [record]


def _render_correspond_markdown(record: dict) -> str:
    lines = [f"# periodkit correspond (p = {record['p']})", ""]
    lines.append("## Dictionary")
    lines.append("")
    lines.append("| global object | local object |")
    lines.append("| --- | --- |")
    for row in record["dictionary"]:
        lines.append(f"| {row['global']} | {row['local']} |")
    lines.append("")
    lines.append("## Local side: Jacobi sums with c, c', cc' nontrivial")
    lines.append("")
    if record["ap"] is not None:
        lines.append(f"trace defect of y^2 = x^3 - x at p = {record['p']}: a_p = {record['ap']}")
        lines.append("")
    lines.append("| k1 | k2 | J coefficients | norm equals p | norm computed |")
    lines.append("| --- | --- | --- | --- | --- |")
    for row in record["local"]:
        lines.append(
            f"| {row['k1']} | {row['k2']} | {_cell(row['J'])} | {row['norm_ok']} | {row['norm_checked']} |"
        )
    lines.append("")
    lines.append("## Global side: amplitude samples")
    lines.append("")
    if record["global"]:
        lines.append("| s | t | A | at_pole | n |")
        lines.append("| --- | --- | --- | --- | --- |")
        for row in record["global"]:
            lines.append(
                f"| {_cell(row['s'])} | {_cell(row['t'])} | {_cell(row['A'])} "
                f"| {row['at_pole']} | {_cell(row['n'])} |"
            )
    else:
        lines.append("(empty grid: dictionary rows only)")
    lines.append("")
    return "\n".join(lines)


def _cmd_delta(args) -> list:
    from .padic import PadicInt, delta_p, delta_rules_check
    x = PadicInt(args.p, args.precision, args.x)
    row = {"p": args.p, "N": args.precision, "x": x.value, "delta": delta_p(x).value}
    if args.y is not None:
        y = PadicInt(args.p, args.precision, args.y)
        verdict = delta_rules_check(x, y)
        row.update(
            {
                "y": y.value,
                "delta_y": verdict.delta_y.value,
                "cocycle": verdict.cocycle,
                "checks": {"sum": verdict.sum_rule_ok, "product": verdict.product_rule_ok},
            }
        )
    return [row]


# ---------------------------------------------------------------------------
# Parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periodkit",
        description="Periods of elliptic curves and their finite-characteristic counterparts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, run, help_text: str, default_format: str = "json", formats=("json", "csv", "md")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=formats, default=default_format)
        p.set_defaults(run=run)
        return p

    p = add("gauss", _cmd_gauss, "Gauss sum of a multiplicative character")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k1", type=int, required=True)

    p = add("jacobi", _cmd_jacobi, "exact Jacobi sum of two characters")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)

    p = add("count", _cmd_count, "projective point count of y^2 = x^3 + ax + b over F_p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--curve", type=str, required=True, help="a,b as integer residues")
    p.add_argument("--n", type=int, default=1, help="extension degree (1 or 2)")

    p = add("zeta", _cmd_zeta, "local zeta numerator roots for a curve over F_p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--curve", type=str, required=True)

    p = add("apjacobi", _cmd_apjacobi, "trace defect of y^2 = x^3 - x from a Jacobi sum (p = 1 mod 4)")
    p.add_argument("--p", type=int, required=True)

    p = add("periods", _cmd_periods, "lattice generators by AGM and quadrature")
    p.add_argument("--curve", type=str, required=True, help="a,b as exact rationals")

    p = add("tau", _cmd_tau, "SL2(Z)-reduced tau invariant")
    p.add_argument("--curve", type=str, required=True, help="a,b as exact rationals")

    p = add("periodmap", _cmd_periodmap, "tau(t) along the family y^2 = x(x-1)(x-t)")
    p.add_argument("--grid", type=str, required=True, help="comma-separated rational t values")

    p = add("catalog", _cmd_catalog, "elementary numeric periods (pi, 2*pi, log n)", default_format="md")
    p.add_argument("--n", type=int, default=2, help="largest logarithm argument, 2..21")

    p = add("veneziano", _cmd_veneziano, "four-point amplitude at (s, t)")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, required=True)

    p = add("beta", _cmd_beta, "Euler Beta via the Gamma ratio; --s and --t are its two arguments")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, required=True)

    p = add("poles", _cmd_poles, "residues of the amplitude at alpha = 0..-n, in closed form")
    p.add_argument("--t", type=float, required=True, help="fixed beta (non-integer)")
    p.add_argument("--n", type=int, default=5)

    p = add("correspond", _cmd_correspond, "two-column local/global report", default_format="md", formats=("json", "md"))
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--grid", type=str, default="", help="comma-separated amplitude grid values")

    p = add("delta", _cmd_delta, "p-derivation of a fixed-precision p-adic integer")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--precision", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, default=None)

    return parser


# Library argument names that differ from the flag carrying them; any other
# name is its own flag.
_FLAG_OF_ARG = {
    "n_max": "--n",
    "beta_fixed": "--t",
    "s12": "--s",
    "s34": "--t",
    "alpha": "--s",
    "beta": "--t",
    "s_grid": "--grid",
}


def _absorb_flag_values(argv: list[str]) -> list[str]:
    # argparse reads "-1,0" or "-1e-5" as an option string; every flag but
    # --help takes a value, so fold it into --flag=value unless the next token
    # is itself a flag.
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        takes_value = tok.startswith("--") and "=" not in tok and tok != "--help"
        if takes_value and i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_absorb_flag_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        rows = args.run(args)
    except InvalidInput as exc:
        print(f"error: {_FLAG_OF_ARG.get(exc.arg, '--' + exc.arg)}: {exc}", file=sys.stderr)
        return 2
    except PeriodkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    # argparse fills the namespace in declaration order, so params echo the
    # flags in the order build_parser declares them.
    params = {k: v for k, v in vars(args).items() if k not in ("command", "run", "format") and v is not None}
    if args.command == "correspond" and args.format == "md":
        text = _render_correspond_markdown(rows[0])
    else:
        text = RENDERERS[args.format](args.command, params, rows)
    sys.stdout.write(text)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
