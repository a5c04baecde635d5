"""periodkit: period-type quantities of elliptic curves on the complex side
(lattices, tau-invariants, amplitude/Beta values, elementary periods) and
their finite-characteristic counterparts (Gauss and Jacobi sums, point
counts and trace defects, p-derivations), with machine checks tying the two
sides together wherever an identity actually holds.

Each public name is listed once, under the module that defines it.  The
module is imported on first access to one of its names (PEP 562), so
`import periodkit` alone loads no library module.  No module imports
`__future__` or `typing`: annotations are native.
"""

__version__ = "0.1.0"

_PUBLIC = {
    "amplitudes": (
        "AmplitudeValue",
        "MandelstamInput",
        "beta_fn",
        "correspondence_table",
        "gamma_fn",
        "pole_scan",
        "veneziano",
    ),
    "characters": (
        "GaussSumValue",
        "MultiplicativeCharacter",
        "char_eval",
        "gauss_jacobi_relation_check",
        "gauss_sum",
        "jacobi_sum",
        "quadratic_character",
        "quartic_character",
    ),
    "complex_periods": (
        "EllipticCurveQ",
        "PeriodLattice",
        "TauPoint",
        "agm",
        "curve_tau",
        "legendre_curve",
        "numeric_periods_catalog",
        "period_map_legendre",
        "periods_agm",
        "periods_quadrature",
        "tau_normalize",
    ),
    "curve_counts": (
        "CountResult",
        "WeierstrassCurveFp",
        "ZetaData",
        "a_p_from_jacobi",
        "count_points",
        "count_points_ext",
        "zeta_data",
    ),
    "cyclotomic": (
        "CyclotomicNumber",
        "cyclotomic_polynomial",
    ),
    "finite_field": (
        "GaussianSplit",
        "PrimeFieldElem",
        "find_primitive_root",
        "is_prime",
        "iso_gaussian_residue",
        "legendre_symbol",
    ),
    "padic": (
        "PadicInt",
        "delta_p",
        "delta_rules_check",
        "frobenius_lift_check",
        "teichmuller",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
