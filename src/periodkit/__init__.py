"""periodkit: period-type quantities of elliptic curves on the complex side
(lattices, tau-invariants, amplitude/Beta values, elementary periods) and
their finite-characteristic counterparts (Gauss and Jacobi sums, point
counts and trace defects, p-derivations), with machine checks tying the two
sides together wherever an identity actually holds.
"""

__version__ = "0.1.0"

from .amplitudes import (
    AmplitudeValue,
    MandelstamInput,
    beta_fn,
    correspondence_table,
    gamma_fn,
    pole_scan,
    veneziano,
)
from .characters import (
    GaussSumValue,
    MultiplicativeCharacter,
    char_eval,
    gauss_jacobi_relation_check,
    gauss_sum,
    jacobi_sum,
    quadratic_character,
    quartic_character,
)
from .complex_periods import (
    EllipticCurveQ,
    PeriodLattice,
    TauPoint,
    agm,
    curve_tau,
    legendre_curve,
    numeric_periods_catalog,
    period_map_legendre,
    periods_agm,
    periods_quadrature,
    real_roots,
    tau_normalize,
)
from .curve_counts import (
    CountResult,
    WeierstrassCurveFp,
    ZetaData,
    a_p_from_jacobi,
    count_points,
    count_points_ext,
    zeta_data,
)
from .cyclotomic import CyclotomicNumber, cyclotomic_polynomial
from .finite_field import (
    GaussianSplit,
    PrimeFieldElem,
    find_primitive_root,
    is_prime,
    iso_gaussian_residue,
    legendre_symbol,
)
from .padic import (
    PadicInt,
    delta_p,
    delta_rules_check,
    frobenius_lift_check,
    teichmuller,
)

__all__ = [
    "__version__",
    "AmplitudeValue",
    "CountResult",
    "CyclotomicNumber",
    "EllipticCurveQ",
    "GaussianSplit",
    "GaussSumValue",
    "MandelstamInput",
    "MultiplicativeCharacter",
    "PadicInt",
    "PeriodLattice",
    "PrimeFieldElem",
    "TauPoint",
    "WeierstrassCurveFp",
    "ZetaData",
    "a_p_from_jacobi",
    "agm",
    "beta_fn",
    "char_eval",
    "correspondence_table",
    "count_points",
    "count_points_ext",
    "curve_tau",
    "cyclotomic_polynomial",
    "delta_p",
    "delta_rules_check",
    "find_primitive_root",
    "frobenius_lift_check",
    "gamma_fn",
    "gauss_jacobi_relation_check",
    "gauss_sum",
    "is_prime",
    "iso_gaussian_residue",
    "jacobi_sum",
    "legendre_curve",
    "legendre_symbol",
    "numeric_periods_catalog",
    "period_map_legendre",
    "periods_agm",
    "periods_quadrature",
    "pole_scan",
    "quadratic_character",
    "quartic_character",
    "real_roots",
    "tau_normalize",
    "teichmuller",
    "veneziano",
    "zeta_data",
]
