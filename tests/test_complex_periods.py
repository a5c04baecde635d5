"""Period lattices, tau reduction, the family period map, and the catalog."""

import cmath
import math
import random
import sys
import threading
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from periodkit import complex_periods
from periodkit.complex_periods import (
    EllipticCurveQ,
    PeriodLattice,
    agm,
    curve_tau,
    legendre_curve,
    numeric_periods_catalog,
    period_map_legendre,
    periods_agm,
    periods_quadrature,
    tau_normalize,
    _root_gaps,
)
from periodkit.errors import (
    ComplexRoots,
    DegenerateFamilyMember,
    DegenerateLattice,
    FloatOverflow,
    InvalidInput,
    QuadratureNoConvergence,
    SingularCurve,
)


def random_three_real_curves(rng, count):
    out = []
    while len(out) < count:
        a = rng.randint(-20, -1)
        b = rng.randint(-20, 20)
        if -4 * a**3 - 27 * b**2 > 0:
            out.append(EllipticCurveQ(a, b))
    return out


def apply_transform(m, tau):
    (a, b), (c, d) = m
    return (a * tau + b) / (c * tau + d)


def invert_transform(m):
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))  # det 1


SCIPY_TARGET = 1e-11


def scipy_quad(f, lo, hi):
    """The adaptive Gauss-Kronrod rule that _quad replaced, kept as its oracle."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, err = integrate.quad(f, lo, hi, epsabs=SCIPY_TARGET / 10, epsrel=1e-13, limit=200)
        except integrate.IntegrationWarning as exc:
            raise QuadratureNoConvergence(str(exc)) from exc
    if err > SCIPY_TARGET:
        raise QuadratureNoConvergence(f"error estimate {err:.3e}")
    return value, err


def real_roots(curve):
    """e1 > e2 > e3 by the trigonometric form plus Newton polish: the root
    finder that _root_gaps replaced, kept as the oracle of scipy_periods."""
    assert curve.discriminant > 0
    a, b = float(curve.a), float(curve.b)
    m = 2.0 * math.sqrt(-a / 3.0)
    theta = math.acos(min(1.0, max(-1.0, 3.0 * b / (a * m))))
    roots = []
    for k in range(3):
        x = m * math.cos((theta + 2.0 * math.pi * k) / 3.0)
        for _ in range(60):
            df = 3 * x * x + a
            if df == 0:
                break
            step = ((x * x + a) * x + b) / df
            x -= step
            if abs(step) <= 1e-15 * max(abs(x), 1.0):
                break
        roots.append(x)
    return sorted(roots, reverse=True)


def scipy_periods(curve):
    """omega1 and omega2/i from the u^2-substituted integrals, unscaled, through
    scipy, on the oracle roots: a check of both the gaps and the substitutions."""
    e1, e2, e3 = real_roots(curve)
    mid = 0.5 * (e1 + e2)
    real, _ = scipy_quad(lambda u: 2.0 / math.sqrt((u * u + e1 - e2) * (u * u + e1 - e3)), 0.0, math.inf)
    lower, _ = scipy_quad(lambda u: 2.0 / math.sqrt((e1 - e2 - u * u) * (u * u + e2 - e3)), 0.0, math.sqrt(mid - e2))
    upper, _ = scipy_quad(lambda u: 2.0 / math.sqrt((e1 - e2 - u * u) * (e1 - e3 - u * u)), 0.0, math.sqrt(e1 - mid))
    return 2.0 * real, 2.0 * (lower + upper)


def curve_from_roots(e1, e2, e3):
    """y^2 = (x - e1)(x - e2)(x - e3) for exact roots that sum to 0."""
    assert e1 + e2 + e3 == 0
    return EllipticCurveQ(e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3)


def exact_gaps(e1, e2, e3):
    return e1 - e2, e1 - e3, e2 - e3


def roots_with_gap(gap):
    """1 + gap, 1, -2 - gap: e1 - e2 = gap exactly."""
    return 1 + gap, Fraction(1), -2 - gap


def roots_with_low_gap(gap):
    """The mirror x -> -x of roots_with_gap, 2 + gap, -1, -1 - gap:
    e2 - e3 = gap exactly."""
    e1, e2, e3 = roots_with_gap(gap)
    return -e3, -e2, -e1


GAP_FAMILIES = (roots_with_gap, roots_with_low_gap)


def mpmath_periods(roots):
    """omega1 and omega2/i from the exact roots by mpmath's AGM at 50 digits,
    rounded to doubles."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        d12, d13, d23 = (mpmath.mpf(g.numerator) / g.denominator for g in exact_gaps(*roots))
        s13 = mpmath.sqrt(d13)
        omega1 = 2 * mpmath.pi / mpmath.agm(s13, mpmath.sqrt(d12))
        omega2 = 2 * mpmath.pi / mpmath.agm(s13, mpmath.sqrt(d23))
        return float(omega1), float(omega2)


def rel_err(got, exact):
    return abs(got / exact - 1)


def test_root_gaps_examples():
    assert _root_gaps(EllipticCurveQ(-1, 0)) == pytest.approx((1.0, 2.0, 1.0), rel=1e-15)
    assert _root_gaps(EllipticCurveQ(-4, 0)) == pytest.approx((2.0, 4.0, 2.0), rel=1e-15)
    d12, _, d23 = _root_gaps(EllipticCurveQ(-1, 0))
    assert d12 == d23  # b = 0: both small gaps come from the same angle
    with pytest.raises(ComplexRoots):
        _root_gaps(EllipticCurveQ(0, 1))


def test_root_gaps_refuse_what_doubles_cannot_hold():
    # |a| beyond the double range comes first, whatever the root split.
    for a in (-(10**400), 10**400):
        with pytest.raises(FloatOverflow, match="beyond"):
            _root_gaps(EllipticCurveQ(a, 0))
    with pytest.raises(ComplexRoots):
        _root_gaps(EllipticCurveQ(-1, 10**400))
    # A subnormal a, or a sin^2(phi) of about 1e-320 that a subnormal double
    # would hold to three digits, next to a double root of x^3 - 3x + 2.
    for a, b in ((Fraction(-1, 10**310), 0), (-3, 2 - Fraction(1, 10**320))):
        with pytest.raises(FloatOverflow, match="below"):
            _root_gaps(EllipticCurveQ(a, b))
    d12, d13, d23 = _root_gaps(EllipticCurveQ(-3, 2 - Fraction(1, 10**300)))
    assert rel_err(d12, 2 / math.sqrt(3) * 1e-150) < 1e-15 and d13 == d23


def test_root_gaps_match_oracle_roots():
    rng = random.Random(11)
    for curve in random_three_real_curves(rng, 15):
        a, b = float(curve.a), float(curve.b)
        roots = real_roots(curve)
        assert roots[0] > roots[1] > roots[2]
        for r in roots:
            assert abs(r**3 + a * r + b) < 1e-9 * max(1.0, abs(r) ** 3)
        for got, oracle in zip(_root_gaps(curve), exact_gaps(*roots)):
            assert rel_err(got, oracle) < 1e-12, curve


def test_singular_curve_rejected():
    with pytest.raises(SingularCurve):
        EllipticCurveQ(-3, 2)  # (x-1)^2 (x+2)
    with pytest.raises(InvalidInput) as exc:
        EllipticCurveQ(0.5, 1.0)  # floats are ambiguous; demand exact rationals
    assert exc.value.arg == "a"


def test_bool_coefficients_rejected():
    # A bool is no rational here, as it is no int elsewhere: True once built a = 1.
    for a, b, arg in ((True, 0, "a"), (1, False, "b")):
        with pytest.raises(InvalidInput, match="need an int or a Fraction") as exc:
            EllipticCurveQ(a, b)
        assert exc.value.arg == arg
    with pytest.raises(InvalidInput, match="need an int or a Fraction") as exc:
        legendre_curve(True)
    assert exc.value.arg == "t"


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(rationals.filter(lambda t: t != 0))
def test_singular_family_rejected(t):
    # x^3 - 3t^2 x + 2t^3 = (x - t)^2 (x + 2t)
    with pytest.raises(SingularCurve):
        EllipticCurveQ(-3 * t**2, 2 * t**3)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(rationals, rationals)
def test_discriminant_sign_decides_root_split(a, b):
    disc = -4 * a**3 - 27 * b**2
    if disc == 0:
        with pytest.raises(SingularCurve):
            EllipticCurveQ(a, b)
        return
    curve = EllipticCurveQ(a, b)
    assert curve.discriminant == disc
    assert type(curve.discriminant) is Fraction
    if disc < 0:
        with pytest.raises(ComplexRoots):
            _root_gaps(curve)
    else:
        assert min(_root_gaps(curve)) > 0


@st.composite
def roots_summing_to_zero(draw):
    """Three distinct rationals with sum 0, sorted descending; one pair may sit
    10^-k apart."""
    e1 = draw(rationals)
    gap = draw(rationals.filter(lambda g: g != 0) | st.integers(1, 12).map(lambda k: Fraction(1, 10**k)))
    e2 = e1 - gap
    roots = sorted((e1, e2, -(e1 + e2)), reverse=True)
    assume(len(set(roots)) == 3)
    return tuple(roots)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(roots_summing_to_zero())
def test_root_gaps_match_exact_gaps(roots):
    gaps = _root_gaps(curve_from_roots(*roots))
    for got, exact in zip(gaps, exact_gaps(*roots)):
        assert rel_err(Fraction(got), exact) <= Fraction(1, 10**15), (roots, got, exact)


def test_fraction_coefficients_kept_as_given():
    a, b = Fraction(-7, 3), Fraction(5, 27)
    curve = EllipticCurveQ(a, b)
    assert curve.a is a and curve.b is b
    assert EllipticCurveQ(-1, 0).a == Fraction(-1)


def test_tau_is_i_for_lemniscatic_curve():
    assert abs(curve_tau(EllipticCurveQ(-1, 0)).tau - 1j) < 1e-9
    for periods in (periods_agm, periods_quadrature):
        point = tau_normalize(periods(EllipticCurveQ(-1, 0)))
        assert abs(point.tau - 1j) < 1e-9, periods.__name__


def test_scaled_curve_period_ratio():
    base = periods_quadrature(EllipticCurveQ(-1, 0))
    scaled = periods_quadrature(EllipticCurveQ(-4, 0))
    assert abs(scaled.omega1 - base.omega1 / math.sqrt(2)) < 1e-9
    # (a, b) -> (lam^4 a, lam^6 b) scales the roots by lam^2, so the integrand
    # of Gauss's integral by 1/lam at the same nodes: the periods divide by lam.
    for lam in (Fraction(1, 10**6), Fraction(1, 1000), Fraction(1, 100), Fraction(1, 10), 10, 1000):
        scaled = periods_quadrature(EllipticCurveQ(-(lam**4), 0))
        assert abs(scaled.omega1 * float(lam) / base.omega1 - 1) < 1e-14, lam
        assert abs(scaled.omega2 * float(lam) / base.omega2 - 1) < 1e-14, lam


def test_quad_non_convergence_is_typed():
    # 1/x on [0, 1] diverges: the node nearest 0 carries a term that does not
    # shrink, so successive levels never agree before the level cap.
    with pytest.raises(QuadratureNoConvergence):
        complex_periods._quad(lambda x: 1.0 / x, 0.0, 1.0)


def test_quad_refuses_a_tail_past_the_grid():
    # 1/sqrt(x) on [0, 1] is integrable and its levels agree to 3e-14, but the
    # grid ends at x = 2.7e-23, where f is 2e11: the tail past it, about 1e-11,
    # is in no level, so the run is refused rather than returned 1e-11 low.
    with pytest.raises(QuadratureNoConvergence, match="grid's end holds 2.700e-10"):
        complex_periods._quad(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0)
    # Singularities whose integrand is negligible at the grid's end still pass.
    assert complex_periods._quad(math.log, 0.0, 1.0)[0] == pytest.approx(-1.0, rel=1e-15)
    assert complex_periods._quad(math.sqrt, 0.0, 1.0)[0] == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_quad_puts_no_node_on_an_endpoint():
    # A node at x = 1 would raise ZeroDivisionError instead.
    with pytest.raises(QuadratureNoConvergence):
        complex_periods._quad(lambda x: 1.0 / (1.0 - x), 0.0, 1.0)


def test_quad_stop_is_scale_free():
    # The stop is relative, so scaling f by a power of two scales every term,
    # every level and the stop test exactly: the run ends at the same level.
    value, err = complex_periods._quad(lambda x: 1.0 / x, 1.0, 4.0)
    for k in range(-60, 61):
        scale = 2.0**k
        assert complex_periods._quad(lambda x: scale / x, 1.0, 4.0) == (scale * value, scale * err), k


def test_quadrature_matches_scipy_oracle():
    curves = random_three_real_curves(random.Random(2026), 300) + [EllipticCurveQ(-1, 0)]
    worst = 0.0
    for curve in curves:
        lattice = periods_quadrature(curve)
        omega1, omega2 = scipy_periods(curve)
        worst = max(worst, abs(lattice.omega1.real / omega1 - 1), abs(lattice.omega2.imag / omega2 - 1))
    assert worst <= 1e-13


@pytest.mark.parametrize("k", range(2, 8))
def test_quadrature_close_roots_agree_with_agm(k):
    for family in GAP_FAMILIES:
        curve = curve_from_roots(*family(Fraction(1, 10**k)))
        q = periods_quadrature(curve)
        fast = periods_agm(curve)
        assert abs(q.omega1 / fast.omega1 - 1) <= 1e-12, family.__name__
        assert abs(q.omega2 / fast.omega2 - 1) <= 1e-12, family.__name__


@pytest.mark.parametrize("k", range(8, 19))
def test_quadrature_coincident_roots_fail_typed(k):
    # After the Landen step the peak is (gap/3)^(1/4) wide, so the midpoint
    # rule meets its stop within the level cap through a gap of 1e-15, and
    # from 1e-16 on it raises a typed error instead of a wrong value.
    for family in GAP_FAMILIES:
        roots = family(Fraction(1, 10**k))
        if k >= 16:
            with pytest.raises(QuadratureNoConvergence):
                periods_quadrature(curve_from_roots(*roots))
            continue
        q = periods_quadrature(curve_from_roots(*roots))
        omega1, omega2 = mpmath_periods(roots)
        assert rel_err(q.omega1.real, omega1) <= 1e-14, family.__name__
        assert rel_err(q.omega2.imag, omega2) <= 1e-14, family.__name__


def test_midpoint_levels_are_the_grid_midpoints():
    # Levels 0..k of both node tables cover the full grid of 4*3^k midpoints:
    # sin^2 on [0, pi/2] for J, and (1 - tanh(s), (pi/2)*cosh(t)*sech(s)^2) on
    # [0, 3.5] for the catalog, s = (pi/2)*sinh(t).
    for k in range(5):
        cells = 4 * 3**k
        grid = sorted(math.sin((i + 0.5) * math.pi / (2 * cells)) ** 2 for i in range(cells))
        built = sorted(s for level in range(k + 1) for s in complex_periods._midpoint_level(level))
        assert built == pytest.approx(grid, rel=1e-15, abs=0), k
        # With e = exp(-2s): 1 - tanh(s) = 2e/(1 + e), sech(s)^2 = 4e/(1 + e)^2.
        grid = []
        for t in ((i + 0.5) * 3.5 / cells for i in range(cells)):
            e = math.exp(-math.pi * math.sinh(t))
            grid.append((2 * e / (1 + e), 2 * math.pi * math.cosh(t) * e / (1 + e) ** 2))
        built = sorted(pair for level in range(k + 1) for pair in zip(*complex_periods._tanh_sinh_level(level)))
        for column, expected in zip(zip(*built), zip(*sorted(grid))):
            assert column == pytest.approx(expected, rel=1e-13, abs=0), k
    # kappa = 0: the integrand is 1, and J(0) = pi/2 at every level.
    assert complex_periods._gauss_integral(1.0, 1.0) == math.pi / 2
    assert complex_periods._gauss_integral(16.0, 16.0) == math.pi / 8


def test_refused_integral_work_is_bounded():
    # A gap of 1e-16 reads every node up to the level cap and no more, and the
    # cached tables then hold one double per node.
    level = complex_periods._midpoint_level
    level.cache_clear()
    with pytest.raises(QuadratureNoConvergence, match="at 10 levels"):
        complex_periods._gauss_integral(3.0, 1e-16)
    tables = [level(k) for k in range(level.cache_info().currsize)]
    assert len(tables) == complex_periods._LEVELS == 10
    assert sum(map(len, tables)) == 4 * 3**9 == 78732
    assert sum(map(sys.getsizeof, tables)) <= 700_000


def test_refused_catalog_work_is_bounded():
    # 1/x on [0, 1] runs the catalog's rule to the same level cap: the tables
    # then hold the 4*3^9 grid nodes as two doubles each, and f is read at
    # most twice per node, once from each end.
    level = complex_periods._tanh_sinh_level
    level.cache_clear()
    calls = []
    with pytest.raises(QuadratureNoConvergence, match="at 10 levels"):
        complex_periods._quad(lambda x: calls.append(x) or 1.0 / x, 0.0, 1.0)
    tables = [level(k) for k in range(level.cache_info().currsize)]
    assert len(tables) == complex_periods._LEVELS == 10
    assert sum(len(nodes) for nodes, _ in tables) == 4 * 3**9
    assert len(calls) <= 2 * 4 * 3**9
    assert sum(sys.getsizeof(column) for table in tables for column in table) <= 1_300_000


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.floats(min_value=-150, max_value=150), st.floats(min_value=-12, max_value=12))
def test_gauss_integral_matches_mpmath(log_a, log_ratio):
    mpmath = pytest.importorskip("mpmath")
    a = 10.0**log_a
    b = a * 10.0**log_ratio
    with mpmath.workdps(50):
        exact = mpmath.pi / (2 * mpmath.agm(mpmath.sqrt(a), mpmath.sqrt(b)))
    assert rel_err(complex_periods._gauss_integral(a, b), float(exact)) <= 1e-14, (a, b)


@pytest.mark.parametrize("k", range(1, 13))
def test_periods_match_mpmath_near_a_double_root(k):
    for family in GAP_FAMILIES:
        roots = family(Fraction(1, 10**k))
        curve = curve_from_roots(*roots)
        omega1, omega2 = mpmath_periods(roots)
        lattice = periods_agm(curve)
        assert lattice.omega1.imag == 0 and lattice.omega2.real == 0
        assert rel_err(lattice.omega1.real, omega1) <= 1e-14, family.__name__
        assert rel_err(lattice.omega2.imag, omega2) <= 1e-14, family.__name__
        point = curve_tau(curve)
        exact = apply_transform(point.transform, complex(0.0, omega2 / omega1))
        assert abs(point.tau - exact) <= 1e-14 * abs(exact), family.__name__


def agm_64_steps(a, b):
    """The loop agm replaced, kept as its oracle: a stop test below double
    resolution, so it ends on a == b or after all 64 steps."""
    for _ in range(64):
        if abs(a - b) <= 1e-17 * abs(a):
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def test_agm_fixed_point():
    for c in (1e200, 1e-200, 5e-324, math.sqrt(2), 10**200, Fraction(1, 10**200)):
        assert agm(c, c) == float(c) and type(agm(c, c)) is float, c
    with pytest.raises(ValueError):
        agm(-1.0, 2.0)
    with pytest.raises(ValueError):
        agm(1.0, 0.0)


def test_agm_refuses_what_its_steps_cannot_hold():
    # Products of arguments outside [sqrt(float min), sqrt(float max)] leave
    # the normal doubles: these read inf, inf and 2.7e-320 without the check.
    for a, b in ((1e200, 1.0), (1e160, 1e150), (1e-300, 1e-310), (1.0, 1e-155)):
        with pytest.raises(FloatOverflow):
            agm(a, b)
        with pytest.raises(FloatOverflow):
            agm(b, a)
    assert agm(1e308, 1e308) == 1e308
    lo, hi = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)
    assert agm(lo, hi).hex() == agm_64_steps(lo, hi).hex()
    assert 0 < agm(lo, hi) < math.inf
    for bad in (math.nan, math.inf, -math.inf, -0.0):
        with pytest.raises(InvalidInput):
            agm(bad, 1.0)
        with pytest.raises(InvalidInput):
            agm(1.0, bad)
    # Whatever a is, a non-number b is named, not left to a bare TypeError.
    for a in (1e308, 1e-320, 1.0):
        with pytest.raises(InvalidInput) as exc:
            agm(a, "x")
        assert exc.value.arg == "b"


positive_doubles = st.floats(min_value=1e-150, max_value=1e150)


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(positive_doubles, positive_doubles)
def test_agm_matches_64_step_oracle(a, b):
    assert agm(a, b).hex() == agm_64_steps(a, b).hex()


def test_agm_agrees_with_quadrature_on_random_curves():
    rng = random.Random(2024)
    for curve in random_three_real_curves(rng, 20):
        q = periods_quadrature(curve)
        fast = periods_agm(curve)
        assert abs(q.omega1 - fast.omega1) < 1e-9, curve
        assert abs(q.omega2 - fast.omega2) < 1e-9, curve


def test_lattice_orientation():
    rng = random.Random(31)
    for curve in random_three_real_curves(rng, 10):
        lattice = periods_agm(curve)
        assert (lattice.omega2 / lattice.omega1).imag > 0
        assert lattice.omega1.real > 0


def test_complex_root_curve_rejected():
    with pytest.raises(ComplexRoots):
        periods_agm(EllipticCurveQ(0, 1))
    with pytest.raises(ComplexRoots):
        periods_quadrature(EllipticCurveQ(1, 1))


KEPT_POOL = {
    "lemniscatic": EllipticCurveQ(-1, 0),
    "three roots": EllipticCurveQ(-7, 6),
    "equal copy": EllipticCurveQ(-7, 6),  # equal to the one above, but another object
    "complex roots": EllipticCurveQ(1, 1),
    "subnormal a": EllipticCurveQ(Fraction(-1, 10**310), 0),
}
KEPT_CALLS = {f.__name__: f for f in (periods_quadrature, periods_agm, curve_tau, _root_gaps)}


def outcome(function, curve):
    """The value of function(curve), or the type of the typed error it raises."""
    try:
        return function(curve)
    except (ComplexRoots, FloatOverflow) as exc:
        return type(exc)


def test_the_period_functions_of_one_curve_share_one_lattice(monkeypatch):
    # The root gaps once and the AGM pair once per curve, whichever function
    # reads the curve first; a second curve computes its own.
    calls = []
    for name in ("_root_gaps", "_agm"):
        real = getattr(complex_periods, name)
        monkeypatch.setattr(complex_periods, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    monkeypatch.setattr(complex_periods, "_LAST", (None, None))
    for first in (curve_tau, periods_agm, periods_quadrature):
        curve = EllipticCurveQ(-7, 6)
        first(curve)
        periods_quadrature(curve), periods_agm(curve), curve_tau(curve)
        assert sorted(calls) == ["_agm", "_agm", "_root_gaps"], first
        calls.clear()


def test_a_curve_that_raises_leaves_the_kept_lattice_as_it_was(monkeypatch):
    monkeypatch.setattr(complex_periods, "_LAST", (None, None))
    kept = KEPT_POOL["three roots"]
    periods_agm(kept)
    entry = complex_periods._LAST
    assert entry[0] is kept
    for name in ("complex roots", "subnormal a"):
        for function in (periods_quadrature, periods_agm, curve_tau):
            assert outcome(function, KEPT_POOL[name]) in (ComplexRoots, FloatOverflow)
            assert complex_periods._LAST is entry, (name, function)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(KEPT_CALLS)), st.sampled_from(sorted(KEPT_POOL))), max_size=12))
def test_kept_lattice_matches_a_fresh_computation(calls):
    fresh = {}
    for function in KEPT_CALLS:
        for name in KEPT_POOL:
            complex_periods._LAST = (None, None)
            fresh[function, name] = outcome(KEPT_CALLS[function], KEPT_POOL[name])
    complex_periods._LAST = (None, None)
    for function, name in calls:
        assert outcome(KEPT_CALLS[function], KEPT_POOL[name]) == fresh[function, name], (function, name)
        kept, lattice = complex_periods._LAST
        if kept is not None:
            kept_name = next(pooled_name for pooled_name, pooled in KEPT_POOL.items() if pooled is kept)
            omega1, omega2, _ = fresh["periods_agm", kept_name]
            assert lattice == (*fresh["_root_gaps", kept_name], omega1.real, omega2.imag), kept_name


def test_kept_lattice_under_two_threads():
    # Each thread alternates two curves, out of step with the other, so each
    # keeps replacing the entry that the other is about to read.
    curves = [KEPT_POOL["lemniscatic"], KEPT_POOL["three roots"]]
    serial = {}
    for curve in curves:
        complex_periods._LAST = (None, None)
        serial[id(curve)] = (periods_quadrature(curve), periods_agm(curve), curve_tau(curve))
    wrong = []

    def run(offset):
        for i in range(400):
            curve = curves[(i + offset) % 2]
            got = (periods_quadrature(curve), periods_agm(curve), curve_tau(curve))
            if got != serial[id(curve)]:
                wrong.append((offset, i, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(offset,)) for offset in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_tau_normalize_examples():
    reduced = tau_normalize(PeriodLattice(1 + 0j, 1j, "agm"))
    assert reduced.tau == 1j and reduced.transform == ((1, 0), (0, 1))

    shifted = tau_normalize(PeriodLattice(1 + 0j, 7 + 1j, "agm"))
    assert abs(shifted.tau - 1j) < 1e-12
    assert shifted.transform == ((1, -7), (0, 1))

    deep = tau_normalize(PeriodLattice(1 + 0j, 0.1 + 0.1j, "agm"))
    assert abs(deep.tau) >= 1 - 1e-12 and abs(deep.tau.real) <= 0.5 + 1e-12
    back = apply_transform(invert_transform(deep.transform), deep.tau)
    assert abs(back - (0.1 + 0.1j)) < 1e-10


def test_tau_normalize_roundtrip_random():
    rng = random.Random(17)
    for _ in range(50):
        tau0 = complex(rng.uniform(-5, 5), rng.uniform(0.01, 5))
        point = tau_normalize(PeriodLattice(1 + 0j, tau0, "agm"))
        det = (
            point.transform[0][0] * point.transform[1][1]
            - point.transform[0][1] * point.transform[1][0]
        )
        assert det == 1
        assert point.tau.imag > 0
        assert abs(point.tau) >= 1 - 1e-9 and abs(point.tau.real) <= 0.5 + 1e-9
        back = apply_transform(invert_transform(point.transform), point.tau)
        assert abs(back - tau0) < 1e-9 * max(1.0, abs(tau0))


def test_tau_normalize_boundary_ties():
    # Re = -1/2 is shifted to +1/2; unit-circle points end with Re >= 0.
    half = tau_normalize(PeriodLattice(1 + 0j, complex(-0.5, 2.0), "agm"))
    assert abs(half.tau.real - 0.5) < 1e-12
    circle = tau_normalize(PeriodLattice(1 + 0j, complex(-math.cos(math.pi / 3), math.sin(math.pi / 3)), "agm"))
    assert circle.tau.real >= -1e-12


def test_tau_normalize_moves_the_left_unit_circle_to_the_right():
    # e^(i 100 deg) is reduced but lies left of Re = 0 on the unit circle; S sends it to e^(i 80 deg).
    point = tau_normalize(PeriodLattice(1 + 0j, cmath.exp(1j * math.radians(100)), "agm"))
    assert abs(point.tau - cmath.exp(1j * math.radians(80))) < 1e-15
    assert point.transform == ((0, -1), (1, 0))


def test_tau_normalize_conjugates_lower_half_plane():
    point = tau_normalize(PeriodLattice(1 + 0j, 0.3 - 1.7j, "agm"))
    assert point.tau.imag > 0


def test_degenerate_lattice():
    with pytest.raises(DegenerateLattice):
        tau_normalize(PeriodLattice(1 + 0j, 2.0 + 1e-15j, "agm"))


def test_degenerate_lattice_of_a_ratio_that_is_not_finite():
    for omega1, omega2 in ((1 + 0j, complex(math.nan, 1.0)), (1 + 0j, complex(math.inf, 1.0)), (1e-310 + 0j, 1e10j)):
        with pytest.raises(DegenerateLattice):
            tau_normalize(PeriodLattice(omega1, omega2, "agm"))


@pytest.mark.parametrize("bad", [None, "1j", True, numpy.True_, Decimal("2.5"), numpy.array([1j, 2j]), 10**400,
                                 Fraction(10**400)])
@pytest.mark.parametrize("place", ["omega1", "omega2"])
def test_lattice_generators_follow_one_rule(place, bad):
    # A lattice is a plain record, so tau_normalize checks what it reads: a
    # None or a str once escaped as TypeError, an array as TypeError or
    # ValueError, a value past the doubles as OverflowError, and True read as 1.
    lattice = PeriodLattice(**{"omega1": 1 + 0j, "omega2": 1j, place: bad}, method="agm")
    with pytest.raises(InvalidInput) as info:
        tau_normalize(lattice)
    assert info.value.arg == "lattice"


@pytest.mark.parametrize("good", [2, 2.0, Fraction(2), numpy.float64(2), numpy.int64(2), numpy.complex128(2)])
def test_lattice_generators_take_every_number_within_the_doubles(good):
    assert tau_normalize(PeriodLattice(good, 1j, "agm")) == tau_normalize(PeriodLattice(2 + 0j, 1j, "agm"))
    assert tau_normalize(PeriodLattice(1 + 0j, good * 1j, "agm")).tau == 2j


def test_lattice_generators_are_read_as_converted(monkeypatch):
    # Fraction(1, 10**400) is nonzero but converts to 0.0, which is the lattice's degeneracy.
    with pytest.raises(DegenerateLattice):
        tau_normalize(PeriodLattice(Fraction(1, 10**400), 1j, "agm"))
    # curve_tau reads the AGM's own complex generators, past the rule.
    monkeypatch.setattr(complex_periods, "check_complex", None)
    assert abs(curve_tau(EllipticCurveQ(-1, 0)).tau - 1j) < 1e-9


def test_scaling_covariance():
    rng = random.Random(4)
    for curve in random_three_real_curves(rng, 5):
        base = curve_tau(curve).tau
        for lam in (2, 3):
            scaled = EllipticCurveQ(curve.a * lam**4, curve.b * lam**6)
            assert abs(curve_tau(scaled).tau - base) < 1e-10, (curve, lam)


def test_legendre_curve_shift_is_exact():
    curve = legendre_curve(Fraction(1, 2))
    assert curve.a == Fraction(-1, 4) and curve.b == 0


@settings(max_examples=200, deadline=None)
@given(st.fractions().filter(lambda t: t not in (0, 1)))
def test_legendre_curve_matches_the_fraction_formula(t):
    # legendre_curve builds a and b from t's numerator and denominator.
    curve, oracle = legendre_curve(t), EllipticCurveQ(-(t * t - t + 1) / 3, -(t + 1) * (t - 2) * (2 * t - 1) / 27)
    assert curve == oracle and repr(curve) == repr(oracle)


def test_period_map_examples():
    rows = period_map_legendre([Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)])
    assert [t for t, _ in rows] == [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    by_t = dict(rows)
    assert abs(by_t[Fraction(1, 2)].tau - 1j) < 1e-9
    assert abs(by_t[Fraction(1, 4)].tau - by_t[Fraction(3, 4)].tau) < 1e-9


def test_period_map_symmetry_t_vs_one_minus_t():
    for t in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
        a = curve_tau(legendre_curve(t)).tau
        b = curve_tau(legendre_curve(1 - t)).tau
        assert abs(a - b) < 1e-9, t


def test_period_map_edge_cases():
    assert period_map_legendre([]) == []
    with pytest.raises(DegenerateFamilyMember):
        period_map_legendre([Fraction(0)])
    with pytest.raises(DegenerateFamilyMember):
        legendre_curve(Fraction(1))


def test_catalog_row_count_and_values():
    rows = numeric_periods_catalog(2)
    assert [r.name for r in rows] == ["pi", "2*pi", "log 2"]
    assert abs(rows[0].value - math.pi) < 1e-10
    assert abs(rows[1].value - 2 * math.pi) < 1e-10
    assert all(r.error_estimate < 1e-10 for r in rows)


def test_catalog_log_against_series_oracle():
    # Alternating harmonic series, accelerated by iterated averaging of the
    # partial sums (exact rational arithmetic, error ~ 2^-60).
    partials = []
    acc = Fraction(0)
    for k in range(1, 61):
        acc += Fraction((-1) ** (k + 1), k)
        partials.append(acc)
    while len(partials) > 1:
        partials = [(partials[i] + partials[i + 1]) / 2 for i in range(len(partials) - 1)]
    oracle = float(partials[0])
    rows = numeric_periods_catalog(2)
    assert abs(rows[2].value - oracle) < 1e-10


def test_catalog_log_entries_cap():
    rows = numeric_periods_catalog(21)
    assert len(rows) == 22  # pi, 2*pi, and twenty logarithms
    assert rows[-1].name == "log 21"
    for row in rows[2:]:
        n = int(row.name.split()[1])
        assert abs(row.value - math.log(n)) < 1e-10
    with pytest.raises(InvalidInput) as excinfo:
        numeric_periods_catalog(22)
    assert excinfo.value.arg == "n_max"


def test_catalog_values_match_math():
    exact = {"pi": math.pi, "2*pi": 2 * math.pi} | {f"log {n}": math.log(n) for n in range(2, 22)}
    rows = numeric_periods_catalog(21)
    assert [r.name for r in rows] == list(exact)
    for row in rows:
        assert abs(row.value - exact[row.name]) <= 1e-14, row.name


def test_catalog_values_match_mpmath():
    # Every value is within 4e-16 of mpmath and prints as mpmath's value does.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = [mpmath.pi, 2 * mpmath.pi] + [mpmath.log(n) for n in range(2, 22)]
        for row, value in zip(numeric_periods_catalog(21), exact, strict=True):
            assert abs(row.value - value) <= 4e-16 * value, row.name
            assert "%.15g" % row.value == "%.15g" % float(value), row.name


def test_catalog_bounds():
    with pytest.raises(ValueError):
        numeric_periods_catalog(1)
    with pytest.raises(ValueError):
        numeric_periods_catalog(10**6 + 1)
