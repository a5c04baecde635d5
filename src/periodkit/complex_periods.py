"""Period lattices of rational elliptic curves, tau-invariants, the Legendre
family period map, and the catalog of elementary numeric periods.

Two evaluations of the lattice generators are provided: quadrature of the
defining integrals (the reference definition) and the arithmetic-geometric
mean (the fast path).  For y^2 = f(x) with three real roots e1 > e2 > e3 and
f monic:

    omega1 = 2 * Int_{e1}^{inf} dx / sqrt(f(x))        (real, positive)
    omega2 = 2i * Int_{e2}^{e1} dx / sqrt(-f(x))       (purely imaginary)

The substitutions x = e1 + (e1 - e2)*tan^2(theta) and
x = e2 + (e1 - e2)*sin^2(theta) remove the endpoint singularities exactly and
turn both into Gauss's integral (Cox, "The arithmetic-geometric mean of
Gauss", 1984)

    I(a, b) = Int_0^{pi/2} dtheta / sqrt(a*cos^2(theta) + b*sin^2(theta)),

omega1 = 4*I(e1 - e3, e1 - e2) and omega2 = 4i*I(e1 - e3, e2 - e3).  One
Landen step, tan(theta) = lam*tan(psi/2) with lam^2 = sqrt(a/b), gives
I(a, b) = J(kappa)/(a*b)^(1/4), J(kappa) = Int_0^{pi/2} dpsi/sqrt(1 + kappa*sin^2(psi)),
g = sqrt(min(a, b)/max(a, b)), kappa = (1 - g)^2/(4g): an analytic, even,
pi-periodic integrand, on which the midpoint rule converges geometrically
(Trefethen and Weideman, "The exponentially convergent trapezoidal rule",
2014); near a double root its peak is (b/a)^(1/4) wide, not (b/a)^(1/2).
The AGM evaluates the same I(a, b) = pi / (2*agm(sqrt(a), sqrt(b))), so the
AGM-vs-quadrature check tests Gauss's identity, not the gaps or the
substitutions; tests/ checks those against scipy on the raw integrals.  Both
paths read only the three root gaps, and _root_gaps computes them in closed
form from the exact coefficients, never as differences of computed roots:
near a double root every gap keeps full relative precision.  Only the
3-real-root case is supported; the complex-root AGM branch choice is out of
scope.

J and the catalog's integrals run on one grid under one loop, _refine; the
catalog's rule, tanh-sinh, is that rule in t after x = tanh((pi/2)*sinh(t)).
"""

import functools
import math
import sys
from array import array
from collections.abc import Callable, Sequence
from fractions import Fraction

from ._frozen import Frozen, check_sequence
from .errors import (
    ComplexRoots,
    DegenerateFamilyMember,
    DegenerateLattice,
    FloatOverflow,
    InvalidInput,
    QuadratureNoConvergence,
    SingularCurve,
    check_complex,
    check_int,
    check_real,
    check_record,
    shown,
)

_LEVELS = 10  # levels of every integral: at most 4*3^9 = 78732 grid nodes in all, 630 KB of sin^2 table
_T_MAX = 3.5  # the catalog's t-interval [0, _T_MAX]: 1 - tanh((pi/2)*sinh(3.5)) is about 5e-23
_TAU_CAP = 10_000
_AGM_LO, _AGM_HI = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)  # where agm's steps are exact


def _check_rational(arg: str, value) -> Fraction:
    """An exact rational argument must be an int (not a bool) or a Fraction; a
    float, a str or None is refused, not converted.  Returns it as a Fraction."""
    if isinstance(value, Fraction):
        return value  # immutable, so no copy
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInput(arg, f"need an int or a Fraction, got {shown(value)}")
    return Fraction(value)


def _discriminant_numerator(a: Fraction, b: Fraction) -> tuple[int, int]:
    """(D, W): D is -4a^3 - 27b^2 times den(a)^3 * den(b)^2, the discriminant's
    exact sign in integer arithmetic, since that factor is positive; W is its
    first term, -4*num(a)^3*den(b)^2."""
    w = -4 * a.numerator**3 * b.denominator**2
    return w - 27 * b.numerator**2 * a.denominator**3, w


class EllipticCurveQ(Frozen):
    """y^2 = x^3 + a*x + b with exact rational a, b; 4a^3 + 27b^2 != 0."""

    __slots__ = ()
    _fields = ("a", "b")

    def __new__(cls, a, b):
        curve = tuple.__new__(cls, (_check_rational("a", a), _check_rational("b", b)))
        if _discriminant_numerator(*curve)[0] == 0:
            raise SingularCurve(f"4a^3 + 27b^2 = 0 for {shown(curve)}")
        return curve

    @property
    def discriminant(self) -> Fraction:
        """Cubic discriminant -4a^3 - 27b^2; its exact sign decides the root split."""
        return Fraction(_discriminant_numerator(self.a, self.b)[0], self.a.denominator**3 * self.b.denominator**2)

    def __repr__(self):
        return f"EllipticCurveQ(a={self.a}, b={self.b})"


class PeriodLattice(Frozen):
    """Generators with omega1 real > 0 and Im(omega2/omega1) > 0."""

    __slots__ = ()
    _fields = ("omega1", "omega2", "method")


class TauPoint(Frozen):
    """Reduced tau in the closed fundamental domain, plus the SL2(Z) word.

    transform = ((a, b), (c, d)) with det 1 satisfies
    tau = (a*tau0 + b) / (c*tau0 + d) for the starting ratio tau0.
    """

    __slots__ = ()
    _fields = ("tau", "transform")


def _root_gaps(curve: EllipticCurveQ) -> tuple[float, float, float]:
    """(e1 - e2, e1 - e3, e2 - e3) for the roots e1 > e2 > e3 of x^3 + a*x + b.

    With the roots 2*sqrt(-a/3)*cos((theta + 2*pi*k)/3), the gaps are
    2*sqrt(-a) times sin(phi/3), sin((pi - phi)/3) and sin((pi + phi)/3),
    phi = min(theta, pi - theta); the last is e1 - e3, and the small one is
    e1 - e2 when b > 0, else e2 - e3.  sin^2(phi) = D/W and cos^2(phi) =
    (W - D)/W for the integers (D, W) = _discriminant_numerator(a, b), so each
    is one correctly rounded division and no gap comes from a difference of
    nearby roots; -a and the sign of b are read from the numerators.

    Raises FloatOverflow when |a| is beyond the double range, ComplexRoots
    when D <= 0 (one real root), then FloatOverflow when |a|, sin^2(phi) or
    the smallest gap is below the normal double range.
    """
    a, b = curve.a, curve.b
    try:
        minus_a = -a.numerator / a.denominator
    except OverflowError:
        raise FloatOverflow("|a| is beyond the double range") from None
    d, w = _discriminant_numerator(a, b)
    if d <= 0:
        raise ComplexRoots(f"{shown(curve)} has one real root; period support needs three")
    sin2 = d / w
    phi = math.atan2(math.sqrt(sin2), math.sqrt((w - d) / w))
    scale = 2.0 * math.sqrt(minus_a)
    small = scale * math.sin(phi / 3.0)
    if min(minus_a, sin2, small) < sys.float_info.min:
        raise FloatOverflow("|a| or a root gap is below the normal double range")
    middle = scale * math.sin((math.pi - phi) / 3.0)
    wide = scale * math.sin((math.pi + phi) / 3.0)
    return (small, wide, middle) if b.numerator > 0 else (middle, wide, small)


def _new_midpoints(level: int, width: float) -> list[float]:
    """The midpoints a level adds on [0, width]: all 4 at level 0, then those of
    cells i mod 3 != 1 of 4*3^level, as the old midpoints stay nodes."""
    cells = 4 * 3**level
    h = width / cells
    return [(i + 0.5) * h for i in range(cells) if level == 0 or i % 3 != 1]


def _refine(level_sum: Callable[[int], float], h: float, edge: float = 0.0) -> tuple[float, float]:
    """The one refinement loop, on the grid of _new_midpoints with cells of
    width h at level 0: total = total/3 + h*level_sum(level), h a third of the
    last at each level.  Stops when two levels differ by at most 1e-13*|total|,
    whatever the scale of the integrand, and returns (total, that difference).
    edge is the integrand at the end of a truncated grid (0 on a whole
    period), whose tail no level shows: once two levels agree, it too must be
    within 1e-13*|total|.  Raises QuadratureNoConvergence if it is not, or if
    no two levels agree within _LEVELS levels.  Scaling the integrand by a
    power of two scales every level exactly, so the run stops at the same level."""
    total = h * level_sum(0)
    for level in range(1, _LEVELS):
        h /= 3.0
        previous, total = total, total / 3.0 + h * level_sum(level)
        err = abs(total - previous)
        if err <= 1e-13 * abs(total):
            if edge <= 1e-13 * abs(total):
                return total, err
            break
    raise QuadratureNoConvergence(
        f"levels differ by {err:.3e} and the grid's end holds {edge:.3e} "
        f"on a total of {total:.3e} at {level + 1} levels"
    )


@functools.lru_cache(maxsize=None)
def _midpoint_level(level: int) -> array:
    """sin^2 at the midpoints a level adds on [0, pi/2], one double per node."""
    return array("d", [math.sin(x) ** 2 for x in _new_midpoints(level, 0.5 * math.pi)])


def _gauss_integral(a: float, b: float) -> float:
    """I(a, b) for a, b > 0 as J(kappa)/(a*b)^(1/4) (module docstring), J by the
    midpoint rule on [0, pi/2] under _refine; (a*b)^(1/4) is taken as
    sqrt(sqrt(a))*sqrt(sqrt(b)), so nothing overflows."""
    sqrt = math.sqrt
    g = sqrt(min(a, b) / max(a, b))
    kappa = (1.0 - g) ** 2 / (4.0 * g)

    def level_sum(level: int) -> float:
        return math.fsum([1.0 / sqrt(1.0 + kappa * s) for s in _midpoint_level(level)])

    return _refine(level_sum, 0.125 * math.pi)[0] / (sqrt(sqrt(a)) * sqrt(sqrt(b)))


def _tanh_sinh_node(t: float) -> tuple[float, float]:
    """With s = (pi/2)*sinh(t), the node 1 - tanh(s), the distance from an
    endpoint of [-1, 1], and its weight dx/dt = (pi/2)*cosh(t)*(1 - tanh(s)^2)."""
    x = 2.0 / (math.exp(math.pi * math.sinh(t)) + 1.0)
    return x, 0.5 * math.pi * math.cosh(t) * x * (2.0 - x)


@functools.lru_cache(maxsize=None)
def _tanh_sinh_level(level: int) -> tuple[array, array]:
    """The nodes and the weights at the midpoints t a level adds on [0, _T_MAX].
    Every node is kept: two doubles each, 1.26 MB once a refused integral has
    read all _LEVELS levels."""
    nodes, weights = zip(*map(_tanh_sinh_node, _new_midpoints(level, _T_MAX)))
    return array("d", nodes), array("d", weights)


def _quad(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Tanh-sinh quadrature (Takahasi and Mori, 1974) of f, smooth on [lo, hi],
    under _refine: (value, error estimate).  Each node is mirrored to both
    ends; a point that rounds onto its endpoint is skipped, so f is never
    evaluated at lo or hi.  The integrand at t = _T_MAX is _refine's edge:
    1/sqrt(x) on [0, 1] is 2e11 there, and its lost tail of 1e-11 is refused."""
    d = 0.5 * (hi - lo)

    def level_sum(level: int) -> float:
        pairs = zip(*_tanh_sinh_level(level))
        return d * math.fsum([w * f(y) for x, w in pairs for y in (lo + d * x, hi - d * x) if lo < y < hi])

    x, w = _tanh_sinh_node(_T_MAX)
    edge = d * w * math.fsum([abs(f(y)) for y in (lo + d * x, hi - d * x) if lo < y < hi])
    return _refine(level_sum, 0.25 * _T_MAX, edge)


def periods_quadrature(curve: EllipticCurveQ) -> PeriodLattice:
    """Lattice generators straight from the defining integrals (the oracle),
    on the root gaps of the curve's one `_lattice`."""
    check_record("curve", curve, EllipticCurveQ)
    d12, d13, d23 = _lattice(curve)[:3]
    omega1 = 4.0 * _gauss_integral(d13, d12)
    omega2 = 4.0 * _gauss_integral(d13, d23)
    return PeriodLattice(complex(omega1, 0.0), complex(0.0, omega2), "quadrature")


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of positive reals, iterated to its
    floating-point fixed point: a == b, or a step that returns (a, b) unchanged.

    Past it the 64-step cap would change nothing.  Every iterate lies between
    a and b, so every product a*b is a normal double if and only if both lie in
    [sqrt(float min), sqrt(float max)].  Outside it agm(a, a) is float(a) and a != b
    raises FloatOverflow; a value <= 0 or one that breaks the real rule raises InvalidInput.
    """
    check_real("a", a)
    check_real("b", b)
    if not (a > 0 and b > 0):
        arg = "b" if a > 0 else "a"
        raise InvalidInput(arg, f"agm needs positive finite arguments, got ({shown(a)}, {shown(b)})")
    if not (_AGM_LO <= a <= _AGM_HI and _AGM_LO <= b <= _AGM_HI):
        if a != b:
            raise FloatOverflow(f"agm({shown(a)}, {shown(b)}) leaves the range where its steps are exact")
        return float(a)
    return _agm(a, b)


def _agm(a: float, b: float) -> float:
    """`agm` of two reals already in [sqrt(float min), sqrt(float max)], unchecked."""
    for _ in range(64):
        if a == b:
            break
        step = 0.5 * (a + b), math.sqrt(a * b)
        if step == (a, b):
            break
        a, b = step
    return 0.5 * (a + b)


_LAST = (None, None)  # (curve, its _lattice): the last curve read, held so that no other object takes its id


def _lattice(curve: EllipticCurveQ) -> tuple[float, float, float, float, float]:
    """(d12, d13, d23, omega1, omega2): the `_root_gaps` of the curve and its
    generators through the AGM, I(a, b) = pi/(2*agm(sqrt(a), sqrt(b))).  Every
    gap lies between float min and 2.7e154, so their square roots lie in the
    range where agm's steps are exact, and `_agm` takes them unchecked.

    The lattice of the last curve read is kept, keyed by identity: a curve is
    immutable, so the periods of one curve share one computation, and an equal
    but distinct curve recomputes the same floats.  Only a lattice computed in
    full is kept, in one rebinding, so a thread can miss but never read a mixed
    entry, and a curve that raises leaves the entry as it was."""
    global _LAST
    kept, lattice = _LAST
    if kept is not curve:
        d12, d13, d23 = _root_gaps(curve)
        s13 = math.sqrt(d13)
        lattice = d12, d13, d23, 2.0 * math.pi / _agm(s13, math.sqrt(d12)), 2.0 * math.pi / _agm(s13, math.sqrt(d23))
        _LAST = curve, lattice
    return lattice


def periods_agm(curve: EllipticCurveQ) -> PeriodLattice:
    """Same generators through the AGM, read off the curve's one `_lattice`;
    agrees with quadrature within 1e-9."""
    check_record("curve", curve, EllipticCurveQ)
    omega1, omega2 = _lattice(curve)[3:]
    return PeriodLattice(complex(omega1, 0.0), complex(0.0, omega2), "agm")


def tau_normalize(lattice: PeriodLattice) -> TauPoint:
    """SL2(Z) reduction of omega2/omega1 into the standard fundamental domain.

    Ties on the boundary are broken to Re(tau) in [0, 1/2], and to
    Re(tau) >= 0 on the unit circle.  Each move, a left factor T^-n, S or T,
    acts on the rows of the transform.  Each generator must be a complex
    number within the doubles; a NaN or infinite part makes the lattice degenerate.
    """
    check_record("lattice", lattice, PeriodLattice)
    return _tau_normalize(check_complex("lattice", lattice.omega1), check_complex("lattice", lattice.omega2))


def _tau_normalize(omega1: complex, omega2: complex) -> TauPoint:
    """`tau_normalize` of two generators already complex, unchecked."""
    if omega1 == 0:
        raise DegenerateLattice("omega1 vanishes")
    tau = omega2 / omega1
    if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
        raise DegenerateLattice(f"omega2/omega1 = {tau} is not finite")
    if abs(tau.imag) < 1e-13:
        raise DegenerateLattice(f"Im(omega2/omega1) = {tau.imag:.3e} is numerically zero")
    if tau.imag < 0:
        tau = tau.conjugate()
    a, b, c, d = 1, 0, 0, 1
    for _ in range(_TAU_CAP):
        shift = math.floor(tau.real + 0.5)
        if shift != 0:
            tau -= shift
            a, b = a - shift * c, b - shift * d
        if abs(tau) < 1.0 - 1e-15:
            tau = -1.0 / tau
            a, b, c, d = -c, -d, a, b
        else:
            break
    else:
        raise DegenerateLattice(f"reduction did not terminate within {_TAU_CAP} steps")
    # Boundary conventions.
    if abs(tau.real + 0.5) < 1e-12:
        tau += 1.0
        a, b = a + c, b + d
    if abs(abs(tau) - 1.0) < 1e-12 and tau.real < -1e-12:
        tau = -1.0 / tau
        a, b, c, d = -c, -d, a, b
    return TauPoint(tau, ((a, b), (c, d)))


def curve_tau(curve: EllipticCurveQ) -> TauPoint:
    """`tau_normalize` of the AGM generators of the curve's one `_lattice`."""
    check_record("curve", curve, EllipticCurveQ)
    omega1, omega2 = _lattice(curve)[3:]
    return _tau_normalize(complex(omega1, 0.0), complex(0.0, omega2))


def legendre_curve(t: Fraction) -> EllipticCurveQ:
    """y^2 = x(x-1)(x-t) in depressed form: the exact shift x -> x + (1+t)/3
    kills the x^2 term of x^3 - (1+t)x^2 + tx."""
    t = _check_rational("t", t)
    if t == 0 or t == 1:
        raise DegenerateFamilyMember(f"t = {t} is a nodal member of the family")
    n, d = t.numerator, t.denominator  # a and b over t = n/d's own integers, one normalisation each
    a = Fraction(-(n * n - n * d + d * d), 3 * d * d)
    return EllipticCurveQ(a, Fraction(-(n + d) * (n - 2 * d) * (2 * n - d), 27 * d**3))


def period_map_legendre(t_values: Sequence[Fraction]) -> list[tuple[Fraction, TauPoint]]:
    """Reduced tau(t) for the Legendre family members, sorted by t."""
    check_sequence("t_values", t_values)
    ts = sorted(_check_rational("t", t) for t in t_values)
    return [(t, curve_tau(legendre_curve(t))) for t in ts]


class CatalogEntry(Frozen):
    """One elementary numeric period with its defining quadruple of variety,
    divisor, form and domain (Kontsevich and Zagier, "Periods", 2001)."""

    __slots__ = ()
    _fields = ("name", "value", "error_estimate", "variety", "divisor", "form", "domain")


def numeric_periods_catalog(n_max: int) -> list[CatalogEntry]:
    """pi, 2*pi (the residue period of dz/z around a square) and log n for n = 2..n_max (n_max <= 21).

    Every value comes out of _refine, the periods' own loop, never a math-library
    constant, so the catalog doubles as an end-to-end check of the integration path.
    """
    check_int("n_max", n_max, lo=2, hi=21)
    rows = [
        # Int_{-1}^{1} dx/sqrt(1-x^2): fold to [0, 1] and substitute x = 1 - u^2.
        ("pi", lambda u: 4.0 / math.sqrt(2.0 - u * u), 0.0, 1.0, "unit circle x^2 + y^2 = 1", "(none)", "dx/y",
         "arc y >= 0 traversed from x = -1 to x = 1, both halves"),
        # Im of dz/z around the square: each side, rotated to z = 1 + it, gives dt/(1 + t^2).
        ("2*pi", lambda t: 4.0 / (1.0 + t * t), -1.0, 1.0, "punctured affine line, coordinate z != 0", "(none)",
         "dz/z (residue period 2*pi*i; imaginary part tabulated)",
         "boundary of the square with corners +-1 +- i, counterclockwise"),
    ] + [
        (f"log {n}", lambda x: 1.0 / x, 1.0, float(n), "punctured affine line, coordinate x != 0", f"{{1, {n}}}",
         "dx/x", f"segment [1, {n}]")
        for n in range(2, n_max + 1)
    ]
    return [CatalogEntry(name, *_quad(f, lo, hi), *quadruple) for name, f, lo, hi, *quadruple in rows]
