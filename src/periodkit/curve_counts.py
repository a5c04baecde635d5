"""Point counts of Weierstrass curves over F_p and F_{p^2}, trace defects,
local zeta numerators, and the Jacobi-sum route to a_p for y^2 = x^3 - x.

Counts are projective (the single point at infinity is always included),
so N = p + 1 - a_p holds without case analysis.
"""

import math

from ._frozen import Frozen
from .errors import InvariantFailed, SingularCurve, UnsupportedDegree, check_int, check_record, shown
from .finite_field import _check_prime


class WeierstrassCurveFp(Frozen):
    """y^2 = x^3 + a*x + b over F_p, p prime >= 5; nonsingularity enforced."""

    __slots__ = ()
    _fields = ("p", "a", "b")

    def __new__(cls, p: int, a: int, b: int):
        _check_prime(p, least=5)
        check_int("a", a)
        check_int("b", b)
        a %= p
        b %= p
        if (4 * a * a * a + 27 * b * b) % p == 0:
            raise SingularCurve(f"4a^3 + 27b^2 = 0 mod {p} for (a, b) = ({a}, {b})")
        return tuple.__new__(cls, (p, a, b))


class CountResult(Frozen):
    """Projective point count and its trace defect a_p = p + 1 - N."""

    __slots__ = ()
    _fields = ("n_points", "a_p")


class ZetaData(Frozen):
    """Reciprocal roots of the local zeta numerator 1 - a_p*T + p*T^2."""

    __slots__ = ()
    _fields = ("a_p", "alpha", "beta")


def _add(P, Q, A: int, p: int):
    """P + Q on y^2 = x^3 + A*x + B over F_p; points are (x, y) tuples, None is O."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + A) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def _mul(k: int, P, A: int, p: int):
    """k*P for k >= 0 by double-and-add."""
    R = None
    while k:
        if k & 1:
            R = _add(R, P, A, p)
        P = _add(P, P, A, p)
        k >>= 1
    return R


def _order_multiples(P, lo: int, hi: int, A: int, p: int) -> set[int]:
    """Every m in [lo, hi] with m*P = O, by baby-step giant-step.

    Baby steps j*P, 0 <= j < s, s = isqrt(hi - lo) + 1; if one of them is O
    the order of P is the first such j.  Otherwise they are distinct, a window
    of s consecutive m holds at most one multiple of the order, and the giant
    steps (lo + i*s)*P find it as the baby step j with (lo + i*s)*P = -j*P.
    """
    s = math.isqrt(hi - lo) + 1
    baby = {}
    R = None
    for j in range(s):
        if R is None and j:
            return set(range(-(-lo // j) * j, hi + 1, j))
        baby[R] = j
        R = _add(R, P, A, p)
    giant, R = R, _mul(lo, P, A, p)
    found = set()
    for base in range(lo, hi + 1, s):
        j = baby.get(R if R is None else (R[0], -R[1] % p))
        if j is not None and base + j <= hi:
            found.add(base + j)
        R = _add(R, giant, A, p)
    return found


def count_points(curve: WeierstrassCurveFp) -> CountResult:
    """N = #E(F_p) by Shanks-Mestre: orders of a few points pin N down in the
    Hasse interval |p + 1 - N| <= 2 sqrt(p).

    The walk visits x0 = 0, 1, 2, ... and tallies 1 + chi_2(v), v = f(x0).  For
    v != 0, (v*x0, v^2) lies on E_v: y^2 = x^3 + a v^2 x + b v^3, which is E
    when v is a square and its quadratic twist, of order 2p + 2 - N, when not;
    every m in the interval with m*(v*x0, v^2) = O cuts down the candidates.
    The walk stops at one candidate, or at x0 = p - 1, where the tally is the
    full count.  For p > 229, E or its twist has a point whose order has one
    multiple in the interval (Mestre's theorem); in practice a few points do.
    No table is built, so every prime below 2**31 is taken.
    """
    check_record("curve", curve, WeierstrassCurveFp)
    p, a, b = curve.p, curve.a, curve.b
    width = math.isqrt(4 * p)
    candidates = range(p + 1 - width, p + 2 + width)
    half, twisted = (p - 1) // 2, 2 * p + 2
    n = 1
    for x0 in range(p):
        v = (x0 * x0 * x0 + a * x0 + b) % p
        if v == 0:
            n += 1
            continue
        point, A = (v * x0 % p, v * v % p), a * v * v % p
        if pow(v, half, p) == 1:
            n += 2
            orders = _order_multiples(point, candidates[0], candidates[-1], A, p)
            candidates = [N for N in candidates if N in orders]
        else:
            orders = _order_multiples(point, twisted - candidates[-1], twisted - candidates[0], A, p)
            candidates = [N for N in candidates if twisted - N in orders]
        if not candidates:
            raise InvariantFailed(f"Hasse interval: no N fits the point orders up to x = {x0} mod {p}")
        if len(candidates) == 1:
            n = candidates[0]
            break
    else:
        if n not in candidates:
            raise InvariantFailed(f"Hasse interval: the full count {n} is not among {candidates}")
    return CountResult(n, p + 1 - n)


def _count_from_trace(p: int, a_p: int, n: int) -> int:
    """Projective count over F_{p^n}, n in {1, 2}, from the trace a_p of the
    count over F_p, read off the local zeta numerator 1 - a_p*T + p*T^2 (Weil):
    N_{p^n} = p^n + 1 - (alpha^n + beta^n), and alpha + beta = a_p,
    alpha*beta = p give alpha^2 + beta^2 = a_p^2 - 2p exactly."""
    check_int("n", n)
    if n not in (1, 2):
        raise UnsupportedDegree("n", f"only degrees 1 and 2 are supported, got {shown(n)}")
    return p + 1 - a_p if n == 1 else p * p + 1 - (a_p * a_p - 2 * p)


def count_points_ext(curve: WeierstrassCurveFp, n: int) -> int:
    """Projective count over F_{p^n}, n in {1, 2}: _count_from_trace of one
    count over F_p.  No point over F_{p^2} is visited; tests/ checks the
    formula against an enumeration of F_{p^2}."""
    a_p = count_points(curve).a_p
    return _count_from_trace(curve.p, a_p, n)


def zeta_data(curve: WeierstrassCurveFp) -> ZetaData:
    """Reciprocal roots alpha, beta with alpha + beta = a_p and alpha*beta = p."""
    a_p = count_points(curve).a_p
    p = curve.p
    disc = 4 * p - a_p * a_p
    if disc <= 0:
        raise InvariantFailed(f"Hasse bound: a_p = {a_p} breaks |a_p| < 2 sqrt({p})")
    root = math.sqrt(disc)
    alpha = complex(a_p / 2, root / 2)
    beta = alpha.conjugate()
    if not abs(abs(alpha) - math.sqrt(p)) < 1e-9:
        raise InvariantFailed(f"Weil bound: |alpha| = {abs(alpha)} != sqrt({p})")
    return ZetaData(a_p, alpha, beta)


def a_p_from_jacobi(p: int) -> int:
    """Trace defect of y^2 = x^3 - x over F_p (p = 1 mod 4), _primary_trace of
    J(chi_4, chi_2); quartic_character enforces both rules on p, prime and then
    1 mod 4, and chi_2 = chi_4 * chi_4 carries chi_4's checked p."""
    from .characters import jacobi_sum, quartic_character  # so count and zeta never load it

    chi4 = quartic_character(p)
    return _primary_trace(p, *jacobi_sum(chi4, chi4 * chi4).coeffs)


def _primary_trace(p: int, re: int, im: int) -> int:
    """a_p of y^2 = x^3 - x from J(chi_4, chi_2) = re + im*i in Z[zeta_4] = Z[i], a
    Gaussian integer of norm p: the trace of its associate that is 1 mod (1+i)^3."""
    if re * re + im * im != p:
        raise InvariantFailed(f"Jacobi norm: |J|^2 = {re * re + im * im} != {p}")
    for a, b in ((re, im), (-im, re), (-re, -im), (im, -re)):  # unit multiples 1, i, -1, -i
        # a + b*i = 1 mod (1+i)^3 means a odd, b even, a + b = 1 mod 4.
        if a % 2 == 1 and b % 2 == 0 and (a + b) % 4 == 1:
            return 2 * a
    raise InvariantFailed(f"primary associate: none for {re}+{im}i")  # unreachable for norm p
