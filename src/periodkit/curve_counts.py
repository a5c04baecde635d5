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


def _order_multiples(P, lo: int, hi: int, A: int, p: int) -> set[int] | None:
    """Every m in [lo, hi] with m*P = O, by baby-step giant-step on x alone,
    or None when the order of P is at most 2s.

    Baby steps j*P, 1 <= j <= s, s = isqrt((hi - lo) // 2) + 1, are filed
    under their x as (j, y).  They end, and the answer is None, at the first
    j whose x repeats that of an i < j (j*P = -i*P, order i + j) or whose y
    is 0 (order 2j): every order up to 2s ends them so, and no other does.
    Otherwise the order exceeds 2s, the 2s points +-j*P are distinct, and a
    window [c - s, c + s] holds at most one multiple.  Giant steps of
    (2s + 1)*P visit the windows' centres c from lo + s on; c*P = O gives c,
    and c*P = +-j*P gives c - j or c + j, as the stored y says.  That is
    about sqrt(2 (hi - lo)) additions, where baby steps that took j*P and
    -j*P apart would need 2 sqrt(hi - lo).
    """
    s = math.isqrt((hi - lo) // 2) + 1
    baby = {}
    R = P
    for j in range(1, s + 1):
        x, y = R
        if x in baby or y == 0:
            return None
        baby[x] = j, y
        last, R = R, _add(R, P, A, p)
    giant, R = _add(last, R, A, p), _add(_mul(lo, P, A, p), last, A, p)
    found = set()
    for c in range(lo + s, hi + s + 1, 2 * s + 1):
        if R is None:
            found.add(c)
        elif R[0] in baby:
            j, y = baby[R[0]]
            found.add(c - j if y == R[1] else c + j)
        R = _add(R, giant, A, p)
    return {m for m in found if m <= hi}


def count_points(curve: WeierstrassCurveFp) -> CountResult:
    """N = #E(F_p) by Shanks-Mestre: orders of a few points pin N down in the
    Hasse interval |p + 1 - N| <= 2 sqrt(p).

    The walk visits x0 = 0, 1, 2, ... and tallies 1 + chi_2(v), v = f(x0).  For
    v != 0, (v*x0, v^2) lies on E_v: y^2 = x^3 + a v^2 x + b v^3, which is E
    when v is a square and its quadratic twist, of order 2p + 2 - N, when not.
    The candidates start as the whole interval, range(lo, hi + 1), and
    [lo, hi] is then their span.  `_order_multiples` returns the m in [lo, hi]
    (mirrored for the twist) with m*(v*x0, v^2) = O, and the new candidates
    are those that are still candidates, tested by membership: a point costs
    its baby-step giant-step and O(number of multiples), never a scan of the
    interval.  A point whose order is at most 2s answers None and is skipped
    once tallied, so no order is derived and no long list of its multiples
    is built.  The walk stops at one candidate, or at x0 = p - 1, where the
    tally is the full count.  For p > 229, E or its twist has a point whose
    order has one multiple in the interval (Mestre's theorem): that order
    exceeds half the interval's width, which is at least 2s, so such a point
    is never skipped; in practice a few points pin N down.  No table is
    built, so every prime below 2**31 is taken.
    """
    check_record("curve", curve, WeierstrassCurveFp)
    p, a, b = curve.p, curve.a, curve.b
    width = math.isqrt(4 * p)
    lo, hi = p + 1 - width, p + 1 + width
    candidates = range(lo, hi + 1)
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
            found = _order_multiples(point, lo, hi, A, p)
        elif found := _order_multiples(point, twisted - hi, twisted - lo, A, p):
            found = {twisted - m for m in found}
        if found is None:
            continue
        candidates = {m for m in found if m in candidates}
        if not candidates:
            raise InvariantFailed(f"Hasse interval: no N fits the point orders up to x = {x0} mod {p}")
        if len(candidates) == 1:
            n = candidates.pop()
            break
        lo, hi = min(candidates), max(candidates)
    else:
        if n not in candidates:
            raise InvariantFailed(f"Hasse interval: the full count {n} is not among {sorted(candidates)}")
    return CountResult(n, p + 1 - n)


def _check_degree(n: int) -> None:
    """The one degree rule of counts over F_{p^n}: n in {1, 2}."""
    check_int("n", n)
    if n not in (1, 2):
        raise UnsupportedDegree("n", f"only degrees 1 and 2 are supported, got {shown(n)}")


def _count_from_trace(p: int, a_p: int, n: int) -> int:
    """Projective count over F_{p^n}, n in {1, 2} (`_check_degree`, run by the
    caller before it counts), from the trace a_p of the count over F_p, read off
    the local zeta numerator 1 - a_p*T + p*T^2 (Weil): N_{p^n} = p^n + 1 -
    (alpha^n + beta^n), and alpha + beta = a_p, alpha*beta = p give
    alpha^2 + beta^2 = a_p^2 - 2p exactly."""
    return p + 1 - a_p if n == 1 else p * p + 1 - (a_p * a_p - 2 * p)


def count_points_ext(curve: WeierstrassCurveFp, n: int) -> int:
    """Projective count over F_{p^n}, n in {1, 2}: _count_from_trace of one
    count over F_p, made only once n passes `_check_degree`.  No point over
    F_{p^2} is visited; tests/ checks the formula against an enumeration of
    F_{p^2}."""
    check_record("curve", curve, WeierstrassCurveFp)
    _check_degree(n)
    return _count_from_trace(curve.p, count_points(curve).a_p, n)


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
    """Trace defect of y^2 = x^3 - x over F_p (p = 1 mod 4), `_jacobi_trace` of
    J(chi_4, chi_2); quartic_character enforces both rules on p, prime and then
    1 mod 4, and chi_2 = chi_4 * chi_4 carries chi_4's checked p."""
    from .characters import jacobi_sum, quartic_character  # so count and zeta never load it

    chi4 = quartic_character(p)
    return _jacobi_trace(jacobi_sum(chi4, chi4 * chi4), p)


def _jacobi_trace(j, p: int) -> int:
    """The one route to a_p of y^2 = x^3 - x from J = J(chi_4, chi_2) = re + im*i,
    a Gaussian integer of norm p in Z[zeta_4] = Z[i]: a_p is the trace of its
    associate that is 1 mod (1+i)^3, a + b*i with a odd, b even and
    a + b = 1 mod 4.  As p is odd, exactly one of re, im is odd: if re is, that
    associate is J or -J, else i*J = -im + re*i or -i*J, the one of the two with
    a + b = 1 mod 4.  Run by `a_p_from_jacobi` and by the correspondence report."""
    re, im = j.coeffs
    if re * re + im * im != p:
        raise InvariantFailed(f"Jacobi norm: |J|^2 = {re * re + im * im} != {p}")
    a, b = (re, im) if re % 2 else (-im, re)
    return 2 * a if (a + b) % 4 == 1 else -2 * a
