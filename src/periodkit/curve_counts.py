"""Point counts of Weierstrass curves over F_p and F_{p^2}, trace defects,
local zeta numerators, and the Jacobi-sum route to a_p for y^2 = x^3 - x.

Counts are projective (the single point at infinity is always included),
so N = p + 1 - a_p holds without case analysis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .characters import jacobi_sum, quadratic_character, quartic_character
from .errors import BadCongruence, SingularCurve, UnsupportedDegree
from .finite_field import _check_prime


class WeierstrassCurveFp:
    """y^2 = x^3 + a*x + b over F_p, p prime >= 5; nonsingularity enforced."""

    __slots__ = ("p", "a", "b")

    def __init__(self, p: int, a: int, b: int):
        _check_prime(p, least=5)
        a %= p
        b %= p
        if (4 * a * a * a + 27 * b * b) % p == 0:
            raise SingularCurve(f"4a^3 + 27b^2 = 0 mod {p} for (a, b) = ({a}, {b})")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("WeierstrassCurveFp is immutable")

    def __repr__(self):
        return f"WeierstrassCurveFp(p={self.p}, a={self.a}, b={self.b})"


@dataclass(frozen=True)
class CountResult:
    """Projective point count and its trace defect a_p = p + 1 - N."""

    n_points: int
    a_p: int


@dataclass(frozen=True)
class ZetaData:
    """Reciprocal roots of the local zeta numerator 1 - a_p*T + p*T^2."""

    a_p: int
    alpha: complex
    beta: complex


@functools.lru_cache(maxsize=None)
def _square_counts(p: int) -> tuple[int, ...]:
    """counts[z] = number of y in F_p with y^2 = z."""
    counts = [0] * p
    for y in range(p):
        counts[y * y % p] += 1
    return tuple(counts)


def count_points(curve: WeierstrassCurveFp) -> CountResult:
    """N = 1 + sum over x of #{y : y^2 = f(x)}; the sum is the Legendre-symbol
    formula 1 + sum (1 + chi_2(f(x))) evaluated through a squares table."""
    p, a, b = curve.p, curve.a, curve.b
    counts = _square_counts(p)
    n = 1
    for x in range(p):
        n += counts[(x * x * x + a * x + b) % p]
    return CountResult(n_points=n, a_p=p + 1 - n)


@functools.lru_cache(maxsize=None)
def _quadratic_modulus(p: int) -> tuple[int, int]:
    """Smallest (c1, c0) in lexicographic order with x^2 + c1*x + c0 irreducible."""
    squares = {y * y % p for y in range(p)}
    for c1 in range(p):
        for c0 in range(p):
            # Degree 2: irreducible iff the discriminant is a non-square.
            if (c1 * c1 - 4 * c0) % p not in squares:
                return c1, c0
    raise AssertionError(f"no irreducible quadratic over F_{p}")  # unreachable


def count_points_ext(curve: WeierstrassCurveFp, n: int) -> int:
    """Projective count over F_{p^n} by enumeration, n in {1, 2}.

    F_{p^2} is realized as F_p[x]/(q) for the deterministic smallest
    irreducible monic quadratic q, so repeated runs agree bit for bit.
    """
    if n == 1:
        return count_points(curve).n_points
    if n != 2:
        raise UnsupportedDegree("n", f"only degrees 1 and 2 are supported, got {n}")
    p, a, b = curve.p, curve.a, curve.b
    c1, c0 = _quadratic_modulus(p)

    def mul(u, v):
        # (u0 + u1*th)(v0 + v1*th) with th^2 = -c1*th - c0
        w0 = u[0] * v[0]
        w1 = u[0] * v[1] + u[1] * v[0]
        w2 = u[1] * v[1]
        return ((w0 - w2 * c0) % p, (w1 - w2 * c1) % p)

    sq_counts: dict[tuple[int, int], int] = {}
    for y0 in range(p):
        for y1 in range(p):
            z = mul((y0, y1), (y0, y1))
            sq_counts[z] = sq_counts.get(z, 0) + 1

    total = 1
    for x0 in range(p):
        for x1 in range(p):
            x = (x0, x1)
            fx = mul(mul(x, x), x)
            fx = ((fx[0] + a * x0 + b) % p, (fx[1] + a * x1) % p)
            total += sq_counts.get(fx, 0)
    return total


def zeta_data(curve: WeierstrassCurveFp) -> ZetaData:
    """Reciprocal roots alpha, beta with alpha + beta = a_p and alpha*beta = p."""
    p = curve.p
    a_p = count_points(curve).a_p
    disc = 4 * p - a_p * a_p
    assert disc > 0, "Hasse bound rules out real roots for prime p"
    root = math.sqrt(disc)
    alpha = complex(a_p / 2, root / 2)
    beta = alpha.conjugate()
    assert abs(abs(alpha) - math.sqrt(p)) < 1e-9
    return ZetaData(a_p=a_p, alpha=alpha, beta=beta)


def a_p_from_jacobi(p: int) -> int:
    """Trace defect of y^2 = x^3 - x over F_p (p = 1 mod 4) out of a Jacobi sum.

    pi = J(chi_4, chi_2) is a Gaussian integer of norm p; it is normalized to
    the unique associate congruent to 1 mod (1+i)^3, whose trace is a_p.
    """
    _check_prime(p)
    if p % 4 != 1:
        raise BadCongruence(f"p = {p} is {p % 4} mod 4; need p = 1 mod 4")
    j = jacobi_sum(quartic_character(p), quadratic_character(p))
    re, im = j.coeffs  # Z[zeta_4] = Z[i], basis (1, i)
    if re * re + im * im != p:
        raise AssertionError(f"|J|^2 = {re * re + im * im} != {p}")
    for a, b in ((re, im), (-im, re), (-re, -im), (im, -re)):  # unit multiples 1, i, -1, -i
        # a + b*i = 1 mod (1+i)^3 means a odd, b even, a + b = 1 mod 4.
        if a % 2 == 1 and b % 2 == 0 and (a + b) % 4 == 1:
            return 2 * a
    raise AssertionError(f"no primary associate for {re}+{im}i")  # unreachable for norm p
