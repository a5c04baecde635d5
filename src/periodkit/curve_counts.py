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
from .errors import InvalidInput, SingularCurve, UnsupportedDegree
from .finite_field import _check_prime

# The F_{p^2} count takes p^2 steps: 54-60 s at p = 9973 (2-core Xeon, CPython 3.11).
MAX_EXT_PRIME = 10**4


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


def count_points_ext(curve: WeierstrassCurveFp, n: int) -> int:
    """Projective count over F_{p^n} by enumeration, n in {1, 2}; n = 2 needs p <= MAX_EXT_PRIME.

    F_{p^2} is F_p(sqrt d), d the smallest non-square mod p, and f(x0 + x1 sqrt d)
    is y0 + y1 sqrt d with y0 = x0(x0^2 + 3d x1^2 + a) + b, y1 = x1(3x0^2 + d x1^2 + a).
    The quadratic character of F_{p^2} is chi_2 of the norm y0^2 - d y1^2, so f(x)
    has as many square roots as its norm has in F_p: the table count_points reads.
    """
    if n == 1:
        return count_points(curve).n_points
    if n != 2:
        raise UnsupportedDegree("n", f"only degrees 1 and 2 are supported, got {n}")
    p, a, b = curve.p, curve.a, curve.b
    if p > MAX_EXT_PRIME:
        raise InvalidInput("p", f"the F_(p^2) count takes p^2 steps; need p <= {MAX_EXT_PRIME}, got {p}")
    counts = _square_counts(p)
    d = counts.index(0)
    total = 1
    for x0 in range(p):
        u0 = x0 * x0 + a
        u1 = 3 * x0 * x0 + a
        for x1 in range(p):
            t = d * x1 * x1
            y0 = x0 * (u0 + 3 * t) + b
            y1 = x1 * (u1 + t)
            total += counts[(y0 * y0 - d * y1 * y1) % p]
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
    quartic_character enforces both rules on p: prime, and 1 mod 4.
    """
    j = jacobi_sum(quartic_character(p), quadratic_character(p))
    re, im = j.coeffs  # Z[zeta_4] = Z[i], basis (1, i)
    if re * re + im * im != p:
        raise AssertionError(f"|J|^2 = {re * re + im * im} != {p}")
    for a, b in ((re, im), (-im, re), (-re, -im), (im, -re)):  # unit multiples 1, i, -1, -i
        # a + b*i = 1 mod (1+i)^3 means a odd, b even, a + b = 1 mod 4.
        if a % 2 == 1 and b % 2 == 0 and (a + b) % 4 == 1:
            return 2 * a
    raise AssertionError(f"no primary associate for {re}+{im}i")  # unreachable for norm p
