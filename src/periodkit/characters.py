"""Multiplicative characters of F_p^x, Gauss sums, and exact Jacobi sums.

A character is pinned down by its exponent k against the canonical
(smallest) primitive root g: c(g^j) = zeta_(p-1)^(k*j), with c(0) = 0 by
convention.  Jacobi sums are accumulated exactly in Z[zeta_n] for
n = lcm(order(c), order(c')); Gauss sums are evaluated in double-precision
complex arithmetic with the additive character psi(t) = e^(2*pi*i*t/p),
because carrying zeta_p exactly would blow the ring degree up to
phi(p*(p-1)).  The two are tied together numerically by
gauss_jacobi_relation_check.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .cyclotomic import CyclotomicNumber
from .errors import BadCongruence, MismatchedModulus, TrivialCharacter
from .finite_field import PrimeFieldElem, _check_prime, _smallest_primitive_root


@functools.lru_cache(maxsize=None)
def _dlog_table(p: int) -> tuple[int, ...]:
    """dlog[a] = j with g^j = a, for the canonical primitive root g; dlog[0] unused."""
    g = _smallest_primitive_root(p)
    table = [0] * p
    acc = 1
    for j in range(p - 1):
        table[acc] = j
        acc = acc * g % p
    return tuple(table)


@dataclass(frozen=True)
class MultiplicativeCharacter:
    """Character c: F_p^x -> C^x with c(g^j) = zeta_(p-1)^(k*j) and c(0) = 0."""

    p: int
    k: int

    def __post_init__(self):
        _check_prime(self.p)
        object.__setattr__(self, "k", self.k % (self.p - 1))

    @property
    def generator(self) -> int:
        return _smallest_primitive_root(self.p)

    @property
    def order(self) -> int:
        return (self.p - 1) // math.gcd(self.k, self.p - 1)

    @property
    def is_trivial(self) -> bool:
        return self.k == 0

    def __mul__(self, other: "MultiplicativeCharacter") -> "MultiplicativeCharacter":
        if not isinstance(other, MultiplicativeCharacter):
            return NotImplemented
        if other.p != self.p:
            raise MismatchedModulus(f"moduli differ: {self.p} vs {other.p}")
        return MultiplicativeCharacter(self.p, self.k + other.k)


def quadratic_character(p: int) -> MultiplicativeCharacter:
    return MultiplicativeCharacter(p, (p - 1) // 2)


def quartic_character(p: int) -> MultiplicativeCharacter:
    _check_prime(p)
    if (p - 1) % 4 != 0:
        raise BadCongruence(f"p = {p} is {p % 4} mod 4; F_{p}^x has no element of order 4")
    return MultiplicativeCharacter(p, (p - 1) // 4)


def char_eval(c: MultiplicativeCharacter, a: PrimeFieldElem) -> CyclotomicNumber:
    """Exact character value in Z[zeta_(p-1)]; zero element for a = 0."""
    if a.p != c.p:
        raise MismatchedModulus(f"moduli differ: {c.p} vs {a.p}")
    m = c.p - 1
    if a.value == 0:
        return CyclotomicNumber.zero(m)
    j = _dlog_table(c.p)[a.value]
    return CyclotomicNumber.root_of_unity(m, c.k * j % m)


@dataclass(frozen=True)
class GaussSumValue:
    """Floating Gauss sum g(c); |value|**2 = p within 1e-9 for nontrivial c."""

    value: complex
    p: int

    @property
    def norm_sq(self) -> float:
        return abs(self.value) ** 2


def gauss_sum(c: MultiplicativeCharacter) -> GaussSumValue:
    """g(c) = sum over t in F_p^x of c(t) * e^(2*pi*i*t/p), t ascending."""
    p = c.p
    dlog = _dlog_table(p)
    # Roots of unity are read from tables so identical argv always reproduces
    # the same rounding, term for term.
    add = [cmath.exp(2j * cmath.pi * t / p) for t in range(p)]
    mul = [cmath.exp(2j * cmath.pi * e / (p - 1)) for e in range(p - 1)]
    total = 0j
    for t in range(1, p):
        total += mul[c.k * dlog[t] % (p - 1)] * add[t]
    return GaussSumValue(value=total, p=p)


def jacobi_sum(c: MultiplicativeCharacter, c2: MultiplicativeCharacter) -> CyclotomicNumber:
    """J(c, c') = sum over t of c(t) * c'(1-t), exactly in Z[zeta_n].

    n = lcm(order(c), order(c')); every term is a power of zeta_n, so the sum
    is gathered as exponent counts and reduced once.
    """
    if c.p != c2.p:
        raise MismatchedModulus(f"moduli differ: {c.p} vs {c2.p}")
    p = c.p
    m = p - 1
    n = math.lcm(c.order, c2.order)
    step = m // n
    dlog = _dlog_table(p)
    counts = [0] * n
    # t = 0 and t = 1 drop out via the c(0) = 0 convention.
    for t in range(2, p):
        e = (c.k * dlog[t] + c2.k * dlog[p + 1 - t]) % m
        counts[e // step] += 1
    return CyclotomicNumber.from_exponent_counts(n, counts)


def gauss_jacobi_relation_check(
    c: MultiplicativeCharacter, c2: MultiplicativeCharacter
) -> float:
    """|embed(J(c,c')) - g(c)*g(c')/g(c*c')|; below 1e-8 for p <= 31.

    Raises TrivialCharacter when c, c' or c*c' is trivial; the identity
    genuinely fails there, so a quiet number would mislead the caller.
    """
    if c.p != c2.p:
        raise MismatchedModulus(f"moduli differ: {c.p} vs {c2.p}")
    product = c * c2
    if c.is_trivial or c2.is_trivial or product.is_trivial:
        raise TrivialCharacter(
            f"relation needs c, c', c*c' nontrivial (k={c.k}, k'={c2.k}, p={c.p})"
        )
    exact = jacobi_sum(c, c2).embed()
    ratio = gauss_sum(c).value * gauss_sum(c2).value / gauss_sum(product).value
    return abs(exact - ratio)
