"""Exact arithmetic in rings of cyclotomic integers Z[zeta_m].

An element is a vector of phi(m) integer coefficients against the power
basis 1, x, ..., x^(phi(m)-1) of Z[x]/(Phi_m(x)), with x standing for a
primitive m-th root of unity.  Reduction modulo the m-th cyclotomic
polynomial is canonical, so equal elements always carry identical
coefficient vectors and equality is plain tuple comparison.

The fixed complex embedding sends x to e^(2*pi*i/m); it is used only for
floating-point cross-checks, never for exact arithmetic.
"""

from __future__ import annotations

import cmath
import functools
from typing import Sequence


def _poly_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod_monic(a: Sequence[int], mod: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a monic divisor; exact over Z."""
    r = list(a)
    d = len(mod) - 1
    q = [0] * max(len(r) - d, 0)
    while len(r) - 1 >= d and r:
        lead = r[-1]
        shift = len(r) - 1 - d
        if lead != 0:
            q[shift] = lead
            for i in range(d + 1):
                r[shift + i] -= lead * mod[i]
        r.pop()
        _poly_trim(r)
    return _poly_trim(q), r


def _divisors(m: int) -> list[int]:
    out = [d for d in range(1, m + 1) if m % d == 0]
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial Phi_m.

    Computed by exact division: x^m - 1 = prod of Phi_d over divisors d of m,
    so Phi_m is (x^m - 1) divided by the product of all proper-divisor factors.
    """
    if m < 1:
        raise ValueError(f"root-of-unity order must be positive, got {m}")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    rem = num
    for d in _divisors(m)[:-1]:
        rem, res = _poly_divmod_monic(rem, cyclotomic_polynomial(d))
        assert not res, f"x^{m}-1 not divisible by Phi_{d}"
    return tuple(rem)


class CyclotomicNumber:
    """An element of Z[zeta_m], stored in canonical reduced form."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: Sequence[int]):
        phi = len(cyclotomic_polynomial(m)) - 1
        _, reduced = _poly_divmod_monic(coeffs, cyclotomic_polynomial(m))
        if len(reduced) > phi:
            raise AssertionError("reduction failed to reach canonical degree")
        reduced += [0] * (phi - len(reduced))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", tuple(reduced))

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "CyclotomicNumber":
        return cls(m, [])

    @classmethod
    def one(cls, m: int) -> "CyclotomicNumber":
        return cls(m, [1])

    @classmethod
    def from_int(cls, m: int, n: int) -> "CyclotomicNumber":
        return cls(m, [n])

    @classmethod
    def root_of_unity(cls, m: int, j: int) -> "CyclotomicNumber":
        """zeta_m^j as a canonical element."""
        j %= m
        return cls(m, [0] * j + [1])

    @classmethod
    def from_exponent_counts(cls, m: int, counts: Sequence[int]) -> "CyclotomicNumber":
        """Sum of counts[j] * zeta_m^j for 0 <= j < m (one reduction pass)."""
        return cls(m, list(counts))

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "CyclotomicNumber":
        if isinstance(other, CyclotomicNumber):
            if other.m != self.m:
                raise ValueError(f"root-of-unity orders differ: {self.m} vs {other.m}")
            return other
        if isinstance(other, int):
            return CyclotomicNumber.from_int(self.m, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(self.m, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(self.m, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CyclotomicNumber(self.m, [-a for a in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(self.m, _poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def conj(self) -> "CyclotomicNumber":
        """Image under the automorphism zeta -> zeta^(-1) (complex conjugation)."""
        out = [0] * self.m
        for j, c in enumerate(self.coeffs):
            out[(self.m - j) % self.m] += c
        return CyclotomicNumber(self.m, out)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational_integer(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_int(self) -> int:
        """The value as a rational integer; ValueError if it is not one."""
        if not self.is_rational_integer():
            raise ValueError(f"{self!r} is not a rational integer")
        return self.coeffs[0]

    def norm_to_int(self) -> int:
        """z * conj(z) as a rational integer (defined for the sums computed here)."""
        return (self * self.conj()).as_int()

    def embed(self) -> complex:
        """Numerical value under the fixed embedding zeta_m -> e^(2*pi*i/m)."""
        return sum(
            c * cmath.exp(2j * cmath.pi * j / self.m)
            for j, c in enumerate(self.coeffs)
            if c != 0
        ) + 0j

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            return self.m == other.m and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.is_rational_integer() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def __repr__(self):
        return f"CyclotomicNumber(m={self.m}, coeffs={list(self.coeffs)})"
