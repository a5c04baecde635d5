"""Exact arithmetic in rings of cyclotomic integers Z[zeta_m].

An element is a vector of phi(m) integer coefficients against the power
basis 1, x, ..., x^(phi(m)-1) of Z[x]/(Phi_m(x)), with x standing for a
primitive m-th root of unity.  Reduction modulo the m-th cyclotomic
polynomial is canonical, so equal elements always carry identical
coefficient vectors and equality is plain tuple comparison.

The fixed complex embedding sends x to e^(2*pi*i/m); it is used only for
floating-point cross-checks, never for exact arithmetic.
"""

import cmath
import functools
import itertools
import math
import operator
import sys
from array import array
from collections.abc import Sequence

from ._frozen import RingElement, check_sequence
from .errors import FloatOverflow, InvalidInput, MismatchedStructure, NotRationalInteger, check_int, shown
from .finite_field import _prime_factors

# The largest ring order m, each answered; a Galois image places m slots.
MAX_RING_ORDER = 2 * 10**6


def _even_part(m: int) -> tuple[int, int]:
    """The one rule for 2 | m: (h, sign) with x^h = sign in Z[zeta_m], (m/2, -1) or (m, 1)."""
    return (m // 2, -1) if m % 2 == 0 else (m, 1)


def _divide_binomial(series: list[int], d: int, sign: int) -> None:
    """The power series over 1 - sign * y^d, sign = +-1, in place, from the lowest term up:
    s_i += sign * s_(i-d), one running sum per residue class mod d, in at most about
    2 * sqrt(len) C-level calls.  Short classes (4*d*d > len) take one `map` per block of d,
    long ones one running sum each; for sign = -1, (-1)^j * s_j along a class is the running
    sum of (-1)^j times the input, so every other entry is negated before and after."""
    n = len(series)
    if 4 * d * d > n:
        step = operator.add if sign > 0 else operator.sub
        for i in range(d, n, d):
            series[i : i + d] = map(step, series[i : i + d], series[i - d : i])
        return
    for k in range(d):
        line = series[k::d]
        if sign < 0:
            line[1::2] = map(operator.neg, line[1::2])
        line = list(itertools.accumulate(line))
        if sign < 0:
            line[1::2] = map(operator.neg, line[1::2])
        series[k::d] = line


def _series(poly: list[int], n: int, binomials: tuple[tuple[int, int], ...], sign: int, inverse: bool = False) -> list[int]:
    """The first n terms of the power series poly times, or over if inverse is set, the product
    of (1 - sign * x^d)^mu over the binomials (d, mu) of m's `_modulus`, which is Phi_m for
    m > 1: each is -sign * (x^d - sign), and the 2^k factors -sign cancel.  poly, at most n
    terms, is padded and worked in place, one linear pass per binomial below n; the rest act
    as 1.  Only its first `support` terms can be nonzero: a product by x^d widens them by d,
    and a division of at most d of them repeats its first d terms, negated every other time
    when sign = -1; any other division is `_divide_binomial`."""
    support, times = len(poly), operator.sub if sign > 0 else operator.add
    poly += [0] * (n - support)
    for d, mu in binomials:
        if d >= n:
            break
        if (mu > 0) != inverse:  # s_i -= sign * s_(i-d), from the old terms
            poly[d : support + d] = map(times, poly[d : support + d], poly[:support])
            support = min(n, support + d)
            continue
        if support <= d:
            period = poly[:d] if sign > 0 else poly[:d] + [-c for c in poly[:d]]
            poly[:] = (period * (n // len(period) + 1))[:n]
        else:
            _divide_binomial(poly, d, sign)
        support = n
    return poly


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial Phi_m: the first phi(m) + 1
    terms of one `_series` from the constant (-sign)^(2^k), which is 1 but at m = 1, where
    Phi_1 = x - 1 = -(1 - x).  The ring never calls it: `_reduce` reads `_modulus` alone."""
    check_int("m", m, lo=1, hi=MAX_RING_ORDER)
    phi, _, sign, _, _, binomials = _modulus(m)
    return tuple(_series([(-sign) ** len(binomials)], phi + 1, binomials, sign))


# One order, as `characters._dlog_table` keeps one prime: a report runs its orbits by ring order.
@functools.lru_cache(maxsize=1)
def _modulus(m: int) -> tuple[int, int, int, int, int, tuple[tuple[int, int], ...]]:
    """(phi, h, sign, lo, grow, binomials) of Phi_m, its sizes and no polynomial: its degree;
    the (h, sign) of `_even_part`, so Phi_m divides x^h - sign; with q the smallest odd prime
    of m, lo = h - h/q, the length after the first link of `_reduce`, which reduces modulo
    Phi_q(sign * x^(h/q)), or h if m has no odd prime; and the binomials (d * h/r, mu(r/d))
    over the divisors d of the odd radical r of m, by ascending degree, whose product of
    (x^(d*h/r) - sign)^mu(r/d) is Phi_m: Phi_r(y) at y = x^(h/r) for odd m, and for even m
    Phi_r(-y), which is Phi_(2r)(y).  k odd primes make 2^k binomials, at most 64 below
    MAX_RING_ORDER.

    grow bounds how far `_reduce` scales the largest entry M of a placed vector, one entry per
    slot, as `_galois_columns` packs: the fold adds no entry to another, and the first link
    subtracts one, so r[:lo] stays within 2M; grow is 1 with no odd prime and 2 with one.
    Past that, each pass of a `_series` on n terms by a binomial 1 - sign * x^d, d < n, scales
    the largest term by at most 2 for a product and ceil(n/d) for a division, the size of a
    residue class mod d.  So the quotient stays within 2M * A and the forward series within
    2M * A * B, A and B the products of those factors over the passes of lo - phi and of
    phi terms, and the remainder within 2M * (1 + A * B) = M * grow."""
    h, sign = _even_part(m)
    primes = [q for q in _prime_factors(m) if q != 2]
    stride = h // math.prod(primes)
    binomials = [(stride, (-1) ** len(primes))]  # d = 1
    for q in primes:
        binomials += [(d * q, -mu) for d, mu in binomials]
    phi = stride * math.prod(q - 1 for q in primes)
    lo = h - h // primes[0] if primes else h

    def scale(n: int, inverse: bool) -> int:
        return math.prod(2 if (mu > 0) != inverse else -(-n // d) for d, mu in binomials if d < n)

    grow = 1 if lo == h else 2 if lo == phi else 2 * (1 + scale(lo - phi, True) * scale(phi, False))
    return phi, h, sign, lo, grow, tuple(sorted(binomials))


# The signed array code of each machine width: 1, 2, 4 and 8 bytes.
_ARRAY_CODES = {array(code).itemsize: code for code in "bhilq"}


def _width(bound: int) -> int:
    """The bytes of a signed field for values up to bound in size, below 2^(8w - 1): 1, 2, 4
    or 8, which `array` converts in C, or wider, converted one int at a time."""
    need = (bound.bit_length() + 8) // 8
    return min((w for w in _ARRAY_CODES if w >= need), default=need)


def _flips(width: int, n: int) -> int:
    """The top bit of each of n fields of `width` bytes."""
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, sys.byteorder) * n, sys.byteorder)


def _pack(v: Sequence[int], width: int) -> int:
    """sum v[i] * 2^(8 * width * i) for |v[i]| < 2^(8 * width - 1), so sums and multiples
    stay packed field by field while each field stays that small: the two's complement
    fields, xor their top bits, are the offset form v[i] + 2^(8 * width - 1).  A big-endian
    machine reads v reversed, and `_unpack` reads it back the same way."""
    code, order, flips = _ARRAY_CODES.get(width), sys.byteorder, _flips(width, len(v))
    fields = array(code, v).tobytes() if code else b"".join(c.to_bytes(width, order, signed=True) for c in v)
    return (int.from_bytes(fields, order) ^ flips) - flips


def _unpack(xs: Sequence[int], width: int, n: int) -> list[int]:
    """The n fields of each packed int in xs, in turn, in one conversion: the offset
    form x + flips, read back in two's complement after the xor."""
    code, order, flips = _ARRAY_CODES.get(width), sys.byteorder, _flips(width, n)
    buf = b"".join([((x + flips) ^ flips).to_bytes(width * n, order) for x in xs])
    if code:
        return array(code, buf).tolist()
    return [int.from_bytes(buf[i : i + width], order, signed=True) for i in range(0, len(buf), width)]


def _kron_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Unreduced product of two coefficient vectors by Kronecker substitution: the
    product of the packed vectors, in fields as wide as its coefficients need."""
    bound = max(map(abs, a), default=0) * max(map(abs, b), default=0) * min(len(a), len(b))
    if not bound:
        return []
    width = _width(bound)
    return _unpack([_pack(a, width) * _pack(b, width)], width, len(a) + len(b) - 1)


def _reduce(m: int, coeffs: Sequence[int]) -> tuple[int, ...]:
    """The canonical coefficients of sum coeffs[j] * x^j modulo Phi_m, the ring's one
    reduction.  The fold modulo x^h - sign, a multiple of Phi_m, adds each block of h
    to the first, subtracted on odd blocks when sign = -1, one C-level `map` each.  The
    first link reduces r[:h] to r[:lo] modulo Phi_q(sign * x^(h/q)), q the smallest odd
    prime of m, another multiple: it subtracts the top block from each block below,
    negated on odd blocks when sign = -1, in one C-level pass.  If r[phi:lo] is not zero,
    the finish divides by Phi_m, which is palindromic for m > 1: reversed, the quotient Q
    is the series of the reversed top r[phi:lo] over Phi_m, and r[:phi] loses the first
    phi terms of Q * Phi_m, each one `_series`."""
    phi, h, sign, lo, _, binomials = _modulus(m)
    r = list(coeffs[:h])
    r += [0] * (h - len(r))
    for start in range(h, len(coeffs), h):
        chunk, fold = coeffs[start : start + h], operator.sub if sign < 0 and start // h % 2 else operator.add
        r[: len(chunk)] = map(fold, r, chunk)
    if lo < h:
        top = r[lo:]
        r[:lo] = map(operator.sub, r[:lo], itertools.cycle(top if sign > 0 else top + [-c for c in top]))
    if any(r[phi:lo]):
        quotient = _series(r[lo - 1 : phi - 1 : -1], lo - phi, binomials, sign, inverse=True)[::-1]
        r[:phi] = map(operator.sub, r[:phi], _series(quotient, phi, binomials, sign))
    return tuple(r[:phi])


def _galois(m: int, coeffs: Sequence[int], a: int) -> tuple[int, ...]:
    """The canonical coefficients of sigma_a(z), zeta_m -> zeta_m^a, for the canonical
    coefficients of z and a unit a: c_j placed at x^(a*j mod m), then `_reduce`.  Both
    are linear, so packed columns pass through as plain ints do."""
    placed = [0] * m
    for j, c in enumerate(coeffs):
        placed[a * j % m] = c
    return _reduce(m, placed)


def _galois_columns(m: int, vectors: Sequence[tuple[int, ...]], units: Sequence[int]) -> list[list[tuple[int, ...]]]:
    """For each unit a, the images sigma_a(z) of the canonical vectors z, in their order, in one
    `_galois` on columns: coefficient j of every z packed in one int.  The fold meets no two
    placed coefficients in one slot, as a is a unit mod h, and the rest of `_reduce` scales
    the largest value by at most `_modulus`'s grow, so the fields hold max|z| * grow."""
    top = max((abs(c) for z in vectors for c in z), default=0)
    width, k = _width(top * _modulus(m)[4]), len(vectors)
    columns = tuple(_pack(column, width) for column in zip(*vectors))
    fields = (_unpack(_galois(m, columns, a), width, k) for a in units)  # k fields a column
    return [[tuple(f[r::k]) for r in range(k)] for f in fields]


class CyclotomicNumber(RingElement):
    """An element of Z[zeta_m], stored in canonical reduced form.  The constructor
    checks that m is an int >= 1 and every coefficient an int; the ring operations
    combine checked elements, so they build through `_unchecked`, without that
    O(phi(m)) check."""

    __slots__ = ()
    _fields = ("m", "coeffs")

    def __new__(cls, m: int, coeffs: Sequence[int]):
        check_int("m", m, lo=1, hi=MAX_RING_ORDER)
        check_sequence("coeffs", coeffs)
        for c in coeffs:
            check_int("coeffs", c)
        return tuple.__new__(cls, (m, _reduce(m, coeffs)))

    @classmethod
    def _unchecked(cls, m: int, coeffs: Sequence[int]) -> "CyclotomicNumber":
        """sum coeffs[j] * zeta_m^j for an m and int coefficients already checked."""
        return cls._canonical(m, _reduce(m, coeffs))

    @classmethod
    def _canonical(cls, m: int, coeffs: tuple[int, ...]) -> "CyclotomicNumber":
        """The element whose canonical coefficients are coeffs."""
        return tuple.__new__(cls, (m, coeffs))

    @classmethod
    def root_of_unity(cls, m: int, j: int) -> "CyclotomicNumber":
        """zeta_m^j as a canonical element."""
        check_int("m", m, lo=1, hi=MAX_RING_ORDER)
        check_int("j", j)
        return cls._unchecked(m, [0] * (j % m) + [1])

    def _match(self, other: "CyclotomicNumber") -> None:
        if other.m != self.m:
            raise MismatchedStructure(f"root-of-unity orders differ: {self.m} vs {other.m}")

    def _lift(self, n: int) -> "CyclotomicNumber":
        return CyclotomicNumber(self.m, [n])

    # A sum of canonical vectors is canonical, so it needs no reduction.
    def _add(self, other):
        return self._canonical(self.m, tuple(map(operator.add, self.coeffs, other.coeffs)))

    def _sub(self, other):
        return self._canonical(self.m, tuple(map(operator.sub, self.coeffs, other.coeffs)))

    def _mul(self, other):
        return self._unchecked(self.m, _kron_mul(self.coeffs, other.coeffs))

    def _neg(self):
        return self._canonical(self.m, tuple(map(operator.neg, self.coeffs)))

    def galois(self, a: int) -> "CyclotomicNumber":
        """Image under the automorphism sigma_a: zeta_m -> zeta_m^a, for a unit a
        mod m.  Coefficient j moves to exponent a*j mod m, and the placed vector
        is reduced as any other (`_galois`).  The conjugate is galois(-1)."""
        m = self.m
        check_int("a", a)
        if math.gcd(a, m) != 1:
            raise InvalidInput("a", f"sigma_a needs a unit modulo m, got a = {shown(a)}, m = {m}")
        return self._canonical(m, _galois(m, self.coeffs, a % m))

    def __bool__(self):
        return any(self.coeffs)

    def is_rational_integer(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_int(self) -> int:
        """The value as a rational integer; NotRationalInteger if it is not one."""
        if not self.is_rational_integer():
            raise NotRationalInteger(f"{shown(self)} is not a rational integer")
        return self.coeffs[0]

    def norm_to_int(self) -> int:
        """z * conj(z) as a rational integer: defined for the Gauss and Jacobi sums
        computed here; NotRationalInteger where z * conj(z) is not rational.

        z is multiplied by its unreduced conjugate, and the product reduced once:
        m + 1 - phi zeros ahead of the reversed coefficients put c_j at index
        m - j, which is -j modulo x^m - 1."""
        product = _kron_mul(self.coeffs, self.coeffs[::-1])
        return self._unchecked(self.m, [0] * (self.m + 1 - len(self.coeffs)) + product).as_int()

    def embed(self) -> complex:
        """Numerical value under the fixed embedding zeta_m -> e^(2*pi*i/m);
        FloatOverflow where a coefficient, a term or the sum leaves the doubles."""
        try:
            value = sum(c * cmath.exp(2j * cmath.pi * j / self.m) for j, c in enumerate(self.coeffs) if c) + 0j
        except OverflowError:  # an int coefficient past the doubles
            value = complex(math.inf)
        if not cmath.isfinite(value):
            raise FloatOverflow(f"the embedding of an element of Z[zeta_{self.m}] leaves the double range")
        return value

    def __repr__(self):
        return f"CyclotomicNumber(m={self.m}, coeffs={list(self.coeffs)})"
