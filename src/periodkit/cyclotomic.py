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

# The largest ring order m: every order p - 1 of the kernels over F_p
# (p <= characters.MAX_TABLE_PRIME), and a Phi_m build of at most m + 1 slots.
# The ring's other cost, one reduction's finish, is budgeted by the multiply-adds of its chain's
# term loops, counted from the odd primes of m alone: at most MAX_REDUCTION_STEPS.
MAX_RING_ORDER = 2 * 10**6
MAX_REDUCTION_STEPS = 10**7


def _even_part(m: int) -> tuple[int, int]:
    """The one rule for 2 | m: (h, sign) with x^h = sign in Z[zeta_m], (m/2, -1) or (m, 1)."""
    return (m // 2, -1) if m % 2 == 0 else (m, 1)


def _divide_binomial(poly: list[int], d: int, sign: int) -> list[int]:
    """The exact quotient q of poly by y^d - sign, sign = +-1, from the lowest term up:
    q_i = q_(i-d) - poly_i for y^d - 1 and poly_i - q_(i-d) for y^d + 1, one recurrence
    per residue class mod d, in at most about sqrt(len) C-level calls.  Short classes
    (d*d > len) take one `map` per block of d, long ones one running sum each; for
    y^d + 1, (-1)^j * q_j along a class is the running sum of (-1)^j * poly_j, so every
    other entry is negated before and after."""
    q = poly[: len(poly) - d]
    if d * d > len(q):
        if sign > 0:
            q[:d] = map(operator.neg, q[:d])
        for i in range(d, len(q), d):
            low, high = q[i - d : i], q[i : i + d]
            q[i : i + d] = map(operator.sub, low, high) if sign > 0 else map(operator.sub, high, low)
        return q
    for k in range(d):
        line = q[k::d]
        if sign > 0:
            line = itertools.islice(itertools.accumulate(line, operator.sub, initial=0), 1, None)
        else:
            line[1::2] = map(operator.neg, line[1::2])
            line = list(itertools.accumulate(line))
            line[1::2] = map(operator.neg, line[1::2])
        q[k::d] = line
    return q


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial Phi_m: with (h, sign)
    from `_even_part` and r the odd radical of m, the Moebius product of y^d - sign
    over the divisors d of r at y = x^(h/r), one linear pass each.  For odd m that is
    Phi_r(x^(m/r)); for even m and r > 1, Phi_r(-x^(m/2r)), as Phi_2n(x) = Phi_n(-x)."""
    check_int("m", m, lo=1, hi=MAX_RING_ORDER)
    stride, sign = _even_part(m)
    primes = [q for q in _prime_factors(m) if q != 2]
    factors = [(1, (-1) ** len(primes))]  # (d, mu(r/d)) over the divisors d of r
    for q in primes:
        factors += [(d * q, -mu) for d, mu in factors]
        stride //= q
    times = operator.sub if sign > 0 else operator.add
    poly = [1]
    for d, mu in sorted(factors, key=lambda f: -f[1]):  # multiply first, so every division is exact
        if mu > 0:  # times y^d - sign
            poly = [0] * d + poly
            poly[: len(poly) - d] = map(times, poly, poly[d:])
        else:
            poly = _divide_binomial(poly, d, sign)
    out = [0] * ((len(poly) - 1) * stride + 1)
    out[::stride] = poly
    return tuple(out)


# One order, as `characters._dlog_table` keeps one prime: a report runs its orbits by ring order.
@functools.lru_cache(maxsize=1)
def _modulus(
    m: int,
) -> tuple[int, int, int, int, int, tuple[tuple[int, int, tuple | None], ...], int]:
    """(phi, h, sign, steps, grow, links, budget) of Phi_m: its degree; the (h, sign) of
    `_even_part`, so Phi_m divides x^h - sign; the budget's count; and, only within
    MAX_REDUCTION_STEPS, how far a finish grows a value and the chain it runs.  With
    q_1 < q_2 < ... the odd primes of m, R_j = q_1 * ... * q_j and lo_j = phi(R_j) * h/R_j,
    link j is the modulus Phi_(R_j)(sign * y) at y = x^(h/R_j), which is Phi_(m*R_j/h) in y:
    each divides the one before, and the last is Phi_m.  A link is (hi, lo, terms): the length
    it reduces, lo_(j-1) (h for the first), its degree in x, lo_j, and its nonzero terms (k, c)
    below the lead; the first link, Phi_(q_1) of q_1 ones, has terms None.  steps, the sum over
    later links of (hi - lo) * phi(R_j), bounds the multiply-adds of their term loops from the
    factorisation alone, so an order over the budget is refused before any polynomial is built.
    grow is 2 for the first link times (1 + max|c|) per lead of each later one.  An order with
    at most one odd prime costs no steps, builds no polynomial and keeps at most one link.
    budget is the MAX_REDUCTION_STEPS the entry was judged against, which its refusal quotes."""
    h, sign = _even_part(m)
    primes = [q for q in _prime_factors(m) if q != 2]
    strides = [h // radical for radical in itertools.accumulate(primes, operator.mul, initial=1)]
    totients = list(itertools.accumulate((q - 1 for q in primes), operator.mul, initial=1))
    los = list(map(operator.mul, strides, totients))
    steps = sum((hi - lo) * totient for hi, lo, totient in zip(los[1:], los[2:], totients[2:]))
    if not primes or steps > MAX_REDUCTION_STEPS:
        return los[-1], h, sign, steps, 1, (), MAX_REDUCTION_STEPS
    links, grow = [(h, los[1], None)], 2
    for stride, hi, lo in zip(strides[2:], los[1:], los[2:]):
        poly = cyclotomic_polynomial(m // stride)
        grow *= (1 + max(map(abs, poly))) ** (hi - lo)
        links.append((hi, lo, tuple((k * stride, c) for k, c in enumerate(poly[:-1]) if c)))
    return los[-1], h, sign, steps, grow, tuple(links), MAX_REDUCTION_STEPS


def _check_reduction(m: int, arg: str) -> None:
    """The ring's cost budget, a finish within MAX_REDUCTION_STEPS, on the verdict of m's
    `_modulus` entry: an order that needs a finish (phi < h) and has no links was refused
    there, and the message quotes the budget it was refused at.  `arg` names what set m."""
    phi, h, _, steps, _, links, budget = _modulus(m)
    if phi < h and not links:
        raise InvalidInput(arg, f"a reduction in Z[zeta_{m}] takes {steps} steps, over the budget of {budget}")


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
    to the first, subtracted on odd blocks when sign = -1, one C-level `map` each.  Then
    the links of `_modulus` reduce r[:hi] to r[:lo] in place: the first subtracts its top
    block from each block below, negated on odd blocks when sign = -1, in one C-level
    pass; each later one divides lead by lead over its terms.  An order past the budget
    has no links, so it is refused naming m unless r[phi:] is all zero."""
    phi, h, sign, _, _, links, _ = _modulus(m)
    r = list(coeffs[:h])
    r += [0] * (h - len(r))
    for start in range(h, len(coeffs), h):
        chunk, fold = coeffs[start : start + h], operator.sub if sign < 0 and start // h % 2 else operator.add
        r[: len(chunk)] = map(fold, r, chunk)
    if not links and any(r[phi:]):
        _check_reduction(m, "m")
    for hi, lo, terms in links:
        if terms is None:
            top = r[lo:hi]
            r[:lo] = map(operator.sub, r[:lo], itertools.cycle(top if sign > 0 else top + [-c for c in top]))
        else:
            for i in range(hi - 1, lo - 1, -1):
                lead = r[i]
                if lead:
                    for k, c in terms:
                        r[i - lo + k] -= lead * c
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
    placed coefficients in one slot, as a is a unit mod h, and the links scale the largest
    value by at most `_modulus`'s grow, so the fields hold max|z| * grow."""
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
