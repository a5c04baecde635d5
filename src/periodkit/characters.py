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

import cmath
import functools
import math
import sys
from array import array

from ._frozen import Frozen
from .cyclotomic import MAX_RING_ORDER, CyclotomicNumber
from .errors import InvalidInput, TrivialCharacter, check_int, check_record
from .finite_field import PrimeFieldElem, _check_one_mod_four, _check_prime, _check_same_prime, _smallest_primitive_root

# Bounds the kernels over F_p: the dlog table, one entry per pair {t, -t}, and
# the Gauss-sum walk.  Each takes its p from a character, so
# MultiplicativeCharacter admits p <= MAX_TABLE_PRIME where it is built.  It is
# the ring's range, so every order p - 1 of a character's Jacobi sum is a ring
# order.  Their cost is the `finite_enum` workload of perfbench.
MAX_TABLE_PRIME = MAX_RING_ORDER
# Pairs per chunk of the byte route (`_byte_counts`): its transient bytes are a few chunks.
BYTE_CHUNK = 1 << 15


@functools.lru_cache(maxsize=1)  # every command and report works over one prime
def _dlog_table(p: int) -> array:
    """dlog[t] = j with g^j = t for 1 <= t <= h = (p-1)/2 and the canonical primitive
    root g; dlog[0] unused.  As g^h = -1, dlog(p - t) = dlog[t] + h, so one entry serves
    the pair {t, -t}: the walk over j < h meets one of each pair and stores it once.
    h + 1 entries of four bytes, as p < 2**31; p is a character's, so at most
    MAX_TABLE_PRIME, 4 MB.  The cache shares it, so callers only read it."""
    g = _smallest_primitive_root(p)
    half = p // 2
    table = array("I", [0]) * (half + 1)
    t = 1
    for j in range(half):
        if t <= half:
            table[t] = j
        else:
            table[p - t] = j + half
        t = t * g % p
    return table


class MultiplicativeCharacter(Frozen):
    """Character c: F_p^x -> C^x with c(g^j) = zeta_(p-1)^(k*j) and c(0) = 0."""

    __slots__ = ()
    _fields = ("p", "k")

    def __new__(cls, p: int, k: int):
        _check_prime(p)
        if p > MAX_TABLE_PRIME:
            raise InvalidInput("p", f"the kernels over F_p need p <= {MAX_TABLE_PRIME}, got {p}")
        check_int("k", k)
        return tuple.__new__(cls, (p, k % (p - 1)))

    def _with(self, k: int) -> "MultiplicativeCharacter":
        """The character of exponent k over self's checked p, unchecked: k is an int."""
        cls = self.__class__
        return tuple.__new__(cls, (self.p, k % (self.p - 1)))

    @property
    def order(self) -> int:
        return (self.p - 1) // math.gcd(self.k, self.p - 1)

    @property
    def is_trivial(self) -> bool:
        return self.k == 0

    def __mul__(self, other: "MultiplicativeCharacter") -> "MultiplicativeCharacter":
        if not isinstance(other, MultiplicativeCharacter):
            return NotImplemented
        _check_same_prime(self, other)
        return self._with(self.k + other.k)


def quadratic_character(p: int) -> MultiplicativeCharacter:
    trivial = MultiplicativeCharacter(p, 0)
    return trivial._with((trivial.p - 1) // 2)


def quartic_character(p: int) -> MultiplicativeCharacter:
    _check_prime(p)
    _check_one_mod_four(p)
    return MultiplicativeCharacter(p, (p - 1) // 4)


def char_eval(c: MultiplicativeCharacter, a: PrimeFieldElem) -> CyclotomicNumber:
    """Exact character value in Z[zeta_(p-1)]; zero element for a = 0."""
    check_record("c", c, MultiplicativeCharacter)
    check_record("a", a, PrimeFieldElem)
    _check_same_prime(c, a)
    m = c.p - 1
    if a.value == 0:
        return CyclotomicNumber(m, [])
    table, half, t = _dlog_table(c.p), c.p // 2, a.value
    j = table[t] if t <= half else table[c.p - t] + half
    return CyclotomicNumber.root_of_unity(m, c.k * j % m)


class GaussSumValue(Frozen):
    """Floating Gauss sum g(c).  For nontrivial c, |value|**2 = p up to round-off:
    within 1e-9 for p <= 97; above that the relative residual | |value|**2/p - 1 |
    is a few ulps, at most about 5e-15 at p near 10^6 and 2*10^6 (1.3e-15 and
    2.2e-16 for k = 1), and no worse than that of the walk over all of F_p^x."""

    __slots__ = ()
    _fields = ("value", "p")

    @property
    def norm_sq(self) -> float:
        return abs(self.value) ** 2


def gauss_sum(c: MultiplicativeCharacter) -> GaussSumValue:
    """g(c) = sum over t in F_p^x of c(t) * e^(2*pi*i*t/p), walked as t = g^j
    for j < h = (p-1)/2 only: c(-t) = (-1)^k c(t) and psi(-t) = conj psi(t), so
    the pair (t, -t) adds c(t) * 2cos(2*pi*t/p) for even k and
    c(t) * 2i*sin(2*pi*t/p) for odd k.  The walk goes in blocks of isqrt(h) + 1
    steps, and c(g^j) = c(g^start) * c(g^r) for j = start + r: one table of
    the c(g^r), r < size, serves every block, so each pair costs one trig call
    and each block one more `rect`, O(sqrt(h)) in all.  The table is all it builds."""
    check_record("c", c, MultiplicativeCharacter)
    p, k, m = c.p, c.k, c.p - 1
    g, h = _smallest_primitive_root(p), m // 2
    turn, angle = 2 * math.pi / p, 2 * math.pi / m
    wave = math.sin if k % 2 else math.cos
    size = math.isqrt(h) + 1
    roots = [cmath.rect(1, angle * (k * r % m)) for r in range(size)]  # c(g^r)
    total, t = 0j, 1  # t = g^j
    for start in range(0, h, size):
        block = 0j
        for root in roots[: h - start]:
            block += wave(turn * t) * root
            t = t * g % p
        total += block * cmath.rect(1, angle * (k * start % m))
    return GaussSumValue((2j if k % 2 else 2) * total, p)


def jacobi_sum(c: MultiplicativeCharacter, c2: MultiplicativeCharacter) -> CyclotomicNumber:
    """J(c, c') = sum over t of c(t) * c'(1-t), exactly in Z[zeta_n].

    n = lcm(order(c), order(c')); every term is a power of zeta_n, so the sum
    is gathered as exponent counts and reduced once.  Both orders divide n, so
    k = u*step and k' = u'*step with step = (p-1)/n, and t lands in bucket
    (u*dlog[t] + u'*dlog[1-t]) mod n.  The walk pairs t with 1 - t, which
    swaps the two logs, and counts the fixed point t = 1/2 once.

    Two routes give the same counts.  For n a power of two up to 128 (the a_p
    bridge has n = 4), `_byte_counts` tallies the pairs by popcounts of bit
    planes, in bytes and big-integer operations: n must divide 256 for dlog
    mod 256 to fix the bucket, 2n <= 256 for the two sides' residues to add
    within a byte, and n = 2^k for the bucket to be the byte's k low bits.
    Every other n takes the Python loop over the pairs.
    """
    check_record("c", c, MultiplicativeCharacter)
    check_record("c2", c2, MultiplicativeCharacter)
    _check_same_prime(c, c2)
    p = c.p
    m = p - 1
    n = math.lcm(c.order, c2.order)
    step = m // n
    u, u2 = c.k // step, c2.k // step
    # t = 0 and t = 1 drop out (c(0) = 0).  For t = 2 .. h, dlog t = table[t] and, as
    # 1 - t = -(t - 1), dlog (1 - t) = table[t - 1] + h; the fixed point 1/2 = h + 1 has table[h] + h.
    table, half = _dlog_table(p), p // 2
    if n <= 128 and 256 % n == 0:
        counts = _byte_counts(table, half, n, u, u2)
    else:
        counts, shift, shift2 = [0] * n, u * half % n, u2 * half % n
        for a, b in zip(table[2:], table[1:-1]):
            counts[(u * a + u2 * b + shift2) % n] += 1
            counts[(u * b + u2 * a + shift) % n] += 1
    counts[(u + u2) * (table[half] + half) % n] += 1
    return CyclotomicNumber._unchecked(n, counts)


def _byte_counts(table: array, half: int, n: int, u: int, u2: int) -> list[int]:
    """The bucket counts of `jacobi_sum` over the pairs (t, 1 - t), t = 2 .. half, in C-level
    bytes and big-integer operations, with no scan per bucket.  The two sides read the table one
    slot apart: dlog t = table[t] and dlog (1 - t) = table[t - 1] + half.  dlog mod n is the low
    byte of each entry mod n, one `translate` per side maps it to u*dlog mod n, the second
    side's with u'*half added, and one integer sum adds the two sides bytewise, each byte below
    2n <= 256.  As n = 2^k, a pair's bucket is its byte's k low bits.  Plane i holds bit i of
    every byte, folded eight bytes to one by the same shuffle for every plane, which AND and
    popcount do not see.  The popcount of the AND of the planes of each subset S of the k bits
    counts the bytes with every bit of S set, and inclusion-exclusion over the supersets of S
    leaves those whose bits are exactly S.  The second pass swaps u and u', which counts the
    pair (1 - t, t).  The pairs go in chunks of BYTE_CHUNK and the subsets depth first, so the
    copies and sums of one chunk, and k planes and k ANDs of an eighth of it, are all the
    transient bytes, whatever half is."""
    low, k = table.itemsize - 1 if sys.byteorder == "big" else 0, n.bit_length() - 1
    residues = bytes(range(n)) * (256 // n)  # x -> x mod n; below, x -> v*x + s mod n, as v + n = v mod n
    maps = [((residues * (v + n))[:: v + n], (residues * (v2 + n))[v2 * half % n :: v2 + n])
            for v, v2 in ((u, u2), (u2, u))]
    subsets = [0] * n  # subsets[S]: bytes with every bit of S set

    def tally(common: int, s: int) -> None:  # common: the AND of the planes of the bits of s
        subsets[s] += common.bit_count()
        for i in range(s.bit_length(), k):
            tally(common & planes[i], s | 1 << i)

    def fold(x: int, size: int) -> int:  # the bits at 8m, m < size, to distinct bits of ceil(size/8) bytes
        for r in (1, 2, 4):
            size -= size // 2
            x = x & (1 << 8 * size) - 1 | x >> 8 * size << r
        return x

    ones = int.from_bytes(b"\1" * min(BYTE_CHUNK, half), "little")
    for start in range(0, half - 1, BYTE_CHUNK):
        logs = memoryview(table)[start + 1 : start + BYTE_CHUNK + 2].tobytes()[low :: table.itemsize]
        a, b = logs[1:], logs[:-1]  # dlog t and dlog (1 - t) - half, paired
        for times, times2 in maps:
            total = int.from_bytes(a.translate(times), "little") + int.from_bytes(b.translate(times2), "little")
            planes = [fold(total >> i & ones, len(a)) for i in range(k)]
            tally(-1, 0)  # -1 has every bit set: the AND of no plane
    subsets[0] = 2 * (half - 1)  # every pair, both ways; tally's count for -1 is junk
    for i in range(k):
        subsets = [c - subsets[s | 1 << i] if not s >> i & 1 else c for s, c in enumerate(subsets)]
    return subsets


def gauss_jacobi_relation_check(
    c: MultiplicativeCharacter, c2: MultiplicativeCharacter, j: CyclotomicNumber
) -> float:
    """|embed(j) - g(c)*g(c')/g(c*c')| for j = jacobi_sum(c, c'), which the
    caller has already computed; below 1e-8 for p <= 31.

    Raises TrivialCharacter when c, c' or c*c' is trivial; the identity
    genuinely fails there, so a quiet number would mislead the caller.
    """
    check_record("c", c, MultiplicativeCharacter)
    check_record("c2", c2, MultiplicativeCharacter)
    check_record("j", j, CyclotomicNumber)
    product = c * c2
    if c.is_trivial or c2.is_trivial or product.is_trivial:
        raise TrivialCharacter(
            f"relation needs c, c', c*c' nontrivial (k={c.k}, k'={c2.k}, p={c.p})"
        )
    exact = j.embed()
    ratio = gauss_sum(c).value * gauss_sum(c2).value / gauss_sum(product).value
    return abs(exact - ratio)
