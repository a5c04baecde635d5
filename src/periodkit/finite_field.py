"""Exact arithmetic in prime fields F_p.

Elements are immutable residues with an attached odd prime modulus in the
machine-word range (p < 2**31).  Primality is checked deterministically at
construction, the canonical generator of F_p^x is the smallest primitive
root, and the p = 1 mod 4 case carries the explicit Gaussian-integer
presentation of F_p as a quotient of Z[i].
"""

import math

from ._frozen import Frozen, Residue, _coerced
from .errors import (
    BadCongruence,
    DivisionByZero,
    InvalidInput,
    InvariantFailed,
    MismatchedStructure,
    check_int,
    check_record,
    shown,
)

MAX_PRIME = 2**31

# Miller-Rabin with these witnesses is exact for all n < 3_215_031_751
# (= 151 * 751 * 28351, which passes them), so is_prime stops at 2**31.
_MR_WITNESSES = (2, 3, 5, 7)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2**31; InvalidInput for n >= 2**31."""
    check_int("n", n)
    if n >= MAX_PRIME:
        raise InvalidInput("n", f"is_prime is exact only below 2**31, got {shown(n)}")
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int, least: int = 3) -> None:
    """The library's one primality rule: p is a prime in [least, MAX_PRIME),
    a range on which is_prime is exact.  It runs once per value that enters,
    in the constructors that take a bare p (PrimeFieldElem, PadicInt,
    MultiplicativeCharacter, WeierstrassCurveFp) and in the two entries that
    refuse p before their character does (quartic_character, whose p = 1 mod 4
    rule comes first, and correspondence_table, whose desk scale does).  Every
    result built from a value carries that value's checked p: a residue's
    arithmetic, a p-adic result at a new precision, a character built from
    another, and the field's bare-p entries, which build one element first."""
    if not isinstance(p, int) or not (least <= p < MAX_PRIME and is_prime(p)):
        raise InvalidInput("p", f"need a prime in [{least}, 2**31), got {shown(p)}")


def _check_one_mod_four(p: int) -> None:
    """The one congruence rule, for the Gaussian split and the quartic
    character: p = 1 mod 4, so that F_p^x has an element of order 4."""
    if p % 4 != 1:
        raise BadCongruence(f"p = {p} is {p % 4} mod 4; need p = 1 mod 4")


def _check_same_prime(a, b) -> None:
    """The one same-field rule of characters, with each other and with residues: a.p == b.p."""
    if a.p != b.p:
        raise MismatchedStructure(f"moduli differ: {a.p} vs {b.p}")


class PrimeFieldElem(Residue):
    """A residue in F_p, p an odd prime.

    Invariant: 0 <= value < p; the modulus is validated once at construction
    and carried into results.  Instances are immutable and hashable; arithmetic
    between elements with different moduli raises MismatchedStructure.
    """

    __slots__ = ()
    _fields = ("p", "value")

    def __new__(cls, p: int, value: int):
        _check_prime(p)
        check_int("value", value)
        return tuple.__new__(cls, (p, value % p))

    @property
    def modulus(self) -> int:
        return self.p

    def inverse(self) -> "PrimeFieldElem":
        """Multiplicative inverse; raises DivisionByZero on the zero residue."""
        if self.value == 0:
            raise DivisionByZero(f"0 mod {self.p} is not invertible")
        return self._with(pow(self.value, self.p - 2, self.p))

    __truediv__ = _coerced(lambda a, b: a._mul(b.inverse()))

    def __repr__(self):
        return f"PrimeFieldElem({self.p}, {self.value})"


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return primes + [n] * (n > 1)


def _smallest_primitive_root(p: int) -> int:
    n = p - 1
    factors = _prime_factors(n)
    for g in range(2, p):
        if all(pow(g, n // q, p) != 1 for q in factors):
            return g
    raise InvariantFailed(f"primitive root: none found for {p}")  # unreachable for prime p


def find_primitive_root(p: int) -> PrimeFieldElem:
    """Smallest generator of F_p^x; fixed once so downstream encodings are reproducible."""
    one = PrimeFieldElem(p, 1)
    return one._with(_smallest_primitive_root(one.p))


def legendre_symbol(a: PrimeFieldElem) -> int:
    """Quadratic symbol of a residue: 0 for zero, +1 for squares, -1 otherwise."""
    check_record("a", a, PrimeFieldElem)
    s = pow(a.value, (a.p - 1) // 2, a.p)  # Euler's criterion: 0, 1 or p - 1
    return -1 if s == a.p - 1 else s


class GaussianSplit(Frozen):
    """Presentation of F_p (p = 1 mod 4) as Z[i] modulo a Gaussian prime a + b*i.

    u is the image of i under the quotient map, so u**2 = -1 in F_p, and
    a**2 + b**2 = p exactly with a > b >= 1.
    """

    __slots__ = ()
    _fields = ("u", "a", "b")


def iso_gaussian_residue(p: int) -> GaussianSplit:
    """Square root of -1 in F_p together with the two-square splitting of p.

    u is computed as g**((p-1)/4) for the canonical primitive root g; the
    Gaussian factor comes from Cornacchia's Euclidean descent seeded at u.
    """
    zero = PrimeFieldElem(p, 0)
    _check_one_mod_four(p)
    g = _smallest_primitive_root(p)
    u = pow(g, (p - 1) // 4, p)
    # Euclidean descent: the first remainder below sqrt(p) is the larger leg a of the split.
    r0, a = p, max(u, p - u)
    while a * a > p:
        r0, a = a, r0 % a
    b = math.isqrt(p - a * a)
    if a * a + b * b != p:
        raise InvariantFailed(f"two-square split: {a}^2 + {b}^2 != {p}")
    return GaussianSplit(u=zero._with(u), a=a, b=b)
