"""Fixed-precision p-adic integers, Teichmueller lifts, and the p-derivation
delta(x) = (x - x^p)/p with its Frobenius-lift bookkeeping.

A value is a single residue mod p^N (p a prime below 2**31, 1 <= N <= 64
digits), not a digit vector; all arithmetic is exact big-integer work modulo p^N.  Division by p
is the only operation that loses precision, and it says so: the result
carries exactly N-1 digits.  Frobenius on these ground-ring elements is the
identity, which is what makes (x - x^p)/p a p-derivation here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InsufficientPrecision, InvalidInput, MismatchedStructure, NonUnit
from .finite_field import _check_prime

MAX_PRECISION = 64


def _check_structure(p: int, precision: int) -> None:
    _check_prime(p, least=2)
    if not 1 <= precision <= MAX_PRECISION:
        raise InvalidInput("precision", f"need 1 <= precision <= {MAX_PRECISION}, got {precision}")


class PadicInt:
    """Residue mod p^N with explicit precision tracking."""

    __slots__ = ("p", "precision", "value")

    def __init__(self, p: int, precision: int, value: int):
        _check_structure(p, precision)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "value", value % p**precision)

    def __setattr__(self, name, value):
        raise AttributeError("PadicInt is immutable")

    def valuation(self) -> int:
        """Largest k <= N with p^k dividing the value; N for zero ("at least N")."""
        if self.value == 0:
            return self.precision
        v = 0
        x = self.value
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v

    def is_unit(self) -> bool:
        return self.value % self.p != 0

    def _coerce(self, other) -> "PadicInt":
        if isinstance(other, PadicInt):
            if (other.p, other.precision) != (self.p, self.precision):
                raise MismatchedStructure(
                    f"operands live in Z/{self.p}^{self.precision} vs Z/{other.p}^{other.precision}"
                )
            return other
        if isinstance(other, int):
            return PadicInt(self.p, self.precision, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicInt(self.p, self.precision, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicInt(self.p, self.precision, self.value - other.value)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return PadicInt(self.p, self.precision, -self.value)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicInt(self.p, self.precision, self.value * other.value)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return PadicInt(self.p, self.precision, pow(self.value, exponent, self.p**self.precision))

    def inverse(self) -> "PadicInt":
        """Inverse of a unit; mod-p seed lifted by Newton doubling of correct digits."""
        if not self.is_unit():
            raise NonUnit(f"valuation {self.valuation()} > 0, not invertible")
        inv = pow(self.value % self.p, -1, self.p)
        digits = 1
        while digits < self.precision:
            digits = min(2 * digits, self.precision)
            modulus = self.p**digits
            inv = inv * (2 - self.value * inv) % modulus
        return PadicInt(self.p, self.precision, inv)

    def divide_by_p(self) -> "PadicInt":
        """Exact division by p; costs one digit of precision."""
        if self.precision < 2:
            raise InsufficientPrecision("cannot divide by p at one digit of precision")
        if self.value % self.p != 0:
            raise NonUnit(f"{self.value} is a unit; division by {self.p} is not exact")
        return PadicInt(self.p, self.precision - 1, self.value // self.p)

    def truncate(self, precision: int) -> "PadicInt":
        if precision > self.precision:
            raise InsufficientPrecision(
                f"cannot extend precision {self.precision} to {precision}"
            )
        return PadicInt(self.p, precision, self.value)

    def __eq__(self, other):
        if isinstance(other, PadicInt):
            return (self.p, self.precision, self.value) == (other.p, other.precision, other.value)
        if isinstance(other, int):
            return self.value == other % self.p**self.precision
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.precision, self.value))

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"PadicInt(p={self.p}, precision={self.precision}, value={self.value})"


def teichmuller(a: PadicInt) -> PadicInt:
    """The unique root of x^p = x congruent to a mod p, by iterating x -> x^p."""
    if not a.is_unit():
        raise NonUnit("Teichmueller lift needs a unit")
    modulus = a.p**a.precision
    x = a.value
    for _ in range(a.precision + 1):
        nxt = pow(x, a.p, modulus)
        if nxt == x:
            break
        x = nxt
    return PadicInt(a.p, a.precision, x)


def delta_p(x: PadicInt) -> PadicInt:
    """The p-derivation (x - x^p)/p, one digit shorter than its input.

    Fermat guarantees p divides x - x^p, so the division is exact; the
    identity Frobenius on the ground ring is what the formula encodes.
    """
    if x.precision < 2:
        raise InsufficientPrecision("delta needs at least two digits")
    return (x - x**x.p).divide_by_p()


def cp_cocycle(p: int, x: int, y: int) -> int:
    """[x^p + y^p - (x+y)^p] / p as an exact integer (divisibility is automatic)."""
    _check_prime(p, least=2)
    num = x**p + y**p - (x + y) ** p
    assert num % p == 0
    return num // p


@dataclass(frozen=True)
class FrobeniusLiftVerdict:
    """phi(x) for one of the two named lifts, with its mod-p Frobenius check."""

    variant: str
    phi: PadicInt
    reduces_to_frobenius: bool
    delta_component: PadicInt  # (phi(x) - x^p)/p at one digit less


def frobenius_lift_check(variant: str, x: PadicInt) -> FrobeniusLiftVerdict:
    """Evaluate phi1(x) = x^p or phi2(x) = x^p + p*x and verify both claims:
    the value reduces to x^p mod p, and its deviation from x^p over p is the
    advertised derivation component (0 for phi1, x for phi2)."""
    if x.precision < 2:
        raise InsufficientPrecision("lift check needs at least two digits")
    xp = x**x.p
    if variant == "phi1":
        phi = xp
    elif variant == "phi2":
        phi = xp + x.p * x
    else:
        raise InvalidInput("variant", f"must be phi1 or phi2, got {variant!r}")
    reduces = (phi.value - pow(x.value, x.p, x.p)) % x.p == 0
    delta_component = (phi - xp).divide_by_p() if (phi - xp).value % x.p == 0 else None
    if delta_component is None:  # cannot happen for these two lifts
        raise AssertionError("lift deviation not divisible by p")
    return FrobeniusLiftVerdict(
        variant=variant,
        phi=phi,
        reduces_to_frobenius=reduces,
        delta_component=delta_component,
    )


@dataclass(frozen=True)
class DeltaRulesVerdict:
    """Exact verification of the sum and product rules at precision N-1."""

    sum_rule_ok: bool
    product_rule_ok: bool
    delta_x: PadicInt
    delta_y: PadicInt
    cocycle: int  # C_p(x, y) mod p^(N-1), the residue the sum rule uses


def delta_rules_check(x: PadicInt, y: PadicInt) -> DeltaRulesVerdict:
    """Check delta(x+y) = delta(x) + delta(y) + C_p(x, y) and
    delta(xy) = x^p delta(y) + y^p delta(x) + p delta(x) delta(y),
    both exactly at one digit less than the inputs."""
    if x.precision < 2 or y.precision < 2:
        raise InsufficientPrecision("rule check needs at least two digits")
    if (x.p, x.precision) != (y.p, y.precision):
        raise MismatchedStructure("rule check needs matching prime and precision")
    p, n1 = x.p, x.precision - 1
    dx = delta_p(x)
    dy = delta_p(y)
    xp, yp = x**p, y**p
    cp = (xp + yp - (x + y) ** p).divide_by_p()
    sum_ok = delta_p(x + y) == dx + dy + cp
    product_ok = delta_p(x * y) == xp.truncate(n1) * dy + yp.truncate(n1) * dx + p * dx * dy
    return DeltaRulesVerdict(
        sum_rule_ok=sum_ok,
        product_rule_ok=product_ok,
        delta_x=dx,
        delta_y=dy,
        cocycle=cp.value,
    )
