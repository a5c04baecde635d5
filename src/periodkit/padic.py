"""Fixed-precision p-adic integers, Teichmueller lifts, and the p-derivation
delta(x) = (x - x^p)/p with its Frobenius-lift bookkeeping.

A value is a single residue mod p^N (p a prime below 2**31, 1 <= N <= 64
digits), not a digit vector; all arithmetic is exact big-integer work modulo p^N.  Division by p
is the only operation that loses precision, and it says so: the result
carries exactly N-1 digits.  Frobenius on these ground-ring elements is the
identity, which is what makes (x - x^p)/p a p-derivation here.
"""

from ._frozen import Frozen, Residue
from .errors import InsufficientPrecision, InvalidInput, NonUnit, check_int, check_record, shown
from .finite_field import _check_prime

MAX_PRECISION = 64


class PadicInt(Residue):
    """Residue mod p^N with explicit precision tracking."""

    __slots__ = ()
    _fields = ("p", "precision", "value")

    def __new__(cls, p: int, precision: int, value: int):
        _check_prime(p, least=2)
        check_int("precision", precision, lo=1, hi=MAX_PRECISION)
        check_int("value", value)
        return tuple.__new__(cls, (p, precision, value % p**precision))

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

    @property
    def modulus(self) -> int:
        return self.p**self.precision

    def inverse(self) -> "PadicInt":
        """Inverse of a unit."""
        if not self.is_unit():
            raise NonUnit(f"valuation {self.valuation()} > 0, not invertible")
        return self._with(pow(self.value, -1, self.modulus))

    def divide_by_p(self) -> "PadicInt":
        """Exact division by p; costs one digit of precision."""
        if self.precision < 2:
            raise InsufficientPrecision("cannot divide by p at one digit of precision")
        if self.value % self.p != 0:
            raise NonUnit(f"{self.value} is a unit; division by {self.p} is not exact")
        cls = self.__class__  # value < p^N, so value // p < p^(N-1) is reduced already
        return tuple.__new__(cls, (self.p, self.precision - 1, self.value // self.p))

    def truncate(self, precision: int) -> "PadicInt":
        check_int("precision", precision)
        if precision > self.precision:
            raise InsufficientPrecision(f"cannot extend precision {self.precision} to {shown(precision)}")
        check_int("precision", precision, lo=1, hi=MAX_PRECISION)
        cls = self.__class__
        return tuple.__new__(cls, (self.p, precision, self.value % self.p**precision))


def teichmuller(a: PadicInt) -> PadicInt:
    """The unique root of x^p = x congruent to a mod p, where delta_p vanishes:
    a^(p^(N-1)), as that power kills the p-part of the units mod p^N."""
    check_record("a", a, PadicInt)
    if not a.is_unit():
        raise NonUnit("Teichmueller lift needs a unit")
    return a._with(pow(a.value, a.p ** (a.precision - 1), a.modulus))


def delta_p(x: PadicInt) -> PadicInt:
    """The p-derivation (x - x^p)/p, one digit shorter than its input.

    Fermat guarantees p divides x - x^p, so the division is exact; the
    identity Frobenius on the ground ring is what the formula encodes.
    """
    check_record("x", x, PadicInt)
    return _delta(x, x**x.p)


def _delta(x: PadicInt, xp: PadicInt) -> PadicInt:
    """delta_p(x) from a checked x and its p-th power xp, already taken."""
    return (x - xp).divide_by_p()


class FrobeniusLiftVerdict(Frozen):
    """phi(x) for one of the two named lifts, with its mod-p Frobenius check;
    delta_component is (phi(x) - x^p)/p at one digit less."""

    __slots__ = ()
    _fields = ("variant", "phi", "reduces_to_frobenius", "delta_component")


def frobenius_lift_check(variant: str, x: PadicInt) -> FrobeniusLiftVerdict:
    """Evaluate phi1(x) = x^p or phi2(x) = x^p + p*x and verify both claims:
    the value reduces to x^p mod p, and its deviation from x^p over p is the
    advertised derivation component (0 for phi1, x for phi2)."""
    check_record("x", x, PadicInt)
    if variant not in ("phi1", "phi2"):
        raise InvalidInput("variant", f"must be phi1 or phi2, got {shown(variant)}")
    xp = x**x.p
    phi = xp if variant == "phi1" else xp + x.p * x
    reduces = (phi.value - pow(x.value, x.p, x.p)) % x.p == 0
    return FrobeniusLiftVerdict(
        variant=variant,
        phi=phi,
        reduces_to_frobenius=reduces,
        delta_component=(phi - xp).divide_by_p(),
    )


class DeltaRulesVerdict(Frozen):
    """Exact verification of the sum and product rules at precision N-1; cocycle
    is C_p(x, y) mod p^(N-1), the residue the sum rule uses."""

    __slots__ = ()
    _fields = ("sum_rule_ok", "product_rule_ok", "delta_x", "delta_y", "cocycle")


def delta_rules_check(x: PadicInt, y: PadicInt) -> DeltaRulesVerdict:
    """Check delta(x+y) = delta(x) + delta(y) + C_p(x, y) and
    delta(xy) = x^p delta(y) + y^p delta(x) + p delta(x) delta(y),
    both exactly at one digit less than the inputs.  Each of x^p, y^p, (x+y)^p
    and (xy)^p is taken once.  A one-digit operand is refused, x before y, and
    before the two structures are compared."""
    check_record("x", x, PadicInt)
    check_record("y", y, PadicInt)
    p, n1 = x.p, x.precision - 1
    xp, yp = x**p, y**y.p
    dx, dy = _delta(x, xp), _delta(y, yp)
    s, xy = x + y, x * y
    sp = s**p
    cp = (xp + yp - sp).divide_by_p()
    sum_ok = _delta(s, sp) == dx + dy + cp
    product_ok = _delta(xy, xy**p) == xp.truncate(n1) * dy + yp.truncate(n1) * dx + p * dx * dy
    return DeltaRulesVerdict(sum_ok, product_ok, dx, dy, cp.value)
