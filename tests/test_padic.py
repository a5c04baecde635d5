"""Fixed-precision p-adic integers and the p-derivation identities."""

import random

import pytest

from periodkit import _frozen, padic
from periodkit._frozen import Residue
from periodkit.errors import InsufficientPrecision, InvalidInput, MismatchedStructure, NonUnit
from periodkit.padic import (
    PadicInt,
    delta_p,
    delta_rules_check,
    frobenius_lift_check,
    teichmuller,
)


def cp_cocycle(p, x, y):
    """[x^p + y^p - (x+y)^p] / p as an exact integer: the oracle for the
    cocycle residue that delta_rules_check reports."""
    quotient, remainder = divmod(x**p + y**p - (x + y) ** p, p)
    if remainder:
        raise ValueError(f"{p} does not divide x^p + y^p - (x+y)^p")
    return quotient


def test_arithmetic_examples():
    x = PadicInt(5, 4, 2)
    assert x.inverse() * x == PadicInt(5, 4, 1)
    assert PadicInt(7, 3, 1).inverse() == PadicInt(7, 3, 1)
    assert x + PadicInt(5, 4, 0) == x
    assert PadicInt(5, 4, 3) * PadicInt(5, 4, 2) == PadicInt(5, 4, 6)
    assert PadicInt(3, 3, 25) - PadicInt(3, 3, 26) == PadicInt(3, 3, -1)


def test_inverse_random():
    rng = random.Random(99)
    for p in (2, 3, 5, 7):
        for n in (1, 3, 8, 20):
            for _ in range(20):
                v = rng.randrange(p**n)
                if v % p == 0:
                    continue
                x = PadicInt(p, n, v)
                assert x * x.inverse() == PadicInt(p, n, 1), (p, n, v)


def test_negative_power_goes_through_inverse():
    x = PadicInt(5, 4, 2)
    assert x**-1 == x.inverse()
    assert x**-3 == x.inverse() ** 3
    assert x**-3 * x**3 == PadicInt(5, 4, 1)
    with pytest.raises(NonUnit):
        PadicInt(5, 3, 5) ** -1
    with pytest.raises(NonUnit):
        PadicInt(5, 3, 0) ** -2


def test_valuation():
    assert PadicInt(5, 4, 50).valuation() == 2
    assert PadicInt(5, 4, 3).valuation() == 0
    assert PadicInt(5, 4, 0).valuation() == 4  # "at least N"


def test_divide_by_p_bookkeeping():
    x = PadicInt(5, 4, 50)
    y = x.divide_by_p()
    assert y == PadicInt(5, 3, 10) and y.precision == 3
    with pytest.raises(NonUnit):
        PadicInt(5, 4, 3).divide_by_p()
    with pytest.raises(InsufficientPrecision):
        PadicInt(5, 1, 0).divide_by_p()


def test_structure_errors():
    with pytest.raises(MismatchedStructure):
        PadicInt(5, 3, 1) + PadicInt(7, 3, 1)
    with pytest.raises(MismatchedStructure):
        PadicInt(5, 3, 1) * PadicInt(5, 4, 1)
    with pytest.raises(NonUnit):
        PadicInt(5, 3, 10).inverse()
    with pytest.raises(ValueError):
        PadicInt(6, 3, 1)
    with pytest.raises(ValueError):
        PadicInt(5, 0, 1)
    with pytest.raises(ValueError):
        PadicInt(5, 65, 1)


def test_teichmuller_examples():
    assert teichmuller(PadicInt(7, 5, 1)) == PadicInt(7, 5, 1)
    t = teichmuller(PadicInt(5, 6, 2))
    assert pow(t.value, 5, 5**6) == t.value
    assert t.value % 5 == 2
    assert teichmuller(PadicInt(3, 5, 2)).value == 3**5 - 1  # the lift of -1
    with pytest.raises(NonUnit):
        teichmuller(PadicInt(5, 4, 10))


def test_teichmuller_fixed_points_distinct():
    for p in (3, 5, 7):
        n = 6
        lifts = {teichmuller(PadicInt(p, n, a)).value for a in range(1, p)}
        assert len(lifts) == p - 1, p
        for w in lifts:
            assert pow(w, p, p**n) == w


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_teichmuller_is_the_delta_constant_above_a(p):
    for n in range(2, 6):
        for a in range(p**n):
            if a % p:
                w = teichmuller(PadicInt(p, n, a))
                assert w.value % p == a % p, (p, n, a)
                assert delta_p(w) == PadicInt(p, n - 1, 0), (p, n, a)


def test_delta_examples():
    assert delta_p(PadicInt(5, 4, 0)).value == 0
    assert delta_p(PadicInt(5, 4, 1)).value == 0
    assert delta_p(PadicInt(2, 6, 2)) == PadicInt(2, 5, -1)  # (2 - 4)/2
    # (7 - 7^5)/5 = -3360 exactly.
    d = delta_p(PadicInt(5, 6, 7))
    assert d.precision == 5 and d == PadicInt(5, 5, -3360)
    with pytest.raises(InsufficientPrecision):
        delta_p(PadicInt(5, 1, 2))


def test_cocycle_examples():
    for p in (2, 3, 5, 7):
        assert cp_cocycle(p, 12, 0) == 0
    assert cp_cocycle(2, 1, 1) == -1
    assert cp_cocycle(3, 2, 1) == -6
    with pytest.raises(ValueError):
        cp_cocycle(6, 1, 1)


def test_cocycle_symmetry_random():
    rng = random.Random(3)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7])
        x, y = rng.randrange(-50, 50), rng.randrange(-50, 50)
        assert cp_cocycle(p, x, y) == cp_cocycle(p, y, x)


def test_frobenius_lift_checks():
    v1 = frobenius_lift_check("phi1", PadicInt(5, 4, 3))
    assert v1.reduces_to_frobenius and v1.delta_component.value == 0
    v2 = frobenius_lift_check("phi2", PadicInt(5, 4, 3))
    assert v2.reduces_to_frobenius and v2.delta_component == PadicInt(5, 3, 3)
    with pytest.raises(ValueError) as excinfo:
        frobenius_lift_check("phi3", PadicInt(5, 4, 3))
    assert isinstance(excinfo.value, InvalidInput) and excinfo.value.arg == "variant"
    with pytest.raises(InsufficientPrecision):
        frobenius_lift_check("phi1", PadicInt(5, 1, 3))

    rng = random.Random(41)
    for p in (2, 3, 5, 7):
        for _ in range(50):
            x = PadicInt(p, 5, rng.randrange(p**5))
            for variant in ("phi1", "phi2"):
                verdict = frobenius_lift_check(variant, x)
                assert verdict.reduces_to_frobenius
                assert verdict.phi.value % p == pow(x.value, p, p)


@pytest.mark.parametrize("variant", ["phi3", "", None, 1])
def test_frobenius_lift_refuses_its_variant_before_any_power(monkeypatch, variant):
    # The variant is checked before x^p: a bad one once cost the power first.
    powers = []

    def spy(*args):
        powers.append(args)
        return pow(*args)

    for module in (_frozen, padic):
        monkeypatch.setattr(module, "pow", spy, raising=False)
    x = PadicInt(7, 64, 3)
    with pytest.raises(InvalidInput) as excinfo:
        frobenius_lift_check(variant, x)
    assert excinfo.value.arg == "variant" and powers == []
    frobenius_lift_check("phi2", x)  # the spy sees the powers of a good variant
    assert powers


def test_delta_rules_examples():
    zero = PadicInt(3, 5, 0)
    verdict = delta_rules_check(zero, zero)
    assert verdict.sum_rule_ok and verdict.product_rule_ok
    verdict = delta_rules_check(PadicInt(3, 5, 4), PadicInt(3, 5, 7))
    assert verdict.sum_rule_ok and verdict.product_rule_ok
    assert verdict.cocycle == cp_cocycle(3, 4, 7) % 3**4


def test_delta_rules_randomized():
    rng = random.Random(2718)
    for p in (2, 3, 5, 7):
        for n in range(3, 9):
            for _ in range(40):
                x = PadicInt(p, n, rng.randrange(p**n))
                y = PadicInt(p, n, rng.randrange(p**n))
                verdict = delta_rules_check(x, y)
                assert verdict.sum_rule_ok and verdict.product_rule_ok, (p, n, x, y)
                assert verdict.cocycle == cp_cocycle(p, x.value, y.value) % p ** (n - 1)


def test_delta_rules_take_each_power_once(monkeypatch):
    # x^p, y^p, (x+y)^p and (xy)^p once each; the check once took seven powers,
    # x^p, y^p and (x+y)^p a second time through delta_p.
    power, taken = Residue.__pow__, []

    def counted(self, exponent):
        taken.append((self.value, exponent))
        return power(self, exponent)

    monkeypatch.setattr(Residue, "__pow__", counted)
    verdict = delta_rules_check(PadicInt(5, 6, 7), PadicInt(5, 6, 3))
    assert verdict.sum_rule_ok and verdict.product_rule_ok
    assert sorted(taken) == [(3, 5), (7, 5), (10, 5), (21, 5)]


def test_delta_rules_refuse_x_before_y():
    # A one-digit operand is refused where delta_p would refuse it, x first, and
    # before the operands' structures are compared.
    short, other = PadicInt(5, 1, 3), PadicInt(7, 6, 3)
    for x, y in ((short, PadicInt(5, 6, 7)), (PadicInt(5, 6, 7), short), (short, other), (other, short)):
        with pytest.raises(InsufficientPrecision):
            delta_rules_check(x, y)
    with pytest.raises(MismatchedStructure):
        delta_rules_check(PadicInt(5, 6, 7), other)
    with pytest.raises(InvalidInput) as info:
        delta_rules_check("x", "y")
    assert info.value.arg == "x"


def test_delta_precision_stability():
    rng = random.Random(5)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 8)
        value = rng.randrange(p**n)
        short = delta_p(PadicInt(p, n, value))
        long = delta_p(PadicInt(p, n + 3, value))
        assert long.truncate(n - 1) == short.truncate(n - 1), (p, n, value)
