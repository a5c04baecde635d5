"""Prime field arithmetic against brute-force oracles."""

import pytest

from periodkit.characters import MultiplicativeCharacter, quadratic_character, quartic_character
from periodkit.cyclotomic import CyclotomicNumber
from periodkit.errors import BadCongruence, DivisionByZero, InvalidInput, MismatchedStructure
from periodkit import characters, finite_field, padic
from periodkit.finite_field import (
    PrimeFieldElem,
    _check_prime,
    find_primitive_root,
    is_prime,
    iso_gaussian_residue,
    legendre_symbol,
)
from periodkit.padic import PadicInt

PRIMES_TO_97 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                71, 73, 79, 83, 89, 97]


def trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    for n in range(-5, 2000):
        assert is_prime(n) == trial_division_prime(n), n


@pytest.mark.parametrize(
    "n", [2**31, 3215031751, 3825123056546413051, pytest.param(10**5000, id="10**5000"), True, 7.0, "7"]
)
def test_is_prime_refuses_what_its_witnesses_cannot_decide(n):
    # 3825123056546413051 = 149491 * 747451 * 34233211 also passes 2, 3, 5, 7;
    # 10**5000 has too many digits for str(); a bool, a float or a str breaks the int rule.
    with pytest.raises(InvalidInput) as info:
        is_prime(n)
    assert info.value.arg == "n"


def test_arithmetic_examples():
    assert PrimeFieldElem(7, 3) + PrimeFieldElem(7, 5) == PrimeFieldElem(7, 1)
    assert PrimeFieldElem(13, 1).inverse() == PrimeFieldElem(13, 1)
    assert PrimeFieldElem(7, 3) ** 6 == PrimeFieldElem(7, 1)
    assert PrimeFieldElem(7, 3) * PrimeFieldElem(7, 5) == PrimeFieldElem(7, 1)
    assert -PrimeFieldElem(5, 2) == PrimeFieldElem(5, 3)
    assert PrimeFieldElem(5, 2) - 3 == PrimeFieldElem(5, 4)
    assert PrimeFieldElem(5, 3) / PrimeFieldElem(5, 2) == PrimeFieldElem(5, 4)


def test_inverse_sweeps():
    for p in (5, 7, 31):
        for a in range(1, p):
            x = PrimeFieldElem(p, a)
            assert x * x.inverse() == PrimeFieldElem(p, 1)
        assert PrimeFieldElem(p, 1) ** -1 == PrimeFieldElem(p, 1)


def test_errors():
    with pytest.raises(MismatchedStructure):
        PrimeFieldElem(5, 1) + PrimeFieldElem(7, 1)
    with pytest.raises(DivisionByZero):
        PrimeFieldElem(5, 0).inverse()
    with pytest.raises(ValueError):
        PrimeFieldElem(4, 1)
    with pytest.raises(ValueError):
        PrimeFieldElem(2, 1)  # odd primes only
    with pytest.raises(ValueError):
        PrimeFieldElem(2**31 + 11, 1)


def test_construction_reduces():
    assert PrimeFieldElem(7, 23).value == 2
    assert PrimeFieldElem(7, -1).value == 6


def test_primitive_root_examples():
    assert find_primitive_root(5).value == 2
    assert find_primitive_root(7).value == 3
    assert find_primitive_root(3).value == 2


def test_primitive_root_has_full_order():
    # Exhaustive power enumeration: the orbit of g must hit every unit once.
    for p in PRIMES_TO_97:
        g = find_primitive_root(p).value
        seen = set()
        acc = 1
        for _ in range(p - 1):
            seen.add(acc)
            acc = acc * g % p
        assert len(seen) == p - 1, p


def test_primitive_root_is_smallest():
    for p in (5, 7, 11, 13, 41):
        g = find_primitive_root(p).value
        for cand in range(2, g):
            orbit = {pow(cand, j, p) for j in range(1, p)}
            assert len(orbit) < p - 1, (p, cand)


def test_legendre_examples():
    assert legendre_symbol(PrimeFieldElem(7, 0)) == 0
    assert legendre_symbol(PrimeFieldElem(7, 2)) == 1  # 3^2 = 2 mod 7
    assert legendre_symbol(PrimeFieldElem(7, 3)) == -1


def test_legendre_against_square_enumeration():
    for p in PRIMES_TO_97[:10]:
        squares = {y * y % p for y in range(1, p)}
        for a in range(1, p):
            expected = 1 if a in squares else -1
            assert legendre_symbol(PrimeFieldElem(p, a)) == expected, (p, a)


def test_legendre_square_count():
    for p in PRIMES_TO_97:
        plus = sum(1 for a in range(1, p) if legendre_symbol(PrimeFieldElem(p, a)) == 1)
        assert plus == (p - 1) // 2, p


def test_gaussian_split_examples():
    s5 = iso_gaussian_residue(5)
    assert s5.u.value in (2, 3) and (s5.u.value ** 2 + 1) % 5 == 0
    assert (s5.a, s5.b) == (2, 1)
    s13 = iso_gaussian_residue(13)
    assert {s13.a, s13.b} == {2, 3}
    with pytest.raises(BadCongruence):
        iso_gaussian_residue(7)


def test_gaussian_split_properties():
    for p in [q for q in PRIMES_TO_97 if q % 4 == 1]:
        s = iso_gaussian_residue(p)
        assert (s.u.value ** 2 + 1) % p == 0
        assert s.a * s.a + s.b * s.b == p
        assert s.a >= s.b >= 1


def test_descent_gives_the_larger_leg_first():
    # The first remainder below sqrt(p) is the larger leg, so no swap follows it.
    primes = [p for p in range(5, 10**5, 4) if is_prime(p)]
    assert len(primes) == 4783
    for p in primes:
        s = iso_gaussian_residue(p)
        assert s.a > s.b >= 1 and s.a * s.a + s.b * s.b == p, p


@pytest.mark.parametrize("refuse", [iso_gaussian_residue, quartic_character], ids=["split", "quartic"])
def test_one_mod_four_is_one_rule(refuse):
    with pytest.raises(BadCongruence, match=r"^p = 7 is 3 mod 4; need p = 1 mod 4$"):
        refuse(7)


def test_residues_read_as_their_int_and_their_truth():
    assert int(PrimeFieldElem(7, 10)) == 3 and int(PadicInt(3, 4, -1)) == 80
    assert not PrimeFieldElem(7, 0) and PrimeFieldElem(7, 3)
    # Zero is false in every ring: a zero p-adic or cyclotomic value once read as true.
    assert not PadicInt(7, 2, 0) and not PadicInt(7, 2, 49) and PadicInt(7, 2, 7)
    assert not CyclotomicNumber(4, []) and not CyclotomicNumber(4, [0, 0]) and CyclotomicNumber(4, [0, 1])


@pytest.mark.parametrize(
    "build",
    [
        lambda: PadicInt(3215031751, 2, 3),
        lambda: MultiplicativeCharacter(2147483659, 1),
        lambda: _check_prime([7]),
        lambda: PrimeFieldElem([7], 1),
    ],
    ids=["padic", "character", "unhashable-rule", "unhashable-element"],
)
def test_prime_rule_bounds_every_caller(build):
    # 3215031751 = 151 * 21291601 is the first strong pseudoprime to the
    # witnesses 2, 3, 5, 7, so is_prime refuses it as it refuses every n >= 2**31.
    with pytest.raises(InvalidInput):
        is_prime(3215031751)
    with pytest.raises(InvalidInput) as info:
        build()
    assert info.value.arg == "p"


def test_arithmetic_carries_the_checked_structure(monkeypatch):
    # A result takes its operand's p and precision, checked when the operand
    # was built, so the prime rule runs once per value that enters, not once
    # per operation: it once ran in every result's constructor.  So do the
    # p-adic results at a new precision and a character product; the bare-p
    # entries check p once, in the one value they build first.
    checks = []
    for module in (finite_field, padic, characters):
        monkeypatch.setattr(module, "_check_prime", lambda p, least=3: checks.append(p))
    ops = [
        lambda x: x + x,
        lambda x: x * x + 3,
        lambda x: 2 - x * 5,
        lambda x: x**3 - x,
        lambda x: (x + 1).inverse() if (x + 1).value % 7 else x,  # a unit of F_p and of Z/7^4
    ]
    x, y = PrimeFieldElem(10007, 5), PadicInt(7, 4, 9)
    assert len(checks) == 2
    checks.clear()
    for i in range(50):
        x, y = ops[i % 5](x), ops[i % 5](y)
    assert checks == []
    assert x.p == 10007 and (y.p, y.precision) == (7, 4)
    c, c2 = MultiplicativeCharacter(10007, 3), MultiplicativeCharacter(10007, 10004)
    checks.clear()
    z = (7 * y).divide_by_p()
    assert (z.p, z.precision, z.value) == (7, 3, y.value % 343)
    assert tuple(z.truncate(2)) == (7, 2, y.value % 49)
    assert tuple(c * c2) == (10007, 1) and tuple(c2 * c2) == (10007, 10002)
    assert checks == []
    assert tuple(quadratic_character(10007)) == (10007, 5003)
    assert checks == [10007]
    assert tuple(find_primitive_root(10007)) == (10007, 5)
    assert checks == [10007, 10007]


def test_prime_rule_runs_once_per_element_without_widening(monkeypatch):
    calls = []
    monkeypatch.setattr(finite_field, "is_prime", lambda n: calls.append(n) or is_prime(n))
    x = PrimeFieldElem(10007, 5)
    for _ in range(50):
        x = x * x + 1
    assert calls == [10007]
    # A success for 7 accepts neither 7.0 nor True, and a failure raises every time.
    _check_prime(7)
    for bad in (7.0, True):
        with pytest.raises(InvalidInput):
            _check_prime(bad)
    for _ in range(2):
        with pytest.raises(InvalidInput):
            PadicInt(4, 3, 1)
