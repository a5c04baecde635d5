"""Characters, Gauss sums, and exact Jacobi sums."""

import pytest

from periodkit.characters import (
    MultiplicativeCharacter,
    char_eval,
    gauss_jacobi_relation_check,
    gauss_sum,
    jacobi_sum,
    quadratic_character,
    quartic_character,
)
from periodkit.errors import BadCongruence, InvalidInput, MismatchedModulus, TrivialCharacter
from periodkit.finite_field import PrimeFieldElem, legendre_symbol

PRIMES_TO_97 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                71, 73, 79, 83, 89, 97]
PRIMES_TO_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_character_basics():
    c = MultiplicativeCharacter(13, 3)
    assert c.order == 4 and not c.is_trivial
    assert MultiplicativeCharacter(13, 0).is_trivial
    assert (c * MultiplicativeCharacter(13, 9)).is_trivial
    assert MultiplicativeCharacter(7, 11).k == 5  # reduced mod p-1
    with pytest.raises(MismatchedModulus):
        MultiplicativeCharacter(5, 1) * MultiplicativeCharacter(7, 1)
    with pytest.raises(BadCongruence):
        quartic_character(7)
    with pytest.raises(InvalidInput):
        quartic_character(4)  # composite: the prime rule comes before the congruence


def test_char_eval_trivial_and_zero():
    c0 = MultiplicativeCharacter(11, 0)
    for a in range(1, 11):
        assert char_eval(c0, PrimeFieldElem(11, a)).as_int() == 1
    assert char_eval(MultiplicativeCharacter(11, 3), PrimeFieldElem(11, 0)).is_zero()


def test_quadratic_character_matches_legendre():
    for p in PRIMES_TO_97:
        chi = quadratic_character(p)
        for a in range(p):
            elem = PrimeFieldElem(p, a)
            value = char_eval(chi, elem)
            if a == 0:
                assert value.is_zero()
            else:
                assert value.as_int() == legendre_symbol(elem), (p, a)


def test_char_eval_multiplicative_exact():
    # Exhaustive over characters and arguments for small p, sampled k above.
    for p in PRIMES_TO_31:
        ks = range(p - 1) if p <= 13 else (0, 1, 2, (p - 1) // 2, p - 2)
        for k in ks:
            c = MultiplicativeCharacter(p, k)
            for a in range(1, p):
                for b in range(1, p):
                    ab = PrimeFieldElem(p, a * b)
                    lhs = char_eval(c, ab)
                    rhs = char_eval(c, PrimeFieldElem(p, a)) * char_eval(c, PrimeFieldElem(p, b))
                    assert lhs == rhs, (p, k, a, b)


def test_gauss_sum_trivial_character():
    for p in (5, 7, 31, 97):
        g = gauss_sum(MultiplicativeCharacter(p, 0))
        assert abs(g.value - (-1)) < 1e-9, p


def test_gauss_sum_norms():
    for p in PRIMES_TO_97:
        for k in range(1, p - 1):
            g = gauss_sum(MultiplicativeCharacter(p, k))
            assert abs(g.norm_sq - p) < 1e-9, (p, k)


def test_jacobi_trivial_pair_counts_interior():
    for p in (5, 7, 13):
        j = jacobi_sum(MultiplicativeCharacter(p, 0), MultiplicativeCharacter(p, 0))
        assert j.as_int() == p - 2, p


def test_jacobi_examples():
    j = jacobi_sum(quadratic_character(5), quadratic_character(5))
    assert j.as_int() == -1
    cubic = MultiplicativeCharacter(7, 2)
    j7 = jacobi_sum(cubic, cubic)
    assert j7.norm_to_int() == 7
    assert j7.m == 3  # lives in Z[zeta_3]


def test_jacobi_ring_order_is_lcm():
    j = jacobi_sum(quartic_character(13), quadratic_character(13))
    assert j.m == 4
    j2 = jacobi_sum(MultiplicativeCharacter(13, 4), MultiplicativeCharacter(13, 6))
    assert j2.m == 6  # lcm(order 3, order 2)


def test_jacobi_exact_norms_small_primes():
    for p in PRIMES_TO_31[:7]:  # full sweep up to 19 here; acceptance covers <= 31
        for k1 in range(1, p - 1):
            for k2 in range(1, p - 1):
                if (k1 + k2) % (p - 1) == 0:
                    continue
                j = jacobi_sum(MultiplicativeCharacter(p, k1), MultiplicativeCharacter(p, k2))
                assert j.norm_to_int() == p, (p, k1, k2)


def test_jacobi_symmetry():
    for p in (7, 11, 13):
        for k1 in range(1, p - 1):
            for k2 in range(1, p - 1):
                a = jacobi_sum(MultiplicativeCharacter(p, k1), MultiplicativeCharacter(p, k2))
                b = jacobi_sum(MultiplicativeCharacter(p, k2), MultiplicativeCharacter(p, k1))
                assert a == b


def test_relation_check_examples():
    with pytest.raises(TrivialCharacter):
        gauss_jacobi_relation_check(quadratic_character(5), quadratic_character(5))
    assert gauss_jacobi_relation_check(
        MultiplicativeCharacter(5, 1), MultiplicativeCharacter(5, 1)
    ) < 1e-8
    assert gauss_jacobi_relation_check(quadratic_character(13), quartic_character(13)) < 1e-8


def test_relation_check_rejects_trivial_inputs():
    with pytest.raises(TrivialCharacter):
        gauss_jacobi_relation_check(MultiplicativeCharacter(7, 0), MultiplicativeCharacter(7, 1))
    with pytest.raises(TrivialCharacter):
        gauss_jacobi_relation_check(MultiplicativeCharacter(7, 1), MultiplicativeCharacter(7, 0))


def test_mismatched_moduli():
    with pytest.raises(MismatchedModulus):
        jacobi_sum(MultiplicativeCharacter(5, 1), MultiplicativeCharacter(7, 1))
    with pytest.raises(MismatchedModulus):
        char_eval(MultiplicativeCharacter(5, 1), PrimeFieldElem(7, 1))


def test_jacobi_value_against_direct_embedding():
    # Cross-check the exact sum against a purely floating evaluation.
    for p, k1, k2 in ((5, 1, 1), (13, 6, 3), (11, 2, 4)):
        c1 = MultiplicativeCharacter(p, k1)
        c2 = MultiplicativeCharacter(p, k2)
        exact = jacobi_sum(c1, c2).embed()
        direct = 0j
        for t in range(2, p):
            direct += char_eval(c1, PrimeFieldElem(p, t)).embed() * char_eval(
                c2, PrimeFieldElem(p, 1 - t)
            ).embed()
        assert abs(exact - direct) < 1e-9, (p, k1, k2)
