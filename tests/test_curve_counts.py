"""Point counts, zeta data, and the Jacobi-sum route to a_p."""

import math
import random

import pytest

from periodkit.curve_counts import (
    WeierstrassCurveFp,
    a_p_from_jacobi,
    count_points,
    count_points_ext,
    zeta_data,
)
from periodkit.errors import BadCongruence, InvalidInput, SingularCurve, UnsupportedDegree

PRIMES_5_TO_31 = [5, 7, 11, 13, 17, 19, 23, 29, 31]


def naive_count(p, a, b):
    # Independent oracle: test every affine pair, then add infinity.
    n = 1
    for x in range(p):
        fx = (x * x * x + a * x + b) % p
        for y in range(p):
            if y * y % p == fx:
                n += 1
    return n


def ext_count_oracle(p, a, b):
    # Independent oracle over F_{p^2} = F_p[t]/(t^2 + c1*t + c0), the smallest
    # irreducible quadratic, with the square of every element tallied.
    squares = {y * y % p for y in range(p)}
    c1, c0 = next(
        (c1, c0) for c1 in range(p) for c0 in range(p) if (c1 * c1 - 4 * c0) % p not in squares
    )

    def mul(u, v):
        # (u0 + u1*t)(v0 + v1*t) with t^2 = -c1*t - c0
        w0 = u[0] * v[0]
        w1 = u[0] * v[1] + u[1] * v[0]
        w2 = u[1] * v[1]
        return ((w0 - w2 * c0) % p, (w1 - w2 * c1) % p)

    sq_counts = {}
    for y0 in range(p):
        for y1 in range(p):
            z = mul((y0, y1), (y0, y1))
            sq_counts[z] = sq_counts.get(z, 0) + 1

    total = 1
    for x0 in range(p):
        for x1 in range(p):
            fx = mul(mul((x0, x1), (x0, x1)), (x0, x1))
            total += sq_counts.get(((fx[0] + a * x0 + b) % p, (fx[1] + a * x1) % p), 0)
    return total


def nonsingular_pairs(p):
    for a in range(p):
        for b in range(p):
            if (4 * a * a * a + 27 * b * b) % p != 0:
                yield a, b


def test_count_examples():
    r5 = count_points(WeierstrassCurveFp(5, -1, 0))
    assert r5.n_points == naive_count(5, 4, 0)
    assert r5.n_points == 5 + 1 - r5.a_p
    r7 = count_points(WeierstrassCurveFp(7, -1, 0))
    assert r7.a_p == 0  # supersingular: 7 = 3 mod 4
    r = count_points(WeierstrassCurveFp(5, 1, 1))
    assert abs(r.a_p) <= 2 * math.sqrt(5)


def test_count_matches_naive_exhaustively():
    for p in PRIMES_5_TO_31:
        for a, b in nonsingular_pairs(p):
            got = count_points(WeierstrassCurveFp(p, a, b)).n_points
            assert got == naive_count(p, a, b), (p, a, b)


def test_singular_rejected():
    with pytest.raises(SingularCurve):
        WeierstrassCurveFp(5, 0, 0)
    with pytest.raises(SingularCurve):
        WeierstrassCurveFp(7, 1, 2)  # 4 + 27*4 = 112 = 0 mod 7


def test_singular_detection_is_exact():
    for p in (5, 7, 11):
        for a in range(p):
            for b in range(p):
                singular = (4 * a**3 + 27 * b**2) % p == 0
                if singular:
                    with pytest.raises(SingularCurve):
                        WeierstrassCurveFp(p, a, b)
                else:
                    WeierstrassCurveFp(p, a, b)


def test_ext_degree_one_degenerates():
    curve = WeierstrassCurveFp(11, 3, 7)
    assert count_points_ext(curve, 1) == count_points(curve).n_points
    with pytest.raises(UnsupportedDegree):
        count_points_ext(curve, 3)
    with pytest.raises(InvalidInput) as exc:  # p^2 budget, checked before any loop
        count_points_ext(WeierstrassCurveFp(10007, 1, 1), 2)
    assert exc.value.arg == "p"


def test_ext_count_matches_zeta_roots():
    for p, a, b in ((5, -1, 0), (7, 2, 1), (11, 1, 3), (13, -1, 0)):
        curve = WeierstrassCurveFp(p, a, b)
        ap = count_points(curve).a_p
        # alpha^2 + beta^2 = a_p^2 - 2p, exactly as integers.
        assert count_points_ext(curve, 2) == p * p + 1 - (ap * ap - 2 * p), (p, a, b)


def test_ext_count_matches_extension_field_oracle():
    rng = random.Random(17)
    for p in PRIMES_5_TO_31:
        for a, b in [(p - 1, 0)] + rng.sample(list(nonsingular_pairs(p)), 5):
            got = count_points_ext(WeierstrassCurveFp(p, a, b), 2)
            assert got == ext_count_oracle(p, a, b), (p, a, b)


def test_zeta_data_properties():
    z = zeta_data(WeierstrassCurveFp(7, -1, 0))
    assert z.a_p == 0
    assert abs(z.alpha - 1j * math.sqrt(7)) < 1e-12
    z13 = zeta_data(WeierstrassCurveFp(13, -1, 0))
    assert abs(z13.alpha * z13.beta - 13) < 1e-9
    assert abs((z13.alpha + z13.beta).real - z13.a_p) < 1e-9

    rng = random.Random(5)
    for p in (17, 31, 97):
        for _ in range(20):
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            z = zeta_data(WeierstrassCurveFp(p, a, b))
            assert abs(abs(z.alpha) - math.sqrt(p)) < 1e-9


def test_hasse_bound_exhaustive_small():
    for p in (5, 7, 11, 13):
        for a, b in nonsingular_pairs(p):
            ap = count_points(WeierstrassCurveFp(p, a, b)).a_p
            assert ap * ap <= 4 * p, (p, a, b)


def test_a_p_from_jacobi_examples():
    assert a_p_from_jacobi(5) == 5 + 1 - naive_count(5, 4, 0)
    a13 = a_p_from_jacobi(13)
    assert a13 in (6, -6)
    assert a13 == 13 + 1 - naive_count(13, 12, 0)
    with pytest.raises(BadCongruence):
        a_p_from_jacobi(7)


def test_a_p_from_jacobi_full_range():
    for p in (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97):
        assert a_p_from_jacobi(p) == p + 1 - naive_count(p, p - 1, 0), p
