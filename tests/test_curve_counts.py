"""Point counts, zeta data, and the Jacobi-sum route to a_p."""

import math
import random
import sys
import time
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from periodkit import curve_counts
from periodkit.characters import _dlog_table
from periodkit.curve_counts import (
    WeierstrassCurveFp,
    a_p_from_jacobi,
    count_points,
    count_points_ext,
    zeta_data,
)
from periodkit.errors import BadCongruence, InvariantFailed, SingularCurve, UnsupportedDegree
from periodkit.finite_field import _smallest_primitive_root, is_prime

PRIMES_5_TO_31 = [5, 7, 11, 13, 17, 19, 23, 29, 31]
PRIMES_5_TO_400 = [p for p in range(5, 400) if is_prime(p)]
PRIMES_5_TO_10K = [p for p in range(5, 10**4) if is_prime(p)]


def naive_count(p, a, b):
    # Independent oracle: test every affine pair, then add infinity.
    n = 1
    for x in range(p):
        fx = (x * x * x + a * x + b) % p
        for y in range(p):
            if y * y % p == fx:
                n += 1
    return n


def table_count(p, a, b):
    # The p-step enumeration count_points replaced, kept as its oracle:
    # N = 1 + sum over x of #{y : y^2 = f(x)}, read from a table of square counts.
    counts = [0] * p
    for y in range(p):
        counts[y * y % p] += 1
    return 1 + sum(counts[(x * x * x + a * x + b) % p] for x in range(p))


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


def ext_count_norm_loop(p, a, b):
    # The enumeration count_points_ext replaced, kept as its oracle: every
    # x0 + x1 sqrt d of F_{p^2} = F_p(sqrt d), through the norm of f(x), since
    # the quadratic character of F_{p^2} is that of F_p applied to the norm.
    squares = [0] * p
    for y in range(p):
        squares[y * y % p] += 1
    d = squares.index(0)
    total = 1
    for x0 in range(p):
        u0 = x0 * x0 + a
        u1 = 3 * x0 * x0 + a
        for x1 in range(p):
            t = d * x1 * x1
            y0 = x0 * (u0 + 3 * t) + b
            y1 = x1 * (u1 + t)
            total += squares[(y0 * y0 - d * y1 * y1) % p]
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


def test_count_matches_table_enumeration_exhaustively():
    for p in [q for q in PRIMES_5_TO_400 if q <= 61]:
        for a, b in nonsingular_pairs(p):
            assert count_points(WeierstrassCurveFp(p, a, b)).n_points == table_count(p, a, b), (p, a, b)


def test_count_matches_table_enumeration_on_cm_families():
    # y^2 = x^3 + b and y^2 = x^3 + a x have the groups that are most often not
    # cyclic; b = g^0 .. g^5 and a = g^0 .. g^3 (g a primitive root) meet every
    # isomorphism class of the two families, next to six seeded curves per prime.
    for p in PRIMES_5_TO_400:
        g = _smallest_primitive_root(p)
        rng = random.Random(p)
        pairs = [(0, pow(g, k, p)) for k in range(6)] + [(pow(g, k, p), 0) for k in range(4)]
        pairs += [(rng.randrange(p), rng.randrange(p)) for _ in range(6)]
        for a, b in pairs:
            if (4 * a**3 + 27 * b**2) % p:
                assert count_points(WeierstrassCurveFp(p, a, b)).n_points == table_count(p, a, b), (p, a, b)


@given(st.sampled_from(PRIMES_5_TO_10K), st.integers(0, 10**4), st.integers(0, 10**4))
def test_count_matches_table_enumeration_below_10k(p, a, b):
    assume((4 * a**3 + 27 * b**2) % p)
    assert count_points(WeierstrassCurveFp(p, a, b)).n_points == table_count(p, a % p, b % p)


def test_order_multiples_match_scalar_multiplication():
    # Baby-step giant-step against m*P = O tested for every m of the interval,
    # on every point of four curves.  With s = isqrt((hi - lo) // 2) + 1 the
    # baby steps end, and the answer is None, at any order up to 2s: an odd
    # one where an x repeats, an even one where a multiple reaches y = 0.
    # (1, 40), (50, 2p) and (200, 400) put orders 7, 8, 14, 15 and 21 in
    # (s, 2s], past the baby steps' own multiples; (10, 100) has s = 7 and
    # points of order 14 = 2s and 15 = 2s + 1.  Larger orders go to the giant
    # steps, which must find exactly the multiples.
    exits, edges = set(), set()
    for p, a, b in ((101, 4, 1), (103, 0, 7), (109, 1, 0), (113, 5, 9)):
        points = [(x, y) for x in range(p) for y in range(1, p) if (y * y - x**3 - a * x - b) % p == 0]
        for P in points:
            order, R = 1, P
            while R is not None:
                order, R = order + 1, curve_counts._add(R, P, a, p)
            for lo, hi in ((1, 40), (p + 1 - 20, p + 1 + 20), (7, 7), (50, 2 * p), (200, 400), (10, 100)):
                s = math.isqrt((hi - lo) // 2) + 1
                got = curve_counts._order_multiples(P, lo, hi, a, p)
                if order <= 2 * s:
                    assert got is None, (p, a, b, P, lo, hi, order)
                    if s < order:
                        exits.add("y = 0" if order % 2 == 0 else "repeated x")
                else:
                    want = {m for m in range(lo, hi + 1) if curve_counts._mul(m, P, a, p) is None}
                    assert got == want, (p, a, b, P, lo, hi)
                if order - 2 * s in (0, 1):
                    edges.add(order - 2 * s)
    assert exits == {"y = 0", "repeated x"}
    assert edges == {0, 1}


def points_at(p, a, b, count):
    # The first `count` points with y != 0 of y^2 = x^3 + a x + b, p = 3 mod 4,
    # where the square root of a square v is v^((p + 1) / 4).
    points = []
    for x in range(p):
        v = (x**3 + a * x + b) % p
        if v and pow(v, (p - 1) // 2, p) == 1:
            points.append((x, pow(v, (p + 1) // 4, p)))
            if len(points) == count:
                return points


def test_order_multiples_makes_about_sqrt_2w_additions(monkeypatch):
    # s additions reach 2P to (s + 1)P, one more the giant step (2s + 1)P, at
    # most 2 lo.bit_length() + 1 the first centre (lo + s)P, and one each
    # window of 2s + 1: s + windows + 2 lo.bit_length() + 2 in all.
    added = []
    add = curve_counts._add
    monkeypatch.setattr(curve_counts, "_add", lambda *args: added.append(1) or add(*args))
    p, a, b = 2**31 - 1, 4, 1
    width = math.isqrt(4 * p)
    for lo, hi in ((p + 1 - width, p + 1 + width), (p + 1, p + 1 + width), (1, 10**6), (2 * p, 2 * p + 5)):
        w = hi - lo
        s = math.isqrt(w // 2) + 1
        for P in points_at(p, a, b, 4):
            added.clear()
            curve_counts._order_multiples(P, lo, hi, a, p)
            assert len(added) <= s + -(-(w + 1) // (2 * s + 1)) + 2 * lo.bit_length() + 2, (lo, hi, P)


def test_count_keeps_multiples_at_no_cost_per_candidate(monkeypatch):
    # The first two points report every even m of their interval, then every
    # third m, on top of their true multiples: some 10^5 multiples each.  A
    # count that keeps the multiples still among the candidates by set
    # membership answers in milliseconds; one that is O(candidates x
    # multiples) takes minutes.
    multiples = curve_counts._order_multiples
    steps = iter((2, 3))

    def padded(P, lo, hi, A, p):
        found, step = multiples(P, lo, hi, A, p), next(steps, None)
        return found if step is None else found | set(range(-(-lo // step) * step, hi + 1, step))

    monkeypatch.setattr(curve_counts, "_order_multiples", padded)
    start = time.perf_counter()
    assert count_points(WeierstrassCurveFp(2**31 - 1, -1, 0)).a_p == 0  # p = 3 mod 4
    assert time.perf_counter() - start < 2
    assert next(steps, None) is None


def prime_at_most(n):
    while not is_prime(n):
        n -= 1
    return n


@settings(max_examples=50, deadline=None)
@given(
    st.integers(5, 2**31 - 1),
    st.integers(0, 2**31),
    st.integers(0, 2**31),
    st.integers(0, 2**31),
    st.integers(0, 2**31),
    st.sampled_from(["any", "a = 0", "b = 0"]),
)
def test_twist_negates_and_isomorphism_keeps_a_p_below_2_31(n, a, b, d, u, family):
    # Over F_p, (a d^2, b d^3) with d a nonsquare is the quadratic twist, of
    # count 2p + 2 - N, and (a u^4, b u^6) with u a unit is isomorphic to
    # (a, b) by (x, y) -> (u^2 x, u^3 y).  The families a = 0 and b = 0 are
    # drawn too: they hold the points of small order that the count skips.
    a, b = (0 if family == "a = 0" else a), (0 if family == "b = 0" else b)
    p = prime_at_most(n)
    assume((4 * a**3 + 27 * b**2) % p)
    while pow(d, (p - 1) // 2, p) != p - 1:
        d += 1
    u = u % (p - 1) + 1
    a_p = count_points(WeierstrassCurveFp(p, a, b)).a_p
    assert count_points(WeierstrassCurveFp(p, a * d**2, b * d**3)).a_p == -a_p, (p, a, b, d)
    assert count_points(WeierstrassCurveFp(p, a * u**4, b * u**6)).a_p == a_p, (p, a, b, u)


def test_count_reads_a_few_points_at_large_p(monkeypatch):
    # Shanks-Mestre: the orders of a few points pin N down, far from a walk over
    # F_p, although a point of order at most 2s is skipped.  Every prime in
    # (229, 3000], where Mestre's theorem promises a point the count never
    # skips, with the a = 0 and b = 0 families, which hold the small orders,
    # and six seeded curves; then two large primes.
    calls = []
    multiples = curve_counts._order_multiples
    monkeypatch.setattr(curve_counts, "_order_multiples", lambda *args: calls.append(args) or multiples(*args))
    curves = []
    for p in range(230, 3001):
        if is_prime(p):
            rng, pairs = random.Random(p), [(0, k) for k in range(1, 7)] + [(k, 0) for k in range(1, 7)]
            while len(pairs) < 18:
                a, b = rng.randrange(p), rng.randrange(p)
                if (4 * a**3 + 27 * b**2) % p:
                    pairs.append((a, b))
            curves += [(p, a, b) for a, b in pairs]
    curves += [(p, a, b) for p in (1999993, 2**31 - 1) for a, b in ((4, 1), (0, 1), (1, 0), (-1, 0))]
    for p, a, b in curves:
        calls.clear()
        count_points(WeierstrassCurveFp(p, a, b))
        assert 1 <= len(calls) <= 20, (p, a, b, len(calls))


def test_count_lists_no_multiples_of_a_small_order(monkeypatch):
    # On y^2 = x^3 + b the first point, (0, b^2) on E or its twist, has order 3.
    # Each answer is None or holds at most one multiple per giant-step window,
    # ceil((hi - lo + 1) / (2s + 1)): never the some 61 800 multiples of 3
    # in the Hasse interval near 2^31.
    multiples = curve_counts._order_multiples

    def bounded(P, lo, hi, A, p):
        found, s = multiples(P, lo, hi, A, p), math.isqrt((hi - lo) // 2) + 1
        assert found is None or len(found) <= -(-(hi - lo + 1) // (2 * s + 1)), (P, lo, hi, len(found))
        return found

    monkeypatch.setattr(curve_counts, "_order_multiples", bounded)
    assert count_points(WeierstrassCurveFp(2147483647, 0, 7)).a_p == 39115
    for p, b in ((2147483563, 26), (2147483629, 8)):
        # p = 1 mod 3 is r^2 + 3s^2, and the six sextic twists of y^2 = x^3 + 1
        # have the traces of the six associates of r + s sqrt(-3).
        r = cubic_primary_part(p)
        s = math.isqrt((p - r * r) // 3)
        traces = {sign * t for sign in (1, -1) for t in (2 * r, r + 3 * s, r - 3 * s)}
        assert count_points(WeierstrassCurveFp(p, 0, b)).a_p in traces, (p, b)


def largest_primes_below(n, count):
    # Independent oracle: trial division by the primes up to sqrt(n), sieved.
    root = math.isqrt(n)
    sieve = bytearray([1]) * (root + 1)
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(root) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, root + 1, q)))
    small = [q for q in range(root + 1) if sieve[q]]
    found = []
    for m in range(n - 1, 1, -1):
        if all(m % q for q in small if q * q <= m):
            found.append(m)
            if len(found) == count:
                return found


def primary_real_part(p):
    # p = 1 mod 4 is a^2 + b^2 with a odd and b even; the associate a + bi or
    # -a - bi that is 1 mod (1+i)^3 (a + b = 1 mod 4) is primary.
    a = next(a for a in range(1, math.isqrt(p) + 1, 2) if math.isqrt(p - a * a) ** 2 == p - a * a)
    b = math.isqrt(p - a * a)
    return a if (a + b) % 4 == 1 else -a


def is_square(n):
    return math.isqrt(n) ** 2 == n


def cubic_primary_part(p):
    # p = 1 mod 3 is a^2 + 3b^2, with a unique up to sign; take a = 1 mod 3.
    a = next(a for a in range(1, math.isqrt(p) + 1) if (p - a * a) % 3 == 0 and is_square((p - a * a) // 3))
    return a if a % 3 == 1 else -a


def test_counts_below_2_31_match_closed_forms():
    # Ireland and Rosen, A Classical Introduction to Modern Number Theory,
    # ch. 18: y^2 = x^3 - x has a_p = 0 for p = 3 mod 4 and a_p = 2a for the
    # primary a + bi of norm p = 1 mod 4; y^2 = x^3 + 1 has a_p = 0 for
    # p = 2 mod 3 and a_p = 2a for p = a^2 + 3b^2 = 1 mod 3 with a = 1 mod 3.
    assert primary_real_part(2147483629) == -12925  # 12925^2 + 44502^2
    assert cubic_primary_part(2**31 - 1) == 46162  # 46162^2 + 3 * 2349^2
    primes = largest_primes_below(2**31, 20)
    assert primes[0] == 2**31 - 1 and len(primes) == 20
    for p in primes:
        want = 0 if p % 4 == 3 else 2 * primary_real_part(p)
        assert count_points(WeierstrassCurveFp(p, -1, 0)).a_p == want, p
        want = 0 if p % 3 == 2 else 2 * cubic_primary_part(p)
        assert count_points(WeierstrassCurveFp(p, 0, 1)).a_p == want, p


def test_cubic_closed_form_matches_enumeration():
    # The a^2 + 3b^2 form of y^2 = x^3 + 1 against a count over all of F_p.
    for p in (7, 13, 19, 31, 37, 43, 97, 1009, 6007):
        squares = [0] * p
        for y in range(p):
            squares[y * y % p] += 1
        assert p - sum(squares[(x**3 + 1) % p] for x in range(p)) == 2 * cubic_primary_part(p), p


def test_count_without_a_fitting_order_fails_its_invariant(monkeypatch):
    monkeypatch.setattr(curve_counts, "_order_multiples", lambda *args: set())
    with pytest.raises(InvariantFailed, match="Hasse interval"):
        count_points(WeierstrassCurveFp(101, 4, 1))


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


@pytest.mark.parametrize("n", [0, 3, 10**400])
def test_ext_degree_is_refused_before_the_count(monkeypatch, n):
    # The degree rule runs before count_points: a bad n once cost a full count.
    counted = []
    monkeypatch.setattr(curve_counts, "count_points", lambda curve: counted.append(curve))
    with pytest.raises(UnsupportedDegree):
        count_points_ext(WeierstrassCurveFp(2147483647, 0, 1), n)
    assert counted == []


def test_ext_count_matches_zeta_roots():
    # The Weil bridge, verified: an enumeration of F_{p^2} against the roots.
    for p, a, b in ((5, -1, 0), (7, 2, 1), (11, 1, 3), (13, -1, 0)):
        ap = zeta_data(WeierstrassCurveFp(p, a, b)).a_p
        # alpha^2 + beta^2 = a_p^2 - 2p, exactly as integers.
        assert ext_count_oracle(p, a, b) == p * p + 1 - (ap * ap - 2 * p), (p, a, b)


def test_ext_count_matches_extension_field_oracle():
    rng = random.Random(17)
    for p in PRIMES_5_TO_31:
        for a, b in [(p - 1, 0)] + rng.sample(list(nonsingular_pairs(p)), 5):
            got = count_points_ext(WeierstrassCurveFp(p, a, b), 2)
            assert got == ext_count_oracle(p, a, b), (p, a, b)


@pytest.mark.parametrize("p", [5, 7, 13, 449, 1009])
def test_ext_count_matches_full_norm_loop_and_weil(p):
    pairs = [(4, 1)] + (random.Random(p).sample(list(nonsingular_pairs(p)), 6) if p < 50 else [])
    for a, b in pairs:
        curve = WeierstrassCurveFp(p, a, b)
        want = ext_count_norm_loop(p, a, b)
        assert count_points_ext(curve, 2) == want, (p, a, b)
        ap = zeta_data(curve).a_p
        assert want == p * p + 1 - (ap * ap - 2 * p), (p, a, b)


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


def test_a_p_from_jacobi_matches_count_at_realistic_sizes():
    for p in (10009, 50021, 99989, 1999993):  # primes = 1 mod 4, the last near MAX_TABLE_PRIME
        assert a_p_from_jacobi(p) == count_points(WeierstrassCurveFp(p, p - 1, 0)).a_p, p


def test_tables_take_at_most_four_bytes_per_entry():
    # One four-byte entry per pair {t, -t}: about 2 bytes per element of F_p,
    # so 4 MB at MAX_TABLE_PRIME, beyond the array's fixed header.
    for p in (10007, 1999993):
        table = _dlog_table(p)
        assert table.itemsize == 4 and len(table) == (p + 1) // 2, p
        assert sys.getsizeof(table) - sys.getsizeof(array(table.typecode)) <= 2 * p + 2, p


@pytest.mark.parametrize("table", [_dlog_table])
def test_table_cache_keeps_only_the_last_prime(table):
    # A library loop over primes keeps one table, not one per prime.
    table(101)
    table(103)
    misses = table.cache_info().misses
    assert table.cache_info().currsize == 1
    table(103)
    assert table.cache_info().misses == misses
    table(101)
    assert table.cache_info().misses == misses + 1
