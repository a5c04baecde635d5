"""Characters, Gauss sums, and exact Jacobi sums."""

import cmath
import collections
import functools
import math
import random
import tracemalloc
from array import array
from types import SimpleNamespace

import pytest

from periodkit import characters, cyclotomic
from periodkit.characters import (
    MultiplicativeCharacter,
    _dlog_table,
    char_eval,
    gauss_jacobi_relation_check,
    gauss_sum,
    jacobi_sum,
    quadratic_character,
    quartic_character,
)
from periodkit.cyclotomic import CyclotomicNumber, _modulus
from periodkit.errors import BadCongruence, FloatOverflow, InvalidInput, MismatchedStructure, TrivialCharacter
from periodkit.finite_field import PrimeFieldElem, _smallest_primitive_root, legendre_symbol
from test_cyclotomic import roots_mod_prime, value_mod

PRIMES_TO_97 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                71, 73, 79, 83, 89, 97]
PRIMES_TO_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_character_basics():
    c = MultiplicativeCharacter(13, 3)
    assert c.order == 4 and not c.is_trivial
    assert MultiplicativeCharacter(13, 0).is_trivial
    assert (c * MultiplicativeCharacter(13, 9)).is_trivial
    assert MultiplicativeCharacter(7, 11).k == 5  # reduced mod p-1
    with pytest.raises(MismatchedStructure):
        MultiplicativeCharacter(5, 1) * MultiplicativeCharacter(7, 1)
    with pytest.raises(BadCongruence):
        quartic_character(7)
    with pytest.raises(InvalidInput):
        quartic_character(4)  # composite: the prime rule comes before the congruence


def test_character_product_takes_only_a_character():
    # The group law lifts no int, so the product returns NotImplemented and Python raises.
    with pytest.raises(TypeError):
        MultiplicativeCharacter(7, 1) * 3


def test_char_eval_trivial_and_zero():
    c0 = MultiplicativeCharacter(11, 0)
    for a in range(1, 11):
        assert char_eval(c0, PrimeFieldElem(11, a)).as_int() == 1
    assert char_eval(MultiplicativeCharacter(11, 3), PrimeFieldElem(11, 0)) == CyclotomicNumber(10, [])


@pytest.mark.parametrize("p", [3, 5, 7, 13, 1019, 2027, 7681, 65537])
def test_char_eval_at_the_edges_of_the_half_table(p):
    # The table keeps dlog t for t <= h = (p-1)/2; char_eval reads t = h + 1 .. p - 1
    # through dlog[p - t] + h.  Primes = 1 and = 3 mod 4 on both sides of the edge;
    # k = 1 and k = p - 2 are units, whose values differ for distinct logs, and
    # k = h is the quadratic character.
    m, h = p - 1, (p - 1) // 2
    g = _smallest_primitive_root(p)
    edges = (1, h, h + 1, p - 1)
    logs = {pow(g, j, p): j for j in range(m) if pow(g, j, p) in edges}
    for k in (1, m - 1, h):
        c = MultiplicativeCharacter(p, k)
        for t in edges:
            want = CyclotomicNumber.root_of_unity(m, k * logs[t] % m)
            assert char_eval(c, PrimeFieldElem(p, t)) == want, (p, k, t)


def test_quadratic_character_matches_legendre():
    for p in PRIMES_TO_97:
        chi = quadratic_character(p)
        for a in range(p):
            elem = PrimeFieldElem(p, a)
            value = char_eval(chi, elem)
            if a == 0:
                assert value == CyclotomicNumber(p - 1, [])
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


def gauss_sum_ascending(p, k):
    # The definition term by term, t = 1..p-1, with its own primitive root
    # and discrete logarithms.
    g = next(g for g in range(2, p) if len({pow(g, j, p) for j in range(p - 1)}) == p - 1)
    dlog = {pow(g, j, p): j for j in range(p - 1)}
    return sum(
        cmath.exp(2j * cmath.pi * (k * dlog[t] % (p - 1)) / (p - 1)) * cmath.exp(2j * cmath.pi * t / p)
        for t in range(1, p)
    )


def test_gauss_sum_walk_matches_ascending_definition():
    primes = [p for p in range(3, 200) if all(p % d for d in range(2, p))]
    for p in primes:
        for k in range(p - 1):
            got = gauss_sum(MultiplicativeCharacter(p, k)).value
            assert abs(got - gauss_sum_ascending(p, k)) < 1e-12, (p, k)


def gauss_sum_exponent_walk(p, k):
    # The walk over all of F_p^x, t = g^j for j < p - 1: each term is the root
    # of unity e^(2*pi*i*(k*j*p + t*(p-1))/(p*(p-1))), from an exact exponent.
    m = p - 1
    g = _smallest_primitive_root(p)
    scale = 2j * cmath.pi / (p * m)
    total = 0j
    t = 1
    for j in range(m):
        total += cmath.exp(scale * (k * j % m * p + t * m))
        t = t * g % p
    return total


# Each walk rounds a term's argument, at most 4*pi, to within an ulp of 12.6
# (1.8e-15); round-off of random sign grows far slower than the p terms, so
# 1e-15 per term of the full walk bounds the drift with room to spare, while a
# single wrong term would be off by about 1.
GAUSS_WALK_TOL_PER_TERM = 1e-15


def test_gauss_sum_matches_exponent_walk_oracle():
    # k of both parities and the orders 2, 3, 4 and p - 1 where they divide
    # p - 1: 10006 = 2 * 5003, 10008 = 2^3 * 3^2 * 139, 100002 = 2 * 3 * 7 * 2381.
    for p in (10007, 10009, 100003):
        m = p - 1
        ks = {1, 2, 3, m - 1, m - 2} | {m // d for d in (2, 3, 4) if m % d == 0}
        for k in sorted(ks):
            got = gauss_sum(MultiplicativeCharacter(p, k)).value
            assert abs(got - gauss_sum_exponent_walk(p, k)) < GAUSS_WALK_TOL_PER_TERM * p, (p, k)


def test_gauss_norm_residual_no_worse_than_the_exponent_walk():
    # The residual | |g|^2/p - 1 | is a few ulps of round-off, so one character
    # may read either way; the root mean square over a fixed set of characters
    # (odd full order, even, quadratic, then seeded k) may not be worse.
    def rms(values):
        return math.sqrt(sum(v * v for v in values) / len(values))

    for p, size in ((10007, 100), (1000003, 8), (1999993, 4)):
        m = p - 1
        ks = [1, 2, m // 2] + random.Random(p).sample(range(3, m), size - 3)
        walk = [abs(abs(gauss_sum(MultiplicativeCharacter(p, k)).value) ** 2 / p - 1) for k in ks]
        oracle = [abs(abs(gauss_sum_exponent_walk(p, k)) ** 2 / p - 1) for k in ks]
        assert rms(walk) <= rms(oracle), (p, rms(walk), rms(oracle))


def test_gauss_walk_visits_one_of_t_and_minus_t(monkeypatch):
    # One wave value per pair {t, -t}: cos for even k, sin for odd k.
    calls = []
    for name in ("cos", "sin"):
        wave = getattr(math, name)
        monkeypatch.setattr(math, name, lambda x, wave=wave, name=name: calls.append(name) or wave(x))
    for p in (3, 5, 101):
        for k, name in ((2, "cos"), (1, "sin")):
            calls.clear()
            gauss_sum(MultiplicativeCharacter(p, k))
            assert calls == [name] * ((p - 1) // 2), (p, k)


def test_gauss_walk_makes_one_rect_call_per_block(monkeypatch):
    # The walk goes in blocks of isqrt(h) + 1 steps: one table of that many roots
    # and one more root per block, so at most 2 * (isqrt(h) + 1) calls of
    # cmath.rect.  The last block is full at 13, 421, 10513 and 100801, and holds
    # one term at 7, 73, 10369 and 102607; the sums must still match the oracle.
    rect, calls = cmath.rect, []
    monkeypatch.setattr(cmath, "rect", lambda r, phi: calls.append(phi) or rect(r, phi))
    for p, last in ((13, 0), (421, 0), (10513, 0), (100801, 0), (7, 1), (73, 1), (10369, 1), (102607, 1)):
        h = (p - 1) // 2
        size = math.isqrt(h) + 1
        assert h % size == last, p
        for k in (1, 2, h - 1):
            calls.clear()
            got = gauss_sum(MultiplicativeCharacter(p, k)).value
            assert len(calls) <= 2 * size, (p, k, len(calls))
            assert abs(got - gauss_sum_exponent_walk(p, k)) < GAUSS_WALK_TOL_PER_TERM * p, (p, k)


def dlog_by_pow(p):
    # The smallest g with g^((p-1)/q) != 1 for every prime q | p - 1.
    m = p - 1
    qs = [q for q in range(2, m + 1) if m % q == 0 and all(q % d for d in range(2, q))]
    g = next(g for g in range(2, p) if all(pow(g, m // q, p) != 1 for q in qs))
    table = [0] * p
    for j in range(m):
        table[pow(g, j, p)] = j
    return table


def test_dlog_table_matches_pow_for_every_prime_below_2000():
    # The table keeps dlog t for t <= h = (p-1)/2 alone, one entry per pair {t, -t}.
    for p in range(3, 2000):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            table, h = _dlog_table(p), (p - 1) // 2
            assert len(table) == h + 1 and list(table) == dlog_by_pow(p)[: h + 1], p


def test_dlog_table_at_the_largest_table_prime_samples():
    # 1999993 is the largest prime below MAX_TABLE_PRIME; its smallest primitive root is 5.
    # An entry t <= h = (p-1)/2 is read as stored; above h, dlog t = dlog[p - t] + h, as 5^h = -1.
    p, h = 1999993, 999996
    table = _dlog_table(p)
    assert _smallest_primitive_root(p) == 5 and len(table) == h + 1
    rng = random.Random(35)
    for a in rng.sample(range(1, h + 1), 1000):
        assert 0 <= table[a] < p - 1 and pow(5, table[a], p) == a, a
    for a in rng.sample(range(h + 1, p), 1000):
        assert pow(5, table[p - a] + h, p) == a, a


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


@pytest.mark.parametrize("p", [5, 7, 13, 29, 31, 43])
def test_jacobi_sum_has_the_six_symmetries_of_its_triple(p):
    # With k3 = -k1 - k2: J(k2, k1) = J(k1, k2) and J(k1, k3) = c^k1(-1) J(k1, k2)
    # = (-1)^k1 J(k1, k2), the symmetries through which the report inherits its
    # rows.  No J is zero (its norm is p), so a flipped sign fails.
    m = p - 1
    chars = [MultiplicativeCharacter(p, k) for k in range(m)]
    pairs = [(k1, k2) for k1 in range(1, m) for k2 in range(1, m) if (k1 + k2) % m]
    sums = {(k1, k2): jacobi_sum(chars[k1], chars[k2]) for k1, k2 in pairs}
    for (k1, k2), j in sums.items():
        assert sums[k2, k1] == j, (p, k1, k2)
        assert sums[k1, -(k1 + k2) % m] == (-j if k1 % 2 else j), (p, k1, k2)


@functools.lru_cache(maxsize=1)  # each oracle test runs one prime at a time
def _oracle_logs(p):
    """(dlog t, dlog (1-t)) for t = 2 .. p-1, to the oracle's own primitive root, found by brute force."""
    m = p - 1
    g = next(g for g in range(2, p) if len({pow(g, j, p) for j in range(m)}) == m)
    dlog = {pow(g, j, p): j for j in range(m)}
    return [(dlog[t], dlog[(1 - t) % p]) for t in range(2, p)]


def jacobi_sum_oracle(p, k1, k2):
    # The definition term by term, with its own primitive root and discrete
    # logarithms: c(t) c'(1-t) = zeta_(p-1)^e, e = k1 dlog t + k2 dlog(1-t),
    # tallied by e and moved into Z[zeta_n], n = lcm of the two orders.
    m = p - 1
    n = math.lcm(m // math.gcd(k1, m), m // math.gcd(k2, m))
    step = m // n
    tally = collections.Counter((k1 * a + k2 * b) % m for a, b in _oracle_logs(p))
    counts = [0] * n
    for e, count in tally.items():
        assert e % step == 0, (p, k1, k2, e)
        counts[e // step] += count
    return CyclotomicNumber(n, counts)


def test_jacobi_sum_matches_exponent_count_oracle():
    # Every pair, trivial characters and orders n < p - 1 included.
    # p = 3: the one term is the fixed point t = 2 = 1 - t.
    for p in (3, 5, 7, 11, 13, 37, 41):
        for k1 in range(p - 1):
            for k2 in range(p - 1):
                got = jacobi_sum(MultiplicativeCharacter(p, k1), MultiplicativeCharacter(p, k2))
                want = jacobi_sum_oracle(p, k1, k2)
                assert (got.m, got.coeffs) == (want.m, want.coeffs), (p, k1, k2)


def test_jacobi_sum_matches_the_oracle_on_both_sides_of_the_byte_switch(monkeypatch):
    # Ring orders n that are powers of two up to 128 take the byte route, which
    # reads dlog mod 256; every other n takes the pair loop.  The dlogs at
    # p = 7681, 12289 and 65537 pass 2^8, and at 65537 2^16, so the low byte
    # differs from the dlog and the wrap mod 256 is exercised.
    byte_orders = []
    route = characters._byte_counts
    monkeypatch.setattr(characters, "_byte_counts", lambda *a: byte_orders.append(a[2]) or route(*a))
    byte_side, loop_side = (1, 2, 4, 8, 16, 32, 64, 128), (3, 6, 256)
    rng = random.Random(37)
    cases = [(p, n, tries) for p, tries in ((7681, 3), (12289, 3), (65537, 1))
             for n in byte_side + loop_side if (p - 1) % n == 0]
    assert {n for _, n, _ in cases} == {*byte_side, *loop_side}
    for p, n, tries in cases:
        units = [v for v in range(n) if math.gcd(v, n) == 1]
        pairs = [(rng.randrange(n), rng.choice(units)), (rng.choice(units), rng.randrange(n)), (0, rng.choice(units))]
        step = (p - 1) // n
        for u, u2 in pairs[:tries]:
            byte_orders.clear()
            got = jacobi_sum(MultiplicativeCharacter(p, u * step), MultiplicativeCharacter(p, u2 * step))
            want = jacobi_sum_oracle(p, u * step, u2 * step)
            assert got.m == n and (got.m, got.coeffs) == (want.m, want.coeffs), (p, n, u, u2)
            assert byte_orders == ([n] if n in byte_side else []), (p, n)


def pair_tally(full, h, n, u, u2):
    # The bucket counts of the pairs (t, 1 - t), t = 2 .. h, from the full logs.
    tally = collections.Counter((u * full[t] + u2 * full[1 - t]) % n for t in range(2, h + 1))
    tally.update((u * full[1 - t] + u2 * full[t]) % n for t in range(2, h + 1))
    return [tally[i] for i in range(n)]


def test_byte_counts_read_the_low_byte_on_a_big_endian_machine(monkeypatch):
    # A byteswapped copy of the dlog table lays each entry out as a big-endian
    # machine would, so there the low byte is the last of the four; the dlogs at
    # these primes pass 2^8, so reading any other byte miscounts.  Both layouts
    # must give the counts of the pairs (t, 1 - t), t = 2 .. h, from the full logs.
    # The second side's shift u'*h mod n is not 0 where n does not divide h: at
    # n = 128 for 9857 = 2^7 * 77 + 1, and at n = 2 for 10007, whose h is odd.
    # At 133349 the h - 1 pairs pass BYTE_CHUNK, so they run in more than one chunk.
    assert 133349 // 2 - 1 > characters.BYTE_CHUNK
    for p in (7681, 9857, 10007, 12289, 65537, 133349):
        table, h, full = _dlog_table(p), (p - 1) // 2, dlog_by_pow(p)
        swapped = array(table.typecode, table)
        swapped.byteswap()
        for n in (n for n in (1, 2, 4, 8, 16, 32, 64, 128) if (p - 1) % n == 0):
            pairs = [(1, 1), (n - 1, 1), (n // 2, n - 1)]
            want = [pair_tally(full, h, n, u, u2) for u, u2 in pairs]
            native = [characters._byte_counts(table, h, n, u, u2) for u, u2 in pairs]
            with monkeypatch.context() as patch:
                patch.setattr(characters, "sys", SimpleNamespace(byteorder="big"))
                big = [characters._byte_counts(swapped, h, n, u, u2) for u, u2 in pairs]
            assert big == native == want, (p, n)


def test_byte_counts_at_the_chunk_edges(monkeypatch):
    # 3329 - 1 = 2^8 * 13, so every power-of-two n up to 128 takes the byte route
    # here.  Chunks of 1 and 2 pairs, of h - 2 (the last chunk holds one pair), of
    # exactly the h - 1 pairs, and of h, more than there are; u and u' of both parities.
    p = 3329
    table, h, full = _dlog_table(p), (p - 1) // 2, dlog_by_pow(p)
    for n in (1, 2, 4, 8, 16, 32, 64, 128):
        pairs = {(u % n, u2 % n) for u, u2 in ((1, 3), (n - 1, 2), (2, n - 1), (0, 2))}
        want = {pair: pair_tally(full, h, n, *pair) for pair in pairs}
        for chunk in (1, 2, h - 2, h - 1, h):
            monkeypatch.setattr(characters, "BYTE_CHUNK", chunk)
            for u, u2 in pairs:
                assert characters._byte_counts(table, h, n, u, u2) == want[u, u2], (n, chunk, u, u2)


def test_byte_counts_hold_a_few_chunks_whatever_the_prime():
    # The byte route's copies, images and sums are of one chunk at a time: at
    # p = 1999993, h is about 10^6 and its whole-table intermediates peaked at
    # 5.2 MB; chunks of BYTE_CHUNK pairs keep them near 0.5 MB.
    p = 1999993
    table = _dlog_table(p)
    for n, u, u2 in ((4, 1, 2), (128, 127, 1)):
        tracemalloc.start()
        try:
            characters._byte_counts(table, p // 2, n, u, u2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (n, peak)


def relation_residual(c, c2):
    return gauss_jacobi_relation_check(c, c2, jacobi_sum(c, c2))


def test_relation_check_examples():
    with pytest.raises(TrivialCharacter):
        relation_residual(quadratic_character(5), quadratic_character(5))
    assert relation_residual(MultiplicativeCharacter(5, 1), MultiplicativeCharacter(5, 1)) < 1e-8
    assert relation_residual(quadratic_character(13), quartic_character(13)) < 1e-8


def test_relation_check_rejects_trivial_inputs():
    with pytest.raises(TrivialCharacter):
        relation_residual(MultiplicativeCharacter(7, 0), MultiplicativeCharacter(7, 1))
    with pytest.raises(TrivialCharacter):
        relation_residual(MultiplicativeCharacter(7, 1), MultiplicativeCharacter(7, 0))


def test_relation_check_measures_the_sum_it_is_given():
    c, c2 = quadratic_character(13), quartic_character(13)
    wrong = jacobi_sum(c, c2) + 1
    assert abs(gauss_jacobi_relation_check(c, c2, wrong) - 1.0) < 1e-9


def test_relation_check_names_a_sum_past_the_doubles():
    # The check embeds the sum it is given; a coefficient past the doubles
    # cannot be embedded, which is a FloatOverflow, not a bare OverflowError.
    c = MultiplicativeCharacter(13, 1)
    with pytest.raises(FloatOverflow):
        gauss_jacobi_relation_check(c, c, CyclotomicNumber(4, [10**400, 1]))


def test_mismatched_moduli():
    with pytest.raises(MismatchedStructure):
        jacobi_sum(MultiplicativeCharacter(5, 1), MultiplicativeCharacter(7, 1))
    with pytest.raises(MismatchedStructure):
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


def test_jacobi_norm_full_order_large_ring():
    # Order 10006 = 2 * 5003: a ring of degree 5002, reduced in linear time.
    j = jacobi_sum(MultiplicativeCharacter(10007, 5), MultiplicativeCharacter(10007, 7))
    assert j.m == 10006 and len(j.coeffs) == 5002
    assert j.norm_to_int() == 10007
    assert abs(abs(j.embed()) ** 2 - 10007) < 1e-6 * 10007


def test_table_budget_rejects_before_building():
    # 2000003 is the first prime above MAX_TABLE_PRIME = 2 * 10**6.  Every kernel
    # over F_p takes its p from a character, so the character refuses it where
    # it is built; the quartic character refuses p = 3 mod 4 first.
    assert MultiplicativeCharacter(1999993, 1).p == 1999993  # the largest prime below the budget
    for build, p in ((lambda p: MultiplicativeCharacter(p, 1), 2000003), (quadratic_character, 2000003),
                     (quartic_character, 2000029)):
        with pytest.raises(InvalidInput) as info:
            build(p)
        assert info.value.arg == "p"
        assert str(info.value) == f"the kernels over F_p need p <= 2000000, got {p}"
    with pytest.raises(BadCongruence):
        quartic_character(2000003)


def test_the_ring_holds_every_full_order_of_the_table():
    # A full-order Jacobi sum at p <= MAX_TABLE_PRIME lives in Z[zeta_(p-1)].
    # Were the table bound raised alone, the ring's check_int("m", ...) would
    # refuse that order, and the CLI would name --m, no flag of it.
    assert characters.MAX_TABLE_PRIME - 1 <= cyclotomic.MAX_RING_ORDER


def _answers_at_m_30():
    c = MultiplicativeCharacter(31, 1)
    return (jacobi_sum(c, c).coeffs, CyclotomicNumber.root_of_unity(30, 14).coeffs,
            char_eval(c, PrimeFieldElem(31, 3)).coeffs, CyclotomicNumber(30, [1] * 8).coeffs)


def test_the_ring_answers_at_m_30_from_an_empty_cache():
    # m = 30 = 2 * 3 * 5, h = 15: the first link folds by Phi_3 in one pass,
    # from 15 coefficients to 10, and the finish divides out the last 2 by
    # Phi_30 over its binomials.  jacobi_sum and char_eval at p = 31 live in
    # Z[zeta_30]; phi(30) = 8 coefficients need no finish.
    _modulus.cache_clear()
    c = MultiplicativeCharacter(31, 1)
    assert jacobi_sum(c, c).coeffs == (2, 4, 1, -2, 2, -2, 0, -1)
    assert jacobi_sum(c, c).norm_to_int() == 31
    assert CyclotomicNumber.root_of_unity(30, 14).coeffs == (1, 0, -1, -1, -1, 0, 1, 1)
    assert abs(CyclotomicNumber.root_of_unity(30, 14).embed() - cmath.exp(28j * cmath.pi / 30)) < 1e-12
    assert char_eval(c, PrimeFieldElem(31, 3)) == CyclotomicNumber.root_of_unity(30, 1)  # 3 generates F_31^x
    assert CyclotomicNumber(30, [1] * 8).coeffs == (1,) * 8
    # An order-2 pair lives in Z[zeta_2], whose reduction costs nothing;
    # J(chi, chi) = -chi(-1) = 1 for the quadratic chi, as 31 = 3 mod 4.
    q = quadratic_character(31)
    assert jacobi_sum(q, q).as_int() == 1


def test_the_ring_answers_at_m_30_whatever_its_cache_holds():
    # An entry of _modulus is a function of m alone, so a cached entry gives
    # the answers of a fresh one: after the entry of 30 was built and after
    # another order took the one slot.
    _modulus.cache_clear()
    fresh = _answers_at_m_30()
    for before in (lambda: _modulus(30), lambda: _modulus(42)):
        before()
        assert _answers_at_m_30() == fresh
    assert _modulus.cache_info().hits > 0


def test_the_ring_answers_at_38039_and_1999993():
    # p - 1 = 38038 = 2 * 7 * 11 * 13 * 19 and 1999992 = 2^3 * 3 * 167 * 499,
    # four and three odd primes.  The full-order Jacobi sum at 38039 is
    # the exponent-count oracle's, of norm p, and takes the values of its counts
    # at roots of unity modulo a prime.  char_eval at 1999993 of g^e, with e
    # between phi = 661344 and the first link's lo = 666664, needs the finish:
    # its vector of phi coefficients takes the value w^e at those roots.
    p = 38039
    c = MultiplicativeCharacter(p, 1)
    j = jacobi_sum(c, c)
    assert j == jacobi_sum_oracle(p, 1, 1)
    assert j.norm_to_int() == p
    ell, roots = roots_mod_prime(p - 1)
    counts = collections.Counter((a + b) % (p - 1) for a, b in _oracle_logs(p))
    for w in roots:
        assert value_mod(j.coeffs, w, ell) == sum(n * pow(w, e, ell) for e, n in counts.items()) % ell
    p, e = 1999993, 661351
    z = char_eval(MultiplicativeCharacter(p, 1), PrimeFieldElem(p, pow(_smallest_primitive_root(p), e, p)))
    ell, roots = roots_mod_prime(p - 1, 2)
    assert len(z.coeffs) == 661344
    assert [value_mod(z.coeffs, w, ell) for w in roots] == [pow(w, e, ell) for w in roots]


def test_a_refusal_of_the_ring_builds_no_polynomial(monkeypatch):
    # The ring refuses only an order outside [1, MAX_RING_ORDER], by the int
    # rule on m, before it sizes a modulus; inside, it refuses none, and an
    # entry comes from the factorisation alone, with no polynomial: at
    # 1939938 = 2 * 3 * 7 * 11 * 13 * 17 * 19, 64 binomials and four sizes.
    def build(m):
        raise AssertionError(f"Phi_{m} built")

    monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", build)
    _modulus.cache_clear()
    for call in (lambda: CyclotomicNumber(2000001, [1, 2]), lambda: CyclotomicNumber.root_of_unity(2000001, 1)):
        with pytest.raises(InvalidInput) as info:
            call()
        assert info.value.arg == "m"
    assert _modulus.cache_info().misses == 0
    phi, h, sign, lo, _, binomials = _modulus(1939938)
    assert (phi, h, sign, lo, len(binomials)) == (414720, 969969, -1, 646646, 64)
    assert all(type(d) is int and mu in (1, -1) for d, mu in binomials)


def test_jacobi_sum_at_an_order_the_budget_once_refused():
    # p - 1 = 94290 = 2 * 3 * 5 * 7 * 449: the finish runs 16 binomial passes each way.
    c = MultiplicativeCharacter(94291, 1)
    assert jacobi_sum(c, c).norm_to_int() == 94291
