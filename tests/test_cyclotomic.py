"""Cyclotomic polynomials and exact ring arithmetic in Z[zeta_m]."""

import cmath
import functools
import math
import random
import sys
import time
import tracemalloc

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodkit import cyclotomic
from periodkit.cyclotomic import (
    MAX_RING_ORDER,
    CyclotomicNumber,
    _divide_binomial,
    _galois,
    _galois_columns,
    _kron_mul,
    _modulus,
    _pack,
    _series,
    _unpack,
    _width,
    cyclotomic_polynomial,
)
from periodkit.errors import FloatOverflow, InvalidInput, MismatchedStructure, NotRationalInteger


# Reference oracles: the schoolbook product and the long division by a dense
# monic divisor that the ring used before its linear-time reduction.
def _poly_trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod_monic(a, mod):
    """Quotient and remainder of a by a monic divisor; exact over Z."""
    r = list(a)
    d = len(mod) - 1
    q = [0] * max(len(r) - d, 0)
    while len(r) - 1 >= d and r:
        lead = r[-1]
        shift = len(r) - 1 - d
        if lead != 0:
            q[shift] = lead
            for i in range(d + 1):
                r[shift + i] -= lead * mod[i]
        r.pop()
        _poly_trim(r)
    return _poly_trim(q), r


@functools.lru_cache(maxsize=None)
def _cyclotomic_by_division(m):
    """Phi_m as x^m - 1 divided by Phi_d for every proper divisor d of m."""
    rem = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            rem, res = _poly_divmod_monic(rem, _cyclotomic_by_division(d))
            assert not res
    return tuple(rem)


def _reduced(m, coeffs):
    """The canonical coefficient vector by the oracle: the remainder of the long
    division by Phi_m (checked in test_polynomial_matches_division_cascade),
    zero-padded to phi(m)."""
    phi_poly = cyclotomic_polynomial(m)
    _, rem = _poly_divmod_monic(coeffs, phi_poly)
    return tuple(rem + [0] * (len(phi_poly) - 1 - len(rem)))


def _is_prime(n):
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


@functools.lru_cache(maxsize=None)
def roots_mod_prime(m, count=4):
    """The least prime ell = 1 (mod m) and `count` primitive m-th roots of unity
    modulo ell, w^j for units j spread over 1..m: by pow alone, with no
    code of the ring.  Phi_m(w) = 0 (mod ell) at each, so z = v modulo Phi_m
    gives z(w) = v(w) (mod ell)."""
    ell = next(ell for ell in range(m + 1, 10**4 * m, m) if _is_prime(ell))
    primes = _distinct_primes(m)
    w = next(w for w in (pow(a, (ell - 1) // m, ell) for a in range(2, ell)) if all(pow(w, m // q, ell) != 1 for q in primes))
    roots = []
    for i in range(count):
        j = 1 + i * (m // count)
        while math.gcd(j, m) != 1:
            j += 1
        roots.append(pow(w, j, ell))
    return ell, tuple(roots)


def value_mod(coeffs, w, ell):
    """sum coeffs[j] * w^j modulo ell, by Horner's rule."""
    total = 0
    for c in reversed(coeffs):
        total = (total * w + c) % ell
    return total


KNOWN = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


def euler_phi(m):
    return sum(1 for k in range(1, m + 1) if __import__("math").gcd(k, m) == 1)


def test_known_polynomials():
    for m, coeffs in KNOWN.items():
        assert cyclotomic_polynomial(m) == coeffs, m


def test_prime_index_polynomials():
    for p in (3, 5, 7, 11, 13):
        assert cyclotomic_polynomial(p) == tuple([1] * p)


def test_degree_is_euler_phi():
    for m in range(1, 64):
        assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m), m


def test_first_exotic_coefficient():
    # Smallest index with a coefficient outside {-1, 0, 1}.
    assert min(cyclotomic_polynomial(105)) == -2
    for m in range(1, 105):
        assert set(cyclotomic_polynomial(m)) <= {-1, 0, 1}, m


def test_canonical_reduction():
    # zeta_6^2 = zeta_6 - 1 under Phi_6 = x^2 - x + 1.
    assert CyclotomicNumber.root_of_unity(6, 2) == CyclotomicNumber(6, [-1, 1])
    # zeta_m^m = 1 for every m.
    for m in (1, 2, 3, 4, 6, 8, 12):
        assert CyclotomicNumber.root_of_unity(m, m) == CyclotomicNumber(m, [1])


ORDER_TAKERS = {
    "polynomial": cyclotomic_polynomial,
    "number": lambda m: CyclotomicNumber(m, [1, 2]),
    "root": lambda m: CyclotomicNumber.root_of_unity(m, 1),
}


@pytest.mark.parametrize("build", ORDER_TAKERS.values(), ids=ORDER_TAKERS)
@pytest.mark.parametrize("m", [MAX_RING_ORDER + 1, 10**20, 10**5000], ids=["edge", "1e20", "1e5000"])
def test_ring_order_is_refused_above_its_bound(build, m):
    # Refused before the build of Phi_m, whose list of m + 1 slots raises a bare
    # OverflowError past the index range.  No order near 2^31 is tried here: were
    # the bound lost, Phi_(2^31 - 1) would ask for 17 GB.
    with pytest.raises(InvalidInput) as exc:
        build(m)
    assert exc.value.arg == "m"


def test_roots_multiply_by_exponent_addition():
    for m in (4, 5, 8, 12):
        for i in range(m):
            for j in range(m):
                prod = CyclotomicNumber.root_of_unity(m, i) * CyclotomicNumber.root_of_unity(m, j)
                assert prod == CyclotomicNumber.root_of_unity(m, i + j), (m, i, j)


def test_ring_axioms_randomized():
    rng = random.Random(20240601)
    for m in (4, 6, 8, 12):
        phi = euler_phi(m)
        for _ in range(50):
            a = CyclotomicNumber(m, [rng.randint(-9, 9) for _ in range(phi)])
            b = CyclotomicNumber(m, [rng.randint(-9, 9) for _ in range(phi)])
            c = CyclotomicNumber(m, [rng.randint(-9, 9) for _ in range(phi)])
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a + CyclotomicNumber(m, []) == a
            assert a * CyclotomicNumber(m, [1]) == a


def test_conj_is_involution_and_multiplicative():
    rng = random.Random(7)
    for m in (4, 5, 8, 12):
        phi = euler_phi(m)
        for _ in range(30):
            a = CyclotomicNumber(m, [rng.randint(-5, 5) for _ in range(phi)])
            b = CyclotomicNumber(m, [rng.randint(-5, 5) for _ in range(phi)])
            assert a.galois(-1).galois(-1) == a
            assert (a * b).galois(-1) == a.galois(-1) * b.galois(-1)


def test_embed_matches_exponential():
    for m in (1, 2, 3, 4, 6, 8, 12, 30):
        for j in range(m):
            got = CyclotomicNumber.root_of_unity(m, j).embed()
            want = cmath.exp(2j * cmath.pi * j / m)
            assert abs(got - want) < 1e-12, (m, j)


def test_embed_is_ring_hom_numerically():
    rng = random.Random(99)
    m = 12
    for _ in range(20):
        a = CyclotomicNumber(m, [rng.randint(-5, 5) for _ in range(4)])
        b = CyclotomicNumber(m, [rng.randint(-5, 5) for _ in range(4)])
        assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-9


def test_embed_past_the_doubles_is_float_overflow():
    # A coefficient past the doubles, and a sum of two finite terms that
    # overflows, are both named, not left to a bare OverflowError or an inf.
    for z in (CyclotomicNumber(4, [10**400, 1]), CyclotomicNumber(8, [15 * 10**307, 15 * 10**307])):
        with pytest.raises(FloatOverflow):
            z.embed()
    assert CyclotomicNumber(4, [10**308, 10**308]).embed() == complex(1e308, 1e308)


def test_the_ring_answers_in_z_zeta_38038():
    # 38038 = 2 * 7 * 11 * 13 * 19, the smallest order p - 1 with four odd
    # primes: every entry that needs a finish answers, in well under a second,
    # with phi = 12960 coefficients that take the values of its input at
    # primitive 38038-th roots of unity modulo a prime.
    m, phi = 38038, 12960
    ell, roots = roots_mod_prime(m)
    dense = CyclotomicNumber(m, [1] * phi)
    for call, want in (
        (lambda: CyclotomicNumber.root_of_unity(m, 19018), lambda w: pow(w, 19018, ell)),
        (lambda: CyclotomicNumber(m, [1] * 19019), lambda w: value_mod([1] * 19019, w, ell)),
        (lambda: dense * dense, lambda w: value_mod(dense.coeffs, w, ell) ** 2),
        (lambda: dense.galois(-1), lambda w: value_mod(dense.coeffs, pow(w, -1, ell), ell)),
    ):
        start = time.perf_counter()
        z = call()
        assert time.perf_counter() - start < 0.5
        assert len(z.coeffs) == phi
        assert [value_mod(z.coeffs, w, ell) for w in roots] == [want(w) % ell for w in roots]
    # z * conj(z) for z = 1 + zeta + ... + zeta^(phi - 1) is not rational: the
    # norm reduces its product and refuses by its value, not by its order.
    with pytest.raises(NotRationalInteger):
        dense.norm_to_int()
    # Elements of at most phi = 12960 coefficients, their sums, and products
    # that stay below x^phi need no finish.
    small = CyclotomicNumber(m, [1, 2])
    assert (small * small).coeffs[:4] == (1, 4, 4, 0) and not any((small * small).coeffs[3:])
    assert (dense * 2).coeffs == (2,) * phi == (dense + dense).coeffs


def test_rational_integer_queries():
    z = CyclotomicNumber(8, [-7])
    assert z.is_rational_integer() and z.as_int() == -7
    root = CyclotomicNumber.root_of_unity(8, 1)
    assert not root.is_rational_integer()
    with pytest.raises(NotRationalInteger):
        root.as_int()
    assert root.norm_to_int() == 1  # zeta * conj(zeta)
    # (1 + zeta_5)(1 + zeta_5^-1) = 2 + zeta_5 + zeta_5^4 is real but not rational.
    with pytest.raises(NotRationalInteger):
        CyclotomicNumber(5, [1, 1]).norm_to_int()


def test_int_coercion_in_ops():
    z = CyclotomicNumber.root_of_unity(4, 1)
    assert z + 1 == CyclotomicNumber(4, [1, 1])
    assert 2 * z == CyclotomicNumber(4, [0, 2])
    assert (1 - z) * (1 + z) == CyclotomicNumber(4, [2])  # 1 - i^2


def test_mixed_order_rejected():
    with pytest.raises(MismatchedStructure, match="orders differ: 4 vs 8"):
        CyclotomicNumber(4, [1]) + CyclotomicNumber(8, [1])


def test_polynomial_matches_division_cascade():
    for m in list(range(1, 500)) + [1155, 2206]:
        assert cyclotomic_polynomial(m) == _cyclotomic_by_division(m), m
    # Phi_2q(x) = Phi_q(-x) for an odd prime q; the cascade takes seconds at 2q = 10006.
    assert cyclotomic_polynomial(10006) == tuple((-1) ** i for i in range(5003))


def _distinct_primes(n):
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return primes + [n] * (n > 1)


def _cyclotomic_over_full_radical(m):
    """Phi_m(x) = Phi_R(x^(m/R)) for the full radical R of m, 2 counted as one
    more prime: the Moebius product of x^d - 1 over the divisors d of R."""
    primes = _distinct_primes(m)
    factors, stride = [(1, (-1) ** len(primes))], m
    for q in primes:
        factors += [(d * q, -mu) for d, mu in factors]
        stride //= q
    poly = [1]
    for d, mu in sorted(factors, key=lambda f: -f[1]):
        if mu > 0:
            poly = [0] * d + poly
            poly[: len(poly) - d] = [a - b for a, b in zip(poly, poly[d:])]
        else:
            poly = [-c for c in poly[: len(poly) - d]]
            for i in range(d, len(poly)):
                poly[i] += poly[i - d]
    out = [0] * ((len(poly) - 1) * stride + 1)
    out[::stride] = poly
    return tuple(out)


def test_binomial_division_undoes_the_product_on_both_routes():
    # The series over 1 - sign * y^d, in place: on q * (1 - sign * y^d), whose
    # d top terms are past the length of q, it gives back q and d zeros.
    # 4 * d * d <= len takes one running sum per residue class mod d, a larger
    # d one map per block of d; at len = 400 + d the switch lies between d = 10
    # and 11.
    rng = random.Random(20261019)
    for length in (0, 1, 2, 9, 10, 50, 400):
        for d in (1, 2, 3, 7, 10, 11, 19, 20, 21, 64, 400, 401):
            for sign in (1, -1):
                q = [rng.randint(-(2**70), 2**70) for _ in range(length)]
                series = q + [0] * d  # q * (1 - sign * y^d)
                for i, c in enumerate(q):
                    series[i + d] -= sign * c
                _divide_binomial(series, d, sign)
                assert series == q + [0] * d, (length, d, sign)


def test_series_matches_the_binomials_term_by_term():
    # _series against one term at a time: times 1 - sign * x^d is
    # s_i - sign * s_(i-d) from the old terms, over it s_i + sign * s_(i-d)
    # from the new ones.  Inputs shorter than n, products that widen them
    # past d, and divisions of a support just below, at and above d.
    rng = random.Random(20261021)
    for _ in range(400):
        n, sign, inverse = rng.randint(1, 40), rng.choice((1, -1)), rng.random() < 0.5
        poly = [rng.randint(-9, 9) for _ in range(rng.randint(0, n))]
        binomials = tuple(sorted((rng.randint(1, 45), rng.choice((1, -1))) for _ in range(rng.randint(0, 6))))
        want = poly + [0] * (n - len(poly))
        for d, mu in binomials:
            old = list(want)
            for i in range(d, n):
                want[i] += sign * (want[i - d] if (mu > 0) == inverse else -old[i - d])
        assert _series(list(poly), n, binomials, sign, inverse) == want, (n, poly, binomials, sign, inverse)


def test_polynomial_over_the_odd_radical_matches_the_full_radical():
    # Phi_m is built over m's odd radical r; for even m as Phi_r(-x^(m/2r)).
    # 30030 and 94290 have five and four odd primes; 1999618 = 2 * 999809 and
    # 1999992 = 2^3 * 3 * 167 * 499 are p - 1 at p = 1999619 and 1999993.
    for m in list(range(1, 5001)) + [30030, 94290, 1999618, 1999992]:
        assert cyclotomic_polynomial(m) == _cyclotomic_over_full_radical(m), m


# Every chain of links, at both parities: two odd primes in 1057 = 7 * 151 and
# 970 = 2 * 5 * 97, three in 615 = 3 * 5 * 41, 210 and 2490 = 2 * 3 * 5 * 83,
# four in 1155 = 3 * 5 * 7 * 11, 3003 = 3 * 7 * 11 * 13 and 2310.  One odd
# prime: 1536 = 3 * 2^9, whose one link has 256 classes, and 2206 and 10006,
# 2q with q prime, the orders of the Jacobi rings Z[zeta_(p-1)] at p = 2207
# and 10007.
LARGE_ORDERS = (210, 615, 970, 1057, 1155, 1536, 2206, 2310, 2490, 3003, 10006)


def _random_vectors(m, rng, count):
    """Signed vectors of lengths 0..2m, entries up to 2^70 in size, ends of the range included."""
    lengths = [0, 1, 2 * m] + [rng.randint(0, 2 * m) for _ in range(count - 3)]
    return [[rng.randint(-(2**70), 2**70) for _ in range(n)] for n in lengths]


def test_reduction_matches_long_division():
    rng = random.Random(20261018)
    for m in range(1, 131):
        for v in _random_vectors(m, rng, 5):
            assert CyclotomicNumber(m, v).coeffs == _reduced(m, v), (m, len(v))


def test_reduction_matches_long_division_large_orders():
    rng = random.Random(10006)
    for m in LARGE_ORDERS:
        phi, h = _modulus(m)[:2]
        # The oracle costs (len - phi) * phi steps, so at m = 3003 and 10006 the
        # lengths stop a little past h: the fold by x^h - sign still runs.
        top = 2 * m if m < 3000 else h + 40
        for n in (0, phi - 1, phi, phi + 1, rng.randint(phi, top), top):
            v = [rng.randint(-(2**70), 2**70) for _ in range(n)]
            assert CyclotomicNumber(m, v).coeffs == _reduced(m, v), (m, n)


def test_reduction_matches_long_division_where_the_budget_once_refused():
    # A fold of 15015 ones runs the finish over all 32 binomials of the five
    # odd primes of 30030.
    v = [1] * 15015
    assert CyclotomicNumber(30030, v).coeffs == _reduced(30030, v)


def test_the_modulus_lists_the_binomials_of_the_odd_radical():
    # An entry keeps sizes and binomials, no polynomial: (d * h/r, mu(r/d)) for
    # each divisor d of the odd radical r, by ascending degree, 2^k of them for
    # k odd primes.  Their product of (x^d - sign)^mu is Phi_m (checked against
    # the division cascade above); lo is the length the first link leaves,
    # h - h/q for the smallest odd prime q, and phi when m has one odd prime.
    for m in list(range(1, 3000)) + list(LARGE_ORDERS) + [38038, 1939938]:
        phi, h, sign, lo, grow, binomials = _modulus(m)
        odd = [q for q in _distinct_primes(m) if q != 2]
        r = math.prod(odd)
        divisors = [d for d in range(1, r + 1) if r % d == 0] if r < 10**4 else None
        assert (h, sign) == ((m // 2, -1) if m % 2 == 0 else (m, 1)), m
        assert phi == h // r * math.prod(q - 1 for q in odd), m
        assert len(binomials) == 2 ** len(odd) and [d for d, _ in binomials] == sorted(d for d, _ in binomials), m
        if divisors:
            mobius = {d: (-1) ** len(_distinct_primes(r // d)) for d in divisors}
            assert binomials == tuple((d * h // r, mobius[d]) for d in divisors), m
        assert lo == (h - h // odd[0] if odd else h), m
        assert (lo == phi) == (len(odd) <= 1) and (grow == 1) == (not odd), m
    # Seven odd primes multiply past the largest order, so no entry holds more than 64 binomials.
    assert 3 * 5 * 7 * 11 * 13 * 17 * 19 > MAX_RING_ORDER
    assert len(_modulus(1939938)[5]) == 64


# One order for each count of odd primes from 2 to 6, at both parities, where
# the long division would take 10^8 steps or more: 99937 = 37 * 73,
# 99910 = 2 * 5 * 97 * 103, 38038 = 2 * 7 * 11 * 13 * 19, 15015 = 3 * 5 * 7 * 11 * 13
# and 255255 = 3 * 5 * 7 * 11 * 13 * 17.
EXACT_ORDERS = (99937, 99910, 38038, 15015, 255255)


@pytest.mark.parametrize("m", EXACT_ORDERS)
def test_reduction_matches_values_at_roots_mod_a_prime(m):
    # The oracle shares no code with the ring: z = v modulo Phi_m, with phi
    # coefficients, exactly when z(w) = v(w) at every root w of Phi_m, and
    # several primitive m-th roots modulo a prime ell = 1 (mod m) sample that.
    # A vector of length 2m with wide entries at random places, the top
    # slots among them, and a run of ones past h.
    rng = random.Random(m)
    phi, h = _modulus(m)[:2]
    ell, roots = roots_mod_prime(m)
    sparse = dict.fromkeys(rng.sample(range(2 * m), 40) + [2 * m - 1, h, h - 1, phi], 0)
    for j in sparse:
        sparse[j] = rng.randint(-(2**70), 2**70)
    v = [0] * (2 * m)
    for j, c in sparse.items():
        v[j] = c
    for vector, value in ((v, lambda w: sum(c * pow(w, j, ell) for j, c in sparse.items())),
                          ([1] * (h + phi), lambda w: value_mod([1] * (h + phi), w, ell))):
        z = CyclotomicNumber(m, vector)
        assert len(z.coeffs) == phi, m
        assert [value_mod(z.coeffs, w, ell) for w in roots] == [value(w) % ell for w in roots], m


def test_product_matches_schoolbook():
    rng = random.Random(5)
    for m in list(range(1, 40)) + [72, 105, 210]:
        phi = len(cyclotomic_polynomial(m)) - 1
        samples = [[0] * phi, [], [-1] * phi, [rng.randint(-(2**70), 2**70) for _ in range(phi)]]
        samples += [[rng.randint(-9, 9) for _ in range(phi)] for _ in range(3)]
        for a in samples:
            for b in samples:
                want = _reduced(m, _poly_mul(_reduced(m, a), _reduced(m, b)))
                assert (CyclotomicNumber(m, a) * CyclotomicNumber(m, b)).coeffs == want, (m, a, b)


# Coefficient bounds and lengths whose products fill the fields of 1, 2, 4 and
# 8 bytes that _kron_mul converts through array, and wider fields, which it
# converts one int at a time: at the largest draw of each class the product
# bound top^2 * length is just below 2^7, 2^15, 2^31, 2^63, or far past them.
KRON_CLASSES = {"1-byte": (3, 14), "2-byte": (10, 300), "4-byte": (2**10, 300), "8-byte": (2**26, 300),
                "wider": (2**100, 300)}


@pytest.mark.parametrize("kind", KRON_CLASSES)
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_kron_mul_matches_schoolbook(kind, data):
    top, length = KRON_CLASSES[kind]
    coefficient = st.integers(-top, top) | st.just(0)
    vectors = st.integers(0, length).flatmap(lambda n: st.lists(coefficient, min_size=n, max_size=n))
    a, b = data.draw(vectors), data.draw(vectors)
    got = _kron_mul(a, b)
    # An empty or zero factor gives the empty product; any other has every coefficient.
    assert got == [] if not any(a) or not any(b) else len(got) == len(a) + len(b) - 1
    assert _poly_trim(list(got)) == _poly_mul(a, b), (a, b)


def test_kron_mul_at_each_field_edge():
    # The largest product coefficient of each field width, and one more, which
    # takes the next width: +-top^2 * 3 sits at the edge of the signed field.
    for width in (1, 2, 4, 8, 16):
        edge = math.isqrt((2 ** (8 * width - 1) - 1) // 3)
        for top in (edge, edge + 1):
            for a, b in (([top] * 3, [top] * 3), ([top] * 3, [-top] * 3), ([-top, top, -top], [top, -top, top])):
                assert _kron_mul(a, b) == _poly_mul(a, b), (width, top, a, b)


def test_pack_round_trips_at_each_field_edge():
    # The widest signed value of each field width, both signs, next to small ones:
    # 1, 2, 4 and 8 bytes go through array, 9 and 16 one int at a time.
    for width in (1, 2, 4, 8, 9, 16):
        edge = 2 ** (8 * width - 1) - 1
        v = [edge, -edge, 0, -1, 1, edge, -edge, -edge, 0]
        x = _pack(v, width)
        assert _unpack([x], width, len(v)) == v, width
        assert _unpack([x, -x, 0], width, len(v)) == v + [-c for c in v] + [0] * len(v), width
        fields = v if sys.byteorder == "little" else v[::-1]
        assert x == sum(c << (8 * width * i) for i, c in enumerate(fields)), width


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(m=st.integers(1, 199), data=st.data())
def test_canonical_sums_match_the_reduced_sum(m, data):
    # _add, _sub and _neg build from canonical vectors without reducing: their
    # results equal the long-division reduction of the unreduced sums.
    vector = st.lists(st.integers(-(2**70), 2**70), max_size=2 * m)
    u, v = data.draw(vector), data.draw(vector)
    x, y = CyclotomicNumber(m, u), CyclotomicNumber(m, v)
    n = max(len(u), len(v))
    u, v = u + [0] * (n - len(u)), v + [0] * (n - len(v))
    assert (x + y).coeffs == _reduced(m, [a + b for a, b in zip(u, v)])
    assert (x - y).coeffs == _reduced(m, [a - b for a, b in zip(u, v)])
    assert (-x).coeffs == _reduced(m, [-a for a in u])


def _units(m):
    return [a for a in range(m) if math.gcd(a, m) == 1]


def _permuted(m, coeffs, a):
    """The unreduced image of sum c_j x^j under x -> x^a: c_j moves to a*j mod m."""
    out = [0] * m
    for j, c in enumerate(coeffs):
        out[a * j % m] += c
    return out


def _power_table(m):
    """x^k mod Phi_m for 0 <= k < m, each row from the one before by one step of
    the long division: multiply by x, then subtract lead * Phi_m."""
    poly = cyclotomic_polynomial(m)
    phi = len(poly) - 1
    rows, r = [], [1] + [0] * (phi - 1)
    for _ in range(m):
        rows.append(r)
        lead = r[-1]
        r = [c - lead * d for c, d in zip([0] + r[:-1], poly)]
    return rows


def test_galois_matches_oracle():
    rng = random.Random(11)
    for m in list(range(1, 40)) + [72, 210]:
        for _ in range(3):
            z = CyclotomicNumber(m, [rng.randint(-(2**40), 2**40) for _ in range(m)])
            for a in _units(m):
                assert z.galois(a).coeffs == _reduced(m, _permuted(m, z.coeffs, a)), (m, a)
            conj = _permuted(m, z.coeffs, -1)
            assert z.galois(-1).coeffs == _reduced(m, conj), m
            assert (z * z.galois(-1)).coeffs == _reduced(m, _poly_mul(list(z.coeffs), conj)), m


def test_galois_matches_oracle_four_odd_primes():
    # At m = 1155 = 3*5*7*11 the long division costs about 3e5 steps per image,
    # so the permuted vectors are reduced through a table of x^k mod Phi_m
    # instead, all 480 units at once.
    m = 1155
    table = _power_table(m)
    for k in (0, 479, 480, 481, 1000, 1154):
        assert tuple(table[k]) == _reduced(m, [0] * k + [1]), k
    table = numpy.array(table, dtype=numpy.int64)
    assert numpy.abs(table).max() < 2**20  # with |c| <= 2^20 no sum below overflows
    rng = random.Random(1155)
    z = CyclotomicNumber(m, [rng.randint(-(2**20), 2**20) for _ in range(m)])
    units = _units(m)
    permuted = numpy.array([_permuted(m, z.coeffs, a) for a in units], dtype=numpy.int64)
    for a, want in zip(units, (permuted @ table).tolist()):
        assert list(z.galois(a).coeffs) == want, a


def test_galois_matches_oracle_every_order_below_200():
    # Every unit a of every m < 200, reduced all at once through the table of
    # x^k mod Phi_m, which the long division pins at its rows k = 0, phi and m - 1.
    rng = random.Random(200)
    for m in range(1, 200):
        table = _power_table(m)
        phi = len(table[0])
        for k in {0, phi % m, m - 1}:
            assert tuple(table[k]) == _reduced(m, [0] * k + [1]), (m, k)
        table = numpy.array(table, dtype=numpy.int64)
        assert numpy.abs(table).max() < 2**20  # with |c| <= 2^20 no sum below overflows
        z = CyclotomicNumber(m, [rng.randint(-(2**20), 2**20) for _ in range(m)])
        units = _units(m)
        permuted = numpy.array([_permuted(m, z.coeffs, a) for a in units], dtype=numpy.int64)
        for a, want in zip(units, (permuted @ table).tolist()):
            assert list(z.galois(a).coeffs) == want, (m, a)


def test_galois_columns_match_oracle_every_order_below_200():
    # Several vectors packed in columns, for every unit of every m < 200, and one
    # vector alone, for a few, against the table of x^k mod Phi_m; no unit, no image.
    rng = random.Random(201)
    for m in range(1, 200):
        table = numpy.array(_power_table(m), dtype=numpy.int64)
        phi, units = table.shape[1], _units(m)
        vectors = [tuple(rng.randint(-(2**20), 2**20) for _ in range(phi)) for _ in range(3)]
        assert _galois_columns(m, vectors, []) == []
        for some, these in ((vectors, units), (vectors[:1], units[:2] + units[-1:])):
            images = _galois_columns(m, some, these)
            assert [len(image) for image in images] == [len(some)] * len(these), m
            for v, column in zip(some, zip(*images)):
                permuted = numpy.array([_permuted(m, v, a) for a in these], dtype=numpy.int64)
                assert [list(image) for image in column] == (permuted @ table).tolist(), (m, len(some))


def test_galois_columns_match_each_vector_near_2_to_the_70():
    # Fields wider than 8 bytes; the numpy oracle is int64, so each vector's own
    # _galois is the reference.
    rng = random.Random(270)
    for m in range(1, 200):
        phi, units = _modulus(m)[0], _units(m)
        edge = [2**70 - rng.randint(0, 9) for _ in range(2 * phi)]
        vectors = [tuple(c * rng.choice((-1, 1)) for c in edge[i : i + phi]) for i in (0, phi)]
        units = units[:3] + units[-2:]
        for a, images in zip(units, _galois_columns(m, vectors, units)):
            assert images == [_galois(m, v, a) for v in vectors], (m, a)


def test_galois_columns_match_each_vector_at_each_field_edge():
    # The largest entries whose bound top * grow fits a 1-, 2-, 4- or 8-byte
    # field: a grow too small for what a finish does would overflow a field
    # into its neighbour with no error, so each image is checked against its
    # vector's own _galois.  Signs that agree and that alternate reach the
    # first link's doubling.
    rng = random.Random(8)
    for m in range(1, 200):
        phi, grow, units = _modulus(m)[0], _modulus(m)[4], _units(m)
        units = units[:3] + units[-2:]
        for width in (1, 2, 4, 8):
            top = (2 ** (8 * width - 1) - 1) // grow
            if not top:
                continue
            assert _width(top * grow) == width, (m, width)
            vectors = [(top,) * phi, (-top,) * phi, tuple(top * (-1) ** j for j in range(phi))]
            vectors.append(tuple(rng.choice((-top, top)) for _ in range(phi)))
            for a, images in zip(units, _galois_columns(m, vectors, units)):
                assert images == [_galois(m, v, a) for v in vectors], (m, width, a)


GALOIS_ORDERS = list(range(1, 40)) + [72, 210, 1155]


@st.composite
def galois_cases(draw):
    """Two random elements of Z[zeta_m] and two units a, b mod m."""
    m = draw(st.sampled_from(GALOIS_ORDERS))
    rng = draw(st.randoms(use_true_random=False))
    x, y = (CyclotomicNumber(m, [rng.randint(-(2**40), 2**40) for _ in range(m)]) for _ in range(2))
    a, b = (draw(st.sampled_from(_units(m))) for _ in range(2))
    return m, x, y, a, b


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(galois_cases())
def test_galois_is_a_ring_automorphism(case):
    m, x, y, a, b = case
    assert (x * y).galois(a) == x.galois(a) * y.galois(a)
    assert (x + y).galois(a) == x.galois(a) + y.galois(a)
    assert x.galois(a).galois(b) == x.galois(a * b % m)
    assert x.galois(1) == x
    assert x.galois(a + 3 * m) == x.galois(a)


def test_galois_rejects_non_units():
    z = CyclotomicNumber.root_of_unity(12, 1)
    for a in (0, 2, 3, 4, 6, 8, 9, 10, 12, -3):
        with pytest.raises(ValueError, match=rf"a = {a}, m = 12"):
            z.galois(a)
    for m in range(2, 40):
        z = CyclotomicNumber.root_of_unity(m, 1)
        for a in range(m):
            if math.gcd(a, m) != 1:
                with pytest.raises(ValueError):
                    z.galois(a)


def held_after(calls) -> int:
    """The bytes still allocated after calls() returns, against just before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        calls()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_the_ring_keeps_one_order_and_no_placement_between_calls(monkeypatch):
    # A library caller's history must not grow what the ring holds: an image
    # under sigma_a at m = 199998 places its vector in m slots, and none
    # stays.  An entry keeps sizes and its binomials, never Phi_m or a list of
    # its terms: reductions at m = 1999618 = 2 * 999809, and at four orders
    # m = 2q near 2*10^5, leave at most 4 KiB held, where a list of Phi_m's
    # terms held about 100 MB and 9 MB.
    z = CyclotomicNumber(199998, [1, 2, 3])

    def images():
        for a in (5, 7, 11, 13, 17, 19, 23, 25):  # units mod 199998 = 2 * 3^2 * 41 * 271
            z.galois(a)

    assert held_after(images) < 2**20

    def reductions(orders):
        for m in orders:
            CyclotomicNumber(m, [1, 2, 3])

    monkeypatch.setattr(cyclotomic, "cyclotomic_polynomial", None)  # a build would raise TypeError
    for orders in ([1999618], [2 * q for q in (100003, 100019, 100043, 100049)]):
        _modulus.cache_clear()
        assert held_after(lambda: reductions(orders)) < 2**12, orders
    assert _modulus(1999618) == (999808, 999809, -1, 999808, 2, ((1, -1), (999809, 1)))
