"""Gamma/Beta, the four-point amplitude, residues, and the two-column report."""

import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy
import pytest
from scipy import integrate

from periodkit import characters, cyclotomic
from periodkit.amplitudes import (
    MandelstamInput,
    beta_fn,
    correspondence_table,
    gamma_fn,
    pole_scan,
    veneziano,
)
from periodkit.characters import MultiplicativeCharacter, jacobi_sum
from periodkit.complex_periods import agm
from periodkit.cyclotomic import CyclotomicNumber, _modulus
from periodkit.errors import FloatOverflow, InvalidInput, PoleAtNonpositiveInteger


@pytest.fixture
def mpmath():
    # Independent Gamma/Beta oracle at 40 digits; gamma_fn is math.gamma, so
    # the standard library cannot check it.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        yield mpmath


def rel_err(value, exact):
    return float(abs(value - exact) / abs(exact))


def beta_quadrature(alpha, beta):
    # Independent oracle: Int_0^1 t^(a-1) (1-t)^(b-1) dt, endpoint
    # singularities removed by t = u^2 and 1 - t = v^2 around the split.
    def lower(u):
        return 2.0 * u ** (2 * alpha - 1) * (1 - u * u) ** (beta - 1)

    def upper(v):
        return 2.0 * v ** (2 * beta - 1) * (1 - v * v) ** (alpha - 1)

    lo, _ = integrate.quad(lower, 0, math.sqrt(0.5), epsabs=1e-12, epsrel=1e-12)
    hi, _ = integrate.quad(upper, 0, math.sqrt(0.5), epsabs=1e-12, epsrel=1e-12)
    return lo + hi


def residue_closed_form(n, beta):
    acc = (-1.0) ** n / math.factorial(n)
    for j in range(1, n + 1):
        acc *= beta - j
    return acc


def residue_richardson(n, beta, levels=10, eps0=0.125):
    # The residue at alpha = -n as the numerical limit of eps * A(-n + eps, beta),
    # Richardson-extrapolated over eps = eps0 / 2^j, from the library's own Gamma.
    column = [
        eps * gamma_fn(-n + eps) * gamma_fn(beta) / gamma_fn(beta - n + eps)
        for eps in (eps0 / 2.0**j for j in range(levels))
    ]
    for k in range(1, levels):
        factor = 2.0**k
        column = [(factor * column[j + 1] - column[j]) / (factor - 1.0) for j in range(len(column) - 1)]
    return column[0]


def test_gamma_examples():
    assert gamma_fn(1.0) == 1.0
    assert rel_err(gamma_fn(0.5), math.sqrt(math.pi)) < 1e-15
    assert gamma_fn(5.0) == 24.0


def test_gamma_relative_error_on_principal_range(mpmath):
    x = 0.5
    while x <= 20.0:
        assert rel_err(gamma_fn(x), mpmath.gamma(x)) < 2e-15, x
        x += 0.0078125


def test_gamma_reflection_region(mpmath):
    for x in (-0.5, -1.5, -2.25, -6.75, 0.1, 0.3):
        assert rel_err(gamma_fn(x), mpmath.gamma(x)) < 1e-15, x


def test_gamma_seeded_against_mpmath(mpmath):
    rng = random.Random(20261018)
    draws = [rng.uniform(-30.0, 170.0) for _ in range(2400)]
    xs = [x for x in draws if x > 0 or abs(x - round(x)) >= 1e-3]
    assert len(xs) >= 2000
    worst = max(rel_err(gamma_fn(x), mpmath.gamma(x)) for x in xs)
    assert worst <= 1e-14, worst


def test_gamma_leaves_double_range():
    # Overflow above about 171.6; below about -171 math.gamma is subnormal and
    # reaches 0.0 near -178, so its printed digits would be wrong.
    for x in (172.0, 1e308, -171.5, -200.5):
        with pytest.raises(FloatOverflow):
            gamma_fn(x)
    assert gamma_fn(171.5) > 1e307
    assert gamma_fn(-170.5) < 0


def test_gamma_poles():
    for x in (0.0, -1.0, -2.0, -17.0):
        with pytest.raises(PoleAtNonpositiveInteger):
            gamma_fn(x)


def test_beta_examples():
    assert beta_fn(1, 1) == 1.0
    assert rel_err(beta_fn(0.5, 0.5), math.pi) < 1e-15
    assert beta_fn(2, 3) == 1.0 / 12.0


def test_beta_seeded_against_mpmath(mpmath):
    rng = random.Random(20261019)
    pairs = [(rng.uniform(0.05, 10.0), rng.uniform(0.05, 10.0)) for _ in range(2000)]
    worst = max(rel_err(beta_fn(a, b), mpmath.beta(a, b)) for a, b in pairs)
    assert worst <= 1e-13, worst


def test_beta_leaves_double_range():
    # Each Gamma fits a double, but Gamma(171) * Gamma(0.001) overflows.
    with pytest.raises(FloatOverflow):
        beta_fn(171.0, 0.001)
    with pytest.raises(FloatOverflow):
        beta_fn(199.0, 199.0)


def test_beta_rejects_poles():
    with pytest.raises(PoleAtNonpositiveInteger):
        beta_fn(0.0, 1.5)
    with pytest.raises(PoleAtNonpositiveInteger):
        beta_fn(1.5, -2.0)
    with pytest.raises(PoleAtNonpositiveInteger):
        beta_fn(0.25, -0.25)  # alpha + beta = 0


def test_beta_against_quadrature():
    for alpha in (0.5, 1.0, 2.5):
        for beta in (0.5, 1.0, 2.5):
            assert abs(beta_fn(alpha, beta) - beta_quadrature(alpha, beta)) < 1e-11


def test_beta_symmetry_grid():
    values = [0.1 + 0.49 * i for i in range(11)]  # spans (0.1, 5]
    for a in values:
        for b in values:
            assert beta_fn(a, b) == beta_fn(b, a)


def test_beta_functional_identity():
    values = [0.1 + 0.49 * i for i in range(11)]
    for a in values:
        for b in values:
            lhs = beta_fn(a + 1, b)
            rhs = beta_fn(a, b) * a / (a + b)
            assert rel_err(lhs, rhs) < 1e-14, (a, b)


def test_veneziano_examples():
    flat = veneziano(MandelstamInput(2.0, 2.0))
    assert not flat.at_pole and flat.value == 1.0
    pole = veneziano(MandelstamInput(1.0, 2.5))
    assert pole.at_pole and pole.pole_index == 0
    assert math.isinf(pole.value)


def test_veneziano_symmetry():
    a = veneziano(MandelstamInput(2.3, 3.7))
    b = veneziano(MandelstamInput(3.7, 2.3))
    assert a.value == b.value


def test_veneziano_pole_ladder():
    for n in range(0, 6):
        amp = veneziano(MandelstamInput(1.0 - n, 2.5))
        assert amp.at_pole and amp.pole_index == n, n


def test_veneziano_pole_sign_matches_residue():
    for n in range(0, 21):
        for beta in (-3.5, -0.25, 0.5, 1.5, 2.5, 7.25, 30.5):
            amp = veneziano(MandelstamInput(1.0 - n, 1.0 + beta))
            assert amp.at_pole and amp.pole_index == n
            assert amp.value == math.copysign(math.inf, residue_closed_form(n, beta)), (n, beta)


def test_veneziano_symmetric_on_a_pole_lattice():
    # B(alpha, beta) = B(beta, alpha), so a pole of beta alone must read as the
    # same pole of alpha; where both sit on poles the index stays alpha's.
    poles = [(1.0 - n + e, True) for n in range(7) for e in (0.0, 1e-13, -1e-13)]
    points = poles + [(n + 0.5, False) for n in range(7)]
    for s, s_pole in points:
        for t, t_pole in points:
            st, ts = veneziano(MandelstamInput(s, t)), veneziano(MandelstamInput(t, s))
            assert (st.value, st.at_pole) == (ts.value, ts.at_pole), (s, t)
            if not (s_pole and t_pole):
                assert st.pole_index == ts.pole_index, (s, t)


def test_veneziano_of_huge_arguments_overflows():
    # alpha + beta is infinite, which is no pole, so the Beta ratio runs and Gamma(alpha) overflows.
    with pytest.raises(FloatOverflow):
        veneziano(MandelstamInput(1e308, 1e308))


def test_veneziano_cancelling_poles_are_finite():
    # alpha = -2, beta = 1: Gamma(alpha + beta) blows up too and the ratio
    # converges to -1/2.
    amp = veneziano(MandelstamInput(-1.0, 2.0))
    assert not amp.at_pole and amp.value == -0.5
    # Non-pole numerator over a Gamma pole vanishes.
    zero = veneziano(MandelstamInput(0.5, 0.5))
    assert not zero.at_pole and zero.value == 0.0


def test_pole_scan_matches_richardson_limit():
    # Bridge: the amplitude's numerical limit at each pole is the reported residue.
    for beta in (1.5, 2.5, 3.5):
        for n, residue in pole_scan(beta, 5):
            assert abs(residue - residue_richardson(n, beta)) < 1e-12, (n, beta)


def test_pole_scan_matches_mpmath_limit():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261018)
    betas = []
    while len(betas) < 200:
        beta = rng.uniform(-12.0, 12.0)
        if abs(beta - round(beta)) > 1e-6:
            betas.append(beta)
    worst = 0.0
    with mpmath.workdps(80):
        eps = mpmath.mpf(10) ** -50
        for beta in betas:
            b = mpmath.mpf(beta)
            for n, residue in pole_scan(beta, 12):
                limit = eps * mpmath.gamma(-n + eps) * mpmath.gamma(b) / mpmath.gamma(b - n + eps)
                worst = max(worst, rel_err(residue, limit))
    assert worst <= 1e-12, worst


def test_pole_scan_examples():
    assert pole_scan(2.5, 3) == [(0, 1.0), (1, -1.5), (2, 0.375), (3, 0.0625)]


def test_pole_scan_input_validation():
    with pytest.raises(ValueError):
        pole_scan(2.0, 3)
    with pytest.raises(ValueError):
        pole_scan(2.5, 13)


@pytest.mark.parametrize("bad", [10**400, -(10**400), "2", 1 + 2j, True, math.nan, math.inf, None, Decimal("2.5"), numpy.True_, numpy.False_])
@pytest.mark.parametrize(
    "call,arg",
    [
        (gamma_fn, "x"),
        (lambda v: beta_fn(v, 1.0), "alpha"),
        (lambda v: beta_fn(1.5, v), "beta"),
        (lambda v: MandelstamInput(v, 1.0), "s12"),
        (lambda v: MandelstamInput(2.5, v), "s34"),
        (lambda v: pole_scan(v, 3), "beta_fixed"),
        (lambda v: agm(v, 2.0), "a"),
        (lambda v: agm(2.0, v), "b"),
    ],
    ids=["gamma", "beta-alpha", "beta-beta", "mandelstam-s12", "mandelstam-s34", "pole_scan", "agm-a", "agm-b"],
)
def test_real_arguments_follow_one_rule(call, arg, bad):
    # An int past the doubles once escaped as OverflowError, a str or complex
    # as TypeError, and gamma_fn(True) returned 1.0; agm(True, 2.0) returned a
    # value, and a Decimal passed the rule only to end in a bare TypeError; a numpy
    # bool, which sums with a float, ended in round's TypeError or returned a value.
    with pytest.raises(InvalidInput) as info:
        call(bad)
    assert info.value.arg == arg


@pytest.mark.parametrize("good", [numpy.float64(2.5), numpy.int64(3), Fraction(5, 2), 3])
def test_real_arguments_take_every_finite_number_that_rounds(good):
    # The rounding that refuses a numpy bool keeps numpy's floats and ints.
    assert gamma_fn(good) == gamma_fn(float(good))
    assert beta_fn(good, 1.5) == beta_fn(float(good), 1.5)


def test_correspondence_local_norms():
    report = correspondence_table(5, [2.0])
    assert len(report.local_rows) == 6
    assert all(row.norm_ok for row in report.local_rows)
    assert report.a_p == -2


def _orbit_representatives(p):
    """The first pair in row order of each orbit of the units a mod p - 1 and the
    six orderings (x, y) of (k1, k2, k3 = -k1 - k2), acting by (k1, k2) -> (a*x, a*y)."""
    m = p - 1
    units = [a for a in range(1, m) if math.gcd(a, m) == 1]
    seen, reps = set(), set()
    for k1 in range(1, m):
        for k2 in range(1, m):
            if (k1 + k2) % m and (k1, k2) not in seen:
                reps.add((k1, k2))
                for x, y in itertools.permutations((k1, k2, -k1 - k2), 2):
                    seen.update((a * x % m, a * y % m) for a in units)
    return reps


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 61, 71, 73, 97])
def test_correspondence_local_rows_match_direct_table(p):
    # The direct table as an oracle: one Jacobi sum and one norm for every pair.
    rows = correspondence_table(p, []).local_rows
    pairs = [(k1, k2) for k1 in range(1, p - 1) for k2 in range(1, p - 1) if (k1 + k2) % (p - 1)]
    assert [(row.k1, row.k2) for row in rows] == pairs
    reps = _orbit_representatives(p)
    for row in rows:
        j = jacobi_sum(MultiplicativeCharacter(p, row.k1), MultiplicativeCharacter(p, row.k2))
        norm = j.norm_to_int()
        assert (row.ring_order, row.coeffs, row.norm, row.norm_ok) == (j.m, j.coeffs, norm, norm == p), (p, row)
        assert row.norm_checked == ((row.k1, row.k2) in reps), (p, row)


@pytest.mark.parametrize("p,orbits", [(5, 1), (73, 71), (97, 91)])
def test_correspondence_computes_one_sum_and_norm_per_orbit(p, orbits, monkeypatch):
    calls = {"jacobi_sum": 0, "norm_to_int": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(characters, "jacobi_sum", counted("jacobi_sum", characters.jacobi_sum))
    monkeypatch.setattr(CyclotomicNumber, "norm_to_int", counted("norm_to_int", CyclotomicNumber.norm_to_int))
    rows = correspondence_table(p, []).local_rows
    assert len(rows) == (p - 2) * (p - 3)
    assert calls == {"jacobi_sum": orbits, "norm_to_int": orbits}
    assert sum(row.norm_checked for row in rows) == orbits
    assert all(row.norm_ok for row in rows)


def test_correspondence_builds_each_ring_order_once():
    # The ring keeps one order, and the report runs its orbits grouped by ring order.
    _modulus.cache_clear()
    report = correspondence_table(97, [])
    orders = {row.ring_order for row in report.local_rows}  # a_p is read off the Z[i] row
    assert len(orders) == 10
    assert _modulus.cache_info().misses == len(orders)


def test_correspondence_places_each_image_once_and_builds_no_element(monkeypatch):
    # An orbit of ring order n has phi(n) pairs, one image for each unit a != 1
    # mod n; the report places the packed columns once per (n, a mod n) and
    # keeps nothing of the placement, so a second report places them again.
    canonical = CyclotomicNumber.__dict__["_canonical"].__func__
    galois, built, placed = cyclotomic._galois, [], []

    def counted(cls, m, coeffs):
        built.append(m)
        return canonical(cls, m, coeffs)

    def images(m, coeffs, a):
        placed.append((m, a % m))
        return galois(m, coeffs, a)

    monkeypatch.setattr(CyclotomicNumber, "_canonical", classmethod(counted))
    monkeypatch.setattr(cyclotomic, "_galois", images)
    rows = correspondence_table(97, []).local_rows
    orders = {row.ring_order for row in rows}
    placements = sum(sum(math.gcd(a, n) == 1 for a in range(2, n)) for n in orders)
    assert len(placed) == len(set(placed)) == placements
    # Each orbit builds its sum and its norm's product; no image builds an element.
    orbits = sum(row.norm_checked for row in rows)
    assert len(built) == 2 * orbits and len(rows) - orbits == 8839
    correspondence_table(97, [])
    assert len(placed) == 2 * placements


def test_correspondence_takes_one_finish_per_ring_order_and_unit(monkeypatch):
    # Each orbit reduces its sum and its norm's product; the images of all orbits
    # of one ring order n take one reduction per unit a != 1 mod n, packed in
    # columns, and a pair whose sum is the negation of an image takes none.
    reduce, reduced = cyclotomic._reduce, []

    def counted(m, coeffs):
        reduced.append(m)
        return reduce(m, coeffs)

    monkeypatch.setattr(cyclotomic, "_reduce", counted)
    rows = correspondence_table(97, []).local_rows
    orbits = sum(row.norm_checked for row in rows)
    images = sum(sum(math.gcd(a, n) == 1 for a in range(2, n)) for n in {row.ring_order for row in rows})
    assert orbits == 91
    assert len(reduced) == 2 * orbits + images == 266


def test_correspondence_ap_matches_enumeration():
    def naive(p):
        n = 1
        for x in range(p):
            fx = (x * x * x - x) % p
            for y in range(p):
                if y * y % p == fx:
                    n += 1
        return p + 1 - n

    report = correspondence_table(13, [2.0])
    assert report.a_p == naive(13)
    report7 = correspondence_table(7, [])
    assert report7.a_p is None


def test_correspondence_global_rows():
    report = correspondence_table(5, [1.0, 2.0])
    assert len(report.global_rows) == 4  # Cartesian square of the grid
    for row in report.global_rows:
        if row.at_pole:
            assert isinstance(row.pole_index, int) and row.pole_index >= 0
    assert any(row.at_pole for row in report.global_rows)  # s = 1 gives alpha = 0


def test_correspondence_empty_grid():
    report = correspondence_table(5, [])
    assert report.global_rows == ()
    assert len(report.dictionary) == 3


def test_correspondence_bounds():
    with pytest.raises(ValueError):
        correspondence_table(101, [])
    with pytest.raises(ValueError):
        correspondence_table(5, [0.0] * 101)
