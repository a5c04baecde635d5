"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import contextlib
import io
import math
import pathlib
import random
from fractions import Fraction

from periodkit.amplitudes import MandelstamInput, beta_fn, pole_scan, veneziano
from periodkit.characters import MultiplicativeCharacter, gauss_jacobi_relation_check, gauss_sum, jacobi_sum
from periodkit.cli import main
from periodkit.complex_periods import (
    EllipticCurveQ,
    numeric_periods_catalog,
    periods_agm,
    periods_quadrature,
    tau_normalize,
)
from periodkit.curve_counts import (
    WeierstrassCurveFp,
    a_p_from_jacobi,
    count_points,
    zeta_data,
)
from periodkit.padic import PadicInt, delta_rules_check, frobenius_lift_check
from scipy import integrate

from golden_corpus import CORPUS
from test_amplitudes import residue_richardson
from test_curve_counts import ext_count_oracle

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

ODD_PRIMES_TO_97 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                    61, 67, 71, 73, 79, 83, 89, 97]
ODD_PRIMES_TO_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def _report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def test_criterion_01_gauss_norm():
    failures = []
    for p in ODD_PRIMES_TO_97:
        for k in range(1, p - 1):
            norm = gauss_sum(MultiplicativeCharacter(p, k)).norm_sq
            if abs(norm - p) >= 1e-9:
                failures.append((p, k, norm))
    _report(1, "Gauss norm |g(c)|^2 = p within 1e-9, all nontrivial c, p <= 97", failures)


def _nontrivial_pairs(p):
    for k1 in range(1, p - 1):
        for k2 in range(1, p - 1):
            if (k1 + k2) % (p - 1) != 0:
                yield k1, k2


def test_criterion_02_jacobi_exact_norm():
    failures = []
    for p in ODD_PRIMES_TO_31:
        for k1, k2 in _nontrivial_pairs(p):
            j = jacobi_sum(MultiplicativeCharacter(p, k1), MultiplicativeCharacter(p, k2))
            if j.norm_to_int() != p:
                failures.append((p, k1, k2))
    _report(2, "Jacobi norm J*conj(J) = p exactly in Z[zeta_n], p <= 31", failures)


def test_criterion_03_gauss_jacobi_relation():
    failures = []
    for p in ODD_PRIMES_TO_31:
        for k1, k2 in _nontrivial_pairs(p):
            c, c2 = MultiplicativeCharacter(p, k1), MultiplicativeCharacter(p, k2)
            residual = gauss_jacobi_relation_check(c, c2, jacobi_sum(c, c2))
            if residual >= 1e-8:
                failures.append((p, k1, k2, residual))
    _report(3, "J(c,c') = g(c)g(c')/g(cc') residual < 1e-8 on full domain, p <= 31", failures)


def _naive_count(p, a, b):
    n = 1
    for x in range(p):
        fx = (x * x * x + a * x + b) % p
        for y in range(p):
            if y * y % p == fx:
                n += 1
    return n


def test_criterion_04_defect_correspondence():
    failures = []
    for p in [q for q in ODD_PRIMES_TO_97 if q % 4 == 1]:
        expected = p + 1 - _naive_count(p, p - 1, 0)
        got = a_p_from_jacobi(p)
        if got != expected:
            failures.append((p, got, expected))
    _report(4, "a_p from Jacobi sum equals p + 1 - N_p(y^2 = x^3 - x), p = 1 mod 4 <= 97", failures)


def test_criterion_05_hasse_bound():
    failures = []
    for p in (5, 7, 11, 13):
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                ap = count_points(WeierstrassCurveFp(p, a, b)).a_p
                if ap * ap > 4 * p:
                    failures.append((p, a, b, ap))
    rng = random.Random(1009)
    for p in [q for q in ODD_PRIMES_TO_97 if q >= 17]:
        done = 0
        while done < 100:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            ap = count_points(WeierstrassCurveFp(p, a, b)).a_p
            if ap * ap > 4 * p:
                failures.append((p, a, b, ap))
            done += 1
    _report(5, "Hasse bound |a_p| <= 2 sqrt(p): exhaustive p <= 13, random 100/p for 17..97", failures)


def test_criterion_06_weil_zeta_consistency():
    failures = []
    rng = random.Random(42)
    for p in (5, 7, 11, 13):
        done = 0
        while done < 20:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            # Points of F_{p^2} enumerated against the roots of the zeta numerator.
            ap = zeta_data(WeierstrassCurveFp(p, a, b)).a_p
            if ext_count_oracle(p, a, b) != p * p + 1 - (ap * ap - 2 * p):
                failures.append((p, a, b))
            done += 1
    _report(6, "N_{p^2} = p^2 + 1 - (alpha^2 + beta^2) exactly, 20 curves per p in {5,7,11,13}", failures)


def test_criterion_07_tau_equals_i():
    failures = []
    for periods in (periods_agm, periods_quadrature):
        tau = tau_normalize(periods(EllipticCurveQ(-1, 0))).tau
        if abs(tau - 1j) >= 1e-9:
            failures.append((periods.__name__, tau))
    _report(7, "y^2 = x^3 - x reduces to tau = i within 1e-9 (AGM and quadrature)", failures)


def test_criterion_08_agm_vs_quadrature():
    failures = []
    rng = random.Random(77)
    done = 0
    while done < 20:
        a = rng.randint(-20, -1)
        b = rng.randint(-20, 20)
        if -4 * a**3 - 27 * b**2 <= 0:
            continue
        curve = EllipticCurveQ(a, b)
        q = periods_quadrature(curve)
        fast = periods_agm(curve)
        if abs(q.omega1 - fast.omega1) >= 1e-9 or abs(q.omega2 - fast.omega2) >= 1e-9:
            failures.append((a, b))
        done += 1
    _report(8, "AGM and quadrature generators agree within 1e-9 on 20 random curves", failures)


def test_criterion_09_numeric_period_catalog():
    failures = []
    rows = {e.name: e.value for e in numeric_periods_catalog(2)}
    if abs(rows["pi"] - math.pi) >= 1e-10:
        failures.append(("pi", rows["pi"]))
    if abs(rows["2*pi"] - 2 * math.pi) >= 1e-10:
        failures.append(("2*pi", rows["2*pi"]))
    partials = []
    acc = Fraction(0)
    for k in range(1, 61):
        acc += Fraction((-1) ** (k + 1), k)
        partials.append(acc)
    while len(partials) > 1:
        partials = [(partials[i] + partials[i + 1]) / 2 for i in range(len(partials) - 1)]
    if abs(rows["log 2"] - float(partials[0])) >= 1e-10:
        failures.append(("log 2", rows["log 2"]))
    _report(9, "catalog: pi, 2*pi, log 2 within 1e-10 of their independent oracles", failures)


def test_criterion_10_beta_and_amplitude():
    failures = []

    def beta_quadrature(alpha, beta):
        lower, _ = integrate.quad(
            lambda u: 2.0 * u ** (2 * alpha - 1) * (1 - u * u) ** (beta - 1),
            0, math.sqrt(0.5), epsabs=1e-12, epsrel=1e-12,
        )
        upper, _ = integrate.quad(
            lambda v: 2.0 * v ** (2 * beta - 1) * (1 - v * v) ** (alpha - 1),
            0, math.sqrt(0.5), epsabs=1e-12, epsrel=1e-12,
        )
        return lower + upper

    for alpha in (0.5, 1.0, 2.5):
        for beta in (0.5, 1.0, 2.5):
            if abs(beta_fn(alpha, beta) - beta_quadrature(alpha, beta)) >= 1e-8:
                failures.append(("beta-quadrature", alpha, beta))

    for s, t in ((2.3, 3.7), (1.9, 4.2), (2.5, 2.5), (3.1, 1.4)):
        forward = veneziano(MandelstamInput(s, t)).value
        backward = veneziano(MandelstamInput(t, s)).value
        if abs(forward - backward) >= 1e-12:
            failures.append(("symmetry", s, t))

    for beta in (1.5, 2.5, 3.5):
        for n, residue in pole_scan(beta, 5):
            if abs(residue - residue_richardson(n, beta)) >= 1e-6:
                failures.append(("residue", beta, n))
    _report(10, "Beta vs quadrature 1e-8; A(s,t) symmetry 1e-12; residues vs Richardson limit 1e-6 for n <= 5", failures)


def test_criterion_11_p_derivation_identities():
    failures = []
    rng = random.Random(20260809)
    for p in (2, 3, 5, 7):
        for n in range(3, 9):
            for _ in range(500):
                x = PadicInt(p, n, rng.randrange(p**n))
                y = PadicInt(p, n, rng.randrange(p**n))
                verdict = delta_rules_check(x, y)
                if not (verdict.sum_rule_ok and verdict.product_rule_ok):
                    failures.append((p, n, x.value, y.value))
        for _ in range(500):
            x = PadicInt(p, 5, rng.randrange(p**5))
            for variant in ("phi1", "phi2"):
                if not frobenius_lift_check(variant, x).reduces_to_frobenius:
                    failures.append((p, variant, x.value))
    _report(11, "sum/product rules exact, 500 pairs per (p,N) in {2,3,5,7}x{3..8}; lifts reduce to Frobenius", failures)


def test_criterion_12_cli_golden_determinism():
    failures = []
    for name, argv in CORPUS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if code != 0:
            failures.append((name, "exit", code))
            continue
        expected = (GOLDEN_DIR / name).read_text()
        if out.getvalue() != expected:
            failures.append((name, "bytes differ"))
    _report(12, "golden-file byte equality across the fixed corpus (every subcommand)", failures)
