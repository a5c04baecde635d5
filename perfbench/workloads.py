"""Seeded inputs, operations and oracle checks for the four workloads.

A workload is one seeded list of operations, run once per pass.  Input
sizes sit at fixed levels spread over the ranges named below; the seed
picks the concrete primes, characters, curves and grids near each level.
That keeps the cost of a pass nearly independent of the seed, which is
what lets runs with different seeds be compared.  Each list has an odd
length, so its median op is one op rather than the gap between two.

Each operation is timed alone; its check runs after the pass, untimed, and
compares the output with an oracle that does not share the code path being
timed: the golden bytes, a closed form, or one of the paper's bridges.

This module imports nothing from periodkit at import time.  `run_op` and
`check_pass` reach the package through the module passed to them, looking
functions up at call time, so wrappers installed by the tracer are seen.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

WORKLOADS = ("cli_cold", "finite_enum", "exact_ring", "analytic")


# ---------------------------------------------------------------------------
# Number theory for input generation and oracles (independent of periodkit)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.4e14."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17)
    for q in small:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def totient(n: int) -> int:
    out, m, d = n, n, 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            out -= out // d
        d += 1
    if m > 1:
        out -= out // m
    return out


def enum_a_p(p: int, a: int, b: int) -> int:
    """a_p of y^2 = x^3 + ax + b over F_p by Euler's criterion (small p only)."""
    half = (p - 1) // 2
    total = 0
    for x in range(p):
        f = (x * x * x + a * x + b) % p
        if f:
            total += 1 if pow(f, half, p) == 1 else -1
    return -total


def levels(lo: float, hi: float, k: int) -> list[float]:
    """k sizes log-spaced across [lo, hi], one in the middle of each stratum."""
    return [lo * (hi / lo) ** ((i + 0.5) / k) for i in range(k)]


def prime_near(rng: random.Random, level: float, ok=lambda p: True, jitter: float = 0.005) -> int:
    """A seeded choice of the two primes nearest to level that satisfy ok,
    searched within +-jitter of level; the window doubles until it holds one."""
    while True:
        lo, hi = int(level * (1 - jitter)), int(level * (1 + jitter))
        candidates = [p for p in range(max(lo, 3), hi + 1) if is_prime(p) and ok(p)]
        if candidates:
            return rng.choice(sorted(candidates, key=lambda p: abs(p - level))[:2])
        jitter *= 2


def nonsingular_curve(rng: random.Random, p: int) -> tuple[int, int]:
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b * b) % p:
            return a, b


def off_integer(rng: random.Random, lo: float, hi: float, gap: float = 0.05) -> float:
    while True:
        x = round(rng.uniform(lo, hi), 6)
        if abs(x - round(x)) >= gap:
            return x


# ---------------------------------------------------------------------------
# Operation lists.  An op is a tuple (kind, args...) of plain data so it can
# be written out with the results.


def cli_ops(rng: random.Random, corpus: list, size: str) -> list:
    names = [name for name, _ in corpus]
    if size == "tiny":
        names = names[:1] + names[9:10] + names[14:15]
    rng.shuffle(names)
    argv = dict(corpus)
    return [("cli", name, list(argv[name])) for name in names]


def finite_enum_ops(rng: random.Random, size: str) -> list:
    if size == "tiny":
        cp, gs, ext = levels(1e3, 1e4, 2), levels(1e2, 1e3, 2), levels(20, 50, 1)
    else:
        # Ranges from the workload definition: count_points at 1e5..1e6,
        # gauss_sum at 1e4..1e5, count_points_ext(n=2) at 400..1000.  The
        # O(p^2) extension count sits near the low end, at 447, so that a
        # pass stays short enough for six replicas in a run.
        cp, gs, ext = levels(1e5, 1e6, 4), levels(1e4, 1e5, 4), levels(400, 500, 1)
    ops = []
    for i, level in enumerate(cp):
        # Alternate residues so that half the primes carry a_p_from_jacobi.
        residue = 1 if i % 2 == 0 else 3
        p = prime_near(rng, level, lambda q: q % 4 == residue)
        curves = [(p - 1, 0)] if residue == 1 else []
        while len(curves) < 2:
            curves.append(nonsingular_curve(rng, p))
        ops += [("count", p, a, b) for a, b in curves]
        if residue == 1:
            ops.append(("apjacobi", p))
    for level in gs:
        p = prime_near(rng, level)
        ops.append(("gauss", p, rng.randrange(1, p - 1)))
    for level in ext:
        p = prime_near(rng, level, jitter=0.01)
        ops.append(("count2", p, *nonsingular_curve(rng, p)))
    rng.shuffle(ops)
    return ops


def _large_ring(p: int) -> bool:
    # Full-order characters of these primes live in Z[zeta_(p-1)] with
    # phi(p-1) close to (p-1)/2 (p - 1 is 2^k times a prime), so a level
    # fixes the ring degree, and with it the cost, too.
    return totient(p - 1) >= 0.49 * (p - 1)


def exact_ring_ops(rng: random.Random, size: str) -> list:
    if size == "tiny":
        corr_sets, jac, dl = [(13,)], levels(60, 120, 2), levels(50, 200, 2)
    else:
        # Groups of primes whose reports cost the same to within a few
        # percent; 71 costs 10% more than 73.  The desk-scale cap p = 97
        # alone would cost as much as the rest of the pass.
        corr_sets = [(29, 31), (41, 43), (73,)]
        jac, dl = levels(500, 2500, 7), levels(1e3, 1e4, 7)
    ops = []
    for group in corr_sets:
        grid = [off_integer(rng, 1.05, 4.95) for _ in range(rng.randint(1, 4))]
        ops.append(("correspond", rng.choice(group), grid))
    for level in jac:
        p = prime_near(rng, level, _large_ring, jitter=0.01)
        units = [k for k in range(1, p - 1) if math.gcd(k, p - 1) == 1]
        k1 = rng.choice(units)
        k2 = rng.choice([k for k in units if (k1 + k) % (p - 1)])
        ops.append(("jacobi", p, k1, k2))
    for i, level in enumerate(dl):
        p = prime_near(rng, level, jitter=0.01)
        n = 4 + i % 5
        ops.append(("delta", p, n, rng.randrange(1, p**n), rng.randrange(1, p**n)))
    rng.shuffle(ops)
    return ops


def random_curve(rng: random.Random) -> tuple[str, str]:
    """y^2 = (x-e1)(x-e2)(x-e3) with distinct rational roots summing to 0."""
    d = rng.randint(1, 6)
    while True:
        n1, n2 = rng.randint(-40 * d, 40 * d), rng.randint(-40 * d, 40 * d)
        n3 = -n1 - n2
        if len({n1, n2, n3}) == 3:
            break
    e1, e2, e3 = Fraction(n1, d), Fraction(n2, d), Fraction(n3, d)
    a = e1 * e2 + e1 * e3 + e2 * e3
    b = -e1 * e2 * e3
    return str(a), str(b)


def amplitude_grid(rng: random.Random) -> tuple[list, list]:
    """Six s and six t values whose cells keep alpha, beta and alpha + beta
    at least 0.1 away from the Gamma poles; alpha may be negative."""
    while True:
        ss = [off_integer(rng, -1.9, 4.9, gap=0.1) for _ in range(6)]
        ts = [off_integer(rng, 1.1, 4.9, gap=0.1) for _ in range(6)]
        sums = [s + t - 2.0 for s in ss for t in ts]
        if all(x > 0.1 or abs(x - round(x)) >= 0.1 for x in sums):
            return ss, ts


def analytic_ops(rng: random.Random, size: str) -> list:
    # A single curve takes about 0.2 ms, below the millisecond hiccups of a
    # shared machine, which would then be all the tail measures.  So an op
    # runs a block of curves.
    blocks, per_block = (3, 4) if size == "tiny" else (101, 50)
    curves = [("-1", "0")]  # the lemniscatic curve, tau = i
    curves += [random_curve(rng) for _ in range(blocks * per_block - 1)]
    ops = [("curves", curves[i : i + per_block]) for i in range(0, len(curves), per_block)]
    ts = sorted({Fraction(rng.randint(4, 60), 64) for _ in range(4)})
    grid = sorted({*ts, *(1 - t for t in ts)})
    ops.append(("periodmap", [str(t) for t in grid]))
    ops.append(("catalog", 21))
    ops.append(("poles", off_integer(rng, 0.2, 5.8, gap=0.1), 12))
    ops.append(("ampgrid", *amplitude_grid(rng)))
    rng.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int, size: str, corpus=None) -> list:
    """The seeded op list of one run; a string seed hashes the same way in
    every process."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli_cold":
        return cli_ops(rng, corpus, size)
    build = {"finite_enum": finite_enum_ops, "exact_ring": exact_ring_ops, "analytic": analytic_ops}
    return build[workload](rng, size)


def warmup_ops(workload: str) -> list:
    """One op per kind at the smallest size, on primes no pass draws."""
    return {
        "cli_cold": [("cli", "warmup", ["gauss", "--p", "3", "--k1", "1"])],
        "finite_enum": [("count", 7, 1, 1), ("apjacobi", 5), ("gauss", 7, 1), ("count2", 7, 1, 1)],
        "exact_ring": [("correspond", 5, [2.5]), ("jacobi", 7, 1, 1), ("delta", 3, 2, 1, 2)],
        "analytic": [
            ("curves", [("-7", "6")]),
            ("periodmap", ["1/3", "2/3"]),
            ("catalog", 2),
            ("poles", 0.5, 0),
            ("ampgrid", [2.5], [2.5]),
        ],
    }[workload]


# ---------------------------------------------------------------------------
# Running one in-process op.  `pk` is the periodkit package.


def run_op(pk, op):
    kind = op[0]
    if kind == "count":
        _, p, a, b = op
        return pk.curve_counts.count_points(pk.curve_counts.WeierstrassCurveFp(p, a, b))
    if kind == "apjacobi":
        return pk.curve_counts.a_p_from_jacobi(op[1])
    if kind == "gauss":
        return pk.characters.gauss_sum(pk.characters.MultiplicativeCharacter(op[1], op[2]))
    if kind == "count2":
        _, p, a, b = op
        return pk.curve_counts.count_points_ext(pk.curve_counts.WeierstrassCurveFp(p, a, b), 2)
    if kind == "correspond":
        return pk.amplitudes.correspondence_table(op[1], op[2])
    if kind == "jacobi":
        _, p, k1, k2 = op
        mc = pk.characters.MultiplicativeCharacter
        j = pk.characters.jacobi_sum(mc(p, k1), mc(p, k2))
        return j, j.norm_to_int()
    if kind == "delta":
        _, p, n, x, y = op
        padic = pk.padic
        return padic.delta_rules_check(padic.PadicInt(p, n, x), padic.PadicInt(p, n, y))
    if kind == "curves":
        cp = pk.complex_periods
        out = []
        for a, b in op[1]:
            curve = cp.EllipticCurveQ(Fraction(a), Fraction(b))
            out.append((cp.periods_quadrature(curve), cp.periods_agm(curve), cp.curve_tau(curve)))
        return out
    if kind == "periodmap":
        return pk.complex_periods.period_map_legendre([Fraction(t) for t in op[1]])
    if kind == "catalog":
        return pk.complex_periods.numeric_periods_catalog(op[1])
    if kind == "poles":
        return pk.amplitudes.pole_scan(op[1], op[2])
    if kind == "ampgrid":
        amp = pk.amplitudes
        out = []
        for s in op[1]:
            for t in op[2]:
                v = amp.veneziano(amp.MandelstamInput(s12=s, s34=t))
                out.append((v.value, v.at_pole, amp.beta_fn(s - 1.0, t - 1.0)))
        return out
    raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# Oracles.  `check_pass` returns one bool per op; `corrupt` perturbs one
# expectation per workload so the harness self-test can see it fail.


def _close(x: complex, y: complex, rel: float) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


def _in_fundamental_domain(tau: complex) -> bool:
    return tau.imag > 0 and abs(tau.real) <= 0.5 + 1e-9 and abs(tau) >= 1 - 1e-9


def _apply(m, tau: complex) -> complex:
    (a, b), (c, d) = m
    return (a * tau + b) / (c * tau + d)


def check_op(op, out, ctx: dict, corrupt: bool) -> bool:
    kind = op[0]
    if kind == "count":
        _, p, a, b = op
        ok = out.n_points + out.a_p == p + 1 and out.a_p * out.a_p <= 4 * p  # Hasse
        if a == p - 1 and b == 0:
            ctx.setdefault("ap", {})[p] = out.a_p
        return ok
    if kind == "apjacobi":
        expected = ctx.get("ap", {}).get(op[1])
        if corrupt:
            expected = None if expected is None else expected + 2
        return expected is not None and out == expected
    if kind == "gauss":
        return abs(abs(out.value) ** 2 / op[1] - 1.0) < 1e-9
    if kind == "count2":
        _, p, a, b = op
        ap = enum_a_p(p, a, b)
        return out == p * p + 1 - (ap * ap - 2 * p)  # Weil: N_{p^2} from a_p
    if kind == "correspond":
        _, p, grid = op
        rows = out.local_rows
        expected_norm = p + 1 if corrupt else p
        ok = len(rows) == (p - 2) * (p - 3) and all(r.norm_ok and r.norm == expected_norm for r in rows)
        for r in random.Random(p).sample(rows, min(16, len(rows))):
            z = sum(c * cmath.exp(2j * cmath.pi * j / r.ring_order) for j, c in enumerate(r.coeffs))
            ok = ok and abs(abs(z) ** 2 - p) < 1e-6 * p
        if p % 4 == 1:
            ok = ok and out.a_p == enum_a_p(p, p - 1, 0)
        cells = [(s, t) for s in grid for t in grid]
        ok = ok and len(out.global_rows) == len(cells)
        for row, (s, t) in zip(out.global_rows, cells):
            expected = math.gamma(s - 1) * math.gamma(t - 1) / math.gamma(s + t - 2)
            ok = ok and not row.at_pole and _close(row.value, expected, 1e-10)
        return ok
    if kind == "jacobi":
        _, p, k1, k2 = op
        j, norm = out
        z = sum(c * cmath.exp(2j * cmath.pi * e / j.m) for e, c in enumerate(j.coeffs))
        return norm == p and abs(abs(z) ** 2 - p) < 1e-6 * p
    if kind == "delta":
        _, p, n, x, y = op
        mod, mod1 = p**n, p ** (n - 1)

        def delta(v):
            return ((v - pow(v, p, mod)) % mod // p) % mod1

        cocycle = ((pow(x, p, mod) + pow(y, p, mod) - pow(x + y, p, mod)) % mod // p) % mod1
        return (
            out.sum_rule_ok
            and out.product_rule_ok
            and out.delta_x.value == delta(x % mod)
            and out.delta_y.value == delta(y % mod)
            and out.cocycle % mod1 == cocycle
        )
    if kind == "curves":
        ok = len(out) == len(op[1])
        for (a, b), (quad, agm, tau) in zip(op[1], out):
            ok = ok and _close(quad.omega1, agm.omega1, 1e-9) and _close(quad.omega2, agm.omega2, 1e-9)
            ok = ok and _in_fundamental_domain(tau.tau)
            ok = ok and _close(_apply(tau.transform, quad.omega2 / quad.omega1), tau.tau, 1e-8)
            if (a, b) == ("-1", "0"):
                ok = ok and abs(tau.tau - (2j if corrupt else 1j)) < 1e-9
        return ok
    if kind == "periodmap":
        by_t = {t: point.tau for t, point in out}
        ts = [Fraction(t) for t in op[1]]
        ok = [t for t, _ in out] == sorted(ts) and all(_in_fundamental_domain(v) for v in by_t.values())
        for t in ts:
            # lambda and 1 - lambda give the same j-invariant, hence the same tau.
            ok = ok and abs(by_t[t] - by_t[1 - t]) < 1e-8
        return ok
    if kind == "catalog":
        expected = [math.pi, 2 * math.pi] + [math.log(n) for n in range(2, op[1] + 1)]
        values = [e.value for e in out]
        return len(values) == len(expected) and all(_close(v, e, 1e-10) for v, e in zip(values, expected))
    if kind == "poles":
        _, beta, n_max = op
        ok = [n for n, _ in out] == list(range(n_max + 1))
        for n, res in out:
            closed = (-1.0) ** n / math.factorial(n) * math.prod(beta - j for j in range(1, n + 1))
            ok = ok and abs(res - closed) <= 1e-6 * max(1.0, abs(closed))
        return ok
    if kind == "ampgrid":
        ok = len(out) == len(op[1]) * len(op[2])
        cells = [(s, t) for s in op[1] for t in op[2]]
        for (value, at_pole, beta), (s, t) in zip(out, cells):
            expected = math.gamma(s - 1) * math.gamma(t - 1) / math.gamma(s + t - 2)
            ok = ok and not at_pole and _close(value, expected, 1e-9) and _close(beta, expected, 1e-9)
        return ok
    raise ValueError(f"unknown op kind {kind!r}")


def check_pass(ops: list, outputs: list, corrupt: bool = False) -> list[bool]:
    """One verdict per op; an op whose output is an exception fails.

    Point counts run first so the a_p they find is available to the
    Jacobi-sum route, whatever order the pass ran in.
    """
    ctx: dict = {}
    verdicts = [False] * len(ops)
    order = sorted(range(len(ops)), key=lambda i: ops[i][0] != "count")
    for i in order:
        out = outputs[i]
        if isinstance(out, BaseException):
            continue
        try:
            verdicts[i] = bool(check_op(ops[i], out, ctx, corrupt))
        except Exception:
            verdicts[i] = False
    return verdicts
