"""Gamma/Beta special functions, the four-point string amplitude in
Mandelstam variables, its pole/residue structure, and the side-by-side
report pairing it with Jacobi-sum data over F_p.

The amplitude A = Gamma(alpha)*Gamma(beta)/Gamma(alpha+beta) is evaluated
for real arguments only; poles are returned as tagged values so grids
render cleanly.  The report at the bottom is deliberately structural: each
side carries its own verified facts (exact norms locally, pole indices
globally) and the dictionary rows pair objects, not numbers.  Its local side
is computed per orbit of (Z/(p-1))^x and the six symmetries of J acting on
the character pairs: one Jacobi sum and one norm per orbit, the other rows as
images under sigma_a of that sum or of its negation, each row marked with
whether its own norm was computed.  The images of all orbits of one ring order
share one reduction per unit, on packed columns.
"""

import math
import operator
import sys
from collections.abc import Sequence

from ._frozen import Frozen, check_sequence
from .errors import FloatOverflow, InvalidInput, PoleAtNonpositiveInteger, check_int, check_real, check_record

POLE_SNAP = 1e-12


def _near_nonpositive_int(x: float) -> int | None:
    """n >= 0 such that x is within POLE_SNAP of -n, else None (also for x = +-inf)."""
    if math.isinf(x):
        return None
    n = round(x)
    if n <= 0 and abs(x - n) < POLE_SNAP:
        return -n
    return None


def _in_double_range(value: float, what: str) -> float:
    """value if it is a normal double; below that range its digits are inexact."""
    if not sys.float_info.min <= abs(value) < math.inf:
        raise FloatOverflow(f"{what} leaves the double range")
    return value


def gamma_fn(x: float) -> float:
    """Gamma via math.gamma; FloatOverflow once it leaves the double range
    (x above about 171.6, or below about -171 where it underflows)."""
    check_real("x", x)
    if _near_nonpositive_int(x) is not None:
        raise PoleAtNonpositiveInteger(f"Gamma has a pole at {x}")
    try:
        value = math.gamma(x)
    except OverflowError:
        value = math.inf
    return _in_double_range(value, f"Gamma({x})")


def beta_fn(alpha: float, beta: float) -> float:
    """B(alpha, beta) = Gamma(alpha)Gamma(beta)/Gamma(alpha+beta); FloatOverflow
    once one of the three Gammas or the ratio leaves the normal double range,
    so some B that are normal doubles, such as B(100, 100), are refused."""
    check_real("alpha", alpha)
    check_real("beta", beta)
    for name, v in (("alpha", alpha), ("beta", beta), ("alpha+beta", alpha + beta)):
        if _near_nonpositive_int(v) is not None:
            raise PoleAtNonpositiveInteger(f"{name} = {v} sits on a Gamma pole")
    ratio = gamma_fn(alpha) * gamma_fn(beta) / gamma_fn(alpha + beta)
    return _in_double_range(ratio, f"B({alpha}, {beta})")


class MandelstamInput(Frozen):
    """Squared momentum invariants of the in and out pairs, dimensionless."""

    __slots__ = ()
    _fields = ("s12", "s34")

    def __new__(cls, s12: float, s34: float):
        check_real("s12", s12)
        check_real("s34", s34)
        return tuple.__new__(cls, (s12, s34))

    @property
    def alpha(self) -> float:
        return -1.0 + self.s12

    @property
    def beta(self) -> float:
        return -1.0 + self.s34


class AmplitudeValue(Frozen):
    """Amplitude sample; at poles the value is a signed-infinity marker."""

    __slots__ = ()
    _fields = ("value", "at_pole", "pole_index")

    def __new__(cls, value: float, at_pole: bool, pole_index: int | None = None):
        return tuple.__new__(cls, (value, at_pole, pole_index))


def _residue_sign(n: int, beta: float) -> float:
    """Sign of the residue (-1)^n/n! * prod_{j=1..n} (beta - j) at alpha = -n:
    (-1)^k for the k factors with j < beta, counted in O(1) for any n."""
    k = min(n, max(0, math.ceil(beta) - 1))
    return -1.0 if k % 2 else 1.0


def _factorial_ratio(q: int, n: int) -> float:
    """q!/n! in O(|q - n|) steps; |q - n| stays small where Gamma has not overflowed."""
    return math.perm(q, q - n) if q >= n else 1 / math.perm(n, n - q)


def veneziano(m: MandelstamInput) -> AmplitudeValue:
    """Amplitude at (s12, s34); arguments within POLE_SNAP of a Gamma pole are
    snapped to it and reported as tagged pole values, not errors.  B is
    symmetric, so a pole of beta alone is handled as a pole of alpha."""
    check_record("m", m, MandelstamInput)
    alpha, beta = m.alpha, m.beta
    n_a = _near_nonpositive_int(alpha)
    n_b = _near_nonpositive_int(beta)
    if n_a is None and n_b is not None:
        alpha, beta, n_a, n_b = beta, alpha, n_b, None
    q = _near_nonpositive_int(alpha + beta)
    if q is not None:
        # Gamma(alpha+beta) is infinite: it either kills the amplitude or
        # cancels one numerator pole, leaving a finite ratio.
        if n_a is not None and n_b is not None:
            return AmplitudeValue(value=math.inf, at_pole=True, pole_index=n_a)
        if n_a is not None:
            limit = gamma_fn(beta) * (-1.0) ** (n_a - q) * _factorial_ratio(q, n_a)
            return AmplitudeValue(value=limit, at_pole=False)
        return AmplitudeValue(value=0.0, at_pole=False)
    if n_a is not None:
        # Sign of the divergence as alpha -> -n from above matches the residue.
        sign = _residue_sign(n_a, beta)
        return AmplitudeValue(value=sign * math.inf, at_pole=True, pole_index=n_a)
    return AmplitudeValue(value=beta_fn(alpha, beta), at_pole=False)


def pole_scan(beta_fixed: float, n_max: int) -> list[tuple[int, float]]:
    """Residues of A(alpha, beta) at alpha = 0, -1, ..., -n_max in closed form.

    Gamma(alpha) has residue (-1)^n/n! at alpha = -n, and there the Beta ratio
    leaves Gamma(beta)/Gamma(beta - n) = prod_{j=1..n} (beta - j).
    """
    check_int("n_max", n_max, lo=0, hi=12)
    check_real("beta_fixed", beta_fixed)
    if abs(beta_fixed - round(beta_fixed)) < 1e-9:
        raise InvalidInput("beta_fixed", f"beta must be off the integers, got {beta_fixed}")
    return [
        (n, (-1) ** n * math.prod(beta_fixed - j for j in range(1, n + 1)) / math.factorial(n))
        for n in range(n_max + 1)
    ]


class LocalRow(Frozen):
    """One exact Jacobi sum with its norm; norm_checked is False where the norm
    is inherited from the orbit representative, by Galois invariance and the
    symmetries J(k1, k2) = J(k2, k1) = (-1)^k1 J(k1, -k1 - k2)."""

    __slots__ = ()
    _fields = ("k1", "k2", "ring_order", "coeffs", "norm", "norm_ok", "norm_checked")


class GlobalRow(Frozen):
    __slots__ = ()
    _fields = ("s", "t", "value", "at_pole", "pole_index")


class CorrespondenceReport(Frozen):
    __slots__ = ()
    _fields = ("p", "a_p", "local_rows", "global_rows", "dictionary")


DICTIONARY_ROWS: tuple[tuple[str, str], ...] = (
    ("Gamma factor Gamma(alpha)", "Gauss sum g(c)"),
    ("Beta ratio Gamma(alpha)Gamma(beta)/Gamma(alpha+beta)", "Jacobi ratio g(c)g(c')/g(cc')"),
    ("argument sum alpha+beta", "character product c*c'"),
)


def correspondence_table(p: int, s_grid: Sequence[float]) -> CorrespondenceReport:
    """Two-column report: exact Jacobi-sum facts over F_p against amplitude
    samples on the grid square.  No cross-side equation is asserted.

    The local rows are the pairs (k1, k2) with c^k1, c^k2 and c^(k1+k2)
    nontrivial.  With k3 = -k1 - k2 mod p - 1, J(c^k1, c^k2) = J(c^k2, c^k1)
    and J(c^k1, c^k3) = c^k1(-1) J(c^k1, c^k2) = (-1)^k1 J(c^k1, c^k2), so each
    of the six orderings (x, y) of (k1, k2, k3) has J(c^x, c^y) = s*J, s = +-1.
    sigma_a sends J(c^x, c^y) to J(c^(a*x), c^(a*y)), is linear and fixes the
    rational norm, so the rows run per orbit of the units a mod p - 1 and the
    six orderings: the first pair of each orbit in row order has its sum and
    norm computed (norm_checked); every other pair (a*x, a*y) is s*sigma_a(J)
    and inherits the norm.  An orbit keeps its ring order
    n = lcm(order(c^k1), order(c^k2)) = (p - 1)/gcd(k1, k2, k3, p - 1), so the
    orders n | p - 1 run in ascending order, each order's pairs in row order,
    and the ring holds one order at a time.  The images of one order's
    representatives are taken together, one reduction per unit a mod n
    (`_galois_columns`) on packed columns.
    """
    # The finite side loads here, so the Gamma-ratio commands never import it.
    from .characters import MultiplicativeCharacter, jacobi_sum
    from .curve_counts import _primary_trace
    from .cyclotomic import _galois_columns
    from .finite_field import _check_prime

    _check_prime(p)
    if p > 97:
        raise InvalidInput("p", f"report is desk-scale only (p <= 97), got {p}")
    check_sequence("s_grid", s_grid)
    if len(s_grid) > 100:
        raise InvalidInput("s_grid", f"grid size capped at 100, got {len(s_grid)}")
    try:
        cells = [MandelstamInput(s12=s, s34=t) for s in s_grid for t in s_grid]
    except InvalidInput as exc:
        raise InvalidInput("s_grid", str(exc)) from None

    order = p - 1
    trivial = MultiplicativeCharacter(p, 0)
    chars = [trivial._with(k) for k in range(order)]  # each carries the one checked p
    # slot[k1*(p-1) + k2]: None until the orbit of (k1, k2) is met, then (representative, unit
    # index, 1 if the image is negated) until its ring order's images exist, then its row.
    slot = [None] * (order * order)
    for n in (n for n in range(3, order + 1) if order % n == 0):  # orders 1 and 2 hold no pair
        step = order // n
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        reps, members = [], []
        # The pairs of order n are (x*step, y*step) with gcd(x, y, n) = 1 and x + y != n, in row order.
        for x in range(1, n):
            gx = math.gcd(x, n)
            for y in range(1, n):
                if slot[k := (x * order + y) * step] is None and x + y != n and math.gcd(gx, y) == 1:
                    j = jacobi_sum(chars[x * step], chars[y * step])
                    norm = j.norm_to_int()
                    r = len(reps)
                    slot[k] = rep = LocalRow(x * step, y * step, n, j.coeffs, norm, norm == p, True)
                    reps.append(rep)
                    # The six orderings of (x, y, z = -x - y), each with 1 where its sum is -J.
                    z, odd1, odd2 = n - x - y, x * step % 2, y * step % 2
                    for u, v, odd in ((x, y, 0), (y, x, 0), (x, z, odd1), (z, x, odd1), (y, z, odd2), (z, y, odd2)):
                        for i, a in enumerate(units):
                            k = (a * u % n * order + a * v % n) * step
                            if slot[k] is None:
                                slot[k] = (r, i, odd)
                                members.append(k)
        images = [[rep.coeffs for rep in reps], *_galois_columns(n, [rep.coeffs for rep in reps], units[1:])]
        negated = [[None] * len(reps) for _ in images]  # no sum is 0, so a filled entry is truthy
        for k in members:
            r, i, odd = slot[k]
            rep, image = reps[r], images[i][r]
            if odd:
                image = negated[i][r] = negated[i][r] or tuple(map(operator.neg, image))
            slot[k] = LocalRow(k // order, k % order, n, image, rep.norm, rep.norm_ok, False)

    # An amplitude record is (value, at_pole, pole_index), the last three fields of its row.
    global_rows = tuple(GlobalRow(m.s12, m.s34, *veneziano(m)) for m in cells)

    # Row ((p-1)/4, (p-1)/2) holds J(chi_4, chi_2); at p = 3 mod 4 floor division names another row.
    ap = _primary_trace(p, *slot[order // 4 * order + order // 2].coeffs) if p % 4 == 1 else None
    return CorrespondenceReport(
        p=p,
        a_p=ap,
        local_rows=tuple(filter(None, slot)),  # the filled slots are the rows, in row order
        global_rows=global_rows,
        dictionary=DICTIONARY_ROWS,
    )
