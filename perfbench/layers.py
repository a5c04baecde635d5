"""Per-layer tracing from outside the package.

The tracer replaces each listed public function of periodkit, in every
module namespace that binds it, with a wrapper that records a span
(name, start, end, parent).  Nested calls therefore get their own spans:
`amplitudes.jacobi_sum` is the same object as `characters.jacobi_sum` and
is wrapped in both places.  Spans stay in memory until the run ends and are
aggregated into calls, busy time and self time per function.

A few boundaries only count, because a span per call would cost more than
the work it measures: CyclotomicNumber constructions (the reductions),
gamma_fn calls and the integrand evaluations made through
scipy.integrate.quad.  Work counts computed from arguments (elements
enumerated, multiply-adds of a reduction, bits of the cocycle power) are
recorded at the same boundaries.

The tracer only wraps modules that are already imported when it is
installed, so it never changes what the program imports.
"""

from __future__ import annotations

import functools
import re
import sys
import time

from workloads import totient

# (module, function) pairs that get a span per call.  Methods are "Class.method".
SPANNED = {
    "finite_field": ("is_prime",),
    "cyclotomic": ("cyclotomic_polynomial", "CyclotomicNumber.norm_to_int"),
    "characters": ("gauss_sum", "jacobi_sum", "gauss_jacobi_relation_check"),
    "curve_counts": ("count_points", "count_points_ext", "zeta_data", "a_p_from_jacobi"),
    "complex_periods": (
        "periods_quadrature",
        "periods_agm",
        "curve_tau",
        "tau_normalize",
        "period_map_legendre",
        "numeric_periods_catalog",
    ),
    "amplitudes": ("correspondence_table", "pole_scan", "veneziano", "beta_fn"),
    "padic": ("delta_rules_check", "delta_p", "cp_cocycle"),
    "cli": ("main",),
}
LAYERS = ("import",) + tuple(SPANNED)

# lru caches whose hit ratio is reported: metric name -> (module, attribute).
CACHES = {
    "curve_counts.square_cache.hit_ratio": ("curve_counts", "_square_counts"),
    "characters.dlog_cache.hit_ratio": ("characters", "_dlog_table"),
}


class Tracer:
    """Spans and counters for one process; install() and uninstall() patch
    and restore the package's namespaces."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._phi: dict[int, int] = {}

    # -- recording ---------------------------------------------------------

    def _add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _span(self, name: str, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                work(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()

        return traced

    def _counted(self, fn, work):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            work(*args, **kwargs)
            return fn(*args, **kwargs)

        return counted

    # -- work counts computed from arguments -------------------------------

    def _count_elems(self, curve, n=1):
        self._add("curve_counts.elems", curve.p**n)

    def _count_cocycle_bits(self, p, x, y):
        self._add("padic.cp_cocycle.bits", p * int(x).bit_length())

    def _count_reduction(self, obj, m, coeffs):
        phi = self._phi.get(m)
        if phi is None:
            phi = self._phi[m] = totient(m)
        self._add("cyclotomic.reductions")
        self._add("cyclotomic.reduction_madds", max(0, len(coeffs) - phi) * (phi + 1))

    def _count_gamma(self, x):
        self._add("amplitudes.gamma_fn.calls")

    def _wrap_quad(self, quad):
        add = self._add

        @functools.wraps(quad)
        def counted_quad(f, *args, **kwargs):
            def integrand(*xs):
                add("complex_periods.quad_evals")
                return f(*xs)

            return quad(integrand, *args, **kwargs)

        return counted_quad

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> None:
        """Replace original in every loaded periodkit namespace that binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "periodkit" or mod_name.startswith("periodkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self) -> None:
        work = {
            "curve_counts.count_points": self._count_elems,
            "curve_counts.count_points_ext": self._count_elems,
            "padic.cp_cocycle": self._count_cocycle_bits,
        }
        for module, names in SPANNED.items():
            mod = sys.modules.get(f"periodkit.{module}")
            if mod is None:
                continue
            for name in names:
                key = f"{module}.{name.split('.')[-1]}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name, None)
                    if cls is not None and meth in vars(cls):
                        self._set(cls, meth, self._span(key, vars(cls)[meth]))
                elif hasattr(mod, name):
                    original = getattr(mod, name)
                    self._rebind(original, self._span(key, original, work.get(key)))
        cyclo = sys.modules.get("periodkit.cyclotomic")
        if cyclo is not None and hasattr(cyclo, "CyclotomicNumber"):
            cls = cyclo.CyclotomicNumber
            self._set(cls, "__init__", self._counted(cls.__init__, self._count_reduction))
        amp = sys.modules.get("periodkit.amplitudes")
        if amp is not None and hasattr(amp, "gamma_fn"):
            self._rebind(amp.gamma_fn, self._counted(amp.gamma_fn, self._count_gamma))
        integrate = sys.modules.get("scipy.integrate")
        if integrate is not None:
            self._set(integrate, "quad", self._wrap_quad(integrate.quad))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def export(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


# ---------------------------------------------------------------------------
# Aggregation


def aggregate(spans: list) -> dict:
    """calls, busy_s and self_s per span name.

    busy_s counts the outermost span of each name, so recursion is not
    counted twice; self_s is a span's duration minus its children's.
    """
    out: dict[str, dict] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            rec["busy_s"] += end - start
    return out


_IMPORT_LINE = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")
IMPORT_PACKAGES = {"import.periodkit_s": "periodkit", "import.scipy_integrate_s": "scipy.integrate"}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing each package of interest, from the output of
    `python -X importtime`.

    A package imported through importlib (scipy loads its submodules that
    way) has no line of its own, only lines for what it imports.  So the
    time of a package is the sum of the cumulative times of its outermost
    lines: those of the package or its submodules that are not nested in
    another such line.  A line is nested in the first later line with less
    indentation.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(2)), m.group(3), int(m.group(1)) / 1e6))
    out = {}
    for metric, package in IMPORT_PACKAGES.items():

        def inside(name):
            return name == package or name.startswith(package + ".")

        total = 0.0
        for i, (indent, name, cumulative) in enumerate(entries):
            if not inside(name):
                continue
            enclosing = next((n for ind, n, _ in entries[i + 1 :] if ind < indent), None)
            if enclosing is None or not inside(enclosing):
                total += cumulative
        out[metric] = total
    return out


def cache_ratios(pk) -> dict[str, float]:
    """hits / lookups of each reported lru cache since it was last cleared;
    0 when the cache was never consulted or no longer exists."""
    out = {}
    for metric, (module, attr) in CACHES.items():
        fn = getattr(getattr(pk, module, None), attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        lookups = info.hits + info.misses if info else 0
        out[metric] = info.hits / lookups if lookups else 0.0
    return out


def clear_caches() -> None:
    """Empty every functools cache held by a loaded periodkit module."""
    seen = set()
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "periodkit" or mod_name.startswith("periodkit.")):
            continue
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and id(value) not in seen:
                seen.add(id(value))
                clear()


def layer_metrics(spans: list, counts: dict) -> dict[str, float]:
    """Flat per-layer metrics for one traced pass (before per-pass medians)."""
    agg = aggregate(spans)
    out: dict[str, float] = {}
    for module, names in SPANNED.items():
        for name in names:
            key = f"{module}.{name.split('.')[-1]}"
            rec = agg.get(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            out[f"{key}.calls"] = rec["calls"]
            out[f"{key}.busy_s"] = rec["busy_s"]
            out[f"{key}.self_s"] = rec["self_s"]
    for key in (
        "cyclotomic.reductions",
        "cyclotomic.reduction_madds",
        "complex_periods.quad_evals",
        "amplitudes.gamma_fn.calls",
        "padic.cp_cocycle.bits",
    ):
        out[key] = counts.get(key, 0)
    enum_busy = out["curve_counts.count_points.busy_s"] + out["curve_counts.count_points_ext.busy_s"]
    elems = counts.get("curve_counts.elems", 0)
    out["curve_counts.elems_per_s"] = elems / enum_busy if enum_busy > 0 else 0.0
    out["trace.spans"] = len(spans)
    return out
