"""The library's contract over every public name and operator: whatever a
caller passes by position, a call ends in a value or a PeriodkitError, within
a bounded time and a bounded address space."""

import contextlib
import inspect
import math
import operator
import os
import pathlib
import signal
import traceback
import typing
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import periodkit
from periodkit import (
    CountResult,
    CyclotomicNumber,
    EllipticCurveQ,
    MandelstamInput,
    MultiplicativeCharacter,
    PadicInt,
    PeriodLattice,
    PrimeFieldElem,
    WeierstrassCurveFp,
)
from periodkit._frozen import Frozen
from periodkit.errors import InvalidInput, PeriodkitError, shown

try:
    import resource
except ImportError:  # not on every platform
    resource = None

HUGE = 10**400  # an int past the doubles
SECONDS = 2.0  # per call: every refusal and every answer drawn here takes milliseconds
HEADROOM = 1 << 30  # bytes of address space a call may add to the process's
LIMITED = hasattr(resource, "RLIMIT_AS") and pathlib.Path("/proc/self/statm").is_file()
EXAMPLES = 100  # per name

# The values drawn for a parameter, by its annotation: the edges of its kind,
# among them the ring order 38038 = 2 * 7 * 11 * 13 * 19, whose finish runs
# over 16 binomials and is answered, with a list of 19019 ones, its x^(38038/2) fold.
INTS = [0, 1, -1, 2, 7, 13, 38038, 2**31 - 1, HUGE, True]
REALS = [0.5, -2.5, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, HUGE, Fraction(1, 3), True, numpy.True_, Decimal("2.5"), Decimal("NaN")]
SEQUENCES = [[0.5, 2], (Fraction(1, 3),), [], [1] * 19019, [math.nan], [HUGE]]
# A lattice is a plain record, whose constructor takes any field values; these
# generators are no complex numbers within the doubles.  The array sits in
# omega2 behind an omega1 no other lattice has, so == between two drawn
# lattices never reads it as a truth value.
MALFORMED_LATTICES = [PeriodLattice(None, "x", "agm"), PeriodLattice(3 + 0j, numpy.array([1j, 2j]), "agm"),
                      PeriodLattice(Fraction(HUGE), 1j, "agm"), PeriodLattice(True, 1j, "agm")]
KINDS = {
    int: INTS,
    int | None: [*INTS, None],
    float: REALS,
    Fraction: REALS,
    inspect.Parameter.empty: REALS,  # the rationals of EllipticCurveQ
    bool: [True, False],
    str: ["phi1", "phi2", "agm"],
    Sequence: SEQUENCES,
    CyclotomicNumber: [CyclotomicNumber(4, [HUGE, 1]), CyclotomicNumber(30030, [1, 2])],
    EllipticCurveQ: [EllipticCurveQ(-1, 0), EllipticCurveQ(0, 1), EllipticCurveQ(Fraction(-1, 10**9), 0)],
    MandelstamInput: [MandelstamInput(0.5, 1.5), MandelstamInput(-1.0, 2.0), MandelstamInput(1e300, 1e300)],
    MultiplicativeCharacter: [MultiplicativeCharacter(13, 1), MultiplicativeCharacter(13, 0), MultiplicativeCharacter(7, 1)],
    PadicInt: [PadicInt(5, 3, 7), PadicInt(5, 3, 5), PadicInt(2, 1, 1)],
    PeriodLattice: [PeriodLattice(2 + 0j, 1j, "agm"), PeriodLattice(1 + 0j, 2 + 0j, "agm"), *MALFORMED_LATTICES],
    PrimeFieldElem: [PrimeFieldElem(13, 2), PrimeFieldElem(13, 0), PrimeFieldElem(7, 3)],
    WeierstrassCurveFp: [WeierstrassCurveFp(7, 1, 1), WeierstrassCurveFp(13, 2, 3)],
}
# A value of no kind above: each parameter draws these too.
FOREIGN = [None, CountResult(8, 0)]
# A record that only stores its fields takes any value, so a few stand for all.
FIELD_VALUES = [0, 0.5, None, "x", HUGE]
# A one-argument name can afford every value; a name of several draws each
# argument from its kind and FOREIGN, so that hypothesis tries every pair of
# CyclotomicNumber and every triple of gauss_jacobi_relation_check.
EVERY_VALUE = list({id(v): v for values in KINDS.values() for v in [*values, *FOREIGN]}.values())

NAMES = [name for name in periodkit.__all__ if callable(getattr(periodkit, name))]


def parameters(fn) -> tuple[list[list], int]:
    """The value list of each positional parameter of fn, and how many are required."""
    if isinstance(fn, type) and issubclass(fn, Frozen) and "__new__" not in vars(fn):
        return [FIELD_VALUES] * len(fn._fields), len(fn._fields)
    params = list(inspect.signature(fn).parameters.values())
    required = sum(p.default is inspect.Parameter.empty for p in params)
    kinds = [KINDS.get(p.annotation) or KINDS[typing.get_origin(p.annotation)] for p in params]
    if len(params) == 1:
        return [EVERY_VALUE], required
    return [[*values, *FOREIGN] for values in kinds], required


class Overran(Exception):
    """A call ran past its SECONDS."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise Overran in this process once seconds of wall time have passed;
    the previous SIGALRM handler and timer are restored afterwards."""

    def overran(signum, frame):
        raise Overran(f"still running after {seconds} s")

    handler = signal.signal(signal.SIGALRM, overran)
    timer = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        if timer[0]:
            signal.setitimer(signal.ITIMER_REAL, *timer)


def address_space() -> int:
    """This process's address-space size in bytes."""
    return int(pathlib.Path("/proc/self/statm").read_text().split()[0]) * os.sysconf("SC_PAGE_SIZE")


@contextlib.contextmanager
def memory_limit():
    """A soft RLIMIT_AS of the address space now plus HEADROOM on this process,
    so that an allocation past it raises MemoryError instead of filling the
    machine; the previous limit is restored afterwards.  Nothing where
    resource has no RLIMIT_AS or the address space cannot be read."""
    if not LIMITED:
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = address_space() + HEADROOM
    if soft != resource.RLIM_INFINITY:
        limit = min(limit, soft)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.skipif(not LIMITED, reason="no RLIMIT_AS or no /proc/self/statm here")
def test_the_memory_limit_bites_and_is_restored():
    before, limits = address_space(), resource.getrlimit(resource.RLIMIT_AS)
    with memory_limit():
        assert resource.getrlimit(resource.RLIMIT_AS)[0] <= before + HEADROOM
        with pytest.raises(MemoryError):
            bytearray(2 << 30)
        assert address_space() - before < HEADROOM  # the 2 GiB were never mapped
    assert resource.getrlimit(resource.RLIMIT_AS) == limits


def calls(values: list[list], required: int) -> int:
    """How many distinct calls the value lists of `parameters` allow."""
    return sum(math.prod(map(len, values[:count])) for count in range(required, len(values) + 1))


def test_every_public_callable_is_drawn():
    # Hypothesis never repeats a call, so a name must allow at least 20, and
    # the names that hold the ring's known edges must allow no more than it draws.
    assert len(NAMES) == len(periodkit.__all__) - 1  # all but __version__
    for name in NAMES:
        assert calls(*parameters(getattr(periodkit, name))) >= 20, name
    for name in ("CyclotomicNumber", "gauss_jacobi_relation_check"):
        assert calls(*parameters(getattr(periodkit, name))) <= EXAMPLES, name


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_every_public_name_answers_or_refuses_in_bounded_time(name, data):
    # A call by position with a drawn count of arguments meets no keyword rule
    # and applies no operator to the caller's values, so the TypeErrors that a
    # record's keyword construction and an operator on a foreign type may raise
    # cannot arise: only a PeriodkitError may escape.
    fn = getattr(periodkit, name)
    values, required = parameters(fn)
    count = data.draw(st.integers(required, len(values)))
    args = [data.draw(st.sampled_from(pool)) for pool in values[:count]]
    try:
        with deadline(SECONDS), memory_limit():
            fn(*args)
    except PeriodkitError:
        pass


def test_every_malformed_lattice_is_refused_naming_it():
    for lattice in MALFORMED_LATTICES:
        with pytest.raises(InvalidInput) as info:
            periodkit.tau_normalize(lattice)
        assert info.value.arg == "lattice"


# Every pair of drawn values with a periodkit value on at least one side.
OURS = {id(v) for v in EVERY_VALUE if type(v).__module__.startswith("periodkit.")}
PAIRS = [(a, b) for a in EVERY_VALUE for b in EVERY_VALUE if id(a) in OURS or id(b) in OURS]
OPERATORS = [operator.add, operator.sub, operator.mul, operator.truediv, operator.pow, operator.eq, operator.lt]
LIBRARY = pathlib.Path(periodkit.__file__).parent


@pytest.mark.parametrize("op", OPERATORS, ids=[op.__name__ for op in OPERATORS])
def test_every_operator_on_a_periodkit_value_answers_or_refuses(op):
    # Besides a PeriodkitError, only a TypeError may escape: CPython's, for an
    # operator the operands do not define (raised outside periodkit's code, as
    # by Fraction's own **), or a record's refusal of ordering, + and *.
    assert len(PAIRS) > 1000
    for a, b in PAIRS:
        try:
            with deadline(SECONDS), memory_limit():
                op(a, b)
        except PeriodkitError:
            pass
        except TypeError as exc:
            *_, (frame, _) = traceback.walk_tb(exc.__traceback__)
            code = frame.f_code
            assert code is Frozen._refused.__code__ or LIBRARY not in pathlib.Path(code.co_filename).parents, (
                op.__name__, shown(a), shown(b), exc)
