"""The contract of the result records and value types: immutable tuples of
their fields with equality only within a class, a dataclass-style repr, and
their own rules."""

import collections
import copy
import gc
import inspect
import math
import operator
import pickle
import sys
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import periodkit
from periodkit import (
    AmplitudeValue,
    CountResult,
    CyclotomicNumber,
    EllipticCurveQ,
    GaussianSplit,
    GaussSumValue,
    MandelstamInput,
    MultiplicativeCharacter,
    PeriodLattice,
    PrimeFieldElem,
    TauPoint,
    WeierstrassCurveFp,
    ZetaData,
    a_p_from_jacobi,
    agm,
    beta_fn,
    char_eval,
    correspondence_table,
    count_points,
    count_points_ext,
    curve_tau,
    cyclotomic_polynomial,
    delta_p,
    delta_rules_check,
    find_primitive_root,
    frobenius_lift_check,
    gamma_fn,
    gauss_jacobi_relation_check,
    gauss_sum,
    is_prime,
    iso_gaussian_residue,
    jacobi_sum,
    legendre_curve,
    legendre_symbol,
    numeric_periods_catalog,
    period_map_legendre,
    periods_agm,
    periods_quadrature,
    pole_scan,
    quadratic_character,
    quartic_character,
    tau_normalize,
    teichmuller,
    veneziano,
    zeta_data,
)
from periodkit._frozen import Frozen
from periodkit.amplitudes import CorrespondenceReport, GlobalRow, LocalRow
from periodkit.complex_periods import CatalogEntry
from periodkit.cyclotomic import MAX_RING_ORDER
from periodkit.errors import (
    SHOWN_CAP,
    ComplexRoots,
    DivisionByZero,
    InsufficientPrecision,
    InvalidInput,
    MismatchedStructure,
    NonUnit,
    NotRationalInteger,
    PeriodkitError,
    SingularCurve,
    UnsupportedDegree,
    check_int,
    check_real,
    shown,
)
from periodkit.padic import DeltaRulesVerdict, FrobeniusLiftVerdict, PadicInt

LOCAL = {"k1": 1, "k2": 1, "ring_order": 4, "coeffs": (-1, -2), "norm": 5, "norm_ok": True, "norm_checked": True}
GLOBAL = {"s": 2.5, "t": 2.5, "value": 0.5, "at_pole": False, "pole_index": None}

# Each record with its fields in constructor order.
RECORDS = [
    (CountResult, {"n_points": 8, "a_p": 0}),
    (ZetaData, {"a_p": 2, "alpha": 1 + 2j, "beta": 1 - 2j}),
    (MultiplicativeCharacter, {"p": 7, "k": 2}),
    (GaussSumValue, {"value": 1.5 + 2j, "p": 7}),
    (PeriodLattice, {"omega1": 2.5 + 0j, "omega2": 1.5j, "method": "agm"}),
    (TauPoint, {"tau": 0.5 + 1j, "transform": ((0, -1), (1, 0))}),
    (
        CatalogEntry,
        {
            "name": "log 2",
            "value": 0.6931471805599453,
            "error_estimate": 1e-16,
            "variety": "punctured affine line, coordinate x != 0",
            "divisor": "{1, 2}",
            "form": "dx/x",
            "domain": "segment [1, 2]",
        },
    ),
    (MandelstamInput, {"s12": 0.5, "s34": 1.5}),
    (AmplitudeValue, {"value": -math.inf, "at_pole": True, "pole_index": 2}),
    (LocalRow, LOCAL),
    (GlobalRow, GLOBAL),
    (
        CorrespondenceReport,
        {
            "p": 5,
            "a_p": -2,
            "local_rows": (LocalRow(**LOCAL),),
            "global_rows": (GlobalRow(**GLOBAL),),
            "dictionary": (("Gamma factor Gamma(alpha)", "Gauss sum g(c)"),),
        },
    ),
    (GaussianSplit, {"u": PrimeFieldElem(5, 2), "a": 2, "b": 1}),
    (
        FrobeniusLiftVerdict,
        {"variant": "phi2", "phi": PadicInt(5, 3, 7), "reduces_to_frobenius": True, "delta_component": PadicInt(5, 2, 3)},
    ),
    (
        DeltaRulesVerdict,
        {
            "sum_rule_ok": True,
            "product_rule_ok": True,
            "delta_x": PadicInt(5, 2, 4),
            "delta_y": PadicInt(5, 2, 9),
            "cocycle": 11,
        },
    ),
]
RECORD_IDS = [cls.__name__ for cls, _ in RECORDS]


def test_every_record_is_listed():
    assert len(RECORDS) == len(set(RECORD_IDS)) == 15


@pytest.mark.parametrize("cls,fields", RECORDS, ids=RECORD_IDS)
def test_positional_and_keyword_construction_agree(cls, fields):
    positional = cls(*fields.values())
    keyword = cls(**fields)
    assert positional == keyword
    assert hash(positional) == hash(keyword)
    for name, value in fields.items():
        assert getattr(positional, name) == value


def test_inherited_constructor_binds_fields_by_position_and_keyword():
    # LocalRow's body defines no constructor: the one it takes from the
    # namedtuple of its fields has one parameter per field, in field order.
    assert list(inspect.signature(LocalRow).parameters) == list(LocalRow._fields)
    assert "__init__" not in vars(LocalRow)
    values = list(LOCAL.values())
    whole = LocalRow(*values)
    assert LocalRow(*values[:3], **dict(list(LOCAL.items())[3:])) == whole
    assert LocalRow(*values[:6], norm_checked=True) == whole


@pytest.mark.parametrize(
    "args,kwargs,kind,fields",
    [
        ((1, 1, 4, (-1, -2), 5, True), {}, "missing 1 required positional argument", ["norm_checked"]),
        ((1, 1, 4, (-1, -2), 5, True, True, 0), {}, "positional arguments but 9 were given", []),
        ((), {k: v for k, v in LOCAL.items() if k != "norm"}, "missing 1 required positional argument", ["norm"]),
        ((), dict(LOCAL, extra=0), "unexpected keyword argument", ["extra"]),
        ((1,), LOCAL, "multiple values for argument", ["k1"]),
        ((), {}, "missing 7 required positional arguments", list(LOCAL)),
    ],
    ids=["too-few", "too-many", "missing-keyword", "unknown-keyword", "position-and-keyword", "none"],
)
def test_inherited_constructor_rejects_a_wrong_field_set(args, kwargs, kind, fields):
    # The constructor LocalRow takes from its namedtuple is a plain Python
    # signature: Python's own messages, which name the class and each field at fault.
    with pytest.raises(TypeError) as info:
        LocalRow(*args, **kwargs)
    message = str(info.value)
    assert message.startswith("LocalRow.") and kind in message, message
    assert all(f"'{field}'" in message for field in fields), message


@pytest.mark.parametrize("cls,fields", RECORDS, ids=RECORD_IDS)
def test_records_are_immutable_slots(cls, fields):
    record = cls(**fields)
    assert not hasattr(record, "__dict__")
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**fields)


@pytest.mark.parametrize("cls,fields", RECORDS, ids=RECORD_IDS)
def test_repr_lists_fields_in_order(cls, fields):
    expected = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({expected})"


@pytest.mark.parametrize("cls,fields", RECORDS, ids=RECORD_IDS)
def test_equality_needs_same_class_and_fields(cls, fields):
    record = cls(**fields)
    assert record != tuple(fields.values())
    *_, last = fields
    value = fields[last]
    number = isinstance(value, (int, float, complex)) and not isinstance(value, bool)
    changed = dict(fields, **{last: (2 if value == 1 else 1) if number else "other"})
    assert cls(**changed) != record


@pytest.mark.parametrize("cls,fields", RECORDS, ids=RECORD_IDS)
def test_records_pickle(cls, fields):
    record = cls(**fields)
    assert pickle.loads(pickle.dumps(record)) == record


# The record contract on the tuple base, for every record and value type.
EVERY_RECORD = RECORDS + [
    (PrimeFieldElem, {"p": 7, "value": 3}),
    (CyclotomicNumber, {"m": 4, "coeffs": (1, 2)}),
    (PadicInt, {"p": 5, "precision": 3, "value": 7}),
    (EllipticCurveQ, {"a": Fraction(-1), "b": Fraction(0)}),
    (WeierstrassCurveFp, {"p": 7, "a": 1, "b": 1}),
]
EVERY_ID = [cls.__name__ for cls, _ in EVERY_RECORD]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _library_records():
    return {cls for cls in _subclasses(Frozen) if cls.__module__.startswith("periodkit.")}


def test_every_record_type_is_in_the_contract_table():
    # RingElement and Residue are bases with no fields of their own.
    records = _library_records()
    assert records - {cls for cls, _ in EVERY_RECORD} == {periodkit._frozen.RingElement, periodkit._frozen.Residue}
    for cls in records:
        assert cls.__dictoffset__ == 0, cls  # __slots__ = (), so no instance dict


def test_no_record_takes_the_other_methods_of_its_namedtuple():
    # A record takes only its getters, constructor, repr and pickling from the
    # namedtuple of its fields; as a subclass of it, it would also get _make and
    # _replace, which build the tuple without running a validating __new__.
    getter = type(collections.namedtuple("Probe", "x").x)
    for cls in _library_records():
        for name in ("_make", "_replace", "_asdict", "_field_defaults"):
            assert not hasattr(cls, name), (cls, name)
        if "_fields" in vars(cls):
            assert all(type(vars(cls)[name]) is getter for name in cls._fields), cls


def test_a_subclass_that_declares_no_fields_keeps_what_it_inherits():
    # Only a class that declares _fields gets a constructor and a repr from its
    # namedtuple; a subclass with none keeps its parent's validation and repr.
    class Element(PrimeFieldElem):
        __slots__ = ()

    class Curve(EllipticCurveQ):
        __slots__ = ()

    with pytest.raises(InvalidInput) as exc:
        Element(4, 1)
    assert exc.value.arg == "p"
    assert Element(7, 10) == Element(7, 3) and type(Element(7, 3)) is Element
    assert repr(Curve(-1, 0)) == repr(EllipticCurveQ(-1, 0)) == "EllipticCurveQ(a=-1, b=0)"
    assert copy.copy(Curve(-1, 0)) == Curve(-1, 0)


def test_a_record_class_is_whole_whenever_the_collector_runs(monkeypatch):
    # The collector empties the dict of a class it frees.  A full collection
    # before each attribute Frozen sets on a new record must not free the
    # namedtuple it is still reading.
    monkeypatch.setattr(periodkit._frozen, "setattr", lambda *args: (gc.collect(), setattr(*args)), raising=False)

    class Pair(Frozen):
        __slots__ = ()
        _fields = ("x", "y")

    assert Pair(1, y=2).y == 2 and repr(Pair(1, 2)) == "Pair(x=1, y=2)"


@pytest.mark.parametrize("cls,fields", EVERY_RECORD, ids=EVERY_ID)
def test_a_record_is_no_plain_tuple(cls, fields):
    record = cls(**fields)
    values = tuple(fields.values())
    assert tuple(record) == values
    assert record != values and values != record
    assert not record == values and not values == record
    assert values not in {record} and record not in {values}
    assert {record: 1}.get(values) is None


@pytest.mark.parametrize("cls,fields", EVERY_RECORD, ids=EVERY_ID)
def test_numpy_reads_no_record_as_an_array(cls, fields):
    # numpy once read a record as the array of its fields, so that
    # PrimeFieldElem(7, 3) + numpy.True_ was array([8, 4]); it now defers to
    # the record's own operators, which refuse a numpy scalar or array.
    record = cls(**fields)
    for other in (numpy.True_, numpy.float64(2.5), numpy.int64(3), numpy.array([1, 2])):
        for op in (operator.add, operator.sub, operator.mul, operator.lt):
            for a, b in ((record, other), (other, record)):
                with pytest.raises(TypeError):
                    op(a, b)
        assert (record == other) is False and (other == record) is False


def test_equality_needs_the_same_class_even_for_equal_fields():
    # Two classes whose tuples are equal: the records differ, and may share a hash.
    count, gauss = CountResult(8, 0), GaussSumValue(8, 0)
    assert tuple(count) == tuple(gauss)
    assert count != gauss and gauss != count and not count == gauss
    assert len({count, gauss}) == 2


@pytest.mark.parametrize("cls,fields", EVERY_RECORD, ids=EVERY_ID)
def test_hash_agrees_with_equality(cls, fields):
    record, twin = cls(**fields), cls(*fields.values())
    assert record == twin and record is not twin
    assert hash(record) == hash(twin)
    assert len({record, twin}) == 1 and {record: 1}[twin] == 1


@pytest.mark.parametrize("cls,fields", EVERY_RECORD, ids=EVERY_ID)
def test_pickling_round_trips_through_the_class_constructor(cls, fields):
    record = cls(**fields)
    # Protocols 2 and up rebuild with cls.__new__(cls, *fields), so a
    # validating type checks its values again.
    assert record.__getnewargs__() == tuple(record)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(record, protocol))
        assert type(loaded) is cls and loaded == record, protocol
    assert copy.copy(record) == record and copy.deepcopy(record) == record


def test_unpickling_runs_the_validating_constructor(monkeypatch):
    element = PrimeFieldElem(7, 3)
    data = pickle.dumps(element)
    calls = []
    new = PrimeFieldElem.__new__
    monkeypatch.setattr(PrimeFieldElem, "__new__", lambda cls, *args: calls.append(args) or new(cls, *args))
    assert pickle.loads(data) == element
    assert calls == [(7, 3)]


@pytest.mark.parametrize(
    "build,want",
    [
        (lambda: PrimeFieldElem(p=7, value=10), PrimeFieldElem(7, 3)),
        (lambda: PadicInt(5, precision=2, value=26), PadicInt(5, 2, 1)),
        (lambda: CyclotomicNumber(m=4, coeffs=[1, 2, 3]), CyclotomicNumber(4, [-2, 2])),
        (lambda: MultiplicativeCharacter(k=8, p=7), MultiplicativeCharacter(7, 2)),
        (lambda: EllipticCurveQ(b=0, a=-1), EllipticCurveQ(-1, 0)),
        (lambda: WeierstrassCurveFp(7, b=8, a=1), WeierstrassCurveFp(7, 1, 1)),
        (lambda: MandelstamInput(s34=1.5, s12=0.5), MandelstamInput(0.5, 1.5)),
        (lambda: AmplitudeValue(value=1.0, at_pole=False), AmplitudeValue(1.0, False, None)),
    ],
    ids=["field", "padic", "cyclotomic", "character", "curve-q", "curve-fp", "mandelstam", "amplitude"],
)
def test_validating_types_take_keywords(build, want):
    assert build() == want


def test_validating_types_refuse_a_wrong_field_set():
    # A validating __new__ is a plain Python signature: Python's own messages,
    # which name the class and each field at fault.
    cases = [
        (PrimeFieldElem, (7,), {}, "missing 1 required positional argument", ["value"]),
        (PrimeFieldElem, (7,), {"modulus": 3}, "unexpected keyword argument", ["modulus"]),
        (PadicInt, (5, 2, 1), {"p": 5}, "multiple values for argument", ["p"]),
    ]
    for cls, args, kwargs, kind, fields in cases:
        with pytest.raises(TypeError) as info:
            cls(*args, **kwargs)
        message = str(info.value)
        assert message.startswith(f"{cls.__name__}.") and kind in message, message
        assert all(f"'{field}'" in message for field in fields), message


@pytest.mark.parametrize("cls,fields", EVERY_RECORD, ids=EVERY_ID)
def test_a_record_reads_as_the_tuple_of_its_fields(cls, fields):
    record = cls(**fields)
    assert cls._fields == tuple(fields)
    assert len(record) == len(fields)
    assert list(record) == list(fields.values())
    assert [record[i] for i in range(len(fields))] == list(fields.values())
    assert record[-1] == getattr(record, cls._fields[-1])
    first, *rest = record
    assert (first, *rest) == tuple(fields.values())


@pytest.mark.parametrize("cls,fields", EVERY_RECORD, ids=EVERY_ID)
def test_records_refuse_order(cls, fields):
    record = cls(**fields)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        for a, b in ((record, record), (record, tuple(record)), (tuple(record), record)):
            with pytest.raises(TypeError, match=f"{cls.__name__} is a record: it is not ordered"):
                compare(a, b)
    with pytest.raises(TypeError):
        sorted([record, record])


@pytest.mark.parametrize("cls,fields", RECORDS, ids=RECORD_IDS)
def test_records_refuse_the_tuple_arithmetic(cls, fields):
    record = cls(**fields)
    message = f"{cls.__name__} is a record: it is not ordered, joined or repeated"
    for a, b in ((record, record), (record, ()), ((), record)):
        with pytest.raises(TypeError, match=message):
            a + b
    if cls is not MultiplicativeCharacter:  # whose * is the product of characters
        with pytest.raises(TypeError, match=message):
            record * 2
    with pytest.raises(TypeError, match=message):
        2 * record


def test_ring_types_keep_their_own_plus_and_times():
    z, e = CyclotomicNumber(4, [1, 2]), PrimeFieldElem(7, 3)
    assert z + z == 2 * z == z * 2 == CyclotomicNumber(4, [2, 4])
    assert e + 1 == PrimeFieldElem(7, 4) and 2 * e == PrimeFieldElem(7, 6)
    for bad in (lambda: z + (1,), lambda: z * (1,), lambda: (1,) * z, lambda: z * 2.5, lambda: e - ()):
        with pytest.raises(TypeError):
            bad()
    # A plain tuple on the left of + concatenates by the tuple's own rule, as
    # the ring types hand a foreign operand back with NotImplemented.
    assert (0,) + z == (0, 4, (1, 2))


def test_record_defaults_and_rules():
    assert AmplitudeValue(1.0, False).pole_index is None
    assert MultiplicativeCharacter(7, 8).k == 2
    with pytest.raises(InvalidInput) as exc:
        MultiplicativeCharacter(9, 1)
    assert exc.value.arg == "p"
    with pytest.raises(InvalidInput) as exc:
        MandelstamInput(s12=float("nan"), s34=1.0)
    assert exc.value.arg == "s12"
    with pytest.raises(InvalidInput) as exc:
        MandelstamInput(0.5, math.inf)
    assert exc.value.arg == "s34"


@pytest.mark.parametrize(
    "build,arg",
    [
        (lambda: PrimeFieldElem(7, 2.5), "value"),
        (lambda: PrimeFieldElem(7, PrimeFieldElem(7, 2)), "value"),
        (lambda: PadicInt(5, 3, 2.5), "value"),
        (lambda: PadicInt(5, 3, "7"), "value"),
        (lambda: PadicInt(5, 30.0, 10**25 + 1), "precision"),
    ],
    ids=["field-float", "field-element", "padic-float", "padic-str", "padic-float-precision"],
)
def test_residues_take_only_int_arguments(build, arg):
    # A float accepted here would be stored and leak into results: a float
    # precision makes the value a float, and PrimeFieldElem(7, 2.5) * 2 == 5.0.
    with pytest.raises(InvalidInput) as exc:
        build()
    assert exc.value.arg == arg


# Each int argument of the public constructors, and count_points_ext's n: a
# builder that takes the argument, the argument's name, and an int it accepts.
INT_ARGUMENTS = {
    "field-p": (lambda v: PrimeFieldElem(v, 3), "p", 7),
    "field-value": (lambda v: PrimeFieldElem(7, v), "value", 3),
    "padic-p": (lambda v: PadicInt(v, 3, 7), "p", 5),
    "padic-precision": (lambda v: PadicInt(5, v, 7), "precision", 3),
    "padic-value": (lambda v: PadicInt(5, 3, v), "value", 7),
    "character-p": (lambda v: MultiplicativeCharacter(v, 2), "p", 7),
    "character-k": (lambda v: MultiplicativeCharacter(7, v), "k", 2),
    "curve-p": (lambda v: WeierstrassCurveFp(v, 1, 1), "p", 7),
    "curve-a": (lambda v: WeierstrassCurveFp(7, v, 1), "a", 1),
    "curve-b": (lambda v: WeierstrassCurveFp(7, 1, v), "b", 1),
    "cyclotomic-m": (lambda v: CyclotomicNumber(v, [1, 2]), "m", 4),
    "cyclotomic-coeff": (lambda v: CyclotomicNumber(4, [1, v]), "coeffs", 2),
    "root-m": (lambda v: CyclotomicNumber.root_of_unity(v, 1), "m", 4),
    "root-j": (lambda v: CyclotomicNumber.root_of_unity(4, v), "j", 1),
    "ext-count-n": (lambda v: count_points_ext(WeierstrassCurveFp(7, 1, 1), v), "n", 2),
}
# The same value as a float and as a str, and a bool, which is no int here.
NON_INTS = {"float": float, "str": str, "bool": lambda v: True}
# Each exact rational argument with a Fraction it accepts.
RATIONAL_ARGUMENTS = {
    "curve-q-a": (lambda v: EllipticCurveQ(v, 1), "a", Fraction(1, 2)),
    "curve-q-b": (lambda v: EllipticCurveQ(-1, v), "b", Fraction(1, 3)),
    "legendre-t": (legendre_curve, "t", Fraction(1, 2)),
    "period-map-t": (lambda v: period_map_legendre([Fraction(1, 4), v]), "t", Fraction(3, 4)),
}
# A float, a bool, None and a str are no rationals: none of them is converted.
NON_RATIONALS = {"float": float, "bool": lambda v: True, "None": lambda v: None, "str": str}


@pytest.mark.parametrize("site", INT_ARGUMENTS)
def test_int_argument_table_accepts_its_int(site):
    build, _, good = INT_ARGUMENTS[site]
    build(good)


@pytest.mark.parametrize("site", RATIONAL_ARGUMENTS)
def test_rational_argument_table_accepts_its_fraction_and_an_int(site):
    build, _, good = RATIONAL_ARGUMENTS[site]
    build(good)
    build(2)


@pytest.mark.parametrize("kind", NON_RATIONALS)
@pytest.mark.parametrize("site", RATIONAL_ARGUMENTS)
def test_rational_arguments_follow_one_rule(site, kind):
    build, arg, good = RATIONAL_ARGUMENTS[site]
    bad = NON_RATIONALS[kind](good)
    with pytest.raises(InvalidInput) as exc:
        build(bad)
    assert (exc.value.arg, str(exc.value)) == (arg, f"need an int or a Fraction, got {bad!r}")


@pytest.mark.parametrize(
    "build,arg",
    [
        (lambda: gauss_sum(MultiplicativeCharacter(7, 1.5)), "k"),
        (lambda: MultiplicativeCharacter(7, True), "k"),
        (lambda: WeierstrassCurveFp(7, 1.5, 1), "a"),
        (lambda: WeierstrassCurveFp(7, 1, True), "b"),
        (lambda: CyclotomicNumber(4, [1.5, 2]), "coeffs"),
        (lambda: CyclotomicNumber(4.0, [1]), "m"),
        (lambda: CyclotomicNumber(0, [1]), "m"),
        (lambda: CyclotomicNumber.root_of_unity(4, 1.5), "j"),
        (lambda: PrimeFieldElem(7, True), "value"),
        (lambda: PrimeFieldElem(7, 3) + True, "value"),
        (lambda: PrimeFieldElem(7, 3) ** True, "exponent"),
        (lambda: PadicInt(3, 2, 1) ** 1.5, "exponent"),
        (lambda: CyclotomicNumber(5, [1, 2, 3]).galois(True), "a"),
        (lambda: CyclotomicNumber(5, [1, 2, 3]).galois(1.5), "a"),
        (lambda: CyclotomicNumber(5, [1, 2, 3]).galois(10), "a"),
        (lambda: PadicInt(3, 2, True), "value"),
        (lambda: count_points_ext(WeierstrassCurveFp(7, 1, 1), 2.0), "n"),
        (lambda: numeric_periods_catalog(3.5), "n_max"),
        (lambda: pole_scan(0.5, 2.5), "n_max"),
    ]
    + [
        (lambda build=build, bad=convert(good): build(bad), arg)
        for build, arg, good in INT_ARGUMENTS.values()
        for convert in NON_INTS.values()
    ]
    + [
        (lambda build=build, bad=convert(good): build(bad), arg)
        for build, arg, good in RATIONAL_ARGUMENTS.values()
        for convert in NON_RATIONALS.values()
    ],
    ids=[
        "character-float",
        "character-bool",
        "curve-float-a",
        "curve-bool-b",
        "cyclotomic-float-coeff",
        "cyclotomic-float-order",
        "cyclotomic-zero-order",
        "root-float-exponent",
        "field-bool",
        "field-bool-operand",
        "field-bool-exponent",
        "padic-float-exponent",
        "galois-bool",
        "galois-float",
        "galois-non-unit",
        "padic-bool",
        "ext-count-float-degree",
        "catalog-float",
        "poles-float",
    ]
    + [f"{site}-{kind}" for site in INT_ARGUMENTS for kind in NON_INTS]
    + [f"{site}-{kind}" for site in RATIONAL_ARGUMENTS for kind in NON_RATIONALS],
)
def test_int_arguments_follow_one_rule(build, arg):
    # An int argument must be an int, and a bool is not one: a float k once
    # gave a Gauss sum with |g|^2 = 5.72 at p = 7, and True stood in for 1.
    with pytest.raises(InvalidInput) as exc:
        build()
    assert exc.value.arg == arg


HUGE = 10**5000  # past CPython's 4300-digit limit on int-to-str conversion

# Public calls given a value that repr cannot print, each with the error it
# must raise: a refusal prints the value through errors.shown, so building the
# message cannot fail with the bare ValueError of the digit limit.
UNPRINTABLE = {
    "character-p": (lambda: MultiplicativeCharacter(HUGE, 1), InvalidInput),
    "padic-p": (lambda: PadicInt(HUGE, 3, 1), InvalidInput),
    "curve-p": (lambda: WeierstrassCurveFp(HUGE, 1, 1), InvalidInput),
    "quartic-p": (lambda: quartic_character(HUGE), InvalidInput),
    "apjacobi-p": (lambda: a_p_from_jacobi(HUGE), InvalidInput),
    "gaussian-split-p": (lambda: iso_gaussian_residue(HUGE), InvalidInput),
    "primitive-root-p": (lambda: find_primitive_root(HUGE), InvalidInput),
    "correspond-p": (lambda: correspondence_table(HUGE, []), InvalidInput),
    "poles-n_max": (lambda: pole_scan(1.5, HUGE), InvalidInput),
    "catalog-n_max": (lambda: numeric_periods_catalog(HUGE), InvalidInput),
    "padic-precision": (lambda: PadicInt(5, HUGE, 1), InvalidInput),
    "truncate-precision": (lambda: PadicInt(5, 3, 1).truncate(HUGE), InsufficientPrecision),
    "ext-count-n": (lambda: count_points_ext(WeierstrassCurveFp(13, -1, 0), HUGE), UnsupportedDegree),
    "galois-a": (lambda: CyclotomicNumber(4, [1, 1]).galois(HUGE), InvalidInput),
    "cyclotomic-m": (lambda: CyclotomicNumber(-HUGE, [1]), InvalidInput),
    "field-value": (lambda: PrimeFieldElem(7, Fraction(HUGE)), InvalidInput),
    "character-k": (lambda: MultiplicativeCharacter(7, Fraction(HUGE)), InvalidInput),
    "padic-exponent": (lambda: PadicInt(5, 3, 1) ** Fraction(HUGE), InvalidInput),
    "periods-agm-b": (lambda: periods_agm(EllipticCurveQ(-1, HUGE)), ComplexRoots),
    "as-int-coeff": (lambda: CyclotomicNumber(4, [1, HUGE]).as_int(), NotRationalInteger),
    "agm-negative-a": (lambda: agm(-HUGE, 1.0), InvalidInput),
    "agm-huge-a": (lambda: agm(HUGE, 1.0), InvalidInput),  # an int past the doubles breaks the real rule
    "singular-curve": (lambda: EllipticCurveQ(-3 * 10**4000, 2 * 10**6000), SingularCurve),  # t = 10^2000
}


@pytest.mark.parametrize("site", UNPRINTABLE)
def test_unprintable_values_are_refused_with_typed_errors(site):
    build, error = UNPRINTABLE[site]
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert len(str(exc.value)) < 200


# Every scalar argument of the public names: a builder that takes it and a
# value it accepts, the int and rational tables above included.  Arguments that
# expect a record are in RECORD_ARGUMENTS below.
SCALAR_ARGUMENTS = {
    **{site: (build, good) for site, (build, _, good) in (INT_ARGUMENTS | RATIONAL_ARGUMENTS).items()},
    "mandelstam-s12": (lambda v: MandelstamInput(v, 1.5), 0.5),
    "mandelstam-s34": (lambda v: MandelstamInput(0.5, v), 1.5),
    "beta-alpha": (lambda v: beta_fn(v, 1.5), 0.5),
    "beta-beta": (lambda v: beta_fn(0.5, v), 1.5),
    "gamma-x": (gamma_fn, 0.5),
    "poles-beta_fixed": (lambda v: pole_scan(v, 3), 0.5),
    "poles-n_max": (lambda v: pole_scan(0.5, v), 3),
    "correspond-p": (lambda v: correspondence_table(v, [1.5]), 5),
    "quadratic-p": (quadratic_character, 7),
    "quartic-p": (quartic_character, 13),
    "agm-a": (lambda v: agm(v, 1.0), 2.0),
    "agm-b": (lambda v: agm(2.0, v), 1.0),
    "catalog-n_max": (numeric_periods_catalog, 3),
    "apjacobi-p": (a_p_from_jacobi, 13),
    "galois-a": (lambda v: CyclotomicNumber(5, [1, 2]).galois(v), 2),
    "polynomial-m": (cyclotomic_polynomial, 6),
    "primitive-root-p": (find_primitive_root, 7),
    "is-prime-n": (is_prime, 7),
    "gaussian-split-p": (iso_gaussian_residue, 13),
    "truncate-precision": (lambda v: PadicInt(5, 3, 7).truncate(v), 2),
    "frobenius-variant": (lambda v: frobenius_lift_check(v, PadicInt(5, 3, 7)), "phi1"),
}
# A str (the accepted value's repr, so never a valid variant), a list, None
# and a complex stand in for any scalar of the wrong kind.
NON_SCALARS = {"str": repr, "list": lambda v: [v], "None": lambda v: None, "complex": lambda v: 1 + 1j}


@pytest.mark.parametrize("site", SCALAR_ARGUMENTS)
def test_scalar_argument_table_accepts_its_value(site):
    build, good = SCALAR_ARGUMENTS[site]
    build(good)


@pytest.mark.parametrize("site", SCALAR_ARGUMENTS)
@pytest.mark.parametrize("kind", NON_SCALARS)
def test_scalar_arguments_of_the_wrong_kind_raise_typed_errors(site, kind):
    # quadratic_character, find_primitive_root, truncate and agm once raised
    # bare TypeErrors here: from p - 1, the cache's hash and a comparison.
    build, good = SCALAR_ARGUMENTS[site]
    with pytest.raises(PeriodkitError):
        build(NON_SCALARS[kind](good))


C7, C7_2 = MultiplicativeCharacter(7, 1), MultiplicativeCharacter(7, 2)
CURVE_Q, CURVE_7, UNIT_5 = EllipticCurveQ(-1, 0), WeierstrassCurveFp(7, 1, 1), PadicInt(5, 3, 7)

# Every record argument of the public functions, keyed "<function>-<argument>":
# a builder that takes it and a record it accepts.
RECORD_ARGUMENTS = {
    "veneziano-m": (veneziano, MandelstamInput(0.5, 1.5)),
    "char_eval-c": (lambda v: char_eval(v, PrimeFieldElem(7, 3)), C7),
    "char_eval-a": (lambda v: char_eval(C7, v), PrimeFieldElem(7, 3)),
    "gauss_sum-c": (gauss_sum, C7),
    "jacobi_sum-c": (lambda v: jacobi_sum(v, C7_2), C7),
    "jacobi_sum-c2": (lambda v: jacobi_sum(C7, v), C7_2),
    "gauss_jacobi_relation_check-c": (lambda v: gauss_jacobi_relation_check(v, C7_2, jacobi_sum(C7, C7_2)), C7),
    "gauss_jacobi_relation_check-c2": (lambda v: gauss_jacobi_relation_check(C7, v, jacobi_sum(C7, C7_2)), C7_2),
    "gauss_jacobi_relation_check-j": (lambda v: gauss_jacobi_relation_check(C7, C7_2, v), jacobi_sum(C7, C7_2)),
    "periods_quadrature-curve": (periods_quadrature, CURVE_Q),
    "periods_agm-curve": (periods_agm, CURVE_Q),
    "curve_tau-curve": (curve_tau, CURVE_Q),
    "tau_normalize-lattice": (tau_normalize, PeriodLattice(2 + 0j, 1j, "agm")),
    "count_points-curve": (count_points, CURVE_7),
    "count_points_ext-curve": (lambda v: count_points_ext(v, 2), CURVE_7),
    "zeta_data-curve": (zeta_data, CURVE_7),
    "legendre_symbol-a": (legendre_symbol, PrimeFieldElem(7, 2)),
    "teichmuller-a": (teichmuller, UNIT_5),
    "delta_p-x": (delta_p, UNIT_5),
    "frobenius_lift_check-x": (lambda v: frobenius_lift_check("phi2", v), UNIT_5),
    "delta_rules_check-x": (lambda v: delta_rules_check(v, UNIT_5), UNIT_5),
    "delta_rules_check-y": (lambda v: delta_rules_check(UNIT_5, v), UNIT_5),
}
# An int, a str, None and a record of another type stand in for any non-record.
NON_RECORDS = {"int": 5, "str": "curve", "None": None, "record": CountResult(8, 0)}


def test_record_table_covers_every_record_parameter():
    records = {name for name in periodkit.__all__ if isinstance(getattr(periodkit, name), type)}
    sites = set()
    for name in periodkit.__all__:
        fn = getattr(periodkit, name)
        if inspect.isfunction(fn):
            for arg, param in inspect.signature(fn).parameters.items():
                # A class, or the quoted name of the lazily loaded ring type.
                if getattr(param.annotation, "__name__", param.annotation) in records:
                    sites.add(f"{name}-{arg}")
    assert sites == set(RECORD_ARGUMENTS)


@pytest.mark.parametrize("site", RECORD_ARGUMENTS)
def test_record_argument_table_accepts_its_record(site):
    build, good = RECORD_ARGUMENTS[site]
    build(good)


@pytest.mark.parametrize("site", RECORD_ARGUMENTS)
@pytest.mark.parametrize("kind", NON_RECORDS)
def test_non_records_are_refused_naming_the_argument(site, kind):
    # count_points(5), gauss_sum(7), delta_p(3) and curve_tau(1) once raised
    # a bare AttributeError on the missing field.
    build, good = RECORD_ARGUMENTS[site]
    with pytest.raises(InvalidInput) as exc:
        build(NON_RECORDS[kind])
    assert exc.value.arg == site.split("-")[1]
    assert str(exc.value).startswith(f"need a record of type {type(good).__name__}, got ")


# Every argument that takes a sequence of numbers: a builder and a sequence it
# accepts.  A record is a tuple of its fields, so without the rule one would
# pass as a sequence of them: CyclotomicNumber(4, PrimeFieldElem(7, 3)) once
# returned coeffs [7, 3], and correspondence_table(5, MandelstamInput(1.5, 2.5))
# ran a grid of the record's two fields.
SEQUENCE_ARGUMENTS = {
    "CyclotomicNumber-coeffs": (lambda v: CyclotomicNumber(4, v), [7, 3]),
    "correspondence_table-s_grid": (lambda v: correspondence_table(5, v), [1.5, 2.5]),
    "period_map_legendre-t_values": (period_map_legendre, [Fraction(1, 3), Fraction(2, 3)]),
}
# Records of the right length whose fields the builder would take as items.
RECORDS_AS_SEQUENCES = {
    "PrimeFieldElem": PrimeFieldElem(7, 3),
    "MandelstamInput": MandelstamInput(1.5, 2.5),
    "EllipticCurveQ": EllipticCurveQ(Fraction(1, 3), Fraction(2, 3)),
}


@pytest.mark.parametrize("site", SEQUENCE_ARGUMENTS)
def test_sequence_arguments_take_a_list_and_a_tuple(site):
    build, good = SEQUENCE_ARGUMENTS[site]
    assert build(good) == build(tuple(good))


@pytest.mark.parametrize("site", SEQUENCE_ARGUMENTS)
@pytest.mark.parametrize("record", RECORDS_AS_SEQUENCES)
def test_a_record_is_refused_where_a_sequence_is_expected(site, record):
    build, _ = SEQUENCE_ARGUMENTS[site]
    value = RECORDS_AS_SEQUENCES[record]
    with pytest.raises(InvalidInput) as exc:
        build(value)
    assert exc.value.arg == site.split("-")[1]
    assert str(exc.value) == f"need a sequence that is not a record, got {value!r}"


# Values that are no sequence, each made from a sequence the builder accepts.
# CyclotomicNumber(4, 5), CyclotomicNumber(4, {1, 2}), correspondence_table(5, 3)
# and period_map_legendre(3) once raised a bare TypeError; a generator of
# t_values was read once and accepted.
NON_SEQUENCES = {
    "int": len,
    "set": set,
    "iterator": iter,
    "generator": lambda good: (x for x in good),
    "dict": dict.fromkeys,
}


@pytest.mark.parametrize("site", SEQUENCE_ARGUMENTS)
@pytest.mark.parametrize("kind", NON_SEQUENCES)
def test_a_non_sequence_is_refused_naming_the_argument(site, kind):
    build, good = SEQUENCE_ARGUMENTS[site]
    value = NON_SEQUENCES[kind](good)
    with pytest.raises(InvalidInput) as exc:
        build(value)
    assert exc.value.arg == site.split("-")[1]
    assert str(exc.value) == f"need a sequence that is not a record, got {value!r}"


def test_shown_describes_what_repr_cannot_print():
    assert shown(-3) == "-3" and shown("x") == "'x'" and shown(Fraction(1, 2)) == "Fraction(1, 2)"
    assert shown(HUGE) == "an int of 16610 bits"
    assert shown(-HUGE) == "a negative int of 16610 bits"
    assert shown(Fraction(HUGE)) == "a Fraction too large to print"
    assert shown(EllipticCurveQ(-1, HUGE)) == "an EllipticCurveQ too large to print"


class Unprintable(int):
    """An int whose repr must not be taken."""

    def __repr__(self):
        raise AssertionError("repr called")


@pytest.mark.parametrize("value,text", [(Unprintable(HUGE), "an int of 16610 bits"),
                                        (Unprintable(-HUGE), "a negative int of 16610 bits"),
                                        (Unprintable(10**SHOWN_CAP), "an int of 333 bits"),
                                        (Unprintable(-(10 ** (SHOWN_CAP - 1))), "a negative int of 329 bits")],
                         ids=["huge", "negative", "101-digits", "negative-100-digits"])
def test_shown_describes_a_long_int_without_converting_it(value, text):
    # An int whose repr would pass SHOWN_CAP is told by its size alone: under a
    # lifted digit limit, repr(10**300000) takes seconds.
    caller = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert shown(value) == text
    finally:
        sys.set_int_max_str_digits(caller)


RING_30030 = CyclotomicNumber(30030, [1, 2])  # its repr lists 5760 coefficients, 17 kB


def test_shown_is_bounded_and_the_same_under_any_digit_limit():
    # A repr of at most SHOWN_CAP characters is printed as it is; a longer one,
    # or one past the digit limit, is described, and never by whether repr
    # raised, so the text does not depend on the limit.
    assert shown(10**99) == str(10**99) and shown(10**100) == "an int of 333 bits"
    assert shown("x" * 98) == repr("x" * 98) and shown("x" * 99) == "a str too large to print"
    caller = sys.get_int_max_str_digits()
    for value in (HUGE, -HUGE, Fraction(HUGE), EllipticCurveQ(-1, HUGE), RING_30030):
        texts = set()
        for digits in (0, 4300):
            sys.set_int_max_str_digits(digits)
            try:
                texts.add(shown(value))
            finally:
                sys.set_int_max_str_digits(caller)
        assert len(texts) == 1 and len(texts.pop()) <= SHOWN_CAP, texts


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: quadratic_character(RING_30030), "need a prime in [3, 2**31), got a CyclotomicNumber too large to print"),
        (lambda: gauss_sum(RING_30030),
         "need a record of type MultiplicativeCharacter, got a CyclotomicNumber too large to print"),
        (lambda: correspondence_table(5, RING_30030),
         "need a sequence that is not a record, got a CyclotomicNumber too large to print"),
        (lambda: PrimeFieldElem(7, 3) ** RING_30030, "need an int, got a CyclotomicNumber too large to print"),
        (lambda: CyclotomicNumber(4, [RING_30030]), "need an int, got a CyclotomicNumber too large to print"),
        (lambda: is_prime(HUGE), "is_prime is exact only below 2**31, got an int of 16610 bits"),
        (lambda: check_real("x", 10**400), "need a finite real number, got an int of 1329 bits"),
        (lambda: check_real("x", Fraction(-(10**400), 3)), "need a finite real number, got a Fraction too large to print"),
    ],
    ids=["quadratic_character", "gauss_sum", "correspondence_table", "pow", "coeffs", "is_prime", "int", "Fraction"],
)
def test_a_refusal_quotes_a_large_value_through_shown(call, message):
    # Each once quoted the value in full (17 kB for the ring element) or worded
    # its size its own way.
    with pytest.raises(InvalidInput) as exc:
        call()
    assert str(exc.value) == message


# Each int argument with a range, as (builder, argument, lo, hi).
BOUNDED = {
    "catalog-n_max": (numeric_periods_catalog, "n_max", 2, 21),
    "poles-n_max": (lambda v: pole_scan(0.5, v), "n_max", 0, 12),
    "padic-precision": (lambda v: PadicInt(5, v, 7), "precision", 1, 64),
    "cyclotomic-m": (lambda v: CyclotomicNumber(v, [1]), "m", 1, MAX_RING_ORDER),
}


@pytest.mark.parametrize("site", BOUNDED)
def test_int_ranges_are_one_rule(site):
    build, arg, lo, hi = BOUNDED[site]
    build(lo)
    build(hi)
    for value in (lo - 1, hi + 1):
        with pytest.raises(InvalidInput) as exc:
            build(value)
        assert (exc.value.arg, str(exc.value)) == (arg, f"need an int in [{lo}, {hi}], got {value}")
    with pytest.raises(InvalidInput) as exc:
        build(True)
    assert (exc.value.arg, str(exc.value)) == (arg, "need an int, got True")


def test_check_int_bounds_are_optional():
    check_int("v", -HUGE, hi=5)
    check_int("v", HUGE, lo=2)
    for lo, hi, value, message in [
        (None, 5, 6, "need an int <= 5, got 6"),
        (2, None, 1, "need an int >= 2, got 1"),
        (2, 3, HUGE, "need an int in [2, 3], got an int of 16610 bits"),
    ]:
        with pytest.raises(InvalidInput) as exc:
            check_int("v", value, lo=lo, hi=hi)
        assert (exc.value.arg, str(exc.value)) == ("v", message)


# One instance per small int for every Frozen type among the package's public
# names.  Distinct ints often give equal instances (residues wrap, and the
# other types fold the int into a few values), so equal pairs are drawn often.
SAMPLES = {
    AmplitudeValue: lambda i: AmplitudeValue(float(i % 3), False),
    CountResult: lambda i: CountResult(i % 3, 0),
    CyclotomicNumber: lambda i: CyclotomicNumber(4, [i % 3, 0, i % 2]),  # x^2 = -1
    EllipticCurveQ: lambda i: EllipticCurveQ(Fraction(i % 3 + 1, 1 + i % 2), 1),
    GaussianSplit: lambda i: GaussianSplit(PrimeFieldElem(5, i), 2, 1),
    GaussSumValue: lambda i: GaussSumValue(complex(i % 3), 7),
    MandelstamInput: lambda i: MandelstamInput(float(i % 3), 0.5),
    MultiplicativeCharacter: lambda i: MultiplicativeCharacter(7, i),
    PadicInt: lambda i: PadicInt(5, 2, i),
    PeriodLattice: lambda i: PeriodLattice(complex(i % 3), 1j, "agm"),
    PrimeFieldElem: lambda i: PrimeFieldElem(7, i),
    TauPoint: lambda i: TauPoint(complex(0, 1 + i % 3), ((1, 0), (0, 1))),
    WeierstrassCurveFp: lambda i: WeierstrassCurveFp(7, i, 1),  # a^3 = 2 has no root mod 7
    ZetaData: lambda i: ZetaData(i % 3, complex(i % 2), 0j),
}


def test_every_public_frozen_type_has_a_sample():
    public = [getattr(periodkit, name) for name in periodkit.__all__]
    assert set(SAMPLES) == {cls for cls in public if isinstance(cls, type) and issubclass(cls, Frozen)}


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(i=st.integers(-30, 30), j=st.integers(-30, 30))
def test_equality_agrees_with_hash(cls, i, j):
    # Python requires equal objects to hash equal, or dict and set lookups
    # break; a residue that equalled every int of its class could not.
    a, b = SAMPLES[cls](i), SAMPLES[cls](j)
    if a == b:
        assert hash(a) == hash(b) and b in {a}
    for n in (i, j, 0, 1):
        assert a != n and n != a
        assert n not in {a} and a not in {n}


VALUES = [
    PrimeFieldElem(7, 3),
    CyclotomicNumber(4, [1, 2]),
    PadicInt(5, 3, 7),
    EllipticCurveQ(-1, 0),
    WeierstrassCurveFp(7, 1, 1),
]


@pytest.mark.parametrize("value", VALUES, ids=[type(v).__name__ for v in VALUES])
def test_value_types_share_the_immutability_rule(value):
    for name in [*type(value)._fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    assert pickle.loads(pickle.dumps(value)) == value
    assert hash(pickle.loads(pickle.dumps(value))) == hash(value)


def test_value_type_reprs():
    assert repr(PrimeFieldElem(7, 3)) == "PrimeFieldElem(7, 3)"
    assert repr(CyclotomicNumber(4, [1, 2])) == "CyclotomicNumber(m=4, coeffs=[1, 2])"
    assert repr(PadicInt(5, 3, 7)) == "PadicInt(p=5, precision=3, value=7)"
    assert repr(EllipticCurveQ(-1, 0)) == "EllipticCurveQ(a=-1, b=0)"
    assert repr(WeierstrassCurveFp(7, 1, 1)) == "WeierstrassCurveFp(p=7, a=1, b=1)"


def _pad(a, b):
    n = max(len(a), len(b))
    return a + [0] * (n - len(a)), b + [0] * (n - len(b))


def _vadd(a, b):
    return [x + y for x, y in zip(*_pad(a, b))]


def _vsub(a, b):
    return [x - y for x, y in zip(*_pad(a, b))]


def _vmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# The three exact rings, each element modelled by a plain coefficient vector
# (one entry for the residue types): a strategy for the structure, the element
# a vector reduces to, the vector of an element, and the modulus of a residue
# type (None for Z[zeta_m]).  Mixing two structures of one type raises
# MismatchedStructure in every ring.
RINGS = {
    "PrimeFieldElem": (
        st.sampled_from([3, 7, 10007, 2**31 - 1]),
        lambda p, v: PrimeFieldElem(p, v[0]),
        lambda x: [x.value],
        lambda p: p,
    ),
    "PadicInt": (
        st.tuples(st.sampled_from([2, 5, 10007]), st.integers(1, 8)),
        lambda s, v: PadicInt(*s, v[0]),
        lambda x: [x.value],
        lambda s: s[0] ** s[1],
    ),
    "CyclotomicNumber": (
        st.sampled_from([1, 3, 4, 8, 12, 15]),
        CyclotomicNumber,
        lambda x: list(x.coeffs),
        None,
    ),
}


@pytest.mark.parametrize("ring", RINGS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exact_rings_share_the_operator_protocol(ring, data):
    structure, make, vector, modulus = RINGS[ring]
    s = data.draw(structure)
    ints = st.integers(-(10**12), 10**12)
    a = make(s, data.draw(st.lists(ints, min_size=1, max_size=8)))
    b = make(s, data.draw(st.lists(ints, min_size=1, max_size=8)))
    n = data.draw(ints)
    va, vb = vector(a), vector(b)
    assert a + b == make(s, _vadd(va, vb))
    assert a - b == make(s, _vsub(va, vb))
    assert a * b == make(s, _vmul(va, vb))
    assert -a == make(s, [-c for c in va])
    assert a + n == n + a == make(s, _vadd(va, [n]))
    assert a - n == make(s, _vsub(va, [n]))
    assert n - a == make(s, _vsub([n], va))
    assert a * n == n * a == make(s, [n * c for c in va])
    if modulus is not None:
        e = data.draw(st.integers(-6, 6))
        try:
            expected = pow(va[0], e, modulus(s))
        except ValueError:  # a negative power of a non-unit
            with pytest.raises((DivisionByZero, NonUnit)):
                a**e
        else:
            assert a**e == make(s, [expected])

    other = make(data.draw(structure.filter(lambda t: t != s)), [1])
    foreign = next(
        make_other(data.draw(structure_other), [1])
        for name, (structure_other, make_other, *_) in RINGS.items()
        if name != ring
    )
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(MismatchedStructure):
            op(a, other)
        for x, y in [(a, 0.5), (0.5, a), (a, foreign), (foreign, a)]:
            with pytest.raises(TypeError):
                op(x, y)
