"""Exception types shared across the toolkit, the one int, record, real and complex rules, and shown.

Every error the library raises on purpose derives from PeriodkitError.
InvalidInput (also a ValueError) names an argument that breaks a stated rule;
InvariantFailed, a check of the library's own result that failed; every other
subclass is a domain error, where valid arguments meet a mathematical obstruction.
"""

import math

SHOWN_CAP = 100  # characters: a quoted value never takes over its message


class PeriodkitError(Exception):
    """Base class for all errors raised on purpose by periodkit."""


class InvalidInput(PeriodkitError, ValueError):
    """An argument is outside the domain the library accepts; `arg` names it."""

    def __init__(self, arg: str, message: str):
        super().__init__(message)
        self.arg = arg


def shown(value) -> str:
    """repr(value) when it has at most SHOWN_CAP characters, else a short description
    such as "an int of 16610 bits"; CPython's int-to-str limit, at least 640 digits,
    cuts only a repr far past the cap, so the text is the same under any limit."""
    if isinstance(value, int) and not -(10 ** (SHOWN_CAP - 1)) < value < 10**SHOWN_CAP:  # past the cap: no repr
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    try:
        if len(text := repr(value)) <= SHOWN_CAP:
            return text
    except ValueError:  # a value that holds an int past the digit limit
        pass
    name = type(value).__name__
    return f"{'an' if name[0] in 'AEIOU' else 'a'} {name} too large to print"


def check_int(arg: str, value, lo: int | None = None, hi: int | None = None) -> None:
    """An int argument must be an int in [lo, hi], either bound optional; a bool
    is not one, so True cannot stand in for 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInput(arg, f"need an int, got {shown(value)}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"<= {hi}" if lo is None else f"in [{lo}, {hi}]"
        raise InvalidInput(arg, f"need an int {bounds}, got {shown(value)}")


def check_record(arg: str, value, cls: type) -> None:
    """A record argument must be an instance of its record type, so a scalar in
    its place is named here instead of failing later on a missing field."""
    if not isinstance(value, cls):
        raise InvalidInput(arg, f"need a record of type {cls.__name__}, got {shown(value)}")


def check_real(arg: str, value) -> None:
    """A real argument must be a number whose sum with a float math.isfinite finds finite and that rounds, as an
    int, a float or a Fraction: not a bool or a numpy bool, a str, a complex, a Decimal, NaN, an infinity or an
    int beyond the doubles."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value + 0.0)
        round(value)  # a numpy bool sums with a float but does not round
    except (TypeError, ValueError, OverflowError):  # a Decimal, a str, a complex; past the doubles; NaN, an infinity
        finite = False
    if not finite:
        raise InvalidInput(arg, f"need a finite real number, got {shown(value)}")


def check_complex(arg: str, value) -> complex:
    """A complex argument must be a number that converts to a complex of two doubles, as an int, a float, a
    Fraction, a complex or a numpy number: not a bool or a numpy bool, a str, a Decimal, an array, or an int or
    a Fraction beyond the doubles.  NaN and the infinities convert, and their meaning is the caller's rule.
    Returns the converted value."""
    from numbers import Complex  # fractions loads it for the one caller, complex_periods; no cold call needs it

    try:
        if isinstance(value, Complex) and not isinstance(value, bool):
            return complex(value)
    except OverflowError:  # past the doubles
        pass
    raise InvalidInput(arg, f"need a complex number within the doubles, got {shown(value)}")


class InvariantFailed(PeriodkitError):
    """A result broke an invariant the library checks; the message names the check."""


class MismatchedStructure(PeriodkitError):
    """Operands of one type live in different structures: another p, precision or order."""


class NotRationalInteger(PeriodkitError):
    """An element of Z[zeta_m] asked for as a rational integer is not one."""


class DivisionByZero(PeriodkitError):
    """Inversion of the zero residue."""


class BadCongruence(PeriodkitError):
    """The prime fails a congruence precondition (e.g. p != 1 mod 4)."""


class TrivialCharacter(PeriodkitError):
    """A character identity was requested where one of the characters is trivial."""


class SingularCurve(PeriodkitError):
    """The Weierstrass cubic has a vanishing discriminant."""


class UnsupportedDegree(InvalidInput):
    """Point counts are only implemented over the base field and its quadratic extension."""


class ComplexRoots(PeriodkitError):
    """Period computation requires all three cubic roots to be real."""


class FloatOverflow(PeriodkitError):
    """A double-precision evaluation left the representable range."""


class QuadratureNoConvergence(PeriodkitError):
    """Quadrature levels still disagree at the level cap."""


class DegenerateLattice(PeriodkitError):
    """The two alleged lattice generators are real-linearly dependent."""


class DegenerateFamilyMember(PeriodkitError):
    """Family parameter lands on a nodal member (t in {0, 1})."""


class PoleAtNonpositiveInteger(PeriodkitError):
    """Gamma (or Beta) was evaluated at a nonpositive-integer pole."""


class NonUnit(PeriodkitError):
    """A p-adic inversion or Teichmueller lift was requested for a non-unit."""


class InsufficientPrecision(PeriodkitError):
    """The operation needs at least two p-adic digits."""
