"""The package's one immutability rule, shared by its value types and result
records, and the one operator protocol of its exact value types."""

from collections import namedtuple
from collections.abc import Sequence

from .errors import InvalidInput, MismatchedStructure, check_int, shown


class Frozen(tuple):
    """Base of the immutable records: a tuple of the field values, named in
    order by a subclass's `_fields`; a subclass declares `__slots__ = ()`, so it
    has no instance dict.  A class whose body declares `_fields` takes from the
    `collections.namedtuple` of those fields a getter per field, read in C,
    and, unless its body defines them, that namedtuple's generated `__new__`
    (by position or keyword at one cost, with Python's own messages for a
    wrong field set), repr and pickling arguments, but not `_make` or
    `_replace`, which would skip a validating `__new__`; a class that declares
    no `_fields` inherits all of it.  A type that validates, normalises or
    gives a default stores one value per field through
    `tuple.__new__(cls, (...))` in its own `__new__`.  Equality holds only
    within one class, so a record never equals a plain tuple, hash agrees with
    it, and pickling rebuilds through the class's `__new__`.  `len`,
    iteration, unpacking and indexing read the fields; ordering, `+` and `*`
    raise TypeError, except the ring types' own `+` and `*`, and a plain tuple
    on the left of `+` with a ring element, which the tuple concatenates.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if "_fields" in vars(cls):
            # Hold the class, not only vars() of it: the collector empties the
            # dict of a class it frees, and a class sits in reference cycles.
            record = namedtuple(cls.__name__, cls._fields, module=cls.__module__)
            for name in [*cls._fields, *{"__new__", "__repr__", "__getnewargs__"} - vars(cls).keys()]:
                setattr(cls, name, vars(record)[name])

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    __ne__ = object.__ne__  # the negation of __eq__, where the tuple's would compare with any tuple
    __hash__ = tuple.__hash__  # equal records have equal fields

    def _refused(self, other):
        raise TypeError(f"{type(self).__qualname__} is a record: it is not ordered, joined or repeated")

    __lt__ = __le__ = __gt__ = __ge__ = __add__ = __radd__ = __mul__ = __rmul__ = _refused
    __array_ufunc__ = None  # so a numpy operand defers to these operators, not reading the fields as an array


def check_sequence(arg: str, value) -> None:
    """A sequence argument must be a Sequence, such as a list or a tuple, and not
    a record, which as a tuple of its fields would pass for a sequence of them."""
    if isinstance(value, Frozen) or not isinstance(value, Sequence):
        raise InvalidInput(arg, f"need a sequence that is not a record, got {shown(value)}")


def _coerced(primitive):
    """An operator: `primitive` on self and the other operand once `_coerce` has
    placed that operand in self's ring, NotImplemented if it has no place there."""

    def method(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return primitive(self, other)

    return method


class RingElement(Frozen):
    """Base of the exact value types, holding the one operator protocol.

    A subclass supplies `_match(other)`, which raises MismatchedStructure when
    another element's structure differs, `_lift(n)`, the element of its
    structure given by an int, and the primitives `_add`, `_sub`, `_mul` and
    `_neg`, each building one element.  An int operand is lifted by `_lift`; a
    float or another ring type makes the operator raise TypeError.
    """

    __slots__ = ()

    def _coerce(self, other):
        if other.__class__ is self.__class__:
            self._match(other)
            return other
        if isinstance(other, int):
            return self._lift(other)
        return NotImplemented

    __add__ = __radd__ = _coerced(lambda a, b: a._add(b))
    __sub__ = _coerced(lambda a, b: a._sub(b))
    __rsub__ = _coerced(lambda a, b: b._sub(a))
    __mul__ = __rmul__ = _coerced(lambda a, b: a._mul(b))

    def __neg__(self):
        return self._neg()


class Residue(RingElement):
    """Base of the types whose element is an int `value`, the last field, modulo
    `modulus`; the other fields, p or (p, precision), are its structure.  A subclass
    checks it once, in `__new__`, and supplies `modulus` and `inverse`; a result
    carries its operand's structure through `_with`, and operands compare it.  A
    result in another structure, a p-adic one at a new precision, checks only
    what changed and carries p.  A residue never equals an int, so a caller
    compares `int(a)` or `a.value`; zero is false."""

    __slots__ = ()

    def _with(self, value: int):
        """The residue of value in self's structure, unchecked: value is an int."""
        return tuple.__new__(self.__class__, (*self[:-1], value % self.modulus))

    def _lift(self, n: int):
        check_int("value", n)
        return self._with(n)

    def _match(self, other) -> None:
        if self[:-1] != other[:-1]:
            a, b = (", ".join(f"{name}={field}" for name, field in zip(x._fields, x[:-1])) for x in (self, other))
            raise MismatchedStructure(f"{a} vs {b}")

    def _add(self, other):
        return self._with(self.value + other.value)

    def _sub(self, other):
        return self._with(self.value - other.value)

    def _mul(self, other):
        return self._with(self.value * other.value)

    def _neg(self):
        return self._with(-self.value)

    def __pow__(self, exponent: int):
        check_int("exponent", exponent)
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return self._with(pow(self.value, exponent, self.modulus))

    def __int__(self):
        return self.value

    def __bool__(self):
        return self.value != 0
