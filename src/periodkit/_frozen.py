"""The package's one immutability rule, shared by its value types and result
records, and the one operator protocol of its exact value types."""

from .errors import check_int


class Frozen:
    """Base of immutable `__slots__` classes.

    A subclass lists its fields in a `__slots__` tuple, in constructor order.
    A record that only stores its fields inherits the constructor below: the
    values are bound to the slots in order, by position or by keyword, and a
    missing, extra, unknown or doubly given field raises TypeError.  A type
    that validates, normalises or gives a default defines its own `__init__`,
    which stores the values through `Frozen.__init__(self, ...)`.  Assignment
    and deletion raise AttributeError.  Equality (same class, same field
    values, so never an int), hash, repr `Name(field=value, ...)` and pickling
    are derived from the fields; a type overrides at most its repr.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # The slots' own setters, in field order: storing through them skips
        # the attribute lookup that object.__setattr__ makes for every field.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for setter, value in zip(setters, args):
            setter(self, value)

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values in slot order, from positional then keyword values."""
        names, cls = self.__slots__, type(self).__qualname__
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} fields but {len(args)} were given")
        for name in kwargs:
            if name in names[: len(args)]:
                raise TypeError(f"{cls}() got multiple values for field {name!r}")
            if name not in names:
                raise TypeError(f"{cls}() got an unexpected field {name!r}")
        missing = [name for name in names[len(args) :] if name not in kwargs]
        if missing:
            raise TypeError(f"{cls}() missing field(s) {', '.join(map(repr, missing))}")
        return [*args, *(kwargs[name] for name in names[len(args) :])]

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


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
    another element's structure differs, `_with(n)`, the element of its
    structure given by an int, and the primitives `_add`, `_sub`, `_mul` and
    `_neg`, each building one element.  An int operand is lifted by `_with`; a
    float or another ring type makes the operator raise TypeError.
    """

    __slots__ = ()

    def _coerce(self, other):
        if other.__class__ is self.__class__:
            self._match(other)
            return other
        if isinstance(other, int):
            return self._with(other)
        return NotImplemented

    __add__ = __radd__ = _coerced(lambda a, b: a._add(b))
    __sub__ = _coerced(lambda a, b: a._sub(b))
    __rsub__ = _coerced(lambda a, b: b._sub(a))
    __mul__ = __rmul__ = _coerced(lambda a, b: a._mul(b))

    def __neg__(self):
        return self._neg()


class Residue(RingElement):
    """Base of the types whose element is an int `value` modulo `modulus`; a
    subclass checks its structure and an int value in `__init__`, and supplies
    `modulus`, `_match`, `_with` and `inverse`."""

    __slots__ = ()

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
