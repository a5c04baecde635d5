"""The package's one immutability rule, shared by its value types and result records."""


class Frozen:
    """Base of immutable `__slots__` classes.

    A subclass lists its fields in `__slots__`, in constructor order, and sets
    them in its `__init__` through `object.__setattr__`.  Assignment and
    deletion raise AttributeError.  Equality (same class, same field values),
    hash, repr `Name(field=value, ...)` and pickling are derived from the
    fields; a value type overrides the ones it defines differently.
    """

    __slots__ = ()

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
