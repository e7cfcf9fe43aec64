"""The base of the package's immutable value classes.

A subclass names its fields, in order, in `__slots__` and sets each once in
its own `__init__` through `object.__setattr__`.  The base gives what a
frozen dataclass gave, with no code generated at import: instances of one
class with equal fields are equal and hash equal, the repr is
`Name(field=value, ...)`, and assignment and deletion raise AttributeError.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field values: a tuple, or the one value of a one-field class
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the (None, {field: value}) state of a
        # slotted object by assignment, which the class refuses
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
