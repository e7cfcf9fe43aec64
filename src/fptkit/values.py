"""The base of the package's immutable value classes.

A subclass names its fields, in order, in `__slots__`.  `Value.__init__`
stores them, by position or by name: a class that checks its inputs ends
its own `__init__` with one `super().__init__(...)`.  With no code
generated at import, the base gives what a frozen dataclass gave: equality
and hash by field within one class, the repr `Name(field=value, ...)`,
AttributeError on assignment and deletion, and copy and pickle (through
the class's own `__init__`).  A repr cannot raise: an int field, or an
int inside a tuple, list, dict or Fraction field, that str() cannot print
whole is named by its bit length (`rationals.whole_text`).
"""

from fractions import Fraction
from operator import attrgetter

from .rationals import whole_text


def _shown(value) -> str:
    """repr(value), with every int in it through `whole_text`."""
    kind = type(value)
    if kind is int:
        return whole_text(value)
    if kind is tuple:
        inner = ", ".join(map(_shown, value))
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    if kind is list:
        return "[" + ", ".join(map(_shown, value)) + "]"
    if kind is dict:
        return "{" + ", ".join(f"{_shown(k)}: {_shown(v)}" for k, v in value.items()) + "}"
    if kind is Fraction:
        return f"Fraction({whole_text(value.numerator)}, {whole_text(value.denominator)})"
    return repr(value)


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field values: a tuple, or the one value of a one-field class
        cls._values = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs:
            given = dict(zip(fields, args))
            for key in kwargs:
                if key in given or key not in fields:
                    name = type(self).__qualname__
                    raise TypeError(f"{name}() got a repeated or unknown field {key!r}")
            given.update(kwargs)
            # a missing field is left out, so the count below refuses it
            args = [given[field] for field in fields if field in given]
        if len(args) != len(fields):
            name = type(self).__qualname__
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)}")
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={_shown(getattr(self, name))}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
