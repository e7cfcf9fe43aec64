"""The base of the package's immutable value classes.

A subclass names its fields, in order, in `__slots__`.  `Value.__init__`
stores them, by position or by name: a class that checks its inputs ends
its own `__init__` with one `super().__init__(...)`.  With no code
generated at import, the base gives what a frozen dataclass gave: equality
and hash by field within one class, the repr `Name(field=value, ...)`,
AttributeError on assignment and deletion, and copy and pickle (through
the class's own `__init__`).
"""

from operator import attrgetter


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
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
