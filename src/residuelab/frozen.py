"""Immutable value classes without `dataclasses`.

A value class derives from `Frozen` and writes its own `__init__`, which sets
each field once with `_set`; its fields are that `__init__`'s parameters, in
order.  `Frozen` gives what a frozen dataclass gives: instances of one class
are equal when their field tuples are, hash as that tuple, show every field
in their `repr`, and raise AttributeError on assigning or deleting an
attribute.  A class on a hot path overrides `__eq__` and `__hash__` with the
same rule spelled out; one that overrides `__eq__` alone is unhashable.

`dataclasses` is not used because importing it loads `inspect`, and each
decorated class runs `exec` once per generated method: a cost every cold
CLI start would pay.
"""

_set = object.__setattr__


class Frozen:
    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
