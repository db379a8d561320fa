"""Equality, repr, hash and read-only fields for agwf's record types.

Plain classes, so that importing agwf generates no code for its record
types, as ``dataclasses`` would, and loads neither it nor ``inspect``.
A record type lists its fields in ``__slots__``, in the order its own
``__init__`` takes them.  A slot whose name starts with ``_`` is not a
field: it holds something computed from the fields.
"""

from __future__ import annotations


class Value:
    """Equal by type and fields, shown by its fields, and unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"


class FrozenValue(Value):
    """A Value that is hashable and read-only: its ``__init__`` sets its
    fields with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
