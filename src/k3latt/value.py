"""Immutable value classes, without ``dataclasses``.

``import dataclasses`` pulls in ``inspect``, and ``@dataclass`` generates and
compiles the methods of each class when its module is imported.  A CLI
command starts a fresh interpreter, so it would pay both on every run.
``Value`` gives the same value semantics from one base class.
"""

from __future__ import annotations

from operator import attrgetter


def _rebuild(cls, values):
    """Unpickle or copy: set the stored fields again, as ``__init__`` left them."""
    self = object.__new__(cls)
    self._assign(*values)
    return self


class Value:
    """Base of the immutable value classes.

    A subclass lists its fields in ``__slots__`` and sets them in
    ``__init__``, with ``_assign`` or ``object.__setattr__``.  A slot whose
    name starts with ``_``, such as ``__dict__`` for a ``cached_property``,
    is not a field.  Two instances are equal when they have the same class
    and equal fields, and hash over the fields.  The repr is
    ``Name(field=value, ...)``.  Assigning or deleting an attribute raises
    ``AttributeError``.  Pickle and ``copy`` rebuild an instance from its
    fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(f for f in vars(cls).get("__slots__", ()) if not f.startswith("_"))
        if fields:  # a subclass that adds no field keeps its parent's
            cls._fields = fields
            cls._key = attrgetter(*fields)

    def _assign(self, *values) -> None:
        """Set the fields to ``values``, in ``__slots__`` order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuild, (type(self), tuple(getattr(self, f) for f in self._fields))
