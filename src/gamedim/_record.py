"""Value classes that name their fields: `repr`, `==` and `hash` from one tuple.

A class lists its field names in `_fields` and sets them in its own
`__init__`.  `Record` gives it ``Name(field=value, ...)`` as its `repr` and
compares two instances of the same class by their field tuples.  `Frozen`
also hashes that tuple and refuses every assignment and deletion, so its
`__init__` sets fields with ``object.__setattr__``.  These are the `repr`,
`==` and `hash` a dataclass would write, with no code generated at import.
"""

from __future__ import annotations


class Record:
    """Mutable value class: `repr` and `==` over `_fields`, unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """Immutable value class: also hashable on `_fields`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
