"""Value classes that declare their fields once: `__init__`, `repr`, `==`, `hash`.

A class's fields are its parent's, then the names its body annotates (a
class constant stays unannotated).  `Record.__init__` binds values to them by
position or by name into the instance `__dict__`; a class that checks or
converts its arguments calls it from its own `__init__`.  The `repr` is
``Name(field=value, ...)`` and `==` compares field tuples.  `Frozen` also
hashes the field tuple and refuses every assignment and deletion.  This is
what a dataclass would write, with no code generated at import.
"""

from __future__ import annotations


class Record:
    """Mutable value class: `repr` and `==` over `_fields`, unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # The class's own annotations only (Python >= 3.10), as strings.
        cls._fields += tuple(name for name in cls.__annotations__ if name not in cls._fields)

    def __init__(self, *args: object, **kwargs: object) -> None:
        if kwargs or len(args) != len(self._fields):
            args = _bind(self.__class__, args, kwargs)
        self.__dict__.update(zip(self._fields, args))

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


def _bind(cls: type[Record], args: tuple, kwargs: dict[str, object]) -> list:
    """The field values in order, by position, then by name, or TypeError."""
    names = cls._fields
    given = dict(zip(names, args))
    faults = [f"{len(args)} values for {len(names)} fields"] if len(args) > len(names) else []
    faults += [f"field {name!r} given twice" if name in given else f"unknown field {name!r}"
               for name in kwargs if name in given or name not in names]
    given.update(kwargs)
    faults += [f"missing field {name!r}" for name in names if name not in given]
    if faults:
        raise TypeError(f"{cls.__qualname__}(): {'; '.join(faults)}")
    return [given[name] for name in names]


class Frozen(Record):
    """Immutable value class: also hashable on `_fields`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
