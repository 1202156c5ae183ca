"""Frozen ``__slots__`` records: every value on the wire, and the small
contexts and configs a node builds at start-up.

A record class names its fields in ``__slots__`` (a subclass appends its
own to its base's) and may give some of them ``_defaults``.  It then
behaves as a frozen dataclass with those fields would -- positional and
keyword construction, assignment and deletion raising
:class:`dataclasses.FrozenInstanceError`, and the same ``==``,
``hash`` and ``repr`` -- while a class costs no generated source to
build and an instance no ``__dict__``.  ``copy``, ``deepcopy`` and
``pickle`` rebuild a record through its class.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, Dict, List, Tuple


class Record:
    """Base of the frozen slotted records (messages, tags, contexts)."""

    __slots__ = ()
    #: Every field, the base's first, in construction order.
    _fields: Tuple[str, ...] = ()
    _defaults: Dict[str, Any] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        base = cls.__mro__[1]
        cls._fields = base._fields + tuple(cls.__dict__.get("__slots__", ()))
        cls._defaults = {**base._defaults, **cls.__dict__.get("_defaults", {})}
        # The slot descriptors' setters: they store past __setattr__.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for store, value in zip(self._setters, args):
            store(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: Dict[str, Any]) -> List[Any]:
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(
                    f"{cls.__name__}() missing required argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword "
                            f"argument {next(iter(kwargs))!r}")
        return values

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


def with_fields(record: Record, **changes: Any) -> Record:
    """A copy of ``record`` with the named fields replaced."""
    unknown = set(changes) - set(record._fields)
    if unknown:
        raise TypeError(f"{type(record).__name__} has no field "
                        f"{sorted(unknown)[0]!r}")
    return type(record)(*[changes.get(name, getattr(record, name))
                          for name in record._fields])
