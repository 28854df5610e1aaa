"""Exception types and the value-record base shared across the package."""

from __future__ import annotations

from operator import attrgetter
from typing import Any


class Record:
    """A value that is equal (to a record of its own class), hashed, shown
    and pickled by the fields a subclass names in _fields, two or more, read
    together by one C-level getter.  A copy calls the constructor on them,
    so it rebuilds whatever its class derives.  Immutable by convention."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._field_values = property(attrgetter(*cls._fields))

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self._field_values == other._field_values

    def __hash__(self) -> int:
        return hash(self._field_values)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._field_values))
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return self.__class__, self._field_values


class HypothesisError(ValueError):
    """A closed-form or construction was asked for outside its hypotheses.

    The message names the specific failed hypothesis so callers can report
    a precise refusal instead of a silent wrong answer.
    """

    def __init__(self, hypothesis: str, detail: str = "") -> None:
        self.hypothesis = hypothesis
        msg = f"hypothesis violated: {hypothesis}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class ContractError(RuntimeError):
    """An internal construction failed its own verification step."""


class TheoremViolation(ContractError):
    """A verified-extremal sequence failed to decompose as guaranteed.

    Carries a full dump of the offending instance; raising this means either
    the implementation is broken or an actual counterexample was found, and
    both demand a loud stop.
    """

    def __init__(self, message: str, dump: dict[str, Any]) -> None:
        self.dump = dump
        super().__init__(f"{message}; dump={dump!r}")
