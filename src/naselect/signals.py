"""Finite families of cell-valued signals: restriction, equivalence classes, restriction sets.

A signal carries one opaque token per grid cell.  Restricting it to a prefix
keeps the leading tokens; two signals are equivalent at a prefix when their
restrictions coincide.  Tokens are plain strings with their natural total
order, which keeps every derived set printable in a deterministic order.
Scenario builders that need numeric payloads format them as canonical
rational strings, so exact payload equality and token equality agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError
from .timebase import Prefix

Token = str
RestrictionKey = tuple[Token, ...]

ROLE_DISTURBANCE = "disturbance"
ROLE_TRAJECTORY = "trajectory"


@dataclass(frozen=True)
class Signal:
    """One token per grid cell."""

    cells: tuple[Token, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValidationError("a signal needs at least one cell")
        for c in self.cells:
            if not isinstance(c, str):
                raise ValidationError(f"signal cells must be strings, got {type(c).__name__}")


@dataclass(frozen=True)
class SignalFamily:
    """Indexed, duplicate-free signals of equal length; `role` tags the modelled side.

    Duplicate signals are rejected rather than merged so indices stay stable.
    """

    role: str
    names: tuple[str, ...]
    signals: tuple[Signal, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.role not in (ROLE_DISTURBANCE, ROLE_TRAJECTORY):
            raise ValidationError(f"unknown family role {self.role!r}")
        if not self.signals:
            raise ValidationError("a signal family must not be empty")
        if len(self.names) != len(self.signals):
            raise ValidationError("family needs exactly one name per signal")
        index = {n: i for i, n in enumerate(self.names)}
        if len(index) != len(self.names):
            raise ValidationError("family names must be unique")
        object.__setattr__(self, "_index", index)
        if len(set(self.signals)) != len(self.signals):
            raise ValidationError("duplicate signals are not allowed")
        if len({len(s.cells) for s in self.signals}) != 1:
            raise ValidationError("all signals of a family must have the same length")

    def __len__(self) -> int:
        return len(self.signals)

    @property
    def width(self) -> int:
        return len(self.signals[0].cells)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown {self.role} name {name!r}") from None


def restrict(s: Signal, a: Prefix) -> RestrictionKey:
    """Leading `a.len` tokens of the signal."""
    if a.len > len(s.cells):
        raise ValidationError(f"prefix of {a.len} cells does not fit a signal of {len(s.cells)}")
    return s.cells[: a.len]


def equiv_class(fam: SignalFamily, idx: int, a: Prefix) -> frozenset[int]:
    """Indices of all family members that agree with member `idx` on the prefix."""
    key = restrict(fam.signals[idx], a)
    return frozenset(i for i, s in enumerate(fam.signals) if s.cells[: a.len] == key)


def signal_classes(fam: SignalFamily, a: Prefix) -> tuple[tuple[int, ...], ...]:
    """The partition of all indices by restriction at `a`, in first-appearance order."""
    groups: dict[RestrictionKey, list[int]] = {}
    for i, s in enumerate(fam.signals):
        groups.setdefault(s.cells[: a.len], []).append(i)
    return tuple(tuple(g) for g in groups.values())


def restriction_set(fam: SignalFamily, indices, a: Prefix) -> frozenset[RestrictionKey]:
    """Distinct restrictions of the chosen members; empty input yields the empty set."""
    return frozenset(fam.signals[i].cells[: a.len] for i in indices)
