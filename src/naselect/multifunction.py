"""Set-valued maps from disturbances to trajectory index sets, with their lattice.

A multifunction assigns each disturbance of an instance a (possibly empty)
set of trajectory indices.  Entrywise inclusion is a partial order; the
entrywise union and intersection are its join and meet.  Values are exact
integer sets; cross-instance operations are hard errors, never coercions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InstanceMismatchError, ValidationError
from .signals import ROLE_DISTURBANCE, ROLE_TRAJECTORY, SignalFamily
from .timebase import TimeGrid


@dataclass(frozen=True)
class Instance:
    """A grid with its disturbance and trajectory families."""

    grid: TimeGrid
    omega: SignalFamily
    z: SignalFamily

    def __post_init__(self) -> None:
        if self.omega.role != ROLE_DISTURBANCE:
            raise ValidationError("the omega family must have the disturbance role")
        if self.z.role != ROLE_TRAJECTORY:
            raise ValidationError("the z family must have the trajectory role")
        for fam in (self.omega, self.z):
            if fam.width != self.grid.cells:
                raise ValidationError(
                    f"{fam.role} signals have {fam.width} cells, the grid has {self.grid.cells}"
                )


@dataclass(frozen=True)
class Multifunction:
    """One trajectory index set per disturbance of `instance`."""

    instance: Instance
    values: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(frozenset(v) for v in self.values))
        if len(self.values) != len(self.instance.omega):
            raise ValidationError("multifunction needs exactly one value set per disturbance")
        n = len(self.instance.z)
        for v in self.values:
            for j in v:
                if not 0 <= j < n:
                    raise ValidationError(f"trajectory index {j} out of range 0..{n - 1}")

    @classmethod
    def _trusted(cls, instance: Instance, values: tuple[frozenset[int], ...]) -> Multifunction:
        """Wrap values the library built itself: one in-range frozenset per disturbance, unchecked."""
        out = object.__new__(cls)
        out.__dict__.update(instance=instance, values=values)
        return out


def _same_instance(a: Multifunction, b: Multifunction) -> None:
    if a.instance is not b.instance and a.instance != b.instance:
        raise InstanceMismatchError("multifunctions belong to different instances")


def mf_le(a: Multifunction, b: Multifunction) -> bool:
    """Entrywise inclusion: every value of `a` inside the matching value of `b`."""
    _same_instance(a, b)
    return all(x <= y for x, y in zip(a.values, b.values))


def _entrywise(ms: Iterable[Multifunction], op, what: str) -> Multifunction:
    ms = list(ms)
    if not ms:
        raise ValidationError(f"{what} needs at least one multifunction")
    first = ms[0]
    out = first.values
    for m in ms[1:]:
        _same_instance(first, m)
        out = tuple(map(op, out, m.values))
    return Multifunction._trusted(first.instance, out)


def mf_join(ms: Iterable[Multifunction]) -> Multifunction:
    """Entrywise union; the supremum of a non-empty set of multifunctions."""
    return _entrywise(ms, frozenset.union, "join")


def mf_meet(ms: Iterable[Multifunction]) -> Multifunction:
    """Entrywise intersection; the infimum of a non-empty set of multifunctions."""
    return _entrywise(ms, frozenset.intersection, "meet")


def dom(a: Multifunction) -> frozenset[int]:
    """Disturbance indices with non-empty value sets."""
    return frozenset(i for i, v in enumerate(a.values) if v)


def is_total(a: Multifunction) -> bool:
    """True when every disturbance keeps at least one trajectory."""
    return all(a.values)


def full_multifunction(inst: Instance) -> Multifunction:
    """The top element: every disturbance maps to all trajectories."""
    everything = frozenset(range(len(inst.z)))
    return Multifunction(inst, tuple(everything for _ in range(len(inst.omega))))


def mf_by_names(inst: Instance, mapping: Mapping[str, Iterable[str]]) -> Multifunction:
    """Build a multifunction from name-keyed trajectory lists; absent names map to nothing."""
    values = []
    for name in inst.omega.names:
        zs = mapping.get(name, ())
        values.append(frozenset(inst.z.index_of(z) for z in zs))
    return Multifunction(inst, tuple(values))


def mf_to_names(a: Multifunction) -> dict[str, list[str]]:
    """Name-keyed view of the value sets, each list in trajectory index order."""
    inst = a.instance
    return {
        inst.omega.names[i]: list(map(inst.z.names.__getitem__, sorted(v)))
        for i, v in enumerate(a.values)
    }
