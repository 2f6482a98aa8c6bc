"""Set-valued maps from disturbances to trajectory index sets, with their lattice.

A multifunction assigns each disturbance of an instance a (possibly empty)
set of trajectory indices.  Entrywise inclusion is a partial order; the
entrywise union and intersection are its join and meet, `|` and `&` on the
ints that hold the sets; cross-instance operations are hard errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import and_, or_
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


@dataclass(frozen=True, init=False)
class Multifunction:
    """One trajectory index set per disturbance of `instance`: `bits[w]` is the set at w as one int,
    laid out by the z family's `PrefixIndex`, and `values`, as frozensets, is built on first use."""

    instance: Instance
    bits: tuple[int, ...]

    def __init__(self, instance: Instance, values: Iterable[Iterable[int]]) -> None:
        self.__dict__.update(instance=instance, values=values)
        self.__post_init__()

    def __post_init__(self) -> None:
        values = self.__dict__["values"] = tuple(frozenset(v) for v in self.values)
        if len(values) != len(self.instance.omega):
            raise ValidationError("multifunction needs exactly one value set per disturbance")
        n = len(self.instance.z)
        for v in values:
            for j in v:
                if not 0 <= j < n:
                    raise ValidationError(f"trajectory index {j} out of range 0..{n - 1}")
        object.__setattr__(self, "bits", tuple(map(self.instance.z.prefix_index.pack, values)))

    @cached_property
    def values(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, self.instance.z.prefix_index.select_all(range(len(self.instance.z)), self.bits)))

    @classmethod
    def _trusted(cls, instance: Instance, bits: tuple[int, ...]) -> Multifunction:
        """Wrap sets the library built itself: one int of in-range bits per disturbance, unchecked."""
        out = object.__new__(cls)
        out.__dict__.update(instance=instance, bits=bits)
        return out


def _same_instance(a: Multifunction, b: Multifunction) -> None:
    if a.instance is not b.instance and a.instance != b.instance:
        raise InstanceMismatchError("multifunctions belong to different instances")


def mf_le(a: Multifunction, b: Multifunction) -> bool:
    """Entrywise inclusion: every value of `a` inside the matching value of `b`."""
    _same_instance(a, b)
    return all(x & y == x for x, y in zip(a.bits, b.bits))


def _entrywise(ms: Iterable[Multifunction], op, what: str) -> Multifunction:
    ms = list(ms)
    if not ms:
        raise ValidationError(f"{what} needs at least one multifunction")
    first = ms[0]
    out = first.bits
    for m in ms[1:]:
        _same_instance(first, m)
        out = tuple(map(op, out, m.bits))
    return Multifunction._trusted(first.instance, out)


def mf_join(ms: Iterable[Multifunction]) -> Multifunction:
    """Entrywise union; the supremum of a non-empty set of multifunctions."""
    return _entrywise(ms, or_, "join")


def mf_meet(ms: Iterable[Multifunction]) -> Multifunction:
    """Entrywise intersection; the infimum of a non-empty set of multifunctions."""
    return _entrywise(ms, and_, "meet")


def dom(a: Multifunction) -> frozenset[int]:
    """Disturbance indices with non-empty value sets."""
    return frozenset(i for i, v in enumerate(a.bits) if v)


def is_total(a: Multifunction) -> bool:
    """True when every disturbance keeps at least one trajectory."""
    return all(a.bits)


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
    return dict(zip(inst.omega.names, map(list, inst.z.prefix_index.select_all(inst.z.names, a.bits))))
