"""Set-valued maps from disturbances to trajectory index sets, with their lattice.

A multifunction assigns each disturbance of an instance a (possibly empty)
set of trajectory indices.  Entrywise inclusion is a partial order, and
entrywise intersection, `&` on the ints that hold the sets, is its meet;
cross-instance operations are hard errors.
"""

from __future__ import annotations

from functools import cached_property
from operator import and_
from typing import Iterable, Mapping, NamedTuple

from .errors import InstanceMismatchError, ValidationError
from .signals import Record, SignalFamily
from .timebase import TimeGrid


class Instance(NamedTuple("Instance", [("grid", TimeGrid), ("omega", SignalFamily), ("z", SignalFamily)])):
    """A grid with its disturbance family `omega` and its trajectory family `z`: a family's side is its field."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    def __new__(cls, grid: TimeGrid, omega: SignalFamily, z: SignalFamily) -> Instance:
        for side, fam in (("disturbance", omega), ("trajectory", z)):
            if fam.width != grid.cells:
                raise ValidationError(f"{side} signals have {fam.width} cells, the grid has {grid.cells}")
        return tuple.__new__(cls, (grid, omega, z))


class Multifunction(Record):
    """One trajectory index set per disturbance of `instance`: `bits[w]` is the set at w as one int,
    laid out by the z family's `PrefixIndex`, and `values`, as frozensets, is built on first use."""

    _fields = ("instance", "bits")

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
                if type(j) is not int or not 0 <= j < n:  # bool, float and str indices are rejected too
                    raise ValidationError(f"trajectory index {j!r} out of range 0..{n - 1}")
        self.__dict__["bits"] = tuple(map(self.instance.z.prefix_index.pack, values))

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


def mf_meet(ms: Iterable[Multifunction]) -> Multifunction:
    """Entrywise intersection; the infimum of a non-empty set of multifunctions."""
    ms = iter(ms)
    first = next(ms, None)
    if first is None:
        raise ValidationError("meet needs at least one multifunction")
    out = first.bits
    for m in ms:
        _same_instance(first, m)
        out = tuple(map(and_, out, m.bits))
    return Multifunction._trusted(first.instance, out)


def dom(a: Multifunction) -> frozenset[int]:
    """Disturbance indices with non-empty value sets."""
    return frozenset(i for i, v in enumerate(a.bits) if v)


def is_total(a: Multifunction) -> bool:
    """True when every disturbance keeps at least one trajectory."""
    return all(a.bits)


def mf_by_names(inst: Instance, mapping: Mapping[str, Iterable[str]]) -> Multifunction:
    """Build a multifunction from name-keyed trajectory lists; absent names map to nothing."""
    values = []
    for name in inst.omega.names:
        zs = mapping.get(name, ())
        values.append(frozenset(inst.z.index_of(z) for z in zs))
    return Multifunction(inst, tuple(values))

