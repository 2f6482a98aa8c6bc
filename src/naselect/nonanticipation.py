"""Non-anticipativity: predicates, the prefix projection, chain composition, feasibility.

A multifunction is non-anticipative at a prefix when disturbances that agree
on the prefix receive value sets with identical restriction sets there.  The
projection at a prefix keeps, in each value set, exactly the trajectories
whose restriction survives intersecting the restriction sets over the whole
equivalence class of the disturbance; it is the greatest multiselector that
is non-anticipative at that prefix.

Composing projections along a partition's chain of prefixes, largest first,
yields the greatest multiselector non-anticipative at every prefix of the
chain; its last prefix is the full one, where every class has one member, so
it narrows nothing.  The descending order matters: projections at different
prefixes do not commute, and the projection is not monotone in the prefix.
Feasibility of a partition's step-by-step conditions reduces to the composed
multiselector keeping every value set non-empty.

Emptiness is legal everywhere and propagates silently; it is a diagnostic
signal surfaced by `dom`/`is_total`, not an error.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import NamedTuple

from .multifunction import Instance, Multifunction, is_total, mf_meet
from .signals import RestrictionKey
from .timebase import Partition


class NaWitness(NamedTuple):
    """A violating pair: two disturbances agreeing on the first `prefix` cells whose value sets differ there.

    `key` is a restriction present for exactly one of them; `key_holder` says which.
    """

    prefix: int
    omega: int
    omega_prime: int
    key: RestrictionKey
    key_holder: int


class NaReport(NamedTuple("NaReport", [("holds", bool), ("witness", NaWitness | None)])):
    """Whether a check holds, true exactly when it has no `witness`; the report is truthy when it holds."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    def __new__(cls, holds: bool, witness: NaWitness | None = None) -> NaReport:
        assert holds == (witness is None)
        return tuple.__new__(cls, (holds, witness))

    def __bool__(self) -> bool:
        return self.holds


def _keysets(inst: Instance, values, length: int):
    """Per class of two or more disturbances at `length` cells: the class and its members' keysets, as ints."""
    keys = inst.z.prefix_index.keys
    for cls in inst.omega.prefix_index.classes(length):
        yield cls, [keys(values[w], length) for w in cls]


def is_prefix_na(a: Multifunction, n: int) -> NaReport:
    """Check non-anticipativity at the prefix of `n` cells, stopping at the first failing class.

    Every member of a class must share the restriction set of the class's
    first member.  On failure the witness is the lexicographically smallest
    violating pair of disturbance indices, which is that first member and
    the first member that differs from it in the first failing class, with
    the smallest restriction key present on one side only.
    """
    a.instance.grid.check_prefix(n)
    return _na_level(a, n)


def _na_level(a: Multifunction, length: int) -> NaReport:
    for cls, keysets in _keysets(a.instance, a.bits, length):
        r, ref = cls[0], keysets[0]
        for w, keys in zip(cls[1:], keysets[1:]):
            if one_sided := ref ^ keys:
                top = (one_sided & -one_sided).bit_length() - 1  # the lowest run top: runs ascend with their keys
                key = a.instance.z.prefix_index.sorted_cells[top >> 1][:length]
                return NaReport(False, NaWitness(length, r, w, key, r if ref >> top & 1 else w))
    return NaReport(True)


def is_chain_na(a: Multifunction, delta: Partition) -> NaReport:
    """Non-anticipativity at every prefix of the partition's chain; the shortest failing prefix is reported."""
    a.instance.grid.check_partition(delta)
    return next((r for n in delta.indices[1:] if not (r := _na_level(a, n))), NaReport(True))


def project(a: Multifunction, n: int) -> Multifunction:
    """Greatest multiselector of `a` that is non-anticipative at the prefix of `n` cells.

    Each value set keeps the trajectories whose restriction to it lies in
    the intersection of the restriction sets over the disturbance's
    equivalence class.  The intersection is computed once per class and
    reused for all members.
    """
    a.instance.grid.check_prefix(n)
    return _narrowed(a, [n])


def compose_chain(a: Multifunction, delta: Partition) -> Multifunction:
    """Project along the partition's chain, largest prefix first: the greatest chain-non-anticipative multiselector.

    Exactly one projection pass per chain element; descending order is what
    makes a single sweep sufficient.  `a` keeps each chain's result in its
    `_composed` dict, outside equality, hash and repr, so a multifunction is
    swept at most once per chain and the results go when `a` does.
    """
    a.instance.grid.check_partition(delta)
    composed = a.__dict__.setdefault("_composed", {})
    if delta not in composed:
        composed[delta] = _narrowed(a, reversed(delta.indices[1:]))
    return composed[delta]


def _narrowed(a: Multifunction, lengths) -> Multifunction:
    """`a` projected at each prefix length in turn: per class, every value set keeps the runs all members meet."""
    out = list(a.bits)
    for length in lengths:
        for cls, keysets in _keysets(a.instance, out, length):
            core = reduce(and_, keysets)
            if keysets.count(core) < len(cls):
                keep = a.instance.z.prefix_index.fill(core, length)
                for w in cls:
                    out[w] &= keep
    return Multifunction._trusted(a.instance, tuple(out))


def meet_of_projections(a: Multifunction, delta: Partition) -> Multifunction:
    """Entrywise meet of the single-prefix projections: an upper bound diagnostic.

    Every chain-non-anticipative multiselector of `a` sits below this meet,
    so a non-total meet rules out non-empty-valued chain-non-anticipative
    multiselectors altogether.
    """
    a.instance.grid.check_partition(delta)
    return mf_meet(project(a, n) for n in delta.indices[1:])


def canonical_chain(inst: Instance) -> Partition:
    """The partition at the sorted, deduplicated longest agreement prefixes over all disturbance pairs.

    In lexicographic order the agreement of any two signals is the smallest
    agreement of the neighbouring pairs between them, so the neighbours give
    every length; family signals are distinct, so neighbours differ at some
    cell.  Each signal paired with itself contributes the full prefix, so the
    partition ends at the final stamp; pairs that disagree on cell 0 contribute nothing.
    """
    lens = {inst.grid.cells, *inst.omega.prefix_index.lcp} - {0}
    return Partition((0, *sorted(lens)))


def greatest_na(a: Multifunction) -> Multifunction:
    """Greatest multiselector of `a` non-anticipative at every prefix of the grid.

    With finitely many disturbances, composing projections along the
    canonical chain is enough; prefixes outside it never separate any pair.
    """
    return compose_chain(a, canonical_chain(a.instance))


def feasible(a: Multifunction, delta: Partition) -> tuple[bool, Multifunction]:
    """Decide the step-by-step conditions of `a` under `delta`.

    Returns (is_total(g), g) with g the greatest chain-non-anticipative
    multiselector.  When total, g can serve as every step's selection
    multifunction; else it is the witness `InfeasibleError` carries.
    """
    g = compose_chain(a, delta)
    return is_total(g), g
