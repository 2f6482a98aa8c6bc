"""Non-anticipativity: predicates, the prefix projection, chain composition, feasibility.

A multifunction is non-anticipative at a prefix when disturbances that agree
on the prefix receive value sets with identical restriction sets there.  The
projection at a prefix keeps, in each value set, exactly the trajectories
whose restriction survives intersecting the restriction sets over the whole
equivalence class of the disturbance; it is the greatest multiselector that
is non-anticipative at that prefix.

Composing projections along a chain of prefixes, largest first, yields the
greatest multiselector non-anticipative at every prefix of the chain.  The
descending order matters: projections at different prefixes do not commute,
and the projection is not monotone in the prefix.  Feasibility of a
partition's step-by-step conditions reduces to the composed multiselector
keeping every value set non-empty.

Emptiness is legal everywhere and propagates silently; it is a diagnostic
signal surfaced by `dom`/`is_total`, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .multifunction import Instance, Multifunction, is_total, mf_meet
from .signals import RestrictionKey
from .timebase import (
    Partition,
    Prefix,
    PrefixChain,
    partition_to_chain,
)


@dataclass(frozen=True)
class NaWitness:
    """A violating pair: two disturbances agreeing on `prefix` whose value sets differ there.

    `key` is a restriction present for exactly one of them; `key_holder` says which.
    """

    prefix: Prefix
    omega: int
    omega_prime: int
    key: RestrictionKey
    key_holder: int


@dataclass(frozen=True)
class NaReport:
    holds: bool
    witness: NaWitness | None = None

    def __post_init__(self) -> None:
        assert self.holds == (self.witness is None)

    def __bool__(self) -> bool:
        return self.holds


def _walk(inst: Instance, values, prefixes):
    """Per prefix, longest first: the prefix and its classes of two or more disturbances with their keysets.

    A keyset is the restriction set of a value set, as z key ids.  Classes
    only merge as the prefix shortens, so a member of a class of two or more
    either sat in one at the previous prefix, and its keyset there is
    coarsened, or has sat alone so far and kept its value set, which is read.
    A consumer that narrows `values[w]` puts its new keyset in the yielded
    list before the walk resumes.
    """
    z = inst.z.prefix_index
    prev_len, prev = 0, {}
    for p in prefixes:
        key_id, to_short = z.ids(p.len), z.coarsen(prev_len, p.len) if prev else None
        level = [
            (cls, [{key_id[j] for j in values[w]} if (keys := prev.get(w)) is None
                   else {to_short[k] for k in keys} for w in cls])
            for cls in inst.omega.prefix_index.classes(p.len).values()
            if len(cls) > 1
        ]
        yield p, level
        prev_len, prev = p.len, {w: keys for cls, keysets in level for w, keys in zip(cls, keysets)}


def _project_level(values: list, level, key_id: list[int]) -> None:
    """Narrow `values` in place to each class's core, the keys all members hold; it becomes their keyset."""
    for cls, keysets in level:
        core = set.intersection(*keysets)
        for i, w in enumerate(cls):
            if len(keysets[i]) != len(core):
                values[w] = frozenset([j for j in values[w] if key_id[j] in core])
                keysets[i] = core


def _na_level(inst: Instance, p: Prefix, level) -> NaReport:
    """Non-anticipativity at `p` from its level of `_walk`, with `is_prefix_na`'s witness."""
    for cls, keysets in level:
        r, ref = cls[0], keysets[0]
        for w, keys in zip(cls[1:], keysets[1:]):
            if keys != ref:
                kid, z = min(ref ^ keys), inst.z.prefix_index
                key = z.sorted_cells[z.starts(p.len)[kid]][: p.len]
                return NaReport(False, NaWitness(p, r, w, key, r if kid in ref else w))
    return NaReport(True)


def _na_reports(a: Multifunction, prefixes):
    """Each prefix, in the order given, with its `is_prefix_na` report; longest first coarsens keysets."""
    for p, level in _walk(a.instance, a.values, prefixes):
        yield p, _na_level(a.instance, p, level)


def is_prefix_na(a: Multifunction, p: Prefix) -> NaReport:
    """Check non-anticipativity at one prefix.

    Every member of a class must share the restriction set of the class's
    first member.  On failure the witness is the lexicographically smallest
    violating pair of disturbance indices, which is that first member and
    the first member that differs from it in the first failing class, with
    the smallest restriction key present on one side only.
    """
    a.instance.grid.check_prefix(p)
    return next(_na_reports(a, [p]))[1]


def is_chain_na(a: Multifunction, h: PrefixChain) -> NaReport:
    """Non-anticipativity at every chain prefix, in one walk; the shortest failing prefix is reported."""
    a.instance.grid.check_prefix(h.prefixes[-1])
    failing = [r for _, r in _na_reports(a, reversed(h.prefixes)) if not r.holds]
    return failing[-1] if failing else NaReport(True)


def project(a: Multifunction, p: Prefix) -> Multifunction:
    """Greatest multiselector of `a` that is non-anticipative at `p`.

    Each value set keeps the trajectories whose restriction at `p` lies in
    the intersection of the restriction sets over the disturbance's
    equivalence class.  The intersection is computed once per class and
    reused for all members.
    """
    a.instance.grid.check_prefix(p)
    out = list(a.values)
    _, level = next(_walk(a.instance, out, [p]))
    _project_level(out, level, a.instance.z.prefix_index.ids(p.len))
    return Multifunction._trusted(a.instance, tuple(out))


def compose_chain(a: Multifunction, h: PrefixChain) -> Multifunction:
    """Project along the chain, largest prefix first: the greatest chain-non-anticipative multiselector.

    Exactly one projection pass per chain element; descending order is what
    makes a single sweep sufficient.  Each pass coarsens the keysets the
    previous one left.
    """
    a.instance.grid.check_prefix(h.prefixes[-1])
    out = list(a.values)
    for p, level in _walk(a.instance, out, reversed(h.prefixes)):
        _project_level(out, level, a.instance.z.prefix_index.ids(p.len))
    return Multifunction._trusted(a.instance, tuple(out))


def meet_of_projections(a: Multifunction, h: PrefixChain) -> Multifunction:
    """Entrywise meet of the single-prefix projections: an upper bound diagnostic.

    Every chain-non-anticipative multiselector of `a` sits below this meet,
    so a non-total meet rules out non-empty-valued chain-non-anticipative
    multiselectors altogether.
    """
    a.instance.grid.check_prefix(h.prefixes[-1])
    return mf_meet(project(a, p) for p in h.prefixes)


def canonical_chain(inst: Instance) -> PrefixChain:
    """Sorted, deduplicated longest agreement prefixes over all disturbance pairs.

    In lexicographic order the agreement of any two signals is the smallest
    agreement of the neighbouring pairs between them, so the neighbours give
    every length; family signals are distinct, so neighbours differ at some
    cell.  Each signal paired with itself contributes the full prefix, so the
    chain is never empty; pairs that disagree on cell 0 contribute nothing.
    """
    lens = {inst.grid.cells, *inst.omega.prefix_index.lcp} - {0}
    return PrefixChain(tuple(Prefix(k) for k in sorted(lens)))


def greatest_na(a: Multifunction) -> Multifunction:
    """Greatest multiselector of `a` non-anticipative at every prefix of the grid.

    With finitely many disturbances, composing projections along the
    canonical chain is enough; prefixes outside it never separate any pair.
    """
    return compose_chain(a, canonical_chain(a.instance))


def feasible(a: Multifunction, delta: Partition) -> tuple[bool, Multifunction | None]:
    """Decide the step-by-step conditions of `a` under `delta`.

    Returns (True, witness) with the greatest chain-non-anticipative
    multiselector when it is non-empty-valued, else (False, None).  The
    witness can serve as every step's selection multifunction.
    """
    g = compose_chain(a, partition_to_chain(a.instance.grid, delta))
    if is_total(g):
        return True, g
    return False, None
