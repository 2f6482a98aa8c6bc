"""Brute-force ground truth for maximality and feasibility claims.

Everything here enumerates rather than projects, so it can certify the fast
paths on desk-size instances.  The multiselector enumeration walks per-
disturbance subset assignments depth first, pruning a branch as soon as one
prefix equivalence class is provably violated; the visited stream is exactly
the set of chain-non-anticipative multiselectors.  Budgets cap the tried
assignments, so they bound time, and are explicit errors, never silent
truncation; memory is the instance, its members listed once, and one subset
and its keysets per disturbance.
"""

from __future__ import annotations

import itertools
from operator import or_
from typing import Iterator, NamedTuple

from .errors import BudgetExceededError, ValidationError
from .multifunction import Instance, Multifunction
from .nonanticipation import meet_of_projections
from .timebase import PrefixChain


class EnumBudget(NamedTuple("EnumBudget", [("max_multiselectors", int)])):
    """Work cap: subset assignments tried during enumeration.

    It bounds time; memory stays the instance, its members listed once, and one subset
    and its keysets per disturbance.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    def __new__(cls, max_multiselectors: int = 2**22) -> EnumBudget:
        if max_multiselectors < 1:
            raise ValidationError("budget must be positive")
        return tuple.__new__(cls, (max_multiselectors,))


DEFAULT_BUDGET = EnumBudget()
READY = 32  # members a position holds as ints: more would be an int per member as wide as the family


def _walk(
    inst: Instance, h: PrefixChain, bits: tuple[int, ...], budget: EnumBudget
) -> Iterator[tuple[int, ...]]:
    """Depth-first over disturbances with an explicit stack, so depth is not bounded by recursion.

    Disturbances are visited in lexicographic signal order, which makes every
    prefix class of the chain a contiguous run: a member only ever needs to
    match the keyset (the run-top int `keys` gives) of its run's first member,
    already chosen.  Each position's subsets are generated when it is reached,
    larger ones first, as combinations of its members in index order; a subset
    becomes an int, the sum of its members' ints, only when tried, and every
    subset tried counts against the budget, consistent or not.
    """
    inst.grid.check_prefix(h.prefixes[-1])
    z = inst.z.prefix_index
    perm = inst.omega.prefix_index.order
    # checks[k]: (run-first position, prefix length) pairs that position k must match;
    # leads[k]: the prefix lengths at which position k is the first member of a run
    checks: list[list[tuple[int, int]]] = [[] for _ in perm]
    leads: list[list[int]] = [[] for _ in perm]
    for p in h.prefixes:
        for first, end in inst.omega.prefix_index.runs(p.len):
            leads[first].append(p.len)
            for k in range(first + 1, end):
                checks[k].append((first, p.len))

    # each position's members in index order: member j is the int 1 << 2·rank[j], held ready
    # where the position has at most READY members, else as its place 2·rank[j]
    members = [[2 * z.rank[j] for j in z.indices(bits[w])] for w in perm]
    members = [[1 << p for p in ps] if len(ps) <= READY else ps for ps in members]

    def subsets(pos: int) -> Iterator[int]:
        pool = members[pos]
        combos = itertools.chain.from_iterable(itertools.combinations(pool, r) for r in range(len(pool), -1, -1))
        if len(pool) <= READY:
            return map(sum, combos)
        return map(sum, map(map, itertools.repeat((1).__lshift__), combos))  # shift places when tried

    where = sorted(range(len(perm)), key=perm.__getitem__)  # position of each disturbance
    chosen = [0] * len(perm)
    keysets: list[dict[int, int]] = [{} for _ in perm]  # by prefix length, at run-first positions
    untried = [subsets(0)]  # one subset stream per open position, so position k is len(untried) - 1
    keys, cap = z.keys, budget.max_multiselectors
    nodes = 0
    while untried:
        k = len(untried) - 1
        for v in untried[k]:  # resumed where it stopped when the walk backs up to position k
            nodes += 1
            if nodes > cap:
                raise BudgetExceededError(f"enumeration exceeded {cap} subset assignments")
            for first, length in checks[k]:
                if keys(v, length) != keysets[first][length]:
                    break
            else:
                chosen[k] = v
                keysets[k] = {length: keys(v, length) for length in leads[k]}
                if k + 1 < len(perm):
                    untried.append(subsets(k + 1))
                    break
                yield tuple(map(chosen.__getitem__, where))
        else:
            untried.pop()


def brute_greatest(
    a: Multifunction, h: PrefixChain, budget: EnumBudget = DEFAULT_BUDGET
) -> Multifunction:
    """Pointwise join of all chain-non-anticipative multiselectors of `a`.

    The meet of single-prefix projections bounds the join from above, so the
    walk stops as soon as the running join reaches it.
    """
    bound = meet_of_projections(a, h).bits
    join = (0,) * len(a.bits)
    for bits in _walk(a.instance, h, a.bits, budget):
        join = tuple(map(or_, join, bits))
        if join == bound:
            break
    return Multifunction._trusted(a.instance, join)
