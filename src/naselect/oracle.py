"""Brute-force ground truth for maximality, fixed-point, and feasibility claims.

Everything here enumerates rather than projects, so it can certify the fast
paths on desk-size instances.  The multiselector enumeration walks per-
disturbance subset assignments depth first, pruning a branch as soon as one
prefix equivalence class is provably violated; the visited stream is exactly
the set of chain-non-anticipative multiselectors.  Budgets cap the visited
assignments and are explicit errors, never silent truncation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from .errors import BudgetExceededError, ValidationError
from .multifunction import Instance, Multifunction
from .nonanticipation import meet_of_projections, project
from .timebase import PrefixChain


@dataclass(frozen=True)
class EnumBudget:
    """Work cap: subset assignments tried during enumeration."""

    max_multiselectors: int = 2**22

    def __post_init__(self) -> None:
        if self.max_multiselectors < 1:
            raise ValidationError("budget must be positive")


DEFAULT_BUDGET = EnumBudget()


def _subsets_popcount_desc(elems: list[int]) -> list[frozenset[int]]:
    return [
        frozenset(c)
        for r in range(len(elems), -1, -1)
        for c in itertools.combinations(elems, r)
    ]


class _SearchPlan:
    """Static data for the pruned enumeration of chain-non-anticipative multiselectors.

    Disturbances are visited in lexicographic signal order, which makes every
    prefix equivalence class a contiguous run: a member only ever needs to
    match the restriction keyset of its class's first member, already
    assigned.  Restriction keys are the families' prefix-index key ids.
    """

    def __init__(self, inst: Instance, h: PrefixChain, values: tuple[frozenset[int], ...]):
        inst.grid.check_prefix(h.prefixes[-1])
        index = inst.omega.prefix_index
        self.perm = index.order
        n = len(self.perm)
        self.subsets = [_subsets_popcount_desc(sorted(values[w])) for w in self.perm]
        # constraints[k] lists (earlier position, prefix slot) pairs to match;
        # keysets[k][slot][subset index] is a restriction key-id set, for the slots k is matched at
        self.constraints: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self.keysets: list[dict[int, list[frozenset[int]]]] = [{} for _ in range(n)]
        for slot, p in enumerate(h.prefixes):
            kid = inst.z.prefix_index.ids(p.len)
            first = 0
            for k, shared in enumerate(index.lcp, start=1):
                if shared < p.len:
                    first = k
                    continue
                self.constraints[k].append((first, slot))
                for pos in (first, k):
                    if slot not in self.keysets[pos]:
                        self.keysets[pos][slot] = [frozenset(kid[j] for j in s) for s in self.subsets[pos]]

    def assemble(self, chosen: list[int]) -> tuple[frozenset[int], ...]:
        out: list[frozenset[int]] = [frozenset()] * len(self.perm)
        for pos, w in enumerate(self.perm):
            out[w] = self.subsets[pos][chosen[pos]]
        return tuple(out)


def _walk(plan: _SearchPlan, budget: EnumBudget) -> Iterator[tuple[frozenset[int], ...]]:
    """Depth-first over positions with an explicit stack, so depth is not bounded by recursion.

    `untried[k]` is the next subset index to try at position k; every tried
    index counts against the budget, consistent or not.
    """
    n = len(plan.perm)
    chosen = [0] * n
    untried = [0] * (n + 1)
    nodes = 0
    k = 0
    while k >= 0:
        if k == n:
            yield plan.assemble(chosen)
            k -= 1
            continue
        si = untried[k]
        if si == len(plan.subsets[k]):
            k -= 1
            continue
        untried[k] = si + 1
        nodes += 1
        if nodes > budget.max_multiselectors:
            raise BudgetExceededError(
                f"enumeration exceeded {budget.max_multiselectors} subset assignments"
            )
        if all(
            plan.keysets[k][slot][si] == plan.keysets[rep][slot][chosen[rep]]
            for rep, slot in plan.constraints[k]
        ):
            chosen[k] = si
            k += 1
            untried[k] = 0


def enumerate_na_multiselectors(
    a: Multifunction, h: PrefixChain, budget: EnumBudget = DEFAULT_BUDGET
) -> Iterator[Multifunction]:
    """Every chain-non-anticipative multiselector of `a` exactly once, the all-empty one included.

    Per-disturbance subsets are tried with larger sets first, so a running
    join saturates early.
    """
    walk = _walk(_SearchPlan(a.instance, h, a.values), budget)
    return (Multifunction._trusted(a.instance, values) for values in walk)


def brute_greatest(
    a: Multifunction, h: PrefixChain, budget: EnumBudget = DEFAULT_BUDGET
) -> Multifunction:
    """Pointwise join of all chain-non-anticipative multiselectors of `a`.

    The meet of single-prefix projections bounds the join from above, so the
    walk stops as soon as the running join reaches it.
    """
    bound = meet_of_projections(a, h).values
    join = [frozenset()] * len(a.values)
    for values in _walk(_SearchPlan(a.instance, h, a.values), budget):
        join = [u | v for u, v in zip(join, values)]
        if tuple(join) == bound:
            break
    return Multifunction._trusted(a.instance, tuple(join))


@dataclass(frozen=True)
class FixpointRun:
    result: Multifunction
    sweeps: int  # total sweeps, the final unchanged one included
    changed_sweeps: int  # sweeps that shrank at least one value set


def fixpoint_iterate(
    a: Multifunction,
    h: PrefixChain,
    schedule: str = "descending",
    seed: int = 0,
    max_sweeps: int = 64,
) -> FixpointRun:
    """Sweep the single-prefix projections in a fixed order until nothing changes.

    Schedules: "descending" (largest prefix first, the order that needs only
    one changing sweep), "ascending", or a seeded "shuffled" order.  The
    stable point is the same for every schedule.
    """
    a.instance.grid.check_prefix(h.prefixes[-1])
    order = sorted(h.prefixes)
    if schedule == "descending":
        order = order[::-1]
    elif schedule == "shuffled":
        random.Random(seed).shuffle(order)
    elif schedule != "ascending":
        raise ValidationError(f"unknown schedule {schedule!r}")
    cur = a
    sweeps = 0
    changed = 0
    while True:
        sweeps += 1
        if sweeps > max_sweeps:
            raise BudgetExceededError(f"no fixed point within {max_sweeps} sweeps")
        nxt = cur
        for p in order:
            nxt = project(nxt, p)
        if nxt.values == cur.values:
            return FixpointRun(cur, sweeps, changed)
        changed += 1
        cur = nxt
