"""Shared strategies and naive reference implementations for the test suite.

The naive helpers deliberately re-implement the definitions pair by pair,
with none of the library's class grouping or pruning, so they can serve as
independent oracles.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import strategies as st

from naselect import (
    Instance,
    Multifunction,
    Partition,
    Prefix,
    PrefixChain,
    RhoSearchResult,
    full_prefix_chain,
    greatest_na,
    is_total,
    partition_to_chain,
    random_instance,
    restrict,
)
from naselect.scenarios import _control_family, integrate


@st.composite
def small_instances(draw, max_omega=4, max_z=6, max_cells=4, min_omega=1):
    """A seeded random instance with its multifunction."""
    n_cells = draw(st.integers(2, max_cells))
    alphabet = draw(st.integers(2, 3))
    cap = alphabet**n_cells
    n_omega = draw(st.integers(min_omega, min(max_omega, cap)))
    n_z = draw(st.integers(1, min(max_z, cap)))
    density = draw(st.sampled_from([0.2, 0.35, 0.5, 0.65, 0.8]))
    seed = draw(st.integers(0, 10**6))
    return random_instance(seed, n_omega, n_z, n_cells, alphabet, density)


@st.composite
def instance_with_prefix(draw, **kwargs):
    inst, a = draw(small_instances(**kwargs))
    p = Prefix(draw(st.integers(1, inst.grid.cells)))
    return inst, a, p


@st.composite
def instance_with_chain(draw, **kwargs):
    inst, a = draw(small_instances(**kwargs))
    everything = full_prefix_chain(inst.grid).prefixes
    picked = draw(st.sets(st.sampled_from(everything), min_size=1))
    return inst, a, PrefixChain(tuple(sorted(picked)))


def counting(monkeypatch, name, modules):
    """Rebind `name` in every module to a wrapper that records each call's arguments."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*a):
        calls.append(a)
        return original(*a)

    for mod in modules:
        monkeypatch.setattr(mod, name, counted)
    return calls


def bits_of(a: Multifunction) -> int:
    return sum(len(v) for v in a.values)


def naive_is_prefix_na(a: Multifunction, p: Prefix) -> bool:
    """Pairwise definition, no class grouping."""
    inst = a.instance
    n = len(inst.omega)
    for i in range(n):
        for j in range(n):
            if restrict(inst.omega.signals[i], p) != restrict(inst.omega.signals[j], p):
                continue
            left = {restrict(inst.z.signals[h], p) for h in a.values[i]}
            right = {restrict(inst.z.signals[h], p) for h in a.values[j]}
            if left != right:
                return False
    return True


def naive_is_chain_na(a: Multifunction, h: PrefixChain) -> bool:
    return all(naive_is_prefix_na(a, p) for p in h.prefixes)


def naive_project(a: Multifunction, p: Prefix) -> Multifunction:
    """Per-disturbance evaluation of the defining formula, recomputed each time."""
    inst = a.instance
    out = []
    for i in range(len(inst.omega)):
        cls = [
            j
            for j in range(len(inst.omega))
            if restrict(inst.omega.signals[j], p) == restrict(inst.omega.signals[i], p)
        ]
        keysets = [
            {restrict(inst.z.signals[h], p) for h in a.values[j]} for j in cls
        ]
        core = set.intersection(*keysets)
        out.append(
            frozenset(h for h in a.values[i] if restrict(inst.z.signals[h], p) in core)
        )
    return Multifunction(inst, tuple(out))


def naive_enumerate_na(a: Multifunction, h: PrefixChain) -> list[tuple[frozenset[int], ...]]:
    """Full product of entrywise subsets filtered by the pairwise predicate."""
    per = [
        [frozenset(c) for r in range(len(v) + 1) for c in itertools.combinations(sorted(v), r)]
        for v in a.values
    ]
    out = []
    for combo in itertools.product(*per):
        cand = Multifunction(a.instance, combo)
        if naive_is_chain_na(cand, h):
            out.append(cand.values)
    return out


def naive_consistent_tuples(inst, chain: PrefixChain) -> list[tuple[int, ...]]:
    """Every disturbance tuple whose consecutive entries agree on the earlier step's prefix."""
    n = len(chain.prefixes)
    omega = inst.omega.signals
    return [
        t
        for t in itertools.product(range(len(omega)), repeat=n)
        if all(
            restrict(omega[t[i]], chain.prefixes[i]) == restrict(omega[t[i + 1]], chain.prefixes[i])
            for i in range(n - 1)
        )
    ]


def naive_tuple_violations(phis, chain: PrefixChain, t: tuple[int, ...]) -> set[tuple[str, int]]:
    """(kind, step) of every step condition the tuple breaks, steps counted from 1."""
    z = phis[0].instance.z.signals
    out = set()
    for i, w in enumerate(t):
        if not phis[i].values[w]:
            out.add(("empty-value", i + 1))
    for i in range(len(t) - 1):
        p = chain.prefixes[i]
        left = {restrict(z[h], p) for h in phis[i].values[t[i]]}
        right = {restrict(z[h], p) for h in phis[i + 1].values[t[i + 1]]}
        if left != right:
            out.add(("restriction-mismatch", i + 1))
    return out


def naive_verify_witness(phis, delta: Partition, a: Multifunction) -> bool:
    """Every entry below `a` and no consistent tuple, enumerated in full, breaks a condition."""
    if not all(v <= t for phi in phis for v, t in zip(phi.values, a.values)):
        return False
    chain = partition_to_chain(a.instance.grid, delta)
    tuples = naive_consistent_tuples(a.instance, chain)
    return not any(naive_tuple_violations(phis, chain, t) for t in tuples)


def naive_na_witness(a: Multifunction, p: Prefix):
    """The lex-first violating pair, its smallest one-sided key and that key's holder, or None."""
    inst = a.instance
    n = len(inst.omega)
    for i in range(n):
        for j in range(i + 1, n):
            if restrict(inst.omega.signals[i], p) != restrict(inst.omega.signals[j], p):
                continue
            left = {restrict(inst.z.signals[h], p) for h in a.values[i]}
            right = {restrict(inst.z.signals[h], p) for h in a.values[j]}
            if left != right:
                key = min(left ^ right)
                return i, j, key, i if key in left else j
    return None


def naive_alpha_rho(sys, rho):
    """Responses at cost level `rho`, integrating every (control, disturbance) pair on each call."""
    z = _control_family(sys)
    inst = Instance(sys.grid, sys.disturbances, z)
    values = tuple(
        frozenset(j for j, u in enumerate(z.signals) if abs(integrate(sys, u, v)) >= -rho)
        for v in sys.disturbances.signals
    )
    return inst, Multifunction(inst, values)


def naive_optimal_rho(sys) -> RhoSearchResult:
    """Downward linear scan over the achievable levels, rebuilding the responses per candidate."""
    z = _control_family(sys).signals
    achievable = {-abs(integrate(sys, u, v)) for u in z for v in sys.disturbances.signals}
    tried, best = [], None
    for rho in sorted(achievable | {Fraction(0)}, reverse=True):
        tried.append(rho)
        w = greatest_na(naive_alpha_rho(sys, rho)[1])
        if not is_total(w):
            break
        best = (rho, w)
    return RhoSearchResult(best[0], tuple(tried), best[1])
