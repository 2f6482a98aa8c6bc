"""Shared strategies and naive reference implementations for the test suite.

The naive helpers deliberately re-implement the definitions pair by pair,
with none of the library's class grouping or pruning, so they can serve as
independent oracles.  The oracle's multiselector stream and the fixpoint
sweeps are references the library itself does not call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from typing import Iterator, NamedTuple

from hypothesis import strategies as st

from naselect import (
    BudgetExceededError,
    EnumBudget,
    Instance,
    Multifunction,
    Partition,
    RhoSearchResult,
    SignalFamily,
    ValidationError,
    full_partition,
    grid,
    greatest_na,
    is_total,
    project,
    random_instance,
)
from naselect.oracle import DEFAULT_BUDGET, _walk
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
def edge_instances(draw):
    """Small instances drawn cell by cell, edge shapes included.

    One cell, a one-token alphabet (hence one signal per family), empty
    value sets and families that fill their whole signal space all occur.
    """
    n_cells = draw(st.integers(1, 3))
    tokens = "abc"[: draw(st.integers(1, 3))]
    space = list(itertools.product(tokens, repeat=n_cells))

    def family(prefix, most):
        most = min(most, len(space))
        cells = draw(st.lists(st.sampled_from(space), min_size=1, max_size=most, unique=True))
        names = tuple(f"{prefix}{i}" for i in range(len(cells)))
        return SignalFamily(names, tuple(cells))

    omega = family("w", 7)
    z = family("h", 8)
    inst = Instance(grid(*range(n_cells + 1)), omega, z)
    values = draw(
        st.lists(
            st.frozensets(st.integers(0, len(z) - 1)), min_size=len(omega), max_size=len(omega)
        )
    )
    return inst, Multifunction(inst, tuple(values))


# Names and tokens that JSON must escape: quotes, backslashes, control
# characters, U+2028 and non-ASCII text.
hostile_text = st.text(st.sampled_from('"\\\x00\x1f\n\t\u2028\u00e9\u4e2d\U0001f600ab/ '), min_size=1, max_size=4)


@st.composite
def hostile_instances(draw, text=hostile_text, **kwargs):
    """A small random instance with every name and token renamed to `text`, hostile by default."""
    inst, mf = draw(small_instances(**kwargs))
    tokens = sorted({t for fam in (inst.omega, inst.z) for s in fam.signals for t in s})
    sizes = [len(inst.omega), len(inst.z), len(tokens)]
    new = [draw(st.lists(text, min_size=n, max_size=n, unique=True)) for n in sizes]
    rename = dict(zip(tokens, new[2]))

    def family(fam, names):
        signals = tuple(tuple(map(rename.get, s)) for s in fam.signals)
        return SignalFamily(tuple(names), signals)

    hostile = Instance(inst.grid, family(inst.omega, new[0]), family(inst.z, new[1]))
    return hostile, Multifunction(hostile, mf.values)


@st.composite
def instance_with_prefix(draw, **kwargs):
    inst, a = draw(small_instances(**kwargs))
    p = draw(st.integers(1, inst.grid.cells))
    return inst, a, p


@st.composite
def instance_with_chain(draw, **kwargs):
    """A small random instance, its multifunction, and a partition of its grid."""
    inst, a = draw(small_instances(**kwargs))
    picked = draw(st.sets(st.integers(1, inst.grid.cells - 1)))
    return inst, a, Partition((0, *sorted(picked), inst.grid.cells))


def counting(monkeypatch, name, modules):
    """Rebind `name` in every module to a wrapper that records each call's arguments."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*a, **kw):
        calls.append(a)
        return original(*a, **kw)

    for mod in modules:
        monkeypatch.setattr(mod, name, counted)
    return calls


def partition_of(g, lens) -> Partition:
    """The partition at the prefix lengths `lens` and the full prefix: the chain `lens` itself, since at the full
    prefix every class has one member, so that prefix narrows no value set and fails no check."""
    return Partition((0, *sorted({*lens, g.cells})))


def naive_top(inst: Instance) -> Multifunction:
    """Every trajectory for each disturbance: the lattice's top."""
    return Multifunction(inst, [range(len(inst.z))] * len(inst.omega))


def naive_join(ms) -> Multifunction:
    """Entrywise union of the value sets as frozensets: the lattice's join."""
    ms = list(ms)
    return Multifunction(ms[0].instance, tuple(frozenset().union(*vs) for vs in zip(*(m.values for m in ms))))


def bits_of(a: Multifunction) -> int:
    return sum(len(v) for v in a.values)


def naive_is_prefix_na(a: Multifunction, k: int) -> bool:
    """Pairwise definition, no class grouping."""
    inst = a.instance
    n = len(inst.omega)
    for i in range(n):
        for j in range(n):
            if inst.omega.signals[i][:k] != inst.omega.signals[j][:k]:
                continue
            left = {inst.z.signals[h][:k] for h in a.values[i]}
            right = {inst.z.signals[h][:k] for h in a.values[j]}
            if left != right:
                return False
    return True


def naive_is_chain_na(a: Multifunction, lens) -> bool:
    """Non-anticipativity at each of the prefix lengths `lens`, pair by pair."""
    return all(naive_is_prefix_na(a, n) for n in lens)


def naive_project(a: Multifunction, k: int) -> Multifunction:
    """Per-disturbance evaluation of the defining formula, recomputed each time."""
    inst = a.instance
    out = []
    for i in range(len(inst.omega)):
        cls = [
            j
            for j in range(len(inst.omega))
            if inst.omega.signals[j][:k] == inst.omega.signals[i][:k]
        ]
        keysets = [
            {inst.z.signals[h][:k] for h in a.values[j]} for j in cls
        ]
        core = set.intersection(*keysets)
        out.append(
            frozenset(h for h in a.values[i] if inst.z.signals[h][:k] in core)
        )
    return Multifunction(inst, tuple(out))


def naive_compose(a: Multifunction, lens) -> Multifunction:
    """Naive projections at the prefix lengths `lens`, largest first."""
    for n in sorted(lens, reverse=True):
        a = naive_project(a, n)
    return a


def naive_replay(a: Multifunction, delta: Partition, policy: str = "lex", seed: int = 0):
    """Per disturbance, the (disturbance, trajectory) picks of a scripted run.

    The run replays the naive composition.  Each step scans every
    disturbance for the revealed prefix and slices every candidate
    trajectory.  A run that finds no admissible trajectory ends with
    ("stuck", step, disturbance).
    """
    inst = a.instance
    phi = naive_compose(a, delta.indices[1:])
    out = {}
    for truth, signal in enumerate(inst.omega.signals):
        rng = random.Random(seed)
        picks = []
        prev_h, prev_len = None, 0
        for i, n in enumerate(delta.indices[1:], start=1):
            revealed = signal[:n]
            w = [v for v, s in enumerate(inst.omega.signals) if s[:n] == revealed][0]
            admissible = sorted(
                j
                for j in phi.values[w]
                if prev_h is None
                or inst.z.signals[j][:prev_len] == inst.z.signals[prev_h][:prev_len]
            )
            if not admissible:
                picks.append(("stuck", i, w))
                break
            h = admissible[0] if policy == "lex" else rng.choice(admissible)
            picks.append((w, h))
            prev_h, prev_len = h, n
        out[truth] = picks
    return out


def naive_legal_extensions(inst, revealed, new_len):
    """Sorted distinct extensions, from a scan of every disturbance."""
    return tuple(
        sorted(
            {
                s[len(revealed) : new_len]
                for s in inst.omega.signals
                if s[: len(revealed)] == revealed
            }
        )
    )


def naive_enumerate_na(a: Multifunction, lens) -> list[tuple[frozenset[int], ...]]:
    """Full product of entrywise subsets filtered by the pairwise predicate."""
    per = [
        [frozenset(c) for r in range(len(v) + 1) for c in itertools.combinations(sorted(v), r)]
        for v in a.values
    ]
    out = []
    for combo in itertools.product(*per):
        cand = Multifunction(a.instance, combo)
        if naive_is_chain_na(cand, lens):
            out.append(cand.values)
    return out


def enumerate_na_multiselectors(
    a: Multifunction, delta: Partition, budget: EnumBudget = DEFAULT_BUDGET
) -> Iterator[Multifunction]:
    """Every chain-non-anticipative multiselector of `a` exactly once, the all-empty one included: the oracle's
    walk, unjoined.  Per-disturbance subsets are tried with larger sets first, so a running join saturates early."""
    walk = _walk(a.instance, delta, a.bits, budget)
    return (Multifunction._trusted(a.instance, bits) for bits in walk)


class FixpointRun(NamedTuple):
    result: Multifunction
    sweeps: int  # total sweeps, the final unchanged one included
    changed_sweeps: int  # sweeps that shrank at least one value set


def fixpoint_iterate(
    a: Multifunction,
    delta: Partition,
    schedule: str = "descending",
    seed: int = 0,
    max_sweeps: int = 64,
) -> FixpointRun:
    """Sweep the single-prefix projections in a fixed order until nothing changes.

    Schedules: "descending" (largest prefix first, the order that needs only
    one changing sweep), "ascending", or a seeded "shuffled" order.  The
    stable point is the same for every schedule.
    """
    a.instance.grid.check_partition(delta)
    order = list(delta.indices[1:])
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
        if nxt == cur:
            return FixpointRun(cur, sweeps, changed)
        changed += 1
        cur = nxt


def naive_consistent_tuples(inst, lens) -> list[tuple[int, ...]]:
    """Every disturbance tuple, one entry per prefix length in `lens`, whose consecutive entries agree on the
    earlier entry's prefix."""
    omega = inst.omega.signals
    return [
        t
        for t in itertools.product(range(len(omega)), repeat=len(lens))
        if all(omega[t[i]][: lens[i]] == omega[t[i + 1]][: lens[i]] for i in range(len(lens) - 1))
    ]


def naive_tuple_violations(phis, lens, t: tuple[int, ...]) -> set[tuple[str, int]]:
    """(kind, step) of every step condition the tuple breaks, steps counted from 1."""
    z = phis[0].instance.z.signals
    out = set()
    for i, w in enumerate(t):
        if not phis[i].values[w]:
            out.add(("empty-value", i + 1))
    for i in range(len(t) - 1):
        left = {z[h][: lens[i]] for h in phis[i].values[t[i]]}
        right = {z[h][: lens[i]] for h in phis[i + 1].values[t[i + 1]]}
        if left != right:
            out.add(("restriction-mismatch", i + 1))
    return out


def naive_verify_witness(phis, delta: Partition, a: Multifunction) -> bool:
    """Every entry below `a` and no consistent tuple, enumerated in full, breaks a condition."""
    if not all(v <= t for phi in phis for v, t in zip(phi.values, a.values)):
        return False
    a.instance.grid.check_partition(delta)
    lens = delta.indices[1:]
    return not any(naive_tuple_violations(phis, lens, t) for t in naive_consistent_tuples(a.instance, lens))


def naive_na_witness(a: Multifunction, k: int):
    """The lex-first violating pair, its smallest one-sided key and that key's holder, or None."""
    inst = a.instance
    n = len(inst.omega)
    for i in range(n):
        for j in range(i + 1, n):
            if inst.omega.signals[i][:k] != inst.omega.signals[j][:k]:
                continue
            left = {inst.z.signals[h][:k] for h in a.values[i]}
            right = {inst.z.signals[h][:k] for h in a.values[j]}
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


def to_jsonable(inst: Instance, mf: Multifunction, metadata: dict | None = None) -> dict:
    """The instance file as a document, one dict per signal: the reference `save` and the digest are held to."""
    doc = {
        "grid": [str(s) for s in inst.grid.stamps],
        "omega": [{"name": n, "cells": list(s)} for n, s in zip(inst.omega.names, inst.omega.signals)],
        "z": [{"name": n, "cells": list(s)} for n, s in zip(inst.z.names, inst.z.signals)],
        "alpha": mf_to_names(mf),
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def trace_doc(trace, inst: Instance, signal) -> dict:
    """A step trace as a document, one dict per step: the reference `trace_text` is held to.
    Each step's `revealed` is sliced from `signal`, the cells the adversary played."""
    return {
        "delta": list(trace.delta.indices),
        "steps": [
            {
                "step": s.index,
                "revealed": list(signal[: trace.delta.indices[s.index]]),
                "omega": inst.omega.names[s.omega],
                "h": inst.z.names[s.h],
                "omega_consistent": s.omega_consistent,
                "h_consistent": s.h_consistent,
                "h_admissible": s.h_admissible,
            }
            for s in trace.steps
        ],
        "final": inst.z.names[trace.final_h],
        "consistent": trace.consistent,
    }


def mf_to_names(a: Multifunction) -> dict[str, list[str]]:
    """Name-keyed view of the value sets, each list in trajectory index order, one name at a time."""
    inst = a.instance
    return {w: [inst.z.names[j] for j in sorted(v)] for w, v in zip(inst.omega.names, a.values)}


def naive_digest(inst: Instance, mf: Multifunction) -> str:
    """SHA-256 of the instance as sorted compact JSON, written by the `json` module."""
    blob = json.dumps(to_jsonable(inst, mf), sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def naive_report(command, inst: Instance, source: Multifunction, args=None, result=None, extra=None) -> dict:
    """A report as a document, the result named by `mf_to_names`: the reference `build_report` and `render_report`
    are held to, built from the naive digest and the pairwise non-anticipativity check."""
    doc = {"command": command, "inputs": {"digest": naive_digest(inst, source), "args": args or {}}}
    if result is not None:
        doc["result"] = mf_to_names(result)
        na = {str(p): naive_is_prefix_na(result, p) for p in range(1, inst.grid.cells + 1)}
        doc["flags"] = {"total": all(doc["result"].values()), "na": na}
        if not doc["flags"]["total"]:
            doc["diagnosis"] = {"empty": [w for w, zs in doc["result"].items() if not zs]}
    doc.update(extra or {})
    return doc


def naive_render(doc: dict, as_json: bool) -> str:
    """A report document as `json.dumps(sort_keys=True, indent=2)` writes it, or as the text report's lines."""
    if as_json:
        return json.dumps(doc, sort_keys=True, indent=2)
    lines = [doc["command"] + "".join(f" {k}={v}" for k, v in sorted(doc["inputs"]["args"].items()))]
    lines.append(f"digest: {doc['inputs']['digest']}")
    if "result" in doc:
        lines += [f"{w}: " + " ".join(zs) for w, zs in doc["result"].items()]
        lines.append("total: " + ("yes" if doc["flags"]["total"] else "no"))
        na = sorted(doc["flags"]["na"].items(), key=lambda kv: int(kv[0]))
        lines.append("na: " + " ".join(f"{k}={'yes' if v else 'no'}" for k, v in na))
    if "diagnosis" in doc:
        lines.append("empty at: " + " ".join(doc["diagnosis"]["empty"]))
    for key in sorted(set(doc) - {"command", "inputs", "result", "flags", "diagnosis"}):
        lines.append(f"{key}: {json.dumps(doc[key], sort_keys=True)}")
    return "\n".join(lines)
