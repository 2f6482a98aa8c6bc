"""Step-by-step trajectory construction against an adversary revealing the disturbance.

The controller never sees the disturbance directly.  At step i the adversary
extends the revealed prefix up to the partition's i-th stamp; the controller
reconstructs some admissible disturbance matching it and picks a trajectory
that is admissible for that disturbance and agrees with its earlier picks.
The selection multifunction for every step is the greatest chain-non-
anticipative multiselector; its non-emptiness is exactly what keeps the
procedure from getting stuck.  It depends only on the multifunction and the
partition, and the multifunction keeps it once composed, so a run, an
exhaustive run and the validation of a trace all select from one composition.
A step depends only on the revealed prefix, so an exhaustive run walks the
revelation tree in one pass over the sorted disturbances, one step per node.
A run, its steps and its adversary name that prefix one way, as a disturbance
and a length: the first n cells of the first disturbance matching it.  So
neither a run nor an adversary copies the prefix.
"""

from __future__ import annotations

import random
import sys
from typing import Iterator, NamedTuple, Protocol, TextIO

from .errors import (
    AdversaryError,
    InfeasibleError,
    ProcedureStuckError,
    ValidationError,
)
from .multifunction import Instance, Multifunction, is_total, mf_le
from .nonanticipation import compose_chain
from .signals import Record, RestrictionKey, signal_classes
from .timebase import Partition, partition_to_chain


class Adversary(Protocol):
    """Reveals the disturbance prefix by prefix.

    The revealed prefix is the first `n` cells of disturbance `omega`, the
    first member of its class.  `extend` returns the tokens from there to the
    step's target length; every revealed prefix must stay consistent with at
    least one admissible disturbance.
    """

    def extend(self, step: int, omega: int, n: int, new_len: int) -> RestrictionKey: ...


class ScriptedAdversary(NamedTuple):
    """Plays one fixed disturbance, given as its cells."""

    signal: tuple[str, ...]

    def extend(self, step: int, omega: int, n: int, new_len: int) -> RestrictionKey:
        return self.signal[n:new_len]


def legal_extensions(inst: Instance, omega: int, n: int, new_len: int) -> tuple[RestrictionKey, ...]:
    """Sorted distinct extensions to `new_len` cells of the first `n` cells of disturbance `omega`."""
    index = inst.omega.prefix_index
    return tuple(sorted({s[n:new_len] for s in index.sorted_cells[slice(*index.run(omega, n))]}))


ANSWER_MARGIN = 8192  # characters an answer line may hold past the longest answer: whitespace, leading zeros


class InteractiveAdversary(Record):
    """Line-oriented adversary on a text stream pair, by default `sys.stdin` and `sys.stderr` when made.

    Each step prints the legal extensions (one `#k  tokens` line each) to
    `err` and reads one line from `infile`: either `#k` picking an option or
    the literal comma-joined tokens, which must match exactly one option.
    A read takes at most the longest such answer plus `ANSWER_MARGIN`
    characters; a line that does not end within them is rejected unread.
    """

    _fields = ("instance", "infile", "err")
    __setattr__, __hash__ = object.__setattr__, None  # its fields may be reassigned, so it has no hash

    def __init__(self, instance: Instance, infile: TextIO | None = None, err: TextIO | None = None) -> None:
        self.instance = instance
        self.infile = sys.stdin if infile is None else infile
        self.err = sys.stderr if err is None else err

    def extend(self, step: int, omega: int, n: int, new_len: int) -> RestrictionKey:
        opts = legal_extensions(self.instance, omega, n, new_len)
        texts = list(map(",".join, opts))
        self.err.write(f"step {step}: extend the disturbance to {new_len} cells\n")
        for k, text in enumerate(texts):
            self.err.write(f"  #{k}  {text}\n")
        self.err.flush()
        limit = max([len(f"#{len(opts) - 1}"), *map(len, texts)]) + ANSWER_MARGIN
        line = self.infile.readline(limit)
        if not line:
            raise AdversaryError(f"input ended before step {step}")
        if len(line) == limit and not line.endswith("\n"):
            raise AdversaryError(f"line of {limit} or more characters at step {step}; no answer is that long")
        line = line.strip()
        if line.startswith("#"):
            digits = line[1:]
            number = digits.lstrip("0") or "0"  # int() refuses over 4300 digits; no option number needs them
            k = int(number) if digits.isascii() and digits.isdigit() and len(number) <= len(str(len(opts))) else -1
            if not 0 <= k < len(opts):
                raise AdversaryError(f"no extension option {line!r} at step {step}")
            return opts[k]
        hits = [k for k, text in enumerate(texts) if text == line]
        if len(hits) == 1:
            return opts[hits[0]]
        if hits:
            which = ", ".join(f"#{k}" for k in hits)
            raise AdversaryError(f"line {line!r} matches options {which} at step {step}; pick one with #k")
        raise AdversaryError(f"line {line!r} matches no legal extension at step {step}")


class Step(NamedTuple):
    """One control step: the disturbance and trajectory picked.  `omega` is the first disturbance matching the
    prefix revealed at step `index`, so that prefix is `inst.omega.signals[omega][: trace.delta.indices[index]]`."""

    index: int
    omega: int
    h: int
    omega_consistent: bool
    h_consistent: bool
    h_admissible: bool


class StepTrace(NamedTuple):
    delta: Partition
    steps: tuple[Step, ...]
    final_h: int

    @property
    def consistent(self) -> bool:
        return all(s.omega_consistent and s.h_consistent and s.h_admissible for s in self.steps)


def run_stepwise(
    a: Multifunction,
    delta: Partition,
    adversary: Adversary,
    policy: str = "lex",
    seed: int = 0,
    check: bool = True,
    on_step=None,
) -> StepTrace:
    """Drive one step-by-step run.

    With `check` the conditions are verified first and an empty-valued
    composite raises `InfeasibleError` naming the offending disturbances.
    Without it the run proceeds until it completes or genuinely gets stuck,
    so success over every revelation path is exactly feasibility, observed
    rather than assumed.  `policy` picks among
    admissible trajectories: "lex" for the smallest index, "random" for a
    seeded draw.  `on_step` is called with each finished `Step`.
    """
    chain, phi, pick, _ = _compose(a, delta, policy, seed, check)
    signals, index = a.instance.omega.signals, a.instance.omega.prefix_index
    w, n = 0, 0  # the revealed prefix: the first n cells of disturbance w, the first member of its class
    steps: list[Step] = []
    for i, p in enumerate(chain.prefixes, start=1):
        ext = tuple(adversary.extend(i, w, n, p.len))
        if len(ext) != p.len - n:
            raise AdversaryError(f"step {i}: expected {p.len - n} cells, got {len(ext)}")
        cls = index.order[slice(*index.run(w, n))]
        w = min((x for x in cls if signals[x][n : p.len] == ext), default=None)
        if w is None:
            raise AdversaryError(f"step {i}: revealed prefix {signals[cls[0]][:n] + ext} matches no disturbance")
        steps.append(_step(a, phi, pick, i, n, w, steps[-1] if steps else None))
        n = p.len
        if on_step is not None:
            on_step(steps[-1])
    return StepTrace(delta, tuple(steps), steps[-1].h)


def _compose(a: Multifunction, delta: Partition, policy: str, seed: int, check: bool):
    """Validate `policy`, compose the selection multifunction (with `check`, require it total) and make the pick:
    of a non-empty set, the smallest index under "lex", a draw from the returned `Random(seed)` under "random"."""
    if policy not in ("lex", "random"):
        raise ValidationError(f"unknown selector policy {policy!r}")
    inst = a.instance
    chain = partition_to_chain(inst.grid, delta)
    phi = compose_chain(a, chain)
    if check and not is_total(phi):
        empty = tuple(i for i, v in enumerate(phi.bits) if not v)
        names = ", ".join(inst.omega.names[i] for i in empty)
        raise InfeasibleError(
            f"conditions are infeasible: composed multiselector is empty at {names}",
            empty_omegas=empty,
            witness=phi,
        )
    z = inst.z.prefix_index
    rng = random.Random(seed) if policy == "random" else None
    return chain, phi, z.first if rng is None else lambda v: rng.choice(z.indices(v)), rng


def _step(a: Multifunction, phi: Multifunction, pick, i: int, prev_len: int, w: int, prev: Step | None) -> Step:
    """Step i for the first member `w` of its class: `pick` from phi(w)'s run of `prev`'s pick at the previous
    prefix, of `prev_len` cells, or raise `ProcedureStuckError` if that run is empty."""
    inst, omega, z = a.instance, a.instance.omega.prefix_index, a.instance.z.prefix_index
    lo, hi = (0, len(z.order)) if prev is None else z.run(prev.h, prev_len)
    admissible = phi.bits[w] & ((1 << 2 * hi) - (1 << 2 * lo))
    if not admissible:
        raise ProcedureStuckError(f"step {i}: no admissible trajectory for {inst.omega.names[w]}", step=i, omega=w)
    h = pick(admissible)
    omega_ok = prev is None or prev.omega == w or omega.rank[prev.omega] in range(*omega.run(w, prev_len))
    h_ok = z.rank[h] in range(lo, hi)
    return Step(i, w, h, omega_ok, h_ok, (phi.bits[w] & a.bits[w]) >> 2 * z.rank[h] & 1 == 1)


def run_exhaustive(
    a: Multifunction,
    delta: Partition,
    policy: str = "lex",
    seed: int = 0,
    check: bool = False,
) -> dict[int, StepTrace]:
    """One run per disturbance, each picking as a scripted run of it alone would.

    One composition, then one pass over the disturbances in sorted order walks
    the revelation tree: a run keeps the previous run's steps at the prefixes
    within their common leading cells and computes the rest, one `Step` per
    node.  Under "lex", once a run's disturbance is alone in its class, its
    later steps copy that pick.  Under "random" a node the next run shares
    saves the generator's state after its draw in its level's slot.  A stuck
    node strands every run through it, and the pass raises as the first stuck
    run in index order.
    """
    chain, phi, pick, rng = _compose(a, delta, policy, seed, check)
    index = a.instance.omega.prefix_index
    lens = delta.indices  # lens[i]: the cells revealed at step i
    saved = [rng and rng.getstate()] * len(lens)  # saved[d]: the state after the path's d-th step
    traces: list = [None] * len(index.order)  # a run's trace, or the error of the node it is stuck at
    path: list[Step] = []
    for w, shared in zip(index.order, [0, *index.lcp]):
        if traces[w] is not None:
            continue
        while path and lens[len(path)] > shared:
            path.pop()
        if rng is not None:
            rng.setstate(saved[len(path)])
        try:
            for i in range(len(path) + 1, len(lens)):
                cls = index.order[slice(*index.run(w, lens[i]))]
                path.append(_step(a, phi, pick, i, lens[i - 1], min(cls), path[-1] if path else None))
                if rng is not None and len(cls) > 1:
                    saved[i] = rng.getstate()
                if rng is None and len(cls) == 1:  # w is alone from here on: each later step keeps this pick
                    path += [Step(k, *path[-1][1:]) for k in range(i + 1, len(lens))]
                    break
            traces[w] = StepTrace(delta, tuple(path), path[-1].h)
        except ProcedureStuckError as e:
            for x in cls:
                traces[x] = e
    stuck = [t for t in traces if not isinstance(t, StepTrace)]
    if stuck:
        raise stuck[0]
    return dict(enumerate(traces))


def validate_trace(a: Multifunction, trace: StepTrace) -> list[str]:
    """Re-derive every consistency condition of a finished trace from raw cells; empty means valid.

    An index outside its family names no signal and no value set, so every
    condition that reads it fails, and it is never used to index.
    """
    inst, rank = a.instance, a.instance.z.prefix_index.rank
    chain = partition_to_chain(inst.grid, trace.delta)
    phi = compose_chain(a, chain)
    if len(trace.steps) != len(chain.prefixes):
        return [f"trace has {len(trace.steps)} steps for {len(chain.prefixes)} control steps"]

    def agree(fam, i: int, j: int, n: int) -> bool:
        return 0 <= i < len(fam) and 0 <= j < len(fam) and (i == j or fam.signals[i][:n] == fam.signals[j][:n])

    problems: list[str] = []
    prev = None
    prev_len = 0
    for step, p in zip(trace.steps, chain.prefixes):
        w = step.omega if 0 <= step.omega < len(inst.omega) else None
        if w is None:
            problems.append(f"step {step.index}: picked disturbance does not match the revealed prefix")
        at = 2 * rank[step.h] if 0 <= step.h < len(rank) else 1  # bit 1 is a run top: no trajectory
        if w is None or not phi.bits[w] >> at & 1:
            problems.append(f"step {step.index}: trajectory outside the selection multifunction")
        if w is None or not a.bits[w] >> at & 1:
            problems.append(f"step {step.index}: trajectory outside the original multifunction")
        if prev is not None:
            if not agree(inst.omega, step.omega, prev.omega, prev_len):
                problems.append(f"step {step.index}: disturbance disagrees with the previous step")
            if not agree(inst.z, step.h, prev.h, prev_len):
                problems.append(f"step {step.index}: trajectory disagrees with the previous step")
        prev, prev_len = step, p.len
    if trace.steps and trace.final_h != trace.steps[-1].h:
        problems.append("final trajectory differs from the last step's pick")
    return problems


def enumerate_omega_delta(inst: Instance, delta: Partition) -> Iterator[tuple[int, ...]]:
    """All disturbance tuples consistent across the partition's prefixes.

    A tuple fixes one disturbance per control step such that consecutive
    entries agree on the earlier step's prefix.  Generated by choosing the
    last entry and walking backwards through equivalence classes, depth first
    with an explicit stack of (suffix, untried options); yielded in ascending
    index order.
    """
    chain, index = partition_to_chain(inst.grid, delta), inst.omega.prefix_index
    n = len(chain.prefixes)
    stack: list[tuple[tuple[int, ...], Iterator[int]]] = [((), iter(range(len(inst.omega))))]
    while stack:
        suffix, options = stack[-1]
        w = next(options, None)
        if w is None:
            stack.pop()
            continue
        tup = (w,) + suffix
        i = n - len(tup)
        if i == 0:
            yield tup
        else:
            cut = chain.prefixes[i - 1].len
            stack.append((tup, iter(sorted(index.order[slice(*index.run(w, cut))]))))


class WitnessViolation(NamedTuple):
    kind: str  # "not-multiselector" | "empty-value" | "restriction-mismatch"
    step: int
    omegas: tuple[int, ...]
    detail: str


class WitnessReport(NamedTuple):
    ok: bool
    violation: WitnessViolation | None = None


def verify_witness(phis: list[Multifunction], delta: Partition, a: Multifunction) -> WitnessReport:
    """Check a tuple of per-step multifunctions against the step-by-step conditions.

    Every entry must sit below `a`; for every consistent disturbance tuple the
    selected value sets must be non-empty and have matching restriction sets
    on each step's prefix.  The conditions tie only consecutive entries, and
    two kinds of consistent tuple already reach every one of them: constant
    tuples, and tuples that switch once, at step i, between two members of
    one class at the i-th prefix.  So each class member is compared with the
    class's first member instead of enumerating tuples.

    The first violation is reported in this order:
    1. `not-multiselector`, by step;
    2. `empty-value`, by step, then by disturbance w, as the tuple `(w,)*n`;
    3. `restriction-mismatch`, by step i, then by class at the i-th prefix in
       `signal_classes` order.  With r the class's first member and K the
       restriction set of step i+1's value at r: the first member x whose
       step-i restriction set differs from K, as `(x,)*i + (r,)*(n-i)`; else
       the first member y whose step-(i+1) restriction set differs from K, as
       `(r,)*i + (y,)*(n-i)`.
    """
    inst = a.instance
    chain = partition_to_chain(inst.grid, delta)
    n = len(chain.prefixes)
    if len(phis) != n:
        raise ValidationError(f"expected {n} multifunctions, got {len(phis)}")
    for i, phi in enumerate(phis, start=1):
        if not mf_le(phi, a):
            return WitnessReport(
                False, WitnessViolation("not-multiselector", i, (), "entry not below the target")
            )
    for i, phi in enumerate(phis, start=1):
        for w, v in enumerate(phi.bits):
            if not v:
                return WitnessReport(
                    False,
                    WitnessViolation(
                        "empty-value", i, (w,) * n, f"empty value at {inst.omega.names[w]}"
                    ),
                )

    def mismatch(i: int, tup: tuple[int, ...]) -> WitnessReport:
        detail = f"restriction sets differ between steps {i} and {i + 1}"
        return WitnessReport(False, WitnessViolation("restriction-mismatch", i, tup, detail))

    keys = inst.z.prefix_index.keys
    for i in range(1, n):
        p = chain.prefixes[i - 1]
        before, after = phis[i - 1].bits, phis[i].bits
        for cls in signal_classes(inst.omega, p):
            r = cls[0]
            ref = keys(after[r], p.len)
            for x in cls:
                if keys(before[x], p.len) != ref:
                    return mismatch(i, (x,) * i + (r,) * (n - i))
            for y in cls:
                if keys(after[y], p.len) != ref:
                    return mismatch(i, (r,) * i + (y,) * (n - i))
    return WitnessReport(True)
