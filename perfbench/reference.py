"""Answers computed without the program, to check what the CLI printed.

The projection here is the class-by-class definition: group disturbances by
their restriction to the prefix, intersect the restriction sets of their
value sets over each class, and keep the trajectories whose restriction
lies in that intersection.
"""

from __future__ import annotations

from fractions import Fraction

from instances import Inst

Values = list[frozenset[int]]


def project(inst: Inst, values: Values, p: int) -> Values:
    classes: dict[tuple[str, ...], list[int]] = {}
    for w, s in enumerate(inst.omega):
        classes.setdefault(s[:p], []).append(w)
    zp = [s[:p] for s in inst.z]
    out = list(values)
    for members in classes.values():
        common = set.intersection(*({zp[j] for j in values[w]} for w in members))
        for w in members:
            out[w] = frozenset(j for j in values[w] if zp[j] in common)
    return out


def compose(inst: Inst, values: Values, prefixes: list[int]) -> Values:
    """Project along the prefixes, largest first."""
    for p in sorted(prefixes, reverse=True):
        values = project(inst, values, p)
    return values


def canonical_chain(inst: Inst) -> list[int]:
    """Longest agreement prefixes of all disturbance pairs, plus the full length.

    In sorted order the agreement of any two signals is the least agreement
    of the adjacent pairs between them, so adjacent pairs give every length.
    """
    lens = {inst.cells}
    ordered = sorted(inst.omega)
    for a, b in zip(ordered, ordered[1:]):
        n = 0
        while n < inst.cells and a[n] == b[n]:
            n += 1
        lens.add(n)
    lens.discard(0)
    return sorted(lens)


def by_name(values: Values) -> dict[str, list[str]]:
    return {f"w{w}": [f"h{j}" for j in sorted(v)] for w, v in enumerate(values)}


def lex_run(inst: Inst, selection: Values, chain: list[int], target: int) -> list[tuple[int, int]] | None:
    """(disturbance, trajectory) per step of a stepwise run that reveals `target`, picking lex-first.

    Each step takes the first disturbance matching the revealed prefix and
    the smallest trajectory of its selected set that agrees with the previous
    pick on the previous prefix.  None when no trajectory is left.
    """
    steps: list[tuple[int, int]] = []
    prev_len = 0
    for p in chain:
        revealed = inst.omega[target][:p]
        w = next(i for i, s in enumerate(inst.omega) if s[:p] == revealed)
        agree = [j for j in selection[w] if not steps or inst.z[j][:prev_len] == inst.z[steps[-1][1]][:prev_len]]
        if not agree:
            return None
        steps.append((w, min(agree)))
        prev_len = p
    return steps


def legal_extensions(inst: Inst, revealed: tuple[str, ...], new_len: int) -> list[tuple[str, ...]]:
    n = len(revealed)
    return sorted({s[n:new_len] for s in inst.omega if s[:n] == revealed})


def ex4_terminal(control: list[str], disturbance: list[str]) -> Fraction:
    """Terminal state of the ex4 system (x0 = 0, unit cells, state moves by u + v)."""
    return sum((Fraction(u) + Fraction(v) for u, v in zip(control, disturbance)), Fraction(0))
