"""Seeded instance files, written by the benchmark itself.

The generator shares no code with `naselect.scenarios`, so a change to the
program cannot move the benchmark's inputs: the same seed always yields the
same bytes.  Files use the instance format of the README.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    """`n_omega × n_z × cells` and tokens per cell; alpha entries by chance or by count.

    With `per_omega` set, every disturbance gets exactly that many trajectories,
    which caps the bits of the multifunction; otherwise each entry appears with
    `density` percent chance.
    """

    n_omega: int
    n_z: int
    cells: int
    alphabet: int
    density: int = 0
    per_omega: int = 0


@dataclass
class Inst:
    """An instance as plain Python data: signals as token tuples, alpha as index sets.

    In the file, disturbance i is named `w<i>` and trajectory j `h<j>`.
    """

    cells: int
    omega: list[tuple[str, ...]]
    z: list[tuple[str, ...]]
    alpha: list[frozenset[int]]


def _distinct_signals(rng: random.Random, count: int, cells: int, tokens: list[str]) -> list[tuple[str, ...]]:
    if len(tokens) ** cells < count:
        raise ValueError(f"{len(tokens)} tokens over {cells} cells cannot hold {count} signals")
    seen: set[tuple[str, ...]] = set()
    out: list[tuple[str, ...]] = []
    while len(out) < count:
        s = tuple(rng.choice(tokens) for _ in range(cells))
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def random_inst(rng: random.Random, shape: Shape) -> Inst:
    tokens = [chr(ord("a") + i) for i in range(shape.alphabet)]
    omega = _distinct_signals(rng, shape.n_omega, shape.cells, tokens)
    z = _distinct_signals(rng, shape.n_z, shape.cells, tokens)
    if shape.per_omega:
        alpha = [frozenset(rng.sample(range(shape.n_z), shape.per_omega)) for _ in omega]
    else:
        alpha = [
            frozenset(j for j in range(shape.n_z) if rng.randrange(100) < shape.density)
            for _ in omega
        ]
    return Inst(shape.cells, omega, z, alpha)


def write_inst(path: str, inst: Inst) -> None:
    doc = {
        "grid": [str(k) for k in range(inst.cells + 1)],
        "omega": [{"name": f"w{i}", "cells": list(s)} for i, s in enumerate(inst.omega)],
        "z": [{"name": f"h{j}", "cells": list(s)} for j, s in enumerate(inst.z)],
        "alpha": {f"w{i}": [f"h{j}" for j in sorted(v)] for i, v in enumerate(inst.alpha) if v},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, separators=(",", ":"))


def read_inst(path: str) -> Inst:
    """Read back a file written by `write_inst`."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    alpha = [frozenset()] * len(doc["omega"])
    for name, zs in doc["alpha"].items():
        alpha[int(name[1:])] = frozenset(int(z[1:]) for z in zs)
    signals = [[tuple(s["cells"]) for s in doc[key]] for key in ("omega", "z")]
    return Inst(len(doc["grid"]) - 1, *signals, alpha)
