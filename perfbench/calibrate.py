"""How fast the host runs right now, from a fixed loop that shares no code with the program.

The benchmark runs on a few cores of a shared host.  Other tenants change how
fast a pure-Python loop runs by up to a factor of 1.7, over tens of seconds,
and every job kind slows with them.  `probe()` times a fixed loop of the
same kinds of work as the program (JSON parsing, string compares in
`tuple.index`, prefix classes in a dict, frozenset algebra) several times
and returns the median time of one loop.  `run.py` probes right before and
right after each job, outside the timed region, and multiplies the job's
time by `scale()`: an estimate of the time the job would take on a host
where one loop takes `REFERENCE_S`.  A change to the program cannot move
the probe.
"""

from __future__ import annotations

import json
import statistics
import time

# A fixed unit, about one loop on a 2-CPU Xeon host with Python 3.11, so that
# scaled times read close to wall times and stay comparable between runs,
# checkouts and commits.
REFERENCE_S = 0.001
REPEATS = 5
# Job times move less than the probe's when the host's speed changes: their
# working sets are larger, so they depend less on the core's own speed.  Over
# 35-second windows of 5 to 10 minutes per workload, the power of the probe
# that left the least spread in per-kind medians was 0.6-0.7 on na-large,
# 0.7-0.75 on stepwise and 0.9 on certify; 0.75 left the smallest largest
# spread (9%, against 19% at 1.0).  Regressing log job time on log probe time
# gave slopes of 0.5 to 0.8.
EXPONENT = 0.75

_NAMES = [f"h{j}" for j in range(400)]
_DOC = json.dumps({"z": [{"name": n, "cells": list("abcabcab")} for n in _NAMES[:60]], "alpha": _NAMES[::3]})


def _loop() -> int:
    doc = json.loads(_DOC)
    names = tuple(_NAMES)
    total = sum(names.index(n) for n in doc["alpha"][::2])
    cells = [tuple("abc"[(i * 7 + k * k) % 3] for k in range(8)) for i in range(300)]
    classes: dict[tuple[str, ...], set[int]] = {}
    for i, c in enumerate(cells):
        classes.setdefault(c[:4], set()).add(i)
    keep = frozenset(range(0, 300, 2))
    for members in classes.values():
        group = frozenset(members)
        total += len(group & keep) + len(group | keep)
    return total


def scale(before: float, after: float) -> float:
    """The factor for a time measured between probes `before` and `after`."""
    return (REFERENCE_S / ((before + after) / 2)) ** EXPONENT


def probe() -> float:
    """Median seconds of one loop over REPEATS loops."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
