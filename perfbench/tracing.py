"""Spans and counters around the public functions of each naselect layer.

`Tracer.install` rebinds every traced function in each naselect module
namespace that holds it, so calls between modules go through the wrapper
too; `uninstall` puts the originals back.  The program's source is not
touched.  A span is `[name, start, end, parent, job]`; spans stay in memory
until the run ends.  A span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import gc
import gzip
import json
import os
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function; the span name is "module.attribute".
TRACED = [
    ("fileio", "load"),
    ("fileio", "build_report"),
    ("fileio", "render_report"),
    ("fileio", "save"),
    ("signals", "signal_classes"),
    ("nonanticipation", "project"),
    ("nonanticipation", "compose_chain"),
    ("nonanticipation", "is_prefix_na"),
    ("nonanticipation", "canonical_chain"),
    ("nonanticipation", "meet_of_projections"),
    ("stepwise", "run_stepwise"),
    ("stepwise", "legal_extensions"),
    ("stepwise", "validate_trace"),
    ("stepwise", "verify_witness"),
    ("oracle", "brute_greatest"),
    ("scenarios", "optimal_rho"),
    ("scenarios", "integrate"),
    ("scenarios", "alpha_rho"),
    ("cli", "cli"),
]
ROOT_SPAN = "cli.cli"
CONSTRUCTION_SPAN = "multifunction.Multifunction"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.composed: set = set()  # (instance id, values, chain) composed in the current job
        self.alive: list = []  # keeps those instances alive so their ids stay unique
        self.gc_start = 0.0
        self._restore: list[tuple[object, str, object]] = []
        gc.callbacks.append(self._on_gc)

    # -- per job ----------------------------------------------------------

    def start_job(self, job: int) -> None:
        self.job = job
        self.composed = set()
        self.alive = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.job, name)] += amount

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._restore:  # collections outside a traced call are not the program's
            return
        if phase == "start":
            self.gc_start = time.perf_counter()
        else:
            self.count("gc.collections")
            self.count("gc.pause_s", time.perf_counter() - self.gc_start)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                rec[2] = clock()
                stack.pop()
                self.count(name + ".raised." + type(e).__name__)
                raise
            rec[2] = clock()
            stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _after_load(self, args, out) -> None:
        self.count("fileio.load.bytes", os.path.getsize(args[0]))

    def _after_save(self, args, out) -> None:
        self.count("fileio.save.bytes", os.path.getsize(args[0]))

    def _after_project(self, args, out) -> None:
        removed = sum(map(len, args[0].values)) - sum(map(len, out.values))
        self.count("nonanticipation.project.removed", removed)
        self.count("nonanticipation.project.useful", removed > 0)

    def _after_compose(self, args, out) -> None:
        a, chain = args
        key = (id(a.instance), a.values, chain)
        if key in self.composed:
            self.count("nonanticipation.compose_chain.repeats")
        self.composed.add(key)
        self.alive.append(a.instance)

    def _after_optimal_rho(self, args, out) -> None:
        self.count("scenarios.optimal_rho.candidates", len(out.candidates))

    def _counted_tuples(self, fn):
        def wrapper(*args, **kwargs):
            for t in fn(*args, **kwargs):
                self.count("stepwise.enumerate_omega_delta.tuples")
                yield t

        return wrapper

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "naselect"}
        after = {
            "fileio.load": self._after_load,
            "fileio.save": self._after_save,
            "nonanticipation.project": self._after_project,
            "nonanticipation.compose_chain": self._after_compose,
            "scenarios.optimal_rho": self._after_optimal_rho,
        }
        replace = {}
        for mod, attr in TRACED:
            fn = getattr(mods["naselect." + mod], attr)
            name = f"{mod}.{attr}"
            replace[id(fn)] = (fn, self._span(name, fn, after.get(name)))
        fn = mods["naselect.stepwise"].enumerate_omega_delta
        replace[id(fn)] = (fn, self._counted_tuples(fn))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replace[id(value)][1])
        mf = mods["naselect.multifunction"].Multifunction
        self._restore.append((mf, "__post_init__", mf.__post_init__))
        mf.__post_init__ = self._span(CONSTRUCTION_SPAN, mf.__post_init__)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    def close(self) -> None:
        self.uninstall()
        gc.callbacks.remove(self._on_gc)

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, by index."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for name, start, end, parent, job in self.spans:
                f.write(json.dumps([name, start, end, parent, job]) + "\n")
