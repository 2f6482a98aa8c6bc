"""The three workloads: which CLI jobs they run, on which instances, and how answers are checked.

Every job gets a fresh instance file, drawn from a generator seeded by the
run seed, the round and the job's place in the round, so the inputs of a
job never depend on how many rounds ran before it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import reference
from instances import Inst, Shape, random_inst, read_inst, write_inst

# Big files and big prefix classes: load, projection, reports.
NA_LARGE = Shape(200, 1000, 10, 3, density=50)
# Many repeated compositions of one multifunction.
STEPWISE = Shape(100, 500, 8, 3, density=90)
# 20 bits in all (10 disturbances × 2 trajectories): the walk visits at most
# 4 + 4^2 + ... + 4^10 < 1.4 million subset assignments, inside the default
# budget of 2^22 whatever the seed.
ORACLE = Shape(10, 16, 4, 2, per_omega=2)
# At most 30 · 2 · 4 · 8 · 16 · 30 < 10^6 disturbance tuples: a class at prefix k
# of distinct 6-cell binary signals has at most 2^(6-k) members.
CHECK = Shape(30, 60, 6, 2, density=80)

# Job kinds per round, with counts.  Short jobs run several times a round,
# so that their medians rest on more samples.
WORKLOADS: dict[str, list[tuple[str, int]]] = {
    "na-large": [("project", 1), ("compose", 1), ("feasible", 1), ("greatest", 1)],
    "stepwise": [("simulate_exhaustive", 1), ("simulate_scripted", 2), ("simulate_interactive", 2)],
    "certify": [("oracle", 16), ("check", 2), ("scenario", 1)],
}


@dataclass
class Job:
    """One CLI invocation; `check(exit code, stdout)` returns a problem or None."""

    name: str
    kind: str
    argv: list[str]
    check: Callable[[int, str], str | None]
    stdin: str = ""
    emitted: str | None = None


def _full(cells: int) -> str:
    return ",".join(str(k) for k in range(cells + 1))


def _chain(delta: str) -> list[int]:
    return [int(x) for x in delta.split(",")[1:]]


def _new_file(rng: random.Random, shape: Shape, name: str) -> tuple[Inst, str]:
    """Write a fresh instance file.

    Checks read the instance back from the file, so that rounds waiting to
    run hold no instance in memory and `peak_rss_mb` stays the program's.
    """
    inst = random_inst(rng, shape)
    path = name + ".json"
    write_inst(path, inst)
    return inst, path


# ---------------------------------------------------------------------------
# na-large: reports whose result must equal the reference projection


def _report_job(name: str, kind: str, path: str, argv: list[str], chain: list[int] | None) -> Job:
    """`chain` None means the canonical chain of the instance."""

    def check(rc: int, out: str) -> str | None:
        inst = read_inst(path)
        prefixes = chain or reference.canonical_chain(inst)
        ref = reference.compose(inst, inst.alpha, prefixes)
        total = all(ref)
        want = 3 if kind == "feasible" and not total else 0
        if rc != want:
            return f"exit {rc}, expected {want}"
        doc = json.loads(out)
        if doc["result"] != reference.by_name(ref):
            return "result differs from the reference projection"
        if doc["flags"]["total"] != total:
            return "total flag differs from the reference"
        if kind == "feasible" and doc["feasible"] != total:
            return "feasible flag differs from the reference"
        if kind == "greatest" and doc["chain"] != prefixes:
            return "chain differs from the reference canonical chain"
        return None

    return Job(name, kind, argv, check)


def project_job(rng: random.Random, name: str) -> Job:
    _, path = _new_file(rng, NA_LARGE, name)
    return _report_job(name, "project", path, ["project", path, "--prefix", "5", "--json"], [5])


def compose_job(rng: random.Random, name: str) -> Job:
    _, path = _new_file(rng, NA_LARGE, name)
    delta = _full(NA_LARGE.cells)
    return _report_job(name, "compose", path, ["compose", path, "--delta", delta, "--json"], _chain(delta))


def feasible_job(rng: random.Random, name: str) -> Job:
    _, path = _new_file(rng, NA_LARGE, name)
    delta = "0,3,6,10"
    return _report_job(name, "feasible", path, ["feasible", path, "--delta", delta, "--json"], _chain(delta))


def greatest_job(rng: random.Random, name: str) -> Job:
    _, path = _new_file(rng, NA_LARGE, name)
    return _report_job(name, "greatest", path, ["greatest", path, "--json"], None)


# ---------------------------------------------------------------------------
# stepwise: traces checked against the reference composition


def _trace_problem(inst: Inst, composed, chain: list[int], doc: dict, target: int) -> str | None:
    steps = doc["steps"]
    picks = [(int(s["omega"][1:]), int(s["h"][1:])) for s in steps]
    if picks != reference.lex_run(inst, composed, chain, target):
        return "picks differ from the reference lex-first run"
    for s, p in zip(steps, chain):
        if tuple(s["revealed"]) != inst.omega[target][:p]:
            return f"step {s['step']}: revealed prefix is not the adversary's"
        if not (s["omega_consistent"] and s["h_consistent"] and s["h_admissible"]):
            return f"step {s['step']}: inconsistent step"
    if doc["final"] != steps[-1]["h"] or not doc["consistent"]:
        return "final trajectory or consistency flag is wrong"
    return None


def _simulate_job(name: str, kind: str, path: str, argv: list[str], chain: list[int], read_trace) -> Job:
    """`read_trace(stdout, instance, reference composition)` checks the traces of a run that exited 0."""

    def check(rc: int, out: str) -> str | None:
        inst = read_inst(path)
        composed = reference.compose(inst, inst.alpha, chain)
        want = 0 if all(composed) else 3
        if rc != want:
            return f"exit {rc}, expected {want}"
        return read_trace(out, inst, composed) if rc == 0 else None

    return Job(name, kind, argv, check)


def simulate_exhaustive_job(rng: random.Random, name: str) -> Job:
    _, path = _new_file(rng, STEPWISE, name)
    delta = "0,2,4,6,8"
    chain = _chain(delta)

    def read(out: str, inst: Inst, composed) -> str | None:
        traces = json.loads(out)["traces"]
        if len(traces) != len(inst.omega):
            return "traces do not cover every disturbance"
        for omega, doc in traces.items():
            problem = _trace_problem(inst, composed, chain, doc, int(omega[1:]))
            if problem:
                return f"{omega}: {problem}"
        return None

    argv = ["simulate", path, "--delta", delta, "--adversary", "exhaustive", "--json"]
    return _simulate_job(name, "simulate_exhaustive", path, argv, chain, read)


def simulate_scripted_job(rng: random.Random, name: str) -> Job:
    _, path = _new_file(rng, STEPWISE, name)
    w = rng.randrange(STEPWISE.n_omega)
    delta = _full(STEPWISE.cells)
    chain = _chain(delta)
    argv = ["simulate", path, "--delta", delta, "--adversary", f"scripted:w{w}", "--json"]
    return _simulate_job(
        name, "simulate_scripted", path, argv, chain,
        lambda out, inst, composed: _trace_problem(inst, composed, chain, json.loads(out), w),
    )


def simulate_interactive_job(rng: random.Random, name: str) -> Job:
    """Answers every prompt with a seeded `#k` among the legal extensions."""
    inst, path = _new_file(rng, STEPWISE, name)
    delta = _full(inst.cells)
    chain = _chain(delta)
    revealed: tuple[str, ...] = ()
    lines = []
    for n in chain:
        opts = reference.legal_extensions(inst, revealed, n)
        k = rng.randrange(len(opts))
        lines.append(f"#{k}\n")
        revealed += opts[k]
    w = inst.omega.index(revealed)

    def read(out: str, inst: Inst, composed) -> str | None:
        *echo, last = out.splitlines()
        if len(echo) != len(chain):
            return f"{len(echo)} echo lines for {len(chain)} steps"
        return _trace_problem(inst, composed, chain, json.loads(last), w)

    argv = ["simulate", path, "--delta", delta, "--adversary", "interactive"]
    job = _simulate_job(name, "simulate_interactive", path, argv, chain, read)
    job.stdin = "".join(lines)
    return job


# ---------------------------------------------------------------------------
# certify: self-certifying commands and the write path


def oracle_job(rng: random.Random, name: str) -> Job:
    _, path = _new_file(rng, ORACLE, name)
    delta = _full(ORACLE.cells)

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}, expected 0"
        doc = json.loads(out)
        if doc["match"] is not True:
            return "oracle reports a mismatch"
        inst = read_inst(path)
        if doc["result"] != reference.by_name(reference.compose(inst, inst.alpha, _chain(delta))):
            return "result differs from the reference projection"
        return None

    return Job(name, "oracle", ["oracle", path, "--delta", delta, "--json"], check)


def check_job(rng: random.Random, name: str) -> Job:
    _, path = _new_file(rng, CHECK, name)

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}, expected 0"
        bad = [line for line in out.splitlines() if not line.startswith("ok ")]
        return f"failed invariants: {bad}" if bad else None

    return Job(name, "check", ["check", path], check)


def scenario_job(rng: random.Random, name: str) -> Job:
    """ex4 on 7 seeded control levels among the quarters of [-1, 1]."""
    levels = ",".join(str(Fraction(x, 4)) for x in sorted(rng.sample(range(-4, 5), 7)))
    path = name + ".json"

    def check(rc: int, out: str) -> str | None:
        from naselect import fileio
        from naselect.errors import NaselectError

        if rc != 0:
            return f"exit {rc}, expected 0"
        try:
            inst, mf = fileio.load(path)
        except NaselectError as e:
            return f"emitted file does not load: {e}"
        if out != f"{path}: {fileio.instance_digest(inst, mf)}\n":
            return "printed digest differs from the digest of the emitted file"
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        rho = Fraction(doc["metadata"]["rho"])
        for v in doc["omega"]:
            want = [
                u["name"] for u in doc["z"] if abs(reference.ex4_terminal(u["cells"], v["cells"])) >= -rho
            ]
            if doc["alpha"].get(v["name"], []) != want:
                return f"responses of {v['name']} do not match cost level {rho}"
        return None

    return Job(name, "scenario", ["scenario", f"ex4:{levels}", "--emit", path], check, emitted=path)


MAKERS: dict[str, Callable[[random.Random, str], Job]] = {
    "project": project_job,
    "compose": compose_job,
    "feasible": feasible_job,
    "greatest": greatest_job,
    "simulate_exhaustive": simulate_exhaustive_job,
    "simulate_scripted": simulate_scripted_job,
    "simulate_interactive": simulate_interactive_job,
    "oracle": oracle_job,
    "check": check_job,
    "scenario": scenario_job,
}


def kinds(workload: str) -> list[str]:
    return [kind for kind, _ in WORKLOADS[workload]]


def build_round(workload: str, seed: int, rnd: int) -> list[Job]:
    """Write the instance files of one round into the current directory."""
    jobs = []
    for kind, count in WORKLOADS[workload]:
        for k in range(count):
            rng = random.Random(f"{seed}/{workload}/{rnd}/{kind}/{k}")
            jobs.append(MAKERS[kind](rng, f"r{rnd}-{kind}-{k}"))
    return jobs
