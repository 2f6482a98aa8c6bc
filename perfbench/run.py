"""naselect benchmark: the real CLI, in-process, one job at a time, on seeded instance files.

    python3 perfbench/run.py --workload na-large --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout; it imports `naselect` from `src/` there.
One client runs a closed loop: each job calls `naselect.cli.cli(argv)` with
stdin, stdout and stderr redirected, and the next job starts only after
the previous one is checked.  Jobs run in whole rounds (see
`workloads.WORKLOADS`) until `--seconds` of wall time have passed.  Every
job gets its own instance file; before each job the garbage collector runs
outside the timed region.

With `--trace 0` the last line carries the end-to-end metrics named in
BENCHMARK.json.  Their times are scaled to a reference host speed, measured
by `calibrate.probe()` right before and after each job and each set-up; the
wall times are printed above the last line.  With `--trace 1`, rounds
alternate between traced and untraced, and the last line carries the
per-layer metrics, unscaled.  Counts and self times cover the first
COUNT_ROUNDS traced rounds, which hold the same jobs on every run with the
same seed.  Lines before the last are for reading.

`--record N` runs N rounds at the default seed and stores each job's exit
code and output hashes in expected.json, which later runs at that seed
compare against.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

import calibrate
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")

DEFAULT_SEED = 1  # a claimed gain is rechecked on seed 2
SETUP_REPEATS = 5
COUNT_ROUNDS = 2


@dataclass
class Result:
    name: str
    kind: str
    rnd: int
    latency: float
    problem: str | None
    traced: bool
    scale: float  # calibrate.scale() of the host probes around the job

    @property
    def scaled(self) -> float:
        return self.latency * self.scale


def import_program():
    """Import `naselect.cli` afresh from the checkout, dropping any earlier import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "naselect"]:
        del sys.modules[name]
    mod = importlib.import_module("naselect.cli")
    if not os.path.abspath(mod.__file__).startswith(SRC + os.sep):
        raise ImportError(f"naselect was imported from {mod.__file__}, not from {SRC}")
    return mod


def sha256_file(path: str) -> str | None:
    try:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    except OSError:
        return None


def run_job(cli_mod, job: workloads.Job, tracer: tracing.Tracer | None = None, job_id: int = -1):
    """Time one CLI call, then check it.

    Returns latency, problem, [exit, stdout sha, file sha] and
    `calibrate.scale()` of the host probes right before and right after the
    call.  With a tracer, only the CLI call is traced, as job `job_id`.
    """
    gc.collect()
    before = calibrate.probe()
    out = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    if tracer is not None:
        tracer.start_job(job_id)
        tracer.install()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(job.stdin), out, io.StringIO()
    rc, error = None, None
    try:
        t0 = time.perf_counter()
        try:
            rc = cli_mod.cli(job.argv)
        except (Exception, SystemExit) as e:  # a job that raises fails; the run goes on
            error = e
        t1 = time.perf_counter()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
        if tracer is not None:
            tracer.uninstall()
    scale = calibrate.scale(before, calibrate.probe())
    text = out.getvalue()
    digest = [rc, hashlib.sha256(text.encode()).hexdigest(), sha256_file(job.emitted) if job.emitted else None]
    if error is not None:
        print(f"{job.name}: " + "".join(traceback.format_exception(error)), file=sys.stderr)
        return t1 - t0, f"raised {type(error).__name__}", digest, scale
    try:
        problem = job.check(rc, text)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        problem = f"unreadable output: {type(e).__name__}: {e}"
    return t1 - t0, problem, digest, scale


def git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            return next(line.split()[0] for line in f if line.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return "none (not a git checkout)"


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, with the sample count."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"p{p:g} {q:.3f} ms (n={n})"
    return f"(n={n}, too few for a tail)"


def slot_kinds(workload: str, slots: int) -> list[str]:
    """The job kind each kindN_p50_ms slot reports; slots past the workload's kinds wrap around."""
    kinds = workloads.kinds(workload)
    return [kinds[i % len(kinds)] for i in range(slots)]


def end_to_end(args, spec, results, setups) -> dict[str, float]:
    """Times are scaled to the reference host speed (see calibrate.py); the wall times are printed beside them."""
    by_kind, wall_by_kind = defaultdict(list), defaultdict(list)
    for r in results:
        by_kind[r.kind].append(r.scaled * 1e3)
        wall_by_kind[r.kind].append(r.latency * 1e3)
    slots = [m["name"] for m in spec["end_to_end"] if m["name"].startswith("kind")]
    correct = sum(r.problem is None for r in results)
    values = {
        "setup_s": statistics.median(wall * scale for wall, scale in setups),
        "jobs_per_s": correct / sum(r.scaled for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for slot, kind in zip(slots, slot_kinds(args.workload, len(slots))):
        values[slot] = statistics.median(by_kind[kind])
    scales = [r.scale for r in results]
    print(
        f"host speed: scale {statistics.median(scales):.4f} (min {min(scales):.4f}, max {max(scales):.4f}); "
        f"jobs_per_s {correct / sum(r.latency for r in results):.4f} 1/s unscaled"
    )
    print(f"setup repeats (s, scaled/wall): {', '.join(f'{w * k:.4f}/{w:.4f}' for w, k in setups)}")
    for kind, ms in by_kind.items():
        wall = wall_by_kind[kind]
        print(f"{kind}_p50_ms {statistics.median(ms):.3f} ms; {tail(ms)}; wall p50 {statistics.median(wall):.3f} ms")
    failed = len(results) - correct
    print(f"failed_ratio {failed / len(results):.4f} 1 ({failed} of {len(results)})")
    for slot, kind in zip(slots, slot_kinds(args.workload, len(slots))):
        print(f"{slot} is {kind}_p50_ms")
    return values


def per_layer(spec, tracer: tracing.Tracer, results) -> tuple[dict[str, float], list[str]]:
    window = {i for i, r in enumerate(results) if r.traced and r.rnd // 2 < COUNT_ROUNDS}
    own = tracer.self_times()
    calls: dict[str, int] = defaultdict(int)
    selfs: dict[str, float] = defaultdict(float)
    job_spans: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(tracer.spans):
        if s[4] in window:
            calls[s[0]] += 1
            selfs[s[0]] += own[i]
            job_spans[s[4]].append(i)
    counts: dict[str, float] = defaultdict(float)
    for (job, name), v in tracer.counts.items():
        if job in window:
            counts[name] += v

    # The layers' self times plus the benchmark's glue must add up to each job's wall time.
    problems, glue = [], 0.0
    kind_self: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    kind_wall: dict[str, float] = defaultdict(float)
    for job in sorted(window):
        spans = job_spans[job]
        roots = [i for i in spans if tracer.spans[i][3] < 0]
        wall = results[job].latency
        if len(roots) != 1 or tracer.spans[roots[0]][0] != tracing.ROOT_SPAN:
            problems.append(f"{results[job].name}: {len(roots)} root spans")
            continue
        root = tracer.spans[roots[0]]
        job_glue = wall - (root[2] - root[1])
        layers = sum(own[i] for i in spans)
        if job_glue < 0 or min(own[i] for i in spans) < -1e-9 or abs(layers + job_glue - wall) > 1e-6:
            problems.append(f"{results[job].name}: self times {layers:.6f} s + glue {job_glue:.6f} s != wall {wall:.6f} s")
        glue += job_glue
        kind = results[job].kind
        kind_wall[kind] += wall
        for i in spans:
            kind_self[kind][tracer.spans[i][0]] += own[i]
        kind_self[kind]["(benchmark glue)"] += job_glue

    def rate(traced: bool) -> float:
        rs = [r for r in results if r.traced == traced]
        return sum(r.problem is None for r in rs) / sum(r.latency for r in rs)

    special = {
        "nonanticipation.project.useful_ratio": counts["nonanticipation.project.useful"]
        / max(calls["nonanticipation.project"], 1),
        "nonanticipation.compose_chain.repeat_ratio": counts["nonanticipation.compose_chain.repeats"]
        / max(calls["nonanticipation.compose_chain"], 1),
        "oracle.brute_greatest.budget_exceeded": counts["oracle.brute_greatest.raised.BudgetExceededError"],
        "trace.jobs_per_s": rate(True),
        "trace.untraced_jobs_per_s": rate(False),
        "trace.glue_s": glue,
    }
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in special:
            values[name] = special[name]
        elif name.endswith(".calls"):
            values[name] = calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            values[name] = selfs[name[: -len(".self_s")]]
        else:
            values[name] = counts[name]

    print(f"traced window: {len(window)} jobs in the first {COUNT_ROUNDS} traced rounds")
    for name in sorted(selfs):
        print(f"self time {name} {selfs[name]:.6f} s in {calls[name]} calls")
    print(
        f"tracing overhead: {special['trace.untraced_jobs_per_s']:.4f} jobs/s untraced, "
        f"{special['trace.jobs_per_s']:.4f} jobs/s traced"
    )
    for kind, layers in kind_self.items():
        top = sorted(layers.items(), key=lambda kv: -kv[1])[:5]
        shares = ", ".join(f"{n} {v / kind_wall[kind]:.1%}" for n, v in top)
        load = layers.get("fileio.load", 0.0) / kind_wall[kind]
        print(f"self time on {kind} ({kind_wall[kind]:.3f} s): {shares}; fileio.load {load:.1%}")
    load = sum(layers.get("fileio.load", 0.0) for layers in kind_self.values())
    print(f"fileio.load takes {load / sum(kind_wall.values()):.1%} of traced job time")
    return values, problems


def record(args) -> int:
    expected = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as f:
            expected = json.load(f)
    cli_mod = import_program()
    entries = {}
    for rnd in range(args.record):
        for job in workloads.build_round(args.workload, DEFAULT_SEED, rnd):
            _, problem, digest, _ = run_job(cli_mod, job)
            if problem:
                print(f"{job.name}: {problem}", file=sys.stderr)
                return 1
            entries[job.name] = digest
    expected[args.workload] = entries
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(entries)} jobs of {args.workload} at seed {DEFAULT_SEED}")
    return 0


def measure(args, spec) -> int:
    setups, pending = [], {}
    for rnd in range(SETUP_REPEATS):
        before = calibrate.probe()
        t0 = time.perf_counter()
        cli_mod = import_program()
        pending[rnd] = workloads.build_round(args.workload, args.seed, rnd)
        wall = time.perf_counter() - t0
        setups.append((wall, calibrate.scale(before, calibrate.probe())))
    expected = {}
    if args.seed == DEFAULT_SEED:
        with open(EXPECTED) as f:
            expected = json.load(f).get(args.workload, {})
    tracer = tracing.Tracer() if args.trace else None
    results: list[Result] = []
    try:
        start, rnd = time.perf_counter(), 0
        while True:
            traced = tracer is not None and rnd % 2 == 0
            for job in pending.pop(rnd, None) or workloads.build_round(args.workload, args.seed, rnd):
                latency, problem, digest, scale = run_job(cli_mod, job, tracer if traced else None, len(results))
                if problem is None and job.name in expected and expected[job.name] != digest:
                    problem = f"exit code or output bytes differ from the recorded {expected[job.name]}"
                if problem:
                    print(f"FAILED {job.name}: {problem}", file=sys.stderr)
                results.append(Result(job.name, job.kind, rnd, latency, problem, traced, scale))
                for path in (job.name + ".json", job.emitted):
                    if path and os.path.exists(path):
                        os.remove(path)
            rnd += 1
            if time.perf_counter() - start >= args.seconds and (tracer is None or rnd >= 2 * COUNT_ROUNDS):
                break
        problems = []
        if tracer is None:
            metrics = end_to_end(args, spec, results, setups)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        else:
            metrics, problems = per_layer(spec, tracer, results)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            tracer.write(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl.gz"))
    finally:
        if tracer is not None:
            tracer.close()
    for p in problems:
        print(f"TRACE CHECK FAILED {p}", file=sys.stderr)
    failed = sum(r.problem is not None for r in results)
    print(
        f"env: python {platform.python_version()}, nproc {os.cpu_count()}, git {git_sha()}; "
        f"workload {args.workload}, seed {args.seed}, {rnd} rounds, {len(results)} jobs"
    )
    for name, v in metrics.items():
        print(f"{name} {v:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": len(results),
                "failed": failed,
                "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
            }
        )
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=int, metavar="ROUNDS", help="record expected outputs at the default seed")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "naselect", "__init__.py")):
        print(f"perfbench: no naselect package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sys.path.insert(0, SRC)
    work = os.path.join(HERE, f".work-{os.getpid()}")
    os.makedirs(work)
    cwd = os.getcwd()
    os.chdir(work)  # instance paths, and so the CLI's output, do not depend on the checkout's location
    try:
        return record(args) if args.record else measure(args, spec)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
