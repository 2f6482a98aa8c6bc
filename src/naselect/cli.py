"""Command line: project, compose, feasibility, simulation, oracle cross-checks, scenarios.

Exit codes: 0 success, 1 usage, 2 validation, 3 infeasible conditions,
4 oracle or invariant mismatch, 5 oracle enumeration budget exceeded,
6 internal error, 141 standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import fileio
from .errors import (
    AdversaryError,
    BudgetExceededError,
    InfeasibleError,
    ProcedureStuckError,
    UsageError,
    ValidationError,
)
from .multifunction import is_total, mf_le, mf_meet
from .nonanticipation import (
    canonical_chain,
    compose_chain,
    feasible,
    greatest_na,
    is_chain_na,
    is_prefix_na,
    project,
)
from .oracle import DEFAULT_BUDGET, EnumBudget, brute_greatest
from .scenarios import build_scenario, parse_level
from .stepwise import (
    InteractiveAdversary,
    ScriptedAdversary,
    run_exhaustive,
    run_stepwise,
    validate_trace,
    verify_witness,
)
from .timebase import Partition, full_partition


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors must exit 1
        raise UsageError(message)


def _parse_delta(text: str) -> Partition:
    try:
        indices = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(f"bad partition {text!r}: expected comma-joined stamp indices") from None
    return Partition(indices)


def _emit(report: dict, args) -> None:
    print(fileio.render_report(report, args.json))


def cmd_project(args) -> int:
    inst, mf = fileio.load(args.file)
    result = project(mf, args.prefix)
    _emit(fileio.build_report("project", inst, mf, {"prefix": args.prefix}, result), args)
    return 0


def cmd_compose(args) -> int:
    inst, mf = fileio.load(args.file)
    result = compose_chain(mf, _parse_delta(args.delta))
    _emit(fileio.build_report("compose", inst, mf, {"delta": args.delta}, result), args)
    return 0


def cmd_feasible(args) -> int:
    inst, mf = fileio.load(args.file)
    ok, composed = feasible(mf, _parse_delta(args.delta))
    _emit(fileio.build_report("feasible", inst, mf, {"delta": args.delta}, composed, {"feasible": ok}), args)
    return 0 if ok else 3


def cmd_greatest(args) -> int:
    inst, mf = fileio.load(args.file)
    chain = canonical_chain(inst)
    result = compose_chain(mf, chain)
    extra = {"chain": list(chain.indices[1:])}
    _emit(fileio.build_report("greatest", inst, mf, {}, result, extra), args)
    return 0


def cmd_simulate(args) -> int:
    inst, mf = fileio.load(args.file)
    delta = _parse_delta(args.delta)
    spec = args.adversary
    if spec == "exhaustive":
        traces = run_exhaustive(mf, delta, policy=args.policy, seed=args.seed, check=True)
        if args.json:
            print(fileio.render_traces(inst, mf, {"delta": args.delta}, traces))
        else:
            for name, t in sorted((inst.omega.names[w], t) for w, t in traces.items()):
                print(f"{name}: final={inst.z.names[t.final_h]} consistent={'yes' if t.consistent else 'no'}")
        return 0
    if spec == "interactive":

        def echo(step):
            n = delta.indices[step.index]
            print(
                f"step {step.index}: h={inst.z.names[step.h]} "
                f"h|{n}={','.join(inst.z.signals[step.h][:n])}",
                flush=True,
            )

        trace = run_stepwise(
            mf, delta, InteractiveAdversary(inst), policy=args.policy, seed=args.seed, on_step=echo
        )
        print(fileio.trace_text(trace, inst, None))
        return 0
    if not spec.startswith("scripted:"):
        raise ValidationError(f"unknown adversary {spec!r}")
    try:
        w = inst.omega.index_of(name := spec.split(":", 1)[1])
    except ValidationError:
        raise ValidationError(f"unknown disturbance name {name!r}") from None
    adversary = ScriptedAdversary(inst.omega.signals[w])
    trace = run_stepwise(mf, delta, adversary, policy=args.policy, seed=args.seed)
    problems = validate_trace(mf, trace)
    if args.json:
        print(fileio.trace_text(trace, inst, "\n"))
    else:
        for s in trace.steps:
            print(f"step {s.index}: omega={inst.omega.names[s.omega]} h={inst.z.names[s.h]}")
        print(f"final: {inst.z.names[trace.final_h]}")
    return 0 if not problems else 4


def cmd_oracle(args) -> int:
    inst, mf = fileio.load(args.file)
    delta = _parse_delta(args.delta)
    fast = compose_chain(mf, delta)  # first, so a bad partition is reported ahead of a bad budget
    budget = DEFAULT_BUDGET if args.budget is None else EnumBudget(args.budget)
    slow = brute_greatest(mf, delta, budget)
    match = fast == slow
    report = fileio.build_report(
        "oracle", inst, mf, {"delta": args.delta}, fast, {"match": match}
    )
    _emit(report, args)
    return 0 if match else 4


def cmd_scenario(args) -> int:
    rho = None if args.rho is None else parse_level(args.rho, f"rho {args.rho!r}")
    inst, mf, meta = build_scenario(args.name, rho=rho)
    fileio.save(args.emit, inst, mf, metadata=meta)
    print(f"{args.emit}: {fileio.instance_digest(inst, mf)}")
    return 0


def _check_lines(inst, mf) -> list[tuple[str, bool]]:
    out: list[tuple[str, bool]] = []
    out.append(("order-reflexive", mf_le(mf, mf)))
    lengths = range(1, inst.grid.cells + 1)
    projections = [project(mf, n) for n in lengths]
    for n, g in zip(lengths, projections):
        out.append((f"project-nonexpansive@{n}", mf_le(g, mf)))
        out.append((f"project-idempotent@{n}", project(g, n) == g))
        out.append((f"project-na@{n}", is_prefix_na(g, n).holds))
        out.append(
            (f"fixpoint-char@{n}", is_prefix_na(mf, n).holds == (g == mf))
        )
    delta = full_partition(inst.grid)
    composed = compose_chain(mf, delta)
    out.append(("compose-chain-na", is_chain_na(composed, delta).holds))
    out.append(("compose-below-meet", mf_le(composed, mf_meet(projections))))
    top = greatest_na(mf)
    out.append(("greatest-fully-na", is_chain_na(top, delta).holds))
    bits = sum(v.bit_count() for v in mf.bits)
    if bits <= 16:
        out.append(("compose-vs-oracle", brute_greatest(mf, delta) == composed))
    ok = is_total(composed)
    witness_ok = verify_witness([composed] * delta.steps, delta, mf).ok
    out.append(("feasible-vs-witness", ok == witness_ok))
    try:
        run_exhaustive(mf, delta)
        stepwise_ok = True
    except ProcedureStuckError:
        stepwise_ok = False
    out.append(("feasible-vs-stepwise", ok == stepwise_ok))
    return out


def cmd_check(args) -> int:
    inst, mf = fileio.load(args.file)
    lines = _check_lines(inst, mf)
    for name, ok in lines:
        print(("ok   " if ok else "FAIL ") + name)
    return 0 if all(ok for _, ok in lines) else 4


def build_parser() -> _Parser:
    report = _Parser(add_help=False)
    report.add_argument("--json", action="store_true", help="emit JSON reports")

    parser = _Parser(prog="naselect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("project", parents=[report], help="project at one prefix")
    p.add_argument("file")
    p.add_argument("--prefix", type=int, required=True, help="prefix length in cells")

    p = sub.add_parser("compose", parents=[report], help="greatest partition-non-anticipative multiselector")
    p.add_argument("file")
    p.add_argument("--delta", required=True, help="comma-joined stamp indices")

    p = sub.add_parser("feasible", parents=[report], help="decide step-by-step feasibility")
    p.add_argument("file")
    p.add_argument("--delta", required=True)

    p = sub.add_parser("greatest", parents=[report], help="greatest fully non-anticipative multiselector")
    p.add_argument("file")

    p = sub.add_parser("simulate", parents=[report], help="run the step-by-step procedure")
    p.add_argument("file")
    p.add_argument("--delta", required=True)
    p.add_argument(
        "--adversary",
        required=True,
        help="scripted:<name> | interactive | exhaustive",
    )
    p.add_argument("--policy", choices=("lex", "random"), default="lex")
    p.add_argument("--seed", type=int, default=0, help="seed for --policy random")

    p = sub.add_parser("oracle", parents=[report], help="cross-check composition against brute force")
    p.add_argument("file")
    p.add_argument("--delta", required=True)
    p.add_argument("--budget", type=int, help="cap on enumerated subset assignments")

    p = sub.add_parser("scenario", help="emit a built-in instance")
    p.add_argument("name", help="ex1 | ex2 | ex3:<n> | ex4[:levels] | random:<seed>:<sizes>")
    p.add_argument("--emit", required=True, help="output path")
    p.add_argument("--rho", help="cost level override for ex4, as p/q")

    p = sub.add_parser("check", help="run the invariant suite on one instance")
    p.add_argument("file")

    return parser


_parser: _Parser | None = None
MESSAGE_LIMIT = 400  # characters of an error message shown; a note counts the rest


def cli(argv: list[str]) -> int:
    """Run one command; the parser is built on the first call and reused."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        code = globals()["cmd_" + args.command](args)  # looked up per call, so a rebound command runs
        sys.stdout.flush()  # so that a closed pipe is met here, not at exit
        return code
    except BrokenPipeError:  # a reader closed the pipe the command prints to: stop quietly, as SIGPIPE would
        return 141
    except UsageError as e:
        return _fail("usage error", e, 1)
    except ValidationError as e:
        return _fail("error", e, 2)
    except AdversaryError as e:
        return _fail("adversary error", e, 2)
    except (InfeasibleError, ProcedureStuckError) as e:
        return _fail("infeasible", e, 3)
    except BudgetExceededError as e:
        return _fail("budget exceeded", e, 5)
    except Exception as e:
        return _fail("internal error", f"{type(e).__name__}: {e}", 6)


def _fail(label: str, message: object, code: int) -> int:
    """Print `label: message` on stderr, the message cut to MESSAGE_LIMIT characters, and return `code`."""
    text = str(message)
    if len(text) > MESSAGE_LIMIT:  # an argument echoed in full could fill the terminal
        text = f"{text[:MESSAGE_LIMIT]}... [{len(text) - MESSAGE_LIMIT} more characters]"
    print(f"{label}: {text}", file=sys.stderr)
    return code


def main() -> None:
    if (code := cli(sys.argv[1:])) == 141:  # the interpreter's last flush of stdout then writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
