"""Subprocess-level checks of the command surface and its exit-code contract."""

import contextlib
import copy
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naselect
from naselect import cli, fileio, nonanticipation, stepwise

from conftest import counting, to_jsonable

CMD = [sys.executable, "-m", "naselect"]
# The child process imports the same naselect as the test run.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(naselect.__file__)))
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
}


def run(*args, stdin=None):
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, input=stdin, timeout=120, env=ENV
    )


@pytest.fixture(scope="module")
def ex2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ex2.json"
    assert run("scenario", "ex2", "--emit", str(path)).returncode == 0
    return str(path)


@pytest.fixture(scope="module")
def ex4_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ex4.json"
    assert run("scenario", "ex4", "--emit", str(path)).returncode == 0
    return str(path)


def test_usage_errors_exit_one():
    assert run().returncode == 1
    assert run("unknown-command").returncode == 1
    assert run("project").returncode == 1


def test_validation_errors_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run("project", str(bad), "--prefix", "1").returncode == 2
    assert run("scenario", "ex9", "--emit", str(tmp_path / "x.json")).returncode == 2


@pytest.mark.parametrize(
    "body",
    [b"\xff\xfe{}", b"[" * 200000, b'{"grid": [' + b"1" * 5000 + b"]}"],
    ids=["not-utf8", "too-deep", "int-past-the-digit-limit"],
)
def test_undecodable_files_exit_two(tmp_path, capsys, body):
    path = tmp_path / "bad.json"
    path.write_bytes(body)
    assert cli.cli(["project", str(path), "--prefix", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_emit_into_a_missing_directory_exits_two(tmp_path):
    r = run("scenario", "ex1", "--emit", str(tmp_path / "absent" / "x.json"))
    assert r.returncode == 2
    assert "cannot write" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("verb, argv", [("read", ["check"]), ("write", ["scenario", "ex1", "--emit"])])
def test_a_file_error_names_the_file_once(tmp_path, capsys, verb, argv):
    path = str(tmp_path / "absent" / "x.json")
    assert cli.cli(argv + [path]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot {verb} {path}: {os.strerror(errno.ENOENT)}\n"
    assert err.count(path) == 1


ONE_CELL = {"grid": ["0", "1"], "omega": [{"name": "w", "cells": ["a"]}], "z": [{"name": "h", "cells": ["a"]}]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([ONE_CELL], "instance file must hold a JSON object"),
        ({**ONE_CELL, "grid": ["0"], "alpha": {}}, "grid: expected an array of at least two stamps"),
        ({**ONE_CELL, "alpha": [["h"]]}, "alpha: expected an object keyed by omega names"),
    ],
    ids=["not-an-object", "one-stamp", "alpha-not-an-object"],
)
def test_a_misshapen_document_exits_two_with_its_shape_error(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.cli(["project", str(path), "--prefix", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_an_unknown_scripted_disturbance_is_named_as_one(ex4_file, capsys):
    assert cli.cli(["simulate", ex4_file, "--delta", "0,1,3", "--adversary", "scripted:nope"]) == 2
    assert capsys.readouterr() == ("", "error: unknown disturbance name 'nope'\n")


SHORT_PARTITION = "partition must end at the final stamp index 3, got 2"


@pytest.mark.parametrize(
    "command",
    [["compose"], ["feasible"], ["simulate", "--adversary", "exhaustive"], ["oracle", "--budget", "0"]],
    ids=["compose", "feasible", "simulate-exhaustive", "oracle-budget-0"],
)
def test_a_partition_short_of_the_final_stamp_exits_two_with_its_message(ex4_file, command):
    r = run(command[0], ex4_file, "--delta", "0,1,2", *command[1:])
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {SHORT_PARTITION}\n")


def test_the_library_refuses_a_partition_short_of_the_final_stamp_with_the_same_message(ex4_file):
    _, mf = fileio.load(ex4_file)
    with pytest.raises(naselect.ValidationError) as e:
        nonanticipation.compose_chain(mf, naselect.Partition((0, 1, 2)))
    assert str(e.value) == SHORT_PARTITION


PREFIX_ERRORS = {
    "0": "prefix length must be positive, got 0",
    "-1": "prefix length must be positive, got -1",
    "4": "prefix of 4 cells does not fit a grid of 3 cells",
}


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("prefix", PREFIX_ERRORS)
def test_a_prefix_outside_the_grid_exits_two_with_its_message(ex4_file, capsys, prefix, json_flag):
    assert cli.cli(["project", ex4_file, "--prefix", prefix, *json_flag]) == 2
    assert capsys.readouterr() == ("", f"error: {PREFIX_ERRORS[prefix]}\n")


def test_the_library_refuses_a_prefix_outside_the_grid_with_the_same_message(ex4_file):
    _, mf = fileio.load(ex4_file)
    for check, n in [(nonanticipation.project, 0), (nonanticipation.is_prefix_na, 4)]:
        with pytest.raises(naselect.ValidationError) as e:
            check(mf, n)
        assert str(e.value) == PREFIX_ERRORS[str(n)]


@pytest.mark.parametrize(
    "line, code",
    [
        ("project {ex2} --prefix 1 --threads 2", 1),
        ("project {ex2} --prefix 1 --seed 1", 1),
        ("oracle {ex2} --delta 0,1,2,3 --threads 2", 1),
        ("check {ex2} --json", 1),
        ("scenario ex1 --emit {tmp}/x.json --json", 1),
        ("simulate {ex2} --delta 0,3 --adversary exhaustive --policy random --seed 3", 0),
        ("oracle {ex2} --delta 0,1,2,3 --budget 50", 5),
    ],
)
def test_flags_exist_only_where_they_are_read(ex2_file, tmp_path, line, code):
    r = run(*line.format(ex2=ex2_file, tmp=tmp_path).split())
    assert r.returncode == code, r.stderr


def test_feasible_exits_zero_at_the_optimum(ex4_file):
    r = run("feasible", ex4_file, "--delta", "0,1,3")
    assert r.returncode == 0
    assert "feasible: true" in r.stdout


def test_feasible_exits_three_below_the_optimum(tmp_path):
    path = tmp_path / "low.json"
    assert run("scenario", "ex4", "--rho=-15/4", "--emit", str(path)).returncode == 0
    r = run("feasible", str(path), "--delta", "0,1,3")
    assert r.returncode == 3
    assert "empty at:" in r.stdout


def counting_sweeps(monkeypatch):
    """Record each composition `compose_chain` sweeps; a chain the multifunction already keeps sweeps none."""
    sweeps = []
    original = nonanticipation._narrowed

    def counted(a, prefixes):
        if sys._getframe(1).f_code.co_name == "compose_chain":
            sweeps.append(a)
        return original(a, prefixes)

    monkeypatch.setattr(nonanticipation, "_narrowed", counted)
    return sweeps


def test_feasible_composes_once_on_infeasible_input(tmp_path, monkeypatch, capsys):
    path = tmp_path / "low.json"
    assert cli.cli(["scenario", "ex4", "--rho=-15/4", "--emit", str(path)]) == 0
    calls = counting(monkeypatch, "compose_chain", [cli, nonanticipation])
    sweeps = counting_sweeps(monkeypatch)
    assert cli.cli(["feasible", str(path), "--delta", "0,1,3"]) == 3
    assert len(calls) == len(sweeps) == 1
    assert "feasible: false" in capsys.readouterr().out


def test_check_sweeps_once_when_the_canonical_chain_is_the_full_chain(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "r.json")
    assert cli.cli(["scenario", "random:4:4,6,3,2,50", "--emit", path]) == 0
    sweeps = counting_sweeps(monkeypatch)
    assert cli.cli(["check", path]) == 0
    # the canonical chain is (1, 2, 3): greatest_na and the exhaustive run reuse the full chain's
    assert len(sweeps) == 1


def test_check_sweeps_twice_when_the_canonical_chain_is_shorter(ex4_file, monkeypatch, capsys):
    sweeps = counting_sweeps(monkeypatch)
    assert cli.cli(["check", ex4_file]) == 0
    # the full chain (1, 2, 3) and greatest_na's canonical (1, 3)
    assert len(sweeps) == 2


def test_check_projects_and_checks_each_prefix_once_per_multifunction(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "r.json")
    assert cli.cli(["scenario", "random:4:30,60,6,2,80", "--emit", path]) == 0
    projections = counting(monkeypatch, "project", [cli, nonanticipation])
    na_checks = counting(monkeypatch, "is_prefix_na", [cli, nonanticipation])
    assert cli.cli(["check", path]) == 0
    # six prefixes: project mf and its projection, check mf and its projection;
    # the meet and both chain checks reuse those projections and one walk each
    assert (len(projections), len(na_checks)) == (12, 12)


def test_scripted_simulate_validates_against_the_composition_it_drove(ex4_file, monkeypatch, capsys):
    sweeps = counting_sweeps(monkeypatch)
    argv = ["simulate", ex4_file, "--delta", "0,1,3", "--adversary", "scripted:v1"]
    assert cli.cli(argv) == 0
    assert len(sweeps) == 1


@pytest.mark.parametrize("adversary", ["exhaustive", "interactive"])
def test_simulate_sweeps_once(ex4_file, monkeypatch, capsys, adversary):
    monkeypatch.setattr(sys, "stdin", io.StringIO("#0\n#0\n"))
    sweeps = counting_sweeps(monkeypatch)
    assert cli.cli(["simulate", ex4_file, "--delta", "0,1,3", "--adversary", adversary]) == 0
    assert len(sweeps) == 1


def test_greatest_derives_the_canonical_chain_once(ex2_file, monkeypatch, capsys):
    calls = counting(monkeypatch, "canonical_chain", [cli, nonanticipation])
    assert cli.cli(["greatest", ex2_file]) == 0
    assert len(calls) == 1


def test_check_needs_no_tuple_budget_on_a_large_instance(tmp_path, capsys):
    path = str(tmp_path / "big.json")
    assert cli.cli(["scenario", "random:3:100,500,8,3,90", "--emit", path]) == 0
    assert cli.cli(["check", path]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_unexpected_exceptions_exit_six(ex2_file, monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("kaput")

    monkeypatch.setattr(cli, "cmd_project", boom)
    assert cli.cli(["project", ex2_file, "--prefix", "1"]) == 6
    assert capsys.readouterr().err == "internal error: RuntimeError: kaput\n"


def test_a_closed_stdout_pipe_exits_141_with_nothing_on_stderr(tmp_path):
    # `check` on 2000 cells prints about 8000 lines, more than a pipe holds,
    # so the command is still writing when the reader closes its end
    path = str(tmp_path / "long.json")
    assert cli.cli(["scenario", "random:1:10,10,2000,2", "--emit", path]) == 0
    with subprocess.Popen([*CMD, "check", path], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV) as proc:
        assert proc.stdout.readline() == b"ok   order-reflexive\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == b""


LONG = "7" * 5000


@pytest.mark.parametrize(
    "argv, code",
    [
        (["compose", "{ex4}", "--delta", "0," + LONG], 2),
        (["scenario", "random:1:" + LONG, "--emit", "{out}"], 2),
        (["scenario", "ex3:" + LONG, "--emit", "{out}"], 2),
        (["scenario", "ex4", "--rho", LONG, "--emit", "{out}"], 2),
        (["project", "{ex4}", "--prefix", LONG], 1),
        (["oracle", "{ex4}", "--delta", "0,1,2,3", "--budget", LONG], 1),
        (["simulate", "{ex4}", "--delta", "0,1,2,3", "--adversary", LONG], 2),
        (["simulate", "{ex4}", "--delta", "0,1,2,3", "--adversary", "scripted:" + LONG], 2),
        (["check", "{long_name}"], 2),
    ],
    ids=["delta", "random-spec", "ex3-level", "rho", "prefix", "budget", "adversary", "scripted", "file-name"],
)
def test_an_oversized_argument_is_cut_from_the_error_message(ex4_file, tmp_path, capsys, argv, code):
    paths = {"ex4": ex4_file, "out": str(tmp_path / "x.json"), "long_name": str(tmp_path / ("f" * 5000))}
    assert cli.cli([a.format(**paths) for a in argv]) == code
    err = capsys.readouterr().err
    assert len(err.encode()) < 1024 and "Traceback" not in err
    assert err.endswith(" more characters]\n") and err.count("\n") == 1
    assert not os.path.exists(paths["out"])


@pytest.mark.parametrize("size", [1, cli.MESSAGE_LIMIT - 1, cli.MESSAGE_LIMIT, cli.MESSAGE_LIMIT + 1, 9999])
def test_error_messages_up_to_the_limit_print_whole(ex2_file, monkeypatch, capsys, size):
    message = "".join(str(k % 10) for k in range(size))

    def refuse(args):
        raise naselect.ValidationError(message)

    monkeypatch.setattr(cli, "cmd_project", refuse)
    assert cli.cli(["project", ex2_file, "--prefix", "1"]) == 2
    dropped = size - cli.MESSAGE_LIMIT
    if dropped <= 0:
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        assert capsys.readouterr().err == f"error: {message[: cli.MESSAGE_LIMIT]}... [{dropped} more characters]\n"


def test_the_parser_is_built_once_per_process(ex2_file, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_parser", None)
    calls = counting(monkeypatch, "build_parser", [cli])
    for _ in range(20):
        assert cli.cli(["project", ex2_file, "--prefix", "1"]) == 0
    assert len(calls) == 1


def test_a_usage_error_after_a_successful_call_exits_one(ex2_file, capsys):
    assert cli.cli(["project", ex2_file, "--prefix", "1"]) == 0
    assert cli.cli(["project", ex2_file]) == 1
    assert capsys.readouterr().err.startswith("usage error:")


def test_no_option_leaks_into_the_next_call(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "r.json")
    assert cli.cli(["scenario", "random:5:5,7,3,2,60", "--emit", path]) == 0
    argv = ["simulate", path, "--delta", "0,1,2,3", "--adversary", "exhaustive", "--policy", "random"]
    capsys.readouterr()

    def stdout(args):
        assert cli.cli(args) == 0
        return capsys.readouterr().out

    seeded = stdout(argv + ["--seed", "3"])
    after = stdout(argv)
    monkeypatch.setattr(cli, "_parser", None)
    fresh = stdout(argv)
    assert after == fresh != seeded


@pytest.mark.parametrize(
    "name, cells, field",
    [("w\ud800", ["a"], "omega[0].name"), ("w0", ["\ud800"], "omega[0].cells")],
    ids=["name", "token"],
)
def test_lone_surrogates_are_rejected_at_load(tmp_path, name, cells, field):
    """JSON can escape a lone surrogate; no UTF-8 text output can print one, so only a real process shows it."""
    doc = {
        "grid": ["0", "1"],
        "omega": [{"name": name, "cells": cells}],
        "z": [{"name": "h0", "cells": cells}],
        "alpha": {name: ["h0"]},
    }
    path = tmp_path / "lone.json"
    path.write_text(json.dumps(doc))  # ASCII, with the surrogate as a \u escape
    for argv in (
        ["project", str(path), "--prefix", "1"],
        ["greatest", str(path)],
        ["check", str(path)],
        ["simulate", str(path), "--delta", "0,1", "--adversary", "exhaustive"],
    ):
        r = run(*argv)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.startswith(f"error: {field}: lone surrogate")


def test_oracle_agrees_on_the_ramp_example(ex2_file):
    assert run("oracle", ex2_file, "--delta", "0,1,2,3").returncode == 0


def test_oracle_budget_exhaustion_exits_five(ex2_file):
    r = run("oracle", ex2_file, "--delta", "0,1,2,3", "--budget", "50")
    assert r.returncode == 5


# Runs one command under a 1 GB address-space cap and reports its exit code,
# wall time, peak resident set (KiB) and stdout, from a fresh interpreter so
# no earlier child of the test run counts towards the peak.
MEMORY_PROBE = """
import json, resource, subprocess, sys, time
def cap():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
t = time.perf_counter()
r = subprocess.run(sys.argv[1:], capture_output=True, preexec_fn=cap, timeout=60)
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps([r.returncode, time.perf_counter() - t, rss, r.stdout.decode()]))
"""


def test_oracle_budget_bounds_memory(tmp_path):
    # Two disturbances that share cell 0, each with all 30 trajectories: the
    # second subset tried breaks a budget of 1, long before 2**30 subsets exist.
    names = [f"h{j}" for j in range(30)]
    doc = {
        "grid": ["0", "1", "2"],
        "omega": [{"name": "w1", "cells": ["a", "a"]}, {"name": "w2", "cells": ["a", "b"]}],
        "z": [{"name": n, "cells": [str(j), "a"]} for j, n in enumerate(names)],
        "alpha": {"w1": names, "w2": names},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    argv = [*CMD, "oracle", str(path), "--delta", "0,1,2", "--budget", "1"]
    probe = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE, *argv], capture_output=True, text=True, timeout=120, env=ENV
    )
    code, seconds, rss_kib, _ = json.loads(probe.stdout)
    assert code == 5
    assert seconds < 1
    assert rss_kib < 100 * 1024


def test_oracle_on_a_wide_value_set_stays_small(tmp_path):
    # One disturbance holding 20 000 one-cell trajectories: the walk's first
    # subset is the whole set, and it becomes one int without an int per member.
    names = [f"h{j}" for j in range(20000)]
    doc = {
        "grid": ["0", "1"],
        "omega": [{"name": "w", "cells": ["a"]}],
        "z": [{"name": n, "cells": [f"t{j}"]} for j, n in enumerate(names)],
        "alpha": {"w": names},
    }
    path = tmp_path / "single.json"
    path.write_text(json.dumps(doc))
    argv = [*CMD, "oracle", str(path), "--delta", "0,1", "--budget", "1"]
    probe = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE, *argv], capture_output=True, text=True, timeout=120, env=ENV
    )
    code, _, rss_kib, _ = json.loads(probe.stdout)
    assert code == 0
    assert rss_kib < 64 * 1024


def test_check_on_a_long_emitted_grid_runs_in_bounded_memory(tmp_path):
    # 8000 cells: a step that kept a copy of its revealed prefix held about
    # 8000**2 / 2 cell references per path, past the cap
    path = str(tmp_path / "long.json")
    assert cli.cli(["scenario", "random:1:10,10,8000,2", "--emit", path]) == 0
    probe = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE, *CMD, "check", path], capture_output=True, text=True, timeout=120, env=ENV
    )
    code, _, _, out = json.loads(probe.stdout)
    assert code == 0
    lines = out.splitlines()
    assert lines and all(line.startswith("ok   ") for line in lines)


def test_project_output_is_deterministic(ex2_file):
    r1 = run("project", ex2_file, "--prefix", "2", "--json")
    r2 = run("project", ex2_file, "--prefix", "2", "--json")
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    doc = json.loads(r1.stdout)
    assert doc["result"]["w12"] == ["h22", "h42"]
    assert doc["flags"]["na"] == {"1": False, "2": True, "3": True}


def test_compose_matches_the_expected_table(ex2_file):
    doc = json.loads(run("compose", ex2_file, "--delta", "0,1,2,3", "--json").stdout)
    assert doc["result"] == {
        "w11": ["h21", "h41"],
        "w12": ["h22", "h42"],
        "w21": ["h21", "h41"],
        "w22": ["h22", "h42"],
    }
    assert doc["flags"]["total"] is True


def test_greatest_reports_the_canonical_chain(ex2_file):
    doc = json.loads(run("greatest", ex2_file, "--json").stdout)
    assert doc["chain"] == [1, 2, 3]
    assert doc["flags"]["total"] is True


def test_simulate_scripted_trace(ex4_file):
    doc = json.loads(
        run(
            "simulate", ex4_file, "--delta", "0,1,3", "--adversary", "scripted:v2", "--json"
        ).stdout
    )
    assert doc["final"] == "u(1/2,-1,-1)"
    assert doc["consistent"] is True
    assert [s["omega"] for s in doc["steps"]] == ["v1", "v2"]


def test_simulate_exhaustive_covers_all_paths(ex4_file):
    doc = json.loads(
        run("simulate", ex4_file, "--delta", "0,1,3", "--adversary", "exhaustive", "--json").stdout
    )
    assert set(doc["traces"]) == {"v1", "v2"}


def test_simulate_infeasible_exits_three(tmp_path):
    path = tmp_path / "low.json"
    run("scenario", "ex4", "--rho=-4", "--emit", str(path))
    r = run("simulate", str(path), "--delta", "0,1,3", "--adversary", "scripted:v1")
    assert r.returncode == 3
    # the whole stderr line is pinned, so a change to the `InfeasibleError` text is a deliberate one
    assert (r.stdout, r.stderr) == (
        "",
        "infeasible: conditions are infeasible: composed multiselector is empty at v1, v2\n",
    )


LONG = "a level's numerator and denominator have at most 4300 digits"


@pytest.mark.parametrize(
    "args,code,out",
    [
        (["ex4", "--rho", "1e5000"], 2, f"error: bad rho '1e5000': {LONG}\n"),
        (["ex4", "--rho=-1e-5000"], 2, f"error: bad rho '-1e-5000': {LONG}\n"),
        (["ex4:1e-5000,1"], 2, f"error: bad level list '1e-5000,1': {LONG}\n"),
        # a denominator of exactly 4300 digits still prints, so this level is kept
        (["ex4:0,1e-4299"], 0, "{path}: d4e7c523275789fafd26e29a0d7a7f3f2a078678ec08ed96f3e2701e802e105a\n"),
    ],
    ids=["rho=1e5000", "rho=-1e-5000", "ex4:1e-5000,1", "ex4:0,1e-4299"],
)
def test_scenario_levels_past_4300_digits_exit_two(tmp_path, capsys, args, code, out):
    path = tmp_path / "x.json"
    assert cli.cli(["scenario", *args, "--emit", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out + captured.err == out.format(path=path)
    assert path.exists() == (code == 0)


@pytest.mark.parametrize(
    "argv",
    [
        ["project", "--prefix", "2"],
        ["project", "--prefix", "2", "--json"],
        ["simulate", "--delta", "0,1,2,3", "--adversary", "exhaustive", "--json"],
        ["check"],
    ],
    ids=["project", "project --json", "simulate exhaustive --json", "check"],
)
def test_a_grid_stamp_past_4300_digits_exits_two(tmp_path, capsys, argv):
    path = tmp_path / "ex1.json"
    assert cli.cli(["scenario", "ex1", "--emit", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["grid"][-1] = "1e5000"  # still increasing, so only its length is wrong
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.cli([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out + captured.err == f"error: bad grid[3] stamp '1e5000': {LONG}\n"


def test_interactive_protocol(ex4_file):
    r = run(
        "simulate",
        ex4_file,
        "--delta",
        "0,1,3",
        "--adversary",
        "interactive",
        stdin="#0\n-1,-1\n",
    )
    assert r.returncode == 0
    assert "#0" in r.stderr  # prompts list the legal extensions
    lines = r.stdout.strip().splitlines()
    assert lines[0].startswith("step 1: h=")
    trace = json.loads(lines[-1])
    assert trace["final"] == "u(1/2,-1,-1)"


def test_interactive_rejects_garbage(ex4_file):
    r = run(
        "simulate",
        ex4_file,
        "--delta",
        "0,1,3",
        "--adversary",
        "interactive",
        stdin="#0\nnope\n",
    )
    assert r.returncode == 2


def _comma_tokens_file(tmp_path):
    # Both disturbances print as "a,b,c" once their cells are comma-joined.
    doc = {
        "grid": ["0", "1", "2"],
        "omega": [{"name": "w0", "cells": ["a,b", "c"]}, {"name": "w1", "cells": ["a", "b,c"]}],
        "z": [{"name": "h0", "cells": ["x", "y"]}],
        "alpha": {"w0": ["h0"], "w1": ["h0"]},
    }
    path = tmp_path / "commas.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "line, code, final",
    [("a,b,c\n", 2, None), ("#1\n", 0, "h0")],
)
def test_interactive_literal_line_must_match_one_option(
    tmp_path, monkeypatch, capsys, line, code, final
):
    path = _comma_tokens_file(tmp_path)
    monkeypatch.setattr(sys, "stdin", io.StringIO(line))
    argv = ["simulate", path, "--delta", "0,2", "--adversary", "interactive"]
    assert cli.cli(argv) == code
    out, err = capsys.readouterr()
    assert "#0  a,b,c" in err and "#1  a,b,c" in err
    if final is None:
        assert "matches options #0, #1 at step 1; pick one with #k" in err
    else:
        assert json.loads(out.splitlines()[-1])["final"] == final


@pytest.mark.parametrize("line", ["#-1\n", "#2\n", "#one\n"])
def test_interactive_index_must_name_an_option(tmp_path, monkeypatch, capsys, line):
    path = _comma_tokens_file(tmp_path)
    monkeypatch.setattr(sys, "stdin", io.StringIO(line))
    argv = ["simulate", path, "--delta", "0,2", "--adversary", "interactive"]
    assert cli.cli(argv) == 2
    assert f"no extension option {line.strip()!r} at step 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line", ["#1_0\n", "#+1\n", "# 2\n", "#\u0663\n", pytest.param("#" + "1" * 4301 + "\n", id="#1x4301")]
)
def test_interactive_index_is_ascii_digits_only(tmp_path, monkeypatch, capsys, line):
    # Twelve one-cell disturbances, so int() would read each of these as a listed option.
    doc = {
        "grid": ["0", "1"],
        "omega": [{"name": f"w{k}", "cells": [f"t{k:02}"]} for k in range(12)],
        "z": [{"name": "h0", "cells": ["x"]}],
        "alpha": {f"w{k}": ["h0"] for k in range(12)},
    }
    path = tmp_path / "twelve.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(sys, "stdin", io.StringIO(line))
    argv = ["simulate", str(path), "--delta", "0,1", "--adversary", "interactive"]
    assert cli.cli(argv) == 2
    message = f"no extension option {line.strip()!r} at step 1"
    if len(message) > cli.MESSAGE_LIMIT:  # the 4301-digit index is cut, and what was dropped is counted
        message = f"{message[: cli.MESSAGE_LIMIT]}... [{len(message) - cli.MESSAGE_LIMIT} more characters]"
    assert capsys.readouterr().err.endswith(f"adversary error: {message}\n")


def test_interactive_read_stops_at_the_longest_answer_and_a_margin(tmp_path, monkeypatch, capsys):
    path = _comma_tokens_file(tmp_path)
    stdin = io.StringIO("x" * 10**6 + "\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    argv = ["simulate", path, "--delta", "0,2", "--adversary", "interactive"]
    assert cli.cli(argv) == 2
    bound = len("a,b,c") + stepwise.ANSWER_MARGIN  # the longest answer beats "#1"
    assert stdin.tell() <= bound
    message = f"line of {bound} or more characters at step 1; no answer is that long"
    assert capsys.readouterr().err.endswith(f"adversary error: {message}\n")


# Runs every subcommand in one child process and reports exit codes and output.
_ALL_COMMANDS = """
import contextlib, io, json, sys
from naselect.cli import cli
out = {}
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli(argv)
    out[" ".join(argv)] = [code, buf.getvalue()]
print(json.dumps(out))
"""


def test_same_bytes_under_different_hash_seeds(tmp_path):
    results = []
    for hash_seed in ("0", "3"):
        d = tmp_path / hash_seed
        d.mkdir()
        emitted = str(d / "r.json")
        commands = [["scenario", "random:5:5,7,3,2,60", "--emit", emitted]] + [
            cmd + [emitted] + rest
            for cmd, rest in [
                (["project", "--json"], ["--prefix", "2"]),
                (["compose", "--json"], ["--delta", "0,1,3"]),
                (["feasible", "--json"], ["--delta", "0,2,3"]),
                (["greatest", "--json"], []),
                (
                    ["simulate", "--json"],
                    ["--delta", "0,1,2,3", "--adversary", "exhaustive", "--policy", "random"],
                ),
                (["oracle", "--json"], ["--delta", "0,1,2,3"]),
                (["check"], []),
            ]
        ]
        r = subprocess.run(
            [sys.executable, "-c", _ALL_COMMANDS, json.dumps(commands)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**ENV, "PYTHONHASHSEED": hash_seed},
        )
        assert r.returncode == 0, r.stderr
        outputs = list(json.loads(r.stdout).values())
        assert len(outputs) == 8 and all(code in (0, 3) for code, _ in outputs)
        results.append((outputs[1:], (d / "r.json").read_bytes()))
    assert results[0] == results[1]


def test_check_passes_on_scenarios(ex2_file, ex4_file):
    for path in (ex2_file, ex4_file):
        r = run("check", path)
        assert r.returncode == 0
        assert "FAIL" not in r.stdout


def test_scenario_random_roundtrip(tmp_path):
    path = tmp_path / "r.json"
    assert run("scenario", "random:7:3,4,3", "--emit", str(path)).returncode == 0
    r = run("check", str(path))
    assert r.returncode == 0


def test_scenario_emit_then_reload_digest_is_stable(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    d1 = run("scenario", "ex2", "--emit", str(p1)).stdout.split()[-1]
    d2 = run("scenario", "ex2", "--emit", str(p2)).stdout.split()[-1]
    assert d1 == d2


# SHA-256 of what each command printed (or `scenario --emit` wrote) on fixed
# random instances.  The first pins were recorded when reports, files and the
# input digest were still written by the `json` module; the 40x200x6 ones when
# each projection still rebuilt its keysets from the value sets.  It has
# classes of several members at several prefixes, so value sets narrowed in
# different ways must still print the same.  The `check` pins were recorded
# while `check` still took its meet from a second round of projections and
# `is_chain_na` still walked each prefix on its own.  The same inputs must keep
# giving the same bytes.
_PINNED = {
    "random:7:6,12,4,3,60": {
        "scenario --emit": "ae6aa64844bcc8a129fd47bff8db22c0df13f73bba1b794e427de51eea8d8bfe",
        "scenario stdout": "8e85740f86a6c224d49c44eec17c3c2a2272a7a865ad611c35b66c98f4101635",
        "project": "90fbd11f279c6cd57d1e82ca6101eb400c753f49b9abf139220c935136df7287",
        "project --json": "52873c4f5f9c992b850f0c6e6c468d8ed510f27c1b12c673385d5236925de9c2",
        "compose": "37a3cc116e2dc3c3b17cb96fe1874cd3c765b868b29f9c4273aeec9c8fda21b3",
        "compose --json": "f9ab07264ced786e369a707c931ecf22475b875175de8a8ed372b41a6d24d2bf",
        "feasible": "deb0f6a2037d17a91c41be0796acd5e4ed4b6158e3f8f7f6896d9080f1a35b51",
        "feasible --json": "92e92e5b6d18924710dbf43327e836a617e075e8daaac3442ef86c7397582032",
        "greatest": "e0694b64d128b2287ff854b5cd183dae340d90dad6378bb4b30183c6fb2b6918",
        "greatest --json": "b91f5c43c1a64301fabed3109762e804054ec3ea8cbf9feaa6d1c4a9afccc1b1",
        "oracle": "61281fb5c4d96c0d202f5f91d6595ef98388f4a49c93acbcc79f24c557f6fc20",
        "oracle --json": "56b1ae3bd95ffb1e1af0411a97a02b7c64b840220d824c66f22b7be120ab6d66",
        "simulate exhaustive": "623715c8c5b34c06a63b7e53120a6a435dcf89cffab6649fc36d96892a2a6113",
        "simulate exhaustive --json": "2a5c4dd7ec1fc6bc73351514388b5b789da4040b4fa4a53b1b8dbf602eff1e25",
        "simulate scripted": "9ecd861757d374cb81dd951b5da8c48015bcd4838bf21c1d7054044ab3fd459a",
        "simulate scripted --json": "dd3cdef55abcebe9ca291d37b6f91eac8d96a1f0467f95bef3f855fa5cc664da",
        "simulate interactive": "5037424519625d1807dd1a320689497898ea63e1f599279d68d764d2a7b1ec8e",
        "check": "1dd794037805246760bee17c33798ea41c8d671f57724a32402544e00e26e366",
    },
    # too large for the brute-force oracle, so no oracle pins
    "random:11:40,200,6,3,50": {
        "scenario --emit": "2d657b2f2ad5ebcc633910da46854d7e238a501661b605ab6f64b6c82ceaaa6b",
        "scenario stdout": "c5510a565cc5d64ed3348062bd41fbd4c317fc87496642e7b6ebf9141712a68a",
        "project": "4cb1fcd8a4b5011aed240f64f1277d0292ba10e57d98ea7e505762641f631ebf",
        "project --json": "9e66b7be8b685e8d48ba6665a07b24a2116de90dca8c6900955a7d45629d4484",
        "compose": "0139884805449c010355b34d2c03bb70396a7a981bacbf55dec37a979e4a0647",
        "compose --json": "2387b3aee762c02a53a63a0e53e1142123ed14da52eb4c9f0b456014a3f68eab",
        "feasible": "0f32c805f582b79eee080ec781e7393f1c582374fc4dc1cc392817c0ba99bc8c",
        "feasible --json": "0db82e2bc4fc2b176c1dcc793c34dc430ce1f20d018ee9fd313808936fd49870",
        "greatest": "673ebe84aa7a121e043d2aea610df379fc81fe04be6bc6c854c4c0c7b3729a01",
        "greatest --json": "a7838187fb424561195cbcfbfff765f02c296fcaa0330292195b150dec662e23",
        "simulate exhaustive": "763fe58565b15d92309f7040e4ef924f07542c9e3351bf5be9b05deb0f0613cd",
        "simulate exhaustive --json": "dcc9601894a2224ca0dbbdf96dc89f991633bb37171f377392aa8666d9102f3d",
        "simulate scripted": "5c65d43043203a4c2e6fcc52a1860014b397694ff305f3119f952bdba49ab0c9",
        "simulate scripted --json": "8078179fd1b10dc58ba8ec9877b6a9d339c6e71fd69b8998d699d29de728024e",
        "simulate interactive": "ac41c5e1960c4525df8e227a825476a83d29164ffd48c68343c9f7405761413f",
        "check": "6f43599d46f18d2184917aa40e666dd66bf3afaf290b5139c791718fdbb1f086",
    },
}


def _sha_of_stdout(argv, capsys) -> str:
    assert cli.cli(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def _pinned_outputs(spec, delta, capsys, monkeypatch, tmp_path, with_oracle) -> dict:
    got = {"scenario stdout": _sha_of_stdout(["scenario", spec, "--emit", "r.json"], capsys)}
    got["scenario --emit"] = hashlib.sha256((tmp_path / "r.json").read_bytes()).hexdigest()
    commands = [
        ["project", "r.json", "--prefix", "2"],
        ["compose", "r.json", "--delta", delta],
        ["feasible", "r.json", "--delta", delta],
        ["greatest", "r.json"],
    ]
    if with_oracle:
        commands.append(["oracle", "r.json", "--delta", delta])
    for argv in commands:
        got[argv[0]] = _sha_of_stdout(argv, capsys)
        got[argv[0] + " --json"] = _sha_of_stdout(argv + ["--json"], capsys)
    exhaustive = ["simulate", "r.json", "--delta", delta, "--adversary", "exhaustive", "--policy", "random", "--seed", "3"]
    got["simulate exhaustive"] = _sha_of_stdout(exhaustive, capsys)
    got["simulate exhaustive --json"] = _sha_of_stdout(exhaustive + ["--json"], capsys)
    cells = int(delta.split(",")[-1])
    full = ["simulate", "r.json", "--delta", ",".join(map(str, range(cells + 1))), "--adversary"]
    got["simulate scripted"] = _sha_of_stdout(full + ["scripted:w1"], capsys)
    got["simulate scripted --json"] = _sha_of_stdout(full + ["scripted:w1", "--json"], capsys)
    monkeypatch.setattr("sys.stdin", io.StringIO("#0\n" * cells))
    got["simulate interactive"] = _sha_of_stdout(full + ["interactive"], capsys)
    got["check"] = _sha_of_stdout(["check", "r.json"], capsys)
    return got


def test_outputs_keep_their_pinned_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = {
        "random:7:6,12,4,3,60": _pinned_outputs("random:7:6,12,4,3,60", "0,2,4", capsys, monkeypatch, tmp_path, True),
        "random:11:40,200,6,3,50": _pinned_outputs("random:11:40,200,6,3,50", "0,2,4,6", capsys, monkeypatch, tmp_path, False),
    }
    assert got == _PINNED


# ---------------------------------------------------------------------------
# Generative contract: every file command answers a mutated document, or
# refuses it with a documented exit code; no traceback, no internal error.

_SEED_SPECS = ["ex1", "ex2", "ex3:2", "ex4", "random:3:3,4,3,2,60"]
_SEED_DOCS = [to_jsonable(*naselect.build_scenario(spec)) for spec in _SEED_SPECS]
_ODD = ["1e5000", "-1e-5000", "1/0", "1/2", "-1", "0", "", "x", "\ud800", 0, -2, 1.5, None, True, [], {}, ["a"], {"a": []}]
_LAST_STAMPS = ["1e5000", "1e4299", "10/3", "1e-5000", "9" * 4301]  # past 4300 digits, just within them, or plain


def _places(doc):
    """Every (container, key) pair below the document's top level, in document order."""
    out, todo = [], [doc]
    while todo:
        c = todo.pop()
        for k in range(len(c)) if isinstance(c, list) else list(c):
            out.append((c, k))
            if isinstance(c[k], (list, dict)):
                todo.append(c[k])
    return out


@st.composite
def mutated_runs(draw):
    """A bundled document with a few fields dropped, replaced, copied or reversed, and one file command on it."""
    doc = copy.deepcopy(draw(st.sampled_from(_SEED_DOCS)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # a third of the documents stay valid
        op = draw(st.sampled_from(["drop", "odd", "copy", "reverse", "stamp", "last stamp", "top"]))
        grid, places = doc.get("grid"), _places(doc)
        if op == "top" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif op in ("stamp", "last stamp") and isinstance(grid, list) and grid:
            k = -1 if op == "last stamp" else draw(st.integers(0, len(grid) - 1))
            grid[k] = draw(st.sampled_from(_LAST_STAMPS if op == "last stamp" else _ODD))
        elif op in ("drop", "odd", "copy", "reverse") and places:
            c, k = draw(st.sampled_from(places))
            if op == "drop":
                del c[k]
            elif op == "odd":
                c[k] = draw(st.sampled_from(_ODD))
            elif op == "copy":
                c2, k2 = draw(st.sampled_from(places))
                c[k] = copy.deepcopy(c2[k2])
            elif isinstance(c[k], list):
                c[k].reverse()
    grid = doc.get("grid")
    n = len(grid) - 1 if isinstance(grid, list) and grid else 3
    inner = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)))))
    other = sorted(draw(st.sets(st.integers(-1, n + 1), min_size=1)))
    delta = ",".join(map(str, draw(st.sampled_from([range(n + 1), [0, *inner, n], other, ["0", "x"]]))))
    names = [w["name"] for w in doc.get("omega", []) if isinstance(w, dict) and isinstance(w.get("name"), str)]
    command = draw(st.sampled_from(["project", "compose", "feasible", "greatest", "simulate", "oracle", "check"]))
    argv = {
        "project": ["--prefix", str(draw(st.integers(1, n) | st.integers(-1, n + 1)))],
        "compose": ["--delta", delta],
        "feasible": ["--delta", delta],
        "greatest": [],
        "oracle": ["--delta", delta, "--budget", str(draw(st.integers(-1, 3000)))],
        "check": [],
        "simulate": ["--delta", delta, "--policy", draw(st.sampled_from(["lex", "random"])), "--seed", "7", "--adversary",
                     draw(st.sampled_from(["exhaustive", "interactive", "scripted:nobody", *("scripted:" + w for w in names)]))],
    }[command]
    if command != "check" and draw(st.booleans()):
        argv.append("--json")
    stdin = "".join(draw(st.lists(st.sampled_from(["#0\n", "#1\n", "#9\n", "0\n", "1,0\n", "x\n", "\n"]), max_size=6)))
    return doc, [command, *argv], stdin


def _in_process(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch("sys.stdin", io.StringIO(stdin)):
        code = cli.cli(argv)
    return code, out.getvalue(), err.getvalue()


@given(mutated_runs())
@settings(max_examples=250, deadline=None, derandomize=True)
def test_every_file_command_answers_a_mutated_document_with_a_documented_exit(tmp_path_factory, run):
    doc, argv, stdin = run
    path = tmp_path_factory.mktemp("mutated") / "x.json"
    path.write_text(json.dumps(doc))
    argv = [argv[0], str(path), *argv[1:]]
    code, out, err = _in_process(argv, stdin)
    assert 0 <= code <= 5, (argv, err)
    assert "Traceback" not in err and "internal error" not in err, (argv, err)
    if code == 0:
        assert _in_process(argv, stdin) == (code, out, err)
