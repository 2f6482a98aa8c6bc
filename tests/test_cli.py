"""Subprocess-level checks of the command surface and its exit-code contract."""

import io
import json
import os
import subprocess
import sys

import pytest

import naselect
from naselect import cli, nonanticipation, stepwise

from conftest import counting

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


@pytest.mark.parametrize("body", [b"\xff\xfe{}", b"[" * 200000], ids=["not-utf8", "too-deep"])
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


def test_feasible_composes_once_on_infeasible_input(tmp_path, monkeypatch, capsys):
    path = tmp_path / "low.json"
    assert cli.cli(["scenario", "ex4", "--rho=-15/4", "--emit", str(path)]) == 0
    calls = counting(monkeypatch, "compose_chain", [cli, nonanticipation])
    assert cli.cli(["feasible", str(path), "--delta", "0,1,3"]) == 3
    assert len(calls) == 1
    assert "feasible: false" in capsys.readouterr().out


def test_check_composes_three_times(tmp_path, monkeypatch, capsys):
    path = str(tmp_path / "r.json")
    assert cli.cli(["scenario", "random:4:4,6,3,2,50", "--emit", path]) == 0
    calls = counting(monkeypatch, "compose_chain", [cli, nonanticipation, stepwise])
    assert cli.cli(["check", path]) == 0
    # its own, the exhaustive run's and greatest_na's
    assert len(calls) == 3


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


def test_oracle_agrees_on_the_ramp_example(ex2_file):
    assert run("oracle", ex2_file, "--delta", "0,1,2,3").returncode == 0


def test_oracle_budget_exhaustion_exits_five(ex2_file):
    r = run("oracle", ex2_file, "--delta", "0,1,2,3", "--budget", "50")
    assert r.returncode == 5


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
