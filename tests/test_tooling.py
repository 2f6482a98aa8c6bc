"""The benchmark's tracer rebinds library functions by name; keep those names alive.

`perfbench/tracing.py` needs only the standard library, so these checks
read it as source or load it by path; nothing else of the benchmark runs.
The last check runs pytest itself under this project's settings.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys

from naselect import cli, fileio
from naselect.scenarios import build_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")


def _traced_pairs() -> list[tuple[str, str]]:
    with open(TRACING, encoding="utf-8") as f:
        tree = ast.parse(f.read(), TRACING)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED list")


def test_every_traced_function_exists():
    pairs = _traced_pairs() + [("stepwise", "enumerate_omega_delta")]
    missing = [
        f"{mod}.{attr}"
        for mod, attr in pairs
        if not callable(getattr(importlib.import_module(f"naselect.{mod}"), attr, None))
    ]
    assert missing == []
    assert len(pairs) > 10


def test_a_traced_run_raises_nothing(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    path = str(tmp_path / "ex2.json")
    fileio.save(path, *build_scenario("ex2")[:2])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [
            cli.cli(["project", path, "--prefix", "1"]),
            cli.cli(["compose", path, "--delta", "0,1,3"]),
            cli.cli(["simulate", path, "--delta", "0,1,3", "--adversary", "scripted:w11"]),
        ]
    finally:
        tracer.close()
    capsys.readouterr()
    names = {name for _, name in tracer.counts}
    assert codes == [0, 0, 0]
    assert [n for n in names if ".raised." in n] == []
    assert "nonanticipation.project.removed" in names


FALSIFIED_AND_PASSING = """
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None, derandomize=True)
def test_falsified(x):
    assert x < 5


def test_passing():
    pass
"""


def test_a_falsified_hypothesis_test_is_one_failure(tmp_path):
    """With every warning an error, hypothesis's failure report must not end the session."""
    (tmp_path / "test_given.py").write_text(FALSIFIED_AND_PASSING)
    config = os.path.join(ROOT, "pyproject.toml")
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", config, "--rootdir", str(tmp_path), "test_given.py"]
    run = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
