import contextlib
import io
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naselect import (
    Instance,
    InfeasibleError,
    InteractiveAdversary,
    Multifunction,
    Partition,
    Prefix,
    ScriptedAdversary,
    SignalFamily,
    ValidationError,
    build_example2,
    build_scenario,
    canonical_chain,
    compose_chain,
    feasible,
    greatest_na,
    partition_to_chain,
    project,
    random_instance,
    run_exhaustive,
    run_stepwise,
)
from naselect import cli, fileio, scenarios
from naselect.signals import PrefixIndex
from naselect.fileio import (
    build_report,
    from_jsonable,
    instance_digest,
    load,
    render_report,
    save,
)

from conftest import (
    counting,
    full_chain,
    hostile_instances,
    hostile_text,
    naive_digest,
    naive_render,
    naive_report,
    small_instances,
    to_jsonable,
    trace_doc,
)


def _doc():
    return {
        "grid": ["0", "1", "2"],
        "omega": [
            {"name": "w1", "cells": ["a", "b"]},
            {"name": "w2", "cells": ["a", "c"]},
        ],
        "z": [
            {"name": "h1", "cells": ["x", "y"]},
            {"name": "h2", "cells": ["x", "z"]},
        ],
        "alpha": {"w1": ["h1", "h2"], "w2": ["h2"]},
    }


def test_round_trip_preserves_the_digest(tmp_path):
    inst, mf = build_example2()
    path = tmp_path / "inst.json"
    save(str(path), inst, mf, metadata={"scenario": "ex2"})
    inst2, mf2 = load(str(path))
    assert instance_digest(inst, mf) == instance_digest(inst2, mf2)
    assert inst == inst2
    assert mf.values == mf2.values


def test_save_twice_is_byte_identical(tmp_path):
    inst, mf = random_instance(5, 3, 4, 3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save(str(p1), inst, mf)
    save(str(p2), inst, mf)
    assert p1.read_bytes() == p2.read_bytes()


def test_missing_omega_entry_loads_as_empty():
    doc = _doc()
    del doc["alpha"]["w2"]
    inst, mf = from_jsonable(doc)
    assert mf.values[1] == frozenset()


def test_unknown_omega_name_is_reported():
    doc = _doc()
    doc["alpha"]["w9"] = ["h1"]
    with pytest.raises(ValidationError, match=r"^alpha: unknown omega name 'w9'$"):
        from_jsonable(doc)


def test_unsorted_grid_is_rejected():
    doc = _doc()
    doc["grid"] = ["0", "2", "1"]
    with pytest.raises(ValidationError, match="increasing"):
        from_jsonable(doc)


def test_bad_stamp_is_located():
    doc = _doc()
    doc["grid"][1] = "one"
    with pytest.raises(ValidationError, match=r"grid\[1\]"):
        from_jsonable(doc)


def test_a_stamp_exponent_past_4300_digits_is_refused_before_it_is_raised(monkeypatch):
    def guarded(text):
        assert "e1000000000" not in text, "raised ten to the stamp's exponent"
        return Fraction(text)

    for module in (fileio, scenarios):  # whichever module parses the stamp
        monkeypatch.setattr(module, "Fraction", guarded)
    doc = _doc()
    doc["grid"][2] = "1e1000000000"
    with pytest.raises(ValidationError) as e:
        from_jsonable(doc)
    assert str(e.value) == (
        "bad grid[2] stamp '1e1000000000': a level's numerator and denominator have at most 4300 digits"
    )


def test_wrong_cell_count_is_located():
    doc = _doc()
    doc["omega"][0]["cells"] = ["a"]
    with pytest.raises(ValidationError, match=r"omega\[0\]"):
        from_jsonable(doc)


def test_duplicate_signals_are_rejected():
    doc = _doc()
    doc["z"][1]["cells"] = ["x", "y"]
    with pytest.raises(ValidationError, match="^z: duplicate"):
        from_jsonable(doc)
    doc = _doc()
    doc["z"][1]["name"] = "h1"
    with pytest.raises(ValidationError, match="^z: .*unique"):
        from_jsonable(doc)


@pytest.mark.parametrize(
    "zs, message",
    [
        ("h1", "expected an array of z names"),
        (["h1", 2], "expected an array of z names"),
        (["h1", ["h2"]], "expected an array of z names"),
        ([{"h1": 1}], "expected an array of z names"),
        (["h1", "h1"], "duplicate z names"),
        (["h9", "h1", "h9"], "duplicate z names"),
        (["h1", "h9"], "unknown z name 'h9'"),
    ],
    ids=["string", "int", "list", "dict", "duplicate", "duplicate-and-unknown", "unknown"],
)
def test_malformed_alpha_entries_are_reported(zs, message):
    doc = _doc()
    doc["alpha"]["w1"] = zs
    with pytest.raises(ValidationError) as e:
        from_jsonable(doc)
    assert str(e.value) == f"alpha['w1']: {message}"


@pytest.mark.parametrize(
    "zs, message",
    [
        (["h1", "h2", "h1"], "duplicate z names"),
        (["h1", "h9"], "unknown z name 'h9'"),
        (["h1", 2], "expected an array of z names"),
    ],
    ids=["duplicate", "unknown", "non-string"],
)
def test_malformed_alpha_entries_exit_two_with_their_message(tmp_path, capsys, zs, message):
    doc = _doc()
    doc["alpha"]["w1"] = zs
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    assert cli.cli(["project", str(path), "--prefix", "1"]) == 2
    assert capsys.readouterr().err == f"error: alpha['w1']: {message}\n"


@pytest.mark.parametrize(
    "zs, message",
    [
        ([None], "expected an array of z names"),
        ([["h1"]], "expected an array of z names"),
        (["h2", "h2"], "duplicate z names"),
        (["h2", "h9"], "unknown z name 'h9'"),
    ],
    ids=["null", "nested", "duplicate", "unknown"],
)
def test_lists_of_one_bad_name_exit_two_with_their_message(tmp_path, capsys, zs, message):
    doc = _doc()
    doc["alpha"]["w2"] = zs
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    assert cli.cli(["project", str(path), "--prefix", "1"]) == 2
    assert capsys.readouterr().err == f"error: alpha['w2']: {message}\n"


@pytest.mark.parametrize("zs", [[], ["h1"], ["h2"], ["h2", "h1"]])
def test_lists_of_zero_or_one_name_load(zs):
    doc = _doc()
    doc["alpha"]["w2"] = zs
    inst, mf = from_jsonable(doc)
    assert mf.values[1] == frozenset(inst.z.index_of(x) for x in zs)


def test_a_bare_string_is_not_a_list_of_its_letters():
    doc = _doc()
    doc["z"] = [{"name": "h", "cells": ["x", "y"]}, {"name": "1", "cells": ["x", "z"]}]
    doc["alpha"] = {"w1": "h1"}
    with pytest.raises(ValidationError, match=r"^alpha\['w1'\]: expected an array of z names$"):
        from_jsonable(doc)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(z={"h1": ["x", "y"]}), "z: expected a non-empty array of signals"),
        (lambda d: d.update(omega=[]), "omega: expected a non-empty array of signals"),
        (lambda d: d["z"].__setitem__(1, ["h2", ["x", "z"]]), "z[1]: expected an object with name and cells"),
        (lambda d: d["z"][1].pop("name"), "z[1]: expected an object with name and cells"),
        (lambda d: d["omega"][1].pop("cells"), "omega[1]: expected an object with name and cells"),
        (lambda d: d["z"][1].update(name=2), "z[1].name: expected a string"),
        (lambda d: d["z"][1].update(cells="xz"), "z[1].cells: expected an array of tokens"),
        (lambda d: d["z"][1].update(cells=["x", "z", "q"]), "z[1].cells: expected 2 tokens, got 3"),
        (lambda d: d["omega"][1].update(cells=["a", None]), "omega[1].cells: expected an array of tokens"),
        (lambda d: d["z"][1].update(name="h\ud800"), "z[1].name: lone surrogate, not valid Unicode text"),
        (lambda d: d["z"][1].update(cells=["x", "\udc00"]), "z[1].cells: lone surrogate, not valid Unicode text"),
        (lambda d: d["z"][1].update(name="h1"), "z: family names must be unique"),
        (lambda d: d["omega"][1].update(cells=["a", "b"]), "omega: duplicate signals are not allowed"),
        (lambda d: (d["z"][0].update(cells=["x"]), d["z"][1].update(name=None)), "z[0].cells: expected 2 tokens, got 1"),
        (lambda d: (d["z"][0].update(cells=["x", 1]), d["z"][1].update(name="\ud800")), "z[0].cells: expected an array of tokens"),
    ],
    ids=[
        "not-a-list", "empty", "not-an-object", "no-name", "no-cells", "name-not-a-string", "cells-not-a-list",
        "wrong-length", "token-not-a-string", "surrogate-name", "surrogate-token", "duplicate-name", "duplicate-signal",
        "first-item-first", "first-item-token-first",
    ],
)
def test_malformed_families_give_their_exact_load_message(tmp_path, edit, message):
    doc = _doc()
    edit(doc)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))  # ASCII, a surrogate as a \u escape
    with pytest.raises(ValidationError) as e:
        load(str(path))
    assert str(e.value) == message


def test_parse_error_names_the_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "grid": [,]\n}\n')
    with pytest.raises(ValidationError, match="line 2"):
        load(str(path))


def test_missing_file_is_a_validation_error(tmp_path):
    with pytest.raises(ValidationError):
        load(str(tmp_path / "absent.json"))


def test_metadata_survives_saving_but_not_the_digest(tmp_path):
    inst, mf, meta = build_scenario("ex1")
    path = tmp_path / "x.json"
    save(str(path), inst, mf, metadata=meta)
    doc = json.loads(path.read_text())
    assert doc["metadata"]["scenario"] == "ex1"
    bare = to_jsonable(inst, mf)
    assert instance_digest(*from_jsonable(bare)) == instance_digest(inst, mf)


def test_report_rendering_is_stable():
    inst, mf = build_example2()
    report = build_report("compose", inst, mf, {"delta": "0,1,3"}, mf)
    text1 = render_report(report, as_json=False)
    text2 = render_report(report, as_json=False)
    assert text1 == text2
    blob = json.loads(render_report(report, as_json=True))
    assert blob["command"] == "compose"
    assert blob["inputs"]["digest"] == instance_digest(inst, mf)
    assert set(blob["flags"]["na"]) == {"1", "2", "3"}


def _reports_as_text(inst, mf):
    """project, compose and greatest reports, each rendered as JSON and as text."""
    mid = inst.grid.prefixes()[inst.grid.cells // 2]
    chain = canonical_chain(inst)
    reports = [
        build_report("project", inst, mf, {"prefix": mid.len}, project(mf, mid)),
        build_report("compose", inst, mf, {}, compose_chain(mf, full_chain(inst.grid))),
        build_report(
            "greatest", inst, mf, {}, greatest_na(mf), {"chain": [p.len for p in chain.prefixes]}
        ),
    ]
    return [render_report(r, as_json) for r in reports for as_json in (True, False)]


@given(small_instances())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_same_inputs_give_the_same_bytes_across_a_json_round_trip(data):
    inst, mf = data
    inst2, mf2 = from_jsonable(json.loads(json.dumps(to_jsonable(inst, mf))))
    assert instance_digest(inst2, mf2) == instance_digest(inst, mf)
    assert _reports_as_text(inst2, mf2) == _reports_as_text(inst, mf)


json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | hostile_text | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(hostile_text, max_size=4)
    | st.dictionaries(hostile_text | st.text(), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=3),
    max_leaves=20,
)


@given(json_documents)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_writer_matches_the_json_module(doc):
    """A report member with no writer of its own is the json module's text, indented one level in."""
    report = {"command": "digest", "extra": doc}
    assert render_report(report, True) == json.dumps(report, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "items",
    [
        [],
        ["one"],
        [""],
        ["plain", "names", "h12", "~ !#[]"],
        ['say "hi"'],
        ["back\\slash", "plain"],
        ["tab\t", "nul\x00", "unit\x1f"],
        ["del\x7f"],
        ["café", "漢字", "\U0001f600", "\ud800"],
        ["plain", 'q"', 1, None, ["x"], {"k": ["v"]}, 2.5, True],
        ("tuple", "of", "names"),
    ],
    ids=["empty", "one", "empty-string", "plain", "quote", "backslash", "control", "del", "non-ascii", "mixed", "tuple"],
)
def test_writer_matches_the_json_module_on_string_lists(items):
    for doc in (items, {"k": items, "j": [items, items]}):
        report = {"command": "digest", "extra": doc}
        assert render_report(report, True) == json.dumps(report, sort_keys=True, indent=2)


@given(hostile_instances())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_digest_matches_the_json_module_on_hostile_names(data):
    inst, mf = data
    assert instance_digest(inst, mf) == naive_digest(inst, mf)
    assert from_jsonable(json.loads(json.dumps(to_jsonable(inst, mf)))) == (inst, mf)


@given(hostile_instances(), st.dictionaries(hostile_text, hostile_text | st.integers(), max_size=3))
@example(build_scenario("random:1:2,2,2000,2")[:2], {"scenario": "random:1:2,2,2000,2"})  # a grid of 2001 stamps
@settings(max_examples=60, deadline=None, derandomize=True)
def test_save_writes_what_the_json_module_writes(tmp_path_factory, data, meta):
    inst, mf = data
    path = tmp_path_factory.mktemp("save") / "x.json"
    for metadata in (None, meta, {"scenario": "ex4", "rho": "-7/2"}):
        save(str(path), inst, mf, metadata)
        expected = json.dumps(to_jsonable(inst, mf, metadata), sort_keys=True, indent=2) + "\n"
        assert path.read_bytes() == expected.encode()


@st.composite
def report_cases(draw):
    """Hostile instances, with empty-string names, one-member families and emptied value sets among them."""
    small = draw(st.booleans())
    inst, mf = draw(hostile_instances(hostile_text | st.just(""), **({"max_omega": 1, "max_z": 1} if small else {})))
    keep = draw(st.lists(st.booleans(), min_size=len(inst.omega), max_size=len(inst.omega)))
    return inst, Multifunction(inst, [v if k else () for v, k in zip(mf.values, keep)])


@given(report_cases(), st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_reports_files_and_digests_equal_the_reference(tmp_path_factory, data, draw):
    inst, mf = data
    p = Prefix(draw.draw(st.integers(1, inst.grid.cells)))
    cells = inst.grid.cells
    delta = Partition((0, *sorted(draw.draw(st.sets(st.integers(1, cells - 1)))), cells))
    ok, composed = feasible(mf, delta)
    chain = canonical_chain(inst)
    reports = [
        ("project", {"prefix": p.len}, project(mf, p), None),
        ("feasible", {"delta": ",".join(map(str, delta.indices))}, composed, {"feasible": ok}),
        ("greatest", {}, compose_chain(mf, chain), {"chain": [q.len for q in chain.prefixes]}),
        ("oracle", {"delta": "0"}, mf, {"match": True}),
        ("digest", {}, None, None),
    ]
    for command, args, result, extra in reports:
        report = build_report(command, inst, mf, args, result, extra)
        doc = naive_report(command, inst, mf, args, result, extra)
        for as_json in (True, False):
            assert render_report(report, as_json) == naive_render(doc, as_json)
    assert instance_digest(inst, mf) == naive_digest(inst, mf)
    path = tmp_path_factory.mktemp("save") / "x.json"
    save(str(path), inst, mf)
    assert path.read_bytes() == (json.dumps(to_jsonable(inst, mf), sort_keys=True, indent=2) + "\n").encode()


@given(small_instances(max_z=8), st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_one_family_on_both_sides_reports_as_it_does_beside_an_equal_twin(tmp_path_factory, data, draw):
    """A family carries no side, so one may be omega and z at once; its two sides then share one prefix index."""
    g, fam = data[0].grid, data[0].z
    twin = SignalFamily(tuple(fam.names), tuple(fam.signals))
    sets = draw.draw(st.lists(st.frozensets(st.integers(0, len(fam) - 1)), min_size=len(fam), max_size=len(fam)))
    delta = Partition((0, *sorted(draw.draw(st.sets(st.integers(1, g.cells - 1)))), g.cells))
    both, beside = (Multifunction(Instance(g, fam, z), sets) for z in (fam, twin))

    def reports(a):
        ok, composed = feasible(a, delta)
        results = {"compose": compose_chain(a, partition_to_chain(g, delta)), "feasible": composed,
                   "greatest": greatest_na(a)}
        texts = [render_report(build_report(command, a.instance, a, {}, result), as_json)
                 for command, result in results.items() for as_json in (True, False)]
        return [r.bits for r in results.values()], ok, instance_digest(a.instance, a), texts

    expected = reports(beside)
    assert reports(both) == expected
    path = tmp_path_factory.mktemp("both") / "x.json"
    save(str(path), both.instance, both)
    assert reports(load(str(path))[1]) == expected


def _simulate(argv, stdin=""):
    """Run `simulate` in process on `stdin`; its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), mock.patch("sys.stdin", io.StringIO(stdin)):
        code = cli.cli(["simulate", *argv])
    return code, out.getvalue()


@given(hostile_instances(), st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_simulate_prints_what_the_json_module_writes(tmp_path_factory, data, draw):
    inst, mf = data
    path = str(tmp_path_factory.mktemp("simulate") / "x.json")
    save(path, inst, mf)
    cells = inst.grid.cells
    delta = Partition((0, *sorted(draw.draw(st.sets(st.integers(1, cells - 1)))), cells))
    w = draw.draw(st.integers(0, len(inst.omega) - 1))
    policy = draw.draw(st.sampled_from(["lex", "random"]))
    argv = [path, "--delta", ",".join(map(str, delta.indices)), "--policy", policy, "--seed", "3", "--adversary"]
    exhaustive, scripted, interactive = ["exhaustive", "--json"], ["scripted:" + inst.omega.names[w], "--json"], ["interactive"]
    picks = "#0\n" * delta.steps
    try:
        traces = run_exhaustive(mf, delta, policy, 3, check=True)
    except InfeasibleError:
        for adversary, stdin in ((exhaustive, ""), (scripted, ""), (interactive, picks)):
            assert _simulate(argv + adversary, stdin)[0] == 3
        return
    doc = {
        "command": "simulate",
        "inputs": {"digest": naive_digest(inst, mf), "args": {"delta": argv[2]}},
        "traces": {inst.omega.names[v]: trace_doc(t, inst, inst.omega.signals[v]) for v, t in traces.items()},
    }
    assert _simulate(argv + exhaustive) == (0, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    trace = run_stepwise(mf, delta, ScriptedAdversary(inst.omega.signals[w]), policy, 3)
    expected = json.dumps(trace_doc(trace, inst, inst.omega.signals[w]), sort_keys=True, indent=2) + "\n"
    assert _simulate(argv + scripted) == (0, expected)
    trace = run_stepwise(mf, delta, InteractiveAdversary(inst, io.StringIO(picks), io.StringIO()), policy, 3)
    code, out = _simulate(argv + interactive, picks)
    first = min(inst.omega.signals)  # "#0" picks the least legal extension at every step
    assert code == 0 and out.endswith("\n" + json.dumps(trace_doc(trace, inst, first), sort_keys=True) + "\n")


# Names and tokens that escape to themselves, so the value-set writer joins the lists a loaded file gave, and
# ones where the only character that needs an escape is NUL, which a NUL-joined escape check would miss.
plain_text = st.text(st.sampled_from("ab/ "), min_size=1, max_size=4)
nul_text = st.text(st.sampled_from("ab/ \x00"), min_size=1, max_size=4)


def _reports(inst, mf, delta, p):
    """Each file command's report of `mf`, with the reference document it is held to."""
    ok, composed = feasible(mf, delta)
    chain = canonical_chain(inst)
    steps = ",".join(map(str, delta.indices))
    for command, args, result, extra in [
        ("project", {"prefix": p.len}, project(mf, p), None),
        ("compose", {"delta": steps}, compose_chain(mf, partition_to_chain(inst.grid, delta)), None),
        ("feasible", {"delta": steps}, composed, {"feasible": ok}),
        ("greatest", {}, compose_chain(mf, chain), {"chain": [q.len for q in chain.prefixes]}),
    ]:
        yield build_report(command, inst, mf, args, result, extra), naive_report(command, inst, mf, args, result, extra)


@given(
    st.one_of(hostile_instances(), hostile_instances(plain_text), hostile_instances(nul_text)),
    st.randoms(use_true_random=False),
    st.data(),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_loaded_files_report_what_the_reference_writes(tmp_path_factory, data, rng, draw):
    inst, mf = data
    cells = inst.grid.cells
    delta = Partition((0, *sorted(draw.draw(st.sets(st.integers(1, cells - 1)))), cells))
    p = Prefix(draw.draw(st.integers(1, cells)))
    saved = to_jsonable(inst, mf)
    rows = rng.sample(list(saved["alpha"].items()), len(inst.omega))
    shuffled = dict(saved, alpha={w: rng.sample(zs, len(zs)) for w, zs in rows})
    sparse = dict(saved, alpha={w: zs for w, zs in saved["alpha"].items() if zs})
    folder = tmp_path_factory.mktemp("loaded")
    save(str(folder / "saved.json"), inst, mf)
    for name, doc in (("shuffled", shuffled), ("sparse", sparse)):
        (folder / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    for name in ("saved", "shuffled", "sparse"):
        loaded, lmf = load(str(folder / f"{name}.json"))
        assert instance_digest(loaded, lmf) == naive_digest(loaded, lmf) == naive_digest(inst, mf)
        for report, doc in _reports(loaded, lmf, delta, p):
            for as_json in (True, False):
                assert render_report(report, as_json) == naive_render(doc, as_json)


@given(hostile_instances(plain_text))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_editing_the_document_after_loading_changes_no_report(data):
    inst, mf = data
    doc = to_jsonable(inst, mf)
    loaded, lmf = from_jsonable(doc)
    before = [render_report(build_report("oracle", loaded, lmf, {}, lmf), as_json) for as_json in (True, False)]
    for zs in doc["alpha"].values():  # out of order, then invalid: a duplicate or an unknown name
        zs.reverse()
        zs.append(zs[0] if zs else "x")
    after = [render_report(build_report("oracle", loaded, lmf, {}, lmf), as_json) for as_json in (True, False)]
    assert after == before
    assert before == [naive_render(naive_report("oracle", inst, mf, {}, mf), as_json) for as_json in (True, False)]


def test_only_rows_the_composition_changed_are_named_from_bits(tmp_path, monkeypatch):
    inst, mf = random_instance(1, 30, 60, 6, 2, 0.5)
    path, backwards = str(tmp_path / "r.json"), str(tmp_path / "b.json")
    save(path, inst, mf)
    doc = to_jsonable(inst, mf)
    doc["alpha"] = {w: zs[::-1] for w, zs in reversed(doc["alpha"].items())}
    with open(backwards, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    calls = counting(monkeypatch, "select_all", [PrefixIndex])

    def named():  # every set sent to `select_all`
        return sorted(v for _, _, sets in calls for v in sets)

    loaded, lmf = load(path)
    instance_digest(loaded, lmf)
    assert named() == []
    ok, composed = feasible(lmf, Partition((0, 3, 6)))
    changed = [v for v, was in zip(composed.bits, lmf.bits) if v and v != was]
    assert 0 < len(changed) < sum(map(bool, composed.bits))  # some rows kept, some narrowed
    with contextlib.redirect_stdout(io.StringIO()):
        cli.cli(["feasible", path, "--delta", "0,3,6", "--json"])
    assert named() == sorted(changed)
    calls.clear()
    loaded, lmf = load(backwards)
    instance_digest(loaded, lmf)
    assert named() == sorted(v for v in lmf.bits if v.bit_count() > 1)  # a list of one name is in order either way
