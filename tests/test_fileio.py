import json
from json.encoder import encode_basestring_ascii as _esc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naselect import (
    ValidationError,
    build_example2,
    build_scenario,
    canonical_chain,
    compose_chain,
    full_prefix_chain,
    greatest_na,
    project,
    random_instance,
)
from naselect import cli
from naselect.fileio import (
    _PLAIN,
    build_report,
    dumps,
    from_jsonable,
    instance_digest,
    load,
    render_report,
    save,
    to_jsonable,
)

from conftest import hostile_instances, hostile_text, naive_digest, small_instances


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
        build_report("compose", inst, mf, {}, compose_chain(mf, full_prefix_chain(inst.grid))),
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
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)


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
        assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_plain_text_is_exactly_what_the_escaper_leaves_alone():
    for c in map(chr, [*range(0x800), *range(0xD7F0, 0xE010), 0xFFFF, 0x10000, 0x10FFFF]):
        assert bool(_PLAIN.fullmatch(c)) == (_esc(c) == f'"{c}"'), hex(ord(c))


@given(hostile_instances())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_digest_matches_the_json_module_on_hostile_names(data):
    inst, mf = data
    assert instance_digest(inst, mf) == naive_digest(inst, mf)
    assert from_jsonable(json.loads(json.dumps(to_jsonable(inst, mf)))) == (inst, mf)
