"""JSON instance files and report documents.

Rationals serialize as "p/q" strings so files stay language-neutral and
exact; multifunction values are name-keyed so files survive reordering.
Digests cover the canonical serialization of the mathematical content
(grid, families, value sets), so a round-trip preserves them.
Names cross in bulk: a family loads in whole-family C passes (an item loop
only words an error), and one `itemgetter` call places each `alpha` list.
A list below 3/4 of z (where reading it back beats `select_all`) that is in
index order leaves the z family's names for its set in the z prefix index,
under the set's int; the order is decided once, at load.  One value-set writer
serves the file's `alpha`, the digest and a report's `result`: a set with kept
names is one join of them if no z name needs a JSON escape (one escape of all
of them joined); other sets are named from their bits by `PrefixIndex.select_all`.
One family writer serves both the file `save` writes and the text the digest
hashes, one join of raw tokens per signal if nothing needs escaping; one trace
writer prints every `simulate` trace from its steps, builds no per-step dict,
and renders a step that runs share once.  The grid is one join of escaped
stamps; the json module writes the rest (metadata, inputs, extras).  A
writer's indented layout at `pad` is the json module's `indent=2` one with
`pad` opening each inner line.  Stamps parse as levels: 4300 digits.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from itertools import chain, count, repeat
from json.encoder import encode_basestring_ascii as _esc
from operator import itemgetter
from typing import Any, Iterable, Sequence

from .errors import ValidationError
from .multifunction import Instance, Multifunction, dom, is_total
from .nonanticipation import is_prefix_na
from .scenarios import parse_level
from .signals import SignalFamily
from .stepwise import StepTrace
from .timebase import TimeGrid


def _parse_stamp(text: Any, position: int) -> Fraction:
    if not isinstance(text, str):
        raise ValidationError(f"grid[{position}]: stamps must be \"p/q\" strings")
    return parse_level(text, f"grid[{position}] stamp {text!r}")


# JSON may escape a lone UTF-16 surrogate such as "\ud800"; no UTF-8 output can hold one.
_SURROGATE = re.compile("[\ud800-\udfff]")
_TAIL = object()  # a key no document holds
_BOOL = ("false", "true")


def _parse_family(items: Any, field: str, cells: int) -> SignalFamily:
    if not isinstance(items, list) or not items:
        raise ValidationError(f"{field}: expected a non-empty array of signals")
    try:  # whole-family passes in C; on any doubt the item loop below finds and words the error
        if all(map(dict.__instancecheck__, items)):
            bodies = list(map(itemgetter("cells"), items))
            if all(map(list.__instancecheck__, bodies)) and set(map(len, bodies)) == {cells}:
                names, signals = tuple(map(itemgetter("name"), items)), tuple(map(tuple, bodies))
                if not _SURROGATE.search("".join(chain(names, *signals))):
                    return SignalFamily(names, signals)
    except (KeyError, TypeError, ValidationError):
        pass
    names, signals = [], []  # the same family, item by item
    for k, item in enumerate(items):
        if not isinstance(item, dict) or "name" not in item or "cells" not in item:
            raise ValidationError(f"{field}[{k}]: expected an object with name and cells")
        name = item["name"]
        body = item["cells"]
        if not isinstance(name, str):
            raise ValidationError(f"{field}[{k}].name: expected a string")
        if not isinstance(body, list) or not all(map(isinstance, body, repeat(str))):
            raise ValidationError(f"{field}[{k}].cells: expected an array of tokens")
        if len(body) != cells:
            raise ValidationError(
                f"{field}[{k}].cells: expected {cells} tokens, got {len(body)}"
            )
        names.append(name)
        signals.append(tuple(body))
    for k, (name, body) in enumerate(zip(names, signals)):
        if _SURROGATE.search(name + "".join(body)):
            part = "name" if _SURROGATE.search(name) else "cells"
            raise ValidationError(f"{field}[{k}].{part}: lone surrogate, not valid Unicode text")
    try:
        return SignalFamily(tuple(names), tuple(signals))
    except ValidationError as e:
        raise ValidationError(f"{field}: {e}") from None


def from_jsonable(doc: Any) -> tuple[Instance, Multifunction]:
    if not isinstance(doc, dict):
        raise ValidationError("instance file must hold a JSON object")
    for key in ("grid", "omega", "z", "alpha"):
        if key not in doc:
            raise ValidationError(f"missing field {key!r}")
    raw_grid = doc["grid"]
    if not isinstance(raw_grid, list) or len(raw_grid) < 2:
        raise ValidationError("grid: expected an array of at least two stamps")
    stamps = tuple(_parse_stamp(s, k) for k, s in enumerate(raw_grid))
    grid = TimeGrid(stamps)
    omega = _parse_family(doc["omega"], "omega", grid.cells)
    z = _parse_family(doc["z"], "z", grid.cells)
    inst = Instance(grid, omega, z)
    raw_alpha = doc["alpha"]
    if not isinstance(raw_alpha, dict):
        raise ValidationError("alpha: expected an object keyed by omega names")
    values = [0] * len(omega)
    index = z.prefix_index
    places = dict(zip(z.names, index.rank))  # each z name's place, and the tail key's spare one
    places[_TAIL] = len(z)
    at_index, names = [*index.order, len(z)], (*z.names, "")  # each place's index, the tail's with a spare name
    for name, zs in raw_alpha.items():
        try:
            w = omega.index_of(name)
        except ValidationError:
            raise ValidationError(f"alpha: unknown omega name {name!r}") from None
        try:  # two tail keys: itemgetter of one key returns a scalar, not a tuple
            entry = index.pack_places(at := itemgetter(*zs, _TAIL, _TAIL)(places)) if isinstance(zs, list) else None
        except (KeyError, TypeError):
            entry = None
        if entry is None or entry.bit_count() != len(zs):  # fewer bits mean a duplicate name
            if not isinstance(zs, list) or not all(isinstance(x, str) for x in zs):
                raise ValidationError(f"alpha[{name!r}]: expected an array of z names")
            if len(set(zs)) != len(zs):
                raise ValidationError(f"alpha[{name!r}]: duplicate z names")
            bad = next(x for x in zs if x not in z._index)
            raise ValidationError(f"alpha[{name!r}]: unknown z name {bad!r}")
        values[w] = entry
        # for the value-set writer: a list under 3/4 of z in index order (its names are distinct, so sorted means
        # ascending) keeps the family's names; from 3/4 of z up, `select_all` beats reading them back (measured)
        if entry and 4 * len(zs) < 3 * len(z) and entry not in index.listed:
            if list(i := itemgetter(*at)(at_index)) == sorted(i):
                index.listed[entry] = itemgetter(*i)(names)[:-2]
    return inst, Multifunction._trusted(inst, tuple(values))


def _signals_text(fam: SignalFamily, pad: str | None) -> str:
    """A family as the file lists it, one `{"cells": [...], "name": ...}` per signal: the indented
    layout at `pad`, or sorted compact JSON (what `instance_digest` hashes) when `pad` is None.
    Never `[]`: a family has a signal and a grid has a cell."""
    outer, colon, step = ("", ":", "") if pad is None else (pad, ": ", "  ")
    item, key, cell = outer + step, outer + 2 * step, outer + 3 * step
    head, mid, tail = f'{{{key}"cells"{colon}[{cell}', f'{key}],{key}"name"{colon}', item + "}"
    cells = ("," + cell).join
    if _plain(chain(fam.names, *fam.signals)):  # each signal is one join of its raw tokens, quoted around the joins
        cells = f'",{cell}"'.join
        items = [f'{head}"{cells(s)}"{mid}"{n}"{tail}' for n, s in zip(fam.names, fam.signals)]
    else:
        items = [f"{head}{cells(map(_esc, s))}{mid}{_esc(n)}{tail}" for n, s in zip(fam.names, fam.signals)]
    return "[" + item + ("," + item).join(items) + outer + "]"


def trace_text(trace: StepTrace, inst: Instance, pad: str | None, seen: dict | None = None) -> str:
    """A trace as the report lists it: the indented layout at `pad`, or `json.dumps(..., sort_keys=True)`'s
    one line when `pad` is None.  Each step fills one template; `seen`, shared by the traces of one report
    at one `pad`, keeps each `Step` object's text, so steps the runs share are rendered once."""
    ind = [""] * 5 if pad is None else [pad + "  " * d for d in range(5)]
    sep = [", "] * 5 if pad is None else ["," + i for i in ind]
    template = "{" + ind[3] + sep[3].join(['"h": %s', '"h_admissible": %s', '"h_consistent": %s', '"omega": %s',
        '"omega_consistent": %s', f'"revealed": [{ind[4]}%s{ind[3]}]', '"step": %d']) + ind[2] + "}"
    wn, zn, ws, cut, tokens = inst.omega.names, inst.z.names, inst.omega.signals, trace.delta.indices, sep[4].join
    seen = {} if seen is None else seen
    for s in trace.steps:
        if id(s) not in seen:  # an id names one step while the traces holding it live
            seen[id(s)] = template % (_esc(zn[s.h]), _BOOL[s.h_admissible], _BOOL[s.h_consistent], _esc(wn[s.omega]),
                                      _BOOL[s.omega_consistent], tokens(map(_esc, ws[s.omega][: cut[s.index]])), s.index)
    steps = sep[2].join([seen[id(s)] for s in trace.steps])
    return "{" + ind[1] + sep[1].join([
        f'"consistent": {_BOOL[trace.consistent]}', f'"delta": [{ind[2]}{sep[2].join(map(str, trace.delta.indices))}{ind[1]}]',
        f'"final": {_esc(zn[trace.final_h])}', f'"steps": [{ind[2]}{steps}{ind[1]}]']) + ind[0] + "}"


def _plain(strings: Iterable[str]) -> bool:
    """Whether each string escapes to itself in JSON: one escape of them all joined, as escapes go by character."""
    text = "".join(strings)
    return _esc(text)[1:-1] == text


def _rows(mf: Multifunction, sep: str, order: Sequence[int], as_json: bool) -> list[str]:
    """Value sets in `order`, each as its z names in index order joined by `sep`, escaped `as_json`.  Unless JSON must
    escape a z name, quotes go in the glue and a set whose names the loader kept is one join of them; every other set
    goes through one `select_all`."""
    z, sets = mf.instance.z, [mf.bits[w] for w in order]
    index, q = z.prefix_index, '"' if as_json else ""
    if as_json and not _plain(z.names):
        return list(map(sep.join, index.select_all(list(map(_esc, z.names)), sets)))
    kept = index.listed
    missing = [v for v in sets if v and v not in kept]
    named, glue = iter(index.select_all(z.names, missing) if missing else ()), q + sep + q
    return [q + glue.join(kept.get(v) or next(named)) + q if v else "" for v in sets]


def _sets_text(mf: Multifunction, pad: str | None) -> str:
    """The value sets as the file keys them by omega name: the indented layout at `pad`, or sorted compact JSON (what
    `instance_digest` hashes) when `pad` is None.  One join copies each row once; an escaped name is never empty."""
    outer, colon, step = ("", ":", "") if pad is None else (pad, ": ", "  ")
    key, name = outer + step, outer + 2 * step
    wn, order = zip(*sorted(zip(mf.instance.omega.names, count())))  # by raw name, as `sort_keys` orders them
    pieces = []
    for w, r in zip(map(_esc, wn), _rows(mf, "," + name, order, True)):
        pieces += ("," + key, w, colon, "[" + name, r, key + "]") if r else ("," + key, w, colon, "[]")
    return "".join(["{" + key, *pieces[1:], outer + "}"])


def _members(parts: dict[str, str]) -> str:
    """A document from its members' texts, indented one level in, in one join that copies each text once."""
    pieces = [t for k, v in sorted(parts.items()) for t in (",\n  ", _esc(k), ": ", v)]
    return "".join(["{\n  ", *pieces[1:], "\n}"])


def instance_digest(inst: Instance, mf: Multifunction) -> str:
    """SHA-256 of the file's content but its metadata as sorted compact JSON, fed piece by piece."""
    h = hashlib.sha256(b'{"alpha":')
    h.update(_sets_text(mf, None).encode())
    h.update(f',"grid":[{",".join(_esc(str(s)) for s in inst.grid.stamps)}]'.encode())
    h.update(f',"omega":{_signals_text(inst.omega, None)},"z":{_signals_text(inst.z, None)}}}'.encode())
    return h.hexdigest()


def load(path: str) -> tuple[Instance, Multifunction]:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: parse error at line {e.lineno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # bad UTF-8, an over-long integer, deep nesting
        raise ValidationError(f"{path}: cannot decode: {e}") from None
    return from_jsonable(doc)


def save(path: str, inst: Instance, mf: Multifunction, metadata: dict | None = None) -> None:
    """Write exactly `json.dumps(doc, sort_keys=True, indent=2)` and a newline for the file's
    document `doc`: families by `_signals_text`, value sets by `_sets_text`, the grid as one join, metadata by `json`."""
    pad = "\n  "
    parts = {
        "alpha": _sets_text(mf, pad),
        "grid": "[\n    " + ",\n    ".join(map(_esc, map(str, inst.grid.stamps))) + pad + "]",
        "omega": _signals_text(inst.omega, pad),
        "z": _signals_text(inst.z, pad),
    }
    if metadata:
        parts["metadata"] = json.dumps(metadata, sort_keys=True, indent=2).replace("\n", pad)
    try:
        with open(path, "w", encoding="utf-8") as f:
            print(_members(parts), file=f)  # the newline apart, so the text is not copied for it
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e.strerror or e}") from None


def na_flags(mf: Multifunction) -> dict[str, bool]:
    """Non-anticipativity at every grid prefix, keyed by length.  Past the longest prefix two disturbances
    share, every class has one member, so each flag there is true unchecked."""
    deepest = mf.instance.omega.prefix_index.deepest
    return {str(n): n > deepest or is_prefix_na(mf, n).holds for n in range(1, mf.instance.grid.cells + 1)}


def build_report(
    command: str,
    inst: Instance,
    source: Multifunction,
    args: dict | None = None,
    result: Multifunction | None = None,
    extra: dict | None = None,
) -> dict:
    """Report document: command, input digest, the result multifunction and its flags, extras."""
    report: dict = {
        "command": command,
        "inputs": {"digest": instance_digest(inst, source), "args": args or {}},
    }
    if result is not None:
        report["result"] = result
        report["flags"] = {"total": is_total(result), "na": na_flags(result)}
        empty = sorted(set(range(len(inst.omega))) - dom(result))
        if empty:
            report["diagnosis"] = {"empty": [inst.omega.names[i] for i in empty]}
    if extra:
        report.update(extra)
    return report


def render_traces(inst: Instance, source: Multifunction, args: dict, traces: dict[int, StepTrace]) -> str:
    """An exhaustive `simulate`'s report as the json module writes it, each trace under its disturbance's name."""
    pad, seen = "\n    ", {}  # each trace sits two levels in; the runs share steps, each rendered once
    named = sorted((inst.omega.names[w], t) for w, t in traces.items())
    inputs = json.dumps({"args": args, "digest": instance_digest(inst, source)}, sort_keys=True, indent=2)
    runs = ("," + pad).join(f"{_esc(n)}: {trace_text(t, inst, pad, seen)}" for n, t in named)
    return _members({"command": '"simulate"', "inputs": inputs.replace("\n", "\n  "), "traces": f"{{{pad}{runs}\n  }}"})


def render_report(report: dict, as_json: bool) -> str:
    """The report as the json module writes it with `result` named, or as text lines; `_rows` names each value set once."""
    result = report.get("result")
    if as_json:
        return _members({k: _sets_text(v, "\n  ") if k == "result" else json.dumps(v, sort_keys=True, indent=2)
                         .replace("\n", "\n  ") for k, v in report.items()})
    lines = [report["command"]]
    args = report.get("inputs", {}).get("args", {})
    for k in sorted(args):
        lines[0] += f" {k}={args[k]}"
    digest = report.get("inputs", {}).get("digest")
    if digest:
        lines.append(f"digest: {digest}")
    if result is not None:
        rows = _rows(result, " ", range(len(result.bits)), False)  # in omega index order
        lines += map("{}: {}".format, result.instance.omega.names, rows)
        flags = report["flags"]
        lines.append("total: " + ("yes" if flags["total"] else "no"))
        lines.append(
            "na: " + " ".join(f"{k}={'yes' if v else 'no'}" for k, v in sorted(flags["na"].items(), key=lambda kv: int(kv[0])))
        )
    if "diagnosis" in report:
        lines.append("empty at: " + " ".join(report["diagnosis"]["empty"]))
    for key in sorted(set(report) - {"command", "inputs", "result", "flags", "diagnosis"}):
        lines.append(f"{key}: {json.dumps(report[key], sort_keys=True)}")
    return "\n".join(lines)
