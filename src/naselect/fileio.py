"""JSON instance files and report documents.

Rationals serialize as "p/q" strings so files stay language-neutral and
exact; multifunction values are name-keyed so files survive reordering.
Digests cover the canonical serialization of the mathematical content
(grid, families, value sets), so a round-trip preserves them.
Names cross in bulk: one `itemgetter` call places each `alpha` list at load,
one permutation names every value set (`PrefixIndex.select_all`), and the
writer joins a list of strings that need no escaping in one go.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _esc
from operator import itemgetter
from typing import Any

from .errors import ValidationError
from .multifunction import Instance, Multifunction, dom, is_total, mf_to_names
from .nonanticipation import is_prefix_na
from .signals import ROLE_DISTURBANCE, ROLE_TRAJECTORY, Signal, SignalFamily
from .timebase import TimeGrid


_PLAIN = re.compile(r'[ !#-\[\]-~]*')  # text `_esc` only quotes: printable ASCII but `"` and `\`


def dumps(obj: Any, pad: str = "\n") -> str:
    """Exactly `json.dumps(obj, sort_keys=True, indent=2)`, with `pad` opening each inner line.

    Strings take one call of the C escaper, and a list of strings that need
    no escaping is one join; only containers are walked in Python, and what
    is left goes to `json.dumps`.
    """
    if type(obj) is str:
        return _esc(obj)
    if obj is None or type(obj) in (bool, int):
        return "null" if obj is None else repr(obj).lower()  # True -> true
    inner = pad + "  "
    sep = "," + inner
    if type(obj) is dict and all(type(k) is str for k in obj):
        body = sep.join(f"{_esc(k)}: {dumps(v, inner)}" for k, v in sorted(obj.items()))
        return "{" + inner + body + pad + "}" if body else "{}"
    if type(obj) in (list, tuple):
        try:
            plain = _PLAIN.fullmatch("".join(obj))
        except TypeError:
            body = sep.join([dumps(x, inner) for x in obj])
        else:
            body = '"' + f'"{sep}"'.join(obj) + '"' if plain else sep.join(map(_esc, obj))
        return "[" + inner + body + pad + "]" if obj else "[]"
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", pad)


def _parse_stamp(text: Any, position: int) -> Fraction:
    if not isinstance(text, str):
        raise ValidationError(f"grid[{position}]: stamps must be \"p/q\" strings")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"grid[{position}]: {text!r} is not a rational") from None


# JSON may escape a lone UTF-16 surrogate such as "\ud800"; no UTF-8 output can hold one.
_SURROGATE = re.compile("[\ud800-\udfff]")
_TAIL = object()  # a key no document holds


def _parse_family(items: Any, role: str, field: str, cells: int) -> SignalFamily:
    if not isinstance(items, list) or not items:
        raise ValidationError(f"{field}: expected a non-empty array of signals")
    names: list[str] = []
    signals: list[Signal] = []
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
        signals.append(Signal._trusted(tuple(body)))
    if _SURROGATE.search("".join(chain(names, *(s.cells for s in signals)))):
        k = next(k for k, (n, s) in enumerate(zip(names, signals)) if _SURROGATE.search(n + "".join(s.cells)))
        part = "name" if _SURROGATE.search(names[k]) else "cells"
        raise ValidationError(f"{field}[{k}].{part}: lone surrogate, not valid Unicode text")
    try:
        return SignalFamily(role, tuple(names), tuple(signals))
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
    omega = _parse_family(doc["omega"], ROLE_DISTURBANCE, "omega", grid.cells)
    z = _parse_family(doc["z"], ROLE_TRAJECTORY, "z", grid.cells)
    inst = Instance(grid, omega, z)
    raw_alpha = doc["alpha"]
    if not isinstance(raw_alpha, dict):
        raise ValidationError("alpha: expected an object keyed by omega names")
    values = [0] * len(omega)
    index = z.prefix_index
    places = dict(zip(z.names, index.rank))  # each z name's place, and the tail key's spare one
    places[_TAIL] = len(z)
    for name, zs in raw_alpha.items():
        try:
            w = omega.index_of(name)
        except ValidationError:
            raise ValidationError(f"alpha: unknown omega name {name!r}") from None
        try:  # two tail keys: itemgetter of one key returns a scalar, not a tuple
            entry = index.pack_places(itemgetter(*zs, _TAIL, _TAIL)(places)) if isinstance(zs, list) else None
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
    return inst, Multifunction._trusted(inst, tuple(values))


def to_jsonable(inst: Instance, mf: Multifunction, metadata: dict | None = None) -> dict:
    doc = {
        "grid": [str(s) for s in inst.grid.stamps],
        "omega": [
            {"name": n, "cells": list(s.cells)}
            for n, s in zip(inst.omega.names, inst.omega.signals)
        ],
        "z": [
            {"name": n, "cells": list(s.cells)} for n, s in zip(inst.z.names, inst.z.signals)
        ],
        "alpha": mf_to_names(mf),
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def instance_digest(inst: Instance, mf: Multifunction) -> str:
    """SHA-256 of `to_jsonable` as sorted compact JSON, fed piece by piece with each name escaped once."""
    zn = list(map(_esc, inst.z.names))
    alpha = sorted(zip(inst.omega.names, map(",".join, inst.z.prefix_index.select_all(zn, mf.bits))))
    h = hashlib.sha256(b'{"alpha":{')
    h.update(",".join(f"{_esc(w)}:[{zs}]" for w, zs in alpha).encode())
    h.update(f'}},"grid":[{",".join(_esc(str(s)) for s in inst.grid.stamps)}]'.encode())
    for key, fam, names in (("omega", inst.omega, map(_esc, inst.omega.names)), ("z", inst.z, zn)):
        signals = (f'{{"cells":[{",".join(map(_esc, s.cells))}],"name":{n}}}' for s, n in zip(fam.signals, names))
        h.update(f',"{key}":[{",".join(signals)}]'.encode())
    h.update(b"}")
    return h.hexdigest()


def load(path: str) -> tuple[Instance, Multifunction]:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: parse error at line {e.lineno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # bad UTF-8, an over-long integer, deep nesting
        raise ValidationError(f"{path}: cannot decode: {e}") from None
    return from_jsonable(doc)


def save(path: str, inst: Instance, mf: Multifunction, metadata: dict | None = None) -> None:
    doc = to_jsonable(inst, mf, metadata)
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(dumps(doc) + "\n")
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e}") from None


def na_flags(mf: Multifunction) -> dict[str, bool]:
    """Non-anticipativity at every grid prefix, keyed by length."""
    return {str(p.len): is_prefix_na(mf, p).holds for p in mf.instance.grid.prefixes()}


def build_report(
    command: str,
    inst: Instance,
    source: Multifunction,
    args: dict | None = None,
    result: Multifunction | None = None,
    extra: dict | None = None,
) -> dict:
    """Report document: command, input digest, result values and flags, extras."""
    report: dict = {
        "command": command,
        "inputs": {"digest": instance_digest(inst, source), "args": args or {}},
    }
    if result is not None:
        report["result"] = mf_to_names(result)
        report["flags"] = {"total": is_total(result), "na": na_flags(result)}
        empty = sorted(set(range(len(inst.omega))) - dom(result))
        if empty:
            report["diagnosis"] = {"empty": [inst.omega.names[i] for i in empty]}
    if extra:
        report.update(extra)
    return report


def render_report(report: dict, as_json: bool) -> str:
    if as_json:
        return dumps(report)
    lines = [report["command"]]
    args = report.get("inputs", {}).get("args", {})
    for k in sorted(args):
        lines[0] += f" {k}={args[k]}"
    digest = report.get("inputs", {}).get("digest")
    if digest:
        lines.append(f"digest: {digest}")
    if "result" in report:
        for name in report["result"]:
            lines.append(f"{name}: " + " ".join(report["result"][name]))
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
