"""JSON instance files and report documents.

Rationals serialize as "p/q" strings so files stay language-neutral and
exact; multifunction values are name-keyed so files survive reordering.
Digests cover the canonical serialization of the mathematical content
(grid, families, value sets), so a round-trip preserves them.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any

from .errors import ValidationError
from .multifunction import Instance, Multifunction, dom, is_total, mf_to_names
from .nonanticipation import is_prefix_na
from .signals import ROLE_DISTURBANCE, ROLE_TRAJECTORY, Signal, SignalFamily
from .timebase import TimeGrid


def _parse_stamp(text: Any, position: int) -> Fraction:
    if not isinstance(text, str):
        raise ValidationError(f"grid[{position}]: stamps must be \"p/q\" strings")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"grid[{position}]: {text!r} is not a rational") from None


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
        if not isinstance(body, list) or not all(isinstance(c, str) for c in body):
            raise ValidationError(f"{field}[{k}].cells: expected an array of tokens")
        if len(body) != cells:
            raise ValidationError(
                f"{field}[{k}].cells: expected {cells} tokens, got {len(body)}"
            )
        names.append(name)
        signals.append(Signal(tuple(body)))
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
    values = [frozenset()] * len(omega)
    for name, zs in raw_alpha.items():
        try:
            w = omega.index_of(name)
        except ValidationError:
            raise ValidationError(f"alpha: unknown omega name {name!r}") from None
        if not isinstance(zs, list) or not all(isinstance(x, str) for x in zs):
            raise ValidationError(f"alpha[{name!r}]: expected an array of z names")
        if len(set(zs)) != len(zs):
            raise ValidationError(f"alpha[{name!r}]: duplicate z names")
        try:
            entry = frozenset(z.index_of(x) for x in zs)
        except ValidationError:
            bad = next(x for x in zs if x not in z.names)
            raise ValidationError(f"alpha[{name!r}]: unknown z name {bad!r}") from None
        values[w] = entry
    return inst, Multifunction(inst, tuple(values))


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
    doc = to_jsonable(inst, mf)
    doc.pop("metadata", None)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def load(path: str) -> tuple[Instance, Multifunction]:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: parse error at line {e.lineno}: {e.msg}") from None
    except (UnicodeDecodeError, RecursionError) as e:
        raise ValidationError(f"{path}: cannot decode: {e}") from None
    return from_jsonable(doc)


def save(path: str, inst: Instance, mf: Multifunction, metadata: dict | None = None) -> None:
    doc = to_jsonable(inst, mf, metadata)
    try:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, sort_keys=True, indent=2)
            f.write("\n")
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e}") from None


def na_flags(mf: Multifunction) -> dict[str, bool]:
    """Non-anticipativity of the multifunction at every grid prefix, keyed by length."""
    return {
        str(p.len): is_prefix_na(mf, p).holds for p in mf.instance.grid.prefixes()
    }


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
        return json.dumps(report, sort_keys=True, indent=2)
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
