"""Canonical, byte-stable output formats.

JSON is emitted with sorted keys and fixed separators so identical data
always produces identical bytes; floats rely on Python's shortest
round-trip repr, which is platform-stable for IEEE doubles. Non-finite
floats have no JSON encoding and serialize as null. CSV uses the same float
formatting, a fixed column order supplied by the caller, and "\n" line
endings regardless of platform.

Dataclass instances (every report type) serialize field by field into
objects keyed by field name, so a report needs no encoder of its own:
dumps_canonical(report) is its canonical JSON.
"""
from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np


def sanitize(obj):
    """Reduce to plain JSON-able types: exact rationals become
    numerator/denominator pairs, numpy scalars unwrap, non-finite -> None,
    dataclass instances become {field name: value}."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, Fraction):
        return {"numerator": int(obj.numerator), "denominator": int(obj.denominator)}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if np.isfinite(f) else None
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if obj is None or isinstance(obj, str):
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: sanitize(getattr(obj, f.name)) for f in fields(obj)}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    return json.dumps(sanitize(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def write_json(path, obj) -> None:
    Path(path).write_text(dumps_canonical(obj) + "\n", encoding="utf-8")


def write_jsonl(path, rows) -> None:
    text = "".join(dumps_canonical(r) + "\n" for r in rows)
    Path(path).write_text(text, encoding="utf-8")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return repr(f) if np.isfinite(f) else ""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    s = str(v)
    if any(c in s for c in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def write_csv(path, header, rows) -> None:
    """rows are sequences aligned with header; all formatting is fixed."""
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("row length does not match header")
        lines.append(",".join(_csv_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
