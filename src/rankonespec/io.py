"""Deterministic JSON serialization and file helpers for the CLI.

Identical inputs must produce byte-identical outputs, so floats are written
with a fixed 17-significant-digit format (full double round-trip precision)
and dict key order is the construction order of the schema builders.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps does to a str
from pathlib import Path


def _format_value(obj) -> str:
    # float, dict and str first: nearly every value of the schemas is one.
    # No object is an instance of two of the types tested here but a bool,
    # also an int and tested before it, so the order changes no output.
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float in output: {obj!r}")
        if obj == int(obj) and abs(obj) < 1e16:
            return f"{obj:.1f}"
        return format(obj, ".17g")
    if isinstance(obj, dict):
        items = [f"{_quote(str(k))}: {_format_value(v)}" for k, v in obj.items()]
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([_format_value(v) for v in obj]) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    return _format_value(obj) + "\n"


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(dumps_canonical(obj))


def read_json(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}") from exc


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Comma-separated rows of floats under a header line, each float with
    17 significant digits.

    Every row is formatted with one % operation on a format built from the
    header's length, so a str, or a row longer or shorter than the header,
    raises TypeError."""
    fmt = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines.extend(fmt % tuple(row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")
