"""Body JSON schema and deterministic serialization helpers.

Body files are plain JSON:

    {"name": str, "m_c": number >= 0,
     "segments": [{"points": [[x, y, z], ...],
                   "density": number > 0 | [number > 0, ...]}]}

All floating-point output is written with 17 significant digits, which
round-trips IEEE doubles exactly, except a ``Rounded`` value, which is
written in its shortest form; serialization order is the construction
order of the dictionaries, so identical inputs yield identical bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import BodyConfigError
from .geometry import BodyGeometry, Segment

__all__ = [
    "Rounded",
    "format_float",
    "json_text",
    "body_to_dict",
    "body_from_dict",
    "load_body",
    "csv_lines",
    "csv_text",
]


class Rounded(float):
    """A float already rounded to a few digits, written in its shortest
    round-trip form (53.1 rather than 53.100000000000001)."""


def _digits(x) -> str:
    return repr(float(x)) if isinstance(x, Rounded) else format(float(x), ".17g")


def format_float(x: float) -> str:
    """Decimal form of a double that round-trips exactly: 17 significant
    digits, or the shortest form for a ``Rounded`` value."""
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return _digits(x)


def _emit(obj, parts: list[str]) -> None:
    if isinstance(obj, dict):
        parts.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(str(key)))
            parts.append(":")
            _emit(val, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, val in enumerate(obj):
            if i:
                parts.append(",")
            _emit(val, parts)
        parts.append("]")
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), parts)
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(obj))
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_text(obj) -> str:
    """Compact deterministic JSON with 17-significant-digit floats."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def body_to_dict(body: BodyGeometry) -> dict:
    return {
        "name": body.name,
        "m_c": body.m_c,
        "segments": [
            {"points": seg.points.tolist(), "density": seg.density.tolist()}
            for seg in body.segments
        ],
    }


def _numbers(value, what: str) -> np.ndarray:
    """``value``, a JSON number or nested lists of them, as a float array;
    booleans and strings, which numpy would convert, are refused."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise BodyConfigError(f"{what} must hold numbers only, not {type(item).__name__}")
    return np.asarray(value, dtype=float)


def body_from_dict(data) -> BodyGeometry:
    if not isinstance(data, dict):
        raise BodyConfigError("body file must contain a JSON object")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise BodyConfigError("body 'name' must be a non-empty string")
    m_c = data.get("m_c", 0.0)
    if not isinstance(m_c, (int, float)) or isinstance(m_c, bool):
        raise BodyConfigError("body 'm_c' must be a number")
    try:
        m_c = float(m_c)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise BodyConfigError(f"body 'm_c': {exc}") from None
    raw_segments = data.get("segments")
    if not isinstance(raw_segments, list) or not raw_segments:
        raise BodyConfigError("body 'segments' must be a non-empty list")
    segments = []
    for i, raw in enumerate(raw_segments):
        if not isinstance(raw, dict) or "points" not in raw:
            raise BodyConfigError(f"segment {i} must be an object with 'points'")
        try:
            segments.append(
                Segment(points=_numbers(raw["points"], "'points'"),
                        density=_numbers(raw.get("density", 1.0), "'density'"))
            )
        except (TypeError, ValueError, OverflowError) as exc:  # BodyConfigError among them
            raise BodyConfigError(f"segment {i}: {exc}") from None
    return BodyGeometry(name=name, segments=tuple(segments), m_c=m_c)


def load_body(path: str) -> BodyGeometry:
    """Read and validate a body JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise BodyConfigError(f"body file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise BodyConfigError(f"body file is not valid JSON: {exc}") from None
    return body_from_dict(data)


def csv_lines(header: list[str], rows):
    """The lines of :func:`csv_text`, each with its newline, one row at a time."""
    yield ",".join(header) + "\n"
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(_digits(cell))
            elif cell is None:
                cells.append("")
            else:
                cells.append(str(cell))
        yield ",".join(cells) + "\n"


def csv_text(header: list[str], rows: list[list]) -> str:
    """CSV with 17-significant-digit floats and no quoting (numeric tables)."""
    return "".join(csv_lines(header, rows))
