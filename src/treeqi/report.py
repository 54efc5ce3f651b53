"""One renderer for every report: an ordered field list, two views.

A field is ``(key, value)``, or ``(key, value, view)`` when it shows in one
view only (``TEXT`` or ``JSON``).  Text is ``key=value`` lines or one line;
JSON is one object.  Values are formatted here alone: None as ``-``/null,
booleans as true/false, addresses as dotted text, Fractions as JSON strings,
and a record (an object with ``report_fields()``) as a nested object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .tree_core import format_address

TEXT = "text"
JSON = "json"


@dataclass
class Rows:
    """A list field: a JSON array, or one text line per item (see `row`)."""

    name: str
    items: list


def _shown(fields, view) -> list[tuple]:
    return [(key, value) for key, value, *only in fields if only in ([], [view])]


def _text(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    return format_address(value) if isinstance(value, tuple) else str(value)


def _json(value):
    if isinstance(value, Rows):
        return [_json(item) for item in value.items]
    if isinstance(value, tuple):
        return format_address(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _json(v) for k, v in value.items()}
    return to_dict(value.report_fields()) if hasattr(value, "report_fields") else value


def line(fields) -> str:
    """The text view on one line."""
    return " ".join(f"{key}={_text(value)}" for key, value in _shown(fields, TEXT))


def row(name: str, item) -> str:
    """One Rows item as a text line: ``name k=v ...`` for a record."""
    if hasattr(item, "report_fields"):
        return f"{name} {line(item.report_fields())}"
    return f"{name}={_text(item)}"


def lines(fields) -> list[str]:
    """The text view: one line per field, and one per Rows item."""
    out = []
    for key, value in _shown(fields, TEXT):
        if isinstance(value, Rows):
            out.extend(row(value.name, item) for item in value.items)
        else:
            out.append(f"{key}={_text(value)}")
    return out


def to_dict(fields) -> dict:
    """The JSON view."""
    return {key: _json(value) for key, value in _shown(fields, JSON)}


def emit(fields, as_json: bool, *, one_line: bool = False) -> None:
    """Print a report on stdout in the chosen view."""
    if as_json:
        print(json.dumps(to_dict(fields), sort_keys=True, separators=(",", ":")))
    else:
        print(line(fields) if one_line else "\n".join(lines(fields)))
