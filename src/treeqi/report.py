"""One renderer for every report: an ordered field list, two views.

A field is ``(key, value)``, or ``(key, value, view)`` when it shows in one
view only (``TEXT`` or ``JSON``).  Text is ``key=value`` lines or one line;
JSON is one object.  Values are formatted here alone: None as ``-``/null,
booleans as true/false, addresses as dotted text, Fractions as JSON strings,
and a record (an object with ``report_fields()``) as a nested object.

The records of a constant measurement live here too, because two modules
make them: `qi_map.measure_qi` and the independent `oracle.oracle_measure`
both return a `VerificationReport` listing `Violation`s.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .tree_core import Vertex, format_address

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


@dataclass
class Violation:
    x: Vertex
    y: Vertex
    kind: str  # upper | lower | geodesic | samedepth
    value: int
    at: Vertex | None = None

    def report_fields(self) -> list:
        # the text line omits a missing at=, JSON states it as null
        return [
            ("x", self.x),
            ("y", self.y),
            ("kind", self.kind),
            ("value", self.value),
            ("at", self.at, JSON) if self.at is None else ("at", self.at),
        ]

    def to_line(self) -> str:
        return row("violation", self)


class ViolationList(list):
    """Violations in canonical order, listed up to a cap; `total` counts every
    violation found, listed or not."""

    total = 0


@dataclass
class VerificationReport:
    """Measured quasi-isometry data for one map over one pair set."""

    degree: int
    radius: int
    pair_mode: str
    pairs_checked: int
    sampling_seed: int | None
    best_single_C: Fraction
    witness: tuple[Vertex, Vertex] | None
    upper_pair: tuple[Fraction, Fraction]
    lower_pair: tuple[Fraction, Fraction]
    candidate_C: Fraction | None = None
    max_lca_depth: int | None = None
    violations: list[Violation] = field(default_factory=list)
    violations_total: int = 0
    coarse_surjectivity_radius: int | None = None
    target_radius: int | None = None
    order_preserving: bool | None = None
    order_violation: Vertex | None = None

    def measurement_fields(self) -> tuple:
        """Everything that must not depend on how pairs were enumerated."""
        return (
            self.pairs_checked,
            self.best_single_C,
            self.witness,
            self.upper_pair,
            self.lower_pair,
            self.candidate_C,
            tuple((v.x, v.y, v.kind, v.value) for v in self.violations),
            self.violations_total,
        )

    def report_fields(self, label: str = "verify") -> list:
        witness = self.witness or (None, None)
        return [
            ("report", label),
            ("degree", self.degree),
            ("radius", self.radius),
            ("pairs", self.pair_mode),
            ("pairs_checked", self.pairs_checked),
            ("sampling_seed", self.sampling_seed),
            ("max_lca_depth", self.max_lca_depth),
            ("best_single_C", self.best_single_C),
            ("witness_x", witness[0]),
            ("witness_y", witness[1]),
            ("upper_mult", self.upper_pair[0]),
            ("upper_add", self.upper_pair[1]),
            ("lower_mult", self.lower_pair[0]),
            ("lower_add", self.lower_pair[1]),
            ("candidate_C", self.candidate_C),
            ("coarse_surjectivity_radius", self.coarse_surjectivity_radius),
            ("target_radius", self.target_radius),
            ("order_preserving", self.order_preserving),
            ("order_witness", self.order_violation),
            ("violations", self.violations_total, TEXT),
            ("violations_shown", len(self.violations), TEXT),
            ("violations_total", self.violations_total, JSON),
            ("violations", Rows("violation", self.violations)),
        ]

    def to_lines(self, label: str = "verify") -> list[str]:
        return lines(self.report_fields(label))

    def to_json_dict(self, label: str = "verify") -> dict:
        return to_dict(self.report_fields(label))
