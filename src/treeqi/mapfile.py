"""Text serialization of finite tree maps (bit-exact, line oriented).

Format, version 1:

    tree-qi v1 degree=<d> radius=<R>
    <source-address> <image-address>        one line per domain vertex

Addresses use the dotted text form; the bare "." is the root.  The writer
emits the lines in address order with canonical text (no leading zeros);
the parser accepts the lines in any order and spellings such as '01'.
Writing then parsing yields an equal map; the parser refuses a header whose
ball is past the depth cap or the vertex budget before it reads any line,
rejects duplicate sources, sources outside the ball, labels out of range
for the header degree, and reports the first missing domain vertex by name.

Both directions go through the ball's cached address index
(`qi_map._address_index`): canonical text of a vertex of the ball maps
straight to the ball's own tuple and back, so only other text (images
deeper than the radius, non-canonical spellings, bad labels) is parsed and
checked label by label, and parsed maps share the ball's tuples.
"""

from __future__ import annotations

from pathlib import Path

from .errors import MapFormatError, TreeQIError
from .qi_map import FiniteTreeMap, _address_index, _cached_ball
from .tree_core import (
    DEFAULT_VERTEX_BUDGET,
    TreeShape,
    checked_ball_size,
    format_address,
)

_MAGIC = "tree-qi"
_VERSION = "v1"


def dump_map_text(m: FiniteTreeMap) -> str:
    index = _address_index(m.shape.degree, m.domain_radius)
    text, table = index.text, m.table
    lines = [f"{_MAGIC} {_VERSION} degree={m.shape.degree} radius={m.domain_radius}"]
    for v in m.domain:
        lines.append(f"{text[v]} {index.format(table[v])}")
    return "\n".join(lines) + "\n"


def write_map_file(m: FiniteTreeMap, path) -> None:
    Path(path).write_text(dump_map_text(m), encoding="ascii")


def parse_map_text(text: str, budget: int = DEFAULT_VERTEX_BUDGET) -> FiniteTreeMap:
    lines = text.splitlines()
    if not lines:
        raise MapFormatError("empty map file", 1)
    head = lines[0].split()
    if (
        len(head) != 4
        or head[0] != _MAGIC
        or head[1] != _VERSION
        or not head[2].startswith("degree=")
        or not head[3].startswith("radius=")
    ):
        raise MapFormatError(
            f"bad header (expected '{_MAGIC} {_VERSION} degree=<d> radius=<R>')", 1
        )
    try:
        degree = int(head[2].removeprefix("degree="))
        radius = int(head[3].removeprefix("radius="))
    except ValueError:
        raise MapFormatError("degree and radius must be integers", 1) from None
    if degree < 3:
        raise MapFormatError(f"degree must be >= 3, got {degree}", 1)
    if radius < 0:
        raise MapFormatError(f"radius must be >= 0, got {radius}", 1)
    shape = TreeShape(degree)
    size = checked_ball_size(shape, radius, budget)
    index = _address_index(degree, radius)
    table: dict = {}
    for no, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise MapFormatError(f"expected 'source image', got {ln!r}", no)
        try:
            src = index.parse(parts[0])
        except TreeQIError as e:
            raise MapFormatError(f"bad source address: {e}", no) from None
        if len(src) > radius:
            raise MapFormatError(
                f"source {parts[0]} is deeper than the stated radius {radius}", no
            )
        if src in table:
            raise MapFormatError(f"duplicate source {parts[0]}", no)
        try:
            img = index.parse(parts[1])
        except TreeQIError as e:
            raise MapFormatError(f"bad image address: {e}", no) from None
        table[src] = img
    if len(table) != size:  # every source is a distinct vertex of the ball
        missing = next(v for v in _cached_ball(degree, radius) if v not in table)
        raise MapFormatError(f"missing domain vertex {format_address(missing)}")
    return FiniteTreeMap(shape, radius, table)


def parse_map_file(path, budget: int = DEFAULT_VERTEX_BUDGET) -> FiniteTreeMap:
    try:
        text = Path(path).read_text(encoding="ascii")
    except FileNotFoundError:
        raise MapFormatError(f"no such file: {path}") from None
    except UnicodeDecodeError:
        raise MapFormatError(f"{path} is not a text map file") from None
    return parse_map_text(text, budget)


def write_trace_file(trace, path) -> None:
    Path(path).write_text(trace.to_text(), encoding="ascii")


def parse_trace_file(path):
    from .mixed_builder import BuildTrace

    try:
        text = Path(path).read_text(encoding="ascii")
    except FileNotFoundError:
        raise MapFormatError(f"no such file: {path}") from None
    except UnicodeDecodeError:
        raise MapFormatError(f"{path} is not a text trace file") from None
    return BuildTrace.from_text(text)
