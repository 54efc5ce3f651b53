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

Both directions go through the address text codec of the ball's cached
layout (`qi_map._ball`), which trace files share: canonical text of a
vertex of the ball maps straight to its ball position and back, and an
image deeper than the radius is the text of its ancestor on the last level
followed by the further labels.  Only other text (non-canonical spellings,
bad labels) is parsed and checked label by label.  The parser gathers each
image's label row from the ball's own label matrix by position; the writer
emits text by position.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import MapFormatError, TreeQIError
from .qi_map import FiniteTreeMap, _ball, _budgeted_ball, _pack, _tail_text
from .tree_core import DEFAULT_VERTEX_BUDGET, TreeShape, format_address

_MAGIC = "tree-qi"
_VERSION = "v1"


def _map_lines(m: FiniteTreeMap) -> Iterator[str]:
    ball = _ball(m.shape.degree, m.domain_radius)
    texts, r = ball.texts, ball.radius
    images = [texts[p] for p in ball.positions(m.labels, np.minimum(m.depths, r)).tolist()]
    deep = np.flatnonzero(m.depths > r)  # text of the ancestor at depth r, then the tail
    for i, row, k in zip(deep.tolist(), m.labels[deep, r:].tolist(), m.depths[deep].tolist()):
        tail = tuple(row[: k - r])
        images[i] = images[i] + _tail_text(tail) if r else format_address(tail)
    yield f"{_MAGIC} {_VERSION} degree={m.shape.degree} radius={m.domain_radius}\n"
    for source, image in zip(texts, images):
        yield f"{source} {image}\n"


def dump_map_text(m: FiniteTreeMap) -> str:
    return "".join(_map_lines(m))


def write_map_file(m: FiniteTreeMap, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_map_lines(m))


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
    ball = _budgeted_ball(shape, radius, budget)
    locate, size = ball.locate, len(ball.depths)
    images: list = [None] * size  # per source position: image position, or a deeper image
    for no, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise MapFormatError(f"expected 'source image', got {ln!r}", no)
        try:
            src = locate(parts[0])
        except TreeQIError as e:
            raise MapFormatError(f"bad source address: {e}", no) from None
        if not isinstance(src, int):
            raise MapFormatError(
                f"source {parts[0]} is deeper than the stated radius {radius}", no
            )
        if images[src] is not None:
            raise MapFormatError(f"duplicate source {parts[0]}", no)
        try:
            images[src] = locate(parts[1])
        except TreeQIError as e:
            raise MapFormatError(f"bad image address: {e}", no) from None
    if len(lines) - 1 != size:  # every source is a distinct vertex of the ball
        raise MapFormatError(f"missing domain vertex {ball.texts[images.index(None)]}")
    return FiniteTreeMap._from_arrays(shape, radius, *_gather(ball, images))


def _gather(ball, images: list) -> tuple[np.ndarray, np.ndarray]:
    """Label rows of images given as positions in `ball` (a `qi_map._ball`)
    or as deeper addresses."""
    deep = [i for i, a in enumerate(images) if not isinstance(a, int)]
    at = np.fromiter((a if isinstance(a, int) else 0 for a in images), np.int64, len(images))
    labels, depths = ball.labels[at], ball.depths[at]
    if deep:
        deep_labels, deep_depths = _pack([images[i] for i in deep], labels.dtype)
        width = max(labels.shape[1], deep_labels.shape[1])
        labels = np.pad(labels, ((0, 0), (0, width - labels.shape[1])), constant_values=-1)
        labels[deep, : deep_labels.shape[1]] = deep_labels
        depths[deep] = deep_depths
    return labels, depths


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
