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

Both directions work on the bytes of blocks of at most `_BLOCK` lines,
fewer when the longest line holds many labels.  The writer lays each block
out as a byte matrix: every label of the source row (the ball's own labels)
and of the image row as its digits, right-aligned in a fixed number of
cells, then a '.' cell, then a space and a newline column; a mask keeps the
cells of the canonical text.  The reader takes a body of one-digit labels
in canonical spelling, in any line order, by fixed stride: with the space
and newline bytes alternating, a token of 2k - 1 bytes has its labels at
even offsets and its dots between them.  It gathers each block's tokens as
a byte matrix, checks it, and places the image rows at the sources' ball
positions.  Any other text (other spellings or whitespace, degrees above
10, every malformed text) goes through the line loop, the one reader that
words errors.  It reads the canonical text of a ball vertex as its position
(`layout._Ball._position`), so an image inside the ball is gathered from
the ball's label rows, and any other address as a tuple through the ball's
address codec (`layout._Ball.locate`, shared with trace files).  Neither
block path builds the ball's vertex tuples or texts.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import MapFormatError, TreeQIError
from .layout import _ball, _budgeted_ball, _label_dtype, _pack
from .tree_core import DEFAULT_VERTEX_BUDGET, MAX_DEPTH, TreeShape, format_address
from .tree_map import FiniteTreeMap

_MAGIC = "tree-qi"
_VERSION = "v1"
_BLOCK = 1 << 14  # lines laid out or gathered at once, at most
_LABELS = 1 << 17  # labels per block, at most: a deep line makes its block shorter
_DOT, _SPACE, _NEWLINE, _ZERO = b". \n0"
_PAD = "\0" * (2 * MAX_DEPTH + 2)  # past the widest token the reader gathers


def _block_lines(width: int) -> int:
    """Lines per block for lines of up to `width` labels."""
    return max(1, min(_BLOCK, _LABELS // width))


def _address_cells(labels: np.ndarray, depths: np.ndarray, digits: int):
    """Each row's address as `digits` right-aligned digit cells and a '.'
    cell per label, with the mask of the cells its canonical text keeps:
    no leading zeros, no padding labels, no last dot, and '.' for the root."""
    width = max(1, int(depths.max(initial=0)))
    cells = np.empty((len(depths), width, digits + 1), np.uint8)
    keep = np.empty(cells.shape, bool)
    live = np.arange(width) < depths[:, None]
    q = np.maximum(labels[:, :width], 0)
    keep[:, :, digits - 1] = live
    for k in range(digits - 1, 0, -1):  # least significant first
        q, low = np.divmod(q, 10)
        cells[:, :, k] = low + _ZERO
        keep[:, :, k - 1] = live & (q > 0)
    cells[:, :, 0] = q + _ZERO  # the top place: no label has more digits
    cells[:, :, digits] = _DOT
    keep[:, :-1, digits] = live[:, 1:]
    keep[:, -1, digits] = False
    keep[:, 0, digits] |= depths == 0
    return cells.reshape(len(depths), -1), keep.reshape(len(depths), -1)


def _map_bytes(m: FiniteTreeMap) -> Iterator[bytes]:
    ball = _ball(m.shape.degree, m.domain_radius)
    digits = len(str(m.shape.degree - 1))
    yield f"{_MAGIC} {_VERSION} degree={m.shape.degree} radius={m.domain_radius}\n".encode()
    step = _block_lines(ball.labels.shape[1] + m.labels.shape[1])
    for s in range(0, len(m.depths), step):
        rows = slice(s, s + step)
        src, src_keep = _address_cells(ball.labels[rows], ball.depths[rows], digits)
        img, img_keep = _address_cells(m.labels[rows], m.depths[rows], digits)
        space, newline = (np.full((len(src), 1), c, np.uint8) for c in (_SPACE, _NEWLINE))
        kept = np.ones((len(src), 1), bool)
        cells = np.hstack([src, space, img, newline])
        yield cells[np.hstack([src_keep, kept, img_keep, kept])].tobytes()


def dump_map_text(m: FiniteTreeMap) -> str:
    return b"".join(_map_bytes(m)).decode("ascii")


def write_map_file(m: FiniteTreeMap, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_map_bytes(m))


def parse_map_text(text: str, budget: int = DEFAULT_VERTEX_BUDGET) -> FiniteTreeMap:
    head = text.partition("\n")[0]
    if text.isascii() and head.splitlines() == [head]:  # the line loop's first line
        shape, radius = _header(head)
        ball = _budgeted_ball(shape, radius, budget)
        rows = _read_blocks(text, len(head) + 1, ball)
        if rows is not None:
            return FiniteTreeMap._from_arrays(shape, radius, *rows)
    return _read_lines(text.splitlines(), budget)


def _header(line: str) -> tuple[TreeShape, int]:
    head = line.split()
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
    return TreeShape(degree), radius


def _read_blocks(text: str, offset: int, ball) -> tuple[np.ndarray, np.ndarray] | None:
    """The image rows, in ball order, of a body of lines in the writer's
    spelling with one-digit labels, in any order, read by fixed stride from
    text[offset:]; None for any other body, which the line loop then reads
    (and words the error of)."""
    degree, radius, n = ball.shape.degree, ball.radius, len(ball.depths)
    size = len(text) - offset
    if degree > 10 or size <= 0:
        return None
    buf = np.frombuffer((text + _PAD).encode("ascii"), np.uint8)[offset:]  # windows run past the end
    body = buf[:size]
    seps = np.flatnonzero(body <= _SPACE)  # then spaces and newlines must alternate
    if len(seps) != 2 * n or seps[-1] != size - 1:
        return None
    spaces, newlines = seps[0::2], seps[1::2]
    if (body[spaces] != _SPACE).any() or (body[newlines] != _NEWLINE).any():
        return None
    starts = np.concatenate([[0], newlines[:-1] + 1])
    src_len, img_len = spaces - starts, newlines - spaces - 1
    if (
        (src_len & img_len & 1 == 0).any()  # odd lengths: labels and dots alternate
        or src_len.max() > 2 * radius + 1
        or img_len.max() > 2 * MAX_DEPTH - 1
    ):
        return None
    labels = np.full((n, (int(img_len.max()) + 1) // 2), -1, _label_dtype(degree))
    depths = np.empty(n, np.int16)
    seen = np.zeros(n, bool)
    step = _block_lines(int(src_len.max() + img_len.max()) // 2 + 1)
    for s in range(0, n, step):
        rows = slice(s, s + step)
        src = _tokens(buf, starts[rows], src_len[rows], degree)
        img = _tokens(buf, spaces[rows] + 1, img_len[rows], degree)
        if src is None or img is None or src[1].max() > radius:
            return None
        at = ball.positions(*src)
        seen[at] = True
        labels[at, : img[0].shape[1]] = img[0]
        depths[at] = img[1]
    return (labels, depths) if seen.all() else None  # the sources are the whole ball


def _tokens(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, degree: int):
    """Label rows (padded with -1) and depths of the tokens
    buf[start : start + length] of odd length, or None unless each is '.'
    or one-digit labels joined by dots, each below the degree (below
    degree - 1 past the first)."""
    cells = sliding_window_view(buf, int(lengths.max()))[starts]
    digits = cells[:, 0::2] - _ZERO  # uint8: a byte below '0' wraps past every bound
    depths = (lengths + 1) // 2
    depths[(lengths == 1) & (cells[:, 0] == _DOT)] = 0
    live = np.arange(digits.shape[1]) < depths[:, None]
    bound = np.full(digits.shape[1], degree - 1)
    bound[0] = degree
    if (live & (digits >= bound)).any() or (live[:, 1:] & (cells[:, 1::2] != _DOT)).any():
        return None
    labels = digits.astype(np.int16)
    labels[~live] = -1
    return labels, depths


def _read_lines(lines: list[str], budget: int) -> FiniteTreeMap:
    """The line loop: every line split and each address read through the
    ball's address codec, with the one wording of every error."""
    if not lines:
        raise MapFormatError("empty map file", 1)
    shape, radius = _header(lines[0])
    ball = _budgeted_ball(shape, radius, budget)
    position, locate = ball._position, ball.locate
    images: list = [None] * len(ball.depths)  # per source position: image position, or image
    for no, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise MapFormatError(f"expected 'source image', got {ln!r}", no)
        src = position.get(parts[0])  # canonical text of a ball vertex
        if src is None:
            try:
                v = locate(parts[0])
            except TreeQIError as e:
                raise MapFormatError(f"bad source address: {e}", no) from None
            if len(v) > radius:
                raise MapFormatError(
                    f"source {parts[0]} is deeper than the stated radius {radius}", no
                )
            src = position[format_address(v)]
        if images[src] is not None:
            raise MapFormatError(f"duplicate source {parts[0]}", no)
        image = position.get(parts[1])
        if image is None:
            try:
                image = locate(parts[1])
            except TreeQIError as e:
                raise MapFormatError(f"bad image address: {e}", no) from None
        images[src] = image
    if len(lines) - 1 != len(images):  # every source is a distinct vertex of the ball
        raise MapFormatError(f"missing domain vertex {ball.texts[images.index(None)]}")
    # the rows of images in the ball are the ball's own, the others are packed
    deep = [i for i, a in enumerate(images) if type(a) is not int]
    tails, tail_depths = _pack([images[i] for i in deep], ball.labels.dtype)
    for i in deep:
        images[i] = 0
    labels, depths = ball.labels[images], ball.depths[images]
    width = max(labels.shape[1], tails.shape[1])
    labels = np.pad(labels, ((0, 0), (0, width - labels.shape[1])), constant_values=-1)
    labels[deep, : tails.shape[1]] = tails
    depths[deep] = tail_depths
    return FiniteTreeMap._from_arrays(shape, radius, labels, depths)


def _read_text(path, kind: str) -> str:
    """The ASCII text of the `kind` file at path."""
    try:
        return Path(path).read_text(encoding="ascii")
    except FileNotFoundError:
        raise MapFormatError(f"no such file: {path}") from None
    except UnicodeDecodeError:
        raise MapFormatError(f"{path} is not a text {kind} file") from None


def parse_map_file(path, budget: int = DEFAULT_VERTEX_BUDGET) -> FiniteTreeMap:
    return parse_map_text(_read_text(path, "map"), budget)


def write_trace_file(trace, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(trace.lines())


def parse_trace_file(path):
    from .mixed_builder import BuildTrace

    return BuildTrace.from_text(_read_text(path, "trace"))
