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
cells of the canonical text.  The block reader takes a body of one-digit
labels in canonical spelling, in any line order, untranslated, a piece of
whole lines (about `_CHUNK` bytes) at a time, read into one scratch buffer
with zero padding after the piece, by fixed stride: with the space and
newline bytes alternating, a token of 2k - 1 bytes has its labels at even
offsets and its dots between them.  It gathers each block's tokens as a
byte matrix, checks it, and places the image rows at the sources' ball
positions, so it holds the label rows and one piece, never the whole text.
Any other text (other spellings or whitespace, degrees above 10, other
newlines, every malformed text) is read again, whole, by the line loop,
the one reader that decodes the text and words errors.  It splits lines
at newlines only (`layout._lines`) and reads every address through one
address reader (`layout._Addresses`, shared with trace files), each
distinct text once, through the text of its parent; the image rows are
then packed and placed at the sources' ball positions.  Neither the block
paths nor the line loop builds the ball's vertex tuples.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import MapFormatError, TreeQIError
from .layout import _Addresses, _ball, _budgeted_ball, _label_dtype, _lines, _pack
from .tree_core import DEFAULT_VERTEX_BUDGET, MAX_DEPTH, TreeShape, format_address
from .tree_map import FiniteTreeMap

_MAGIC = "tree-qi"
_VERSION = "v1"
_BLOCK = 1 << 14  # lines laid out or gathered at once, at most
_CHUNK = 1 << 18  # bytes of whole lines the block reader holds at once, at most
_LABELS = 1 << 16  # labels per block, at most: a deep line makes its block shorter
_DOT, _SPACE, _NEWLINE, _ZERO = b". \n0"
_PAD = 2 * MAX_DEPTH + 2  # zero bytes after the text: past the widest token the reader gathers


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
    if text.isascii():
        m = _read_blocks(io.BytesIO(text.encode("ascii")), budget)
        if m is not None:
            return m
    return _read_lines(_lines(text), budget)


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


def _read_blocks(fh, budget: int) -> FiniteTreeMap | None:
    """The map in the binary stream fh when its header is the line loop's
    first line and its body is lines in the writer's spelling with
    one-digit labels, in any order; None for any other text, which the
    line loop then reads (and words the error of).

    The body is read a piece of whole lines, about `_CHUNK` bytes, at a
    time into one scratch buffer, whose padding the token windows run
    into; each piece's image rows are placed at the sources' ball
    positions before the next piece is read."""
    head = fh.readline(_CHUNK)
    if not head.endswith(b"\n") or not head.isascii() or b"\r" in head:
        return None
    try:
        shape, radius = _header(head[:-1].decode("ascii"))
        ball = _budgeted_ball(shape, radius, budget)
    except TreeQIError:  # the line loop words it, once the whole text is known to be ASCII
        return None
    degree, n = shape.degree, len(ball.depths)
    if degree > 10:
        return None
    labels = np.full((n, 1), -1, _label_dtype(degree))
    depths = np.empty(n, np.int16)
    seen = np.zeros(n, bool)
    buf = bytearray(_CHUNK + _PAD)
    data = np.frombuffer(buf, np.uint8)  # token windows run past a piece, into the padding
    lines = held = 0
    while got := fh.readinto(memoryview(buf)[held:_CHUNK]):
        size = held + got
        cut = buf.rfind(b"\n", 0, size) + 1  # the piece: the whole lines held
        if not cut:  # a line longer than the buffer, or a last line with no newline
            return None
        body = data[:cut]
        seps = np.flatnonzero(body <= _SPACE)  # then spaces and newlines must alternate
        spaces, newlines = seps[0::2], seps[1::2]
        lines += len(newlines)
        if (
            len(seps) % 2
            or lines > n
            or (body[spaces] != _SPACE).any()
            or (body[newlines] != _NEWLINE).any()
        ):
            return None
        starts = np.concatenate([[0], newlines[:-1] + 1])
        src_len, img_len = spaces - starts, newlines - spaces - 1
        if (
            (src_len & img_len & 1 == 0).any()  # odd lengths: labels and dots alternate
            or src_len.max() > 2 * radius + 1
            or img_len.max() > 2 * MAX_DEPTH - 1
        ):
            return None
        width = (int(img_len.max()) + 1) // 2
        if width > labels.shape[1]:  # deeper images than any before
            labels = np.pad(labels, ((0, 0), (0, width - labels.shape[1])), constant_values=-1)
        step = _block_lines(int(src_len.max() + img_len.max()) // 2 + 1)
        for s in range(0, len(starts), step):
            rows = slice(s, s + step)
            src = _tokens(data, starts[rows], src_len[rows], degree)
            img = _tokens(data, spaces[rows] + 1, img_len[rows], degree)
            if src is None or img is None or src[1].max() > radius:
                return None
            at = ball.positions(*src)
            seen[at] = True
            labels[at, : img[0].shape[1]] = img[0]
            depths[at] = img[1]
        held = size - cut
        buf[:held] = buf[cut:size]
    if held or lines < n or not seen.all():  # the sources are the whole ball
        return None
    return FiniteTreeMap._from_arrays(shape, radius, labels, depths, checked=True)


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
    labels = digits.astype(np.int8)  # below 10 where live; the rest is cut to -1
    labels[~live] = -1
    return labels, depths


def _read_lines(lines: list[str], budget: int) -> FiniteTreeMap:
    """The line loop: every line split and each address read through one
    address reader (`layout._Addresses`), with the one wording of every
    error; the image rows are placed at the sources' ball positions at the
    end."""
    if not lines:
        raise MapFormatError("empty map file", 1)
    shape, radius = _header(lines[0])
    ball = _budgeted_ball(shape, radius, budget)
    read = _Addresses(shape)
    table: dict = {}  # source: image, in line order
    for no, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise MapFormatError(f"expected 'source image', got {ln!r}", no)
        try:
            src = read[parts[0]]
        except TreeQIError as e:
            raise MapFormatError(f"bad source address: {e}", no) from None
        if len(src) > radius:
            raise MapFormatError(f"source {parts[0]} is deeper than the stated radius {radius}", no)
        if src in table:
            raise MapFormatError(f"duplicate source {parts[0]}", no)
        try:
            table[src] = read[parts[1]]
        except TreeQIError as e:
            raise MapFormatError(f"bad image address: {e}", no) from None
    at = ball.positions(*_pack(list(table), ball.labels.dtype))
    if len(at) != len(ball.depths):  # every source is a distinct vertex of the ball
        missing = ball.vertex(int(np.bincount(at, minlength=len(ball.depths)).argmin()))
        raise MapFormatError(f"missing domain vertex {format_address(missing)}")
    labels, depths = _pack(list(table.values()), ball.labels.dtype)
    order = np.argsort(at)
    return FiniteTreeMap._from_arrays(shape, radius, labels[order], depths[order])


def _read_text(path) -> str:
    """The ASCII text of the trace file at path."""
    try:
        return Path(path).read_text(encoding="ascii")
    except FileNotFoundError:
        raise MapFormatError(f"no such file: {path}") from None
    except UnicodeDecodeError:
        raise MapFormatError(f"{path} is not a text trace file") from None


def parse_map_file(path, budget: int = DEFAULT_VERTEX_BUDGET) -> FiniteTreeMap:
    """The map in the file at path, read in pieces by the block reader.
    Any other text is read again, whole and untranslated, by the line loop,
    which splits lines at '\\r\\n', '\\r' and '\\n' alike, so every newline
    spelling reads the same.  A pipe, which cannot be read twice, is held
    in memory first."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise MapFormatError(f"no such file: {path}") from None
    with fh:
        stream = fh if fh.seekable() else io.BytesIO(fh.read())
        m = _read_blocks(stream, budget)
        if m is not None:
            return m
        stream.seek(0)
        data = stream.read()
    if not data.isascii():
        raise MapFormatError(f"{path} is not a text map file")
    return _read_lines(_lines(data.decode("ascii")), budget)


def write_trace_file(trace, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(trace.lines())


def parse_trace_file(path):
    from .mixed_builder import BuildTrace

    return BuildTrace.from_text(_read_text(path))
