import os
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeqi as tq
from reference import (
    reference_dump_map_text,
    reference_parse_map_text,
    reference_parse_trace_text,
    reference_trace_text,
)
from treeqi import MixedPolicy, TreeShape
from treeqi import mapfile, tree_map
from treeqi.errors import (
    BudgetExceededError,
    DepthLimitError,
    InvalidAddressError,
    MapFormatError,
    TreeQIError,
)
from treeqi.mapfile import dump_map_text, parse_map_text, write_map_file, parse_map_file
from treeqi.mixed_builder import BuildTrace, ClassTrace
from treeqi.layout import _ball
from treeqi.oracle import oracle_measure
from treeqi.tree_core import ball_size

D3 = TreeShape(3)


def test_round_trip_identity():
    m = tq.identity_map(D3, 3)
    assert parse_map_text(dump_map_text(m)) == m


def test_round_trip_generated(tmp_path):
    m, _ = tq.build_mixed(D3, 2, 3, MixedPolicy.random(13))
    path = tmp_path / "m.qi"
    write_map_file(m, path)
    assert parse_map_file(path) == m
    # byte-stable: writing the parsed map reproduces the file
    assert dump_map_text(parse_map_file(path)) == path.read_text()


def test_header_errors():
    with pytest.raises(MapFormatError):
        parse_map_text("")
    with pytest.raises(MapFormatError) as err:
        parse_map_text("tree-qi v2 degree=3 radius=1\n")
    assert err.value.line == 1
    with pytest.raises(MapFormatError):
        parse_map_text("tree-qi v1 degree=2 radius=1\n")
    with pytest.raises(MapFormatError):
        parse_map_text("tree-qi v1 degree=3 radius=-1\n")


def test_missing_vertex_named():
    m = tq.identity_map(D3, 2)
    text = dump_map_text(m)
    lines = text.splitlines()
    removed = next(ln for ln in lines[1:] if ln.startswith("0.1 "))
    lines.remove(removed)
    with pytest.raises(MapFormatError) as err:
        parse_map_text("\n".join(lines) + "\n")
    assert "missing domain vertex 0.1" in str(err.value)


def test_duplicate_source():
    m = tq.identity_map(D3, 1)
    text = dump_map_text(m) + "0 1\n"
    with pytest.raises(MapFormatError) as err:
        parse_map_text(text)
    assert "duplicate" in str(err.value) and err.value.line == 6


def test_label_out_of_range_for_degree():
    text = "tree-qi v1 degree=3 radius=1\n. .\n0 0\n1 1\n3 0\n"
    with pytest.raises(MapFormatError) as err:
        parse_map_text(text)
    assert err.value.line == 5
    text = "tree-qi v1 degree=3 radius=1\n. .\n0 0.5\n1 1\n2 2\n"
    with pytest.raises(MapFormatError) as err:
        parse_map_text(text)
    assert "image" in str(err.value)


def test_source_deeper_than_radius():
    text = "tree-qi v1 degree=3 radius=0\n. .\n0.0 .\n"
    with pytest.raises(MapFormatError) as err:
        parse_map_text(text)
    assert err.value.line == 3


def test_malformed_line():
    text = "tree-qi v1 degree=3 radius=0\n. . .\n"
    with pytest.raises(MapFormatError):
        parse_map_text(text)


def test_missing_file():
    with pytest.raises(MapFormatError):
        parse_map_file("/nonexistent/path.qi")


def test_non_ascii_files_are_not_text(tmp_path):
    path = tmp_path / "binary"
    path.write_bytes(bytes(range(128, 256)))
    for parse, kind in ((parse_map_file, "map"), (tq.parse_trace_file, "trace")):
        with pytest.raises(MapFormatError, match=f"is not a text {kind} file"):
            parse(path)


def _outcome(parse, arg):
    try:
        return parse(arg)
    except MapFormatError as e:
        return str(e), e.line


def test_newline_spellings_read_alike(tmp_path):
    """Map files are read as bytes, untranslated: CRLF and lone CR newlines,
    alone or mixed with LF, read to the same map as LF, and a bad file
    fails with the same message on the same line.  In map and trace text
    the other line breaks of `str.splitlines` (vertical tab, form feed,
    \\x1c-\\x1e) are whitespace: in place of a space or at the end of a
    line, they change neither what is read nor the line of an error."""
    text = dump_map_text(tq.perturb_map_in_subtree(tq.random_automorphism_map(D3, 3, 1), 2))
    lines = text.splitlines(keepends=True)
    texts = [
        text,
        "".join(lines[:5] + lines[6:]),  # a missing vertex
        "".join(lines[:5] + [lines[5].split()[0] + " 9.0\n"] + lines[6:]),  # a label past the degree
        "".join(lines[:7] + [lines[3]] + lines[7:]),  # a duplicate source
        "".join(lines[:4] + ["0 1 2\n"] + lines[4:]),  # three tokens
    ]
    path = tmp_path / "m.qi"
    for lf in texts:
        want = _outcome(parse_map_text, lf)
        for spelled in (lf.replace("\n", "\r\n"), lf.replace("\n", "\r"), lf.replace("\n", "\r\n", 3)):
            path.write_bytes(spelled.encode())
            assert _outcome(parse_map_file, path) == want
    assert all(type(_outcome(parse_map_text, bad)) is tuple for bad in texts[1:])
    map_text = "tree-qi v1 degree=3 radius=1\n. .\n0 0\n1 1\n2 2\n"
    trace_text = tq.build_mixed(D3, 1, 2, MixedPolicy.minimal())[1].to_text()
    cases = (
        (map_text, map_text.replace("2 2", "2 3"), parse_map_text, parse_map_file),  # line 5: a label past the degree
        (trace_text, trace_text + "class\n", BuildTrace.from_text, tq.parse_trace_file),  # no fields
    )
    for good, bad, parse, parse_file in cases:
        assert type(_outcome(parse, good)) is not tuple and type(_outcome(parse, bad)) is tuple
        second = good.index("\n") + 1
        for c in "\x0b\x0c\x1c\x1d\x1e":
            spaced = good[:second] + good[second:].replace(" ", c, 1)  # the first space of line 2
            stray = bad.replace("\n", c + "\n", 3)  # after each of lines 1-3
            for text, want in ((spaced, good), (stray, bad)):
                assert _outcome(parse, text) == _outcome(parse, want)
                path.write_bytes(text.encode())
                assert _outcome(parse_file, path) == _outcome(parse, want)


def test_map_file_read_through_a_pipe():
    """A pipe reports no size: its bytes are read all the same."""
    m = tq.random_automorphism_map(D3, 3, 1)
    r, w = os.pipe()
    os.write(w, dump_map_text(m).encode())
    os.close(w)
    try:
        assert parse_map_file(f"/dev/fd/{r}") == m
    finally:
        os.close(r)


def test_non_ascii_digit_label():
    for label in ("\u00b2", "\u0661"):
        text = f"tree-qi v1 degree=3 radius=0\n. {label}\n"
        with pytest.raises(MapFormatError) as err:
            parse_map_text(text)
        assert err.value.line == 2 and "image" in str(err.value)


def test_over_long_label_is_an_address_error():
    long = "1" * 5000  # past the digits Python's int() reads by default
    for text, field, line in (
        (f"tree-qi v1 degree=3 radius=0\n. {long}\n", "image", 2),
        (f"tree-qi v1 degree=3 radius=0\n{long} .\n", "source", 2),
        (f"tree-qi v1 degree=3 radius=1\n. .\n0 0.{long}\n1 1\n2 2\n", "image", 3),
    ):
        with pytest.raises(MapFormatError) as err:
            parse_map_text(text)
        assert err.value.line == line
        message = f"bad {field} address: bad address: a label of 5000 digits is too long"
        assert message in str(err.value)
    zeros = "0" * 5000  # leading zeros stay legal, however many
    m = parse_map_text(f"tree-qi v1 degree=3 radius=1\n. .\n{zeros} {zeros}1.{zeros}1\n1 1\n2 2\n")
    assert dict(m.table) == {(): (), (0,): (1, 1), (1,): (1,), (2,): (2,)}


def test_over_long_label_in_a_trace_class_line():
    trace = tq.build_mixed(D3, 2, 2, MixedPolicy.minimal())[1]
    head, first, *rest = trace.to_text().splitlines()
    image = first.split(" image=", 1)[1].split()[0]
    line = first.replace(f" image={image} ", f" image={'1' * 5000} ", 1)
    with pytest.raises(MapFormatError) as err:
        BuildTrace.from_text("\n".join([head, line, *rest]) + "\n")
    assert err.value.line == 2
    assert "bad class line: bad address: a label of 5000 digits is too long" in str(err.value)


def test_trace_number_fields_are_read_as_labels():
    """A number field of more than 4,300 digits (Python's int() limit) or
    with a sign fails naming the field and the line; leading zeros stay
    legal, however many."""
    text = tq.build_mixed(D3, 2, 2, MixedPolicy.minimal())[1].to_text()

    def edited(field, line, value):
        lines = text.splitlines()
        lines[line - 1] = re.sub(f" {field}=(\\S+)", f" {field}={value}", lines[line - 1], count=1)
        return BuildTrace.from_text("\n".join(lines) + "\n")

    bad = (("1" * 5000, "of 5000 digits is too long"), ("-1", "'-1' is not a number"))
    for field, line in (("degree", 1), ("D", 1), ("levels", 1), ("level", 2), ("rng_draws", 2)):
        for value, message in bad:
            with pytest.raises(MapFormatError) as err:
                edited(field, line, value)
            assert err.value.line == line and f"a {field}= value {message}" in str(err.value)
        zeros = "0" * 5000 + "\\1"  # the written value behind 5000 zeros
        assert edited(field, line, zeros).to_text() == text


def test_trace_header_refuses_a_zero_step_depth():
    """D=0 names no construction, so the header is refused where it is read,
    as the reference refuses it; levels=0 is an empty construction, which
    `gen-mixed --levels 0` writes."""
    text = "tree-qi-trace v1 degree=3 D=0 levels=1 policy=minimal\n"
    for parse in (BuildTrace.from_text, reference_parse_trace_text):
        with pytest.raises(MapFormatError) as err:
            parse(text)
        assert err.value.line == 1
        assert str(err.value).endswith("bad trace header: a D= value of 0 is not a step depth")
        with pytest.raises(MapFormatError, match="bad trace header"):
            parse(text.replace("D=0", "D=000"))
    empty = tq.build_mixed(D3, 2, 0, MixedPolicy.minimal())[1]
    assert empty.to_text() == "tree-qi-trace v1 degree=3 D=2 levels=0 policy=minimal\n"
    assert BuildTrace.from_text(empty.to_text()) == empty
    assert reference_parse_trace_text(empty.to_text()) == empty


def test_budget_checked_before_any_line():
    misses = _ball.cache_info().misses
    with pytest.raises(BudgetExceededError) as err:
        parse_map_text("tree-qi v1 degree=3 radius=30\nnot a line\n")
    assert not isinstance(err.value, DepthLimitError)
    with pytest.raises(DepthLimitError):
        parse_map_text("tree-qi v1 degree=3 radius=65\nnot a line\n")
    with pytest.raises(BudgetExceededError):
        parse_map_text("tree-qi v1 degree=3 radius=3\nnot a line\n", budget=21)
    assert _ball.cache_info().misses == misses


def _respell(line: str) -> str:
    """Give every label a leading zero: '0.1' -> '00.01'; the root stays '.'."""
    return " ".join(a if a == "." else ".".join("0" + p for p in a.split(".")) for a in line.split())


def _parser_inputs():
    """Map texts that both parsers must read alike: dumps, permuted and
    respelled dumps, and malformed texts."""
    maps = [
        tq.identity_map(D3, 3),
        tq.constant_map(D3, 2),  # every image is the root
        tq.random_automorphism_map(D3, 4, 3),
        tq.perturb_map_in_subtree(tq.random_automorphism_map(D3, 3, 5), 8),  # deeper images
        tq.random_map(TreeShape(4), 2, 2),
        tq.build_mixed(D3, 2, 2, MixedPolicy.deepest_feasible())[0],
        tq.build_mixed(TreeShape(4), 2, 2, MixedPolicy.random(6))[0],
    ]
    texts = []
    rng = random.Random(0)
    for m in maps:
        head, *body = dump_map_text(m).splitlines()
        texts.append(dump_map_text(m))
        rng.shuffle(body)
        texts.append("\n".join([head, *body]) + "\n")
        texts.append("\n".join([head, *(_respell(ln) for ln in body)]) + "\n")
        texts.append("\n".join([head, *body[1:]]) + "\n")  # one vertex missing
        texts.append("\n".join([head, *body, body[-1]]) + "\n")  # a duplicate
    texts += [
        "",
        "tree-qi v2 degree=3 radius=1\n",
        "tree-qi v1 degree=2 radius=1\n",
        "tree-qi v1 degree=3 radius=-1\n",
        "tree-qi v1 degree=x radius=1\n",
        "tree-qi v1 degree=3 radius=1\n. .\n0 0\n1 1\n3 0\n",
        "tree-qi v1 degree=3 radius=1\n. .\n0 0.5\n1 1\n2 2\n",
        "tree-qi v1 degree=3 radius=1\n. .\n0 0\n1 1\n",
        "tree-qi v1 degree=3 radius=1\n. .\n0 0\n1 1\n2 2\n0 1\n",
        "tree-qi v1 degree=3 radius=1\n. .\n0 0\n01 1\n2 2\n",
        "tree-qi v1 degree=3 radius=0\n. .\n0.0 .\n",
        "tree-qi v1 degree=3 radius=0\n. . .\n",
        "tree-qi v1 degree=3 radius=0\n. 0.x\n",
        "tree-qi v1 degree=3 radius=0\n. \u00b2\n",
        "tree-qi v1 degree=3 radius=0\n\u0661 .\n",
        "tree-qi v1 degree=3 radius=0\n. " + ".".join(["0"] * 65) + "\n",
        "tree-qi v1 degree=3 radius=1\n. 0.0.0.0.0.0.0.0\n0 1\n1 0.1\n2 2\n",
        "tree-qi v1 degree=3 radius=0",  # a header alone, without its newline
        "tree-qi v1 degree=11 radius=0\n. :\n",  # the byte after '9' is no label
        "tree-qi v1 degree=12 radius=0\n. 0.;\n",
    ]
    # images deeper than the radius: a ball vertex's text, then further labels
    for image in ("0.0.2", "0.01.1", "0.\u00b2", "0..1", "0.1.x", "00.1.1", "2.1.0",
                  "3.0.0", ".".join(["1"] * 64), ".".join(["1"] * 65)):
        texts.append(f"tree-qi v1 degree=3 radius=1\n. .\n0 {image}\n1 1\n2 2\n")
    # the root's text '.' joined to further labels, as an image or a source
    *lines, last = dump_map_text(tq.identity_map(D3, 2)).splitlines()
    assert last == "2.1 2.1"
    for line in ("2.1 ..0.0.0", "2.1 ..0.0", "..0.0.0 2.1", "..0.0 2.1"):
        texts.append("\n".join([*lines, line]) + "\n")
    return texts


def _reads_like_reference(text: str) -> None:
    """parse_map_text gives the reference parser's map, or its error type,
    message and line."""
    try:
        expected = reference_parse_map_text(text)
    except TreeQIError as e:
        with pytest.raises(TreeQIError) as err:
            parse_map_text(text)
        assert type(err.value) is type(e)
        assert str(err.value) == str(e)
        assert getattr(err.value, "line", None) == getattr(e, "line", None)
    else:
        got = parse_map_text(text)
        assert got == expected
        assert dump_map_text(got) == dump_map_text(expected)


def test_parser_matches_reference():
    for text in _parser_inputs():
        _reads_like_reference(text)


CODEC = settings(max_examples=300, deadline=None)


@st.composite
def codec_maps(draw, max_image_depth):
    """Maps of degree 3-12 (labels of one and two digits) on balls of
    radius 0-4 with at most 2,000 vertices; images from the root down to
    two levels below the radius, and some down to max_image_depth."""
    shape = TreeShape(draw(st.integers(3, 12)))
    radius = draw(st.integers(0, 4).filter(lambda r: ball_size(shape, r) <= 2000))
    rnd = random.Random(draw(st.integers(0, 2**32)))

    def address():
        depth = rnd.randint(0, radius + 2)
        if rnd.random() < 0.05:
            depth = rnd.randint(0, max_image_depth)
        return tuple(rnd.randrange(shape.degree - (k > 0)) for k in range(depth))

    return tq.FiniteTreeMap(shape, radius, {v: address() for v in _ball(shape.degree, radius).verts})


def _edited(text: str, rnd: random.Random, degree: int) -> str:
    """The map text with at most one edit: a respelled label, a swapped,
    dropped or duplicated line, a carriage return, tab or second space in
    or in place of a character of a line, a vertical tab in the header, no
    final newline or a stray byte after it, a label past the degree, a
    source or image one label deeper, a doubled, leading or trailing dot,
    a dot replaced by a carriage return, a tab or a digit, or a line break
    replaced by a tab, a carriage return or a vertical tab."""
    head, *body = text.splitlines()
    i, j = rnd.randrange(len(body)), rnd.randrange(len(body))
    line, end = body[i], "\n"
    at = rnd.randrange(len(line))
    tokens = line.split(" ")
    side = rnd.randrange(2)
    labels = [] if tokens[side] == "." else tokens[side].split(".")
    k = rnd.randrange(len(labels)) if labels else 0
    dots = [p for p, c in enumerate(line) if c == "."]
    kind = rnd.randrange(16)
    if kind == 1 and labels:
        labels[k] = "0" + labels[k]
    elif kind == 2:
        body[i], body[j] = body[j], body[i]
    elif kind == 3:
        del body[i]
    elif kind == 4:
        body.insert(j, line)
    elif kind == 5:
        body[j] = line
    elif kind == 6:
        body[i] = line[:at] + rnd.choice("\r\t ") + line[at + rnd.randrange(2) :]
    elif kind == 7:
        at = rnd.randrange(len(head) + 1)
        head = head[:at] + "\x0b" + head[at:]
    elif kind == 8:
        end = rnd.choice(["", "\n\r", "\n0", "\n."])
    elif kind == 9 and labels:
        labels[k] = str(degree - (k > 0) + rnd.randrange(2))
    elif kind == 10:
        labels.append(str(rnd.randrange(degree - 1)))
    elif kind == 11:
        tokens[side] = rnd.choice(["." + tokens[side], tokens[side] + "."])
    elif kind == 12:
        tokens[side] = tokens[side].replace(".", "..", 1) if labels else ".."
    elif kind == 13 and dots:
        at = rnd.choice(dots)
        body[i] = line[:at] + rnd.choice("\r\t0") + line[at + 1 :]
    elif kind == 14 and i + 1 < len(body):
        body[i : i + 2] = [line + rnd.choice("\t\r\x0b") + body[i + 1]]
    if kind in (1, 9, 10) and labels:
        tokens[side] = ".".join(labels)
    if kind in (1, 9, 10, 11, 12):
        body[i] = " ".join(tokens)
    return "\n".join([head, *body]) + end


@CODEC
@given(codec_maps(max_image_depth=8), st.integers(0, 2**32))
def test_parser_matches_reference_on_edited_dumps(m, seed):
    _reads_like_reference(_edited(dump_map_text(m), random.Random(seed), m.shape.degree))


@CODEC
@given(codec_maps(max_image_depth=tq.MAX_DEPTH))
def test_writer_matches_reference_on_two_digit_labels(m):
    assert dump_map_text(m) == reference_dump_map_text(m)


def test_block_paths_build_no_text_tables(monkeypatch, tmp_path):
    """Canonical one-digit text is read without the line loop, and neither
    direction builds the ball's vertex tuples; two-digit labels go to the
    line loop, which builds none either, and neither does the trace
    reader."""
    maps = [tq.perturb_map_in_subtree(tq.random_automorphism_map(TreeShape(d), 3, 1), 2) for d in (3, 10, 11)]
    texts = [dump_map_text(m) for m in maps]
    _ball.cache_clear()

    def refused(lines, budget):
        raise AssertionError("the line loop ran")

    monkeypatch.setattr(mapfile, "_read_lines", refused)
    for m, text in zip(maps[:2], texts):
        assert parse_map_text(text) == m
        assert dump_map_text(m) == text
        assert "verts" not in vars(_ball(m.shape.degree, 3))
    with pytest.raises(AssertionError, match="the line loop ran"):
        parse_map_text(texts[2])
    monkeypatch.undo()
    assert parse_map_text(texts[2]) == maps[2]
    assert "verts" not in vars(_ball(11, 3))  # nor does the line loop
    trace = tq.build_mixed(TreeShape(11), 1, 3, MixedPolicy.random(1))[1]
    path = tmp_path / "t.trace"
    tq.write_trace_file(trace, path)
    _ball.cache_clear()
    assert tq.parse_trace_file(path) == trace
    assert _ball.cache_info().currsize == 0  # nor the trace reader: it builds no ball at all


def test_codec_memory_is_bounded_by_the_text():
    """Reading and writing a radius-14 map with images below the radius,
    some of them at the depth cap, peak at most 8x the text size: both
    directions work block by block."""
    m = tq.perturb_map_in_subtree(tq.random_automorphism_map(D3, 14, 1), 2, max_step=3)
    labels = np.pad(m.labels, ((0, 0), (0, tq.MAX_DEPTH - m.labels.shape[1])), constant_values=-1)
    depths = m.depths.copy()
    for i in range(0, len(depths), 5000):  # a few images at the depth cap
        labels[i, depths[i] :] = 1
        depths[i] = tq.MAX_DEPTH
    m = tq.FiniteTreeMap._from_arrays(D3, 14, labels, depths)
    text = dump_map_text(m)
    assert parse_map_text(text) == m  # the ball is cached before measuring
    tracemalloc.start()
    try:
        parse_map_text(text)
        read_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        dump_map_text(m)
        write_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(read_peak, write_peak) <= 8 * len(text)


def test_block_rows_are_checked_once(monkeypatch):
    """The block reader checks every label and depth of its rows, so the
    map takes them without a second check; a corrupted one-digit body goes
    to the line loop, which words the error."""
    m = tq.identity_map(D3, 2)
    text = dump_map_text(m)

    def twice(*args):
        raise AssertionError("rows checked twice")

    monkeypatch.setattr(tree_map, "_check_rows", twice)
    assert parse_map_text(text) == m
    corrupted = (
        ("\n1.0 1.0\n", "\n1.0 1.2\n", "line 7: bad image address: label 2 at position 1"),
        ("\n2 2\n", "\n2 3\n", "line 9: bad image address: label 3 at position 0"),
        ("\n0.1 0.1\n", "\n0.1 " + ".".join("0" * 65) + "\n", "line 5: bad image address: address"),
    )
    for old, new, message in corrupted:
        with pytest.raises(MapFormatError, match=re.escape(message)):
            parse_map_text(text.replace(old, new))


def test_trace_writer_and_verifier_build_no_ball_tables(tmp_path):
    """Neither an approximation and the writing of its trace nor the
    structural verifier builds the ball's vertex tuples."""
    g = tq.random_automorphism_map(D3, 6, 2)
    _ball.cache_clear()
    approx, bundle, trace = tq.approximate_by_mixed(g, 1, D_override=2)
    tq.write_trace_file(trace, tmp_path / "t.trace")
    assert "verts" not in vars(_ball(3, 6))
    assert (tmp_path / "t.trace").read_text() == reference_trace_text(trace)
    _ball.cache_clear()
    assert tq.verify_mixed_structure(approx, bundle.D_used).passed
    assert "verts" not in vars(_ball(3, 6))


def test_trace_writer_and_verifier_memory_is_bounded(tmp_path):
    """At radius 12, writing the trace of a four-level approximation peaks
    below the trace's size, and verifying the approximation below eight
    times its label rows: neither builds a table of the whole ball."""
    g = tq.random_automorphism_map(D3, 12, 1)
    approx, bundle, trace = tq.approximate_by_mixed(g, 1, D_override=3)
    path = tmp_path / "t.trace"
    tq.write_trace_file(trace, path)  # the tail texts are kept before measuring
    _ball.cache_clear()
    _ball(3, 12)  # the layout itself is cached before measuring
    tracemalloc.start()
    try:
        tq.write_trace_file(trace, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert tq.verify_mixed_structure(approx, bundle.D_used).passed
        verify_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert write_peak <= path.stat().st_size
    assert verify_peak <= 8 * approx.labels.nbytes


def test_approximation_and_trace_write_memory_is_bounded(tmp_path):
    """At radius 12, approximating an automorphism in four levels and
    writing the trace peak below 64 bytes a vertex, whatever the label
    width: no table of the whole ball is built, and the trace's classes are
    read from label rows one at a time."""
    g = tq.random_automorphism_map(D3, 12, 1)
    path = tmp_path / "t.trace"
    trace = tq.approximate_by_mixed(g, 1, D_override=3, check_promise=False)[2]
    tq.write_trace_file(trace, path)  # the tail texts are kept before measuring
    _ball.cache_clear()
    _ball(3, 12)  # the layout itself is cached before measuring
    tracemalloc.start()
    try:
        approx, bundle, trace = tq.approximate_by_mixed(g, 1, D_override=3, check_promise=False)
        tq.write_trace_file(trace, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * len(g.depths)
    assert path.read_text() == reference_trace_text(trace)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_map_read_memory_is_bounded_by_its_label_rows(tmp_path):
    """Reading a radius-14 map file, with images at and below the radius,
    peaks below three times its label rows plus one chunk of the file: the
    block reader holds one piece of whole lines at a time and builds no
    array as large as the file."""
    auto = tq.random_automorphism_map(D3, 14, 7)
    for m in (auto, tq.perturb_map_in_subtree(auto, 3)):
        path = tmp_path / "m.qi"
        write_map_file(m, path)
        assert parse_map_file(path) == m  # the ball is cached before measuring
        peak = _traced_peak(lambda: parse_map_file(path))
        assert peak <= 3 * m.labels.nbytes + mapfile._CHUNK, (peak, m.labels.nbytes)


def test_whole_map_checks_memory_is_bounded_at_radius_14():
    """At radius 14 the parent check and the sup distance gather rows a
    block at a time, each peaking below one map's label rows, and the
    structural verifier holds one level's image rows at a time, peaking
    below four times the map's label rows."""
    auto = tq.random_automorphism_map(D3, 14, 7)
    pert = tq.perturb_map_in_subtree(auto, 3)
    approx, bundle, _ = tq.approximate_by_mixed(auto, 1, check_promise=False)
    for m in (auto, pert):
        assert _traced_peak(lambda: tq.is_order_preserving(m)) <= m.labels.nbytes
    assert _traced_peak(lambda: tq.sup_distance(approx, pert)) <= pert.labels.nbytes
    peak = _traced_peak(lambda: tq.verify_mixed_structure(approx, bundle.D_used))
    assert peak <= 4 * approx.labels.nbytes


@pytest.mark.parametrize("degree, dtype", [(128, np.int8), (129, np.int16)])
def test_label_width_boundary(degree, dtype, tmp_path):
    """Labels take one byte up to degree 128, whose greatest label is 127,
    and two from degree 129 on: at both widths the greatest label and the
    three-digit labels below it are written, read back and measured as
    before, and a label equal to the degree is refused with its error."""
    shape = TreeShape(degree)
    m = tq.perturb_map_in_subtree(tq.random_automorphism_map(shape, 1, 2), 4)
    assert m.labels.dtype == dtype and m.labels.max() == degree - 1
    text = dump_map_text(m)
    assert text == reference_dump_map_text(m)
    write_map_file(m, tmp_path / "m.qi")
    assert (tmp_path / "m.qi").read_text() == text
    assert parse_map_file(tmp_path / "m.qi") == m
    assert dump_map_text(parse_map_text(text)) == text
    assert oracle_measure(m).measurement_fields() == tq.measure_qi(m).measurement_fields()
    message = f"label {degree} at position 0 out of range [0, {degree}) for degree {degree}"
    with pytest.raises(MapFormatError, match=re.escape(f"line 2: bad image address: {message}")):
        parse_map_text(f"tree-qi v1 degree={degree} radius=0\n. {degree}\n")
    with pytest.raises(InvalidAddressError, match=re.escape(message)):
        tq.FiniteTreeMap(shape, 0, {(): (degree,)})


def test_writer_matches_reference():
    maps = []
    for text in _parser_inputs():
        try:
            maps.append(parse_map_text(text))
        except TreeQIError:
            pass
    radius0 = tq.constant_map(D3, 0, (0, 1))  # no ancestor text on the last level to extend
    assert dump_map_text(radius0) == "tree-qi v1 degree=3 radius=0\n. 0.1\n"
    maps += [
        radius0,
        tq.constant_map(D3, 2, (1,) + (0,) * 63),
        tq.build_mixed(TreeShape(4), 2, 2, MixedPolicy.deepest_feasible())[0],
    ]
    for m in maps:
        assert dump_map_text(m) == reference_dump_map_text(m)


def test_parsed_map_shares_the_ball_tuples():
    m = parse_map_text(dump_map_text(tq.random_automorphism_map(D3, 3, 1)))
    ball_tuples = {id(v) for v in tq.layout._ball(3, 3).verts}
    assert all(id(v) in ball_tuples and id(w) in ball_tuples for v, w in m.table.items())


def _traces():
    traces = []
    for shape, step, levels in ((D3, 2, 3), (TreeShape(4), 2, 2), (D3, 3, 2)):
        for policy in (MixedPolicy.minimal(), MixedPolicy.deepest_feasible(), MixedPolicy.random(4)):
            traces.append(tq.build_mixed(shape, step, levels, policy)[1])
    traces.append(tq.approximate_by_mixed(tq.random_automorphism_map(D3, 7, 2), 1)[2])
    traces.append(BuildTrace(3, 40, 2, "minimal"))  # no index past the depth cap
    return traces


def _hand_built_traces():
    """Class lines that defeat the writer's anchor shortcuts, each written
    address by address by the reference."""
    C = ClassTrace
    a, b, ab = (0, 1, 0), (0, 1, 1), (0, 1)
    deep = (0,) + (1,) * 62  # images at the depth cap below it
    return [
        BuildTrace(3, 1, 2, "hand", [
            C(1, ab, ((0,),), (ab,), (a, b), {(1, 0): a, ab: b}),  # a key below no member
            # keys out of block order, and a repeated member
            C(1, ab, ((0,), (1,)), (ab,), (a, b), {(1, 0): a, (0, 0): b, (1, 1): a, ab: b}),
            C(1, ab, ((0,), (0,)), (ab,), (a,), {(0, 0): a, ab: a}),
            # subtree and boundary vertices not below the image, a value off the boundary
            C(1, ab, ((0,),), ((1,), ab), ((2, 0), a), {(0, 0): (2, 0), ab: (2,)}),
            # the root as image and as member, alone and among other members
            C(0, (), ((),), ((), (0,)), ((1,), (2,), (0, 0), ab),
              {(0,): (1,), (1,): (2,), (2,): ab}),
            C(1, (1,), ((), (1,)), ((1,),), ((1, 0), (1, 1)), {(0,): (1, 0), (1, 0): (1, 1)}),
            C(1, (1,), ((1,), ()), ((1,),), ((1, 0), (1, 1)), {(1, 0): (1, 0), (1, 1): (1, 1)}),
            C(1, (2,), (), (), ((2, 0),), {(2, 0): (2, 0)}),  # no members and no subtree
        ]),
        BuildTrace(3, 1, 0, "hand", [C(0, (), ((),), ((),), ((0,), (1,), (2,)), {(): (1,)})]),
        BuildTrace(11, 1, 2, "hand", [  # two-digit labels
            C(1, (10, 9), ((10,), (3,)), ((10, 9), (10, 9, 9)), ((10, 9, 0), (10, 9, 9, 9)),
              {(10, 9): (10, 9, 0), (10, 0): (10, 9, 9, 9), (3, 9): (10, 9, 0), (3, 0): (10, 9)}),
        ]),
        BuildTrace(3, 1, 64, "hand", [
            C(63, deep, (deep[:-1] + (0,),), (deep,), (deep + (0,), deep + (1,)),
              {deep[:-1] + (0, 0): deep + (0,), deep[:-1] + (0, 1): deep + (1,)}),
        ]),
    ]


def test_trace_text_matches_reference():
    for trace in _traces():
        text = reference_trace_text(trace)
        assert trace.to_text() == text
        assert BuildTrace.from_text(text).to_text() == text
    for trace in _hand_built_traces():
        assert trace.to_text() == reference_trace_text(trace)


_ADDRESS_FIELDS = ("image", "members", "subtree", "boundary", "assign")


def _rewrite(line: str, change, fields=_ADDRESS_FIELDS) -> str:
    """The class line with change(text) in place of each address of `fields`."""
    toks = []
    for tok in line.split():
        k, eq, v = tok.partition("=")
        if k in fields:
            v = re.sub(r"[^|,:]+", lambda a: change(a.group()), v)
        toks.append(k + eq + v)
    return " ".join(toks)


def _trace_reader_inputs():
    """Trace texts that both readers must read alike: written traces, their
    respellings, and texts with a bad address in each field or a header
    past the vertex budget or the depth cap."""
    texts = []
    for trace in _traces():
        text = trace.to_text()
        head, *body = text.splitlines()
        d, D = trace.degree, trace.step
        texts.append(text)
        respellings = (
            lambda t: t if t == "." else ".".join("0" + a for a in t.split(".")),
            lambda t: t if t == "." else "{0}{1}0{2}".format(*t.rpartition(".")),  # last label
        )
        for change in respellings:
            texts.append("\n".join([head, *(_rewrite(ln, change) for ln in body)]) + "\n")
        for levels in (30 // D, 70 // D):  # past the vertex budget, past the depth cap
            header = head.replace(f"levels={trace.levels}", f"levels={levels}")
            texts.append("\n".join([header, *body]) + "\n")
        if not body:
            continue
        bad = (
            lambda t: t + f".{d - 1}" if t != "." else str(d),  # a label past the degree
            lambda t: "..0",
            lambda t: "." + t,
            lambda t: t + ".0" * 64,  # past the depth cap
            lambda t: t + "." + "1" * 5000 if t != "." else "1" * 5000,  # an over-long label
        )
        for field in _ADDRESS_FIELDS:
            for change in bad:
                line = _rewrite(body[-1], change, (field,))
                texts.append("\n".join([head, *body[:-1], line]) + "\n")
    return texts


def test_trace_reader_matches_reference():
    for text in _trace_reader_inputs():
        try:
            expected = reference_parse_trace_text(text)
        except TreeQIError as e:
            with pytest.raises(type(e)) as err:
                BuildTrace.from_text(text)
            assert str(err.value) == str(e)
            assert getattr(err.value, "line", None) == getattr(e, "line", None)
        else:
            assert BuildTrace.from_text(text) == expected


def test_trace_reader_errors_carry_the_line():
    trace = tq.build_mixed(D3, 2, 2, MixedPolicy.minimal())[1]
    head, first, *rest = trace.to_text().splitlines()
    bad_label = first.replace(" assign=", " assign=x.0:0,", 1)
    assert bad_label != first
    image = first.split(" image=", 1)[1].split()[0]
    bad_degree = first.replace(f" image={image} ", " image=99.99.99 ", 1)
    assert bad_degree != first
    for line in (bad_label, bad_degree):
        with pytest.raises(MapFormatError) as err:
            BuildTrace.from_text("\n".join([head, *rest, line]) + "\n")
        assert err.value.line == len(rest) + 2 and "bad class line" in str(err.value)


def test_trace_file_round_trip_and_errors(tmp_path):
    trace = tq.build_mixed(D3, 2, 2, MixedPolicy.random(3))[1]
    path = tmp_path / "m.trace"
    tq.write_trace_file(trace, path)
    assert path.read_bytes() == trace.to_text().encode()  # streamed line by line
    assert tq.parse_trace_file(path).to_text() == trace.to_text()
    with pytest.raises(MapFormatError, match="no such file"):
        tq.parse_trace_file(tmp_path / "absent.trace")
    path.write_bytes(b"tree-qi-trace v1 degree=3 D=2 levels=2 policy=\xe9\n")
    with pytest.raises(MapFormatError, match="not a text trace file"):
        tq.parse_trace_file(path)
