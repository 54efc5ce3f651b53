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
from treeqi import mapfile
from treeqi.errors import BudgetExceededError, DepthLimitError, MapFormatError, TreeQIError
from treeqi.mapfile import dump_map_text, parse_map_text, write_map_file, parse_map_file
from treeqi.mixed_builder import BuildTrace
from treeqi.layout import _ball
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


def test_block_paths_build_no_text_tables(monkeypatch):
    """Canonical one-digit text is read without the line loop, and neither
    direction builds the ball's vertex tuples or texts; two-digit labels
    go to the line loop."""
    maps = [tq.perturb_map_in_subtree(tq.random_automorphism_map(TreeShape(d), 3, 1), 2) for d in (3, 10, 11)]
    texts = [dump_map_text(m) for m in maps]
    _ball.cache_clear()

    def refused(lines, budget):
        raise AssertionError("the line loop ran")

    monkeypatch.setattr(mapfile, "_read_lines", refused)
    for m, text in zip(maps[:2], texts):
        assert parse_map_text(text) == m
        assert dump_map_text(m) == text
        assert not {"verts", "texts", "_position", "_text"} & set(_ball(m.shape.degree, 3).__dict__)
    with pytest.raises(AssertionError, match="the line loop ran"):
        parse_map_text(texts[2])
    monkeypatch.undo()
    assert parse_map_text(texts[2]) == maps[2]


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


def test_trace_text_matches_reference():
    for trace in _traces():
        text = reference_trace_text(trace)
        assert trace.to_text() == text
        assert BuildTrace.from_text(text).to_text() == text


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
