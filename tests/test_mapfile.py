import random

import pytest

import treeqi as tq
from treeqi import MixedPolicy, TreeShape
from treeqi.errors import BudgetExceededError, DepthLimitError, MapFormatError, TreeQIError
from treeqi.mapfile import dump_map_text, parse_map_text, write_map_file, parse_map_file
from treeqi.mixed_builder import BuildTrace
from treeqi.qi_map import FiniteTreeMap, _ball
from treeqi.tree_core import DEFAULT_VERTEX_BUDGET, ball, format_address, parse_address

D3 = TreeShape(3)


def _reference_parse_map_text(text, budget=DEFAULT_VERTEX_BUDGET):
    """The per-line parser the address index replaced: every address through
    parse_address, the whole ball walked for the first missing vertex."""
    lines = text.splitlines()
    if not lines:
        raise MapFormatError("empty map file", 1)
    head = lines[0].split()
    if (
        len(head) != 4
        or head[0] != "tree-qi"
        or head[1] != "v1"
        or not head[2].startswith("degree=")
        or not head[3].startswith("radius=")
    ):
        raise MapFormatError("bad header (expected 'tree-qi v1 degree=<d> radius=<R>')", 1)
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
    table = {}
    for no, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise MapFormatError(f"expected 'source image', got {ln!r}", no)
        try:
            src = parse_address(parts[0], shape)
        except TreeQIError as e:
            raise MapFormatError(f"bad source address: {e}", no) from None
        if len(src) > radius:
            raise MapFormatError(
                f"source {parts[0]} is deeper than the stated radius {radius}", no
            )
        if src in table:
            raise MapFormatError(f"duplicate source {parts[0]}", no)
        try:
            img = parse_address(parts[1], shape)
        except TreeQIError as e:
            raise MapFormatError(f"bad image address: {e}", no) from None
        table[src] = img
    for v in ball(shape, radius, budget):
        if v not in table:
            raise MapFormatError(f"missing domain vertex {format_address(v)}")
    return FiniteTreeMap(shape, radius, table)


def _reference_trace_text(trace):
    """The trace formatter the address index replaced."""
    lines = [
        f"tree-qi-trace v1 degree={trace.degree} D={trace.step}"
        f" levels={trace.levels} policy={trace.policy}"
    ]
    for c in trace.classes:
        assign = ",".join(
            f"{format_address(b)}:{format_address(a)}" for b, a in c.assignment.items()
        )
        lines.append(
            f"class level={c.level}"
            f" image={format_address(c.image)}"
            f" members={'|'.join(format_address(v) for v in c.members)}"
            f" subtree={'|'.join(format_address(v) for v in c.subtree)}"
            f" boundary={'|'.join(format_address(v) for v in c.boundary)}"
            f" rng_draws={c.rng_draws}"
            f" assign={assign}"
        )
    return "\n".join(lines) + "\n"


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


def test_non_ascii_digit_label():
    for label in ("\u00b2", "\u0661"):
        text = f"tree-qi v1 degree=3 radius=0\n. {label}\n"
        with pytest.raises(MapFormatError) as err:
            parse_map_text(text)
        assert err.value.line == 2 and "image" in str(err.value)


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
    ]
    # images deeper than the radius: a ball vertex's text, then further labels
    for image in ("0.0.2", "0.01.1", "0.\u00b2", "0..1", "0.1.x", "00.1.1", "2.1.0",
                  "3.0.0", ".".join(["1"] * 64), ".".join(["1"] * 65)):
        texts.append(f"tree-qi v1 degree=3 radius=1\n. .\n0 {image}\n1 1\n2 2\n")
    return texts


def test_parser_matches_reference():
    for text in _parser_inputs():
        try:
            expected = _reference_parse_map_text(text)
        except TreeQIError as e:
            with pytest.raises(type(e)) as err:
                parse_map_text(text)
            assert str(err.value) == str(e)
            assert getattr(err.value, "line", None) == getattr(e, "line", None)
        else:
            got = parse_map_text(text)
            assert got == expected
            assert dump_map_text(got) == dump_map_text(expected)


def test_parsed_map_shares_the_ball_tuples():
    m = parse_map_text(dump_map_text(tq.random_automorphism_map(D3, 3, 1)))
    ball_tuples = {id(v) for v in tq.qi_map._ball(3, 3).verts}
    assert all(id(v) in ball_tuples and id(w) in ball_tuples for v, w in m.table.items())


def test_trace_text_matches_reference():
    traces = []
    for shape, step, levels in ((D3, 2, 3), (TreeShape(4), 2, 2), (D3, 3, 2)):
        for policy in (MixedPolicy.minimal(), MixedPolicy.deepest_feasible(), MixedPolicy.random(4)):
            traces.append(tq.build_mixed(shape, step, levels, policy)[1])
    traces.append(tq.approximate_by_mixed(tq.random_automorphism_map(D3, 7, 2), 1)[2])
    traces.append(BuildTrace(3, 40, 2, "minimal"))  # no index past the depth cap
    for trace in traces:
        text = _reference_trace_text(trace)
        assert trace.to_text() == text
        assert BuildTrace.from_text(text).to_text() == text


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
    assert tq.parse_trace_file(path).to_text() == trace.to_text()
    with pytest.raises(MapFormatError, match="no such file"):
        tq.parse_trace_file(tmp_path / "absent.trace")
    path.write_bytes(b"tree-qi-trace v1 degree=3 D=2 levels=2 policy=\xe9\n")
    with pytest.raises(MapFormatError, match="not a text trace file"):
        tq.parse_trace_file(path)
