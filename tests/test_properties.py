"""Bounded property tests for the construction, the trace format, the map
file format and the map operations: each invariant is checked on small
generated inputs rather than on fixed seeds only."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeqi as tq
from treeqi import ROOT, BuildTrace, FiniteTreeMap, MixedPolicy, TreeShape
from treeqi.mapfile import dump_map_text, parse_map_text
from treeqi.layout import _ball
from treeqi.tree_core import ball, format_address

PROPERTY = settings(max_examples=50, deadline=None)


@st.composite
def builds(draw, degrees=(3, 4), min_levels=0):
    """(shape, step, levels, policy) with at most a few hundred vertices."""
    shape = TreeShape(draw(st.sampled_from(degrees)))
    step = draw(st.integers(1, 3))
    levels = draw(st.integers(min_levels, max(min_levels, (6 if shape.degree == 3 else 4) // step)))
    policy = draw(
        st.sampled_from([MixedPolicy.minimal(), MixedPolicy.deepest_feasible()])
        | st.integers(0, 10**6).map(MixedPolicy.random)
    )
    return shape, step, levels, policy


@st.composite
def maps(draw, max_image_depth=tq.MAX_DEPTH, fix_root=False):
    """Arbitrary maps on small balls; images from the root down to
    max_image_depth, repeated freely."""
    shape = TreeShape(draw(st.sampled_from([3, 4])))
    radius = draw(st.integers(0, 6 - shape.degree))
    rnd = draw(st.randoms(use_true_random=False))
    depths = sorted({0, 1, 2, 3, min(4, max_image_depth), max_image_depth})

    def address():
        labels = range(rnd.choice(depths))
        return tuple(rnd.randrange(shape.degree - (i > 0)) for i in labels)

    table = {v: address() for v in ball(shape, radius)}
    if fix_root:
        table[ROOT] = ROOT
    return FiniteTreeMap(shape, radius, table)


def _replay(shape, trace):
    policy = MixedPolicy.explicit(BuildTrace.from_text(trace.to_text()))
    return tq.build_mixed(shape, trace.step, trace.levels, policy)


@PROPERTY
@given(builds())
def test_builds_pass_the_structure_check(build):
    shape, step, levels, policy = build
    m, _ = tq.build_mixed(shape, step, levels, policy)
    report = tq.verify_mixed_structure(m, step)
    assert report.passed, report.to_lines()


@PROPERTY
@given(builds())
def test_build_traces_replay_to_identical_bytes(build):
    shape, step, levels, policy = build
    m, trace = tq.build_mixed(shape, step, levels, policy)
    again, replayed = _replay(shape, trace)
    assert dump_map_text(again) == dump_map_text(m)
    # only the header's policy name differs
    assert replayed.to_text().split("\n")[1:] == trace.to_text().split("\n")[1:]


@PROPERTY
@given(
    st.sampled_from([3, 4]),
    st.integers(1, 3),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_approximation_traces_replay_through_the_builder(degree, step, levels, built, seed):
    shape = TreeShape(degree)
    levels = min(levels, (6 if degree == 3 else 4) // step)
    if built:
        g, _ = tq.build_mixed(shape, step, levels, MixedPolicy.random(seed))
    else:
        g = tq.random_automorphism_map(shape, step * levels, seed)
    approx, _, trace = tq.approximate_by_mixed(g, 1, step, check_promise=False)
    again, _ = _replay(shape, trace)
    assert dump_map_text(again) == dump_map_text(approx)


def _approximates_to_itself(m, step) -> bool:
    """Whether approximating m at step depth `step` succeeds and returns m."""
    try:
        approx, _, _ = tq.approximate_by_mixed(m, 1, step, check_promise=False)
    except (tq.ValidationFailure, tq.PreconditionError):
        return False
    return approx == m


@PROPERTY
@given(builds())
def test_approximating_a_build_at_its_step_returns_it(build):
    shape, step, levels, policy = build
    m, _ = tq.build_mixed(shape, step, levels, policy)
    if levels == 0:  # a ball without a full level is refused, not approximated
        with pytest.raises(tq.PreconditionError):
            tq.approximate_by_mixed(m, 1, step, check_promise=False)
        return
    approx, _, trace = tq.approximate_by_mixed(m, 1, step, check_promise=False)
    assert dump_map_text(approx) == dump_map_text(m)
    again, _ = _replay(shape, trace)
    assert dump_map_text(again) == dump_map_text(m)


@PROPERTY
@given(builds(), st.randoms(use_true_random=False), st.booleans())
def test_structure_check_passes_exactly_when_approximation_is_a_no_op(build, rnd, swapped):
    shape, step, levels, policy = build
    m, _ = tq.build_mixed(shape, step, levels, policy)
    if swapped:
        table = dict(m.table)
        u, v = rnd.choice(m.domain), rnd.choice(m.domain)
        table[u], table[v] = table[v], table[u]
        m = FiniteTreeMap(shape, m.domain_radius, table)
    passed = tq.verify_mixed_structure(m, step).passed
    if levels == 0:  # vacuously mixed, but holds no level to approximate
        assert passed and not _approximates_to_itself(m, step)
        return
    assert passed == _approximates_to_itself(m, step)


@PROPERTY
@given(maps())
def test_dump_parse_round_trip(m):
    text = dump_map_text(m)
    parsed = parse_map_text(text)
    assert parsed == m
    assert dump_map_text(parsed) == text


@st.composite
def ball_addresses(draw):
    """(degree, radius, address) with the address in the ball or below it."""
    degree, radius = draw(st.sampled_from([3, 4])), draw(st.integers(0, 4))
    depth = draw(st.integers(0, radius + 8))
    labels = [draw(st.integers(0, degree - 1 - (k > 0))) for k in range(depth)]
    return degree, radius, tuple(labels)


@PROPERTY
@given(ball_addresses())
def test_ball_text_codec_round_trips(case):
    degree, radius, v = case
    layout = _ball(degree, radius)
    text = layout.format(v)
    assert text == format_address(v)
    assert layout.locate(text) == v
    if len(v) <= radius:
        assert layout.locate(text) is layout.verts[layout.verts.index(v)]


@PROPERTY
@given(maps(fix_root=True))
def test_normalization_is_order_preserving_and_idempotent(f):
    g = tq.normalize_order_preserving(f, 1, check_promise=False)
    assert tq.is_order_preserving(g) == (True, None)
    assert tq.normalize_order_preserving(g, 1, check_promise=False) == g


@PROPERTY
@given(maps(max_image_depth=5))
def test_composing_with_the_identity_is_a_no_op(m):
    depth = max(len(a) for a in m.table.values())
    assert tq.compose(tq.identity_map(m.shape, depth), m) == m
    assert tq.compose(m, tq.identity_map(m.shape, m.domain_radius)) == m
