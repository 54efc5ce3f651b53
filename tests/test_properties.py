"""Bounded property tests for the construction, the trace format, the map
file format and the map operations: each invariant is checked on small
generated inputs rather than on fixed seeds only."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treeqi as tq
from treeqi import ROOT, BuildTrace, FiniteTreeMap, MixedPolicy, TreeShape
from treeqi.mapfile import dump_map_text, parse_map_text
from treeqi.errors import TreeQIError
from treeqi.layout import _TEXT_LABELS, _Addresses
from treeqi.tree_core import ball, parse_address

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


# texts that `address_texts` does not make from labels: labels that are no
# number, misplaced dots, the longest label and one digit more, and
# addresses at and past the depth cap, one of them 10,000 labels long
_ODD_TEXTS = ["", ".", "..", ".0", "..0", "0.", "0..1", "x", "1a", "+1", " 1", "\u0663", "1" * 640]
_ODD_TEXTS += ["9" * 641, ".".join("1" * 64), ".".join("1" * 65), ".".join("1" * 10_000)]


@st.composite
def address_texts(draw):
    """(degree, texts): texts of addresses in and below small balls, each
    after its prefixes or before them, with a few labels respelled with
    leading zeros, moved to or past their bound or made malformed, mixed
    with `_ODD_TEXTS`."""
    degree = draw(st.sampled_from([3, 4, 11, _TEXT_LABELS + 1]))  # the last: labels past the table
    texts = []
    for _ in range(draw(st.integers(0, 4))):
        bounds = [degree - (k > 0) for k in range(draw(st.integers(1, 66)))]
        labels = [str(draw(st.integers(0, b - 1) | st.just(b - 1))) for b in bounds]
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.integers(0, len(labels) - 1))
            odd = ["0" + labels[k], "00" + labels[k], str(bounds[k]), str(degree), "", "x", "\u0663", "9" * 641]
            labels[k] = draw(st.sampled_from(odd))
        prefixes = [".".join(labels[:k]) for k in range(1, len(labels) + 1)]
        texts += prefixes if draw(st.booleans()) else prefixes[::-1]
    texts += draw(st.lists(st.sampled_from(_ODD_TEXTS), max_size=4))
    return degree, draw(st.permutations(texts)) if draw(st.booleans()) else texts


@PROPERTY
@given(address_texts())
@example((3, _ODD_TEXTS))
@example((3, ["2", "3", "0.1", "0.2", "2.1.0", "2.1.2", "01.1", "01.2"]))  # labels at the bound
@example((11, [".".join(["10", *["9"] * k]) for k in range(70)]))
def test_address_reader_matches_parse_address(case):
    """One `_Addresses` reads each text to parse_address's address, or
    fails with its error type and message, whatever it read before."""
    degree, texts = case
    shape, read = TreeShape(degree), _Addresses(TreeShape(degree))
    for text in texts:
        try:
            want = parse_address(text, shape)
        except TreeQIError as e:
            with pytest.raises(type(e)) as err:
                read[text]
            assert str(err.value) == str(e)
        else:
            assert read[text] == want


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
