"""Equivalence net for the per-class choices of the mixed construction.

The references (tests/reference.py) are the tuple versions that the
relative class code replaced: subtree growth over `TreeShape.children` with a sorted pool, the
boundary as a second pass over the finished subtree, the assignment that
scans the whole block once per member, the check that slices every block
vertex, and the replay check through `FiniteSubtree`.  A bounded property
runs the builder and the references along the same class walk and compares
every class choice; corrupted traces must fail with the reference's exact
`PolicyError`.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeqi as tq
from reference import (
    boundary,
    grow_subtree,
    reference_assign_images,
    reference_build,
    reference_check_assignment,
    reference_grow_subtree,
)
from test_properties import builds
from treeqi import ROOT, BuildTrace, LevelClass, MixedPolicy, TreeShape
from treeqi.errors import PolicyError
from treeqi.mixed_builder import _CountingRandom

NET = settings(max_examples=60, deadline=None)


def _fields(c):
    return [(f.name, getattr(c, f.name)) for f in dataclasses.fields(c)] + [
        ("assignment order", list(c.assignment.items()))
    ]


def _outcome(run):
    try:
        m, trace = run()
    except PolicyError as e:
        return ("PolicyError", str(e), e.level, e.image)
    return (tq.dump_map_text(m), [_fields(c) for c in trace.classes])


@NET
@given(builds(degrees=(3, 4, 5)))
def test_class_choices_match_the_reference(build):
    shape, step, levels, policy = build
    m, trace = tq.build_mixed(shape, step, levels, policy)
    ref_m, ref_trace = reference_build(shape, step, levels, policy)
    assert m == ref_m
    assert [_fields(c) for c in trace.classes] == [_fields(c) for c in ref_trace.classes]
    for c in trace.classes:  # the public helpers run the same code
        cls = LevelClass(c.image, c.members, tuple(c.assignment))
        if policy.variant != "random":
            grown = grow_subtree(c.image, len(c.boundary), policy, shape)
            assert grown.vertices == c.subtree
            assert tq.assign_images(cls, c.boundary, policy) == c.assignment
        for seed in range(2):
            random = MixedPolicy.random(seed)
            rng, ref_rng = _CountingRandom(seed), _CountingRandom(seed)
            grown = grow_subtree(c.image, len(c.boundary), random, shape, rng)
            ref = reference_grow_subtree(c.image, len(c.boundary), random, shape, ref_rng)
            assert (grown, rng.calls) == (ref, ref_rng.calls)
            bd = boundary(ref, shape)
            got = tq.assign_images(cls, bd, random, rng)
            want = reference_assign_images(cls, bd, step, random, ref_rng)
            assert (got, rng.calls) == (want, ref_rng.calls)  # now in block order


def _corrupt(rnd, trace):
    """A copy of the trace with one to three defects in its class choices."""
    trace = BuildTrace.from_text(trace.to_text())
    for _ in range(rnd.randint(1, 3)):
        kind = rnd.choice(["drop", "misplace", "share"])
        shared = [i for i, c in enumerate(trace.classes) if len(c.members) > 1]
        i = rnd.choice(shared if kind == "share" and shared else range(len(trace.classes)))
        c = trace.classes[i]
        if kind == "drop" and c.subtree:  # a dropped subtree vertex, the image included
            j = rnd.randrange(len(c.subtree))
            c = dataclasses.replace(c, subtree=c.subtree[:j] + c.subtree[j + 1 :])
        elif kind == "misplace" and c.boundary:  # a boundary vertex moved or replaced
            bd = list(c.boundary)
            u = bd.pop(rnd.randrange(len(bd)))
            bd.insert(rnd.randrange(len(bd) + 1), rnd.choice([u, u[:-1], u + (0,)]))
            c = dataclasses.replace(c, boundary=tuple(bd))
        elif kind == "share" and len(c.members) > 1:  # an image shared across two members
            block = list(c.assignment)
            k = len(block) // len(c.members)
            a, b = rnd.sample(range(len(c.members)), 2)
            src = block[a * k + rnd.randrange(k)]
            dst = block[b * k + rnd.randrange(k)]
            c = dataclasses.replace(c, assignment={**c.assignment, dst: c.assignment[src]})
        trace.classes[i] = c
    return trace


@NET
@given(builds(degrees=(3, 4, 5), min_levels=1), st.randoms(use_true_random=False))
def test_corrupted_traces_fail_as_the_reference_does(build, rnd):
    shape, step, levels, policy = build
    _, trace = tq.build_mixed(shape, step, levels, policy)
    replay = MixedPolicy.explicit(_corrupt(rnd, trace))
    got = _outcome(lambda: tq.build_mixed(shape, step, levels, replay))
    want = _outcome(lambda: reference_build(shape, step, levels, replay))
    assert got == want


def test_check_assignment_names_the_first_shared_image_in_block_order():
    # both images are shared across the two members; the first one in block
    # order is 0.1, while the first repeat found in block order is 0.0
    members = ((0, 0), (0, 1))
    block = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1))
    cls = LevelClass((0,), members, block)
    bd = [(0, 0), (0, 1)]
    assignment = dict(zip(block, [(0, 1), (0, 0), (0, 0), (0, 1)]))
    message = "^children of different class members share the image 0.1$"
    with pytest.raises(PolicyError, match=message):
        tq.check_assignment(cls, assignment, bd)
    with pytest.raises(PolicyError, match=message):
        reference_check_assignment(cls, assignment, bd, 1)


def test_replay_names_the_class_of_a_broken_subtree():
    shape = TreeShape(3)
    _, trace = tq.build_mixed(shape, 2, 2, MixedPolicy.deepest_feasible())
    no_parent = "recorded subtree is disconnected: 0.0 is missing its parent"
    for subtree, message in (
        ((ROOT,) + trace.classes[0].subtree[2:], no_parent),  # (0,) dropped
        ((), "recorded subtree is empty"),
    ):
        broken = BuildTrace.from_text(trace.to_text())
        broken.classes[0] = dataclasses.replace(broken.classes[0], subtree=subtree)
        with pytest.raises(PolicyError, match=f"^{message}$") as err:
            tq.build_mixed(shape, 2, 2, MixedPolicy.explicit(broken))
        assert (err.value.level, err.value.image) == (0, ROOT)


def test_trace_reader_refuses_a_doubled_root_dot():
    # '..0' is the root's text '.' joined to '.0'; parse_address refuses it,
    # and so does the trace reader, which reads addresses below an image
    # relative to the image instead of through the ball's text index
    _, trace = tq.build_mixed(TreeShape(3), 2, 1, MixedPolicy.deepest_feasible())
    text = trace.to_text().replace("subtree=.|0|", "subtree=.|..0|", 1)
    assert "|..0|" in text
    with pytest.raises(tq.MapFormatError, match="bad address '..0': label '' is not a number"):
        BuildTrace.from_text(text)


def _grown(grow, *args):
    try:
        return grow(*args).vertices
    except tq.DepthLimitError as e:
        return str(e)


def test_growth_meets_the_depth_cap_as_the_reference_does():
    # a long leftmost chain is cut at the cap instead of being grown whole
    for D in (7, 12):
        with pytest.raises(tq.DepthLimitError, match=f"^children of {'0.' * 63}0 would"):
            tq.build_mixed(TreeShape(3), D, 1, MixedPolicy.deepest_feasible())
    shape = TreeShape(3)
    outcomes = set()
    for depth, target in ((58, 9), (60, 12), (63, 5), (64, 2)):
        v = (0,) * depth
        for policy in [MixedPolicy.minimal(), *map(MixedPolicy.random, range(8))]:
            got = _grown(grow_subtree, v, target, policy, shape)
            assert got == _grown(reference_grow_subtree, v, target, policy, shape)
            outcomes.add(isinstance(got, str))
    assert outcomes == {True, False}
