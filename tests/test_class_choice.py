"""Equivalence net for the per-class choices of the mixed construction.

The references below are the tuple versions that the relative class code
replaced: subtree growth over `TreeShape.children` with a sorted pool, the
boundary as a second pass over the finished subtree, the assignment that
scans the whole block once per member, the check that slices every block
vertex, and the replay check through `FiniteSubtree`.  A bounded property
runs the builder and the references along the same class walk and compares
every class choice; corrupted traces must fail with the reference's exact
`PolicyError`.
"""

import bisect
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeqi as tq
from test_properties import builds
from treeqi import ROOT, BuildTrace, ClassTrace, FiniteSubtree, LevelClass, MixedPolicy, TreeShape
from treeqi.errors import PolicyError
from treeqi.mixed_builder import _build_levels, _CountingRandom, class_rng
from treeqi.qi_map import _ball
from treeqi.tree_core import format_address

NET = settings(max_examples=60, deadline=None)


def _reference_boundary(subtree, shape):
    out = []
    for s in subtree:
        for c in shape.children(s):
            if c not in subtree:
                out.append(c)
    out.sort()
    return out


def _reference_grow_subtree(v, target_boundary, policy, shape, rng=None):
    d = shape.degree
    base = d if v == ROOT else d - 1
    if target_boundary < base or (target_boundary - base) % (d - 2):
        raise PolicyError(
            f"boundary size {target_boundary} is infeasible at {format_address(v)}", image=v
        )
    if policy.variant == "random" and rng is None:
        rng = _CountingRandom(policy.seed)
    steps = (target_boundary - base) // (d - 2)
    members = {v}
    if policy.variant == "random":
        pool = shape.children(v)
        for _ in range(steps):
            idx = rng.randrange(len(pool))
            w = pool[idx]
            pool[idx] = pool[-1]
            pool.pop()
            members.add(w)
            pool.extend(shape.children(w))
    else:
        pool = sorted(shape.children(v))
        for _ in range(steps):
            if policy.variant == "minimal":
                w = pool.pop(0)
            else:
                w = max(pool, key=lambda u: (len(u), [-a for a in u]))
                pool.remove(w)
            members.add(w)
            for c in shape.children(w):
                bisect.insort(pool, c)
    return FiniteSubtree(members)


def _choice(rng, seq):
    """The former `_CountingRandom.choice`: one counted draw."""
    return seq[rng.randrange(len(seq))]


def _reference_check_assignment(cls, assignment, boundary_vertices, step):
    bd = set(boundary_vertices)
    if set(assignment) != set(cls.block):
        raise PolicyError("assignment is not total on the class block", image=cls.image)
    if set(assignment.values()) != bd:
        raise PolicyError("assignment image differs from the subtree boundary", image=cls.image)
    sources = {}
    for b in cls.block:
        sources.setdefault(assignment[b], []).append(b)
    for a, srcs in sources.items():
        if len({b[: len(b) - step] for b in srcs}) > 1:
            raise PolicyError(
                f"children of different class members share the image {format_address(a)}",
                image=cls.image,
            )


def _reference_assign_images(cls, boundary_vertices, step, policy, rng=None):
    if policy.variant == "random" and rng is None:
        rng = _CountingRandom(policy.seed)
    bd = sorted(boundary_vertices)
    groups = [[b for b in cls.block if b[: len(b) - step] == x] for x in cls.members]
    if not (len(groups) <= len(bd) <= len(cls.block)):
        raise PolicyError(
            f"boundary size {len(bd)} outside [{len(groups)}, {len(cls.block)}]", image=cls.image
        )
    deal = list(bd)
    if policy.variant == "random":
        rng.shuffle(deal)
    assignment = {}
    owned = [[] for _ in groups]
    next_slot = [0] * len(groups)
    for gi, group in enumerate(groups):
        assignment[group[0]] = deal[gi]
        owned[gi].append(deal[gi])
        next_slot[gi] = 1
    for a in deal[len(groups) :]:
        open_groups = [gi for gi in range(len(groups)) if next_slot[gi] < len(groups[gi])]
        gi = _choice(rng, open_groups) if policy.variant == "random" else open_groups[0]
        assignment[groups[gi][next_slot[gi]]] = a
        owned[gi].append(a)
        next_slot[gi] += 1
    for gi, group in enumerate(groups):
        for b in group[next_slot[gi] :]:
            random = policy.variant == "random"
            assignment[b] = _choice(rng, owned[gi]) if random else min(owned[gi])
    _reference_check_assignment(cls, assignment, bd, step)
    return assignment


def _reference_replayed_subtree(i, cls, entry, shape):
    """The replay check through FiniteSubtree, whose ValueError now surfaces
    as a PolicyError naming the class."""
    try:
        subtree = FiniteSubtree(entry.subtree)
    except ValueError as e:
        message = str(e).replace("a finite subtree must be nonempty", "recorded subtree is empty")
        message = message.replace("disconnected subtree:", "recorded subtree is disconnected:")
        raise PolicyError(message, level=i, image=cls.image) from None
    if subtree.local_root != cls.image:
        raise PolicyError("recorded subtree hangs elsewhere", level=i, image=cls.image)
    bd = _reference_boundary(subtree, shape)
    if tuple(bd) != tuple(entry.boundary):
        raise PolicyError("recorded boundary is wrong", level=i, image=cls.image)
    return subtree, bd


def _reference_choose(shape, step, policy):
    recorded = policy.replay.by_class() if policy.variant == "explicit" else None

    def choose(i, cls, block, fill):
        rng = class_rng(policy, i, cls.image)
        if policy.variant == "explicit":
            entry = recorded.get((i, cls.image))
            if entry is None:
                raise PolicyError("trace has no entry for this class", level=i, image=cls.image)
            subtree, bd = _reference_replayed_subtree(i, cls, entry, shape)
            _reference_check_assignment(cls, entry.assignment, bd, step)
            assignment, draws = entry.assignment, entry.rng_draws
        else:
            feas = tq.feasible_boundary_sizes(
                len(cls.members), len(cls.block), cls.image == ROOT, shape
            )
            if policy.variant == "minimal":
                target = feas[0]
            elif policy.variant == "deepest":
                target = feas[-1]
            else:
                target = feas[rng.randrange(len(feas))]
            subtree = _reference_grow_subtree(cls.image, target, policy, shape, rng)
            bd = _reference_boundary(subtree, shape)
            assignment = _reference_assign_images(cls, bd, step, policy, rng)
            draws = rng.calls if rng else 0
        return ClassTrace(
            i, cls.image, cls.members, subtree.vertices, tuple(bd),
            {b: assignment[b] for b in cls.block}, draws,
        )

    return choose


def _reference_build(shape, step, levels, policy):
    trace = BuildTrace(shape.degree, step, levels, policy.describe())
    choose = _reference_choose(shape, step, policy)
    m = _build_levels(_ball(shape.degree, step * levels), trace, choose)
    return m, trace


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
    ref_m, ref_trace = _reference_build(shape, step, levels, policy)
    assert m == ref_m
    assert [_fields(c) for c in trace.classes] == [_fields(c) for c in ref_trace.classes]
    for c in trace.classes:  # the public helpers run the same code
        cls = LevelClass(c.image, c.members, tuple(c.assignment))
        if policy.variant != "random":
            grown = tq.grow_subtree(c.image, len(c.boundary), policy, shape)
            assert grown.vertices == c.subtree
            assert tq.assign_images(cls, c.boundary, step, policy) == c.assignment
        for seed in range(2):
            random = MixedPolicy.random(seed)
            rng, ref_rng = _CountingRandom(seed), _CountingRandom(seed)
            grown = tq.grow_subtree(c.image, len(c.boundary), random, shape, rng)
            ref = _reference_grow_subtree(c.image, len(c.boundary), random, shape, ref_rng)
            assert (grown, rng.calls) == (ref, ref_rng.calls)
            bd = _reference_boundary(ref, shape)
            got = tq.assign_images(cls, bd, step, random, rng)
            want = _reference_assign_images(cls, bd, step, random, ref_rng)
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
    want = _outcome(lambda: _reference_build(shape, step, levels, replay))
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
        tq.check_assignment(cls, assignment, bd, 1)
    with pytest.raises(PolicyError, match=message):
        _reference_check_assignment(cls, assignment, bd, 1)


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
            got = _grown(tq.grow_subtree, v, target, policy, shape)
            assert got == _grown(_reference_grow_subtree, v, target, policy, shape)
            outcomes.add(isinstance(got, str))
    assert outcomes == {True, False}
