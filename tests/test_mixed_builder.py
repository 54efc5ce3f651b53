import dataclasses
import itertools

import pytest

import treeqi as tq
from reference import (
    FiniteSubtree,
    boundary,
    d_children,
    grow_subtree,
    reference_verify_mixed_structure,
)
from treeqi import ROOT, BuildTrace, LevelClass, MixedPolicy, TreeShape
from treeqi.errors import PolicyError

D3 = TreeShape(3)


def enumerate_subtrees(local_root, max_size, shape):
    """Every connected subtree hanging at local_root, up to max_size, by
    ordered extension of the boundary (each subtree produced exactly once)."""
    results = []

    def extend(members, frontier):
        results.append(frozenset(members))
        if len(members) == max_size:
            return
        for idx, w in enumerate(frontier):
            new_frontier = frontier[idx + 1 :] + shape.children(w)
            extend(members | {w}, new_frontier)

    extend(frozenset([local_root]), shape.children(local_root))
    return results


def test_feasible_sizes_examples():
    assert tq.feasible_boundary_sizes(1, 2, False, D3) == [2]
    assert tq.feasible_boundary_sizes(3, 6, False, D3) == [3, 4, 5, 6]
    assert tq.feasible_boundary_sizes(1, 3, True, D3) == [3]
    assert tq.feasible_boundary_sizes(4, 4, False, TreeShape(4)) == []
    with pytest.raises(ValueError):
        tq.feasible_boundary_sizes(0, 3, False, D3)
    with pytest.raises(ValueError):
        tq.feasible_boundary_sizes(4, 3, False, D3)


def test_feasible_sizes_against_enumeration():
    # brute force: boundary sizes of every subtree of size <= 5 at a
    # non-root vertex of the degree-3 tree, intersected with [3, 6]
    sizes = set()
    for members in enumerate_subtrees((0,), 5, D3):
        b = len(boundary(FiniteSubtree(members), D3))
        if 3 <= b <= 6:
            sizes.add(b)
    assert sorted(sizes) == tq.feasible_boundary_sizes(3, 6, False, D3)


@pytest.mark.parametrize("degree,step", list(itertools.product([3, 4, 5], [1, 2, 3])))
def test_feasible_sizes_reachable_instances(degree, step):
    shape = TreeShape(degree)
    K = degree**step
    for class_size in range(1, K + 1):
        block = class_size * (degree - 1) ** step
        assert tq.feasible_boundary_sizes(class_size, block, False, shape)
    root_block = degree * (degree - 1) ** (step - 1)
    assert tq.feasible_boundary_sizes(1, root_block, True, shape)


def test_grow_subtree_minimal():
    s = grow_subtree((0,), 2, MixedPolicy.minimal(), D3)
    assert s.vertices == ((0,),)
    s = grow_subtree((0,), 4, MixedPolicy.minimal(), D3)
    assert s.vertices == ((0,), (0, 0), (0, 0, 0))  # leftmost branch
    assert len(boundary(s, D3)) == 4


def test_grow_subtree_random():
    s = grow_subtree((0,), 5, MixedPolicy.random(7), D3)
    assert len(s) == 4
    assert len(boundary(s, D3)) == 5
    again = grow_subtree((0,), 5, MixedPolicy.random(7), D3)
    assert s == again


def test_grow_subtree_deepest():
    s = grow_subtree((0,), 5, MixedPolicy.deepest_feasible(), D3)
    assert max(len(v) for v in s) == len(s)  # a chain
    assert len(boundary(s, D3)) == 5


def test_grow_subtree_infeasible():
    with pytest.raises(PolicyError):
        grow_subtree((0,), 1, MixedPolicy.minimal(), D3)
    with pytest.raises(PolicyError):
        grow_subtree(ROOT, 4, MixedPolicy.minimal(), TreeShape(5))  # base 5, step 3


def test_assign_images_bijection_case():
    cls = LevelClass((0,), ((0,),), tuple(d_children((0,), 1, D3)))
    bd = [(0, 0), (0, 1)]
    assignment = tq.assign_images(cls, bd, MixedPolicy.minimal())
    assert assignment == {(0, 0): (0, 0), (0, 1): (0, 1)}  # lexicographic pairing


def test_assign_images_surplus_case():
    # two members with two D-children each onto three boundary vertices:
    # one member's children share, the other's are injective
    members = ((0, 0), (0, 1))
    block = tuple(d_children((0, 0), 1, D3) + d_children((0, 1), 1, D3))
    cls = LevelClass((0,), members, block)
    bd = [(0, 0, 0), (0, 0, 1), (0, 1, 0)]
    assignment = tq.assign_images(cls, bd, MixedPolicy.minimal())
    assert assignment == {
        (0, 0, 0): (0, 0, 0),
        (0, 0, 1): (0, 1, 0),
        (0, 1, 0): (0, 0, 1),
        (0, 1, 1): (0, 0, 1),
    }
    # enumerate every valid assignment and confirm policy outputs are among them
    valid = []
    for combo in itertools.product(bd, repeat=4):
        table = dict(zip(block, combo))
        if set(table.values()) != set(bd):
            continue
        shared_ok = True
        for a in bd:
            parents = {b[:-1] for b in block if table[b] == a}
            if len(parents) > 1:
                shared_ok = False
        if shared_ok:
            valid.append(table)
    assert assignment in valid
    for seed in range(10):
        rand_assignment = tq.assign_images(cls, bd, MixedPolicy.random(seed))
        assert rand_assignment in valid


def test_assignment_condition_probe():
    members = ((0, 0), (0, 1))
    block = tuple(d_children((0, 0), 1, D3) + d_children((0, 1), 1, D3))
    cls = LevelClass((0,), members, block)
    bd = [(0, 0, 0), (0, 0, 1), (0, 1, 0)]
    crossed = {
        (0, 0, 0): (0, 0, 0),
        (0, 0, 1): (0, 1, 0),
        (0, 1, 0): (0, 0, 1),
        (0, 1, 1): (0, 0, 0),  # shares an image across different members
    }
    with pytest.raises(PolicyError):
        tq.check_assignment(cls, crossed, bd)
    not_onto = {b: bd[0] for b in block}
    with pytest.raises(PolicyError):
        tq.check_assignment(cls, not_onto, bd)


def test_build_mixed_level_zero():
    m, trace = tq.build_mixed(D3, 2, 0, MixedPolicy.minimal())
    assert m.table == {ROOT: ROOT}
    assert trace.classes == []


def test_build_mixed_step_one_minimal_is_identity():
    m, _ = tq.build_mixed(D3, 1, 3, MixedPolicy.minimal())
    assert m == tq.identity_map(D3, 3)


def test_build_mixed_random_passes_structure():
    m, _ = tq.build_mixed(D3, 2, 3, MixedPolicy.random(42))
    assert m.domain_radius == 6
    report = tq.verify_mixed_structure(m, 2)
    assert report.passed
    assert tq.is_order_preserving(m)[0]


def test_build_mixed_deterministic_and_replayable():
    m1, t1 = tq.build_mixed(D3, 2, 3, MixedPolicy.random(7))
    m2, t2 = tq.build_mixed(D3, 2, 3, MixedPolicy.random(7))
    assert m1 == m2
    assert t1.to_text() == t2.to_text()
    replayed, _ = tq.build_mixed(D3, 2, 3, MixedPolicy.explicit(t1))
    assert replayed == m1
    parsed = BuildTrace.from_text(t1.to_text())
    assert parsed.to_text() == t1.to_text()
    replayed2, _ = tq.build_mixed(D3, 2, 3, MixedPolicy.explicit(parsed))
    assert replayed2 == m1


def test_explicit_policy_failures():
    _, trace = tq.build_mixed(D3, 2, 2, MixedPolicy.random(1))
    with pytest.raises(PolicyError):
        tq.build_mixed(D3, 2, 3, MixedPolicy.explicit(trace))  # header mismatch
    broken = BuildTrace.from_text(trace.to_text())
    broken.classes.pop()
    with pytest.raises(PolicyError) as err:
        tq.build_mixed(D3, 2, 2, MixedPolicy.explicit(broken))
    assert err.value.level is not None and err.value.image is not None


def test_explicit_policy_rejects_unused_trace_lines():
    _, trace = tq.build_mixed(D3, 2, 2, MixedPolicy.minimal())
    head, *lines = trace.to_text().splitlines()
    # a duplicated class line would silently win over the first one
    duplicated = BuildTrace.from_text("\n".join([head, *lines, lines[1]]) + "\n")
    message = f"^1 of {len(lines) + 1} trace class lines match no class$"
    with pytest.raises(PolicyError, match=message):
        tq.build_mixed(D3, 2, 2, MixedPolicy.explicit(duplicated))
    # no level-1 class has the root as its image
    extra = BuildTrace.from_text(trace.to_text())
    extra.classes.append(dataclasses.replace(extra.classes[0], level=1))
    with pytest.raises(PolicyError, match=message):
        tq.build_mixed(D3, 2, 2, MixedPolicy.explicit(extra))


def test_explicit_policy_rejects_other_members():
    _, trace = tq.build_mixed(D3, 2, 2, MixedPolicy.minimal())
    head, first, *rest = trace.to_text().splitlines()
    other = first.replace(" members=. ", " members=2.1.1 ", 1)
    assert other != first
    replay = BuildTrace.from_text("\n".join([head, other, *rest]) + "\n")
    with pytest.raises(PolicyError, match="^trace lists other class members$") as err:
        tq.build_mixed(D3, 2, 2, MixedPolicy.explicit(replay))
    assert (err.value.level, err.value.image) == (0, ROOT)


def test_explicit_policy_rejects_corrupted_assignment():
    _, trace = tq.build_mixed(D3, 2, 2, MixedPolicy.random(6))
    corrupted = BuildTrace.from_text(trace.to_text())
    # route one block vertex to a boundary vertex owned by another member
    target = next(c for c in corrupted.classes if len(c.members) > 1)
    blocks_by_member = {}
    for b in target.assignment:
        blocks_by_member.setdefault(b[: len(b) - 2], []).append(b)
    m1, m2 = sorted(blocks_by_member)[:2]
    b1 = blocks_by_member[m1][0]
    b2 = blocks_by_member[m2][0]
    target.assignment[b1] = target.assignment[b2]
    with pytest.raises(PolicyError):
        tq.build_mixed(D3, 2, 2, MixedPolicy.explicit(corrupted))


def test_structure_identity_step_one():
    report = tq.verify_mixed_structure(tq.identity_map(D3, 4), 1)
    assert report.passed
    assert max(report.multiplicity_by_level.values()) == 1
    assert (report.image_step_min, report.image_step_max) == (1, 1)


def test_structure_rejects_bad_radius():
    with pytest.raises(ValueError):
        tq.verify_mixed_structure(tq.identity_map(D3, 5), 2)


def test_structure_detects_mutation():
    m, _ = tq.build_mixed(D3, 2, 3, MixedPolicy.random(3))
    verts = [v for v in m.domain if len(v) == 4]
    # swap the images of two depth-4 vertices from different classes
    a = verts[0]
    b = next(v for v in verts if m.table[v] != m.table[a])
    mutated = dict(m.table)
    mutated[a], mutated[b] = mutated[b], mutated[a]
    report = tq.verify_mixed_structure(tq.FiniteTreeMap(D3, 6, mutated), 2)
    assert not report.passed
    kinds = {w.kind for w in report.witnesses}
    assert kinds & {"class-subtree", "image-step", "shared-image-parent", "image-ancestry"}


def test_failing_structure_check_names_vertices_from_label_rows():
    """The witnesses that name vertices read them from label rows, in the
    reference's words, so a failing check builds no text of every vertex
    (49,150 strings at radius 14) to name at most MAX_WITNESSES."""
    m = tq.random_map(D3, 4, 3)
    tq.layout._ball.cache_clear()  # a ball that no earlier test has filled
    report = tq.verify_mixed_structure(m, 2)
    kinds = {w.kind for w in report.witnesses}
    assert {"shared-image-parent", "image-step", "intermediate-fill"} <= kinds
    assert report.to_lines() == reference_verify_mixed_structure(m, 2).to_lines()
    assert "texts" not in vars(tq.layout._ball(3, 4))


def test_structure_reports_multiplicity():
    # every depth-2 vertex maps to the root: 6 same-image vertices, bound 3**1
    m = tq.constant_map(D3, 2)
    report = tq.verify_mixed_structure(m, 1)
    assert report.multiplicity_by_level == {0: 1, 1: 3, 2: 6}
    assert report.multiplicity_bound == 3
    witness = next(w for w in report.witnesses if w.kind == "multiplicity")
    assert (witness.level, witness.detail) == (2, "6 same-image vertices exceed 3")
    reference = reference_verify_mixed_structure(m, 1)
    assert report.to_lines() == reference.to_lines()
    assert report.to_json_dict() == reference.to_json_dict()


def test_structure_per_level_bounds_small():
    for seed in range(5):
        m, _ = tq.build_mixed(D3, 2, 3, MixedPolicy.random(seed))
        report = tq.verify_mixed_structure(m, 2)
        assert report.passed
        assert max(report.multiplicity_by_level.values()) <= 9
        assert 1 <= report.image_step_min and report.image_step_max <= 81
        meas = tq.measure_qi(m, max_lca_depth=2)
        assert meas.best_single_C <= 162
        assert tq.coarse_surjectivity_radius(m, 4) <= 81


def test_deepest_policy_builds_valid_maps():
    m, _ = tq.build_mixed(D3, 2, 2, MixedPolicy.deepest_feasible())
    assert tq.verify_mixed_structure(m, 2).passed


@pytest.mark.parametrize("degree", [4, 5])
def test_build_mixed_other_degrees(degree):
    shape = TreeShape(degree)
    m, _ = tq.build_mixed(shape, 2, 2, MixedPolicy.random(degree))
    report = tq.verify_mixed_structure(m, 2)
    assert report.passed
    assert max(report.multiplicity_by_level.values()) <= degree**2
    assert report.image_step_max <= degree**4
    assert tq.is_order_preserving(m)[0]


def test_class_rng_split_is_stable():
    # per-class streams must not depend on sibling classes: rebuilding with
    # the same seed after more levels reuses the same early choices
    m2, t2 = tq.build_mixed(D3, 2, 2, MixedPolicy.random(11))
    m3, t3 = tq.build_mixed(D3, 2, 3, MixedPolicy.random(11))
    prefix = {v: m3.table[v] for v in m2.domain}
    assert prefix == m2.table
