"""Equivalence net for the mixed construction's class walk on ball positions.

The references below are the tuple versions the position walk replaced:
the class walk over `tree_core._frontiers` with its sorted levels, and the
structural verifier that read `m.table` vertex by vertex.  A bounded
property runs both on built mixed maps with random image swaps and one
deepened image; a structural test keeps the tuple walk from coming back.
"""

import ast
from itertools import groupby
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import treeqi as tq
from test_properties import builds
from treeqi import ROOT, FiniteTreeMap, LevelClass, mixed_builder, transforms
from treeqi.mixed_builder import (
    MixedStructureReport,
    StructureWitness,
    _level_classes,
    recover_class_subtree,
)
from treeqi.qi_map import _ball
from treeqi.tree_core import _frontiers, distance, format_address

NET = settings(max_examples=60, deadline=None)


def _reference_level_classes(shape, step, levels, image):
    """The tuple walk: yields (i, LevelClass, fill) per class."""
    current = [ROOT]
    for i in range(levels):
        groups = {}
        for x in current:
            groups.setdefault(image(x), []).append(x)
        next_level = []
        for image_v, members in sorted(groups.items(), key=lambda kv: kv[1][0]):
            walks = [_frontiers(x, step, shape) for x in members]
            block = tuple(b for walk in walks for b in walk[-1])
            fill = [w for walk in walks for frontier in walk[:-1] for w in frontier]
            yield i, LevelClass(image_v, tuple(members), block), fill
            next_level.extend(block)
        current = sorted(next_level)


def _reference_verify_mixed_structure(m, step, max_witnesses=100):
    """The structural verifier on `m.table` and the tuple walk."""
    radius = m.domain_radius
    if step < 1 or radius % step:
        raise ValueError("domain radius must be a positive multiple of the step depth")
    levels = radius // step
    d = m.shape.degree
    K = d**step
    K2 = K * K
    t = m.table
    witnesses = []
    witness_total = 0

    def add(kind, level, detail):
        nonlocal witness_total
        witness_total += 1
        if len(witnesses) < max_witnesses:
            witnesses.append(StructureWitness(kind, level, detail))

    if t[ROOT] != ROOT:
        add("root-anchor", 0, f"root maps to {format_address(t[ROOT])}")

    multiplicity = {0: 1}
    step_min = step_max = None
    walk = _reference_level_classes(m.shape, step, levels, t.__getitem__)
    for j, entries in groupby(walk, key=lambda e: e[0]):
        i, lv = j + 1, (j + 1) * step
        entries = [(cls, fill) for _, cls, fill in entries]
        depth = sorted(b for cls, _ in entries for b in cls.block)
        classes = {}
        for v in depth:
            classes.setdefault(t[v], []).append(v)
        multiplicity[i] = max(len(g) for g in classes.values())
        if multiplicity[i] > K:
            add("multiplicity", i, f"{multiplicity[i]} same-image vertices exceed {K}")
        for image, grp in sorted(classes.items()):
            parents = {v[: lv - step] for v in grp}
            if len(parents) > 1:
                two = sorted(parents)[:2]
                add(
                    "shared-image-parent",
                    i,
                    f"image {format_address(image)} shared across"
                    f" {format_address(two[0])} and {format_address(two[1])}",
                )
        images = sorted(classes)
        for a, b in zip(images, images[1:]):
            if b[: len(a)] == a:
                add("image-ancestry", i, f"{format_address(a)} is an ancestor of {format_address(b)}")
        for v in depth:
            dist_step = distance(t[v], t[v[: lv - step]])
            step_min = dist_step if step_min is None else min(step_min, dist_step)
            step_max = dist_step if step_max is None else max(step_max, dist_step)
            if not 1 <= dist_step <= K2:
                add(
                    "image-step",
                    i,
                    f"{format_address(v)} moved its image {dist_step}, outside [1, {K2}]",
                )
        for cls, _ in sorted(entries, key=lambda e: e[0].image):
            _, reason = recover_class_subtree(cls.image, {t[b] for b in cls.block}, m.shape)
            if reason is not None:
                add("class-subtree", j, reason)
        stray = [w for cls, fill in entries for w in fill if t[w] != cls.image]
        for w in sorted(stray, key=lambda w: (len(w), w)):
            add("intermediate-fill", i, f"{format_address(w)} does not collapse onto its class image")

    return MixedStructureReport(
        degree=d,
        step=step,
        radius=radius,
        levels=levels,
        passed=witness_total == 0,
        witnesses=witnesses,
        witness_total=witness_total,
        multiplicity_by_level=multiplicity,
        multiplicity_bound=K,
        image_step_min=step_min,
        image_step_max=step_max,
        image_step_bound=K2,
    )


@NET
@given(builds(), st.randoms(use_true_random=False))
def test_position_walk_matches_the_tuple_walk(build, rnd):
    shape, step, levels, policy = build
    m, _ = tq.build_mixed(shape, step, levels, policy)
    table = dict(m.table)
    verts = list(m.domain)
    for _ in range(rnd.randrange(4)):  # image swaps, the root's included
        a, b = rnd.choice(verts), rnd.choice(verts)
        table[a], table[b] = table[b], table[a]
    v = rnd.choice(verts)  # one image one label deeper
    table[v] += (rnd.randrange(shape.child_label_count(table[v])),)
    m = FiniteTreeMap(shape, m.domain_radius, table)

    ball = _ball(shape.degree, m.domain_radius)
    walk = _level_classes(ball, step, levels, m._images)
    got = [
        (i, cls, tuple(ball.verts[p] for p in block), tuple(ball.verts[p] for p in fill))
        for i, cls, block, fill in walk
    ]
    reference = _reference_level_classes(shape, step, levels, m.table.__getitem__)
    assert got == [(i, cls, cls.block, tuple(fill)) for i, cls, fill in reference]

    rep = tq.verify_mixed_structure(m, step)
    ref = _reference_verify_mixed_structure(m, step)
    assert rep.to_lines() == ref.to_lines()
    assert rep.to_json_dict() == ref.to_json_dict()


def test_class_walk_reads_no_tuple_table():
    """The builder, the approximation and the structural verifier walk ball
    positions: neither module reads a `.table` attribute or imports the
    tuple walk `_frontiers`.  The class choices run relative to the class
    image: no function of the builder but the public `grow_subtree` wrapper
    names `FiniteSubtree` or the second boundary pass `tree_core.boundary`."""
    for module in (mixed_builder, transforms):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr != "table", (module.__name__, node.lineno)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name.split(".")[-1] for a in node.names]
                assert "_frontiers" not in names, (module.__name__, node.lineno)
                assert "boundary" not in names, (module.__name__, node.lineno)
    tree = ast.parse(Path(mixed_builder.__file__).read_text(encoding="utf-8"))
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "grow_subtree":
            continue
        for node in ast.walk(fn):
            named = isinstance(node, ast.Name) and node.id in ("FiniteSubtree", "boundary")
            dotted = (
                isinstance(node, ast.Attribute)
                and node.attr in ("FiniteSubtree", "boundary")
                and isinstance(node.value, ast.Name)
                and node.value.id == "tree_core"
            )
            assert not (named or dotted), (fn.name, node.lineno)
