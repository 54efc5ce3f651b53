"""Plain tuple references for the tests.

Two kinds of code live here, and none of it in the package:

* the tuple model of the tree: a vertex is its label tuple, and distances,
  common ancestors, geodesics, descendants, finite subtrees and their
  boundaries are computed tuple by tuple (`grow_subtree` wraps the
  construction's own growth to return a `FiniteSubtree`);
* the `reference_*` implementations that the array and position code of
  the package replaced, kept so that bounded properties can compare the
  two, errors included.
"""

from __future__ import annotations

import bisect
import random
import re
from itertools import groupby
from typing import Iterable, Iterator

from treeqi import (
    ROOT,
    BuildTrace,
    ClassTrace,
    FiniteTreeMap,
    LevelClass,
    MixedStructureReport,
    StructureWitness,
    TreeShape,
    Vertex,
    feasible_boundary_sizes,
    format_address,
    parse_address,
    validate_address,
)
from treeqi.errors import (
    BudgetExceededError,
    MapDomainError,
    MapFormatError,
    PolicyError,
    ShapeMismatchError,
    TreeQIError,
)
from treeqi.errors import PreconditionError, ValidationFailure
from treeqi.mixed_builder import (
    _CountingRandom,
    _shared_images,
    _stream,
    _subtree_at,
    class_rng,
    recover_class_subtree,
)
from treeqi.transforms import _warn_promise, constants, measure_promise
from treeqi.tree_map import is_order_preserving, sup_distance
from treeqi.tree_core import DEFAULT_VERTEX_BUDGET, MAX_DEPTH, ball

# ---------------------------------------------------------------------------
# the tuple model of the tree


def depth(v: Vertex) -> int:
    return len(v)


def parent(v: Vertex) -> Vertex:
    """Drop the last label; the parent of the root is the root itself."""
    return v[:-1]


def is_descendant(u: Vertex, v: Vertex) -> bool:
    """True iff v's address is a prefix of u's; every vertex descends from itself."""
    return u[: len(v)] == v


def common_prefix_len(u: Vertex, v: Vertex) -> int:
    n = 0
    for a, b in zip(u, v):
        if a != b:
            break
        n += 1
    return n


def lca_pair(u: Vertex, v: Vertex) -> Vertex:
    return u[: common_prefix_len(u, v)]


def lca(vertices: Iterable[Vertex]) -> Vertex:
    """Deepest common ancestor of a nonempty set: the longest common prefix."""
    it = iter(vertices)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("lca of an empty set is undefined") from None
    for v in it:
        if not acc:
            break
        acc = lca_pair(acc, v)
    return acc


def distance(u: Vertex, v: Vertex) -> int:
    return len(u) + len(v) - 2 * common_prefix_len(u, v)


def geodesic(u: Vertex, v: Vertex) -> list[Vertex]:
    """The unique non-backtracking vertex path u .. lca .. v."""
    k = common_prefix_len(u, v)
    up = [u[:i] for i in range(len(u), k - 1, -1)]
    down = [v[:i] for i in range(k + 1, len(v) + 1)]
    return up + down


def frontiers(v: Vertex, dist_down: int, shape: TreeShape) -> list[list[Vertex]]:
    """The descendants of v at distance 1, 2, .., dist_down: one list per
    distance, each in address order."""
    out: list[list[Vertex]] = []
    frontier = [v]
    for _ in range(dist_down):
        frontier = [c for u in frontier for c in shape.children(u)]
        out.append(frontier)
    return out


def d_children_count(v: Vertex, dist_down: int, shape: TreeShape) -> int:
    d = shape.degree
    if v == ROOT:
        return d * (d - 1) ** (dist_down - 1)
    return (d - 1) ** dist_down


def d_children(
    v: Vertex, dist_down: int, shape: TreeShape, budget: int = DEFAULT_VERTEX_BUDGET
) -> list[Vertex]:
    """All descendants of v at distance exactly dist_down, in address order."""
    if dist_down < 1:
        raise ValueError(f"distance down must be >= 1, got {dist_down}")
    if d_children_count(v, dist_down, shape) > budget:
        raise BudgetExceededError(
            f"{d_children_count(v, dist_down, shape)} descendants exceed budget {budget}"
        )
    return frontiers(v, dist_down, shape)[-1]


class FiniteSubtree:
    """Finite, connected, parent-closed vertex set.

    The unique shallowest member is the local root; every other member's
    parent belongs to the set, which forces connectivity.  Vertices are kept
    sorted so traversal order is canonical.
    """

    __slots__ = ("_sorted", "_set", "local_root")

    def __init__(self, vertices: Iterable[Vertex]):
        vs = sorted(set(vertices))
        if not vs:
            raise ValueError("a finite subtree must be nonempty")
        local_root = min(vs, key=len)
        present = set(vs)
        for v in vs:
            if v == local_root:
                continue
            if parent(v) not in present:
                raise ValueError(
                    f"disconnected subtree: {format_address(v)} is missing its parent"
                )
        self._sorted = tuple(vs)
        self._set = present
        self.local_root = local_root

    @property
    def vertices(self) -> tuple:
        return self._sorted

    def __len__(self) -> int:
        return len(self._sorted)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._sorted)

    def __contains__(self, v) -> bool:
        return v in self._set

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteSubtree) and self._sorted == other._sorted

    def __hash__(self) -> int:
        return hash(self._sorted)

    def __repr__(self) -> str:
        return f"FiniteSubtree({[format_address(v) for v in self._sorted]})"


def boundary(subtree, shape: TreeShape) -> list[Vertex]:
    """Vertices outside the subtree whose parent is inside, in address order.

    For a subtree of size s this has exactly s*(d-2)+2 members when the global
    root belongs to the subtree and s*(d-2)+1 otherwise.
    """
    out: list[Vertex] = []
    for s in subtree:
        for c in shape.children(s):
            if c not in subtree:
                out.append(c)
    out.sort()
    return out


def grow_subtree(v, target_boundary, policy, shape, rng=None) -> FiniteSubtree:
    """The construction's subtree growth at v for the policy, as a FiniteSubtree."""
    return FiniteSubtree(_subtree_at(v, target_boundary, shape.degree, _stream(policy, rng))[0])


# ---------------------------------------------------------------------------
# the map operations before label arrays


def reference_validate(shape, radius, table):
    """The per-image table check of the dict-backed map."""
    dom = ball(shape, radius)
    if len(table) != len(dom) or any(v not in table for v in dom):
        missing = next((v for v in dom if v not in table), None)
        if missing is not None:
            raise MapDomainError(f"table is missing domain vertex {format_address(missing)}")
        extra = sorted(set(table) - set(dom))[0]
        raise MapDomainError(f"table has entry {format_address(extra)} outside the ball")
    for v in dom:
        validate_address(table[v], shape)


def reference_is_order_preserving(m):
    t = m.table
    for v in sorted(m.domain, key=lambda v: (len(v), v)):
        if not v:
            continue
        fp = t[v[:-1]]
        if t[v][: len(fp)] != fp:
            return False, v
    return True, None


def reference_sup_distance(m1, m2):
    if m1.shape != m2.shape:
        raise ShapeMismatchError(
            f"cannot compare maps of degrees {m1.shape.degree} and {m2.shape.degree}"
        )
    r = min(m1.domain_radius, m2.domain_radius)
    return max(distance(m1.table[v], m2.table[v]) for v in ball(m1.shape, r))


def reference_compose(outer, inner):
    if outer.shape != inner.shape:
        raise ShapeMismatchError("composed maps must share a degree")
    eff = inner.domain_radius
    for v in inner.domain:
        if len(inner.table[v]) > outer.domain_radius:
            eff = min(eff, len(v) - 1)
    if eff < 0:
        raise MapDomainError(
            "empty effective domain: the root's inner image leaves the outer ball"
        )
    table = {v: outer.table[inner.table[v]] for v in ball(inner.shape, eff)}
    return FiniteTreeMap(inner.shape, eff, table)


def reference_normalize_fold(f):
    table = {}
    # address order is preorder, so the reversed order visits children first
    for v in reversed(f.domain):
        acc = f.table[v]
        if len(v) < f.domain_radius:
            for c in f.shape.children(v):
                acc = lca_pair(acc, table[c])
        table[v] = acc
    return FiniteTreeMap(f.shape, f.domain_radius, table)


def reference_perturb_map_in_subtree(m, seed, *, max_step=2):
    """The tuple generator: each image read from the dict view, the moved
    ones extended label by label, the result packed from a new dict."""
    rng = random.Random(seed)
    shape = m.shape
    table = {}
    for v in m.domain:
        fv = m.table[v]
        if v == ROOT:
            table[v] = fv
            continue
        if rng.random() < 0.5:
            table[v] = fv
            continue
        steps = 1 + rng.randrange(max_step)
        w = fv
        for _ in range(steps):
            if len(w) >= MAX_DEPTH:
                break
            w = w + (rng.randrange(shape.child_label_count(w)),)
        table[v] = w
    return FiniteTreeMap(shape, m.domain_radius, table)


def reference_coarse_surjectivity(m, target_radius, budget=DEFAULT_VERTEX_BUDGET):
    """The tuple version: for each target y and each ancestor prefix p of y
    that some image extends, depth(y) + (min image depth below p) - 2*depth(p)."""
    if target_radius < 0:
        raise ValueError("target radius must be >= 0")
    min_depth_below: dict = {}
    for w in m.table.values():
        dw = len(w)
        for k in range(dw + 1):
            p = w[:k]
            cur = min_depth_below.get(p)
            if cur is None or dw < cur:
                min_depth_below[p] = dw
    worst = 0
    for y in ball(m.shape, target_radius, budget):
        dy = len(y)
        best = None
        for k in range(dy + 1):
            md = min_depth_below.get(y[:k])
            if md is not None:
                cand = dy + md - 2 * k
                if best is None or cand < best:
                    best = cand
        worst = max(worst, best)
    return worst


# ---------------------------------------------------------------------------
# the class choices before relative class coordinates


def reference_grow_subtree(v, target_boundary, policy, shape, rng=None):
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


def reference_check_assignment(cls, assignment, boundary_vertices, step):
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


def reference_assign_images(cls, boundary_vertices, step, policy, rng=None):
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
    reference_check_assignment(cls, assignment, bd, step)
    return assignment


def reference_replayed_subtree(i, cls, entry, shape):
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
    bd = boundary(subtree, shape)
    if tuple(bd) != tuple(entry.boundary):
        raise PolicyError("recorded boundary is wrong", level=i, image=cls.image)
    return subtree, bd


def reference_choose(shape, step, policy):
    recorded = policy.replay.by_class() if policy.variant == "explicit" else None

    def choose(i, cls, fill):
        rng = class_rng(policy, i, cls.image)
        if policy.variant == "explicit":
            entry = recorded.get((i, cls.image))
            if entry is None:
                raise PolicyError("trace has no entry for this class", level=i, image=cls.image)
            subtree, bd = reference_replayed_subtree(i, cls, entry, shape)
            reference_check_assignment(cls, entry.assignment, bd, step)
            assignment, draws = entry.assignment, entry.rng_draws
        else:
            feas = feasible_boundary_sizes(
                len(cls.members), len(cls.block), cls.image == ROOT, shape
            )
            if policy.variant == "minimal":
                target = feas[0]
            elif policy.variant == "deepest":
                target = feas[-1]
            else:
                target = feas[rng.randrange(len(feas))]
            subtree = reference_grow_subtree(cls.image, target, policy, shape, rng)
            bd = boundary(subtree, shape)
            assignment = reference_assign_images(cls, bd, step, policy, rng)
            draws = rng.calls if rng else 0
        return ClassTrace(
            i, cls.image, cls.members, subtree.vertices, tuple(bd),
            {b: assignment[b] for b in cls.block}, draws,
        )

    return choose


def reference_build_levels(shape, trace, choose):
    """The construction's driver on tuples: the tuple walk over a
    {vertex: image} dict, where `choose(i, cls, fill)` returns each class's
    ClassTrace, whose assignment the block takes while the fill takes the
    class image.  Appends to trace.classes; the map covers the trace's
    radius."""
    table = {ROOT: ROOT}
    for i, cls, fill in reference_level_classes(shape, trace.step, trace.levels, table.__getitem__):
        entry = choose(i, cls, fill)
        table.update(entry.assignment)
        table.update(dict.fromkeys(fill, cls.image))
        trace.classes.append(entry)
    return FiniteTreeMap(shape, trace.step * trace.levels, table)


def reference_build(shape, step, levels, policy):
    trace = BuildTrace(shape.degree, step, levels, policy.describe())
    m = reference_build_levels(shape, trace, reference_choose(shape, step, policy))
    return m, trace


def reference_approximate_by_mixed(g, C, D_override=None, *, check_promise=True):
    """The approximation as the construction's class walk on tuples: each
    class checked with `recover_class_subtree`, `_shared_images` and the
    depth of each fill vertex's g-image, in that order, and its trace built
    as it goes."""
    bundle = constants(C, D_override)
    Cf = bundle.C
    ok, wit = is_order_preserving(g)
    if not ok:
        raise PreconditionError(
            f"approximation requires an order-preserving map (witness {format_address(wit)})"
        )
    if g.depths[0]:
        raise PreconditionError("approximation requires a root-fixing map")
    step = bundle.D_used
    levels = g.domain_radius // step
    if levels < 1:
        raise PreconditionError(
            f"domain radius {g.domain_radius} holds no full level of depth {step}"
        )
    if check_promise:
        measured, honest, mode = measure_promise(g, Cf)
        if not honest:
            _warn_promise("approximate_by_mixed", measured, Cf, mode)
    fill_bound = bundle.final_bound
    table = g.table

    def choose(i, cls, fill):
        def failure(kind, message, value=None):
            bound = None if value is None else fill_bound
            return ValidationFailure(
                kind, message, level=i, image=cls.image, value=value, bound=bound
            )

        images = [table[b] for b in cls.block]
        subtree, reason = recover_class_subtree(cls.image, images, g.shape)
        if reason is not None:
            raise failure("subtree-boundary", reason)
        if shared := _shared_images(images, len(cls.block) // len(cls.members)):
            raise failure(
                "shared-parent",
                f"image {format_address(min(shared))} drawn from children of two class members",
            )
        for w in fill:
            dist = len(table[w]) - len(cls.image)
            if dist > fill_bound:
                raise failure(
                    "fill-distance",
                    f"{format_address(w)} collapsed {dist} > {fill_bound} from its g-image",
                    value=dist,
                )
        return ClassTrace(
            level=i,
            image=cls.image,
            members=cls.members,
            subtree=tuple(sorted(subtree)),
            boundary=tuple(sorted(set(images))),
            assignment=dict(zip(cls.block, images)),
        )

    trace = BuildTrace(g.shape.degree, step, levels, f"approximate:C={Cf}")
    approx = reference_build_levels(g.shape, trace, choose)
    sup = sup_distance(approx, g)
    if sup > fill_bound:
        raise ValidationFailure(
            "final-bound",
            f"approximation sits {sup} > bound {fill_bound} from the input",
            value=sup,
            bound=fill_bound,
        )
    return approx, bundle, trace


# ---------------------------------------------------------------------------
# the class walk and the structural verifier before ball positions


def reference_level_classes(shape, step, levels, image):
    """The tuple walk: yields (i, LevelClass, fill) per class."""
    current = [ROOT]
    for i in range(levels):
        groups = {}
        for x in current:
            groups.setdefault(image(x), []).append(x)
        next_level = []
        for image_v, members in sorted(groups.items(), key=lambda kv: kv[1][0]):
            walks = [frontiers(x, step, shape) for x in members]
            block = tuple(b for walk in walks for b in walk[-1])
            fill = [w for walk in walks for frontier in walk[:-1] for w in frontier]
            yield i, LevelClass(image_v, tuple(members), block), fill
            next_level.extend(block)
        current = sorted(next_level)


def reference_verify_mixed_structure(m, step, max_witnesses=100):
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
    walk = reference_level_classes(m.shape, step, levels, t.__getitem__)
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


# ---------------------------------------------------------------------------
# map and trace text before the ball's text index


def _text_lines(text):
    """The lines of a map or trace text: only CRLF, CR and LF end a line;
    the other line breaks of `str.splitlines` (vertical tab, form feed and
    the separators \\x1c-\\x1e among them) are whitespace, as `str.split`
    reads them inside a line."""
    lines = re.split(r"\r\n|\r|\n", text)
    if lines[-1] == "":
        lines.pop()
    return lines


def reference_parse_map_text(text, budget=DEFAULT_VERTEX_BUDGET):
    """The per-line parser the address index replaced: every address through
    parse_address, the whole ball walked for the first missing vertex."""
    lines = _text_lines(text)
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


def reference_trace_text(trace):
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


def reference_dump_map_text(m):
    """The map writer before the ball's text codec: every image label by label."""
    lines = [f"tree-qi v1 degree={m.shape.degree} radius={m.domain_radius}"]
    lines += [f"{format_address(v)} {format_address(m.table[v])}" for v in m.domain]
    return "\n".join(lines) + "\n"


def reference_parse_trace_text(text):
    """The trace reader with every address through parse_address, field by
    field in the order the reader checks them."""
    lines = _text_lines(text)
    if not lines:
        raise MapFormatError("empty trace", 1)
    head = lines[0].split()
    if len(head) != 6 or head[0] != "tree-qi-trace" or head[1] != "v1":
        raise MapFormatError("bad trace header", 1)
    fields = dict(tok.partition("=")[::2] for tok in head[2:])
    try:
        trace = BuildTrace(
            TreeShape(int(fields["degree"])).degree,
            int(fields["D"]),
            int(fields["levels"]),
            fields["policy"],
        )
        if trace.step < 1:
            raise ValueError("a D= value of 0 is not a step depth")
    except (KeyError, ValueError) as e:
        raise MapFormatError(f"bad trace header: {e}", 1) from None
    shape = TreeShape(trace.degree)

    def addresses(value, sep):
        return tuple(parse_address(t, shape) for t in value.split(sep))

    for no, ln in enumerate(lines[1:], start=2):
        toks = ln.split()
        if not toks or toks[0] != "class":
            raise MapFormatError("expected a class line", no)
        kv = dict(tok.partition("=")[::2] for tok in toks[1:])
        try:
            assignment = {}
            for pair in kv["assign"].split(","):
                b, _, a = pair.partition(":")
                a = parse_address(a, shape)
                assignment[parse_address(b, shape)] = a
            level = int(kv["level"])
            image = parse_address(kv["image"], shape)
            members = addresses(kv["members"], "|")
            subtree = addresses(kv["subtree"], "|")
            boundary = addresses(kv["boundary"], "|")
            rng_draws = int(kv.get("rng_draws", "0"))
        except (KeyError, ValueError, TreeQIError) as e:
            raise MapFormatError(f"bad class line: {e}", no) from None
        trace.classes.append(
            ClassTrace(level, image, members, subtree, boundary, assignment, rng_draws)
        )
    return trace
