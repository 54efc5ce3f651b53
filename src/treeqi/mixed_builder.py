"""Level-by-level construction of deep mixed-subtree self-maps.

The construction fixes a step depth D and proceeds one level of depth D at a
time.  Vertices at depth i*D are grouped into classes by their current image
v; each class picks a finite subtree hanging at v and maps the D-children of
its members onto that subtree's boundary so that only children of the same
class member may share an image; everything strictly between two levels
collapses to the class image.  Policies own the free choices (which boundary
size, how the subtree grows, who absorbs the assignment surplus) and a
replayable trace records every choice made.

The class walk runs on the positions of the cached ball layout
(`layout._ball`): each level is one array of positions in preorder, and the
descendants at depth t of row r of a shallower level are the r-th of the
equal runs of level t.  Blocks, fill, and the member that owns each block
vertex all come from these runs.  The builder drives the walk, reading and
writing images by position.  The structural verifier checks the
construction invariants exhaustively on the stored ball from label rows,
on one level driver (`_levels`) that it shares with the approximation in
`transforms`: the driver sorts each level's image rows once to group them,
and the grouping, carried to the next level, judges the class subtrees of
all its classes at once by counting.

Each class choice costs time linear in the class and works relative to the
class image v: below v, a subtree's shape and boundary depend on v only
through whether v is the root.  Growth runs on addresses relative to v and
stops with its pool of candidates equal to the boundary; the minimal and
the deepest policy grow one leftmost chain, cached per (degree, root or
not, size), and the result is translated to v once.  The block arrives
member by member, so the assignment and its check take each member's
children as one run of the block.  A replayed subtree is checked in one
pass over its vertices.  A trace's text is written from each class's
anchors, its image and its members, with no table of the ball, and read
back, as the map reader's line loop reads, through one address reader
(`layout._Addresses`) that builds no ball.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from typing import Iterable, Iterator

import numpy as np

from . import report
from .errors import MapFormatError, PolicyError, TreeQIError
from .layout import _Addresses, _Ball, _ball, _budgeted_ball, _label_dtype, _lines, _pack
from .prefix import _prefix_len
from .tree_core import (
    DEFAULT_VERTEX_BUDGET,
    MAX_DEPTH,
    ROOT,
    TreeShape,
    Vertex,
    _number,
    format_address,
)
from .tree_map import FiniteTreeMap

# verify_mixed_structure lists at most this many witnesses; it counts them all
MAX_WITNESSES = 100


@dataclass(frozen=True)
class LevelClass:
    """One same-image class: the common image, the same-depth preimages, and
    all D-children of those preimages (the vertices about to be assigned),
    member by member, each member's children in address order."""

    image: Vertex
    members: tuple
    block: tuple


@dataclass
class ClassTrace:
    level: int
    image: Vertex
    members: tuple
    subtree: tuple
    boundary: tuple
    assignment: dict
    rng_draws: int = 0


@dataclass
class BuildTrace:
    """Complete record of the choices of one construction run."""

    degree: int
    step: int
    levels: int
    policy: str
    classes: list[ClassTrace] = field(default_factory=list)

    def lines(self) -> Iterator[str]:
        """The trace's text a line at a time, each with its newline, every
        address in its canonical text: trace files are written from these
        lines without joining them.

        A class line is written from its anchors, with no table of the
        ball.  The image and each member are formatted once.  When the
        subtree and the boundary lie below the image, which their least and
        greatest address decide (the addresses below a vertex are an
        interval of address order), each is the image's text followed by
        the text of the further labels, made once per trace (`_Tails`).
        When each member's run of assignment keys is the same run of
        further labels below it, each key is the member's text followed by
        the text of those labels.  Each value is its boundary vertex's
        text.  Any other address is written whole, as labels below the
        root.
        """
        yield (
            f"tree-qi-trace v1 degree={self.degree} D={self.step}"
            f" levels={self.levels} policy={self.policy}\n"
        )
        tails = _Tails()
        for c in self.classes:
            image, members = format_address(c.image), list(map(format_address, c.members))
            below, s, n = [*c.subtree, *c.boundary], len(c.subtree), len(c.image)
            if n and below and min(below)[:n] == c.image == max(below)[:n]:  # all below the image
                below = [image + tails[v[n:]] for v in below]
            else:  # each one whole, as labels below the root
                below = [tails[v][1:] or "." for v in below]
            keys = list(c.assignment)
            n = len(c.members[0]) if c.members else 0
            run = [v[n:] for v in keys[: len(keys) // max(1, len(members))]]
            if ROOT not in c.members and keys == [m + r for m in c.members for r in run]:
                run = [tails[r] for r in run]
                keys = [h + t for h in members for t in run]
            else:
                keys = [tails[v][1:] or "." for v in keys]
            text = dict(zip(c.boundary, below[s:])).get
            values = [text(a) or format_address(a) for a in c.assignment.values()]
            yield (
                f"class level={c.level}"
                f" image={image}"
                f" members={'|'.join(members)}"
                f" subtree={'|'.join(below[:s])}"
                f" boundary={'|'.join(below[s:])}"
                f" rng_draws={c.rng_draws}"
                f" assign={','.join(map(':'.join, zip(keys, values)))}\n"
            )

    def to_text(self) -> str:
        """The trace as text: its `lines` joined."""
        return "".join(self.lines())

    @staticmethod
    def from_text(text: str) -> "BuildTrace":
        """Read a trace's text; each distinct address text is read once,
        through one `layout._Addresses`, and no ball is built."""
        lines = _lines(text)
        if not lines:
            raise MapFormatError("empty trace", 1)
        head = lines[0].split()
        if len(head) != 6 or head[0] != "tree-qi-trace" or head[1] != "v1":
            raise MapFormatError("bad trace header", 1)
        fields = {}
        for tok in head[2:]:
            k, _, v = tok.partition("=")
            fields[k] = v
        try:
            trace = BuildTrace(
                TreeShape(_number(fields["degree"], "degree")).degree,
                _number(fields["D"], "D"),
                _number(fields["levels"], "levels"),
                fields["policy"],
            )
        except (KeyError, ValueError) as e:
            raise MapFormatError(f"bad trace header: {e}", 1) from None
        addr = _Addresses(TreeShape(trace.degree)).__getitem__
        for no, ln in enumerate(lines[1:], start=2):
            toks = ln.split()
            if not toks or toks[0] != "class":
                raise MapFormatError("expected a class line", no)
            kv = {}
            for tok in toks[1:]:
                k, _, v = tok.partition("=")
                kv[k] = v
            try:
                assignment = {}
                for pair in kv["assign"].split(","):
                    b, _, a = pair.partition(":")
                    assignment[addr(b)] = addr(a)
                trace.classes.append(
                    ClassTrace(
                        level=_number(kv["level"], "level"),
                        image=addr(kv["image"]),
                        members=tuple(map(addr, kv["members"].split("|"))),
                        subtree=tuple(map(addr, kv["subtree"].split("|"))),
                        boundary=tuple(map(addr, kv["boundary"].split("|"))),
                        assignment=assignment,
                        rng_draws=_number(kv.get("rng_draws", "0"), "rng_draws"),
                    )
                )
            except (KeyError, ValueError, TreeQIError) as e:
                raise MapFormatError(f"bad class line: {e}", no) from None
        return trace

    def by_class(self) -> dict:
        return {(c.level, c.image): c for c in self.classes}


class _Tails(dict):
    """The text '.a.b...' of labels below a vertex other than the root, by
    labels, each made on first use."""

    def __missing__(self, w: tuple) -> str:
        text = self[w] = "." + ".".join(map(str, w)) if w else ""
        return text


@dataclass(frozen=True)
class MixedPolicy:
    """Strategy for the construction's free choices.

    minimal          smallest feasible boundary, leftmost growth, first-fit
    random           seeded uniform choices throughout (split per class)
    deepest_feasible largest feasible boundary, always extending the deepest
                     boundary vertex, so subtrees degenerate to deep chains
    explicit         replay a recorded trace verbatim
    """

    variant: str
    seed: int | None = None
    replay: BuildTrace | None = None

    def __post_init__(self):
        if self.variant not in ("minimal", "random", "deepest", "explicit"):
            raise ValueError(f"unknown policy variant {self.variant!r}")
        if self.variant == "random" and self.seed is None:
            raise ValueError("random policy needs a seed")
        if self.variant == "explicit" and self.replay is None:
            raise ValueError("explicit policy needs a trace to replay")

    @staticmethod
    def minimal() -> "MixedPolicy":
        return MixedPolicy("minimal")

    @staticmethod
    def random(seed: int) -> "MixedPolicy":
        return MixedPolicy("random", seed=seed)

    @staticmethod
    def deepest_feasible() -> "MixedPolicy":
        return MixedPolicy("deepest")

    @staticmethod
    def explicit(trace: BuildTrace) -> "MixedPolicy":
        return MixedPolicy("explicit", replay=trace)

    def describe(self) -> str:
        if self.variant == "random":
            return f"random:{self.seed}"
        if self.variant == "explicit":
            return "explicit"
        return self.variant


class _CountingRandom:
    """Seeded stream that counts how many draws a class consumed."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.calls = 0

    def randrange(self, n: int) -> int:
        self.calls += 1
        return self._rng.randrange(n)

    def shuffle(self, seq) -> None:
        self.calls += 1
        self._rng.shuffle(seq)


@cache
def _sha256():
    """hashlib's sha256, imported on first use: loading hashlib loads
    OpenSSL, which only the random policy's class seeds need."""
    import hashlib

    return hashlib.sha256


def _class_seed(master_seed: int, level: int, image: Vertex) -> int:
    key = f"{master_seed}:{level}:{format_address(image)}".encode()
    return int.from_bytes(_sha256()(key).digest()[:8], "big")


def class_rng(policy: MixedPolicy, level: int, image: Vertex) -> _CountingRandom | None:
    if policy.variant != "random":
        return None
    return _CountingRandom(_class_seed(policy.seed, level, image))


def _stream(policy: MixedPolicy, rng: _CountingRandom | None) -> _CountingRandom | None:
    """The given stream under the random policy (one from its seed when none
    is given); None under the others, whose choices draw nothing."""
    return None if policy.variant != "random" else rng or _CountingRandom(policy.seed)


def feasible_boundary_sizes(
    class_size: int, block_size: int, v_is_root: bool, shape: TreeShape
) -> list[int]:
    """All achievable boundary sizes between class_size and block_size.

    A subtree of size s hanging at v has boundary size base + (s-1)*(d-2)
    where base is d at the root and d-1 elsewhere, so the achievable sizes
    form an arithmetic progression intersected with the interval.
    """
    if class_size < 1:
        raise ValueError("class size must be >= 1")
    if block_size < class_size:
        raise ValueError("block size must be at least the class size")
    d = shape.degree
    base = d if v_is_root else d - 1
    first = base - (base - max(class_size, base)) // (d - 2) * (d - 2)  # the least >= class_size
    return list(range(first, block_size + 1, d - 2))


def _grow(d: int, at_root: bool, steps: int, rng: _CountingRandom | None = None) -> tuple:
    """Grow `steps` vertices below a class image, in addresses relative to
    it (the image itself is the empty address): returns the members and the
    boundary in address order, and the members in the order they grew.

    Each step takes one candidate from the pool of boundary vertices and
    puts its children in, so when growth stops the pool is the boundary.
    The random policy takes a uniform candidate; the minimal and the deepest
    policy (no rng) both take the address-least one, which is the leftmost
    child of the vertex taken last and so also the address-least deepest
    candidate: both grow the leftmost chain, and the pool stays sorted.
    Growth stops early at a vertex the depth cap deep, whose children pass
    the cap below any image; the caller raises for it.
    """

    def kids(w):
        return [w + (a,) for a in range(d if at_root and not w else d - 1)]

    grown, pool = [ROOT], kids(ROOT)
    for _ in range(steps):
        if rng is None:
            w = pool.pop(0)
        else:  # order-free pool with swap removal: uniform picks, deterministic per seed
            idx = rng.randrange(len(pool))
            w, pool[idx] = pool[idx], pool[-1]
            pool.pop()
        grown.append(w)
        if len(w) == MAX_DEPTH:
            break
        at = len(pool) if rng else 0  # the sorted pool takes w's children first
        pool[at:at] = kids(w)
    return tuple(sorted(grown)), tuple(sorted(pool)), grown


# the leftmost chains of the minimal and the deepest policy, by (d, at_root, steps)
_leftmost = lru_cache(maxsize=None)(_grow)


def _subtree_at(v: Vertex, target: int, d: int, rng: _CountingRandom | None) -> tuple:
    """The subtree grown at v until its boundary has the target size, and
    that boundary, both in address order: grown relative to v (the cached
    leftmost chain without an rng), then translated to v."""
    base = d if v == ROOT else d - 1
    if target < base or (target - base) % (d - 2):
        raise PolicyError(f"boundary size {target} is infeasible at {format_address(v)}", image=v)
    steps = (target - base) // (d - 2)
    chain = min(steps, MAX_DEPTH)  # a longer chain reaches the cap all the same
    members, bd, grown = _grow(d, not v, steps, rng) if rng else _leftmost(d, not v, chain)
    n = len(v)
    if n + max(map(len, grown)) >= MAX_DEPTH:  # the first grown vertex whose children pass the cap
        TreeShape(d).children(v + next(w for w in grown if n + len(w) >= MAX_DEPTH))
    return tuple([v + w for w in members]), tuple([v + w for w in bd])


def _shared_images(images: list, k: int) -> set:
    """The images that children of more than one member share, where each
    member owns one run of k of `images` in turn."""
    seen, shared = set(), set()
    for j in range(0, len(images), k):
        run = set(images[j : j + k])
        shared |= seen & run
        seen |= run
    return shared


def check_assignment(cls: LevelClass, assignment: dict, boundary_vertices) -> None:
    """Raise PolicyError unless the assignment covers the whole boundary and
    only children of the same class member share an image.

    The block holds each member's children in turn, as the class walk gives
    it, so the groups are runs of equal length; a shared image is named by
    its first occurrence in block order.
    """
    block = cls.block
    if len(assignment) != len(block) or not all(map(assignment.__contains__, block)):
        raise PolicyError("assignment is not total on the class block", image=cls.image)
    images = list(map(assignment.__getitem__, block))
    if set(images) != set(boundary_vertices):
        raise PolicyError("assignment image differs from the subtree boundary", image=cls.image)
    if shared := _shared_images(images, len(block) // len(cls.members)):
        a = next(a for a in images if a in shared)
        raise PolicyError(
            f"children of different class members share the image {format_address(a)}",
            image=cls.image,
        )


def assign_images(
    cls: LevelClass,
    boundary_vertices,
    policy: MixedPolicy,
    rng: _CountingRandom | None = None,
) -> dict:
    """Map the class block onto the boundary: surjective, and images shared
    only within one member's children.

    Boundary vertices are dealt one per member first (injectively), the
    surplus boundary vertices fill remaining child slots, and any children
    still unassigned fold onto a boundary vertex their own member already
    owns.  The minimal policy does all of this in address order; the random
    policy shuffles the deal and picks absorbers uniformly.  The result is
    in block order.
    """
    if policy.variant == "explicit":
        raise PolicyError("the explicit policy supplies assignments directly", image=cls.image)
    rng = _stream(policy, rng)
    deal = sorted(boundary_vertices)
    m, size = len(cls.members), len(cls.block)
    if not (m <= len(deal) <= size):
        raise PolicyError(f"boundary size {len(deal)} outside [{m}, {size}]", image=cls.image)
    if rng is not None:
        rng.shuffle(deal)
    k = size // m  # children per member
    owned = [[a] for a in deal[:m]]  # owned[j]: member j's images, child by child
    open_groups = list(range(m)) if k > 1 else []
    for a in deal[m:]:  # first fit, or a uniform member with a free child
        idx = 0 if rng is None else rng.randrange(len(open_groups))
        own = owned[open_groups[idx]]
        own.append(a)
        if len(own) == k:
            del open_groups[idx]
    images = []
    for own in owned:
        rest = k - len(own)
        fold = [own[rng.randrange(len(own))] for _ in range(rest)] if rng else [min(own)] * rest
        images += own + fold
    assignment = dict(zip(cls.block, images))
    check_assignment(cls, assignment, deal)
    return assignment


def _level_classes(ball: _Ball, step: int, levels: int, image):
    """The construction's class walk on the positions of `ball`, whose
    radius is at least step*levels: yields (i, LevelClass, block, fill) per
    class.

    Level i groups the positions of depth i*step by `image(positions)`, one
    image per position; positions are in preorder, which is address order,
    so the classes come in order of least member.  The depth-t descendants
    of the member in row r are the run r*k .. r*k+k-1 of `ball.levels[t]`,
    for the k such descendants of every member.  `block` holds the
    positions of LevelClass.block, and `fill` the positions strictly between
    the members and the block, member by member, depth by depth, in address
    order.  The blocks make up the next level, whose images are read only
    after the consumer has taken every class of this one.  The walk serves
    the builder alone (`_build_levels`); the structural verifier and the
    approximation read the same runs on label rows (`_levels`).
    """
    for i in range(levels):
        at = ball.levels[i * step]
        # heads[r]: member at[r], then its fill; blocks[r]: its D-children
        walk = [ball.levels[t].reshape(len(at), -1) for t in range(i * step, (i + 1) * step + 1)]
        heads, blocks = np.hstack(walk[:-1]).tolist(), walk[-1].tolist()
        for w, rows in _grouped(image(at)).items():
            block = [p for r in rows for p in blocks[r]]
            members = tuple(ball.verts[heads[r][0]] for r in rows)
            cls = LevelClass(w, members, tuple(map(ball.verts.__getitem__, block)))
            yield i, cls, block, [p for r in rows for p in heads[r][1:]]


def _grouped(images: list) -> dict:
    """The rows of each image, in order of first row."""
    groups: dict[Vertex, list[int]] = {}
    for r, w in enumerate(images):
        groups.setdefault(w, []).append(r)
    return groups


def _build_levels(ball: _Ball, trace: BuildTrace, choose) -> FiniteTreeMap:
    """The construction along the class walk on `ball`: `choose(i, cls,
    block, fill)` returns each class's ClassTrace, whose assignment (in
    block order) the block takes while the fill collapses onto the class
    image.  Appends to trace.classes; the map covers the trace's radius."""
    images = np.empty(len(ball.depths), object)  # by ball position
    images[0] = ROOT
    for i, cls, block, fill in _level_classes(ball, trace.step, trace.levels, images.__getitem__):
        entry = choose(i, cls, block, fill)
        for p, a in zip(block, entry.assignment.values()):
            images[p] = a
        for p in fill:
            images[p] = cls.image
        trace.classes.append(entry)
    radius = trace.step * trace.levels
    labels, depths = _pack(images[ball.rows(radius)], _label_dtype(trace.degree))
    return FiniteTreeMap._from_arrays(ball.shape, radius, labels, depths)


def _replayed_subtree(i: int, image: Vertex, entry: ClassTrace, d: int) -> tuple[tuple, tuple]:
    """The recorded subtree and its boundary, both in address order, once
    the subtree is connected, hangs at the class image and has exactly the
    recorded boundary: one pass over the recorded vertices checks each
    parent and gathers the children outside the subtree."""
    fail = partial(PolicyError, level=i, image=image)
    present = set(entry.subtree)
    vs = sorted(present)
    if not vs:
        raise fail("recorded subtree is empty")
    top = min(vs, key=len)
    bd = []
    for v in vs:
        if v != top and v[:-1] not in present:
            missing = f"{format_address(v)} is missing its parent"
            raise fail(f"recorded subtree is disconnected: {missing}")
        bd += [c for c in (v + (a,) for a in range(d if not v else d - 1)) if c not in present]
    if top != image:
        raise fail("recorded subtree hangs elsewhere")
    if max(map(len, vs)) >= MAX_DEPTH:  # a member whose children pass the cap
        TreeShape(d).children(next(v for v in vs if len(v) >= MAX_DEPTH))
    bd.sort()
    if tuple(bd) != tuple(entry.boundary):
        raise fail("recorded boundary is wrong")
    return tuple(vs), tuple(bd)


def build_mixed(
    shape: TreeShape,
    step: int,
    levels: int,
    policy: MixedPolicy,
    *,
    budget: int = DEFAULT_VERTEX_BUDGET,
) -> tuple[FiniteTreeMap, BuildTrace]:
    """Run the construction for the given number of depth-`step` levels.

    Returns the map on the ball of radius levels*step together with the
    trace of every class choice; replaying the trace with the explicit
    policy rebuilds the identical map.
    """
    if step < 1:
        raise ValueError("step depth must be >= 1")
    if levels < 0:
        raise ValueError("levels must be >= 0")
    ball = _budgeted_ball(shape, levels * step, budget)
    if policy.variant == "explicit":
        head = policy.replay
        if (head.degree, head.step, head.levels) != (shape.degree, step, levels):
            raise PolicyError("trace header does not match the requested construction parameters")
        recorded = head.by_class()

    def choose(i: int, cls: LevelClass, block, fill) -> ClassTrace:
        rng = class_rng(policy, i, cls.image)
        if policy.variant == "explicit":
            entry = recorded.get((i, cls.image))
            if entry is None:
                raise PolicyError("trace has no entry for this class", level=i, image=cls.image)
            if entry.members != cls.members:
                raise PolicyError("trace lists other class members", level=i, image=cls.image)
            subtree, bd = _replayed_subtree(i, cls.image, entry, shape.degree)
            check_assignment(cls, entry.assignment, bd)
            assignment = {b: entry.assignment[b] for b in cls.block}
            draws = entry.rng_draws
        else:
            feas = feasible_boundary_sizes(len(cls.members), len(block), cls.image == ROOT, shape)
            if not feas:
                raise PolicyError("no feasible boundary size", level=i, image=cls.image)
            pick = rng.randrange(len(feas)) if rng else 0 if policy.variant == "minimal" else -1
            target = feas[pick]  # the smallest, the largest, or a uniform feasible size
            subtree, bd = _subtree_at(cls.image, target, shape.degree, rng)
            assignment = assign_images(cls, bd, policy, rng)
            draws = rng.calls if rng else 0
        return ClassTrace(i, cls.image, cls.members, subtree, bd, assignment, draws)

    trace = BuildTrace(shape.degree, step, levels, policy.describe())
    m = _build_levels(ball, trace, choose)
    if policy.variant == "explicit" and len(trace.classes) < len(head.classes):
        unused = len(head.classes) - len(trace.classes)
        raise PolicyError(f"{unused} of {len(head.classes)} trace class lines match no class")
    return m, trace


# ---------------------------------------------------------------------------
# structural verification


@dataclass
class StructureWitness:
    kind: str
    level: int
    detail: str

    def report_fields(self) -> list:
        return [("kind", self.kind), ("level", self.level), ("detail", self.detail)]

    def to_line(self) -> str:
        return report.row("witness", self)


@dataclass
class MixedStructureReport:
    degree: int
    step: int
    radius: int
    levels: int
    passed: bool
    witnesses: list[StructureWitness]
    witness_total: int
    multiplicity_by_level: dict
    multiplicity_bound: int
    image_step_min: int | None
    image_step_max: int | None
    image_step_bound: int

    def report_fields(self) -> list:
        return [
            ("report", "mixed-structure"),
            ("degree", self.degree),
            ("D", self.step),
            ("radius", self.radius),
            ("levels", self.levels),
            ("passed", self.passed),
            ("max_multiplicity", max(self.multiplicity_by_level.values()), report.TEXT),
            ("multiplicity_by_level", self.multiplicity_by_level, report.JSON),
            ("multiplicity_bound", self.multiplicity_bound),
            ("image_step_min", self.image_step_min),
            ("image_step_max", self.image_step_max),
            ("image_step_bound", self.image_step_bound),
            ("witnesses", self.witness_total, report.TEXT),
            ("witness_total", self.witness_total, report.JSON),
            ("witnesses", report.Rows("witness", self.witnesses)),
        ]

    def to_lines(self) -> list[str]:
        return report.lines(self.report_fields())

    def to_json_dict(self) -> dict:
        return report.to_dict(self.report_fields())


def recover_class_subtree(
    image: Vertex, targets: Iterable[Vertex], shape: TreeShape
) -> tuple[set | None, str | None]:
    """The vertices below `image` that sit above every target, if that set is
    a finite subtree whose boundary is exactly the target set.

    Returns (subtree vertices, None) on success or (None, reason) when the
    targets cannot be such a boundary (image among targets, size formula
    broken, or an escape route past the deepest target).
    """
    targets = set(targets)
    if image in targets:
        return None, f"class image {format_address(image)} occurs among the images"
    d = shape.degree
    c = 2 if image == ROOT else 1
    num = len(targets) - c
    if num < 0 or num % (d - 2):
        return None, f"{len(targets)} boundary vertices fit no subtree size"
    expected = num // (d - 2) + 1
    max_depth = max(map(len, targets))  # at most the depth cap, so no child passes it
    members: set = set()
    stack = [image]
    while stack:
        y = stack.pop()
        if y in targets:
            continue
        if len(y) >= max_depth:
            return None, f"subtree escapes past the deepest image below {format_address(y)}"
        members.add(y)
        if len(members) > expected:
            return None, "subtree exceeds the size its boundary implies"
        stack += [y + (a,) for a in range(d if not y else d - 1)]
    bdry = {a for a in targets if a[:-1] in members}
    if bdry != targets:
        missing = sorted(targets - bdry)[0]
        return None, f"image {format_address(missing)} is not on the subtree boundary"
    return members, None


def _subtree_counts(shape: TreeShape, images: tuple, rows, depths, owner: np.ndarray, by=None):
    """Whether the count below rejects the targets of each class as the
    boundary of a subtree at its image, and whether each target repeats the
    one before it in its class: class c has the image row images[0][c]
    (depths images[1]) and the target rows rows[by] (all of `rows` by
    default; depths `depths`) whose owner is c, repeats allowed, sorted by
    owner and then in address order.  The rows are read in place.

    All classes are judged at once by counting.  Let w be the image and T
    the distinct targets in address order.  If every target lies strictly
    below w and no target is a prefix of the next, the proper prefixes of
    the targets at depth >= |w| form a subtree M at w, of
    (|t_0| - |w|) + sum_k (|t_k| - lcp(t_{k-1}, t_k) - 1) vertices, whose
    boundary holds T and has c + (|M| - 1)(d - 2) vertices, c being d at
    the root and d - 1 elsewhere; T is that boundary exactly when the two
    counts agree.  Only a class that fails is walked by
    `recover_class_subtree` (`_Level.reason`), which words the reason."""
    by = np.arange(len(owner)) if by is None else by
    first = np.ones(len(owner), bool)  # the least target of its class
    first[1:] = owner[1:] != owner[:-1]
    lcp = np.zeros(len(owner), np.int32)
    lcp[1:] = _prefix_len(rows, rows, by[:-1], by[1:])
    before = np.roll(depths, 1)
    prefix = ~first & (lcp == before)  # the target before is a prefix of this one
    repeat = prefix & (depths == before)
    top, n, d = images[1][owner], len(images[1]), shape.degree
    bad = (depths <= top) | (prefix & ~repeat)
    # the addresses below the image are an interval of address order, so the
    # least and the greatest target of a class decide whether all lie below it
    ends = np.flatnonzero(first | np.append(first[1:], True))
    bad[ends] |= _prefix_len(rows, images[0], by[ends], owner[ends]) < top[ends]
    kept = owner[~repeat]
    size = np.bincount(kept, (depths - np.where(first, top, lcp + 1))[~repeat], n)  # |M|
    boundary = np.where(images[1] == 0, d, d - 1) + (size - 1) * (d - 2)
    fails = (np.bincount(owner, bad, n) > 0) | (boundary != np.bincount(kept, None, n))
    return fails, repeat


class _Level:
    """Level i of the level driver (`_levels`) of a map m with step depth D:
    the images of the vertices of depth i*D, `at`, grouped by one sort, and
    the classes of the level above, `top`, that own them.

    `rows` and `deps` are the image rows of `at` in address order of the
    images, `order` their rows of `at` (rows padded with -1 sort as their
    tuples do) and `parent` their rows of `top`, the D-parents; `starts`
    and `ends` bound the runs of equal images, and `nested` marks each
    image that is a prefix of the next, `same` each equal to the next.
    `owner` numbers the class of each row of `top` in image order and
    `images` holds the image row of each class.  `by` sorts the images by
    the class that owns them (`owned`), then in address order; `rejects`
    and `repeat` count the class subtrees from there (`_subtree_counts`).
    `runs` holds the positions of each depth from below `top` down to `at`;
    row r of `top` owns the r-th of the equal runs of each.
    """

    def __init__(self, m: FiniteTreeMap, ball: _Ball, step: int, i: int, owner, images):
        self.i, self.owner, self.images, self.shape = i, owner, images, m.shape
        self.top = ball.levels[(i - 1) * step]
        self.runs = ball.levels[(i - 1) * step + 1 : i * step + 1]
        at = self.runs[-1]
        self.order = np.lexsort(m.labels[at].T[::-1]).astype(np.int32)
        self.rows, self.deps = rows, deps = m.labels[at[self.order]], m.depths[at[self.order]]
        self.nested = _prefix_len(rows, rows, slice(None, -1), slice(1, None)) == deps[:-1]
        self.same = self.nested & (deps[:-1] == deps[1:])
        self.starts = np.flatnonzero(np.concatenate([[True], ~self.same])).astype(np.int32)
        self.ends = np.append(self.starts[1:], np.int32(len(at)))
        self.parent = self.order // (len(at) // len(self.top))
        own = owner[self.parent]
        self.by = np.argsort(own, kind="stable").astype(np.int32)
        self.owned = own[self.by]
        self.rejects, self.repeat = _subtree_counts(
            m.shape, images, rows, deps[self.by], self.owned, self.by
        )

    def image(self, c: int) -> Vertex:
        return tuple(self.images[0][c, : self.images[1][c]].tolist())

    def reason(self, c: int) -> str | None:
        """Why `recover_class_subtree` rejects the targets of class c, or None."""
        at = self.by[np.searchsorted(self.owned, c) : np.searchsorted(self.owned, c, "right")]
        targets = {tuple(r[:k]) for r, k in zip(self.rows[at].tolist(), self.deps[at].tolist())}
        return recover_class_subtree(self.image(c), targets, self.shape)[1]

    def moved(self, m: FiniteTreeMap, run: np.ndarray) -> np.ndarray:
        """The distance from the image of each vertex of `run`, one of
        `runs`, to the image of its ancestor on `top`; the rows are gathered
        a block at a time (`_prefix_len`)."""
        up = np.repeat(self.top, len(run) // len(self.top))
        return m.depths[run] + m.depths[up] - 2 * _prefix_len(m.labels, m.labels, run, up)


def _levels(m: FiniteTreeMap, step: int) -> Iterator[_Level]:
    """The level driver of the structural verifier and the approximation
    (`transforms`): one `_Level` per level 1 .. radius // step of m's ball,
    level 0's one class being the root's image.  A level's classes are the
    runs of equal images of the level before."""
    ball = _ball(m.shape.degree, m.domain_radius)
    owner, images = np.zeros(1, np.int32), (m.labels[:1], m.depths[:1])
    for i in range(1, m.domain_radius // step + 1):
        level = _Level(m, ball, step, i, owner, images)
        yield level
        owner = np.empty(len(level.order), np.int32)
        owner[level.order] = np.cumsum(np.concatenate([[False], ~level.same]), dtype=np.int32)
        images = (level.rows[level.starts], level.deps[level.starts])
        del level  # the next level is built without this one


def verify_mixed_structure(m: FiniteTreeMap, step: int) -> MixedStructureReport:
    """Exhaustively check the construction invariants on the stored ball.

    Per level (a multiple of the step depth): equal images force a shared
    D-parent and distinct images are never nested; no image repeats more
    than degree**step times; each D-parent/D-child image pair moves by a
    distance in [1, (degree**step)**2]; each class's image set must be
    recoverable as the boundary of the subtree spanned between the class
    image and the images; and everything strictly between two levels
    collapses onto the class image.  The level driver (`_levels`) groups
    each level's image rows by one sort and judges the class subtrees of a
    level all at once; no vertex tuple is built but for a witness.
    """
    radius = m.domain_radius
    if step < 1 or radius % step:
        raise ValueError("domain radius must be a positive multiple of the step depth")
    levels = radius // step
    d = m.shape.degree
    K = d**step
    K2 = K * K
    ball = _ball(d, radius)
    witnesses: list[StructureWitness] = []
    witness_total = 0

    def text(labels, depths, r: int) -> str:
        return format_address(tuple(labels[r, : depths[r]].tolist()))

    # count a witness and keep it while there is room; the vertices at the
    # positions `named` fill its {} fields, read from label rows if it is kept
    def add(kind: str, level: int, detail: str, *named) -> None:
        nonlocal witness_total
        witness_total += 1
        if len(witnesses) < MAX_WITNESSES:
            if named:
                detail = detail.format(*(format_address(ball.vertex(p)) for p in named))
            witnesses.append(StructureWitness(kind, level, detail))

    if m.depths[0]:
        add("root-anchor", 0, f"root maps to {text(m.labels, m.depths, 0)}")

    multiplicity = {0: 1}
    steps = []  # per level, the least and the greatest D-parent/D-child image distance
    for lv in _levels(m, step):
        i, rows, deps, parent = lv.i, lv.rows, lv.deps, lv.parent
        multiplicity[i] = int((lv.ends - lv.starts).max())
        if multiplicity[i] > K:
            add("multiplicity", i, f"{multiplicity[i]} same-image vertices exceed {K}")
        split = parent[lv.starts] != parent[lv.ends - 1]  # a run is in D-parent order
        for s, e in zip(lv.starts[split].tolist(), lv.ends[split].tolist()):
            second = parent[s + int(np.argmax(parent[s:e] != parent[s]))]
            detail = f"image {text(rows, deps, s)} shared across {{}} and {{}}"
            add("shared-image-parent", i, detail, lv.top[parent[s]], lv.top[second])
        for j in np.flatnonzero(lv.nested & ~lv.same).tolist():
            a, b = text(rows, deps, j), text(rows, deps, j + 1)
            add("image-ancestry", i, f"{a} is an ancestor of {b}")
        at = lv.runs[-1]
        dist = lv.moved(m, at)
        steps.append((int(dist.min()), int(dist.max())))
        for r in np.flatnonzero((dist < 1) | (dist > K2)).tolist():
            add("image-step", i, f"{{}} moved its image {dist[r]}, outside [1, {K2}]", at[r])
        for c in np.flatnonzero(lv.rejects).tolist():
            if (reason := lv.reason(c)) is not None:  # the walk has the last word
                add("class-subtree", i - 1, reason)
        for run in lv.runs[:-1]:
            for w in run[lv.moved(m, run) != 0].tolist():
                add("intermediate-fill", i, "{} does not collapse onto its class image", w)

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
        image_step_min=min((s for s, _ in steps), default=None),
        image_step_max=max((s for _, s in steps), default=None),
        image_step_bound=K2,
    )
