from fractions import Fraction

import pytest

import treeqi as tq
from reference import FiniteSubtree, boundary, lca
from treeqi import MixedPolicy, PromiseWarning, TreeShape
from treeqi.errors import PreconditionError, ValidationFailure
from treeqi.tree_core import ball

D3 = TreeShape(3)


def test_constants_at_one():
    b = tq.constants(1)
    assert b.K_normalize == 5
    assert b.K_samedepth == 5
    assert b.D_guaranteed == 7  # ceil(1*(1+5)+1)
    assert b.D_used == 7
    assert b.final_bound == 13  # 5 + 7 + 1


def test_constants_at_two():
    b = tq.constants(2)
    assert b.K_samedepth == 34
    assert b.D_guaranteed == 73  # ceil(2*(2+34)+1)
    assert b.final_bound == 34 + 2 * 73 + 2


def test_constants_override():
    b = tq.constants(1, 2)
    assert b.D_used == 2 and b.D_guaranteed == 7
    assert b.final_bound == 8  # 5 + 2 + 1


def test_constants_fractional_C():
    c = Fraction(5, 2)
    b = tq.constants(c)
    assert b.K_normalize == 3 * c**3 + 2 * c
    assert b.K_samedepth == 4 * c**3 + c


def test_constants_errors():
    with pytest.raises(ValueError):
        tq.constants(Fraction(1, 2))
    with pytest.raises(ValueError):
        tq.constants(1, 0)


def test_normalize_identity():
    ident = tq.identity_map(D3, 5)
    assert tq.normalize_order_preserving(ident, 1) == ident


def test_normalize_fixes_order_preserving_maps():
    m, _ = tq.build_mixed(D3, 2, 3, MixedPolicy.random(2))
    C = tq.measure_qi(m).best_single_C
    assert tq.normalize_order_preserving(m, C) == m
    auto = tq.random_automorphism_map(D3, 6, 4)
    assert tq.normalize_order_preserving(auto, 1) == auto


def test_normalize_requires_root_fixing():
    bad = dict(tq.identity_map(D3, 3).table)
    bad[()] = (0,)
    with pytest.raises(PreconditionError):
        tq.normalize_order_preserving(tq.FiniteTreeMap(D3, 3, bad), 2)


def test_normalize_perturbed_contract():
    for seed in range(20):
        base = tq.random_automorphism_map(D3, 6, seed)
        f = tq.perturb_map_in_subtree(base, seed + 1000)
        C = tq.measure_qi(f).best_single_C
        assert C <= 3
        g = tq.normalize_order_preserving(f, C)
        assert tq.is_order_preserving(g)[0]
        assert tq.normalize_order_preserving(g, C) == g  # idempotent, exactly
        assert tq.sup_distance(f, g) <= 3 * C**3 + 2 * C


def test_normalize_output_order_preserving_even_for_non_qi():
    # the subtree-image ancestor construction respects ancestry regardless
    # of whether the input embeds anything
    f = tq.random_map(D3, 4, 77, fix_root=True)
    g = tq.normalize_order_preserving(f, 1, check_promise=False)
    assert tq.is_order_preserving(g)[0]


def test_normalize_warns_on_dishonest_C():
    base = tq.random_automorphism_map(D3, 5, 3)
    f = tq.perturb_map_in_subtree(base, 9)
    assert tq.measure_qi(f).best_single_C > 1
    with pytest.warns(PromiseWarning):
        tq.normalize_order_preserving(f, 1)


def test_approximate_identity():
    ident = tq.identity_map(D3, 4)
    f, bundle, trace = tq.approximate_by_mixed(ident, 1, 1)
    assert f == ident
    assert bundle.D_used == 1
    assert trace.classes


def test_approximate_requires_preconditions():
    with pytest.raises(PreconditionError):
        tq.approximate_by_mixed(tq.random_map(D3, 4, 5), 2)  # not order-preserving
    # order-preserving but pushed into one branch, so the root moves
    shifted = tq.map_from_function(D3, 3, lambda v: (0,) + tuple(min(a, 1) for a in v))
    assert tq.is_order_preserving(shifted)[0]
    with pytest.raises(PreconditionError):
        tq.approximate_by_mixed(shifted, 1, 1, check_promise=False)
    with pytest.raises(PreconditionError):
        tq.approximate_by_mixed(tq.identity_map(D3, 3), 1, 5)  # no full level


def test_approximate_automorphism_guaranteed_regime_small():
    g = tq.random_automorphism_map(D3, 7, 21)
    f, bundle, _ = tq.approximate_by_mixed(g, 1)  # D_guaranteed = 7, one level
    assert bundle.D_used == 7
    assert f.domain_radius == 7
    assert tq.sup_distance(f, g) <= bundle.final_bound
    assert tq.verify_mixed_structure(f, 7).passed
    assert tq.is_order_preserving(f)[0]


def test_approximate_round_trip_reproduces_builds():
    # approximating a construction output at its own step depth recovers it
    for seed in range(5):
        g, _ = tq.build_mixed(D3, 2, 3, MixedPolicy.random(seed))
        C = tq.measure_qi(g).best_single_C
        f, bundle, _ = tq.approximate_by_mixed(g, C, 2)
        assert f == g
        assert tq.sup_distance(f, g) <= bundle.final_bound


def test_approximate_validation_failure_payload():
    # collapsing a whole branch makes the class image set escape along the
    # untouched branch: condition (1) must fail with a located witness
    def collapse(v):
        return (0,) + v[1:] if v and v[0] == 1 else v

    g = tq.map_from_function(D3, 4, collapse)
    assert tq.is_order_preserving(g)[0]
    with pytest.raises(ValidationFailure) as err:
        tq.approximate_by_mixed(g, 2, 1, check_promise=False)
    assert err.value.kind == "subtree-boundary"
    assert err.value.level == 0
    assert err.value.image == ()


def test_approximate_shared_parent_failure():
    # below branch 1 the depth-4 vertices keep only their last label, so
    # children of the two class members 1.0 and 1.1 land on the same image
    def fold(v):
        if not v or v[0] == 0:
            return v
        return (v[0],) if len(v) < 4 else (v[0], v[3])

    g = tq.map_from_function(D3, 4, fold)
    assert tq.is_order_preserving(g)[0]
    with pytest.raises(ValidationFailure) as err:
        tq.approximate_by_mixed(g, 1, 2, check_promise=False)
    assert (err.value.kind, err.value.level, err.value.image) == ("shared-parent", 1, (1,))
    assert str(err.value) == "shared-parent: image 1.0 drawn from children of two class members"


def test_approximate_checks_the_boundary_before_shared_parents():
    # swapping these two images sends a level-1 block vertex onto its class
    # image 0: the boundary check fires first, so g's own images never reach
    # the shared-parent check
    m, _ = tq.build_mixed(D3, 3, 2, MixedPolicy.minimal())
    table = dict(m.table)
    u, v = tq.parse_address("1.1.0.0.0"), tq.parse_address("1.1.0.1.0.1")
    table[u], table[v] = table[v], table[u]
    g = tq.FiniteTreeMap(D3, 6, table)
    assert tq.is_order_preserving(g)[0]
    with pytest.raises(ValidationFailure) as err:
        tq.approximate_by_mixed(g, 1, 3, check_promise=False)
    assert (err.value.kind, err.value.level, err.value.image) == ("subtree-boundary", 1, (0,))
    assert str(err.value) == "subtree-boundary: class image 0 occurs among the images"


def _spread_map():
    """The 24 depth-4 vertices map onto the boundary of the 22-vertex chain
    0, 0.0, ..., deepest first, so the intermediate vertex 0 spans images
    15 levels deep (and 0.0 spans 19) while its class image is the root."""
    chain = FiniteSubtree([(0,) * k for k in range(22)])
    targets = sorted(boundary(chain, D3), key=lambda a: (-len(a), a))
    leaves = [v for v in ball(D3, 4) if len(v) == 4]
    image = dict(zip(leaves, targets, strict=True))

    def spread(v):
        return () if not v else lca(a for b, a in image.items() if b[: len(v)] == v)

    return tq.map_from_function(D3, 4, spread)


def test_approximate_fill_distance_failure():
    g = _spread_map()
    tq.layout._ball.cache_clear()  # the failure names its vertex from a label row
    with pytest.raises(ValidationFailure) as err:
        tq.approximate_by_mixed(g, 1, 4, check_promise=False)
    assert (err.value.kind, err.value.level, err.value.image) == ("fill-distance", 0, ())
    assert str(err.value) == "fill-distance: 0 collapsed 15 > 10 from its g-image"
    assert (err.value.value, err.value.bound) == (15, 10)
    assert "verts" not in vars(tq.layout._ball(3, 4))


@pytest.mark.parametrize(
    "C, vertex, value", [(Fraction(6, 5), "0", 15), (Fraction(5, 4), "0.0", 19)]
)
def test_fill_distance_bound_is_exact(C, vertex, value):
    # the bounds are 1764/125 = 14.112 and 245/16 = 15.3125: vertex 0's 15
    # fails the first and passes the second, where 0.0's 19 fails instead
    with pytest.raises(ValidationFailure) as err:
        tq.approximate_by_mixed(_spread_map(), C, 4, check_promise=False)
    bound = tq.constants(C, 4).final_bound
    assert (err.value.kind, err.value.value, err.value.bound) == ("fill-distance", value, bound)
    assert str(err.value) == f"fill-distance: {vertex} collapsed {value} > {bound} from its g-image"


def test_approximate_takes_a_fill_bound_past_the_depth_cap():
    """C = 100 gives a fill bound above 4 * 10^6, past any depth
    difference: every fill vertex passes it."""
    g = tq.random_automorphism_map(D3, 3, 1)
    f, bundle, _ = tq.approximate_by_mixed(g, 100, 1, check_promise=False)
    assert bundle.final_bound > 4 * 10**6
    assert tq.verify_mixed_structure(f, 1).passed


def test_approximate_passing_output_passes_structure():
    g = tq.random_automorphism_map(D3, 6, 31)
    f, bundle, _ = tq.approximate_by_mixed(g, 1, 3)
    assert tq.verify_mixed_structure(f, 3).passed
    assert tq.is_order_preserving(f)[0]
    assert tq.sup_distance(f, g) <= bundle.final_bound


def test_guaranteed_regime_output_is_structurally_mixed():
    g = tq.random_automorphism_map(D3, 14, 77)
    f, bundle, _ = tq.approximate_by_mixed(g, 1)
    assert tq.verify_mixed_structure(f, bundle.D_used).passed
    assert tq.is_order_preserving(f)[0]


def test_approximate_floors_uncovered_radius():
    g = tq.random_automorphism_map(D3, 7, 40)
    f, bundle, _ = tq.approximate_by_mixed(g, 1, 3)  # 7 // 3 = 2 levels
    assert bundle.D_used == 3
    assert f.domain_radius == 6
    assert tq.sup_distance(f, g) <= bundle.final_bound  # over the covered ball


def test_trace_records_classes():
    g = tq.random_automorphism_map(D3, 4, 8)
    _, _, trace = tq.approximate_by_mixed(g, 1, 2)
    assert all(c.boundary and c.assignment for c in trace.classes)
    parsed = tq.BuildTrace.from_text(trace.to_text())
    assert parsed.to_text() == trace.to_text()
    # subtree vertices inside the ball are the ball's own tuples, not copies
    verts = tq.layout._ball(3, 4).verts
    inside = [v for c in trace.classes for v in c.subtree if len(v) <= 4]
    assert inside and all(v is verts[verts.index(v)] for v in inside)


def test_radius_14_promise_check_builds_no_whole_ball_tables():
    """A sampled promise check reads each pair's two label rows and names
    its witness from label rows: it builds neither the ball's vertex
    tuples nor its ancestor table, nor the map's prefix index."""
    tq.layout._ball.cache_clear()  # a ball that no earlier test has filled
    m = tq.random_automorphism_map(D3, 14, 5)
    measured, honest, mode = tq.measure_promise(m, 1)
    assert (measured, honest, mode) == (1, True, "sampled:50000")
    assert not {"verts", "ancestors"} & set(vars(tq.layout._ball(3, 14)))
    assert "_image_index" not in vars(m)
