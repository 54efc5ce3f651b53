"""Free-group automorphisms as an independent check of the map operations.

Each property compares treeqi's result with group algebra done on words
(tests/free_group.py): composition and inversion of automorphisms, and the
word metric of the Cayley graph.  Maps come from products of the Nielsen
generators a->ab, a->a^-1 and a<->b, which are quasi-isometries of the tree
but, apart from a<->b, not isometries.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeqi as tq
from free_group import NIELSEN, SHAPE, address, inverse, product, reduce, word
from reference import distance
from treeqi.oracle import oracle_measure
from treeqi.tree_core import ball

FREE = settings(max_examples=12, deadline=None)
products = st.lists(st.sampled_from(sorted(NIELSEN)), max_size=4)


def test_words_and_addresses_are_the_cayley_graph():
    verts = ball(SHAPE, 4)
    words = [word(v) for v in verts]
    assert len(set(words)) == len(verts)
    assert all(reduce(w) == w and address(w) == v for v, w in zip(verts, words))
    for u, wu in zip(verts[::7], words[::7]):
        for v, wv in zip(verts[::5], words[::5]):
            assert distance(u, v) == len(reduce(inverse(wu) + wv))


@FREE
@given(products, products, st.integers(2, 7), st.integers(1, 5))
def test_compose_is_composition_of_automorphisms(names_phi, names_psi, r_outer, r_inner):
    phi, _ = product(names_phi)
    psi, _ = product(names_psi)
    composed = tq.compose(phi.tree_map(r_outer), psi.tree_map(r_inner))
    assert composed == phi.after(psi).tree_map(composed.domain_radius)


@FREE
@given(products, st.integers(1, 4))
def test_compose_with_the_inverse_is_the_identity(names, radius):
    phi, phi_inv = product(names)
    composed = tq.compose(phi_inv.tree_map(7), phi.tree_map(radius))
    assert composed.domain_radius >= 1
    assert tq.sup_distance(composed, tq.identity_map(SHAPE, composed.domain_radius)) == 0


@FREE
@given(products, st.integers(2, 4))
def test_normalization_at_the_measured_constant(names, radius):
    m = product(names)[0].tree_map(radius)
    C = tq.measure_qi(m).best_single_C
    g = tq.normalize_order_preserving(m, C)  # exhaustive promise: checks the bound too
    assert tq.is_order_preserving(g) == (True, None)
    assert tq.normalize_order_preserving(g, C, check_promise=False) == g
    assert tq.sup_distance(m, g) <= 3 * C**3 + 2 * C


@FREE
@given(products, st.integers(1, 3), st.sampled_from([None, 1, Fraction(3, 2), 2]))
def test_measure_qi_equals_oracle_on_automorphisms(names, radius, C):
    m = product(names)[0].tree_map(radius)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tq.qi_map, "DEFAULT_MAX_VIOLATIONS", 7)
        got = tq.measure_qi(m, candidate_C=C)
        want = oracle_measure(m, candidate_C=C)
    assert got.measurement_fields() == want.measurement_fields()


@FREE
@given(products, st.integers(2, 4), st.integers(1, 2))
def test_approximation_validates_or_names_its_failure(names, radius, step):
    m = product(names)[0].tree_map(radius)
    C = tq.measure_qi(m).best_single_C
    g = tq.normalize_order_preserving(m, C, check_promise=False)
    try:
        f, bundle, _ = tq.approximate_by_mixed(g, C, step, check_promise=False)
    except tq.ValidationFailure as e:
        if e.kind == "final-bound":
            assert e.value > e.bound
        else:
            assert e.level is not None and e.image is not None
        return
    assert tq.sup_distance(f, g) <= bundle.final_bound
