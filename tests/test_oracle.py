import ast
import random
from fractions import Fraction
from pathlib import Path

import treeqi as tq
from treeqi import TreeShape, oracle
from treeqi.oracle import oracle_measure

D3 = TreeShape(3)


def test_oracle_matches_fast_path_on_random_maps():
    for seed in range(10):
        radius = 3 + seed % 3
        m = tq.random_map(D3, radius, seed)
        assert oracle_measure(m).measurement_fields() == tq.measure_qi(m).measurement_fields()


def test_oracle_matches_with_candidate_and_filter():
    rng = random.Random(0)
    for seed in range(6):
        m = tq.random_map(D3, 3, 100 + seed)
        cand = Fraction(rng.randrange(1, 4))
        a = oracle_measure(m, candidate_C=cand, max_lca_depth=1)
        b = tq.measure_qi(m, candidate_C=cand, max_lca_depth=1)
        assert a.measurement_fields() == b.measurement_fields()


def test_oracle_matches_on_structured_maps():
    maps = [
        tq.identity_map(D3, 4),
        tq.constant_map(D3, 3),
        tq.random_automorphism_map(D3, 4, 1),
        tq.perturb_map_in_subtree(tq.random_automorphism_map(D3, 4, 2), 3),
        tq.build_mixed(D3, 2, 2, tq.MixedPolicy.random(4))[0],
    ]
    for m in maps:
        assert oracle_measure(m).measurement_fields() == tq.measure_qi(m).measurement_fields()


def test_oracle_stays_independent_of_the_fast_path():
    """oracle.py imports neither numpy nor any private helper, and reads a
    map only through domain, table, shape and domain_radius."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    maps = {
        a.arg
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef)
        for a in f.args.args + f.args.kwonlyargs
        if isinstance(a.annotation, ast.Name) and a.annotation.id == "FiniteTreeMap"
    }
    assert maps  # the check below must see the map parameters
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names]
            modules = names if isinstance(node, ast.Import) else [node.module or ""]
            assert all(m.split(".")[0] != "numpy" for m in modules), modules
            assert not any(n.split(".")[-1].startswith("_") for n in names), names
        if isinstance(node, ast.Attribute):
            assert not node.attr.startswith("_"), node.attr
            if isinstance(node.value, ast.Name) and node.value.id in maps:
                assert node.attr in ("domain", "table", "shape", "domain_radius"), node.attr
