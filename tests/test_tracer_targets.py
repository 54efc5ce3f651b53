"""The benchmark's tracer reaches every function it names.

`perfbench/tracer.py` wraps each (module, function) of its TARGETS and
rebinds the wrapper in every loaded treeqi namespace that holds the
original.  A name that is not an attribute of its module makes `install()`
raise, and a module that binds a function only after `install()` would
call the original, so its spans would be missing from a traced run.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import treeqi as tq

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _targets() -> list:
    """The (module, function) keys of TARGETS, read from the tracer's source."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    ]
    return [ast.literal_eval(key) for key in table.keys]


def test_every_tracer_target_is_an_attribute_of_its_module():
    targets = _targets()
    assert ("qi_map", "compose") in targets and len(targets) > 10
    for module, name in targets:
        assert callable(getattr(importlib.import_module(f"treeqi.{module}"), name)), (module, name)


def test_a_traced_cli_job_records_the_functions_it_runs(tmp_path):
    shape = tq.TreeShape(3)
    auto = tq.random_automorphism_map(shape, 4, 1)  # order-preserving: same-depth runs too
    pert = tq.perturb_map_in_subtree(auto, 2)
    for name, m in (("auto.qi", auto), ("pert.qi", pert)):
        tq.write_map_file(m, tmp_path / name)
    a, b = str(tmp_path / "auto.qi"), str(tmp_path / "pert.qi")
    checks = {"qi_map.check_geodesic_image", "qi_map.check_same_depth"}
    report = {"qi_map.measure_qi", "qi_map.coarse_surjectivity_radius", "qi_map.is_order_preserving"}
    jobs = [
        (["verify", "--in", a, "--C", "3"], {"cli.main", "mapfile.parse_map_file", *report, *checks}),
        (["distance", "--a", a, "--b", b], {"qi_map.sup_distance"}),
        (["compose", "--a", a, "--b", b, "--out", str(tmp_path / "c.qi")],
         {"qi_map.compose", "mapfile.write_map_file"}),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(tq.__file__).resolve().parents[1]))
    for args, want in jobs:
        spans = tmp_path / "spans.jsonl"
        r = subprocess.run(
            [sys.executable, str(PERFBENCH / "cli_trace.py"), str(spans), "job", "0", "--", *args],
            capture_output=True, text=True, env=env, check=False,
        )
        assert r.returncode == 0, (args, r.stderr)
        names = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
        assert want <= names, (args, want - names)
