import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import treeqi as tq
import treeqi.cli
from reference import FiniteSubtree, boundary, lca
from treeqi.cli import main
from treeqi.mapfile import parse_map_file, write_map_file
from treeqi.tree_core import ball


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_constants_line(capsys):
    code, out, _ = run_cli(["constants", "--C", "1"], capsys)
    assert code == 0
    assert out == "K_normalize=5 K_samedepth=5 D=7 bound=13\n"


def test_constants_json(capsys):
    code, out, _ = run_cli(["constants", "--C", "2", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["K_samedepth"] == "34"
    assert data["D_guaranteed"] == 73


def test_constants_bad_C(capsys):
    code, _, err = run_cli(["constants", "--C", "0.5"], capsys)
    assert code == 1 and "C" in err


def test_gen_verify_flow(tmp_path, capsys):
    out_file = tmp_path / "m.qi"
    trace_file = tmp_path / "m.trace"
    code, out, _ = run_cli(
        [
            "gen-mixed", "--degree", "3", "--D", "2", "--levels", "3",
            "--policy", "random", "--seed", "42",
            "--out", str(out_file), "--trace-out", str(trace_file),
        ],
        capsys,
    )
    assert code == 0 and "radius=6" in out
    assert out_file.exists() and trace_file.exists()

    code, out, _ = run_cli(["verify", "--in", str(out_file), "--pairs", "exhaustive"], capsys)
    assert code == 0
    values = dict(ln.split("=", 1) for ln in out.splitlines() if "=" in ln)
    assert Fraction(values["best_single_C"]) <= 162
    assert values["order_preserving"] == "true"
    assert int(values["coarse_surjectivity_radius"]) <= 81
    assert values["violations"] == "0"

    code, out, _ = run_cli(["verify-mixed", "--in", str(out_file), "--D", "2"], capsys)
    assert code == 0 and "passed=true" in out


def test_verify_sampled_and_candidate(tmp_path, capsys):
    path = tmp_path / "c.qi"
    write_map_file(tq.constant_map(tq.TreeShape(3), 3), path)
    code, out, _ = run_cli(
        ["verify", "--in", str(path), "--pairs", "sampled:100", "--seed", "5", "--C", "2"],
        capsys,
    )
    assert code == 0
    assert "sampling_seed=5" in out.splitlines()
    assert any(ln.startswith("violation ") and "kind=lower" in ln for ln in out.splitlines())


def test_verify_candidate_runs_all_check_kinds(tmp_path, capsys):
    shape = tq.TreeShape(3)
    collapse = tq.map_from_function(
        shape, 5, lambda v: (0,) + v[1:] if v and v[0] == 1 else v
    )
    path = tmp_path / "collapse.qi"
    write_map_file(collapse, path)
    code, out, _ = run_cli(["verify", "--in", str(path), "--C", "1"], capsys)
    assert code == 0
    kinds = {ln.split("kind=")[1].split()[0] for ln in out.splitlines() if "kind=" in ln}
    assert "samedepth" in kinds and "lower" in kinds
    # at the measured constant every family is clean
    measured = tq.measure_qi(collapse).best_single_C
    code, out, _ = run_cli(["verify", "--in", str(path), "--C", str(measured)], capsys)
    assert code == 0 and "violations=0" in out.splitlines()


def test_verify_counts_every_violation(tmp_path, capsys, monkeypatch):
    shape = tq.TreeShape(3)
    collapse = tq.map_from_function(
        shape, 5, lambda v: (0,) + v[1:] if v and v[0] == 1 else v
    )
    kinds = {}
    for name, m in (("random", tq.random_map(shape, 5, 1)), ("collapse", collapse)):
        path = tmp_path / f"{name}.qi"
        write_map_file(m, path)
        with monkeypatch.context() as mp:
            mp.setattr(tq.qi_map, "DEFAULT_MAX_VIOLATIONS", 10**6)
            full = tq.measure_qi(m, candidate_C=1).violations
            full += tq.check_geodesic_image(m, 1)
            if tq.is_order_preserving(m)[0]:
                full += tq.check_same_depth(m, 1)
        code, out, _ = run_cli(["verify", "--in", str(path), "--C", "1"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert f"violations={len(full)}" in lines
        assert "violations_shown=1000" in lines
        listed = [ln for ln in lines if ln.startswith("violation ")]
        assert listed == [v.to_line() for v in full[:1000]]
        code, out, _ = run_cli(["verify", "--in", str(path), "--C", "1", "--json"], capsys)
        data = json.loads(out)
        assert data["violations_total"] == len(full) and len(data["violations"]) == 1000
        kinds[name] = Counter(v.kind for v in full)
    assert kinds["random"] == {"upper": 1233, "lower": 1473, "geodesic": 8300}
    assert kinds["collapse"]["samedepth"] > 0


def test_verify_mixed_failure_exit(tmp_path, capsys):
    path = tmp_path / "bad.qi"
    # identity is not a step-2 mixed map: depth-1 vertices do not collapse
    write_map_file(tq.identity_map(tq.TreeShape(3), 4), path)
    code, out, _ = run_cli(["verify-mixed", "--in", str(path), "--D", "2"], capsys)
    assert code == 2 and "passed=false" in out


def test_normalize_and_approximate_flow(tmp_path, capsys):
    shape = tq.TreeShape(3)
    base = tq.random_automorphism_map(shape, 6, 3)
    f = tq.perturb_map_in_subtree(base, 5)
    f_path = tmp_path / "f.qi"
    write_map_file(f, f_path)
    g_path = tmp_path / "g.qi"
    code, out, _ = run_cli(
        ["normalize", "--in", str(f_path), "--C", "5/2", "--out", str(g_path)], capsys
    )
    assert code == 0 and "order_preserving=true" in out
    g = parse_map_file(g_path)
    assert tq.is_order_preserving(g)[0]

    # an automorphism is a mixed map at every step depth, so a small
    # override is guaranteed to validate
    auto_path = tmp_path / "auto.qi"
    write_map_file(base, auto_path)
    a_path = tmp_path / "a.qi"
    code, out, _ = run_cli(
        [
            "approximate", "--in", str(auto_path), "--C", "1",
            "--D-override", "2", "--out", str(a_path),
        ],
        capsys,
    )
    assert code == 0 and "validation=pass" in out
    approx = parse_map_file(a_path)
    assert tq.verify_mixed_structure(approx, 2).passed


def test_approximate_validation_exit(tmp_path, capsys):
    shape = tq.TreeShape(3)
    collapse = tq.map_from_function(
        shape, 4, lambda v: (0,) + v[1:] if v and v[0] == 1 else v
    )
    path = tmp_path / "collapse.qi"
    write_map_file(collapse, path)
    out_path = tmp_path / "out.qi"
    code, out, err = run_cli(
        ["approximate", "--in", str(path), "--C", "2", "--D-override", "1",
         "--out", str(out_path)],
        capsys,
    )
    assert code == 2
    assert "validation=fail kind=subtree-boundary" in out
    assert not out_path.exists()
    # --json prints the failure as one object, never a key=value line
    code, out, err = run_cli(
        ["approximate", "--in", str(path), "--C", "2", "--D-override", "1",
         "--out", str(out_path), "--json"],
        capsys,
    )
    assert code == 2 and err.startswith("error: subtree-boundary")
    assert json.loads(out) == {
        "validation": "fail", "kind": "subtree-boundary", "level": 0, "class": ".",
    }
    assert not out_path.exists()


def test_validation_failure_line_states_its_margin(tmp_path, capsys):
    # the fill-distance map of test_transforms: vertex 0 collapses 15 levels
    # onto the root against a bound of 10
    shape = tq.TreeShape(3)
    chain = FiniteSubtree([(0,) * k for k in range(22)])
    targets = sorted(boundary(chain, shape), key=lambda a: (-len(a), a))
    leaves = [v for v in ball(shape, 4) if len(v) == 4]
    image = dict(zip(leaves, targets, strict=True))

    def spread(v):
        return () if not v else lca(a for b, a in image.items() if b[: len(v)] == v)

    path = tmp_path / "spread.qi"
    write_map_file(tq.map_from_function(shape, 4, spread), path)
    code, out, _ = run_cli(
        ["approximate", "--in", str(path), "--C", "1", "--D-override", "4",
         "--out", str(tmp_path / "out.qi")],
        capsys,
    )
    assert code == 2
    assert out == "validation=fail kind=fill-distance level=0 class=. value=15 bound=10\n"


def test_verify_reads_labels_past_int16(tmp_path, capsys):
    path = tmp_path / "big.qi"
    path.write_text("tree-qi v1 degree=40000 radius=0\n. 39999\n")
    code, out, _ = run_cli(["verify", "--in", str(path)], capsys)
    assert code == 0
    assert "report=verify" in out and "degree=40000" in out and "best_single_C=1" in out


def test_compose_and_distance(tmp_path, capsys):
    shape = tq.TreeShape(3)
    m = tq.random_levelwise_permutation_map(shape, 4, 1)
    p1 = tmp_path / "m1.qi"
    write_map_file(m, p1)
    code, out, _ = run_cli(["distance", "--a", str(p1), "--b", str(p1)], capsys)
    assert code == 0 and "sup_distance=0" in out
    out_path = tmp_path / "c.qi"
    code, out, _ = run_cli(
        ["compose", "--a", str(p1), "--b", str(p1), "--out", str(out_path)], capsys
    )
    assert code == 0
    composed = parse_map_file(out_path)
    assert composed == tq.compose(m, m)


def test_oracle_agrees_with_verify(tmp_path, capsys):
    path = tmp_path / "m.qi"
    write_map_file(tq.random_map(tq.TreeShape(3), 3, 6), path)
    code, verify_out, _ = run_cli(["verify", "--in", str(path)], capsys)
    assert code == 0
    code, oracle_out, _ = run_cli(["oracle", "--in", str(path)], capsys)
    assert code == 0

    def measured(text):
        vals = dict(ln.split("=", 1) for ln in text.splitlines() if "=" in ln)
        return (
            vals["best_single_C"], vals["witness_x"], vals["witness_y"],
            vals["upper_mult"], vals["upper_add"], vals["lower_mult"], vals["lower_add"],
            vals["pairs_checked"],
        )

    assert measured(verify_out) == measured(oracle_out)


def test_gen_mixed_zero_levels(tmp_path, capsys):
    path = tmp_path / "z.qi"
    code, out, _ = run_cli(
        ["gen-mixed", "--degree", "3", "--D", "2", "--levels", "0",
         "--policy", "minimal", "--seed", "0", "--out", str(path)],
        capsys,
    )
    assert code == 0 and "radius=0" in out
    code, out, _ = run_cli(["verify", "--in", str(path)], capsys)
    assert code == 0
    assert "best_single_C=1" in out.splitlines()
    assert "pairs_checked=0" in out.splitlines()


def test_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(["verify"], capsys)
    assert code == 1
    code, _, err = run_cli(["verify", "--in", "x.qi", "--pairs", "bogus"], capsys)
    assert code == 1
    code, _, err = run_cli(["nonsense"], capsys)
    assert code == 1
    # arguments argparse accepts but the library refuses: one error line
    m4 = tmp_path / "m4.qi"
    write_map_file(tq.build_mixed(tq.TreeShape(3), 2, 2, tq.MixedPolicy.minimal())[0], m4)
    out = str(tmp_path / "x.qi")
    for args in (
        ["verify-mixed", "--in", str(m4), "--D", "0"],
        ["verify-mixed", "--in", str(m4), "--D", "3"],
        ["gen-mixed", "--degree", "3", "--D", "0", "--levels", "1", "--out", out],
        ["gen-mixed", "--degree", "2", "--D", "1", "--levels", "1", "--out", out],
        ["gen-mixed", "--degree", "3", "--D", "1", "--levels", "-1", "--out", out],
        ["constants", "--C", "1", "--D-override", "0"],
        ["approximate", "--in", str(m4), "--C", "1", "--D-override", "0", "--out", out],
        ["verify", "--in", str(m4), "--target-radius", "-1"],
        ["oracle", "--in", str(m4), "--target-radius", "-1"],
        # file-system errors on the map files themselves
        ["gen-mixed", "--degree", "3", "--D", "1", "--levels", "1",
         "--out", str(tmp_path / "missing_dir" / "x.qi")],
        ["verify", "--in", str(tmp_path)],
    ):
        code, stdout, err = run_cli(args, capsys)
        assert (code, stdout) == (1, ""), args
        assert err.startswith("error: ") and err.count("\n") == 1, args
    assert not (tmp_path / "x.qi").exists()
    code, stdout, err = run_cli(["verify", "--in", str(m4), "--pairs", "sampled:-1"], capsys)
    assert (code, stdout, err) == (1, "", "error: sample count must be >= 0\n")
    # a sample count is an optional '-' and ASCII digits, nothing int() also takes
    for n in ("1_0", "+5", " 7", "\u0663", "", "--1"):
        pairs = f"sampled:{n}"
        code, stdout, err = run_cli(["verify", "--in", str(m4), "--pairs", pairs], capsys)
        assert (code, stdout, err) == (1, "", f"error: bad --pairs value {pairs!r}\n"), pairs


def test_budget_exit(tmp_path, capsys):
    code, _, err = run_cli(
        ["gen-mixed", "--degree", "3", "--D", "2", "--levels", "20",
         "--policy", "minimal", "--seed", "1", "--out", str(tmp_path / "x.qi")],
        capsys,
    )
    assert code == 3 and "budget" in err
    # a map header past the budget is refused before its first (bad) line
    over = tmp_path / "over.qi"
    over.write_text("tree-qi v1 degree=3 radius=30\nnot a line\n")
    code, _, err = run_cli(["verify", "--in", str(over)], capsys)
    assert code == 3 and "budget" in err
    # a target ball past the budget is refused by verify and oracle alike
    small = tmp_path / "id3.qi"
    write_map_file(tq.identity_map(tq.TreeShape(3), 3), small)
    for cmd in ("verify", "oracle"):
        code, out, err = run_cli(
            [cmd, "--in", str(small), "--target-radius", "12", "--max-vertices", "1000"],
            capsys,
        )
        assert (code, out) == (3, ""), cmd
        assert "budget" in err, cmd
    # the oracle keeps every pair, so radius 9 (1,175,811 pairs) is refused
    # before its first pair
    r9 = tmp_path / "id9.qi"
    write_map_file(tq.identity_map(tq.TreeShape(3), 9), r9)
    code, out, err = run_cli(["oracle", "--in", str(r9)], capsys)
    assert (code, out) == (3, "")
    assert err == "error: 1175811 vertex pairs exceed the oracle's pair budget 1000000\n"
    # a constant map nests every same-depth pair, 12,582,909 of them at
    # radius 11: the same-depth check refuses them before the first block
    c11 = tmp_path / "const11.qi"
    write_map_file(tq.constant_map(tq.TreeShape(3), 11), c11)
    code, out, err = run_cli(
        ["verify", "--in", str(c11), "--pairs", "sampled:10", "--C", "1"], capsys
    )
    assert (code, out) == (3, "")
    assert err == "error: 12582909 nested same-depth pairs exceed the pair budget 10000000\n"


def test_the_callers_vertex_budget_is_the_only_one(tmp_path, capsys, monkeypatch):
    # with the default budget patched down to 50, the radius-6 ball (190
    # vertices) is admitted by a raised budget and refused by a lowered one,
    # by the library entry points (the map reader on both of its paths) and
    # the CLI alike
    monkeypatch.setattr(tq.layout._budgeted_ball, "__defaults__", (50,))
    monkeypatch.setattr(tq.cli, "DEFAULT_VERTEX_BUDGET", 50)
    minimal = tq.MixedPolicy.minimal()
    m, _ = tq.build_mixed(tq.TreeShape(3), 2, 3, minimal, budget=1000)
    text = tq.dump_map_text(m)
    respelled = text.replace("\n0 ", "\n00 ", 1)  # read by the line loop
    assert respelled != text
    assert tq.parse_map_text(text, 1000) == tq.parse_map_text(respelled, 1000) == m
    for lowered in (
        lambda: tq.build_mixed(tq.TreeShape(3), 2, 3, minimal, budget=100),
        lambda: tq.parse_map_text(text, 100),
        lambda: tq.parse_map_text(respelled, 100),
    ):
        with pytest.raises(tq.BudgetExceededError, match="has 190 vertices, budget is 100$"):
            lowered()
    out = str(tmp_path / "m6.qi")
    gen = ["gen-mixed", "--degree", "3", "--D", "2", "--levels", "3", "--out", out]
    runs = [
        (gen + ["--max-vertices", "1000"], 0),
        (["verify-mixed", "--in", out, "--D", "2", "--max-vertices", "1000"], 0),
        (["verify", "--in", out, "--max-vertices", "1000"], 0),
        (gen + ["--max-vertices", "100"], 3),
        (gen, 3),  # the patched CLI default
        (["verify-mixed", "--in", out, "--D", "2", "--max-vertices", "100"], 3),
        (["verify", "--in", out, "--target-radius", "7", "--max-vertices", "300"], 3),
    ]
    for args, want in runs:
        code, stdout, err = run_cli(args, capsys)
        assert code == want, (args, err)
        if want == 3:
            assert stdout == "" and "budget is" in err, args


def test_sampled_pair_budget_exit(tmp_path, capsys):
    # 75M pairs at radius 12; a sample above the 10^7 pair budget is refused
    # before any pair is drawn
    path = tmp_path / "id12.qi"
    write_map_file(tq.identity_map(tq.TreeShape(3), 12), path)
    code, _, err = run_cli(
        ["verify", "--in", str(path), "--pairs", "sampled:20000000", "--seed", "1"], capsys
    )
    assert code == 3 and "budget" in err


def test_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.qi"
    bad.write_text("tree-qi v1 degree=3 radius=1\n. .\n0 0\n1 1\n")
    code, _, err = run_cli(["verify", "--in", str(bad)], capsys)
    assert code == 1 and "missing domain vertex 2" in err


def test_over_long_label_exit(tmp_path, capsys):
    bad = tmp_path / "long.qi"
    bad.write_text("tree-qi v1 degree=3 radius=0\n. " + "1" * 5000 + "\n")
    code, out, err = run_cli(["verify", "--in", str(bad)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: line 2: bad image address: bad address: a label of 5000 digits is too long\n"
    )


def _run_subprocess(args, hashseed="0", program=("-m", "treeqi")):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    # The child runs the treeqi this process imported, from any cwd: a relative
    # PYTHONPATH entry such as `src` does not resolve from another directory.
    root = str(Path(tq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *program, *args],
        capture_output=True, text=True, env=env, check=False,
    )


def test_subprocess_determinism(tmp_path):
    out1, out2 = tmp_path / "a.qi", tmp_path / "b.qi"
    args = ["gen-mixed", "--degree", "3", "--D", "2", "--levels", "3",
            "--policy", "random", "--seed", "9"]
    r1 = _run_subprocess([*args, "--out", str(out1)], hashseed="1")
    r2 = _run_subprocess([*args, "--out", str(out2)], hashseed="77")
    assert r1.returncode == r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    v1 = _run_subprocess(["verify", "--in", str(out1), "--pairs", "sampled:200",
                          "--seed", "4"], hashseed="1")
    v2 = _run_subprocess(["verify", "--in", str(out2), "--pairs", "sampled:200",
                          "--seed", "4"], hashseed="77")
    assert v1.stdout == v2.stdout and v1.returncode == 0


# The CLI run as a child that ends stderr with the treeqi modules it loaded,
# then with the modules of these two it loaded
_LOADED = (
    "import sys\n"
    "from treeqi.cli import main\n"
    "code = main()\n"
    "print('treeqi:', *sorted(m[7:] for m in sys.modules if m.startswith('treeqi.')),"
    " file=sys.stderr)\n"
    "print('loaded:', *sorted({'_hashlib', 'numpy.ma'} & sys.modules.keys()), file=sys.stderr)\n"
    "sys.exit(code)\n"
)
# what each subcommand must not load: the construction and the conversions
# are large modules, and a process without a bytecode cache compiles every
# module it loads
_UNLOADED = {
    "verify": {"mixed_builder", "transforms", "oracle"},
    "distance": {"mixed_builder", "transforms", "oracle"},
    "compose": {"mixed_builder", "transforms", "oracle"},
    "verify-mixed": {"transforms", "oracle"},
}


def test_only_a_random_build_loads_openssl_or_numpy_ma(tmp_path):
    """`hashlib` loads OpenSSL, and `numpy.ma` is what `np.unique` of one
    array imports: each costs every process that loads it memory and time.
    Only the random policy's class seeds need `hashlib`, and no subcommand
    needs `numpy.ma`.  Each subcommand imports only the treeqi modules it
    runs (`_UNLOADED`), and the package itself imports none until a name
    is read: the tree's shape loads no numpy."""
    shape = tq.TreeShape(3)
    auto = tq.random_automorphism_map(shape, 6, 3)
    maps = {
        "auto.qi": auto,
        "pert.qi": tq.perturb_map_in_subtree(auto, 5),
        "mixed.qi": tq.build_mixed(shape, 2, 3, tq.MixedPolicy.minimal())[0],
    }
    for name, m in maps.items():
        write_map_file(m, tmp_path / name)
    auto, pert, mixed = (str(tmp_path / name) for name in maps)
    runs = [
        ["verify", "--in", pert],
        ["verify", "--in", pert, "--C", "3"],
        ["verify", "--in", pert, "--pairs", "sampled:300", "--C", "3"],
        ["normalize", "--in", pert, "--C", "5/2", "--out", str(tmp_path / "norm.qi")],
        ["approximate", "--in", auto, "--C", "1", "--D-override", "2",
         "--out", str(tmp_path / "a.qi")],
        ["verify-mixed", "--in", mixed, "--D", "2"],
        ["distance", "--a", auto, "--b", pert],
        ["compose", "--a", auto, "--b", pert, "--out", str(tmp_path / "c.qi")],
    ]
    for args in runs:
        r = _run_subprocess(args, program=("-c", _LOADED))
        assert r.returncode == 0, (args, r.stderr)
        assert r.stderr.splitlines()[-1] == "loaded:", args
        modules = set(r.stderr.splitlines()[-2].split()[1:])
        assert {"cli", "mapfile"} <= modules, args
        assert not modules & _UNLOADED.get(args[0], set()), (args, modules)
    build = ["gen-mixed", "--degree", "3", "--D", "2", "--levels", "2", "--policy", "random"]
    r = _run_subprocess([*build, "--out", str(tmp_path / "r.qi")], program=("-c", _LOADED))
    assert r.returncode == 0 and r.stderr.splitlines()[-1] == "loaded: _hashlib"
    shape = "import sys, treeqi; treeqi.TreeShape(3); print('numpy' in sys.modules)"
    r = _run_subprocess([], program=("-c", shape))
    assert (r.returncode, r.stdout) == (0, "False\n"), r.stderr
