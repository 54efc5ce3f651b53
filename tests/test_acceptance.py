"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here; the shared map families are built once per session.
"""

import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import treeqi as tq
from treeqi import MixedPolicy, PairSource, TreeShape
from treeqi.mapfile import write_map_file
from treeqi.oracle import oracle_measure

D3 = TreeShape(3)

BUILD_SEEDS = range(100)
PERTURB_SEEDS = range(100)
GEODESIC_SAMPLE = 2000  # seeded sampled pairs per map for the geodesic check


def _report(criterion, detail):
    print(f"CRITERION {criterion}: PASS  {detail}")


@pytest.fixture(scope="session")
def builds():
    """criterion 3 family: build_mixed(d=3, D=2, n=4), 100 seeds."""
    out = []
    for seed in BUILD_SEEDS:
        m, trace = tq.build_mixed(D3, 2, 4, MixedPolicy.random(seed))
        out.append((seed, m, trace))
    return out


@pytest.fixture(scope="session")
def perturbed():
    """criterion 5 family: automorphism composed with <=2-step in-subtree
    perturbations, plus the measured constant and the normalization."""
    out = []
    for seed in PERTURB_SEEDS:
        base = tq.random_automorphism_map(D3, 6, seed)
        f = tq.perturb_map_in_subtree(base, 10_000 + seed)
        C = tq.measure_qi(f).best_single_C
        g = tq.normalize_order_preserving(f, C)
        out.append((seed, f, C, g))
    return out


def test_criterion_1_isoperimetry_exactness():
    t0 = time.time()
    checked = 0
    for degree in (3, 4, 5):
        shape = TreeShape(degree)
        rng = random.Random(degree)
        for _ in range(1000):
            size = rng.randrange(1, 201)
            if rng.random() < 0.4:
                local_root = ()
            else:
                dep = rng.randrange(1, 6)
                local_root = (rng.randrange(degree),) + tuple(
                    rng.randrange(degree - 1) for _ in range(dep - 1)
                )
            target = size * (degree - 2) + (2 if local_root == () else 1)
            s = tq.grow_subtree(local_root, target, MixedPolicy.random(rng.randrange(2**30)), shape)
            assert len(s) == size
            measured = len(tq.boundary(s, shape))
            assert measured == target, (degree, size, local_root)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"isoperimetry sweep took {elapsed:.1f}s"
    _report(1, f"{checked} random subtrees, |boundary| exact for d in {{3,4,5}}, {elapsed:.1f}s")


def test_criterion_2_isometry_baseline():
    t0 = time.time()
    maps = [tq.identity_map(D3, 8)] + [
        tq.random_levelwise_permutation_map(D3, 8, seed) for seed in range(50)
    ]
    for m in maps:
        rep = tq.verify_map(m)  # exhaustive pairs, target = domain radius
        assert rep.best_single_C == 1
        assert rep.coarse_surjectivity_radius == 0
        assert rep.order_preserving is True
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"isometry baseline took {elapsed:.1f}s"
    _report(2, f"51 isometries on the radius-8 ball, C=1, coarse radius 0, {elapsed:.1f}s")


def test_criterion_3_mixed_construction_guarantees(builds):
    t0 = time.time()
    K, K2, TWO_K2 = 9, 81, 162
    for seed, m, _ in builds:
        report = tq.verify_mixed_structure(m, 2)
        assert report.passed, (seed, [w.to_line() for w in report.witnesses])
        assert max(report.multiplicity_by_level.values()) <= K, seed
        assert report.image_step_min >= 1 and report.image_step_max <= K2, seed
        measured = tq.measure_qi(m, max_lca_depth=4).best_single_C
        assert measured <= TWO_K2, (seed, measured)
        assert tq.coarse_surjectivity_radius(m, 6) <= K2, seed
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(3, f"100 builds (d=3, D=2, n=4): structure, multiplicity<=9, "
               f"steps in [1,81], C<=162, coarse<=81, {elapsed:.1f}s")


def test_criterion_4_property_suites(builds, perturbed):
    t0 = time.time()
    pool = [(f"build:{seed}", m) for seed, m, _ in builds]
    pool += [(f"normalized:{seed}", g) for seed, _, _, g in perturbed]
    for tag, m in pool:
        C = tq.measure_qi(m).best_single_C
        geo = tq.check_geodesic_image(
            m, C, PairSource.sampled(GEODESIC_SAMPLE, hash_seed(tag))
        )
        assert geo == [], (tag, geo[:3])
        same = tq.check_same_depth(m, C)
        assert same == [], (tag, same[:3])
    elapsed = time.time() - t0
    _report(4, f"{len(pool)} maps, geodesic-image and same-depth checks at the "
               f"measured C, zero violations, {elapsed:.1f}s")


def hash_seed(tag):
    # stable small seed per map family member (no PYTHONHASHSEED dependence)
    return sum(ord(c) for c in tag) % 100_000


def test_criterion_5_normalization_contract(perturbed):
    t0 = time.time()
    for seed, f, C, g in perturbed:
        assert C <= 3, (seed, C)
        ok, _ = tq.is_order_preserving(g)
        assert ok, seed
        assert tq.normalize_order_preserving(g, C) == g, seed
        assert tq.sup_distance(f, g) <= 3 * C**3 + 2 * C, seed
    elapsed = time.time() - t0
    _report(5, f"100 perturbed maps: normalization order-preserving, idempotent, "
               f"within 3C^3+2C, {elapsed:.1f}s")


def test_criterion_6_guaranteed_regime():
    t0 = time.time()
    for seed in range(20):
        g = tq.random_automorphism_map(D3, 14, seed)
        f, bundle, _ = tq.approximate_by_mixed(g, 1)  # D_guaranteed = 7, n = 2
        assert bundle.D_used == 7 and bundle.final_bound == 13
        assert f.domain_radius == 14
        assert tq.sup_distance(f, g) <= 13, seed
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"guaranteed regime took {elapsed:.1f}s"
    _report(6, f"20 radius-14 automorphisms at C=1, D=7: validation clean, "
               f"sup distance <= 13, {elapsed:.1f}s")


def test_criterion_7_round_trip_empirical_D(builds):
    t0 = time.time()
    passes = 0
    distances = []
    for seed, g, _ in builds:
        C = tq.measure_qi(g).best_single_C
        try:
            f, bundle, _ = tq.approximate_by_mixed(g, C, 2)
        except tq.ValidationFailure:
            continue
        passes += 1
        sup = tq.sup_distance(f, g)
        distances.append(sup)
        assert sup <= bundle.final_bound, seed
    elapsed = time.time() - t0
    worst = max(distances) if distances else None
    _report(7, f"round trip at D=2: {passes}/100 validations passed, "
               f"max achieved distance {worst}, all within final_bound, {elapsed:.1f}s")


def test_criterion_8_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(8)
    for i in range(20):
        radius = rng.choice([3, 4, 5])
        m = tq.random_map(D3, radius, 800 + i)
        n = len(m.domain)
        total = n * (n - 1) // 2
        exhaustive = tq.measure_qi(m)
        sampled = tq.measure_qi(m, PairSource.sampled(total, 900 + i))
        assert exhaustive.measurement_fields() == sampled.measurement_fields(), i
        assert oracle_measure(m).measurement_fields() == exhaustive.measurement_fields(), i
    elapsed = time.time() - t0
    _report(8, f"20 random maps (radius<=5): sampled-over-all-pairs == exhaustive "
               f"== brute-force oracle, field for field, {elapsed:.1f}s")


def _run(args, hashseed, cwd):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    # The child runs the treeqi this process imported, from any cwd: a relative
    # PYTHONPATH entry such as `src` does not resolve from another directory.
    root = str(Path(tq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "treeqi", *args],
        capture_output=True, text=True, env=env, cwd=cwd, check=False,
    )


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.time()
    shape = TreeShape(3)
    base = tq.random_automorphism_map(shape, 6, 1)
    write_map_file(base, tmp_path / "auto.qi")
    write_map_file(tq.perturb_map_in_subtree(base, 2), tmp_path / "pert.qi")

    invocations = [
        ["constants", "--C", "1"],
        ["constants", "--C", "5/2", "--json"],
        ["gen-mixed", "--degree", "3", "--D", "2", "--levels", "4",
         "--policy", "random", "--seed", "42", "--out", "m.qi", "--trace-out", "m.trace"],
        ["gen-mixed", "--degree", "3", "--D", "1", "--levels", "4",
         "--policy", "minimal", "--seed", "0", "--out", "mm.qi"],
        ["gen-mixed", "--degree", "4", "--D", "2", "--levels", "2",
         "--policy", "deepest", "--seed", "0", "--out", "md.qi"],
        ["verify", "--in", "m.qi", "--pairs", "exhaustive"],
        ["verify", "--in", "m.qi", "--pairs", "sampled:500", "--seed", "7", "--C", "162"],
        ["verify", "--in", "m.qi", "--pairs", "exhaustive", "--json"],
        ["verify-mixed", "--in", "m.qi", "--D", "2"],
        ["normalize", "--in", "pert.qi", "--C", "5/2", "--out", "g.qi"],
        ["approximate", "--in", "auto.qi", "--C", "1", "--D-override", "2",
         "--out", "a.qi", "--trace-out", "a.trace"],
        ["compose", "--a", "auto.qi", "--b", "m.qi", "--out", "c.qi"],
        ["distance", "--a", "m.qi", "--b", "mm.qi"],
        ["oracle", "--in", "mm.qi"],
    ]
    # --json twins of the reports above pinned in one view only; a twin
    # rewrites its text twin's files with the same bytes
    invocations += [
        [*args, "--json"]
        for args in (
            invocations[2],  # gen-mixed
            *invocations[8:],  # verify-mixed .. oracle
        )
    ]
    # sha256 of each invocation's stdout and of each tracked file, pinned so
    # that an output change between versions fails here, not only a change
    # between two runs of one version
    stdout_sha256 = [
        "bc078b31ee68b76065af09c50732d14614026179badc49b45add379d153f9bf3",
        "aa8b7e2a848832243eb60a7138e82c141a9408b398f7112ce7f9805e6fffa4d6",
        "a899e24fd609b4a296d1e3be9657e54bd5338073320b17bde75fcd178541a700",
        "5032295d1492e42633191c8da0f5cdc9b07df732811cf629b81533295b4c3765",
        "988b0dee9a9657cff206a04b4c6c496428c3506deed2c4c0269b10aa57d245bd",
        "e4fbf22d131e3bc63c5ed83f516296e87972d0bd2ff1d3b591c23ace4c9e6ef0",
        "78090a9b355cabe54ba0b88924a5fb66d870e6d5f8d23d5359450a6316698483",
        "62c5c58abc2b0c004e1d6d122a6edab63817b9b649f280be342d147540f5e3a5",
        "d7bc00d6978369f551a284a7e3b864077739856ea190510ef217edad6bac1d29",
        "40713602d505d8932a68afc007460ee95dcc6a955f12799bf3ac1fd0a86d51b7",
        "8f503bf5dd58b5c16dc9a67025b6ed0340ea3f5fe9c165b833c7a410335ac841",
        "5db7ede4d4639643b0d49be29363df2d9ae9402b9d677611cdc5f4ffae17084b",
        "6456287909198260c4308e1cdfb20a942bafa7b223e25a640010930215c85953",
        "d2ef4d8a3cd7ff0a92eb7495c02ca0b67b36ef7600c0be2b7f179fe76c4e76ff",
        "27bc1f54fd48911f0113023487eb8106a94d76f5a646c2caed87882b7f0eb688",
        "df3c74a4a09f29c59c6fec77125417ed0542b5dea0249860edd0e88938355838",
        "d4b8c2ec8aedd7adeb311c3597c64a244fc4e2ec10544f78dd8ac3fad3b49388",
        "a856d64cdc07299b391c6e623004e08f5d524cb20002fa74c91c782c617be3ac",
        "510a09aecf3e862707a2167c10f18d131a51e9292e84c16a6d4fc30634f5afad",
        "e9aa8fe3b52ca26b706df072b9b195398bce3f131d8f5d9b2ecb1aad1756e0bd",
        "3c2e9b391fc1d43f745ae0fefbbb98c398786ac022e3282075df6b4ebb8f632e",
    ]
    file_sha256 = {
        "m.qi": "d523a647998b0421393b9070d948c7c01c836f2083fa35727f8876d53f21dc22",
        "m.trace": "d708072699b94347df6b1f415ed0c1692261fe576dc64453ce25b8427e398eb5",
        "mm.qi": "f3fd3b96eeeba104aad6ab1686214ad686f66c2eb3dcc7c1925af5fe77f260ea",
        "md.qi": "34e5dacf4419fcd351bae5e14e8258491f40851b3e4e6c2f362b307fc1693943",
        "g.qi": "9ac4f0de19fc45a13c2cf7006b0bb944e7ae34172a7d128c72bb5a638983026f",
        "a.qi": "25471ec8e88a73db4352a563159673fd6b0b10849689a672b5d82786651a874a",
        "a.trace": "e8bf62aa9c46d82d5884c348cdcb4977980c842bf3ccd374d4c15fc9fb2dbd8f",
        "c.qi": "aba7776c440da792448018ca4a8ec950e7a456518cd03d4b2eda3f0892ae1342",
    }

    snapshots = []
    for attempt, hashseed in enumerate((1, 4242)):
        workdir = tmp_path / f"run{attempt}"
        workdir.mkdir()
        for name in ("auto.qi", "pert.qi"):
            (workdir / name).write_bytes((tmp_path / name).read_bytes())
        transcript = []
        for args in invocations:
            proc = _run(args, hashseed, workdir)
            assert proc.returncode == 0, (args, proc.stderr)
            transcript.append((tuple(args), proc.stdout))
        files = {name: (workdir / name).read_bytes() for name in file_sha256}
        snapshots.append((transcript, files))
    assert snapshots[0] == snapshots[1]
    transcript, files = snapshots[0]
    for (args, stdout), digest in zip(transcript, stdout_sha256, strict=True):
        assert hashlib.sha256(stdout.encode()).hexdigest() == digest, (args, stdout)
    for name, digest in file_sha256.items():
        assert hashlib.sha256(files[name]).hexdigest() == digest, name
    elapsed = time.time() - t0
    _report(9, f"{len(invocations)} CLI invocations rerun under different hash seeds: "
               f"byte-identical stdout and files matching the pinned digests, {elapsed:.1f}s")
