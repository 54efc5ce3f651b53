"""Print one sha256 line per build of a fixed sweep of mixed constructions.

    python tools/build_sweep.py > sweep.txt

Run with treeqi importable (for example PYTHONPATH=src).  The sweep covers
degrees 3-5 and 11 (two-digit labels), step depths 1-3 and every number of
levels up to a small radius, each with the minimal, the deepest and 34
seeded random policies (1,260 builds).  Each line digests, in order: the
map file text, the trace text, the map rebuilt by replaying the parsed
trace, the `verify-mixed` report as text lines and as JSON,
`approximate_by_mixed` at the build's step D and at D+1 (the map and trace
text, or the failure), the map text written again after parsing it and
after parsing it respelled with a leading zero on every label and CRLF
newlines (which the map reader's line loop reads), the trace text written
again after parsing it and after parsing it respelled alike (so every
address below the root is read whole by `parse_address`), the exhaustive `measure_qi` measurement fields without and with
candidate C = 1, the same fields over 500 pairs sampled with a seed taken
from the build's label (drawn into a list on the smallest balls and into
a set on the others), the geodesic-image check at C = 1 (exhaustive up to
2,000 pairs, else 2,000 pairs sampled with seed 0) and the same-depth
check at C = 1 and at C = 11/10, whose distance thresholds are 5 and 6,
odd and even (or the error that refuses it), and the `verify-mixed`
report as text lines and as JSON and the same seven measurements and
checks of a mutated copy of the map (1-4 image swaps and one image one label
deeper, seeded from the build's label), which covers failing reports and
the order of their witnesses and violations.
Two checkouts produce the same bytes exactly when every one of these
outputs agrees, so a change to the construction, to its structural check,
to the measurement, to the pair draw, to the pair walks of the two checks
or to either file format, in either direction, is checked byte for byte
with one `diff` of two sweeps.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
import warnings
from fractions import Fraction

import treeqi as tq

RADIUS = {3: 8, 4: 6, 5: 4, 11: 2}  # the largest radius swept per degree
RANDOM_SEEDS = 34
APPROXIMATION_C = 1
MEASURE_CANDIDATES = (None, 1)
CHECK_C = 1
SAME_DEPTH_C = (1, Fraction(11, 10))  # floor(4C^3 + C) = 5 and 6
GEODESIC_PAIRS = 2000  # exhaustive up to this many pairs, else a sample of this many
SAMPLED_PAIRS = 500


def _approximation(m, step: int) -> str:
    try:
        f, _, trace = tq.approximate_by_mixed(m, APPROXIMATION_C, step, check_promise=False)
    except tq.TreeQIError as e:
        return f"{type(e).__name__}: {e}"
    return tq.dump_map_text(f) + trace.to_text()


def _respelled(text: str) -> str:
    """A map or trace text with a leading zero on every number after the
    header ('0.1' -> '00.01', 'level=1' -> 'level=01') and CRLF newlines."""
    head, *body = text.splitlines()
    return "\r\n".join([head, *(re.sub(r"[0-9]+", r"0\g<0>", line) for line in body)]) + "\r\n"


def _mutated(m, rnd: random.Random):
    """m with 1-4 image swaps (the root's included), then one image below
    the depth cap one label deeper."""
    table = dict(m.table)
    verts = list(m.domain)
    for _ in range(rnd.randint(1, 4)):
        a, b = rnd.sample(verts, 2)
        table[a], table[b] = table[b], table[a]
    v = rnd.choice([v for v in verts if len(table[v]) < tq.MAX_DEPTH])
    table[v] += (rnd.randrange(m.shape.child_label_count(table[v])),)
    return tq.FiniteTreeMap(m.shape, m.domain_radius, table)


def _verified(m, step: int) -> list[str]:
    rep = tq.verify_mixed_structure(m, step)
    return ["\n".join(rep.to_lines()), json.dumps(rep.to_json_dict(), sort_keys=True)]


def _measured(m, seed: int) -> list[str]:
    """The measurements, exhaustive and sampled with `seed`, and both checks of m."""
    sampled = tq.PairSource.sampled(SAMPLED_PAIRS, seed)
    out = [
        repr(tq.measure_qi(m, source, candidate_C=C).measurement_fields())
        for source in (tq.EXHAUSTIVE, sampled)
        for C in MEASURE_CANDIDATES
    ]
    n = len(m.domain)
    source = tq.EXHAUSTIVE
    if n * (n - 1) // 2 > GEODESIC_PAIRS:
        source = tq.PairSource.sampled(GEODESIC_PAIRS, 0)
    out.append(_violations(tq.check_geodesic_image(m, CHECK_C, source)))
    for C in SAME_DEPTH_C:
        try:
            out.append(_violations(tq.check_same_depth(m, C)))
        except tq.TreeQIError as e:
            out.append(f"{type(e).__name__}: {e}")
    return out


def _violations(found) -> str:
    return repr((found.total, [(v.x, v.y, v.kind, v.value, v.at) for v in found]))


def build_outputs(label: str, shape, step: int, levels: int, policy) -> list[str]:
    m, trace = tq.build_mixed(shape, step, levels, policy)
    text = trace.to_text()
    replayed, _ = tq.build_mixed(
        shape, step, levels, tq.MixedPolicy.explicit(tq.BuildTrace.from_text(text))
    )
    map_text = tq.dump_map_text(m)
    mutated = _mutated(m, random.Random(label))
    seed = int.from_bytes(hashlib.sha256(label.encode()).digest()[:4], "big")
    return [
        map_text,
        text,
        tq.dump_map_text(replayed),
        *_verified(m, step),
        _approximation(m, step),
        _approximation(m, step + 1),
        tq.dump_map_text(tq.parse_map_text(map_text)),
        tq.dump_map_text(tq.parse_map_text(_respelled(map_text))),
        tq.BuildTrace.from_text(text).to_text(),
        tq.BuildTrace.from_text(_respelled(text)).to_text(),
        *_measured(m, seed),
        *_verified(mutated, step),
        *_measured(mutated, seed),
    ]


def sweep():
    """(label, shape, step, levels, policy) for every build of the sweep."""
    for degree, radius in RADIUS.items():
        shape = tq.TreeShape(degree)
        for step in (1, 2, 3):
            for levels in range(1, radius // step + 1):
                policies = [tq.MixedPolicy.minimal(), tq.MixedPolicy.deepest_feasible()]
                policies += [tq.MixedPolicy.random(seed) for seed in range(RANDOM_SEEDS)]
                for policy in policies:
                    label = f"d={degree} D={step} levels={levels} policy={policy.describe()}"
                    yield label, shape, step, levels, policy


def main() -> int:
    warnings.simplefilter("ignore")
    for label, shape, step, levels, policy in sweep():
        digest = hashlib.sha256()
        for part in build_outputs(label, shape, step, levels, policy):
            digest.update(part.encode() + b"\0")
        print(f"{digest.hexdigest()} {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
