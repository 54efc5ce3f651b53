"""Pair sources and the one pair enumerator.

Pair sets may be scanned exhaustively or sampled without replacement from a
seeded generator.  Either way pairs are processed in canonical (row-major
over the address-sorted domain) order, so a sample that happens to cover all
pairs reproduces the exhaustive result field for field.  Every pair source
is a run of ranks in that order: all of them, or the sorted ranks of a
seeded sample.  One enumerator (`_pairs`) unranks them (`_ranked`, which
also lays out the nested pairs of the same-depth check) and streams them in
fixed-size blocks together with their common-prefix lengths in the domain
and in the image, read from the two label rows of each pair
(`prefix._prefix_len`), so memory does not grow with the number of pairs
and no table is built for them.  The callers check the pair budget before
they draw (`qi_map._pair_total`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .prefix import _prefix_len

_SAMPLE_WORDS = 1 << 20  # words of the generator's stream read at once by `_set_sample`


@dataclass(frozen=True)
class PairSource:
    """How measure_qi picks vertex pairs: everything, or a seeded sample.

    A sampled source needs an int count >= 0 and an int seed, so every
    sample is drawn the same way each time."""

    mode: str
    count: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("exhaustive", "sampled"):
            raise ValueError(f"pair mode must be 'exhaustive' or 'sampled', got {self.mode!r}")
        sampled = self.mode == "sampled"
        if sampled and not all(type(v) is int for v in (self.count, self.seed)):
            got = f"{self.count!r}, {self.seed!r}"
            raise ValueError(f"a sampled pair source needs an int count and an int seed, got {got}")
        if sampled and self.count < 0:
            raise ValueError("sample count must be >= 0")

    @staticmethod
    def exhaustive() -> "PairSource":
        return PairSource("exhaustive")

    @staticmethod
    def sampled(count: int, seed: int) -> "PairSource":
        return PairSource("sampled", count, seed)

    def describe(self) -> str:
        return "exhaustive" if self.mode == "exhaustive" else f"sampled:{self.count}"


EXHAUSTIVE = PairSource.exhaustive()


def _pair_count(n: int, ps: PairSource) -> int:
    """The number of pairs the source checks among n vertices."""
    total = n * (n - 1) // 2
    return total if ps.mode == "exhaustive" else min(ps.count, total)


def _ranked(
    counts: np.ndarray, size: int, sample: np.ndarray | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Pairs laid out row by row, counts[k] of them in row k, at most `size`
    at a time: every rank in turn, or the sorted ranks `sample`, as blocks
    (row, offset in row).  A rank's row is the last row start at or below
    it, so rows with no pairs are skipped; a block may cut a row."""
    starts = np.cumsum(counts) - counts
    total = int(counts.sum()) if sample is None else len(sample)
    for at in range(0, total, size):
        ranks = np.arange(at, min(at + size, total)) if sample is None else sample[at : at + size]
        row = np.searchsorted(starts, ranks, side="right") - 1
        yield row, ranks - starts[row]


def _set_sample(rng: random.Random, total: int, k: int) -> np.ndarray:
    """sorted(rng.sample(range(total), k)) for a population that `sample`
    draws into a set and whose size has at most 32 bits, from the words
    of the generator's stream.

    There `sample` picks `_randbelow(total)` until it has k distinct
    values: each candidate is one 32-bit word cut to its top
    `total.bit_length()` bits, drawn again while it is total or more.  So
    the picks are the first k distinct candidates of the word stream.  The
    words are read a chunk at a time (`getrandbits` of 32m bits holds the
    next m words, the first lowest), until there are as many candidates as
    k distinct values take on average, and more if the first k distinct
    values are not among them yet.
    """
    bits = total.bit_length()
    chunks, have = [], 0
    need = math.ceil(-total * math.log1p(-k / total)) + 64
    while True:
        while have < need:
            words = min(_SAMPLE_WORDS, ((need - have) << bits) // total + 64)
            stream = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
            picks = np.frombuffer(stream, "<u4") >> (32 - bits)
            chunks.append(picks[picks < total])
            have += len(chunks[-1])
        # each candidate above its place in the stream, sorted: the first
        # key of each value holds the place where it was first drawn
        keys = np.concatenate(chunks).astype(np.uint64) << 32
        keys |= np.arange(have, dtype=np.uint64)
        keys.sort()
        keys = keys[np.r_[True, np.diff(keys >> 32) != 0]]
        if len(keys) >= k:  # the values first drawn no later than the k-th distinct one
            place = keys & 0xFFFFFFFF
            picked = keys[place <= np.partition(place, k - 1)[k - 1]]
            picked >>= 32
            return picked.view(np.int64)
        need = have + 2 * (k - len(keys)) + 64


def _list_sample(rng: random.Random, total: int, k: int) -> np.ndarray:
    """sorted(rng.sample(range(total), k)) for a population that `sample`
    draws into a list: its Fisher-Yates run again, with the same
    `_randbelow(total - i)` calls, on int64 arrays in place of
    `list(range(total))` and the list of picks.  A sample of the whole
    population, sorted, is the population, whatever was drawn."""
    if k == total:
        return np.arange(total, dtype=np.int64)
    pool, picks = np.arange(total, dtype=np.int64), np.empty(k, np.int64)
    left, out, randbelow = memoryview(pool), memoryview(picks), rng._randbelow
    for i in range(k):  # the unpicked values are left[: total - i]
        j = randbelow(total - i)
        out[i] = left[j]
        left[j] = left[total - i - 1]
    picks.sort()
    return picks


def _pairs(dom: np.ndarray, img: np.ndarray, ps: PairSource, size: int) -> Iterator[tuple]:
    """The source's index pairs (i < j) in canonical order, at most `size`
    at a time, as blocks (iu, ju, domain prefix length, image prefix length).

    Every source is a run of ranks over the upper triangle, row i holding
    the pairs (i, i + 1) .. (i, n - 1): an exhaustive source takes every
    rank, a sampled one the sorted ranks of its seeded draw,
    `random.Random(seed).sample(range(total), count)`.  Where `sample`
    draws into a list, its draw is replayed on arrays (`_list_sample`);
    where it draws into a set, and the total has at most 32 bits, the same
    ranks are read from the generator's words (`_set_sample`).  `_ranked`
    unranks them, and the prefix lengths (int32) are read from the rows of
    each pair in the label matrices `dom` and `img` (`_prefix_len`).
    """
    n = len(dom)
    count = _pair_count(n, ps)
    sample = None
    if ps.mode == "sampled":
        total = n * (n - 1) // 2
        rng = random.Random(ps.seed)
        # `sample` draws into a list up to this population size, else into a set
        pool = 21 + (4 ** math.ceil(math.log(count * 3, 4)) if count > 5 else 0)
        if total <= pool:
            sample = _list_sample(rng, total, count)
        elif count and total < 1 << 32:
            sample = _set_sample(rng, total, count)
        else:
            sample = np.sort(np.fromiter(rng.sample(range(total), count), np.int64, count))
    for row, k in _ranked(np.arange(n - 1, 0, -1), size, sample):
        iu, ju = row.astype(np.int32), (row + 1 + k).astype(np.int32)
        yield iu, ju, _prefix_len(dom[iu], dom[ju]), _prefix_len(img[iu], img[ju])
