"""Common-prefix lengths between the rows of address matrices.

Rows are addresses padded with -1.  `_prefix_len` compares two rows label
by label, with no table to build; the pair enumerator reads every block's
prefix lengths this way.  `_PrefixIndex` ranks the rows once and answers
from the LCP array and its sparse table of minima, for the readers that
want a whole row at once, the rows extending a row, or many lookups.
Kept apart from the large `qi_map`: a process that finds no bytecode cache
compiles each module, and the memory a compile takes grows with the
module.
"""

from __future__ import annotations

import numpy as np


def _prefix_len(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Common-prefix length of the address rows a[..., :] and b[..., :], as
    int32: the first column where they differ or a row has ended."""
    w = min(a.shape[-1], b.shape[-1])
    a, b = a[..., :w], b[..., :w]
    differ = (a != b) | (a < 0)
    return np.where(differ.any(-1), differ.argmax(-1), w).astype(np.int32)


class _PrefixIndex:
    """Common-prefix lengths between the rows of an address matrix.

    Rows are ranked in address order by one lexsort, so rows already in
    that order (the ball's) rank in place.  The LCP array `table[0]` holds
    the common prefix of the rows of ranks k and k + 1 (Kasai et al., CPM
    2001); the common prefix of two rows is the minimum of the LCP array
    between their ranks.  `row_prefix_len` reads one row against every
    later row at once, as running minima of the LCP array outward from the
    row's rank, in O(n).  `prefix_len` reads any pairs in O(1) each from
    the sparse table of minima `table` (Bender & Farach-Colton, LATIN
    2000).  Memory is n log n bytes; both widen the int8 entries before
    they return them, since a depth-64 prefix doubled wraps in int8.
    """

    def __init__(self, labels: np.ndarray, depths: np.ndarray):
        n = len(depths)
        order = np.lexsort(labels.T[::-1])
        self.n = n
        self.depths = depths.astype(np.int32)
        self.rank = np.empty(n, np.int32)
        self.rank[order] = np.arange(n, dtype=np.int32)
        rows = labels[order]
        levels = max(1, (n - 1).bit_length())
        table = np.zeros((levels, n), np.int8)  # table[j, k] = min(lcp[k : k + 2**j])
        alive = np.ones(n - 1, dtype=bool)
        for k in range(labels.shape[1]):
            np.logical_and(alive, rows[:-1, k] == rows[1:, k], out=alive)
            np.logical_and(alive, rows[:-1, k] >= 0, out=alive)
            table[0, : n - 1] += alive
        self.log2 = np.zeros(n, np.int32)
        for j in range(1, levels):
            h, width = 1 << (j - 1), n - (1 << j)
            np.minimum(table[j - 1, :width], table[j - 1, h : h + width], out=table[j, :width])
            self.log2[1 << j :] += 1
        self.table = table
        self._flat = table.ravel()

    def row_prefix_len(self, i: int) -> np.ndarray:
        """Common-prefix length of row i with each of rows i + 1 .. n - 1.

        By rank, these are the running minima of `lcp` from rank(i) up and
        from rank(i) down, read back at the rows' ranks."""
        r, lcp = int(self.rank[i]), self.table[0, : self.n - 1]
        by_rank = np.empty(self.n, np.int32)  # wide enough to double a depth-64 prefix
        np.minimum.accumulate(lcp[r:], out=by_rank[r + 1 :])
        np.minimum.accumulate(lcp[:r][::-1], out=by_rank[:r][::-1])
        return by_rank[self.rank[i + 1 :]]

    def prefix_len(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Common-prefix length of rows i[k] and j[k] (the full depth if equal)."""
        ri, rj = self.rank[i], self.rank[j]
        lo = np.minimum(ri, rj)
        hi = np.maximum(ri, rj)
        span = hi - lo
        lvl = self.log2[span]
        base = lvl * self.n
        out = np.minimum(self._flat[base + lo], self._flat[base + hi - (1 << lvl)])
        return np.where(span == 0, self.depths[i], out)

    def extension_ranks(self, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rank interval [lo, hi] of the rows that have row i[k] as a prefix."""
        d = self.depths[i]
        lo = self.rank[i].astype(np.int64)
        hi = lo.copy()
        last = self.n - 1
        for j in range(self.table.shape[0] - 1, -1, -1):
            w = 1 << j
            row = self.table[j]
            up = (hi + w <= last) & (row[np.minimum(hi, last)] >= d)
            hi += w * up
            down = (lo >= w) & (row[np.maximum(lo - w, 0)] >= d)
            lo -= w * down
        return lo, hi
