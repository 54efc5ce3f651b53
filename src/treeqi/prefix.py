"""Common-prefix lengths between the rows of address matrices.

Rows are addresses padded with -1.  `_prefix_len` compares two rows label
by label, with no table to build; the pair enumerator reads every block's
prefix lengths this way.  `_PrefixIndex` ranks the rows once and keeps
the LCP array of the ranked rows, for the readers that want a whole row
at once, the rows extending a row, or the runs of rows sharing a prefix.
Kept apart from the modules that read it: a process that finds no
bytecode cache compiles each module, and the memory a compile takes grows
with the module.
"""

from __future__ import annotations

import numpy as np


_ROWS = 1 << 12  # row pairs `_prefix_len` gathers and compares at once


def _prefix_len(a: np.ndarray, b: np.ndarray, at_a=slice(None), at_b=slice(None)) -> np.ndarray:
    """Common-prefix length of the address rows a[at_a] and b[at_b], as
    int32: the first column where they differ or a row has ended.  `at_a`
    and `at_b` are slices or index arrays.  The rows are gathered and
    compared `_ROWS` pairs at a time, so only one block's rows and masks
    are held at once."""
    w = min(a.shape[1], b.shape[1])
    if isinstance(at_a, slice):
        a, at_a = a[at_a], None
    if isinstance(at_b, slice):
        b, at_b = b[at_b], None
    out = np.empty(len(a) if at_a is None else len(at_a), np.int32)
    for s in range(0, len(out), _ROWS):
        x = a[s : s + _ROWS, :w] if at_a is None else a[at_a[s : s + _ROWS], :w]
        y = b[s : s + _ROWS, :w] if at_b is None else b[at_b[s : s + _ROWS], :w]
        differ = (x != y) | (x < 0)
        out[s : s + _ROWS] = np.where(differ.any(1), differ.argmax(1), w)
    return out


class _PrefixIndex:
    """The rows of an address matrix ranked in address order, with their
    LCP array.

    Rows are ranked by one lexsort, so rows already in address order rank
    in place.  `lcp[k]` (int8) holds the common prefix of the rows of ranks
    k and k + 1 (Kasai et al., CPM 2001); the common prefix of two rows is
    the minimum of `lcp` between their ranks.  `row_prefix_len` reads one
    row against every later row at once, as running minima of `lcp`
    outward from the row's rank, in O(n), and widens them, since a
    depth-64 prefix doubled wraps in int8.  `extension_ranks` reads, for
    every row, the run of ranks along which `lcp` stays at least the row's
    depth.
    """

    def __init__(self, labels: np.ndarray, depths: np.ndarray):
        n = len(depths)
        order = np.lexsort(labels.T[::-1])
        self.n = n
        self.depths = depths.astype(np.int32)
        self.rank = np.empty(n, np.int32)
        self.rank[order] = np.arange(n, dtype=np.int32)
        rows = labels[order]
        self.lcp = np.zeros(n - 1, np.int8)
        alive = np.ones(n - 1, dtype=bool)
        for k in range(labels.shape[1]):
            np.logical_and(alive, rows[:-1, k] == rows[1:, k], out=alive)
            np.logical_and(alive, rows[:-1, k] >= 0, out=alive)
            self.lcp += alive

    def row_prefix_len(self, i: int) -> np.ndarray:
        """Common-prefix length of row i with each of rows i + 1 .. n - 1.

        By rank, these are the running minima of `lcp` from rank(i) up and
        from rank(i) down, read back at the rows' ranks."""
        r = int(self.rank[i])
        by_rank = np.empty(self.n, np.int32)  # wide enough to double a depth-64 prefix
        np.minimum.accumulate(self.lcp[r:], out=by_rank[r + 1 :])
        np.minimum.accumulate(self.lcp[:r][::-1], out=by_rank[:r][::-1])
        return by_rank[self.rank[i + 1 :]]

    def extension_ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row i, the half-open rank interval [lo, hi) of the rows that
        have row i as a prefix: the run of ranks about rank(i) along which
        `lcp` >= depth(i).  The runs at one depth are numbered by one
        cumsum, once for each depth that some row has."""
        lo = np.empty(self.n, np.int64)
        hi = np.empty(self.n, np.int64)
        run = np.zeros(self.n, np.int64)  # run[r]: the run holding rank r
        # the distinct depths by count: np.unique of one array would load numpy.ma
        for d in np.flatnonzero(np.bincount(self.depths)).tolist():
            np.cumsum(self.lcp < d, out=run[1:])
            at = self.depths == d
            ids = run[self.rank[at]]
            lo[at] = np.searchsorted(run, ids, side="left")
            hi[at] = np.searchsorted(run, ids, side="right")
        return lo, hi
