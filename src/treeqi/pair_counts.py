"""Pair keys counted by group, for the exhaustive constant measurement
(`qi_map.measure_qi`): vertices times thresholds of work, not pairs."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from .prefix import _PrefixIndex
    from .qi_map import _Ball

# Cells (one vertex under one image-prefix threshold) grouped at once
_GROUP_BLOCK = 1 << 13


class _Groups:
    """The exhaustive pairs of one map, counted by group and never listed.

    Two vertices have domain LCA depth >= a and image prefix length >= b
    exactly when they lie in one group at (a, b): vertices of depth >= a
    below one ancestor at depth a (`ancestors[:, a]`) whose images lie in
    one run of ranks with LCP (`lcp`) >= b.  A group is read as the
    number of its members in each cell (du, iu), packed as du * base + iu;
    base exceeds twice the deepest image, so the sum of two cells packs
    (du + dv, iu + iv), and a group's pairs by that sum come from the
    pairs of its cells.  `exact_counts` takes the pairs whose LCA depth
    and prefix are exactly (a, b) by 2-D inclusion-exclusion, and
    `partners` finds the vertices that have a pair among any such counts.
    """

    def __init__(self, ball: _Ball, img: _PrefixIndex):
        self.ball = ball
        self.rank = img.rank
        self.base = 2 * int(img.depths.max()) + 1
        self.cells = ball.depths.astype(np.int64) * self.base + img.depths
        self.sums = (2 * ball.radius + 1) * self.base  # packed sums of two cells
        self.nb = int(img.lcp.max(initial=-1)) + 1  # no pair has a longer image prefix
        # runs[b, r]: the run at threshold b that holds the image of rank r
        self.runs = np.zeros((self.nb, img.n), np.int32)
        np.cumsum(img.lcp < np.arange(self.nb)[:, None], axis=1, out=self.runs[:, 1:])

    def at(self, a: int, rows: np.ndarray, members: bool = False) -> Iterator[tuple]:
        """The groups at (a, b) for each b of `rows` that hold a pair, a
        block of rows at a time: at most _GROUP_BLOCK cells of one vertex
        under one b each, from one sort of the vertices of depth >= a.

        Yields the block's rows; per entry (one cell of one group), its
        slot k * sums + cell for the block's k-th row, to which a partner's
        cell adds the pair's slot in the block's table by (b, cell sum),
        its cell and its member count; every pair e < f of entries of one
        group; and, if asked for, the vertex and the entry of each member
        (one vertex in the group of one b).
        """
        below = np.flatnonzero(self.ball.depths >= a)
        anc = self.ball.ancestors[below, a]
        order = np.lexsort((self.rank[below], anc))
        below, ranks = below[order], self.rank[below[order]]
        split = anc[order][1:] != anc[order][:-1]  # a new ancestor starts a group
        step = max(1, _GROUP_BLOCK // len(below))
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            runs = np.take(self.runs[block], ranks, axis=1)
            new = np.ones(runs.shape, bool)  # a group starts here
            new[:, 1:] = (runs[:, 1:] != runs[:, :-1]) | split
            new = new.ravel()  # the rows one after another, b by b
            group = np.cumsum(new, dtype=np.int32)
            alone = new.copy()  # alone in its group: the next entry starts one too
            alone[:-1] &= new[1:]
            kept = np.flatnonzero(~alone)
            verts = below[kept % len(below)]
            ent, *inv, count = np.unique(
                group[kept] * np.int64(self.sums) + self.cells[verts],
                return_inverse=members,
                return_counts=True,
            )
            egroup, cell = np.divmod(ent, self.sums)
            slot = np.flatnonzero(new)[egroup - 1] // len(below) * self.sums + cell
            edges = np.ones(len(ent) + 1, bool)  # where a group's entries start or end
            np.not_equal(egroup[1:], egroup[:-1], out=edges[1:-1])
            edges = np.flatnonzero(edges)
            first = np.arange(1, len(ent) + 1)  # each entry's first partner f > e
            span = np.repeat(edges[1:], np.diff(edges)) - first
            shift = (np.cumsum(span) - span - first).astype(np.int32)
            e = np.repeat(np.arange(len(ent), dtype=np.int32), span)
            f = np.arange(len(e), dtype=np.int32) - np.repeat(shift, span)
            yield block, slot, cell, count, e, f, *((verts, *inv) if members else ())

    def exact_counts(self, top: int) -> np.ndarray:
        """Rows (a, b, packed cell sum, count) of an int64 matrix, one per
        nonzero count of the pairs whose LCA depth a <= top and image prefix
        b are exact; such a pair's key is its cell sum less (2a, 2b)."""
        rows = np.arange(self.nb)
        upper = 0  # G(a + 1, .), none past the radius
        out = []
        for a in range(min(top + 1, self.ball.radius), -1, -1):
            g = np.zeros((self.nb + 1, self.sums))  # G(a, nb) = 0
            for block, slot, cell, count, e, f in self.at(a, rows):
                count = count.astype(float)  # bincount sums floats, exact below 2**53
                w = count[e]
                w *= count[f]
                slots = slot[e]
                slots += cell[f]
                length = len(block) * self.sums
                within = np.bincount(slot + cell, count * (count - 1) / 2, length)  # in one entry
                g[block] += (np.bincount(slots, w, length) + within).reshape(-1, self.sums)
            g = np.rint(g).astype(np.int64)
            if a <= top:
                d = g - upper
                exact = d[:-1] - d[1:]
                b, s = np.nonzero(exact)
                out.append(np.stack([np.full_like(b, a), b, s, exact[b, s]]))
            upper = g
        return np.concatenate(out, axis=1) if out else np.zeros((4, 0), np.int64)

    def partners(self, records: np.ndarray) -> np.ndarray:
        """Per vertex, how many partners it has in the pairs that `records`
        (rows of `exact_counts`) count.

        Such a pair lies in one group at each (a', b') <= (a, b), so the
        partners of a member in its groups, other than itself, each weighed
        by the 2-D difference W at (a', b') of the records' indicator, add
        up to its partners in the records.  Only the (a', b') where W is not
        zero are grouped.
        """
        out = np.zeros(len(self.rank))
        rec_a, rec_b, rec_s = records[:3]
        prev = np.zeros((self.nb + 1, self.sums), np.int8)
        for a in range(min(int(rec_a.max(initial=-1)) + 1, self.ball.radius) + 1):
            cur = np.zeros_like(prev)
            cur[rec_b[rec_a == a], rec_s[rec_a == a]] = 1
            d = cur - prev
            w = d.copy()
            w[1:] -= d[:-1]
            prev = cur
            rows = np.flatnonzero(w[: self.nb].any(axis=1))
            for block, slot, cell, count, e, f, verts, inv in self.at(a, rows, members=True):
                wb = w[block].ravel()
                wv = wb[slot[e] + cell[f]]
                t = np.bincount(e, count[f] * wv, len(count))
                t += np.bincount(f, count[e] * wv, len(count))
                t += (count - 1) * wb[slot + cell]  # the other members of its own entry
                out += np.bincount(verts, t[inv], len(out))
        return out
