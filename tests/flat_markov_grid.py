"""A flat reference for the per-order Markov tables of eclab.complexity.

`FlatMarkovGrid` holds every quantized Markov entry (m, a0, a1, ai) with
m <= m_max in one set of flat arrays, built by gathering per-(m, a) rows
from scalar math calls, and evaluates the exact entropies, the closed form
and -log2 p(x) over those arrays. The tests compare the production tables,
which work on one order at a time, with it, and read their references from
it, so the two share no code.
"""

import functools
import math

import numpy as np

from eclab.codec import nat_code_len
from eclab.ensembles import MarkovQuantized
from eclab.processes import binary_entropy

CLOSED_LENGTHS = 8  # lengths whose closed-form tables a grid keeps


class FlatMarkovGrid:
    """Flat arrays over all (m, a0, a1, ai) combinations, m <= m_max.

    Per-parameter log and entropy tables come from scalar math calls and
    are gathered into arrays, so table-based likelihoods are bit-identical
    to the scalar ones in ensembles.neg_log2_prob and ensembles.entropy.
    """

    def __init__(self, m_max: int):
        ms, a0s, a1s, ais = [], [], [], []
        for m in range(1, m_max + 1):
            k = (1 << m) - 1
            vals = np.arange(1, k + 1, dtype=np.int64)
            ms.append(np.full(k * k * k, m, dtype=np.int64))
            a0s.append(np.repeat(vals, k * k))
            a1s.append(np.tile(np.repeat(vals, k), k))
            ais.append(np.tile(vals, k * k))
        self.m = np.concatenate(ms)
        self.a0 = np.concatenate(a0s)
        self.a1 = np.concatenate(a1s)
        self.ai = np.concatenate(ais)
        self.size = len(self.m)
        # desc of an order-m entry, less the tag and length prefix 3 + |delta(n)|
        self.m_desc = [0] + [nat_code_len(m) + 3 * m for m in range(1, m_max + 1)]
        self.descbase = np.array(self.m_desc, dtype=np.int64)[self.m]
        # one row per (m, a), m ascending then a; row of (m, a) is 2^m - m - 2 + a
        log1, log0, hof, prob = [], [], [], []
        for m in range(1, m_max + 1):
            for a in range(1, 1 << m):
                log1.append(m - math.log2(a))  # -log2(a / 2^m)
                log0.append(m - math.log2((1 << m) - a))  # -log2(1 - a / 2^m)
                hof.append(binary_entropy(a / (1 << m)))
                prob.append(a / (1 << m))
        log1, log0, hof, prob = (np.array(t) for t in (log1, log0, hof, prob))
        row_base = (1 << self.m) - self.m - 2
        r0, r1, ri = row_base + self.a0, row_base + self.a1, row_base + self.ai
        self.c01, self.c00, self.h0, self.q0 = log1[r0], log0[r0], hof[r0], prob[r0]
        self.c10, self.c11, self.h1, self.q1 = log1[r1], log0[r1], hof[r1], prob[r1]
        self.li1, self.li0, self.hinit, self.pinit = log1[ri], log0[ri], hof[ri], prob[ri]
        # per m: the slice of its entries, the slice of its (a0, a1) blocks and
        # the row tables (-log2 q, -log2 (1 - q)) over a = 1 .. 2^m - 1
        self.m_slices: dict[int, slice] = {}
        self.block_slices: dict[int, slice] = {}
        self.rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        start = bstart = 0
        for m in range(1, m_max + 1):
            k = (1 << m) - 1
            self.m_slices[m] = slice(start, start + k**3)
            self.block_slices[m] = slice(bstart, bstart + k * k)
            r = (1 << m) - m - 1
            self.rows[m] = (log1[r : r + k], log0[r : r + k])
            start += k**3
            bstart += k * k
        # q0, q1 per (m, a0, a1) block; ai varies fastest, so blocks are runs
        first = np.flatnonzero(self.ai == 1)
        self._block_first = first
        self._block_q0, self._block_q1 = self.q0[first], self.q1[first]
        self._block_len = np.diff(first, append=self.size)
        # per length, most recently used last: (H, block min H, block max H)
        self._closed: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def entropies(self, n: int, sl: slice = slice(None)) -> np.ndarray:
        """H over the grid entries in sl by the same forward recursion as
        ensembles.entropy.

        Each step is the scalar step's expressions, in order, into
        preallocated buffers; every operation is elementwise, so a slice's
        entropies are the whole grid's, bit for bit.
        """
        p1 = self.pinit[sl].copy()
        total = self.hinit[sl].copy()
        h0, h1, q0 = self.h0[sl], self.h1[sl], self.q0[sl]
        p0, a, b = np.empty_like(p1), np.empty_like(p1), np.empty_like(p1)
        stay1 = 1.0 - self.q1[sl]
        for _ in range(n - 1):
            np.subtract(1.0, p1, out=p0)
            np.multiply(p0, h0, out=a)
            np.multiply(p1, h1, out=b)
            np.add(a, b, out=a)
            np.add(total, a, out=total)
            np.multiply(p0, q0, out=a)
            np.multiply(p1, stay1, out=p1)
            np.add(a, p1, out=p1)
        return total

    def closed_tables(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Closed form of the same chain-rule sum, for large-n prefiltering,
        and its minimum and maximum over each (m, a0, a1) block, in block
        order, read-only.

        The stationary mean and the geometric factor depend on (m, a0, a1)
        only, so they are computed once per block and repeated over its ai
        entries. The CLOSED_LENGTHS most recently used lengths are kept
        (about 2.3 MB each at m_max = 6)."""
        cached = self._closed.pop(n, None)
        if cached is None:
            q0, q1 = self._block_q0, self._block_q1
            pi1 = q0 / (q0 + q1)
            lam = 1.0 - q0 - q1
            with np.errstate(divide="ignore", invalid="ignore"):
                geo = np.where(lam == 1.0, float(n - 1), (1.0 - lam ** (n - 1)) / (1.0 - lam))
            pi1 = np.repeat(pi1, self._block_len)
            geo = np.repeat(geo, self._block_len)
            sum_p1 = (n - 1) * pi1 + (self.pinit - pi1) * geo
            H = self.hinit + self.h0 * ((n - 1) - sum_p1) + self.h1 * sum_p1
            cached = (
                H,
                np.minimum.reduceat(H, self._block_first),
                np.maximum.reduceat(H, self._block_first),
            )
            for arr in cached:
                arr.flags.writeable = False
            if len(self._closed) >= CLOSED_LENGTHS:
                del self._closed[next(iter(self._closed))]
        self._closed[n] = cached
        return cached


@functools.lru_cache(maxsize=None)
def flat_grid(m_max: int) -> FlatMarkovGrid:
    """One shared grid per m_max."""
    return FlatMarkovGrid(m_max)


def neglogp(stats, grid: FlatMarkovGrid, sl) -> np.ndarray:
    """-log2 p(x) for the Markov entries in sl (a slice or an index array),
    from the transition counts of x."""
    return (
        (grid.li1 if stats.first else grid.li0)[sl]
        + stats.n00 * grid.c00[sl]
        + stats.n01 * grid.c01[sl]
        + stats.n10 * grid.c10[sl]
        + stats.n11 * grid.c11[sl]
    )


def ensemble(grid: FlatMarkovGrid, n: int, j: int) -> MarkovQuantized:
    """The Markov ensemble of grid entry j."""
    return MarkovQuantized(n, int(grid.m[j]), int(grid.a0[j]), int(grid.a1[j]), int(grid.ai[j]))
