"""Exact draws from a discrete law: the index whose cdf interval holds a uniform draw.

A guide table (C. Chen and H. Asau, AIIE Trans. 6, 163 (1974); L. Devroye,
*Non-Uniform Random Variate Generation* (1986), sec. III.2.4) finds it in
O(1) per draw, except where several cdf entries share a bucket.
"""
from __future__ import annotations

import numpy as np

# Draws per block of :func:`search_cdf`, twice the trial CSV block: 8,000 to
# 16,000 measured fastest, and the kernel's temporaries stay in cache, below
# glibc's mmap threshold and flat in the trial count.
DRAW_BLOCK_ROWS = 8000


def guide_table(cdf: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The guide table of :func:`search_cdf` over ``cdf``: its bucket count G,
    the smallest power of two at least 4 ``len(cdf)``, and for each bucket g,
    covering [g/G, (g+1)/G), how many entries lie at or below g/G, the one
    entry strictly inside it (``inf`` where none or several lie inside), and
    whether two or more lie inside (a crowded bucket)."""
    buckets = 1 << (4 * len(cdf) - 1).bit_length()
    edges = np.arange(buckets + 1) / buckets
    below = cdf.searchsorted(edges[:-1], side="right")
    inside = cdf.searchsorted(edges[1:], side="left") - below
    split = np.where(inside == 1, cdf[np.minimum(below, len(cdf) - 1)], np.inf)
    return buckets, below, split, inside > 1


def search_cdf(cdf: np.ndarray, draws: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``cdf.searchsorted(draws, side="right")`` as ``dtype``, by a guide table.

    ``cdf`` is non-decreasing, every draw u is in [0, 1), and ``dtype`` holds
    0..``len(cdf)``. The result is exact, not approximate: G
    (:func:`guide_table`) is a power of two, so u * G only shifts u's
    exponent and is exact, and so is each edge g/G; g = floor(u * G) is thus
    the bucket with g/G <= u < (g+1)/G. Every entry at or below g/G is at or
    below u, and no entry at or above (g+1)/G is, so u's count is bucket g's
    count of entries at or below g/G plus those strictly inside the bucket
    that are at or below u: none where the bucket holds none, u >= c where
    it holds one entry c, and where it holds two or more the draws that land
    there are counted by ``searchsorted`` itself. Draws are taken in blocks
    of :data:`DRAW_BLOCK_ROWS` with intp bucket indexes.
    """
    buckets, below, split, crowded = guide_table(cdf)
    below, search = below.astype(dtype), crowded.any()
    index = np.empty(len(draws), dtype=dtype)
    for start in range(0, len(draws), DRAW_BLOCK_ROWS):
        u = draws[start:start + DRAW_BLOCK_ROWS]
        g = (u * buckets).astype(np.intp)
        out = index[start:start + len(u)]
        np.add(below.take(g), u >= split.take(g), out=out)
        if search:
            hit = np.flatnonzero(crowded.take(g))
            out[hit] = cdf.searchsorted(u[hit], side="right")
    return index
