"""R-MAT recursive graph generator (Chakrabarti, Zhan, Faloutsos 2004).

Used by the paper's scalability study (Fig. 17(b)) to sweep graph sizes
from 1e4 to 1e9 nodes while controlling density and skew.  Quadrant
probabilities ``(a, b, c, d)`` default to the standard Graph500-style
(0.57, 0.19, 0.19, 0.05), giving a strongly skewed degree distribution.
"""

from __future__ import annotations

import numpy as np


def rmat_edges(
    scale: int,
    edge_factor: float = 16.0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    deduplicate: bool = True,
) -> np.ndarray:
    """Generate an R-MAT graph with ``2**scale`` nodes.

    Args:
        scale: log2 of the node count.
        edge_factor: target edges per node (before deduplication).
        a, b, c: quadrant probabilities; ``d = 1 - a - b - c``.
        seed: RNG seed — output is fully deterministic.
        deduplicate: drop self-loops and duplicate undirected edges.

    Returns:
        (m, 2) int64 edge array over nodes ``[0, 2**scale)``.  With
        ``deduplicate`` the rows are in canonical order: each row is
        ``(lo, hi)`` with ``lo < hi`` (so no self-loops), rows are sorted
        by ``(lo, hi)`` and no row repeats.  This is the order
        :func:`repro.formats.convert.edges_to_csr` builds from without a
        sort.  Without ``deduplicate`` the raw stream is returned
        unchanged: one ``(src, dst)`` row per draw, in draw order.
    """
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0 or max(a, b, c, d) > 1:
        raise ValueError(f"invalid quadrant probabilities ({a}, {b}, {c}, {d})")
    n_nodes = 1 << scale
    n_edges = int(edge_factor * n_nodes)
    rng = np.random.default_rng(seed)
    # Node ids accumulate in int32 while they fit (up to 2**31 nodes):
    # half the memory traffic of int64 in the loop below.
    ids = np.int32 if scale < 32 else np.int64
    src = np.zeros(n_edges, dtype=ids)
    dst = np.zeros(n_edges, dtype=ids)
    r = np.empty(n_edges)
    bottom = np.empty(n_edges, dtype=bool)
    right = np.empty(n_edges, dtype=bool)
    past = np.empty(n_edges, dtype=bool)
    # Bit-by-bit recursion, in place: at every level each edge picks a
    # quadrant, setting one bit of the source and destination ids.
    # Quadrants b and d are the right half; since the thresholds
    # a <= a+b <= a+b+c are ordered, that is r >= a XOR r >= a+b XOR
    # r >= a+b+c.  c and d are the bottom half, r >= a+b.
    for _ in range(scale):
        rng.random(out=r)
        np.greater_equal(r, a + b, out=bottom)
        np.greater_equal(r, a, out=right)
        right ^= bottom
        np.greater_equal(r, a + b + c, out=past)
        right ^= past
        src <<= 1
        src |= bottom
        dst <<= 1
        dst |= right
    del r, bottom, right, past  # freed before the keys: a lower peak
    if not deduplicate:
        return np.stack([src, dst], axis=1, dtype=np.int64)
    # One sort of the undirected key lo * 2**scale + hi, then drop
    # repeats by adjacent difference; the keys decode to (lo, hi) rows
    # already in canonical order.
    key = np.minimum(src, dst, dtype=np.int64)
    np.maximum(src, dst, out=dst)
    del src
    key <<= scale
    key |= dst
    del dst
    key.sort()
    if len(key):
        fresh = np.empty(len(key), dtype=bool)
        fresh[0] = True
        np.not_equal(key[1:], key[:-1], out=fresh[1:])
        key = key[fresh]
    edges = np.empty((len(key), 2), dtype=np.int64)
    np.right_shift(key, scale, out=edges[:, 0])
    np.bitwise_and(key, n_nodes - 1, out=edges[:, 1])
    return edges[edges[:, 0] != edges[:, 1]]
