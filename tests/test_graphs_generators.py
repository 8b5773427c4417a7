"""Unit tests for the graph generators (Chung-Lu, R-MAT)."""

import numpy as np
import pytest

from repro.graphs import chung_lu_edges, planted_partition_edges, rmat_edges
from repro.graphs.powerlaw import powerlaw_weights
from repro.graphs.stats import degrees_from_edges, gini_coefficient


class TestPowerlawWeights:
    def test_descending(self):
        w = powerlaw_weights(100, gamma=2.3)
        assert np.all(np.diff(w) <= 0)

    def test_min_weight(self):
        w = powerlaw_weights(100, gamma=2.3, min_weight=2.0)
        assert w.min() == pytest.approx(2.0)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            powerlaw_weights(10, gamma=1.0)

    def test_invalid_n(self):
        with pytest.raises(ValueError, match="n_nodes"):
            powerlaw_weights(0)


class TestChungLu:
    def test_deterministic(self):
        a = chung_lu_edges(200, 1000, seed=3)
        b = chung_lu_edges(200, 1000, seed=3)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = chung_lu_edges(200, 1000, seed=3)
        b = chung_lu_edges(200, 1000, seed=4)
        assert not np.array_equal(a, b)

    def test_no_self_loops_or_duplicates(self):
        edges = chung_lu_edges(300, 2000, seed=1)
        assert np.all(edges[:, 0] != edges[:, 1])
        keys = edges[:, 0] * 300 + edges[:, 1]
        assert len(np.unique(keys)) == len(edges)

    def test_canonical_orientation(self):
        edges = chung_lu_edges(300, 2000, seed=1)
        assert np.all(edges[:, 0] < edges[:, 1])

    def test_edge_count_close_to_target(self):
        edges = chung_lu_edges(500, 3000, seed=2)
        assert 0.9 * 3000 <= len(edges) <= 3000

    def test_skewed_degrees(self):
        edges = chung_lu_edges(1000, 10000, gamma=2.1, seed=5)
        degrees = degrees_from_edges(edges, 1000)
        assert gini_coefficient(degrees) > 0.3

    def test_zero_edges(self):
        assert chung_lu_edges(10, 0).shape == (0, 2)

    def test_node_range(self):
        edges = chung_lu_edges(64, 300, seed=9)
        assert edges.min() >= 0 and edges.max() < 64


class TestPlantedPartition:
    def test_shapes(self):
        edges, labels = planted_partition_edges(400, 3000, n_communities=4, seed=0)
        assert labels.shape == (400,)
        assert set(np.unique(labels)) <= set(range(4))
        assert edges.shape[1] == 2

    def test_intra_community_bias(self):
        edges, labels = planted_partition_edges(
            400, 3000, n_communities=4, p_in=0.9, seed=0
        )
        intra = np.mean(labels[edges[:, 0]] == labels[edges[:, 1]])
        # Random assignment would give ~0.25.
        assert intra > 0.5

    def test_invalid_p_in(self):
        with pytest.raises(ValueError, match="p_in"):
            planted_partition_edges(10, 20, p_in=1.5)


class TestRMAT:
    def test_node_count(self):
        edges = rmat_edges(8, edge_factor=8, seed=0)
        assert edges.max() < 2**8

    def test_deterministic(self):
        assert np.array_equal(rmat_edges(8, seed=1), rmat_edges(8, seed=1))

    def test_deduplicated(self):
        edges = rmat_edges(8, seed=0)
        keys = edges[:, 0] * (2**8) + edges[:, 1]
        assert len(np.unique(keys)) == len(edges)
        assert np.all(edges[:, 0] != edges[:, 1])

    def test_raw_mode_keeps_count(self):
        edges = rmat_edges(8, edge_factor=4, seed=0, deduplicate=False)
        assert len(edges) == 4 * 2**8

    def test_skew(self):
        edges = rmat_edges(12, edge_factor=16, seed=0)
        degrees = degrees_from_edges(edges, 2**12)
        assert gini_coefficient(degrees) > 0.5

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError, match="quadrant"):
            rmat_edges(4, a=0.9, b=0.2, c=0.2)

    def test_invalid_scale(self):
        with pytest.raises(ValueError, match="scale"):
            rmat_edges(0)

    def test_density_scales_with_edge_factor(self):
        sparse = rmat_edges(10, edge_factor=4, seed=0)
        dense = rmat_edges(10, edge_factor=32, seed=0)
        assert len(dense) > 3 * len(sparse)


def _rmat_first_occurrence(
    scale, edge_factor, seed, a=0.57, b=0.19, c=0.19, deduplicate=True
):
    """The earlier ``rmat_edges``: a fresh array per level and
    ``np.unique`` first-occurrence dedupe.  Kept as the reference the
    in-place, sort-once generator is checked against."""
    n_nodes = 1 << scale
    n_edges = int(edge_factor * n_nodes)
    rng = np.random.default_rng(seed)
    src = np.zeros(n_edges, dtype=np.int64)
    dst = np.zeros(n_edges, dtype=np.int64)
    for _ in range(scale):
        r = rng.random(n_edges)
        right = (r >= a) & (r < a + b) | (r >= a + b + c)
        bottom = r >= a + b
        src = (src << 1) | bottom.astype(np.int64)
        dst = (dst << 1) | right.astype(np.int64)
    if not deduplicate:
        return np.stack([src, dst], axis=1)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    key = lo * np.int64(n_nodes) + hi
    _, unique_idx = np.unique(key, return_index=True)
    unique_idx.sort()
    return np.stack([lo[unique_idx], hi[unique_idx]], axis=1)


RMAT_CASES = [
    (1, 1.0, 0),
    (1, 16.0, 3),
    (2, 0.0, 1),  # no draws at all: an empty result
    (3, 2.0, 5),
    (7, 4.0, 11),
    (10, 8.0, 1),
    (12, 12.0, 1009),
]


class TestRMATContract:
    """Canonical order, and the same edge set as first-occurrence dedupe."""

    @pytest.mark.parametrize("scale,edge_factor,seed", RMAT_CASES)
    def test_same_edge_set_as_first_occurrence(
        self, scale, edge_factor, seed
    ):
        got = rmat_edges(scale, edge_factor=edge_factor, seed=seed)
        ref = _rmat_first_occurrence(scale, edge_factor, seed)
        assert got.dtype == np.int64 and got.shape == (len(ref), 2)
        assert set(map(tuple, got.tolist())) == set(map(tuple, ref.tolist()))

    @pytest.mark.parametrize("scale,edge_factor,seed", RMAT_CASES)
    def test_canonical_order(self, scale, edge_factor, seed):
        edges = rmat_edges(scale, edge_factor=edge_factor, seed=seed)
        lo, hi = edges[:, 0], edges[:, 1]
        assert np.all(lo < hi)
        assert np.all(np.diff(lo * (1 << scale) + hi) > 0)

    @pytest.mark.parametrize("scale,edge_factor,seed", RMAT_CASES)
    def test_raw_stream_unchanged(self, scale, edge_factor, seed):
        raw = rmat_edges(
            scale, edge_factor=edge_factor, seed=seed, deduplicate=False
        )
        ref = _rmat_first_occurrence(
            scale, edge_factor, seed, deduplicate=False
        )
        assert raw.dtype == np.int64 and np.array_equal(raw, ref)

    def test_skewed_quadrants(self):
        """Non-default probabilities, including an empty quadrant b."""
        for abc in ((0.45, 0.0, 0.3), (0.25, 0.25, 0.25), (0.1, 0.6, 0.2)):
            quadrants = dict(zip("abc", abc))
            got = rmat_edges(8, edge_factor=6.0, seed=2, **quadrants)
            ref = _rmat_first_occurrence(8, 6.0, 2, **quadrants)
            assert set(map(tuple, got.tolist())) == set(
                map(tuple, ref.tolist())
            )
            raw = rmat_edges(
                8, edge_factor=6.0, seed=2, deduplicate=False, **quadrants
            )
            assert np.array_equal(
                raw,
                _rmat_first_occurrence(
                    8, 6.0, 2, deduplicate=False, **quadrants
                ),
            )
