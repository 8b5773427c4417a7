"""Unit tests for format conversions and scipy interop."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.formats import (
    csdb_from_scipy,
    csdb_to_scipy,
    csr_from_scipy,
    csr_to_scipy,
    edges_to_csdb,
    edges_to_csr,
)


class TestEdgeConversions:
    def test_undirected_mirrors_edges(self, paper_edges):
        csr = edges_to_csr(paper_edges, 7)
        dense = csr.to_dense()
        assert np.allclose(dense, dense.T)
        assert csr.nnz == 2 * len(paper_edges)

    def test_directed(self, paper_edges):
        csr = edges_to_csr(paper_edges, 7, undirected=False)
        assert csr.nnz == len(paper_edges)

    def test_weighted(self, paper_edges):
        weights = np.arange(1.0, len(paper_edges) + 1)
        csr = edges_to_csr(paper_edges, 7, weights=weights)
        u, v = paper_edges[0]
        assert csr.to_dense()[u, v] == 1.0
        u, v = paper_edges[-1]
        assert csr.to_dense()[u, v] == len(paper_edges)

    @pytest.mark.parametrize("undirected", [True, False])
    def test_csdb_equals_scipy_of_symmetrised_edges(self, undirected):
        from repro.graphs import rmat_edges

        edges = rmat_edges(9, edge_factor=6.0, seed=4)
        src, dst = edges[:, 0], edges[:, 1]
        if undirected:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        expected = sp.coo_matrix(
            (np.ones(len(src)), (src, dst)), shape=(512, 512)
        ).tocsr()
        expected.sum_duplicates()
        got = edges_to_csdb(edges, 512, undirected=undirected)
        exported = csdb_to_scipy(got)
        assert np.array_equal(exported.indptr, expected.indptr)
        assert np.array_equal(exported.indices, expected.indices)
        assert np.array_equal(exported.data, expected.data)
        degrees = np.sort(np.diff(expected.indptr))[::-1]
        assert np.array_equal(got.row_degrees(), degrees)

    def test_weights_length_mismatch(self, paper_edges):
        with pytest.raises(ValueError, match="weights"):
            edges_to_csr(paper_edges, 7, weights=np.ones(3))

    def test_bad_edge_shape(self):
        with pytest.raises(ValueError, match=r"\(m, 2\)"):
            edges_to_csr(np.zeros((3, 3), dtype=np.int64), 5)

    def test_csdb_equals_csr_route(self, paper_edges):
        assert np.allclose(
            edges_to_csdb(paper_edges, 7).to_dense(),
            edges_to_csr(paper_edges, 7).to_dense(),
        )


def _scipy_summed_csr(edges, n_nodes, weights, undirected=True):
    """scipy's summed COO->CSR over the edges in the order given,
    forward half first — the build order before mirror-first."""
    src, dst = edges[:, 0], edges[:, 1]
    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        weights = np.concatenate([weights, weights])
    expected = sp.coo_matrix(
        (weights, (src, dst)), shape=(n_nodes, n_nodes)
    ).tocsr()
    expected.sum_duplicates()
    return expected


def _build_order_edges(kind):
    """Non-canonical edge lists: each reaches scipy with unsorted rows
    or duplicate entries, so the build must still sort and sum."""
    from repro.graphs import rmat_edges

    rng = np.random.default_rng(8)
    edges = rmat_edges(7, edge_factor=4.0, seed=6)
    if kind == "canonical":
        return edges
    if kind == "shuffled":
        return edges[rng.permutation(len(edges))]
    if kind == "reversed":
        return edges[:, ::-1].copy()
    if kind == "duplicated":
        picks = rng.integers(0, len(edges), len(edges) // 2)
        both = np.concatenate([edges, edges[picks], edges[picks, ::-1]])
        return both[rng.permutation(len(both))]
    if kind == "self_loops":
        loops = np.repeat(rng.integers(0, 128, 20)[:, None], 2, axis=1)
        both = np.concatenate([edges, loops])
        return both[rng.permutation(len(both))]
    raise ValueError(kind)


class TestBuildOrder:
    """Mirror-first concatenation leaves the CSR/CSDB arrays unchanged
    for any input order, not only for canonical R-MAT output."""

    @pytest.mark.parametrize(
        "kind",
        ["canonical", "shuffled", "reversed", "duplicated", "self_loops"],
    )
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("undirected", [True, False])
    def test_equals_scipy_summed_csr(self, kind, weighted, undirected):
        edges = _build_order_edges(kind)
        if weighted:
            # Multiples of 1/8 up to 4: every partial sum is exact, so
            # any summation order of a duplicate gives the same bits.
            rng = np.random.default_rng(len(edges))
            weights = rng.integers(1, 33, len(edges)) / 8.0
        else:
            weights = np.ones(len(edges))
        expected = _scipy_summed_csr(edges, 128, weights, undirected)
        csr = edges_to_csr(
            edges, 128, weights if weighted else None, undirected
        )
        assert np.array_equal(csr.indptr, expected.indptr)
        assert np.array_equal(csr.indices, expected.indices)
        assert np.array_equal(csr.data, expected.data)
        exported = csdb_to_scipy(
            edges_to_csdb(
                edges, 128, weights if weighted else None, undirected
            )
        )
        assert np.array_equal(exported.indptr, expected.indptr)
        assert np.array_equal(exported.indices, expected.indices)
        assert np.array_equal(exported.data, expected.data)


class TestScipyInterop:
    def test_csr_roundtrip(self, skewed_csr):
        back = csr_from_scipy(csr_to_scipy(skewed_csr))
        assert np.allclose(back.to_dense(), skewed_csr.to_dense())

    def test_csdb_roundtrip(self, skewed_csdb):
        back = csdb_from_scipy(csdb_to_scipy(skewed_csdb))
        assert np.allclose(back.to_dense(), skewed_csdb.to_dense())

    def test_import_from_scipy_coo(self, rng):
        scipy_mat = sp.random(40, 30, density=0.1, random_state=7, format="coo")
        ours = csr_from_scipy(scipy_mat)
        assert np.allclose(ours.to_dense(), scipy_mat.toarray())

    def test_spmm_agrees_with_scipy(self, skewed_csdb, rng):
        scipy_mat = csdb_to_scipy(skewed_csdb)
        dense = rng.standard_normal((skewed_csdb.n_cols, 5))
        assert np.allclose(skewed_csdb.spmm(dense), scipy_mat @ dense)

    def test_scipy_duplicates_summed(self):
        coo = sp.coo_matrix(
            (np.array([1.0, 2.0]), (np.array([0, 0]), np.array([1, 1]))),
            shape=(2, 2),
        )
        ours = csr_from_scipy(coo)
        assert ours.nnz == 1
        assert ours.to_dense()[0, 1] == 3.0
