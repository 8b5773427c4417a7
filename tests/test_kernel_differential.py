"""Differential tests: the compiled SpMM kernel against the sequential oracle.

``CSDBMatrix.spmm``/``spmm_rows`` run scipy's compiled CSR kernel over a
zero-copy view of the CSDB arrays.  ``CSRMatrix.spmm`` is numpy-only
(``np.add.at``): it sums each output row strictly left to right, the
same order as the kernel, so every comparison here is exact
(``np.array_equal``), never a tolerance.  Covered:

- generated matrices with empty rows, an all-empty matrix, a hub row;
- d = 1 and 1-D vectors;
- C-ordered, Fortran-ordered and non-contiguous dense operands;
- NaN/inf propagation;
- 1/2/3/7/16-way row partitions on the serial, threads and
  shared-memory executors.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import CSDBMatrix, edges_to_csdb
from repro.graphs import rmat_edges
from repro.parallel import (
    SimulatedExecutor,
    get_shared_executor,
    get_threads_executor,
    shutdown_shared_executors,
    shutdown_threads_executors,
)

EXAMPLES = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="module", autouse=True)
def _close_pools():
    yield
    shutdown_shared_executors()
    shutdown_threads_executors()


def _values(rng: np.random.Generator, size) -> np.ndarray:
    """Values spread over six decades, so summation order shows in the bits."""
    return rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3, size)


@st.composite
def csdb_matrices(draw):
    """CSDB matrices with empty rows and, optionally, one hub row."""
    n_rows = draw(st.integers(1, 30))
    n_cols = draw(st.integers(1, 300))
    nnz = draw(st.integers(0, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, n_rows, nnz)
    cols = rng.integers(0, n_cols, nnz)
    if draw(st.booleans()):
        hub = draw(st.integers(0, n_rows - 1))
        width = draw(st.integers(1, n_cols))
        rows = np.concatenate([rows, np.full(width, hub)])
        cols = np.concatenate([cols, rng.permutation(n_cols)[:width]])
    vals = _values(rng, len(rows))
    return CSDBMatrix.from_coo(rows, cols, vals, (n_rows, n_cols)), rng


def _oracle(matrix: CSDBMatrix, dense: np.ndarray) -> np.ndarray:
    return matrix.to_csr().spmm(np.ascontiguousarray(dense))


def _layout(dense: np.ndarray, layout: str) -> np.ndarray:
    if layout == "F":
        return np.asfortranarray(dense)
    if layout == "strided":
        wide = np.zeros((dense.shape[0], 2 * dense.shape[1]))
        wide[:, ::2] = dense
        return wide[:, ::2]
    return dense


class TestGenerated:
    @EXAMPLES
    @given(
        csdb_matrices(),
        st.integers(1, 9),
        st.sampled_from(["C", "F", "strided"]),
    )
    def test_kernel_equals_oracle(self, case, d, layout):
        matrix, rng = case
        dense = _layout(_values(rng, (matrix.n_cols, d)), layout)
        assert np.array_equal(matrix.spmm(dense), _oracle(matrix, dense))

    @EXAMPLES
    @given(csdb_matrices())
    def test_vectors(self, case):
        matrix, rng = case
        vector = _values(rng, matrix.n_cols)
        expected = _oracle(matrix, vector[:, None])
        assert np.array_equal(matrix.spmm(vector), expected[:, 0])
        assert np.array_equal(matrix.spmv(vector), expected[:, 0])
        assert np.array_equal(matrix.spmm(vector[:, None]), expected)
        strided = np.repeat(vector, 2)[::2]
        assert np.array_equal(matrix.spmv(strided), expected[:, 0])

    @EXAMPLES
    @given(csdb_matrices(), st.integers(1, 4))
    def test_nan_and_inf_propagate(self, case, d):
        matrix, rng = case
        dense = _values(rng, (matrix.n_cols, d))
        flat = dense.reshape(-1)
        special = rng.integers(0, flat.size, max(1, flat.size // 10))
        flat[special] = rng.choice([np.nan, np.inf, -np.inf], len(special))
        with np.errstate(invalid="ignore"):  # inf - inf in the oracle
            expected = _oracle(matrix, dense)
        assert np.array_equal(matrix.spmm(dense), expected, equal_nan=True)

    @EXAMPLES
    @given(
        csdb_matrices(),
        st.lists(st.integers(0, 30), max_size=16),
        st.integers(1, 5),
    )
    def test_any_row_cut_is_bit_identical(self, case, cuts, d):
        matrix, rng = case
        dense = _values(rng, (matrix.n_cols, d))
        cuts = (min(c, matrix.n_rows) for c in cuts)
        bounds = sorted({0, matrix.n_rows, *cuts})
        out = np.empty((matrix.n_rows, d))
        SimulatedExecutor().run_partitions(
            matrix, dense, list(zip(bounds[:-1], bounds[1:])), out
        )
        assert np.array_equal(out, _oracle(matrix, dense))


class TestEdgeCases:
    @pytest.mark.parametrize("shape", [(5, 7), (1, 1), (0, 4)])
    def test_all_empty_matrix(self, shape):
        matrix = CSDBMatrix.from_coo([], [], [], shape)
        dense = np.ones((shape[1], 3))
        assert np.array_equal(matrix.spmm(dense), np.zeros((shape[0], 3)))
        assert matrix.spmm_rows(dense, 0, shape[0]).shape == (shape[0], 3)
        assert np.array_equal(matrix.spmm(dense), _oracle(matrix, dense))

    def test_hub_row_is_a_strict_left_to_right_sum(self):
        rng = np.random.default_rng(8)
        n = 4000
        vals = _values(rng, n)
        matrix = CSDBMatrix.from_coo(
            np.zeros(n, dtype=int), np.arange(n), vals, (2, n)
        )
        dense = _values(rng, (n, 2))
        expected = np.zeros(2)
        for k in range(n):  # the contract, spelled out
            expected = expected + vals[k] * dense[k]
        got = matrix.spmm(dense)
        assert np.array_equal(got[0], expected)
        assert np.array_equal(got[1], np.zeros(2))
        # numpy's pairwise reduction differs: the test can tell orders apart.
        pairwise = [np.sum(vals * dense[:, j]) for j in range(2)]
        assert not np.array_equal(pairwise, expected)


@pytest.fixture(scope="module")
def hub_matrix() -> CSDBMatrix:
    """A seeded R-MAT plus one 400-wide hub row, with spread values."""
    edges = rmat_edges(9, edge_factor=6.0, seed=41)
    hub = np.stack([np.zeros(400, dtype=np.int64), np.arange(1, 401)], axis=1)
    matrix = edges_to_csdb(np.concatenate([edges, hub]), 1 << 9)
    return CSDBMatrix(
        matrix.deg_list, matrix.deg_ind, matrix.col_list,
        _values(np.random.default_rng(41), matrix.nnz), matrix.perm,
        matrix.shape,
    )


class TestExecutorPartitions:
    @pytest.mark.parametrize("backend", ["serial", "threads", "shared_memory"])
    @pytest.mark.parametrize("n_parts", [1, 2, 3, 7, 16])
    def test_partitioned_output_equals_oracle(
        self, hub_matrix, backend, n_parts
    ):
        matrix = hub_matrix
        dense = np.asfortranarray(
            _values(np.random.default_rng(n_parts), (matrix.n_cols, 6))
        )
        bounds = np.linspace(0, matrix.n_rows, n_parts + 1).astype(int)
        ranges = list(zip(bounds[:-1], bounds[1:]))
        executor = {
            "serial": SimulatedExecutor,
            "threads": lambda: get_threads_executor(2),
            "shared_memory": lambda: get_shared_executor(2),
        }[backend]()
        out = np.full((matrix.n_rows, 6), np.nan)
        executor.run_partitions(matrix, dense, ranges, out)
        assert np.array_equal(out, _oracle(matrix, dense))
