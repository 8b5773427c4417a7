"""Unit tests for the WoFP prefetcher (§III-C)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WorkloadBalancedAllocator, WorkloadPrefetcher
from repro.core.wofp import DisabledPrefetchPlan, top_k_descending


@pytest.fixture
def partitions(skewed_csdb):
    return WorkloadBalancedAllocator().allocate(skewed_csdb, 4)


class TestTypeSelection:
    def test_eta_threshold(self, skewed_csdb, partitions):
        """W/Rows >= |V| * eta selects the frequency prefetcher."""
        partition = partitions[0]
        mean_nnz_per_row = partition.nnz_count / partition.n_rows
        eta_low = mean_nnz_per_row / skewed_csdb.n_cols / 2
        eta_high = mean_nnz_per_row / skewed_csdb.n_cols * 2
        assert WorkloadPrefetcher(eta=eta_low).selects_frequency(
            skewed_csdb, partition
        )
        assert not WorkloadPrefetcher(eta=eta_high).selects_frequency(
            skewed_csdb, partition
        )

    def test_dense_head_partition_prefers_frequency(
        self, skewed_csdb, partitions
    ):
        """CSDB sorts dense rows first: partition 0 has the highest mean
        nnz/row, so with an in-between eta it picks frequency while the
        sparse tail picks degree."""
        per_row = [p.nnz_count / max(p.n_rows, 1) for p in partitions]
        assert per_row[0] == max(per_row)

    def test_plan_kinds(self, skewed_csdb, partitions):
        prefetcher = WorkloadPrefetcher(eta=0.05, sigma=0.1)
        kinds = {
            prefetcher.plan(skewed_csdb, p).kind for p in partitions
        }
        assert kinds <= {"frequency", "degree"}


class TestPlans:
    def test_capacity_sigma(self, skewed_csdb, partitions):
        sigma = 0.1
        prefetcher = WorkloadPrefetcher(sigma=sigma)
        for p in partitions:
            plan = prefetcher.plan(skewed_csdb, p)
            cols = skewed_csdb.col_list[p.nnz_start : p.nnz_end]
            distinct = len(np.unique(cols))
            assert plan.capacity <= min(int(p.nnz_count * sigma) + 1, distinct)

    def test_hit_fraction_measured_exactly(self, skewed_csdb, partitions):
        prefetcher = WorkloadPrefetcher(sigma=0.2)
        for p in partitions:
            plan = prefetcher.plan(skewed_csdb, p)
            cols = skewed_csdb.col_list[p.nnz_start : p.nnz_end]
            hot = set(plan.hot_columns.tolist())
            hits = sum(1 for c in cols if int(c) in hot)
            assert plan.hit_fraction == pytest.approx(hits / len(cols))

    def test_frequency_beats_degree_on_hits(self, skewed_csdb, partitions):
        """The dynamic prefetcher is at least as precise as the static."""
        p = partitions[0]
        freq = WorkloadPrefetcher(eta=1e-9, sigma=0.1).plan(skewed_csdb, p)
        deg = WorkloadPrefetcher(eta=1e9, sigma=0.1).plan(skewed_csdb, p)
        assert freq.kind == "frequency" and deg.kind == "degree"
        assert freq.hit_fraction >= deg.hit_fraction

    def test_degree_hits_close_to_frequency_on_powerlaw(
        self, skewed_csdb, partitions
    ):
        """In-degree is a good static proxy on power-law graphs — the
        paper's justification for the cheap degree-based prefetcher."""
        p = partitions[-1]
        freq = WorkloadPrefetcher(eta=1e-9, sigma=0.2).plan(skewed_csdb, p)
        deg = WorkloadPrefetcher(eta=1e9, sigma=0.2).plan(skewed_csdb, p)
        assert deg.hit_fraction > 0.5 * freq.hit_fraction

    def test_hit_fraction_monotone_in_sigma(self, skewed_csdb, partitions):
        p = partitions[1]
        hits = [
            WorkloadPrefetcher(sigma=s).plan(skewed_csdb, p).hit_fraction
            for s in (0.05, 0.2, 0.5)
        ]
        assert hits[0] <= hits[1] <= hits[2]

    def test_sigma_one_hits_everything(self, skewed_csdb, partitions):
        plan = WorkloadPrefetcher(sigma=1.0).plan(skewed_csdb, partitions[2])
        assert plan.hit_fraction == pytest.approx(1.0)

    def test_maintenance_cost_frequency_higher(self, skewed_csdb, partitions):
        p = partitions[0]
        freq = WorkloadPrefetcher(eta=1e-9, sigma=0.1).plan(skewed_csdb, p)
        deg = WorkloadPrefetcher(eta=1e9, sigma=0.1).plan(skewed_csdb, p)
        assert freq.maintenance_ops > deg.maintenance_ops

    def test_empty_partition(self, skewed_csdb):
        from repro.core.eata import AllocatorContext

        ctx = AllocatorContext(skewed_csdb)
        empty = ctx.make_partition(0, skewed_csdb.n_rows, skewed_csdb.n_rows)
        plan = WorkloadPrefetcher().plan(skewed_csdb, empty)
        assert plan.capacity == 0
        assert plan.hit_fraction == 0.0

    def test_pinned_bytes(self, skewed_csdb, partitions):
        plan = WorkloadPrefetcher(sigma=0.1).plan(skewed_csdb, partitions[0])
        assert plan.pinned_bytes(dense_cols=16) == plan.capacity * 16 * 8

    def test_precomputed_col_degrees_equivalent(self, skewed_csdb, partitions):
        prefetcher = WorkloadPrefetcher(eta=1e9, sigma=0.1)
        degrees = skewed_csdb.col_degrees()
        p = partitions[2]
        a = prefetcher.plan(skewed_csdb, p)
        b = prefetcher.plan(skewed_csdb, p, col_degrees=degrees)
        assert np.array_equal(a.hot_columns, b.hot_columns)


def _unique_plan(prefetcher, matrix, partition):
    """The plan as built from ``np.unique`` (sorting) counts."""
    w = partition.nnz_count
    reserved = max(int(w * prefetcher.sigma), 1)
    cols = matrix.col_list[partition.nnz_start : partition.nnz_end]
    distinct, counts = np.unique(cols, return_counts=True)
    capacity = min(reserved, len(distinct))
    if prefetcher.selects_frequency(matrix, partition):
        return prefetcher._frequency_plan(
            distinct, counts, capacity, reserved, w
        )
    return prefetcher._degree_plan(
        distinct, counts, matrix.col_degrees(), capacity, reserved, w
    )


class TestPlanMatchesUnique:
    """The bincount plan equals the np.unique plan field for field."""

    @staticmethod
    def _assert_same(a, b):
        assert (a.kind, a.capacity, a.reserved_entries) == (
            b.kind, b.capacity, b.reserved_entries
        )
        assert a.hot_columns.dtype == b.hot_columns.dtype
        assert np.array_equal(a.hot_columns, b.hot_columns)
        assert a.hit_fraction == b.hit_fraction
        assert a.maintenance_ops == b.maintenance_ops

    @pytest.mark.parametrize("eta", [1e-9, 0.01, 1e9])
    @pytest.mark.parametrize("n_parts", [1, 3, 16])
    def test_random_partitions(self, skewed_csdb, eta, n_parts):
        from repro.core.eata import AllocatorContext

        ctx = AllocatorContext(skewed_csdb)
        rng = np.random.default_rng(n_parts)
        cuts = np.sort(rng.integers(0, skewed_csdb.n_rows, n_parts - 1))
        bounds = [0, *cuts.tolist(), skewed_csdb.n_rows]
        prefetcher = WorkloadPrefetcher(eta=eta, sigma=0.1)
        for tid, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            p = ctx.make_partition(tid, a, b)
            self._assert_same(
                prefetcher.plan(skewed_csdb, p),
                _unique_plan(prefetcher, skewed_csdb, p),
            )

    @staticmethod
    def _hub_matrix():
        """One hub row, a random body and ten trailing empty rows."""
        from repro.formats import CSDBMatrix

        rng = np.random.default_rng(5)
        rows = np.concatenate(
            [np.zeros(400, dtype=int), rng.integers(1, 60, 300)]
        )
        cols = rng.integers(0, 500, len(rows))
        return CSDBMatrix.from_coo(rows, cols, np.ones(len(rows)), (70, 500))

    @pytest.mark.parametrize("eta", [1e-9, 1e9])
    def test_hub_row_partition(self, eta):
        from repro.core.eata import AllocatorContext

        matrix = self._hub_matrix()
        ctx = AllocatorContext(matrix)
        prefetcher = WorkloadPrefetcher(eta=eta, sigma=0.2)
        for a, b in ((0, 1), (0, 70), (1, 70)):
            p = ctx.make_partition(0, a, b)
            self._assert_same(
                prefetcher.plan(matrix, p), _unique_plan(prefetcher, matrix, p)
            )

    def test_zero_degree_partition(self):
        """Rows but no non-zeros: an empty degree plan (the np.unique
        reference would divide by the zero workload)."""
        from repro.core.eata import AllocatorContext

        matrix = self._hub_matrix()
        first_empty = int(np.flatnonzero(matrix.row_degrees() == 0)[0])
        partition = AllocatorContext(matrix).make_partition(0, first_empty, 70)
        plan = WorkloadPrefetcher().plan(matrix, partition)
        assert (plan.kind, plan.capacity, plan.hit_fraction) == (
            "degree", 0, 0.0
        )
        assert plan.hot_columns.size == 0


@st.composite
def _ranks_and_k(draw):
    """Non-negative integer ranks (heavy ties from a small alphabet, or
    all equal) and a k in [1, len]."""
    n = draw(st.integers(1, 200))
    high = draw(st.sampled_from([0, 1, 3, 50, 10**6]))
    values = np.array(
        draw(st.lists(st.integers(0, high), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    return values, k


class TestTopKDescending:
    """The partition-based top k equals the stable argsort it replaced."""

    @staticmethod
    def _reference(values, k):
        return np.argsort(-values, kind="stable")[:k]

    @settings(max_examples=300, deadline=None)
    @given(_ranks_and_k())
    def test_matches_stable_argsort(self, case):
        values, k = case
        got = top_k_descending(values, k)
        assert got.dtype == np.int64
        assert np.array_equal(got, self._reference(values, k))

    @pytest.mark.parametrize(
        "values,k",
        [
            ([0], 1),  # a single element
            ([7] * 17, 1),  # all equal: k == 1 ...
            ([7] * 17, 9),
            ([7] * 17, 17),  # ... and k == len
            ([2, 5, 5, 1], 9),  # k beyond len, as argsort[:k] allows
            ([2, 5, 5, 1], 0),
        ],
    )
    def test_edge_cases(self, values, k):
        values = np.array(values, dtype=np.int64)
        got = top_k_descending(values, k)
        assert np.array_equal(got, self._reference(values, k))


class TestDisabledPlan:
    def test_disabled_is_inert(self):
        plan = DisabledPrefetchPlan()
        assert plan.hit_fraction == 0.0
        assert plan.pinned_bytes(64) == 0
        assert plan.capacity == 0


class TestValidation:
    def test_invalid_eta(self):
        with pytest.raises(ValueError, match="eta"):
            WorkloadPrefetcher(eta=0.0)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            WorkloadPrefetcher(sigma=1.5)
