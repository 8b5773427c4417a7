"""The four benchmark workloads.

Each workload generates its inputs from the seed in ``setup``, does one
unit of its work per ``unit`` call (returning that unit's wall seconds),
and afterwards checks the program's outputs against independent
oracles.  The program only ever receives the generated inputs.

Library calls go through module attributes (``graphs.load_dataset``,
``convert.edges_to_csdb``) at call time, so the traced run's wrappers
see them.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro import graphs
from repro.core.config import ExecBackend, OMeGaConfig, ParallelConfig
from repro.core.embedding import OMeGaEmbedder
from repro.core.spmm import SpMMEngine
from repro.formats import convert
from repro.memsim.clock import VirtualClock
from repro.parallel.threads import shutdown_threads_executors
from repro.prone import model as prone_model
from repro.serve.server import EmbeddingServer, ServePolicy
from repro.serve.sharded import ShardedEmbeddingBackend
from repro.serve.trace import RequestTrace
from repro.shard.store import ShardPolicy

HERE = os.path.dirname(os.path.abspath(__file__))
SIM_REFS = os.path.join(HERE, "sim_refs.json")

#: Embedding check tolerance: ProNE's propagation through scipy's CSR
#: kernel agrees with the CSDB kernels to ~1e-13 after column-sign
#: alignment (float64, different summation order); 1e-9 leaves four
#: orders of margin while still catching any wrong product.
EMBED_ATOL = 1e-9
#: Per-product tolerance, relative to ``|A| @ |X|`` entry by entry: a
#: reordered float64 sum over a row of degree k errs by at most ~k * 1e-16.
SPMM_RTOL = 1e-10


def load_sim_refs() -> dict:
    with open(SIM_REFS, encoding="utf-8") as handle:
        return json.load(handle)


def csdb_as_scipy(matrix) -> sp.csr_matrix:
    """scipy CSR built straight from the CSDB arrays (no repro converter)."""
    degrees = np.diff(matrix.nnz_prefix())
    rows = matrix.perm[np.repeat(np.arange(matrix.n_rows), degrees)]
    return sp.csr_matrix(
        (matrix.nnz_list, (rows, matrix.col_list)), shape=matrix.shape
    )


def scipy_matmul_factory(matrix):
    csr = csdb_as_scipy(matrix)
    return lambda dense: csr @ dense


@contextlib.contextmanager
def products_checked():
    """Compare every SpMM output computed inside with scipy's CSR product.

    Yields a one-element list holding the largest error seen, relative to
    ``|A| @ |X|``.  The wrapper replaces ``SpMMEngine.multiply`` on the
    class, from outside the package, and restores it on exit.
    """
    original = SpMMEngine.multiply
    worst = [0.0]
    scipy_of: dict[int, tuple] = {}

    def multiply(engine, matrix, dense, *args, **kwargs):
        result = original(engine, matrix, dense, *args, **kwargs)
        if result.output is not None:
            if id(matrix) not in scipy_of:  # the matrix is kept: ids stay unique
                csr = csdb_as_scipy(matrix)
                scipy_of[id(matrix)] = (matrix, csr, abs(csr))
            _, csr, magnitude = scipy_of[id(matrix)]
            scale = np.maximum(magnitude @ np.abs(dense), np.finfo(float).tiny)
            error = np.abs(result.output - csr @ dense) / scale
            worst[0] = max(worst[0], float(np.max(error)))
        return result

    SpMMEngine.multiply = multiply
    try:
        yield worst
    finally:
        SpMMEngine.multiply = original


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Workload:
    """Shared bookkeeping; subclasses define setup / unit / checks."""

    name: str
    #: ``ExecBackend`` value of the kernels' executor.
    executor: str
    seed: int = 0
    #: The traced run's recorder; None when tracing is off.
    recorder: object = None
    checks: list[Check] = field(default_factory=list)
    #: Operations attempted and failed besides the output checks.
    attempted_ops: int = 0
    failed_ops: int = 0
    inputs: dict = field(default_factory=dict)
    #: Human-readable extra measurements of the untraced run.
    report: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))

    def check_sim(self) -> None:
        """The simulated outcome is deterministic: compare to the recorded value."""
        value = self.sim_value()
        ref = load_sim_refs().get(self.name, {}).get(str(self.seed))
        if ref is None:
            self.check("sim_seconds", True, "no reference recorded for this seed")
        else:
            self.check("sim_seconds", ref == value, f"got {value!r}, recorded {ref!r}")

    def layer_counts(self) -> dict[str, float]:
        """Per-layer metrics the workload measures itself (not from spans)."""
        return {
            "serve.served_frac": 0.0,
            "shard.bg_checkpoints": 0.0,
            "shard.fresh_row_frac": 0.0,
        }

    def child_pids(self) -> list[int]:
        """Live child processes whose memory counts towards peak RSS."""
        return []

    def teardown(self) -> None:
        """Release processes and threads; runs before the output checks."""

    def leak_checks(self) -> None:
        """Checks that teardown left nothing behind (serve-rw only)."""


class EmbedWorkload(Workload):
    """``OMeGaEmbedder.embed_edges`` on one Table I analogue."""

    def __init__(self, name, dataset, parallel: ParallelConfig) -> None:
        super().__init__(name, parallel.backend.value)
        self.dataset_name = dataset
        self.parallel = parallel
        self.first = None
        self.identical = True
        self.sims: list[float] = []

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.dataset = graphs.load_dataset(self.dataset_name, seed=seed)

    def _embedder(self) -> OMeGaEmbedder:
        return OMeGaEmbedder(
            OMeGaConfig(
                n_threads=16, dim=32, capacity_scale=self.dataset.scale,
                parallel=self.parallel,
            )
        )

    def unit(self, index: int) -> float:
        embedder = self._embedder()
        start = time.perf_counter()
        result = embedder.embed_edges(self.dataset.edges, self.dataset.n_nodes)
        seconds = time.perf_counter() - start
        self.attempted_ops += 1
        self.sims.append(result.sim_seconds)
        if self.first is None:
            self.first = result.embedding
            ds = self.dataset
            self.inputs = {
                "nodes": ds.n_nodes,
                "edges": ds.n_edges,
                "working_set_bytes_computed": embedder.pipeline_working_set_bytes(
                    ds.n_nodes, ds.n_edges
                ),
            }
        else:
            self.identical &= np.array_equal(self.first, result.embedding)
        return seconds

    def sim_value(self) -> float:
        return self.sims[0]

    def teardown(self) -> None:
        shutdown_threads_executors()

    def run_checks(self) -> None:
        """Check the embedding against scipy, one pipeline stage at a time.

        The pipeline is run once more, stage by stage, with every SpMM
        product compared to scipy's CSR product of the same operands; its
        embedding must be bit-identical to the timed units'.  ProNE's
        propagation through scipy's kernel, started from this run's
        factorization output, must then reproduce the embedding.  The
        factorization output itself is not compared end to end: on some
        seeds (3 of TW's seeds 1-20) randomized tSVD turns the ~1e-16
        rounding difference between two correct kernels into differences
        of up to 0.4 in the embedding, so only its products are checked.
        """
        self.check("embedding_repeatable", self.identical,
                   "every unit's embedding is bit-identical to the first")
        self.check("sim_repeatable", len(set(self.sims)) == 1, str(set(self.sims)))
        self.check_sim()
        adjacency = convert.edges_to_csdb(self.dataset.edges, self.dataset.n_nodes)
        self.inputs["nnz"] = int(adjacency.nnz)
        embedder = self._embedder()
        try:
            with products_checked() as worst:
                run = embedder.start_run(adjacency, n_edges=len(self.dataset.edges))
                while run.next_stage is not None:
                    run.run_next()
                initial = run.state.initial
                embedding = run.finish().embedding
        finally:
            shutdown_threads_executors()
        self.check("spmm_vs_scipy_csr", worst[0] <= SPMM_RTOL,
                   f"largest relative error {worst[0]:.3e} (tolerance {SPMM_RTOL:g})")
        self.check("checked_run_identical", np.array_equal(embedding, self.first),
                   "the stage-by-stage run reproduces the timed embedding")
        oracle = prone_model.prone_propagate(
            adjacency, initial, embedder.params, scipy_matmul_factory
        )
        signs = np.sign(np.sum(self.first * oracle, axis=0))
        signs[signs == 0] = 1.0
        error = float(np.max(np.abs(self.first - oracle * signs)))
        self.check("embedding_vs_scipy_prone", error <= EMBED_ATOL,
                   f"max abs difference {error:.3e} (tolerance {EMBED_ATOL:g})")


class IngestWorkload(Workload):
    """R-MAT generation, CSDB build and a cost-only EaTA thread sweep."""

    SCALE = 18
    EDGE_FACTOR = 12
    THREADS = (5, 10, 15, 20, 25, 30)
    DIM = 32

    def __init__(self, name) -> None:
        super().__init__(name, ExecBackend.SIMULATED.value)
        self.edges = None
        self.csdb = None
        self.sweeps: list[list[float]] = []

    def setup(self, seed: int) -> None:
        self.seed = seed

    def unit(self, index: int) -> float:
        self.edges = self.csdb = None
        n_nodes = 1 << self.SCALE
        start = time.perf_counter()
        edges = graphs.rmat_edges(self.SCALE, edge_factor=self.EDGE_FACTOR, seed=self.seed)
        csdb = convert.edges_to_csdb(edges, n_nodes)
        dense = np.zeros((n_nodes, self.DIM))
        sims = [
            SpMMEngine(OMeGaConfig(n_threads=t, dim=self.DIM))
            .multiply(csdb, dense, compute=False).sim_seconds
            for t in self.THREADS
        ]
        seconds = time.perf_counter() - start
        self.attempted_ops += 1
        self.edges, self.csdb = edges, csdb
        self.sweeps.append(sims)
        self.inputs = {
            "nodes": n_nodes,
            "edges": int(len(edges)),
            "nnz": int(csdb.nnz),
            "working_set_bytes_computed": int(
                edges.nbytes + csdb.deg_list.nbytes + csdb.deg_ind.nbytes
                + csdb.col_list.nbytes + csdb.nnz_list.nbytes + csdb.perm.nbytes
            ),
        }
        return seconds

    def sim_value(self) -> list[float]:
        return self.sweeps[0]

    def run_checks(self) -> None:
        self.check("sim_repeatable", all(s == self.sweeps[0] for s in self.sweeps))
        self.check_sim()
        n_nodes = 1 << self.SCALE
        src, dst = self.edges[:, 0], self.edges[:, 1]
        expected = sp.coo_matrix(
            (np.ones(2 * len(src)), (np.concatenate([src, dst]), np.concatenate([dst, src]))),
            shape=(n_nodes, n_nodes),
        ).tocsr()
        got = csdb_as_scipy(self.csdb)
        mismatched = int((expected != got).nnz)
        self.check(
            "csdb_vs_scipy_csr",
            mismatched == 0 and got.nnz == expected.nnz == self.csdb.nnz,
            f"{mismatched} mismatched entries; nnz csdb {self.csdb.nnz},"
            f" scipy {expected.nnz}",
        )


class ServeWorkload(Workload):
    """Sharded serving with row updates between trace segments."""

    DATASET = "PK"
    DIM = 32
    N_SHARDS = 2
    N_REQUESTS = 2000
    SEGMENTS = 20
    UPDATES_PER_SEGMENT = 50
    ROWS_PER_UPDATE = 64

    def __init__(self, name, out_dir: str) -> None:
        super().__init__(name, ExecBackend.SIMULATED.value)
        self.out_dir = out_dir
        self.backend = None
        self.samples = {"backend": [], "update": [], "readback": [], "run_trace": []}
        self.requests = self.served = self.stale_rows = self.rows = 0
        self.balanced = True
        self.readback_mismatches = 0
        #: Simulated outcome of the first unit, compared to sim_refs.json.
        self.outcome: dict = {}
        self.update_errors: list[str] = []
        self.bg_checkpoints = 0
        self.units = 0
        self.shard_pids: list[int] = []
        self._saved_stderr: int | None = None
        self.stderr_text = ""

    # -- stderr of this process and its shard processes ----------------

    def _capture_stderr(self) -> None:
        sys.stderr.flush()
        self._stderr_path = os.path.join(self.out_dir, f"serve-stderr-{os.getpid()}.log")
        self._stderr_file = open(self._stderr_path, "w+b")
        self._saved_stderr = os.dup(2)
        os.dup2(self._stderr_file.fileno(), 2)

    def _release_stderr(self) -> str:
        sys.stderr.flush()
        os.dup2(self._saved_stderr, 2)
        os.close(self._saved_stderr)
        self._saved_stderr = None
        self._stderr_file.seek(0)
        text = self._stderr_file.read().decode("utf-8", "replace")
        self._stderr_file.close()
        sys.stderr.write(text)
        return text

    def _own_segments(self) -> list[str]:
        marker = f"-{os.getpid()}-"
        return sorted(name for name in os.listdir("/dev/shm") if marker in name)

    # -- workload ------------------------------------------------------

    def setup(self, seed: int) -> None:
        self.seed = seed
        self._capture_stderr()
        dataset = graphs.load_dataset(self.DATASET, seed=seed)
        self.n_nodes = dataset.n_nodes
        embedder = OMeGaEmbedder(
            OMeGaConfig(dim=self.DIM, capacity_scale=dataset.scale, parallel=ParallelConfig())
        )
        self.backend = ShardedEmbeddingBackend(
            embedder, dataset.edges, dataset.n_nodes,
            shard_policy=ShardPolicy(n_shards=self.N_SHARDS, checkpoint_interval=50),
        )
        self.backend.warm_up()
        self.shard_pids = [
            worker.process.pid
            for host in self.backend.shards.hosts
            for worker in host.workers
        ]
        per_node = self.backend.compute_cost(1)
        self.trace = RequestTrace.synthesize(
            seed=seed, n_requests=self.N_REQUESTS, per_node_cost_s=per_node, load=0.8
        )
        self.policy = ServePolicy.calibrated(per_node * 8.5)
        self._timed_backend()
        self.inputs = {
            "nodes": dataset.n_nodes,
            "edges": dataset.n_edges,
            "nnz": 2 * dataset.n_edges,
            "working_set_bytes_computed": int(
                dataset.n_nodes * self.DIM * 8 + dataset.edges.nbytes
            ),
        }

    def _timed_backend(self):
        """Time each call the server makes into the backend, from outside.

        The method is looked up on the class at call time, so the traced
        run's class-level wrappers are honoured when installed.
        """
        backend = self.backend
        backend_cls = type(backend)

        def serve(*args, **kwargs):
            start = time.perf_counter()
            response = backend_cls.serve(backend, *args, **kwargs)
            self.samples["backend"].append(time.perf_counter() - start)
            if response.fidelity == "full":
                self.rows += len(response.rows)
                self.stale_rows += response.stale_rows
            return response

        def serve_cached(*args, **kwargs):
            start = time.perf_counter()
            response = backend_cls.serve_cached(backend, *args, **kwargs)
            self.samples["backend"].append(time.perf_counter() - start)
            return response

        backend.serve, backend.serve_cached = serve, serve_cached

    def unit(self, index: int) -> float:
        """One replay: 20 trace segments, each followed by 50 row updates.

        Every update is read back at once with a direct ``shards.lookup``
        (read-your-writes).  The read-backs are part of the workload: they
        are timed, traced, and tick the background checkpointer like any
        other lookup.
        """
        shards = self.backend.shards
        server = EmbeddingServer(self.backend, self.policy, clock=VirtualClock())
        rng = np.random.default_rng([self.seed, index])
        per_segment = self.N_REQUESTS // self.SEGMENTS
        outcome = dict.fromkeys(("served", "shed", "deadline_exceeded"), 0)
        stale_before = self.stale_rows
        seconds = 0.0
        for segment in range(self.SEGMENTS):
            requests = self.trace.requests[segment * per_segment:(segment + 1) * per_segment]
            start = time.perf_counter()
            report = server.run_trace(RequestTrace(requests=requests))
            elapsed = time.perf_counter() - start
            self.samples["run_trace"].append(elapsed)
            seconds += elapsed
            self.requests += report.submitted
            self.served += report.served
            self.failed_ops += report.failed
            self.balanced &= report.balanced
            for key in outcome:
                outcome[key] += getattr(report, key)
            for _ in range(self.UPDATES_PER_SEGMENT):
                ids = rng.choice(self.n_nodes, self.ROWS_PER_UPDATE, replace=False)
                rows = rng.standard_normal((self.ROWS_PER_UPDATE, self.DIM))
                error = None
                start = time.perf_counter()
                try:
                    shards.apply_update(ids, rows)
                except Exception as exc:  # an update that raised is a failed op
                    error = repr(exc)
                elapsed = time.perf_counter() - start
                self.samples["update"].append(elapsed)
                seconds += elapsed
                if error is not None:
                    self.update_errors.append(error)
                    self.failed_ops += 1
                    continue
                start = time.perf_counter()
                read = shards.lookup(ids).rows
                elapsed = time.perf_counter() - start
                self.samples["readback"].append(elapsed)
                seconds += elapsed
                if not np.array_equal(read, rows):
                    self.readback_mismatches += 1
                    self.failed_ops += 1
        if index == 0:
            self.outcome = {
                "warmup_sim_seconds": self.backend.warmup_sim_seconds,
                **outcome,
                "finished_at_s": report.finished_at_s,
                "stale_rows": self.stale_rows - stale_before,
            }
        self.attempted_ops += self.N_REQUESTS + 2 * self.SEGMENTS * self.UPDATES_PER_SEGMENT
        self.units += 1
        self.unhandled = self.backend.metrics.value("serve.unhandled_exceptions")
        return seconds

    def sim_value(self) -> dict:
        return self.outcome

    def child_pids(self) -> list[int]:
        return self.shard_pids

    def teardown(self) -> None:
        try:
            if self.backend is not None and self.backend.shards is not None:
                self.bg_checkpoints = self.backend.shard_summary()["bg_checkpoints"]
                self.backend.close()
        finally:
            if self._saved_stderr is not None:
                self.stderr_text = self._release_stderr()
        self.survivors = [
            p.pid for p in multiprocessing.active_children()
        ] + [pid for pid in self.shard_pids if os.path.exists(f"/proc/{pid}")]
        self.leaked_segments = self._own_segments()

    def leak_checks(self) -> None:
        self.check("no_shard_process_survives", not self.survivors, str(self.survivors))
        self.check("no_shm_segment_survives", not self.leaked_segments,
                   str(self.leaked_segments))
        self.check("silent_teardown", "Traceback" not in self.stderr_text,
                   self.stderr_text[-2000:])

    def run_checks(self) -> None:
        self.check("every_request_accounted", self.balanced)
        self.check("no_unhandled_exceptions", self.unhandled == 0, str(self.unhandled))
        self.check("lookup_after_update_exact", not self.readback_mismatches,
                   f"{self.readback_mismatches} read-backs differ from the rows written")
        self.check("no_update_raised", not self.update_errors, "; ".join(self.update_errors[:5]))
        self.check_sim()
        self.leak_checks()
        b = np.asarray(self.samples["backend"])
        u = np.asarray(self.samples["update"])
        r = np.asarray(self.samples["readback"])
        trace_s = float(np.sum(self.samples["run_trace"]))
        self.report = {
            "serve_p50_ms": (float(np.percentile(b, 50)) * 1e3, "ms"),
            "serve_p99_ms": (float(np.percentile(b, 99)) * 1e3, "ms"),
            "serve_rps": (self.requests / trace_s, "req/s"),
            "update_p50_ms": (float(np.percentile(u, 50)) * 1e3, "ms"),
            "update_p99_ms": (float(np.percentile(u, 99)) * 1e3, "ms"),
            "readback_p50_ms": (float(np.percentile(r, 50)) * 1e3, "ms"),
            "backend_calls": (float(len(b)), "count"),
            "sim_deadline_missed_or_shed": (float(self.requests - self.served), "count"),
        }

    def layer_counts(self) -> dict[str, float]:
        return {
            "serve.served_frac": self.served / self.requests,
            "shard.bg_checkpoints": self.bg_checkpoints / self.units,
            "shard.fresh_row_frac": 1.0 - self.stale_rows / max(self.rows, 1),
        }


NAMES = ("embed-fr", "embed-tw-threads", "ingest-rmat", "serve-rw")


def make(name: str, out_dir: str) -> Workload:
    """Build the named workload (raises KeyError for an unknown name)."""
    factories = {
        "embed-fr": lambda: EmbedWorkload("embed-fr", "FR", ParallelConfig()),
        "embed-tw-threads": lambda: EmbedWorkload(
            "embed-tw-threads", "TW",
            ParallelConfig(backend=ExecBackend.THREADS, n_workers=2),
        ),
        "ingest-rmat": lambda: IngestWorkload("ingest-rmat"),
        "serve-rw": lambda: ServeWorkload("serve-rw", out_dir),
    }
    return factories[name]()
