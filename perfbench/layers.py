"""Which public calls of each layer are traced, and the per-layer metrics.

``install`` wraps the calls; ``per_layer_metrics`` turns the recorded
spans into the ``PER_LAYER`` metrics of :mod:`metrics`.  Time metrics
take the union of a layer's span intervals, so a call nested inside
another call of the same layer is never counted twice.
"""

from __future__ import annotations

import statistics
from typing import Iterable

import numpy as np

from spans import Instrumentation, Span, SpanRecorder

ROOT_SETUP = "bench.setup"
ROOT_UNIT = "bench.unit"


def _nnz(args, kwargs, result):
    return {"nnz": int(result.nnz)}


def _edges(args, kwargs, result):
    edges = getattr(result, "edges", result)
    return {"edges": int(len(edges))}


def _multiply(args, kwargs, result):
    matrix, dense = args[1], np.asarray(args[2])
    d = 1 if dense.ndim == 1 else int(dense.shape[1])
    attrs = {
        "kernel_s": float(result.kernel_wall_seconds),
        "sim_s": float(result.sim_seconds),
        "partitions": len(result.partitions),
        "nnz": int(matrix.nnz),
        "hit_frac": float(result.mean_hit_fraction),
        "computed": result.output is not None,
    }
    if result.output is not None:
        attrs["flops"] = 2.0 * matrix.nnz * d
        attrs["bytes"] = float(
            matrix.deg_list.nbytes + matrix.deg_ind.nbytes
            + matrix.col_list.nbytes + matrix.nnz_list.nbytes
            + matrix.perm.nbytes + dense.nbytes + result.output.nbytes
        )
    return attrs


def _partitions(args, kwargs, result):
    matrix, ranges = args[1], args[3]
    prefix = matrix.nnz_prefix()
    loads = [int(prefix[end] - prefix[start]) for start, end in ranges if end > start]
    loads = [load for load in loads if load > 0]
    imbalance = max(loads) / (sum(loads) / len(loads)) if loads else 1.0
    return {"imbalance": imbalance}


def _stage(args, kwargs, result):
    return {"stage": result}


def _fidelity(args, kwargs, result):
    return {"fidelity": result.fidelity}


def _submitted(args, kwargs, result):
    return {"submitted": int(result.submitted), "served": int(result.served)}


def install(instr: Instrumentation) -> None:
    """Wrap every traced call.  Modules are imported here, after ``repro``."""
    from repro.core.embedding import PipelineRun
    from repro.core.spmm import SpMMEngine
    from repro.formats.csdb import CSDBMatrix
    from repro.memsim.persistence import CheckpointedEmbedder
    from repro.parallel.scheduler import SimulatedExecutor
    from repro.parallel.shared import SharedMemoryExecutor
    from repro.parallel.threads import ThreadsExecutor
    from repro.serve.backend import EmbeddingBackend
    from repro.serve.server import EmbeddingServer
    from repro.serve.sharded import ShardedEmbeddingBackend
    from repro.shard.store import EmbeddingShardManager
    from repro.shard.supervisor import ShardSupervisor

    fn = instr.function
    fn("repro.graphs.datasets", "load_dataset", "graphs.generate", _edges)
    fn("repro.graphs.rmat", "rmat_edges", "graphs.generate", _edges)
    fn("repro.formats.convert", "edges_to_csdb", "formats.csdb_build", _nnz)
    instr.method(CSDBMatrix, "from_coo", "formats.csdb_build", _nnz)
    fn("repro.prone.model", "prone_smf", "prone.smf")
    fn("repro.prone.tsvd", "randomized_tsvd", "prone.tsvd")
    fn("repro.prone.laplacian", "chebyshev_operator", "prone.operator_build")
    fn("repro.prone.laplacian", "add_identity", "prone.operator_build")
    fn("repro.prone.chebyshev", "chebyshev_gaussian_filter", "prone.chebyshev")
    fn("repro.prone.model", "densify_embedding", "prone.densify")
    instr.method(SpMMEngine, "multiply", "core.multiply", _multiply)
    instr.method(PipelineRun, "run_next", "core.stage", _stage)
    for executor in (SimulatedExecutor, ThreadsExecutor, SharedMemoryExecutor):
        instr.method(
            executor, "run_partitions", "parallel.run_partitions", _partitions
        )
    instr.method(
        CheckpointedEmbedder, "embed_with_checkpoints", "memsim.checkpointed_embed"
    )
    instr.method(EmbeddingServer, "run_trace", "serve.run_trace", _submitted)
    for backend in (EmbeddingBackend, ShardedEmbeddingBackend):
        instr.method(backend, "serve", "serve.backend", _fidelity)
    instr.method(EmbeddingBackend, "serve_cached", "serve.backend_cached")
    instr.method(EmbeddingShardManager, "lookup", "shard.lookup")
    instr.method(EmbeddingShardManager, "apply_update", "shard.update")
    instr.method(EmbeddingShardManager, "start", "shard.spawn")
    instr.method(ShardSupervisor, "check", "shard.supervisor_check")


def covered(spans: Iterable[Span]) -> float:
    """Seconds covered by the union of the spans' intervals."""
    total, end = 0.0, float("-inf")
    for span in sorted(spans, key=lambda s: s.start):
        if span.end > end:
            total += span.end - max(span.start, end)
            end = span.end
    return total


def _percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


class _Phase:
    """The spans of one run id (the set-up, or one traced unit of work)."""

    def __init__(self, recorder: SpanRecorder, spans: list[Span]) -> None:
        self.recorder = recorder
        self.spans = spans

    def named(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def time(self, *names: str) -> float:
        return covered(self.named(*names))

    def attr_sum(self, name: str, key: str) -> float:
        return float(sum(s.attrs.get(key, 0) for s in self.named(name)))

    def under(self, inner: str, outer: str) -> float:
        """Seconds of ``inner`` spans that run inside an ``outer`` span."""
        return covered(
            s for s in self.named(inner)
            if any(a.name == outer for a in self.recorder.ancestors(s))
        )

    def additive(self) -> dict[str, float]:
        m: dict[str, float] = {}
        m["graphs.generate_s"] = self.time("graphs.generate")
        m["graphs.edges"] = self.attr_sum("graphs.generate", "edges")
        m["formats.csdb_build_s"] = self.time("formats.csdb_build")
        m["formats.csdb_build_nnz"] = self.attr_sum("formats.csdb_build", "nnz")
        m["formats.spmm_kernel_s"] = self.attr_sum("core.multiply", "kernel_s")
        m["formats.spmm_calls"] = float(
            sum(1 for s in self.named("core.multiply") if s.attrs.get("computed"))
        )
        m["formats.spmm_flops"] = self.attr_sum("core.multiply", "flops")
        m["formats.spmm_bytes_computed"] = self.attr_sum("core.multiply", "bytes")
        tsvd = self.time("prone.tsvd")
        m["prone.smf_build_s"] = self.time("prone.smf") - self.under(
            "prone.tsvd", "prone.smf"
        )
        m["prone.operator_build_s"] = self.time("prone.operator_build")
        m["prone.tsvd_s"] = tsvd
        m["prone.tsvd_dense_s"] = tsvd - self.under("core.multiply", "prone.tsvd")
        m["prone.chebyshev_s"] = self.time("prone.chebyshev")
        m["prone.densify_s"] = self.time("prone.densify")
        multiply = self.time("core.multiply")
        m["core.multiply_s"] = multiply
        m["core.multiply_calls"] = float(len(self.named("core.multiply")))
        m["core.partitions"] = self.attr_sum("core.multiply", "partitions")
        m["core.dispatch_s"] = multiply - m["formats.spmm_kernel_s"]
        for stage in ("graph_read", "factorization", "propagation"):
            m[f"core.stage.{stage}_s"] = covered(
                s for s in self.named("core.stage") if s.attrs.get("stage") == stage
            )
        m["core.sim_s"] = self.attr_sum("core.multiply", "sim_s")
        m["parallel.run_partitions_s"] = self.time("parallel.run_partitions")
        m["parallel.plans"] = float(len(self.named("parallel.run_partitions")))
        m["memsim.checkpointed_embed_s"] = self.time("memsim.checkpointed_embed")
        run_trace = self.time("serve.run_trace")
        m["serve.run_trace_s"] = run_trace
        m["serve.loop_self_s"] = run_trace - covered(
            s for s in self.named("serve.backend", "serve.backend_cached")
            if any(a.name == "serve.run_trace" for a in self.recorder.ancestors(s))
        )
        for fidelity, key in (("full", "full"), ("propagation_only", "propagation")):
            m[f"serve.backend_{key}_s"] = covered(
                s for s in self.named("serve.backend")
                if s.attrs.get("fidelity") == fidelity
            )
        m["serve.backend_cached_s"] = self.time("serve.backend_cached")
        m["shard.supervisor_check_s"] = self.time("shard.supervisor_check")
        m["shard.update_s"] = self.time("shard.update")
        m["shard.spawn_s"] = self.time("shard.spawn")
        return m


def per_layer_metrics(
    recorder: SpanRecorder,
    import_s: float,
    traced_units: list[str],
    untraced_e2e: list[float],
    traced_e2e: list[float],
    workload_counts: dict[str, float],
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from the spans of one traced run."""
    by_run: dict[str, list[Span]] = {}
    for span in recorder.spans:
        by_run.setdefault(span.run_id, []).append(span)
    setup = _Phase(recorder, by_run.get("setup", []))
    units = [_Phase(recorder, by_run.get(run, [])) for run in traced_units]
    pooled = _Phase(recorder, [s for u in units for s in u.spans])

    base = setup.additive()
    per_unit = [u.additive() for u in units]
    metrics = {
        key: base[key] + statistics.median(u[key] for u in per_unit)
        for key in base
    }
    metrics["import.repro_s"] = import_s
    # Ratios pool the set-up with the traced units: on serve-rw the kernel
    # runs only during warm-up.
    everything = _Phase(recorder, setup.spans + pooled.spans)
    kernel = everything.attr_sum("core.multiply", "kernel_s")
    metrics["formats.spmm_gflops"] = (
        everything.attr_sum("core.multiply", "flops") / kernel / 1e9
        if kernel else 0.0
    )
    multiplies = everything.named("core.multiply")
    nnz = sum(s.attrs["nnz"] for s in multiplies)
    metrics["core.wofp_hit_frac"] = (
        sum(s.attrs["hit_frac"] * s.attrs["nnz"] for s in multiplies) / nnz
        if nnz else 0.0
    )
    plans = everything.named("parallel.run_partitions")
    metrics["parallel.partition_nnz_imbalance"] = (
        statistics.fmean(s.attrs["imbalance"] for s in plans) if plans else 0.0
    )
    backend = [
        s.duration for s in pooled.named("serve.backend", "serve.backend_cached")
    ]
    metrics["serve.backend_p50_ms"] = _percentile_ms(backend, 50)
    metrics["serve.backend_p99_ms"] = _percentile_ms(backend, 99)
    run_trace = pooled.time("serve.run_trace")
    metrics["serve.rps"] = (
        pooled.attr_sum("serve.run_trace", "submitted") / run_trace
        if run_trace else 0.0
    )
    lookups = [s.duration for s in pooled.named("shard.lookup")]
    metrics["shard.lookup_p50_ms"] = _percentile_ms(lookups, 50)
    metrics["shard.lookup_p99_ms"] = _percentile_ms(lookups, 99)
    updates = [s.duration for s in pooled.named("shard.update")]
    metrics["shard.update_p50_ms"] = _percentile_ms(updates, 50)
    metrics["shard.update_p99_ms"] = _percentile_ms(updates, 99)
    metrics["obs.trace_overhead_frac"] = (
        statistics.median(traced_e2e) / statistics.median(untraced_e2e) - 1.0
    )
    unattributed = []
    for unit in units:
        (root,) = unit.named(ROOT_UNIT)
        layer_spans = [s for s in unit.spans if not s.name.startswith("bench.")]
        unattributed.append(1.0 - covered(layer_spans) / root.duration)
    metrics["obs.unattributed_frac"] = statistics.median(unattributed)
    metrics.update(workload_counts)
    return metrics
