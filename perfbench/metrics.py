"""What each metric means and, for per-layer metrics, what it should move.

Names, units, directions and bounds are in ``BENCHMARK.json`` at the
repository root, and ``run.py`` reads them from there; this module only
explains them.  The second text of a per-layer entry records, before
any optimization is measured, which end-to-end metric on which workload
the metric should move.

Every metric is reported on every workload.  A layer a workload does not
exercise reports 0 (its span count is 0 too), so the table of a run
shows which layers carried its work.
"""

#: Measured with tracing off.  A unit of work is one ``embed_edges`` call
#: (embed-*), one generate -> CSDB -> cost-only sweep (ingest-rmat), or
#: one replay of the 2,000-request trace with its 1,000 row updates and
#: their read-backs (serve-rw).
END_TO_END = {
    "setup_s": (
        "process start to the first timed operation: import repro, input "
        "generation, and on serve-rw backend.warm_up(); median of the set-ups"
        " of one run, all but one in a fresh process"
    ),
    "e2e_s": (
        "median wall seconds of one unit of work (embed_s, ingest_s, or one "
        "serve-rw replay: run_trace, apply_update and read-back time)"
    ),
    "peak_rss_mb": (
        "peak RSS of the benchmark process or of any shard process, after "
        "set-up and the first unit of work"
    ),
}

#: Measured in a separate traced run (``--trace 1``): name -> (meaning,
#: what it should move).  Time metrics are the set-up phase's total plus
#: the median over traced units of work.
PER_LAYER = {
    "import.repro_s": (
        "wall time of `import repro`",
        "setup_s on all workloads",
    ),
    "graphs.generate_s": (
        "load_dataset / rmat_edges wall time",
        "e2e_s on ingest-rmat; setup_s elsewhere",
    ),
    "graphs.edges": (
        "undirected edges generated",
        "input size; constant for a seed",
    ),
    "formats.csdb_build_s": (
        "edges_to_csdb and CSDBMatrix.from_coo wall time, including the calls"
        " made by prone's operator builds",
        "e2e_s on ingest-rmat and embed-fr",
    ),
    "formats.csdb_build_nnz": (
        "non-zeros of every CSDB matrix built",
        "e2e_s on ingest-rmat and embed-fr",
    ),
    "formats.spmm_kernel_s": (
        "sum of SpMMResult.kernel_wall_seconds",
        "e2e_s on embed-fr",
    ),
    "formats.spmm_calls": (
        "SpMM calls whose kernel ran (compute=True)",
        "e2e_s on embed-fr",
    ),
    "formats.spmm_flops": (
        "2 * nnz * d summed over kernel calls",
        "e2e_s on embed-fr",
    ),
    "formats.spmm_bytes_computed": (
        "bytes the kernel touches, computed from array sizes (CSDB arrays + "
        "dense operand + output), not measured",
        "e2e_s on embed-fr",
    ),
    "formats.spmm_gflops": (
        "spmm_flops / spmm_kernel_s",
        "e2e_s on embed-fr",
    ),
    "prone.smf_build_s": (
        "prone_smf minus its randomized_tsvd: SMF values, transpose, factor "
        "scaling",
        "e2e_s on embed-*",
    ),
    "prone.operator_build_s": (
        "chebyshev_operator + add_identity wall time",
        "e2e_s on embed-* (largest share on embed-fr)",
    ),
    "prone.tsvd_s": (
        "randomized_tsvd wall time",
        "e2e_s on embed-*",
    ),
    "prone.tsvd_dense_s": (
        "randomized_tsvd minus the SpMM multiplies inside it (QR, small SVD, "
        "dense products)",
        "e2e_s on embed-* (largest share on embed-tw-threads)",
    ),
    "prone.chebyshev_s": (
        "chebyshev_gaussian_filter wall time",
        "e2e_s on embed-*",
    ),
    "prone.densify_s": (
        "densify_embedding wall time",
        "e2e_s on embed-*",
    ),
    "core.multiply_s": (
        "SpMMEngine.multiply wall time",
        "e2e_s on embed-* and ingest-rmat",
    ),
    "core.multiply_calls": (
        "SpMMEngine.multiply calls",
        "e2e_s on embed-* and ingest-rmat",
    ),
    "core.partitions": (
        "EaTA partitions over all multiplies",
        "e2e_s on embed-* and ingest-rmat",
    ),
    "core.dispatch_s": (
        "multiply minus kernel: EaTA, WoFP, costing, ASL",
        "e2e_s on embed-* and ingest-rmat (all of multiply there)",
    ),
    "core.stage.graph_read_s": (
        "PipelineRun.run_next for the graph_read stage",
        "e2e_s on embed-*",
    ),
    "core.stage.factorization_s": (
        "PipelineRun.run_next for the factorization stage",
        "e2e_s on embed-*",
    ),
    "core.stage.propagation_s": (
        "PipelineRun.run_next for the propagation stage",
        "e2e_s on embed-*",
    ),
    "core.sim_s": (
        "simulated seconds of all multiplies (a deterministic count, not a "
        "wall time)",
        "none: wall-clock changes must not move it",
    ),
    "core.wofp_hit_frac": (
        "nnz-weighted WoFP hit fraction of the multiplies (a count)",
        "none: wall-clock changes must not move it",
    ),
    "parallel.run_partitions_s": (
        "executor run_partitions wall time (any backend)",
        "e2e_s on embed-tw-threads",
    ),
    "parallel.plans": (
        "run_partitions calls",
        "e2e_s on embed-tw-threads",
    ),
    "parallel.partition_nnz_imbalance": (
        "max / mean nnz per non-empty partition, averaged over calls",
        "e2e_s on embed-tw-threads",
    ),
    "memsim.checkpointed_embed_s": (
        "CheckpointedEmbedder.embed_with_checkpoints wall time",
        "setup_s on serve-rw",
    ),
    "serve.run_trace_s": (
        "EmbeddingServer.run_trace wall time",
        "e2e_s on serve-rw",
    ),
    "serve.loop_self_s": (
        "run_trace minus the backend calls inside it",
        "e2e_s on serve-rw",
    ),
    "serve.backend_full_s": (
        "backend.serve wall time at full fidelity",
        "e2e_s on serve-rw",
    ),
    "serve.backend_propagation_s": (
        "backend.serve wall time at propagation_only fidelity",
        "e2e_s on serve-rw",
    ),
    "serve.backend_cached_s": (
        "backend.serve_cached wall time",
        "e2e_s on serve-rw",
    ),
    "serve.backend_p50_ms": (
        "median wall time of one call the server makes into the backend "
        "(serve or serve_cached), timed from outside",
        "e2e_s on serve-rw",
    ),
    "serve.backend_p99_ms": (
        "99th percentile of the same calls",
        "e2e_s on serve-rw (the tail)",
    ),
    "serve.rps": (
        "requests resolved per wall second of run_trace",
        "e2e_s on serve-rw",
    ),
    "serve.served_frac": (
        "requests resolved `served` / requests submitted; the rest are "
        "simulated-clock deadline misses or sheds",
        "none: deterministic in simulated time",
    ),
    "shard.lookup_p50_ms": (
        "median EmbeddingShardManager.lookup wall time",
        "serve.backend_p99_ms, e2e_s on serve-rw",
    ),
    "shard.lookup_p99_ms": (
        "99th percentile EmbeddingShardManager.lookup wall time",
        "serve.backend_p99_ms, e2e_s on serve-rw",
    ),
    "shard.supervisor_check_s": (
        "ShardSupervisor.check wall time",
        "serve.backend_p99_ms, e2e_s on serve-rw",
    ),
    "shard.update_s": (
        "EmbeddingShardManager.apply_update wall time",
        "e2e_s on serve-rw",
    ),
    "shard.update_p50_ms": (
        "median apply_update wall time",
        "e2e_s on serve-rw",
    ),
    "shard.update_p99_ms": (
        "99th percentile apply_update wall time",
        "e2e_s on serve-rw",
    ),
    "shard.spawn_s": (
        "EmbeddingShardManager.start wall time (shard processes)",
        "setup_s on serve-rw",
    ),
    "shard.bg_checkpoints": (
        "background WAL checkpoints cut per unit of work",
        "serve.backend_p99_ms on serve-rw",
    ),
    "shard.fresh_row_frac": (
        "1 - stale rows / rows served by the shards",
        "serve.backend_p99_ms on serve-rw",
    ),
    "obs.trace_overhead_frac": (
        "traced e2e_s / untraced e2e_s - 1, within the traced run",
        "none: cost of this benchmark's own tracing",
    ),
    "obs.unattributed_frac": (
        "share of each traced unit of work that no layer span covers",
        "none: coverage of the layer taxonomy",
    ),
}
