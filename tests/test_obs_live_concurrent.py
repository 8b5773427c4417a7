"""Concurrent multi-writer streams and forensic-span merge semantics.

Two real writer processes append sibling streams (``<stream>.w<n>``)
while the coordinator stream carries copies of some of their records —
the double-delivery shape of the live bus, where a worker's payload
travels both over the result queue (re-emitted by the coordinator) and
through the worker's own crash-tolerant file.  ``load_records`` must
count every forensic span exactly once: duplicates collapse on the
top-level ``uid``, worker-only orphans (the coordinator died first)
are grafted in, and nothing is dropped.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.obs.forensics import FORENSIC_RECORD_TYPE, fold_stream
from repro.obs.live import (
    StreamFollower,
    TelemetryStream,
    load_records,
    worker_stream_paths,
)

N_TREES = 12


def _tree_records(worker: int, i: int) -> list[dict]:
    """One deterministic two-node request tree (root + kernel child)."""
    trace_id = f"req-w{worker}-{i:04d}"
    root_uid = f"w{worker}-{i}-root"
    return [
        {
            "type": FORENSIC_RECORD_TYPE,
            "trace_id": trace_id,
            "uid": root_uid,
            "parent_uid": None,
            "name": "request",
            "category": None,
            "sim_start": float(i),
            "sim_seconds": 0.5,
            "attributes": {
                "request_id": trace_id,
                "klass": "interactive",
                "status": "served",
                "arrival_s": float(i),
                "deadline_s": 1.0,
                "blame": {"kernel": 0.5},
                "lookup_seqs": [],
            },
        },
        {
            "type": FORENSIC_RECORD_TYPE,
            "trace_id": trace_id,
            "uid": f"w{worker}-{i}-kernel",
            "parent_uid": root_uid,
            "name": "kernel",
            "category": "kernel",
            "sim_start": float(i),
            "sim_seconds": 0.5,
            "attributes": {},
        },
    ]


def _writer(base_path: str, worker: int) -> None:
    """Worker process: append one sibling stream, a tree at a time."""
    with TelemetryStream(
        f"{base_path}.w{worker}", flush_every=1, role="worker"
    ) as stream:
        for i in range(N_TREES):
            for record in _tree_records(worker, i):
                stream.emit(record)
            time.sleep(0.001)
        stream.emit({"type": "stream_closed"})


@pytest.fixture
def concurrent_streams(tmp_path):
    """Coordinator stream + two live worker siblings, written concurrently.

    The coordinator re-emits the even-numbered trees of both workers
    (the result-queue copies) while the workers are still appending
    their own files — so every even tree exists twice on disk.
    """
    base = tmp_path / "serve.live.jsonl"
    ctx = multiprocessing.get_context("spawn")
    workers = [
        ctx.Process(target=_writer, args=(str(base), w)) for w in (1, 2)
    ]
    with TelemetryStream(base, flush_every=1) as coordinator:
        for proc in workers:
            proc.start()
        for worker in (1, 2):
            for i in range(0, N_TREES, 2):
                for record in _tree_records(worker, i):
                    coordinator.emit(record)
        for proc in workers:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        coordinator.emit({"type": "stream_closed"})
    return base


class TestConcurrentWriters:
    def test_merge_never_drops_or_duplicates_forensic_spans(
        self, concurrent_streams
    ):
        assert len(worker_stream_paths(concurrent_streams)) == 2
        merged = load_records(concurrent_streams)
        forensic = [
            r for r in merged if r.get("type") == FORENSIC_RECORD_TYPE
        ]
        uids = [r["uid"] for r in forensic]
        assert len(uids) == len(set(uids)), "duplicated forensic span"
        expected = {
            f"w{worker}-{i}-{node}"
            for worker in (1, 2)
            for i in range(N_TREES)
            for node in ("root", "kernel")
        }
        assert set(uids) == expected, "dropped forensic span"

    def test_merged_trees_fold_and_verify(self, concurrent_streams):
        report = fold_stream(load_records(concurrent_streams))
        assert report.n_requests == 2 * N_TREES
        assert report.verify() == []
        # Every tree kept both its nodes through the merge.
        for summary in report.summaries.values():
            assert summary["blame"] == {"kernel": 0.5}

    def test_follower_tails_a_live_worker_sibling(self, tmp_path):
        base = tmp_path / "serve.live.jsonl"
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_writer, args=(str(base), 1))
        proc.start()
        follower = StreamFollower(f"{base}.w1")
        deadline = time.monotonic() + 30
        while not follower.closed and time.monotonic() < deadline:
            follower.poll()
            time.sleep(0.005)
        proc.join(timeout=30)
        assert proc.exitcode == 0
        follower.poll()
        assert follower.closed
        forensic = [
            r
            for r in follower.records
            if r.get("type") == FORENSIC_RECORD_TYPE
        ]
        # Incremental polling reassembled every record the worker wrote,
        # without duplication, despite racing the writer.
        assert len(forensic) == 2 * N_TREES
        assert len({r["uid"] for r in forensic}) == 2 * N_TREES
