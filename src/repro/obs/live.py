"""The one telemetry file format: an append-only, crash-tolerant stream.

Every telemetry file (``--telemetry-out``, the bench helpers'
:meth:`~repro.obs.export.TelemetrySession.save`, the chaos benches) is a
:class:`TelemetryStream`: JSON Lines opening with a ``stream_meta``
header, growing while the run is in flight (meta, spans as they finish,
events, snapshots) and, on a clean exit, ending with metrics, cost
traces, the run manifest and ``stream_closed``.  Worker processes
append to sibling files (``<stream>.w<pid>``).  :func:`load_records` is
the one reader: it merges the sibling files read by :func:`read_stream`
into the canonical :meth:`~repro.obs.export.TelemetrySession.records`
shape every ``repro`` command consumes.  :class:`TraceContext` carries
the trace coordinates into worker processes; the ops view
(:class:`StreamFollower`, :func:`build_top_frame`, :func:`render_prom`)
is what ``repro top`` renders.

The reader is strict except where a crash forces tolerance: the first
line must be a ``stream_meta`` header and every line must decode, except
the last line of a stream without ``stream_closed`` — the torn record of
a writer killed mid-``write``, or of a file still being written.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

#: Schema version stamped into every stream's ``stream_meta`` header.
STREAM_VERSION = 1

#: Record type of the periodic serving snapshot on a live stream.
SNAPSHOT_RECORD_TYPE = "serve_snapshot"

#: Record type of the header every stream file opens with.
META_RECORD_TYPE = "stream_meta"

#: Record type marking a cleanly closed stream.
CLOSED_RECORD_TYPE = "stream_closed"

#: Record types that belong to the canonical session export shape, in
#: the order :meth:`TelemetrySession.records` emits them.
_CANONICAL_TYPES = ("meta", "manifest", "span", "metric", "cost_trace", "event")


# ---------------------------------------------------------------------------
# Trace propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceContext:
    """Trace coordinates propagated into out-of-process work.

    Attributes:
        trace_id: the coordinator tracer's run-wide trace id.
        parent_span_id: span id the foreign spans should parent under
            (the coordinator's open ``spmm`` span).
        live_path: coordinator's telemetry stream path, if any — each
            worker appends its spans to ``<live_path>.w<pid>``.
    """

    trace_id: str
    parent_span_id: int | None = None
    live_path: str | None = None


_UID_COUNTER = itertools.count()


def next_span_uid() -> str:
    """Process-unique id for a cross-process span payload.

    Merging dedups on this: a span shipped back over the result queue
    *and* appended to a worker stream file must count once.
    """
    return f"{os.getpid()}-{next(_UID_COUNTER)}"


def partition_span_payload(
    ctx: TraceContext,
    *,
    row_start: int,
    row_end: int,
    nnz: int,
    kernel_wall_s: float,
    scatter_wall_s: float,
    queue_wait_s: float = 0.0,
    status: str = "ok",
    uid: str | None = None,
    worker_pid: int | None = None,
    request_trace_id: str | None = None,
) -> dict[str, Any]:
    """The wire shape of one partition's worker span.

    A plain dict (queue-picklable, JSONL-ready) that
    :meth:`SpanTracer.attach` adopts on the coordinator side.  Worker
    spans are wall-clock only — ``sim_seconds`` is zero so the profile
    tree's sim self-time invariant is untouched.

    ``request_trace_id`` stamps the span with the *serving request* it
    executed for (distinct from ``ctx.trace_id``, the run's trace), so
    tail forensics can graft executor partitions into that request's
    causal tree.
    """
    pid = os.getpid() if worker_pid is None else int(worker_pid)
    kernel_wall_s = max(0.0, float(kernel_wall_s))
    scatter_wall_s = max(0.0, float(scatter_wall_s))
    payload = {
        "type": "span",
        "name": "spmm_partition",
        "trace_id": ctx.trace_id,
        "parent_id": ctx.parent_span_id,
        "status": status,
        "sim_seconds": 0.0,
        "sim_start": 0.0,
        "wall_seconds": kernel_wall_s + scatter_wall_s,
        "attributes": {
            "uid": uid if uid is not None else next_span_uid(),
            "worker_pid": pid,
            "row_start": int(row_start),
            "row_end": int(row_end),
            "rows": int(row_end) - int(row_start),
            "nnz": int(nnz),
            "kernel_wall_s": kernel_wall_s,
            "scatter_wall_s": scatter_wall_s,
            "queue_wait_s": max(0.0, float(queue_wait_s)),
        },
    }
    if request_trace_id is not None:
        payload["attributes"]["request_trace_id"] = str(request_trace_id)
    return payload


# ---------------------------------------------------------------------------
# The stream
# ---------------------------------------------------------------------------


class TelemetryStream:
    """Append-only, crash-tolerant JSONL telemetry stream.

    Records are written one JSON object per line and flushed every
    ``flush_every`` records (``1`` = flush each record), so a follower
    sees progress while the run is live and a crash loses at most the
    unflushed tail.  The first record is always a ``stream_meta`` header
    identifying the writing process and trace, flushed at once so the
    file is a valid stream from the moment it exists.
    """

    def __init__(
        self,
        path: str | Path,
        flush_every: int = 20,
        role: str = "coordinator",
        trace_id: str | None = None,
    ) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.path = Path(path)
        self.role = role
        self.trace_id = trace_id
        self.flush_every = int(flush_every)
        self.n_records = 0
        self._since_flush = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")
        self.emit(
            {
                "type": META_RECORD_TYPE,
                "stream_version": STREAM_VERSION,
                "role": role,
                "pid": os.getpid(),
                "trace_id": trace_id,
            }
        )
        self.flush()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._handle is None

    def emit(self, record: dict[str, Any]) -> None:
        """Append one record, flushing per the stream's cadence."""
        if self._handle is None:
            raise ValueError(f"stream {self.path} is closed")
        if "type" not in record:
            raise ValueError(f"record must carry a 'type' field: {record!r}")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self.n_records += 1
        self._since_flush += 1
        if self._since_flush >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Push buffered records to the file."""
        if self._handle is not None:
            self._handle.flush()
        self._since_flush = 0

    def close(self) -> None:
        """Flush and close; further :meth:`emit` calls raise."""
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TelemetryStream":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def read_stream(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """Read one stream file, skipping only a torn tail.

    Raises :class:`ValueError` naming ``path:line`` when the first line
    is not a ``stream_meta`` header, or when a line does not decode to a
    JSON object — unless it is the last line of a stream that has not
    written ``stream_closed`` (a writer killed mid-record, or a file
    still being written).  Returns ``(records, n_skipped)``, where
    ``n_skipped`` is 1 for a skipped torn tail and 0 otherwise.
    """
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    lines = [
        (line_no, line)
        for line_no, raw in enumerate(text.split("\n"), start=1)
        if (line := raw.strip())
    ]
    if not lines:
        raise ValueError(f"{path}:1: empty file, expected stream_meta header")
    records: list[dict[str, Any]] = []
    closed = False
    for index, (line_no, line) in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if index == len(lines) - 1 and index > 0 and not closed:
                return records, 1
            raise ValueError(
                f"{path}:{line_no}: invalid telemetry record: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{line_no}: record is not a JSON object")
        if index == 0 and record.get("type") != META_RECORD_TYPE:
            raise ValueError(
                f"{path}:{line_no}: expected a stream_meta header,"
                f" got {record.get('type')!r}"
            )
        closed = closed or record.get("type") == CLOSED_RECORD_TYPE
        records.append(record)
    return records, 0


class StreamFollower:
    """Incremental reader over a growing stream file (``repro top``).

    Keeps a byte offset plus the partial tail of the last read, so each
    :meth:`poll` returns only records completed since the previous poll
    and a half-written line is simply retried next time.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.records: list[dict[str, Any]] = []
        #: True once the writer emitted its ``stream_closed`` sentinel.
        self.closed = False
        self._offset = 0
        self._tail = ""

    def poll(self) -> list[dict[str, Any]]:
        """Read newly completed records; also appended to ``records``."""
        if not self.path.exists():
            return []
        with self.path.open("r", encoding="utf-8", errors="replace") as fh:
            fh.seek(self._offset)
            chunk = fh.read()
            self._offset = fh.tell()
        if not chunk:
            return []
        lines = (self._tail + chunk).split("\n")
        self._tail = lines.pop()  # "" when the chunk ended on a newline
        fresh: list[dict[str, Any]] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                fresh.append(record)
                self.closed |= record.get("type") == CLOSED_RECORD_TYPE
        self.records.extend(fresh)
        return fresh


# ---------------------------------------------------------------------------
# Merging multi-process streams
# ---------------------------------------------------------------------------


def worker_stream_paths(path: str | Path) -> list[Path]:
    """Worker sibling files of a coordinator stream, sorted by name."""
    path = Path(path)
    return sorted(
        p
        for p in path.parent.glob(path.name + ".w*")
        if p.is_file()
    )


def load_records(path: str | Path) -> list[dict[str, Any]]:
    """Load a telemetry file: the one reader behind every ``repro`` command.

    Reads the coordinator stream and its worker siblings with
    :func:`read_stream` (so a malformed file raises with its
    ``path:line``) and stitches them into one record list in the
    canonical session shape (meta, manifest, spans in id order,
    metrics, cost traces, events) followed by the stream-only records
    (snapshots, stream markers).

    Worker spans already adopted by the coordinator (they travel both
    over the result queue and through the worker's own stream file) are
    deduplicated by their ``attributes.uid``; spans found *only* in a
    worker file (the coordinator died first) are grafted in with fresh
    span ids.  If the stream was cut before close, a manifest is
    synthesized from what survived.
    """
    base, _ = read_stream(path)
    grouped: dict[str, list[dict[str, Any]]] = {t: [] for t in _CANONICAL_TYPES}
    passthrough: list[dict[str, Any]] = []
    forensic_uids: set[str] = set()
    for record in base:
        kind = record.get("type")
        if kind in grouped:
            grouped[kind].append(record)
        else:
            if kind == "forensic_span" and record.get("uid") is not None:
                forensic_uids.add(str(record["uid"]))
            passthrough.append(record)

    spans = sorted(
        grouped["span"], key=lambda s: int(s.get("span_id", 0) or 0)
    )
    seen_uids = {
        (s.get("attributes") or {}).get("uid")
        for s in spans
    }
    seen_uids.discard(None)
    known_ids = {
        int(s["span_id"])
        for s in spans
        if isinstance(s.get("span_id"), int)
    }
    next_id = max(known_ids, default=-1) + 1
    parent_sim_start = {
        int(s["span_id"]): float(s.get("sim_start", 0.0) or 0.0)
        for s in spans
        if isinstance(s.get("span_id"), int)
    }
    for worker_path in worker_stream_paths(path):
        worker_records, _ = read_stream(worker_path)
        for record in worker_records:
            if record.get("type") == "forensic_span":
                # Forensic nodes dedup on their top-level uid, exactly
                # like worker spans dedup on attributes.uid: a node
                # shipped to the coordinator *and* written by the
                # worker's own stream must count once.
                fuid = record.get("uid")
                if fuid is not None and str(fuid) in forensic_uids:
                    continue
                if fuid is not None:
                    forensic_uids.add(str(fuid))
                passthrough.append(dict(record))
                continue
            if record.get("type") != "span":
                continue
            uid = (record.get("attributes") or {}).get("uid")
            if uid is not None and uid in seen_uids:
                continue
            entry = dict(record)
            parent = entry.get("parent_id")
            if parent is not None and int(parent) in known_ids:
                # Zero-width sim placement inside the parent's interval.
                entry["sim_start"] = parent_sim_start[int(parent)]
            else:
                entry["parent_id"] = None  # parent span never closed
            entry["span_id"] = next_id
            entry.setdefault("depth", 1)
            entry.setdefault("sim_seconds", 0.0)
            next_id += 1
            if uid is not None:
                seen_uids.add(uid)
            spans.append(entry)

    manifests = grouped["manifest"]
    if not manifests:
        manifests = [
            _synthesize_manifest(
                grouped["meta"], spans, grouped["metric"], grouped["event"]
            )
        ]
    return (
        grouped["meta"][:1]
        + manifests[:1]
        + spans
        + grouped["metric"]
        + grouped["cost_trace"]
        + grouped["event"]
        + passthrough
    )


def _synthesize_manifest(
    metas: list[dict[str, Any]],
    spans: list[dict[str, Any]],
    metrics: list[dict[str, Any]],
    events: list[dict[str, Any]],
) -> dict[str, Any]:
    """Best-effort manifest for a stream cut before clean close."""
    from repro.obs.observatory.manifest import build_manifest

    meta = dict(metas[0]) if metas else {}
    sim_total = max(
        (
            float(s.get("sim_start", 0.0) or 0.0)
            + max(0.0, float(s.get("sim_seconds", 0.0) or 0.0))
            for s in spans
        ),
        default=0.0,
    )
    manifest = build_manifest(meta, spans, metrics, events, sim_total)
    record = manifest.to_record()
    record["synthesized"] = True
    return record


def progress_line(record: dict[str, Any]) -> str | None:
    """One human-readable progress line for a live-stream record.

    The ``--follow`` mode of ``repro embed`` / ``repro compare`` tails
    its own ``--telemetry-out`` file and prints these as the run advances:
    completed pipeline stages (coarse spans only — worker partition
    spans would flood the terminal), shard events from the resilience
    layer, and run-level events.  Returns ``None`` for records that
    carry no progress signal.
    """
    kind = record.get("type")
    if kind == "span":
        depth = int(record.get("depth", 0) or 0)
        if depth > 2 or record.get("name") == "spmm_partition":
            return None
        sim = float(record.get("sim_seconds", 0.0) or 0.0)
        status = record.get("status", "ok")
        suffix = "" if status == "ok" else f" [{status}]"
        return f"  stage {record.get('name')}: {sim:.4g}s sim{suffix}"
    if kind == "shard_event":
        event = record.get("event")
        shard = record.get("shard")
        detail = ", ".join(
            f"{key}={record[key]}"
            for key in ("reason", "version", "lag_closed", "lost_versions")
            if record.get(key) not in (None, "", 0)
        )
        return f"  shard {shard}: {event}" + (f" ({detail})" if detail else "")
    if kind == "event":
        name = record.get("name")
        if name == "arm":
            return (
                f"  arm {record.get('system')}: {record.get('status')}"
                f" ({float(record.get('sim_seconds', 0.0) or 0.0):.4g}s sim)"
            )
        return f"  event {name}"
    if kind == CLOSED_RECORD_TYPE:
        return "  stream closed"
    return None


# ---------------------------------------------------------------------------
# Serving snapshots and the ops view
# ---------------------------------------------------------------------------


def build_serve_snapshot(
    metrics: Iterable[Any],
    *,
    sim_now_s: float,
    breaker_state: str,
    queue_depth: int,
    prefixes: tuple[str, ...] = ("serve.", "spmm."),
) -> dict[str, Any]:
    """One periodic snapshot of the serving loop's observable state.

    Embeds the current records of every metric under ``prefixes`` so a
    follower can compute rates between consecutive snapshots without
    replaying the whole run.
    """
    metric_records = [
        m.to_record()
        for m in metrics
        if m.name.startswith(prefixes)
    ]
    return {
        "type": SNAPSHOT_RECORD_TYPE,
        "sim_now_s": float(sim_now_s),
        "breaker_state": str(breaker_state),
        "queue_depth": int(queue_depth),
        "metrics": metric_records,
    }


def latest_metric_records(
    records: list[dict[str, Any]],
) -> list[dict[str, Any]]:
    """The freshest metric view a stream offers.

    The last ``serve_snapshot`` wins (it is the live view); a closed
    stream's final ``metric`` records win over any snapshot because they
    are complete.
    """
    finals = [r for r in records if r.get("type") == "metric"]
    if finals:
        return finals
    snapshots = [
        r for r in records if r.get("type") == SNAPSHOT_RECORD_TYPE
    ]
    if snapshots:
        return list(snapshots[-1].get("metrics") or [])
    return []


def _counter_value(
    metric_records: list[dict[str, Any]],
    name: str,
    labels: dict[str, str] | None = None,
) -> float:
    from repro.obs.observatory.slo import _counter_total

    return _counter_total(metric_records, name, labels)


def _label_values(
    metric_records: list[dict[str, Any]], name: str, label: str
) -> dict[str, float]:
    out: dict[str, float] = {}
    for record in metric_records:
        if record.get("name") != name:
            continue
        value = record.get("value")
        if value is None:
            continue
        key = (record.get("labels") or {}).get(label, "")
        out[key] = out.get(key, 0.0) + float(value)
    return out


def build_top_frame(
    records: list[dict[str, Any]],
    slo_spec: Any | None = None,
) -> dict[str, Any]:
    """Fold stream records into the numbers ``repro top`` renders.

    Rates are simulated-time rates computed between the last two
    snapshots when possible (the live view), falling back to run-wide
    averages.  SLO burn rows appear when ``slo_spec`` is given.
    """
    from repro.obs.observatory.slo import (
        _merged_latency_histogram,
        evaluate_slo,
    )

    snapshots = [
        r for r in records if r.get("type") == SNAPSHOT_RECORD_TYPE
    ]
    metric_records = latest_metric_records(records)
    closed = any(r.get("type") == CLOSED_RECORD_TYPE for r in records)

    sim_now = snapshots[-1]["sim_now_s"] if snapshots else 0.0
    breaker = snapshots[-1]["breaker_state"] if snapshots else "-"
    queue_depth = snapshots[-1]["queue_depth"] if snapshots else 0

    submitted = _counter_value(metric_records, "serve.submitted")
    statuses = _label_values(metric_records, "serve.responses", "status")
    responded = sum(statuses.values())

    # Between-snapshot rates (per simulated second) when two snapshots
    # exist; otherwise the run-wide average.
    req_rate = shed_rate = None
    if len(snapshots) >= 2:
        prev, last = snapshots[-2], snapshots[-1]
        dt = float(last["sim_now_s"]) - float(prev["sim_now_s"])
        if dt > 0:
            prev_metrics = list(prev.get("metrics") or [])
            last_metrics = list(last.get("metrics") or [])
            d_sub = _counter_value(
                last_metrics, "serve.submitted"
            ) - _counter_value(prev_metrics, "serve.submitted")
            d_shed = _counter_value(
                last_metrics, "serve.responses", {"status": "shed"}
            ) - _counter_value(
                prev_metrics, "serve.responses", {"status": "shed"}
            )
            req_rate = d_sub / dt
            shed_rate = d_shed / dt
    if req_rate is None and sim_now > 0:
        req_rate = submitted / sim_now
        shed_rate = statuses.get("shed", 0.0) / sim_now

    histogram = _merged_latency_histogram(metric_records, None)
    p50 = histogram.quantile(0.5) if histogram is not None else math.nan
    p99 = histogram.quantile(0.99) if histogram is not None else math.nan

    fidelity = _label_values(metric_records, "serve.served", "fidelity")
    tier_calls = _label_values(
        metric_records, "serve.backend.calls", "fidelity"
    )
    tier_seconds = _label_values(
        metric_records, "serve.backend.sim_seconds", "fidelity"
    )

    spmm_calls = _counter_value(metric_records, "spmm.calls")
    spmm_nnz = _counter_value(metric_records, "spmm.nnz")
    spmm_kernel_wall = _counter_value(
        metric_records, "spmm.kernel_wall_seconds"
    )
    spmm_throughput = (
        spmm_nnz / spmm_kernel_wall if spmm_kernel_wall > 0 else math.nan
    )

    slo_report = None
    if slo_spec is not None and metric_records:
        slo_report = evaluate_slo(metric_records, slo_spec)

    return {
        "closed": closed,
        "n_snapshots": len(snapshots),
        "sim_now_s": float(sim_now),
        "breaker_state": breaker,
        "queue_depth": int(queue_depth),
        "submitted": submitted,
        "responded": responded,
        "statuses": statuses,
        "req_rate": req_rate,
        "shed_rate": shed_rate,
        "latency_p50_s": p50,
        "latency_p99_s": p99,
        "fidelity": fidelity,
        "tier_calls": tier_calls,
        "tier_seconds": tier_seconds,
        "spmm_calls": spmm_calls,
        "spmm_nnz": spmm_nnz,
        "spmm_kernel_wall_s": spmm_kernel_wall,
        "spmm_nnz_per_wall_s": spmm_throughput,
        "slo_report": slo_report,
    }


def _fmt(value: float | None, digits: int = 2, suffix: str = "") -> str:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "-"
    return f"{value:.{digits}f}{suffix}"


def render_top(frame: dict[str, Any]) -> str:
    """Render one dashboard frame as terminal text."""
    from repro.bench.harness import format_table

    state = "closed" if frame["closed"] else "live"
    lines = [
        f"repro top — {state}, sim t={_fmt(frame['sim_now_s'], 3, 's')},"
        f" snapshots={frame['n_snapshots']}",
        "",
    ]
    statuses = frame["statuses"]
    total = max(frame["responded"], 1.0)
    rows = [
        ["submitted", f"{frame['submitted']:.0f}", _fmt(frame["req_rate"], 2, "/s")],
        *[
            [
                status,
                f"{statuses.get(status, 0.0):.0f}",
                f"{100.0 * statuses.get(status, 0.0) / total:.1f}%",
            ]
            for status in ("served", "shed", "deadline_exceeded", "failed")
        ],
    ]
    lines.append(format_table(["requests", "count", "rate"], rows))
    lines.append("")
    lines.append(
        f"breaker={frame['breaker_state']}  queue_depth={frame['queue_depth']}"
        f"  shed_rate={_fmt(frame['shed_rate'], 2, '/s')}"
        f"  p50={_fmt(frame['latency_p50_s'], 4, 's')}"
        f"  p99={_fmt(frame['latency_p99_s'], 4, 's')}"
    )
    if frame["fidelity"] or frame["tier_calls"]:
        tiers = sorted(
            set(frame["fidelity"]) | set(frame["tier_calls"])
        )
        tier_rows = [
            [
                tier or "?",
                f"{frame['fidelity'].get(tier, 0.0):.0f}",
                f"{frame['tier_calls'].get(tier, 0.0):.0f}",
                _fmt(frame["tier_seconds"].get(tier), 4, "s"),
            ]
            for tier in tiers
        ]
        lines.append("")
        lines.append(
            format_table(
                ["tier", "served", "backend calls", "sim seconds"], tier_rows
            )
        )
    if frame["spmm_calls"] > 0:
        lines.append("")
        lines.append(
            f"spmm: calls={frame['spmm_calls']:.0f}"
            f" nnz={frame['spmm_nnz']:.0f}"
            f" kernel_wall={_fmt(frame['spmm_kernel_wall_s'], 3, 's')}"
            f" throughput={_fmt(frame['spmm_nnz_per_wall_s'], 0, ' nnz/s')}"
        )
    if frame["slo_report"] is not None:
        from repro.obs.observatory.slo import render_slo

        lines.append("")
        lines.append(render_slo(frame["slo_report"]))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Prometheus-style exposition
# ---------------------------------------------------------------------------

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    clean = _PROM_BAD.sub("_", name)
    if clean and clean[0].isdigit():
        clean = "_" + clean
    return clean


def _prom_labels(labels: dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_prom_name(str(k))}="{v}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _prom_exemplar(exemplars: dict[str, Any], index: int) -> str:
    """OpenMetrics exemplar suffix for one bucket line (or "").

    Histogram records carry ``{bucket_index: [[value, trace_id], ...]}``
    newest-first; the newest exemplar is the one exposed, as
    ``... # {trace_id="req-..."} 0.00123``.
    """
    pairs = exemplars.get(str(index)) or []
    if not pairs:
        return ""
    value, trace_id = pairs[0][0], pairs[0][1]
    return f' # {{trace_id="{trace_id}"}} {float(value):g}'


def render_prom(metric_records: list[dict[str, Any]]) -> str:
    """Prometheus text exposition of a set of metric records.

    Counters get the conventional ``_total`` suffix; histograms expand
    to ``_bucket``/``_sum``/``_count`` with cumulative ``le`` buckets.
    Built for the future network front-end's ``/metrics`` endpoint to
    serve verbatim.
    """
    lines: list[str] = []
    seen_types: set[str] = set()
    for record in sorted(
        metric_records,
        key=lambda r: (str(r.get("name", "")), str(r.get("labels", ""))),
    ):
        kind = record.get("kind")
        name = _prom_name(str(record.get("name", "")))
        if not name:
            continue
        labels = record.get("labels") or {}
        if kind == "counter":
            full = f"{name}_total"
            if full not in seen_types:
                lines.append(f"# TYPE {full} counter")
                seen_types.add(full)
            lines.append(
                f"{full}{_prom_labels(labels)} {float(record.get('value', 0.0))}"
            )
        elif kind == "gauge":
            if name not in seen_types:
                lines.append(f"# TYPE {name} gauge")
                seen_types.add(name)
            lines.append(
                f"{name}{_prom_labels(labels)} {float(record.get('value', 0.0))}"
            )
        elif kind == "histogram":
            if name not in seen_types:
                lines.append(f"# TYPE {name} histogram")
                seen_types.add(name)
            bounds = list(record.get("bounds") or [])
            counts = list(record.get("bucket_counts") or [])
            exemplars = record.get("exemplars") or {}
            cumulative = 0.0
            for i, (bound, count) in enumerate(zip(bounds, counts)):
                cumulative += float(count)
                le_labels = dict(labels)
                le_labels["le"] = f"{float(bound):g}"
                lines.append(
                    f"{name}_bucket{_prom_labels(le_labels)} {cumulative:g}"
                    + _prom_exemplar(exemplars, i)
                )
            # Trailing counts beyond the bounds are the +inf overflow.
            cumulative += sum(float(c) for c in counts[len(bounds):])
            inf_labels = dict(labels)
            inf_labels["le"] = "+Inf"
            lines.append(
                f"{name}_bucket{_prom_labels(inf_labels)} {cumulative:g}"
                + _prom_exemplar(exemplars, len(bounds))
            )
            lines.append(
                f"{name}_sum{_prom_labels(labels)}"
                f" {float(record.get('sum', 0.0)):g}"
            )
            lines.append(
                f"{name}_count{_prom_labels(labels)} {cumulative:g}"
            )
    return "\n".join(lines) + ("\n" if lines else "")
