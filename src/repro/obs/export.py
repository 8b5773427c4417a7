"""The telemetry session: one run's tracer, metrics, ledgers and events.

:class:`TelemetrySession` bundles one tracer + one registry + metadata
and writes the lot as a :class:`~repro.obs.live.TelemetryStream`, the
one telemetry file format (see :mod:`repro.obs.live`).  Its records:

- ``{"type": "meta", ...}``        — run metadata (graph, config, version);
- ``{"type": "span", ...}``        — one finished tracer span;
- ``{"type": "event", ...}``       — free-form instant events;
- ``{"type": "metric", ...}``      — one counter/gauge/histogram;
- ``{"type": "cost_trace", ...}``  — a named :class:`CostTrace` ledger
  (full float precision, so downstream breakdowns reproduce
  ``CostTrace.breakdown()`` exactly);
- ``{"type": "manifest", ...}``    — the run manifest (git SHA, config
  hash, dataset, seed, sim/wall totals; see
  :mod:`repro.obs.observatory.manifest`).

:meth:`TelemetrySession.stream_to` writes them while the run is in
flight (the CLI's ``--telemetry-out``); :meth:`TelemetrySession.save`
writes a finished session in one go (the bench harness).  ``repro
report`` (:mod:`repro.obs.report`) renders the file back into the
Fig. 7(a)-style tables.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.memsim.trace import CostTrace
from repro.obs.live import CLOSED_RECORD_TYPE, TelemetryStream
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SpanTracer

#: Schema version stamped into every meta record.
TELEMETRY_VERSION = 1


class TelemetrySession:
    """One run's tracer, metrics, ledgers and metadata, exportable.

    Args:
        meta: run metadata serialized into the leading meta record.
        tracer: span tracer to use (a fresh one by default).
        metrics: metrics registry to use (a fresh one by default).
    """

    def __init__(
        self,
        meta: dict[str, Any] | None = None,
        tracer: SpanTracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else SpanTracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.meta = dict(meta or {})
        self._traces: dict[str, CostTrace] = {}
        self._events: list[dict[str, Any]] = []
        self._stream: TelemetryStream | None = None

    @property
    def stream(self) -> TelemetryStream | None:
        """The open :class:`~repro.obs.live.TelemetryStream`, if any."""
        return self._stream

    def stream_to(
        self, path: str | Path, flush_every: int = 20
    ) -> TelemetryStream:
        """Stream the session to ``path`` from now until :meth:`close_stream`.

        The meta record is written immediately, every span is appended
        the moment it finishes (via a tracer listener), and events
        forward as they are recorded.  The tracer's ``live_path`` is set
        so kernel executors can point worker processes at sibling
        stream files.  A crash before :meth:`close_stream` still leaves
        every flushed record behind.
        """
        if self._stream is not None:
            raise ValueError("session is already streaming")
        stream = TelemetryStream(
            path, flush_every=flush_every, trace_id=self.tracer.trace_id
        )
        stream.emit(self._meta_record())
        self.tracer.add_listener(lambda span: stream.emit(span.to_record()))
        self.tracer.live_path = str(stream.path)
        self._stream = stream
        return stream

    def close_stream(self) -> Path | None:
        """Finish the stream: metrics, cost traces, manifest, close.

        Returns the stream path, or None when not streaming.
        """
        if self._stream is None:
            return None
        stream = self._stream
        self._finish(stream)
        self._stream = None
        self.tracer.live_path = None
        return stream.path

    def save(self, path: str | Path) -> Path:
        """Write the session so far as one closed telemetry stream."""
        stream = TelemetryStream(path, trace_id=self.tracer.trace_id)
        for record in [
            self._meta_record(), *self.tracer.to_records(), *self._events
        ]:
            stream.emit(record)
        self._finish(stream)
        return stream.path

    def _finish(self, stream: TelemetryStream) -> None:
        """Append the closing records to ``stream`` and close it."""
        for record in self.metrics.to_records():
            stream.emit(record)
        for name, trace in sorted(self._traces.items()):
            stream.emit(
                {"type": "cost_trace", "name": name, **trace.to_dict()}
            )
        stream.emit(self.manifest().to_record())
        stream.emit(
            {"type": CLOSED_RECORD_TYPE, "n_records": stream.n_records}
        )
        stream.close()

    def _meta_record(self) -> dict[str, Any]:
        return {
            "type": "meta", "telemetry_version": TELEMETRY_VERSION, **self.meta
        }

    def add_cost_trace(self, name: str, trace: CostTrace) -> None:
        """Attach a named cost ledger (merged if the name repeats)."""
        if name in self._traces:
            self._traces[name].merge(trace)
        else:
            merged = CostTrace()
            merged.merge(trace)
            self._traces[name] = merged

    def cost_trace(self, name: str) -> CostTrace | None:
        """Look up an attached ledger by name."""
        return self._traces.get(name)

    def event(self, name: str, **fields: Any) -> None:
        """Record a free-form instant event (streamed if streaming)."""
        record = {
            "type": "event",
            "name": name,
            "sim_cursor": self.tracer.sim_cursor,
            **fields,
        }
        self._events.append(record)
        if self._stream is not None:
            self._stream.emit(record)
            self._stream.flush()

    def manifest(self):
        """The run manifest of this session's current state.

        Computed fresh on every call (the identity includes the span
        and metric counts plus the sim total, all of which grow as the
        run progresses).
        """
        # Imported lazily: the observatory is pure post-processing on
        # top of this module and imports it back.
        from repro.obs.observatory.manifest import build_manifest

        return build_manifest(
            self.meta,
            self.tracer.to_records(),
            self.metrics.to_records(),
            self._events,
            sim_seconds_total=self.tracer.sim_cursor,
        )

    def records(self) -> list[dict[str, Any]]:
        """All records of this session, in the order a loaded file has them.

        Meta, manifest, spans, metrics, cost traces, events — the shape
        :func:`~repro.obs.live.load_records` returns.
        """
        out: list[dict[str, Any]] = [
            self._meta_record(),
            self.manifest().to_record(),
        ]
        out.extend(self.tracer.to_records())
        out.extend(self.metrics.to_records())
        for name, trace in sorted(self._traces.items()):
            out.append({"type": "cost_trace", "name": name, **trace.to_dict()})
        out.extend(self._events)
        return out
