"""Profile aggregation and the collapsed-stack flamegraph export.

The headline property: for any span stream a :class:`SpanTracer`
produces — including annotation spans recorded with ``advance=False`` —
the per-node simulated *self* times of the profile tree sum exactly to
the run's total simulated seconds.
"""

import pytest

from repro.graphs.rmat import rmat_edges
from repro.obs.export import TelemetrySession
from repro.obs.observatory.profile import (
    ROOT_NAME,
    build_profile,
    collapsed_stacks,
    hot_spans,
    parse_collapsed,
    self_sim_sum,
    total_sim_seconds,
    write_collapsed,
)
from repro.obs.tracer import SpanTracer


def _spans(tracer):
    return tracer.to_records()


class TestBuildProfile:
    def test_nested_totals_and_self(self):
        tracer = SpanTracer()
        with tracer.span("embed"):
            with tracer.span("read"):
                tracer.advance_sim(1.0)
            with tracer.span("solve"):
                tracer.advance_sim(2.0)
            tracer.advance_sim(0.5)
        profile = build_profile(_spans(tracer))
        embed = profile.children["embed"]
        assert embed.sim_total == pytest.approx(3.5)
        assert embed.sim_self == pytest.approx(0.5)
        assert embed.children["read"].sim_self == pytest.approx(1.0)
        assert embed.children["solve"].sim_self == pytest.approx(2.0)
        assert profile.sim_total == pytest.approx(3.5)

    def test_repeated_names_aggregate(self):
        tracer = SpanTracer()
        with tracer.span("loop"):
            for _ in range(3):
                with tracer.span("step"):
                    tracer.advance_sim(1.0)
        profile = build_profile(_spans(tracer))
        step = profile.children["loop"].children["step"]
        assert step.calls == 3
        assert step.sim_total == pytest.approx(3.0)

    def test_annotation_spans_clipped_to_zero(self):
        """record(advance=False) children must not inflate the profile."""
        tracer = SpanTracer()
        with tracer.span("embed"):
            tracer.advance_sim(1.0)
            with tracer.span("summary"):
                # Zero-length parent: annotation children claim time the
                # cursor never advanced through.
                tracer.record("fake_step", sim_seconds=100.0)
        profile = build_profile(_spans(tracer))
        summary = profile.children["embed"].children["summary"]
        fake = summary.children["fake_step"]
        assert fake.sim_total == 0.0
        assert profile.sim_total == pytest.approx(1.0)

    def test_adversarial_records_tolerated(self):
        records = [
            {"type": "span"},  # no name
            {"type": "span", "name": ""},  # empty name
            {"type": "span", "name": "ok"},  # no timings at all
            {"type": "span", "name": "neg", "sim_seconds": -5.0},
            {"type": "span", "name": "orphan", "parent_id": 999,
             "sim_seconds": 1.0, "sim_start": 0.0, "span_id": 7},
        ]
        profile = build_profile(records)
        # Unknown parents fall back to the root; negatives clamp to 0.
        assert set(profile.children) == {"ok", "neg", "orphan"}
        assert profile.children["neg"].sim_total == 0.0
        assert self_sim_sum(profile) == pytest.approx(profile.sim_total)

    def test_empty(self):
        profile = build_profile([])
        assert profile.children == {}
        assert profile.sim_total == 0.0


class TestSelfSumInvariant:
    def test_synthetic_with_annotations(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            tracer.advance_sim(1.0)
            with tracer.span("b"):
                tracer.advance_sim(2.0)
                tracer.record("note", sim_seconds=50.0)
            tracer.record("other_note", sim_seconds=9.0)
        with tracer.span("c"):
            tracer.advance_sim(4.0)
        profile = build_profile(_spans(tracer))
        assert total_sim_seconds(profile) == pytest.approx(tracer.sim_cursor)
        assert self_sim_sum(profile) == pytest.approx(tracer.sim_cursor)

    def test_real_embedding_run(self):
        """The full pipeline's spans (annotation-heavy) obey the invariant."""
        from repro.core.config import OMeGaConfig
        from repro.core.embedding import OMeGaEmbedder

        session = TelemetrySession(meta={"command": "test"})
        config = OMeGaConfig(n_threads=2, dim=4, seed=0)
        embedder = OMeGaEmbedder(
            config, tracer=session.tracer, metrics=session.metrics
        )
        edges = rmat_edges(8, edge_factor=4.0, seed=0)
        embedder.embed_edges(edges, 1 << 8)
        spans = [r for r in session.records() if r.get("type") == "span"]
        profile = build_profile(spans)
        total = session.tracer.sim_cursor
        assert total > 0.0
        assert total_sim_seconds(profile) == pytest.approx(total)
        assert self_sim_sum(profile) == pytest.approx(total)


class TestCollapsedStacks:
    def _tracer(self):
        tracer = SpanTracer()
        with tracer.span("embed"):
            with tracer.span("read"):
                tracer.advance_sim(1.5e-3)
            tracer.advance_sim(0.5e-3)
        return tracer

    def test_format(self):
        profile = build_profile(_spans(self._tracer()))
        text = collapsed_stacks(profile)
        lines = dict(
            line.rsplit(" ", 1) for line in text.strip().splitlines()
        )
        assert lines[f"{ROOT_NAME};embed"] == "500000"
        assert lines[f"{ROOT_NAME};embed;read"] == "1500000"

    def test_roundtrip_and_sum_property(self, tmp_path):
        tracer = self._tracer()
        profile = build_profile(_spans(tracer))
        path = write_collapsed(profile, tmp_path / "out.folded")
        parsed = parse_collapsed(path.read_text(encoding="utf-8"))
        # Integer-nanosecond rounding: half a tick per emitted line.
        tolerance = 0.5e-9 * max(len(parsed), 1)
        assert sum(parsed.values()) == pytest.approx(
            tracer.sim_cursor, abs=tolerance
        )

    def test_real_run_collapsed_sums_to_total(self, tmp_path):
        """Acceptance: per-stage self times in the exported collapsed
        file sum to the run's total simulated seconds."""
        from repro.core.config import OMeGaConfig
        from repro.core.embedding import OMeGaEmbedder

        session = TelemetrySession(meta={"command": "test"})
        embedder = OMeGaEmbedder(
            OMeGaConfig(n_threads=2, dim=4, seed=1),
            tracer=session.tracer,
            metrics=session.metrics,
        )
        edges = rmat_edges(8, edge_factor=4.0, seed=1)
        embedder.embed_edges(edges, 1 << 8)
        spans = [r for r in session.records() if r.get("type") == "span"]
        path = write_collapsed(build_profile(spans), tmp_path / "run.folded")
        parsed = parse_collapsed(path.read_text(encoding="utf-8"))
        tolerance = 0.5e-9 * max(len(parsed), 1)
        assert sum(parsed.values()) == pytest.approx(
            session.tracer.sim_cursor, abs=tolerance
        )

    def test_wall_clock_and_bad_clock(self):
        profile = build_profile(_spans(self._tracer()))
        assert collapsed_stacks(profile, clock="wall")  # nonempty
        with pytest.raises(ValueError, match="clock"):
            collapsed_stacks(profile, clock="cpu")

    def test_empty_profile_renders_empty(self):
        assert collapsed_stacks(build_profile([])) == ""


class TestHotSpans:
    def test_ranking_excludes_root(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("hot"):
                tracer.advance_sim(5.0)
            with tracer.span("cold"):
                tracer.advance_sim(1.0)
            tracer.advance_sim(2.0)
        ranked = hot_spans(build_profile(_spans(tracer)), top_n=2)
        assert [n.name for n in ranked] == ["hot", "outer"]
        assert all(n.path[0] == ROOT_NAME for n in ranked)

    def test_top_n_clamps(self):
        assert hot_spans(build_profile([]), top_n=5) == []

    def _disagreeing_tracer(self):
        """'sim_hot' leads on the simulated clock, 'wall_hot' on the wall."""
        tracer = SpanTracer()
        for name, sim, wall in (
            ("sim_hot", 3.0, 0.001), ("wall_hot", 0.0, 2.0), ("mid", 1.0, 1.0)
        ):
            tracer.record(
                name, sim_seconds=sim, wall_seconds=wall, advance=True
            )
        return tracer

    def test_ranks_by_requested_clock(self):
        profile = build_profile(_spans(self._disagreeing_tracer()))
        by_sim = [n.name for n in hot_spans(profile, top_n=1)]
        by_wall = [n.name for n in hot_spans(profile, top_n=1, clock="wall")]
        assert by_sim == ["sim_hot"]
        assert by_wall == ["wall_hot"]
        with pytest.raises(ValueError, match="clock"):
            hot_spans(profile, clock="cpu")

    def test_cli_profile_wall_clock_table(self, tmp_path, capsys):
        from repro.cli import main

        session = TelemetrySession(tracer=self._disagreeing_tracer())
        path = session.save(tmp_path / "t.jsonl")
        capsys.readouterr()
        assert main(
            ["profile", str(path), "--clock", "wall", "--top", "1"]
        ) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[1]
        assert header.index("wall self") < header.index("sim self")
        assert "wall_hot" in out
        assert "sim_hot" not in out
        assert main(["profile", str(path), "--top", "1"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[1]
        assert header.index("sim self") < header.index("wall self")
        assert "sim_hot" in out
        assert "wall_hot" not in out
