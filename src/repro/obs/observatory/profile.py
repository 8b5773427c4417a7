"""Hierarchical profile aggregation over finished spans.

Folds the flat span records of a telemetry export back into a
flamegraph-style tree: nodes are span *paths* (the stack of span names
from the root), carrying call counts plus total and self time on both
clocks.  ``collapsed_stacks`` emits the standard collapsed-stack text
format (``root;child;leaf <count>``) consumable by flamegraph.pl,
speedscope, inferno et al.; ``hot_spans`` ranks nodes by self time on
either clock for the ``repro report`` / ``repro profile`` hot-span
tables.

Simulated-time accounting is interval based.  The tracer's sim cursor
is monotonic, so a genuinely nested span's ``[sim_start, sim_end]``
interval always lies inside its parent's.  Annotation spans recorded
with ``SpanTracer.record(advance=False)`` (e.g. the Fig. 7(a) per-step
summary copies under ``spmm_steps``) claim simulated time the cursor
never advanced through; clipping every span's interval to its parent's
*effective* interval zeroes those out, which is what makes the headline
invariant hold: **the self times of all nodes sum exactly to the run's
total simulated seconds** (the property test in
``tests/test_observatory_profile.py`` pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

#: Synthetic root node name (the "all roots" aggregate).
ROOT_NAME = "run"


@dataclass
class ProfileNode:
    """One aggregated span path in the profile tree.

    Attributes:
        name: span name of the last path element.
        path: full stack of span names from the root.
        calls: how many spans folded into this node.
        sim_total / wall_total: seconds including children.
        sim_self / wall_self: seconds net of children.
        children: child nodes keyed by name, insertion ordered.
    """

    name: str
    path: tuple[str, ...]
    calls: int = 0
    sim_total: float = 0.0
    sim_self: float = 0.0
    wall_total: float = 0.0
    wall_self: float = 0.0
    children: dict[str, "ProfileNode"] = field(default_factory=dict)

    def child(self, name: str) -> "ProfileNode":
        """Get or create a child node."""
        node = self.children.get(name)
        if node is None:
            node = ProfileNode(name=name, path=self.path + (name,))
            self.children[name] = node
        return node

    def walk(self) -> Iterator["ProfileNode"]:
        """Yield this node and every descendant, depth first."""
        yield self
        for child in self.children.values():
            yield from child.walk()


def _clip(
    start: float, end: float, lo: float, hi: float
) -> tuple[float, float]:
    """Intersect one interval with another (empty -> zero length)."""
    s = max(start, lo)
    e = min(end, hi)
    return (s, e) if e > s else (s, s)


def build_profile(span_records: list[dict[str, Any]]) -> ProfileNode:
    """Fold span records into the aggregated profile tree.

    Records missing ids or timing fields are tolerated (skipped or
    treated as zero length) so adversarial telemetry cannot crash the
    renderer.  Spans arrive in creation order (parents before
    children), which the single pass below relies on.
    """
    root = ProfileNode(name=ROOT_NAME, path=(ROOT_NAME,))
    # Per concrete span: its clipped sim/wall intervals and tree node,
    # so children can clip against and subtract from their parent.
    by_id: dict[int, dict[str, Any]] = {}
    for record in span_records:
        name = record.get("name")
        if not isinstance(name, str) or not name:
            continue
        sim_start = float(record.get("sim_start", 0.0) or 0.0)
        sim_len = max(0.0, float(record.get("sim_seconds", 0.0) or 0.0))
        wall_len = max(0.0, float(record.get("wall_seconds", 0.0) or 0.0))
        parent_id = record.get("parent_id")
        parent = by_id.get(parent_id) if parent_id is not None else None
        if parent is not None:
            sim_lo, sim_hi = parent["sim_interval"]
            sim_start, sim_end = _clip(
                sim_start, sim_start + sim_len, sim_lo, sim_hi
            )
            wall_eff = min(wall_len, parent["wall_remaining"])
            node = parent["node"].child(name)
        else:
            sim_end = sim_start + sim_len
            wall_eff = wall_len
            node = root.child(name)
        sim_eff = sim_end - sim_start
        node.calls += 1
        node.sim_total += sim_eff
        node.sim_self += sim_eff
        node.wall_total += wall_eff
        node.wall_self += wall_eff
        if parent is not None:
            # Self time is what children leave behind.
            parent["node"].sim_self -= sim_eff
            parent["node"].wall_self -= wall_eff
            parent["wall_remaining"] -= wall_eff
        span_id = record.get("span_id")
        if isinstance(span_id, int):
            by_id[span_id] = {
                "node": node,
                "sim_interval": (sim_start, sim_end),
                "wall_remaining": wall_eff,
            }
    # Roll the per-root totals up into the synthetic root.
    for top in root.children.values():
        root.calls += top.calls
        root.sim_total += top.sim_total
        root.wall_total += top.wall_total
    return root


def total_sim_seconds(profile: ProfileNode) -> float:
    """Total simulated seconds covered by the profile."""
    return profile.sim_total


def self_sim_sum(profile: ProfileNode) -> float:
    """Sum of per-node simulated self times (== total by construction)."""
    return sum(node.sim_self for node in profile.walk())


def collapsed_stacks(
    profile: ProfileNode,
    clock: str = "sim",
    unit: float = 1e-9,
) -> str:
    """Render the collapsed-stack text form of a profile.

    One line per node with nonzero self time:
    ``run;embed;factorization 1234567``, where the count is the node's
    self seconds expressed in ``unit``-second ticks (default:
    nanoseconds), rounded to an integer as flamegraph tooling expects.
    Rounding error is bounded by half a tick per emitted line.
    """
    if clock not in ("sim", "wall"):
        raise ValueError(f"clock must be 'sim' or 'wall', got {clock!r}")
    attr = "sim_self" if clock == "sim" else "wall_self"
    lines = []
    for node in profile.walk():
        ticks = round(getattr(node, attr) / unit)
        if ticks > 0:
            lines.append(f"{';'.join(node.path)} {ticks}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_collapsed(
    profile: ProfileNode,
    path: str | Path,
    clock: str = "sim",
    unit: float = 1e-9,
) -> Path:
    """Write the collapsed-stack rendering to a file."""
    path = Path(path)
    path.write_text(collapsed_stacks(profile, clock, unit), encoding="utf-8")
    return path


def parse_collapsed(text: str, unit: float = 1e-9) -> dict[tuple[str, ...], float]:
    """Parse collapsed-stack text back into ``{path: self_seconds}``."""
    out: dict[tuple[str, ...], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, count = line.rpartition(" ")
        out[tuple(stack.split(";"))] = float(count) * unit
    return out


def hot_spans(
    profile: ProfileNode, top_n: int = 10, clock: str = "sim"
) -> list[ProfileNode]:
    """The ``top_n`` nodes by self time on ``clock``, hottest first.

    The synthetic root is excluded; ties break toward shallower paths
    so the ordering is deterministic.
    """
    if clock not in ("sim", "wall"):
        raise ValueError(f"clock must be 'sim' or 'wall', got {clock!r}")
    attr = f"{clock}_self"
    nodes = [node for node in profile.walk() if node.path != (ROOT_NAME,)]
    nodes.sort(key=lambda n: (-getattr(n, attr), len(n.path), n.path))
    return nodes[:top_n]
