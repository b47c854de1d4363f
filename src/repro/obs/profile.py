"""Hotspot aggregation over recorded spans.

Collapses a span forest into per-name totals (calls, total time, self
time) and renders the top-N — the report behind
``python -m repro profile <experiment>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.recorder import Span
from repro.units import to_ms

__all__ = ["Hotspot", "hotspots", "render_hotspots"]


@dataclass
class Hotspot:
    """Aggregate timing for all spans sharing one name.

    Attributes:
        name: the span name.
        calls: number of spans recorded under it.
        total_s: summed wall-clock duration (includes children).
        self_s: summed duration minus child time — the ranking key.
    """

    name: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def hotspots(roots: Iterable[Span], top_n: int | None = None,
             ) -> list[Hotspot]:
    """Aggregate a span forest by name, ranked by self time.

    Args:
        roots: top-level spans (e.g. ``RECORDER.roots()``).
        top_n: truncate to the N hottest names (None = all).
    """
    table: dict[str, Hotspot] = {}
    for root in roots:
        for node in root.walk():
            spot = table.get(node.name)
            if spot is None:
                spot = table[node.name] = Hotspot(node.name)
            spot.calls += 1
            spot.total_s += node.duration_s
            spot.self_s += node.self_time_s
    ranked = sorted(table.values(), key=lambda s: s.self_s, reverse=True)
    return ranked[:top_n] if top_n is not None else ranked


def render_hotspots(spots: list[Hotspot]) -> str:
    """Render hotspots as an aligned text table with a share column."""
    if not spots:
        return "(no spans recorded)"
    total_self = sum(s.self_s for s in spots) or 1.0
    name_w = max(len("span"), max(len(s.name) for s in spots))
    lines = [f"{'span'.ljust(name_w)}  {'calls':>6}  {'self':>10}  "
             f"{'total':>10}  {'share':>6}",
             f"{'-' * name_w}  {'-' * 6}  {'-' * 10}  {'-' * 10}  "
             f"{'-' * 6}"]
    for spot in spots:
        share = spot.self_s / total_self * 100.0
        lines.append(
            f"{spot.name.ljust(name_w)}  {spot.calls:>6d}  "
            f"{to_ms(spot.self_s):>8.1f}ms  {to_ms(spot.total_s):>8.1f}ms  "
            f"{share:>5.1f}%")
    return "\n".join(lines)
