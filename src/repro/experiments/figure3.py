"""Figure 3: distributions of I-misses, D-misses and cycles per OS
invocation in Pmake.

The paper plots full distributions; we report the histogram and verify
the qualitative property the paper uses them for: an individual OS
invocation replaces only a small fraction of the cache contents.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.experiments._base import Exhibit, ExperimentContext

EXHIBIT_ID = "figure3"
TITLE = "Distribution of misses/cycles per OS invocation (Pmake)"

_COLUMNS = ("quantity", "p10", "p50", "p90", "mean", "max")

_MISS_BUCKETS = (0, 25, 50, 100, 200, 400, 800, 1600)


def _percentiles(values: List[float]) -> Tuple[float, float, float, float, float]:
    if not values:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    ordered = sorted(values)
    n = len(ordered)

    def pct(p: float) -> float:
        return ordered[min(n - 1, int(p * n))]

    return pct(0.10), pct(0.50), pct(0.90), sum(ordered) / n, ordered[-1]


def histogram(values: Sequence[float], buckets: Sequence[float] = _MISS_BUCKETS):
    """Counts per bucket (for plotting / tests)."""
    counts = [0] * (len(buckets))
    for value in values:
        for i in range(len(buckets) - 1, -1, -1):
            if value >= buckets[i]:
                counts[i] += 1
                break
    return list(zip(buckets, counts))


def build(ctx: ExperimentContext) -> Exhibit:
    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    report = ctx.report("pmake")
    invocations = report.analysis.invocations
    imisses = [float(inv.imisses) for inv in invocations]
    dmisses = [float(inv.dmisses) for inv in invocations]
    cycles = [
        float(inv.duration_ticks * report.cycles_per_tick) for inv in invocations
    ]
    exhibit.add_row("I-misses/invocation", *_percentiles(imisses))
    exhibit.add_row("D-misses/invocation", *_percentiles(dmisses))
    exhibit.add_row("cycles/invocation", *_percentiles(cycles))
    icache_blocks = 64 * 1024 // 16
    mean_imiss = sum(imisses) / len(imisses) if imisses else 0.0
    exhibit.note(
        f"mean I-misses per invocation = {mean_imiss:.0f} of "
        f"{icache_blocks} I-cache blocks -> an invocation replaces only a "
        "small fraction of the cache (paper Section 4.1)"
    )
    return exhibit
