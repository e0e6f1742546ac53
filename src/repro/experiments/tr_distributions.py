"""Companion-report distributions: Figure 3's charts for all workloads.

The paper shows per-invocation distributions only for Pmake and points
at its companion technical report for Multpgm and Oracle ("The
corresponding charts for Multpgm and Oracle are shown in [18]. They
show that, as in Pmake, an individual OS invocation has a small impact
on the cache contents."). This exhibit regenerates all three, plus the
application-invocation distributions the report also carries.
"""

from __future__ import annotations

from repro.experiments import paperdata
from repro.experiments._base import Exhibit, ExperimentContext
from repro.experiments.figure3 import _percentiles

EXHIBIT_ID = "tr-distributions"
TITLE = "Per-invocation distributions for all workloads ([18] companion)"

_COLUMNS = ("workload", "quantity", "p10", "p50", "p90", "mean", "max")


def build(ctx: ExperimentContext) -> Exhibit:
    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    icache_blocks = 64 * 1024 // 16
    for workload in paperdata.WORKLOADS:
        report = ctx.report(workload)
        analysis = report.analysis
        cycles_per_tick = report.cycles_per_tick
        invocations = analysis.invocations
        intervals = analysis.app_intervals
        rows = (
            ("OS I-miss/inv", [float(i.imisses) for i in invocations]),
            ("OS D-miss/inv", [float(i.dmisses) for i in invocations]),
            ("OS cycles/inv",
             [float(i.duration_ticks * cycles_per_tick) for i in invocations]),
            ("app I-miss/interval", [float(i.imisses) for i in intervals]),
            ("app D-miss/interval", [float(i.dmisses) for i in intervals]),
            ("app cycles/interval",
             [float(i.duration_ticks * cycles_per_tick) for i in intervals]),
        )
        for label, values in rows:
            exhibit.add_row(workload, label, *_percentiles(values))
        mean_imiss = (
            sum(i.imisses for i in invocations) / len(invocations)
            if invocations else 0.0
        )
        exhibit.note(
            f"{workload}: mean {mean_imiss:.0f} I-misses of "
            f"{icache_blocks} I-cache blocks per invocation — a small "
            "fraction of the cache, as in Pmake"
        )
    return exhibit
