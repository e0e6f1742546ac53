"""Figure 1: the basic OS/application interleaving pattern.

Reports the quantities the figure annotates: mean interval between OS
invocations, mean misses per OS invocation, and the UTLB fault costs.
"""

from __future__ import annotations

from repro.experiments import paperdata
from repro.experiments._base import Exhibit, ExperimentContext
from repro.experiments.derive import invocation_interval_ms, mean_invocation_misses

EXHIBIT_ID = "figure1"
TITLE = "Average times and misses in the basic execution pattern"

_COLUMNS = (
    "workload", "source", "inv_interval_ms", "inv_Imiss", "inv_Dmiss",
    "utlb/app-interval", "utlb_misses_per_fault",
)


def build(ctx: ExperimentContext) -> Exhibit:
    exhibit = Exhibit(EXHIBIT_ID, TITLE, _COLUMNS)
    for workload in paperdata.WORKLOADS:
        paper_interval = paperdata.FIGURE1["invocation_interval_ms"][workload]
        if workload == "pmake":
            exhibit.add_row(
                workload, "paper", paper_interval,
                paperdata.FIGURE1["pmake_inv_imisses"],
                paperdata.FIGURE1["pmake_inv_dmisses"],
                "-", paperdata.FIGURE1["utlb_misses_per_fault"],
            )
        else:
            exhibit.add_row(workload, "paper", paper_interval, "-", "-", "-",
                            paperdata.FIGURE1["utlb_misses_per_fault"])
        report = ctx.report(workload)
        analysis = report.analysis
        imiss, dmiss = mean_invocation_misses(analysis)
        utlb_per_interval = (
            sum(i.utlb_faults for i in analysis.app_intervals)
            / len(analysis.app_intervals)
            if analysis.app_intervals else 0.0
        )
        utlb_miss_rate = (
            analysis.utlb_misses / analysis.utlb_count
            if analysis.utlb_count else 0.0
        )
        exhibit.add_row(
            workload, "measured",
            invocation_interval_ms(analysis, report.cycles_per_tick),
            imiss, dmiss, utlb_per_interval, utlb_miss_rate,
        )
    exhibit.note(
        "paper reports per-invocation misses only for Pmake (154 I / 141 D); "
        "UTLB faults average < 0.1 misses each"
    )
    return exhibit
