"""Shared derivations the exhibit modules build on."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.params import DEFAULT_PARAMS
from repro.common.types import MissClass, RefDomain
from repro.analysis.decode import TraceAnalysis
from repro.kernel.structures import StructName

# The per-process private-state structures whose Sharing misses the paper
# conservatively attributes to process migration (Section 4.2.2).
USTRUCT_PARTS = (StructName.PCB, StructName.EFRAME, StructName.USTRUCT_REST)


def os_misses(analysis: TraceAnalysis, kind: str) -> int:
    return sum(
        count
        for (dom, knd, _cls), count in analysis.miss_counts.items()
        if dom is RefDomain.OS and knd == kind
    )


def migration_misses(analysis: TraceAnalysis) -> Dict[str, int]:
    """Sharing misses on Kernel Stack / User Structure / Process Table.

    "We conservatively assume that [migration] only causes the Sharing
    misses in the three data structures considered" (Table 4).
    """
    sharing = analysis.sharing_by_struct
    kstack = sharing.get(StructName.KERNEL_STACK, 0)
    ustruct = sum(sharing.get(part, 0) for part in USTRUCT_PARTS)
    proctable = sharing.get(StructName.PROC_TABLE, 0)
    return {
        "kernel_stack": kstack,
        "user_structure": ustruct,
        "process_table": proctable,
        "total": kstack + ustruct + proctable,
    }


def migration_shares_pct(analysis: TraceAnalysis) -> Dict[str, float]:
    """Table 4's percentages: migration misses / OS data misses."""
    d_total = os_misses(analysis, "D")
    counts = migration_misses(analysis)
    if not d_total:
        return {key: 0.0 for key in counts}
    return {key: 100.0 * value / d_total for key, value in counts.items()}


def blockop_shares_pct(analysis: TraceAnalysis) -> Dict[str, float]:
    """Table 6's percentages: block-op misses / OS data misses."""
    d_total = os_misses(analysis, "D")
    out = {}
    for kind in ("copy", "clear", "traverse"):
        count = analysis.blockop_misses.get(kind, 0)
        out[kind] = 100.0 * count / d_total if d_total else 0.0
    out["total"] = sum(out.values())
    return out


def blockop_miss_total(analysis: TraceAnalysis) -> int:
    return sum(analysis.blockop_misses.values())


def imiss_class_shares_pct(analysis: TraceAnalysis) -> Dict[MissClass, float]:
    """Figure 4(a): I-miss classes as % of ALL OS misses."""
    total = analysis.total_misses(RefDomain.OS)
    out: Dict[MissClass, float] = {}
    if not total:
        return out
    for (dom, kind, cls), count in analysis.miss_counts.items():
        if dom is RefDomain.OS and kind == "I":
            out[cls] = out.get(cls, 0.0) + 100.0 * count / total
    return out


def dmiss_class_shares_pct(analysis: TraceAnalysis) -> Dict[MissClass, float]:
    """Figure 7(a): D-miss classes as % of ALL OS misses."""
    total = analysis.total_misses(RefDomain.OS)
    out: Dict[MissClass, float] = {}
    if not total:
        return out
    for (dom, kind, cls), count in analysis.miss_counts.items():
        if dom is RefDomain.OS and kind == "D":
            out[cls] = out.get(cls, 0.0) + 100.0 * count / total
    return out


def invocation_interval_ms(
    analysis: TraceAnalysis,
    cycles_per_tick: float = DEFAULT_PARAMS.cycles_per_tick,
) -> float:
    """Mean time between OS invocations (Figure 1), machine-wide per CPU.

    The paper's interval is per CPU: total traced CPU-time divided by the
    number of OS invocations, expressed in ms of 30 ns cycles.
    """
    if not analysis.invocations:
        return float("inf")
    cpu_ticks = analysis.measured_ticks * analysis.num_cpus
    cycles = cpu_ticks * cycles_per_tick
    return cycles / len(analysis.invocations) / (1e6 / 30.0)


def mean_invocation_misses(analysis: TraceAnalysis) -> Tuple[float, float]:
    """Average (I, D) misses per OS invocation (Figure 1)."""
    if not analysis.invocations:
        return 0.0, 0.0
    n = len(analysis.invocations)
    return (
        sum(inv.imisses for inv in analysis.invocations) / n,
        sum(inv.dmisses for inv in analysis.invocations) / n,
    )
