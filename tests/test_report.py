"""AnalysisReport arithmetic on synthetic analyses."""

import pytest

from repro.analysis.decode import TraceAnalysis
from repro.analysis.report import AnalysisReport
from repro.common.params import DEFAULT_PARAMS
from repro.common.types import MissClass, RefDomain

CYCLES_PER_TICK = DEFAULT_PARAMS.cycles_per_tick

OS = RefDomain.OS
APP = RefDomain.APP


def synthetic() -> TraceAnalysis:
    analysis = TraceAnalysis("synthetic", 4)
    analysis.user_ticks = 500
    analysis.sys_ticks = 300
    analysis.idle_ticks = 200
    analysis.miss_counts[(OS, "I", MissClass.COLD)] = 10
    analysis.miss_counts[(OS, "D", MissClass.SHARING)] = 20
    analysis.miss_counts[(APP, "D", MissClass.COLD)] = 30
    analysis.ap_dispos["D"] = 6
    return analysis


@pytest.fixture
def report() -> AnalysisReport:
    return AnalysisReport(synthetic())


class TestTimeSplit:
    def test_percentages(self, report):
        assert report.user_pct == pytest.approx(50.0)
        assert report.sys_pct == pytest.approx(30.0)
        assert report.idle_pct == pytest.approx(20.0)

    def test_sum_to_100(self, report):
        assert report.user_pct + report.sys_pct + report.idle_pct == (
            pytest.approx(100.0)
        )

    def test_empty_analysis_all_zero(self):
        report = AnalysisReport(TraceAnalysis("empty", 4))
        assert report.user_pct == 0.0
        assert report.total_stall_pct == 0.0
        assert report.os_miss_fraction_pct == 0.0


class TestMissShares:
    def test_os_fraction(self, report):
        assert report.os_miss_fraction_pct == pytest.approx(50.0)

    def test_class_share(self, report):
        assert report.os_class_share_pct("D", MissClass.SHARING) == (
            pytest.approx(100.0 * 20 / 30)
        )


class TestStalls:
    def test_total_stall(self, report):
        non_idle_cycles = (500 + 300) * CYCLES_PER_TICK
        expected = 100.0 * 60 * 35 / non_idle_cycles
        assert report.total_stall_pct == pytest.approx(expected)

    def test_os_stall(self, report):
        non_idle_cycles = (500 + 300) * CYCLES_PER_TICK
        assert report.os_stall_pct == pytest.approx(
            100.0 * 30 * 35 / non_idle_cycles
        )

    def test_induced_adds_ap_dispos(self, report):
        non_idle_cycles = (500 + 300) * CYCLES_PER_TICK
        assert report.os_plus_induced_stall_pct == pytest.approx(
            100.0 * 36 * 35 / non_idle_cycles
        )

    def test_custom_stall_cost(self):
        report = AnalysisReport(synthetic(), bus_stall_cycles=70)
        assert report.total_stall_pct == pytest.approx(
            2 * AnalysisReport(synthetic()).total_stall_pct
        )

    def test_coarser_monitor_tick_halves_stall_share(self):
        """A tick twice as long covers twice the cycles per tick."""
        report = AnalysisReport(
            synthetic(), cycles_per_tick=2 * CYCLES_PER_TICK
        )
        assert report.total_stall_pct == pytest.approx(
            AnalysisReport(synthetic()).total_stall_pct / 2
        )

    def test_stall_for_component(self, report):
        assert report.stall_pct_for(0) == 0.0
        assert report.stall_pct_for(30) == report.os_stall_pct


class TestQueries:
    def test_total_misses_by_domain(self, report):
        analysis = report.analysis
        assert analysis.total_misses() == 60
        assert analysis.total_misses(OS) == 30
        assert analysis.total_misses(APP) == 30

    def test_class_counts_filtering(self, report):
        analysis = report.analysis
        assert analysis.class_counts(OS, "I") == {MissClass.COLD: 10}
        assert analysis.class_counts(kind="D")[MissClass.COLD] == 30

    def test_non_idle_ticks(self, report):
        assert report.analysis.non_idle_ticks() == 800


class TestMonitorTickRatio:
    """Ticks convert to cycles at the machine's own monitor granularity."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_measured_ticks_cover_measured_cycles(self, shards):
        from repro.analysis.report import analyze_trace
        from repro.common.params import MachineParams
        from repro.sim._session import Simulation

        params = MachineParams(monitor_tick_ns=120.0)
        assert params.cycles_per_tick == 4.0
        run = Simulation("pmake", params=params, seed=3).run(2.0, warmup_ms=5.0)
        report = analyze_trace(run, keep_imiss_stream=False, shards=shards)
        end_cycles = max(s.end_cycles for s in run.trace.segments)
        measured_cycles = end_cycles - run.measure_from_cycles
        measured_ticks = report.analysis.measured_ticks
        assert abs(measured_ticks * params.cycles_per_tick - measured_cycles) \
            < params.cycles_per_tick
        assert report.cycles_per_tick == params.cycles_per_tick
