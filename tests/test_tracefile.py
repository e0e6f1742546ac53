"""Trace persistence round-trips."""

import numpy as np
import pytest

from repro.monitor.hwmonitor import Trace, TraceSegment
from repro.monitor.tracefile import load_trace, save_trace

ROWS = [(0, 0, 0x1000, 0), (5, 1, 0x2000, 1), (9, 2, 0xF0001, 2)]


def make_segment(start, end, rows) -> TraceSegment:
    segment = TraceSegment(start_cycles=start, end_cycles=end)
    for column, values in zip(segment.columns(), zip(*rows)):
        column.extend(values)
    return segment


def make_trace() -> Trace:
    trace = Trace()
    seg1 = make_segment(0, 1000, ROWS)
    seg2 = make_segment(2000, 2000, [])  # empty
    trace.segments = [seg1, seg2]
    return trace


class TestRoundTrip:
    def test_entries_preserved(self, tmp_path):
        path = tmp_path / "trace.npz"
        original = make_trace()
        save_trace(original, path)
        loaded = load_trace(path)
        assert list(loaded.all_entries()) == list(original.all_entries())

    def test_segment_structure_preserved(self, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(make_trace(), path)
        loaded = load_trace(path)
        assert len(loaded.segments) == 2
        assert loaded.segments[0].start_cycles == 0
        assert loaded.segments[0].end_cycles == 1000
        assert len(loaded.segments[1].entries) == 0

    def test_columns_keep_their_typecodes(self, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(make_trace(), path)
        for segment in load_trace(path).segments:
            assert [c.typecode for c in segment.columns()] == \
                ["q", "B", "I", "B"]

    def test_plain_numpy_file_loads_entry_for_entry(self, tmp_path):
        """Version 1 as any numpy writer produces it: an N×4 int64
        array per segment plus its cycle span."""
        path = tmp_path / "plain.npz"
        np.savez(
            str(path),
            version=np.array([1], dtype=np.int64),
            num_segments=np.array([1], dtype=np.int64),
            segment_0_entries=np.array(ROWS, dtype=np.int64),
            segment_0_span=np.array([10, 900], dtype=np.int64),
        )
        loaded = load_trace(path)
        assert list(loaded.all_entries()) == ROWS
        assert all(
            type(value) is int
            for entry in loaded.all_entries() for value in entry
        )
        segment, = loaded.segments
        assert (segment.start_cycles, segment.end_cycles) == (10, 900)

    @pytest.mark.parametrize("bad", [
        np.array([(0, 256, 0x1000, 0)], dtype=np.int64),   # cpu > 255
        np.array([(0, 0, -16, 0)], dtype=np.int64),        # negative addr
        np.zeros((2, 3), dtype=np.int64),                  # not N×4
    ])
    def test_entries_outside_the_layout_are_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.npz"
        np.savez(
            str(path),
            version=np.array([1], dtype=np.int64),
            num_segments=np.array([1], dtype=np.int64),
            segment_0_entries=bad,
            segment_0_span=np.array([0, 10], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="segment 0"):
            load_trace(path)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_trace(Trace(), path)
        assert len(load_trace(path)) == 0

    def test_real_trace_roundtrip_and_reanalysis(self, tmp_path, pmake_run):
        """A captured trace analyzed from disk gives identical results."""
        from repro.analysis.report import analyze_trace
        from repro.analysis.decode import TraceAnalyzer

        path = tmp_path / "pmake.npz"
        save_trace(pmake_run.trace, path)
        loaded = load_trace(path)
        params = pmake_run.params

        def analyze(trace):
            analyzer = TraceAnalyzer(
                "pmake", params.num_cpus, params.icache.size_bytes,
                params.dcache_l2.size_bytes, layout=pmake_run.kernel.layout,
                datamap=pmake_run.kernel.datamap, keep_imiss_stream=False,
            )
            return analyzer.analyze(trace, stats_from_tick=0)

        direct = analyze(pmake_run.trace)
        from_disk = analyze(loaded)
        assert from_disk.miss_counts == direct.miss_counts
        assert from_disk.user_ticks == direct.user_ticks
