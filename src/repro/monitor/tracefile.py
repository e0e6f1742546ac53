"""Trace persistence: dump the monitor's buffer the way the master did.

The real master process shipped each buffer segment to a remote disk for
offline postprocessing (Section 2.1). This module is that disk format: a
compact NumPy container holding every segment's entries, so traces can
be captured once and analyzed many times (or elsewhere).

Format version 1 stores each segment as an ``N×4`` int64 array with one
``(tick, cpu, addr, op)`` row per entry, plus its ``[start, end]`` cycle
span. Saving and loading move whole columns between that array and the
segment's typed columns.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.monitor.hwmonitor import Trace, TraceSegment

_FORMAT_VERSION = 1


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace to ``path`` (.npz)."""
    arrays = {
        "version": np.array([_FORMAT_VERSION], dtype=np.int64),
        "num_segments": np.array([len(trace.segments)], dtype=np.int64),
    }
    for index, segment in enumerate(trace.segments):
        arrays[f"segment_{index}_entries"] = np.stack(
            [np.asarray(column, dtype=np.int64) for column in segment.columns()],
            axis=1,
        )
        arrays[f"segment_{index}_span"] = np.array(
            [segment.start_cycles, segment.end_cycles], dtype=np.int64
        )
    np.savez_compressed(str(path), **arrays)


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    with np.load(str(path)) as data:
        version = int(data["version"][0])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported trace format version {version}")
        trace = Trace()
        for index in range(int(data["num_segments"][0])):
            start, end = (int(v) for v in data[f"segment_{index}_span"])
            segment = TraceSegment(start_cycles=start, end_cycles=end)
            rows = data[f"segment_{index}_entries"]
            if rows.size == 0:
                rows = rows.reshape(0, 4)
            if rows.ndim != 2 or rows.shape[1] != 4:
                raise ValueError(
                    f"segment {index}: entries have shape {rows.shape}, "
                    f"expected (N, 4)"
                )
            for column, values in zip(segment.columns(), rows.T):
                narrow = values.astype(column.typecode)
                if not np.array_equal(narrow, values):
                    raise ValueError(
                        f"segment {index}: a value does not fit the "
                        f"{column.typecode!r} trace column"
                    )
                column.frombytes(narrow.tobytes())
            trace.segments.append(segment)
        return trace
