"""The bus-snooping hardware monitor.

The real monitor "stores the physical address and ID of the originating
processor for over 2 million bus transactions" and measures time "with a
granularity of 60 ns" (Section 2.1). Synchronization accesses are
diverted to the synchronization bus and are invisible to it.

Like the real buffer, a trace holds one fixed-width record per
transaction. Each segment keeps its records as four typed columns
(:data:`TRACE_COLUMNS`): ``ticks`` in 60 ns monitor ticks, ``cpus``,
``addrs`` (32-bit physical addresses) and ``ops``, one of
:data:`OP_READ` / :data:`OP_WRITE` / :data:`OP_UNCACHED`. A default
pmake run records about 664k of them; as columns they take 14 bytes a
record and pickle as four flat buffers, so a run-cache load need not
rebuild a Python object per record. :attr:`TraceSegment.entries` and
:meth:`Trace.all_entries` read the records back as
``(tick, cpu, addr, op)`` int tuples.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from repro.common.params import DEFAULT_PARAMS
from repro.memsys.bus import Bus, BusOp

OP_READ = 0
OP_WRITE = 1
OP_UNCACHED = 2

_OP_CODE = {
    BusOp.READ: OP_READ,
    BusOp.WRITE: OP_WRITE,
    BusOp.UNCACHED_READ: OP_UNCACHED,
}

TraceEntry = Tuple[int, int, int, int]  # (tick, cpu, addr, op)

# (attribute, array typecode) of each trace column, in record order. A
# value that does not fit its column raises OverflowError on append;
# every machine preset fits (memory below 4 GB, at most 255 CPUs).
TRACE_COLUMNS = (("ticks", "q"), ("cpus", "B"), ("addrs", "I"), ("ops", "B"))


class _Rows:
    """Read-only view of a segment's records as ``(tick, cpu, addr, op)``."""

    __slots__ = ("_columns",)

    def __init__(self, columns: Tuple[array, ...]) -> None:
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[TraceEntry]:
        return zip(*self._columns)


class TraceSegment:
    """One continuous stretch of recorded bus activity.

    The master process (Section 2.1) starts a new segment after every
    buffer dump; analysis treats segments independently and sums. The
    records live in the typed columns named by :data:`TRACE_COLUMNS`;
    :attr:`entries` is a read-only row view over them.
    """

    __slots__ = ("start_cycles", "end_cycles") + tuple(
        name for name, _ in TRACE_COLUMNS
    )

    def __init__(self, start_cycles: int, end_cycles: int = 0) -> None:
        self.start_cycles = start_cycles
        self.end_cycles = end_cycles
        for name, typecode in TRACE_COLUMNS:
            setattr(self, name, array(typecode))

    def columns(self) -> Tuple[array, array, array, array]:
        """The ``(ticks, cpus, addrs, ops)`` columns, in record order."""
        return (self.ticks, self.cpus, self.addrs, self.ops)

    @property
    def entries(self) -> _Rows:
        return _Rows(self.columns())

    def __len__(self) -> int:
        return len(self.ticks)

    def duration_cycles(self) -> int:
        return max(0, self.end_cycles - self.start_cycles)


@dataclass
class Trace:
    """A complete monitor trace: all recorded segments."""

    segments: List[TraceSegment] = field(default_factory=list)

    def all_entries(self) -> Iterator[TraceEntry]:
        for segment in self.segments:
            yield from zip(*segment.columns())

    def __len__(self) -> int:
        return sum(len(s) for s in self.segments)

    def duration_cycles(self) -> int:
        return sum(s.duration_cycles() for s in self.segments)


class BufferOverflow(RuntimeError):
    """The trace buffer filled before the master could dump it."""


class HardwareMonitor:
    """Attachable bus snooper with a bounded trace buffer.

    ``strict_capacity`` makes the buffer behave like the real hardware —
    transactions beyond capacity raise :class:`BufferOverflow` — which is
    how tests demonstrate that the master's threshold protocol is actually
    needed. The default is forgiving (the entry is still recorded) so
    analysis never silently loses data.
    """

    def __init__(
        self,
        bus: Bus,
        capacity: int = 2 * 1024 * 1024,
        cycles_per_tick: float = DEFAULT_PARAMS.cycles_per_tick,
        strict_capacity: bool = False,
    ):
        self.bus = bus
        self.capacity = capacity
        self.strict_capacity = strict_capacity
        self._cycles_per_tick = cycles_per_tick
        self.recording = False
        self.trace = Trace()
        self._open(TraceSegment(start_cycles=0))
        self.dropped = 0
        # Provenance of a mixed-fidelity run (repro.fidelity): the cycle
        # at which recording switched from the atomic fast-forward tier
        # to the detailed tier. None for pure detailed/atomic runs.
        self.seam_cycles = None
        bus.tap(self._snoop)

    def _open(self, segment: TraceSegment) -> None:
        """Make ``segment`` the buffer that snooped records append to.

        The prebound appends pickle as ``getattr(column, "append")`` on
        the same (memoized) column objects, so a restored checkpoint
        keeps appending to its restored columns.
        """
        self._segment = segment
        self._appends = tuple(column.append for column in segment.columns())

    # ------------------------------------------------------------------
    # Bus listener
    # ------------------------------------------------------------------
    def _snoop(self, time_cycles: int, cpu: int, addr: int, op: BusOp) -> None:
        if not self.recording:
            return
        segment = self._segment
        if len(segment.ticks) >= self.capacity:
            if self.strict_capacity:
                raise BufferOverflow(
                    f"trace buffer overflowed at {self.capacity} entries"
                )
            self.dropped += 1
        add_tick, add_cpu, add_addr, add_op = self._appends
        add_tick(int(time_cycles / self._cycles_per_tick))
        add_cpu(cpu)
        add_addr(addr)
        add_op(_OP_CODE[op])
        segment.end_cycles = time_cycles

    # ------------------------------------------------------------------
    # Control (exercised by the master process)
    # ------------------------------------------------------------------
    def start(self, now_cycles: int) -> None:
        """Begin recording a new segment."""
        self._open(TraceSegment(start_cycles=now_cycles, end_cycles=now_cycles))
        self.recording = True

    def stop(self, now_cycles: int) -> TraceSegment:
        """Stop recording; archive and return the finished segment."""
        self.recording = False
        self._segment.end_cycles = max(self._segment.end_cycles, now_cycles)
        segment = self._segment
        self.trace.segments.append(segment)
        return segment

    def note_seam(self, now_cycles: int) -> None:
        """Record the atomic→detailed hand-off point of a mixed run."""
        self.seam_cycles = now_cycles

    def fill_fraction(self) -> float:
        """How full the current buffer is (the master's threshold test)."""
        return len(self._segment) / self.capacity if self.capacity else 1.0

    def buffered_entries(self) -> int:
        return len(self._segment)
