"""The shared snooping bus.

Every second-level cache miss, coherence upgrade, and uncached access
becomes a bus transaction. The hardware monitor
(:mod:`repro.monitor.hwmonitor`) taps the bus and records the (time,
CPU, physical address) triple of each transaction — exactly what the
paper's monitor stored (Section 2.1); other listeners receive each one
as a :class:`BusTransaction`.

Synchronization accesses do *not* travel on this bus: the 4D/340 diverts
them to a dedicated synchronization bus (modelled in
:mod:`repro.sync.syncbus`), which is why the paper's monitor could not see
them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List


class BusOp(enum.Enum):
    """Bus transaction kinds distinguishable by a bus snooper."""

    READ = "read"            # cache fill for a read / instruction fetch
    WRITE = "write"          # cache fill for a write, or ownership upgrade
    UNCACHED_READ = "uncached_read"  # cache-bypassing read (escapes, PIO)

    # Members are singletons; the C-level identity hash beats Enum's
    # Python-level hash on the per-transaction monitor/analysis paths.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class BusTransaction:
    """One observable bus transaction.

    ``time_cycles`` is in 30 ns processor cycles; the monitor quantizes to
    its own 60 ns tick when recording.
    """

    time_cycles: int
    cpu: int
    addr: int
    op: BusOp


Listener = Callable[[BusTransaction], None]


class Bus:
    """Broadcast medium connecting the CPUs, memory and the monitor."""

    def __init__(self) -> None:
        self._listeners: List[Listener] = []
        # Snoopers attached with tap(): called with the transaction's four
        # fields, so the monitor's per-transaction path builds no object.
        self._taps: List[Callable[[int, int, int, BusOp], None]] = []
        self.transaction_count = 0

    def attach(self, listener: Listener) -> None:
        """Attach a snooper called on every transaction."""
        self._listeners.append(listener)

    def detach(self, listener: Listener) -> None:
        self._listeners.remove(listener)

    def tap(self, snooper: Callable[[int, int, int, BusOp], None]) -> None:
        """Attach a snooper called as ``snooper(time_cycles, cpu, addr, op)``."""
        self._taps.append(snooper)

    def transaction(self, time_cycles: int, cpu: int, addr: int, op: BusOp) -> None:
        """Issue one transaction and notify all snoopers."""
        self.transaction_count += 1
        for snooper in self._taps:
            snooper(time_cycles, cpu, addr, op)
        if self._listeners:
            txn = BusTransaction(time_cycles, cpu, addr, op)
            for listener in self._listeners:
                listener(txn)
