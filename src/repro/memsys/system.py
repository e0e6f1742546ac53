"""The complete memory system: caches + coherence + bus + memory.

:class:`MemorySystem` is the single entry point through which CPUs touch
memory. It

- walks the per-CPU cache hierarchies,
- maintains write-invalidate coherence between the data caches (the
  4D/340's snooping protocol), issuing bus transactions for fills and
  ownership upgrades,
- leaves instruction caches incoherent (software-flushed on page
  reallocation, per Table 2's *Inval* class),
- reports every bus transaction to attached listeners (the hardware
  monitor), and
- feeds the ground-truth classifier.

Return values are CPU stall cycles, using the paper's own cost model:
35 cycles per bus access, ~15 cycles for an L1 data miss that hits in L2
(Section 3.1).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.params import MachineParams
from repro.common.types import RefDomain
from repro.memsys.bus import Bus, BusOp
from repro.memsys.cache import EMPTY
from repro.memsys.hierarchy import AccessOutcome, CpuCacheHierarchy
from repro.memsys.memory import PhysicalMemory
from repro.memsys.tracking import DATA, INSTR, GroundTruth

# Sentinel meaning "block owned by no single CPU" (shared or uncached).
SHARED = -1


class MemorySystem:
    """All CPUs' caches plus the bus, memory and coherence state."""

    def __init__(
        self,
        params: MachineParams,
        bus: Optional[Bus] = None,
        record_events: bool = False,
    ):
        self.params = params
        self.bus = bus if bus is not None else Bus()
        self.memory = PhysicalMemory(params)
        self.hierarchies: List[CpuCacheHierarchy] = [
            CpuCacheHierarchy(cpu, params) for cpu in range(params.num_cpus)
        ]
        self.truth = GroundTruth(params.num_cpus, record_events=record_events)
        # block -> owning CPU for exclusively-held (written) blocks.
        self._owner: Dict[int, int] = {}
        self._displaced = (None, -1)
        # Fidelity tier (repro.fidelity): when ``atomic`` is True the
        # memory system services references *functionally* — cache tags,
        # coherence ownership and ground-truth warmth state keep
        # evolving, and misses still cost their model latency — but no
        # bus transactions are issued, no monitor sees anything, and no
        # statistics counters advance. Only the bus-visible levels are
        # kept warm (I-cache and L2): the first-level data cache is
        # invisible to the bus and is flushed at the atomic→detailed
        # seam, so a resident data block costs nothing here and a miss
        # costs the bus latency (the ≤15-cycle L1/L2 refinement is the
        # tier's one timing approximation). ``atomic_refs`` counts
        # references served this way (the ``fast_forward`` budget of a
        # mixed-fidelity run). Setting ``atomic`` rebinds the processors
        # in ``cpus`` (see Processor.bind).
        self._atomic = False
        self.cpus: list = []
        self.atomic_refs = 0
        # Per-CPU truth handles, and each CPU's snoop targets with their
        # present-sets, so a write's invalidation loop pre-tests
        # membership instead of calling into every other hierarchy. All
        # referenced containers are mutated in place, never replaced, so
        # the bindings stay valid for the system's lifetime.
        self._itruth = [self.truth.cpu_truth(c, INSTR) for c in range(params.num_cpus)]
        self._dtruth = [self.truth.cpu_truth(c, DATA) for c in range(params.num_cpus)]
        self._snoop = [
            [
                (h, h.dl1._present, h.dl2._present)
                for h in self.hierarchies if h.cpu != cpu
            ]
            for cpu in range(params.num_cpus)
        ]
        # Sanitizer hook: a CoherenceChecker when invariant checking is
        # on (repro.sanitizers); None-guarded on miss/upgrade paths only.
        self.checker = None
        self.block_bytes = params.block_bytes
        # Counters the experiments use directly.
        self.bus_reads = 0
        self.bus_writes = 0
        self.bus_uncached = 0

    @property
    def atomic(self) -> bool:
        return self._atomic

    @atomic.setter
    def atomic(self, value: bool) -> None:
        self._atomic = value
        for proc in self.cpus:
            proc.bind()

    # ------------------------------------------------------------------
    # References: the full path
    # ------------------------------------------------------------------
    # Processors resolve direct-mapped hits themselves and call these on
    # a miss or an ownership upgrade; any caller may also issue a hit
    # here. Both tiers fill the caches and update the warmth state the
    # same way; only the miss report differs. The detailed tier
    # classifies the miss and puts a transaction on the bus, the atomic
    # tier only counts the reference.

    def _report_fill(
        self, time_cycles: int, cpu: int, kind: str, block: int, victim: int,
        domain: RefDomain, app_epoch: int,
    ) -> None:
        if not self._atomic:
            self.truth.record_miss(time_cycles, cpu, kind, block, domain, app_epoch)
        truth = (self._itruth if kind == INSTR else self._dtruth)[cpu]
        if victim != EMPTY:
            # Consecutive evictions share one displacement record: the
            # maps hold one per evicted block and pickle with the run.
            displaced = self._displaced
            if displaced[1] != app_epoch or displaced[0] is not domain:
                displaced = self._displaced = (domain, app_epoch)
            truth.evicted_by[victim] = displaced
            truth.invalidated.discard(victim)
            if kind == DATA and self._owner.get(victim) == cpu:
                # Evicting an owned line writes it back: nobody owns it
                # any more. (Without this, a later write to the victim by
                # this CPU would fill the cache with no bus transaction —
                # a fill the monitor cannot see.)
                del self._owner[victim]
        truth.ever_cached.add(block)
        truth.evicted_by.pop(block, None)
        truth.invalidated.discard(block)

    def ifetch(
        self, time_cycles: int, cpu: int, block: int, domain: RefDomain, app_epoch: int
    ) -> int:
        """Fetch one instruction block; returns stall cycles."""
        if self._atomic:
            self.atomic_refs += 1
        victim = self.hierarchies[cpu].icache.access(block)
        if victim is None:
            return 0
        self._report_fill(time_cycles, cpu, INSTR, block, victim, domain, app_epoch)
        if not self._atomic:
            self.bus_reads += 1
            self.bus.transaction(time_cycles, cpu, block * self.block_bytes, BusOp.READ)
        return self.params.bus_stall_cycles

    def dread(
        self, time_cycles: int, cpu: int, block: int, domain: RefDomain, app_epoch: int
    ) -> int:
        """Read one data block; returns stall cycles."""
        if self._atomic:
            # The atomic tier keeps L2 alone.
            self.atomic_refs += 1
            victim = self.hierarchies[cpu].dl2.access(block)
            if victim is None:
                return 0
        else:
            outcome, victim = self.hierarchies[cpu].daccess(block)
            if outcome is AccessOutcome.L1_HIT:
                return 0
            if outcome is AccessOutcome.L2_HIT:
                return self.params.l2_hit_stall_cycles
        self._report_fill(time_cycles, cpu, DATA, block, victim, domain, app_epoch)
        # Reading a block exclusively held elsewhere downgrades it to shared.
        owner = self._owner.get(block, SHARED)
        if owner != SHARED and owner != cpu:
            self._owner.pop(block, None)
        if not self._atomic:
            self.bus_reads += 1
            self.bus.transaction(time_cycles, cpu, block * self.block_bytes, BusOp.READ)
            if self.checker is not None:
                self.checker.after_data_read(time_cycles, cpu, block)
        return self.params.bus_stall_cycles

    def dwrite(
        self, time_cycles: int, cpu: int, block: int, domain: RefDomain, app_epoch: int
    ) -> int:
        """Write one data block; returns stall cycles.

        Writing a block not exclusively owned issues a bus transaction
        that invalidates every other CPU's copy — those invalidations are
        what later surface as *Sharing* misses (Table 2).
        """
        stall = 0
        if self._atomic:
            self.atomic_refs += 1
            victim = self.hierarchies[cpu].dl2.access(block)
            missed = victim is not None
        else:
            outcome, victim = self.hierarchies[cpu].daccess(block)
            if outcome is AccessOutcome.L2_HIT:
                stall += self.params.l2_hit_stall_cycles
            missed = outcome is AccessOutcome.MISS
        if missed:
            self._report_fill(time_cycles, cpu, DATA, block, victim, domain, app_epoch)
        checker = self.checker
        if self._owner.get(block, SHARED) == cpu:
            if missed and checker is not None:
                checker.after_data_write(time_cycles, cpu, block, True, False, ())
            return stall
        icache_before = () if checker is None else checker.snapshot_icaches(block)
        # Gain ownership: one bus transaction invalidating other copies.
        for other, o_dl1p, o_dl2p in self._snoop[cpu]:
            if (block in o_dl2p or block in o_dl1p) and other.invalidate_data(block):
                self.truth.record_invalidation(other.cpu, DATA, block)
        self._owner[block] = cpu
        if not self._atomic:
            self.bus_writes += 1
            self.bus.transaction(
                time_cycles, cpu, block * self.block_bytes, BusOp.WRITE
            )
            if checker is not None:
                checker.after_data_write(
                    time_cycles, cpu, block, missed, True, icache_before
                )
        return stall + self.params.bus_stall_cycles

    # ------------------------------------------------------------------
    # Uncached accesses (escape references)
    # ------------------------------------------------------------------
    def uncached_read(
        self, time_cycles: int, cpu: int, addr: int, domain: RefDomain = RefDomain.OS
    ) -> int:
        """Cache-bypassing byte read; always one bus transaction.

        The paper's instrumentation transfers information to the trace
        through these (Section 2.2); they cost "as cheaply ... as one or
        more cache misses".
        """
        if self._atomic:
            self.atomic_refs += 1
            return self.params.bus_stall_cycles
        self.truth.record_uncached(domain)
        self.bus_uncached += 1
        self.bus.transaction(time_cycles, cpu, addr, BusOp.UNCACHED_READ)
        return self.params.bus_stall_cycles

    # ------------------------------------------------------------------
    # Instruction-cache invalidation (page reallocation)
    # ------------------------------------------------------------------
    def flush_icache_range(self, base_addr: int, size: int) -> int:
        """Invalidate an address range from every CPU's I-cache.

        Called by the kernel when a physical page that contained code is
        reallocated. Returns the number of lines invalidated across all
        CPUs (the seeds of future *Inval* misses).
        """
        first_block = base_addr // self.block_bytes
        num_blocks = -(-size // self.block_bytes)
        flushed = 0
        for hierarchy in self.hierarchies:
            for block in hierarchy.invalidate_instr_range(first_block, num_blocks):
                self.truth.record_invalidation(hierarchy.cpu, INSTR, block)
                flushed += 1
        if self.checker is not None:
            self.checker.after_icache_flush(first_block, num_blocks)
        return flushed

    def flush_all_icaches(self) -> int:
        """Invalidate every CPU's entire I-cache.

        The R3000 has no selective I-cache coherence; reallocating a
        frame that held code forces a full flush, whose re-fetches become
        *Inval* misses (Table 2, Figure 6).
        """
        flushed = 0
        for hierarchy in self.hierarchies:
            for block in hierarchy.icache.invalidate_all():
                self.truth.record_invalidation(hierarchy.cpu, INSTR, block)
                flushed += 1
        if self.checker is not None:
            self.checker.after_full_icache_flush()
        return flushed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def total_bus_transactions(self) -> int:
        return self.bus_reads + self.bus_writes + self.bus_uncached
