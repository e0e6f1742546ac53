"""Per-CPU execution context.

All memory references in the simulator — kernel and application alike —
are issued through a :class:`Processor`, which

- keeps the CPU's local cycle clock,
- attributes elapsed cycles to user / system / idle time (the Table 1
  execution-time split),
- carries the classification context (who is executing: OS or
  application, and the CPU's *application epoch* used to detect
  ``Dispossame`` misses), and
- charges the paper's stall costs for every miss the memory system
  reports.

References are issued at cache-block granularity: one instruction block
(16 bytes = four R3000 instructions) costs four issue cycles, one data
touch costs one cycle, and misses add the 35-cycle bus stall
(Section 3.1).
"""

from __future__ import annotations

from typing import Dict

from repro.common.params import MachineParams
from repro.common.types import Mode, RefDomain
from repro.cpu.tlb import Tlb
from repro.memsys.cache import EMPTY
from repro.memsys.system import MemorySystem

# Issue cost of one fetched instruction block (4 instructions at ~1 CPI).
IFETCH_ISSUE_CYCLES = 4
# Issue cost of one data touch (the load/store itself).
DTOUCH_ISSUE_CYCLES = 1


class Processor:
    """One CPU: clock, mode accounting and reference issue."""

    def __init__(self, cpu_id: int, params: MachineParams, memsys: MemorySystem):
        self.cpu_id = cpu_id
        self.params = params
        self.memsys = memsys
        self.tlb = Tlb(params.tlb_entries)
        self.cycles = 0
        self.mode = Mode.IDLE
        self.domain = RefDomain.OS
        # Incremented whenever the CPU returns to application code; used
        # to distinguish Dispossame (OS self-displacement with no
        # intervening application run, Table 2).
        self.app_epoch = 0
        self.current_pid: int = 0  # 0 = nobody (idle)
        self.mode_cycles: Dict[Mode, int] = {m: 0 for m in Mode}
        self.stall_cycles: Dict[Mode, int] = {m: 0 for m in Mode}
        # Block-granularity references this CPU has issued, across all
        # fidelity tiers; the fidelity layer reports per-tier reference
        # throughput (refs/s of wall clock) from these.
        self.refs_retired = 0
        self._block_bytes = params.block_bytes
        # When set, miss latencies are not charged as stall time: the
        # data was prefetched ahead of use ("if the data to be copied or
        # cleared is prefetched in advance while other computation is in
        # progress, the latency of the misses is hidden" — Section 4.2.2).
        # Bus traffic and cache effects still happen.
        self.prefetch_mode = False
        # Sanitizer hook (repro.sanitizers): called with
        # (cpu_id, addr, write) on the word-granularity reference paths
        # the kernel uses for structure touches. None when checking is
        # off; the block-granularity user paths are never probed.
        self.access_probe = None
        # Deep-mode hook: called with (cpu_id, block, write) on the
        # block-granularity sweep paths (dread_block/dwrite_block), so
        # bcopy/PCB/kernel-stack sweeps can be attributed to structures.
        # None unless checking runs with check="deep".
        self.block_probe = None
        memsys.cpus.append(self)
        self.bind()

    def bind(self) -> None:
        """Bind the presence sets this CPU resolves hits against.

        In a direct-mapped cache, membership alone proves a hit and a hit
        moves no state, so the reference methods below resolve hits
        inline and call the memory system only on a miss or an ownership
        upgrade. The first data level is L1 on the detailed tier and L2
        on the atomic tier, the only data level that tier keeps. An
        associative level binds an empty set: every reference to it
        takes the memory system's full path, which keeps exact LRU. The
        memory system rebinds its processors whenever its tier changes.
        """
        m = self.memsys
        hierarchy = m.hierarchies[self.cpu_id]
        dfirst = hierarchy.dl2 if m.atomic else hierarchy.dl1
        self._atomic = m.atomic
        self._ipresent = (
            hierarchy.icache._present if hierarchy.icache.assoc == 1 else frozenset()
        )
        self._dpresent = dfirst._present if dfirst.assoc == 1 else frozenset()
        self._owner = m._owner
        # An atomic-tier miss reports nothing, so ifetch_range fills
        # proven-absent I-cache blocks in place.
        self._ifill = (
            hierarchy.icache.fill if m.atomic and hierarchy.icache.assoc == 1 else None
        )

    # ------------------------------------------------------------------
    # Mode transitions
    # ------------------------------------------------------------------
    def set_mode(self, mode: Mode) -> None:
        if mode is Mode.USER and self.mode is not Mode.USER:
            self.app_epoch += 1
        self.mode = mode
        self.domain = RefDomain.APP if mode is Mode.USER else RefDomain.OS

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def advance(self, cycles: int) -> None:
        """Burn ``cycles`` of computation in the current mode."""
        if cycles < 0:
            raise ValueError("cannot advance time backwards")
        self.cycles += cycles
        self.mode_cycles[self.mode] += cycles

    def advance_to(self, target_cycles: int) -> None:
        """Advance the local clock to an absolute time (idle waits)."""
        if target_cycles > self.cycles:
            self.advance(target_cycles - self.cycles)

    def _stall(self, cycles: int) -> None:
        if cycles and not self.prefetch_mode:
            self.cycles += cycles
            self.mode_cycles[self.mode] += cycles
            self.stall_cycles[self.mode] += cycles

    def charge_stall(self, cycles: int) -> None:
        """Charge an externally-computed stall (synchronization bus ops)."""
        if cycles < 0:
            raise ValueError("stall cycles must be non-negative")
        self._stall(cycles)

    # ------------------------------------------------------------------
    # Reference issue (physical addresses)
    # ------------------------------------------------------------------
    def _retire(self, refs: int, calls: int, now: int, stalled: int) -> None:
        """Account a batch of ``refs`` references that moved the clock to
        ``now``, ``stalled`` cycles of it stalls. ``calls`` of them went
        through the memory system, which counted its own atomic refs."""
        self.refs_retired += refs
        if self._atomic:
            self.memsys.atomic_refs += refs - calls
        self.mode_cycles[self.mode] += now - self.cycles
        self.stall_cycles[self.mode] += stalled
        self.cycles = now

    def ifetch_range(self, base: int, size: int) -> None:
        """Execute straight-line code spanning ``[base, base+size)``."""
        if size <= 0:
            return
        first = base // self._block_bytes
        last = (base + size - 1) // self._block_bytes
        cpu, domain, epoch = self.cpu_id, self.domain, self.app_epoch
        present, ifill = self._ipresent, self._ifill
        fetch = self.memsys.ifetch
        truth = self.memsys._itruth[cpu]
        evicted, invalidated = truth.evicted_by, truth.invalidated
        displaced = (domain, epoch)
        charge = not self.prefetch_mode
        now = self.cycles
        stalled = calls = 0
        for block in range(first, last + 1):
            now += IFETCH_ISSUE_CYCLES
            if block in present:
                continue
            if ifill is None:
                calls += 1
                stall = fetch(now, cpu, block, domain, epoch)
            else:
                # The memory system's atomic I-cache miss, in place.
                victim = ifill(block)
                if victim != EMPTY:
                    evicted[victim] = displaced
                    invalidated.discard(victim)
                truth.ever_cached.add(block)
                evicted.pop(block, None)
                invalidated.discard(block)
                stall = self.params.bus_stall_cycles
            if charge:
                now += stall
                stalled += stall
        self._retire(last - first + 1, calls, now, stalled)

    def ifetch_block(self, block: int) -> None:
        """Fetch one instruction block (loop bodies, idle loop)."""
        self.refs_retired += 1
        self.cycles += IFETCH_ISSUE_CYCLES
        self.mode_cycles[self.mode] += IFETCH_ISSUE_CYCLES
        if block in self._ipresent:
            if self._atomic:
                self.memsys.atomic_refs += 1
            return
        self._stall(self.memsys.ifetch(
            self.cycles, self.cpu_id, block, self.domain, self.app_epoch
        ))

    def _touch(self, block: int, write: bool) -> None:
        """One data reference: a hit in the first data level (owned, for
        a write) resolves here."""
        self.refs_retired += 1
        self.cycles += DTOUCH_ISSUE_CYCLES
        self.mode_cycles[self.mode] += DTOUCH_ISSUE_CYCLES
        if block in self._dpresent and (
            not write or self._owner.get(block) == self.cpu_id
        ):
            if self._atomic:
                self.memsys.atomic_refs += 1
            return
        access = self.memsys.dwrite if write else self.memsys.dread
        self._stall(access(self.cycles, self.cpu_id, block, self.domain, self.app_epoch))

    def dread(self, addr: int) -> None:
        """Load from one data address."""
        if self.access_probe is not None:
            self.access_probe(self.cpu_id, addr, False)
        self._touch(addr // self._block_bytes, False)

    def dwrite(self, addr: int) -> None:
        """Store to one data address."""
        if self.access_probe is not None:
            self.access_probe(self.cpu_id, addr, True)
        self._touch(addr // self._block_bytes, True)

    def dread_block(self, block: int) -> None:
        if self.block_probe is not None:
            self.block_probe(self.cpu_id, block, False)
        self._touch(block, False)

    def dwrite_block(self, block: int) -> None:
        if self.block_probe is not None:
            self.block_probe(self.cpu_id, block, True)
        self._touch(block, True)

    def _sweep(self, dst: int, nblocks: int, write: bool, src=None,
               loop_block: int = 0, refetch_every: int = 0) -> None:
        """The block-sweep loop: for each of ``nblocks`` blocks, read
        ``src + i`` (copies only), touch ``dst + i``, and refetch
        ``loop_block`` every ``refetch_every`` blocks (0: never)."""
        if nblocks <= 0:
            return
        if self.block_probe is not None:
            # Deep check: the probe must see every block reference.
            touch = self.dwrite_block if write else self.dread_block
            for i in range(nblocks):
                if src is not None:
                    self.dread_block(src + i)
                touch(dst + i)
                if refetch_every and i % refetch_every == 0:
                    self.ifetch_block(loop_block)
            return
        m = self.memsys
        cpu, domain, epoch = self.cpu_id, self.domain, self.app_epoch
        dpresent, ipresent = self._dpresent, self._ipresent
        owner_get = self._owner.get
        charge = not self.prefetch_mode
        sides = ((src, False), (dst, write)) if src is not None else ((dst, write),)
        now = self.cycles
        stalled = calls = 0
        for i in range(nblocks):
            for base, writing in sides:
                block = base + i
                now += DTOUCH_ISSUE_CYCLES
                if block in dpresent and (not writing or owner_get(block) == cpu):
                    continue
                calls += 1
                access = m.dwrite if writing else m.dread
                stall = access(now, cpu, block, domain, epoch)
                if charge:
                    now += stall
                    stalled += stall
            if refetch_every and i % refetch_every == 0:
                now += IFETCH_ISSUE_CYCLES
                if loop_block not in ipresent:
                    calls += 1
                    stall = m.ifetch(now, cpu, loop_block, domain, epoch)
                    if charge:
                        now += stall
                        stalled += stall
        refs = nblocks * len(sides)
        if refetch_every:
            refs += -(-nblocks // refetch_every)
        self._retire(refs, calls, now, stalled)

    def dtouch_range(self, base: int, size: int, write: bool = False) -> None:
        """Sweep a data range block by block (structure touches, block ops)."""
        if size <= 0:
            return
        if self.access_probe is not None:
            # Structure sweeps stay within one region; attribute by base.
            self.access_probe(self.cpu_id, base, write)
        first = base // self._block_bytes
        last = (base + size - 1) // self._block_bytes
        self._sweep(first, last - first + 1, write)

    def copy_blocks(self, src_block: int, dst_block: int, nblocks: int,
                    loop_block: int, refetch_every: int) -> None:
        """bcopy's inner loop: read source, write destination, with the
        loop-body refetch every ``refetch_every`` blocks."""
        self._sweep(dst_block, nblocks, True, src_block, loop_block, refetch_every)

    def clear_blocks(self, dst_block: int, nblocks: int,
                     loop_block: int, refetch_every: int) -> None:
        """bclear's inner loop: write destination blocks with refetch."""
        self._sweep(dst_block, nblocks, True, None, loop_block, refetch_every)

    def uncached_read(self, addr: int) -> None:
        """Cache-bypassing byte read (escape references)."""
        self.refs_retired += 1
        self.advance(DTOUCH_ISSUE_CYCLES)
        self._stall(self.memsys.uncached_read(self.cycles, self.cpu_id, addr, self.domain))

    # ------------------------------------------------------------------
    # Accounting queries
    # ------------------------------------------------------------------
    def non_idle_cycles(self) -> int:
        return self.mode_cycles[Mode.USER] + self.mode_cycles[Mode.KERNEL]

    def time_split(self) -> Dict[Mode, float]:
        """Fraction of this CPU's time in each mode (Table 1 columns 2-4)."""
        total = sum(self.mode_cycles.values())
        if total == 0:
            return {m: 0.0 for m in Mode}
        return {m: cycles / total for m, cycles in self.mode_cycles.items()}
