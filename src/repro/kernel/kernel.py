"""The kernel facade.

:class:`Kernel` owns every kernel subsystem and exposes the surface the
simulation session and the workload engine drive:

- the OS-invocation wrapper (exception entry/exit, eframe save/restore,
  escape bracketing — the unit Figure 1/3 measure),
- address translation for user references (TLB hit → UTLB fault →
  full fault),
- process lifecycle (create/fork/exec/exit), sleep/wakeup, timers,
- per-CPU dispatch state (current process, quantum),
- and the subsystem objects (scheduler, vm, fs, blockops, tlbfaults,
  syscalls, interrupts, locks).
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.params import MachineParams
from repro.common.rng import substream
from repro.common.types import HighLevelOp, Mode
from repro.cpu.processor import Processor
from repro.kernel.blockops import BlockOps
from repro.kernel.fs import FsSubsystem
from repro.kernel.interrupts import Interrupts
from repro.kernel.layout import KernelLayout
from repro.kernel.locks import LockTable
from repro.kernel.process import DATA_VBASE, Image, ProcState, Process
from repro.kernel.scheduler import Scheduler
from repro.kernel.structures import EFRAME_BYTES, NPROC, KernelDataMap
from repro.kernel.syscalls import Syscalls
from repro.kernel.tlbfault import TlbFaults
from repro.kernel.vm import VmSubsystem, VmTuning
from repro.memsys.system import MemorySystem
from repro.monitor.escapes import Instrumentation, NullInstrumentation
from repro.sync.llsc import CachedLockSimulator
from repro.sync.syncbus import SyncBus

# Escape op codes are HighLevelOp indices; keep a stable mapping.
OP_CODE: Dict[HighLevelOp, int] = {op: i for i, op in enumerate(HighLevelOp)}
CODE_OP: Dict[int, HighLevelOp] = {i: op for op, i in OP_CODE.items()}

# Pages at the start of the data region reserved as user I/O buffers.
USER_IO_PAGES = 4


@dataclass
class KernelTuning:
    """Kernel policy knobs, including the paper's proposed optimizations.

    - ``affinity_scheduling``: cache-affinity scheduling (Section 4.2.2's
      fix for migration misses).
    - ``blockop_cache_bypass`` / ``blockop_prefetch``: the two block-
      operation optimizations of Section 4.2.2.
    - ``num_run_queues``: distribute the run queue (Section 6's
      suggestion for larger machines); 1 = the global IRIX queue.
    """

    quantum_ms: float = 30.0
    affinity_scheduling: bool = False
    blockop_cache_bypass: bool = False
    blockop_prefetch: bool = False
    num_run_queues: int = 1
    vm: VmTuning = field(default_factory=VmTuning)

    def __post_init__(self) -> None:
        self.quantum_cycles = 0  # filled in by Kernel (needs cycle rate)


class Kernel:
    """The modelled IRIX 3.2-like kernel."""

    def __init__(
        self,
        params: MachineParams,
        memsys: MemorySystem,
        processors: List[Processor],
        instr: Optional[Instrumentation] = None,
        tuning: Optional[KernelTuning] = None,
        seed: int = 0,
        layout: Optional[KernelLayout] = None,
    ):
        self.params = params
        self.memsys = memsys
        self.processors = processors
        self.instr = instr if instr is not None else NullInstrumentation()
        self.tuning = tuning if tuning is not None else KernelTuning()
        self.tuning.quantum_cycles = params.ms_to_cycles(self.tuning.quantum_ms)
        self.rng = substream(seed, "kernel")

        self.layout = layout if layout is not None else KernelLayout()
        self.datamap = KernelDataMap()
        # Sanitizer hook: a CheckRegistry when invariant checking is on
        # (repro.sanitizers installs itself here), None otherwise.
        self.checks = None
        self.syncbus = SyncBus()
        self.llsc = CachedLockSimulator(
            bus_stall_cycles=params.bus_stall_cycles,
            sync_op_cycles=self.syncbus.op_cycles,
        )
        self.locks = LockTable(
            self.syncbus, self.llsc,
            num_runq=max(1, self.tuning.num_run_queues),
        )
        self.vm = VmSubsystem(self, self.tuning.vm)
        self.blockops = BlockOps(
            self,
            cache_bypass=self.tuning.blockop_cache_bypass,
            prefetch=self.tuning.blockop_prefetch,
        )
        self.fs = FsSubsystem(self, substream(seed, "disk"))
        self.scheduler = Scheduler(
            self,
            affinity=self.tuning.affinity_scheduling,
            num_queues=max(1, self.tuning.num_run_queues),
        )
        self.tlbfaults = TlbFaults(self)
        self.syscalls = Syscalls(self)
        self.interrupts = Interrupts(self)

        # Per-CPU dispatch state.
        self.current: List[Optional[Process]] = [None] * params.num_cpus
        self.quantum_start_cycles = [0] * params.num_cpus
        self._kdepth = [0] * params.num_cpus

        # Process registry.
        self.processes: Dict[int, Process] = {}
        self._next_pid = 1
        self._free_slots = list(range(NPROC))
        self._frame_refcount: Dict[int, int] = {}
        # Every program image ever seen, by name: needed so reclaim can
        # fix up an image's frame table even when no live process maps it.
        self.images: Dict[str, Image] = {}

        # Driver-replay log (repro.fidelity): when a list, every driver
        # next() and process creation is appended as ("n"|"c", pid) so a
        # checkpoint can rebuild the unpicklable workload generators by
        # replaying the log against a fresh setup. ``_logged_processes``
        # keeps every process created while logging — including ones
        # later freed — because a parent's generator may still hold its
        # child across the capture point.
        self.driver_log = None
        self._logged_processes: Dict[int, Process] = {}

        # Sleep/wakeup and timers.
        self._sleepers: Dict[object, List[Process]] = {}
        self._timers: List[Tuple[int, int, Process]] = []
        self._timer_seq = 0

        # User semaphores (semop syscall).
        self.semaphores: Dict[int, int] = {}
        # Characters delivered by terminal interrupts, per session.
        self.tty_input: Dict[int, int] = {}

        # Statistics.
        self.os_invocations = 0
        self.invocation_ops: Dict[HighLevelOp, int] = {op: 0 for op in HighLevelOp}
        self.op_cycles: Dict[HighLevelOp, int] = {op: 0 for op in HighLevelOp}

    # ------------------------------------------------------------------
    # Layout helpers
    # ------------------------------------------------------------------
    def routine_span(self, name: str) -> Tuple[int, int]:
        routine = self.layout.routine(name)
        return routine.base, routine.size

    # ------------------------------------------------------------------
    # OS invocation bracketing (Figure 1's unit of OS activity)
    # ------------------------------------------------------------------
    @contextmanager
    def os_invocation(
        self, proc: Processor, op: HighLevelOp, save_frame: bool = True
    ) -> Iterator[None]:
        """Enter the OS for one operation.

        At the outermost level this is a full exception: the low-level
        assembly entry saves the registers into the Eframe section of the
        current process's user structure (Table 5's "Low-Level Exception
        Handling"), and the exit restores them. Nested entries (an
        interrupt arriving in kernel mode) skip the mode switch.
        """
        cpu = proc.cpu_id
        depth = self._kdepth[cpu]
        self._kdepth[cpu] = depth + 1
        outermost = depth == 0
        self.os_invocations += 1
        self.invocation_ops[op] += 1
        if outermost:
            proc.set_mode(Mode.KERNEL)
        start_cycles = proc.cycles
        self.instr.os_enter(proc, OP_CODE[op])
        process = self.current[cpu]
        if outermost:
            proc.ifetch_range(*self.routine_span("excvec_entry"))
            if save_frame and process is not None:
                proc.dtouch_range(
                    self.datamap.eframe_base(process.slot), EFRAME_BYTES, write=True
                )
        try:
            yield
        finally:
            process = self.current[cpu]
            if outermost:
                if save_frame and process is not None:
                    proc.dtouch_range(
                        self.datamap.eframe_base(process.slot), EFRAME_BYTES,
                        write=False,
                    )
                proc.ifetch_range(*self.routine_span("excvec_exit"))
            self.instr.os_exit(proc)
            self._kdepth[cpu] = depth
            self.op_cycles[op] += proc.cycles - start_cycles
            if outermost:
                proc.set_mode(
                    Mode.USER if self.current[cpu] is not None else Mode.IDLE
                )

    def in_kernel(self, cpu: int) -> bool:
        return self._kdepth[cpu] > 0

    def race_exempt(self, proc: Processor, *structs):
        """Annotate an intentional lock-free structure access.

        The kernel's ``data_race()``-style escape hatch: the with-block
        may touch ``structs`` without their protecting lock (priority
        decay sweeps, interrupt-level ``spl``-protected writes) without
        the race checker flagging it. A no-op when checking is off.
        """
        if self.checks is None:
            return nullcontext()
        return self.checks.races.allow(proc.cpu_id, *structs)

    # ------------------------------------------------------------------
    # Address translation for user references
    # ------------------------------------------------------------------
    def translate(
        self, proc: Processor, process: Process, vpage: int, write: bool
    ) -> Optional[int]:
        """Virtual page -> frame for a user reference.

        Handles the whole fault ladder. Returns the frame, or None if the
        process went to sleep (text page-in I/O); the engine retries
        after wakeup.
        """
        entry = proc.tlb.lookup(process.pid, vpage)
        if entry is not None and not (write and vpage in process.cow_pages):
            return entry.frame
        return self.translate_fault(proc, process, vpage, write)

    def translate_fault(
        self, proc: Processor, process: Process, vpage: int, write: bool
    ) -> Optional[int]:
        """:meth:`translate` after its TLB lookup missed, or hit a
        copy-on-write page on a write."""
        frame = self.tlbfaults.frame_for(process, vpage)
        if frame is not None and not (write and vpage in process.cow_pages):
            # Fast refill from the page table: a UTLB fault.
            self.tlbfaults.utlb_fault(proc, process, vpage, frame)
            return frame
        # Full fault.
        with self.os_invocation(proc, HighLevelOp.EXPENSIVE_TLB_FAULT):
            resolved = self.tlbfaults.vfault(proc, process, vpage, write)
            if resolved is None:
                self.block_current(proc)
        return resolved

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def register_image(self, image: Image) -> Image:
        self.images[image.name] = image
        return image

    def release_image_if_dead(self, proc: Processor, image: Image) -> int:
        """System V text semantics: when the last process using a
        (non-sticky) binary exits or execs away, its text frames are
        released. Their later reuse is what forces the I-cache flushes
        behind the *Inval* misses (Table 2). Returns frames freed.

        Long-running images (the database, the simulator, make itself)
        never reach refcount zero, so they stay resident — matching the
        real system, where only the compile pipeline's binaries churn.
        """
        if image.refcount > 0 or not image.frames:
            return 0
        freed = 0
        for index, frame in enumerate(image.frames):
            if frame < 0:
                continue
            image.frames[index] = -1
            for cpu_proc in self.processors:
                cpu_proc.tlb.flush_frame(frame)
            self.vm.free_frame(proc, frame)
            freed += 1
        return freed

    def create_process(self, name: str, image: Image, driver) -> Process:
        if not self._free_slots:
            raise RuntimeError("process table full (NPROC exceeded)")
        pid = self._next_pid
        self._next_pid += 1
        slot = self._free_slots.pop()
        process = Process(pid=pid, slot=slot, name=name, image=image, driver=driver)
        image.refcount += 1
        self.register_image(image)
        self.processes[pid] = process
        if self.driver_log is not None:
            self.driver_log.append(("c", pid))
            self._logged_processes[pid] = process
        return process

    def free_process(self, process: Process) -> None:
        self._free_slots.append(process.slot)
        self.processes.pop(process.pid, None)

    def teardown_address_space(self, proc: Processor, process: Process) -> None:
        """Free the process's private pages (exec and exit).

        COW-shared frames are refcounted so the sharer keeps its copy.
        """
        for vpage, frame in list(process.data_frames.items()):
            refs = self._frame_refcount.get(frame, 1)
            if refs > 1:
                self.unshare_frame(frame)
            else:
                self.vm.free_frame(proc, frame)
            proc.tlb.flush_frame(frame)
        process.data_frames.clear()
        process.cow_pages.clear()
        process.hot_blocks = []
        proc.tlb.flush_pid(process.pid)

    def share_frame(self, frame: int) -> None:
        """Fork: one more address space references this frame."""
        self._frame_refcount[frame] = self._frame_refcount.get(frame, 1) + 1

    def unshare_frame(self, frame: int) -> None:
        """COW fault resolved: the faulter stopped using the shared frame."""
        refs = self._frame_refcount.get(frame, 1)
        if refs > 2:
            self._frame_refcount[frame] = refs - 1
        else:
            self._frame_refcount.pop(frame, None)

    def frame_shared(self, frame: int) -> bool:
        return self._frame_refcount.get(frame, 1) > 1

    def release_dead_image_frame(self, proc: Processor, frame: int, image_name) -> bool:
        """Reclaim a text frame if no live process uses its image."""
        image = self.images.get(image_name)
        if image is not None and image.refcount > 0:
            return False
        for process in self.processes.values():
            if process.image.name == image_name and not process.exited:
                return False
        if image is not None and frame in image.frames:
            image.frames[image.frames.index(frame)] = -1
        for proc_tlb in self.processors:
            proc_tlb.tlb.flush_frame(frame)
        self.vm.free_frame(proc, frame)
        return True

    def steal_data_frame(self, proc: Processor, frame: int, tag) -> bool:
        """Reclaim a data page from a sleeping process (it will refault
        with a fresh demand-zero page — our model has no swap device, so
        only re-creatable pages are stolen)."""
        if not (isinstance(tag, tuple) and len(tag) == 2):
            return False  # anonymous data frame: not safely re-creatable
        pid, vpage = tag
        process = self.processes.get(pid)
        if process is None:
            # Owner exited without the frame being freed: just release it.
            self.vm.free_frame(proc, frame)
            return True
        if process.state is not ProcState.SLEEPING:
            return False
        if self._frame_refcount.get(frame, 1) > 1 or vpage in process.cow_pages:
            return False
        if process.data_frames.get(vpage) != frame:
            # Stale use-tag (the page was COW-copied since): not stealable.
            return False
        process.data_frames.pop(vpage, None)
        for cpu_proc in self.processors:
            cpu_proc.tlb.flush_frame(frame)
        self.vm.free_frame(proc, frame)
        return True

    # ------------------------------------------------------------------
    # Sleep / wakeup / timers
    # ------------------------------------------------------------------
    def sleep(self, process: Process, channel: object) -> None:
        """Mark a process asleep on a channel (the engine performs the
        actual CPU switch when the handler returns 'blocked').

        Sleeping earns back priority (System V interactivity boost).
        """
        process.state = ProcState.SLEEPING
        process.sleep_channel = channel
        process.priority = max(10, process.priority - 2)
        self._sleepers.setdefault(channel, []).append(process)

    def wakeup(self, channel: object, proc: Processor) -> int:
        """Wake every process sleeping on a channel (waker pays the
        run-queue footprint)."""
        sleepers = self._sleepers.pop(channel, [])
        for process in sleepers:
            process.sleep_channel = None
            self.scheduler.setrq(proc, process)
        return len(sleepers)

    def sleep_until(self, process: Process, wake_cycles: int) -> None:
        """Timed sleep (ed think time); the clock interrupt delivers it."""
        self._timer_seq += 1
        heapq.heappush(self._timers, (wake_cycles, self._timer_seq, process))
        process.state = ProcState.SLEEPING
        process.sleep_channel = ("timer", process.pid)

    def pop_due_timers(self, proc: Processor) -> List[Process]:
        due = []
        while self._timers and self._timers[0][0] <= proc.cycles:
            _, _, process = heapq.heappop(self._timers)
            if process.state is ProcState.SLEEPING:
                process.sleep_channel = None
                due.append(process)
        return due

    def next_timer_cycles(self) -> Optional[int]:
        return self._timers[0][0] if self._timers else None

    def block_current(self, proc: Processor) -> None:
        """The current process just went to sleep: switch away."""
        self.current[proc.cpu_id] = None
        self.scheduler.dispatch(proc)

    # ------------------------------------------------------------------
    # User I/O staging pages
    # ------------------------------------------------------------------
    def user_io_address(self, proc: Processor, process: Process, offset: int) -> int:
        """Physical address of the process's user I/O buffer at ``offset``.

        read()/write() transfer between the buffer cache and these pages;
        they are demand-zero faulted like any other data page.
        """
        page_bytes = self.params.page_bytes
        vpage = DATA_VBASE + (offset // page_bytes) % USER_IO_PAGES
        frame = process.data_frames.get(vpage)
        if frame is None:
            frame = self.tlbfaults._demand_zero(proc, process, vpage)
        return frame * page_bytes + offset % page_bytes

    # ------------------------------------------------------------------
    # Device event plumbing (driven by the session)
    # ------------------------------------------------------------------
    def next_device_event_cycles(self) -> Optional[int]:
        return self.fs.disk.next_time()

    def service_disk(self, proc: Processor) -> None:
        payloads = self.fs.disk.pop_due(proc.cycles)
        if payloads:
            with self.os_invocation(proc, HighLevelOp.INTERRUPT):
                self.interrupts.disk(proc, payloads)
