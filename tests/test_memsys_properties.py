"""Property-based tests on the memory system's coherence and accounting."""

from collections import Counter
from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from repro.common.params import CacheGeometry, MachineParams
from repro.common.types import MissClass, Mode, RefDomain
from repro.cpu.processor import DTOUCH_ISSUE_CYCLES, IFETCH_ISSUE_CYCLES, Processor
from repro.memsys.system import MemorySystem

# Small caches so invariants get exercised quickly.
SMALL = MachineParams(
    num_cpus=2,
    icache=CacheGeometry(1024),
    dcache_l1=CacheGeometry(1024),
    dcache_l2=CacheGeometry(4096),
)
# The same machine with two-way set-associative caches (exact LRU).
SMALL_2WAY = replace(
    SMALL,
    icache=CacheGeometry(1024, associativity=2),
    dcache_l1=CacheGeometry(1024, associativity=2),
    dcache_l2=CacheGeometry(4096, associativity=2),
)

# An access: (cpu, block, kind) with kind in {read, write, ifetch}.
ACCESS = st.tuples(
    st.integers(0, 1),
    st.integers(0, 600),
    st.sampled_from(["read", "write", "ifetch"]),
)


def replay(accesses):
    memsys = MemorySystem(SMALL)
    time = 0
    for cpu, block, kind in accesses:
        time += 1
        if kind == "read":
            memsys.dread(time, cpu, block, RefDomain.OS, 0)
        elif kind == "write":
            memsys.dwrite(time, cpu, block, RefDomain.OS, 0)
        else:
            memsys.ifetch(time, cpu, block, RefDomain.OS, 0)
    return memsys


@settings(max_examples=40, deadline=None)
@given(st.lists(ACCESS, max_size=300))
def test_written_block_resident_only_where_written(accesses):
    """After any sequence, a block last written by CPU c cannot be
    resident in another CPU's data cache (write-invalidate)."""
    memsys = replay(accesses)
    last_writer = {}
    for i, (cpu, block, kind) in enumerate(accesses):
        if kind == "write":
            last_writer[block] = (i, cpu)
    for block, (when, writer) in last_writer.items():
        # Only if nobody read it afterwards (reads re-share the block).
        reread = any(
            b == block and k == "read" and i > when
            for i, (c, b, k) in enumerate(accesses)
        )
        if reread:
            continue
        for hierarchy in memsys.hierarchies:
            if hierarchy.cpu != writer:
                assert not hierarchy.data_resident(block)


@settings(max_examples=40, deadline=None)
@given(st.lists(ACCESS, max_size=300))
def test_miss_counts_match_bus_traffic(accesses):
    """Classified misses == cacheable bus transactions minus upgrades
    (an upgrade is a write txn for an already-resident block)."""
    memsys = replay(accesses)
    classified = sum(
        count
        for (_d, _k, cls), count in memsys.truth.counts.items()
        if cls is not MissClass.UNCACHED
    )
    assert classified <= memsys.bus_reads + memsys.bus_writes
    assert memsys.bus.transaction_count == memsys.total_bus_transactions()


@settings(max_examples=40, deadline=None)
@given(st.lists(ACCESS, max_size=200))
def test_classification_total_is_total_misses(accesses):
    """Every miss lands in exactly one Table 2 class."""
    memsys = replay(accesses)
    per_class = memsys.truth.class_counts()
    assert sum(per_class.values()) == memsys.truth.total_misses()
    assert all(count >= 0 for count in per_class.values())


@settings(max_examples=30, deadline=None)
@given(st.lists(ACCESS, max_size=200), st.integers(0, 600))
def test_flush_then_refetch_is_inval(accesses, probe):
    """Whatever happened before, after a full I-cache flush the next
    fetch of a previously-cached block classifies as Inval."""
    memsys = replay(accesses)
    memsys.ifetch(10_000, 0, probe, RefDomain.OS, 0)
    memsys.flush_all_icaches()
    before = memsys.truth.class_counts(kind="I").get(MissClass.INVAL, 0)
    memsys.ifetch(10_001, 0, probe, RefDomain.OS, 0)
    after = memsys.truth.class_counts(kind="I").get(MissClass.INVAL, 0)
    assert after == before + 1


# ----------------------------------------------------------------------
# Differential: the processors' inline-hit reference kernel against the
# memory system's full path, one reference at a time.
# ----------------------------------------------------------------------
# Few distinct set offsets, so references conflict at every level.
BLOCK = st.builds(lambda low, high: low + 64 * high,
                  st.integers(0, 7), st.integers(0, 9))
SPAN = st.integers(0, 24)
# An operation: (name, cpu, user_mode, prefetch, args). "tier" flips the
# memory system between the atomic and detailed tiers mid-stream.
OP = st.one_of(
    st.tuples(st.just("ifetch_range"), st.integers(0, 1), st.booleans(),
              st.booleans(), st.tuples(BLOCK, SPAN)),
    st.tuples(st.sampled_from(["ifetch_block", "dread", "dwrite",
                               "dread_block", "dwrite_block"]),
              st.integers(0, 1), st.booleans(), st.booleans(),
              st.tuples(BLOCK)),
    st.tuples(st.just("dtouch_range"), st.integers(0, 1), st.booleans(),
              st.booleans(), st.tuples(BLOCK, SPAN, st.booleans())),
    st.tuples(st.just("copy_blocks"), st.integers(0, 1), st.booleans(),
              st.booleans(), st.tuples(BLOCK, BLOCK, SPAN, BLOCK,
                                       st.integers(1, 8))),
    st.tuples(st.just("clear_blocks"), st.integers(0, 1), st.booleans(),
              st.booleans(), st.tuples(BLOCK, SPAN, BLOCK, st.integers(1, 8))),
    st.tuples(st.just("tier"), st.just(0), st.booleans(), st.booleans(),
              st.tuples()),
)


def _references(name, args):
    """The (kind, block, issue cycles) sequence an operation issues."""
    if name == "ifetch_range":
        first, n = args
        return [("I", b, IFETCH_ISSUE_CYCLES) for b in range(first, first + n)]
    if name == "ifetch_block":
        return [("I", args[0], IFETCH_ISSUE_CYCLES)]
    if name in ("dread", "dread_block"):
        return [("R", args[0], DTOUCH_ISSUE_CYCLES)]
    if name in ("dwrite", "dwrite_block"):
        return [("W", args[0], DTOUCH_ISSUE_CYCLES)]
    if name == "dtouch_range":
        first, n, write = args
        return [("W" if write else "R", b, DTOUCH_ISSUE_CYCLES)
                for b in range(first, first + n)]
    refs = []
    if name == "copy_blocks":
        src, dst, n, loop, every = args
    else:
        dst, n, loop, every = args
        src = None
    for i in range(n):
        if src is not None:
            refs.append(("R", src + i, DTOUCH_ISSUE_CYCLES))
        refs.append(("W", dst + i, DTOUCH_ISSUE_CYCLES))
        if i % every == 0:
            refs.append(("I", loop, IFETCH_ISSUE_CYCLES))
    return refs


def _kernel_call(proc, name, args, block_bytes):
    if name == "ifetch_range":
        first, n = args
        proc.ifetch_range(first * block_bytes + 3, max(0, n * block_bytes - 6))
    elif name in ("dread", "dwrite"):
        getattr(proc, name)(args[0] * block_bytes + 5)
    elif name == "dtouch_range":
        first, n, write = args
        proc.dtouch_range(first * block_bytes + 1, max(0, n * block_bytes - 2), write)
    else:
        getattr(proc, name)(*args)


class _RefCpu:
    """The reference side's clock and mode accounting."""

    def __init__(self):
        self.cycles = self.refs = 0
        self.mode = Mode.IDLE
        self.epoch = 0
        self.mode_cycles = {m: 0 for m in Mode}
        self.stall_cycles = {m: 0 for m in Mode}

    def set_mode(self, mode):
        if mode is Mode.USER and self.mode is not Mode.USER:
            self.epoch += 1
        self.mode = mode

    def charge(self, cycles, stall=False):
        self.cycles += cycles
        self.mode_cycles[self.mode] += cycles
        if stall:
            self.stall_cycles[self.mode] += cycles


def _state(memsys, cpus, transactions):
    truth = memsys.truth
    return {
        "caches": [
            [list(map(list, c._ways)) for c in (h.icache, h.dl1, h.dl2)]
            for h in memsys.hierarchies
        ],
        "owner": dict(memsys._owner),
        "warmth": [
            (t.ever_cached, t.evicted_by, t.invalidated)
            for t in truth._instr + truth._data
        ],
        "counts": (truth.counts, truth.dispossame_counts),
        "bus": (memsys.bus_reads, memsys.bus_writes, memsys.bus_uncached,
                memsys.bus.transaction_count, transactions),
        "atomic_refs": memsys.atomic_refs,
        "cpus": cpus,
    }


def _kernel_side(params, atomic, ops):
    memsys = MemorySystem(params)
    seen = []
    memsys.bus.attach(seen.append)
    procs = [Processor(c, params, memsys) for c in range(params.num_cpus)]
    memsys.atomic = atomic
    for name, cpu, user, prefetch, args in ops:
        if name == "tier":
            memsys.atomic = not memsys.atomic
            continue
        proc = procs[cpu]
        proc.set_mode(Mode.USER if user else Mode.KERNEL)
        proc.prefetch_mode = prefetch
        _kernel_call(proc, name, args, params.block_bytes)
    cpus = [(p.cycles, p.mode_cycles, p.stall_cycles, p.refs_retired) for p in procs]
    return _state(memsys, cpus, seen)


def _reference_side(params, atomic, ops):
    memsys = MemorySystem(params)
    seen = []
    memsys.bus.attach(seen.append)
    cpus = [_RefCpu() for _ in range(params.num_cpus)]
    memsys.atomic = atomic
    access = {"I": memsys.ifetch, "R": memsys.dread, "W": memsys.dwrite}
    for name, cpu, user, prefetch, args in ops:
        if name == "tier":
            memsys.atomic = not memsys.atomic
            continue
        ref = cpus[cpu]
        ref.set_mode(Mode.USER if user else Mode.KERNEL)
        domain = RefDomain.APP if user else RefDomain.OS
        for kind, block, issue in _references(name, args):
            ref.refs += 1
            ref.charge(issue)
            stall = access[kind](ref.cycles, cpu, block, domain, ref.epoch)
            if stall and not prefetch:
                ref.charge(stall, stall=True)
    cpus = [(r.cycles, r.mode_cycles, r.stall_cycles, r.refs) for r in cpus]
    return _state(memsys, cpus, seen)


# A sweep writing blocks this CPU holds without owning must upgrade them.
_READ_THEN_SWEEP = [
    ("dread_block", 0, False, False, (5,)),
    ("dtouch_range", 1, False, False, (6, 2, False)),
    ("copy_blocks", 0, False, False, (6, 4, 3, 100, 2)),
    ("clear_blocks", 1, True, False, (4, 3, 100, 1)),
]


@settings(max_examples=150, deadline=None)
@given(st.lists(OP, max_size=60), st.booleans(), st.booleans())
@example(_READ_THEN_SWEEP, False, False)
@example(_READ_THEN_SWEEP, True, False)
def test_reference_kernel_matches_full_path(ops, atomic, two_way):
    """Inline hits, in-place atomic fills and batched clock updates leave
    exactly the state the memory system's full path does, on both tiers,
    both geometries, with and without prefetching."""
    params = SMALL_2WAY if two_way else SMALL
    assert _kernel_side(params, atomic, ops) == _reference_side(params, atomic, ops)
