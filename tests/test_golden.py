"""Golden run fingerprints: simulated statistics pinned across code changes.

Each case runs a short simulation and hashes everything the simulator
measures: the monitor trace, every CPU's clock and its user/kernel/idle
and stall splits, retired references, the ground-truth miss classes,
the atomic tier's reference count, the bus counters and the TLB
counters. A change to the reference path that moves any of them, on any
tier or geometry, changes a digest.

The expected digests were computed before the reference path was
restructured, so they hold the simulator to its earlier behaviour.
"""

import hashlib

import pytest

from repro.common.params import CacheGeometry, MachineParams
from repro.sim._session import Simulation

TWO_WAY = MachineParams(
    icache=CacheGeometry(64 * 1024, associativity=2),
    dcache_l1=CacheGeometry(64 * 1024, associativity=2),
    dcache_l2=CacheGeometry(256 * 1024, associativity=2),
)

# name -> (Simulation kwargs, horizon_ms, warmup_ms)
CASES = {
    "pmake-detailed": (dict(workload="pmake"), 10.0, 30.0),
    "pmake-atomic": (dict(workload="pmake", fidelity="atomic"), 10.0, 60.0),
    "kv-mixed": (dict(workload="kv", fidelity="mixed"), 8.0, 60.0),
    "pmake-two-way-mixed": (
        dict(workload="pmake", params=TWO_WAY, fidelity="mixed"), 8.0, 40.0,
    ),
    "pmake-deep-check": (dict(workload="pmake", check="deep"), 6.0, 20.0),
}

GOLDEN = {
    "pmake-detailed": (
        "c68787a099c88a63fdc0bc30fdde2599"
        "9fd9057f1709a8f1337141a13d408a7a"
    ),
    "pmake-atomic": (
        "477c04981105118e7cac2bbd11c6f3a0"
        "551da66257b81a00d296632a50f67294"
    ),
    "kv-mixed": (
        "5a8273888d9f2ca002a023f8276555d6"
        "e0a73b38326f8f31ab420dfa457e83cb"
    ),
    "pmake-two-way-mixed": (
        "ab003b3bf8169bb173f565460ee89081"
        "d1fd4d19805cb6e757816a3754edf6f9"
    ),
    "pmake-deep-check": (
        "e56be9ca9769eb6aa1a90c4fa441e08d"
        "822288cdb2fcb2ba015d60f28c247860"
    ),
}


def _sorted_counts(counter) -> list:
    return sorted((repr(key), count) for key, count in counter.items())


def fingerprint(run) -> str:
    """SHA-256 over the run's trace and every simulated counter."""
    h = hashlib.sha256()
    for segment in run.trace.segments:
        h.update(repr((segment.start_cycles, segment.end_cycles)).encode())
        for entry in segment.entries:
            h.update(repr(entry).encode())
    for proc in run.processors:
        h.update(repr((
            proc.cpu_id, proc.cycles,
            [(m.name, c) for m, c in proc.mode_cycles.items()],
            [(m.name, c) for m, c in proc.stall_cycles.items()],
            proc.refs_retired, proc.tlb.lookups, proc.tlb.misses,
        )).encode())
    memsys = run.memsys
    h.update(repr((
        _sorted_counts(memsys.truth.counts),
        _sorted_counts(memsys.truth.dispossame_counts),
        memsys.atomic_refs, memsys.bus_reads, memsys.bus_writes,
        memsys.bus_uncached, memsys.bus.transaction_count,
    )).encode())
    return h.hexdigest()


def simulate(name: str):
    kwargs, horizon_ms, warmup_ms = CASES[name]
    return Simulation(seed=11, **kwargs).run(horizon_ms, warmup_ms)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_fingerprint(name):
    assert fingerprint(simulate(name)) == GOLDEN[name]
