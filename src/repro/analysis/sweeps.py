"""Cache what-if sweeps: the Figure 6 methodology.

"In our simulations, we use the references that miss in the caches of
the real machine to simulate larger caches." Because the real caches are
direct mapped, any cache at least as large with at least the same
associativity contains a superset of the blocks — so replaying the miss
stream through a bigger/more associative cache yields its exact miss
stream. Announced I-cache flushes are replayed too, which is what lets
the sweep expose the *Inval* floor ("the figure assumes that the
algorithm used to invalidate caches does not change as caches increase
in size").

"Note that both application and OS instruction traces are simulated,
although only OS misses are plotted in the figure."
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple

from repro.common.params import CacheGeometry
from repro.memsys.cache import Cache

# Stream element: (cpu, block, domain_is_os, in_window); cpu == -1 is a
# full-flush marker (see TraceAnalysis.imiss_stream).
StreamEntry = Tuple[int, int, bool, bool]

FLUSH_CPU = -1


class IMissStream:
    """The I-miss stream as typed columns, one row per instruction miss.

    ``cpus`` (``b``; :data:`FLUSH_CPU` marks a full I-cache flush),
    ``blocks`` (``I``), ``is_os`` and ``in_window`` (``B``, 0 or 1).
    Iterating yields the rows as :data:`StreamEntry` int tuples; the
    constructor takes such rows, so a hand-written list replays the same.
    """

    __slots__ = ("cpus", "blocks", "is_os", "in_window")

    def __init__(self, rows: Iterable[StreamEntry] = ()) -> None:
        self.cpus = array("b")
        self.blocks = array("I")
        self.is_os = array("B")
        self.in_window = array("B")
        for row in rows:
            self.append(*row)

    def columns(self) -> Tuple[array, array, array, array]:
        return (self.cpus, self.blocks, self.is_os, self.in_window)

    def append(self, cpu: int, block: int, is_os: bool, in_window: bool) -> None:
        self.cpus.append(cpu)
        self.blocks.append(block)
        self.is_os.append(is_os)
        self.in_window.append(in_window)

    def extend(self, other: "IMissStream") -> None:
        for mine, theirs in zip(self.columns(), other.columns()):
            mine.extend(theirs)

    def __len__(self) -> int:
        return len(self.cpus)

    def __iter__(self) -> Iterator[StreamEntry]:
        return zip(*self.columns())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IMissStream):
            return NotImplemented
        return self.columns() == other.columns()

    def __repr__(self) -> str:
        return f"IMissStream({len(self)} rows)"


def as_imiss_stream(stream: Iterable[StreamEntry]) -> IMissStream:
    """``stream`` itself if it is already columns, else its rows packed."""
    return stream if isinstance(stream, IMissStream) else IMissStream(stream)


@dataclass(frozen=True)
class SweepPoint:
    """Result of replaying the I-miss stream against one configuration."""

    size_bytes: int
    associativity: int
    os_misses: int
    os_inval_misses: int
    app_misses: int

    @property
    def total_misses(self) -> int:
        return self.os_misses + self.app_misses


def simulate_icache_config(
    stream: Iterable[StreamEntry],
    num_cpus: int,
    size_bytes: int,
    associativity: int = 1,
    block_bytes: int = 16,
) -> SweepPoint:
    """Replay the miss stream through one I-cache configuration."""
    geometry = CacheGeometry(size_bytes, block_bytes, associativity)
    caches = [Cache(geometry) for _ in range(num_cpus)]
    invalidated: List[set] = [set() for _ in range(num_cpus)]
    os_misses = 0
    os_inval = 0
    app_misses = 0
    for cpu, block, is_os, in_window in zip(*as_imiss_stream(stream).columns()):
        if cpu == FLUSH_CPU:
            for i, cache in enumerate(caches):
                invalidated[i].update(cache.invalidate_all())
            continue
        cache = caches[cpu]
        if cache.lookup(block):
            cache.access(block)  # LRU refresh; a hit in the bigger cache
            continue
        cache.access(block)
        if not in_window:
            invalidated[cpu].discard(block)
            continue
        if is_os:
            os_misses += 1
            if block in invalidated[cpu]:
                os_inval += 1
        else:
            app_misses += 1
        invalidated[cpu].discard(block)
    return SweepPoint(size_bytes, associativity, os_misses, os_inval, app_misses)


def sweep_configs(
    sizes: Iterable[int],
    associativities: Iterable[int],
) -> List[Tuple[int, int]]:
    """The derivable ``(size_bytes, associativity)`` grid, in sweep order.

    A two-way cache of the base size (64 KB) cannot be simulated from the
    miss stream of a direct-mapped 64 KB cache (the paper notes the same
    limitation), so that point is skipped. Single-sourced so the serial
    and sharded sweeps can never disagree about coverage.
    """
    base_size = 64 * 1024
    return [
        (size, assoc)
        for assoc in associativities
        for size in sizes
        if not (assoc > 1 and size <= base_size)
    ]


def simulate_icache_sweep(
    stream: Iterable[StreamEntry],
    num_cpus: int,
    sizes: Iterable[int] = (64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024,
                            1024 * 1024),
    associativities: Iterable[int] = (1, 2),
    block_bytes: int = 16,
) -> List[SweepPoint]:
    """The Figure 6 grid (see :func:`sweep_configs` for the skip rule)."""
    stream = as_imiss_stream(stream)
    return [
        simulate_icache_config(stream, num_cpus, size, assoc, block_bytes)
        for size, assoc in sweep_configs(sizes, associativities)
    ]
