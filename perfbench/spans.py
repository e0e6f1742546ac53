"""Host-time spans around the simulator's layer boundaries.

The benchmark measures every layer from outside: :func:`install`
replaces public methods of ``repro`` classes and modules with wrappers
that open and close a span, so nothing inside ``src/repro`` changes.
Spans nest on one stack (the simulator is single-threaded inside a
process); each span's self time is its duration minus the time its
child spans cover.

:func:`install_counters` instead counts the calls into the memory
system's reference methods, without any span. Counting every reference
costs as much as the spans themselves, so the two run in separate
processes and the timed run carries no counter.

Install one of them once, at the start of a process that runs nothing
untraced.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Dict, List

_clock = time.perf_counter


class Tracer:
    """A span stack plus per-name totals, self times and call counts."""

    def __init__(self) -> None:
        self._stack: List[list] = []  # [name, start, child seconds]
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset() with open spans")
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()

    def enter(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = _clock() - start
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration
        # Totals count only the outermost span of a name, so a nested
        # kernel entry is not counted twice.
        if all(frame[0] != name for frame in self._stack):
            self.total[name] = self.total.get(name, 0.0) + duration

    def snapshot(self) -> dict:
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def _wrap(owner, attr: str, name: str, tracer: Tracer) -> None:
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            return orig(*args, **kwargs)
        finally:
            tracer.exit()

    setattr(owner, attr, traced)


def span_cost(calls: int = 200_000, rounds: int = 3) -> float:
    """Seconds one span adds to a call: a wrapped no-op method against
    the plain one, best of ``rounds``."""

    class Probe:
        def noop(self):
            pass

    probe = Probe()

    def timed() -> float:
        best = float("inf")
        for _ in range(rounds):
            t0 = _clock()
            for _ in range(calls):
                probe.noop()
            best = min(best, _clock() - t0)
        return best

    plain = timed()
    _wrap(Probe, "noop", "probe", Tracer())
    return max(0.0, timed() - plain) / calls


def _count_detailed_refs(cls, attr: str, tracer: Tracer) -> None:
    """Count calls made while the memory system runs detailed; atomic
    calls are already counted by ``MemorySystem.atomic_refs``."""
    orig = getattr(cls, attr)
    counts = tracer.counts

    @functools.wraps(orig)
    def counted(self, *args):
        if not self.atomic:
            counts["memsys.calls"] = counts.get("memsys.calls", 0) + 1
        return orig(self, *args)

    setattr(cls, attr, counted)


def install(tracer: Tracer) -> None:
    """Wrap each layer boundary the benchmark reports on."""
    import repro.analysis.report as report_mod
    import repro.experiments._base as base_mod
    import repro.experiments.registry as registry_mod
    from repro.kernel.kernel import Kernel
    from repro.monitor.master import MasterTracer
    from repro.sim._session import Simulation
    from repro.sim.runcache import RunCache
    from repro.sim.usermode import UserEngine

    _wrap(base_mod.ExperimentContext, "report", "report", tracer)
    _wrap(RunCache, "load", "runcache.load", tracer)
    _wrap(RunCache, "store", "runcache.store", tracer)
    _wrap(Simulation, "__init__", "sim.build", tracer)
    _wrap(Simulation, "run", "sim.run", tracer)
    _wrap(UserEngine, "run_slice", "usermode", tracer)
    _wrap(Kernel, "service_disk", "kernel.disk", tracer)
    _wrap(MasterTracer, "service", "monitor.master", tracer)
    _wrap(registry_mod, "run_experiment", "derive", tracer)
    # analyze_trace is looked up on its module by the run cache and
    # bound by name into the experiments base at import.
    _wrap(report_mod, "analyze_trace", "analysis", tracer)
    base_mod.analyze_trace = report_mod.analyze_trace

    os_invocation = Kernel.os_invocation

    @functools.wraps(os_invocation)
    @contextmanager
    def traced_os_invocation(self, *args, **kwargs):
        tracer.enter("kernel")
        try:
            with os_invocation(self, *args, **kwargs):
                yield
        finally:
            tracer.exit()

    Kernel.os_invocation = traced_os_invocation


def install_counters(tracer: Tracer) -> None:
    """Count the detailed calls into ``MemorySystem.ifetch/dread/dwrite``
    in ``tracer.counts["memsys.calls"]``."""
    from repro.memsys.system import MemorySystem

    for attr in ("ifetch", "dread", "dwrite"):
        _count_detailed_refs(MemorySystem, attr, tracer)
