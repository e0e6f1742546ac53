"""Host-speed sampling, to scale CPU times to a nominal host speed.

The benchmark's host is shared: other tenants slow a CPU by up to a
factor of two, for seconds to minutes at a time, and the slowdown shows
in a process's CPU time as well as in its wall time. :class:`HostSpeed`
measures how fast the CPU is while a block of code runs: a CPU-time
timer (``ITIMER_PROF``) interrupts the block every ``INTERVAL_S`` of
CPU time and times a fixed probe of about 2 ms, and bursts of probes run
just before and just after the block. The block's CPU time, less the
probes' own time, is then divided by the mean probe time and multiplied
by the probe's nominal time: the *scaled* time, in seconds, as on a host
where the probe takes ``PROBE_S``.

The probe does not allocate container objects, so it does not move the
garbage collector's counters, and it touches a few tens of kilobytes.
Python runs the signal handler between bytecodes, so a long call into C
(``pickle.load``) is sampled at its ends only; the bursts cover short
blocks. A probe is timed in wall time: inside the handler the process
CPU clock advances only in scheduler ticks.
"""

from __future__ import annotations

import signal
import time

PROBE_S = 0.0015  # nominal wall seconds of one probe
INTERVAL_S = 0.05  # CPU seconds between sampled probes
BURST = 10  # probes before and after a block
TRIM = 0.1  # share of probes dropped from each end of the sorted times

_clock = time.perf_counter
_KEYS = tuple(range(0, 40960, 10))
_TABLE = {k: k & 7 for k in range(0, 40960, 5)}


def probe() -> float:
    """Wall seconds of one fixed probe: dict lookups and integer work."""
    table, total = _TABLE, 0
    t0 = _clock()
    for _ in range(6):
        for key in _KEYS:
            total += table[key] * key % 7
    return _clock() - t0


def _trimmed_mean(values: list) -> float:
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


class HostSpeed:
    """Times a block of code and samples the host's speed while it runs."""

    def __init__(self) -> None:
        self.samples: list = []

    def _tick(self, *_args) -> None:
        self.samples.append(probe())

    def measure(self, fn):
        """Run ``fn()``; return its value, wall seconds, CPU seconds and
        scaled seconds. The probes inside the block count in its wall
        and CPU seconds, not in its scaled seconds."""
        self.samples = [probe() for _ in range(BURST)]
        before = len(self.samples)
        old = signal.signal(signal.SIGPROF, self._tick)
        t0, c0 = _clock(), time.process_time()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            wall_s, cpu_s = _clock() - t0, time.process_time() - c0
            signal.signal(signal.SIGPROF, old)
        inside = sum(self.samples[before:])
        self.samples += [probe() for _ in range(BURST)]
        scaled_s = (cpu_s - inside) * PROBE_S / _trimmed_mean(self.samples)
        return value, wall_s, cpu_s, scaled_s

    def probe_s(self) -> float:
        """The last block's mean probe time, as used for scaling."""
        return _trimmed_mean(self.samples)
