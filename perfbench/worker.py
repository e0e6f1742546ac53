"""One benchmark phase in a fresh interpreter.

Usage: ``python3 perfbench/worker.py PHASE PARAMS_JSON OUT_JSON``, run
from the root of a checkout. ``run.py`` launches every phase in its own
process, so each timed phase starts cold (nothing imported, nothing in
memory) and reports its own peak RSS. Phases:

- ``import``: import what ``cold`` imports, and nothing else;
- ``cold``: one cold ``ExperimentContext.report()`` over an empty cache
  directory, then fresh contexts loading the same run warm;
- ``seed``: fill a cache directory with a workload's run+report entries;
- ``serve``: start ``python -m repro.service`` over a copy of a filled
  cache and drive it with a closed loop of two connections: one cold
  build of each exhibit, then a fixed number of warm repeats.

``cold`` and ``seed`` take a ``trace`` parameter. With ``"spans"``,
spans wrap every layer boundary (see ``spans.py``) before anything
runs, and the phase finishes by replaying each of the workload's
exhibit builds in a fresh context. With ``"counts"``, only the memory
system's reference calls are counted. With ``None``, nothing is.

Imports, cold reports and warm loads are timed in wall time, in the
process's CPU time, and in CPU time scaled to a nominal host speed
(``calib.py``), the figure the end-to-end metrics gate. Imports always
carry the speed probes; a ``cold`` phase's reports carry them only with
``probe`` set (never in a traced run), and are otherwise unscaled.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import resource
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from calib import HostSpeed
from spans import Tracer, install, install_counters, span_cost

_clock = time.perf_counter
_cpu = time.process_time

# Per workload: the runs it simulates, their RunSettings overrides, and
# the exhibits it serves. serve-warm's short horizon keeps seeding
# affordable, and its exhibits derive only from its three runs, so
# serving them simulates nothing; the heaviest build goes first, so the
# two connections finish close together. The cold workloads serve one
# exhibit in their traced run only, so that the derivation and service
# layers report on every workload: figure3 derives from the pmake run
# alone, and table3 (the paper's own numbers) from no run at all.
WORKLOADS = {
    "pmake-cold": (("pmake",), {}, ("figure3",)),
    "kv-mixed": (("kv",), {"fidelity": "mixed", "warmup_ms": 2000.0},
                 ("table3",)),
    "serve-warm": (
        ("pmake", "multpgm", "oracle"),
        {"horizon_ms": 20.0, "warmup_ms": 125.0},
        ("figure6", "table1", "table2", "figure4", "table9", "figure3",
         "table7", "table12"),
    ),
}
SERVICE_FLAGS = {
    "horizon_ms": "--horizon-ms", "warmup_ms": "--warmup-ms",
    "fidelity": "--fidelity",
}
WARM_LOADS = 4
SERVE_JOBS = 2
POLL_S = 0.002
HTTP_TIMEOUT_S = 120.0


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _run_entries(cache_dir) -> list:
    return sorted(p.name for p in Path(cache_dir).glob("run-*.pkl"))


def _entries_mb(cache_dir) -> float:
    return sum(
        (Path(cache_dir) / name).stat().st_size for name in _run_entries(cache_dir)
    ) / 1e6


def _run_facts(run) -> dict:
    """Exact, deterministic counts of one simulated run."""
    locks = run.kernel.locks.all_locks()
    return {
        "refs_retired": sum(p.refs_retired for p in run.processors),
        "atomic_refs": run.memsys.atomic_refs,
        "bus_transactions": run.memsys.total_bus_transactions(),
        "trace_entries": len(run.trace),
        "os_invocations": run.kernel.os_invocations,
        "lock_acquires": sum(lock.stats.acquires for lock in locks),
        "lock_failed": sum(lock.stats.failed_acquires for lock in locks),
    }


def _table1_row(report) -> list:
    return [
        report.user_pct, report.sys_pct, report.idle_pct,
        report.os_miss_fraction_pct, report.total_stall_pct,
        report.os_stall_pct, report.os_plus_induced_stall_pct,
    ]


def _tracer(mode):
    if mode is None:
        return None
    tracer = Tracer()
    {"spans": install, "counts": install_counters}[mode](tracer)
    return tracer


def _settings(params: dict):
    from repro.experiments._base import RunSettings

    return RunSettings(seed=params["seed"], **WORKLOADS[params["workload"]][1])


def _replay(tracer, settings, cache_dir, exhibits) -> list:
    """Each exhibit build once more, traced, in a fresh context that
    loads runs from ``cache_dir`` but neither reads nor writes exhibits."""
    from repro.experiments._base import ExperimentContext
    import repro.experiments.registry as registry
    from repro.sim.runcache import RunCache

    builds = []
    for exhibit_id in exhibits:
        tracer.reset()
        ctx = ExperimentContext(settings, cache=RunCache(cache_dir))
        ctx.cache_exhibits = False
        registry.run_experiment(exhibit_id, ctx)
        builds.append(tracer.snapshot())
    return builds


# ----------------------------------------------------------------------
# cold: cold report, then warm loads in fresh contexts
# ----------------------------------------------------------------------
def _timed(speed, fn) -> tuple:
    """``fn()``'s value and its wall, CPU and scaled seconds; the scaled
    seconds are ``None`` without ``speed``."""
    if speed is not None:
        return speed.measure(fn)
    t0, c0 = _clock(), _cpu()
    value = fn()
    return value, _clock() - t0, _cpu() - c0, None


def _imports() -> None:
    import repro.experiments._base  # noqa: F401
    import repro.experiments.paperdata  # noqa: F401
    import repro.sim.runcache  # noqa: F401


def _import_times() -> dict:
    """CPU and scaled seconds to import what a cold phase needs, in a
    fresh interpreter."""
    _value, _wall, cpu_s, scaled_s = HostSpeed().measure(_imports)
    return {"import_cpu_s": cpu_s, "import_scaled_s": scaled_s}


def phase_import(_params: dict) -> dict:
    return _import_times()


def phase_cold(params: dict) -> dict:
    imports = _import_times()
    from repro.experiments._base import ExperimentContext
    from repro.experiments.paperdata import TABLE1
    from repro.sim.runcache import RunCache

    tracer = _tracer(params["trace"])
    speed = HostSpeed() if params["probe"] else None
    (workload,), _overrides, exhibits = WORKLOADS[params["workload"]]
    settings = _settings(params)
    cache_dir = params["cache_dir"]

    ctx = ExperimentContext(settings, cache=RunCache(cache_dir))
    report, run_s, run_cpu_s, run_scaled_s = _timed(
        speed, lambda: ctx.report(workload))
    probe_s = speed.probe_s() if speed else None
    cold_spans = tracer.snapshot() if tracer else None
    facts = _run_facts(ctx.run(workload))
    row = _table1_row(report)
    entry_mb = _entries_mb(cache_dir)
    del ctx, report
    gc.collect()

    # Several warm loads, each in a fresh context: one is short enough
    # for a single stall on the host to skew it.
    warm_s, warm_cpu_s, warm_scaled_s = [], [], []
    warm_ok = True
    for _ in range(WARM_LOADS):
        if tracer:
            tracer.reset()
        # Free the previous load's run and report before the clock
        # starts, not while the next report is being assigned.
        warm = warm_report = None
        gc.collect()
        warm_cache = RunCache(cache_dir)
        warm = ExperimentContext(settings, cache=warm_cache)
        warm_report, wall_s, cpu_s, scaled_s = _timed(
            speed, lambda: warm.report(workload))
        warm_s.append(wall_s)
        warm_cpu_s.append(cpu_s)
        warm_scaled_s.append(scaled_s)
        warm_ok = (warm_ok and warm_cache.hits == 1 and warm_cache.misses == 0
                   and _table1_row(warm_report) == row)
        warm_spans = tracer.snapshot() if tracer else None
    out = {
        **imports,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "run_scaled_s": run_scaled_s,
        "probe_s": probe_s,
        "warm_s": warm_s,
        "warm_cpu_s": warm_cpu_s,
        "warm_scaled_s": warm_scaled_s,
        "facts": facts,
        "warm_facts": _run_facts(warm.run(workload)),
        "warm_ok": warm_ok,
        "entry_mb": entry_mb,
        "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
        "cold_spans": cold_spans,
        "warm_spans": warm_spans,
    }
    if workload in TABLE1:
        paper = TABLE1[workload]
        out["table1_err_pp"] = sum(
            abs(m - p) for m, p in zip(row, paper)
        ) / len(paper)
    if params["trace"] == "spans":
        del warm, warm_report
        gc.collect()
        out["builds"] = _replay(tracer, settings, cache_dir, exhibits)
        out["span_cost_s"] = span_cost()
    return out


# ----------------------------------------------------------------------
# seed: fill a cache with the workload's run+report entries
# ----------------------------------------------------------------------
def phase_seed(params: dict) -> dict:
    from repro.experiments._base import ExperimentContext
    from repro.sim.runcache import RunCache

    tracer = _tracer(params["trace"])
    runs, _overrides, exhibits = WORKLOADS[params["workload"]]
    settings = _settings(params)
    cache_dir = params["cache_dir"]
    ctx = ExperimentContext(settings, cache=RunCache(cache_dir))
    t0, c0 = _clock(), _cpu()
    for workload in runs:
        ctx.report(workload)
    seed_s, seed_cpu_s = _clock() - t0, _cpu() - c0
    out = {
        "seed_s": seed_s,
        "seed_cpu_s": seed_cpu_s,
        "facts": {w: _run_facts(ctx.run(w)) for w in runs},
        "entry_mb": _entries_mb(cache_dir),
        "spans": tracer.snapshot() if tracer else None,
    }
    if params["trace"] == "spans":
        del ctx
        gc.collect()
        before = _run_entries(cache_dir)
        out["builds"] = _replay(tracer, settings, cache_dir, exhibits)
        out["replay_new_runs"] = len(_run_entries(cache_dir)) - len(before)
        out["span_cost_s"] = span_cost()
    return out


# ----------------------------------------------------------------------
# serve: the service over a filled cache, driven by a closed loop
# ----------------------------------------------------------------------
def _get(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.getheader("Location"), resp.read()
    finally:
        conn.close()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _closed_loop(work, clients: int = 2) -> tuple:
    """Run ``work(client_index)`` on ``clients`` threads, each sending
    its next request only after the last one completed."""
    results = [[] for _ in range(clients)]
    errors = []

    def client(index):
        try:
            results[index] = work(index)
        except Exception as exc:  # reported as a failed operation
            errors.append(repr(exc))

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [item for part in results for item in part], errors


def _cold_builds(port: int, exhibits) -> tuple:
    pending = list(exhibits)
    lock = threading.Lock()

    def work(_index):
        done = []
        while True:
            with lock:
                if not pending:
                    return done
                exhibit_id = pending.pop(0)
            t0 = _clock()
            status, location, _body = _get(port, f"/exhibits/{exhibit_id}")
            build = {"exhibit": exhibit_id, "ok": status == 202 and bool(location)}
            job = None
            while build["ok"]:
                status, _loc, body = _get(port, location)
                job = json.loads(body)
                if job["state"] == "done":
                    break
                if status != 200 or job["state"] in ("failed", "timeout", "cancelled"):
                    build["ok"] = False
                    break
                time.sleep(POLL_S)
            if build["ok"]:
                status, _loc, body = _get(port, f"/exhibits/{exhibit_id}")
                build["ok"] = status == 200
                build["body"] = body.decode()
            build["latency_s"] = _clock() - t0
            build["job"] = job
            done.append(build)

    return _closed_loop(work)


def _warm_hits(port: int, bodies: dict, hits: int) -> tuple:
    ids = sorted(bodies)

    def work(index):
        out = []
        for i in range(index, hits, 2):
            exhibit_id = ids[i % len(ids)]
            t0 = _clock()
            status, _loc, body = _get(port, f"/exhibits/{exhibit_id}")
            latency = _clock() - t0
            out.append((latency, status == 200 and body.decode() == bodies[exhibit_id]))
        return out

    return _closed_loop(work) if ids else ([], [])


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # any orphaned build worker
    except ProcessLookupError:
        pass
    proc.wait()


def phase_serve(params: dict) -> dict:
    seed = params["seed"]
    _runs, overrides, exhibits = WORKLOADS[params["workload"]]
    cache_dir = params["cache_dir"]
    shutil.copytree(params["template_dir"], cache_dir)
    runs_before = _run_entries(cache_dir)
    port = _free_port()
    cmd = [
        sys.executable, "-m", "repro.service", "--port", str(port),
        "--jobs", str(SERVE_JOBS), "--cache-dir", cache_dir, "--seed", str(seed),
    ]
    for key, value in overrides.items():
        cmd += [SERVICE_FLAGS[key], str(value)]
    log = open(Path(cache_dir).parent / f"service-{port}.log", "wb")
    t0 = _clock()
    proc = subprocess.Popen(
        cmd, stdout=log, stderr=subprocess.STDOUT, start_new_session=True
    )
    try:
        deadline = t0 + 60.0
        while True:
            try:
                if _get(port, "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            if proc.poll() is not None or _clock() > deadline:
                raise RuntimeError("service did not start; see " + log.name)
            time.sleep(0.02)
        start_s = _clock() - t0
        builds, build_errors = _cold_builds(port, exhibits)
        bodies = {b["exhibit"]: b["body"] for b in builds if b["ok"]}
        hits, hit_errors = _warm_hits(port, bodies, params["hits"])
        new_runs = len(_run_entries(cache_dir)) - len(runs_before)
    finally:
        _stop(proc)
        log.close()
    rss_mb = _rss_mb(resource.RUSAGE_CHILDREN)

    # Served bytes must equal the library's bytes over the same cache.
    from repro import api
    from repro.sim.runcache import RunCache

    for build in builds:
        if build["ok"]:
            expected = api.exhibit(
                build["exhibit"], cache=RunCache(cache_dir), seed=seed,
                **overrides,
            ).to_json() + "\n"
            build["matches_api"] = build["body"] == expected
        build.pop("body", None)
    return {
        "start_s": start_s,
        "builds": builds,
        "hits": hits,
        "errors": build_errors + hit_errors,
        "new_runs": new_runs,
        "peak_rss_mb": rss_mb,
    }


PHASES = {
    "import": phase_import, "cold": phase_cold, "seed": phase_seed,
    "serve": phase_serve,
}


def main(argv) -> int:
    phase, params, out_path = argv[1], json.loads(argv[2]), argv[3]
    # run.py stops an overdue phase with SIGTERM; unwind so the finally
    # blocks stop any service this phase started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    sys.path.insert(0, str(Path.cwd() / "src"))
    result = PHASES[phase](params)
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
