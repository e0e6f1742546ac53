"""The repository benchmark: cold pmake, mixed-tier kv and warm serving.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pmake-cold --seed 7 --seconds 50 --trace 0

``--workload all`` (the default) runs every workload in turn;
``BENCHMARK.json`` gates ``pmake-cold`` and ``kv-mixed`` only. Each
workload prints its metrics by name and unit, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The gated times of the cold workloads are CPU times scaled to the
host's speed, sampled while they run (``calib.py``); their raw CPU and
wall times are printed beside them.
The traced mode counts the memory system's references in one run, then
runs the workload untraced and traced in turn and reports the median
difference as the tracing overhead. ``README.md`` beside
this file says what every metric means on every workload.

Every phase runs in a fresh interpreter (``worker.py``) with a fresh
cache directory under ``.perfbench/`` in the checkout, and with the
``REPRO_*`` settings scrubbed from its environment, so no state leaks
between repetitions, runs or the user's own cache.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("pmake-cold", "kv-mixed", "serve-warm")
DEFAULT_SEED = 7  # RunSettings().seed
# A cold repetition yields one cold report sample; a served one yields eight
# builds and HITS_PER_REP warm repeats. The host's speed drifts over
# seconds, so samples are spread across the run rather than bunched.
COLD_MIN_REPS = 3
SERVE_MIN_REPS = 3
HITS_PER_REP = 4000
# Every phase of one workload run must end within this, so that a run
# exits well inside its 180 s limit.
RUN_BUDGET_S = 170.0
SCRUBBED = (
    "REPRO_CACHE_DIR", "REPRO_NO_CACHE", "REPRO_CHECK", "REPRO_SHARDS",
    "REPRO_FIDELITY", "REPRO_FAST_FORWARD", "REPRO_MACHINE",
)
# Counts that a run's seed fixes exactly: equal across repetitions and
# between traced and untraced runs.
EXACT = ("bus_transactions", "trace_entries", "os_invocations",
         "refs_retired", "atomic_refs")
# The layers whose self times make up a cold report (see README.md).
ACCOUNTED = ("sim.build_s", "usermode.self_s", "kernel.self_s",
             "sim.loop_self_s", "analysis.s", "runcache.store_s")
# Spans that must lie inside the outermost span of a traced phase (a
# report, or a replayed build), and the most by which the time measured
# around that phase may exceed its outermost span.
NESTED = ("report", "sim.build", "sim.run", "analysis", "runcache.store",
          "runcache.load")
SPAN_SLACK = 0.01
# The traced mode's untraced/traced pairs: at least this many, and more
# while ``seconds`` have not been measured.
TRACE_MIN_PAIRS = 3

HERE = Path(__file__).resolve().parent
_clock = time.perf_counter


class PhaseFailed(RuntimeError):
    pass


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.mean(values) if values else 0.0


class Bench:
    """One workload run: its work area, environment and phase launcher."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = root / ".perfbench" / f"{workload}-s{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = {
            k: v for k, v in os.environ.items()
            if k not in SCRUBBED and not k.startswith("REPRO_BENCH_")
        }
        self.env["PYTHONPATH"] = str(root / "src")
        self.deadline = _clock() + RUN_BUDGET_S
        self._ids = itertools.count()

    def fresh_dir(self, name: str) -> Path:
        return self.work / f"{name}-{next(self._ids)}"

    def phase(self, name: str, **params) -> dict:
        out = self.work / f"{name}-{next(self._ids)}.json"
        params.update(workload=self.workload, seed=self.seed)
        cmd = [sys.executable, str(HERE / "worker.py"), name,
               json.dumps(params), str(out)]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdout=sys.stderr)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - _clock()))
        except subprocess.TimeoutExpired:
            raise PhaseFailed(f"{name} phase overran the run budget")
        finally:
            if proc.poll() is None:
                # SIGTERM lets the phase stop any service it started.
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        if code != 0 or not out.exists():
            raise PhaseFailed(f"{name} phase exited with code {code}")
        return json.loads(out.read_text())

    def repeat(self, rep, min_reps: int) -> list:
        """``rep()`` at least ``min_reps`` times, and more while one
        more (as long as the slowest so far) ends within ``seconds``;
        never one that would overrun the run budget."""
        reps, walls = [], []
        started = _clock()
        while len(reps) < min_reps or (
                _clock() + max(walls) - started <= self.seconds):
            if walls and _clock() + 1.5 * max(walls) > self.deadline:
                break
            t0 = _clock()
            reps.append(rep())
            walls.append(_clock() - t0)
        return reps

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class Tally:
    """Operations attempted and failed, plus the names of failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what not in self.problems:
                self.problems.append(what)

    def spans(self, spans: dict, outer: str, measured: float = None) -> None:
        """Every layer's span lies inside the phase's outermost span, the
        user-mode and kernel self times inside ``Simulation.run``, and
        the outermost span agrees with the time measured around it."""
        total, own = spans["total"], spans["self"]
        parent = total.get(outer, 0.0)
        broken = [f"{name} > {outer}" for name in NESTED
                  if name != outer and total.get(name, 0.0) > parent]
        if parent <= 0:
            broken.append(f"no {outer} span")
        if (own.get("usermode", 0.0) + own.get("kernel", 0.0)
                > total.get("sim.run", 0.0)):
            broken.append("usermode + kernel > sim.run")
        if measured is not None and not (
                parent <= measured <= parent * (1 + SPAN_SLACK) + 0.005):
            broken.append(f"{outer} span {parent:.4f} s, measured {measured:.4f} s")
        self.op(not broken, "spans do not nest: " + "; ".join(broken))


def _exact(facts: dict) -> dict:
    return {k: facts[k] for k in EXACT}


# ----------------------------------------------------------------------
# Shared phases
# ----------------------------------------------------------------------
def _cold_rep(bench: Bench, tally: Tally, trace=None, keep: bool = False,
              probe: bool = False):
    cache = bench.fresh_dir("cache")
    rep = bench.phase("cold", cache_dir=str(cache), trace=trace, probe=probe)
    if not keep:
        shutil.rmtree(cache, ignore_errors=True)
    tally.op(rep["warm_ok"] and rep["warm_facts"] == rep["facts"],
             "warm report differs from the cold report")
    if trace == "spans":
        tally.spans(rep["cold_spans"], "report", rep["run_s"])
        tally.spans(rep["warm_spans"], "report", rep["warm_s"][-1])
        for build in rep["builds"]:
            tally.spans(build, "derive")
    return rep, cache


def _seed(bench: Bench, tally: Tally, trace=None, keep: bool = True):
    cache = bench.fresh_dir("seeded")
    seeded = bench.phase("seed", cache_dir=str(cache), trace=trace)
    if not keep:
        shutil.rmtree(cache, ignore_errors=True)
    for facts in seeded["facts"].values():
        tally.op(facts["trace_entries"] > 0, "a seeded run traced nothing")
    if trace == "spans":
        tally.op(seeded["replay_new_runs"] == 0,
                 "an exhibit build simulated a new run")
        tally.spans(seeded["spans"], "report", seeded["seed_s"])
        for build in seeded["builds"]:
            tally.spans(build, "derive")
    return seeded, cache


def _serve_rep(bench: Bench, tally: Tally, template: Path, hits: int) -> dict:
    cache = bench.fresh_dir("served")
    rep = bench.phase("serve", template_dir=str(template),
                      cache_dir=str(cache), hits=hits)
    shutil.rmtree(cache, ignore_errors=True)
    for build in rep["builds"]:
        tally.op(build["ok"] and build.get("matches_api", False),
                 "a served exhibit differs from api.exhibit()")
    for _latency, ok in rep["hits"]:
        tally.op(ok, "a warm repeat failed or changed bytes")
    for error in rep["errors"]:
        tally.op(False, f"client error: {error}")
    tally.op(rep["new_runs"] == 0, "the timed phase simulated a new run")
    return rep


# ----------------------------------------------------------------------
# End-to-end (--trace 0)
# ----------------------------------------------------------------------
def cold_end_to_end(bench: Bench, tally: Tally):
    imports = []

    def one_rep():
        # One more import-only sample per repetition: set-up is short,
        # so it needs more samples than the reports do.
        imports.append(bench.phase("import")["import_scaled_s"])
        return _cold_rep(bench, tally, probe=True)[0]

    reps = bench.repeat(one_rep, COLD_MIN_REPS)
    for rep in reps:
        tally.op(_exact(rep["facts"]) == _exact(reps[0]["facts"]),
                 "exact counts differ between repetitions")
    refs = reps[0]["facts"]["refs_retired"]
    setup_s = _median(imports + [r["import_scaled_s"] for r in reps])
    cold_s = _median([r["run_scaled_s"] for r in reps])
    warm_s = _median([w for r in reps for w in r["warm_scaled_s"]])
    run_s = _median([r["run_s"] for r in reps])
    rss = _median([r["peak_rss_mb"] for r in reps])
    shown = [
        ("setup_s", setup_s, "s"),
        ("cold_scaled_s", cold_s, "s"),
        ("warm_scaled_ms", warm_s * 1e3, "ms"),
        ("host_probe_ms", 1e3 * _median([r["probe_s"] for r in reps]), "ms"),
        ("run_s", run_s, "s"),
        ("run_cpu_s", _median([r["run_cpu_s"] for r in reps]), "s"),
        ("sim_mrefs_per_s", refs / 1e6 / run_s, "Mref/s"),
        ("warm_load_s", _median([w for r in reps for w in r["warm_s"]]), "s"),
    ]
    if "table1_err_pp" in reps[0]:
        shown.append(("table1_err_pp", reps[0]["table1_err_pp"], "pp"))
    shown.append(("peak_rss_mb", rss, "MB"))
    metrics = {
        "setup_s": (setup_s, "s"),
        "cold_scaled_s": (cold_s, "s"),
        "warm_scaled_ms": (warm_s * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    note = (f"{len(reps)} repetitions, {refs} refs, "
            f"{reps[0]['facts']['trace_entries']} trace entries; "
            "run_s/run_cpu_s/run_scaled_s "
            + " ".join(f"{r['run_s']:.3f}/{r['run_cpu_s']:.3f}/"
                       f"{r['run_scaled_s']:.3f}" for r in reps)
            + "; warm_load_s/cpu/scaled "
            + " ".join(f"{w:.3f}/{c:.3f}/{k:.3f}" for r in reps
                       for w, c, k in zip(r["warm_s"], r["warm_cpu_s"],
                                          r["warm_scaled_s"])))
    return shown, metrics, note


def serve_end_to_end(bench: Bench, tally: Tally):
    seeded, template = _seed(bench, tally)
    reps = bench.repeat(
        lambda: _serve_rep(bench, tally, template, HITS_PER_REP), SERVE_MIN_REPS)
    builds = [b["latency_s"] for r in reps for b in r["builds"] if b["ok"]]
    hits = sorted(lat for r in reps for lat, ok in r["hits"] if ok)
    setup_s = seeded["seed_s"] + _median([r["start_s"] for r in reps])
    build_s = _median(builds)
    hit_ms = _median(hits) * 1e3
    rss = _median([r["peak_rss_mb"] for r in reps])
    shown = [
        ("setup_s", setup_s, "s"),
        ("exhibit_build_s", build_s, "s"),
        ("exhibit_hit_ms", hit_ms, "ms"),
    ]
    if len(hits) >= 1000:  # at least ten samples beyond the 99th percentile
        shown.append(("exhibit_hit_p99_ms", hits[int(0.99 * len(hits))] * 1e3, "ms"))
    shown.append(("peak_rss_mb", rss, "MB"))
    metrics = {
        "setup_s": (setup_s, "s"),
        "exhibit_build_s": (build_s, "s"),
        "exhibit_hit_ms": (hit_ms, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    note = (f"{len(reps)} repetitions, {len(builds)} builds, "
            f"{len(hits)} warm repeats; per-repetition p50 build_s "
            + " ".join(f"{_median([b['latency_s'] for b in r['builds']]):.3f}"
                       for r in reps)
            + ", hit_ms "
            + " ".join(f"{1e3 * _median([lat for lat, _ok in r['hits']]):.3f}"
                       for r in reps))
    return shown, metrics, note


# ----------------------------------------------------------------------
# Per layer (--trace 1)
# ----------------------------------------------------------------------
def _cold_view(rep: dict) -> dict:
    """What the per-layer metrics need from a ``cold`` phase."""
    return {
        "run_s": rep["run_s"],
        "cpu_s": rep["run_cpu_s"],
        "facts": rep["facts"],
        "exact": _exact(rep["facts"]),
        "spans": rep["cold_spans"],
        "load_s": (rep["warm_spans"] or {"total": {}})["total"].get(
            "runcache.load", 0.0),
        "entry_mb": rep["entry_mb"],
        "builds": rep.get("builds", []),
        "span_cost_s": rep.get("span_cost_s"),
    }


def _seed_view(seeded: dict) -> dict:
    """The same from a ``seed`` phase, its runs' counts summed; the
    run-cache load time is the mean per replayed build."""
    runs = list(seeded["facts"].values())
    builds = seeded.get("builds", [])
    return {
        "run_s": seeded["seed_s"],
        "cpu_s": seeded["seed_cpu_s"],
        "facts": {k: sum(f[k] for f in runs) for k in runs[0]},
        "exact": {w: _exact(f) for w, f in seeded["facts"].items()},
        "spans": seeded["spans"],
        "load_s": _mean([b["total"].get("runcache.load", 0.0) for b in builds]),
        "entry_mb": seeded["entry_mb"],
        "builds": builds,
        "span_cost_s": seeded.get("span_cost_s"),
    }


def _layers(view: dict, refs: int) -> dict:
    """Per-layer figures from one traced phase; ``refs`` is
    ``memsys.refs`` from the counted phase."""
    spans, facts, builds = view["spans"], view["facts"], view["builds"]
    total, own = spans["total"], spans["self"]
    sim_run = total.get("sim.run", 0.0)
    analysis = total.get("analysis", 0.0)
    loads = [b["total"].get("runcache.load", 0.0) for b in builds]
    layers = {
        "sim.build_s": (total.get("sim.build", 0.0), "s"),
        "sim.run_s": (sim_run, "s"),
        "sim.mrefs_per_s": (refs / 1e6 / sim_run, "Mref/s"),
        "sim.loop_self_s": (own.get("sim.run", 0.0), "s"),
        "usermode.self_s": (own.get("usermode", 0.0), "s"),
        "usermode.slices": (spans["calls"].get("usermode", 0), "count"),
        "kernel.self_s": (own.get("kernel", 0.0), "s"),
        "kernel.disk_s": (total.get("kernel.disk", 0.0), "s"),
        "kernel.os_invocations": (facts["os_invocations"], "count"),
        "kernel.lock_acquires": (facts["lock_acquires"], "count"),
        "kernel.lock_failed_pct": (
            100.0 * facts["lock_failed"] / facts["lock_acquires"], "%"),
        "memsys.refs": (refs, "count"),
        "memsys.atomic_refs": (facts["atomic_refs"], "count"),
        "memsys.bus_transactions": (facts["bus_transactions"], "count"),
        "memsys.bus_per_kref": (1e3 * facts["bus_transactions"] / refs, "1/kref"),
        "monitor.trace_entries": (facts["trace_entries"], "count"),
        "monitor.master_s": (total.get("monitor.master", 0.0), "s"),
        "analysis.s": (analysis, "s"),
        "analysis.entries_per_s": (facts["trace_entries"] / analysis, "1/s"),
        "runcache.store_s": (total.get("runcache.store", 0.0), "s"),
        "runcache.load_s": (view["load_s"], "s"),
        "runcache.entry_mb": (view["entry_mb"], "MB"),
        "fidelity.atomic_frac": (facts["atomic_refs"] / refs, "ratio"),
        "derive.s": (_mean([b["total"]["derive"] - load
                            for b, load in zip(builds, loads)]), "s"),
        "derive.runs_loaded": (_mean([b["calls"].get("runcache.load", 0)
                                      for b in builds]), "count"),
        "trace.run_s": (view["run_s"], "s"),
    }
    accounted = sum(layers[name][0] for name in ACCOUNTED)
    layers["trace.unaccounted_s"] = (view["run_s"] - accounted, "s")
    layers["trace.span_cost_s"] = (
        sum(spans["calls"].values()) * view["span_cost_s"], "s")
    return layers


def _service_layers(served: dict) -> dict:
    """Service figures from the ``/jobs/<id>`` timestamps of the builds
    of one served repetition."""
    jobs = [(b["latency_s"], b["job"]) for b in served["builds"] if b["ok"]]
    return {
        "service.queue_wait_s": (_mean([j["started_at"] - j["created_at"]
                                        for _lat, j in jobs]), "s"),
        "service.job_s": (_mean([j["finished_at"] - j["started_at"]
                                 for _lat, j in jobs]), "s"),
        "service.overhead_ms": (1e3 * _mean([
            lat - (j["finished_at"] - j["created_at"]) for lat, j in jobs]), "ms"),
    }


def per_layer(bench: Bench, tally: Tally, rep, view):
    """One counted repetition, whose cache then serves the workload's
    builds once; then untraced and traced repetitions in turn.

    The counted repetition gives ``memsys.refs`` without slowing the
    timed spans. Each time is the median over the traced repetitions,
    and ``trace.overhead_s`` the median over the pairs of traced minus
    untraced CPU time of the report."""
    counted, cache = rep("counts", True)
    served = _serve_rep(bench, tally, cache, hits=0)
    shutil.rmtree(cache, ignore_errors=True)
    base = view(counted)
    refs = (base["spans"]["counts"].get("memsys.calls", 0)
            + base["facts"]["atomic_refs"])
    pairs = bench.repeat(
        lambda: (view(rep(None, False)[0]), view(rep("spans", False)[0])),
        TRACE_MIN_PAIRS)
    for pair in pairs:
        for other in pair:
            tally.op(other["exact"] == base["exact"],
                     "exact counts differ between traced and untraced runs")
    per_rep = [_layers(traced, refs) for _untraced, traced in pairs]
    # Counts are equal in every repetition; median_low keeps them whole.
    layers = {
        name: ((statistics.median_low if unit == "count" else _median)(
            [rep_layers[name][0] for rep_layers in per_rep]), unit)
        for name, (_value, unit) in per_rep[0].items()
    }
    layers.update(_service_layers(served))
    overheads = [traced["cpu_s"] - untraced["cpu_s"] for untraced, traced in pairs]
    layers["trace.overhead_s"] = (_median(overheads), "s")
    layers["trace.pairs"] = (len(pairs), "count")
    note = (f"1 counted repetition ({refs} refs), {len(pairs)} untraced/traced "
            f"pairs, 1 served repetition; overhead_s (CPU) "
            + " ".join(f"{o:.3f}" for o in overheads))
    return layers, note


def cold_per_layer(bench: Bench, tally: Tally):
    return per_layer(bench, tally,
                     lambda trace, keep: _cold_rep(bench, tally, trace, keep),
                     _cold_view)


def serve_per_layer(bench: Bench, tally: Tally):
    return per_layer(bench, tally,
                     lambda trace, keep: _seed(bench, tally, trace, keep),
                     _seed_view)


RUNNERS = {
    "pmake-cold": (cold_end_to_end, cold_per_layer),
    "kv-mixed": (cold_end_to_end, cold_per_layer),
    "serve-warm": (serve_end_to_end, serve_per_layer),
}


def run_workload(root: Path, workload: str, seed: int, seconds: int,
                 trace: bool) -> dict:
    bench = Bench(root, workload, seed, seconds)
    tally = Tally()
    try:
        end_to_end, per_layer = RUNNERS[workload]
        if trace:
            metrics, note = per_layer(bench, tally)
            shown = [(name, value, unit) for name, (value, unit) in metrics.items()]
        else:
            shown, metrics, note = end_to_end(bench, tally)
    finally:
        bench.close()
    print(f"{workload} seed={seed} trace={int(trace)}: {note}")
    for name, value, unit in shown:
        print(f"  {name:26s} {value:14.6g} {unit}")
    for problem in tally.problems:
        print(f"  FAILED CHECK: {problem}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=50,
                        help="measure at least this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM, so the running phase is stopped and the work
    # area removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from a checkout",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        try:
            result = run_workload(root, workload, args.seed, args.seconds,
                                  bool(args.trace))
        except PhaseFailed as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
