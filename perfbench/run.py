#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the program is imported from
``src/`` next to this directory, and nothing is installed.  The inputs
come from ``--seed``.  One run is one process, single-threaded: BLAS
threads are pinned to 1 before NumPy loads.

A run first executes one *warm-up* episode with the span wrappers of
:mod:`spans` installed.  It is not timed; its counter fingerprint is the
reference every later episode of the run must repeat, and it shows which
dispatch loop every block went through.  Then, for ``--seconds``:

* ``--trace 0`` repeats untraced episodes and reports the end-to-end
  metrics: operations per second, median and p99 operation latency,
  simulated seconds per episode, peak resident memory, and set-up time
  (the median of five fresh processes that each import ``repro``,
  generate the inputs and construct the sessions).
* ``--trace 1`` alternates an untraced and a traced episode and reports
  the per-layer profile of the traced ones, with the tracing overhead
  measured against their untraced neighbours.  The first traced
  episode's spans are written as a Chrome trace to
  ``perfbench/out/trace-<workload>-<seed>.json``.

Every operation's output is checked against a NumPy reference.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 0 only when every output matched and
every fingerprint agreed.  The fingerprint of each (workload, seed,
source tree) is also kept under ``perfbench/out/fingerprints`` and
compared across runs.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402 - BLAS threads must be pinned first
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: the keys of ``suite.WORKLOADS``, listed here so that parsing the
#: arguments does not import the program (a set-up probe times that).
WORKLOAD_NAMES = ("hyperparam_evict", "pnmf_spark", "gpu_wordscore",
                  "tenant_server")
SETUP_PROBES = 5

#: counters every episode of one seed must repeat exactly.
FINGERPRINT_COUNTERS = (
    "runtime/instructions_executed",
    "runtime/instructions_skipped",
    "cache/hits",
    "cache/evictions",
    "spark/jobs",
    "gpu/cuda_mallocs",
    "server/cross_session_hits",
)

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("sim_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _import_program():
    """Import the workloads (and with them ``repro``) from this checkout."""
    sys.path.insert(0, SRC)
    import suite
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != \
            os.path.join(SRC, "repro"):
        raise ImportError(f"repro was imported from {repro.__file__}, "
                          f"not from {SRC}")
    return suite


# ------------------------------------------------------------------ set-up

def setup_probe(workload: str, seed: int) -> float:
    """Host seconds to import repro, generate inputs and build sessions,
    at reference speed (calibrated right after)."""
    start = time.perf_counter()
    suite = _import_program()
    wl = suite.WORKLOADS[workload]
    wl.build(wl.generate(seed))
    elapsed = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    import calibrate

    return elapsed * calibrate.speed_ratio(
        calibrate.passes(), calibrate.passes(), usage.ru_utime,
        usage.ru_stime)


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes, run one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


# ---------------------------------------------------------------- episodes

class Result:
    """One episode: its outputs' verdict, counters and host timings.

    Only numbers are kept: the episode's sessions are dropped here and
    collected before the next episode starts, so no episode pays for
    freeing another one's heap.  Host times are at reference speed
    (:mod:`calibrate`), from calibration passes just before and after.
    """

    def __init__(self, suite, wl, inputs, rec) -> None:
        import calibrate
        import repro.runtime.dispatch as dispatch

        gc.collect()
        before = calibrate.passes()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        state = wl.build(inputs)
        built = time.perf_counter()
        ep = wl.run(state, inputs, rec)
        end = time.perf_counter()
        used = resource.getrusage(resource.RUSAGE_SELF)
        #: measured speed over reference speed around this episode.
        self.speed = calibrate.speed_ratio(
            before, calibrate.passes(), used.ru_utime - usage.ru_utime,
            used.ru_stime - usage.ru_stime)
        #: host seconds of set-up plus operations (what tracing is
        #: measured against); ``ops_s`` excludes the set-up.
        self.total_s = (end - start) * self.speed
        self.ops_s = (end - built) * self.speed
        self.latencies = [t * self.speed for t in ep.latencies]
        self.queue_waits = [t * self.speed for t in ep.queue_waits]
        self.sim_s = ep.sim_s
        self.attempted = len(ep.outputs)
        self.failed = ep.failed + wl.check(inputs, ep)
        self.counters = suite.episode_counters(ep)
        # loop selection is a pure function of each session's tracer,
        # metrics and fault flags: every session must get run_fast
        self.fast_path = all(
            dispatch.select_loop(s.interpreter) is dispatch.run_fast
            for s in ep.sessions)
        self.fingerprint = {"sim_s": repr(ep.sim_s)}
        for name in FINGERPRINT_COUNTERS:
            self.fingerprint[name] = self.counters.get(name, 0)


def _score_calls(rec) -> int:
    return sum(n for name, n in rec.calls.items()
               if name.endswith((".score", ".score_pointer")))


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def _source_digest() -> str:
    """Digest of the program and benchmark sources (fingerprint key)."""
    digest = hashlib.sha256()
    for base in (os.path.join(SRC, "repro"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()[:16]


def _stored_fingerprint_agrees(workload: str, seed: int,
                               fingerprint: dict) -> bool:
    """Compare with (or record) the fingerprint of an earlier run."""
    folder = os.path.join(OUT, "fingerprints")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder,
                        f"{workload}-{seed}-{_source_digest()}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh) == fingerprint
    with open(path, "w") as fh:
        json.dump(fingerprint, fh, sort_keys=True)
    return True


# ------------------------------------------------------------------ layers

def layer_metrics(traced: list, ratios: list) -> dict:
    """The per-layer profile from the traced episodes.

    ``traced`` holds ``(result, snapshot)`` per traced episode, where the
    snapshot copies the recorder's tallies.  Counts are per episode
    (every episode of a seed does the same work); ``*.self_s`` is the
    mean self time per episode at reference speed and ``*.share`` its
    fraction of the traced episodes' host time.
    """
    import spans

    first, snap = traced[0]
    calls, notes, c = snap["calls"], snap["notes"], first.counters
    total_s = sum(r.total_s for r, _ in traced)
    n = len(traced)
    out: dict[str, float] = {}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["core.session.setups"] = calls.get("Session.__init__", 0)
    out["core.session.setup_s"] = statistics.fmean(
        s["incl"].get("Session.__init__", 0) * r.speed
        for r, s in traced) / 1e9
    blocks = notes.get("compiler.blocks", 0)
    out["compiler.blocks"] = blocks
    out["compiler.hops_per_block"] = ratio(notes.get("compiler.hops", 0),
                                           blocks)
    out["runtime.instr"] = notes.get("runtime.instr", 0)
    out["runtime.instr_per_s"] = ratio(
        notes.get("runtime.instr", 0) * 1e9,
        snap["incl"].get("Interpreter.run", 0) * first.speed)
    interns = calls.get("LineageInterner.intern", 0)
    out["lineage.interns"] = interns
    out["lineage.intern_new_ratio"] = ratio(
        notes.get("lineage.interns_new", 0), interns)
    probes = c.get("cache/probes", 0)
    out["core.cache.probes"] = probes
    out["core.cache.hit_ratio"] = ratio(c.get("cache/hits", 0), probes)
    out["core.cache.puts"] = c.get("cache/puts", 0)
    out["core.cache.evictions"] = c.get("cache/evictions", 0)
    out["memory.select_victim_calls"] = calls.get(
        "MemoryArbiter.select_victim", 0)
    out["memory.victim_candidates"] = notes.get("memory.victim_candidates",
                                                0)
    out["memory.reserves"] = (calls.get("MemoryArbiter.reserve", 0)
                              + calls.get("MemoryArbiter.reserve_plan", 0))
    out["core.policies.score_calls"] = snap["score_calls"]
    out["backends.cpu.calls"] = sum(
        n_ for name, n_ in calls.items() if name.startswith("CpuBackend."))
    computes = calls.get("RDD.compute", 0)
    out["backends.spark.jobs"] = calls.get("SparkContext.run_job", 0)
    out["backends.spark.partition_computes"] = computes
    out["backends.spark.partition_recompute_ratio"] = ratio(
        notes.get("backends.spark.partition_recomputes", 0), computes)
    recycled = c.get("gpu/pointers_recycled", 0)
    out["backends.gpu.kernels"] = c.get("gpu/kernels_launched", 0)
    out["backends.gpu.allocs"] = calls.get("GpuMemoryManager.allocate", 0)
    out["backends.gpu.recycle_ratio"] = ratio(
        recycled, recycled + c.get("gpu/cuda_mallocs", 0))
    out["core.substrate.cross_session_hit_ratio"] = ratio(
        c.get("server/cross_session_hits", 0), probes)
    out["core.substrate.scoped_keys"] = c.get("server/session_scoped_keys",
                                              0)
    out["analysis.memplan.blocks"] = calls.get("SessionMemPlanner.plan", 0)
    out["server.steps"] = c.get("server/scheduler_steps", 0)
    out["server.admission_retries"] = c.get("server/backpressure_events", 0)
    waits = [w for r, _ in traced for w in r.queue_waits]
    out["server.queue_wait_p50_ms"] = (
        statistics.median(waits) * 1e3 if waits else 0.0)
    attributed = 0.0
    for layer in spans.LAYERS:
        self_s = sum(s["self"].get(layer, 0) * r.speed
                     for r, s in traced) / 1e9
        out[f"{layer}.self_s"] = self_s / n
        out[f"{layer}.share"] = self_s / total_s
        attributed += self_s
    out["trace.overhead_ratio"] = statistics.median(ratios)
    out["trace.unattributed_share"] = 1.0 - attributed / total_s
    return out


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


# -------------------------------------------------------------------- main

def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    suite = _import_program()
    import spans

    wl = suite.WORKLOADS[workload]
    inputs = wl.generate(seed)
    rec = spans.Recorder()
    origin = time.perf_counter_ns()

    def traced_episode(keep: bool):
        rec.reset(keep)
        spans.install(rec)
        try:
            result = Result(suite, wl, inputs, rec)
        finally:
            spans.uninstall()
        snapshot = {
            "calls": dict(rec.calls), "notes": dict(rec.notes),
            "self": dict(rec.self_ns), "incl": dict(rec.incl_ns),
            "score_calls": _score_calls(rec),
        }
        return result, snapshot

    # warm-up: traced, untimed; the reference for every later episode
    warm, warm_snap = traced_episode(keep=False)
    reference = dict(warm.fingerprint,
                     score_calls=warm_snap["score_calls"])
    calls = warm_snap["calls"]
    problems = []
    if not (calls.get("run_fast", 0) == calls.get("Interpreter.run", 0) > 0
            and not calls.get("run_instrumented", 0)
            and not calls.get("Interpreter._run_with_spills", 0)):
        problems.append(f"blocks not dispatched through run_fast: {calls}")
    if not _stored_fingerprint_agrees(workload, seed, reference):
        problems.append("fingerprint differs from an earlier run's")

    results = [warm]
    untraced, traced, ratios = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain = Result(suite, wl, inputs, None)
        untraced.append(plain)
        results.append(plain)
        if trace:
            result, snapshot = traced_episode(keep=not traced)
            if not traced:
                os.makedirs(OUT, exist_ok=True)
                spans.write_chrome_trace(
                    rec, origin,
                    os.path.join(OUT, f"trace-{workload}-{seed}.json"))
            if dict(result.fingerprint,
                    score_calls=snapshot["score_calls"]) != reference:
                problems.append("traced episode fingerprint differs")
            traced.append((result, snapshot))
            results.append(result)
            ratios.append(result.total_s / plain.total_s)
        if plain.fingerprint != warm.fingerprint:
            problems.append("untraced episode fingerprint differs")
        if time.perf_counter() >= deadline:
            break

    for result in results:
        if not result.fast_path:
            problems.append("a session would not dispatch through run_fast")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    speed = statistics.median(r.speed for r in results)
    print(f"machine speed over reference: median {speed:.3f} over "
          f"{len(results)} episodes", file=sys.stderr)
    if trace:
        values = layer_metrics(traced, ratios)
        values["host.speed_ratio"] = speed
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in values.items()}
    else:
        latencies = [x for r in untraced for x in r.latencies]
        values = {
            "ops_per_s": len(latencies) / sum(r.ops_s for r in untraced),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p99_ms": _percentile(latencies, 99) * 1e3,
            "sim_s": untraced[0].sim_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_seconds(workload, seed),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": failed == 0 and not problems,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time import + inputs + sessions "
                             "(used by the run itself)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
        return 0
    report = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
