"""Host-time spans around the program's public entry points.

The benchmark profiles the program from the outside: :func:`install`
replaces a fixed list of methods and module-level functions of
``repro`` with wrappers that time each call on ``perf_counter_ns``, and
:func:`uninstall` puts the originals back.  Install happens before any
``Session`` of a traced episode exists, so every bound-method lookup the
program makes while the episode runs goes through a wrapper.

Each wrapped call is a span of one *layer* (a ``repro`` module name, see
:data:`LAYERS`).  A span's self time is its duration minus the time of
the wrapped calls made inside it; the recorder sums self time per layer
as spans close, so the per-layer profile never needs the span list.
Spans are also kept in memory (name, layer, start, end, parent span, op
id) for one episode and written out as a Chrome trace on host time.

A few entry points are called once per cache candidate or per traced
instruction (the eviction policy's ``score``, the interner's ``intern``
and the substrate's key ``namespaced``): hundreds of thousands of calls
in one eviction-heavy episode.  They are timed and counted like every
other span but not kept, so the trace file and the recorder's memory
stay bounded.  None of them calls a kept span, so every kept span's
parent is kept too.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Optional

_now = time.perf_counter_ns

#: every layer the profile reports, in report order.
LAYERS = (
    "core.session",
    "compiler",
    "runtime",
    "lineage",
    "core.cache",
    "memory",
    "core.policies",
    "backends.cpu",
    "backends.spark",
    "backends.gpu",
    "core.substrate",
    "analysis.memplan",
    "server",
)


class Recorder:
    """Per-layer self time, per-entry-point counts, and kept spans."""

    def __init__(self) -> None:
        #: open spans, innermost last: ``[span id, child ns]``.
        self.stack: list[list[int]] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: counts noted by individual wrappers (hops, candidates, ...).
        self.notes: dict[str, int] = defaultdict(int)
        #: kept spans: (id, name, layer, start ns, end ns, parent id, op).
        self.spans: list[tuple] = []
        self.keep = False
        #: the workload operation the running code belongs to.
        self.op: Optional[int] = None
        self._ids = 0
        #: (rdd id, partition) pairs computed so far this episode.
        self.partitions_seen: set = set()

    def reset(self, keep: bool) -> None:
        """Start a new episode; ``keep`` retains its spans.

        The stack is cleared in place: the wrappers hold a reference.
        """
        self.stack.clear()
        self.self_ns.clear()
        self.incl_ns.clear()
        self.calls.clear()
        self.notes.clear()
        self.spans = []
        self.partitions_seen = set()
        self.keep = keep
        self.op = None


def _span(rec: Recorder, name: str, layer: str, fn: Callable,
          keep: bool, note: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` as a span of ``layer``; ``note(args, result)`` counts."""
    stack = rec.stack

    def wrapper(*args, **kwargs):
        rec._ids += 1
        span_id = rec._ids
        parent = stack[-1][0] if stack else 0
        frame = [span_id, 0]
        stack.append(frame)
        start = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            dur = end - start
            rec.self_ns[layer] += dur - frame[1]
            rec.incl_ns[name] += dur
            rec.calls[name] += 1
            if stack:
                stack[-1][1] += dur
            if keep and rec.keep:
                rec.spans.append(
                    (span_id, name, layer, start, end, parent, rec.op)
                )
        if note is not None:
            note(args, result)
        return result

    return wrapper


# ---------------------------------------------------------------- targets

def _targets(rec: Recorder) -> list[tuple]:
    """(owner, attribute, span name, layer, keep, note) per entry point."""
    import repro.core.session as session_mod
    import repro.runtime.dispatch as dispatch
    from repro.analysis.memplan import SessionMemPlanner
    from repro.backends.cpu.backend import CpuBackend
    from repro.backends.gpu.backend import GpuBackend
    from repro.backends.gpu.memmanager import GpuMemoryManager
    from repro.backends.spark.context import SparkContext
    from repro.backends.spark.rdd import RDD
    from repro.core import policies
    from repro.core.cache import LineageCache
    from repro.core.session import Session
    from repro.core.substrate import SessionContext
    from repro.lineage.item import LineageInterner
    from repro.memory.arbiter import MemoryArbiter
    from repro.runtime.interpreter import Interpreter
    from repro.server.scheduler import Scheduler

    notes = rec.notes

    def _note_compile(args, result) -> None:
        if result is not None:
            notes["compiler.blocks"] += 1
            notes["compiler.hops"] += len(result[2])

    def _note_run(args, result) -> None:
        notes["runtime.instr"] += len(args[1])

    out = [
        (Session, "__init__", "Session.__init__", "core.session", True, None),
        (Session, "evaluate", "Session.evaluate", "core.session", True, None),
        (Session, "_compile", "Session._compile", "compiler", True,
         _note_compile),
        (Interpreter, "run", "Interpreter.run", "runtime", True, _note_run),
        (Interpreter, "_run_with_spills", "Interpreter._run_with_spills",
         "runtime", True, None),
        # select_loop returns these module globals: counting them shows
        # which dispatch loop every block went through
        (dispatch, "run_fast", "run_fast", "runtime", True, None),
        (dispatch, "run_instrumented", "run_instrumented", "runtime",
         True, None),
        (LineageInterner, "intern", "LineageInterner.intern", "lineage",
         False, None),
        (LineageCache, "probe", "LineageCache.probe", "core.cache", True,
         None),
        (LineageCache, "put", "LineageCache.put", "core.cache", True, None),
        (LineageCache, "make_space", "LineageCache.make_space",
         "core.cache", True, None),
        (MemoryArbiter, "reserve", "MemoryArbiter.reserve", "memory", True,
         None),
        (MemoryArbiter, "reserve_plan", "MemoryArbiter.reserve_plan",
         "memory", True, None),
        (CpuBackend, "execute", "CpuBackend.execute", "backends.cpu", True,
         None),
        (CpuBackend, "execute_chain", "CpuBackend.execute_chain",
         "backends.cpu", True, None),
        (CpuBackend, "execute_fused", "CpuBackend.execute_fused",
         "backends.cpu", True, None),
        (SparkContext, "run_job", "SparkContext.run_job", "backends.spark",
         True, None),
        (GpuBackend, "execute", "GpuBackend.execute", "backends.gpu", True,
         None),
        (GpuMemoryManager, "allocate", "GpuMemoryManager.allocate",
         "backends.gpu", True, None),
        (SessionContext, "admit", "SessionContext.admit", "core.substrate",
         True, None),
        (SessionContext, "namespaced", "SessionContext.namespaced",
         "core.substrate", False, None),
        (SessionMemPlanner, "plan", "SessionMemPlanner.plan",
         "analysis.memplan", True, None),
        (Scheduler, "run", "Scheduler.run", "server", True, None),
    ]
    # the compile passes, under the names Session._compile looks up
    for fn_name in ("eliminate_common_subexpressions", "depth_first",
                    "assign_placements", "consumers_map", "apply_fusion",
                    "place_shared_checkpoints", "place_prefetch",
                    "place_broadcast", "max_parallelize"):
        out.append((session_mod, fn_name, f"compiler.{fn_name}",
                    "compiler", True, None))
    for cls in (policies.CostSizePolicy, policies.LruPolicy,
                policies.LrcPolicy, policies.MrdPolicy):
        for attr in ("score", "score_pointer"):
            out.append((cls, attr, f"{cls.__name__}.{attr}",
                        "core.policies", False, None))
    # partition compute: every RDD class that defines its own compute
    pending = list(RDD.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "compute" in vars(cls):
            out.append((cls, "compute", "RDD.compute", "backends.spark",
                        True, None))
    return out


#: (owner, attribute, original) of every wrapped entry point.
_INSTALLED: list[tuple[object, str, object]] = []


def _select_victim(rec: Recorder, fn: Callable) -> Callable:
    """select_victim, counting its candidate set (materialized once, as
    the arbiter does itself for non-list candidates)."""

    def counted(self, name, candidates, **kwargs):
        if not isinstance(candidates, list):
            candidates = list(candidates)
        rec.notes["memory.victim_candidates"] += len(candidates)
        return fn(self, name, candidates, **kwargs)

    return _span(rec, "MemoryArbiter.select_victim", "memory", counted,
                 True)


def _intern(rec: Recorder, fn: Callable) -> Callable:
    """intern, counting calls that add a new item to the table."""

    def counted(self, opcode, data, inputs):
        before = len(self)
        item = fn(self, opcode, data, inputs)
        if len(self) != before:
            rec.notes["lineage.interns_new"] += 1
        return item

    return counted


def _compute(rec: Recorder, fn: Callable) -> Callable:
    """RDD.compute, counting partitions an earlier call already made."""

    def counted(self, index, metrics):
        key = (self.id, index)
        seen = rec.partitions_seen
        if key in seen:
            rec.notes["backends.spark.partition_recomputes"] += 1
        else:
            seen.add(key)
        return fn(self, index, metrics)

    return counted


def install(rec: Recorder) -> None:
    """Wrap every target so its calls record into ``rec``."""
    from repro.memory.arbiter import MemoryArbiter

    if _INSTALLED:
        raise RuntimeError("span wrappers are already installed")
    for owner, attr, name, layer, keep, note in _targets(rec):
        original = vars(owner)[attr]
        fn = original
        if name == "LineageInterner.intern":
            fn = _intern(rec, original)
        elif name == "RDD.compute":
            fn = _compute(rec, original)
        _INSTALLED.append((owner, attr, original))
        setattr(owner, attr, _span(rec, name, layer, fn, keep, note))
    original = vars(MemoryArbiter)["select_victim"]
    _INSTALLED.append((MemoryArbiter, "select_victim", original))
    MemoryArbiter.select_victim = _select_victim(rec, original)


def uninstall() -> None:
    """Restore every wrapped attribute to its original object."""
    while _INSTALLED:
        owner, attr, original = _INSTALLED.pop()
        setattr(owner, attr, original)


# ---------------------------------------------------------------- export

def write_chrome_trace(rec: Recorder, origin_ns: int, path: str) -> None:
    """Write the kept spans as a Chrome-trace document on host time (µs)."""
    events = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "benchmark host time"}},
    ]
    for span_id, name, layer, start, end, parent, op in rec.spans:
        events.append({
            "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - origin_ns) / 1000.0,
            "dur": (end - start) / 1000.0,
            "args": {"span": span_id, "parent": parent, "op": op},
        })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
