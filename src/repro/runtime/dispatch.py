"""The interpreter's one instruction-dispatch loop (paper Fig. 4).

:func:`_dispatch` runs the stage sequence once per instruction —
TRACE (inlined, with the session's lineage interner), REUSE probe,
EXECUTE, checkpoint, prefetch/broadcast, PUT — calling back into the
``Interpreter`` stage methods, and executes memory-plan spills at
their scheduled stream positions.  Three observability layers hook
into it — fault-injection draws, tracer spans, metrics ticks — each
behind an ``enabled`` flag fixed when the session is constructed
(``NULL_TRACER`` / ``NULL_METRICS`` / ``NULL_INJECTOR``, see
docs/ARCHITECTURE.md "Zero overhead when disabled"), so the guards are
folded into three run-start locals.  :func:`select_loop` picks the
entry point per run:

* :func:`run_instrumented` — whenever any of tracing, metrics, or
  fault injection is live;
* :func:`run_fast` — when all three are disabled.  The hooks never
  run, and when reuse probes/puts are also off (``ReuseMode.NONE``)
  maximal runs of cell-wise instructions with no intervening control
  flow are batch-dispatched through the vectorized ufunc-chain layer
  (``repro.backends.cpu.vectorized``).

Both produce bit-identical results, stats counters, and simulated
clock readings — ``tests/test_dispatch_equivalence.py`` asserts this,
and ``benchmarks/baselines/dispatch_instrumented.json`` pins the
instrumented hooks' placement.  The fast path changes only *real*
wall-clock cost, which the ``BENCH_wallclock`` telemetry track
measures (docs/PERFORMANCE.md).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.backends.cpu.vectorized import CompiledStep, compile_step
from repro.common.config import CACHING_MODES, PROBING_MODES, ReuseMode
from repro.compiler.rewrites.fusion import FUSED_OPCODE
from repro.common.simclock import HOST, SimFuture
from repro.common.stats import CHECKPOINTS_PLACED, LINEAGE_TRACED
from repro.compiler.ir import KIND_DATA, KIND_LITERAL, Hop
from repro.core.entry import BACKEND_CP, BACKEND_SP
from repro.lineage.item import LineageItem, literal
from repro.obs.events import EV_INSTR, LANE_CP
from repro.runtime.values import ScalarValue

if TYPE_CHECKING:  # pragma: no cover
    from repro.backends.spark.broadcast import Broadcast
    from repro.runtime.interpreter import Interpreter


class Slot:
    """Runtime binding of one hop: lineage + multi-backend payloads."""

    __slots__ = ("lineage", "payloads", "future", "broadcast", "fused_from")

    def __init__(self, lineage: LineageItem) -> None:
        self.lineage = lineage
        self.payloads: dict[str, object] = {}
        #: pending asynchronous fetch (prefetch rewrite).
        self.future: Optional[SimFuture] = None
        #: broadcast variable created for this value (if any).
        self.broadcast: Optional["Broadcast"] = None
        #: for fused transposes: the slot of the underlying input.
        self.fused_from: Optional["Slot"] = None


def _attr_data(attrs: dict) -> tuple:
    """Flatten attributes into a deterministic lineage data tuple.

    NaN floats are encoded as a sentinel string: Python hashes NaN by
    object identity and ``nan != nan``, which would make structurally
    identical lineage items unequal (breaking all reuse of e.g.
    ``replace(NaN, v)``).
    """
    if not attrs:
        return ()
    out: list = []
    for key in sorted(attrs):
        out.append(key)
        value = attrs[key]
        if isinstance(value, float) and value != value:
            out.append("__nan__")
        elif isinstance(value, (int, float, bool, str)):
            out.append(value)
        else:
            out.append(str(value))
    return tuple(out)


# --------------------------------------------------------------- loop selection

def select_loop(interp: "Interpreter"):
    """Pick the dispatch loop for one run: instrumented iff any layer is live.

    The three flags are class attributes of the null/real tracer,
    metrics registry, and fault injector, fixed at session
    construction, so the selection is stable across a session's
    lifetime; re-checking per run (three attribute loads) keeps the
    choice robust for tests that hand-wire sessions.
    """
    if interp.tracer.enabled or interp.metrics.enabled \
            or interp.faults.enabled:
        return run_instrumented
    return run_fast


def run_instrumented(interp: "Interpreter", order: list[Hop],
                     env: dict[int, Slot], acquired: list,
                     spills: Optional[dict[int, list]] = None) -> None:
    """Run :func:`_dispatch` with the live observability hooks."""
    _dispatch(interp, order, env, acquired, spills, True)


def run_fast(interp: "Interpreter", order: list[Hop],
             env: dict[int, Slot], acquired: list,
             spills: Optional[dict[int, list]] = None) -> None:
    """Run :func:`_dispatch` with every observability hook folded away."""
    _dispatch(interp, order, env, acquired, spills, False)


def _dispatch(interp: "Interpreter", order: list[Hop],
              env: dict[int, Slot], acquired: list,
              spills: Optional[dict[int, list]],
              instrumented: bool) -> None:
    """The Fig. 4 loop: TRACE, REUSE, EXECUTE and PUT per instruction.

    ``spills`` maps stream positions to compile-time spill points
    (``repro.analysis.memplan``), each executed before the instruction
    at its position.  The observability hooks — the fault-injection
    draw before each op instruction or fused chain, the ``EV_INSTR``
    span around REUSE…PUT, and the metrics tick after every hop — run
    only when ``instrumented`` and their layer is enabled; the guards
    are fixed at run start.  Loop-invariant lookups (config, clock,
    interner) are hoisted, and an uninstrumented ``ReuseMode.NONE``
    run without spills batches eligible cell-wise runs through
    :func:`_run_chain`.
    """
    config = interp.config
    mode = config.reuse_mode
    trace_on = mode is not ReuseMode.NONE
    clock = interp.clock
    stats = interp.stats
    session = interp.session
    intern = interp.interner.intern
    data_slot = interp._data_slot
    trace_overhead = config.cpu.trace_overhead_s
    probe_on = mode in PROBING_MODES
    put_on = mode in CACHING_MODES
    local_only = mode is ReuseMode.LOCAL_ONLY
    probe_overhead = config.cpu.probe_overhead_s
    cache_probe = interp.cache.probe
    apply_reuse = interp._apply_reuse
    exec_cpu = interp._exec_cpu
    exec_spark = interp._exec_spark
    exec_gpu = interp._exec_gpu
    exec_fused = interp._exec_fused
    put = interp._put
    enable_async = config.enable_async_ops

    tracer = interp.tracer
    faults = interp.faults
    metrics = interp.metrics
    traced = instrumented and tracer.enabled
    faulting = instrumented and faults.enabled
    ticking = instrumented and metrics.enabled

    # batch dispatch requires probe *and* put disabled: a chain's
    # interior values are never probed for or admitted to the cache,
    # which is exactly the ReuseMode.NONE contract.  Instrumented runs
    # keep one span, draw and tick per instruction, and spill positions
    # must not fall inside a batch, so both stay per-instruction.
    chains = plan_chains(order) if (
        mode is ReuseMode.NONE and not instrumented and not spills
    ) else None

    i = 0
    n = len(order)
    while i < n:
        hop = order[i]
        if spills:
            for spill in spills.get(i, ()):
                interp._planned_spill(spill, env, acquired)
        if chains is not None:
            chain = chains.get(hop.id)
            if chain is not None:
                _run_chain(interp, chain, env, intern)
                i += len(chain.steps)
                continue
        kind = hop.kind
        if kind == KIND_LITERAL:
            slot = Slot(literal(hop.value))
            slot.payloads[BACKEND_CP] = ScalarValue(hop.value)
        elif kind == KIND_DATA:
            slot = data_slot(hop)
        elif hop.opcode == FUSED_OPCODE:
            # fused cell-wise chain (compile-time fusion rewrite):
            # TRACE + single-instruction EXECUTE, never probed or put
            if faulting:
                faults.lost_cache_entries(session)
            if traced:
                with tracer.span(EV_INSTR, LANE_CP, opcode=hop.opcode,
                                 hop=hop.id, backend=BACKEND_CP):
                    slot = exec_fused(hop, env)
            else:
                slot = exec_fused(hop, env)
        else:
            # TRACE (Fig. 4): intern the lineage item for this hop
            in_slots = [env[h.id] for h in hop.inputs]
            attrs = hop.attrs
            item = intern(
                hop.opcode,
                _attr_data(attrs) if attrs else (),
                tuple(s.lineage for s in in_slots),
            )
            if trace_on:
                clock.advance(trace_overhead, HOST)
                stats.inc(LINEAGE_TRACED)
            slot = Slot(item)
            if hop.fused:
                # transpose fused into tsmm/cpmm: pass through the input
                slot.fused_from = in_slots[0]
            else:
                # fault-injection draw point: each op instruction may
                # lose cached intermediates, exercising recompute-from-
                # lineage downstream
                if faulting:
                    faults.lost_cache_entries(session)
                placement = hop.placement
                # the instruction span covers REUSE…PUT, so every
                # cache/backend event emitted underneath carries this
                # instruction's label (opcode#hop) for attribution;
                # entered by hand so the untraced path pays no context
                # manager per instruction
                span = tracer.span(
                    EV_INSTR, LANE_CP, opcode=hop.opcode, hop=hop.id,
                    backend=placement or BACKEND_CP, lineage=item.id,
                ).__enter__() if traced else None
                try:
                    # REUSE probe (LIMA traces/reuses only local CPU
                    # instructions in LOCAL_ONLY mode)
                    entry = None
                    if probe_on and (not local_only
                                     or placement == BACKEND_CP):
                        clock.advance(probe_overhead, HOST)
                        entry = cache_probe(item)
                    if entry is not None:
                        apply_reuse(hop, slot, entry)
                    else:
                        # EXECUTE
                        backend = placement or BACKEND_CP
                        if backend == BACKEND_CP:
                            exec_cpu(hop, slot, in_slots)
                        elif backend == BACKEND_SP:
                            exec_spark(hop, slot, in_slots)
                        else:
                            exec_gpu(hop, slot, in_slots, acquired)
                        # compiler-placed RDD checkpoint (§5.2)
                        if hop.checkpoint and BACKEND_SP in slot.payloads:
                            dm = slot.payloads[BACKEND_SP]
                            if not dm.rdd.is_persisted:
                                dm.rdd.persist(
                                    session.spark_mgr.storage_level)
                                stats.inc(CHECKPOINTS_PLACED)
                        # asynchronous prefetch / broadcast (§5.1)
                        if hop.prefetch and enable_async:
                            interp._issue_prefetch(hop, slot)
                        if hop.async_broadcast \
                                and BACKEND_CP in slot.payloads:
                            interp._issue_broadcast(slot)
                        # PUT
                        if put_on:
                            put(hop, slot)
                finally:
                    if span is not None:
                        span.__exit__(None, None, None)
        env[hop.id] = slot
        if ticking:
            # time-series sampling hook (repro.obs.metrics): reads
            # region ledgers and counters every N instructions; never
            # advances the sim clock, so metered runs stay identical
            metrics.tick(session)
        i += 1


# ------------------------------------------------------------- batch dispatch

class Chain:
    """A maximal run of chainable cell-wise hops with one matrix spine."""

    __slots__ = ("source_id", "steps")

    def __init__(self, source_id: int, steps: list[CompiledStep]) -> None:
        #: hop id of the matrix value feeding the first step.
        self.source_id = source_id
        self.steps = steps


def plan_chains(order: list[Hop]) -> dict[int, Chain]:
    """Segment a linearized order into batch-dispatchable cell-wise runs.

    A chain is a maximal *consecutive* subsequence of the order where
    each hop is a compilable cell-wise step
    (:func:`~repro.backends.cpu.vectorized.compile_step`) whose matrix
    operand is the immediately preceding hop — i.e. a straight-line run
    with no intervening control flow or consumers in between.  Runs
    shorter than two instructions are not worth the bookkeeping and
    stay on the per-instruction path.

    Returns a map from the first step's hop id to its :class:`Chain`.
    """
    plan: dict[int, Chain] = {}
    n = len(order)
    i = 0
    while i < n:
        first = compile_step(order[i])
        if first is None:
            i += 1
            continue
        source = order[i].inputs[first.matrix_index]
        if source.shape[0] * source.shape[1] <= 1:
            i += 1
            continue
        steps = [first]
        j = i + 1
        while j < n:
            step = compile_step(order[j])
            if step is None \
                    or order[j].inputs[step.matrix_index] is not order[j - 1]:
                break
            steps.append(step)
            j += 1
        if len(steps) >= 2:
            plan[order[i].id] = Chain(source.id, steps)
            i = j
        else:
            i += 1
    return plan


def _run_chain(interp: "Interpreter", chain: Chain,
               env: dict[int, Slot], intern) -> None:
    """Execute one precompiled chain; bind a slot per interior hop.

    Every step still gets its own interned lineage item, CP payload,
    and environment slot, so out-of-chain consumers, handle rebinding,
    and lineage serialization observe exactly what the per-instruction
    path produces.
    """
    src_slot = env[chain.source_id]
    value = interp._to_cp(src_slot)
    outs = interp.session.cpu.execute_chain(chain.steps, value)
    prev = src_slot.lineage
    for step, out in zip(chain.steps, outs):
        prev = _step_lineage(intern, step, env, prev)
        slot = Slot(prev)
        slot.payloads[BACKEND_CP] = out
        env[step.hop.id] = slot


def _step_lineage(intern, step: CompiledStep, env: dict[int, Slot],
                 prev: LineageItem) -> LineageItem:
    """Intern one cell-wise chain step's lineage item.

    ``prev`` is the item of the step's matrix operand (the previous
    step, or the chain's source); a scalar operand keeps its side, so
    batched and fused chains intern exactly the items the
    per-instruction path builds.
    """
    hop = step.hop
    if step.scalar_index is None:
        inputs = (prev,)
    elif step.scalar_index == 0:
        inputs = (env[hop.inputs[0].id].lineage, prev)
    else:
        inputs = (prev, env[hop.inputs[1].id].lineage)
    return intern(hop.opcode, (), inputs)
