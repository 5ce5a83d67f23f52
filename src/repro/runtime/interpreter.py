"""Instruction interpreter with lineage tracing and multi-backend reuse.

Executes a linearized hop stream following the paper's main loop
(Fig. 4)::

    for inst in instructions:
        TRACE(inst)
        if not REUSE(inst):
            execute(inst)
            PUT(inst)

and handles all inter-backend data exchange (collect, broadcast,
parallelize, H2D/D2H), asynchronous prefetch futures, checkpoint
persisting, and GPU pointer lifetimes.

The loop itself — one body, in ``repro.runtime.dispatch._dispatch`` —
does TRACE inline and calls back into the stage methods here.  Stage
map (MEMPHIS paper section -> code):

* **TRACE** (§3.2, fine-grained lineage): interned lineage-item
  construction plus the per-instruction tracing overhead charge the
  paper measures in Fig. 2(c), inline in ``_dispatch`` (fused chains:
  :meth:`Interpreter._exec_fused`).
* **REUSE** (§4.1, probe + multi-backend hit application): the probe
  charge and ``LineageCache.probe`` in ``_dispatch``, then
  :meth:`Interpreter._apply_reuse`.
* **EXECUTE** (Table 2 operator set): ``_exec_cpu`` / ``_exec_gpu`` /
  ``_exec_spark`` plus the exchange helpers (``_to_cp`` et al.)
  implementing the paper's collect/broadcast/H2D/D2H edges.
* **PUT** (§4.2, admission with delayed caching):
  :meth:`Interpreter._put`.
* Async rewrites (§5.1): ``_issue_prefetch`` / ``_issue_broadcast``;
  checkpoints (§5.2) persist in ``_dispatch`` right after EXECUTE;
  memory-plan spills run through :meth:`Interpreter._planned_spill`.

docs/PERFORMANCE.md covers the dispatch loop and the wall-clock
benchmarks gating it.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.backends.gpu.backend import GpuData
from repro.backends.spark.backend import DistributedMatrix
from repro.backends.spark.broadcast import Broadcast
from repro.common.config import CACHING_MODES, ReuseMode
from repro.common.errors import PlacementError
from repro.common.simclock import HOST, SimFuture
from repro.common.stats import (
    FAULT_LINEAGE_RECOMPUTES,
    INSTRUCTIONS_SKIPPED,
    LINEAGE_TRACED,
    MEMPLAN_SPILLS_EXECUTED,
    PREFETCH_ISSUED,
    BROADCAST_ISSUED,
    SPARK_ACTION_REUSE,
)
from repro.faults.plan import KIND_CACHE_LOST
from repro.compiler.ir import Hop
from repro.core.entry import (
    BACKEND_CP,
    BACKEND_GPU,
    BACKEND_SP,
    CacheEntry,
)
from repro.lineage.item import attr_data
from repro.obs.events import (
    EV_BROADCAST,
    EV_MEMPLAN_SPILL,
    EV_PREFETCH,
    EV_PREFETCH_DONE,
    LANE_CP,
    LANE_GPU,
)
from repro.runtime.dispatch import (
    Slot,
    _step_lineage,
    select_loop,
)
from repro.runtime.placement import (
    SPARK_AGG_ACTION,
    SPARK_AGG_MAP,
    SPARK_ELEMENTWISE,
    SPARK_UNARY,
    matmul_pattern,
)
from repro.runtime.values import MatrixValue, ScalarValue, Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import Session

__all__ = ["Interpreter", "Slot"]


class Interpreter:
    """Executes compiled hop streams inside a session."""

    def __init__(self, session: "Session") -> None:
        self.session = session
        self.config = session.config
        self.stats = session.stats
        self.clock = session.clock
        self.cache = session.cache
        #: the substrate's hash-consing table (shared across sessions on
        #: a shared substrate, so identical traces intern to one object).
        self.interner = session.lineage_interner
        self.tracer = session.tracer
        self.faults = session.faults
        self.metrics = session.metrics
        #: one acquired-pointer list per active run: recovery can re-enter
        #: :meth:`run` (recompute-from-lineage) while an outer run is live,
        #: and each nesting level must release exactly its own references.
        self._acquired_stack: list[list[GpuData]] = []

    # ------------------------------------------------------------------ top level

    def run(self, order: list[Hop],
            planned_spills: Optional[dict[int, list]] = None
            ) -> dict[int, Slot]:
        """Execute a linearized instruction stream; returns hop id -> slot.

        GPU pointers acquired during the run (allocations, uploads, and
        cache-hit reuses) each hold one reference; the session binds
        surviving handles (adding their own references) and then calls
        :meth:`release_acquired` to drop the execution references, moving
        unreferenced pointers to the Free list (Fig. 8(b)).  A run that
        raises releases its own references before re-raising.

        ``planned_spills`` maps stream positions to the compile-time
        spill points the static memory planner scheduled for this block
        (``repro.analysis.memplan``); each is executed *before* the
        instruction at its position, freeing device memory a block that
        over-peaks the GPU budget needs to stay feasible.
        """
        env: dict[int, Slot] = {}
        acquired: list[GpuData] = []
        self._acquired_stack.append(acquired)
        try:
            if planned_spills:
                self._run_with_spills(order, env, acquired, planned_spills)
            else:
                # dispatch specialization: pick the fast or instrumented
                # entry point once per run (see repro.runtime.dispatch)
                select_loop(self)(self, order, env, acquired)
        except BaseException:
            # Session.evaluate never reaches release_acquired for a
            # failed run, so pop this run's list here
            if self._acquired_stack and self._acquired_stack[-1] is acquired:
                self.release_acquired()
            raise
        return env

    def _run_with_spills(self, order: list[Hop], env: dict[int, Slot],
                         acquired: list[GpuData],
                         planned_spills: dict[int, list]) -> None:
        """Run a block whose memory plan scheduled spills."""
        select_loop(self)(self, order, env, acquired, planned_spills)

    def _planned_spill(self, spill, env: dict[int, Slot],
                       acquired: list[GpuData]) -> None:
        """Execute one compile-time spill point (device-to-host).

        Saves a driver-side copy of the victim's value (free when one
        already exists), drops the slot's device payload so later
        consumers re-upload from the host, and returns the execution
        reference to the free lists, where the allocation cascade
        (Fig. 8(b)) reclaims the memory.
        """
        slot = env.get(spill.victim.id)
        if slot is None:
            return
        data = slot.payloads.get(BACKEND_GPU)
        if data is None or data.ptr.freed:
            return
        self._to_cp(slot)
        slot.payloads.pop(BACKEND_GPU, None)
        try:
            acquired.remove(data)
        except ValueError:
            # acquired in an outer run (data-leaf payload): the outer
            # frame's release will find the pointer already freed
            pass
        self.session.gpu.memory.release(data.ptr)
        self.stats.inc(MEMPLAN_SPILLS_EXECUTED)
        if self.tracer.enabled:
            self.tracer.instant(
                EV_MEMPLAN_SPILL, LANE_GPU, hop=spill.victim.id,
                opcode=spill.victim.opcode, nbytes=spill.nbytes,
            )

    def release_acquired(self) -> None:
        """Drop the execution references on all GPU pointers of this run."""
        if not self._acquired_stack:
            return
        for data in self._acquired_stack.pop():
            if not data.ptr.freed:
                self.session.gpu.memory.release(data.ptr)

    # ------------------------------------------------------------------ fused chains

    def _exec_fused(self, hop: Hop, env: dict[int, Slot]) -> Slot:
        """TRACE + EXECUTE one fused chain as a single instruction.

        The absorbed hops' lineage items are re-interned step by step
        (exactly the items the unfused stream would have built), so the
        fused instruction's output carries the *same* lineage key as the
        unfused tail — downstream blocks and recompute-from-lineage see
        no difference.  Tracing is charged once for the whole chain (one
        instruction was dispatched) while ``lineage/items_traced`` still
        counts every interned item; no probe or put runs, because fusion
        is only planned in reuse modes with no retention.
        """
        intern = self.interner.intern
        pro = hop.prologue
        if pro is not None:
            prev_item = intern(
                pro.opcode, attr_data(pro.attrs) if pro.attrs else (),
                tuple(env[h.id].lineage for h in pro.inputs),
            )
            values = [self._to_cp(env[h.id]) for h in hop.inputs[:2]]
        else:
            src_slot = env[hop.inputs[0].id]
            prev_item = src_slot.lineage
            values = [self._to_cp(src_slot)]
        for step in hop.steps:
            prev_item = _step_lineage(intern, step, env, prev_item)
        if self.config.reuse_mode is not ReuseMode.NONE:
            self.clock.advance(self.config.cpu.trace_overhead_s, HOST)
            self.stats.inc(LINEAGE_TRACED,
                           len(hop.steps) + (pro is not None))
        out = self.session.cpu.execute_fused(hop, values)
        slot = Slot(prev_item)
        slot.payloads[BACKEND_CP] = out
        return slot

    # ------------------------------------------------------------------------ reuse

    def _apply_reuse(self, hop: Hop, slot: Slot, entry: CacheEntry) -> None:
        """Bind a cache hit: skip the instruction entirely."""
        slot.payloads = dict(entry.payloads)
        gpu_payload = slot.payloads.get(BACKEND_GPU)
        if gpu_payload is not None:
            data: GpuData = gpu_payload
            if data.ptr.freed:
                # pointer was recycled between invalidation and probe
                slot.payloads.pop(BACKEND_GPU, None)
            else:
                self.session.gpu.memory.reuse_from_free(data.ptr)
                self._acquired_stack[-1].append(data)
        if BACKEND_SP in slot.payloads:
            self.session.spark_mgr.reuse_rdd(entry)
        if hop.placement == BACKEND_SP and BACKEND_CP in slot.payloads:
            # reused a previously collected action result: consumers read
            # the driver-side copy instead of triggering a Spark job
            self.stats.inc(SPARK_ACTION_REUSE)
        self.stats.inc(INSTRUCTIONS_SKIPPED)

    def _put(self, hop: Hop, slot: Slot) -> None:
        """PUT stage (§4.2): offer every backend payload to the cache.

        Admission is the cache's call (delayed caching / compensation
        weights); LOCAL_ONLY mode (the LIMA baseline) stores only
        driver-local values and skips the multi-backend entries.
        """
        mode = self.config.reuse_mode
        if mode is ReuseMode.LOCAL_ONLY and hop.placement != BACKEND_CP:
            return
        item = slot.lineage
        delay = self.session.delay_factor
        cost = hop.flops
        if BACKEND_CP in slot.payloads:
            value: Value = slot.payloads[BACKEND_CP]
            self.cache.put(item, value, BACKEND_CP, value.nbytes, cost,
                           delay_factor=1 if mode is ReuseMode.LOCAL_ONLY
                           else delay)
        if mode is ReuseMode.LOCAL_ONLY:
            return
        if BACKEND_SP in slot.payloads:
            dm: DistributedMatrix = slot.payloads[BACKEND_SP]
            entry = self.cache.put(item, dm, BACKEND_SP, dm.nbytes, cost,
                                   delay_factor=delay)
            if entry is not None:
                self.session.spark_mgr.cache_rdd(entry, dm)
        if BACKEND_GPU in slot.payloads:
            data: GpuData = slot.payloads[BACKEND_GPU]
            self.cache.put(item, data, BACKEND_GPU, data.nbytes, cost,
                           delay_factor=delay)

    # ------------------------------------------------------------------- data leaves

    def _data_slot(self, hop: Hop) -> Slot:
        """Bind a data leaf: reuse the handle's lineage + payloads.

        Keeping the lineage item stable across program blocks is what
        makes cross-block reuse work (§3.2: leaves anchor DAG
        equality); payload dictionaries are shared so later blocks see
        exchanges (collect, H2D) performed by earlier ones.
        """
        if hop.bundle is not None:
            lineage, payloads = hop.bundle
        else:
            handle = hop.handle
            if handle is None:
                raise PlacementError(f"data hop {hop} has no handle")
            if handle.lineage is None:
                handle.lineage = self.interner.dataset(
                    handle.name or f"data_{hop.id}")
            lineage, payloads = handle.lineage, handle.payloads
        slot = Slot(lineage)
        slot.payloads = dict(payloads)
        # drop stale GPU payloads whose pointer was recycled; the host
        # shadow of the value recovers the data when no other copy exists
        gpu_payload = slot.payloads.get(BACKEND_GPU)
        if gpu_payload is not None and gpu_payload.ptr.freed:
            slot.payloads.pop(BACKEND_GPU)
            payloads.pop(BACKEND_GPU, None)
            if BACKEND_CP not in slot.payloads:
                slot.payloads[BACKEND_CP] = gpu_payload.value
                payloads[BACKEND_CP] = gpu_payload.value
        return slot

    # --------------------------------------------------------------------- exchange

    def _to_cp(self, slot: Slot, jobs_entry: bool = True) -> Value:
        """Materialize a slot on the driver (collect / D2H / future wait)."""
        if slot.fused_from is not None:
            return self._to_cp(slot.fused_from)
        if BACKEND_CP in slot.payloads:
            return slot.payloads[BACKEND_CP]
        if slot.future is not None:
            label = slot.future.label
            raw = slot.future.wait()
            if self.tracer.enabled:
                self.tracer.instant(EV_PREFETCH_DONE, LANE_CP, label=label)
            value = raw if isinstance(raw, (MatrixValue, ScalarValue)) \
                else MatrixValue(raw)
            slot.payloads[BACKEND_CP] = value
            slot.future = None
            self._cache_exchange(slot, value)
            return value
        if BACKEND_SP in slot.payloads:
            dm: DistributedMatrix = slot.payloads[BACKEND_SP]
            value = self.session.spark.collect(dm)
            slot.payloads[BACKEND_CP] = value
            self._cache_exchange(slot, value, count_job=jobs_entry)
            return value
        if BACKEND_GPU in slot.payloads:
            data: GpuData = slot.payloads[BACKEND_GPU]
            value = self.session.gpu.to_host(data)
            slot.payloads[BACKEND_CP] = value
            self._cache_exchange(slot, value)
            return value
        if self.faults.enabled and slot.lineage is not None:
            # every payload copy was lost to injected faults: rebuild the
            # value by replaying its lineage (the paper's core recovery
            # argument — lineage makes intermediates cheap to reconstruct)
            value = self.session.recompute_from_lineage(slot.lineage)
            slot.payloads[BACKEND_CP] = value
            self.stats.inc(FAULT_LINEAGE_RECOMPUTES)
            self.faults.recovered(KIND_CACHE_LOST, LANE_CP,
                                  key=slot.lineage.id,
                                  opcode=slot.lineage.opcode)
            return value
        raise PlacementError("slot has no payload to materialize")

    def _cache_exchange(self, slot: Slot, value: Value,
                        count_job: bool = False) -> None:
        """Cache a collected/fetched CP copy under the same lineage key.

        This is what makes Spark *action reuse* work: the next time the
        same lineage is probed, the driver-side copy short-circuits the
        job (paper Fig. 6, top entry).  LIMA has no Spark awareness, so
        collected results of distributed operations are not cached there.
        """
        mode = self.config.reuse_mode
        if mode not in CACHING_MODES or mode is ReuseMode.LOCAL_ONLY:
            return
        entry = self.cache.get_entry(slot.lineage)
        if entry is not None and entry.is_cached:
            self.cache.attach_payload(entry, BACKEND_CP, value,
                                      value.nbytes, entry.compute_cost)
            if count_job:
                entry.jobs += 1
            return
        self.cache.put(slot.lineage, value, BACKEND_CP, value.nbytes,
                       1.0, delay_factor=1)

    def _to_dm(self, slot: Slot, name: str = "in") -> DistributedMatrix:
        """Materialize a slot on the cluster (parallelize if CP-only)."""
        if slot.fused_from is not None:
            return self._to_dm(slot.fused_from, name)
        if BACKEND_SP in slot.payloads:
            return slot.payloads[BACKEND_SP]
        value = self._to_cp(slot)
        dm = self.session.spark.distribute(value, name)
        slot.payloads[BACKEND_SP] = dm
        return dm

    def _to_bc(self, slot: Slot) -> Broadcast:
        """Broadcast a slot's value to all executors (§5.1 operand path)."""
        if slot.broadcast is not None and not slot.broadcast.destroyed:
            return slot.broadcast
        value = self._to_cp(slot)
        # serialization/partitioning cost on the driver
        self.clock.advance(
            value.nbytes / self.config.cpu.mem_bandwidth_bytes_per_s, HOST
        )
        slot.broadcast = self.session.spark.broadcast(
            value if isinstance(value, MatrixValue)
            else MatrixValue(np.full((1, 1), value.as_float()))
        )
        return slot.broadcast

    def _to_gpu(self, slot: Slot, gpu_created: list[GpuData]) -> GpuData:
        """Materialize a slot on the device (H2D through the pool, §4.3)."""
        payload = slot.payloads.get(BACKEND_GPU)
        if payload is not None and not payload.ptr.freed:
            return payload
        value = self._to_cp(slot)
        if isinstance(value, ScalarValue):
            value = MatrixValue(np.full((1, 1), value.as_float()))
        data = self.session.gpu.to_device(value)
        slot.payloads[BACKEND_GPU] = data
        gpu_created.append(data)
        return data

    # -------------------------------------------------------------------- CPU / GPU

    def _exec_cpu(self, hop: Hop, slot: Slot, in_slots: list[Slot]) -> None:
        """EXECUTE on the driver (Table 2, CP operators).

        Inputs are materialized driver-side first (collect / D2H /
        future wait), so a CP instruction doubles as the paper's
        synchronization point for asynchronous Spark/GPU producers.
        """
        values = []
        append = values.append
        for s in in_slots:
            # inline _to_cp's already-local fast path (the overwhelmingly
            # common case for CP-placed chains)
            if s.fused_from is None:
                v = s.payloads.get(BACKEND_CP)
                if v is not None:
                    append(v)
                    continue
            append(self._to_cp(s))
        out = self.session.cpu.execute(hop.opcode, values, hop.attrs)
        slot.payloads[BACKEND_CP] = out

    def _exec_gpu(self, hop: Hop, slot: Slot, in_slots: list[Slot],
                  gpu_created: list[GpuData]) -> None:
        """EXECUTE on the device (§4.3): H2D uploads + kernel launch.

        Scalars stay host-side (kernel launch parameters); matrix
        inputs are uploaded through the memory manager, and every
        acquired pointer is recorded for end-of-run release (Fig. 8(b)
        reference workflow).
        """
        gpu_inputs: list[object] = []
        for s in in_slots:
            cp = s.payloads.get(BACKEND_CP)
            if isinstance(cp, ScalarValue):
                gpu_inputs.append(cp)
            else:
                gpu_inputs.append(self._to_gpu(s, gpu_created))
        out = self.session.gpu.execute(
            hop.opcode, gpu_inputs, hop.attrs,
            lineage_height=slot.lineage.height,
        )
        if isinstance(out, GpuData):
            slot.payloads[BACKEND_GPU] = out
            gpu_created.append(out)
        else:
            slot.payloads[BACKEND_CP] = out

    # ------------------------------------------------------------------------ Spark

    def _exec_spark(self, hop: Hop, slot: Slot, in_slots: list[Slot]) -> None:
        """EXECUTE on the cluster (§4.2/§5): pick the physical operator.

        Mirrors SystemDS's Spark instruction set: element-wise ops
        choose zip / broadcast / scalar variants by operand shape,
        aggregates run as (possibly asynchronous) actions, and matmuls
        go through :meth:`_exec_spark_matmul`'s pattern selection.
        """
        sb = self.session.spark
        op = hop.opcode

        if op == "ba+*":
            self._exec_spark_matmul(hop, slot, in_slots)
            return

        if op in SPARK_ELEMENTWISE:
            left, right = hop.inputs
            ls, rs = in_slots
            if right.shape == (1, 1):
                scalar = self._scalar_of(rs)
                slot.payloads[BACKEND_SP] = sb.elementwise_scalar(
                    op, self._to_dm(ls), scalar
                )
            elif left.shape == (1, 1):
                scalar = self._scalar_of(ls)
                slot.payloads[BACKEND_SP] = sb.elementwise_scalar(
                    op, self._to_dm(rs), scalar, scalar_left=True
                )
            elif left.shape[0] == right.shape[0] and right.shape[0] > 1:
                # equal row counts: partition-aligned zip (covers both
                # matrix-matrix and matrix-column-vector operands)
                slot.payloads[BACKEND_SP] = sb.elementwise_zip(
                    op, self._to_dm(ls), self._to_dm(rs)
                )
            elif right.shape[0] == 1:
                # row vector: broadcast against every row block
                bc = self._to_bc(rs)
                slot.payloads[BACKEND_SP] = sb.elementwise_broadcast(
                    op, self._to_dm(ls), bc, right.shape[1]
                )
            elif left.shape[0] == 1:
                bc = self._to_bc(ls)
                slot.payloads[BACKEND_SP] = sb.elementwise_broadcast(
                    op, self._to_dm(rs), bc, left.shape[1], bc_left=True
                )
            else:
                slot.payloads[BACKEND_SP] = sb.elementwise_zip(
                    op, self._to_dm(ls), self._to_dm(rs)
                )
            return

        if op in SPARK_UNARY:
            if op == "replace":
                pattern = float(hop.attrs.get("pattern", np.nan))
                repl = float(hop.attrs.get("replacement", 0.0))

                def fn(b, pattern=pattern, repl=repl):
                    out = b.copy()
                    if np.isnan(pattern):
                        out[np.isnan(out)] = repl
                    else:
                        out[out == pattern] = repl
                    return out

                dm = self._to_dm(in_slots[0])
                rdd = dm.rdd.map_blocks(fn, "replace")
                slot.payloads[BACKEND_SP] = DistributedMatrix(
                    rdd, dm.nrow, dm.ncol
                )
            else:
                slot.payloads[BACKEND_SP] = sb.unary(
                    op, self._to_dm(in_slots[0])
                )
            return

        if op in SPARK_AGG_ACTION:
            self._exec_spark_aggregate(hop, slot, in_slots)
            return

        if op in SPARK_AGG_MAP:
            dm = self._to_dm(in_slots[0])
            if op == "uark+":
                slot.payloads[BACKEND_SP] = sb.row_sums(dm)
            elif op == "uarmean":
                rs = sb.row_sums(dm)
                slot.payloads[BACKEND_SP] = sb.elementwise_scalar(
                    "/", rs, float(dm.ncol)
                )
            else:  # uarmax
                rdd = dm.rdd.map_blocks(
                    lambda b: b.max(axis=1, keepdims=True), "uarmax"
                )
                slot.payloads[BACKEND_SP] = DistributedMatrix(
                    rdd, dm.nrow, 1
                )
            return

        if op == "r'":
            slot.payloads[BACKEND_SP] = sb.transpose(self._to_dm(in_slots[0]))
            return

        if op == "rbind":
            slot.payloads[BACKEND_SP] = sb.rbind(
                self._to_dm(in_slots[0]), self._to_dm(in_slots[1])
            )
            return

        if op == "rightIndex":
            in_shape = hop.inputs[0].shape
            rl = int(hop.attrs.get("rl", 1)) - 1
            ru = int(hop.attrs.get("ru", in_shape[0]))
            cl = int(hop.attrs.get("cl", 1)) - 1
            cu = int(hop.attrs.get("cu", in_shape[1]))
            dm = self._to_dm(in_slots[0])
            if cl != 0 or cu != in_shape[1]:
                rdd = dm.rdd.map_blocks(
                    lambda b, cl=cl, cu=cu: b[:, cl:cu].copy(), "rightIndex"
                )
                dm = DistributedMatrix(rdd, dm.nrow, cu - cl)
            if rl != 0 or ru != in_shape[0]:
                dm = sb.slice_rows(dm, rl, ru)
            slot.payloads[BACKEND_SP] = dm
            return

        raise PlacementError(f"no Spark physical operator for {op!r}")

    def _exec_spark_aggregate(self, hop: Hop, slot: Slot,
                              in_slots: list[Slot]) -> None:
        """Single-block aggregates execute as Spark actions.

        When the prefetch rewrite flagged the action, the job runs
        asynchronously and consumers wait on the returned future (§5.1:
        "this rewrite flags all other Spark actions for asynchronous
        execution").
        """
        op = hop.opcode
        dm = self._to_dm(in_slots[0])
        cells = float(dm.nrow * dm.ncol)
        nrow = float(dm.nrow)

        if op in ("uak+", "uamean"):
            partial = dm.rdd.map_blocks(
                lambda b: np.array([[b.sum()]]), "uak+_partial"
            )
            combine = lambda a, b: a + b
            if op == "uak+":
                finish = lambda out: ScalarValue(float(out[0, 0]))
            else:
                finish = lambda out: ScalarValue(float(out[0, 0]) / cells)
        elif op in ("uack+", "uacmean"):
            partial = dm.rdd.map_blocks(
                lambda b: b.sum(axis=0, keepdims=True), "uack+_partial"
            )
            combine = lambda a, b: a + b
            if op == "uack+":
                finish = lambda out: MatrixValue(out)
            else:
                finish = lambda out: MatrixValue(out / nrow)
        elif op in ("uamax", "uamin"):
            agg = np.max if op == "uamax" else np.min
            reducer = np.maximum if op == "uamax" else np.minimum
            partial = dm.rdd.map_blocks(
                lambda b, f=agg: np.array([[f(b)]]), op + "_partial"
            )
            combine = lambda a, b, r=reducer: r(a, b)
            finish = lambda out: ScalarValue(float(out[0, 0]))
        else:  # pragma: no cover - guarded by SPARK_AGG_ACTION
            raise PlacementError(f"unhandled Spark aggregate {op}")

        sc = self.session.spark.sc
        if hop.prefetch and self.config.enable_async_ops:
            raw = sc.reduce_async(partial, combine)
            slot.future = SimFuture(
                self.clock, raw.ready_time, finish(raw.value),
                label=f"agg:{op}",
            )
            self.stats.inc(PREFETCH_ISSUED)
            if self.tracer.enabled:
                self.tracer.instant(EV_PREFETCH, LANE_CP,
                                    label=f"agg:{op}",
                                    ready=raw.ready_time)
        else:
            slot.payloads[BACKEND_CP] = finish(sc.reduce(partial, combine))

    def _exec_spark_matmul(self, hop: Hop, slot: Slot,
                           in_slots: list[Slot]) -> None:
        """Distributed matmul via SystemDS's physical patterns.

        ``tsmm`` (transpose-self, fused), ``cpmm`` (cross-product),
        ``mapmm``/``bcmm`` (broadcast-side) — selection logic lives in
        :func:`repro.runtime.placement.matmul_pattern`.
        """
        sb = self.session.spark
        pattern = matmul_pattern(hop, self.config)
        left, right = hop.inputs
        ls, rs = in_slots
        if pattern == "tsmm":
            dm = self._to_dm(ls.fused_from or ls)
            slot.payloads[BACKEND_SP] = sb.tsmm(dm)
        elif pattern == "cpmm":
            a = self._to_dm(ls.fused_from or ls)
            b = self._to_dm(rs)
            slot.payloads[BACKEND_SP] = sb.cpmm(a, b)
        elif pattern == "mapmm":
            bc = self._to_bc(rs)
            slot.payloads[BACKEND_SP] = sb.mapmm(
                self._to_dm(ls), bc, right.shape[1]
            )
        elif pattern == "bcmm":
            bc = self._to_bc(ls)
            slot.payloads[BACKEND_SP] = sb.bcmm_left(
                bc, left.shape[0], self._to_dm(rs)
            )
        else:
            raise PlacementError(
                f"no Spark matmul pattern for shapes "
                f"{left.shape} x {right.shape}"
            )

    def _scalar_of(self, slot: Slot) -> float:
        """Driver-side python float of a 1x1 value (scalar operands)."""
        value = self._to_cp(slot)
        if isinstance(value, ScalarValue):
            return value.as_float()
        return float(value.data.reshape(-1)[0])

    # --------------------------------------------------------------------- async ops

    def _issue_prefetch(self, hop: Hop, slot: Slot) -> None:
        """Trigger the remote job now and return a future (§5.1)."""
        if BACKEND_CP in slot.payloads or slot.future is not None:
            return
        if BACKEND_SP in slot.payloads:
            dm: DistributedMatrix = slot.payloads[BACKEND_SP]
            slot.future = self.session.spark.sc.collect_async(dm.rdd)
            self.stats.inc(PREFETCH_ISSUED)
            if self.tracer.enabled:
                self.tracer.instant(EV_PREFETCH, LANE_CP,
                                    label=slot.future.label,
                                    ready=slot.future.ready_time)
        elif BACKEND_GPU in slot.payloads:
            data: GpuData = slot.payloads[BACKEND_GPU]
            ready = self.session.gpu.to_host_async(data)
            slot.future = SimFuture(self.clock, ready, data.value,
                                    label="gpu_prefetch")
            self.stats.inc(PREFETCH_ISSUED)
            if self.tracer.enabled:
                self.tracer.instant(EV_PREFETCH, LANE_CP,
                                    label="gpu_prefetch", ready=ready)

    def _issue_broadcast(self, slot: Slot) -> None:
        """Asynchronously partition + register a broadcast variable."""
        if slot.broadcast is not None:
            return
        value = slot.payloads.get(BACKEND_CP)
        if not isinstance(value, MatrixValue):
            return
        # asynchronous: the partitioning overlaps with host execution,
        # so only the registration latency is charged
        slot.broadcast = self.session.spark.broadcast(value)
        self.stats.inc(BROADCAST_ISSUED)
        if self.tracer.enabled:
            self.tracer.instant(EV_BROADCAST, LANE_CP, nbytes=value.nbytes)

