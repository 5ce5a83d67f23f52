"""The MEMPHIS session: public entry point of the library.

A :class:`Session` owns the three backends, the hierarchical lineage
cache, and the compiler; it exposes the handle API (``read``, ``rand``,
arithmetic on :class:`MatrixHandle`), multi-level (function) reuse, loop
and block contexts that drive the program-level rewrites of §5.2, and
the lineage APIs ``serialize``/``recompute`` of §3.1.

Typical use::

    from repro import Session, MemphisConfig

    sess = Session(MemphisConfig.memphis())
    X = sess.read(features, "X")
    y = sess.read(labels, "y")
    A = X.t() @ X
    b = (y.t() @ X).t()
    beta = sess.solve(A + 0.1 * sess.eye(X.ncol), b)
    print(beta.compute())
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.analysis.hook import current_collector as current_analysis_collector
from repro.analysis.manager import verify_ir
from repro.analysis.memplan import (
    SessionMemPlanner,
    current_memplan_collector,
    format_footprint_table,
    format_region_peaks,
    plan_block,
    plan_diagnostics,
)
from repro.backends.cpu.backend import CpuBackend
from repro.backends.gpu.backend import GpuBackend, GpuData
from repro.backends.gpu.memmanager import MODE_MALLOC, MODE_MEMPHIS, MODE_POOL
from repro.backends.spark.backend import SparkBackend
from repro.backends.spark.context import SparkContext
from repro.common.config import MemphisConfig, PROBING_MODES, ReuseMode
from repro.common.errors import RecomputationError, VerificationError
from repro.common.simclock import HOST, SimClock
from repro.common.stats import (
    EVICT_INSTRUCTIONS,
    FUNC_HITS,
    MEMPLAN_BLOCKS_PLANNED,
    Stats,
)
from repro.compiler.ir import (
    KIND_OP,
    Hop,
    data_hop,
    literal_hop,
    op_hop,
)
from repro.compiler.linearize import depth_first, max_parallelize
from repro.compiler.rewrites.async_ops import (
    consumers_map,
    place_broadcast,
    place_prefetch,
)
from repro.compiler.rewrites.checkpoint import (
    place_shared_checkpoints,
    should_checkpoint_loop_var,
)
from repro.compiler.rewrites.cse import eliminate_common_subexpressions
from repro.compiler.rewrites.fusion import apply_fusion
from repro.compiler.rewrites.tuning import ProgramBlock, tune_block
from repro.core.entry import BACKEND_CP, BACKEND_GPU, BACKEND_SP
from repro.core.spark_cache import SparkCacheManager
from repro.core.substrate import (
    SessionContext,
    Substrate,
    current_substrate,
)
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.faults.plan import current_plan
from repro.lineage.item import OP_DATA, LineageItem
from repro.memory import REGION_CP, MemoryArbiter
from repro.lineage.recompute import hops_from_item
from repro.lineage.serialize import deserialize, serialize
from repro.obs.explain import (
    LEVEL_FULL,
    ExplainCollector,
    current_explain,
    render_plan,
    snapshot_plan,
)
from repro.obs.metrics import NULL_METRICS, MetricsCollector, current_metrics
from repro.obs.tracer import NULL_TRACER, TraceCollector, current_collector
from repro.runtime.handles import MatrixHandle
from repro.runtime.interpreter import Interpreter, Slot
from repro.runtime.placement import assign_placements, matmul_pattern
from repro.runtime.values import MatrixValue, ScalarValue, Value


class Session:
    """One MEMPHIS execution context (driver + backends + cache)."""

    def __init__(self, config: Optional[MemphisConfig] = None, *,
                 substrate: Optional[Substrate] = None,
                 tenant: Optional[str] = None) -> None:
        self.config = config or MemphisConfig.memphis()
        self.clock = SimClock()
        self.stats = Stats()
        # structured tracing (repro.obs): an ambient collector (harness
        # --trace) wins; otherwise the config flag creates a private one.
        collector = current_collector()
        if collector is None and self.config.trace_enabled:
            collector = TraceCollector(self.config.trace_buffer)
        self.trace_collector = collector
        self.tracer = (
            collector.tracer(
                self.clock,
                label=f"{self.config.reuse_mode.value}",
                stats=self.stats,
            )
            if collector is not None else NULL_TRACER
        )
        # metrics time-series (repro.obs.metrics): same ambient-wins
        # pattern as tracing; without either source, NULL_METRICS keeps
        # the interpreter's per-instruction cost a single attribute check.
        mcollector = current_metrics()
        if mcollector is None and self.config.metrics_enabled:
            mcollector = MetricsCollector(self.config.metrics_interval)
        self.metrics_collector = mcollector
        self.metrics = (
            mcollector.registry(
                self.clock,
                label=f"{self.config.reuse_mode.value}",
                stats=self.stats,
                interval=self.config.metrics_interval,
            )
            if mcollector is not None else NULL_METRICS
        )
        # plan-level EXPLAIN (repro.obs.explain): an ambient collector
        # (harness --explain) wins; the config flag creates a private
        # one whose plans Session.explain() renders without arguments.
        explain = current_explain()
        if explain is None and self.config.explain_capture:
            explain = ExplainCollector()
        self.explain_collector = explain
        # fault injection (repro.faults): an explicit plan on the config
        # wins; otherwise an ambient plan (harness --faults) applies.
        # With neither, NULL_INJECTOR keeps every hot-path guard a single
        # ``enabled`` attribute check.
        plan = self.config.faults
        if plan is None:
            plan = current_plan()
        self.faults = (
            FaultInjector(plan, self.clock, self.stats, tracer=self.tracer)
            if plan is not None else NULL_INJECTOR
        )
        # reuse substrate (repro.core.substrate): the arbiter with the
        # CP/DISK ledgers, the lineage cache, and the interner.  The
        # default is a *private* substrate built from this session's own
        # stats/clock/tracer — exactly the object graph sessions owned
        # before the substrate layer existed, so single-session
        # behaviour is byte-identical.  An injected (or ambient) shared
        # substrate is attached instead: lineage keys are namespaced per
        # the determinism rules and CP/DISK admission goes through the
        # tenant's fair share (see docs/SERVER.md).
        if substrate is None:
            substrate = current_substrate()
        if substrate is not None and substrate.shared:
            self.substrate = substrate
            self._ctx: Optional[SessionContext] = substrate.attach(
                self, tenant
            )
            self.cache = substrate.cache
            self.lineage_interner = substrate.interner
            # backend regions (buffer pool, Spark tiers, GPU) stay
            # session-private: only CP/DISK live on the shared arbiter.
            self.arbiter = MemoryArbiter(
                self.stats, tracer=self.tracer, faults=self.faults
            )
            # holistic eviction still consults driver-cache residency:
            # the session's GPU manager asks the *shared* cache.
            self.arbiter.register_residency(
                REGION_CP, substrate.cache.has_host_copy_for
            )
        else:
            self.substrate = Substrate(
                self.config, stats=self.stats, clock=self.clock,
                tracer=self.tracer, faults=self.faults,
            )
            self._ctx = None
            self.arbiter = self.substrate.arbiter
            self.cache = self.substrate.cache
            # hash-consing table for lineage keys: the interpreter's
            # TRACE step interns every op item, so re-traced
            # instructions return the canonical object and cache probes
            # hit the dict's identity fast path instead of structural
            # DAG comparison.
            self.lineage_interner = self.substrate.interner
        self.cpu = CpuBackend(self.config.cpu, self.clock, self.stats)
        self.spark_context = SparkContext(
            self.config.spark, self.clock, self.stats, tracer=self.tracer,
            faults=self.faults, arbiter=self.arbiter,
        )
        self.spark = SparkBackend(self.spark_context)
        self.spark_mgr = SparkCacheManager(
            self.cache, self.spark_context, self.config.cache, self.stats,
            arbiter=self.arbiter,
        )
        self.gpu = GpuBackend(
            self.config.gpu, self.clock, self.stats,
            mode=self._gpu_mode(), tracer=self.tracer, faults=self.faults,
            arbiter=self.arbiter,
        )
        self.gpu.memory.on_invalidate = self.cache.on_gpu_invalidate
        self.interpreter = Interpreter(self)
        self.delay_factor = self.config.cache.delay_factor
        #: bound server request (``repro.obs.request``): set by the
        #: scheduler via :meth:`bind_request`; ``None`` for standalone
        #: sessions, at zero hot-path cost.
        self.request = None
        #: named input datasets, kept for lineage-based recovery: when a
        #: cached intermediate is lost to a fault, RECOMPUTE replays its
        #: trace from these roots (§3.2).
        self._datasets: dict[str, Union[np.ndarray, float]] = {}
        self._seed_counter = 10_000_000
        self._last_loop_name: Optional[str] = None
        # static IR verification (repro.analysis): the config flag makes
        # every compiled block raise on error-severity diagnostics; an
        # ambient collector (python -m repro.analysis, harness
        # --verify-ir) verifies without raising and accumulates findings.
        self.ir_collector = current_analysis_collector()
        self._verify_ir = bool(
            self.config.verify_ir or self.ir_collector is not None
        )
        # static memory planning (repro.analysis.memplan): the config
        # flag or an ambient MemplanCollector (python -m repro.analysis
        # --memplan) activates a per-session planner that predicts each
        # block's per-region peak, bulk-reserves it via reserve_plan,
        # and records observed watermarks for predicted-vs-observed
        # comparison.  None keeps evaluate's planning cost at one check.
        self.memplan_collector = current_memplan_collector()
        self.memplanner: Optional[SessionMemPlanner] = None
        if self.config.memplan or self.memplan_collector is not None:
            self.memplanner = SessionMemPlanner(self.config)
            if self.memplan_collector is not None:
                self.memplan_collector.register(self, self.memplanner)

    def _gpu_mode(self) -> str:
        if self.config.gpu_memory_mode is not None:
            return self.config.gpu_memory_mode
        if self.config.reuse_mode in (ReuseMode.FULL, ReuseMode.OPERATOR_ONLY):
            return MODE_MEMPHIS
        # SystemDS's baseline GPU backend already maintains free-list
        # pools; MODE_MALLOC (cudaMalloc/cudaFree per operation) is only
        # used by the forced-allocation micro-benchmark of Fig. 2(d)
        return MODE_POOL

    # ------------------------------------------------------------- constructors

    def read(self, data: Union[np.ndarray, float, int],
             name: Optional[str] = None) -> MatrixHandle:
        """Bind an input dataset (or scalar) as an evaluated handle."""
        if isinstance(data, (float, int)):
            value: Value = ScalarValue(float(data))
        else:
            value = MatrixValue(np.asarray(data, dtype=np.float64))
        handle = MatrixHandle(self, literal_hop(0.0), name=name)
        handle.hop = data_hop(handle, value.shape)
        # named leaves are canonical per substrate, so every block (and,
        # on a shared substrate, every session) reading ``name`` keys
        # its lineage on one object; anonymous leaves are unique anyway
        handle.lineage = (
            self.lineage_interner.dataset(name) if name else
            LineageItem(OP_DATA, (f"anon_{handle.hop.id}",))
        )
        handle.payloads = {BACKEND_CP: value}
        handle.hop.bundle = (handle.lineage, handle.payloads)
        if name is not None:
            self._datasets[name] = (
                value.data if isinstance(value, MatrixValue)
                else float(data)
            )
            if self._ctx is not None:
                # shared substrate: record the content fingerprint so
                # ``data`` leaves only unify across sessions reading the
                # same bytes under this name
                self.substrate.register_dataset(
                    self._ctx, name, self._datasets[name]
                )
        return handle

    def scalar(self, value: float) -> MatrixHandle:
        """A literal scalar handle."""
        return MatrixHandle(self, literal_hop(float(value)))

    def rand(self, rows: int, cols: int, min: float = 0.0, max: float = 1.0,
             sparsity: float = 1.0, pdf: str = "uniform",
             seed: Optional[int] = None) -> MatrixHandle:
        """Random matrix; a fixed ``seed`` makes the result reusable.

        Without a seed, a fresh unique seed is drawn (the lineage then
        never matches, i.e. the operation is treated as non-deterministic,
        matching SystemDS's handling of unseeded ``rand``).
        """
        if seed is None:
            self._seed_counter += 1
            seed = self._seed_counter
        return MatrixHandle(self, op_hop("rand", [], {
            "rows": rows, "cols": cols, "min": min, "max": max,
            "sparsity": sparsity, "pdf": pdf, "seed": int(seed),
        }))

    def seq(self, start: float, stop: float, step: float = 1.0) -> MatrixHandle:
        """Column vector ``start, start+step, ..., <= stop``."""
        return MatrixHandle(self, op_hop("seq", [], {
            "from": start, "to": stop, "incr": step,
        }))

    def fill(self, rows: int, cols: int, value: float) -> MatrixHandle:
        """Constant matrix (via rand with min == max)."""
        return self.rand(rows, cols, min=value, max=value, seed=0)

    def eye(self, n: int) -> MatrixHandle:
        """Identity matrix."""
        return self.diag(self.fill(n, 1, 1.0))

    def diag(self, handle: MatrixHandle) -> MatrixHandle:
        return MatrixHandle(self, op_hop("diag", [handle.hop]))

    # ------------------------------------------------------------------ operators

    def solve(self, a: MatrixHandle, b: MatrixHandle) -> MatrixHandle:
        """Solve the linear system ``A x = b``."""
        return MatrixHandle(self, op_hop("solve", [a.hop, b.hop]))

    def cbind(self, *handles: MatrixHandle) -> MatrixHandle:
        return MatrixHandle(
            self, op_hop("cbind", [h.hop for h in handles])
        )

    def rbind(self, *handles: MatrixHandle) -> MatrixHandle:
        return MatrixHandle(
            self, op_hop("rbind", [h.hop for h in handles])
        )

    def table(self, rows: MatrixHandle, cols: MatrixHandle,
              nrow: int, ncol: int) -> MatrixHandle:
        """Contingency table (used for one-hot encoding)."""
        return MatrixHandle(self, op_hop(
            "table", [rows.hop, cols.hop], {"rows": nrow, "cols": ncol}
        ))

    def order(self, handle: MatrixHandle, by: int = 1,
              decreasing: bool = False) -> MatrixHandle:
        return MatrixHandle(self, op_hop(
            "order", [handle.hop], {"by": by, "decreasing": decreasing}
        ))

    def conv2d(self, images: MatrixHandle, filters: MatrixHandle,
               shape: dict) -> MatrixHandle:
        """2-D convolution over linearized NCHW matrices.

        ``shape`` holds N/C/H/W/K/R/S plus optional stride and pad.
        """
        return MatrixHandle(self, op_hop(
            "conv2d", [images.hop, filters.hop], dict(shape)
        ))

    def maxpool(self, images: MatrixHandle, shape: dict) -> MatrixHandle:
        """Max pooling over linearized NCHW matrices."""
        return MatrixHandle(self, op_hop("maxpool", [images.hop], dict(shape)))

    def bias_add(self, x: MatrixHandle, bias: MatrixHandle) -> MatrixHandle:
        return MatrixHandle(self, op_hop("bias_add", [x.hop, bias.hop]))

    def reshape(self, x: MatrixHandle, rows: int, cols: int) -> MatrixHandle:
        return MatrixHandle(self, op_hop(
            "reshape", [x.hop], {"rows": rows, "cols": cols}
        ))

    def recode(self, x: MatrixHandle) -> MatrixHandle:
        """Dictionary-encode categorical columns to dense 1-based codes."""
        return MatrixHandle(self, op_hop("recode", [x.hop]))

    def bin(self, x: MatrixHandle, num_bins: int = 10) -> MatrixHandle:
        """Equi-width binning of numerical columns."""
        return MatrixHandle(self, op_hop("bin", [x.hop],
                                         {"num_bins": num_bins}))

    def quantile(self, x: MatrixHandle, p: float) -> MatrixHandle:
        """Column-wise quantile at probability ``p``."""
        return MatrixHandle(self, op_hop("quantile", [x.hop], {"p": p}))

    # ------------------------------------------------------------------ evaluation

    def _compile(self, handles: Sequence[MatrixHandle]):
        """Run the full compile pipeline over one basic block.

        Rewrites (CSE, placement, transpose fusion, checkpoint/prefetch/
        broadcast placement) and linearization, shared verbatim between
        :meth:`evaluate` and :meth:`explain` so a plan dump shows exactly
        what would execute.  Returns ``(roots, root_hops, order, extra)``
        or ``None`` when nothing is pending.
        """
        roots = [h for h in handles if h.hop.kind == KIND_OP]
        if not roots:
            return None
        root_hops = [h.hop for h in roots]
        extra: dict[int, list] = {}
        if self.config.enable_cse:
            root_hops, extra = eliminate_common_subexpressions(root_hops)
            for handle, hop in zip(roots, root_hops):
                handle.hop = hop
        # one traversal serves the whole pipeline below: after CSE the
        # DAG structure is frozen (placement and the rewrites only set
        # per-hop flags), so each pass re-walking the DAG was pure
        # repeated traversal cost.  depth_first yields the deduplicated
        # post-order every pass needs (inputs before consumers) and
        # doubles as the final instruction order when no remote chains
        # call for max_parallelize reordering.
        nodes = depth_first(root_hops)
        assign_placements(root_hops, self.config, nodes)
        consumers = consumers_map(root_hops, nodes)
        self._mark_fused_transposes(root_hops, consumers, nodes)
        if self.config.enable_fusion:
            # reuse-aware operator fusion: after CSE/placement (chains
            # must respect both), before checkpoint/prefetch/broadcast
            # placement (those passes must see the fused stream).
            root_hops, fused, replaced = apply_fusion(
                root_hops, nodes, consumers, self.config, self.stats,
                protected=set(extra),
            )
            if fused:
                for handle, hop in zip(roots, root_hops):
                    handle.hop = hop
                extra = {
                    replaced[hid].id if hid in replaced else hid: handles_
                    for hid, handles_ in extra.items()
                }
                nodes = depth_first(root_hops)
                consumers = consumers_map(root_hops, nodes)
        place_shared_checkpoints(root_hops, self.config, consumers, nodes)
        place_prefetch(root_hops, self.config, consumers, nodes)
        place_broadcast(root_hops, self.config, consumers, nodes)
        if self.config.enable_max_parallelize:
            order = max_parallelize(root_hops, nodes)
        else:
            order = nodes
        return roots, root_hops, order, extra

    def _activate(self) -> None:
        """Make this session the shared cache's active scope (no-op when
        the substrate is private)."""
        if self._ctx is not None:
            self.substrate.activate(self._ctx)

    def bind_request(self, ctx) -> None:
        """Bind a server :class:`~repro.obs.request.RequestContext`.

        While bound, every event this session's stack emits — dispatch
        spans, arbiter/cache instants, verifier diagnostics — carries
        the request's ``request_id``/``tenant`` args, and entries the
        shared cache creates record the request as their producer.
        Pass ``None`` to unbind.  Zero overhead when untraced: binding
        a :data:`~repro.obs.tracer.NULL_TRACER` is a no-op.
        """
        self.request = ctx
        if self._ctx is not None:
            self._ctx.request = ctx
        self.tracer.bind_request(ctx)

    def evaluate(self, handles: Sequence[MatrixHandle]) -> None:
        """Compile and execute the DAGs of ``handles`` (one basic block)."""
        self._activate()
        compiled = self._compile(handles)
        if compiled is None:
            return
        _, root_hops, order, extra = compiled
        if self.explain_collector is not None:
            self.explain_collector.capture(root_hops, order, self.config)
        # static memory planning (repro.analysis.memplan): derive the
        # block's per-region peak footprint and bulk-reserve it before
        # verification; a failed verification cancels the reservation.
        plan = None
        reservation = None
        if self.memplanner is not None:
            plan = self.memplanner.plan(root_hops, order)
            self.stats.inc(MEMPLAN_BLOCKS_PLANNED)
            if self._ctx is not None:
                # multi-tenant admission gate: the shared-region subset
                # of the demands must pass the tenant's quota and a
                # strict bulk reservation, or AdmissionError surfaces to
                # the scheduler as backpressure before anything runs
                self._ctx.admit(plan.admission_demands())
            reservation = self.arbiter.reserve_plan(plan.admission_demands())
        try:
            if self._verify_ir:
                # static verification gate: runs the repro.analysis pass
                # pipeline over the post-rewrite DAG + proposed order
                # before anything executes; raises iff config.verify_ir
                verify_ir(
                    root_hops, order, self.config,
                    tracer=self.tracer, stats=self.stats,
                    collector=self.ir_collector,
                    raise_on_error=self.config.verify_ir,
                )
            if (plan is not None and self.config.memplan_enforce
                    and plan.errors):
                # compile-time admission control: an over-budget plan
                # with no feasible spill schedule never starts executing
                raise VerificationError(
                    "memory plan rejected: "
                    + "; ".join(d.format() for d in plan.errors)
                )
        except Exception:
            if reservation is not None:
                reservation.cancel()
            raise
        if reservation is not None:
            # verified: admit the plan.  Commit drops the bulk holds —
            # execution charges the ledgers instruction by instruction.
            reservation.commit()
        planned_spills = None
        if plan is not None and self.config.memplan_spills:
            spill_map = plan.executable_spills()
            if spill_map:
                planned_spills = spill_map
        env = self.interpreter.run(order, planned_spills=planned_spills)
        for hop in order:
            if hop.kind != KIND_OP:
                continue
            slot = env[hop.id]
            if slot.fused_from is not None:
                continue
            handle = hop.handle
            if handle is None and not extra.get(hop.id):
                continue
            if slot.future is not None and BACKEND_CP not in slot.payloads:
                # an asynchronous action whose value escapes this block:
                # resolve the future so the handle carries the prefetched
                # driver copy (and the cache its action-reuse entry)
                self.interpreter._to_cp(slot)
            if handle is not None:
                self._rebind(handle, slot)
            for extra_handle in extra.get(hop.id, ()):  # CSE-merged handles
                self._rebind(extra_handle, slot)
        self.interpreter.release_acquired()
        if self.memplanner is not None:
            # record the runtime's per-region peak watermarks so the
            # static prediction stays comparable (explain / --memplan)
            self.memplanner.observe(self.arbiter)
        if self.metrics.enabled:
            # end-of-block sample: even tiny blocks (fewer instructions
            # than the sampling interval) contribute one point per series
            self.metrics.sample(self)

    def compute(self, handle: MatrixHandle) -> np.ndarray:
        """Force evaluation and return the driver-side numpy result."""
        self._activate()
        if handle.hop.kind == KIND_OP:
            self.evaluate([handle])
        if BACKEND_CP not in handle.payloads and handle.lineage is not None:
            entry = (
                self.cache.probe(handle.lineage)
                if self.config.reuse_mode in PROBING_MODES
                else self.cache.get_entry(handle.lineage)
            )
            if entry is not None and BACKEND_CP in entry.payloads:
                handle.payloads[BACKEND_CP] = entry.payloads[BACKEND_CP]
        if BACKEND_CP not in handle.payloads:
            slot = Slot(handle.lineage)
            slot.payloads = handle.payloads
            value = self.interpreter._to_cp(slot)
            handle.payloads[BACKEND_CP] = value
        value = handle.payloads[BACKEND_CP]
        if isinstance(value, ScalarValue):
            return np.full((1, 1), value.as_float())
        return value.data

    def _rebind(self, handle: MatrixHandle, slot: Slot) -> None:
        new_gpu: Optional[GpuData] = slot.payloads.get(BACKEND_GPU)
        handle.bind(slot.lineage, slot.payloads)
        if new_gpu is not None and not new_gpu.ptr.freed:
            self.gpu.memory.retain(new_gpu.ptr)
            self._attach_gpu_finalizer(handle.hop, new_gpu.ptr)

    def _attach_gpu_finalizer(self, hop, ptr) -> None:
        """Release the GPU reference when the data hop becomes garbage.

        Payload lifetime follows the hop (one-way references, no cycles),
        so CPython's reference counting releases pointers promptly when
        the last handle or consumer DAG drops them.
        """
        hop.finalizer = weakref.finalize(
            hop, _release_ptr, self.gpu.memory, ptr
        )

    def _mark_fused_transposes(self, roots: list[Hop],
                               consumers: Optional[dict] = None,
                               nodes: Optional[list[Hop]] = None) -> None:
        """Fuse ``r'`` feeding tsmm/cpmm physical operators (skip exec)."""
        if nodes is None:
            nodes = [hop for root in roots for hop in root.iter_dag()]
        if consumers is None:
            consumers = consumers_map(roots, None)
        for hop in nodes:
            if hop.kind != KIND_OP or hop.opcode != "ba+*":
                continue
            if hop.placement != BACKEND_SP:
                continue
            pattern = matmul_pattern(hop, self.config)
            if pattern not in ("tsmm", "cpmm"):
                continue
            t_hop = hop.inputs[0]
            if t_hop.opcode == "r'" and len(
                    consumers.get(t_hop.id, ())) == 1:
                t_hop.fused = True

    # --------------------------------------------------------- multi-level reuse

    def function(self, name: Optional[str] = None,
                 deterministic: bool = True) -> Callable:
        """Decorator enabling function-level (coarse-grained) reuse (§3.3).

        The wrapped function's outputs are cached under a special lineage
        item of the function name and input lineages; a repeated call with
        identical inputs skips the body entirely, even when inputs and
        outputs span multiple backends.
        """

        def decorate(fn: Callable) -> Callable:
            fname = name or fn.__name__

            def wrapper(*args):
                if not deterministic or self.config.reuse_mode not in (
                    ReuseMode.FULL, ReuseMode.COARSE_ONLY
                ):
                    return fn(*args)
                self._activate()
                key = self._function_key(fname, args)
                entry = self.cache.probe(key)
                if entry is not None:
                    outputs = self._restore_function_outputs(entry)
                    if outputs is not None:
                        self.stats.inc(FUNC_HITS)
                        return outputs
                t0 = self.clock.now(HOST)
                result = fn(*args)
                self._cache_function_outputs(key, result, t0)
                return result

            wrapper.__name__ = fn.__name__
            wrapper.__doc__ = fn.__doc__
            return wrapper

        return decorate

    def _function_key(self, fname: str, args: tuple) -> LineageItem:
        interner = self.lineage_interner
        items = []
        for arg in args:
            if isinstance(arg, MatrixHandle):
                if arg.lineage is None:
                    self.evaluate([arg])
                items.append(arg.lineage)
            else:
                items.append(interner.literal(arg))
        return interner.function(fname, tuple(items))

    def _cache_function_outputs(self, key: LineageItem, result,
                                t0: float) -> None:
        outputs = result if isinstance(result, tuple) else (result,)
        handles = [o for o in outputs if isinstance(o, MatrixHandle)]
        pending = [h for h in handles if h.hop.kind == KIND_OP]
        if pending:
            self.evaluate(pending)
        snapshot = []
        for out in outputs:
            if isinstance(out, MatrixHandle):
                snapshot.append(
                    ("handle", out.lineage, dict(out.payloads), out.shape)
                )
            else:
                snapshot.append(("value", out))
        elapsed = self.clock.now(HOST) - t0
        cost = max(elapsed * self.config.cpu.flops_per_s, 1.0)
        size = sum(
            payloads.get(BACKEND_CP).nbytes
            for kind, *rest in snapshot
            if kind == "handle"
            for payloads in [rest[1]]
            if payloads.get(BACKEND_CP) is not None
        )
        self.cache.put(key, (snapshot, isinstance(result, tuple)),
                       BACKEND_CP, max(size, 8), cost, delay_factor=1)

    def _restore_function_outputs(self, entry):
        payload = entry.get_payload(BACKEND_CP)
        if payload is None:
            return None
        snapshot, was_tuple = payload
        outputs = []
        for record in snapshot:
            if record[0] == "value":
                outputs.append(record[1])
                continue
            _, lineage, payloads, shape = record
            payloads = dict(payloads)
            gpu_payload = payloads.get(BACKEND_GPU)
            if gpu_payload is not None and gpu_payload.ptr.freed:
                payloads.pop(BACKEND_GPU)
            if not payloads:
                return None  # all copies lost: treat as a miss
            handle = MatrixHandle(self, literal_hop(0.0))
            handle.hop = data_hop(handle, shape)
            gpu_payload = payloads.get(BACKEND_GPU)
            handle.bind(lineage, payloads)
            if gpu_payload is not None:
                self.gpu.memory.reuse_from_free(gpu_payload.ptr)
                self._attach_gpu_finalizer(handle.hop, gpu_payload.ptr)
            outputs.append(handle)
        return tuple(outputs) if was_tuple else outputs[0]

    # -------------------------------------------------------------- program hooks

    @contextlib.contextmanager
    def loop(self, name: str):
        """Loop context driving the program-level rewrites of §5.2.

        Entering a loop whose allocation pattern differs from the
        previous loop injects an ``evict`` instruction (eviction
        injection); calling ``ctx.update(var=handle)`` applies the
        loop-variable checkpoint rewrite to distributed updates.
        """
        self._enter_loop(name)
        ctx = LoopContext(self)
        try:
            yield ctx
        finally:
            ctx.finish()

    def _enter_loop(self, name: str) -> None:
        if (
            self.config.enable_eviction_injection
            and self._last_loop_name is not None
            and self._last_loop_name != name
            and self.gpu.memory.free_bytes_pooled > 0
        ):
            self.evict_gpu(100.0)
        self._last_loop_name = name

    def evict_gpu(self, percent: float = 100.0) -> int:
        """The ``evict`` instruction (§5.2): clean up GPU free pools."""
        self.stats.inc(EVICT_INSTRUCTIONS)
        if self.explain_collector is not None:
            self.explain_collector.note_evict(
                f"evict_gpu({percent:g}%) at t={self.clock.now(HOST):.6f}s"
            )
        return self.gpu.memory.empty_cache(percent / 100.0)

    @contextlib.contextmanager
    def block(self, name: str, execution_frequency: int = 1,
              reusable_fraction: float = 1.0):
        """Basic-block context applying automatic parameter tuning (§5.2).

        Sets the delay factor and Spark storage level for puts issued
        inside the block, from the block's execution frequency and the
        fraction of its operations that are loop-independent (reusable).
        """
        old_delay = self.delay_factor
        old_level = self.spark_mgr.storage_level
        if self.config.enable_auto_tuning and self.config.enable_delayed_caching:
            block = ProgramBlock(
                name,
                execution_frequency=execution_frequency,
                num_ops=100,
                num_loop_dependent_ops=int(
                    round((1.0 - reusable_fraction) * 100)
                ),
            )
            tuning = tune_block(block)
            self.delay_factor = tuning.delay_factor
            self.spark_mgr.storage_level = tuning.storage_level
        try:
            yield
        finally:
            self.delay_factor = old_delay
            self.spark_mgr.storage_level = old_level

    def checkpoint(self, handle: MatrixHandle) -> MatrixHandle:
        """Explicitly persist a (distributed) handle's RDD."""
        if handle.hop.kind == KIND_OP:
            self.evaluate([handle])
        dm = handle.payloads.get(BACKEND_SP)
        if dm is not None:
            self.stats.inc("compiler/checkpoints_placed")
            if not dm.rdd.is_persisted:
                dm.rdd.persist(self.spark_mgr.storage_level)
        return handle

    # ------------------------------------------------------------------ lineage API

    def lineage_of(self, handle: MatrixHandle) -> Optional[LineageItem]:
        """The lineage item of an evaluated handle (TRACE output)."""
        if handle.lineage is None and handle.hop.kind == KIND_OP:
            self.evaluate([handle])
        return handle.lineage

    def serialize_lineage(self, handle: MatrixHandle) -> str:
        """SERIALIZE: textual lineage log of a handle's trace (§3.1)."""
        item = self.lineage_of(handle)
        if item is None:
            raise RecomputationError("handle has no lineage to serialize")
        return serialize(item)

    def recompute(self, log: str,
                  inputs: Optional[dict[str, np.ndarray]] = None) -> np.ndarray:
        """RECOMPUTE: replay a serialized lineage log (§3.2).

        Rebuilds an expression DAG from the log and runs it through the
        full compilation chain, so the execution environment may differ
        from the one that produced the trace.  ``inputs`` supplies the
        named datasets referenced by ``data`` leaves.
        """
        root_item = deserialize(log)
        inputs = inputs or {}
        anchors: list[MatrixHandle] = []

        def read_dataset(dataset_name: str) -> Hop:
            if dataset_name not in inputs:
                raise RecomputationError(
                    f"recompute needs input dataset {dataset_name!r}"
                )
            handle = self.read(inputs[dataset_name], dataset_name)
            anchors.append(handle)
            return handle.hop

        root = hops_from_item(root_item, read_dataset)
        handle = MatrixHandle(self, root)
        return self.compute(handle)

    def recompute_from_lineage(self, item: LineageItem) -> Value:
        """Replay a live lineage trace to rebuild a lost value (§3.2).

        Fault-recovery entry point: when every cached copy of an
        intermediate has been lost (injected cache loss, GPU eviction
        under memory pressure, executor loss), the interpreter calls
        this to recompute the value from the session's registered input
        datasets.  Replays run through the full compilation chain, so
        still-cached sub-traces are reused rather than re-executed.
        """
        if item.opcode == "lit":
            return ScalarValue(float(item.data[0]))
        if item.opcode == "data":
            name = str(item.data[0])
            if name not in self._datasets:
                raise RecomputationError(
                    f"cannot recompute: dataset {name!r} is not registered"
                )
            data = self._datasets[name]
            return (ScalarValue(data) if isinstance(data, float)
                    else MatrixValue(data))
        anchors: list[MatrixHandle] = []

        def read_dataset(dataset_name: str) -> Hop:
            if dataset_name not in self._datasets:
                raise RecomputationError(
                    f"cannot recompute: dataset {dataset_name!r} is not "
                    f"registered with this session"
                )
            handle = self.read(self._datasets[dataset_name], dataset_name)
            anchors.append(handle)
            return handle.hop

        root = hops_from_item(item, read_dataset)
        handle = MatrixHandle(self, root)
        self.compute(handle)
        value = handle.payloads.get(BACKEND_CP)
        if value is None:
            raise RecomputationError(
                f"lineage replay of {item.opcode!r} produced no CP value"
            )
        return value

    # ------------------------------------------------------------------ reporting

    def explain(self, handles: Optional[Sequence[MatrixHandle]] = None,
                level: str = LEVEL_FULL) -> str:
        """EXPLAIN: render the compiled plan of a basic block (no execution).

        With ``handles`` (one or a sequence of pending handles), the
        block is compiled through the same rewrite + linearization
        pipeline :meth:`evaluate` uses — post-rewrite HOP DAG, placement
        decisions, linearized instruction stream with reuse/prefetch/
        checkpoint annotations, and per-hop cost estimates — without
        executing anything.  Hop ids in the dump match the ids
        ``repro.analysis`` diagnostics and trace spans reference.

        Without ``handles``, renders every plan captured so far (needs
        ``MemphisConfig(explain_capture=True)`` or an ambient
        :func:`repro.obs.explain.install_explain` scope).

        ``level`` is one of ``"hops"``, ``"runtime"``, ``"full"``.
        """
        if handles is not None:
            if isinstance(handles, MatrixHandle):
                handles = [handles]
            compiled = self._compile(list(handles))
            if compiled is None:
                return "(nothing to explain: no pending operator DAG)"
            _, root_hops, order, _extra = compiled
            plan = snapshot_plan(root_hops, order, self.config)
            diagnostics = None
            if self.ir_collector is not None:
                diagnostics = self.ir_collector.merged()
            rendered = render_plan(plan, level, diagnostics)
            if level != "hops":
                rendered += "\n\n" + self._explain_memory(root_hops, order)
            return rendered
        if self.explain_collector is None:
            return ("(explain capture is off: pass handles, or create the "
                    "session with MemphisConfig(explain_capture=True))")
        rendered = self.explain_collector.render(level)
        if level != "hops":
            rendered += "\n\n" + self._explain_memory(None, None)
        return rendered

    def _explain_memory(self, root_hops, order) -> str:
        """Static footprint table + observed region watermarks.

        The ``runtime``/``full`` explain levels append (a) the static
        memory plan of the block being explained (per-hop / per-region
        charges, ``repro.analysis.memplan``) and (b) the session's
        observed ``MemoryRegion.peak_used`` watermarks, so predicted
        vs observed peaks are comparable in one place.
        """
        sections: list[str] = []
        if root_hops is not None and order is not None:
            block_plan = plan_block(root_hops, order, self.config)
            plan_diagnostics(block_plan, self.config)
            sections.append(format_footprint_table(block_plan))
        observed = {
            snap["region"]: int(snap["peak_used"])
            for snap in self.arbiter.snapshot()
        }
        predicted = (self.memplanner.predicted
                     if self.memplanner is not None else None)
        budgets = (self.memplanner.budgets
                   if self.memplanner is not None else None)
        sections.append(
            "memory regions (observed peak watermarks"
            + (" vs session prediction" if self.memplanner is not None
               else "") + "):\n"
            + format_region_peaks(predicted, observed, budgets)
        )
        return "\n\n".join(sections)

    def elapsed(self) -> float:
        """Simulated end-to-end time (host timeline)."""
        return self.clock.now(HOST)

    def report(self) -> str:
        """Statistics report (SystemDS ``-stats`` style)."""
        return self.stats.report()

    def trace_events(self) -> list:
        """Structured trace events recorded so far (see ``repro.obs``).

        Empty unless the session was created with
        ``MemphisConfig(trace_enabled=True)`` or inside an ambient
        ``repro.obs.tracing()`` scope.
        """
        if self.trace_collector is not None:
            return [e for e in self.trace_collector.events()
                    if e.session == self.tracer.session_id]
        return []

    def export_trace(self, path: str) -> None:
        """Write this session's events as a Chrome/Perfetto trace file."""
        from repro.obs import export_chrome_trace

        export_chrome_trace(
            self.trace_events(),
            path,
            self.trace_collector.session_labels
            if self.trace_collector is not None else None,
        )


class LoopContext:
    """Runtime handle for one loop (checkpoint rewrite 2, §5.2)."""

    def __init__(self, session: Session) -> None:
        self.session = session
        self._previous: dict[str, MatrixHandle] = {}

    def update(self, **handles: MatrixHandle) -> None:
        """Declare loop-updated variables for the current iteration.

        Distributed updates are checkpointed (persist) so the next
        iteration's jobs do not lazily re-execute all previous iterations
        (Fig. 9(c)); the previous iteration's checkpoint of the same
        variable is unpersisted once superseded.
        """
        for name, handle in handles.items():
            if not should_checkpoint_loop_var(handle.shape,
                                              self.session.config):
                continue
            self.session.checkpoint(handle)
            prev = self._previous.get(name)
            if prev is not None and prev is not handle:
                dm = prev.payloads.get(BACKEND_SP)
                if dm is not None and dm.rdd.is_persisted:
                    dm.rdd.unpersist()
            self._previous[name] = handle

    def finish(self) -> None:
        """Loop exited; retained checkpoints stay for downstream reuse."""
        self._previous.clear()


def _release_ptr(memory, ptr) -> None:
    """weakref.finalize target: release a GPU pointer on handle GC."""
    if not ptr.freed:
        memory.release(ptr)
