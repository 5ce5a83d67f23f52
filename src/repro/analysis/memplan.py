"""Static memory planner: compile-time peak footprints per region (MEM rules).

MEMPHIS discovers memory pressure *reactively*: the arbiter evicts and
spills when a reservation fails at runtime.  This pass family bounds a
block's footprint *before* it runs — the idea of "Memory Safe
Computations with XLA Compiler" (PAPERS.md) transplanted onto the HOP
DAG, the way SystemML-style compilers budget intermediates ahead of
execution.  For one linearized instruction stream the planner:

* derives, from ``Hop.output_bytes`` and the stream's def-use chains,
  every byte charge the runtime can make against the six canonical
  :class:`~repro.memory.region.MemoryRegion` ledgers (``CP``, ``DISK``,
  ``CPU_BP``, ``SP_BLOCKS``, ``SP_CACHE``, ``GPU``) — see
  :func:`plan_block` for the charge model and its soundness argument;
* computes per-region liveness intervals and the block's peak resident
  footprint per region (in this runtime a value stays resident until
  the end of its block — GPU pointers are held on the acquired list,
  cache tiers are sticky — so intervals run ``[def, block end]`` and
  the def-use chains' contribution is the *next-use* ordering that
  drives spill-point victim selection);
* emits ``MEM``-family diagnostics when a plan exceeds a region's
  configured capacity, including a pre-scheduled spill/evict point
  computed at compile time (Belady-style: spill the live value with the
  furthest next use at the first position the budget overflows);
* feeds ``Session.evaluate``: the predicted peaks are bulk-reserved via
  :meth:`~repro.memory.arbiter.MemoryArbiter.reserve_plan` before
  execution, and — with ``config.memplan_spills`` — the interpreter
  executes the scheduled device-to-host spills, turning a block that
  would die with ``GpuOutOfMemoryError`` into a feasible one.

Rule catalog (see docs/ANALYSIS.md):

========  ========  =============================================================
rule      severity  meaning
========  ========  =============================================================
MEM001    error     one instruction's working set exceeds its execution
                    region's total capacity — infeasible at any schedule
MEM002    warning/  block liveness peak exceeds an execution region's
          error     capacity; warning when a compile-time spill schedule
                    makes it feasible (hint carries the schedule), error
                    when no schedule exists (``memplan_spills`` off, or
                    every candidate victim is pinned at the overflow point)
MEM003    warning   sticky cache-tier demand (CP / SP_CACHE / SP_BLOCKS)
                    exceeds capacity: eviction churn predicted
MEM004    info      predicted peak crosses the region's pressure watermark
MEM005    warning   planned CP spill volume exceeds the DISK budget: the
                    spill tier will drop the overflow
========  ========  =============================================================

Planning never changes answers: the prediction side is pure analysis,
and the only runtime effect of enabling ``config.memplan`` on a block
that fits its budgets is a net-zero reserve/commit pair.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # layering: runtime types are type-only imports here
    from repro.core.session import Session
    from repro.memory.arbiter import MemoryArbiter

from repro.analysis.base import AnalysisContext, AnalysisPass, register_pass
from repro.analysis.dataflow import StreamDefUse
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.common.config import CACHING_MODES, MemphisConfig, ReuseMode
from repro.compiler.ir import KIND_DATA, KIND_LITERAL, KIND_OP, Hop
from repro.core.entry import BACKEND_CP, BACKEND_GPU, BACKEND_SP
from repro.memory.budget import RegionBudget, region_capacities

#: canonical region names (mirrors ``repro.memory.REGION_*`` without
#: importing the runtime package into the analysis layer).
REGION_CP = "CP"
REGION_DISK = "DISK"
REGION_BUFFERPOOL = "CPU_BP"
REGION_SPARK_STORAGE = "SP_BLOCKS"
REGION_SPARK_CACHE = "SP_CACHE"
REGION_GPU = "GPU"

#: all regions a plan reports, in display order.
PLAN_REGIONS = (REGION_CP, REGION_DISK, REGION_BUFFERPOOL,
                REGION_SPARK_STORAGE, REGION_SPARK_CACHE, REGION_GPU)

#: regions whose residency is *sticky across blocks* in this runtime:
#: cache tiers retain entries between blocks, and the GPU pool keeps
#: ``used`` charged until actual frees (release only moves pointers to
#: the free lists, Fig. 8(b)) — so session-level predictions accumulate.
STICKY_REGIONS = (REGION_CP, REGION_DISK, REGION_SPARK_STORAGE,
                  REGION_SPARK_CACHE, REGION_GPU)

#: default pressure watermark for MEM004 (matches the region default).
PRESSURE_WATERMARK = 0.9


def _align(nbytes: int, alignment: int) -> int:
    """Device allocation granularity (CUDA allocates 512 B granules)."""
    if nbytes < alignment:
        nbytes = alignment
    rem = nbytes % alignment
    return nbytes if rem == 0 else nbytes + (alignment - rem)


@dataclass(frozen=True)
class RegionCharge:
    """One potential byte charge of a block against one region.

    ``start`` is the stream position at which the charge becomes live;
    in this runtime every charge stays resident to the end of its block
    (``end``), so the interval is ``[start, end]``.  ``reason`` tags
    the runtime path that would make the charge (``put``, ``exchange``,
    ``persist``, ``alloc``, ``upload``, ``function``).
    """

    hop: Hop
    region: str
    nbytes: int
    start: int
    end: int
    reason: str


@dataclass(frozen=True)
class SpillPoint:
    """A pre-scheduled spill the planner computed at compile time.

    Before executing the instruction at stream position ``pos``, the
    value produced by (or uploaded for) ``victim`` should be moved off
    ``region`` — for the GPU that is a device-to-host transfer (free if
    a driver-side copy already exists) followed by a release to the
    free lists, which the allocation cascade then reclaims.
    """

    pos: int
    victim: Hop
    region: str
    nbytes: int

    def describe(self) -> str:
        return (f"@{self.pos} spill #{self.victim.id} {self.victim.opcode} "
                f"({self.nbytes} B)")


@dataclass
class BlockMemPlan:
    """Static memory plan of one compiled basic block."""

    order: list[Hop]
    roots: list[Hop]
    #: every charge the block can make, in stream order.
    charges: list[RegionCharge]
    #: region -> raw (unclamped) cumulative byte demand of this block.
    demand: dict[str, int]
    #: region -> predicted peak, clamped at capacity for bounded
    #: regions (a bounded ledger never overcommits, so the clamp is
    #: sound — see :func:`plan_block`).
    peaks: dict[str, int]
    #: configured budgets the plan was checked against.
    budgets: dict[str, RegionBudget]
    #: compile-time GPU spill schedule making an over-peak block
    #: feasible; ``None`` when the block fits (empty schedule) is never
    #: used — ``[]`` means "fits", ``None`` means "no feasible schedule".
    gpu_spills: Optional[list[SpillPoint]] = field(default=None)
    #: diagnostics attached by :func:`plan_diagnostics`.
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= Severity.ERROR]

    def admission_demands(self) -> dict[str, int]:
        """Per-region predicted peaks for ``reserve_plan`` admission."""
        return {name: peak for name, peak in self.peaks.items() if peak > 0}

    def executable_spills(self) -> dict[int, list[SpillPoint]]:
        """Stream position -> spills to run before that instruction."""
        out: dict[int, list[SpillPoint]] = {}
        for sp in self.gpu_spills or ():
            out.setdefault(sp.pos, []).append(sp)
        return out

    def charges_by_hop(self) -> dict[int, dict[str, int]]:
        """hop id -> region -> total bytes (for the footprint table)."""
        out: dict[int, dict[str, int]] = {}
        for charge in self.charges:
            per = out.setdefault(charge.hop.id, {})
            per[charge.region] = per.get(charge.region, 0) + charge.nbytes
        return out


def plan_block(roots: list[Hop], order: list[Hop],
               config: MemphisConfig) -> BlockMemPlan:
    """Derive the per-region charge set and peak footprint of one block.

    The charge model is a *sound upper bound* on the region ledgers: it
    enumerates every code path that charges a region and bounds each
    charge by ``Hop.output_bytes`` (the dense worst-case size, which
    dominates the runtime ``value.nbytes``):

    * ``CP`` — the PUT stage offers every driver-side result to the
      lineage cache, and collected / device-to-host / future exchange
      copies ride along under the same key: with puts enabled, every op
      hop is charged (``LOCAL_ONLY`` restricts to CP-placed hops, the
      LIMA contract), plus non-CP-resident data leaves that a consumer
      may collect; function-level reuse (FULL / COARSE_ONLY) re-puts
      the block outputs under a distinct function key, covered by one
      root-output allowance per block.
    * ``DISK`` — receives only CP spills; each entry is on disk at most
      once concurrently, so CP demand bounds it (0 when spilling off).
    * ``CPU_BP`` — the interpreter executes CP ops directly on driver
      memory without engaging the buffer pool, so a block charges it
      nothing (the region exists for standalone tools).
    * ``SP_BLOCKS`` — only *persisted* memory-resident partitions are
      charged (shuffles never are): every SP-placed op hop's output is
      an upper bound over cache/checkpoint/explicit persists.
    * ``SP_CACHE`` — ``cache_rdd`` charges SP payloads of SP-placed put
      hops when multi-backend puts are on.
    * ``GPU`` — one aligned allocation per GPU-placed op output plus
      one per host-to-device upload of a non-resident input, matching
      the allocator's 512 B granularity.

    Bounded regions never overcommit (``used + reserved <= capacity``
    is a ledger invariant), so the predicted peak of a bounded region
    is clamped at its capacity — making *predicted >= observed* hold
    even when the raw demand estimate exceeds what the runtime can
    physically hold.
    """
    budgets = region_capacities(config)
    mode = config.reuse_mode
    put_on = mode in CACHING_MODES
    multi = put_on and mode is not ReuseMode.LOCAL_ONLY
    func_reuse = mode in (ReuseMode.FULL, ReuseMode.COARSE_ONLY)
    alignment = config.gpu.alignment
    end = len(order) - 1
    charges: list[RegionCharge] = []
    on_device: set[int] = set()

    for pos, hop in enumerate(order):
        if hop.kind == KIND_LITERAL or hop.fused:
            continue
        if hop.kind == KIND_DATA:
            if multi and hop.placement != BACKEND_CP:
                # a non-driver-resident leaf a consumer collects is
                # cached by the exchange ride-along (action reuse)
                charges.append(RegionCharge(
                    hop, REGION_CP, hop.output_bytes, pos, end, "exchange"))
            continue
        out = hop.output_bytes
        placement = hop.placement
        if put_on and (multi or placement == BACKEND_CP):
            charges.append(RegionCharge(
                hop, REGION_CP, out, pos, end, "put"))
        if placement == BACKEND_SP:
            charges.append(RegionCharge(
                hop, REGION_SPARK_STORAGE, out, pos, end, "persist"))
            if multi:
                charges.append(RegionCharge(
                    hop, REGION_SPARK_CACHE, out, pos, end, "put"))
        elif placement == BACKEND_GPU:
            charges.append(RegionCharge(
                hop, REGION_GPU, _align(out, alignment), pos, end, "alloc"))
            on_device.add(hop.id)
            for inp in hop.inputs:
                if (inp.kind == KIND_LITERAL or inp.id in on_device
                        or inp.placement == BACKEND_GPU):
                    continue
                on_device.add(inp.id)
                charges.append(RegionCharge(
                    inp, REGION_GPU, _align(inp.output_bytes, alignment),
                    pos, end, "upload"))
    if func_reuse and roots:
        # function-level reuse snapshots the block outputs under a
        # separate function key, re-charging their bytes once per block
        for root in roots:
            charges.append(RegionCharge(
                root, REGION_CP, root.output_bytes, end, end, "function"))

    demand = {name: 0 for name in PLAN_REGIONS}
    for charge in charges:
        demand[charge.region] += charge.nbytes
    if config.cache.spill_to_disk:
        # DISK receives only CP spills, each entry at most once
        demand[REGION_DISK] = demand[REGION_CP]

    peaks: dict[str, int] = {}
    for name in PLAN_REGIONS:
        budget = budgets[name]
        raw = demand[name]
        peaks[name] = raw if budget.unlimited else min(raw, budget.capacity)

    return BlockMemPlan(order=order, roots=roots, charges=charges,
                        demand=demand, peaks=peaks, budgets=budgets)


# ------------------------------------------------------------- spill scheduling

def schedule_gpu_spills(plan: BlockMemPlan,
                        config: MemphisConfig) -> Optional[list[SpillPoint]]:
    """Compute a compile-time spill schedule fitting the GPU budget.

    Sweeps the stream in order, tracking device-resident charges.  At
    the first position the block's resident bytes would exceed device
    capacity, it spills the live value with the *furthest next use*
    (Belady's choice; values with no further use win outright) that is
    not an operand of the pending instruction.  Returns ``[]`` when the
    block fits without spilling and ``None`` when no schedule exists —
    a single instruction's working set exceeds capacity, or every
    candidate victim is pinned at the overflow point.
    """
    capacity = plan.budgets[REGION_GPU].capacity
    gpu_charges = [c for c in plan.charges if c.region == REGION_GPU]
    if not gpu_charges:
        return []
    du = StreamDefUse(plan.order, plan.roots)
    by_pos: dict[int, list[RegionCharge]] = {}
    for charge in gpu_charges:
        by_pos.setdefault(charge.start, []).append(charge)

    def next_use(hop: Hop, pos: int) -> Optional[int]:
        for use in du.uses(hop):
            if use > pos:
                return use
        return None

    live: dict[int, RegionCharge] = {}
    used = 0
    spills: list[SpillPoint] = []
    for pos in sorted(by_pos):
        incoming = by_pos[pos]
        needed = sum(c.nbytes for c in incoming)
        pinned = {c.hop.id for c in incoming}
        pinned.update(inp.id for inp in plan.order[pos].inputs)
        while used + needed > capacity:
            victim: Optional[RegionCharge] = None
            victim_next: Optional[int] = None
            for charge in live.values():
                if charge.hop.id in pinned:
                    continue
                nxt = next_use(charge.hop, pos)
                if victim is None:
                    victim, victim_next = charge, nxt
                elif nxt is None and victim_next is not None:
                    victim, victim_next = charge, nxt
                elif (nxt is not None and victim_next is not None
                      and nxt > victim_next):
                    victim, victim_next = charge, nxt
            if victim is None:
                return None
            spills.append(SpillPoint(pos, victim.hop, REGION_GPU,
                                     victim.nbytes))
            used -= victim.nbytes
            del live[victim.hop.id]
        for charge in incoming:
            live[charge.hop.id] = charge
            used += charge.nbytes
    return spills


# ----------------------------------------------------------------- diagnostics

def plan_diagnostics(plan: BlockMemPlan, config: MemphisConfig,
                     owner: Optional[AnalysisPass] = None
                     ) -> list[Diagnostic]:
    """Check a plan against its budgets; attaches findings to the plan.

    Shared by the registered :class:`MemoryPlanPass` (verification
    pipeline / CLI) and ``Session.evaluate``'s ``memplan_enforce`` gate
    so both see identical findings.  Also computes and stores the GPU
    spill schedule on the plan when one is needed and allowed.
    """
    owner = owner or _DETACHED_PASS
    out: list[Diagnostic] = []
    budgets = plan.budgets
    alignment = config.gpu.alignment

    # MEM001: a single instruction's working set exceeds its execution
    # region's total capacity — no schedule can make that feasible.
    gpu_cap = budgets[REGION_GPU].capacity
    sp_cap = budgets[REGION_SPARK_STORAGE].capacity
    for pos, hop in enumerate(plan.order):
        if hop.kind != KIND_OP or hop.fused:
            continue
        if hop.placement == BACKEND_GPU:
            working = _align(hop.output_bytes, alignment) + sum(
                _align(inp.output_bytes, alignment)
                for inp in hop.inputs if inp.kind != KIND_LITERAL
            )
            if working > gpu_cap:
                out.append(owner.diag(
                    "MEM001", Severity.ERROR,
                    f"GPU working set of @{pos} is {working} B, above the "
                    f"device capacity of {gpu_cap} B",
                    hop,
                    hint="no spill schedule can fit this instruction; "
                         "shrink the operands or disable the GPU backend",
                ))
        elif hop.placement == BACKEND_SP:
            working = hop.output_bytes + sum(
                inp.output_bytes for inp in hop.inputs
                if inp.kind != KIND_LITERAL
            )
            if working > sp_cap:
                out.append(owner.diag(
                    "MEM001", Severity.ERROR,
                    f"Spark working set of @{pos} is {working} B, above "
                    f"the aggregate storage memory of {sp_cap} B",
                    hop,
                    hint="raise spark.num_executors/executor_memory or "
                         "repartition the pipeline",
                ))

    # MEM002: execution-region liveness peak over capacity.  The GPU is
    # the only execution region this runtime can overflow mid-block
    # (driver ops run on unpooled host memory; the block manager spills
    # partitions to executor disk transparently).
    gpu_demand = plan.demand[REGION_GPU]
    if gpu_demand > gpu_cap:
        schedule = schedule_gpu_spills(plan, config) \
            if config.memplan_spills else None
        plan.gpu_spills = schedule
        if schedule:
            out.append(owner.diag(
                "MEM002", Severity.WARNING,
                f"GPU resident peak of {gpu_demand} B exceeds the device "
                f"capacity of {gpu_cap} B; feasible with "
                f"{len(schedule)} pre-scheduled spill(s)",
                plan.order[schedule[0].pos],
                hint="planned spills: " + "; ".join(
                    sp.describe() for sp in schedule),
            ))
        else:
            reason = ("memplan_spills is disabled"
                      if not config.memplan_spills
                      else "every candidate victim is pinned at the "
                           "overflow point")
            out.append(owner.diag(
                "MEM002", Severity.ERROR,
                f"GPU resident peak of {gpu_demand} B exceeds the device "
                f"capacity of {gpu_cap} B and no spill schedule exists "
                f"({reason})",
                None,
                hint="enable memplan_spills, shrink the block, or raise "
                     "gpu.device_memory",
            ))
    else:
        plan.gpu_spills = []

    # MEM003: sticky cache-tier demand over capacity — the runtime
    # stays correct (eviction/spill) but churns; flag it for tuning.
    for name, label, hint in (
        (REGION_CP, "driver lineage cache",
         "raise cache.driver_cache_bytes or lower the reuse mode"),
        (REGION_SPARK_CACHE, "Spark reuse cache",
         "raise cache.spark_cache_fraction or executor memory"),
        (REGION_SPARK_STORAGE, "Spark storage memory",
         "partitions will spill to executor disk; raise executor memory"),
    ):
        budget = budgets[name]
        if budget.unlimited:
            continue
        if plan.demand[name] > budget.capacity:
            extra = ""
            if name == REGION_CP and config.cache.spill_to_disk:
                disk = budgets[REGION_DISK]
                volume = min(plan.demand[name] - budget.capacity,
                             disk.capacity)
                extra = (f"; up to {volume} B will spill to the disk tier")
            out.append(owner.diag(
                "MEM003", Severity.WARNING,
                f"{label} demand of {plan.demand[name]} B exceeds its "
                f"capacity of {budget.capacity} B: eviction churn "
                f"predicted{extra}",
                None, hint=hint,
            ))

    # MEM005: planned CP spill volume over the DISK budget.
    disk_budget = budgets[REGION_DISK]
    if (config.cache.spill_to_disk
            and plan.demand[REGION_DISK] > disk_budget.capacity):
        out.append(owner.diag(
            "MEM005", Severity.WARNING,
            f"worst-case CP spill volume of {plan.demand[REGION_DISK]} B "
            f"exceeds the disk tier budget of {disk_budget.capacity} B: "
            "the spill tier will drop the overflow",
            None, hint="raise cache.disk_cache_bytes",
        ))

    # MEM004: watermark pressure — fires only in the band between the
    # watermark and the capacity, so it never overlaps MEM002/MEM003
    # (which require demand strictly above capacity).
    for name in PLAN_REGIONS:
        budget = budgets[name]
        if budget.unlimited or budget.capacity <= 0:
            continue
        demand = plan.demand[name]
        if (demand <= budget.capacity
                and demand >= PRESSURE_WATERMARK * budget.capacity):
            out.append(owner.diag(
                "MEM004", Severity.INFO,
                f"{name} predicted peak of {demand} B is within "
                f"{100 - int(PRESSURE_WATERMARK * 100)}% of its "
                f"{budget.capacity} B capacity",
                None,
            ))
    plan.diagnostics = out
    return out


@register_pass
class MemoryPlanPass(AnalysisPass):
    """Static memory planner: peak footprint vs region budgets (MEM001+).

    Derives every byte charge one block can make against the six
    memory regions, checks single-instruction working sets and block
    liveness peaks against the configured capacities, and — when a
    region overflows — computes the compile-time spill schedule that
    would make the block feasible (see module docstring for the rule
    catalog and ``docs/ANALYSIS.md`` for examples).
    """

    name = "memory-plan"
    runs_on = "stream"

    def run(self, ctx: AnalysisContext) -> list[Diagnostic]:
        assert ctx.order is not None
        plan = plan_block(ctx.roots, ctx.order, ctx.config)
        return plan_diagnostics(plan, ctx.config, self)


class _Detached(AnalysisPass):
    """Diagnostic owner when planning runs outside the pass manager."""

    name = "memory-plan"
    runs_on = "stream"


_DETACHED_PASS = _Detached()


# ------------------------------------------------------- session-level planner

class SessionMemPlanner:
    """Accumulates one session's predicted peaks across its blocks.

    Cache tiers and the GPU pool are sticky across blocks (see
    ``STICKY_REGIONS``), so the session-level predicted peak of a
    region is the capacity-clamped *cumulative* demand of every block
    planned so far.  ``observe`` records the runtime's actual
    ``MemoryRegion.peak_used`` watermarks after each block, making
    predicted-vs-observed comparable in one place
    (``Session.explain(level="runtime")``, the ``--memplan`` CLI, and
    the upper-bound tests).
    """

    def __init__(self, config: MemphisConfig) -> None:
        self.config = config
        self.budgets = region_capacities(config)
        self.blocks = 0
        #: raw cumulative demand per region across planned blocks.
        self.cumulative: dict[str, int] = {n: 0 for n in PLAN_REGIONS}
        #: capacity-clamped session-level predicted peak per region.
        self.predicted: dict[str, int] = {n: 0 for n in PLAN_REGIONS}
        #: max observed ``peak_used`` per region across ``observe`` calls.
        self.observed: dict[str, int] = {n: 0 for n in PLAN_REGIONS}
        self.last_plan: Optional[BlockMemPlan] = None

    def plan(self, roots: list[Hop], order: list[Hop]) -> BlockMemPlan:
        """Plan one block and fold its demand into the session totals."""
        plan = plan_block(roots, order, self.config)
        plan_diagnostics(plan, self.config)
        self.absorb(plan)
        return plan

    def absorb(self, plan: BlockMemPlan) -> None:
        self.blocks += 1
        self.last_plan = plan
        for name in PLAN_REGIONS:
            if name in STICKY_REGIONS:
                self.cumulative[name] += plan.demand[name]
            else:
                self.cumulative[name] = max(self.cumulative[name],
                                            plan.demand[name])
            budget = self.budgets[name]
            raw = self.cumulative[name]
            self.predicted[name] = (
                raw if budget.unlimited else min(raw, budget.capacity)
            )

    def observe(self, arbiter: "MemoryArbiter") -> None:
        """Record the runtime's per-region peak watermarks."""
        for snap in arbiter.snapshot():
            name = snap["region"]
            if name in self.observed:
                self.observed[name] = max(self.observed[name],
                                          int(snap["peak_used"]))

    def check_bounds(self) -> list[tuple[str, int, int, bool]]:
        """``(region, predicted, observed, ok)`` rows; ok = upper bound."""
        return [
            (name, self.predicted[name], self.observed[name],
             self.predicted[name] >= self.observed[name])
            for name in PLAN_REGIONS
        ]


# ------------------------------------------------------------ ambient collector

class MemplanCollector:
    """Ambient collector activating planning for every session in scope.

    Mirrors the ``AnalysisCollector`` pattern: installing one makes
    every subsequently constructed :class:`~repro.core.session.Session`
    plan its blocks (as if ``config.memplan`` were set) and register
    its :class:`SessionMemPlanner` here, keyed by a session label, so
    tools can compare predicted vs observed peaks across a whole
    workload run.
    """

    def __init__(self) -> None:
        #: (label, planner, weak session ref) per registered session.
        self.entries: list[tuple[str, SessionMemPlanner, object]] = []

    def register(self, session: "Session",
                 planner: SessionMemPlanner) -> None:
        label = f"{session.config.reuse_mode.value}#{len(self.entries)}"
        self.entries.append((label, planner, weakref.ref(session)))

    def planners(self) -> list[tuple[str, SessionMemPlanner]]:
        return [(label, planner) for label, planner, _ in self.entries]

    def check_bounds(self) -> list[tuple[str, str, int, int, bool]]:
        """Flattened ``(label, region, predicted, observed, ok)`` rows."""
        out: list[tuple[str, str, int, int, bool]] = []
        for label, planner, _ in self.entries:
            for name, pred, obs, ok in planner.check_bounds():
                out.append((label, name, pred, obs, ok))
        return out


_COLLECTOR: Optional[MemplanCollector] = None


def install_memplan_collector(collector: MemplanCollector) -> None:
    global _COLLECTOR
    _COLLECTOR = collector


def uninstall_memplan_collector() -> None:
    global _COLLECTOR
    _COLLECTOR = None


def current_memplan_collector() -> Optional[MemplanCollector]:
    return _COLLECTOR


@contextmanager
def planning() -> Iterator[MemplanCollector]:
    """Ambient scope: sessions created inside plan every block."""
    collector = MemplanCollector()
    install_memplan_collector(collector)
    try:
        yield collector
    finally:
        uninstall_memplan_collector()


# -------------------------------------------------------------------- rendering

def _fmt_bytes(nbytes: int) -> str:
    size = float(nbytes)
    for unit in ("B", "KB", "MB", "GB"):
        if size < 1024.0 or unit == "GB":
            return f"{size:.1f} {unit}" if unit != "B" \
                else f"{int(size)} B"
        size /= 1024.0
    return f"{int(nbytes)} B"


def format_footprint_table(plan: BlockMemPlan) -> str:
    """Per-hop / per-region footprint table of one block's plan."""
    by_hop = plan.charges_by_hop()
    regions = [n for n in PLAN_REGIONS if plan.demand[n] > 0]
    if not regions or not by_hop:
        return "memory plan: no region charges in this block"
    header = f"  {'hop':>5}  {'opcode':<12}" + "".join(
        f"{name:>12}" for name in regions)
    lines = ["memory plan (per-hop charges, worst case):", header]
    for hop in plan.order:
        per = by_hop.get(hop.id)
        if not per:
            continue
        cells = "".join(
            f"{_fmt_bytes(per[name]):>12}" if name in per else f"{'-':>12}"
            for name in regions
        )
        lines.append(f"  #{hop.id:>4}  {hop.opcode:<12}{cells}")
    total = "".join(f"{_fmt_bytes(plan.demand[n]):>12}" for n in regions)
    peak = "".join(f"{_fmt_bytes(plan.peaks[n]):>12}" for n in regions)
    cap = "".join(
        ("unlimited".rjust(12) if plan.budgets[n].unlimited
         else f"{_fmt_bytes(plan.budgets[n].capacity):>12}")
        for n in regions
    )
    lines.append(f"  {'':>5}  {'demand':<12}{total}")
    lines.append(f"  {'':>5}  {'peak':<12}{peak}")
    lines.append(f"  {'':>5}  {'capacity':<12}{cap}")
    if plan.gpu_spills:
        lines.append("  pre-scheduled spills: "
                     + "; ".join(sp.describe() for sp in plan.gpu_spills))
    return "\n".join(lines)


def format_region_peaks(predicted: Optional[dict[str, int]],
                        observed: Optional[dict[str, int]] = None,
                        budgets: Optional[dict[str, RegionBudget]] = None
                        ) -> str:
    """Predicted (and optionally observed) peak table per region."""
    lines = ["region peaks:"]
    header = f"  {'region':<10}"
    if predicted is not None:
        header += f"{'predicted':>14}"
    if observed is not None:
        header += f"{'observed':>14}"
        if predicted is not None:
            header += f"{'bound':>8}"
    if budgets is not None:
        header += f"{'capacity':>14}"
    lines.append(header)
    for name in PLAN_REGIONS:
        row = f"  {name:<10}"
        if predicted is not None:
            row += f"{_fmt_bytes(predicted.get(name, 0)):>14}"
        if observed is not None:
            obs = observed.get(name, 0)
            row += f"{_fmt_bytes(obs):>14}"
            if predicted is not None:
                ok = predicted.get(name, 0) >= obs
                row += f"{'ok' if ok else 'LOW':>8}"
        if budgets is not None:
            budget = budgets.get(name) if budgets else None
            if budget is not None:
                row += ("unlimited".rjust(14) if budget.unlimited
                        else f"{_fmt_bytes(budget.capacity):>14}")
        lines.append(row)
    return "\n".join(lines)
