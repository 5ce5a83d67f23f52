"""Configuration for the MEMPHIS reproduction.

Defaults follow the paper's experimental setting (§6.1, Table 2), scaled
down by :data:`SCALE` so that simulated experiments run in seconds on a
laptop while preserving all memory-pressure and bandwidth ratios.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


GB = 1024**3
MB = 1024**2
KB = 1024

#: Global downscaling factor applied to the paper's memory budgets.  The
#: paper uses 256 GB nodes; dividing budgets by this factor keeps every
#: ratio (cache : buffer pool : operation memory) intact while letting the
#: simulation allocate real numpy arrays.
SCALE = 1024


class ReuseMode(enum.Enum):
    """Which reuse capability is enabled (maps to the paper's baselines)."""

    NONE = "none"  #: Base — no tracing, no reuse.
    TRACE_ONLY = "trace"  #: lineage tracing enabled, no cache probes.
    PROBE_ONLY = "probe"  #: tracing + probing, but nothing is ever cached.
    FULL = "full"  #: MEMPHIS multi-level, multi-backend reuse.
    LOCAL_ONLY = "local"  #: LIMA — eager caching of local CPU results only.
    COARSE_ONLY = "coarse"  #: HELIX — function-level (coarse) reuse only.
    OPERATOR_ONLY = "fine"  #: MPH-F — fine-grained only, no function reuse.


#: modes whose interpreter issues REUSE probes (ablation axis, §6.2).
PROBING_MODES = frozenset({
    ReuseMode.PROBE_ONLY, ReuseMode.FULL,
    ReuseMode.LOCAL_ONLY, ReuseMode.OPERATOR_ONLY,
})

#: modes whose PUT stage offers results to the lineage cache (§6.2).
CACHING_MODES = frozenset({
    ReuseMode.FULL, ReuseMode.LOCAL_ONLY, ReuseMode.OPERATOR_ONLY,
})


class EvictionPolicyName(enum.Enum):
    """Cache eviction policy selector (Eq. 1 plus ablation baselines)."""

    COST_SIZE = "cost_size"  #: paper Eq. 1 / Eq. 2 (default).
    LRU = "lru"
    LRC = "lrc"  #: least reference count (DAG-aware Spark baseline).
    MRD = "mrd"  #: most reference distance.


#: ambient per-region policy overrides installed by the harness CLI
#: (``--policy`` / ``--gpu-policy`` / ``--spark-policy``); applied to
#: every :class:`MemphisConfig` constructed while installed, so the
#: experiment drivers (which build their configs internally) pick the
#: selected policies up without plumbing.
_POLICY_OVERRIDES: dict[str, "EvictionPolicyName"] = {}


def install_policy_overrides(policy: "EvictionPolicyName | None" = None,
                             gpu_policy: "EvictionPolicyName | None" = None,
                             spark_policy: "EvictionPolicyName | None" = None,
                             ) -> None:
    """Install ambient eviction-policy selections (harness CLI)."""
    if policy is not None:
        _POLICY_OVERRIDES["policy"] = policy
    if gpu_policy is not None:
        _POLICY_OVERRIDES["gpu_policy"] = gpu_policy
    if spark_policy is not None:
        _POLICY_OVERRIDES["spark_policy"] = spark_policy


def clear_policy_overrides() -> None:
    """Remove all ambient policy overrides."""
    _POLICY_OVERRIDES.clear()


#: ambient fusion switch installed by the harness CLI (``--fusion``) and
#: the benchmark gates; like the policy overrides it is applied to every
#: :class:`MemphisConfig` constructed while installed, so experiment
#: drivers that build their configs internally pick it up.
_FUSION_OVERRIDE: list[bool] = []


def install_fusion_override(enabled: bool = True) -> None:
    """Ambiently force ``enable_fusion`` on every new config."""
    _FUSION_OVERRIDE.clear()
    _FUSION_OVERRIDE.append(enabled)


def clear_fusion_override() -> None:
    """Remove the ambient fusion override."""
    _FUSION_OVERRIDE.clear()


class StorageLevel(enum.Enum):
    """Spark RDD persistence levels (subset used by the paper)."""

    MEMORY_ONLY = "MEMORY_ONLY"
    MEMORY_AND_DISK = "MEMORY_AND_DISK"
    DISK_ONLY = "DISK_ONLY"


@dataclass
class SparkConfig:
    """Spark cluster simulator parameters (paper §6.1, Table 2)."""

    num_executors: int = 8
    cores_per_executor: int = 24
    executor_memory: int = 230 * GB // SCALE
    driver_memory: int = 38 * GB // SCALE
    #: unified region fraction (Spark default 0.6 of heap).
    unified_memory_fraction: float = 0.6
    #: of the unified region, the half reserved for storage (cached RDDs).
    storage_fraction: float = 0.5
    #: host-to-cluster bandwidth, Table 2: 15 GB/s.
    bandwidth_bytes_per_s: float = 15 * GB
    #: per-task scheduling overhead (s) — models DAGScheduler latency.
    task_overhead_s: float = 2e-3
    #: per-job submission overhead (s).
    job_overhead_s: float = 10e-3
    #: per-byte cost of a shuffle (read+write, both sides).
    shuffle_bytes_per_s: float = 4 * GB
    #: per-byte cost of executor-local disk for spilled partitions.
    disk_bytes_per_s: float = 1 * GB
    #: default rows per partition block (squared blocking in SystemDS).
    block_size_rows: int = 1024
    #: eviction order of the BlockManager's storage region (the
    #: ``SP_BLOCKS`` memory region); Spark's native behaviour is LRU
    #: over cached partitions.
    policy: EvictionPolicyName = EvictionPolicyName.LRU
    broadcast_chunk_bytes: int = 4 * MB
    #: effective per-core executor compute throughput.
    executor_flops_per_s: float = 60e9
    executor_mem_bandwidth_bytes_per_s: float = 100 * GB

    @property
    def storage_memory(self) -> int:
        """Bytes of storage region per executor."""
        return int(
            self.executor_memory
            * self.unified_memory_fraction
            * self.storage_fraction
        )

    @property
    def execution_memory(self) -> int:
        """Bytes of execution region per executor."""
        return int(
            self.executor_memory
            * self.unified_memory_fraction
            * (1.0 - self.storage_fraction)
        )


@dataclass
class GpuConfig:
    """GPU device simulator parameters (NVIDIA A40-like, §6.1)."""

    device_memory: int = 48 * GB // SCALE
    #: pageable host-to-device bandwidth, Table 2: 6.1 GB/s.
    h2d_bandwidth_bytes_per_s: float = 6.1 * GB
    d2h_bandwidth_bytes_per_s: float = 6.1 * GB
    #: effective device compute throughput for dense FLOPs.
    flops_per_s: float = 37e12
    #: device memory bandwidth for memory-bound kernels.
    mem_bandwidth_bytes_per_s: float = 696 * GB
    #: fixed cost of cudaMalloc (device sync + driver call); calibrated
    #: so alloc+free is ~4.6x a small kernel's runtime (Fig. 2(d)).
    malloc_latency_s: float = 8e-6
    #: fixed cost of cudaFree (forces a device synchronization).
    free_latency_s: float = 15e-6
    #: fixed kernel launch latency.
    kernel_launch_s: float = 5e-6
    #: allocation alignment (CUDA allocates in 512 B granules).
    alignment: int = 512
    #: minimum output cells before an op is worth offloading to the GPU.
    min_cells: int = 512
    #: eviction order of the unified GPU memory manager's free lists
    #: (the ``GPU`` memory region); the default ``cost_size`` is the
    #: paper's Eq. 2 pointer scoring.
    policy: EvictionPolicyName = EvictionPolicyName.COST_SIZE


@dataclass
class CpuConfig:
    """Local CPU backend parameters."""

    #: effective CPU throughput for dense FLOPs (multi-threaded BLAS).
    flops_per_s: float = 1.5e12
    mem_bandwidth_bytes_per_s: float = 100 * GB
    #: fixed per-instruction interpretation overhead (s) — the paper's
    #: Fig. 11(a) shows this dominates for tiny inputs.
    instruction_overhead_s: float = 3e-6
    #: lineage tracing overhead per instruction (Fig. 11: ~1.3x base).
    trace_overhead_s: float = 1e-6
    #: cache probing overhead per instruction (Fig. 11: ~2x base).
    probe_overhead_s: float = 2e-6
    #: buffer pool budget (paper: 20 GB).
    buffer_pool_bytes: int = 20 * GB // SCALE
    #: eviction order of the buffer pool (the ``CPU_BP`` memory region);
    #: SystemDS's buffer pool is LRU over unpinned blocks.
    policy: EvictionPolicyName = EvictionPolicyName.LRU
    #: operation memory: ops estimated above this go to Spark (paper: 7 GB).
    operation_memory_bytes: int = 7 * GB // SCALE
    disk_bytes_per_s: float = 1 * GB


@dataclass
class CacheConfig:
    """Lineage cache configuration (paper §6.1 memory configurations)."""

    #: driver-side lineage cache budget (paper: 5 GB).
    driver_cache_bytes: int = 5 * GB // SCALE
    #: fraction of Spark storage memory usable for reuse (paper: 80%).
    spark_cache_fraction: float = 0.8
    #: delay factor n — defer caching until the n-th hit (§5.2); tuned
    #: per block by the automatic parameter tuning rewrite.
    delay_factor: int = 1
    #: number of cache misses on an unmaterialized RDD before an async
    #: count() job materializes it (§4.1, default three).
    async_materialize_after_misses: int = 3
    policy: EvictionPolicyName = EvictionPolicyName.COST_SIZE
    #: eviction order of the Spark tier of the lineage cache (the
    #: ``SP_CACHE`` region); ``None`` inherits ``policy``.
    spark_policy: EvictionPolicyName | None = None
    #: disable all eviction (the 40%INF setting of Fig. 11(b)).
    unlimited: bool = False
    #: spill evicted driver-cache entries to local disk instead of
    #: dropping them ("disk-evicted binaries", §3.3); entries whose
    #: compute-cost-to-size ratio is below the write-cost break-even are
    #: still dropped.
    spill_to_disk: bool = True
    #: local-disk budget for spilled cache binaries.
    disk_cache_bytes: int = 100 * GB // SCALE


@dataclass
class MemphisConfig:
    """Top-level configuration of a session."""

    reuse_mode: ReuseMode = ReuseMode.FULL
    spark: SparkConfig = field(default_factory=SparkConfig)
    gpu: GpuConfig = field(default_factory=GpuConfig)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    gpu_enabled: bool = False
    spark_enabled: bool = True
    #: compiler switches (all on for MPH; Base-A enables only async ops).
    enable_async_ops: bool = True
    enable_checkpoint_rewrite: bool = True
    enable_eviction_injection: bool = True
    enable_delayed_caching: bool = True
    enable_auto_tuning: bool = True
    enable_max_parallelize: bool = True
    enable_cse: bool = True
    #: reuse-aware operator fusion (``repro.compiler.rewrites.fusion``):
    #: when True, chains of cell-wise ops (and matmul epilogues) whose
    #: intermediates the lineage cache does not want to retain are merged
    #: into single fused instructions.  Off by default: fusion only fires
    #: when the reuse mode neither probes nor caches (NONE/TRACE_ONLY),
    #: since fused interiors produce no probeable lineage entries.
    enable_fusion: bool = False
    #: GPU allocator mode: "malloc" | "pool" | "memphis"; None derives it
    #: from the reuse mode (Base -> malloc, MEMPHIS -> memphis).
    gpu_memory_mode: str | None = None
    #: structured tracing (``repro.obs``): when True the session records
    #: spans and typed events (instructions, probes, evictions, Spark
    #: jobs, GPU copies, ...) into an in-memory ring buffer, exportable
    #: as JSONL or a Chrome/Perfetto trace.  Off by default — the
    #: disabled path is a single attribute check per potential event.
    trace_enabled: bool = False
    #: ring-buffer capacity (events) when tracing is enabled.
    trace_buffer: int = 1 << 18
    #: metrics time-series (``repro.obs.metrics``): when True the session
    #: samples gauge series (region occupancy, cache hit-rate windows,
    #: Spark storage fraction, GPU residency/recycle rate, instruction
    #: throughput) on the sim clock.  Off by default — the disabled path
    #: is a single attribute check per instruction.
    metrics_enabled: bool = False
    #: sampling period when metrics are enabled, in executed instructions.
    metrics_interval: int = 8
    #: plan-level EXPLAIN capture (``repro.obs.explain``): when True the
    #: session snapshots every compiled block (post-rewrite DAG +
    #: linearized order) so ``Session.explain()`` can render them later.
    explain_capture: bool = False
    #: static IR verification (``repro.analysis``): when True every
    #: compiled block is run through the analysis pass pipeline after
    #: rewrites + linearization and the session raises
    #: :class:`~repro.common.errors.VerificationError` on any
    #: error-severity diagnostic before executing the stream.
    verify_ir: bool = False
    #: static memory planning (``repro.analysis.memplan``): when True
    #: every compiled block's per-region peak footprint is derived at
    #: compile time, bulk-reserved through
    #: ``MemoryArbiter.reserve_plan`` before execution (cancelled if
    #: verification fails), and compared against the observed
    #: ``MemoryRegion.peak_used`` watermarks.  Planning never changes
    #: results — only reservations, diagnostics, and (see
    #: ``memplan_spills``) pre-scheduled spills that avert device OOM.
    memplan: bool = False
    #: when True (with ``memplan``), a block whose plan carries
    #: MEM-family *error* diagnostics is rejected before execution with
    #: :class:`~repro.common.errors.VerificationError`, independent of
    #: ``verify_ir`` (compile-time admission control).
    memplan_enforce: bool = False
    #: whether the planner may schedule compile-time spill points for
    #: blocks whose execution-region liveness peak exceeds capacity
    #: (paper: "Memory Safe Computations with XLA", PAPERS.md).  When
    #: True such blocks are *feasible* (MEM002 downgrades to a warning
    #: carrying the spill schedule, and the interpreter executes the
    #: scheduled device-to-host spills); when False they are infeasible
    #: and MEM002 is an error.
    memplan_spills: bool = True
    #: fault injection (``repro.faults``): a ``FaultPlan`` scheduling
    #: deterministic failures (task loss, GPU alloc failure, federated
    #: timeouts, spill I/O errors, ...) that the recovery machinery must
    #: absorb.  ``None`` (default) falls back to the ambient plan
    #: installed by the harness ``--faults`` flag, else no injection;
    #: typed as ``object`` to keep this module import-light.
    faults: object | None = None
    #: RNG seed for the framework's own randomized choices.
    seed: int = 42

    def __post_init__(self) -> None:
        # Ambient policy overrides reach configs the experiment drivers
        # build internally, without threading a parameter through every
        # classmethod constructor.
        policy = _POLICY_OVERRIDES.get("policy")
        if policy is not None:
            self.cache.policy = policy
        gpu_policy = _POLICY_OVERRIDES.get("gpu_policy")
        if gpu_policy is not None:
            self.gpu.policy = gpu_policy
        spark_policy = _POLICY_OVERRIDES.get("spark_policy")
        if spark_policy is not None:
            self.cache.spark_policy = spark_policy
            self.spark.policy = spark_policy
        if _FUSION_OVERRIDE:
            self.enable_fusion = _FUSION_OVERRIDE[0]

    @classmethod
    def base(cls, **kw) -> "MemphisConfig":
        """Paper baseline *Base*: no reuse, no MEMPHIS compiler passes."""
        return cls(
            reuse_mode=ReuseMode.NONE,
            enable_async_ops=False,
            enable_checkpoint_rewrite=False,
            enable_eviction_injection=False,
            enable_delayed_caching=False,
            enable_auto_tuning=False,
            enable_max_parallelize=False,
            **kw,
        )

    @classmethod
    def base_async(cls, **kw) -> "MemphisConfig":
        """Paper baseline *Base-A*: async operators, still no reuse."""
        cfg = cls.base(**kw)
        cfg.enable_async_ops = True
        cfg.enable_max_parallelize = True
        return cfg

    @classmethod
    def lima(cls, **kw) -> "MemphisConfig":
        """Paper baseline *LIMA*: eager local-only fine-grained reuse."""
        cfg = cls.base(**kw)
        cfg.reuse_mode = ReuseMode.LOCAL_ONLY
        return cfg

    @classmethod
    def helix(cls, **kw) -> "MemphisConfig":
        """Paper baseline *HELIX*: coarse-grained (function-level) reuse."""
        cfg = cls.base(**kw)
        cfg.reuse_mode = ReuseMode.COARSE_ONLY
        return cfg

    @classmethod
    def memphis(cls, **kw) -> "MemphisConfig":
        """Full MEMPHIS (MPH): all reuse and compiler optimizations."""
        return cls(reuse_mode=ReuseMode.FULL, **kw)

    @classmethod
    def memphis_no_async(cls, **kw) -> "MemphisConfig":
        """MPH-NA: full reuse but without asynchronous operators."""
        cfg = cls.memphis(**kw)
        cfg.enable_async_ops = False
        cfg.enable_max_parallelize = False
        return cfg

    @classmethod
    def memphis_fine_only(cls, **kw) -> "MemphisConfig":
        """MPH-F: operator-at-a-time reuse, multi-level reuse disabled."""
        cfg = cls.memphis(**kw)
        cfg.reuse_mode = ReuseMode.OPERATOR_ONLY
        return cfg

    @classmethod
    def server_session(cls, **kw) -> "MemphisConfig":
        """Per-session config for the multi-tenant server (``repro.server``).

        Full MEMPHIS reuse plus static memory planning: the planner's
        per-block peak demands are what the shared substrate's strict
        admission gate (``SessionContext.admit``) reserves against.
        Without a plan there is nothing to admit, so quota enforcement
        would degrade to put-time shaping only.
        """
        cfg = cls.memphis(**kw)
        cfg.memplan = True
        return cfg
