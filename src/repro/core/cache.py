"""The hierarchical multi-backend lineage cache (paper §3.3, Fig. 3).

A hash map from lineage items to :class:`CacheEntry` objects whose
payloads live in backend-local stores: in-memory matrices in the driver
(budgeted by the driver cache size), distributed RDD handles (budgeted
against Spark storage memory by the :class:`SparkCacheManager`), and GPU
pointers (owned by the GPU unified memory manager, which calls back on
recycling).  The cache implements the system-internal API of §3.1:
``probe/reuse``, ``put``, and ``make_space``, plus delayed caching
(§5.2).

Byte accounting and victim selection are delegated to the shared
:class:`~repro.memory.arbiter.MemoryArbiter`: the driver tier is the
``CP`` region, spilled binaries live in the ``DISK`` region, and the
spill-vs-drop break-even (§3.3) is the arbiter's spill model.  The
``CP`` candidates come from a :class:`~repro.core.victims.VictimIndex`
rather than a scan of every entry.  The cache keeps only the physics —
payload movement, simulated disk I/O time, and lineage bookkeeping.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.config import CacheConfig
from repro.common.stats import (
    CACHE_DELAYED,
    CACHE_EVICTIONS,
    CACHE_HITS,
    CACHE_MISSES,
    CACHE_PUTS,
    CACHE_RESTORES,
    CACHE_SPILLS,
    LINEAGE_PROBES,
    Stats,
)
from repro.core.entry import BACKEND_CP, BACKEND_GPU, BACKEND_SP, CacheEntry, EntryStatus
from repro.core.policies import EvictionPolicy, make_policy
from repro.core.victims import VictimIndex
from repro.lineage.item import LineageItem
from repro.memory import REGION_CP, REGION_DISK, MemoryArbiter
from repro.obs.events import (
    EV_CACHE_DELAY,
    EV_CACHE_EVICT,
    EV_CACHE_PUT,
    EV_CACHE_RESTORE,
    EV_CACHE_SPILL,
    EV_PROBE,
)
from repro.obs.tracer import NULL_TRACER


#: payload tag for driver-local entries spilled to disk.
BACKEND_DISK = "DISK"


class LineageCache:
    """Unified lineage-keyed cache across CP, Spark, GPU, and local disk.

    When a ``clock`` is provided, evicted driver entries whose compute
    cost exceeds the disk round-trip cost are *spilled* to a simulated
    local disk instead of dropped ("disk-evicted binaries", §3.3); a
    later probe restores them, charging the read.
    """

    def __init__(self, config: CacheConfig, stats: Stats,
                 policy: Optional[EvictionPolicy] = None,
                 clock=None,
                 disk_bytes_per_s: float = 1024**3,
                 flops_per_s: float = 1.5e12,
                 tracer=None, faults=None, arbiter=None) -> None:
        self.config = config
        self.stats = stats
        self.policy = policy or make_policy(config.policy)
        self.clock = clock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if arbiter is None:
            arbiter = MemoryArbiter(stats, tracer=self.tracer, faults=faults)
        self.arbiter: MemoryArbiter = arbiter
        self.faults = faults if faults is not None else arbiter.faults
        self.disk_bytes_per_s = disk_bytes_per_s
        self.flops_per_s = flops_per_s
        self._cp_region = arbiter.add_region(
            REGION_CP, config.driver_cache_bytes,
            policy=self.policy, unlimited=config.unlimited,
        )
        self._disk_region = arbiter.add_region(
            REGION_DISK, config.disk_cache_bytes,
        )
        arbiter.configure_spill(
            REGION_CP,
            enabled=config.spill_to_disk and clock is not None,
            disk_region=REGION_DISK,
            bytes_per_s=disk_bytes_per_s,
            flops_per_s=flops_per_s,
        )
        arbiter.register_residency(REGION_CP, self.has_host_copy_for)
        self._entries: dict[LineageItem, CacheEntry] = {}
        self._created = 0
        #: CP victim selection (``repro.core.victims``).
        self._victims = VictimIndex(self._entries, self.policy)
        self._logical_time = 0
        #: GPU pointer id -> entry, for invalidation callbacks.
        self._gpu_index: dict[int, CacheEntry] = {}
        #: hook invoked when a CP payload is evicted (e.g. for disk spill).
        self.on_cp_evict: Optional[Callable[[CacheEntry], None]] = None
        #: per-put delay factor override (set per block by auto-tuning).
        self.delay_factor = config.delay_factor
        #: active session scope on a *shared* cache (``repro.server``):
        #: a ``SessionContext`` namespacing keys and enforcing tenant
        #: fair share.  ``None`` on private caches — the hot path then
        #: pays exactly one attribute check per probe/put.
        self._scope = None

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def cp_bytes(self) -> int:
        """Bytes held by driver-local (CP) payloads."""
        return self._cp_region.used

    def entries(self) -> list[CacheEntry]:
        return list(self._entries.values())

    def metrics_gauges(self) -> dict[str, float]:
        """Gauge snapshot for the metrics sampler (``repro.obs.metrics``)."""
        return {
            "cache/entries": float(len(self._entries)),
            "cache/cp_bytes": float(self.cp_bytes),
            "cache/disk_bytes": float(self.disk_bytes),
        }

    def get_entry(self, key: LineageItem) -> Optional[CacheEntry]:
        """Raw entry lookup without hit/miss accounting."""
        scope = self._scope
        if scope is not None:
            key = scope.namespaced(key)
        return self._entries.get(key)

    # -- core API (paper §3.1) --------------------------------------------------

    def probe(self, key: LineageItem) -> Optional[CacheEntry]:
        """REUSE probe: returns the entry on a hit, ``None`` otherwise.

        A hit requires a CACHED entry; placeholders (delayed caching) and
        evicted entries count as misses but update reference metadata used
        by the eviction policy.
        """
        scope = self._scope
        if scope is not None:
            key = scope.namespaced(key)
        self._logical_time += 1
        self.stats.inc(LINEAGE_PROBES)
        if scope is not None:
            # per-tenant probe tally feeds the server SLO hit-rate rows
            scope.substrate.note_tenant_event(scope.tenant, "probes")
        entry = self._entries.get(key)
        if entry is None:
            self.stats.inc(CACHE_MISSES)
            self._trace_probe(key, hit=False)
            return None
        entry.last_access = self._logical_time
        if scope is not None and not scope.usable(entry):
            # another session's entry without a host-side copy: its
            # Spark/GPU payloads are bound to the owner's backends
            entry.misses += 1
            self.stats.inc(CACHE_MISSES)
            self._trace_probe(key, hit=False)
            return None
        if entry.is_cached:
            entry.hits += 1
            self.stats.inc(CACHE_HITS)
            if scope is not None:
                scope.note_hit(entry)
            self._trace_probe(key, hit=True)
            return entry
        if entry.status is EntryStatus.SPILLED \
                and BACKEND_DISK in entry.payloads:
            restored = self._restore_from_disk(entry)
            if restored:
                entry.hits += 1
                self.stats.inc(CACHE_HITS)
                if scope is not None:
                    scope.note_hit(entry)
                self._trace_probe(key, hit=True, restored=True)
                return entry
        entry.misses += 1
        self.stats.inc(CACHE_MISSES)
        self._trace_probe(key, hit=False)
        return None

    def _trace_probe(self, key: LineageItem, hit: bool, **extra) -> None:
        if self.tracer.enabled:
            self.tracer.instant(EV_PROBE, hit=hit, opcode=key.opcode,
                                key=key.id, **extra)

    def put(self, key: LineageItem, payload: object, backend: str,
            size: int, compute_cost: float,
            delay_factor: Optional[int] = None) -> Optional[CacheEntry]:
        """PUT: store an instruction result under its lineage key.

        With delay factor *n* > 1, the first *n - 1* puts only create or
        bump an empty TO-BE-CACHED placeholder; the n-th put stores the
        actual object (paper §5.2, implemented as the arbiter's region
        admission policy).  Returns the entry when the payload was
        actually cached, else ``None``.
        """
        scope = self._scope
        if scope is not None:
            key = scope.namespaced(key)
        now = self._logical_time = self._logical_time + 1
        n = self.delay_factor if delay_factor is None else delay_factor
        entries = self._entries
        entry = entries.get(key)
        if entry is None:
            entry = CacheEntry(key, compute_cost, size)
            if scope is not None:
                entry.owner = scope.uid
                entry.tenant = scope.tenant
                request = scope.request
                if request is not None:
                    entry.request = request.request_id
            self._created += 1
            entry.seq = self._created
            entries[key] = entry
        entry.seen_count += 1
        entry.last_access = now
        if not self.arbiter.admit(REGION_CP, entry.seen_count, n):
            self.stats.inc(CACHE_DELAYED)
            if self.tracer.enabled:
                self.tracer.instant(EV_CACHE_DELAY, opcode=key.opcode,
                                    key=key.id, seen=entry.seen_count)
            return None
        if backend == BACKEND_CP:
            if entry.cp_accounted:  # re-put: release the old charge first
                self._release_cp(entry)
            if scope is not None \
                    and not self._fit_tenant_quota(entry, size):
                return None
            if not self.arbiter.reserve(
                REGION_CP, size, candidates=self._cp_candidates,
                evict=self.evict_cp, now=self._logical_time,
            ):
                return None
            self.arbiter.commit(REGION_CP, size)
            entry.cp_accounted = size
            if entry.tenant is not None:
                self.arbiter.charge_tenant(REGION_CP, entry.tenant, size)
        self.attach_payload(entry, backend, payload, size, compute_cost)
        if backend == BACKEND_GPU:
            ptr = getattr(payload, "ptr", None)
            if ptr is not None:
                self._gpu_index[ptr.id] = entry
                ptr.cached = True
        self.stats.inc(CACHE_PUTS)
        if self.tracer.enabled:
            self.tracer.instant(EV_CACHE_PUT, backend=backend, size=size,
                                opcode=key.opcode, key=key.id)
        return entry

    def attach_payload(self, entry: CacheEntry, backend: str,
                       payload: object, size: int, cost: float) -> None:
        """Attach a payload to ``entry`` (also outside :meth:`put`:
        exchange copies, persisted RDDs), keeping the victim index exact
        when the entry gains a CP payload or grows while holding one."""
        size_before = entry.size
        entry.put_payload(backend, payload, size, cost)
        if BACKEND_CP in entry.payloads \
                and (backend == BACKEND_CP or entry.size > size_before):
            self._victims.add(entry)

    def make_space(self, backend: str, size: int) -> bool:
        """MAKE_SPACE: evict until ``size`` bytes fit on ``backend``."""
        if backend == BACKEND_CP:
            return self._make_space_cp(size)
        # SP space is managed by the SparkCacheManager; GPU space by the
        # unified GPU memory manager (Algorithm 1).
        return True

    # -- eviction -----------------------------------------------------------------

    def _make_space_cp(self, size: int) -> bool:
        return self.arbiter.ensure_space(
            REGION_CP, size, candidates=self._cp_candidates,
            evict=self.evict_cp, now=self._logical_time,
        )

    def _cp_candidates(self) -> list[CacheEntry]:
        # fair-share victim filter under a scope: pinned entries are
        # never victims, and another tenant's entries are protected
        # while that tenant is within its quota
        return self._victims.candidates(self._logical_time, self._scope)

    def _release_cp(self, entry: CacheEntry) -> None:
        """Release the entry's CP charge (+ tenant ledger and pin)."""
        nbytes = entry.cp_accounted
        if not nbytes:
            return
        self.arbiter.release(REGION_CP, nbytes)
        entry.cp_accounted = 0
        if entry.tenant is not None:
            self.arbiter.charge_tenant(REGION_CP, entry.tenant, -nbytes)
        if entry.pinned:
            self.arbiter.unpin(REGION_CP, nbytes)
            entry.pinned = False

    def _fit_tenant_quota(self, entry: CacheEntry, size: int) -> bool:
        """Make ``size`` bytes fit under the entry tenant's quota.

        Shrinks the tenant's *own* unpinned CP entries first; when the
        quota still cannot take the bytes, the put is refused — a tenant
        never caches past its fair share.
        """
        tenant = entry.tenant
        if tenant is None:
            return True
        headroom = self.arbiter.quota_headroom(REGION_CP, tenant)
        if headroom is None or size <= headroom:
            return True
        while True:
            own = self._victims.candidates(self._logical_time,
                                           tenant=tenant, exclude=entry)
            victim = self.arbiter.select_victim(
                REGION_CP, own, now=self._logical_time
            )
            if victim is None:
                break
            self.evict_cp(victim)
            headroom = self.arbiter.quota_headroom(REGION_CP, tenant)
            if headroom is None or size <= headroom:
                return True
        from repro.common.stats import SERVER_QUOTA_REFUSALS

        self.stats.inc(SERVER_QUOTA_REFUSALS)
        scope = self._scope
        if scope is not None:
            scope.substrate.note_tenant_event(tenant, "quota_refusals")
        return False

    def evict_cp(self, entry: CacheEntry) -> None:
        """Evict the driver-local payload of ``entry``.

        High compute-cost entries are spilled to local disk (restorable
        by a later probe); cheap-to-recompute ones are dropped outright.
        The spill-vs-drop break-even is the arbiter's decision
        (:meth:`~repro.memory.arbiter.MemoryArbiter.should_spill`).
        """
        payload = entry.payloads.get(BACKEND_CP)
        if payload is None:
            return
        if self.on_cp_evict is not None:
            self.on_cp_evict(entry)
        self._release_cp(entry)
        if self.arbiter.should_spill(REGION_CP, entry.size,
                                     entry.compute_cost) \
                and not self._spill_faulted(entry):
            self.clock.advance(entry.size / self.disk_bytes_per_s)
            entry.payloads[BACKEND_DISK] = payload
            entry.payloads.pop(BACKEND_CP, None)
            entry.status = EntryStatus.SPILLED
            self.arbiter.acquire(REGION_DISK, entry.size)
            self.stats.inc(CACHE_SPILLS)
            self.arbiter.record_spill(REGION_CP, entry.size,
                                      key=entry.key.id)
            if self.tracer.enabled:
                self.tracer.instant(EV_CACHE_SPILL, size=entry.size,
                                    opcode=entry.key.opcode,
                                    key=entry.key.id)
        else:
            entry.drop_payload(BACKEND_CP)
        self.stats.inc(CACHE_EVICTIONS)
        self.arbiter.record_evict(REGION_CP, entry.size, key=entry.key.id)
        if self.tracer.enabled:
            self.tracer.instant(EV_CACHE_EVICT, backend=BACKEND_CP,
                                size=entry.size, opcode=entry.key.opcode,
                                key=entry.key.id)

    def _spill_faulted(self, entry: CacheEntry) -> bool:
        """Injected spill-I/O error: the write fails, the payload is lost.

        The entry degrades to a plain eviction (recoverable through
        lineage recomputation), never a silently corrupt disk copy.
        """
        return self.arbiter.spill_fault(key=entry.key.id,
                                        opcode=entry.key.opcode,
                                        nbytes=entry.size)

    def _restore_from_disk(self, entry: CacheEntry) -> bool:
        """Read a spilled payload back into the driver cache."""
        payload = entry.payloads.get(BACKEND_DISK)
        if payload is None:
            return False
        if not self.arbiter.reserve(
            REGION_CP, entry.size, candidates=self._cp_candidates,
            evict=self.evict_cp, now=self._logical_time,
        ):
            return False
        if self.arbiter.restore_fault(key=entry.key.id,
                                      opcode=entry.key.opcode,
                                      nbytes=entry.size):
            # injected read error: the disk copy is unusable and dropped;
            # the caller falls back to lineage recomputation
            self.arbiter.cancel(REGION_CP, entry.size)
            self.arbiter.release(REGION_DISK, entry.size)
            entry.drop_payload(BACKEND_DISK)
            if entry.payloads:
                entry.status = EntryStatus.CACHED
            return False
        self.clock.advance(entry.size / self.disk_bytes_per_s)
        entry.payloads[BACKEND_CP] = payload
        entry.payloads.pop(BACKEND_DISK, None)
        entry.status = EntryStatus.CACHED
        self._victims.add(entry)
        self.arbiter.release(REGION_DISK, entry.size)
        self.arbiter.commit(REGION_CP, entry.size)
        entry.cp_accounted = entry.size
        if entry.tenant is not None:
            self.arbiter.charge_tenant(REGION_CP, entry.tenant, entry.size)
        self.stats.inc(CACHE_RESTORES)
        self.arbiter.record_restore(REGION_CP, entry.size,
                                    key=entry.key.id)
        if self.tracer.enabled:
            self.tracer.instant(EV_CACHE_RESTORE, size=entry.size,
                                opcode=entry.key.opcode, key=entry.key.id)
        return True

    @property
    def disk_bytes(self) -> int:
        """Bytes held by spilled (disk-resident) entries."""
        return self._disk_region.used

    def drop_backend_payload(self, entry: CacheEntry, backend: str) -> None:
        """Remove one backend copy (e.g. after unpersist), keep others."""
        if backend == BACKEND_CP and BACKEND_CP in entry.payloads:
            self.evict_cp(entry)
            return
        entry.drop_payload(backend)
        self.stats.inc(CACHE_EVICTIONS)
        if self.tracer.enabled:
            self.tracer.instant(EV_CACHE_EVICT, backend=backend,
                                size=entry.size, opcode=entry.key.opcode,
                                key=entry.key.id)

    def invalidate_entry(self, entry: CacheEntry,
                         spark_mgr=None) -> list[str]:
        """Hard-drop every backend copy of ``entry`` (fault injection).

        Models losing a cached intermediate outright — driver copy, disk
        spill, distributed RDD (via the Spark cache manager when given,
        so storage-memory accounting stays exact), and GPU pointer index
        entry.  Returns the backend tags that were dropped; the value
        remains recoverable only through lineage recomputation.
        """
        dropped: list[str] = []
        if BACKEND_CP in entry.payloads:
            self._release_cp(entry)
            entry.drop_payload(BACKEND_CP)
            dropped.append(BACKEND_CP)
        if BACKEND_DISK in entry.payloads:
            self.arbiter.release(REGION_DISK, entry.size)
            entry.drop_payload(BACKEND_DISK)
            dropped.append(BACKEND_DISK)
        if BACKEND_SP in entry.payloads:
            if spark_mgr is not None:
                spark_mgr.evict(entry)
            else:
                entry.drop_payload(BACKEND_SP)
            dropped.append(BACKEND_SP)
        if BACKEND_GPU in entry.payloads:
            payload = entry.payloads[BACKEND_GPU]
            ptr = getattr(payload, "ptr", None)
            if ptr is not None:
                ptr.cached = False
                self._gpu_index.pop(ptr.id, None)
            entry.drop_payload(BACKEND_GPU)
            dropped.append(BACKEND_GPU)
        if dropped:
            entry.status = EntryStatus.EVICTED
            self.stats.inc(CACHE_EVICTIONS)
            if self.tracer.enabled:
                self.tracer.instant(EV_CACHE_EVICT, backend=",".join(dropped),
                                    size=entry.size,
                                    opcode=entry.key.opcode,
                                    key=entry.key.id)
        return dropped

    # -- GPU integration ---------------------------------------------------------

    def has_host_copy_for(self, ptr) -> bool:
        """Residency probe: does the entry backed by GPU pointer ``ptr``
        also hold a host-side (driver or disk) copy?

        Registered with the arbiter as the ``CP`` region's residency
        probe, so the GPU memory manager can skip a D2H save when the
        value already survives on the host (holistic eviction).
        """
        ptr_id = getattr(ptr, "id", None)
        if ptr_id is None:
            return False
        entry = self._gpu_index.get(ptr_id)
        if entry is None:
            return False
        return BACKEND_CP in entry.payloads or BACKEND_DISK in entry.payloads

    def on_gpu_invalidate(self, ptr) -> None:
        """Callback from the GPU memory manager before a pointer is
        recycled/freed: the entry backed by it loses its GPU payload."""
        ptr.cached = False
        entry = self._gpu_index.pop(ptr.id, None)
        if entry is not None:
            entry.drop_payload(BACKEND_GPU)
            self.stats.inc(CACHE_EVICTIONS)
            if self.tracer.enabled:
                self.tracer.instant(EV_CACHE_EVICT, backend=BACKEND_GPU,
                                    size=entry.size,
                                    opcode=entry.key.opcode,
                                    key=entry.key.id)

    # -- maintenance ---------------------------------------------------------------

    def remove(self, key: LineageItem) -> None:
        scope = self._scope
        if scope is not None:
            key = scope.namespaced(key)
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._release_cp(entry)

    def clear(self) -> None:
        self._entries.clear()
        self._victims.clear()
        self._gpu_index.clear()
        self._cp_region.reset()

    def cached_count(self, backend: Optional[str] = None) -> int:
        """Number of CACHED entries, optionally restricted to a backend."""
        return sum(
            1 for e in self._entries.values()
            if e.is_cached and (backend is None or backend in e.payloads)
        )
