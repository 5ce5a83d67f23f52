"""Stateful property-based tests of the memory managers' invariants."""

import numpy as np
from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.backends.gpu import (
    GpuDevice,
    GpuMemoryManager,
    GpuStream,
    MODE_MEMPHIS,
)
from repro.backends.cpu.bufferpool import BufferPool
from repro.backends.spark import BlockManager
from repro.common.config import (
    CpuConfig,
    EvictionPolicyName,
    GpuConfig,
    MemphisConfig,
    SparkConfig,
    StorageLevel,
)
from repro.common.errors import BufferPoolError, GpuOutOfMemoryError
from repro.common.simclock import SimClock
from repro.common.stats import Stats
from repro.core import victims
from repro.core.cache import BACKEND_DISK
from repro.core.entry import BACKEND_CP, BACKEND_SP
from repro.core.substrate import Substrate
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.faults.plan import KIND_RESTORE_IO, KIND_SPILL_IO
from repro.lineage.item import LineageItem, dataset
from repro.memory import REGION_CP, REGION_DISK, MemoryArbiter
from repro.runtime.values import MatrixValue


class GpuAllocatorMachine(RuleBasedStateMachine):
    """Random allocate/release/reuse/evict sequences preserve invariants:

    * device accounting is exact (used + holes == capacity);
    * live and free pointer sets are disjoint;
    * freed pointers never appear in either list;
    * pooled byte accounting matches the free lists.
    """

    def __init__(self):
        super().__init__()
        cfg = GpuConfig(device_memory=256 * 1024, alignment=512)
        clock, stats = SimClock(), Stats()
        device = GpuDevice(cfg)
        stream = GpuStream(cfg, clock, stats)
        self.mgr = GpuMemoryManager(device, stream, clock, stats,
                                    MODE_MEMPHIS)
        self.live = []

    @rule(size=st.integers(min_value=1, max_value=32 * 1024))
    def allocate(self, size):
        try:
            ptr = self.mgr.allocate(size)
            self.live.append(ptr)
        except GpuOutOfMemoryError:
            pass  # legal under pressure from live pointers

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def release(self, data):
        idx = data.draw(st.integers(0, len(self.live) - 1))
        ptr = self.live.pop(idx)
        self.mgr.release(ptr)

    @precondition(lambda self: any(
        q for q in self.mgr.free_lists.values()))
    @rule(data=st.data())
    def reuse_from_free(self, data):
        pools = [p for q in self.mgr.free_lists.values() for p in q]
        ptr = pools[data.draw(st.integers(0, len(pools) - 1))]
        revived = self.mgr.reuse_from_free(ptr)
        self.live.append(revived)

    @rule(fraction=st.floats(min_value=0.0, max_value=1.0))
    def empty_cache(self, fraction):
        self.mgr.empty_cache(fraction)

    @invariant()
    def device_accounting_exact(self):
        device = self.mgr.device
        holes = sum(size for _, size in device._free)
        assert device.used_bytes + holes == device.capacity

    @invariant()
    def live_and_free_disjoint(self):
        live_ids = {p.id for p in self.mgr.live.values()}
        free_ids = {p.id for q in self.mgr.free_lists.values() for p in q}
        assert not (live_ids & free_ids)

    @invariant()
    def no_freed_pointers_tracked(self):
        for p in self.mgr.live.values():
            assert not p.freed
        for q in self.mgr.free_lists.values():
            for p in q:
                assert not p.freed

    @invariant()
    def pooled_bytes_match(self):
        actual = sum(p.size for q in self.mgr.free_lists.values() for p in q)
        assert self.mgr.free_bytes_pooled == actual

    @invariant()
    def free_queues_keyed_by_size(self):
        for size, queue in self.mgr.free_lists.items():
            assert all(p.size == size for p in queue)


TestGpuAllocatorStateful = GpuAllocatorMachine.TestCase
TestGpuAllocatorStateful.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


class BlockManagerMachine(RuleBasedStateMachine):
    """Random partition caching never overflows the storage region and
    keeps the byte accounting exact."""

    def __init__(self):
        super().__init__()
        cfg = SparkConfig(num_executors=1, executor_memory=120_000)
        self.bm = BlockManager(cfg, Stats())
        self.next_rdd = 1

    @rule(
        partitions=st.integers(min_value=1, max_value=4),
        rows=st.integers(min_value=1, max_value=200),
        level=st.sampled_from([StorageLevel.MEMORY_ONLY,
                               StorageLevel.MEMORY_AND_DISK]),
    )
    def cache_rdd(self, partitions, rows, level):
        rdd_id = self.next_rdd
        self.next_rdd += 1
        for idx in range(partitions):
            self.bm.put_partition(rdd_id, idx, np.ones((rows, 4)), level)

    @rule(rdd_id=st.integers(min_value=1, max_value=30))
    def drop(self, rdd_id):
        self.bm.drop_rdd(rdd_id)

    @invariant()
    def never_over_capacity(self):
        assert self.bm.memory_used <= self.bm.capacity

    @invariant()
    def accounting_matches_partitions(self):
        actual = sum(
            p.nbytes for p in self.bm._partitions.values() if not p.on_disk
        )
        assert self.bm.memory_used == actual


TestBlockManagerStateful = BlockManagerMachine.TestCase
TestBlockManagerStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)


class _Chunk:
    """Model of one committed allocation in the ledger machine."""

    __slots__ = ("size", "last_access", "pinned")

    def __init__(self, size, last_access):
        self.size = size
        self.last_access = last_access
        self.pinned = False


class RegionLedgerMachine(RuleBasedStateMachine):
    """Random reserve/commit/cancel/acquire/release/pin/unpin sequences
    through the arbiter preserve the region ledger invariants:

    * ``used + reserved + free == capacity`` (``MemoryRegion.check``);
    * used/reserved/pinned exactly match the model's outstanding chunks;
    * policy-driven eviction never selects a pinned chunk.
    """

    CAPACITY = 10_000

    def __init__(self):
        super().__init__()
        self.arb = MemoryArbiter(Stats())
        self.region = self.arb.add_region(
            "R", self.CAPACITY, policy_name=EvictionPolicyName.LRU
        )
        self.chunks = []
        self.holds = []
        self.ticks = 0

    @rule(size=st.integers(min_value=1, max_value=3000))
    def reserve(self, size):
        ok = self.arb.reserve("R", size)
        if ok:
            self.holds.append(size)
        else:
            used = self.region.used + self.region.reserved
            assert used + size > self.CAPACITY

    @precondition(lambda self: self.holds)
    @rule(data=st.data())
    def commit(self, data):
        size = self.holds.pop(data.draw(st.integers(0, len(self.holds) - 1)))
        self.arb.commit("R", size)
        self.ticks += 1
        self.chunks.append(_Chunk(size, self.ticks))

    @precondition(lambda self: self.holds)
    @rule(data=st.data())
    def cancel(self, data):
        size = self.holds.pop(data.draw(st.integers(0, len(self.holds) - 1)))
        self.arb.cancel("R", size)

    @rule(size=st.integers(min_value=1, max_value=3000))
    def acquire(self, size):
        if not self.region.fits(size):
            return
        self.arb.acquire("R", size)
        self.ticks += 1
        self.chunks.append(_Chunk(size, self.ticks))

    @precondition(lambda self: any(not c.pinned for c in self.chunks))
    @rule(data=st.data())
    def release(self, data):
        unpinned = [c for c in self.chunks if not c.pinned]
        chunk = unpinned[data.draw(st.integers(0, len(unpinned) - 1))]
        self.chunks.remove(chunk)
        self.arb.release("R", chunk.size)

    @precondition(lambda self: any(not c.pinned for c in self.chunks))
    @rule(data=st.data())
    def pin(self, data):
        unpinned = [c for c in self.chunks if not c.pinned]
        chunk = unpinned[data.draw(st.integers(0, len(unpinned) - 1))]
        chunk.pinned = True
        self.arb.pin("R", chunk.size)

    @precondition(lambda self: any(c.pinned for c in self.chunks))
    @rule(data=st.data())
    def unpin(self, data):
        pinned = [c for c in self.chunks if c.pinned]
        chunk = pinned[data.draw(st.integers(0, len(pinned) - 1))]
        chunk.pinned = False
        self.arb.unpin("R", chunk.size)

    @rule(size=st.integers(min_value=1, max_value=3000))
    def make_space_by_eviction(self, size):
        """ensure_space with the unpinned chunks as eviction candidates."""

        def evict(victim):
            assert not victim.pinned, "policy evicted a pinned chunk"
            self.chunks.remove(victim)
            self.arb.release("R", victim.size)

        candidates = lambda: [c for c in self.chunks if not c.pinned]
        ok = self.arb.ensure_space("R", size, candidates=candidates,
                                   evict=evict, now=self.ticks)
        if not ok:
            immovable = self.region.used + self.region.reserved \
                - sum(c.size for c in self.chunks if not c.pinned)
            assert size > self.CAPACITY or immovable + size > self.CAPACITY

    @invariant()
    def ledger_invariants_hold(self):
        self.region.check()

    @invariant()
    def ledgers_match_model(self):
        assert self.region.used == sum(c.size for c in self.chunks)
        assert self.region.reserved == sum(self.holds)
        assert self.region.pinned == sum(
            c.size for c in self.chunks if c.pinned
        )

    @invariant()
    def free_tiles_capacity(self):
        assert self.region.free == max(
            self.CAPACITY - self.region.used - self.region.reserved, 0
        )


TestRegionLedgerStateful = RegionLedgerMachine.TestCase
TestRegionLedgerStateful.settings = settings(
    max_examples=40, stateful_step_count=50, deadline=None
)


class _TenantChunk:
    """Model of one committed, tenant-attributed allocation."""

    __slots__ = ("size", "tenant")

    def __init__(self, size, tenant):
        self.size = size
        self.tenant = tenant


class TenantLedgerMachine(RuleBasedStateMachine):
    """Random tenant-attributed acquire/release/quota sequences keep the
    per-tenant sub-ledger exact (multi-tenant server, docs/SERVER.md):

    * ``MemoryRegion.check`` holds (every tenant usage >= 0, and the sum
      of tenant usage never exceeds the region's ``used``);
    * each tenant's usage matches the model's outstanding chunks;
    * quota headroom is consistent with quota and usage.
    """

    CAPACITY = 10_000
    TENANTS = ("alpha", "beta", "gamma")

    def __init__(self):
        super().__init__()
        self.arb = MemoryArbiter(Stats())
        self.region = self.arb.add_region("R", self.CAPACITY)
        self.chunks = []

    @rule(size=st.integers(min_value=1, max_value=2000),
          tenant=st.sampled_from(TENANTS))
    def acquire_for_tenant(self, size, tenant):
        if not self.region.fits(size):
            return
        self.arb.acquire("R", size)
        self.arb.charge_tenant("R", tenant, size)
        self.chunks.append(_TenantChunk(size, tenant))

    @precondition(lambda self: self.chunks)
    @rule(data=st.data())
    def release_chunk(self, data):
        chunk = self.chunks.pop(
            data.draw(st.integers(0, len(self.chunks) - 1)))
        self.arb.release("R", chunk.size)
        self.arb.charge_tenant("R", chunk.tenant, -chunk.size)

    @rule(tenant=st.sampled_from(TENANTS),
          quota=st.one_of(st.none(),
                          st.integers(min_value=0, max_value=12_000)))
    def set_quota(self, tenant, quota):
        self.arb.set_quota("R", tenant, quota)

    @invariant()
    def ledger_invariants_hold(self):
        self.region.check()

    @invariant()
    def tenant_usage_matches_model(self):
        for tenant in self.TENANTS:
            expected = sum(
                c.size for c in self.chunks if c.tenant == tenant)
            assert self.arb.tenant_usage("R", tenant) == expected

    @invariant()
    def headroom_consistent(self):
        for tenant in self.TENANTS:
            headroom = self.arb.quota_headroom("R", tenant)
            quota = self.region.quota(tenant)
            if quota is None:
                assert headroom is None
            else:
                used = self.arb.tenant_usage("R", tenant)
                # negative headroom = over quota (quota set below usage)
                assert headroom == quota - used
                assert self.arb.over_quota("R", tenant) == (used > quota)


TestTenantLedgerStateful = TenantLedgerMachine.TestCase
TestTenantLedgerStateful.settings = settings(
    max_examples=40, stateful_step_count=50, deadline=None
)


class BufferPoolMachine(RuleBasedStateMachine):
    """Random put/get/pin/unpin/remove sequences on the buffer pool keep
    the ``CPU_BP`` region exact and never spill a pinned block."""

    def __init__(self):
        super().__init__()
        cfg = CpuConfig(buffer_pool_bytes=50_000)
        self.pool = BufferPool(cfg, SimClock(), Stats())
        self.next_id = 1
        self.ids = []

    @rule(rows=st.integers(min_value=1, max_value=800))
    def put(self, rows):
        block_id = self.next_id
        self.next_id += 1
        try:
            self.pool.put(block_id, MatrixValue(np.ones((rows, 4))))
        except BufferPoolError:
            return  # everything pinned: a legal rejection
        self.ids.append(block_id)

    @precondition(lambda self: self.ids)
    @rule(data=st.data())
    def get(self, data):
        block_id = self.ids[data.draw(st.integers(0, len(self.ids) - 1))]
        try:
            self.pool.get(block_id)
        except BufferPoolError:
            pass  # restore blocked by pinned residents

    @precondition(lambda self: self.ids)
    @rule(data=st.data())
    def pin(self, data):
        block_id = self.ids[data.draw(st.integers(0, len(self.ids) - 1))]
        try:
            self.pool.pin(block_id)
        except BufferPoolError:
            pass

    @precondition(lambda self: self.ids)
    @rule(data=st.data())
    def unpin(self, data):
        block_id = self.ids[data.draw(st.integers(0, len(self.ids) - 1))]
        self.pool.unpin(block_id)

    @precondition(lambda self: self.ids)
    @rule(data=st.data())
    def remove(self, data):
        idx = data.draw(st.integers(0, len(self.ids) - 1))
        self.pool.remove(self.ids.pop(idx))

    @invariant()
    def never_over_capacity(self):
        assert self.pool.in_memory_bytes <= self.pool.capacity

    @invariant()
    def region_matches_blocks(self):
        resident = sum(
            b.nbytes for b in self.pool._blocks.values() if not b.on_disk
        )
        assert self.pool.in_memory_bytes == resident
        self.pool._region.check()

    @invariant()
    def pinned_blocks_stay_resident(self):
        for block in self.pool._blocks.values():
            if block.pinned:
                assert not block.on_disk


TestBufferPoolStateful = BufferPoolMachine.TestCase
TestBufferPoolStateful.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


class VictimSelectionMachine(RuleBasedStateMachine):
    """The driver cache's indexed victim choice equals a brute-force scan.

    Every CP victim selection is checked against a first-minimum
    ``min()`` over the cache's entry map, using the candidate filter of
    the full scan the index replaced: entries holding a cached CP
    payload; under a session scope, not pinned and evictable; on the
    tenant-quota path, the tenant's own unpinned entries except the one
    being put.  Runs on private caches and on shared caches with two or
    three tenants, over probes, delayed puts, re-puts, exchange copies,
    size growth, spills, restores (with injected I/O faults), removal,
    invalidation, pins and quota changes.
    """

    POLICY = EvictionPolicyName.COST_SIZE
    KEYS = 14
    SIZES = (256, 512, 1024, 1536, 3072)
    #: close costs, so that size growth reorders Eq. 1 scores; 1e7 and
    #: 3e7 spill at these sizes, 1.0 and 3.0 are dropped.
    COSTS = (1.0, 3.0, 1e7, 3e7)

    def __init__(self):
        super().__init__()
        self.cache = None
        self.scopes = []
        #: the entry being put while ``_fit_tenant_quota`` runs.
        self._fitting = None
        # exercise compaction even in short runs
        self._min_records = victims._MIN_RECORDS
        victims._MIN_RECORDS = 4

    def teardown(self):
        victims._MIN_RECORDS = self._min_records

    @initialize(tenants=st.sampled_from((0, 2, 3)),
                quota=st.sampled_from((1024, 2500, 6000)),
                restore_faults=st.sets(st.integers(0, 6), max_size=3),
                spill_faults=st.sets(st.integers(0, 6), max_size=2))
    def setup(self, tenants, quota, restore_faults, spill_faults):
        cfg = MemphisConfig.memphis()
        cfg.cache.policy = self.POLICY
        cfg.cache.driver_cache_bytes = 5 * 1024
        cfg.cache.disk_cache_bytes = 3 * 1024
        clock, stats = SimClock(), Stats()
        plan = FaultPlan(specs=[FaultSpec(kind=KIND_RESTORE_IO, at=i)
                                for i in sorted(restore_faults)]
                         + [FaultSpec(kind=KIND_SPILL_IO, at=i)
                            for i in sorted(spill_faults)])
        substrate = Substrate(cfg, stats=stats, clock=clock,
                              faults=FaultInjector(plan, clock, stats),
                              shared=tenants > 0)
        self.substrate = substrate
        self.cache = cache = substrate.cache
        self.scopes = [substrate.attach(None, f"t{i}")
                       for i in range(tenants)]
        for i, ctx in enumerate(self.scopes):
            # the last tenant has no quota: never protected
            substrate.set_quota(ctx.tenant,
                                None if i == tenants - 1 else quota)
        if self.scopes:
            substrate.activate(self.scopes[0])

        select = cache.arbiter.select_victim
        fit = cache._fit_tenant_quota

        def checked_select(name, candidates, **kw):
            victim = select(name, candidates, **kw)
            if name == REGION_CP:
                assert victim is self._brute_force(kw.get("now", 0.0))
                event("own-tenant selection" if self._fitting is not None
                      else "global selection")
            return victim

        def tracked_fit(entry, size):
            self._fitting = entry
            try:
                return fit(entry, size)
            finally:
                self._fitting = None

        cache.arbiter.select_victim = checked_select
        cache._fit_tenant_quota = tracked_fit

    def _brute_force(self, now):
        cache = self.cache
        entries = cache._entries.values()
        entry = self._fitting
        if entry is not None:
            candidates = [
                e for e in entries
                if e.tenant == entry.tenant and e is not entry
                and BACKEND_CP in e.payloads and e.is_cached
                and not e.pinned
            ]
        else:
            scope = cache._scope
            candidates = [
                e for e in entries
                if BACKEND_CP in e.payloads and e.is_cached
                and (scope is None
                     or (not e.pinned and scope.evictable(e)))
            ]
        if not candidates:
            return None
        return min(candidates, key=lambda e: cache.policy.score(e, now))

    def key(self, k):
        # even keys have no data leaf: pure, shared by every tenant;
        # odd keys read an unregistered dataset: namespaced per session
        if k % 2 == 0:
            return LineageItem("exp", (f"k{k}",), ())
        return LineageItem("exp", (f"k{k}",), (dataset("X"),))

    def _cached(self, k):
        entry = self.cache.get_entry(self.key(k))
        return entry if entry is not None and entry.is_cached else None

    @rule(who=st.integers(0, 3))
    def switch_scope(self, who):
        if self.scopes:
            self.substrate.activate(
                self.scopes[who] if who < len(self.scopes) else None)

    @rule(k=st.integers(0, KEYS - 1))
    def probe(self, k):
        self.cache.probe(self.key(k))

    @rule(k=st.integers(0, KEYS - 1), size=st.sampled_from(SIZES),
          cost=st.sampled_from(COSTS), delay=st.integers(1, 2))
    def put(self, k, size, cost, delay):
        self.cache.put(self.key(k), f"v{k}", BACKEND_CP, size, cost,
                       delay_factor=delay)

    @rule(k=st.integers(0, 3), size=st.sampled_from(SIZES),
          cost=st.sampled_from(COSTS))
    def put_hot(self, k, size, cost):
        # a few hot keys: re-puts of cached entries
        self.cache.put(self.key(k), f"h{k}", BACKEND_CP, size, cost)

    @rule(k=st.integers(0, KEYS - 1), size=st.sampled_from(SIZES))
    def exchange_copy(self, k, size):
        # Interpreter._cache_exchange on a cached entry: an uncharged
        # CP copy plus one more job reference
        entry = self._cached(k)
        if entry is not None:
            self.cache.attach_payload(entry, BACKEND_CP, f"x{k}", size,
                                      entry.compute_cost)
            entry.jobs += 1

    @rule(k=st.integers(0, KEYS - 1), grow=st.integers(1, 2048),
          via_put=st.booleans())
    def grow_sp(self, k, grow, via_put):
        entry = self._cached(k)
        if entry is None:
            return
        size = entry.size + grow
        if via_put:
            self.cache.put(self.key(k), f"s{k}", BACKEND_SP, size,
                           entry.compute_cost)
        else:  # SparkCacheManager.cache_rdd
            self.cache.attach_payload(entry, BACKEND_SP, f"s{k}", size,
                                      entry.compute_cost)

    @rule(size=st.sampled_from(SIZES))
    def make_space(self, size):
        self.cache.make_space(BACKEND_CP, size)

    @rule(k=st.integers(0, KEYS - 1))
    def remove(self, k):
        self.cache.remove(self.key(k))

    @rule(k=st.integers(0, KEYS - 1))
    def invalidate(self, k):
        entry = self.cache.get_entry(self.key(k))
        if entry is not None:
            self.cache.invalidate_entry(entry)

    @rule(k=st.integers(0, KEYS - 1), pin=st.booleans())
    def pin(self, k, pin):
        scope = self.cache._scope
        if scope is not None:
            (scope.pin if pin else scope.unpin)(self.key(k))

    @rule(who=st.integers(0, 2),
          quota=st.sampled_from((None, 0, 512, 2500, 6000)))
    def requota(self, who, quota):
        if who < len(self.scopes):
            self.substrate.set_quota(self.scopes[who].tenant, quota)

    @invariant()
    def ledgers_hold(self):
        # DISK holds exactly what the live spilled copies charged, even
        # after an entry grew past its size at spill time
        cache = self.cache
        if cache is None:
            return
        cache.arbiter.region(REGION_CP).check()
        disk = cache.arbiter.region(REGION_DISK)
        disk.check()
        entries = cache._entries.values()
        for e in entries:
            assert bool(e.disk_accounted) == (BACKEND_DISK in e.payloads)
        assert disk.used == sum(e.disk_accounted for e in entries)


def _victim_selection_case(policy):
    machine = type(f"VictimSelection_{policy.value}",
                   (VictimSelectionMachine,), {"POLICY": policy})
    case = machine.TestCase
    case.settings = settings(max_examples=60, stateful_step_count=80,
                             deadline=None)
    return case


TestVictimSelectionCostSize = _victim_selection_case(
    EvictionPolicyName.COST_SIZE)
TestVictimSelectionLru = _victim_selection_case(EvictionPolicyName.LRU)
TestVictimSelectionLrc = _victim_selection_case(EvictionPolicyName.LRC)
TestVictimSelectionMrd = _victim_selection_case(EvictionPolicyName.MRD)


def test_quota_shrinks_own_first_minimum():
    """A tenant at its quota sheds its own lowest-score entry first,
    ties to the earliest, never the entry being put nor another
    tenant's entry."""
    substrate = Substrate(MemphisConfig.memphis(), shared=True)
    alpha = substrate.attach(None, "alpha")
    beta = substrate.attach(None, "beta")
    substrate.set_quota("alpha", 4000)
    cache = substrate.cache
    substrate.activate(beta)
    other = LineageItem("exp", ("b",), ())
    cache.put(other, "b", BACKEND_CP, 500, 0.5)
    substrate.activate(alpha)
    keys = [LineageItem("exp", (f"a{i}",), ()) for i in range(6)]

    def cached():
        return [cache.get_entry(k) is not None
                and cache.get_entry(k).is_cached for k in keys]

    for k, cost in zip(keys, (5.0, 1.0, 1.0, 1.0)):
        cache.put(k, "a", BACKEND_CP, 1000, cost)
    cache.put(keys[4], "a", BACKEND_CP, 1000, 1.0)
    # a1..a3 tie: the earliest goes
    assert cached() == [True, False, True, True, True, False]
    cache.put(keys[2], "a", BACKEND_CP, 1500, 1.0)
    # a2 is being re-put: a3 is the earliest of the cheapest others
    assert cached() == [True, False, True, False, True, False]
    cache.put(keys[5], "a", BACKEND_CP, 3500, 9.0)
    # a2 (1/1500) before a4 (1/1000) before a0 (5/1000)
    assert cached() == [False, False, False, False, False, True]
    assert cache.get_entry(other).is_cached
