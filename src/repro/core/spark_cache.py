"""Spark-side cache management: RDD reuse, lazy GC, cost-based eviction.

Implements §4.1 of the paper:

* **Reuse RDDs** — cached entries hold :class:`DistributedMatrix`
  handles; reuse works even while the RDD is *unmaterialized* (persist is
  lazy), enabling compute sharing and shuffle-file reuse across jobs.
* **Async materialization** — after *k* reuses of a still-unmaterialized
  RDD, an asynchronous ``count()`` job materializes it so its upstream
  references become collectable.
* **Lazy garbage collection** — when a cached RDD is materialized, its
  upstream broadcast variables are destroyed, reclaiming driver memory
  held by dangling references (Fig. 2(b), Fig. 6).
* **Cost-based eviction (Eq. 1)** — cached RDDs are unpersisted in
  ascending ``(r_h + r_m + r_j) * c / s`` order when the reuse share of
  storage memory (80% by default) overflows.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.spark.backend import DistributedMatrix
from repro.backends.spark.context import SparkContext
from repro.backends.spark.rdd import RDD
from repro.common.config import CacheConfig, StorageLevel
from repro.common.simclock import SimFuture
from repro.common.stats import (
    SPARK_ASYNC_MATERIALIZE,
    SPARK_GC_CLEANED,
    SPARK_RDD_PERSISTED,
    SPARK_RDD_REUSE,
    SPARK_RDD_UNPERSISTED,
    Stats,
)
from repro.core.cache import LineageCache
from repro.core.entry import BACKEND_SP, CacheEntry
from repro.core.policies import make_policy
from repro.memory import REGION_SPARK_CACHE


class SparkCacheManager:
    """Backend-local cache manager for the Spark tier of the cache."""

    def __init__(self, cache: LineageCache, context: SparkContext,
                 config: CacheConfig, stats: Stats, arbiter=None) -> None:
        self.cache = cache
        self.sc = context
        self.config = config
        self.stats = stats
        # the Spark tier is session-private even when the lineage cache
        # is shared (repro.server), so the SP_CACHE region must register
        # on the session's own arbiter, not the cache's (shared) one.
        self.arbiter = arbiter if arbiter is not None else cache.arbiter
        policy = cache.policy if config.spark_policy is None \
            else make_policy(config.spark_policy)
        self._region = self.arbiter.add_region(
            REGION_SPARK_CACHE,
            int(context.block_manager.capacity * config.spark_cache_fraction),
            policy=policy, unlimited=config.unlimited,
        )
        #: entry -> reuse-miss count while unmaterialized (async trigger).
        self._unmat_misses: dict[int, int] = {}
        self._pending_counts: list[SimFuture] = []
        self.storage_level = StorageLevel.MEMORY_AND_DISK

    @property
    def budget(self) -> int:
        """Reuse share of aggregate storage memory (80% by default)."""
        return int(
            self.sc.block_manager.capacity * self.config.spark_cache_fraction
        )

    @property
    def sp_bytes(self) -> int:
        """Estimated bytes of persisted, cache-managed RDDs."""
        return self._region.used

    def metrics_gauges(self) -> dict[str, float]:
        """Gauge snapshot for the metrics sampler (``repro.obs.metrics``)."""
        budget = self.budget
        return {
            "spark/cache_bytes": float(self.sp_bytes),
            "spark/cache_frac": self.sp_bytes / budget if budget else 0.0,
        }

    # -- caching ---------------------------------------------------------------

    def cache_rdd(self, entry: CacheEntry, dm: DistributedMatrix) -> bool:
        """Mark ``dm`` for distributed caching under ``entry`` (persist)."""
        size = dm.nbytes
        if not self.arbiter.reserve(
            REGION_SPARK_CACHE, size, candidates=self._candidates,
            evict=self.evict, now=0.0,
        ):
            return False
        dm.rdd.persist(self.storage_level)
        self.cache.attach_payload(entry, BACKEND_SP, dm, size,
                                  entry.compute_cost)
        entry.rdd_materialized = False
        self.arbiter.commit(REGION_SPARK_CACHE, size)
        self.stats.inc(SPARK_RDD_PERSISTED)
        return True

    def reuse_rdd(self, entry: CacheEntry) -> Optional[DistributedMatrix]:
        """Reuse a cached RDD (even if unmaterialized, §4.1)."""
        dm = entry.get_payload(BACKEND_SP)
        if dm is None:
            return None
        self.stats.inc(SPARK_RDD_REUSE)
        self._refresh_materialization(entry, dm)
        if not entry.rdd_materialized:
            misses = self._unmat_misses.get(entry.key.id, 0) + 1
            self._unmat_misses[entry.key.id] = misses
            if misses >= self.config.async_materialize_after_misses:
                self._async_materialize(entry, dm)
                self._unmat_misses[entry.key.id] = 0
        else:
            self.lazy_gc(entry, dm)
        return dm

    # -- memory management -------------------------------------------------------

    def make_space(self, size: int) -> bool:
        """Evict cached RDDs (Eq. 1 order) until ``size`` bytes fit."""
        return self.arbiter.ensure_space(
            REGION_SPARK_CACHE, size, candidates=self._candidates,
            evict=self.evict, now=0.0,
        )

    def evict(self, entry: CacheEntry) -> None:
        """Unpersist the RDD of ``entry`` and drop its SP payload."""
        dm = entry.get_payload(BACKEND_SP)
        if dm is None:
            return
        dm.rdd.unpersist()
        freed = entry.size if entry.size else dm.nbytes
        self.arbiter.release(REGION_SPARK_CACHE, freed)
        self.arbiter.record_evict(REGION_SPARK_CACHE, freed,
                                  rdd=dm.rdd.id)
        self.cache.drop_backend_payload(entry, BACKEND_SP)
        self.stats.inc(SPARK_RDD_UNPERSISTED)

    def _candidates(self) -> list[CacheEntry]:
        return [
            e for e in self.cache.entries()
            if e.is_cached and BACKEND_SP in e.payloads
        ]

    def _victim(self) -> Optional[CacheEntry]:
        return self.arbiter.select_victim(
            REGION_SPARK_CACHE, self._candidates(), now=0.0
        )

    # -- lazy GC and async materialization -------------------------------------------

    def lazy_gc(self, entry: CacheEntry, dm: DistributedMatrix) -> None:
        """Destroy upstream broadcasts of a materialized cached RDD."""
        cleaned = 0
        for rdd in self._upstream(dm.rdd):
            for bc in rdd.broadcast_refs:
                if not bc.destroyed:
                    bc.destroy()
                    cleaned += 1
        if cleaned:
            self.stats.inc(SPARK_GC_CLEANED, cleaned)

    def _async_materialize(self, entry: CacheEntry,
                           dm: DistributedMatrix) -> None:
        """Trigger an asynchronous count() to materialize the RDD."""
        future = self.sc.count_async(dm.rdd)
        self._pending_counts.append(future)
        entry.jobs += 1
        self.stats.inc(SPARK_ASYNC_MATERIALIZE)
        self._refresh_materialization(entry, dm)

    def _refresh_materialization(self, entry: CacheEntry,
                                 dm: DistributedMatrix) -> None:
        info = self.sc.block_manager.rdd_storage_info(
            dm.rdd.id, dm.rdd.num_partitions
        )
        entry.rdd_materialized = info["fully_cached"]

    @staticmethod
    def _upstream(rdd: RDD) -> list[RDD]:
        """All RDDs reachable upstream of ``rdd`` (including itself)."""
        seen: set[int] = set()
        order: list[RDD] = []
        stack = [rdd]
        while stack:
            node = stack.pop()
            if node.id in seen:
                continue
            seen.add(node.id)
            order.append(node)
            stack.extend(node.parents())
        return order
