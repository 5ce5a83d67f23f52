"""Victim index of the driver (CP) region: lazy heaps instead of rescans.

Choosing a driver-cache victim used to mean listing every entry that
holds a CP payload and scoring each one.  The index keeps *records*
``(score, seq, entry)`` in one min-heap per tenant (partition ``None``
on private caches) and checks them lazily when a victim is needed.

The records stay exact because an :attr:`indexable
<repro.core.policies.EvictionPolicy.indexable>` policy's score never
drops while an entry keeps its CP payload, except when the entry's
``size`` grows.  Hits, misses, jobs, compute cost and last access only
grow.  So the cache calls :meth:`VictimIndex.add` in exactly two cases:
the entry gains a CP payload, or it grows in size while holding one.
Every other record is a lower bound of its entry's current score, and
the heap's top record, once rescored and found unchanged, is the
minimum.  Ties fall to the lower creation ``seq``, which is the order of
the cache's entry map, so the choice equals a first-minimum ``min()``
over that map.

Work is deferred: :meth:`add` only appends to a pending list, and the
pending entries are scored when a victim is needed.  Records whose entry
left the region are dropped as they surface, and the whole index is
compacted when it holds more than twice as many records as members.

Non-indexable policies (MRD, whose score depends on ``now``) get the
members in creation order instead, for the arbiter's ``min()``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import Optional

from repro.core.entry import BACKEND_CP, CacheEntry

#: compaction never runs below this many records.
_MIN_RECORDS = 64

#: ``tenant`` default of :meth:`VictimIndex.candidates`: every partition.
_ALL_TENANTS = object()


class VictimIndex:
    """Lazy per-tenant min-heaps over the cache entries holding CP data.

    ``entries`` is the owning cache's key -> entry map; an entry is a
    *member* while it holds a CP payload, is cached, and is still the
    map's entry for its key.
    """

    __slots__ = ("_entries", "_policy", "_indexable", "_pending", "_heaps",
                 "_records", "_limit")

    def __init__(self, entries: dict, policy) -> None:
        self._entries = entries
        self._policy = policy
        self._indexable = policy.indexable
        self._pending: list[CacheEntry] = []
        #: tenant -> heap of ``(score, seq, entry)`` records.
        self._heaps: dict[Optional[str], list] = {}
        #: pending entries plus heap records.
        self._records = 0
        self._limit = _MIN_RECORDS

    def add(self, entry: CacheEntry) -> None:
        """Note that ``entry`` gained a CP payload or grew in size."""
        self._pending.append(entry)
        self._records += 1
        if self._records > self._limit:
            self._compact()

    def clear(self) -> None:
        self._pending.clear()
        self._heaps.clear()
        self._records = 0
        self._limit = _MIN_RECORDS

    def _member(self, entry: CacheEntry) -> bool:
        return BACKEND_CP in entry.payloads and entry.is_cached \
            and self._entries.get(entry.key) is entry

    def candidates(self, now: float, scope=None, *,
                   tenant=_ALL_TENANTS,
                   exclude: Optional[CacheEntry] = None) -> list:
        """The victim candidates to hand to ``select_victim``.

        With ``scope`` (a ``SessionContext`` on a shared cache), pinned
        entries and the partitions of tenants the scope may not evict
        are skipped.  ``tenant`` restricts the search to that tenant's
        partition, skipping pinned entries and ``exclude``.  An
        indexable policy yields the minimum member as a one-element list
        (or none); any other policy yields every eligible member in
        creation order.
        """
        self._flush(now)
        if tenant is _ALL_TENANTS:
            heaps = list(self._heaps.values())
        else:
            heap = self._heaps.get(tenant)
            heaps = [] if heap is None else [heap]
        gate = scope.evictable if scope is not None else None
        hide_pinned = scope is not None or tenant is not _ALL_TENANTS
        if not self._indexable:
            return self._scan(heaps, gate, hide_pinned, exclude)
        score = self._policy.score
        best = None
        for heap in heaps:
            rec = self._top(heap, score, now, gate, hide_pinned, exclude)
            if rec is not None and (best is None or rec[:2] < best[:2]):
                best = rec
        return [] if best is None else [best[2]]

    def _flush(self, now: float) -> None:
        """Score the pending entries into their tenants' heaps."""
        pending = self._pending
        if not pending:
            return
        heaps = self._heaps
        score = self._policy.score if self._indexable else None
        seen = set()
        for entry in pending:
            if id(entry) in seen or not self._member(entry):
                self._records -= 1
                continue
            seen.add(id(entry))
            heap = heaps.get(entry.tenant)
            if heap is None:
                heap = heaps[entry.tenant] = []
            heappush(heap, (score(entry, now) if score else 0.0,
                            entry.seq, entry))
        pending.clear()

    def _top(self, heap: list, score, now: float, gate, hide_pinned: bool,
             exclude: Optional[CacheEntry]):
        """The heap's minimum eligible record, or ``None``.

        Records of departed entries are dropped; stale scores are
        re-pushed; hidden entries are set aside and pushed back.  The
        gate (``SessionContext.evictable``) depends only on the entry's
        tenant, so one refusal rules out the whole partition.
        """
        hidden = []
        found = None
        while heap:
            rec = heap[0]
            entry = rec[2]
            if not self._member(entry):
                heappop(heap)
                self._records -= 1
                continue
            if gate is not None:
                if not gate(entry):
                    break
                gate = None
            if (hide_pinned and entry.pinned) or entry is exclude:
                hidden.append(heappop(heap))
                continue
            current = score(entry, now)
            if current != rec[0]:
                heapreplace(heap, (current, rec[1], entry))
                continue
            found = rec
            break
        for rec in hidden:
            heappush(heap, rec)
        return found

    def _scan(self, heaps: list, gate, hide_pinned: bool,
              exclude: Optional[CacheEntry]) -> list:
        """Every eligible member of ``heaps``, in creation order."""
        found: dict[int, CacheEntry] = {}
        for heap in heaps:
            members = {rec[1]: rec for rec in heap if self._member(rec[2])}
            self._records -= len(heap) - len(members)
            heap[:] = sorted(members.values())
            if gate is not None and heap and not gate(heap[0][2]):
                continue
            for seq, (_, _, entry) in members.items():
                if not ((hide_pinned and entry.pinned) or entry is exclude):
                    found[seq] = entry
        return [found[seq] for seq in sorted(found)]

    def _compact(self) -> None:
        """Drop departed and duplicate records; one record per member."""
        pending = {id(e): e for e in self._pending if self._member(e)}
        self._pending = list(pending.values())
        live = len(pending)
        for heap in self._heaps.values():
            lowest: dict[int, tuple] = {}
            for rec in heap:
                entry = rec[2]
                if id(entry) in pending or not self._member(entry):
                    continue
                kept = lowest.get(rec[1])
                if kept is None or rec[0] < kept[0]:
                    lowest[rec[1]] = rec
            heap[:] = lowest.values()
            heapify(heap)
            live += len(heap)
        self._records = live
        self._limit = max(2 * live, _MIN_RECORDS)
