"""Lineage -> executable DAG: the shared RECOMPUTE entry point (§3.2).

Both recovery paths replay lineage the same way: the public
``Session.recompute`` API (deserialized textual logs) and the fault
tolerance machinery (``Session.recompute_from_lineage``, invoked when
every cached copy of an intermediate has been lost).  This module holds
the common rebuild: a memoized walk of a :class:`LineageItem` trace that
re-emits HOPs, leaving dataset resolution to the caller so the execution
environment may differ from the one that produced the trace.
"""

from __future__ import annotations

from typing import Callable

from repro.compiler.ir import Hop, literal_hop, op_hop
from repro.lineage.item import NAN_DATUM, NEG_ZERO_DATUM, LineageItem

#: sentinel data items of :func:`~repro.lineage.item.attr_data` and the
#: float each one stands for.
_SENTINELS = {NAN_DATUM: float("nan"), NEG_ZERO_DATUM: -0.0}


def attrs_from_data(data: tuple) -> dict:
    """Rebuild an attribute dict from a flattened lineage data tuple.

    Inverse of :func:`~repro.lineage.item.attr_data`: lineage items
    store op attributes as ``(key, value, key, value, ...)``, with NaN
    and negative zero as sentinel strings.
    """
    attrs: dict = {}
    for i in range(0, len(data) - 1, 2):
        value = data[i + 1]
        if isinstance(value, str):
            value = _SENTINELS.get(value, value)
        attrs[str(data[i])] = value
    return attrs


def hops_from_item(root: LineageItem,
                   read_dataset: Callable[[str], Hop]) -> Hop:
    """Rebuild the expression DAG of a lineage trace (memoized walk).

    ``read_dataset(name)`` resolves a ``data`` leaf to a data hop —
    typically by re-binding a session-registered input — and should
    raise :class:`~repro.common.errors.RecomputationError` when the
    dataset is unavailable.  Shared sub-traces become shared hops, so
    the replayed DAG preserves the original sharing structure (and the
    compiler's CSE/reuse machinery applies to the replay too).
    """
    hops: dict[int, Hop] = {}

    def build(item: LineageItem) -> Hop:
        if item.id in hops:
            return hops[item.id]
        if item.opcode == "lit":
            hop = literal_hop(item.data[0])
        elif item.opcode == "data":
            hop = read_dataset(str(item.data[0]))
        else:
            child_hops = [build(child) for child in item.inputs]
            hop = op_hop(item.opcode, child_hops, attrs_from_data(item.data))
        hops[item.id] = hop
        return hop

    return build(root)
