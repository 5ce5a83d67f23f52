"""Lineage items: nodes of the fine-grained lineage DAG (paper §3.2).

A lineage item records the opcode, literal data items, and pointers to the
input lineage items of one executed instruction.  Because all primitives
are deterministic given their lineage (random seeds are data items), a
lineage DAG *uniquely identifies* an intermediate — the core property that
makes lineage keys safe cache keys.

Hashing and equality follow the paper exactly:

* the hash combines the opcode, the data items, and the *hashes* of the
  inputs (computed once, bottom-up, and memoized);
* equality uses a non-recursive, queue-based traversal with sub-DAG
  memoization and early-abort on hash mismatch, height difference, and
  shared sub-DAGs (object identity).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Optional

_ids = itertools.count(1)

#: opcode used for leaf items that name an input dataset.
OP_DATA = "data"
#: opcode used for scalar / string literals.
OP_LITERAL = "lit"
#: opcode prefix for function-level (coarse-grained) lineage items (§3.3).
OP_FUNCTION = "func"
#: opcode prefix for per-session namespace wrappers on a shared
#: substrate: ``ns:<uid>`` wraps a key whose DAG is impure (seeded /
#: nondeterministic) so it never unifies across sessions
#: (see ``repro.core.substrate``).
OP_NAMESPACE = "ns"

#: data item standing in for a NaN attribute value: Python hashes NaN
#: by object identity and ``nan != nan``, which would make structurally
#: identical lineage items unequal (breaking all reuse of e.g.
#: ``replace(NaN, v)``).
NAN_DATUM = "__nan__"
#: data item marking negative zero.  ``-0.0 == 0.0`` and both hash
#: alike, so without it ``X * -0.0`` and ``X * 0.0`` would share one
#: lineage key and a cache hit would return the wrong sign (``1 / ...``
#: gives ``+inf`` instead of ``-inf``).
NEG_ZERO_DATUM = "__-0.0__"


def literal_data(value: object) -> tuple:
    """Data tuple of a literal leaf: ``(value,)``, tagged for ``-0.0``.

    Negative zero keeps its value first (RECOMPUTE reads ``data[0]``)
    and appends :data:`NEG_ZERO_DATUM`; every other value's data, and
    so its hash, is just ``(value,)``.
    """
    if isinstance(value, float) and value == 0.0 \
            and math.copysign(1.0, value) < 0.0:
        return (value, NEG_ZERO_DATUM)
    return (value,)


def attr_data(attrs: dict) -> tuple:
    """Flatten op attributes into a deterministic lineage data tuple.

    The tuple is ``(key, value, key, value, ...)`` in key order.  NaN
    becomes :data:`NAN_DATUM` and negative zero :data:`NEG_ZERO_DATUM`
    (``repro.lineage.recompute.attrs_from_data`` decodes both); other
    primitives stay as they are and anything else is stringified.
    """
    if not attrs:
        return ()
    out: list = []
    for key in sorted(attrs):
        out.append(key)
        value = attrs[key]
        if isinstance(value, float):
            if value != value:
                value = NAN_DATUM
            elif value == 0.0 and math.copysign(1.0, value) < 0.0:
                value = NEG_ZERO_DATUM
            out.append(value)
        elif isinstance(value, (int, bool, str)):
            out.append(value)
        else:
            out.append(str(value))
    return tuple(out)


class LineageItem:
    """One node of a lineage DAG.

    Parameters
    ----------
    opcode:
        The instruction opcode (e.g. ``ba+*``), or :data:`OP_DATA` /
        :data:`OP_LITERAL` for leaves.
    data:
        Tuple of literal data items (scalar constants, seeds, dataset
        identifiers) that parameterize the operation.
    inputs:
        Input lineage items, in argument order.
    """

    __slots__ = ("id", "opcode", "data", "inputs", "height", "_hash")

    def __init__(self, opcode: str, data: tuple = (),
                 inputs: tuple["LineageItem", ...] = ()) -> None:
        self.id: int = next(_ids)
        self.opcode = opcode
        self.data = data if type(data) is tuple else tuple(data)
        inputs = inputs if type(inputs) is tuple else tuple(inputs)
        self.inputs = inputs
        # explicit loop instead of two genexprs: item construction is on
        # the TRACE hot path (one per interner miss)
        if inputs:
            hmax = -1
            hashes = []
            append = hashes.append
            for inp in inputs:
                if inp.height > hmax:
                    hmax = inp.height
                append(inp._hash)
            self.height = 1 + hmax
            self._hash = hash((opcode, self.data, tuple(hashes)))
        else:
            self.height = 0
            self._hash = hash((opcode, self.data, ()))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LineageItem):
            return NotImplemented
        return dags_equal(self, other)

    def __repr__(self) -> str:
        data = ",".join(map(str, self.data))
        return (
            f"LineageItem#{self.id}({self.opcode}"
            f"{'[' + data + ']' if data else ''}, h={self.height})"
        )

    @property
    def is_leaf(self) -> bool:
        """Whether this item has no inputs (dataset or literal)."""
        return not self.inputs

    @property
    def is_function(self) -> bool:
        """Whether this is a coarse-grained (function-level) item."""
        return self.opcode.startswith(OP_FUNCTION)

    @property
    def is_namespaced(self) -> bool:
        """Whether this is a session-scoped namespace wrapper."""
        return self.opcode.startswith(OP_NAMESPACE + ":")

    def iter_dag(self) -> Iterable["LineageItem"]:
        """Yield every node of the DAG reachable from this item once."""
        seen: set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            stack.extend(node.inputs)

    def dag_size(self) -> int:
        """Number of distinct nodes in this item's DAG."""
        return sum(1 for _ in self.iter_dag())


class LineageInterner:
    """Hash-consing table: structurally identical items become one object.

    The interpreter's TRACE step (paper Fig. 4) constructs one lineage
    item per executed instruction.  Iterative workloads re-trace the
    same instructions every iteration, so without interning each
    iteration allocates a fresh — structurally equal — item, and every
    cache probe pays a full :func:`dags_equal` structural comparison
    when dict hashing collides equal keys.

    Interning keys on ``(opcode, data, input identities)``, so it is
    only exact when the inputs are canonical too.  The session runtime
    therefore builds *every* item through the interner: the leaves
    (named data leaves in ``Session.read``, the interpreter's data-leaf
    fallback, literal leaves, the literal arguments of ``@function``
    calls) via :meth:`literal` and :meth:`dataset`, the function items
    via :meth:`function`, and the op items bottom-up via :meth:`intern`.
    Structurally equal runtime keys are then one object, and cache
    probes and puts, the substrate's purity memo and namespacing all
    hit the dictionary's identity fast path instead of running
    ``dags_equal``.  Anonymous reads (``anon_<hop id>``) are unique by
    construction and stay outside the table.

    Items built *outside* the interner (deserialized logs,
    ``LineageMap``, hand-built DAGs) simply miss the table and fall
    back to structural equality — behaviour is unchanged, only slower
    for that item.

    One interner per substrate (``Substrate.interner``, exposed as
    ``Session.lineage_interner``): a private substrate gives each
    session its own table, a shared one makes a key one object across
    every attached session.  The table's lifetime — and its memory —
    follows the substrate, mirroring the lineage cache it accelerates.
    """

    __slots__ = ("_table",)

    def __init__(self) -> None:
        self._table: dict[tuple, LineageItem] = {}

    def __len__(self) -> int:
        return len(self._table)

    def intern(self, opcode: str, data: tuple,
               inputs: tuple[LineageItem, ...]) -> LineageItem:
        """Canonical item for ``(opcode, data, inputs)`` (hash-consing)."""
        key = (opcode, data, tuple(map(id, inputs)))
        item = self._table.get(key)
        if item is None:
            item = LineageItem(opcode, data, inputs)
            self._table[key] = item
        return item

    def literal(self, value: object) -> LineageItem:
        """Canonical literal leaf (see :func:`literal`)."""
        return self.intern(OP_LITERAL, literal_data(value), ())

    def dataset(self, name: str) -> LineageItem:
        """Canonical dataset leaf (see :func:`dataset`)."""
        return self.intern(OP_DATA, (name,), ())

    def function(self, fname: str, inputs: tuple[LineageItem, ...],
                 output_index: int = 0) -> LineageItem:
        """Canonical function item (see :func:`function_item`)."""
        return self.intern(f"{OP_FUNCTION}:{fname}", (output_index,), inputs)

    def clear(self) -> None:
        self._table.clear()


def literal(value: object) -> LineageItem:
    """Lineage leaf for a scalar/string literal."""
    return LineageItem(OP_LITERAL, literal_data(value))


def dataset(name: str) -> LineageItem:
    """Lineage leaf for a named input dataset."""
    return LineageItem(OP_DATA, (name,))


def function_item(fname: str, inputs: tuple[LineageItem, ...],
                  output_index: int = 0) -> LineageItem:
    """Coarse-grained item for one output of a deterministic function.

    The paper uses a special lineage item containing the function name and
    the inputs for each function output (§3.3, multi-level reuse).
    """
    return LineageItem(f"{OP_FUNCTION}:{fname}", (output_index,), inputs)


def dags_equal(a: LineageItem, b: LineageItem,
               memo: Optional[set[tuple[int, int]]] = None) -> bool:
    """Non-recursive DAG equality with memoization and early aborts.

    Early-abort conditions (paper §3.2): hash mismatch, height difference,
    and shared sub-DAGs (object identity short-circuits a subtree).
    """
    if a is b:
        return True
    if a._hash != b._hash or a.height != b.height:
        return False
    if memo is None:
        memo = set()
    queue: list[tuple[LineageItem, LineageItem]] = [(a, b)]
    while queue:
        x, y = queue.pop()
        if x is y:
            continue
        key = (id(x), id(y)) if id(x) < id(y) else (id(y), id(x))
        if key in memo:
            continue
        if (
            x._hash != y._hash
            or x.height != y.height
            or x.opcode != y.opcode
            or x.data != y.data
            or len(x.inputs) != len(y.inputs)
        ):
            return False
        memo.add(key)
        queue.extend(zip(x.inputs, y.inputs))
    return True
