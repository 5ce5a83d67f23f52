"""Common subexpression elimination on HOP DAGs.

Structurally identical hops (same opcode, attributes, and canonical
inputs) are merged into one node before execution.  CSE removes
*within-DAG* redundancy; cross-DAG redundancy (conditional control flow,
function calls) is what the lineage cache handles at runtime (§2.1).
"""

from __future__ import annotations

from repro.compiler.ir import KIND_DATA, KIND_LITERAL, KIND_OP, Hop
from repro.lineage.item import literal_data


def _canonical_key(hop: Hop, canon: dict[int, Hop]):
    if hop.kind == KIND_LITERAL:
        # the lineage leaf's data, so ``-0.0`` and ``0.0`` stay apart
        return ("lit", literal_data(hop.value))
    if hop.kind == KIND_DATA:
        handle = hop.handle
        return ("data", id(handle) if handle is not None else hop.id)
    inputs = tuple(canon[h.id].id for h in hop.inputs)
    attrs = tuple(sorted(hop.attrs.items())) if hop.attrs else ()
    return ("op", hop.opcode, attrs, inputs)


def eliminate_common_subexpressions(
    roots: list[Hop],
) -> tuple[list[Hop], dict[int, list]]:
    """Merge duplicate sub-DAGs under ``roots``.

    Returns the (possibly replaced) roots and a map
    ``canonical_hop_id -> [handles]`` of extra handles whose hop was
    merged away, so the interpreter can still bind them after execution.
    """
    canon: dict[int, Hop] = {}
    by_key: dict[object, Hop] = {}
    extra_handles: dict[int, list] = {}

    # iterative traversal to avoid deep recursion on long chains; the
    # visit_once body is inlined in the expanded branch (this loop runs
    # once per hop per evaluated block)
    def visit_iterative(root: Hop) -> Hop:
        stack: list[tuple[Hop, bool]] = [(root, False)]
        push = stack.append
        pop = stack.pop
        while stack:
            node, expanded = pop()
            nid = node.id
            if nid in canon:
                continue
            if expanded:
                key = _canonical_key(node, canon)
                existing = by_key.get(key)
                if existing is not None and existing is not node:
                    canon[nid] = existing
                    handle = node.handle
                    if handle is not None and existing.handle is not handle:
                        extra_handles.setdefault(
                            existing.id, []).append(handle)
                    continue
                if node.kind == KIND_OP:
                    node.inputs = [canon[h.id] for h in node.inputs]
                by_key[key] = node
                canon[nid] = node
                continue
            push((node, True))
            for inp in node.inputs:
                if inp.id not in canon:
                    push((inp, False))
        return canon[root.id]

    new_roots = [visit_iterative(r) for r in roots]
    return new_roots, extra_handles
