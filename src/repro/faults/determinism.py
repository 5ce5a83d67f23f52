"""Cross-run determinism helpers for the chaos/differential suites.

The simulator is deterministic *within* a process, but several modules
hand out ids from module-level ``itertools.count`` generators (HOP ids,
lineage ids, RDD ids, broadcast ids, GPU pointer ids).  Two runs of the
same workload in one process therefore see different ids — harmless for
numerics, but fatal for tests that compare *trace event sequences* or
exact per-id stats between a faulted and a fault-free run.

:func:`reset_global_ids` rewinds every generator to 1, making a fresh
run id-identical to a fresh process.  The shared ``tests/conftest.py``
calls it (autouse) before every test, which is also what fixes the
historical cross-test "counter bleed": tests that asserted exact ids or
compared serialized traces would pass alone and fail mid-suite.
"""

from __future__ import annotations

import itertools


def reset_global_ids() -> None:
    """Rewind every module-level id generator to 1 (fresh-process state)."""
    import repro.backends.gpu.pointers as gpu_pointers
    import repro.backends.spark.broadcast as spark_broadcast
    import repro.backends.spark.rdd as spark_rdd
    import repro.compiler.ir as compiler_ir
    import repro.lineage.item as lineage_item

    compiler_ir._hop_ids = itertools.count(1)
    lineage_item._ids = itertools.count(1)
    spark_rdd._rdd_ids = itertools.count(1)
    spark_broadcast._bc_ids = itertools.count(1)
    gpu_pointers._ptr_ids = itertools.count(1)


def reset_ambient_state() -> None:
    """Uninstall every ambient (module-global) collector/plan.

    Keeps a crashed or sloppy test from leaking its tracer, analysis
    collector, fault plan, or eviction-policy overrides into the next
    test.
    """
    from repro.common.config import (
        clear_fusion_override,
        clear_policy_overrides,
    )
    from repro.core.substrate import clear_ambient_substrate
    from repro.faults.plan import uninstall_plan
    from repro.obs.explain import uninstall_explain
    from repro.obs.metrics import disable_metrics
    from repro.obs.tracer import disable_tracing

    disable_tracing()
    disable_metrics()
    uninstall_explain()
    uninstall_plan()
    clear_fusion_override()
    clear_policy_overrides()
    # shared-substrate server state: uninstall the ambient substrate and
    # drop its tenant registry so one test's server cannot serve another
    clear_ambient_substrate()
    try:
        from repro.analysis import (
            uninstall_collector,
            uninstall_memplan_collector,
        )
    except ImportError:  # pragma: no cover - analysis is part of the tree
        return
    uninstall_collector()
    uninstall_memplan_collector()
