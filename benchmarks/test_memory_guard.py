"""Memory-refactor guard: Fig. 12 stats byte-identical to the baseline.

The arbitration substrate (``repro.memory``) is a pure refactor under
the default Cost&Size policy: every reservation, eviction, spill, and
restore must happen at the same point with the same victim as before.
This guard re-runs the two memory-bound experiments — Fig. 12(a)
(driver cache sizes) and Fig. 12(b) (GPU eviction under pressure) —
and compares every simulated duration (exact float ``repr``) and every
pre-refactor counter against the recorded baseline in
``baselines/fig12_counters.json``.

Counters introduced by the substrate itself (the ``memory/``
namespace) are additive and intentionally ignored: the guard asserts
the old behaviour is preserved, not that no new observability exists.
"""

import json
import pathlib

import pytest

from repro.harness import runner

BASELINE = pathlib.Path(__file__).parent / "baselines" / \
    "fig12_counters.json"


def snap(experiment) -> dict:
    """Reduce an ExperimentResult grid to comparable scalars."""
    out: dict = {}
    for x, cells in experiment.grid.items():
        out[str(x)] = {
            label: {
                "elapsed": repr(float(result.elapsed)),
                "counters": {k: v for k, v in sorted(result.counters.items())},
            }
            for label, result in cells.items()
        }
    return out


def compare(recorded: dict, current: dict, experiment: str) -> list[str]:
    """Every recorded cell must match: elapsed exactly, and every
    counter present in the baseline unchanged."""
    mismatches = []
    for x, row in recorded.items():
        for label, cell in row.items():
            got = current[x][label]
            if got["elapsed"] != cell["elapsed"]:
                mismatches.append(
                    f"{experiment}[{x}][{label}].elapsed: "
                    f"{cell['elapsed']} -> {got['elapsed']}"
                )
            for counter, expected in cell["counters"].items():
                actual = got["counters"].get(counter)
                if actual != expected:
                    mismatches.append(
                        f"{experiment}[{x}][{label}].{counter}: "
                        f"{expected} -> {actual}"
                    )
    return mismatches


@pytest.fixture(scope="module")
def baseline() -> dict:
    if not BASELINE.exists():
        pytest.skip(f"no recorded baseline at {BASELINE}")
    return json.loads(BASELINE.read_text())


def test_fig12a_byte_identical(baseline):
    mismatches = compare(baseline["fig12a"],
                         snap(runner.run_experiment_fig12a()), "fig12a")
    assert not mismatches, "\n".join(mismatches)


def test_fig12b_byte_identical(baseline):
    mismatches = compare(baseline["fig12b"],
                         snap(runner.run_experiment_fig12b()), "fig12b")
    assert not mismatches, "\n".join(mismatches)


# ---------------------------------------------------------------------------
# CP eviction order: the driver cache must pick the same victims, in the
# same order, as the full-rescan selection it replaced.

EVICTION_BASELINE = pathlib.Path(__file__).parent / "baselines" / \
    "cp_eviction_order.json"


def _fig11b_cell():
    """One fig11b cell: 8 MiB input, 300 trials, 40% repeated trials."""
    from repro.workloads.micro import run_reuse_overhead

    run_reuse_overhead("Reuse", 8 * 1024 * 1024, 300, 0.4)


def _server_quota_run():
    """Four tenants on a 16 KiB shared driver cache, three of them under
    4 KiB CP quotas: victims come from both the global reservation and
    the tenants' own-quota shrinking."""
    import numpy as np

    from repro.common.config import MemphisConfig
    from repro.server import Scheduler

    cfg = MemphisConfig.server_session()
    cfg.cache.driver_cache_bytes = 16 * 1024
    scheduler = Scheduler(config=cfg, seed=3)
    tenants = ("t0", "t1", "t2", "t3")
    for i, tenant in enumerate(tenants):
        scheduler.add_tenant(tenant, None if i == 3 else 4 * 1024)
    rng = np.random.default_rng(5)
    shared = [(rng.random((48, 6)), rng.random((48, 1))) for _ in range(4)]
    private = {t: (rng.random((48, 6)), rng.random((48, 1)))
               for t in tenants}

    def ridge(X, y, name, lam):
        def program(session):
            Xh = session.read(X, name)
            yh = session.read(y, name + "_y")
            yield
            gram = Xh.t() @ Xh
            xty = (yh.t() @ Xh).t()
            session.evaluate([gram, xty])
            yield
            beta = session.solve(gram + lam * session.eye(X.shape[1]), xty)
            return session.compute(beta).copy()
        return program

    for r in range(10):
        for j in range(6):
            tenant = tenants[(r + j) % 4]
            if (r * 6 + j) % 3:
                k = (r + 2 * j) % 4
                name, (X, y) = f"shared{k}", shared[k]
            else:
                name, (X, y) = "private", private[tenant]
            lam = (0.01, 0.1, 1.0)[(r + j) % 3]
            scheduler.submit(tenant, ridge(X, y, name, lam),
                             name=f"r{r}_{j}")
        assert scheduler.run().ok


EVICTION_RUNS = {
    "fig11b_reuse_8MiB_300_0.4": _fig11b_cell,
    "server_4tenant_quota": _server_quota_run,
}


def cp_eviction_order(run) -> dict:
    """Every CP eviction of ``run()`` as ``[opcode, size, hits, misses]``
    of the victim, in order, plus a digest of the sequence."""
    import hashlib

    from repro.core.cache import LineageCache
    from repro.core.entry import BACKEND_CP
    from repro.faults.determinism import reset_global_ids

    evictions: list = []
    original = LineageCache.evict_cp

    def recording(self, entry):
        if BACKEND_CP in entry.payloads:
            evictions.append([entry.key.opcode, entry.size, entry.hits,
                              entry.misses])
        return original(self, entry)

    reset_global_ids()
    LineageCache.evict_cp = recording
    try:
        run()
    finally:
        LineageCache.evict_cp = original
    digest = hashlib.sha256(json.dumps(evictions).encode()).hexdigest()
    return {"count": len(evictions), "digest": digest,
            "evictions": evictions}


@pytest.mark.parametrize("run", sorted(EVICTION_RUNS))
def test_cp_eviction_order_byte_identical(run):
    if not EVICTION_BASELINE.exists():
        pytest.skip(f"no recorded baseline at {EVICTION_BASELINE}")
    recorded = json.loads(EVICTION_BASELINE.read_text())[run]
    current = cp_eviction_order(EVICTION_RUNS[run])
    assert current["count"] == recorded["count"]
    assert current["evictions"] == recorded["evictions"]
    assert current["digest"] == recorded["digest"]


# ---------------------------------------------------------------------------
# Spark job costs: every Spark job must charge the same simulated time and
# bump the same ``spark/*`` counters, job by job, however the simulator
# produces the partition values.

SPARK_BASELINE = pathlib.Path(__file__).parent / "baselines" / \
    "spark_job_costs.json"


def _pnmf_cell():
    """The fig13b PNMF cell at 15 iterations, Base then MPH: Base
    re-executes every earlier iteration in each job, MPH checkpoints."""
    from repro.workloads.pnmf_wl import run_pnmf

    for system in ("Base", "MPH"):
        run_pnmf(system, 15)


def _pnmf_faulted():
    """PNMF at 8 iterations, Base then MPH, under executor losses and
    Spark task retries: lost shuffle files and cached partitions
    recompute from lineage, failed attempts recompute their partition."""
    from repro.faults.plan import FaultPlan, install_plan, uninstall_plan
    from repro.workloads.pnmf_wl import run_pnmf

    for system in ("Base", "MPH"):
        install_plan(FaultPlan.parse(
            "executor_loss@2,count=2;executor_loss@9;spark_task@3,count=2;"
            "spark_task@40;spark_task@60,count=3;seed=5"
        ))
        try:
            run_pnmf(system, 8)
        finally:
            uninstall_plan()


SPARK_RUNS = {
    "pnmf_15it_base_mph": _pnmf_cell,
    "pnmf_8it_base_mph_faulted": _pnmf_faulted,
}


def spark_job_costs(run) -> dict:
    """Every Spark job of ``run()`` as ``[rdd name, stages, tasks,
    repr(duration), spark/* and faults/* counters after the job]``, in
    order, plus a digest of the sequence."""
    import hashlib

    from repro.backends.spark.context import SparkContext
    from repro.faults.determinism import reset_global_ids

    jobs: list = []
    original = SparkContext.run_job

    def recording(self, rdd):
        result, end = original(self, rdd)
        counters = {k: v for k, v in sorted(self.stats.counters().items())
                    if k.startswith(("spark/", "faults/"))}
        jobs.append([rdd.name, result.num_stages, result.num_tasks,
                     repr(result.duration), counters])
        return result, end

    reset_global_ids()
    SparkContext.run_job = recording
    try:
        run()
    finally:
        SparkContext.run_job = original
    digest = hashlib.sha256(json.dumps(jobs).encode()).hexdigest()
    return {"count": len(jobs), "digest": digest, "jobs": jobs}


@pytest.mark.parametrize("run", sorted(SPARK_RUNS))
def test_spark_job_costs_byte_identical(run):
    if not SPARK_BASELINE.exists():
        pytest.skip(f"no recorded baseline at {SPARK_BASELINE}")
    recorded = json.loads(SPARK_BASELINE.read_text())[run]
    current = spark_job_costs(SPARK_RUNS[run])
    assert current["count"] == recorded["count"]
    assert current["jobs"] == recorded["jobs"]
    assert current["digest"] == recorded["digest"]


BASELINES = {
    "cp_eviction_order": (EVICTION_BASELINE, EVICTION_RUNS,
                          cp_eviction_order),
    "spark_job_costs": (SPARK_BASELINE, SPARK_RUNS, spark_job_costs),
}


if __name__ == "__main__":
    # re-record one baseline (only from a tree whose behaviour is known
    # to be right):
    #   python -m benchmarks.test_memory_guard cp_eviction_order
    #   python -m benchmarks.test_memory_guard spark_job_costs
    import sys

    if len(sys.argv) != 2 or sys.argv[1] not in BASELINES:
        sys.exit(f"usage: python -m benchmarks.test_memory_guard "
                 f"{{{'|'.join(sorted(BASELINES))}}}")
    path, runs, record = BASELINES[sys.argv[1]]
    path.write_text(json.dumps(
        {name: record(run) for name, run in sorted(runs.items())},
        indent=1) + "\n")
