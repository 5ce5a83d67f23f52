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


if __name__ == "__main__":
    # re-record the eviction-order baseline (only from a tree whose
    # victim selection is known to be right)
    EVICTION_BASELINE.write_text(json.dumps(
        {name: cp_eviction_order(run)
         for name, run in sorted(EVICTION_RUNS.items())},
        indent=1) + "\n")
