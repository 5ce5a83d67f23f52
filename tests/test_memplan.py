"""Tests for the static memory planner (repro.analysis.memplan).

Covers the charge model and its soundness contract (predicted peak >=
observed ``MemoryRegion.peak_used`` on every tier-1 workload), the
compile-time GPU spill scheduler, the ``reserve_plan`` two-phase bulk
reservation, the reject/accept acceptance scenario from the PR issue,
and the GPU placement feasibility guard.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    SessionMemPlanner,
    current_memplan_collector,
    format_footprint_table,
    format_region_peaks,
    plan_block,
    plan_diagnostics,
    planning,
    schedule_gpu_spills,
)
from repro.analysis.memplan import (
    PLAN_REGIONS,
    REGION_CP,
    REGION_GPU,
    REGION_SPARK_CACHE,
    REGION_SPARK_STORAGE,
    STICKY_REGIONS,
)
from repro.common.config import (
    CACHING_MODES,
    PROBING_MODES,
    MemphisConfig,
    ReuseMode,
)
from repro.common.errors import VerificationError
from repro.core.entry import BACKEND_CP, BACKEND_GPU
from repro.core.session import Session
from repro.faults.determinism import reset_global_ids
from repro.memory import MemoryArbiter, region_capacities
from repro.memory.budget import RegionBudget
from repro.runtime.placement import gpu_working_set


# --------------------------------------------------------------- helpers

def _planned_session(**overrides) -> Session:
    """A session with planning on and any config overrides applied."""
    cfg = MemphisConfig.memphis()
    cfg.memplan = True
    for key, val in overrides.items():
        if "." in key:
            group, attr = key.split(".")
            setattr(getattr(cfg, group), attr, val)
        else:
            setattr(cfg, key, val)
    return Session(cfg)


def _gpu_chain_session(device_bytes: int, *, spills: bool, enforce: bool,
                       links: int = 10):
    """The over-budget GPU scenario: a cell-wise chain on a tiny device.

    Each link is three GPU ops (~20 KB each aligned) over a 50x50
    matrix (2500 cells, above ``gpu.min_cells``); the chain total far
    exceeds ``device_bytes`` while any single instruction's working set
    fits — exactly the MEM002 regime.
    """
    reset_global_ids()
    cfg = MemphisConfig.memphis()
    cfg.gpu_enabled = True
    cfg.gpu.device_memory = device_bytes
    cfg.memplan = True
    cfg.memplan_enforce = enforce
    cfg.memplan_spills = spills
    sess = Session(cfg)
    rng = np.random.default_rng(3)
    h = sess.read(rng.random((50, 50)), "X")
    for _ in range(links):
        h = (h * 1.001 + 0.5).relu()
    return sess, h


def _cpu_reference(links: int = 10) -> np.ndarray:
    reset_global_ids()
    sess = Session(MemphisConfig.memphis())
    rng = np.random.default_rng(3)
    h = sess.read(rng.random((50, 50)), "X")
    for _ in range(links):
        h = (h * 1.001 + 0.5).relu()
    return sess.compute(h)


# ------------------------------------------------------- charge model

class TestPlanBlock:
    def test_cp_demand_covers_put_stage(self):
        sess = _planned_session()
        a = sess.read(np.ones((32, 32)))
        b = (a @ a) + a
        sess.evaluate([b])
        plan = sess.memplanner.last_plan
        assert plan is not None
        # with FULL reuse every op hop is offered to the CP cache, plus
        # the function-level allowance for the root
        op_bytes = sum(c.nbytes for c in plan.charges
                       if c.region == REGION_CP)
        assert plan.demand[REGION_CP] == op_bytes
        assert plan.demand[REGION_CP] >= 2 * b.hop.output_bytes

    def test_reuse_none_charges_nothing_to_cp(self):
        sess = _planned_session(reuse_mode=ReuseMode.NONE)
        a = sess.read(np.ones((32, 32)))
        sess.evaluate([a @ a])
        plan = sess.memplanner.last_plan
        assert plan.demand[REGION_CP] == 0

    def test_literals_and_fused_hops_skipped(self):
        sess = _planned_session()
        a = sess.read(np.ones((16, 16)))
        sess.evaluate([a * 2.0 + 1.0])
        plan = sess.memplanner.last_plan
        assert all(c.hop.kind != "literal" for c in plan.charges)
        assert all(not c.hop.fused for c in plan.charges)

    def test_bounded_peaks_clamped_at_capacity(self):
        sess = _planned_session(**{"cache.unlimited": False,
                                   "cache.driver_cache_bytes": 1024})
        a = sess.read(np.ones((64, 64)))
        sess.evaluate([(a @ a) + a])
        plan = sess.memplanner.last_plan
        assert plan.demand[REGION_CP] > 1024
        assert plan.peaks[REGION_CP] == 1024

    def test_gpu_charges_are_aligned(self):
        sess, h = _gpu_chain_session(48 * 1024 * 1024, spills=True,
                                     enforce=False, links=2)
        sess.evaluate([h])
        plan = sess.memplanner.last_plan
        alignment = sess.config.gpu.alignment
        gpu = [c for c in plan.charges if c.region == REGION_GPU]
        assert gpu, "chain should place ops on the GPU"
        assert all(c.nbytes % alignment == 0 for c in gpu)
        assert {c.reason for c in gpu} <= {"alloc", "upload"}

    def test_reuse_mode_tables_pinned(self):
        """The one probe/put table the interpreter, memplan and explain
        read, pinned for every mode: NONE, TRACE_ONLY and COARSE_ONLY
        neither probe nor cache; PROBE_ONLY probes but never caches."""
        expected = {
            ReuseMode.NONE: (False, False),
            ReuseMode.TRACE_ONLY: (False, False),
            ReuseMode.PROBE_ONLY: (True, False),
            ReuseMode.FULL: (True, True),
            ReuseMode.LOCAL_ONLY: (True, True),
            ReuseMode.COARSE_ONLY: (False, False),
            ReuseMode.OPERATOR_ONLY: (True, True),
        }
        assert set(expected) == set(ReuseMode)
        for mode, (probes, caches) in expected.items():
            assert (mode in PROBING_MODES) is probes, mode
            assert (mode in CACHING_MODES) is caches, mode

    def test_footprint_table_renders(self):
        sess = _planned_session()
        a = sess.read(np.ones((32, 32)))
        sess.evaluate([(a @ a) + a])
        plan = sess.memplanner.last_plan
        text = format_footprint_table(plan)
        assert "memory plan (per-hop charges, worst case):" in text
        assert "demand" in text and "capacity" in text

    def test_region_peaks_table_flags_violations(self):
        text = format_region_peaks(
            predicted={n: 100 for n in PLAN_REGIONS},
            observed={REGION_CP: 200},
        )
        row = next(ln for ln in text.splitlines()
                   if ln.split() and ln.split()[0] == "CP")
        assert "LOW" in row
        text_ok = format_region_peaks(
            predicted={n: 100 for n in PLAN_REGIONS},
            observed={REGION_CP: 50},
        )
        assert "LOW" not in text_ok


class TestBudgets:
    def test_region_capacities_cover_plan_regions(self):
        budgets = region_capacities(MemphisConfig.memphis())
        assert set(budgets) == set(PLAN_REGIONS)
        for budget in budgets.values():
            assert isinstance(budget, RegionBudget)
            assert budget.capacity >= 0

    def test_spark_storage_scales_with_executors(self):
        cfg = MemphisConfig.memphis()
        one = region_capacities(cfg)[REGION_SPARK_STORAGE].capacity
        cfg.spark.num_executors *= 2
        two = region_capacities(cfg)[REGION_SPARK_STORAGE].capacity
        assert two == 2 * one


# ----------------------------------------------------- spill scheduling

class TestScheduleSpills:
    def test_fitting_block_needs_no_spills(self):
        sess, h = _gpu_chain_session(48 * 1024 * 1024, spills=True,
                                     enforce=False, links=2)
        sess.evaluate([h])
        plan = sess.memplanner.last_plan
        assert plan.gpu_spills == []

    def test_overflow_block_gets_schedule(self):
        sess, h = _gpu_chain_session(64 * 1024, spills=True,
                                     enforce=False, links=10)
        sess.evaluate([h])
        plan = sess.memplanner.last_plan
        assert plan.gpu_spills, "over-budget chain must get a schedule"
        rules = {d.rule for d in plan.diagnostics}
        assert "MEM002" in rules
        assert not plan.errors

    def test_schedule_keeps_resident_bytes_under_capacity(self):
        sess, h = _gpu_chain_session(64 * 1024, spills=True,
                                     enforce=False, links=10)
        sess.evaluate([h])
        plan = sess.memplanner.last_plan
        assert self._replay_fits(plan)

    @staticmethod
    def _replay_fits(plan) -> bool:
        """Simulate the schedule: resident bytes never exceed capacity."""
        capacity = plan.budgets[REGION_GPU].capacity
        spills_at = plan.executable_spills()
        live: dict[int, int] = {}
        for charge in sorted((c for c in plan.charges
                              if c.region == REGION_GPU),
                             key=lambda c: c.start):
            for sp in spills_at.get(charge.start, ()):
                live.pop(sp.victim.id, None)
            live[charge.hop.id] = charge.nbytes
            if sum(live.values()) > capacity:
                return False
        return True

    def test_no_schedule_when_spills_disabled(self):
        sess, h = _gpu_chain_session(64 * 1024, spills=False,
                                     enforce=False, links=10)
        # plan directly without executing (execution would OOM)
        roots, order = _compile_only(sess, h)
        plan = plan_block(roots, order, sess.config)
        diags = plan_diagnostics(plan, sess.config)
        assert plan.gpu_spills is None
        assert any(d.rule == "MEM002" and d.severity.label == "error"
                   for d in diags)


def _compile_only(sess: Session, handle):
    """Compile a pending handle to (root_hops, order) without executing."""
    compiled = sess._compile([handle])
    assert compiled is not None
    _, root_hops, order, _ = compiled
    return root_hops, order


# ----------------------------------------------------- reserve_plan

class TestReservePlan:
    def _arbiter(self) -> MemoryArbiter:
        arb = MemoryArbiter()
        arb.add_region("CP", 1000)
        arb.add_region("GPU", 500)
        arb.add_region("INF", 10, unlimited=True)
        return arb

    def test_lenient_reserve_holds_clamped_headroom(self):
        arb = self._arbiter()
        res = arb.reserve_plan({"CP": 600, "GPU": 9000, "INF": 50,
                                "NOPE": 10})
        assert res is not None
        assert res.holds == {"CP": 600, "GPU": 500}
        assert arb.region("CP").reserved == 600
        assert arb.region("GPU").reserved == 500
        res.commit()
        assert arb.region("CP").reserved == 0
        assert arb.region("GPU").reserved == 0

    def test_existing_usage_reduces_hold(self):
        arb = self._arbiter()
        arb.region("CP").acquire(400)
        res = arb.reserve_plan({"CP": 600})
        assert res.holds == {"CP": 200}
        res.cancel()
        assert arb.region("CP").reserved == 0
        assert arb.region("CP").used == 400

    def test_commit_and_cancel_are_idempotent(self):
        arb = self._arbiter()
        res = arb.reserve_plan({"CP": 100})
        res.commit()
        res.cancel()  # no-op, already settled
        assert arb.region("CP").reserved == 0

    def test_strict_mode_refuses_infeasible_demand(self):
        arb = self._arbiter()
        assert arb.reserve_plan({"GPU": 501}, strict=True) is None
        assert arb.stats.get("memory/plan_reserve_failures") == 1
        # partial holds must be rolled back
        assert arb.region("CP").reserved == 0
        assert arb.region("GPU").reserved == 0

    def test_strict_mode_admits_feasible_demand(self):
        arb = self._arbiter()
        res = arb.reserve_plan({"GPU": 500, "CP": 1000}, strict=True)
        assert res is not None
        assert res.total == 1500
        res.commit()

    def test_net_zero_ledger_effect(self):
        arb = self._arbiter()
        before = [r.snapshot() for r in arb.regions()]
        res = arb.reserve_plan({"CP": 777, "GPU": 123})
        res.commit()
        after = [r.snapshot() for r in arb.regions()]
        for snap_a, snap_b in zip(before, after):
            for key in ("used", "reserved", "pinned", "free"):
                assert snap_a[key] == snap_b[key]


# -------------------------------------------- reject / accept (acceptance)

class TestRejectAccept:
    """The PR's acceptance scenario: one over-budget workload is
    rejected at compile time with a MEM diagnostic, and accepted after
    the planner inserts a pre-scheduled spill."""

    def test_rejected_at_compile_time_without_spills(self):
        sess, h = _gpu_chain_session(64 * 1024, spills=False, enforce=True)
        with pytest.raises(VerificationError, match="MEM002"):
            sess.evaluate([h])
        # the bulk reservation must have been cancelled on the way out
        for region in sess.arbiter.regions():
            assert region.reserved == 0

    def test_accepted_with_planned_spills(self):
        sess, h = _gpu_chain_session(64 * 1024, spills=True, enforce=True)
        sess.evaluate([h])
        assert sess.stats.get("memplan/planned_spills_executed") > 0
        got = sess.compute(h)
        assert np.allclose(got, _cpu_reference())

    def test_planned_spills_keep_results_identical(self):
        """memplan on vs off must be byte-identical on a fitting block."""
        def run(memplan: bool):
            reset_global_ids()
            cfg = MemphisConfig.memphis()
            cfg.memplan = memplan
            sess = Session(cfg)
            rng = np.random.default_rng(7)
            w = sess.read(rng.random((24, 24)), "w")
            x = sess.read(rng.random((24, 24)), "x")
            for _ in range(3):
                w = (w - (w @ x) * 0.01).relu()
                sess.evaluate([w])
            return (sess.compute(w).tobytes(), sess.elapsed(),
                    sess.stats.get("runtime/instructions_executed"))

        assert run(True) == run(False)


# --------------------------------------------------- placement feasibility

class TestPlacementFeasibility:
    def test_infeasible_working_set_falls_back_to_cp(self):
        """An op whose working set can never fit on the device must not
        be GPU-placed (memplan MEM001 feasibility, placement guard)."""
        sess, h = _gpu_chain_session(4 * 1024, spills=True, enforce=False,
                                     links=1)
        roots, order = _compile_only(sess, h)
        ops = [hop for hop in order if hop.kind == "op"]
        assert ops and all(hop.placement == BACKEND_CP for hop in ops)

    def test_feasible_working_set_stays_on_gpu(self):
        sess, h = _gpu_chain_session(48 * 1024 * 1024, spills=True,
                                     enforce=False, links=1)
        roots, order = _compile_only(sess, h)
        assert any(hop.placement == BACKEND_GPU for hop in order)

    def test_gpu_working_set_matches_planner_arithmetic(self):
        sess, h = _gpu_chain_session(48 * 1024 * 1024, spills=True,
                                     enforce=False, links=1)
        roots, order = _compile_only(sess, h)
        alignment = sess.config.gpu.alignment
        for hop in order:
            if hop.placement != BACKEND_GPU or hop.kind != "op":
                continue
            ws = gpu_working_set(hop, alignment)
            assert ws % alignment == 0
            assert ws >= hop.output_bytes


# --------------------------------------------- session planner / collector

class TestSessionPlanner:
    def test_sticky_regions_accumulate_across_blocks(self):
        sess = _planned_session()
        a = sess.read(np.ones((32, 32)))
        sess.evaluate([a @ a])
        first = dict(sess.memplanner.cumulative)
        b = sess.read(np.ones((32, 32)) * 2)
        sess.evaluate([b @ b])
        second = sess.memplanner.cumulative
        for name in STICKY_REGIONS:
            if first[name]:
                assert second[name] > first[name]

    def test_observe_tracks_runtime_watermarks(self):
        sess = _planned_session()
        a = sess.read(np.ones((32, 32)))
        sess.evaluate([a @ a])
        assert sess.memplanner.observed[REGION_CP] > 0
        for name, pred, obs, ok in sess.memplanner.check_bounds():
            assert ok, f"{name}: predicted {pred} < observed {obs}"

    def test_ambient_collector_registers_sessions(self):
        with planning() as collector:
            sess = Session(MemphisConfig.memphis())
            assert sess.memplanner is not None
            a = sess.read(np.ones((16, 16)))
            sess.evaluate([a + a])
        assert current_memplan_collector() is None
        assert len(collector.entries) == 1
        rows = collector.check_bounds()
        assert rows and all(ok for *_, ok in rows)

    def test_determinism_reset_uninstalls_collector(self):
        from repro.analysis import install_memplan_collector, MemplanCollector
        from repro.faults.determinism import reset_ambient_state

        install_memplan_collector(MemplanCollector())
        reset_ambient_state()
        assert current_memplan_collector() is None

    def test_explain_runtime_includes_watermarks(self):
        cfg = MemphisConfig(explain_capture=True)
        cfg.memplan = True
        sess = Session(cfg)
        a = sess.read(np.ones((16, 16)))
        sess.evaluate([a @ a])
        text = sess.explain(level="runtime")
        assert "region peaks" in text
        assert "observed" in text and "predicted" in text


# ------------------------------------------------ pass registration / CLI

class TestPassIntegration:
    def test_memory_plan_pass_registered(self):
        from repro.analysis.base import registered_passes
        from repro.analysis.manager import DEFAULT_PASS_ORDER

        assert "memory-plan" in registered_passes()
        assert "memory-plan" in DEFAULT_PASS_ORDER

    def test_cli_memplan_flag(self, capsys):
        from repro.analysis.__main__ import main

        rc = main(["micro", "--memplan"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "region peaks" in out
        assert "predicted" in out and "observed" in out


# ----------------------------------------- predicted >= observed (16 runs)

def _experiments():
    """The paper's tier-1 experiment matrix: 7 workloads x 2 systems
    plus the two microbenchmarks — 16 runs total."""
    from repro.workloads.clean import run_clean
    from repro.workloads.en2de import run_en2de
    from repro.workloads.hband import run_hband
    from repro.workloads.hcv import run_hcv
    from repro.workloads.hdrop import run_hdrop
    from repro.workloads.micro import run_fig2c, run_reuse_overhead
    from repro.workloads.pnmf_wl import run_pnmf
    from repro.workloads.tlvis import run_tlvis

    runs = []
    for system in ("MPH", "Base"):
        runs += [
            (f"hcv/{system}", lambda s=system: run_hcv(s, 5.0)),
            (f"pnmf/{system}", lambda s=system: run_pnmf(s, 5)),
            (f"hband/{system}", lambda s=system: run_hband(s, 5.0)),
            (f"clean/{system}", lambda s=system: run_clean(s, 12)),
            (f"hdrop/{system}", lambda s=system: run_hdrop(s, epochs=1)),
            (f"en2de/{system}", lambda s=system: run_en2de(s)),
            (f"tlvis/{system}",
             lambda s=system: run_tlvis(s, num_images=2000)),
        ]
    runs.append(("fig2c/MEMPHIS",
                 lambda: run_fig2c("MEMPHIS", num_chains=20)))
    runs.append(("reuse_overhead",
                 lambda: run_reuse_overhead("Reuse", 8 * 1024,
                                            iterations=10)))
    return runs


@pytest.mark.parametrize("label,thunk", _experiments(),
                         ids=[label for label, _ in _experiments()])
def test_predicted_peak_bounds_observed(label, thunk):
    """Soundness on every tier-1 experiment: for each session the
    workload creates, the static per-region predicted peak must be an
    upper bound on the runtime's observed ``peak_used`` watermark."""
    with planning() as collector:
        thunk()
    rows = collector.check_bounds()
    assert rows, f"{label}: no sessions registered with the collector"
    bad = [(sess_label, region, pred, obs)
           for sess_label, region, pred, obs, ok in rows if not ok]
    assert not bad, f"{label}: predicted < observed for {bad}"


# ------------------------------------------------------- property-based

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=25, deadline=None)
@given(
    links=st.integers(min_value=1, max_value=12),
    side=st.integers(min_value=24, max_value=64),
    budget_kb=st.integers(min_value=48, max_value=512),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_cellwise_chain_plan_is_sound(links, side, budget_kb, seed):
    """Property: for a random cell-wise GPU chain under a random device
    budget, the planner either (a) certifies the block with a schedule
    that keeps resident bytes under capacity, or (b) reports an
    unfixable MEM001/MEM002 error — and executing a certified block
    reproduces the CPU result and never trips the device allocator."""
    reset_global_ids()
    cfg = MemphisConfig.memphis()
    cfg.gpu_enabled = True
    cfg.gpu.device_memory = budget_kb * 1024
    cfg.memplan = True
    cfg.memplan_enforce = True
    cfg.memplan_spills = True
    sess = Session(cfg)
    rng = np.random.default_rng(seed)
    data = rng.random((side, side))
    ops = rng.integers(0, 3, size=links)
    h = sess.read(data, "X")
    for op in ops:
        if op == 0:
            h = h * 1.01
        elif op == 1:
            h = h + 0.25
        else:
            h = h.relu()

    roots, order = _compile_only(sess, h)
    plan = plan_block(roots, order, cfg)
    plan_diagnostics(plan, cfg)

    if plan.errors:
        with pytest.raises(VerificationError):
            sess.evaluate([h])
        return

    # certified: schedule replays under capacity, execution succeeds
    # and matches plain numpy
    assert TestScheduleSpills._replay_fits(plan)
    got = sess.compute(h)
    want = data
    for op in ops:
        if op == 0:
            want = want * 1.01
        elif op == 1:
            want = want + 0.25
        else:
            want = np.maximum(want, 0.0)
    assert np.allclose(got, want)
