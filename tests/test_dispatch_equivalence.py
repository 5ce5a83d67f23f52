"""Fast-path / instrumented-path dispatch equivalence guards.

The interpreter selects one of two dispatch loops per run
(:func:`repro.runtime.dispatch.select_loop`): ``run_fast`` when
tracing, metrics, and fault injection are all disabled, otherwise the
fully-guarded ``run_instrumented``.  The contract — asserted here on
the quickstart, cell-wise chain, planned-spill and Fig. 12(b)
workloads — is that both loops produce **byte-identical** results,
identical stats counters, and identical simulated-clock readings.  The fast path may only change real
wall-clock cost (measured by the ``BENCH_wallclock`` track, see
docs/PERFORMANCE.md), never a single observable value.

Forcing the instrumented loop without changing semantics uses two
existing zero-overhead guarantees:

* an **empty fault plan** enables the injector (``faults.enabled``)
  but injects nothing — byte-identical by ``tests/test_faults.py``;
* an ambient **metrics collector** enables sampling, which reads
  counters/ledgers but never advances the sim clock.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import MemphisConfig, Session
from repro.common.config import ReuseMode
from repro.common.stats import MEMPLAN_SPILLS_EXECUTED
from repro.faults import FaultPlan, reset_global_ids
from repro.obs import MetricsCollector, disable_metrics, enable_metrics
from repro.runtime.dispatch import run_fast, run_instrumented, select_loop
from repro.workloads.micro import run_fig12b


def _flag_interp(tracer: bool, metrics: bool, faults: bool):
    return SimpleNamespace(
        tracer=SimpleNamespace(enabled=tracer),
        metrics=SimpleNamespace(enabled=metrics),
        faults=SimpleNamespace(enabled=faults),
    )


class TestLoopSelection:
    def test_fast_loop_when_all_layers_disabled(self):
        assert select_loop(_flag_interp(False, False, False)) is run_fast

    @pytest.mark.parametrize("flags", [
        (True, False, False),
        (False, True, False),
        (False, False, True),
        (True, True, True),
    ])
    def test_instrumented_loop_when_any_layer_live(self, flags):
        assert select_loop(_flag_interp(*flags)) is run_instrumented

    def test_default_session_selects_fast_loop(self):
        session = Session(MemphisConfig.memphis())
        assert not (session.tracer.enabled or session.metrics.enabled
                    or session.faults.enabled)


# ------------------------------------------------------------------ workloads

def _quickstart(config: MemphisConfig, iters: int = 4):
    """Ridge-regression steps with cross-iteration reuse; returns a
    ``(final ndarray, counters, timelines)`` observation triple."""
    reset_global_ids()
    session = Session(config)
    data = (np.arange(200.0 * 8).reshape(200, 8) % 17.0) / 17.0
    target = (np.arange(200.0).reshape(200, 1) % 5.0) / 5.0
    X = session.read(data, "X")
    y = session.read(target, "y")
    w = session.read(np.zeros((8, 1)), "w0")
    for _ in range(iters):
        grad = X.t() @ (X @ w) - X.t() @ y
        w = w - 0.002 * grad
    out = w.compute()
    return out, session.stats.counters(), dict(session.clock.timelines)


def _cellwise(config: MemphisConfig, iters: int = 3):
    """Straight-line ufunc chains (batch-dispatch eligible under
    ``ReuseMode.NONE``); same observation triple as :func:`_quickstart`."""
    reset_global_ids()
    session = Session(config)
    data = (np.arange(64.0 * 64).reshape(64, 64) % 23.0) / 23.0 - 0.5
    X = session.read(data, "X")
    out = None
    for _ in range(iters):
        out = (((X * 2.0) + 1.0).sigmoid() * 0.5).relu().compute()
    return out, session.stats.counters(), dict(session.clock.timelines)


def _spill_chain(config: MemphisConfig, links: int = 10):
    """A cell-wise GPU chain on a 64 KiB device, whose block runs the
    memory planner's device-to-host spills in-stream; same observation
    triple as :func:`_quickstart`."""
    reset_global_ids()
    config.gpu_enabled = True
    config.gpu.device_memory = 64 * 1024
    config.memplan = True
    config.memplan_enforce = True
    config.memplan_spills = True
    session = Session(config)
    h = session.read(np.random.default_rng(3).random((50, 50)), "X")
    for _ in range(links):
        h = (h * 1.001 + 0.5).relu()
    out = session.compute(h)
    assert session.stats.get(MEMPLAN_SPILLS_EXECUTED) > 0
    return out, session.stats.counters(), dict(session.clock.timelines)


def _with_empty_fault_plan(config: MemphisConfig) -> MemphisConfig:
    # enables the injector (forcing run_instrumented) without injecting
    config.faults = FaultPlan(specs=[])
    return config


def _assert_equivalent(fast, instrumented):
    out_f, counters_f, clock_f = fast
    out_i, counters_i, clock_i = instrumented
    assert out_f.tobytes() == out_i.tobytes()
    assert counters_f == counters_i
    assert clock_f == clock_i


class TestQuickstartEquivalence:
    @pytest.mark.parametrize("make_config", [
        MemphisConfig.memphis, MemphisConfig.base,
    ], ids=["memphis", "base"])
    def test_byte_identical_under_empty_fault_plan(self, make_config):
        _assert_equivalent(
            _quickstart(make_config()),
            _quickstart(_with_empty_fault_plan(make_config())),
        )

    def test_byte_identical_under_metrics_collector(self):
        fast = _quickstart(MemphisConfig.memphis())
        enable_metrics(MetricsCollector())
        try:
            instrumented = _quickstart(MemphisConfig.memphis())
        finally:
            disable_metrics()
        _assert_equivalent(fast, instrumented)


class TestChainEquivalence:
    def test_batch_dispatch_byte_identical(self):
        """ReuseMode.NONE engages chain batching on the fast path only;
        the instrumented loop runs the same plan per-instruction."""
        def config():
            cfg = MemphisConfig.memphis()
            cfg.reuse_mode = ReuseMode.NONE
            return cfg
        _assert_equivalent(
            _cellwise(config()),
            _cellwise(_with_empty_fault_plan(config())),
        )

    def test_chain_interior_not_cached(self):
        cfg = MemphisConfig.memphis()
        cfg.reuse_mode = ReuseMode.NONE
        reset_global_ids()
        session = Session(cfg)
        X = session.read(np.ones((16, 16)), "X")
        (((X * 2.0) + 1.0).sigmoid() * 0.5).relu().compute()
        assert len(session.cache) == 0


class TestPlannedSpillEquivalence:
    def test_byte_identical_under_empty_fault_plan(self):
        """Planned spills run through both entry points at the same
        stream positions."""
        _assert_equivalent(
            _spill_chain(MemphisConfig.memphis()),
            _spill_chain(_with_empty_fault_plan(MemphisConfig.memphis())),
        )


class TestServerZeroOverhead:
    """The request-observability layer must cost nothing when disabled.

    ``benchmarks/baselines/server_mixed_counters.json`` was captured
    from the committed tree *before* the request layer existed; the
    same demo run today — request contexts minted, flight recorder on,
    attribution matrix maintained — must reproduce it byte-for-byte:
    identical merged counters, request outcomes, tenant occupancy, and
    result values, with every session still on the fast dispatch loop.
    """

    BASELINE = "benchmarks/baselines/server_mixed_counters.json"

    @pytest.fixture()
    def baseline(self):
        import json
        import os

        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), self.BASELINE)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def test_counters_byte_identical_to_pre_request_baseline(self, baseline):
        from repro.server import run_server_demo

        report = run_server_demo(baseline["sessions"],
                                 seed=baseline["seed"])
        assert dict(report.merged.counters()) == baseline["merged_counters"]
        assert report.tenants == baseline["tenants"]
        assert {r.name: r.value for r in report.results} \
            == baseline["values"]
        records = {r["name"]: r for r in
                   (res.as_record() for res in report.results)}
        for rec in baseline["requests"]:
            got = records[rec["name"]]
            for key in ("tenant", "ok", "steps", "retries", "error"):
                assert got[key] == rec[key], (rec["name"], key)

    def test_fast_loop_selected_with_request_layer_disabled(self, baseline):
        from repro.obs.tracer import NULL_TRACER
        from repro.server import run_server_demo

        report = run_server_demo(baseline["sessions"],
                                 seed=baseline["seed"])
        for session in report.sessions:
            assert session.tracer is NULL_TRACER
            assert select_loop(session.interpreter) is run_fast


class TestFig12Equivalence:
    @pytest.mark.parametrize("setting", ["Base", "MPH"])
    def test_byte_identical_under_metrics_collector(self, setting):
        reset_global_ids()
        fast = run_fig12b(setting, batch_size=64, num_images=128,
                          reuse_fraction=0.5, hw=12)
        reset_global_ids()
        enable_metrics(MetricsCollector())
        try:
            instrumented = run_fig12b(setting, batch_size=64,
                                      num_images=128,
                                      reuse_fraction=0.5, hw=12)
        finally:
            disable_metrics()
        assert fast.metric == instrumented.metric
        assert fast.counters == instrumented.counters
        assert fast.elapsed == instrumented.elapsed
