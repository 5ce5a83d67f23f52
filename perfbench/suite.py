"""The benchmark's four workloads, driven through the public API.

Every workload splits one *episode* into steps the runner times apart:

* ``generate(seed)`` makes every input matrix, weight and
  hyper-parameter stream with NumPy.  The same seed gives the same
  inputs; the program only ever receives them.
* ``build(inputs)`` constructs the sessions (or the scheduler) and reads
  the inputs into them: the set-up a user pays before the first
  ``evaluate``.
* ``run(state, inputs, rec)`` performs the workload's operations and
  times each one on host time.
* ``check(inputs, episode)`` compares every operation's output with the
  NumPy reference in :mod:`reference` and returns the mismatches.

An episode always starts from fresh sessions, so every episode of one
seed does the same work and leaves the same counters behind.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import reference
from repro import MemphisConfig, Session
from repro.ml.l2svm import l2svm_core_iteration
from repro.ml.nn import MlpModel
from repro.ml.pnmf import pnmf_iteration, pnmf_loss
from repro.server import Scheduler
from repro.workloads.base import (
    WORKLOAD_OVERHEAD_SCALE,
    make_session,
    scale_overheads,
)

_clock = time.perf_counter

KiB = 1024


@dataclass
class Episode:
    """What one episode leaves behind for the metrics and the checks."""

    #: host seconds of every operation, in the order they ran.
    latencies: list = field(default_factory=list)
    #: each operation's output, ``None`` where it raised or was refused.
    outputs: list = field(default_factory=list)
    #: operations that raised or were refused.
    failed: int = 0
    #: every Stats registry holding the episode's counters.
    stats: list = field(default_factory=list)
    #: every Session the episode created.
    sessions: list = field(default_factory=list)
    #: simulated seconds summed over the episode's sessions.
    sim_s: float = 0.0
    #: host seconds each request spent waiting (tenant_server only).
    queue_waits: list = field(default_factory=list)
    #: per-phase results checked besides the ops (PNMF's final loss).
    finals: list = field(default_factory=list)


def _op_failed(episode: Episode, what: str) -> None:
    """Record an operation that raised; the traceback goes to stderr."""
    episode.failed += 1
    episode.outputs.append(None)
    if episode.failed <= 3:
        print(f"operation failed: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


# ------------------------------------------------------- hyperparam_evict

class HyperparamEvict:
    """L2SVM-core hyper-parameter search under a small driver cache.

    One op is one trial: a gradient step of an L2-SVM from a start
    vector shifted by the trial's regularization value.  Regularization
    values repeat Zipf-distributed (40% of trials), so a repeated trial
    is reusable, but the distinct working set is about 20x the 256 KiB
    driver cache: the cache writes, evicts and re-reads every few
    trials.
    """

    name = "hyperparam_evict"
    rows, cols = 512, 16          # 64 KiB input
    trials = 300
    repeat_fraction = 0.4
    cache_bytes = 256 * KiB

    def generate(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        X = rng.random((self.rows, self.cols))
        y = np.where(rng.random((self.rows, 1)) > 0.5, 1.0, -1.0)
        w0 = rng.standard_normal((self.cols, 1)) * 0.01
        # exactly repeat_fraction of the trials repeat an earlier value
        # (seeded positions, Zipf-ranked targets), so every seed searches
        # the same number of distinct values
        repeats = set(rng.permutation(np.arange(1, self.trials))[
            :round(self.trials * self.repeat_fraction)].tolist())
        pool: list[float] = []
        regs = []
        for trial in range(self.trials):
            if trial in repeats:
                reg = pool[min(int(rng.zipf(1.4)) - 1, len(pool) - 1)]
            else:
                reg = round(10.0 ** rng.uniform(-3, 1), 6)
                pool.append(reg)
            regs.append(reg)
        return {"X": X, "y": y, "w0": w0, "regs": regs}

    def build(self, inputs: dict) -> dict:
        cfg = MemphisConfig.memphis()
        cfg.cache.driver_cache_bytes = self.cache_bytes
        sess = Session(cfg)
        return {
            "sess": sess,
            "X": sess.read(inputs["X"], "X"),
            "y": sess.read(inputs["y"], "y"),
            "w0": sess.read(inputs["w0"], "w0"),
        }

    def run(self, state: dict, inputs: dict, rec) -> Episode:
        sess, X, y, w0 = state["sess"], state["X"], state["y"], state["w0"]
        ep = Episode(stats=[sess.stats], sessions=[sess])
        for op, reg in enumerate(inputs["regs"]):
            if rec is not None:
                rec.op = op
            start = _clock()
            try:
                w = l2svm_core_iteration(sess, X, y, w0 + reg, reg)
                out = sess.compute(w)
            except Exception:  # noqa: BLE001 - counted as a failed op
                _op_failed(ep, f"trial {op}")
                continue
            ep.latencies.append(_clock() - start)
            ep.outputs.append(out.copy())
        ep.sim_s = sess.elapsed()
        return ep

    def check(self, inputs: dict, ep: Episode) -> int:
        X, y, w0 = inputs["X"], inputs["y"], inputs["w0"]
        expected: dict[float, np.ndarray] = {}
        bad = 0
        for reg, out in zip(inputs["regs"], ep.outputs):
            if out is None:
                continue
            if reg not in expected:
                expected[reg] = reference.l2svm_step(X, y, w0 + reg, reg)
            bad += not reference.close(out, expected[reg])
        return bad


# ------------------------------------------------------------ pnmf_spark

class PnmfSpark:
    """PNMF with the factor W distributed on the Spark backend.

    One op is one PNMF iteration.  The episode runs 12 iterations under
    ``Base`` (lazy evaluation re-executes every earlier iteration in
    each job) and then 20 under ``MPH`` (compiler-placed checkpoints).
    The lineage cache is idle under Base, so this is the control for
    cache and compile changes.
    """

    name = "pnmf_spark"
    cols, rank = 64, 8
    phases = (("Base", 12), ("MPH", 20))

    def generate(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        # the seed also picks the row count within a narrow band, so
        # simulated time differs between seeds while host work barely does
        rows = 472 + (seed * 7) % 17
        X = (rng.random((rows, 4)) @ rng.random((4, self.cols))
             + 0.05 * rng.random((rows, self.cols)) + 0.01)
        W0 = rng.uniform(0.01, 1.0, (rows, self.rank))
        H0 = rng.uniform(0.01, 1.0, (self.rank, self.cols))
        return {"X": X, "W0": W0, "H0": H0}

    def build(self, inputs: dict) -> list:
        rows = inputs["X"].shape[0]
        phases = []
        for system, iterations in self.phases:
            sess = make_session(system)
            # W (rows x rank) exceeds the operation memory: it goes to Spark
            sess.config.cpu.operation_memory_bytes = rows * self.rank * 8 // 2
            phases.append((sess, iterations, sess.read(inputs["X"], "X"),
                           sess.read(inputs["W0"], "W0"),
                           sess.read(inputs["H0"], "H0")))
        return phases

    def run(self, state: list, inputs: dict, rec) -> Episode:
        ep = Episode()
        op = 0
        for sess, iterations, X, W, H in state:
            ep.stats.append(sess.stats)
            ep.sessions.append(sess)
            with sess.loop("pnmf") as loop:
                for _ in range(iterations):
                    if rec is not None:
                        rec.op = op
                    op += 1
                    start = _clock()
                    try:
                        W, H = pnmf_iteration(sess, X, W, H)
                        loop.update(W=W)
                        out = sess.compute(H)
                    except Exception:  # noqa: BLE001 - counted as failed
                        _op_failed(ep, f"iteration {op}")
                        continue
                    ep.latencies.append(_clock() - start)
                    ep.outputs.append(out.copy())
            if rec is not None:
                rec.op = None
            try:
                ep.finals.append(pnmf_loss(sess, X, W, H))
            except Exception:  # noqa: BLE001 - checked as a mismatch
                traceback.print_exc(file=sys.stderr)
                ep.finals.append(None)
            ep.sim_s += sess.elapsed()
        return ep

    def check(self, inputs: dict, ep: Episode) -> int:
        """Each iteration's H, and each phase's final loss (a wrong loss
        counts against the phase's last iteration)."""
        bad = 0
        outputs = iter(ep.outputs)
        for (_, iterations), loss in zip(self.phases, ep.finals):
            hs, _, expected_loss = reference.pnmf(
                inputs["X"], inputs["W0"], inputs["H0"], iterations)
            for expected in hs:
                out = next(outputs)
                if out is not None:
                    bad += not reference.close(out, expected)
            bad += loss is None or not reference.close(loss, expected_loss)
        return bad


# --------------------------------------------------------- gpu_wordscore

class GpuWordscore:
    """Per-word MLP scoring of a Zipf word stream on the GPU backend.

    One op is one scored word.  The stream is scored under ``MPH``,
    where a repeated word is one function-cache probe, and then under
    ``Base-G``, where every word runs the four-layer forward pass.  Every
    block has the same structure, so compilation, dispatch and the GPU
    simulator dominate; the cache is read-mostly and never evicts.
    """

    name = "gpu_wordscore"
    vocab = 2000
    dims = (64, 96, 96, 64)
    words = 400
    systems = ("MPH", "Base-G")

    def generate(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        ids = np.minimum(rng.zipf(1.4, self.words), self.vocab) - 1
        table = rng.standard_normal((self.vocab, self.dims[0])) * 0.1
        weights, biases = [], []
        for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:]):
            bound = (6.0 / (fan_in + fan_out)) ** 0.5
            weights.append(rng.uniform(-bound, bound, (fan_in, fan_out)))
            biases.append(rng.standard_normal((1, fan_out)) * 0.01)
        return {"ids": [int(i) for i in ids], "table": table,
                "weights": weights, "biases": biases}

    def build(self, inputs: dict) -> list:
        phases = []
        for system in self.systems:
            cfg = MemphisConfig.memphis() if system == "MPH" \
                else MemphisConfig.base()
            cfg.gpu_enabled = True
            cfg.spark_enabled = False
            cfg.gpu.min_cells = 16
            scale_overheads(cfg, WORKLOAD_OVERHEAD_SCALE)
            sess = Session(cfg)
            emb = sess.read(inputs["table"], "embeddings")
            model = MlpModel(
                [sess.read(w, f"W{i}") for i, w in
                 enumerate(inputs["weights"])],
                [sess.read(b, f"b{i}") for i, b in
                 enumerate(inputs["biases"])],
            )
            if system == "MPH":
                score = sess.function("score_word")(
                    lambda e, s=sess, m=model: m.forward(s, e).max()
                )
            else:
                def score(e, s=sess, m=model):
                    return m.forward(s, e).max()
            phases.append((sess, emb, score))
        return phases

    def run(self, state: list, inputs: dict, rec) -> Episode:
        ep = Episode()
        op = 0
        for sess, emb, score in state:
            ep.stats.append(sess.stats)
            ep.sessions.append(sess)
            for wid in inputs["ids"]:
                if rec is not None:
                    rec.op = op
                op += 1
                start = _clock()
                try:
                    top = score(emb[wid:wid + 1, :]).item()
                except Exception:  # noqa: BLE001 - counted as failed
                    _op_failed(ep, f"word {op}")
                    continue
                ep.latencies.append(_clock() - start)
                ep.outputs.append(top)
            ep.sim_s += sess.elapsed()
        return ep

    def check(self, inputs: dict, ep: Episode) -> int:
        expected: dict[int, float] = {}
        bad = 0
        ids = inputs["ids"] * len(self.systems)
        for wid, out in zip(ids, ep.outputs):
            if out is None:
                continue
            if wid not in expected:
                expected[wid] = reference.mlp_top_score(
                    inputs["table"][wid:wid + 1], inputs["weights"],
                    inputs["biases"])
            bad += not reference.close(out, expected[wid])
        return bad


# --------------------------------------------------------- tenant_server

class TenantServer:
    """Closed-loop reuse server: four tenants under CP quotas.

    Each round submits 4 to 8 concurrent ridge-regression requests to
    one long-lived Scheduler over one shared Substrate and waits for all
    of them.  60% of requests run a pure pipeline over datasets every
    tenant shares (cross-session hits); the rest read their tenant's
    private dataset under a name all tenants use, which the substrate
    namespaces.  One op is one request, timed from round start to its
    completion.

    Known defect, not worked around: ``Scheduler.sessions`` keeps every
    finished request's Session across ``run()`` calls, and each
    ``run()`` merges all of their counters into its report.  Memory and
    per-round report cost grow with the rounds of an episode.
    """

    name = "tenant_server"
    tenants = ("t0", "t1", "t2", "t3")
    rounds = 40
    rows, cols = 64, 8
    shared_datasets = 6
    lambdas = (0.01, 0.1, 1.0)
    quota = 48 * KiB

    def generate(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)

        def dataset():
            return (rng.random((self.rows, self.cols)),
                    rng.random((self.rows, 1)))

        shared = [dataset() for _ in range(self.shared_datasets)]
        private = {t: dataset() for t in self.tenants}
        # every seed submits the same round sizes, tenant mix and
        # shared/private split; the seed orders them and picks datasets
        # and ridge values
        sizes = rng.permutation(
            np.resize(np.arange(4, 9), self.rounds)).tolist()
        total = sum(sizes)
        tenants = rng.permutation(np.resize(np.arange(4), total)).tolist()
        is_shared = rng.permutation(
            np.arange(total) < round(0.6 * total)).tolist()
        requests = []
        for i in range(total):
            tenant = self.tenants[tenants[i]]
            if is_shared[i]:
                k = int(rng.integers(self.shared_datasets))
                name, (X, y) = f"shared{k}", shared[k]
            else:
                name, (X, y) = "private", private[tenant]
            lam = self.lambdas[int(rng.integers(len(self.lambdas)))]
            requests.append((tenant, name, X, y, lam))
        rounds = []
        for size in sizes:
            rounds.append(requests[:size])
            requests = requests[size:]
        return {"seed": seed, "rounds": rounds}

    def build(self, inputs: dict) -> Scheduler:
        scheduler = Scheduler(seed=inputs["seed"])
        for tenant in self.tenants:
            scheduler.add_tenant(tenant, self.quota)
        return scheduler

    @staticmethod
    def _program(X, y, name: str, lam: float, op: int, times: dict, rec):
        """The request's program, timing its own scheduling quanta."""

        def ridge(session):
            Xh = session.read(X, name)
            yh = session.read(y, name + "_y")
            yield
            gram = Xh.t() @ Xh
            xty = (yh.t() @ Xh).t()
            session.evaluate([gram, xty])
            yield
            beta = session.solve(gram + lam * session.eye(X.shape[1]), xty)
            return session.compute(beta).copy()

        def program(session):
            # a refused request restarts here; its quanta keep adding up
            gen = ridge(session)
            while True:
                if rec is not None:
                    rec.op = op
                start = _clock()
                try:
                    next(gen)
                except StopIteration as stop:
                    end = _clock()
                    times["own"] += end - start
                    times["done"] = end
                    return stop.value
                finally:
                    if rec is not None:
                        rec.op = None
                times["own"] += _clock() - start
                yield

        return program

    def run(self, scheduler: Scheduler, inputs: dict, rec) -> Episode:
        ep = Episode()
        op = 0
        for requests in inputs["rounds"]:
            timings = []
            for tenant, name, X, y, lam in requests:
                times = {"own": 0.0, "done": None}
                timings.append(times)
                scheduler.submit(
                    tenant, self._program(X, y, name, lam, op, times, rec),
                    name=f"op{op}")
                op += 1
            start = _clock()
            report = scheduler.run()
            for times, result in zip(timings,
                                     report.results[-len(requests):]):
                if not result.ok or times["done"] is None:
                    ep.failed += 1
                    ep.outputs.append(None)
                    print(f"request {result.name} failed: {result.error}",
                          file=sys.stderr)
                    continue
                latency = times["done"] - start
                ep.latencies.append(latency)
                ep.queue_waits.append(latency - times["own"])
                ep.outputs.append(result.value)
        ep.sessions = list(scheduler.sessions)
        ep.stats = [scheduler.substrate.stats] + [
            s.stats for s in scheduler.sessions]
        ep.sim_s = sum(s.elapsed() for s in scheduler.sessions)
        return ep

    def check(self, inputs: dict, ep: Episode) -> int:
        requests = [r for rnd in inputs["rounds"] for r in rnd]
        expected: dict[tuple, np.ndarray] = {}
        bad = 0
        for (tenant, name, X, y, lam), out in zip(requests, ep.outputs):
            if out is None:
                continue
            key = (name, tenant if name == "private" else None, lam)
            if key not in expected:
                expected[key] = reference.ridge(X, y, lam)
            bad += not reference.close(out, expected[key])
        return bad


WORKLOADS = {wl.name: wl for wl in (
    HyperparamEvict(), PnmfSpark(), GpuWordscore(), TenantServer())}


def episode_counters(ep: Episode) -> dict[str, int]:
    """The episode's counters merged over all its Stats registries."""
    merged: dict[str, int] = {}
    for stats in ep.stats:
        for name, value in stats.counters().items():
            merged[name] = merged.get(name, 0) + value
    return merged
