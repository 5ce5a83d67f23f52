"""DAGScheduler: stage splitting at shuffle boundaries and job execution.

An action triggers :meth:`DAGScheduler.execute`, which walks the RDD
lineage, finds every unmaterialized :class:`ShuffleDependency`, runs map
stages in dependency order (writing shuffle files), then runs the result
stage.  The simulated job duration follows the standard cluster model::

    stage_time = task_overhead + max(longest_task, total_work / slots)
    job_time   = job_overhead + sum(stage_times)

Shuffle files persist across jobs (implicit Spark caching), so repeated
jobs over a shared dependency skip the map side — the shuffle-file reuse
MEMPHIS relies on for unmaterialized cached RDDs (§4.1).

Tasks charge their partitions through :meth:`RDD.get_partition`; result
tasks and shuffle map tasks are the consumers that
:func:`~repro.backends.spark.rdd.materialize` the values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.backends.spark.rdd import (
    RDD,
    ShuffleDependency,
    TaskMetrics,
    materialize,
)
from repro.common.errors import FaultInjectionError
from repro.common.stats import (
    FAULT_SPARK_TASK_RETRIES,
    SPARK_JOBS,
    SPARK_SHUFFLE_REUSE,
    SPARK_TASKS,
)
from repro.faults.plan import KIND_SPARK_TASK
from repro.obs.events import EV_SPARK_SHUFFLE_REUSE, LANE_SP

if TYPE_CHECKING:  # pragma: no cover
    from repro.backends.spark.context import SparkContext


@dataclass
class JobResult:
    """Outcome of one Spark job (stage/task counts per §2.2's model)."""

    partitions: list[np.ndarray]
    duration: float
    num_stages: int
    num_tasks: int
    #: per-stage (kind, num_tasks, duration) records, in execution
    #: order; consumed by the tracer to render stage spans inside the
    #: job span on the cluster lane.
    stages: list[tuple[str, int, float]] = field(default_factory=list)
    result_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.result_bytes = int(sum(p.nbytes for p in self.partitions))


class DAGScheduler:
    """Builds and runs the stage DAG of one job.

    Splits the RDD lineage at shuffle boundaries into map and result
    stages (paper §2.2) and skips map stages whose shuffle files
    already exist — the reuse path of §4.1.
    """

    def __init__(self, context: "SparkContext") -> None:
        self.context = context

    def execute(self, rdd: RDD) -> JobResult:
        """Run a job whose result stage materializes all of ``rdd``."""
        self.context.stats.inc(SPARK_JOBS)
        values = self.context.value_memo
        outer_memo, outer_values = self.context.job_memo, values.job
        self.context.job_memo, values.job = {}, {}
        try:
            return self._execute(rdd)
        finally:
            self.context.job_memo, values.job = outer_memo, outer_values

    def _execute(self, rdd: RDD) -> JobResult:
        cfg = self.context.config
        stats = self.context.stats
        pending = self._pending_shuffles(rdd)
        stage_times: list[float] = []
        stages: list[tuple[str, int, float]] = []
        total_tasks = 0

        for dep in pending:
            stage_time, tasks_run = self._run_map_stage(dep)
            stage_times.append(stage_time)
            stages.append(("shuffle_map", tasks_run, stage_times[-1]))
            total_tasks += tasks_run

        # result stage
        task_times: list[float] = []
        partitions: list[np.ndarray] = []
        self.context.block_manager.set_computing(rdd.id)
        try:
            for idx in range(rdd.num_partitions):
                partitions.append(self._run_task(
                    rdd, idx, task_times,
                    lambda metrics, i=idx: materialize(
                        rdd.get_partition(i, metrics)),
                ))
        finally:
            self.context.block_manager.set_computing(None)
        stage_times.append(self._stage_time(task_times))
        stages.append(("result", rdd.num_partitions, stage_times[-1]))
        total_tasks += rdd.num_partitions
        stats.inc(SPARK_TASKS, total_tasks)

        duration = cfg.job_overhead_s + sum(stage_times)
        return JobResult(partitions, duration, len(stage_times), total_tasks,
                         stages)

    # -- internals -----------------------------------------------------------

    def _pending_shuffles(self, rdd: RDD) -> list[ShuffleDependency]:
        """Unmaterialized shuffle dependencies, parents before children."""
        order: list[ShuffleDependency] = []
        seen: set[int] = set()

        def visit(node: RDD) -> None:
            if node.id in seen:
                return
            seen.add(node.id)
            # a fully cached persisted RDD needs no upstream computation
            if node.is_persisted:
                info = self.context.block_manager.rdd_storage_info(
                    node.id, node.num_partitions
                )
                if info["fully_cached"]:
                    return
            for dep in node.deps:
                visit(dep.rdd)
                if isinstance(dep, ShuffleDependency):
                    if dep.shuffle_files is None or any(
                        f is None for f in dep.shuffle_files
                    ):
                        # never written, or holes punched by executor
                        # loss: (re)run the map stage for missing files
                        order.append(dep)
                    else:
                        self.context.stats.inc(SPARK_SHUFFLE_REUSE)
                        tracer = self.context.tracer
                        if tracer.enabled:
                            tracer.instant(
                                EV_SPARK_SHUFFLE_REUSE, LANE_SP,
                                rdd=node.name,
                                nbytes=dep.shuffle_bytes,
                            )

        visit(rdd)
        return order

    def _run_map_stage(self, dep: ShuffleDependency) -> tuple[float, int]:
        """Execute the map side of one shuffle and retain its files.

        Map tasks run only for missing per-partition files, so after an
        executor loss punches ``None`` holes into ``shuffle_files`` the
        stage recomputes exactly the lost map outputs from RDD lineage
        (Spark's partial stage resubmission).  Returns the stage time and
        the number of map tasks actually run.
        """
        parent = dep.rdd
        files: list = (
            list(dep.shuffle_files) if dep.shuffle_files is not None
            else [None] * parent.num_partitions
        )
        task_times: list[float] = []
        tasks_run = 0
        written = 0
        self.context.block_manager.set_computing(parent.id)
        try:
            for idx in range(parent.num_partitions):
                if files[idx] is not None:
                    continue

                def map_task(metrics: TaskMetrics, i: int = idx):
                    block = materialize(parent.get_partition(i, metrics))
                    out = dep.map_side(i, block)
                    metrics.bytes_shuffled += sum(
                        b.nbytes for b in out.values()
                    )
                    metrics.flops += block.size  # map-side combine work
                    return out

                out = self._run_task(parent, idx, task_times, map_task)
                files[idx] = out
                written += sum(b.nbytes for b in out.values())
                tasks_run += 1
        finally:
            self.context.block_manager.set_computing(None)
        dep.shuffle_files = files
        dep.shuffle_bytes = sum(
            b.nbytes for out in files for b in out.values()
        )
        self.context.shuffle_store_bytes += written
        return self._stage_time(task_times), tasks_run

    def _run_task(self, rdd: RDD, idx: int, task_times: list[float],
                  body) -> object:
        """Run one task, absorbing injected failures by retrying.

        Each attempt charges its own task time (the stage model treats a
        retry as an extra task competing for the same slots).  A failed
        attempt's partial result is discarded — the per-job memo entry is
        dropped so the retry charges the partition's recomputation from
        RDD lineage again (its deterministic value comes from the value
        memo).
        """
        faults = self.context.faults
        fault = faults.spark_task() if faults.enabled else None
        attempt = 0
        while True:
            metrics = TaskMetrics()
            value = body(metrics)
            task_times.append(self._task_time(metrics))
            if fault is None or not fault.take():
                break
            attempt += 1
            self.context.stats.inc(FAULT_SPARK_TASK_RETRIES)
            faults.injected(KIND_SPARK_TASK, LANE_SP, rdd=rdd.name,
                            partition=idx, attempt=attempt)
            if attempt > faults.plan.max_task_retries:
                raise FaultInjectionError(
                    f"spark task for partition {idx} of {rdd.name!r} "
                    f"failed {attempt} times "
                    f"(budget {faults.plan.max_task_retries})"
                )
            self.context.job_memo.pop((rdd.id, idx), None)
        if attempt:
            faults.recovered(KIND_SPARK_TASK, LANE_SP, rdd=rdd.name,
                             partition=idx, attempts=attempt + 1)
        return value

    def _task_time(self, metrics: TaskMetrics) -> float:
        cfg = self.context.config
        return (
            cfg.task_overhead_s
            + metrics.flops / cfg.executor_flops_per_s
            + metrics.bytes_read / cfg.bandwidth_bytes_per_s
            + metrics.bytes_shuffled / cfg.shuffle_bytes_per_s
            + metrics.bytes_spilled / cfg.disk_bytes_per_s
        )

    def _stage_time(self, task_times: list[float]) -> float:
        if not task_times:
            return 0.0
        cfg = self.context.config
        slots = cfg.num_executors * cfg.cores_per_executor
        return max(max(task_times), sum(task_times) / slots)
