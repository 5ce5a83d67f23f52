"""Machine-speed calibration for the benchmark's host times.

The machine this benchmark was built on is a 2-vCPU virtual machine
whose CPU speed drifts by about +-25% over seconds to minutes, with
other tenants' load: in 100 s of back-to-back identical episodes of
``hyperparam_evict``, the per-episode rate ranged from 207 to 434 ops/s,
and medians over 10 s windows still differed by 20-45% (interquartile
range over median).  Longer runs do not average that out.

So every host time the benchmark reports is scaled to a fixed
*reference speed*.  Around each episode the runner times three passes
of fixed work that does not touch the program:

* an interpreter-bound Python loop (method calls through ``min`` with a
  key, like the program's dispatch and victim scoring);
* a NumPy loop (small matmuls and element-wise kernels into
  preallocated buffers, like its CPU kernels);
* a page-fault loop (fresh 512 KiB anonymous mappings, every page
  touched).  Large
  NumPy temporaries are fresh mappings: half of ``pnmf_spark``'s time
  is the kernel's page-fault handling, whose speed drifts apart from
  the CPU's.

The episode's *speed ratio* weighs the CPU passes' speed (geometric mean
of the Python and NumPy parts, before and after) by the episode's user
CPU time, and the page-fault pass's speed by its system CPU time; each
speed is reference time over measured time.  A host time times the
speed ratio is that time at reference speed.  On 45-60 s series, this
brought the spread of 7 s window medians from 10-33% down to 4-10%.

A change to the program does not change the calibration passes, so a
faster program still reads faster; only the machine's drift cancels.
"""

from __future__ import annotations

import math
import mmap
import time

import numpy as np

#: seconds of the Python, NumPy and page-fault passes at reference
#: speed: their medians over 60 passes on the machine described above.
REFERENCE_S = (0.0190, 0.0188, 0.0231)


class _Item:
    __slots__ = ("hits", "cost", "size")

    def __init__(self, i: int) -> None:
        self.hits = i % 7
        self.cost = 1.0 + (i * 37) % 101
        self.size = 64 + (i * 53) % 997

    def score(self, now: float) -> float:
        return (self.hits + 1) * self.cost / (self.size + now)


_ITEMS = [_Item(i) for i in range(64)]
_A = np.linspace(0.0, 1.0, 96 * 48).reshape(96, 48)
_B = np.ascontiguousarray(_A.T)
_C = np.empty((96, 96))
_D = np.empty((96, 96))


def _python_pass() -> float:
    start = time.perf_counter()
    items = _ITEMS
    for rep in range(1000):
        min(items, key=lambda e: e.score(rep))
    return time.perf_counter() - start


def _numpy_pass() -> float:
    start = time.perf_counter()
    for _ in range(450):
        np.matmul(_A, _B, out=_C)
        np.multiply(_C, 0.5, out=_D)
        np.add(_D, _C, out=_D)
        np.maximum(_D, 0.25, out=_D)
        _D.sum()
    return time.perf_counter() - start


def _page_fault_pass() -> float:
    start = time.perf_counter()
    for _ in range(64):
        # an anonymous mapping of its own: every touched page faults,
        # whatever state the allocator's heap is in.  Small mappings
        # keep the pass from raising the run's peak resident memory.
        region = mmap.mmap(-1, 512 << 10)
        pages = np.frombuffer(region, dtype=np.uint8)
        pages[::mmap.PAGESIZE] = 1
        del pages
        region.close()
    return time.perf_counter() - start


def passes() -> tuple[float, float, float]:
    """Seconds of one Python, one NumPy and one page-fault pass."""
    return _python_pass(), _numpy_pass(), _page_fault_pass()


def speed_ratio(before: tuple, after: tuple, user_s: float,
                sys_s: float) -> float:
    """Measured speed over reference speed for work that took
    ``user_s`` user and ``sys_s`` system CPU seconds between the passes
    ``before`` and ``after``."""

    def speed(parts: tuple) -> float:
        logs = [math.log(REFERENCE_S[i] / pair[i])
                for pair in (before, after) for i in parts]
        return math.exp(sum(logs) / len(logs))

    cpu = speed((0, 1))
    if user_s + sys_s <= 0.0:
        return cpu
    return (user_s * cpu + sys_s * speed((2,))) / (user_s + sys_s)
