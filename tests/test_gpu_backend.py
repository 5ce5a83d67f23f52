"""Tests for the GPU simulator: device, stream, memory manager, backend."""

import numpy as np
import pytest

from repro.backends.gpu import (
    GpuBackend,
    GpuDevice,
    GpuMemoryManager,
    GpuStream,
    MODE_MALLOC,
    MODE_MEMPHIS,
    MODE_POOL,
)
from repro.common.config import GpuConfig
from repro.common.errors import GpuError, GpuOutOfMemoryError
from repro.common.simclock import DEVICE, HOST, SimClock
from repro.common.stats import Stats
from repro.runtime.values import MatrixValue


def small_config(capacity=64 * 1024):
    return GpuConfig(device_memory=capacity, alignment=512)


class TestGpuDevice:
    def test_malloc_free_roundtrip(self):
        dev = GpuDevice(small_config())
        off = dev.malloc(1000)
        assert off == 0
        assert dev.used_bytes == 1024  # aligned to 512
        dev.free(off)
        assert dev.used_bytes == 0

    def test_first_fit(self):
        dev = GpuDevice(small_config())
        a = dev.malloc(1024)
        b = dev.malloc(1024)
        dev.free(a)
        c = dev.malloc(512)
        assert c == a  # reuses the first hole

    def test_exhaustion_returns_none(self):
        dev = GpuDevice(small_config(capacity=2048))
        assert dev.malloc(2048) is not None
        assert dev.malloc(512) is None

    def test_fragmentation_blocks_large_alloc(self):
        dev = GpuDevice(small_config(capacity=4096))
        a = dev.malloc(1024)
        b = dev.malloc(1024)
        c = dev.malloc(1024)
        d = dev.malloc(1024)
        dev.free(a)
        dev.free(c)
        # 2048 bytes free but fragmented into two 1024 holes
        assert dev.free_bytes == 2048
        assert dev.malloc(2048) is None
        assert dev.fragmentation > 0

    def test_coalescing_adjacent_holes(self):
        dev = GpuDevice(small_config(capacity=4096))
        a = dev.malloc(1024)
        b = dev.malloc(1024)
        dev.free(a)
        dev.free(b)  # adjacent: coalesce into 2048 + tail
        assert dev.largest_free_block == 4096

    def test_defragment_compacts(self):
        dev = GpuDevice(small_config(capacity=4096))
        a = dev.malloc(1024)
        b = dev.malloc(1024)
        c = dev.malloc(1024)
        dev.free(b)
        moved = dev.defragment()
        assert moved == 1024  # c moved down
        assert dev.largest_free_block == 2048
        assert dev.relocation_map[c] == 1024

    def test_double_free_raises(self):
        dev = GpuDevice(small_config())
        off = dev.malloc(512)
        dev.free(off)
        with pytest.raises(GpuError):
            dev.free(off)

    def test_invalid_size(self):
        dev = GpuDevice(small_config())
        with pytest.raises(GpuError):
            dev.malloc(0)


class TestGpuStream:
    def test_kernel_async_for_host(self):
        clock, stats = SimClock(), Stats()
        stream = GpuStream(GpuConfig(), clock, stats)
        stream.launch(flops=1e9, bytes_touched=0)
        assert clock.now(HOST) < clock.now(DEVICE)

    def test_synchronize_joins(self):
        clock, stats = SimClock(), Stats()
        stream = GpuStream(GpuConfig(), clock, stats)
        stream.launch(flops=1e9, bytes_touched=0)
        stream.synchronize()
        assert clock.now(HOST) == clock.now(DEVICE)
        assert stats.get("gpu/synchronizations") == 1

    def test_d2h_copy_synchronizes(self):
        clock, stats = SimClock(), Stats()
        stream = GpuStream(GpuConfig(), clock, stats)
        stream.launch(flops=1e9, bytes_touched=0)
        stream.copy_d2h(1024)
        assert clock.now(HOST) >= clock.now(DEVICE) - 1e-12
        assert stats.get("gpu/d2h_copies") == 1

    def test_h2d_blocks_host(self):
        clock, stats = SimClock(), Stats()
        cfg = GpuConfig()
        stream = GpuStream(cfg, clock, stats)
        stream.copy_h2d(int(cfg.h2d_bandwidth_bytes_per_s))
        assert clock.now(HOST) == pytest.approx(1.0)


def manager(mode, capacity=64 * 1024):
    clock, stats = SimClock(), Stats()
    cfg = small_config(capacity)
    dev = GpuDevice(cfg)
    stream = GpuStream(cfg, clock, stats)
    return GpuMemoryManager(dev, stream, clock, stats, mode), stats


class TestMemoryManagerModes:
    def test_malloc_mode_frees_immediately(self):
        mgr, stats = manager(MODE_MALLOC)
        ptr = mgr.allocate(1024)
        mgr.release(ptr)
        assert ptr.freed
        assert stats.get("gpu/cuda_frees") == 1
        assert mgr.free_bytes_pooled == 0

    def test_pool_mode_recycles_exact_size(self):
        mgr, stats = manager(MODE_POOL)
        ptr = mgr.allocate(1024)
        mgr.release(ptr)
        assert not ptr.freed
        again = mgr.allocate(1024)
        assert again.offset == ptr.offset
        assert stats.get("gpu/pointers_recycled") == 1
        assert stats.get("gpu/cuda_mallocs") == 1  # only the first

    def test_pool_mode_flushes_on_pressure(self):
        mgr, stats = manager(MODE_POOL, capacity=4096)
        ptr = mgr.allocate(1024)
        mgr.release(ptr)
        big = mgr.allocate(4096)  # needs the pooled block freed
        assert big is not None
        assert stats.get("gpu/cuda_frees") >= 1

    def test_memphis_recycles_and_reuses(self):
        mgr, stats = manager(MODE_MEMPHIS)
        ptr = mgr.allocate(2048)
        mgr.release(ptr)
        revived = mgr.reuse_from_free(ptr)
        assert revived.ref_count == 1
        assert stats.get("gpu/pointers_reused") == 1
        mgr.release(revived)
        fresh = mgr.allocate(2048)
        assert fresh.offset == ptr.offset
        assert stats.get("gpu/pointers_recycled") == 1


class TestAlgorithmOne:
    def test_free_just_larger_on_miss(self):
        mgr, stats = manager(MODE_MEMPHIS, capacity=8192)
        big = mgr.allocate(4096)
        small = mgr.allocate(2048)
        fill = mgr.allocate(1536)
        mgr.release(big)
        # request 3072: no exact 3072 pool entry; frees the larger 4096
        out = mgr.allocate(3072)
        assert out is not None
        assert stats.get("gpu/cuda_frees") >= 1

    def test_repeatedly_free_until_success(self):
        mgr, _ = manager(MODE_MEMPHIS, capacity=8192)
        ptrs = [mgr.allocate(2048) for _ in range(4)]
        for p in ptrs:
            mgr.release(p)
        out = mgr.allocate(8192)  # must free several pooled pointers
        assert out is not None

    def test_oom_raises_with_context(self):
        mgr, _ = manager(MODE_MEMPHIS, capacity=4096)
        keep = mgr.allocate(4096)  # live, cannot be evicted
        with pytest.raises(GpuOutOfMemoryError) as err:
            mgr.allocate(1024)
        assert err.value.requested == 1024

    def test_defragmentation_rescues_fragmented_device(self):
        mgr, stats = manager(MODE_MEMPHIS, capacity=6144)
        a = mgr.allocate(2048)
        b = mgr.allocate(1024)
        c = mgr.allocate(2048)
        mgr.release(a)
        mgr.allocate(512)  # reuse part of a's hole -> fragmentation
        mgr.release(c)
        # flush pools then defrag to satisfy a large request
        out = mgr.allocate(3584)
        assert out is not None

    def test_invalidation_callback_fires_on_recycle(self):
        invalidated = []
        mgr, _ = manager(MODE_MEMPHIS)
        mgr.on_invalidate = invalidated.append
        ptr = mgr.allocate(1024)
        mgr.release(ptr)
        mgr.allocate(1024)  # recycles ptr
        assert invalidated == [ptr]

    def test_empty_cache_partial(self):
        mgr, _ = manager(MODE_MEMPHIS)
        ptrs = [mgr.allocate(1024) for _ in range(4)]
        for ptr in ptrs:
            mgr.release(ptr)
        freed = mgr.empty_cache(0.5)
        assert freed == 2
        assert mgr.free_bytes_pooled == 2048

    def test_empty_cache_full(self):
        mgr, _ = manager(MODE_MEMPHIS)
        ptrs = [mgr.allocate(size) for size in (512, 1024, 2048)]
        for ptr in ptrs:
            mgr.release(ptr)
        mgr.empty_cache(1.0)
        assert mgr.free_bytes_pooled == 0
        assert not mgr.free_lists


class TestEvictionScoring:
    def test_recent_and_expensive_survive(self):
        mgr, _ = manager(MODE_MEMPHIS)
        clock = mgr.clock
        old = mgr.allocate(1024)
        old.compute_cost = 1.0
        recent = mgr.allocate(1024)
        recent.compute_cost = 1e9
        mgr.release(old)
        clock.advance(1.0, DEVICE)
        recent.last_access = clock.now(DEVICE)
        mgr.release(recent)
        victim = mgr._global_victim()
        assert victim is old

    def test_short_lineage_preserved(self):
        # 1/h(o) term: shorter lineage -> higher score -> survives
        mgr, _ = manager(MODE_MEMPHIS)
        deep = mgr.allocate(1024)
        deep.lineage_height = 100
        shallow = mgr.allocate(1024)
        shallow.lineage_height = 1
        mgr.release(deep)
        mgr.release(shallow)
        victim = mgr._global_victim()
        assert victim is deep


class TestGpuBackend:
    def test_execute_computes_and_charges(self):
        clock, stats = SimClock(), Stats()
        backend = GpuBackend(GpuConfig(), clock, stats)
        x = backend.to_device(MatrixValue(np.ones((32, 32))))
        out = backend.execute("relu", [x], {})
        assert np.allclose(out.value.data, 1.0)
        assert clock.now(DEVICE) > 0
        assert stats.get("gpu/kernels_launched") == 1

    def test_scalar_aggregate_syncs(self):
        clock, stats = SimClock(), Stats()
        backend = GpuBackend(GpuConfig(), clock, stats)
        x = backend.to_device(MatrixValue(np.ones((16, 16))))
        out = backend.execute("uak+", [x], {})
        assert out.value == 256.0
        assert stats.get("gpu/synchronizations") >= 1

    def test_to_host_roundtrip(self):
        clock, stats = SimClock(), Stats()
        backend = GpuBackend(GpuConfig(), clock, stats)
        value = MatrixValue(np.arange(16, dtype=float).reshape(4, 4))
        data = backend.to_device(value)
        back = backend.to_host(data)
        assert np.allclose(back.data, value.data)


class TestFailedRunReleases:
    def test_raising_run_releases_its_execution_references(self):
        """A block whose second GPU kernel raises pops and releases its
        own acquired-pointer list; later runs leave nothing behind."""
        from repro import MemphisConfig, Session
        from repro.faults.determinism import reset_global_ids

        reset_global_ids()
        cfg = MemphisConfig.memphis()
        cfg.gpu_enabled = True
        session = Session(cfg)
        interp = session.interpreter
        gpu = session.gpu
        execute = gpu.execute
        calls = []
        failed_run = []

        def second_kernel_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                failed_run.extend(interp._acquired_stack[-1])
                raise GpuError("injected kernel failure")
            return execute(*args, **kwargs)

        X = session.read(np.random.default_rng(3).random((50, 50)), "X")
        gpu.execute = second_kernel_fails
        with pytest.raises(GpuError):
            session.compute(((X * 1.5) + 0.5).relu())
        gpu.execute = execute
        assert failed_run, "the failed run should hold GPU references"
        assert interp._acquired_stack == []
        for scale in (2.0, 3.0, 4.0):
            session.compute(((X * scale) + 0.5).relu())
        assert interp._acquired_stack == []
        for data in failed_run:
            assert data.ptr.ref_count == 0
            assert data.ptr.id not in gpu.memory.live
