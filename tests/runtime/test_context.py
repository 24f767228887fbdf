"""Unit tests for the application Context."""

import numpy as np
import pytest

from repro.engine import Category
from repro.params import SimParams
from repro.runtime import Cluster


def cluster_and_array(nprocs=1, iface="cni"):
    params = SimParams().replace(
        num_processors=nprocs, dsm_address_space_pages=32
    )
    cluster = Cluster(params, interface=iface)
    arr = cluster.alloc_shared((4, 512))
    return cluster, arr


def test_compute_charges_exact_time():
    cluster, _ = cluster_and_array()

    def kernel(ctx):
        t0 = ctx.sim.now
        yield from ctx.compute(166e6)  # one second of cycles
        assert ctx.sim.now - t0 == pytest.approx(1e9)

    cluster.run(kernel)
    acc = cluster.nodes[0].account
    assert acc.ns[Category.COMPUTATION] == pytest.approx(1e9)


def test_compute_rejects_negative():
    cluster, _ = cluster_and_array()

    def kernel(ctx):
        with pytest.raises(ValueError):
            yield from ctx.compute(-1)
        yield from ctx.compute(0)

    cluster.run(kernel)


def test_access_runs_touches_cache():
    cluster, arr = cluster_and_array()
    node = cluster.nodes[0]

    def kernel(ctx):
        yield from ctx.read_runs([(arr.base_vaddr, 4096)])
        cold = node.cache.stats_memory
        assert cold == 128  # every line missed once
        yield from ctx.read_runs([(arr.base_vaddr, 4096)])
        assert node.cache.stats_memory == cold  # all hits now

    cluster.run(kernel)


def test_write_runs_record_into_collector():
    cluster, arr = cluster_and_array()
    node = cluster.nodes[0]

    def kernel(ctx):
        yield from ctx.write_runs([(arr.base_vaddr + 100, 50)])
        assert node.engine.collector.modified_bytes(0) == 50

    cluster.run(kernel)


def test_write_spanning_pages_records_both():
    cluster, arr = cluster_and_array()
    node = cluster.nodes[0]

    def kernel(ctx):
        # 200 bytes straddling the page boundary at 4096
        yield from ctx.write_runs([(arr.base_vaddr + 4000, 200)])
        assert node.engine.collector.modified_bytes(0) == 96
        assert node.engine.collector.modified_bytes(1) == 104

    cluster.run(kernel)


def test_access_outside_segment_rejected():
    cluster, arr = cluster_and_array()

    def kernel(ctx):
        with pytest.raises(ValueError):
            yield from ctx.read_runs([(0, 64)])  # private segment
        yield from ctx.compute(0)

    cluster.run(kernel)


def test_empty_runs_are_noops():
    cluster, arr = cluster_and_array()

    def kernel(ctx):
        t0 = ctx.sim.now
        yield from ctx.read_runs([])
        yield from ctx.write_runs([(arr.base_vaddr, 0)])
        assert ctx.sim.now == t0

    cluster.run(kernel)


def test_read_faults_count_once_per_page():
    cluster, arr = cluster_and_array(nprocs=2)
    counts = {}

    def kernel(ctx):
        if ctx.rank == 1:
            # pages 0..3 are round-robin homed; node 1 owns 1 and 3
            yield from ctx.read_runs([(arr.base_vaddr, 4 * 4096)])
            counts["faults"] = ctx.node.counters["dsm_faults"]
            # re-read: no new faults
            yield from ctx.read_runs([(arr.base_vaddr, 4 * 4096)])
            counts["faults2"] = ctx.node.counters["dsm_faults"]
        yield from ctx.barrier()

    cluster.run(kernel)
    assert counts["faults"] == 2  # pages 0 and 2 fetched from node 0
    assert counts["faults2"] == counts["faults"]


def test_overlapping_out_of_order_runs_fault_once_per_page():
    cluster, arr = cluster_and_array(nprocs=2)
    b = arr.base_vaddr
    # pages 2, 0-1 and 0, out of order; page 0 is covered twice
    runs = [(b + 2 * 4096 + 100, 50), (b + 4096 - 8, 16), (b + 10, 20)]
    counts = {}

    def kernel(ctx):
        if ctx.rank == 1:
            yield from ctx.read_runs(runs)
            counts["faults"] = ctx.node.counters["dsm_faults"]
            yield from ctx.read_runs(runs)
            counts["faults2"] = ctx.node.counters["dsm_faults"]
        yield from ctx.barrier()

    cluster.run(kernel)
    assert counts["faults"] == 2  # pages 0 and 2; node 1 homes page 1
    assert counts["faults2"] == counts["faults"]
