"""Unit tests for the application Context."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Category
from repro.params import SimParams
from repro.runtime import Cluster
from repro.runtime.context import run_lines_and_pages


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


# ------------------------------------------------------ access plumbing ----

def watch_faults(node):
    """Record the (page, for_write) of every fault the engine takes."""
    seen = []
    real = node.engine.fault

    def fault(page, for_write):
        seen.append((page, for_write))
        yield from real(page, for_write)

    node.engine.fault = fault
    return seen


def write_and_watch(runs):
    """One node writes ``runs`` into a cold cache; returns the faults,
    the collector's ranges per page, the computation charged and the
    cache's misses to memory."""
    cluster, arr = cluster_and_array()
    node = cluster.nodes[0]
    seen = watch_faults(node)
    out = {}

    def kernel(ctx):
        before = node.account.computation
        yield from ctx.write_runs([(arr.base_vaddr + o, n) for o, n in runs])
        out["ns"] = node.account.computation - before
        out["ranges"] = {p: list(rs)
                         for p, rs in node.engine.collector._pages.items()}
        out["misses"] = node.cache.stats_memory

    cluster.run(kernel)
    return seen, out


def test_one_run_write_over_three_pages_matches_the_line_stream():
    # Bytes 4000 .. 8291 of the array: the end of page 0, all of page 1
    # and the start of page 2 (the array starts on a page boundary).
    seen, one = write_and_watch([(4000, 4292)])
    assert seen == [(0, True), (1, True), (2, True)]    # ascending
    assert one["ranges"] == {0: [(4000, 4096)], 1: [(0, 4096)],
                             2: [(0, 100)]}
    # Lines 125 .. 259, every one a miss in the cold cache.
    p = SimParams()
    assert one["misses"] == 135
    assert one["ns"] == pytest.approx(p.cpu_cycles_ns(135 * (
        p.l1_access_cycles + p.l2_access_cycles
        + p.memory_latency_cycles)))
    # The same bytes as two runs split at a line boundary take the
    # multi-run stream: the same faults, records and charge.
    assert write_and_watch([(4000, 4192), (8192, 100)]) == (seen, one)


def lines_in_range(start, nbytes, line_size):
    """The lines of ``[start, start+nbytes)``, as ``repro.memory``
    computed them for every run before one-run accesses took ranges."""
    if nbytes <= 0:
        return np.empty(0, dtype=np.int64)
    return np.arange(start // line_size, (start + nbytes - 1) // line_size
                     + 1, dtype=np.int64)


@st.composite
def run_lists(draw):
    """Runs as water reads them (one equal-width run per row of a 2-D
    block, at a fixed stride) or anywhere, of any length (zero and
    negative ones included), on 256- or 4096-byte pages."""
    page = draw(st.sampled_from([256, 4096]))
    if draw(st.booleans()):
        start = draw(st.integers(0, 4 * page))
        stride = draw(st.integers(1, 96)) * 8
        width = draw(st.integers(1, stride // 8)) * 8
        rows = draw(st.integers(1, 192))
        runs = [(start + r * stride, width) for r in range(rows)]
    else:
        runs = draw(st.lists(st.tuples(st.integers(0, 20 * page),
                                       st.integers(-2, 3 * page)),
                             min_size=2, max_size=40))
    return page, runs


@given(run_lists())
@settings(max_examples=200, deadline=None)
def test_multi_run_stream_matches_per_run_lines(case):
    page, runs = case
    lines, pages = run_lines_and_pages(runs, 32, page)
    parts = [lines_in_range(v, n, 32) for v, n in runs if n > 0]
    want = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    assert lines.dtype == np.int64
    assert lines.tolist() == want.tolist()
    assert pages == sorted({p for v, n in runs if n > 0
                            for p in range(v // page, (v + n - 1) // page + 1)})


def test_multi_run_stream_of_empty_runs_is_empty():
    lines, pages = run_lines_and_pages([(64, 0), (128, -4)], 32, 4096)
    assert lines.size == 0 and lines.dtype == np.int64 and pages == []
