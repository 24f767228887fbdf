"""Tests for the cluster invariant checker."""

import pytest

from repro.dsm import Violation, assert_healthy, check_cluster
from repro.dsm.page import PageState
from repro.params import SimParams
from repro.runtime import Cluster


def run_small(iface="cni"):
    params = SimParams().replace(num_processors=3, dsm_address_space_pages=32)
    cluster = Cluster(params, interface=iface)
    arr = cluster.alloc_shared((3, 512))
    base = arr.base_vaddr

    def kernel(ctx):
        r = ctx.rank
        yield from ctx.acquire(1)
        yield from ctx.write_runs([(base + r * 4096, 4096)])
        arr.data[r] = r
        yield from ctx.release(1)
        yield from ctx.barrier()
        nb = (r + 1) % 3
        yield from ctx.read_runs([(base + nb * 4096, 64)])
        yield from ctx.barrier()

    cluster.run(kernel)
    return cluster


@pytest.mark.parametrize("iface", ["cni", "standard"])
def test_healthy_after_clean_run(iface):
    cluster = run_small(iface)
    assert check_cluster(cluster) == []
    assert_healthy(cluster)


def test_detects_leaked_waiter():
    cluster = run_small()
    eng = cluster.nodes[1].engine
    eng.waits.register(("page", 99))
    violations = check_cluster(cluster)
    assert any(v.kind == "leaked-waiter" for v in violations)
    with pytest.raises(AssertionError, match="leaked-waiter"):
        assert_healthy(cluster)


def test_detects_leaked_collective_wait_and_parked_release():
    cluster = run_small()
    coll = cluster.nodes[2].coll
    coll.waits.register((0, 99))
    leaked = [v for v in check_cluster(cluster) if v.kind == "leaked-waiter"]
    assert [(v.node, v.detail) for v in leaked] == [
        (2, "collective ['(0, 99)']")]
    coll.waits.wake((0, 99))
    coll.waits.deliver((0, 100), 1.0)
    leaked = [v for v in check_cluster(cluster) if v.kind == "leaked-waiter"]
    assert [(v.node, v.detail) for v in leaked] == [
        (2, "collective ['(0, 100)']")]


def test_detects_held_lock():
    cluster = run_small()
    cluster.nodes[0].engine.local_locks.state(7).held = True
    kinds = {v.kind for v in check_cluster(cluster)}
    assert "locks-held-at-exit" in kinds


def test_detects_double_hold():
    cluster = run_small()
    cluster.nodes[0].engine.local_locks.state(7).held = True
    cluster.nodes[1].engine.local_locks.state(7).held = True
    kinds = {v.kind for v in check_cluster(cluster, quiescent=False)}
    assert "lock-double-hold" in kinds


def test_detects_vc_future():
    cluster = run_small()
    cluster.nodes[2].engine.vc.v[0] += 5
    kinds = {v.kind for v in check_cluster(cluster, quiescent=False)}
    assert "vc-future" in kinds


def test_detects_writable_without_twin():
    cluster = run_small()
    meta = cluster.nodes[0].engine.pages[0]
    meta.state = PageState.WRITABLE
    meta.twin_live = False
    kinds = {v.kind for v in check_cluster(cluster, quiescent=False)}
    assert "writable-no-twin" in kinds


def test_detects_unpublished_writes():
    cluster = run_small()
    cluster.nodes[1].engine.collector.record_write(0, 0, 10)
    kinds = {v.kind for v in check_cluster(cluster)}
    assert "unpublished-writes" in kinds
    # non-quiescent checks allow in-flight intervals
    assert "unpublished-writes" not in {
        v.kind for v in check_cluster(cluster, quiescent=False)
    }


def test_violation_str():
    v = Violation(node=2, kind="x", detail="y")
    assert "node 2" in str(v)
