"""Unit tests for Node accounting and memory operations."""

import numpy as np
import pytest

from repro.engine import Category
from repro.params import SimParams
from repro.runtime import Cluster


def one_node_cluster(iface="cni"):
    params = SimParams().replace(num_processors=1, dsm_address_space_pages=16)
    return Cluster(params, interface=iface)


def test_interface_validation():
    from repro.engine import Simulator, Counters
    from repro.network import Network
    from repro.runtime import Node

    sim = Simulator()
    params = SimParams().replace(num_processors=1)
    net = Network(sim, params)
    with pytest.raises(ValueError):
        Node(sim, params, 0, net, Counters(), interface="bogus")


def test_accounting_categories():
    cluster = one_node_cluster()
    node = cluster.nodes[0]
    node.account_compute(100.0)
    node.account_overhead(50.0)
    node.account_delay(25.0)
    assert node.account.ns[Category.COMPUTATION] == 100.0
    assert node.account.ns[Category.SYNCH_OVERHEAD] == 50.0
    assert node.account.ns[Category.SYNCH_DELAY] == 25.0


def test_steal_accumulates_and_drains():
    cluster = one_node_cluster()
    node = cluster.nodes[0]
    node.steal_host_time(10.0)
    node.steal_host_time(5.0)
    assert node.account.ns[Category.SYNCH_OVERHEAD] == 15.0
    assert node.take_stolen_ns() == 15.0
    assert node.take_stolen_ns() == 0.0


def test_stolen_time_inflates_compute():
    cluster = one_node_cluster()
    node = cluster.nodes[0]

    def kernel(ctx):
        node.steal_host_time(1000.0)
        t0 = ctx.sim.now
        yield from ctx.compute(166)  # 1000 ns of work at 166 MHz
        assert ctx.sim.now - t0 == pytest.approx(2000.0, rel=1e-6)

    cluster.run(kernel)
    # but only the real computation is accounted as computation
    assert node.account.ns[Category.COMPUTATION] == pytest.approx(1000.0, rel=1e-6)


def test_charges_reject_negative_time():
    node = one_node_cluster().nodes[0]
    for charge in (node.account_compute, node.account_overhead,
                   node.account_delay, node.steal_host_time):
        with pytest.raises(ValueError, match="negative time charge"):
            charge(-1.0)
    assert node.account.as_dict() == {
        "computation": 0.0, "synch_overhead": 0.0, "synch_delay": 0.0}
    assert node.take_stolen_ns() == 0.0


def test_flush_page_writes_back_and_snoops():
    cluster = one_node_cluster()
    node = cluster.nodes[0]
    arr = cluster.alloc_shared((512,))
    seen = []
    node.bus.add_snooper(lambda nid, pages: seen.append(list(pages)))

    def kernel(ctx):
        yield from ctx.write_runs([(arr.base_vaddr, 4096)])
        cost = node.write_back_page(0)
        assert cost > 0
        yield cost
        # second flush: nothing dirty
        assert node.write_back_page(0) == 0.0

    cluster.run(kernel)
    page = node.params.page_size_bytes
    assert seen == [[arr.base_vaddr // page]]  # the page, snooped once
    words_per_line = node.params.cache_line_bytes // node.params.bus_word_bytes
    assert node.bus.writeback_words == 128 * words_per_line  # every line


def test_write_back_page_addresses_first_and_last_page():
    """write_back_page computes a flushed page's address by arithmetic:
    the segment's first and last page snoop as the pages
    ``shared_page_addr`` names.  The range check a flushed page passes
    is the access path's: a write past the segment still raises."""
    cluster = one_node_cluster()
    node, asp = cluster.nodes[0], cluster.asp
    page = node.params.page_size_bytes
    last = cluster.segment.npages - 1
    cluster.alloc_shared((cluster.segment.npages * page // 8,))
    seen = []
    node.bus.add_snooper(lambda nid, pages: seen.extend(pages))

    def kernel(ctx):
        for p in (0, last):
            yield from ctx.write_runs([(asp.shared_page_addr(p), 64)])
            yield node.write_back_page(p)
        with pytest.raises(ValueError, match="outside the DSM segment"):
            yield from ctx.write_runs([(asp.dsm_limit, 8)])

    cluster.run(kernel)
    assert seen == [asp.shared_page_addr(0) // page,
                    asp.shared_page_addr(last) // page]
    with pytest.raises(ValueError, match="out of range"):
        asp.shared_page_addr(last + 1)


def test_multi_page_buffer_flush_snoops_each_flushed_page():
    """A buffer flush over three pages shows the snoopers the distinct
    pages of its flushed lines: the first and the last page, not the
    clean middle one."""
    cluster = one_node_cluster()
    node = cluster.nodes[0]
    page = node.params.page_size_bytes
    vaddr = node.alloc_private_buffer(3 * page)
    seen = []
    node.bus.add_snooper(lambda nid, pages: seen.append(list(pages)))

    def kernel(ctx):
        yield from node.cache_write_private(vaddr + page - 64, 64)
        yield from node.cache_write_private(vaddr + 2 * page, 96)
        yield from node.flush_buffer(vaddr + 32, 3 * page - 64)
        yield from node.flush_buffer(vaddr + 32, 3 * page - 64)  # clean

    cluster.run(kernel)
    first = vaddr // page
    assert seen == [[first, first + 2]]
    words_per_line = node.params.cache_line_bytes // node.params.bus_word_bytes
    assert node.bus.writeback_words == 5 * words_per_line


def three_page_snoop_node(snoop_enabled=True):
    """One CNI node with DSM pages A, B and C mapped on the board; A and
    B are in the Message Cache, C is not.  Returns the node, its
    Message Cache, and each page's line numbers."""
    params = SimParams().replace(num_processors=1, dsm_address_space_pages=16,
                                 snoop_enabled=snoop_enabled)
    cluster = Cluster(params, interface="cni")
    cluster.alloc_shared((3 * 512,))
    cluster.finalize_memory()
    node = cluster.nodes[0]
    mc = node.nic.message_cache
    page = params.page_size_bytes
    per_page = page // params.cache_line_bytes
    pages = [cluster.segment.page_vaddr(p) // page for p in range(3)]
    mc.insert(pages[0])
    mc.insert(pages[1])
    lines = [np.arange(v * per_page, (v + 1) * per_page, dtype=np.int64)
             for v in pages]
    return node, mc, pages, lines


def three_page_traffic(lines):
    """Unsorted lines of A, B and C with repeats; the first and last
    entries are both B's, so only a full scan sees three pages."""
    a, b, c = lines
    return np.array([b[3], c[5], a[0], b[127], a[0], c[5], b[3]],
                    dtype=np.int64)


def test_snoop_counts_once_per_distinct_page():
    node, mc, pages, lines = three_page_snoop_node()
    updates, aborts = mc.snoop_updates, mc.snoop_aborts
    node.bus.cpu_write_traffic(three_page_traffic(lines))
    assert mc.snoop_updates - updates == 2  # A and B absorbed
    assert mc.snoop_aborts - aborts == 1  # C has no cached buffer
    assert mc.contains(pages[0]) and mc.contains(pages[1])

    node.bus.cpu_write_traffic(lines[0][::-1])  # one page, 128 lines
    assert mc.snoop_updates - updates == 3
    assert mc.snoop_aborts - aborts == 1


def test_unsnooped_multi_page_write_invalidates_each_page():
    node, mc, pages, lines = three_page_snoop_node(snoop_enabled=False)
    invalidations = mc.invalidations
    node.bus.cpu_write_traffic(three_page_traffic(lines))
    assert mc.invalidations - invalidations == 2
    assert not mc.contains(pages[0])
    assert not mc.contains(pages[1])
    assert mc.snoop_updates == 0


def test_private_buffer_allocation_registers_mappings():
    cluster = one_node_cluster()
    node = cluster.nodes[0]
    vaddr = node.alloc_private_buffer(8192)
    assert vaddr % node.params.page_size_bytes == 0
    vpage = vaddr // node.params.page_size_bytes
    assert vpage in node.tlb
    assert (vpage + 1) in node.tlb  # 8 KB = two pages
    other = node.alloc_private_buffer(100)
    assert other != vaddr


def test_mc_receive_insert_respects_ablation():
    params = SimParams().replace(
        num_processors=1, dsm_address_space_pages=16, receive_caching=False
    )
    cluster = Cluster(params, interface="cni")
    node = cluster.nodes[0]
    cluster.alloc_shared((512,))
    # Page 0 of the shared segment starts at the segment's base.
    node.mc_receive_insert(cluster.segment.base_vaddr, params.page_size_bytes)
    assert node.nic.message_cache.occupancy == 0


def test_mc_receive_insert_binds_every_landed_page():
    """Data landing across a page boundary binds both pages; an empty
    landing binds none."""
    cluster = one_node_cluster("cni")
    node = cluster.nodes[0]
    mc = node.nic.message_cache
    page = node.params.page_size_bytes
    vaddr = node.alloc_private_buffer(2 * page)
    node.mc_receive_insert(vaddr + page - 8, 16)
    assert mc.contains(vaddr // page) and mc.contains(vaddr // page + 1)
    assert mc.occupancy == 2
    node.mc_receive_insert(vaddr + 2 * page, 0)
    assert mc.occupancy == 2


def test_standard_node_has_no_message_cache():
    cluster = one_node_cluster("standard")
    node = cluster.nodes[0]
    assert not hasattr(node.nic, "message_cache")
    node.mc_receive_insert(0, node.params.page_size_bytes)  # harmless no-op
