"""Unit tests for the memory bus."""

import numpy as np
import pytest

from repro.engine import Simulator, Tracer
from repro.memory import MemoryBus
from repro.obs import MetricsRegistry, SpanTracer
from repro.params import SimParams


def make_bus():
    sim = Simulator()
    params = SimParams()
    return sim, params, MemoryBus(sim, params, node_id=0)


def test_dma_time_matches_table1():
    sim, p, bus = make_bus()
    # 4 KB page: 4 + 2*512 bus cycles at 40 ns
    expected = (4 + 2 * 512) * 40.0
    assert bus.dma_transfer_ns(4096) == pytest.approx(expected)


def test_dma_holds_bus_and_serializes():
    sim, p, bus = make_bus()
    done = []

    def master(tag, nbytes):
        yield from bus.dma(nbytes)
        done.append((tag, sim.now))

    sim.spawn(master("a", 4096), "a")
    sim.spawn(master("b", 4096), "b")
    sim.run()
    t = bus.dma_transfer_ns(4096)
    assert done == [("a", pytest.approx(t)), ("b", pytest.approx(2 * t))]
    assert bus.dma_transfers == 2
    assert bus.dma_bytes == 8192


def test_dma_queues_fifo_behind_a_busy_bus_and_spans_count_each():
    """A DMA that finds the bus busy waits its turn, first come first
    served; every DMA, queued or not, closes one ``dma`` span covering
    its queueing and transfer."""
    sim = Simulator()
    registry = MetricsRegistry()
    spans = SpanTracer(Tracer(enabled=False), lambda: sim.now,
                       metrics=registry.scope("spans"))
    bus = MemoryBus(sim, SimParams(), node_id=0, spans=spans)
    t = bus.dma_transfer_ns(4096)
    done = []

    def master(tag, at):
        yield at
        yield from bus.dma(4096)
        done.append((tag, sim.now))

    sim.spawn(master("a", 0.0), "a")
    sim.spawn(master("c", 2.0), "c")
    sim.spawn(master("b", 1.0), "b")
    sim.spawn(master("d", 4 * t), "d")   # finds the bus free again
    sim.run()
    assert done == [("a", t), ("b", 2 * t), ("c", 3 * t), ("d", 5 * t)]
    hist = registry.snapshot()["spans.dma_ns"]
    assert hist["count"] == 4 == spans.spans_closed
    assert hist["sum"] == pytest.approx(t + (2 * t - 1) + (3 * t - 2) + t)
    assert not bus._resource.busy
    assert bus.utilization_ns == pytest.approx(4 * t)


def test_killed_dma_master_releases_the_bus():
    sim, p, bus = make_bus()
    t = bus.dma_transfer_ns(4096)
    done = []

    def master(tag):
        yield from bus.dma(4096)
        done.append((tag, sim.now))

    victim = sim.spawn(master("victim"), "victim")
    sim.spawn(master("next"), "next")

    def killer():
        yield t / 2
        victim.kill()

    sim.spawn(killer(), "killer")
    sim.run()
    # The killed holder's finally released the bus to the waiter.
    assert done == [("next", pytest.approx(t / 2 + t))]
    assert not bus._resource.busy


def test_dma_rejects_negative():
    sim, p, bus = make_bus()

    def master():
        yield from bus.dma(-1)

    with pytest.raises(ValueError):
        # error surfaces when the generator first runs
        sim.run_process(master())


def test_snoopers_see_write_traffic():
    sim, p, bus = make_bus()
    seen = []
    bus.add_snooper(lambda node, pages: seen.append((node, list(pages))))
    bus.cpu_write_traffic(np.array([10, 11], dtype=np.int64))
    assert seen == [(0, [0])]  # both lines lie in page 0
    words_per_line = p.cache_line_bytes // p.bus_word_bytes
    assert bus.writeback_words == 2 * words_per_line


def test_empty_write_traffic_skips_snoopers():
    sim, p, bus = make_bus()
    seen = []
    bus.add_snooper(lambda node, pages: seen.append(pages))
    bus.cpu_write_traffic(np.empty(0, dtype=np.int64))
    assert seen == []
    assert bus.writeback_words == 0


def test_caller_given_pages_reach_snoopers_as_given():
    """A flush passes the pages it already knows; the bus still counts
    words from the lines."""
    sim, p, bus = make_bus()
    seen = []
    bus.add_snooper(lambda node, pages: seen.append(list(pages)))
    per_page = p.page_size_bytes // p.cache_line_bytes
    lines = np.arange(3 * per_page, 4 * per_page, dtype=np.int64)
    bus.cpu_write_traffic(lines, pages=(3,))
    assert seen == [[3]]
    words_per_line = p.cache_line_bytes // p.bus_word_bytes
    assert bus.writeback_words == per_page * words_per_line
    assert bus.snooped_writebacks == 1


def test_bus_derives_distinct_pages_of_unordered_lines():
    """Dirty evictions come in no order; the bus shows each page once."""
    sim, p, bus = make_bus()
    seen = []
    bus.add_snooper(lambda node, pages: seen.append(list(pages)))
    per_page = p.page_size_bytes // p.cache_line_bytes
    lines = np.array([2 * per_page + 1, 5, 7 * per_page, 5, 2 * per_page],
                     dtype=np.int64)
    bus.cpu_write_traffic(lines)
    assert seen == [[0, 2, 7]]


def test_utilization_tracks_hold_time():
    sim, p, bus = make_bus()

    def master():
        yield from bus.dma(1024)

    sim.run_process(master())
    assert bus.utilization_ns == pytest.approx(bus.dma_transfer_ns(1024))
