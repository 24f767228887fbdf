"""Unit tests for the memory bus."""

import numpy as np
import pytest

from repro.engine import Simulator
from repro.memory import MemoryBus
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
