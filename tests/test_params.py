"""Unit tests for SimParams (Table 1)."""

import pytest

from repro.params import PAPER_PARAMS, SimParams, cni_params, standard_interface_params


def test_table1_defaults():
    p = PAPER_PARAMS
    assert p.cpu_freq_hz == 166e6
    assert p.l1_size_bytes == 32 * 1024
    assert p.l2_size_bytes == 1024 * 1024
    assert p.l1_access_cycles == 1
    assert p.l2_access_cycles == 10
    assert p.memory_latency_cycles == 20
    assert p.bus_acquisition_cycles == 4
    assert p.bus_cycles_per_word == 2
    assert p.bus_freq_hz == 25e6
    assert p.switch_latency_ns == 500.0
    assert p.ni_freq_hz == 33e6
    assert p.message_cache_bytes == 32 * 1024


def test_derived_clocks():
    p = PAPER_PARAMS
    assert p.cpu_cycle_ns == pytest.approx(6.024, rel=1e-3)
    assert p.bus_cycle_ns == pytest.approx(40.0)
    assert p.ni_cycle_ns == pytest.approx(30.3, rel=1e-2)


def test_dma_time_for_page():
    # 4 KB = 512 words: 4 + 1024 = 1028 bus cycles = 41.12 us
    assert PAPER_PARAMS.dma_time_ns(4096) == pytest.approx(41120.0)


def test_dma_time_rounds_partial_words():
    assert PAPER_PARAMS.dma_time_ns(1) == pytest.approx((4 + 2) * 40.0)


def test_cell_count_aal5():
    p = PAPER_PARAMS
    # 4096 + 8 trailer = 4104 bytes over 48-byte payloads = 86 cells
    assert p.cells_for_packet(4096) == 86
    assert p.cells_for_packet(0) == 1
    assert p.cells_for_packet(40) == 1
    assert p.cells_for_packet(41) == 2


def test_unrestricted_cell_size():
    p = PAPER_PARAMS.replace(unrestricted_cell_size=True)
    assert p.cells_for_packet(4096) == 1
    assert p.cells_for_packet(10 ** 6) == 1


def test_cell_wire_time():
    # 53 bytes at 622 Mbps = 681.7 ns
    assert PAPER_PARAMS.cell_wire_time_ns == pytest.approx(681.67, rel=1e-3)


def test_geometry_helpers():
    p = PAPER_PARAMS
    assert p.words_per_page == 512
    assert p.lines_per_page == 128
    assert p.message_cache_buffers == 8


def test_replace_validates():
    with pytest.raises(ValueError):
        PAPER_PARAMS.replace(page_size_bytes=1000)
    with pytest.raises(ValueError):
        PAPER_PARAMS.replace(num_processors=0)
    with pytest.raises(ValueError):
        PAPER_PARAMS.replace(message_cache_bytes=1024)  # < one page
    with pytest.raises(ValueError):
        PAPER_PARAMS.replace(cpu_freq_hz=0)


def test_message_cache_zero_is_allowed():
    # ablation: no message cache at all
    p = PAPER_PARAMS.replace(message_cache_bytes=0)
    assert p.message_cache_buffers == 0


def test_standard_interface_strips_cni_features():
    p = standard_interface_params()
    assert not p.transmit_caching and not p.receive_caching
    assert not p.use_aih
    assert not p.snoop_enabled
    # hardware is otherwise identical
    assert p.cpu_freq_hz == PAPER_PARAMS.cpu_freq_hz
    assert p.message_cache_bytes == PAPER_PARAMS.message_cache_bytes


def test_cni_params_all_on():
    p = cni_params()
    assert p.transmit_caching and p.receive_caching
    assert p.use_aih and p.snoop_enabled


def test_frozen():
    with pytest.raises(Exception):
        PAPER_PARAMS.page_size_bytes = 1  # type: ignore[misc]


def test_replace_derives_its_own_cycle_times():
    """Cycle times are computed once per instance: a replaced clock gives
    the new instance the new time, and leaves the original's."""
    p = SimParams()
    assert p.ni_cycle_ns == pytest.approx(1e9 / 33e6)
    fast = p.replace(ni_freq_hz=66e6, cpu_freq_hz=332e6, bus_freq_hz=50e6,
                     link_rate_bps=1244e6)
    assert fast.ni_cycle_ns == pytest.approx(1e9 / 66e6)
    assert fast.cpu_cycle_ns == pytest.approx(p.cpu_cycle_ns / 2)
    assert fast.bus_cycle_ns == pytest.approx(p.bus_cycle_ns / 2)
    assert fast.cell_wire_time_ns == pytest.approx(p.cell_wire_time_ns / 2)
    assert fast.ni_cycles_ns(60) == pytest.approx(60 * 1e9 / 66e6)
    assert p.ni_cycle_ns == pytest.approx(1e9 / 33e6)


def test_read_cycle_times_leave_equality_hash_and_pickle_alone():
    import pickle

    p = SimParams()
    cached = (p.cpu_cycle_ns, p.bus_cycle_ns, p.ni_cycle_ns,
              p.cell_wire_time_ns)
    fresh = SimParams()
    assert p == fresh and hash(p) == hash(fresh)
    back = pickle.loads(pickle.dumps(p))
    assert back == p and hash(back) == hash(p)
    assert (back.cpu_cycle_ns, back.bus_cycle_ns, back.ni_cycle_ns,
            back.cell_wire_time_ns) == cached
    assert repr(back) == repr(fresh)
