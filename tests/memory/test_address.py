"""Unit tests for address arithmetic."""

import pytest

from repro.memory import AddressSpace, check_power_of_two


def test_power_of_two_check():
    check_power_of_two(4096, "x")
    for bad in (0, -8, 3, 4095):
        with pytest.raises(ValueError):
            check_power_of_two(bad, "x")


def test_address_space_layout():
    asp = AddressSpace(page_size=4096, dsm_pages=100, private_pages=10)
    assert asp.private_base == 0
    assert asp.private_bytes == 10 * 4096
    assert asp.dsm_base == 10 * 4096
    assert asp.dsm_limit == 110 * 4096


def test_address_space_page_index_roundtrip():
    # The runtime takes a shared address's page as (addr - dsm_base) //
    # page_size; every byte of a page maps back to it.
    asp = AddressSpace(page_size=4096, dsm_pages=100)
    for p in (0, 1, 50, 99):
        addr = asp.shared_page_addr(p)
        assert addr == asp.dsm_base + p * 4096
        assert (addr - asp.dsm_base) // asp.page_size == p
        assert (addr + 4095 - asp.dsm_base) // asp.page_size == p


def test_address_space_errors():
    asp = AddressSpace(page_size=4096, dsm_pages=4)
    for page in (-1, 4):
        with pytest.raises(ValueError):
            asp.shared_page_addr(page)
    with pytest.raises(ValueError):
        AddressSpace(page_size=1000, dsm_pages=4)
    with pytest.raises(ValueError):
        AddressSpace(page_size=4096, dsm_pages=0)
