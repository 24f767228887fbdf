"""Unit + property tests for the PATHFINDER classifier."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Pathfinder, Pattern, PatternElement
from repro.network import Packet, PacketKind


def elem(offset, length, value, mask=None):
    if mask is None:
        mask = (1 << (8 * length)) - 1
    return PatternElement(offset=offset, length=length, mask=mask, value=value)


def header(kind=PacketKind.DATA, src=0, dst=1, chan=5, key=9, size=100):
    return Packet(
        kind=kind, src_node=src, dst_node=dst, channel_id=chan,
        handler_key=key, payload_bytes=size,
    ).header_bytes()


def test_element_validation():
    with pytest.raises(ValueError):
        PatternElement(offset=-1, length=1, mask=0xFF, value=0)
    with pytest.raises(ValueError):
        PatternElement(offset=0, length=0, mask=0, value=0)
    with pytest.raises(ValueError):
        PatternElement(offset=0, length=9, mask=0, value=0)
    with pytest.raises(ValueError):
        PatternElement(offset=0, length=1, mask=0x100, value=0)
    with pytest.raises(ValueError):
        PatternElement(offset=0, length=1, mask=0x0F, value=0x10)  # outside mask


def test_element_matches():
    e = elem(0, 1, int(PacketKind.DATA))
    assert e.matches(header(kind=PacketKind.DATA))
    assert not e.matches(header(kind=PacketKind.DSM_PAGE))


def test_element_beyond_header_never_matches():
    e = elem(100, 2, 0)
    assert not e.matches(header())


def test_masked_match():
    # match only the low nibble of the kind byte
    e = PatternElement(offset=0, length=1, mask=0x0F, value=0x01)
    assert e.matches(header(kind=PacketKind.DATA))  # DATA == 1


def test_pattern_requires_elements():
    with pytest.raises(ValueError):
        Pattern(elements=(), target="x")


def test_classify_single_pattern():
    pf = Pathfinder()
    pf.install(Pattern(elements=(elem(6, 2, 5),), target="chan5"))
    assert pf.classify(header(chan=5)) == "chan5"
    assert pf.classify(header(chan=6)) is None
    assert pf.misses == 1


def test_classify_conjunction():
    pf = Pathfinder()
    pf.install(
        Pattern(
            elements=(elem(0, 1, int(PacketKind.DSM_PAGE)), elem(8, 2, 9)),
            target="aih9",
        )
    )
    assert pf.classify(header(kind=PacketKind.DSM_PAGE, key=9)) == "aih9"
    assert pf.classify(header(kind=PacketKind.DATA, key=9)) is None
    assert pf.classify(header(kind=PacketKind.DSM_PAGE, key=8)) is None


def test_shared_prefix_cells():
    pf = Pathfinder()
    for chan in (1, 2, 3):
        pf.install(
            Pattern(
                elements=(elem(0, 1, int(PacketKind.DATA)), elem(6, 2, chan)),
                target=f"chan{chan}",
            )
        )
    for chan in (1, 2, 3):
        assert pf.classify(header(chan=chan)) == f"chan{chan}"
    # first cell is shared: the root has a single comparison cell
    assert len(pf._root) == 1


def test_priority_earliest_pattern_wins():
    pf = Pathfinder()
    pf.install(Pattern(elements=(elem(6, 2, 5),), target="first"))
    pf.install(
        Pattern(
            elements=(elem(0, 1, int(PacketKind.DATA)), elem(6, 2, 5)),
            target="second",
        )
    )
    assert pf.classify(header(chan=5)) == "first"


def test_duplicate_pattern_rejected():
    pf = Pathfinder()
    pf.install(Pattern(elements=(elem(6, 2, 5),), target="a"))
    with pytest.raises(ValueError):
        pf.install(Pattern(elements=(elem(6, 2, 5),), target="b"))


def test_remove_pattern():
    pf = Pathfinder()
    pid = pf.install(Pattern(elements=(elem(6, 2, 5),), target="a"))
    pf.install(Pattern(elements=(elem(6, 2, 6),), target="b"))
    pf.remove(pid)
    assert pf.classify(header(chan=5)) is None
    assert pf.classify(header(chan=6)) == "b"
    assert pf.pattern_count == 1
    with pytest.raises(KeyError):
        pf.remove(pid)


def test_shared_program_is_copy_on_write():
    """Boards sharing one program classify alike, keep their own
    counters, and an install or remove on one board after sharing never
    reaches the others or the program they share."""
    program = Pathfinder()
    first = program.install(Pattern(elements=(elem(6, 2, 5),), target="a"))
    program.install(Pattern(elements=(elem(0, 1, int(PacketKind.DATA)),
                                      elem(6, 2, 5)), target="late"))
    boards = [Pathfinder() for _ in range(3)]
    for pf in boards:
        pf.share(program)
        assert pf.pattern_count == 2
        assert pf.classify(header(chan=5)) == "a"  # earliest wins
    boards[0].install(Pattern(elements=(elem(6, 2, 6),), target="b"))
    boards[1].remove(first)
    boards[2].classify(header(chan=9))
    assert boards[0].classify(header(chan=6)) == "b"
    assert boards[1].classify(header(chan=5)) == "late"
    for pf in (program, boards[2]):
        assert pf.pattern_count == 2
        assert pf.classify(header(chan=6)) is None
        assert pf.classify(header(chan=5)) == "a"
    # Each board counts its own classifications only.
    assert [pf.classifications for pf in (program, *boards)] == [2, 2, 2, 4]
    assert [pf.misses for pf in (program, *boards)] == [1, 0, 0, 2]
    # The program itself copies before it changes, too.
    program.install(Pattern(elements=(elem(6, 2, 7),), target="c"))
    assert boards[2].classify(header(chan=7)) is None
    assert program.classify(header(chan=7)) == "c"


def test_share_respects_pattern_memory():
    program = Pathfinder()
    for chan in range(3):
        program.install(Pattern(elements=(elem(6, 2, chan),), target=chan))
    with pytest.raises(RuntimeError):
        Pathfinder(max_patterns=2).share(program)


def test_pattern_memory_exhaustion():
    pf = Pathfinder(max_patterns=2)
    pf.install(Pattern(elements=(elem(6, 2, 1),), target=1))
    pf.install(Pattern(elements=(elem(6, 2, 2),), target=2))
    with pytest.raises(RuntimeError):
        pf.install(Pattern(elements=(elem(6, 2, 3),), target=3))


@st.composite
def patterns_and_headers(draw):
    n_patterns = draw(st.integers(1, 6))
    patterns = []
    for i in range(n_patterns):
        n_elems = draw(st.integers(1, 3))
        elems = []
        offsets = draw(
            st.lists(
                st.sampled_from([0, 1, 2, 4, 6, 8]),
                min_size=n_elems, max_size=n_elems, unique=True,
            )
        )
        for off in offsets:
            length = draw(st.sampled_from([1, 2]))
            mask = draw(st.sampled_from([0xFF, 0x0F, 0xF0])) if length == 1 \
                else draw(st.sampled_from([0xFFFF, 0x00FF]))
            value = draw(st.integers(0, (1 << (8 * length)) - 1)) & mask
            elems.append(PatternElement(off, length, mask, value))
        patterns.append(Pattern(elements=tuple(elems), target=i))
    headers = [
        bytes(draw(st.lists(st.integers(0, 255), min_size=16, max_size=16)))
        for _ in range(draw(st.integers(1, 8)))
    ]
    return patterns, headers


@given(patterns_and_headers())
@settings(max_examples=150, deadline=None)
def test_dag_agrees_with_naive_matcher(case):
    """The DAG classifier returns the earliest-installed naive match."""
    patterns, headers = case
    pf = Pathfinder()
    installed = []
    for p in patterns:
        try:
            pf.install(p)
            installed.append(p)
        except ValueError:
            pass  # duplicate pattern in the random draw
    for h in headers:
        expected = None
        for p in installed:  # installation order == priority order
            if p.matches(h):
                expected = p.target
                break
        assert pf.classify(h) == expected
