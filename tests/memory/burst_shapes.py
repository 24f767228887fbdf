"""Burst shapes for the cache property tests.

``repro.memory.cache`` classifies a burst in one pass when its lines are
strictly ascending and touch each set once (rule 1) or contiguous and
longer than the L1 (rule 2), and groups every other burst by set.  The
shapes below land on each side of those selections, so the scalar
oracles check every path.
"""

from hypothesis import strategies as st


@st.composite
def burst_lines(draw, top: int, longest: int):
    """One burst's program-ordered lines, starting below ``top``.

    * random: up to ``longest`` lines anywhere below ``top``;
    * contiguous: a run of 1..``longest`` lines;
    * gaps: strictly ascending over a drawn span of 1..``longest``
      lines, from its first line to its last, so the span falls below
      and above a level's sets;
    * repeats: non-decreasing over such a span, with a line repeated.
    """
    shape = draw(st.sampled_from(("random", "contiguous", "gaps", "repeats")))
    if shape == "random":
        return draw(st.lists(st.integers(0, top - 1), min_size=1,
                             max_size=longest))
    start = draw(st.integers(0, top - 1))
    span = draw(st.integers(1, longest))
    if shape == "contiguous":
        return list(range(start, start + span))
    if shape == "gaps":
        inner = (draw(st.sets(st.integers(1, span - 2))) if span > 2
                 else set())
        return [start + o for o in sorted({0, span - 1} | inner)]
    lines = draw(st.lists(st.integers(start, start + span - 1), min_size=1,
                          max_size=longest))
    return sorted(lines + lines[:1])
