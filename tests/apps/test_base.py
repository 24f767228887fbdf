"""Tests for the SharedArray access layer (runs_for correctness)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import SharedArray, SharedScalarTable
from repro.dsm import SharedSegment
from repro.memory import AddressSpace
from repro.params import SimParams
from repro.runtime import Cluster


def make_array(shape, dtype=np.float64):
    seg = SharedSegment(AddressSpace(page_size=4096, dsm_pages=256))
    return SharedArray(seg.alloc(shape, dtype=dtype), "t")


def test_full_2d_array_is_one_run():
    arr = make_array((8, 16))
    runs = arr.runs_for((slice(None), slice(None)))
    assert runs == [(arr.base_vaddr, 8 * 16 * 8)]


def test_row_selection_contiguous():
    arr = make_array((8, 16))
    runs = arr.runs_for(3)
    assert runs == [(arr.base_vaddr + 3 * 16 * 8, 16 * 8)]


def test_row_block_contiguous():
    arr = make_array((8, 16))
    runs = arr.runs_for((slice(2, 5), slice(None)))
    assert runs == [(arr.base_vaddr + 2 * 16 * 8, 3 * 16 * 8)]


def test_column_slice_one_run_per_row():
    arr = make_array((4, 16))
    runs = arr.runs_for((slice(None), slice(2, 6)))
    assert len(runs) == 4
    for r, (vaddr, nbytes) in enumerate(runs):
        assert vaddr == arr.base_vaddr + (r * 16 + 2) * 8
        assert nbytes == 4 * 8


def test_scalar_index():
    arr = make_array((4, 16))
    assert arr.runs_for((2, 5)) == [(arr.base_vaddr + (2 * 16 + 5) * 8, 8)]


def test_1d_int_key_runs_equal_scalar_offset():
    # An int key on a vector takes the run by arithmetic; every index,
    # negative ones included, names the byte _scalar_offset does.
    for dtype in (np.float64, np.int32):
        arr = make_array((13,), dtype=dtype)
        for i in range(-13, 13):
            assert arr.runs_for(i) == [
                (arr.base_vaddr + arr._scalar_offset(i), arr.itemsize)]


def test_1d_out_of_range_int_key_raises_index_error():
    arr = make_array((13,))
    for i in (13, 14, -14, 10 ** 6):
        with pytest.raises(IndexError):
            arr.runs_for(i)
    with pytest.raises(IndexError):
        make_array((0,)).runs_for(0)


def test_1d_slice():
    arr = make_array((64,))
    assert arr.runs_for(slice(10, 20)) == [(arr.base_vaddr + 80, 80)]


def test_empty_selection():
    arr = make_array((8, 8))
    assert arr.runs_for(slice(3, 3)) == []


def test_non_contiguous_array_rejected():
    seg = SharedSegment(AddressSpace(page_size=4096, dsm_pages=16))
    alloc = seg.alloc((8, 8))
    alloc.data = alloc.data.T  # type: ignore[misc]
    with pytest.raises(ValueError):
        SharedArray(alloc, "bad")


def row_walk_runs(arr: SharedArray, key):
    """Reference: ``runs_for`` as it was before it read strides.

    A scalar is one item; a C-contiguous selection is one run; any
    other selection is one run per last-axis row, each row reached with
    basic indexing, in C order (the order ``access_runs`` streams the
    lines in)."""
    base_ptr = arr.data.__array_interface__["data"][0]

    def start(view):
        return arr.base_vaddr + view.__array_interface__["data"][0] - base_ptr

    if all(isinstance(k, int) for k in key):
        one = tuple(slice(k % n, k % n + 1) for k, n in zip(key, arr.shape))
        return [(start(arr.data[one]), arr.itemsize)]
    view = arr.data[key]
    if view.size == 0:
        return []
    if view.flags["C_CONTIGUOUS"]:
        return [(start(view), int(view.nbytes))]
    if view.ndim == 1:
        rows = [view]
    else:
        rows = (view[idx] for idx in np.ndindex(view.shape[:-1]))
    runs = []
    for row in rows:
        if row.strides[-1] != arr.itemsize:
            raise ValueError("strided last axis")
        runs.append((start(row), int(row.shape[0] * arr.itemsize)))
    return runs


@st.composite
def selections(draw):
    """A 1-3-D shape and a key with an int or a non-empty step-1 slice
    per axis (``test_empty_selection`` covers empty ones)."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(ndim))
    key = []
    for n in shape:
        if draw(st.integers(0, 2)) == 0:
            key.append(draw(st.integers(-n, n - 1)))
        else:
            lo = draw(st.integers(0, n - 1))
            key.append(slice(lo, draw(st.integers(lo + 1, n))))
    return shape, tuple(key)


@given(selections())
@example(((3, 4, 5), (slice(0, 2), slice(1, 4), slice(1, 3))))
@settings(max_examples=300, deadline=None)
def test_runs_match_numpy_oracle(selection):
    shape, key = selection
    arr = make_array(shape)
    try:
        want = row_walk_runs(arr, key)
    except ValueError:
        with pytest.raises(ValueError, match="strided last-axis"):
            arr.runs_for(key)
        return
    got = arr.runs_for(key)
    assert got == want  # the exact runs, in order
    # total bytes equal the selection's size
    assert sum(n for _, n in got) == np.asarray(arr.data[key]).size * 8


def numpy_view_runs(arr: SharedArray, key):
    """Reference: ``runs_for`` as it derived every key before it took
    contiguous selections by arithmetic: a numpy view of the key, one
    run when the view is C-contiguous, one run per last-axis row when
    it is not, and the scalar's offset for a scalar."""
    data = arr.data
    view = data[key]
    if view.size == 0:
        return []
    base_ptr = data.__array_interface__["data"][0]
    if isinstance(view, np.ndarray) and view.ndim > 0:
        if view.base is None:
            raise ValueError("fancy indexing copies data and has no "
                             "address runs")
        start = view.__array_interface__["data"][0] - base_ptr
        if view.flags["C_CONTIGUOUS"]:
            return [(arr.base_vaddr + start, int(view.nbytes))]
        if view.strides[-1] != arr.itemsize:
            raise ValueError("strided last-axis selections are not "
                             "supported on shared arrays")
        runs = []
        for idx in np.ndindex(view.shape[:-1]):
            row = view[idx]
            runs.append((arr.base_vaddr + row.__array_interface__["data"][0]
                         - base_ptr, int(row.nbytes)))
        return runs
    idx = key if isinstance(key, tuple) else (key,)
    idx = tuple(i if i >= 0 else data.shape[d] + i for d, i in enumerate(idx))
    return [(arr.base_vaddr
             + int(np.ravel_multi_index(idx, data.shape)) * arr.itemsize,
             arr.itemsize)]


def bound(n):
    """A slice bound: None, in range, negative or past either end."""
    return st.one_of(st.none(), st.integers(-n - 2, n + 2))


@st.composite
def unit_step_keys(draw):
    """A 1-3-D shape (a dimension may be empty) and a key of in-range
    ``int`` s (negative ones included) and step-1 slices (empty, clipped
    and open-ended ones included) on a prefix of its dimensions, as a
    tuple or, for one dimension, bare."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(0, 5)) for _ in range(ndim))
    key = []
    for n in shape[:draw(st.integers(1, ndim))]:
        if n and draw(st.integers(0, 2)) == 0:
            key.append(draw(st.integers(-n, n - 1)))
        else:
            key.append(slice(draw(bound(n)), draw(bound(n)),
                             draw(st.sampled_from([None, 1]))))
    if len(key) == 1 and draw(st.booleans()):
        return shape, key[0]
    return shape, tuple(key)


@given(unit_step_keys())
@example(((4, 3), (slice(1, 3), slice(None))))          # a row block
@example(((5, 3), (2, slice(None))))                    # one row
@example(((4, 5, 3), (1, slice(None), slice(None))))    # one plane
@example(((4, 5, 3), (slice(2, 3), slice(1, 4))))       # one partial row
@settings(max_examples=400, deadline=None)
def test_runs_for_matches_the_numpy_view_derivation(selection):
    shape, key = selection
    arr = make_array(shape)
    try:
        want = numpy_view_runs(arr, key)
    except ValueError:
        with pytest.raises(ValueError, match="strided last-axis"):
            arr.runs_for(key)
        return
    assert arr.runs_for(key) == want


def test_runs_for_keeps_numpy_errors():
    arr = make_array((4, 5, 3))
    for key in (4, -5, (1, 5), (0, slice(None), 3), (slice(None), -6),
                (0, 0, 0, 0)):
        with pytest.raises(IndexError):
            arr.runs_for(key)
    for key in ([0, 2], (0, [1, 3]), np.array([1, 2])):
        with pytest.raises(ValueError, match="fancy indexing"):
            arr.runs_for(key)
    for key in ((1, slice(None), slice(0, 3, 2)),
                (0, 0, slice(None, None, -1))):
        with pytest.raises(ValueError, match="strided last-axis"):
            arr.runs_for(key)
    with pytest.raises(ValueError, match="strided last-axis"):
        make_array((6,)).runs_for(slice(None, None, 2))
    # A step on a leading dimension keeps its one run per row.
    for key in (slice(None, None, 2), (0, slice(4, 0, -2)),
                (slice(0, 4, 3), 1)):
        assert arr.runs_for(key) == numpy_view_runs(arr, key)


def fancy_keys():
    """A fancy index (a list or an array) in each position of a 2-D and
    a 3-D key, the other positions full slices or an int."""
    for shape in ((4, 5), (4, 5, 6)):
        dims = "x".join(map(str, shape))
        for pos in range(len(shape)):
            for fancy in ([1, 3], np.array([0, 2])):
                for other in (slice(None), 1):
                    key = [other] * len(shape)
                    key[pos] = fancy
                    yield pytest.param(
                        shape, tuple(key),
                        id=f"{dims}-{type(fancy).__name__}-at-{pos}-"
                           f"{'int' if other == 1 else 'slices'}")


@pytest.mark.parametrize("shape,key", list(fancy_keys()))
def test_fancy_index_in_any_position_raises(shape, key):
    # numpy copies the selection, so it has no addresses in the segment
    # (a fancy index after a slice once gave runs in numpy's temporary).
    with pytest.raises(ValueError, match="fancy indexing"):
        make_array(shape).runs_for(key)


def any_index(n):
    """One dimension's index: an int, a slice with any step or bounds,
    or a fancy list."""
    step = st.one_of(st.none(), st.integers(-3, 3).filter(bool))
    return st.one_of(
        st.integers(-n - 1, n),
        st.builds(slice, bound(n), bound(n), step),
        st.lists(st.integers(-n, n - 1), min_size=1, max_size=3)
        if n else st.just([]),
    )


@st.composite
def any_keys(draw):
    """A 1-3-D shape and a key of any index kind on a prefix of its
    dimensions."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(0, 5)) for _ in range(ndim))
    key = tuple(draw(any_index(n))
                for n in shape[:draw(st.integers(1, ndim))])
    return shape, key


@given(any_keys())
@example(((4, 5, 6), (slice(None), [1, 3])))
@settings(max_examples=400, deadline=None)
def test_every_run_lies_inside_the_array(selection):
    shape, key = selection
    arr = make_array(shape)
    try:
        runs = arr.runs_for(key)
    except (IndexError, ValueError):
        return
    lo, hi = arr.base_vaddr, arr.base_vaddr + arr.data.nbytes
    for vaddr, nbytes in runs:
        assert nbytes > 0
        assert lo <= vaddr and vaddr + nbytes <= hi


def test_read_write_move_real_data():
    params = SimParams().replace(num_processors=1, dsm_address_space_pages=16)
    cluster = Cluster(params, interface="cni")
    arr = SharedArray(cluster.alloc_shared((4, 8)), "x")

    def kernel(ctx):
        yield from arr.write(ctx, (1, slice(None)), np.arange(8.0))
        got = yield from arr.read(ctx, (1, slice(2, 5)))
        assert got.tolist() == [2.0, 3.0, 4.0]
        yield from arr.update(ctx, (1, 0), lambda v: v + 41.0)
        assert arr.data[1, 0] == 41.0

    cluster.run(kernel)


def test_scalar_table():
    params = SimParams().replace(num_processors=1, dsm_address_space_pages=16)
    cluster = Cluster(params, interface="cni")
    table = SharedScalarTable(SharedArray(cluster.alloc_shared((4,)), "t"))

    def kernel(ctx):
        yield from table.set(ctx, 0, 5.0)
        v = yield from table.get(ctx, 0)
        assert v == 5.0
        new = yield from table.add(ctx, 0, -2.0)
        assert new == 3.0

    cluster.run(kernel)


def test_scalar_table_requires_1d():
    arr = make_array((4, 4))
    with pytest.raises(ValueError):
        SharedScalarTable(arr)
