"""Shared-array access layer for the benchmark applications.

:class:`SharedArray` marries a DSM allocation with the context's
run-based access primitive: application code names a row/slice, the
array computes the exact contiguous byte runs it occupies, the context
prices them through the cache and DSM models, and the *real* numpy data
moves — execution-driven simulation in the sense of Section 3.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..dsm import SharedAlloc
from ..runtime import Context

Key = Union[int, slice, Tuple]


class SharedArray:
    """An N-D shared array with priced accesses."""

    def __init__(self, alloc: SharedAlloc, name: str = "shared"):
        self.alloc = alloc
        self.name = name
        self.data = alloc.data
        self.itemsize = self.data.dtype.itemsize
        if not self.data.flags["C_CONTIGUOUS"]:
            raise ValueError("shared arrays must be C-contiguous")
        #: Items spanned by one step of each dimension and by the whole
        #: array: ``_trail[d]`` is the product of ``shape[d:]``.
        self._trail = [int(np.prod(self.data.shape[d:], dtype=np.int64))
                       for d in range(self.data.ndim + 1)]

    @property
    def base_vaddr(self) -> int:
        """Virtual base address of the array."""
        return self.alloc.base_vaddr

    @property
    def shape(self):
        """Array shape."""
        return self.data.shape

    # ------------------------------------------------------------------ runs --
    def runs_for(self, key: Key) -> List[Tuple[int, int]]:
        """Contiguous byte runs (vaddr, nbytes) covered by ``key``.

        Supports integer and slice indexing per dimension; a selection
        that is contiguous in C order collapses to one run, otherwise one
        run per last-axis row.  A key whose numpy result is a copy (any
        fancy index) has no runs in the segment and raises
        ``ValueError``; an empty selection has no runs at all.
        """
        run = self._contiguous_run(key if type(key) is tuple else (key,))
        if run is not None:
            return run
        data = self.data
        view = data[key]
        if view.size == 0:
            return []
        if isinstance(view, np.ndarray) and view.ndim > 0:
            if not np.may_share_memory(view, data):
                raise ValueError(
                    "fancy indexing copies data and has no address runs; "
                    "use basic (slice/int) indexing on shared arrays"
                )
            if not view.flags["C_CONTIGUOUS"]:
                return self._row_runs(view)
            start = view.__array_interface__["data"][0] - \
                self.data.__array_interface__["data"][0]
            return [(self.base_vaddr + start, int(view.nbytes))]
        # scalar
        offset = self._scalar_offset(key)
        return [(self.base_vaddr + offset, self.itemsize)]

    def _contiguous_run(self, key: tuple) -> Optional[List[Tuple[int, int]]]:
        """The run of a C-contiguous selection, by arithmetic on the
        shape: in-range ``int`` s on the leading dimensions, then at most
        one step-1 slice, then full slices.  Returns ``[]`` for an empty
        selection, or None for any other key (numpy's path then derives
        its runs, or raises its error)."""
        shape = self.data.shape
        if len(key) > len(shape):
            return None
        trail = self._trail
        offset = 0
        count = None
        for d, item in enumerate(key):
            n = shape[d]
            if type(item) is int:
                if count is not None or not -n <= item < n:
                    return None
                offset += (item + n if item < 0 else item) * trail[d + 1]
            elif type(item) is slice and item.step in (None, 1):
                start, stop, _ = item.indices(n)
                if count is None:
                    offset += start * trail[d + 1]
                    count = (stop - start) * trail[d + 1]
                elif stop - start != n:
                    return None
            else:
                return None
        if count is None:
            count = trail[len(key)]
        if count <= 0:
            return []
        return [(self.base_vaddr + offset * self.itemsize,
                 count * self.itemsize)]

    def _scalar_offset(self, key: Key) -> int:
        idx = key if isinstance(key, tuple) else (key,)
        idx = tuple(
            (i if i >= 0 else self.data.shape[d] + i)
            for d, i in enumerate(idx)
        )
        return int(np.ravel_multi_index(idx, self.data.shape)) * self.itemsize

    def _row_runs(self, view: np.ndarray) -> List[Tuple[int, int]]:
        """Non-contiguous view: one run per contiguous last-axis row, in
        C order.

        The row starts come from the view's data pointer and strides,
        one broadcast ``arange`` per leading axis (``reshape`` would
        silently copy a non-contiguous view and yield addresses outside
        the shared segment)."""
        if view.strides[-1] != self.itemsize:
            raise ValueError(
                "strided last-axis selections are not supported on "
                "shared arrays (rows must be contiguous)"
            )
        starts = np.zeros(1, dtype=np.int64)
        for n, stride in zip(view.shape[:-1], view.strides[:-1]):
            starts = (starts[:, None]
                      + np.arange(n, dtype=np.int64) * stride).ravel()
        base = (self.base_vaddr + view.__array_interface__["data"][0]
                - self.data.__array_interface__["data"][0])
        nbytes = int(view.shape[-1] * self.itemsize)
        return [(base + start, nbytes) for start in starts.tolist()]

    # ---------------------------------------------------------------- access --
    def read(self, ctx: Context, key: Key) -> Generator:
        """Priced read; returns a copy of the selected data."""
        yield from ctx.read_runs(self.runs_for(key))
        return np.array(self.data[key], copy=True)

    def write(self, ctx: Context, key: Key, value) -> Generator:
        """Priced write; assigns ``value`` into the selection."""
        yield from ctx.write_runs(self.runs_for(key))
        self.data[key] = value
        return None

    def update(self, ctx: Context, key: Key, fn) -> Generator:
        """Priced read-modify-write: ``data[key] = fn(data[key])``."""
        runs = self.runs_for(key)
        yield from ctx.read_runs(runs)
        new = fn(np.array(self.data[key], copy=True))
        yield from ctx.write_runs(runs)
        self.data[key] = new
        return None


class SharedScalarTable:
    """Small shared control variables (counters, flags) — each padded to
    its own value slot inside one shared page, accessed under locks.

    Used for bag-of-tasks heads/tails and readiness counters; keeping
    them in one page concentrates the synchronization traffic the way
    the SPLASH codes' shared control blocks do.
    """

    def __init__(self, arr: SharedArray):
        if arr.data.ndim != 1:
            raise ValueError("scalar table must be one-dimensional")
        self.arr = arr

    def get(self, ctx: Context, idx: int) -> Generator:
        """Priced scalar read."""
        value = yield from self.arr.read(ctx, idx)
        return float(value)

    def set(self, ctx: Context, idx: int, value: float) -> Generator:
        """Priced scalar write."""
        yield from self.arr.write(ctx, idx, value)
        return None

    def add(self, ctx: Context, idx: int, delta: float) -> Generator:
        """Priced scalar increment; returns the new value."""
        value = yield from self.arr.read(ctx, idx)
        new = float(value) + delta
        yield from self.arr.write(ctx, idx, new)
        return new
