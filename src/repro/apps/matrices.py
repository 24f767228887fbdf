"""Synthetic stand-ins for the Harwell-Boeing matrices.

The paper factorizes BCSSTK14 (1806x1806, ~63k stored entries; a roof
structure stiffness matrix) and BCSSTK15 (3948x3948, ~117k entries; an
offshore-platform module).  The originals are not redistributable in an
offline environment, so we generate *banded* FEM-like symmetric
positive-definite matrices matched in dimension and per-column fill;
DESIGN.md's substitution table records this.  What the experiments
depend on — column count, columns-per-page, update reach (bandwidth),
and the task-dependency structure — is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class BandedSPD:
    """A symmetric positive-definite band matrix in lower-band storage.

    ``bands[j, i]`` holds ``A[j + i, j]`` for ``0 <= i <= bandwidth``
    (entries past the matrix edge are zero).  Column ``j`` of the matrix
    is exactly row ``j`` of ``bands`` — the contiguity the parallel
    factorization's page behaviour relies on.

    ``block_size`` (optional) marks a nested-dissection-like structure:
    entries coupling different ``block_size``-column blocks are zero, so
    the elimination tree is a *forest* of independent chains — the bushy
    task graph that gives real sparse Cholesky its parallelism (a plain
    band has an almost purely sequential elimination chain).  Cholesky is
    closed under this structure: a column's cross-block entries are zero,
    so its outer-product update cannot create cross-block fill.
    """

    n: int
    bandwidth: int
    bands: np.ndarray
    block_size: Optional[int] = None

    def __post_init__(self):
        if self.bands.shape != (self.n, self.bandwidth + 1):
            raise ValueError(
                f"band storage shape {self.bands.shape} does not match "
                f"n={self.n}, bandwidth={self.bandwidth}"
            )
        if self.block_size is not None and self.block_size < 1:
            raise ValueError("block_size must be positive")

    @property
    def stored_entries(self) -> int:
        """Nonzero budget (lower triangle + diagonal)."""
        return int(np.count_nonzero(self.bands))

    def to_dense(self) -> np.ndarray:
        """Dense symmetric reconstruction (tests on small instances)."""
        a = np.zeros((self.n, self.n))
        for i in range(self.bandwidth + 1):
            vals = self.bands[: self.n - i, i]
            idx = np.arange(self.n - i)
            a[idx + i, idx] = vals
            a[idx, idx + i] = vals
        return a


def synthetic_fem_spd(n: int, bandwidth: int, seed: int = 7,
                      block_size: Optional[int] = None) -> BandedSPD:
    """A banded SPD matrix with FEM-stiffness-like structure.

    Off-diagonals decay with distance from the diagonal (element
    coupling weakens with graph distance); the diagonal is made strictly
    dominant, which guarantees positive definiteness and a stable
    factorization without pivoting — as with the real BCSSTK matrices.
    With ``block_size``, entries coupling different blocks are zeroed
    (see :class:`BandedSPD`).
    """
    if n < 2 or bandwidth < 1 or bandwidth >= n:
        raise ValueError(f"bad band geometry n={n}, bandwidth={bandwidth}")
    rng = np.random.default_rng(seed)
    bands = np.zeros((n, bandwidth + 1))
    decay = np.exp(-np.arange(1, bandwidth + 1) / (bandwidth / 2.5))
    off = -rng.uniform(0.2, 1.0, (n, bandwidth)) * decay
    # zero the entries that would fall past the matrix edge
    for i in range(1, bandwidth + 1):
        off[n - i:, i - 1] = 0.0
    bands[:, 1:] = off
    if block_size is not None:
        cols = np.arange(n)[:, None]
        rows = cols + np.arange(1, bandwidth + 1)[None, :]
        cross = (rows // block_size) != (cols // block_size)
        bands[:, 1:][cross] = 0.0
    # strict diagonal dominance: |a_jj| > sum of |offdiag| in row j
    rowsum = np.zeros(n)
    for i in range(1, bandwidth + 1):
        rowsum[: n - i] += np.abs(bands[: n - i, i])  # below-diagonal
        rowsum[i:] += np.abs(bands[: n - i, i])       # symmetric above
    bands[:, 0] = rowsum + rng.uniform(1.0, 2.0, n)
    return BandedSPD(n=n, bandwidth=bandwidth, bands=bands,
                     block_size=block_size)


def bcsstk14_like(scale: float = 1.0, seed: int = 14) -> BandedSPD:
    """BCSSTK14 stand-in: 1806 columns, ~48 entries per column.

    The band is sized to the *factor's* envelope, not the raw matrix:
    sparse Cholesky fills in, and it is the factor's column density that
    drives both the flop count and the page-sharing behaviour the
    experiments measure (BCSSTK14's factor carries roughly twice the
    matrix's nonzeros).  ``scale`` shrinks the instance proportionally
    (test/bench scaling); 1.0 is the paper-sized instance.
    """
    n = max(32, int(round(1806 * scale)))
    bw = max(4, min(n - 1, int(round(48 * min(1.0, scale * 2)))))
    # ~16 independent elimination branches (nested-dissection leaves)
    block = max(bw + 1, n // 16)
    return synthetic_fem_spd(n, bw, seed=seed, block_size=block)


def bcsstk15_like(scale: float = 1.0, seed: int = 15) -> BandedSPD:
    """BCSSTK15 stand-in: 3948 columns, ~64 entries per column in the
    factor's envelope (the larger, denser instance that scales better in
    Figure 11)."""
    n = max(48, int(round(3948 * scale)))
    bw = max(6, min(n - 1, int(round(64 * min(1.0, scale * 2)))))
    # more branches than bcsstk14: the larger problem scales further
    block = max(bw + 1, n // 24)
    return synthetic_fem_spd(n, bw, seed=seed, block_size=block)


def band_cholesky_reference(m: BandedSPD) -> np.ndarray:
    """Sequential band Cholesky in band storage; returns L's bands.

    The parallel factorization must produce exactly this (same
    operations, same order per column)."""
    bands = m.bands.copy()
    n, b = m.n, m.bandwidth
    for j in range(n):
        d = np.sqrt(bands[j, 0])
        bands[j, :] /= d
        reach = min(b, n - 1 - j)
        for k in range(1, reach + 1):
            ell = bands[j, k]
            if ell != 0.0:
                bands[j + k, : b + 1 - k] -= ell * bands[j, k:]
    return bands
