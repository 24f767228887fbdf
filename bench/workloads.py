"""The five pinned benchmark workloads, their inputs and their outcome checks.

Each workload is one ``repro.run(app, params, interface, config)`` call.
The benchmark builds its inputs from a seed; the simulator only ever sees
the finished ``SimParams`` and config.  The seed enters the random inputs
(Water's molecule jitter, the Cholesky matrix values) and the fault plan's
loss pattern.  The other three workloads have no random input, so every
seed gives them the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro import (  # noqa: E402
    CholeskyConfig,
    JacobiConfig,
    SimParams,
    TransposeConfig,
    WaterConfig,
)
from repro.apps import (  # noqa: E402
    CollBenchConfig,
    band_cholesky_reference,
    bcsstk14_like,
    jacobi_reference,
    water_reference,
)
from repro.faults import parse_fault_plan  # noqa: E402

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One pinned workload: what to run and how to check it.  Why each
    was chosen is in BENCHMARK.json and bench/README.md."""

    name: str
    spec: str
    app: str
    interface: str
    make: Callable[[int, bool], Tuple[SimParams, Any]]
    """``make(seed, smoke) -> (params, config)``; smoke shrinks the sizes."""
    reference: Optional[Callable[[Any], np.ndarray]] = None
    """``reference(config)`` gives the expected result array; None for the
    self-checking kernels, which raise on a wrong value and return None."""


def _params(nodes: int, topology: str, **kw) -> SimParams:
    return SimParams().replace(num_processors=nodes, topology=topology, **kw)


def _jacobi(seed: int, smoke: bool):
    cfg = JacobiConfig(n=32, iterations=2) if smoke \
        else JacobiConfig(n=256, iterations=32)
    return _params(8, "banyan:8"), cfg


def _water(seed: int, smoke: bool):
    cfg = WaterConfig(n_molecules=24, steps=1, seed=seed) if smoke \
        else WaterConfig(n_molecules=192, steps=5, seed=seed)
    return _params(8, "banyan:8"), cfg


def _allreduce(seed: int, smoke: bool):
    if smoke:
        return _params(16, "fattree:k=4"), CollBenchConfig("allreduce", 2)
    return _params(64, "fattree:k=8"), CollBenchConfig("allreduce", 40)


def _cholesky(seed: int, smoke: bool):
    matrix = bcsstk14_like(scale=0.03 if smoke else 0.2, seed=seed)
    plan = parse_fault_plan(f"seed={seed};cell_loss(rate=0.001)")
    return (_params(8, "banyan:8", reliable_transport=True, fault_plan=plan),
            CholeskyConfig(matrix=matrix, supernode=4))


def _transpose(seed: int, smoke: bool):
    if smoke:
        return _params(4, "torus:2x2"), TransposeConfig(rounds=1)
    return _params(16, "torus:4x4"), TransposeConfig(rounds=6,
                                                      block_bytes=8192)


#: In the fixed order every round runs them.
WORKLOADS = {w.name: w for w in (
    Workload(
        "jacobi-dsm", "jacobi n=256 iters=32, p8, cni, banyan:8",
        "jacobi", "cni", _jacobi, jacobi_reference),
    Workload(
        "water-std", "water n=192 steps=5 seed=S, p8, standard, banyan:8",
        "water", "standard", _water, water_reference),
    Workload(
        "allreduce-fattree", "collbench allreduce rounds=40, p64, cni, "
        "fattree:k=8",
        "collbench", "cni", _allreduce),
    Workload(
        "cholesky-lossy", "cholesky bcsstk14_like(scale=0.2, seed=S) "
        "supernode=4, p8, cni, banyan:8, reliable_transport, "
        "seed=S;cell_loss(rate=0.001)",
        "cholesky", "cni", _cholesky,
        lambda cfg: band_cholesky_reference(cfg.matrix)),
    Workload(
        "transpose-torus", "transpose rounds=6 block_bytes=8192, p16, cni, "
        "torus:4x4",
        "transpose", "cni", _transpose),
)}

#: Outcome fingerprints of the full-size workloads at DEFAULT_SEED.  A
#: change that claims only speed must leave every one of them unchanged.
PINNED = {
    "jacobi-dsm": "1ccefd2b44ebc02a",
    "water-std": "7e6f6b61cb5fa38e",
    "allreduce-fattree": "5dc8572769360c84",
    "cholesky-lossy": "6cf7d0f317f835d4",
    "transpose-torus": "a94014bee5211c8b",
}


@dataclass
class Inputs:
    """A workload's inputs for one seed, and the result it must produce."""

    workload: Workload
    params: SimParams
    config: Any
    expected: Optional[np.ndarray]
    pinned: Optional[str]

    def run(self):
        """One simulation; returns ``(RunStats, result)``."""
        w = self.workload
        return repro.run(w.app, self.params, w.interface, self.config)


def build(w: Workload, seed: int, smoke: bool) -> Inputs:
    """Build the inputs, and the reference result the parent checks against."""
    params, config = w.make(seed, smoke)
    expected = w.reference(config) if w.reference else None
    pinned = PINNED[w.name] if seed == DEFAULT_SEED and not smoke else None
    return Inputs(w, params, config, expected, pinned)


def fingerprint(stats, result: Optional[np.ndarray]) -> str:
    """Outcome fingerprint: simulated time, per-processor accounts and a
    hash of the result array.  Deliberately not ``RunStats.digest()``,
    which also hashes the metric catalog and changes when a metric is
    added."""
    doc = {
        "elapsed_ns": stats.elapsed_ns,
        "accounts": [a.as_dict() for a in stats.per_processor],
        "result": None if result is None else hashlib.sha256(
            np.ascontiguousarray(result).tobytes()).hexdigest(),
    }
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def check(inputs: Inputs, result: Optional[np.ndarray]) -> Optional[str]:
    """None when ``result`` matches the reference, else the reason."""
    expected = inputs.expected
    if expected is None:
        return None if result is None else "unexpected result array"
    if result is None or result.shape != expected.shape:
        return "result shape differs from the reference"
    if not np.allclose(result, expected):
        worst = float(np.max(np.abs(result - expected)))
        return f"result differs from the reference (max abs error {worst:g})"
    return None
