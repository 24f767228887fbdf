"""The fabric-topology grammar: ``banyan:32``, ``fattree:k=4``, ``torus:4x4x4``.

This module is deliberately light — no engine imports — so that
:meth:`repro.params.SimParams.validate` can parse and validate a
topology string without pulling in the timed fabric models
(:mod:`repro.network.fabrics`).

Grammar (one spec string, case-sensitive)::

    banyan[:PORTS]           single banyan switch; PORTS a power of two
                             (default 32, the paper's Table 1 switch)
    fattree:k=K              three-level fat-tree of K-port banyan
                             elements (K even >= 2); hosts = K^3/4
    torus:XxY[xZ][:ROUTING]  2-D/3-D torus direct network; ROUTING is
                             "dor" (dimension-order, default) or
                             "adaptive" (minimal-adaptive with a
                             dimension-order escape)

:func:`parse_topology` returns a frozen :class:`TopologySpec` whose
:meth:`~TopologySpec.canonical` string round-trips through the parser,
so the name a fabric reports (:meth:`repro.network.Topology.describe`,
the harness's ``fabric topology:`` banner, ``params.validate`` errors)
is itself a valid spec.  Malformed or unknown specs raise
:class:`TopologyError` (a :class:`ValueError`), never a guess.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "DEFAULT_BANYAN_PORTS",
    "TopologyError",
    "TopologySpec",
    "parse_topology",
]

#: Port count of the paper's switch; ``banyan`` with no argument means
#: this fabric, and ``SimParams.topology`` defaults to ``banyan:32``.
DEFAULT_BANYAN_PORTS = 32

_TORUS_DIMS_RE = re.compile(r"^\d+(x\d+){1,2}$")


class TopologyError(ValueError):
    """A topology spec that cannot be parsed, or a fabric asked to do
    something it cannot (too many nodes, a port off the edge, ...)."""


def _is_pow2(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


@dataclass(frozen=True)
class TopologySpec:
    """A parsed, validated topology description (pure data).

    ``kind`` selects the fabric; exactly the fields that fabric needs
    are meaningful (``ports`` for banyan, ``k`` for fattree, ``dims`` +
    ``routing`` for torus).  Instances come from :func:`parse_topology`;
    :meth:`canonical` is the inverse.
    """

    kind: str
    ports: int = DEFAULT_BANYAN_PORTS
    k: int = 0
    dims: Tuple[int, ...] = ()
    routing: str = "dor"

    @property
    def capacity(self) -> int:
        """Nodes this fabric can attach."""
        if self.kind == "banyan":
            return self.ports
        if self.kind == "fattree":
            return self.k ** 3 // 4
        prod = 1
        for d in self.dims:
            prod *= d
        return prod

    def canonical(self) -> str:
        """The spec as its canonical grammar string (round-trips)."""
        if self.kind == "banyan":
            return f"banyan:{self.ports}"
        if self.kind == "fattree":
            return f"fattree:k={self.k}"
        dims = "x".join(str(d) for d in self.dims)
        suffix = "" if self.routing == "dor" else f":{self.routing}"
        return f"torus:{dims}{suffix}"


def parse_topology(spec: str) -> TopologySpec:
    """Parse a topology spec string.

    Raises :class:`TopologyError` naming the offending piece on any
    malformed or unknown input.
    """
    if not isinstance(spec, str):
        raise TopologyError(
            f"topology spec must be a string, got {type(spec).__name__}")
    text = spec.strip()
    if not text:
        raise TopologyError("empty topology spec")
    kind, _, rest = text.partition(":")
    if kind == "banyan":
        return _parse_banyan(rest, text)
    if kind == "fattree":
        return _parse_fattree(rest, text)
    if kind == "torus":
        return _parse_torus(rest, text)
    raise TopologyError(
        f"unknown topology kind {kind!r} in {text!r} "
        "(known: banyan, fattree, torus)")


def _parse_banyan(rest: str, text: str) -> TopologySpec:
    if not rest:
        return TopologySpec("banyan", ports=DEFAULT_BANYAN_PORTS)
    try:
        ports = int(rest)
    except ValueError:
        raise TopologyError(
            f"banyan port count {rest!r} is not an integer (in {text!r})")
    if not _is_pow2(ports) or ports < 2:
        raise TopologyError(
            f"banyan needs a power-of-two port count >= 2, got {ports}")
    return TopologySpec("banyan", ports=ports)


def _parse_fattree(rest: str, text: str) -> TopologySpec:
    if not rest.startswith("k="):
        raise TopologyError(
            f"fattree spec must be 'fattree:k=K', got {text!r}")
    try:
        k = int(rest[2:])
    except ValueError:
        raise TopologyError(
            f"fattree arity {rest[2:]!r} is not an integer (in {text!r})")
    if k < 2 or k % 2:
        raise TopologyError(
            f"fattree arity k={k} must be an even integer >= 2")
    return TopologySpec("fattree", k=k)


def _parse_torus(rest: str, text: str) -> TopologySpec:
    dims_text, _, routing = rest.partition(":")
    if not routing:
        routing = "dor"
    if routing not in ("dor", "adaptive"):
        raise TopologyError(
            f"torus routing {routing!r} must be 'dor' or 'adaptive' "
            f"(in {text!r})")
    if not _TORUS_DIMS_RE.match(dims_text):
        raise TopologyError(
            f"torus dimensions must be 'XxY' or 'XxYxZ', got "
            f"{dims_text!r} (in {text!r})")
    dims = tuple(int(d) for d in dims_text.split("x"))
    if any(d < 1 for d in dims):
        raise TopologyError(f"torus dimensions must be >= 1, got {dims}")
    prod = 1
    for d in dims:
        prod *= d
    if prod < 2:
        raise TopologyError(
            f"torus {dims_text!r} has {prod} node(s); need at least 2")
    return TopologySpec("torus", dims=dims, routing=routing)
