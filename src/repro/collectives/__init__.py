"""Collective operations: barrier, broadcast, reduce/all-reduce, multicast.

The subsystem the paper's Application Interrupt Handlers were built for
(Section 2.3): collective protocol steps that complete on the network
interface processor with **zero host interrupts**.  One engine
(:class:`CollectiveEngine`) implements the root-gathered protocol, and
each step runs where the platform puts it: in an AIH dispatched by
PATHFINDER on a CNI with AIH support, on the host CPU after an interrupt
on the standard interface or on a CNI with AIH ablated away.

See docs/collectives.md for the API, the cost model, the AIH/PATHFINDER
mapping and the ``coll.*`` metrics.
"""

from .bench import CollBenchConfig, collective_kernel, run_collective_bench
from .engine import OPS, CollectiveEngine
from .errors import CollectiveError
from .messages import (
    COLL_HANDLER_CODE_BYTES,
    CollArrive,
    CollMsgType,
    CollRelease,
)
from .ops import REDUCERS, combine, reduce_values, value_wire_bytes

__all__ = [
    "OPS",
    "REDUCERS",
    "COLL_HANDLER_CODE_BYTES",
    "CollArrive",
    "CollBenchConfig",
    "CollMsgType",
    "CollRelease",
    "CollectiveEngine",
    "CollectiveError",
    "collective_kernel",
    "combine",
    "reduce_values",
    "run_collective_bench",
    "value_wire_bytes",
]
