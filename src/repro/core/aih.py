"""Application Interrupt Handlers (Section 2.3).

Applications compile protocol code "in a pointer-safe language
environment ... to relocatable network interface object code"; at
connection setup the code is swapped into a free segment of board memory
and the PATHFINDER is programmed to transfer control to it when a
matching packet arrives.  There is deliberately *no virtual memory* on
the board: the whole handler is resident (a page fault on the NI would be
ruinous at line rate).

In the simulation a handler is a Python callable standing in for the
object code.  The board's handler table
(:attr:`~repro.core.NetworkInterface.protocol_handlers`) maps each key
to its callable; the registry here holds each key's object-code size,
enforces the board's handler-memory capacity, models swap-in cost and
counts dispatches.  Handlers run on the NI processor's clock inside the
receive path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..obs import MetricsScope, private_scope
from ..params import SimParams

#: A handler receives ``(packet, on_board)`` and returns the generator of
#: its protocol step; ``on_board`` says whether the step runs on the NI
#: processor or on the host.
HandlerFn = Callable[..., Any]


class HandlerError(RuntimeError):
    """Installation or dispatch failure in the handler subsystem."""


class HandlerRegistry:
    """Board-resident Application Interrupt Handler store.

    ``memory_bytes`` is the board memory reserved for handler object code
    (the OSIRIS board carries 1 MB total; the evaluation assumes a single
    parallel application owns the handler region).
    """

    def __init__(self, params: SimParams, memory_bytes: int = 256 * 1024,
                 metrics: Optional[MetricsScope] = None):
        if memory_bytes < 0:
            raise ValueError("negative handler memory")
        self.params = params
        self.memory_bytes = memory_bytes
        #: Object-code bytes of each installed handler, by key: the
        #: occupied segments of the board's handler memory.
        self._segments: Dict[int, int] = {}
        #: Handler memory currently occupied (the installed segments'
        #: sizes, kept as a running total by install and uninstall).
        self.used_bytes = 0
        self.dispatches = 0
        self.swap_ins = 0
        m = metrics if metrics is not None else private_scope()
        m.counter("dispatches", fn=lambda: self.dispatches)
        m.counter("swap_ins", fn=lambda: self.swap_ins)
        m.gauge("handler_bytes_used", fn=lambda: self.used_bytes)

    # -- installation -----------------------------------------------------------
    def install(self, key: int, code_size: int) -> float:
        """Swap ``code_size`` bytes of handler code in under ``key``;
        returns the swap-in time.

        Swap-in cost models copying the object code over the bus at
        connection setup — off the critical path, but not free.
        Installation fails when the handler region is exhausted or the
        key is taken; re-keying is the application's problem, as it would
        be on the real board.
        """
        if code_size <= 0:
            raise ValueError("handler object code must have positive size")
        if key in self._segments:
            raise HandlerError(f"handler key {key} already installed")
        if self.used_bytes + code_size > self.memory_bytes:
            raise HandlerError(
                f"handler memory exhausted: {self.used_bytes}+{code_size} "
                f"> {self.memory_bytes}"
            )
        self._segments[key] = code_size
        self.used_bytes += code_size
        self.swap_ins += 1
        return self.params.dma_time_ns(code_size)

    def uninstall(self, key: int) -> None:
        """Free a handler segment (connection teardown)."""
        if key not in self._segments:
            raise HandlerError(f"handler key {key} not installed")
        self.used_bytes -= self._segments.pop(key)

    def installed(self, key: int) -> bool:
        """Whether ``key`` has resident code."""
        return key in self._segments

    # -- dispatch ----------------------------------------------------------------
    def dispatch(self, key: int) -> None:
        """Count a control transfer into handler ``key``
        (PATHFINDER-triggered), whose code must be resident.

        The *cost* (``ni_handler_dispatch_cycles`` plus the handler's own
        work) is charged by the NIC receive loop, which runs the board's
        handler-table entry for ``key``.
        """
        if key not in self._segments:
            raise HandlerError(f"no handler installed for key {key}")
        self.dispatches += 1

    def dispatch_time_ns(self) -> float:
        """NI time for the control transfer itself."""
        return self.params.ni_cycles_ns(self.params.ni_handler_dispatch_cycles)

    def handler_keys(self) -> List[int]:
        """Installed keys (diagnostics)."""
        return sorted(self._segments)
