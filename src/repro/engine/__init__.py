"""Discrete-event, execution-driven simulation kernel (Proteus substitute).

Public surface:

* :class:`Simulator`, :class:`Process`, :class:`Event` — the coroutine
  kernel (see :mod:`repro.engine.simulator` for the yield protocol).
* :class:`Resource`, :class:`Mailbox`, :class:`Gate` — hardware-style
  serialization and signalling primitives.
* :class:`TimeAccount`, :class:`Category`, :class:`Counters`,
  :class:`RunStats` — the paper's Tables 2-4 time taxonomy.
* :class:`Tracer` — optional bounded tracing.
"""

from .event_queue import EventHandle, EventQueue
from .resources import Gate, Mailbox, Resource
from .simulator import (
    Event,
    Process,
    SimulationError,
    Simulator,
    StuckError,
    StuckReport,
)
from .stats import Category, Counters, RunStats, TimeAccount
from .trace import GLOBAL_TRACER, TraceRecord, Tracer

__all__ = [
    "Category",
    "Counters",
    "Event",
    "EventHandle",
    "EventQueue",
    "Gate",
    "GLOBAL_TRACER",
    "Mailbox",
    "Process",
    "Resource",
    "RunStats",
    "SimulationError",
    "Simulator",
    "StuckError",
    "StuckReport",
    "TimeAccount",
    "TraceRecord",
    "Tracer",
]
