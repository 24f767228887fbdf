"""Cluster assembly and experiment execution.

:class:`Cluster` builds the whole simulated system — nodes, fabric,
shared segment, DSM engines, NIC wiring — and runs SPMD application
kernels to completion, returning the paper's metrics
(:class:`~repro.engine.RunStats`).
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

import numpy as np

from ..collectives import COLL_HANDLER_CODE_BYTES, CollectiveEngine, CollMsgType
from ..core import Pathfinder
from ..core.cni_nic import channel_pattern, handler_patterns
from ..dsm import DsmEngine, HomePolicy, MsgType, SharedSegment
from ..dsm.eager import EagerDsmEngine
from ..engine import (
    Counters,
    RunStats,
    SimulationError,
    Simulator,
    StuckError,
    Tracer,
)
from ..memory import AddressSpace
from ..network import Network, PacketKind
from ..obs import MetricsRegistry, SpanTracer
from ..params import SimParams, cni_params, standard_interface_params
from .context import Context
from .node import DSM_HANDLER_CODE_BYTES, Node
from .protocol import RT_HANDLER_CODE_BYTES, MessagingEngine, RtMsgType

#: An SPMD application kernel: ``kernel(ctx) -> Generator``.
AppKernel = Callable[[Context], Generator]


class Cluster:
    """A simulated workstation cluster (CNI or standard interface)."""

    def __init__(
        self,
        params: SimParams,
        interface: str = "cni",
        home_scheme: str = "round_robin",
        protocol: str = "lazy",
    ):
        if interface == "standard":
            # The baseline is CNI-feature-free by definition (Section 3).
            params = standard_interface_params(params)
        elif interface == "cni":
            # Keep the caller's feature flags: defaults are full CNI, and
            # ablation experiments turn individual mechanisms off.
            pass
        else:
            raise ValueError(f"unknown interface type {interface!r}")
        if protocol not in ("lazy", "eager"):
            raise ValueError(f"unknown consistency protocol {protocol!r}")
        self.params = params
        self.interface = interface
        self.protocol = protocol
        self.sim = Simulator()
        self.counters = Counters()

        # -- observability substrate (docs/observability.md) --------------
        #: Every metric of this cluster, keyed ``node<i>.<component>...``.
        self.metrics = MetricsRegistry()
        #: Bounded ring for span/point traces; off by default — flip
        #: ``cluster.tracer.enabled = True`` before ``run()`` to record.
        self.tracer = Tracer(enabled=False)
        #: Span source for components; latency histograms under ``spans.*``
        #: are fed even while the ring is disabled.
        self.spans = SpanTracer(self.tracer, clock=lambda: self.sim.now,
                                metrics=self.metrics.scope("spans"))
        eng = self.metrics.scope("engine")
        eng.counter("events_processed", fn=lambda: self.sim.events_processed)
        eng.gauge("event_queue_hwm", fn=lambda: self.sim.queue_len_hwm)
        eng.gauge("sim_time_ns", fn=lambda: self.sim.now)

        self.network = Network(self.sim, params)
        # Fabric metrics (net.*, docs/network.md).
        self.network.register_metrics(self.metrics.scope("net"))
        # Fault-injection damage per destination node (zero on a clean
        # fabric; registered unconditionally so the catalog is stable).
        net = self.network
        for i in range(params.num_processors):
            fscope = self.metrics.scope(f"node{i}.faults")
            fscope.counter("cells_dropped",
                           fn=lambda i=i: net.fault_cells_dropped(i))
            fscope.counter("cells_corrupted",
                           fn=lambda i=i: net.fault_cells_corrupted(i))
        self.asp = AddressSpace(
            page_size=params.page_size_bytes,
            dsm_pages=params.dsm_address_space_pages,
        )
        self.segment = SharedSegment(self.asp)
        self.homes = HomePolicy(params.num_processors, scheme=home_scheme)

        self.nodes: List[Node] = []
        for i in range(params.num_processors):
            node = Node(self.sim, params, i, self.network, self.counters,
                        interface=interface,
                        metrics=self.metrics.scope(f"node{i}"),
                        spans=self.spans)
            self.nodes.append(node)
        engine_cls = EagerDsmEngine if protocol == "eager" else DsmEngine
        for node in self.nodes:
            engine = engine_cls(node, self.segment, self.homes,
                                params.num_processors)
            node.engine = engine
            # Collective engine (repro.collectives): the DSM barrier and
            # the app-facing collective API both run through it; the DSM
            # engine rides along as the barrier's consistency attachment.
            node.coll = CollectiveEngine(
                node, params.num_processors, root=self.homes.barrier_manager)
            node.coll.consistency = engine
            # Messaging engine (docs/runtime.md): rendezvous responder +
            # RDMA window logic.  Built on every platform so the
            # ``runtime.*`` metric catalog is run-independent.
            node.rt = MessagingEngine(node, params.num_processors)
            # Crash-stop plumbing (docs/reliability.md): the runtime's
            # bounded eager-retry policy backs the reliable transport's
            # budget exhaustion, and every engine's blocked waits feed
            # the quiescence watchdog's stuck report.
            node.nic.reliab.set_failure_sink(node.rt.on_delivery_failed)
            self.sim.add_waiter_probe(node.rt.outstanding_waits)
            self.sim.add_waiter_probe(node.coll.outstanding_waits)
            self.sim.add_waiter_probe(node.engine.outstanding_waits)
        self._setup_connections()
        self._ran = False

    # ----------------------------------------------------------------- wiring --
    def _setup_connections(self) -> None:
        """Connection setup: handler tables, channels, handler code.

        This is the kernel-mediated, off-critical-path phase (Section
        2.1/2.3): enter each protocol engine's handler in every board's
        handler table under each of its message keys; on the CNI also
        open a device channel per node and swap in the protocols' AIH
        object code.

        Every CNI board runs the same PATHFINDER program: the channel's
        demux pattern, then each handler's activation patterns.  The
        cluster builds it once and shares it with every board
        (:meth:`~repro.core.Pathfinder.share`, copy on write); each board
        opens its own channel and swaps in its own handler code.
        """
        # The protocol families: (engine attribute, handler keys, object
        # code bytes, packet kinds).  The DSM protocol's control and page
        # packets share its handlers.  On the CNI the collective
        # gather/release protocol, the rendezvous responder and the RDMA
        # window logic run on the NI processor too (with AIH ablated
        # away the same patterns bounce to the host).
        families = (
            ("engine", MsgType, DSM_HANDLER_CODE_BYTES,
             (PacketKind.DSM_PROTOCOL, PacketKind.DSM_PAGE)),
            ("coll", CollMsgType, COLL_HANDLER_CODE_BYTES,
             (PacketKind.COLLECTIVE,)),
            ("rt", RtMsgType, RT_HANDLER_CODE_BYTES, (PacketKind.RUNTIME,)),
        )
        cni = self.interface == "cni"
        if cni:
            # One cluster-wide connection for the single parallel
            # application: every node uses channel id 1 so that any
            # sender's packets match any receiver's demux pattern.
            program = Pathfinder()
            program.install(channel_pattern(1))
            for _attr, keys, _code_bytes, kinds in families:
                for key in keys:
                    for pattern in handler_patterns(int(key), kinds):
                        program.install(pattern)
        for node in self.nodes:
            nic = node.nic
            node.dsm_channel_id = 1
            for attr, keys, code_bytes, _kinds in families:
                handle_packet = getattr(node, attr).handle_packet
                per_key = code_bytes // len(keys)
                for key in keys:
                    nic.protocol_handlers[int(key)] = handle_packet
                    if cni:
                        nic.handlers.install(int(key), per_key)
            if cni:
                ch = nic.channel_manager.open_channel(
                    owner_app=node.node_id, channel_id=1)
                # The whole address space is granted to the single
                # parallel application (the paper's stated assumption).
                ch.grant_buffer(0, self.asp.dsm_limit)
                nic.pathfinder.share(program)

    # ----------------------------------------------------------------- memory --
    def alloc_shared(self, shape, dtype=np.float64):
        """Allocate a shared array (before :meth:`run`); mappings are
        mirrored onto every board."""
        alloc = self.segment.alloc(shape, dtype=dtype)
        return alloc

    def finalize_memory(self) -> None:
        """Finalize page homes and install MMU/TLB mappings for
        everything allocated so far."""
        npages = self.segment.pages_allocated
        self.homes.set_page_count(max(npages, 1))
        self.homes.set_allocations(self.segment.extents)
        for node in self.nodes:
            node.engine.init_page_homes()
            node.map_dsm_pages(npages)

    # ------------------------------------------------------------------- run --
    def run(self, kernel: AppKernel, max_events: Optional[int] = None,
            wall_budget_s: Optional[float] = None) -> RunStats:
        """Run ``kernel`` SPMD on every node; return the run's metrics.

        ``wall_budget_s`` bounds the *wall-clock* time the event loop may
        spend (a backstop against livelock under fault plans); when the
        budget expires — or the queue drains — with application threads
        still blocked, the quiescence watchdog raises :class:`StuckError`
        naming every outstanding wait (docs/reliability.md)."""
        if self._ran:
            raise SimulationError("a Cluster instance runs one experiment")
        self._ran = True
        self.finalize_memory()

        run_span = self.spans.begin("cluster", "run")
        procs = []
        for node in self.nodes:
            ctx = Context(node, node.node_id, self.params.num_processors)
            procs.append(self.sim.spawn(kernel(ctx), f"app{node.node_id}"))
        self._schedule_crashes(procs)
        self._start_detectors(procs)
        self.sim.run(max_events=max_events, wall_budget_s=wall_budget_s)
        self.spans.end(run_span)

        unfinished = [p.name for p in procs if not p.finished]
        if unfinished:
            raise StuckError(
                f"application deadlock: {unfinished} never finished "
                f"(t={self.sim.now} ns)",
                self.sim.stuck_report(),
            )

        stats = RunStats()
        stats.elapsed_ns = self.sim.now
        stats.counters = self.counters
        stats.per_processor = [n.account for n in self.nodes]
        stats.metrics = self.metrics.snapshot()
        return stats

    def _schedule_crashes(self, procs) -> None:
        """Arm the fault plan's ``NodeCrash`` schedules: at ``at_ns`` the
        node's NIC fail-stops (transport timers cancelled, detector
        silenced, cells neither sourced nor sunk) and its application
        thread is killed — crash-stop semantics, no goodbye message."""
        faults = self.network.active_faults
        if faults is None:
            return
        for node_id, at_ns in sorted(faults.crash_times().items()):
            if not 0 <= node_id < len(self.nodes):
                continue
            self.sim.schedule(
                max(at_ns - self.sim.now, 0.0),
                lambda node_id=node_id: self._crash_node(node_id, procs))

    def _crash_node(self, node_id: int, procs) -> None:
        self.nodes[node_id].nic.on_crash()
        procs[node_id].kill()

    def _start_detectors(self, procs) -> None:
        """Arm every node's heartbeat detector, plus a watcher that
        stops them once all application threads are done (finished or
        killed) so the event queue can drain to quiescence."""
        if self.params.heartbeat_interval_ns <= 0:
            return
        for node in self.nodes:
            node.nic.detector.start()

        def _watch():
            for p in procs:
                if not p.finished:
                    yield p
            for node in self.nodes:
                node.nic.detector.stop()

        self.sim.spawn(_watch(), "detector-watch")
