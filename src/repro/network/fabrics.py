"""Pluggable fabric topologies: banyan, fat-tree, 3-D torus.

The :class:`Topology` interface is what :class:`repro.network.Network`
routes every cell train through; ``SimParams.topology`` selects the
concrete fabric via the grammar in :mod:`repro.network.spec`
(``banyan:32``, ``fattree:k=4``, ``torus:4x4x4``).  Three fabrics
register here:

* :class:`BanyanTopology` — the paper's single banyan switch, and the
  default fabric (``SimParams.topology = "banyan:32"``).
* :class:`FatTreeTopology` — a three-level fat-tree of banyan elements
  (k-ary: k pods of k/2 edge + k/2 aggregation switches, (k/2)^2 core
  switches, k^3/4 hosts) with deterministic up/down routing: the up-path
  and the core switch are a pure function of the destination, so the
  down-path is the destination-rooted tree and every (src, dst) pair has
  exactly one route.
* :class:`TorusTopology` — an APEnet+-style 2-D/3-D torus direct
  network.  ``dor`` routing is classic dimension-order (fix X, then Y,
  then Z, travelling the shorter way around each ring); ``adaptive`` is
  minimal-adaptive — at each router the train takes the least-queued
  productive link, falling back to dimension order on ties (the escape
  path that keeps routing deterministic and progress guaranteed).

Shared timing model (every fabric)::

    per switch crossed   cut-through latency   (SimParams.switch_latency_ns)
    per inter-switch link  propagation          (SimParams.wire_latency_ns)
    per link             serialization at the  link's own rate, holding the
                         link — concurrent trains queue FIFO (output-queue
                         congestion)

Head-of-line blocking is modelled at switch input ports: a train that
arrived on link L and is waiting for a busy output holds L's input port
at that switch, so a later train arriving on the same L queues behind it
even when its own output is free.  A train never holds more than one
input port and one output link at a time, and output links are held for
bounded serialization time only — the acquisition graph is acyclic, so
the model cannot deadlock.  Per-link rates default to
``SimParams.link_rate_bps``; pass ``rate_overrides`` (link name → bps)
to model heterogeneous fabrics.

The timed walk is ``Network``'s transfer body
(:mod:`repro.network.topology`): each train runs its host wires and its
hops in one generator frame.  The topology holds the fabric's data: its
links, its input ports, the :data:`Route` of each (src, dst) pair, built
once from the fabric's :meth:`~Topology._hops` route and cached so a
train re-derives neither link names nor ports, :meth:`~Topology.route`,
:meth:`~Topology.min_transit_ns` and the ``net.*`` counters
(docs/network.md).  The banyan's path is one crossing onto the
destination's output-port link.  The adaptive torus cannot cache its
hops: its path yields each hop when the walk reaches the router, after
the previous hop's release.

Links and input ports are FIFO servers (:class:`Server`) that the walk
takes and frees inline: a free one is taken by setting its ``busy``
flag, a busy one is queued for with an event, and freeing one hands it
to the first queued train or clears the flag.  They keep no hold-time
bookkeeping, since nothing reads it for a fabric.
"""

from __future__ import annotations

from collections import deque
from typing import (Deque, Dict, Iterable, Iterator, List, Optional, Tuple,
                    Union)

from ..engine import Event, Simulator
from ..params import SimParams
from .spec import TopologyError, TopologySpec, parse_topology
from .switch import BanyanFabric

__all__ = [
    "BanyanTopology",
    "FatTreeTopology",
    "Link",
    "Server",
    "Topology",
    "TorusTopology",
    "build_topology",
]


class Server:
    """A FIFO server of the fabric walk: a switch input port, and the
    base of every :class:`Link`.

    ``busy`` is set while a train holds it.  A train that finds it busy
    appends an :class:`~repro.engine.Event` to ``waiters`` and waits on
    it.  The holder frees it by triggering the first waiter's event,
    which hands the server over (it stays busy), or, with none queued,
    by clearing ``busy``.
    """

    __slots__ = ("name", "busy", "waiters")

    def __init__(self, name: str):
        self.name = name
        self.busy = False
        self.waiters: Deque[Event] = deque()


class Link(Server):
    """One directed fabric link: a FIFO server plus its line rate.

    ``scale`` is the link's serialization time relative to the base rate
    (``SimParams.link_rate_bps / rate_bps``): a train's time on the link
    is ``params.train_wire_time_ns(wire_bytes) * scale``.
    """

    __slots__ = ("rate_bps", "latency_ns", "scale", "_params")

    def __init__(self, name: str, params: SimParams,
                 rate_bps: Optional[float] = None,
                 latency_ns: float = 0.0):
        super().__init__(name)
        self.rate_bps = rate_bps if rate_bps is not None else params.link_rate_bps
        if self.rate_bps <= 0:
            raise TopologyError(f"link {name}: rate must be positive")
        self.latency_ns = latency_ns
        self.scale = params.link_rate_bps / self.rate_bps
        self._params = params

    def serialize_ns(self, wire_bytes: int) -> float:
        """Line-rate serialization time of one packet's cells here."""
        return self._params.train_wire_time_ns(wire_bytes) * self.scale


#: One hop of a timed walk: whether it crosses a switch, the input port
#: it contends for there (None on host injection), and the output link.
Hop = Tuple[bool, Optional[Server], Link]

#: How a train crosses the fabric between two nodes: the delays its
#: process starts after (the first host wire, with the first hop's
#: switch crossing when no input port is contended there), the hops it
#: walks from then on (None where the fabric picks each hop as the train
#: reaches it: :meth:`Topology._path`), and its switch crossings and
#: link hops.
Route = Tuple[Union[float, Tuple[float, float]], Optional[Tuple[Hop, ...]],
              int, int]


class Topology:
    """A cluster fabric: timed delivery of cell trains between nodes.

    Subclasses supply :meth:`_hops` (the pure path as ``(switch, link
    name)`` pairs), from which :meth:`route`, :meth:`min_transit_ns` and
    the cached per-pair routes (:meth:`_route`) derive.  The base class
    owns the shared counters (``net.*`` catalog, docs/network.md) and
    the link/input-port tables; ``Network``'s transfer body walks the
    routes and advances the counters.
    """

    kind = "abstract"

    def __init__(self, sim: Simulator, params: SimParams,
                 spec: TopologySpec,
                 rate_overrides: Optional[Dict[str, float]] = None):
        self.sim = sim
        self.params = params
        self.spec = spec
        self._rate_overrides = dict(rate_overrides or {})
        self.links: Dict[str, Link] = {}
        self._in_ports: Dict[Tuple[str, str], Server] = {}
        self._routes: Dict[Tuple[int, int], Route] = {}
        # -- net.* counters (registered by Network.register_metrics) ----
        self.crossings = 0        # switch/router traversals
        self.link_hops = 0        # links traversed
        self.link_waits = 0       # arrivals that queued on a busy link
        self.hol_blocks = 0       # arrivals that queued on an input port
        self.adaptive_detours = 0  # torus adaptive picked a non-DOR dim

    # -- construction helpers ------------------------------------------------
    def _add_link(self, name: str, latency_ns: float = 0.0) -> Link:
        link = Link(name, self.params,
                    rate_bps=self._rate_overrides.get(name),
                    latency_ns=latency_ns)
        self.links[name] = link
        return link

    def _hop(self, switch: Optional[str], arrived_on: Optional[Link],
             link: Link) -> Hop:
        """The walk's hop onto ``link`` through ``switch`` (None: no
        switch is crossed).  A crossing contends for the input port of
        the link the train arrived on; there is none on host injection,
        where the source NIC already serializes its own sends."""
        if switch is None:
            return False, None, link
        if arrived_on is None:
            return True, None, link
        key = (switch, arrived_on.name)
        port = self._in_ports.get(key)
        if port is None:
            port = Server(f"in:{switch}<{arrived_on.name}")
            self._in_ports[key] = port
        return True, port, link

    # -- paths ---------------------------------------------------------------
    def _hops(self, src: int, dst: int
              ) -> List[Tuple[Optional[str], str]]:
        """The zero-load path as ``(switch crossed or None, link name)``
        hops, in order."""
        raise NotImplementedError

    def _path(self, src: int, dst: int) -> Iterable[Hop]:
        """The hops a train walks from ``src`` to ``dst``, built from
        :meth:`_hops`."""
        hops = []
        arrived: Optional[Link] = None
        for switch, name in self._hops(src, dst):
            link = self.links[name]
            hops.append(self._hop(switch, arrived, link))
            arrived = link
        return tuple(hops)

    def _route(self, src: int, dst: int) -> Route:
        """The :data:`Route` of a train from ``src`` to ``dst``: built
        once per pair, then served from a cache."""
        route = self._routes.get((src, dst))
        if route is None:
            if dst == src:
                raise ValueError("loopback traffic never enters the fabric")
            route = self._routes[(src, dst)] = self._new_route(src, dst)
        return route

    def _new_route(self, src: int, dst: int) -> Route:
        path = self._path(src, dst)
        wire_ns = self.params.wire_latency_ns
        crossings = sum(1 for crosses, _port, _link in path if crosses)
        crosses, port, link = path[0]
        if crosses and port is None:
            # Nothing is taken at the first switch before its output
            # link, so the train crosses it straight off the host wire.
            return ((wire_ns, self.params.switch_latency_ns),
                    ((False, None, link),) + path[1:], crossings, len(path))
        return wire_ns, path, crossings, len(path)

    # -- interface -----------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Nodes this fabric can attach."""
        return self.spec.capacity

    def describe(self) -> str:
        """Canonical spec string (round-trips through the grammar)."""
        return self.spec.canonical()

    def check_nodes(self, n: int) -> None:
        """Raise when ``n`` nodes exceed this fabric's attachment points."""
        if n > self.capacity:
            raise TopologyError(
                f"{n} nodes exceed the {self.describe()} fabric's "
                f"{self.capacity} attachment points")

    def route(self, src: int, dst: int) -> List[str]:
        """The (zero-load) path as an ordered list of link names."""
        return [name for _switch, name in self._hops(src, dst)]

    def min_transit_ns(self, wire_bytes: int) -> float:
        """Best-case (uncontended) fabric latency of nodes 0 and 1, the
        nearest pair on every fabric, excluding the two host wires
        ``Network`` charges around it: the zero-load walk."""
        total = 0.0
        for switch, name in self._hops(0, 1):
            link = self.links[name]
            if switch is not None:
                total += self.params.switch_latency_ns
            total += link.latency_ns + link.serialize_ns(wire_bytes)
        return total

    def max_link_queue(self) -> int:
        """Deepest output queue across all links (diagnostics gauge)."""
        depth = 0
        for link in self.links.values():
            if len(link.waiters) > depth:
                depth = len(link.waiters)
        return depth

    def register_metrics(self, scope) -> None:
        """Register the fabric's ``net.*`` counters on ``scope``."""
        scope.counter("crossings", fn=lambda: self.crossings)
        scope.counter("link_hops", fn=lambda: self.link_hops)
        scope.counter("link_waits", fn=lambda: self.link_waits)
        scope.counter("hol_blocks", fn=lambda: self.hol_blocks)
        scope.counter("adaptive_detours", fn=lambda: self.adaptive_detours)
        scope.gauge("max_link_queue", fn=self.max_link_queue)


class BanyanTopology(Topology):
    """The paper's single banyan switch: one crossing per train.

    Each output port is a zero-latency link at the base rate
    (``sw.out0`` ... ``sw.out{P-1}``).  A train comes straight from the
    host, with no input-port hop (the source NIC already serializes its
    own sends), cuts through the switch and holds the destination's
    output port for its serialization time; concurrent trains to one
    port queue FIFO.  Internal-link contention is second-order once
    output queueing is modelled; :attr:`fabric` exposes it for analysis.
    """

    kind = "banyan"

    def __init__(self, sim: Simulator, params: SimParams,
                 spec: TopologySpec,
                 rate_overrides: Optional[Dict[str, float]] = None):
        super().__init__(sim, params, spec, rate_overrides)
        #: Routing arithmetic; checks that both ends are ports.
        self.fabric = BanyanFabric(spec.ports)
        for port in range(spec.ports):
            self._add_link(f"sw.out{port}")

    def _hops(self, src: int, dst: int
              ) -> List[Tuple[Optional[str], str]]:
        """One crossing onto the destination's output port."""
        self.fabric._check_port(src)
        self.fabric._check_port(dst)
        return [("sw", f"sw.out{dst}")]


class FatTreeTopology(Topology):
    """Three-level k-ary fat-tree of banyan switching elements.

    Host ``i`` sits in pod ``i // (k^2/4)`` under edge switch
    ``(i % (k^2/4)) // (k/2)``.  Up/down routing is destination-rooted:
    the aggregation position is ``dst mod k/2`` and the core index
    derives from the destination's edge position, so the down-path from
    the core to ``dst`` is the same for every source — one unique route
    per (src, dst) pair.
    """

    kind = "fattree"

    def __init__(self, sim: Simulator, params: SimParams,
                 spec: TopologySpec,
                 rate_overrides: Optional[Dict[str, float]] = None):
        super().__init__(sim, params, spec, rate_overrides)
        k = spec.k
        self.k = k
        self.half = k // 2
        self.pods = k
        self.hosts = k ** 3 // 4
        wire = params.wire_latency_ns
        for host in range(self.hosts):
            self._add_link(f"host{host}.up")
            self._add_link(f"host{host}.down")
        for pod in range(self.pods):
            for e in range(self.half):
                for a in range(self.half):
                    self._add_link(f"p{pod}.e{e}.up.a{a}", latency_ns=wire)
                    self._add_link(f"p{pod}.a{a}.down.e{e}", latency_ns=wire)
            for a in range(self.half):
                for c in range(self.half):
                    core = a * self.half + c
                    self._add_link(f"p{pod}.a{a}.up.c{core}",
                                   latency_ns=wire)
                    self._add_link(f"c{core}.down.p{pod}", latency_ns=wire)

    # -- host coordinates ----------------------------------------------------
    def _locate(self, host: int) -> Tuple[int, int, int]:
        """(pod, edge, port) of a host."""
        if not 0 <= host < self.hosts:
            raise TopologyError(
                f"host {host} out of range 0..{self.hosts - 1}")
        per_pod = self.k * self.k // 4  # k^2/4 hosts per pod
        pod, rest = divmod(host, per_pod)
        edge, port = divmod(rest, self.half)
        return pod, edge, port

    def _hops(self, src: int, dst: int
              ) -> List[Tuple[Optional[str], str]]:
        """The unique up/down path as (switch, link-name) hops."""
        sp, se, _ = self._locate(src)
        dp, de, _ = self._locate(dst)
        a = dst % self.half                       # agg position, dst-rooted
        core = a * self.half + (dst // self.half) % self.half
        hops: List[Tuple[Optional[str], str]] = [(None, f"host{src}.up")]
        if (sp, se) == (dp, de):
            hops.append((f"edge{sp}.{se}", f"host{dst}.down"))
            return hops
        if sp == dp:
            hops.append((f"edge{sp}.{se}", f"p{sp}.e{se}.up.a{a}"))
            hops.append((f"agg{sp}.{a}", f"p{sp}.a{a}.down.e{de}"))
            hops.append((f"edge{dp}.{de}", f"host{dst}.down"))
            return hops
        hops.append((f"edge{sp}.{se}", f"p{sp}.e{se}.up.a{a}"))
        hops.append((f"agg{sp}.{a}", f"p{sp}.a{a}.up.c{core}"))
        hops.append((f"core{core}", f"c{core}.down.p{dp}"))
        hops.append((f"agg{dp}.{a}", f"p{dp}.a{a}.down.e{de}"))
        hops.append((f"edge{dp}.{de}", f"host{dst}.down"))
        return hops


class TorusTopology(Topology):
    """APEnet+-style 2-D/3-D torus with DOR or minimal-adaptive routing.

    Node ``n`` has coordinates ``(x, y, z)`` with ``x`` fastest
    (``n = x + X*(y + Y*z)``); each node's router owns one directed link
    per dimension and direction, with wraparound.  Every route is
    minimal: the direction of travel in each dimension is fixed to the
    shorter way around the ring (ties break positive), so ``dor`` and
    ``adaptive`` differ only in the *order* dimensions are corrected —
    adaptive picks the least-queued productive link at each router and
    falls back to dimension order on ties.
    """

    kind = "torus"

    def __init__(self, sim: Simulator, params: SimParams,
                 spec: TopologySpec,
                 rate_overrides: Optional[Dict[str, float]] = None):
        super().__init__(sim, params, spec, rate_overrides)
        self.dims = tuple(spec.dims)
        self.routing = spec.routing
        self.nodes = spec.capacity
        wire = params.wire_latency_ns
        for n in range(self.nodes):
            for dim, size in enumerate(self.dims):
                if size < 2:
                    continue
                for sign in (+1, -1):
                    self._add_link(self._link_name(n, dim, sign),
                                   latency_ns=wire)

    # -- coordinates ---------------------------------------------------------
    def _coords(self, n: int) -> Tuple[int, ...]:
        if not 0 <= n < self.nodes:
            raise TopologyError(f"node {n} out of range 0..{self.nodes - 1}")
        out = []
        for size in self.dims:
            n, c = divmod(n, size)
            out.append(c)
        return tuple(out)

    def _node(self, coords: Tuple[int, ...]) -> int:
        n = 0
        for size, c in zip(reversed(self.dims), reversed(coords)):
            n = n * size + c
        return n

    def _link_name(self, node: int, dim: int, sign: int) -> str:
        return f"n{node}.d{dim}{'+' if sign > 0 else '-'}"

    def _neighbor(self, node: int, dim: int, sign: int) -> int:
        coords = list(self._coords(node))
        coords[dim] = (coords[dim] + sign) % self.dims[dim]
        return self._node(tuple(coords))

    def _deltas(self, src: int, dst: int) -> List[Tuple[int, int, int]]:
        """Remaining travel per dimension: (dim, sign, steps), minimal
        direction with ties broken positive — the moves both routing
        modes draw from."""
        sc, dc = self._coords(src), self._coords(dst)
        moves = []
        for dim, size in enumerate(self.dims):
            fwd = (dc[dim] - sc[dim]) % size
            if fwd == 0:
                continue
            if fwd <= size - fwd:
                moves.append((dim, +1, fwd))
            else:
                moves.append((dim, -1, size - fwd))
        return moves

    def _hops(self, src: int, dst: int
              ) -> List[Tuple[Optional[str], str]]:
        """The dimension-order path as (router, link-name) hops: the
        ``dor`` route, and ``adaptive``'s zero-load/escape path."""
        self._coords(dst)
        hops: List[Tuple[Optional[str], str]] = []
        here = src
        for dim, sign, steps in self._deltas(src, dst):
            for _ in range(steps):
                hops.append((f"rt{here}", self._link_name(here, dim, sign)))
                here = self._neighbor(here, dim, sign)
        return hops

    def _pick_move(self, here: int, moves: List[Tuple[int, int, int]]
                   ) -> Tuple[int, Tuple[int, int, int]]:
        """Adaptive selection: the productive link with the shortest
        queue; dimension order (the escape order) breaks ties.  Returns
        (index into moves, move)."""
        best_i, best_load = 0, None
        for i, (dim, sign, _steps) in enumerate(moves):
            link = self.links[self._link_name(here, dim, sign)]
            load = len(link.waiters) + (1 if link.busy else 0)
            if best_load is None or load < best_load:
                best_i, best_load = i, load
        return best_i, moves[best_i]

    def _path(self, src: int, dst: int) -> Iterable[Hop]:
        if self.routing == "adaptive":
            return self._adaptive_path(src, dst)
        return super()._path(src, dst)

    def _new_route(self, src: int, dst: int) -> Route:
        if self.routing != "adaptive":
            return super()._new_route(src, dst)
        # Every route is minimal, so the adaptive walk crosses as many
        # routers, each onto one link, as the dimension-order path.
        n = len(self._hops(src, dst))
        return self.params.wire_latency_ns, None, n, n

    def _adaptive_path(self, src: int, dst: int) -> Iterator[Hop]:
        """Adaptive hops, each picked only when the walk asks for it:
        right after the previous hop released its link, so the choice
        sees the queues as they are when the train reaches the router."""
        moves = [list(m) for m in self._deltas(src, dst)]
        here = src
        arrived: Optional[Link] = None
        while moves:
            i = 0
            if len(moves) > 1:
                i, _ = self._pick_move(here, [tuple(m) for m in moves])
                if i != 0:
                    self.adaptive_detours += 1
            dim, sign, _ = moves[i]
            link = self.links[self._link_name(here, dim, sign)]
            yield self._hop(f"rt{here}", arrived, link)
            arrived = link
            here = self._neighbor(here, dim, sign)
            moves[i][2] -= 1
            if moves[i][2] == 0:
                del moves[i]


def build_topology(sim: Simulator, params: SimParams,
                   rate_overrides: Optional[Dict[str, float]] = None
                   ) -> Topology:
    """Build the fabric ``params.topology`` selects (validated).

    The returned fabric has already checked that
    ``params.num_processors`` nodes fit.
    """
    spec = parse_topology(params.topology)
    if spec.kind == "banyan":
        topo: Topology = BanyanTopology(sim, params, spec, rate_overrides)
    elif spec.kind == "fattree":
        topo = FatTreeTopology(sim, params, spec, rate_overrides)
    else:
        topo = TorusTopology(sim, params, spec, rate_overrides)
    topo.check_nodes(params.num_processors)
    return topo
