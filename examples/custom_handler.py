#!/usr/bin/env python
"""Installing a *custom* Application Interrupt Handler.

Section 2.3: applications "can install customized protocols in the
network adaptor board"; a barrier, for instance, "can be handled within
the network adaptor board, eliminating the overhead of the application
protocol stack".  This example does exactly that — it implements a
board-resident atomic fetch-and-add service: the counter lives in the
board's handler memory on node 0, remote increments are classified by
the PATHFINDER straight into the handler, and the host CPUs of both
nodes never see an interrupt.

The same service is then run "the old way" (a DSM counter under a lock)
for comparison.

Run:  python examples/custom_handler.py
"""

from repro.network import Packet, PacketKind
from repro.params import SimParams
from repro.runtime import Cluster

FNA_KEY = 0x200         # PATHFINDER handler key for our service
FNA_REPLY_KEY = 0x201
INCREMENTS = 16


def run_board_counter():
    """Clients on nodes 1..3 hammer the board-resident counter."""
    params = SimParams().replace(num_processors=4, dsm_address_space_pages=16)
    cluster = Cluster(params, interface="cni")
    server = cluster.nodes[0]
    state = {"counter": 0}

    # Install the service's two handlers on every node: the server
    # increments; clients complete their waiters.
    pending = {n.node_id: [] for n in cluster.nodes}

    def handler(packet: Packet, on_board: bool):
        node = cluster.nodes[packet.dst_node]
        yield node.params.ni_cycles_ns(node.params.ni_aih_protocol_cycles)
        if packet.handler_key == FNA_KEY:
            state["counter"] += 1
            node.nic.board_send(Packet(
                kind=PacketKind.DSM_PROTOCOL, src_node=packet.dst_node,
                dst_node=packet.src_node, channel_id=packet.channel_id,
                handler_key=FNA_REPLY_KEY, payload_bytes=16,
                payload=state["counter"],
            ))
        else:
            waiters = pending[packet.dst_node]
            if waiters:
                waiters.pop(0).trigger(packet.payload)

    for node in cluster.nodes:
        node.nic.install_protocol_handler(FNA_KEY, handler, 1024)
        node.nic.install_protocol_handler(FNA_REPLY_KEY, handler, 1024)

    from repro.core.adc import TransmitDescriptor

    def kernel(ctx):
        if ctx.rank == 0:
            yield from ctx.barrier()
            return
        for _ in range(INCREMENTS):
            ev = ctx.sim.event()
            pending[ctx.rank].append(ev)
            yield from ctx.node.nic.host_send(TransmitDescriptor(
                dst_node=0, vaddr=None, length=16, handler_key=FNA_KEY,
                channel_id=ctx.node.dsm_channel_id,
            ))
            yield ev
            yield ctx.node.nic.rx_wake_overhead_ns()
        yield from ctx.barrier()

    stats = cluster.run(kernel)
    assert state["counter"] == 3 * INCREMENTS
    return stats


def run_dsm_counter():
    """The conventional version: a shared counter under a DSM lock."""
    params = SimParams().replace(num_processors=4, dsm_address_space_pages=16)
    cluster = Cluster(params, interface="cni")
    arr = cluster.alloc_shared((8,))
    base = arr.base_vaddr

    def kernel(ctx):
        if ctx.rank == 0:
            yield from ctx.barrier()
            return
        for _ in range(INCREMENTS):
            yield from ctx.acquire(9)
            yield from ctx.read_runs([(base, 8)])
            v = arr.data[0]
            yield from ctx.write_runs([(base, 8)])
            arr.data[0] = v + 1
            yield from ctx.release(9)
        yield from ctx.barrier()

    stats = cluster.run(kernel)
    assert arr.data[0] == 3 * INCREMENTS
    return stats


def main() -> None:
    board = run_board_counter()
    dsm = run_dsm_counter()
    print(f"{3 * INCREMENTS} remote atomic increments from 3 clients\n")
    print(f"  board-resident AIH service : {board.elapsed_ns / 1e6:7.3f} ms")
    print(f"  DSM counter under a lock   : {dsm.elapsed_ns / 1e6:7.3f} ms")
    print(f"\ncustomized on-board protocol is "
          f"{dsm.elapsed_ns / board.elapsed_ns:.1f}x faster — the class of "
          f"win Section 2.3 claims for synchronization primitives")


if __name__ == "__main__":
    main()
