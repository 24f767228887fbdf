"""Ablations — which CNI mechanism buys what (DESIGN.md section 9).

Not a paper table; these benches isolate the three mechanisms the paper
composes: Message Cache (with its snooping), Application Interrupt
Handlers, and the ADC fast path, on a fixed page-migration-heavy
workload.
"""

import pytest

from repro.apps import CholeskyConfig, bcsstk14_like, run_cholesky
from repro.params import SimParams
from repro.runtime import Cluster


def run_variant(scale, **flags):
    cfg = CholeskyConfig(
        matrix=bcsstk14_like(scale=scale.cholesky_scale14),
        supernode=scale.supernode,
    )
    params = SimParams().replace(num_processors=scale.nprocs_fixed, **flags)
    return run_cholesky(params, "cni", cfg)[0]


def run_migration_ring(laps=6, nprocs=4, **flags):
    """A page hopping around the cluster: the workload transmit/receive
    caching exists for (Section 2.2's page-migration scenario)."""
    params = SimParams().replace(
        num_processors=nprocs, dsm_address_space_pages=16, **flags
    )
    cluster = Cluster(params, interface="cni")
    arr = cluster.alloc_shared((512,))
    base = arr.base_vaddr

    def kernel(ctx):
        for lap in range(laps):
            for holder in range(ctx.nprocs):
                if ctx.rank == holder:
                    yield from ctx.read_runs([(base, 8)])
                    v = arr.data[0]
                    yield from ctx.write_runs([(base, 4096)])
                    arr.data[:] = v + 1
                yield from ctx.barrier()

    return cluster.run(kernel)


def test_ablation_message_cache(scale, show):
    full = run_migration_ring()
    no_mc = run_migration_ring(transmit_caching=False, receive_caching=False)
    print(f"\nfull-CNI {full.elapsed_ns/1e6:.3f} ms vs "
          f"no-message-cache {no_mc.elapsed_ns/1e6:.3f} ms")
    assert full.elapsed_ns < no_mc.elapsed_ns
    assert full.network_cache_hit_ratio > no_mc.network_cache_hit_ratio


def test_ablation_aih(scale, show):
    full = run_variant(scale)
    no_aih = run_variant(scale, use_aih=False)
    print(f"\nfull-CNI {full.elapsed_ns/1e6:.3f} ms vs "
          f"no-AIH {no_aih.elapsed_ns/1e6:.3f} ms")
    # protocol on the host costs interrupts: slower
    assert full.elapsed_ns < no_aih.elapsed_ns


def test_ablation_snooping(scale, show):
    full = run_variant(scale)
    no_snoop = run_variant(scale, snoop_enabled=False)
    print(f"\nfull-CNI hit {full.network_cache_hit_ratio:.3f} vs "
          f"no-snoop hit {no_snoop.network_cache_hit_ratio:.3f}")
    assert full.network_cache_hit_ratio >= no_snoop.network_cache_hit_ratio


def test_ablation_receive_caching(scale, show):
    """Receive caching is what accelerates page *migration* (the
    Cholesky pattern the paper singles out)."""
    full = run_variant(scale)
    no_rc = run_variant(scale, receive_caching=False)
    print(f"\nfull-CNI hit {full.network_cache_hit_ratio:.3f} vs "
          f"no-receive-caching hit {no_rc.network_cache_hit_ratio:.3f}")
    assert full.network_cache_hit_ratio >= no_rc.network_cache_hit_ratio
