"""Cross-feature matrix: every fabric x interface x protocol x
transport combo runs every application correctly at a small scale.

This is the net that catches interactions no single-feature test sees
(e.g. eager RC over per-cell transport on the standard interface, or
lock traffic reordered by an adaptive torus).
"""

import numpy as np
import pytest

from repro.apps import (
    CholeskyConfig,
    JacobiConfig,
    WaterConfig,
    band_cholesky_reference,
    jacobi_reference,
    run_cholesky,
    run_jacobi,
    run_water,
    synthetic_fem_spd,
    water_reference,
)
from repro.apps.water import POS, VEL
from repro.params import SimParams

COMBOS = [
    ("cni", "lazy", False),
    ("cni", "eager", False),
    ("cni", "lazy", True),
    ("standard", "lazy", False),
    ("standard", "eager", False),
    ("standard", "lazy", True),
]

#: One fabric of each family; the first is the default topology, whose
#: cases keep their fabric-free ids.
FABRICS = ("banyan:32", "fattree:k=4", "torus:2x2:adaptive")

MATRIX = [
    pytest.param(
        fabric, *combo,
        id="-".join(([] if fabric == FABRICS[0] else [fabric])
                    + [str(c) for c in combo]))
    for fabric in FABRICS
    for combo in COMBOS
]


def params(fabric, per_cell):
    return SimParams().replace(
        num_processors=3, per_cell_transport=per_cell, topology=fabric
    )


def run_with_protocol(runner, p, iface, proto, cfg):
    # run_* helpers build the cluster themselves; protocol is threaded
    # through by monkey-patching the Cluster default would be invasive —
    # instead use the kernel-level builders for the protocol dimension.
    from repro.runtime import Cluster

    if runner is run_jacobi:
        from repro.apps.jacobi import build_jacobi, jacobi_kernel, dsm_pages_needed

        p2 = p.replace(dsm_address_space_pages=max(
            p.dsm_address_space_pages, dsm_pages_needed(cfg, p)))
        cluster = Cluster(p2, interface=iface, home_scheme="block",
                          protocol=proto)
        grids = build_jacobi(cluster, cfg)
        stats = cluster.run(lambda ctx: jacobi_kernel(ctx, cfg, grids))
        return stats, grids[cfg.iterations % 2].data.copy(), cluster
    if runner is run_water:
        from repro.apps.water import build_water, water_kernel, dsm_pages_needed

        p2 = p.replace(dsm_address_space_pages=max(
            p.dsm_address_space_pages, dsm_pages_needed(cfg, p)))
        cluster = Cluster(p2, interface=iface, protocol=proto)
        mol, staging = build_water(cluster, cfg, p2.num_processors)
        stats = cluster.run(
            lambda ctx: water_kernel(ctx, cfg, mol, staging))
        return stats, mol.data.copy(), cluster
    from repro.apps.cholesky import CholeskyShared, cholesky_kernel, dsm_pages_needed

    p2 = p.replace(dsm_address_space_pages=max(
        p.dsm_address_space_pages, dsm_pages_needed(cfg, p)))
    cluster = Cluster(p2, interface=iface, protocol=proto)
    sh = CholeskyShared(cluster, cfg)
    stats = cluster.run(lambda ctx: cholesky_kernel(ctx, cfg, sh))
    return stats, sh.bands.data.copy(), cluster


@pytest.mark.parametrize("fabric,iface,proto,per_cell", MATRIX)
def test_jacobi_matrix(fabric, iface, proto, per_cell):
    cfg = JacobiConfig(n=24, iterations=2)
    stats, grid, cluster = run_with_protocol(
        run_jacobi, params(fabric, per_cell), iface, proto, cfg)
    assert np.allclose(grid, jacobi_reference(cfg))
    from repro.dsm import assert_healthy
    assert_healthy(cluster)


@pytest.mark.parametrize("fabric,iface,proto,per_cell", MATRIX)
def test_water_matrix(fabric, iface, proto, per_cell):
    cfg = WaterConfig(n_molecules=9, steps=1)
    stats, recs, cluster = run_with_protocol(
        run_water, params(fabric, per_cell), iface, proto, cfg)
    ref = water_reference(cfg)
    assert np.allclose(recs[:, POS], ref[:, POS])
    assert np.allclose(recs[:, VEL], ref[:, VEL])
    from repro.dsm import assert_healthy
    assert_healthy(cluster)


@pytest.mark.parametrize("fabric,iface,proto,per_cell", MATRIX)
def test_cholesky_matrix(fabric, iface, proto, per_cell):
    m = synthetic_fem_spd(32, 5, seed=11)
    cfg = CholeskyConfig(matrix=m, supernode=4)
    stats, bands, cluster = run_with_protocol(
        run_cholesky, params(fabric, per_cell), iface, proto, cfg)
    assert np.allclose(bands, band_cholesky_reference(m))
    from repro.dsm import assert_healthy
    assert_healthy(cluster)
