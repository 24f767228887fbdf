"""Cross-feature matrix: every fabric x interface x protocol combo
runs every application correctly at a small scale.

This is the net that catches interactions no single-feature test sees
(e.g. eager RC over a fat-tree on the standard interface, or lock
traffic reordered by an adaptive torus).
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
    ("cni", "lazy"),
    ("cni", "eager"),
    ("standard", "lazy"),
    ("standard", "eager"),
]

#: One fabric of each family; the first is the default topology, whose
#: cases keep their fabric-free ids.
FABRICS = ("banyan:32", "fattree:k=4", "torus:2x2:adaptive")

#: Every id ends in "-False", the value of the column that once chose
#: the transport, so each case keeps the id it has always had.
MATRIX = [
    pytest.param(
        fabric, *combo,
        id="-".join(([] if fabric == FABRICS[0] else [fabric])
                    + list(combo) + ["False"]))
    for fabric in FABRICS
    for combo in COMBOS
]


def params(fabric):
    return SimParams().replace(num_processors=3, topology=fabric)


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


@pytest.mark.parametrize("fabric,iface,proto", MATRIX)
def test_jacobi_matrix(fabric, iface, proto):
    cfg = JacobiConfig(n=24, iterations=2)
    stats, grid, cluster = run_with_protocol(
        run_jacobi, params(fabric), iface, proto, cfg)
    assert np.allclose(grid, jacobi_reference(cfg))
    from repro.dsm import assert_healthy
    assert_healthy(cluster)


@pytest.mark.parametrize("fabric,iface,proto", MATRIX)
def test_water_matrix(fabric, iface, proto):
    cfg = WaterConfig(n_molecules=9, steps=1)
    stats, recs, cluster = run_with_protocol(
        run_water, params(fabric), iface, proto, cfg)
    ref = water_reference(cfg)
    assert np.allclose(recs[:, POS], ref[:, POS])
    assert np.allclose(recs[:, VEL], ref[:, VEL])
    from repro.dsm import assert_healthy
    assert_healthy(cluster)


@pytest.mark.parametrize("fabric,iface,proto", MATRIX)
def test_cholesky_matrix(fabric, iface, proto):
    m = synthetic_fem_spd(32, 5, seed=11)
    cfg = CholeskyConfig(matrix=m, supernode=4)
    stats, bands, cluster = run_with_protocol(
        run_cholesky, params(fabric), iface, proto, cfg)
    assert np.allclose(bands, band_cholesky_reference(m))
    from repro.dsm import assert_healthy
    assert_healthy(cluster)
