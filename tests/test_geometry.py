import numpy as np
import pytest

from bulksurf.geometry import build_polar_mesh, build_regions


def test_total_area_is_disk_area():
    mesh = build_polar_mesh(4, 8, 1.0)
    assert mesh.n_cells == 32
    assert mesh.surface_nodes.shape == (8,)
    assert abs(mesh.cell_areas.sum() - np.pi) <= 1e-10 * np.pi


def test_surface_weights_uniform():
    mesh = build_polar_mesh(4, 8, 1.0)
    np.testing.assert_allclose(mesh.surface_weights, 2 * np.pi / 8, rtol=1e-14)
    assert abs(mesh.surface_weights.sum() - 2 * np.pi) <= 1e-12 * 2 * np.pi


def test_ring_areas_match_analytic_quadrature():
    # oracle: ring i spans [(i-1)dr, i*dr]; sector area = (r_out^2-r_in^2)/2*dth
    mesh = build_polar_mesh(16, 32, 1.0)
    dr, dth = mesh.dr, 2 * np.pi / mesh.n_theta
    for i in (1, 7, 16):
        exact = ((i * dr) ** 2 - ((i - 1) * dr) ** 2) / 2 * dth
        # ring-major layout: cell (i, j) at (i - 1) * n_theta + j
        cells = (i - 1) * mesh.n_theta + np.arange(mesh.n_theta)
        np.testing.assert_allclose(mesh.cell_areas[cells], exact, rtol=1e-13)
        # spec form of the same number
        r_i = (i - 0.5) * dr
        assert abs(exact - r_i * dr * dth) < 1e-15
    assert abs(mesh.cell_areas.sum() - np.pi) <= 1e-10


def test_trace_map_bijection_and_normals():
    mesh = build_polar_mesh(5, 10, 1.0)
    outer = set(range((mesh.n_r - 1) * mesh.n_theta, mesh.n_cells))
    assert set(mesh.trace_map.tolist()) == outer
    assert len(set(mesh.trace_map.tolist())) == mesh.n_theta
    # each surface node sits on the outward ray through its bulk cell
    np.testing.assert_array_equal(mesh.cell_theta[mesh.trace_map],
                                  mesh.surface_theta)


def test_resolution_guards():
    with pytest.raises(ValueError):
        build_polar_mesh(3, 8)
    with pytest.raises(ValueError):
        build_polar_mesh(4, 6)
    with pytest.raises(ValueError):
        build_polar_mesh(4, 9)


def test_refinement_quarters_max_cell_area():
    # the widest cell sits at radius R - dr/2, so the ratio is
    # (1 - dr_f/2) / (1 - dr_c/2) / 4 -> 1/4 under refinement
    coarse = build_polar_mesh(8, 16, 1.0)
    fine = build_polar_mesh(16, 32, 1.0)
    ratio = fine.cell_areas.max() / coarse.cell_areas.max()
    assert abs(ratio - 0.25) < 0.01


def test_regions_nested_and_theta_midpoint():
    mesh = build_polar_mesh(16, 32, 1.0)
    reg = build_regions(mesh, 0.2, 0.3, 0.4, 0.2, 0.8)
    assert reg.theta == 0.5
    # omega is the disk r < 0.4, and it holds the inner disks' cells
    np.testing.assert_array_equal(reg.omega, np.flatnonzero(mesh.cell_r < 0.4))
    inner = np.flatnonzero(mesh.cell_r < 0.2)
    assert inner.size > 0 and set(inner) < set(reg.omega)


def test_region_ordering_violation_rejected():
    mesh = build_polar_mesh(16, 32, 1.0)
    with pytest.raises(ValueError):
        build_regions(mesh, 0.4, 0.3, 0.2, 0.2, 0.8)


def test_empty_region_rejected_on_coarse_mesh():
    # innermost centers sit at r = dr/2 = 0.125; radii below that are empty
    mesh = build_polar_mesh(4, 8, 1.0)
    with pytest.raises(ValueError, match="omega_prime"):
        build_regions(mesh, 0.01, 0.02, 0.03, 0.2, 0.8)


def test_omega_area_converges_to_disk_area():
    # oracle: the included cells differ from the disk r < rho only inside a
    # radial band of width dr, so |area - pi rho^2| <= 2 pi rho dr
    rho = 0.4
    for n in (8, 16, 32, 64):
        mesh = build_polar_mesh(n, 2 * n, 1.0)
        reg = build_regions(mesh, 0.2, 0.3, rho, 0.2, 0.8)
        area = mesh.cell_areas[reg.omega].sum()
        assert abs(area - np.pi * rho**2) <= 2 * np.pi * rho * mesh.dr
