import numpy as np
import pytest
import scipy.sparse.linalg as spla

from bulksurf.geometry import build_polar_mesh
from bulksurf.operators import (
    assemble_bulk_diffusion,
    assemble_surface_diffusion,
    conormal_flux,
    green_identity_residual,
    conormal_identity_residual,
    operator_invariant_report,
    surface_divergence_residual,
)


@pytest.fixture(scope="module")
def mesh16():
    return build_polar_mesh(16, 32, 1.0)


def ones_a(mesh):
    return np.ones(mesh.n_cells)


def test_bulk_constants_in_kernel(mesh16):
    op = assemble_bulk_diffusion(mesh16, ones_a(mesh16))
    u = np.full(mesh16.n_cells, 3.7)
    ug = np.full(mesh16.n_theta, 3.7)
    out = op.apply(u, ug)
    # rounding scale: transmissibility / smallest cell area
    scale = op.faces_t.max() / mesh16.cell_areas.min()
    assert np.abs(out).max() < 1e-13 * scale


def test_bulk_symmetry_and_semidefiniteness(mesh16):
    rng = np.random.default_rng(0)
    a = 1.0 + 0.5 * rng.random(mesh16.n_cells)
    op = assemble_bulk_diffusion(mesh16, a)
    rep = operator_invariant_report(op)
    assert rep["symmetry_error"] == 0.0
    assert rep["max_row_sum"] < 1e-12 * rep["scale"]
    lam_max = spla.eigsh(op.matrix, k=1, which="LA",
                         return_eigenvectors=False)[0]
    assert lam_max <= 1e-10 * rep["scale"]


def test_surface_symmetry_and_kernel(mesh16):
    d = 2.0 + np.sin(mesh16.surface_theta)
    op = assemble_surface_diffusion(mesh16, d)
    rep = operator_invariant_report(op)
    assert rep["symmetry_error"] == 0.0
    assert rep["max_row_sum"] < 1e-12 * rep["scale"]
    assert np.abs(op.apply(np.full(mesh16.n_theta, 2.0))).max() < 1e-12


def test_nonpositive_diffusivity_rejected(mesh16):
    a = ones_a(mesh16)
    a[5] = 0.0
    with pytest.raises(ValueError, match="onpositive"):
        assemble_bulk_diffusion(mesh16, a)
    with pytest.raises(ValueError, match="onpositive"):
        assemble_surface_diffusion(mesh16, np.zeros(mesh16.n_theta))


def test_bulk_radial_square_is_stencil_exact():
    # u = r^2: two-point fluxes reproduce the true face flux 2 R_f exactly,
    # so div_h u = 4 to rounding away from the one-sided boundary face
    mesh = build_polar_mesh(16, 32, 1.0)
    op = assemble_bulk_diffusion(mesh, np.ones(mesh.n_cells))
    out = op.apply(mesh.cell_r**2, np.ones(mesh.n_theta))
    interior = mesh.cell_r < 0.9
    assert np.abs(out[interior] - 4.0).max() < 1e-10


def test_bulk_laplacian_convergence_smooth_field():
    # oracle: u = r^3 cos(theta) -> Laplacian u = 8 r cos(theta)
    errs = []
    for n in (8, 16, 32):
        mesh = build_polar_mesh(n, 2 * n, 1.0)
        op = assemble_bulk_diffusion(mesh, np.ones(mesh.n_cells))
        u = mesh.cell_r**3 * np.cos(mesh.cell_theta)
        ug = np.cos(mesh.surface_theta)
        out = op.apply(u, ug)
        exact = 8.0 * mesh.cell_r * np.cos(mesh.cell_theta)
        mask = (mesh.cell_r > 0.2) & (mesh.cell_r < 0.8)
        errs.append(np.abs(out[mask] - exact[mask]).max())
    order = np.log2(errs[0] / errs[-1]) / 2
    assert order >= 0.9


def test_bulk_harmonic_function(mesh16):
    # oracle: u = x1 is harmonic; away from origin the stencil error is small
    mesh = build_polar_mesh(64, 128, 1.0)
    op = assemble_bulk_diffusion(mesh, np.ones(mesh.n_cells))
    xy = mesh.cell_xy
    u = xy[:, 0]
    ug = np.cos(mesh.surface_theta)
    out = op.apply(u, ug)
    mask = (mesh.cell_r > 0.2) & (mesh.cell_r < 0.9)
    assert np.abs(out[mask]).max() <= 1e-2


def test_surface_eigenfunction():
    # oracle: (cos s)'' = -cos s on the unit circle, error O(ds^2)
    errs = []
    for n in (16, 32, 64):
        mesh = build_polar_mesh(4, n, 1.0)
        op = assemble_surface_diffusion(mesh, np.ones(n))
        s = mesh.surface_nodes
        out = op.apply(np.cos(s))
        errs.append(np.abs(out + np.cos(s)).max())
    order = np.log2(errs[0] / errs[-1]) / 2
    assert order >= 1.8


def test_surface_variable_coefficient_symbolic_oracle():
    # oracle: d = 2 + sin s, u = sin s, (d u')' = cos^2 s - 2 sin s - sin^2 s
    errs = []
    for n in (32, 64, 128):
        mesh = build_polar_mesh(4, n, 1.0)
        s = mesh.surface_nodes
        op = assemble_surface_diffusion(mesh, 2.0 + np.sin(s))
        out = op.apply(np.sin(s))
        exact = np.cos(s) ** 2 - 2 * np.sin(s) - np.sin(s) ** 2
        errs.append(np.abs(out - exact).max())
    order = np.log2(errs[0] / errs[-1]) / 2
    assert order >= 1.8


def test_conormal_flux_radial_square(mesh16):
    # d_nu |x|^2 = 2 on the unit circle
    vals = []
    for n in (16, 32, 64):
        mesh = build_polar_mesh(n, 2 * n, 1.0)
        y = mesh.cell_r**2
        yg = np.ones(mesh.n_theta)
        flux = conormal_flux(mesh, np.ones(mesh.n_cells), y, yg)
        vals.append(np.abs(flux - 2.0).max())
    assert vals[-1] < vals[0]
    assert vals[-1] < 0.02


def test_conormal_flux_constant_zero(mesh16):
    y = np.full(mesh16.n_cells, 4.2)
    yg = np.full(mesh16.n_theta, 4.2)
    flux = conormal_flux(mesh16, ones_a(mesh16), y, yg)
    assert np.abs(flux).max() == 0.0


def test_conormal_flux_first_order():
    # oracle: u = r^3, d_nu u = 3 on the unit circle; the one-sided stencil
    # converges at first order
    errs = []
    for n in (8, 16, 32):
        mesh = build_polar_mesh(n, 2 * n, 1.0)
        u = mesh.cell_r**3
        ug = np.ones(mesh.n_theta)
        a = np.ones(mesh.n_cells)
        errs.append(np.abs(conormal_flux(mesh, a, u, ug) - 3.0).max())
    order = np.log2(errs[0] / errs[-1]) / 2
    assert 0.9 <= order <= 1.5


def test_conormal_flux_linear_field():
    # d_nu x1 = nu_1 = cos(theta); x1 is linear along each ray, so the
    # one-sided difference over dr/2 is exact (within O(dr) as specified)
    for n in (16, 32):
        mesh = build_polar_mesh(n, 2 * n, 1.0)
        y = mesh.cell_xy[:, 0]
        yg = np.cos(mesh.surface_theta)
        flux = conormal_flux(mesh, np.ones(mesh.n_cells), y, yg)
        assert np.abs(flux - np.cos(mesh.surface_theta)).max() < 1e-12


def test_green_identity_constant_fields(mesh16):
    op = assemble_bulk_diffusion(mesh16, ones_a(mesh16))
    u = np.ones(mesh16.n_cells)
    ug = np.ones(mesh16.n_theta)
    assert green_identity_residual(mesh16, op, u, u, ug, ug) < 1e-12


def test_green_identity_random_fields(mesh16):
    rng = np.random.default_rng(3)
    a = 1.0 + rng.random(mesh16.n_cells)
    op = assemble_bulk_diffusion(mesh16, a)
    scale = 0.0
    for _ in range(5):
        u = rng.standard_normal(mesh16.n_cells)
        v = rng.standard_normal(mesh16.n_cells)
        ug = rng.standard_normal(mesh16.n_theta)
        vg = rng.standard_normal(mesh16.n_theta)
        pair = abs(op.energy_pairing(u, v, ug, vg))
        scale = max(scale, pair, 1.0)
        assert green_identity_residual(mesh16, op, u, v, ug, vg) <= 1e-10 * scale


def test_surface_green_identity_exact(mesh16):
    rng = np.random.default_rng(4)
    d = 1.0 + rng.random(mesh16.n_theta)
    op = assemble_surface_diffusion(mesh16, d)
    u = rng.standard_normal(mesh16.n_theta)
    v = rng.standard_normal(mesh16.n_theta)
    assert green_identity_residual(mesh16, op, u, v) < 1e-12


def test_surface_divergence_formula_telescopes(mesh16):
    rng = np.random.default_rng(5)
    X = rng.standard_normal(mesh16.n_theta)
    z = rng.standard_normal(mesh16.n_theta)
    assert surface_divergence_residual(mesh16, X, z) < 1e-12


def test_conormal_identity_unit_matrix():
    res = conormal_identity_residual(np.eye(2), np.array([1.0, 0.0]),
                                    np.array([3.0, 4.0]))
    assert res < 1e-14


def test_conormal_identity_parallel_gradient():
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    nu = np.array([0.6, 0.8])
    res = conormal_identity_residual(A, nu, 2.5 * nu)
    assert res < 1e-12


def test_conormal_identity_random_spd():
    # oracle: direct evaluation with eigendecomposition square root
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        B = rng.standard_normal((2, 2))
        A = B @ B.T + 0.1 * np.eye(2)
        ang = rng.uniform(0, 2 * np.pi)
        nu = np.array([np.cos(ang), np.sin(ang)])
        g = rng.standard_normal(2) * rng.uniform(0.1, 10)
        scale = max(1.0, np.linalg.norm(A) ** 2 * np.dot(g, g))
        worst = max(worst, conormal_identity_residual(A, nu, g) / scale)
    assert worst <= 1e-12


def test_conormal_identity_rejects_indefinite():
    with pytest.raises(ValueError, match="positive definite"):
        conormal_identity_residual(np.array([[1.0, 0.0], [0.0, -1.0]]),
                                  np.array([1.0, 0.0]), np.array([1.0, 1.0]))

