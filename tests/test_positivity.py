import numpy as np
import pytest

from bulksurf.forward import ReactionSet, SemilinearSystem, Trajectory
from bulksurf.geometry import build_polar_mesh
from bulksurf.model import DiffusionSpec, InitialData
from bulksurf.positivity import (
    check_qp,
    negative_part_energy,
    negative_part_energy_monotone,
    positivity_experiment,
)


@pytest.fixture(scope="module")
def mesh():
    return build_polar_mesh(8, 16, 1.0)


@pytest.fixture(scope="module")
def diffusion(mesh):
    return DiffusionSpec.from_values(mesh)


def test_qp_linear_exchange_passes():
    reactions = ReactionSet(f1=lambda y, z: z, f2=lambda y, z: y)
    assert check_qp(reactions, np.linspace(0, 3, 31)) is None


def test_qp_negative_offset_fails():
    reactions = ReactionSet(f1=lambda y, z: z - 1.0)
    fid, pt, val = check_qp(reactions, np.linspace(0, 3, 31))
    assert fid == "f1" and pt == 0.0 and val == -1.0


def test_qp_vanishing_at_zero_passes():
    reactions = ReactionSet(f1=lambda y, z: y * z - y**2)
    assert check_qp(reactions, np.linspace(0, 3, 31)) is None


def test_pure_diffusion_preserves_nonnegativity(mesh, diffusion):
    rng = np.random.default_rng(0)
    init = InitialData.from_values(mesh, y0=rng.random(mesh.n_cells),
                                   z0=rng.random(mesh.n_cells))
    out = positivity_experiment(mesh, diffusion, init, ReactionSet(),
                                t_end=0.3, dt=0.01)
    assert out["min_value"] >= -1e-12
    assert out["matrix_check"]["offdiag_nonpositive"]


def test_negative_init_refused(mesh, diffusion):
    y0 = np.ones(mesh.n_cells)
    y0[3] = -0.1
    init = InitialData.from_values(mesh, y0=y0)
    with pytest.raises(ValueError, match="negative component"):
        positivity_experiment(mesh, diffusion, init, ReactionSet(),
                              t_end=0.1, dt=0.01)


def test_qp_failing_reactions_refused(mesh, diffusion):
    init = InitialData.from_values(mesh, y0=1.0, z0=1.0)
    bad = ReactionSet(f1=lambda y, z: z - 1.0, lipschitz_bound=1.0)
    with pytest.raises(ValueError, match="quasi-positivity"):
        positivity_experiment(mesh, diffusion, init, bad, t_end=0.1, dt=0.01)


def test_linear_exchange_stays_nonnegative(mesh, diffusion):
    rng = np.random.default_rng(1)
    init = InitialData.from_values(mesh, y0=rng.random(mesh.n_cells),
                                   z0=rng.random(mesh.n_cells))
    reactions = ReactionSet(f1=lambda y, z: z, f2=lambda y, z: y,
                            lipschitz_bound=1.0)
    out = positivity_experiment(mesh, diffusion, init, reactions,
                                t_end=0.3, dt=0.01)
    assert out["min_value"] >= -1e-10
    energy = negative_part_energy(out["trajectory"], mesh)
    assert np.max(energy["E_y"]) == 0.0
    assert np.max(energy["E_z"]) == 0.0


def test_randomized_qp_suite(mesh, diffusion):
    # 20 random draws of (init, QP reactions): min stays above -1e-10 * scale
    rng = np.random.default_rng(42)
    for _ in range(20):
        c = rng.uniform(0.0, 0.5, size=6)
        reactions = ReactionSet(
            f1=lambda y, z, c=c: c[0] * z - c[1] * y,
            f2=lambda y, z, c=c: c[2] * y - c[3] * z,
            g1=lambda yg, zg, c=c: c[4] * zg,
            g2=lambda yg, zg, c=c: c[5] * yg,
            lipschitz_bound=1.0,
        )
        init = InitialData.from_values(
            mesh,
            y0=rng.random(mesh.n_cells),
            z0=rng.random(mesh.n_cells),
            y0_gamma=rng.random(mesh.n_theta),
            z0_gamma=rng.random(mesh.n_theta),
        )
        out = positivity_experiment(mesh, diffusion, init, reactions,
                                    t_end=0.2, dt=0.01)
        scale = max(abs(out["trajectory"].y).max(), 1.0)
        assert out["min_value"] >= -1e-10 * scale
        # negative-part energy consistent with a nonnegative minimum
        energy = negative_part_energy(out["trajectory"], mesh)
        assert np.max(energy["E_y"]) == 0.0


def test_negative_energy_monotone_diffusion(mesh, diffusion):
    # sign-mixed data under pure diffusion: E- must be nonincreasing
    rng = np.random.default_rng(7)
    system = SemilinearSystem(mesh, diffusion)
    init = InitialData.from_values(mesh, y0=rng.standard_normal(mesh.n_cells),
                                   z0=rng.standard_normal(mesh.n_cells))
    traj = system.solve(init, t_end=0.3, dt=0.01)
    rep = negative_part_energy_monotone(traj, mesh)
    assert rep["passed"]
    assert rep["E_y"][0] > 0  # the check is not vacuous


def test_nonnegative_trajectory_has_zero_energy(mesh, diffusion):
    system = SemilinearSystem(mesh, diffusion)
    init = InitialData.from_values(mesh, y0=1.0, z0=0.5)
    traj = system.solve(init, t_end=0.1, dt=0.01)
    rep = negative_part_energy_monotone(traj, mesh)
    assert rep["passed"]
    assert np.max(rep["E_y"]) == 0.0


def test_injected_energy_growth_is_flagged(mesh):
    # manufactured control: a trajectory whose negative part grows
    times = np.arange(0.0, 0.11, 0.01)
    n = len(times)
    y = np.zeros((n, mesh.n_cells))
    y[:, 0] = -times  # increasingly negative cell
    zeros_b = np.zeros((n, mesh.n_cells))
    zeros_s = np.zeros((n, mesh.n_theta))
    traj = Trajectory(times=times, y=y, z=zeros_b, y_gamma=zeros_s,
                      z_gamma=zeros_s, dt=0.01)
    rep = negative_part_energy_monotone(traj, mesh)
    assert not rep["passed"]
    assert not rep["E_y_monotone"]
