import ast
import pathlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._base import _spbase
from scipy.sparse._index import IndexMixin

import bulksurf.forward
from bulksurf.config import load_config
from bulksurf.forward import (
    FourierBandLU,
    PermutedLU,
    ReactionSet,
    SemilinearSystem,
    SolverError,
    Trajectory,
    block_spans,
    mass_series,
    mms_convergence,
    observe,
    row_sums,
    window_nodes,
    window_rows,
    window_times,
)
from bulksurf.geometry import build_polar_mesh, build_regions
from bulksurf.model import (
    DiffusionSpec,
    InitialData,
    PotentialSet,
    make_power_nonlinearity,
)
from bulksurf.operators import assemble_bulk_diffusion, assemble_surface_diffusion


@pytest.fixture(scope="module")
def mesh():
    return build_polar_mesh(8, 16, 1.0)


@pytest.fixture(scope="module")
def diffusion(mesh):
    return DiffusionSpec.from_values(mesh)


def test_constants_are_steady(mesh, diffusion):
    system = SemilinearSystem(mesh, diffusion)
    init = InitialData.from_values(mesh, y0=2.0, z0=-1.0)
    traj = system.solve(init, t_end=0.1, dt=0.02)
    assert np.abs(traj.y - 2.0).max() < 1e-11
    assert np.abs(traj.z_gamma + 1.0).max() < 1e-11


def test_zero_time_returns_single_state(mesh, diffusion):
    system = SemilinearSystem(mesh, diffusion)
    init = InitialData.from_values(mesh, y0=1.0, z0=0.5)
    traj = system.solve(init, t_end=0.0, dt=0.01)
    assert traj.n_nodes == 1
    np.testing.assert_array_equal(traj.y[0], init.y0)


def test_zero_data_stays_zero(mesh, diffusion):
    system = SemilinearSystem(mesh, diffusion)
    init = InitialData.from_values(mesh)
    traj = system.solve(init, t_end=0.1, dt=0.01)
    assert np.abs(traj.y).max() == 0.0
    assert np.abs(traj.z).max() == 0.0


def test_diffusion_decays_l2(mesh, diffusion):
    # decoupled scalar heat flow dissipates the discrete L2 energy
    system = SemilinearSystem(mesh, diffusion)
    rng = np.random.default_rng(0)
    y0 = rng.standard_normal(mesh.n_cells)
    init = InitialData.from_values(mesh, y0=y0)
    traj = system.solve(init, t_end=0.2, dt=0.01)
    norms = [mesh.bulk_l2(traj.y[k]) ** 2 + mesh.surface_l2(traj.y_gamma[k]) ** 2
             for k in range(traj.n_nodes)]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < norms[0]


def test_mass_conservation_per_step(mesh, diffusion):
    system = SemilinearSystem(mesh, diffusion)
    rng = np.random.default_rng(1)
    init = InitialData.from_values(mesh, y0=1 + rng.random(mesh.n_cells))
    traj = system.solve(init, t_end=0.2, dt=0.01)
    m = mass_series(traj, mesh)
    drift = np.abs(np.diff(m)) / abs(m[0])
    assert drift.max() <= 1e-10


def test_step_determinism(mesh, diffusion):
    pot = PotentialSet.from_values(mesh, p11=0.2, p12=0.1, p21=0.3, p13=0.5,
                                   q21=0.2)
    nl = make_power_nonlinearity(1, 1, (4.0, 4.0))
    init = InitialData.from_values(mesh, y0=1.0, z0=0.5)
    runs = []
    for _ in range(2):
        system = SemilinearSystem(mesh, diffusion, pot, nl_f=nl, nl_g=nl)
        runs.append(system.solve(init, t_end=0.1, dt=0.01))
    np.testing.assert_array_equal(runs[0].z, runs[1].z)


def test_dt_stability_guard(mesh, diffusion):
    nl = make_power_nonlinearity(1, 1, (4.0, 4.0))  # Lipschitz bound 8
    pot = PotentialSet.from_values(mesh, p13=1.0)
    system = SemilinearSystem(mesh, diffusion, pot, nl_f=nl, nl_g=nl)
    init = InitialData.from_values(mesh, y0=1.0, z0=1.0)
    with pytest.raises(ValueError, match="stability"):
        system.solve(init, t_end=1.0, dt=0.2)


def test_reaction_bound_enters_the_cached_guard(mesh, diffusion):
    # the bound from the potentials is fixed per system; the reactions'
    # bound still joins it on every step, and a derived system has its own
    system = SemilinearSystem(mesh, diffusion)
    init = InitialData.from_values(mesh, y0=1.0, z0=1.0)
    system.solve(init, t_end=0.05, dt=0.01)
    with pytest.raises(ValueError, match="stability"):
        system.solve(init, t_end=0.05, dt=0.01,
                     reactions=ReactionSet(lipschitz_bound=100.0))
    hot = system.with_potentials(
        PotentialSet.from_values(mesh, R_bound=100.0, p11=60.0))
    with pytest.raises(ValueError, match="stability"):
        hot.solve(init, t_end=0.05, dt=0.01)
    system.solve(init, t_end=0.05, dt=0.01)


def test_with_potentials_matches_fresh_system(mesh, diffusion):
    nl = make_power_nonlinearity(1, 1, (4.0, 4.0))
    base_pot = PotentialSet.from_values(mesh, p11=0.3, q13=0.2)
    base = SemilinearSystem(mesh, diffusion, base_pot, nl_f=nl, nl_g=nl)
    dt = 0.01
    base_S = base.implicit_matrix(dt).toarray()
    base_lu = base.factorization(dt)
    pot = PotentialSet.from_values(
        mesh, p11=-0.2, p12=0.1, p13=0.5, p21=0.3 + 0.1 * mesh.cell_r,
        p22=-0.1, q11=0.1, q12=0.05, q13=0.3,
        q21=0.2 + 0.1 * np.cos(mesh.surface_theta), q22=-0.05)
    derived = base.with_potentials(pot)
    fresh = SemilinearSystem(mesh, diffusion, pot, nl_f=nl, nl_g=nl)
    np.testing.assert_array_equal(derived.implicit_matrix(dt).toarray(),
                                  fresh.implicit_matrix(dt).toarray())
    assert derived.lipschitz == fresh.lipschitz
    init = InitialData.from_values(mesh, y0=1.0 + 0.2 * mesh.cell_r, z0=0.5)
    a = derived.solve(init, t_end=0.1, dt=dt)
    b = fresh.solve(init, t_end=0.1, dt=dt)
    for name in ("y", "z", "y_gamma", "z_gamma"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    # the base system keeps its own matrix and factorization
    assert base.potentials is base_pot
    np.testing.assert_array_equal(base.implicit_matrix(dt).toarray(), base_S)
    assert base.factorization(dt) is base_lu
    assert derived.factorization(dt) is not base_lu
    # the factor order is one array per mesh
    assert derived._perm is base._perm


def test_a_system_stores_the_pattern_once(mesh, diffusion):
    # K is kept in factor order only: no array of K.nnz entries sits beside
    # its own data and indices, in a system or in a with_potentials copy
    base = SemilinearSystem(mesh, diffusion)
    derived = base.with_potentials(
        PotentialSet.from_values(mesh, p12=0.1, p21=0.3 + 0.1 * mesh.cell_r))
    K = base._K_diffusion
    for system in (base, derived):
        system.factorization(0.01)
        assert system._K_diffusion is K
        sized = [name for name, value in vars(system).items()
                 if isinstance(value, np.ndarray) and value.size == K.nnz]
        assert sized == []


def _sparse_formula(system, dt):
    """The reference implicit matrix diag(mass/dt) - (K + P) in scipy
    sparse arithmetic, with K the diffusion and trace coupling blocks and
    P the potential diagonals."""
    mesh, diffusion, pot = system.mesh, system.diffusion, system.potentials
    nb, ns = mesh.n_cells, mesh.n_theta
    bulk1 = assemble_bulk_diffusion(mesh, diffusion.a1)
    bulk2 = assemble_bulk_diffusion(mesh, diffusion.a2)
    surf1 = assemble_surface_diffusion(mesh, diffusion.d1)
    surf2 = assemble_surface_diffusion(mesh, diffusion.d2)
    j = np.arange(ns)
    trace1 = sp.coo_matrix((bulk1.bnd_t, (j, mesh.trace_map)), shape=(ns, nb))
    trace2 = sp.coo_matrix((bulk2.bnd_t, (j, mesh.trace_map)), shape=(ns, nb))
    K = sp.bmat([[bulk1.matrix, None, bulk1.boundary, None],
                 [None, bulk2.matrix, None, bulk2.boundary],
                 [trace1, None, surf1.matrix - sp.diags(bulk1.bnd_t), None],
                 [None, trace2, None, surf2.matrix - sp.diags(bulk2.bnd_t)]],
                format="csc")
    areas, ds = mesh.cell_areas, mesh.surface_weights
    P = sp.bmat([[sp.diags(areas * pot.p11), sp.diags(areas * pot.p12), None, None],
                 [sp.diags(areas * pot.p21), sp.diags(areas * pot.p22), None, None],
                 [None, None, sp.diags(ds * pot.q11), sp.diags(ds * pot.q12)],
                 [None, None, sp.diags(ds * pot.q21), sp.diags(ds * pot.q22)]],
                format="csc")
    return (sp.diags(system.mass / dt) - (K + P)).tocsc()


@pytest.mark.parametrize("case", ["varying", "zero", "p12_q12_zero"])
def test_implicit_matrix_matches_the_sparse_formula(mesh, case):
    # the stored pattern filled in place gives the same values and the
    # same stored entries, zero coupling diagonals left out
    diffusion = DiffusionSpec.from_values(mesh, a1=1.0 + 0.3 * mesh.cell_r,
                                          d2=1.5 + 0.2 * np.sin(mesh.surface_theta))
    names = ("p11", "p12", "p13", "p21", "p22", "q11", "q12", "q13", "q21", "q22")
    pot = {
        "varying": PotentialSet.from_values(
            mesh, p11=-0.2, p12=0.1 * mesh.cell_r, p21=0.3 + 0.1 * mesh.cell_r,
            p22=-0.1, q11=0.1, q12=0.05 * np.cos(mesh.surface_theta),
            q21=0.2 + 0.1 * np.cos(mesh.surface_theta), q22=-0.05),
        "zero": PotentialSet.from_values(mesh, p0=0.0, **dict.fromkeys(names, 0)),
        "p12_q12_zero": PotentialSet.from_values(mesh, p11=0.2, p12=0.0,
                                                 p21=1.0, q12=0.0, q21=1.0),
    }[case]
    system = SemilinearSystem(mesh, diffusion).with_potentials(pot)
    for dt in (0.01, 0.01 / 64):
        got, want = system.implicit_matrix(dt), _sparse_formula(system, dt)
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))
    # the zero diagonals are the only difference between the patterns
    n_zero = {"varying": 0, "zero": 2, "p12_q12_zero": 1}[case]
    assert got.nnz == system._K_diffusion.nnz - n_zero * (mesh.n_cells + mesh.n_theta)


def test_new_potentials_reuse_the_stored_pattern(mesh, diffusion, monkeypatch):
    # a coefficient set costs no assembly and no sparse + or -, and a
    # factorization no sparse indexing: the factor order's pattern and
    # its gather index are computed once per mesh
    calls = []

    def spy(name, real):
        return lambda *a, **k: calls.append(name) or real(*a, **k)

    for name in ("assemble_bulk_diffusion", "assemble_surface_diffusion"):
        monkeypatch.setattr(bulksurf.forward, name,
                            spy(name, getattr(bulksurf.forward, name)))
    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(_spbase, name, spy(name, getattr(_spbase, name)))
    monkeypatch.setattr(IndexMixin, "__getitem__",
                        spy("__getitem__", IndexMixin.__getitem__))
    base = SemilinearSystem(mesh, diffusion)
    assert calls.count("assemble_bulk_diffusion") == 2
    calls.clear()
    pot = PotentialSet.from_values(mesh, p12=0.1, p21=0.3 + 0.1 * mesh.cell_r)
    derived = base.with_potentials(pot)
    derived.implicit_matrix(0.01)
    derived.factorization(0.02)
    assert calls == []
    # the spies do see sparse +, - and indexing where they run
    _sparse_formula(derived, 0.01)[derived._perm]
    assert {"__add__", "__sub__", "__getitem__"} <= set(calls)


@pytest.mark.parametrize("trans", ["N", "T"])
@pytest.mark.parametrize("k", [None, 3])
def test_factor_solves_the_natural_system(mesh, diffusion, trans, k):
    # the factors hold P S P^T; solve gathers into their order and back,
    # so it solves S (S^T for "T") in the packed order
    pot = PotentialSet.from_values(mesh, p11=-0.2, p12=0.1, p21=0.3 + 0.1 * mesh.cell_r,
                                   q12=0.05, q21=0.2 + 0.1 * np.cos(mesh.surface_theta))
    system = SemilinearSystem(mesh, diffusion, pot)
    dt = 0.01
    S = system.implicit_matrix(dt)
    if trans == "T":
        S = S.T
    shape = (system.n_dof,) if k is None else (system.n_dof, k)
    b = np.random.default_rng(5).standard_normal(shape)
    lu = system.factorization(dt)
    x = lu.solve(b, trans=trans)
    assert x.shape == b.shape
    assert np.linalg.norm(S @ x - b) <= 1e-12 * np.linalg.norm(b)
    # each block column is its own one-column solve, bit for bit; the block
    # comes as the transpose of a (k, n_dof) array, as step_imex passes it
    if k is not None:
        block = lu.solve(np.ascontiguousarray(b.T).T, trans=trans)
        for j in range(k):
            np.testing.assert_array_equal(block[:, j], lu.solve(b[:, j], trans=trans))


def test_factor_fill_at_32x64():
    # L.nnz + U.nnz of the default config's implicit matrix at 32x64,
    # where the factor order matters more than at 16x32; a p12 that varies
    # along theta keeps it on the SuperLU path, with the default's fill
    cfg = load_config(None, {"mesh": {"n_r": 32, "n_theta": 64},
                             "potentials": {"p12": "0.1 + 0.05*x1"}})
    system = SemilinearSystem(cfg.mesh, cfg.diffusion, cfg.potentials,
                              nl_f=cfg.nl_f, nl_g=cfg.nl_g)
    assert system.factorization(cfg.dt).nnz == 255_086


@pytest.mark.parametrize("shape", [(4, 8), (16, 32), (11, 26)],
                         ids=["4x8", "16x32", "11x26"])
def test_fourier_solve_matches_superlu(shape):
    # diffusivities and potentials that vary from ring to ring but not
    # along theta: the Fourier solve of S equals SuperLU's of the same S
    # to round-off, for a vector, a 20-column block and their transposes
    mesh = build_polar_mesh(*shape, 1.0)
    r = mesh.cell_r
    diffusion = DiffusionSpec.from_values(mesh, a1=1.0 + 0.3 * r, d2=1.5)
    pot = PotentialSet.from_values(mesh, p11=-0.2, p12=0.1 * r,
                                   p21=0.3 + 0.1 * r, p22=-0.1, q11=0.1,
                                   q12=0.05, q21=0.2, q22=-0.05)
    system = SemilinearSystem(mesh, diffusion, pot)
    dt = 0.01
    lu = system.factorization(dt)
    assert isinstance(lu, FourierBandLU)
    superlu = system._permuted_lu(dt)
    rng = np.random.default_rng(4)
    # the block comes as the transpose of a (20, n_dof) array, as
    # step_imex passes it
    for b in (rng.standard_normal(system.n_dof),
              rng.standard_normal((20, system.n_dof)).T):
        for trans in ("N", "T"):
            want, got = superlu.solve(b, trans), lu.solve(b, trans)
            assert got.shape == b.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("varying", [
    {"potentials": {"p12": "0.1 + 0.05*x1"}},
    {"potentials": {"q21": "1 + 0.1*sin(theta)"}},
    {"diffusion": {"a2": "1 + 0.1*x2"}},
    {"diffusion": {"d1": "1 + 0.2*cos(theta)"}},
], ids=["p12", "q21", "a2", "d1"])
def test_a_theta_varying_config_builds_no_fourier_factor(varying, monkeypatch):
    calls = []
    monkeypatch.setattr(bulksurf.forward.lapack, "dgbtrf",
                        lambda *a, **k: calls.append(1))
    cfg = load_config(None, {"mesh": {"n_r": 8, "n_theta": 16}, **varying})
    system = SemilinearSystem(cfg.mesh, cfg.diffusion, cfg.potentials,
                              nl_f=cfg.nl_f, nl_g=cfg.nl_g)
    assert isinstance(system.factorization(cfg.dt), PermutedLU)
    assert calls == []


def test_a_failing_band_factorization_raises_solver_error(mesh, diffusion,
                                                         monkeypatch):
    # dgbtrf reports an exactly zero pivot with info > 0
    monkeypatch.setattr(bulksurf.forward.lapack, "dgbtrf",
                        lambda ab, kl, ku, **k: (ab, np.zeros(ab.shape[1], np.int32), 40))
    with pytest.raises(SolverError, match=r"dgbtrf info 40 \(mode 2\)"):
        SemilinearSystem(mesh, diffusion).factorization(0.01)


def test_solve_matches_dense_reference():
    # oracle: dense solves of S x^{n+1} = M (x^n / dt + E(t_n, x^n)), with
    # the explicit part E written out by hand
    mesh = build_polar_mesh(4, 8, 1.0)
    nb, ns = mesh.n_cells, mesh.n_theta
    diffusion = DiffusionSpec.from_values(mesh, a1=1.0 + 0.3 * mesh.cell_r,
                                          d2=2.0)
    pot = PotentialSet.from_values(
        mesh, p11=-0.3, p12=0.2, p13=0.5, p21=0.4, p22=-0.1,
        q11=0.1, q12=-0.2, q13=0.3, q21=0.25, q22=-0.15)
    nl_f = make_power_nonlinearity(1, 1, (2.0, 2.0))
    nl_g = make_power_nonlinearity(2, 0, (2.0, 2.0))
    system = SemilinearSystem(mesh, diffusion, pot, nl_f=nl_f, nl_g=nl_g)

    def f1(y, z):
        return 0.1 * z

    def f2(y, z):
        return 0.2 * y - 0.05 * z

    def g1(yg, zg):
        return 0.3 * zg * zg

    def g2(yg, zg):
        return 0.1 * yg

    reactions = ReactionSet(f1=f1, f2=f2, g1=g1, g2=g2, lipschitz_bound=1.0)
    src_f2 = 0.1 * mesh.cell_xy[:, 0]
    sources = {"f1": lambda t: np.cos(3 * t) * mesh.cell_r, "f2": src_f2,
               "g1": lambda t: t * np.sin(mesh.surface_theta)}
    rng = np.random.default_rng(12)
    init = InitialData.from_values(
        mesh, y0=rng.standard_normal(nb), z0=rng.standard_normal(nb),
        y0_gamma=rng.standard_normal(ns), z0_gamma=rng.standard_normal(ns))
    dt = 0.01
    traj = system.solve(init, t_end=10 * dt, dt=dt, sources=sources,
                        reactions=reactions)
    assert traj.n_nodes == 11

    S = system.implicit_matrix(dt).toarray()
    x = np.concatenate([init.y0, init.z0, init.y0_gamma, init.z0_gamma])
    for k in range(10):
        t = k * dt
        y, z = x[:nb], x[nb:2 * nb]
        yg, zg = x[2 * nb:2 * nb + ns], x[2 * nb + ns:]
        yp, zp, ygp, zgp = (np.maximum(v, 0.0) for v in (y, z, yg, zg))
        E = np.concatenate([
            pot.p13 * y * z + f1(yp, zp) + np.cos(3 * t) * mesh.cell_r,
            f2(yp, zp) + src_f2,
            pot.q13 * yg**2 + g1(ygp, zgp) + t * np.sin(mesh.surface_theta),
            g2(ygp, zgp)])
        x = np.linalg.solve(S, system.mass * (x / dt + E))
        got = np.concatenate([traj.y[k + 1], traj.z[k + 1],
                              traj.y_gamma[k + 1], traj.z_gamma[k + 1]])
        assert np.linalg.norm(got - x) <= 1e-12 * np.linalg.norm(x)


def test_linear_response_to_initial_perturbation(mesh, diffusion):
    nl = make_power_nonlinearity(1, 1, (4.0, 4.0))
    pot = PotentialSet.from_values(mesh, p13=0.5, p21=0.3, q21=0.3)
    system = SemilinearSystem(mesh, diffusion, pot, nl_f=nl, nl_g=nl)
    base = InitialData.from_values(mesh, y0=1.0, z0=1.0)
    phi = np.sin(mesh.cell_theta) * mesh.cell_r
    eps = 1e-6
    out = {}
    for fac in (0.0, 1.0, 2.0):
        init = InitialData.from_values(mesh, y0=1.0 + fac * eps * phi, z0=1.0)
        out[fac] = system.solve(init, t_end=0.1, dt=0.01)
    d1 = out[1.0].z[-1] - out[0.0].z[-1]
    d2 = out[2.0].z[-1] - out[0.0].z[-1]
    assert np.linalg.norm(d2 - 2 * d1) <= 0.01 * np.linalg.norm(2 * d1)


def test_restart_matches_continuous_run(mesh, diffusion):
    system = SemilinearSystem(mesh, diffusion)
    rng = np.random.default_rng(3)
    init = InitialData.from_values(mesh, y0=1 + rng.random(mesh.n_cells),
                                   z0=rng.random(mesh.n_cells))
    full = system.solve(init, t_end=0.2, dt=0.01)
    half = system.solve(init, t_end=0.1, dt=0.01)
    rest = system.solve(half.state(-1), t_end=0.2, dt=0.01, t_start=0.1)
    np.testing.assert_allclose(rest.times, full.times[10:], rtol=1e-14)
    np.testing.assert_allclose(rest.z[-1], full.z[-1], atol=1e-14)


@pytest.mark.parametrize("name, bad, message", [
    ("y0", lambda v: np.append(v, 1.0), "has shape"),
    ("z0_gamma", lambda v: v[:, None], "has shape"),
    ("z0", lambda v: np.where(np.arange(v.size) == 3, np.nan, v),
     "contains non-finite"),
    ("y0_gamma", lambda v: np.full_like(v, np.inf), "contains non-finite"),
])
def test_solve_refuses_a_bad_initial_state(mesh, diffusion, name, bad, message):
    init = InitialData.from_values(mesh, y0=1.0)
    init = replace(init, **{name: bad(getattr(init, name))})
    with pytest.raises(ValueError, match=f"{name} {message}"):
        SemilinearSystem(mesh, diffusion).solve(init, t_end=0.05, dt=0.01)


def _ramp_trajectory(mesh, t_end=1.0, dt=0.05):
    times = np.arange(0.0, t_end + dt / 2, dt)
    n = len(times)
    z = np.tile(times[:, None], (1, mesh.n_cells))
    zeros_b = np.zeros((n, mesh.n_cells))
    zeros_s = np.zeros((n, mesh.n_theta))
    return Trajectory(times=times, y=zeros_b, z=z, y_gamma=zeros_s,
                      z_gamma=np.tile(times[:, None], (1, mesh.n_theta)), dt=dt)


def test_observe_stationary_is_zero(mesh, diffusion):
    system = SemilinearSystem(mesh, diffusion)
    init = InitialData.from_values(mesh, y0=1.0, z0=2.0)
    traj = system.solve(init, t_end=1.0, dt=0.05)
    regions = build_regions(mesh, 0.2, 0.3, 0.45, 0.2, 0.8)
    rec = observe([traj], regions, mesh)
    assert rec.norm() < 1e-11


def test_observe_linear_ramp(mesh):
    regions = build_regions(mesh, 0.2, 0.3, 0.45, 0.2, 0.8)
    traj = _ramp_trajectory(mesh)
    rec = observe([traj], regions, mesh)
    np.testing.assert_allclose(rec.values, 1.0, rtol=1e-12)
    area = mesh.cell_areas[regions.omega].sum()
    # stencil-interior nodes only: quadrature covers (t0, t1) up to O(dt)
    assert abs(rec.norm() ** 2 - area * (0.8 - 0.2)) <= area * 4 * traj.dt


def test_observe_locality(mesh):
    regions = build_regions(mesh, 0.2, 0.3, 0.45, 0.2, 0.8)
    t1 = _ramp_trajectory(mesh)
    t2 = _ramp_trajectory(mesh)
    # corrupt outside omega and outside the window: record must not change
    outside = np.setdiff1d(np.arange(mesh.n_cells), regions.omega)
    t2.z[:, outside] += 7.0
    before = t2.times <= 0.2 + 1e-12
    t2.z[before] -= 3.0
    after = t2.times >= 0.8 - 1e-12
    t2.z[after] += 11.0
    r1 = observe([t1], regions, mesh)
    r2 = observe([t2], regions, mesh)
    np.testing.assert_array_equal(r1.values, r2.values)


def test_observe_matches_the_centered_difference_per_node(mesh):
    regions = build_regions(mesh, 0.2, 0.3, 0.45, 0.2, 0.8)
    traj = _ramp_trajectory(mesh)
    traj.z[:] = np.random.default_rng(3).standard_normal(traj.z.shape)
    omega = regions.omega
    for t0, t1 in ((0.2, 0.8), (0.33, 0.61)):
        rec = observe([traj], regions, mesh, t0=t0, t1=t1)
        want = [(traj.z[k + 1, omega] - traj.z[k - 1, omega]) / (2 * traj.dt)
                for k in rec.time_indices]
        np.testing.assert_array_equal(rec.values, want)


@pytest.mark.parametrize("shape", [(16, 32), (11, 26)], ids=["16x32", "11x26"])
def test_record_transpose_is_the_adjoint_of_the_stencil(shape):
    # for random z and R, the record of z against R sums to z on omega
    # against the record's transpose of R: the adjoint's load
    mesh = build_polar_mesh(*shape, 1.0)
    regions = build_regions(mesh, 0.25, 0.4, 0.6, 0.2, 0.8)
    traj = _ramp_trajectory(mesh, dt=0.01)
    rng = np.random.default_rng(6)
    for _ in range(3):
        traj.z[:] = rng.standard_normal(traj.z.shape)
        rec = observe([traj], regions, mesh)
        table = rng.standard_normal(rec.values.shape)
        loads = rec.transpose(table, traj.n_nodes)
        assert loads.shape == (traj.n_nodes, regions.omega.size)
        assert np.sum(traj.z[:, rec.cell_indices] * loads) == pytest.approx(
            np.sum(rec.values * table), rel=1e-12, abs=0)


def _cut(traj, size):
    """``traj`` in blocks of ``size`` new states, each after the first led by
    the two states before it, as a march would yield them."""
    return [traj.rows(max(n - 2, 0), n + size)
            for n in range(0, traj.n_nodes, size)]


@pytest.mark.parametrize("t0, shape", [
    pytest.param(0.2, (32, 64), id="0.2"),
    pytest.param(0.333, (32, 64), id="0.333"),
    pytest.param(0.2, (11, 26), id="0.2-11x26"),
    pytest.param(0.333, (11, 26), id="0.333-11x26")])
def test_window_norm_has_the_bits_of_the_record_norm(t0, shape):
    # each node's sum depends only on its own row, so the norm has the bits
    # of the record's whatever the blocks: windows of 1 to 60 nodes, fed
    # whole, as a march cuts them, and in blocks of 5 and 7 new states; on
    # 11 x 26, neither n_theta nor |omega| (130 cells) is a multiple of 4
    from bulksurf.forward import WindowNorm
    mesh = build_polar_mesh(*shape, 1.0)
    traj = _ramp_trajectory(mesh, dt=0.01)
    traj.z[:] = np.random.default_rng(4).standard_normal(traj.z.shape)
    for n in range(60):
        regions = build_regions(mesh, 0.2, 0.3, 0.45, t0, t0 + 0.035 + 0.01 * n)
        want = observe([traj], regions, mesh).norm()
        for blocks in ([traj], list(traj.blocks()), _cut(traj, 5),
                       _cut(traj, 7)):
            window_norm = WindowNorm(regions, mesh)
            for block in blocks:
                window_norm.add(block)
            assert window_norm.norm() == want, n
            assert window_norm.values == []


@pytest.mark.parametrize("width", [1, 3, 5, 37, 129])
def test_row_sums_give_each_row_the_bits_of_its_own_sum(width):
    rng = np.random.default_rng(width)
    rows = rng.standard_normal((40, width))
    weights = rng.random(width)
    want = [row_sums(row, weights) for row in rows]
    # one float past an aligned start
    misaligned = np.empty(rows.size + 1)[1:].reshape(rows.shape)
    misaligned[:] = rows
    for table in (rows, np.asfortranarray(rows), misaligned):
        for size in (1, 3, 4, 7, 16, 40):
            got = np.concatenate([row_sums(table[i:i + size], weights)
                                  for i in range(0, len(table), size)])
            assert got.tolist() == want, size
    # a positivity-shaped block (nodes, draws, cells): each draw's rows
    # keep the bits of the one-draw sums, the draw axis last
    block = rng.standard_normal((18, 5, width))
    sums = row_sums(block, weights)
    for j in range(block.shape[1]):
        assert sums[:, j].tolist() == row_sums(
            np.ascontiguousarray(block[:, j]), weights).tolist()
        assert sums[:, j].tolist() == row_sums(block[:, j], weights).tolist()


def test_reactions_enter_all_four_equations(mesh, diffusion):
    system = SemilinearSystem(mesh, diffusion)
    init = InitialData.from_values(mesh, y0=1.0, z0=1.0)
    reactions = ReactionSet(f1=lambda y, z: 0 * y + 1.0,
                            g2=lambda yg, zg: 0 * yg + 2.0,
                            lipschitz_bound=0.0)
    traj = system.solve(init, t_end=0.1, dt=0.01, reactions=reactions)
    # mass balance: the y pair gains area(Omega)*1 per unit time, the z pair
    # gains |Gamma|*2 per unit time, regardless of how coupling spreads it
    my = mass_series(traj, mesh)
    np.testing.assert_allclose(np.diff(my) / traj.dt, np.pi, rtol=1e-9)
    mz = traj.z @ mesh.cell_areas + traj.z_gamma @ mesh.surface_weights
    np.testing.assert_allclose(np.diff(mz) / traj.dt, 2 * 2 * np.pi, rtol=1e-9)


def _solve_steps(monkeypatch) -> list:
    """The dt of every SemilinearSystem.solve call from now on."""
    solve = SemilinearSystem.solve
    steps = []
    monkeypatch.setattr(SemilinearSystem, "solve", lambda self, init, t_end,
                        dt, **kw: steps.append(dt) or solve(self, init, t_end,
                                                            dt, **kw))
    return steps


def test_mms_spatial_order(monkeypatch):
    levels = [(8, 16, 0.02), (16, 32, 0.01), (32, 64, 0.005)]
    steps = _solve_steps(monkeypatch)
    out = mms_convergence(levels, t_end=0.4,
                          potentials_const=dict(p11=0.2, p12=0.1, p21=0.3,
                                                p22=-0.1, q11=0.1, q12=0.05,
                                                q21=0.2, q22=-0.05))
    # the meshes vary: each level is measured against the exact solution
    assert steps == [0.02, 0.01, 0.005]
    assert min(out["orders"]) >= 0.9


def test_mms_temporal_order(monkeypatch):
    levels = [(16, 32, 0.04), (16, 32, 0.02), (16, 32, 0.01)]
    steps = _solve_steps(monkeypatch)
    out = mms_convergence(levels, t_end=0.4)
    # one mesh: each level is measured against a dt/8 reference run
    assert steps == [0.04, 0.00125, 0.02, 0.00125, 0.01, 0.00125]
    assert min(out["orders"]) >= 0.9


def _block_problem(k=3):
    """Both nonlinearities, clipped reactions and time-dependent sources,
    with a block of k random initial states."""
    mesh = build_polar_mesh(4, 8, 1.0)
    nb, ns = mesh.n_cells, mesh.n_theta
    diffusion = DiffusionSpec.from_values(mesh, a1=1.0 + 0.3 * mesh.cell_r,
                                          d2=2.0)
    pot = PotentialSet.from_values(
        mesh, p11=-0.3, p12=0.2, p13=0.5, p21=0.4, p22=-0.1,
        q11=0.1, q12=-0.2, q13=0.3, q21=0.25, q22=-0.15)
    system = SemilinearSystem(
        mesh, diffusion, pot, nl_f=make_power_nonlinearity(1, 1, (2.0, 2.0)),
        nl_g=make_power_nonlinearity(2, 0, (2.0, 2.0)))
    reactions = ReactionSet(f1=lambda y, z: 0.1 * z,
                            f2=lambda y, z: 0.2 * y - 0.05 * z,
                            g1=lambda yg, zg: 0.3 * zg * zg,
                            g2=lambda yg, zg: 0.1 * yg,
                            lipschitz_bound=1.0)
    sources = {"f1": lambda t: np.cos(3 * t) * mesh.cell_r,
               "f2": 0.1 * mesh.cell_xy[:, 0],
               "g1": lambda t: t * np.sin(mesh.surface_theta)}
    rng = np.random.default_rng(12)
    init = InitialData(*(rng.standard_normal((k, n)) for n in (nb, nb, ns, ns)))
    return system, reactions, sources, init


def test_block_solve_equals_column_solves():
    system, reactions, sources, init = _block_problem(k=4)
    block = system.solve(init, t_end=0.1, dt=0.01, sources=sources,
                         reactions=reactions)
    assert block.y.shape == (11, 4, system.mesh.n_cells)
    for j in range(4):
        column = system.solve(
            InitialData(init.y0[j], init.z0[j], init.y0_gamma[j],
                        init.z0_gamma[j]),
            t_end=0.1, dt=0.01, sources=sources, reactions=reactions)
        for name in ("y", "z", "y_gamma", "z_gamma"):
            np.testing.assert_array_equal(getattr(block, name)[:, j],
                                          getattr(column, name))


def test_block_solve_matches_dense_reference():
    # the dense oracle of test_solve_matches_dense_reference, on 3 columns
    system, reactions, sources, init = _block_problem(k=3)
    mesh, pot = system.mesh, system.potentials
    nb, ns = mesh.n_cells, mesh.n_theta
    dt = 0.01
    traj = system.solve(init, t_end=10 * dt, dt=dt, sources=sources,
                        reactions=reactions)
    S = system.implicit_matrix(dt).toarray()
    x = np.concatenate([init.y0, init.z0, init.y0_gamma, init.z0_gamma], axis=1)
    for k in range(10):
        t = k * dt
        y, z = x[:, :nb], x[:, nb:2 * nb]
        yg, zg = x[:, 2 * nb:2 * nb + ns], x[:, 2 * nb + ns:]
        yp, zp, ygp, zgp = (np.maximum(v, 0.0) for v in (y, z, yg, zg))
        E = np.concatenate([
            pot.p13 * y * z + 0.1 * zp + np.cos(3 * t) * mesh.cell_r,
            0.2 * yp - 0.05 * zp + 0.1 * mesh.cell_xy[:, 0],
            pot.q13 * yg**2 + 0.3 * zgp**2 + t * np.sin(mesh.surface_theta),
            0.1 * ygp], axis=1)
        x = np.linalg.solve(S, (system.mass * (x / dt + E)).T).T
        got = np.concatenate([traj.y[k + 1], traj.z[k + 1],
                              traj.y_gamma[k + 1], traj.z_gamma[k + 1]], axis=1)
        for j in range(3):
            assert np.linalg.norm(got[j] - x[j]) <= 1e-12 * np.linalg.norm(x[j])


def test_block_solve_refuses_a_ragged_block():
    system, _, _, init = _block_problem(k=3)
    with pytest.raises(ValueError, match=r"z0 has shape \(2, 32\), expected \(3, 32\)"):
        system.solve(replace(init, z0=init.z0[:2]), t_end=0.02, dt=0.01)


@pytest.mark.parametrize("k", [None, 3])
def test_solve_stacks_the_blocks_of_march(k):
    # one state (k None) or a block of k; 41 nodes make blocks of 8 new
    # states, each after the first led by the two states before it
    system, reactions, sources, init = _block_problem(k=k or 1)
    if k is None:
        init = InitialData(init.y0[0], init.z0[0], init.y0_gamma[0],
                           init.z0_gamma[0])
    kw = dict(sources=sources, reactions=reactions, t_start=0.1)
    traj = system.solve(init, 0.5, 0.01, **kw)
    assert traj.n_nodes == 41
    spans = []
    for block in system.march(init, 0.5, 0.01, **kw):
        spans.append((block.start, block.start + block.n_nodes))
        cut = slice(*spans[-1])
        np.testing.assert_array_equal(block.packed, traj.packed[cut])
        np.testing.assert_array_equal(block.times, traj.times[cut])
        np.testing.assert_array_equal(block.z, traj.z[cut])
    assert spans == [(0, 8), (6, 16), (14, 24), (22, 32), (30, 40),
                     (38, 41)] == block_spans(41)
    assert [(b.start, b.start + b.n_nodes) for b in traj.blocks()] == spans


@pytest.mark.parametrize("n_nodes", [1, 2, 3, 8, 9, 10, 11, 16, 17, 41])
def test_the_blocks_of_a_run_hold_each_state_and_window_node_once(n_nodes):
    # new_rows of consecutive blocks concatenate to the run, and their
    # window_rows hold each window node once, at the index that start gives
    system, _, _, init = _block_problem(k=1)
    one = InitialData(init.y0[0], init.z0[0], init.y0_gamma[0], init.z0_gamma[0])
    t_end = 0.01 * (n_nodes - 1)
    traj = system.solve(one, t_end, 0.01)
    assert traj.n_nodes == n_nodes
    for t0, t1 in ((-1.0, 1.0), (0.025, 0.2), (0.045, 0.075)):
        want = window_nodes(traj.times, traj.dt, t0, t1).tolist()
        for blocks in (system.march(one, t_end, 0.01), traj.blocks()):
            new, nodes = [], []
            for block in blocks:
                new.append(block.new_rows().packed.copy())
                rows = window_rows(block, t0, t1)
                if rows is not None:
                    ks = rows.start + np.arange(1, rows.n_nodes - 1)
                    np.testing.assert_array_equal(
                        rows.packed, traj.packed[ks[0] - 1:ks[-1] + 2])
                    np.testing.assert_array_equal(rows.times[1:-1],
                                                  traj.times[ks])
                    nodes += ks.tolist()
            np.testing.assert_array_equal(np.concatenate(new), traj.packed)
            assert nodes == want, (t0, t1)


@pytest.mark.parametrize("t0, t1", [(0.2, 0.8), (0.333, 0.61), (0.015, 0.06)])
def test_window_times_are_the_times_of_the_window_rows(t0, t1):
    # the grid a sampled field needs: the run's own times, from the state
    # before the first window node to the state after the last
    system, _, _, init = _block_problem(k=1)
    one = InitialData(init.y0[0], init.z0[0], init.y0_gamma[0], init.z0_gamma[0])
    traj = system.solve(one, 1.0, 0.01)
    np.testing.assert_array_equal(window_times(t0, t1, 0.01),
                                  window_rows(traj, t0, t1).times)
    with pytest.raises(ValueError, match="no interior stencil nodes"):
        window_times(0.2, 0.215, 0.01)


def test_only_forward_knows_how_a_run_is_cut():
    # the block size and the halo are forward's: every other module reads
    # blocks through start, new_rows and window_rows
    src = pathlib.Path(bulksurf.forward.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "forward.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert not names & {"_NODE_BLOCK", "_HALO"}, path.name


def test_only_the_constructor_reads_the_nonlinearities():
    # SemilinearSystem keeps its explicit terms in one tuple that its
    # __init__ builds from nl_f and nl_g; every other method loops over it
    tree = ast.parse(pathlib.Path(bulksurf.forward.__file__).read_text())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "SemilinearSystem")
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
            continue
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(method)
                 if isinstance(node, (ast.Name, ast.Attribute))}
        assert not names & {"nl_f", "nl_g"}, method.name


def _one_state_trajectory():
    system, _, _, init = _block_problem(k=1)
    one = InitialData(init.y0[0], init.z0[0], init.y0_gamma[0], init.z0_gamma[0])
    return system, system.solve(one, t_end=0.1, dt=0.01)


def test_coefficient_fields_of_a_table_equal_its_rows():
    system, traj = _one_state_trajectory()
    X = traj.packed
    table = system.coefficient_fields(X[:-1], X[1:])
    assert table.shape == (10, system.n_dof)
    for n in range(10):
        np.testing.assert_array_equal(
            table[n], system.coefficient_fields(X[n], X[n + 1]))


def test_coefficient_fields_blocks():
    # f = y z and g = y_gamma^2 in _block_problem; the z pair carries the
    # new y pair, which p21 and q21 couple into the z rows
    system, traj = _one_state_trajectory()
    table = system.coefficient_fields(traj.packed[:-1], traj.packed[1:])
    sy, sz, syg, szg = system.blocks
    np.testing.assert_array_equal(table[:, sy], traj.y[:-1] * traj.z[:-1])
    np.testing.assert_array_equal(table[:, sz], traj.y[1:])
    np.testing.assert_array_equal(table[:, syg], traj.y_gamma[:-1] ** 2)
    np.testing.assert_array_equal(table[:, szg], traj.y_gamma[1:])
