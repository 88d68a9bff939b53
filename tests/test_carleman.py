import math
import tracemalloc

import numpy as np
import pytest

from bulksurf.carleman import (
    CarlemanConfig,
    DiffusionPair,
    carleman_ratio,
    carleman_sweep,
    default_s1,
    eta0_and_gradient,
    exp_weight,
    shifted_ratio,
    shifted_sweep,
    sigma,
    sigma_bounds_report,
    weight_property_margins,
    weight_tables,
    weight_vanishing_report,
    weights,
)
import bulksurf.carleman as carleman
import bulksurf.decomposition as decomposition
from bulksurf.decomposition import (field_to_trajectory, mn_decomposition,
                                    mn_decompositions)
from bulksurf.fields import SpaceTimeField
from bulksurf.forward import SemilinearSystem, window_nodes
from bulksurf.operators import conormal_flux
from bulksurf.geometry import build_polar_mesh, build_regions
from bulksurf.model import DiffusionSpec, InitialData, PotentialSet


@pytest.fixture(scope="module")
def mesh():
    return build_polar_mesh(16, 32, 1.0)


@pytest.fixture(scope="module")
def regions(mesh):
    return build_regions(mesh, 0.2, 0.3, 0.45, 0.2, 0.8)


def cfg_small(**kw):
    base = dict(lam=1.0, s=2.0, t0=0.2, t1=0.8)
    base.update(kw)
    return CarlemanConfig(**base)


def test_eta0_values():
    val, grad = eta0_and_gradient(np.array([0.0, 0.0]))
    assert val == 1.0 and np.all(grad == 0.0)
    val, grad = eta0_and_gradient(np.array([1.0, 0.0]))
    assert val == 0.0
    np.testing.assert_array_equal(grad, [-2.0, 0.0])
    val, grad = eta0_and_gradient(np.array([0.5, 0.0]))
    assert val == 0.75
    np.testing.assert_array_equal(grad, [-1.0, 0.0])
    assert np.linalg.norm(grad) == 1.0


def test_weights_boundary_plugin():
    # at eta0 = 0 and t = theta: gamma = ((t1-t0)/2)^2, xi = 1/gamma
    cfg = cfg_small()
    alpha, xi, _ = weight_tables(cfg, eta0_and_gradient(
        np.array([[1.0, 0.0]]))[0], [0.5])
    gamma = 0.3 * 0.3
    assert xi[0, 0] == pytest.approx(1.0 / gamma, rel=1e-14)
    assert alpha[0, 0] == pytest.approx((math.e**2 - 1.0) / gamma, rel=1e-14)


def test_weights_outside_window_rejected():
    cfg = cfg_small()
    with pytest.raises(ValueError):
        weights(0.1, np.array([[0.0, 0.0]]), cfg)


def test_weight_derivatives_against_complex_step(mesh):
    # oracle: complex-step differentiation of an independent closed form
    cfg = cfg_small()
    rng = np.random.default_rng(0)
    K = math.exp(2 * cfg.lam)

    def alpha_xi(t, x1, x2):
        gamma = (t - cfg.t0) * (cfg.t1 - t)
        E = np.exp(cfg.lam * (1 - x1**2 - x2**2))
        return (K - E) / gamma, E / gamma

    h = 1e-30
    for _ in range(100):
        t = rng.uniform(cfg.t0 + 0.05, cfg.t1 - 0.05)
        r = rng.uniform(0, 1)
        ang = rng.uniform(0, 2 * np.pi)
        x = np.array([r * np.cos(ang), r * np.sin(ang)])
        w = weights(t, x, cfg)
        # the time derivatives d/dt (alpha, xi) = -(alpha, xi) dlog gamma
        alpha, xi, dlog = weight_tables(cfg, eta0_and_gradient(x)[0], [t])
        da_cs = (alpha_xi(t + 1j * h, x[0], x[1])[0]).imag / h
        dxi_cs = (alpha_xi(t + 1j * h, x[0], x[1])[1]).imag / h
        assert abs(-alpha[0] * dlog[0] - da_cs) <= 1e-10 * max(abs(da_cs), 1.0)
        assert abs(-xi[0] * dlog[0] - dxi_cs) <= 1e-10 * max(abs(dxi_cs), 1.0)
        ga_cs = (alpha_xi(t, x[0] + 1j * h, x[1])[0]).imag / h
        gxi_cs = (alpha_xi(t, x[0] + 1j * h, x[1])[1]).imag / h
        assert abs(w["grad_alpha"][0] - ga_cs) <= 1e-10 * max(abs(ga_cs), 1.0)
        assert abs(w["grad_xi"][0] - gxi_cs) <= 1e-10 * max(abs(gxi_cs), 1.0)


def test_weight_property_margins():
    cfg = cfg_small(s=2.0)
    times = np.linspace(0.21, 0.79, 97)
    eta = np.linspace(0.0, 1.0, 33)
    rep = weight_property_margins(cfg, times, eta)
    assert rep["passed"]
    # xi (t1-t0)^2/4 >= 1 with equality approached at t=theta, eta0=0
    assert rep["inf_xi_times_window"] == pytest.approx(1.0, rel=5e-3)
    assert rep["sup_xi_over_xi3"] == pytest.approx(1.0, rel=5e-3)
    for key in ("sup_dalpha_over_xi2", "sup_c_quotient", "sup_d_quotient"):
        assert np.isfinite(rep[key])


def test_margin_constants_stabilize_under_grid_refinement():
    cfg = cfg_small(s=3.0)
    vals = []
    for n in (50, 100, 200):
        rep = weight_property_margins(
            cfg, np.linspace(0.205, 0.795, n), np.linspace(0, 1, n // 2))
        vals.append(rep["sup_dalpha_over_xi2"])
    assert abs(vals[-1] - vals[-2]) <= 0.05 * vals[-1]


def test_sigma_values(mesh):
    assert sigma(np.array([0.0, 0.0]), 1.0) == 0.0
    assert sigma(np.array([1.0, 0.0]), 1.0) == 4.0
    rng = np.random.default_rng(1)
    a = rng.uniform(1.0, 2.0, mesh.n_cells)
    rep = sigma_bounds_report(mesh, a, beta=1.0)
    assert rep["passed"]
    assert rep["C1"] <= 8.0 + 1e-12


def test_alpha_minimal_at_theta():
    cfg = cfg_small()
    rep = weight_property_margins(cfg, np.linspace(0.21, 0.79, 61),
                                  np.linspace(0, 1, 21))
    assert rep["alpha_time_minimum_margin"] >= 0.0
    assert rep["passed"]


def test_weight_vanishing_at_endpoints():
    lam = 2.0
    cfg = CarlemanConfig(lam=lam, s=default_s1(lam, 0.2, 0.8), t0=0.2, t1=0.8)
    rep = weight_vanishing_report(cfg, dt=0.005)
    assert rep["passed"]


def test_exp_weight_clamps_to_zero():
    assert exp_weight(10.0, np.array([1000.0]))[0] == 0.0
    assert exp_weight(1.0, np.array([0.0]))[0] == 1.0


# --- weighted norms ---------------------------------------------------------

def _time_grid(t_end=1.0, dt=0.01):
    return np.arange(0.0, t_end + dt / 2, dt)


# the surface diffusivity of the test pairs; the plain-loop quadratures
# below rebuild div_s from it
D_SURF = 1.0


@pytest.fixture(scope="module")
def pair(mesh):
    return DiffusionPair.from_fields(mesh, 1.0, D_SURF)


@pytest.fixture(scope="module")
def smooth_traj(mesh):
    f = SpaceTimeField("sin(pi*(t - 0.2)/0.6) * (1 + x1/3 + x2**2/5)")
    return field_to_trajectory(f, mesh, _time_grid())


def test_weighted_norms_zero_field(mesh, pair, regions):
    zero = field_to_trajectory(SpaceTimeField("0"), mesh, _time_grid())
    parts = carleman_ratio(0.0, zero, cfg_small(), mesh, pair, regions)["parts"]
    assert len(parts) == 12 and all(v == 0.0 for v in parts.values())


def test_weighted_norms_quadratic_scaling(mesh, pair, regions, smooth_traj):
    cfg = cfg_small()
    n1 = carleman_ratio(0.0, smooth_traj, cfg, mesh, pair, regions)
    doubled = field_to_trajectory(
        SpaceTimeField("2*(sin(pi*(t - 0.2)/0.6) * (1 + x1/3 + x2**2/5))"),
        mesh, _time_grid())
    n2 = carleman_ratio(0.0, doubled, cfg, mesh, pair, regions)
    for key, val in n1["parts"].items():
        if val > 0:
            assert n2["parts"][key] / val == pytest.approx(4.0, rel=1e-10)
    assert n2["lhs"] / n1["lhs"] == pytest.approx(4.0, rel=1e-10)


def _independent_nodes(traj, cfg, mesh):
    """Window nodes k with plain per-node weights (W, xi, W_s, xi_s).

    W and W_s are e^{-2 s alpha} shifted by the grid minimum of alpha, like
    the weights of the estimates.
    """
    K = math.exp(2 * cfg.lam)
    eta = 1.0 - np.sum(mesh.cell_xy**2, axis=-1)
    E = np.exp(cfg.lam * eta)
    ks = [k for k in range(1, traj.n_nodes - 1)
          if traj.times[k - 1] > cfg.t0 and traj.times[k + 1] < cfg.t1]
    gammas = [(traj.times[k] - cfg.t0) * (cfg.t1 - traj.times[k]) for k in ks]
    aref = min(min(((K - E) / g).min(), (K - 1.0) / g) for g in gammas)
    nodes = []
    for k, gamma in zip(ks, gammas):
        expo = -2 * cfg.s * ((K - E) / gamma - aref)
        W = np.where(expo < -700, 0.0, np.exp(np.maximum(expo, -700)))
        expo_s = -2 * cfg.s * ((K - 1.0) / gamma - aref)
        W_s = 0.0 if expo_s < -700 else math.exp(expo_s)
        nodes.append((k, W, E / gamma, W_s, 1.0 / gamma))
    return nodes


def _independent_surface_divergence(d, zg, ds):
    """Periodic div_s(d dz/ds) with harmonic face averages, node by node."""
    n = len(zg)
    t = [2 * d[j] * d[(j + 1) % n] / (d[j] + d[(j + 1) % n]) / ds
         for j in range(n)]
    return np.array([(t[j] * (zg[(j + 1) % n] - zg[j])
                      - t[j - 1] * (zg[j] - zg[j - 1])) / ds
                     for j in range(n)])


def _independent_norm_terms(tau, traj, cfg, mesh, pair, which="z"):
    """Plain-loop requadrature of the nine weighted-norm terms (``pair``
    has surface diffusivity D_SURF)."""
    from bulksurf.operators import conormal_flux

    zb, zgs = (traj.z, traj.z_gamma) if which == "z" else (traj.y, traj.y_gamma)
    out = {key: 0.0 for key in ("bulk_time", "bulk_elliptic", "bulk_gradient",
                                "bulk_zeroth", "surf_time", "surf_elliptic",
                                "surf_gradient", "surf_zeroth",
                                "surf_conormal")}
    ds = mesh.surface_weights[0]
    d = np.full(mesh.n_theta, D_SURF)
    faces = list(zip(mesh.faces_a.tolist(), mesh.faces_b.tolist(),
                     mesh.faces_geom.tolist()))
    bnd = list(zip(mesh.bnd_cells.tolist(), mesh.bnd_geom.tolist()))
    for k, W, xi, W_s, xi_s in _independent_nodes(traj, cfg, mesh):
        dtz = (zb[k + 1] - zb[k - 1]) / (2 * traj.dt)
        div = pair.op_bulk.apply(zb[k], zgs[k])
        out["bulk_zeroth"] += traj.dt * cfg.lam**4 * np.dot(
            mesh.cell_areas, W * (cfg.s * xi) ** (tau + 3) * zb[k] ** 2)
        out["bulk_time"] += traj.dt * np.dot(
            mesh.cell_areas, W * (cfg.s * xi) ** (tau - 1) * dtz**2)
        out["bulk_elliptic"] += traj.dt * np.dot(
            mesh.cell_areas, W * (cfg.s * xi) ** (tau - 1) * div**2)

        zg = zgs[k]
        # int w |grad z|^2 face by face: interior faces, then the boundary
        # faces to the matched surface nodes (half-cell distance)
        w_gr = (W * (cfg.s * xi) ** (tau + 1)).tolist()
        w_gr_s = W_s * (cfg.s * xi_s) ** (tau + 1)
        z = zb[k].tolist()
        grad = sum(geom * 0.5 * (w_gr[a] + w_gr[b]) * (z[a] - z[b]) ** 2
                   for a, b, geom in faces)
        grad += sum(geom * 0.5 * (w_gr[c] + w_gr_s) * (zg[j] - z[c]) ** 2
                    for j, (c, geom) in enumerate(bnd))
        out["bulk_gradient"] += traj.dt * cfg.lam**2 * grad

        dtzg = (zgs[k + 1] - zgs[k - 1]) / (2 * traj.dt)
        div_s = _independent_surface_divergence(d, zg, ds)
        out["surf_time"] += traj.dt * W_s * (cfg.s * xi_s) ** (tau - 1) \
            * float(np.dot(mesh.surface_weights, dtzg**2))
        out["surf_elliptic"] += traj.dt * W_s * (cfg.s * xi_s) ** (tau - 1) \
            * float(np.dot(mesh.surface_weights, div_s**2))
        out["surf_zeroth"] += traj.dt * cfg.lam**3 * W_s \
            * (cfg.s * xi_s) ** (tau + 3) * float(np.dot(mesh.surface_weights,
                                                         zg**2))
        # int w |dz/ds|^2 over the periodic grid, face by face
        grad_sum = sum((zg[(j + 1) % len(zg)] - zg[j]) ** 2 / ds
                       for j in range(len(zg)))
        out["surf_gradient"] += traj.dt * cfg.lam * w_gr_s * grad_sum
        flux = conormal_flux(mesh, pair.a, zb[k], zg)
        out["surf_conormal"] += traj.dt * cfg.lam * w_gr_s \
            * float(np.dot(mesh.surface_weights, flux**2))
    return out


@pytest.mark.parametrize("tau", [-3.0, 0.0, 2.0])
def test_weighted_norms_vs_independent_quadrature(mesh, pair, regions,
                                                  smooth_traj, tau):
    cfg = cfg_small()
    parts = carleman_ratio(tau, smooth_traj, cfg, mesh, pair, regions)["parts"]
    indep = _independent_norm_terms(tau, smooth_traj, cfg, mesh, pair)
    for key, val in indep.items():
        assert parts[key] == pytest.approx(val, rel=1e-10, abs=0.0), key


# --- decomposition identities ------------------------------------------------

def test_decomposition_zero_field(mesh):
    cfg = cfg_small()
    dec = mn_decomposition(0.0, SpaceTimeField("0"), cfg, mesh)
    assert dec.residual_bulk == 0.0
    assert dec.residual_surface == 0.0


@pytest.mark.parametrize("tau", [-3.0, 0.0, 2.0])
def test_decomposition_identity_radial_field(mesh, tau):
    cfg = cfg_small()
    z = SpaceTimeField("sin(pi*(t-0.2)/0.6)*(1 - x1**2 - x2**2)")
    dec = mn_decomposition(tau, z, cfg, mesh)
    assert dec.residual_bulk <= 1e-8
    assert dec.residual_surface <= 1e-8


def test_decomposition_identity_general_field_variable_a(mesh):
    # nonzero trace and nonconstant isotropic diffusivity
    cfg = cfg_small()
    z = SpaceTimeField("sin(pi*(t-0.2)/0.6)*(1 + x1/2 + x2**2/3)")
    dec = mn_decomposition(0.0, z, cfg, mesh,
                           a_expr="1 + (x1**2 + x2**2)/4",
                           d_expr="1 + sin(theta)/3")
    assert dec.residual_bulk <= 1e-8
    assert dec.residual_surface <= 1e-8


def test_decompositions_derive_once_for_every_tau(mesh, monkeypatch):
    # tau is a symbol of the one derivation: two lambdified component sets
    # serve the whole list, and a one-tau call is the list's own point
    lambdify_set = decomposition.lambdify_set
    calls = []
    monkeypatch.setattr(decomposition, "lambdify_set",
                        lambda *a: calls.append(1) or lambdify_set(*a))
    taus = [-3.0, -1.5, 0.0, 2.0]
    z = SpaceTimeField("sin(pi*(t - 0.2)/0.6)*(1 + x1/2 + x2**2/3)")
    cfg = cfg_small(lam=1.5, s=3.0)
    decs = mn_decompositions(taus, z, cfg, mesh, a_expr="1 + x1**2/4",
                             d_expr="1 + cos(theta)/3")
    assert len(calls) == 2 and len(decs) == len(taus)
    for dec in decs:
        assert dec.residual_bulk <= 1e-12 and dec.residual_surface <= 1e-12
    assert mn_decomposition(-1.5, z, cfg, mesh, a_expr="1 + x1**2/4",
                            d_expr="1 + cos(theta)/3") == decs[1]


def test_decompositions_evaluate_one_time_row_at_a_time(mesh, monkeypatch):
    # the shared subexpressions of the lambdified components live on one
    # time row of the nine, not on the whole (9 x n_cells) grid
    lambdify_set = decomposition.lambdify_set
    rows = []

    def spy(*args):
        fn = lambdify_set(*args)
        return lambda t, *rest: rows.append(np.shape(t)) or fn(t, *rest)

    monkeypatch.setattr(decomposition, "lambdify_set", spy)
    z = SpaceTimeField("sin(pi*(t - 0.2)/0.6)*(1 + x1/2 + x2**2/3)")
    decs = mn_decompositions([-3.0, 0.0], z, cfg_small(), mesh)
    assert rows == [(1, 1)] * (2 * 2 * 9)
    for dec in decs:
        assert dec.residual_bulk <= 1e-12 and dec.residual_surface <= 1e-12


def test_decomposition_rejects_sampled_input(mesh, smooth_traj):
    with pytest.raises(TypeError):
        mn_decomposition(0.0, smooth_traj, cfg_small(), mesh)


# --- ratios -------------------------------------------------------------------

def test_ratio_zero_field_indeterminate(mesh, pair, regions):
    zero = field_to_trajectory(SpaceTimeField("0"), mesh, _time_grid())
    out = carleman_ratio(0.0, zero, cfg_small(), mesh, pair, regions)
    assert out["lhs"] == 0.0 and out["rhs"] == 0.0
    assert math.isnan(out["ratio"])


def test_ratio_no_growth_in_s(mesh, pair, regions, smooth_traj):
    lam1 = 2.0
    for lam in (lam1, 2 * lam1):
        s1 = default_s1(lam, 0.2, 0.8)
        ratios = []
        for fac in (1.0, 2.0, 4.0):
            cfg = CarlemanConfig(lam=lam, s=fac * s1, t0=0.2, t1=0.8)
            out = carleman_ratio(0.0, smooth_traj, cfg, mesh, pair, regions)
            assert np.isfinite(out["ratio"])
            ratios.append(out["ratio"])
        assert ratios[1] <= 2.0 * ratios[0]
        assert ratios[2] <= 2.0 * ratios[0]


def test_ratio_localized_field_observation_dominates(mesh, pair, regions):
    lam = 2.0
    cfg = CarlemanConfig(lam=lam, s=default_s1(lam, 0.2, 0.8), t0=0.2, t1=0.8)
    z = SpaceTimeField("sin(pi*(t-0.2)/0.6)*exp(-12*(x1**2 + x2**2))")
    traj = field_to_trajectory(z, mesh, _time_grid())
    out = carleman_ratio(0.0, traj, cfg, mesh, pair, regions)
    parts = out["parts"]
    assert parts["observation"] > parts["bulk_residual"] + parts["surface_residual"]


def _independent_rhs_terms(tau, traj, cfg, mesh, pair, regions):
    """Plain-loop requadrature of carleman_ratio's right-hand-side terms
    (``pair`` has surface diffusivity D_SURF)."""
    from bulksurf.operators import conormal_flux

    obs = res_b = res_s = 0.0
    ds = mesh.surface_weights[0]
    d = np.full(mesh.n_theta, D_SURF)
    for k, W, xi, W_s, xi_s in _independent_nodes(traj, cfg, mesh):
        z, zg = traj.z[k], traj.z_gamma[k]
        for i in regions.omega:
            obs += traj.dt * cfg.lam**4 * mesh.cell_areas[i] * W[i] \
                * (cfg.s * xi[i]) ** (tau + 3) * z[i] ** 2
        Lz = (traj.z[k + 1] - traj.z[k - 1]) / (2 * traj.dt) \
            - pair.op_bulk.apply(z, zg)
        res_b += traj.dt * float(np.sum(mesh.cell_areas * W
                                        * (cfg.s * xi) ** tau * Lz**2))
        Lzg = (traj.z_gamma[k + 1] - traj.z_gamma[k - 1]) / (2 * traj.dt) \
            - _independent_surface_divergence(d, zg, ds) \
            + conormal_flux(mesh, pair.a, z, zg)
        res_s += traj.dt * W_s * (cfg.s * xi_s) ** tau \
            * float(np.dot(mesh.surface_weights, Lzg**2))
    return {"observation": obs, "bulk_residual": res_b,
            "surface_residual": res_s}


# (lam, s) points far enough apart that weights mixed between two points
# of one sweep would show; the last one weighs the disk nearly flat, so an
# observation summed over cells outside omega would show too
_SWEEP_POINTS = [dict(lam=2.0), dict(lam=2.0, s=8.0), dict(lam=3.0, s=5.0),
                 dict(lam=1.0, s=0.25)]


@pytest.mark.parametrize("tau", [-3.0, 0.0, 2.0])
def test_ratio_rhs_vs_independent_quadrature(mesh, pair, regions, smooth_traj,
                                             tau):
    cfgs = [cfg_small(**point) for point in _SWEEP_POINTS]
    outs = carleman_sweep(tau, [smooth_traj], cfgs, mesh, pair, regions)
    for cfg, out in zip(cfgs, outs):
        want = {**_independent_rhs_terms(tau, smooth_traj, cfg, mesh, pair,
                                         regions),
                **_independent_norm_terms(tau, smooth_traj, cfg, mesh, pair)}
        for key, val in want.items():
            assert out["parts"][key] == pytest.approx(val, rel=1e-10,
                                                      abs=0.0), (cfg, key)
        assert out["lhs"] + out["rhs"] == pytest.approx(
            sum(want.values()), rel=1e-10, abs=0.0)
    # a one-config call is the sweep's own point, bit for bit
    assert carleman_ratio(tau, smooth_traj, cfgs[1], mesh, pair,
                          regions) == outs[1]


def test_sweep_refuses_configs_with_different_windows(mesh, pair, regions,
                                                      smooth_traj):
    with pytest.raises(ValueError, match="share the window"):
        carleman_sweep(0.0, [smooth_traj], [cfg_small(), cfg_small(t1=0.7)],
                       mesh, pair, regions)


def test_sweep_refuses_a_disk_other_than_the_unit_disk():
    # the closed-form weights take eta0 = 0 on the boundary circle |x| = 1
    wide = build_polar_mesh(8, 16, 2.0)
    traj = field_to_trajectory(SpaceTimeField("x1"), wide, _time_grid())
    with pytest.raises(ValueError, match="mesh.radius must be 1.0, got 2.0"):
        carleman_ratio(0.0, traj, cfg_small(), wide,
                       DiffusionPair.from_fields(wide, 1.0, 1.0),
                       build_regions(wide, 0.2, 0.3, 0.45, 0.2, 0.8))


def _linear_run(mesh):
    """A coupled linear source solve for the one-observation estimate:
    its potentials, its sources and its trajectory."""
    diffusion = DiffusionSpec.from_values(mesh)
    pot = PotentialSet.from_values(mesh, p11=0.2, p12=0.1, p21=1.0, p22=-0.1,
                                   q11=0.1, q12=0.05, q21=1.0, q22=-0.05,
                                   p0=0.5)
    system = SemilinearSystem(mesh, diffusion, pot)
    xy = mesh.cell_xy
    th = mesh.surface_theta
    sources = {
        "f1": 0.5 + 0.3 * xy[:, 0],
        "f2": 0.4 - 0.2 * xy[:, 1],
        "g1": 0.2 + 0.1 * np.cos(th),
        "g2": 0.3 + 0.1 * np.sin(th),
    }
    init = InitialData.from_values(mesh, y0=1.0 + 0.2 * xy[:, 0], z0=1.0)
    traj = system.solve(init, t_end=1.0, dt=0.01, sources=sources)
    return pot, sources, traj


@pytest.fixture(scope="module")
def linear_system_run(mesh):
    return _linear_run(mesh)


def test_shifted_ratio_no_growth(mesh, regions, linear_system_run):
    pot, sources, traj = linear_system_run
    pair1 = DiffusionPair.from_fields(mesh, 1.0, 1.0)
    pair2 = DiffusionPair.from_fields(mesh, 1.0, 1.0)
    lam1 = 2.0
    for lam in (lam1, 2 * lam1):
        s1 = default_s1(lam, 0.2, 0.8)
        ratios = []
        for fac in (1.0, 2.0, 4.0):
            cfg = CarlemanConfig(lam=lam, s=fac * s1, t0=0.2, t1=0.8,
                                 epsilon=0.5)
            out = shifted_ratio(traj, sources, cfg, mesh, pair1, pair2,
                                regions, pot)
            assert np.isfinite(out["ratio"])
            ratios.append(out["ratio"])
        assert ratios[1] <= 2.0 * ratios[0]
        assert ratios[2] <= 2.0 * ratios[0]


def test_shifted_ratio_guards_p21_floor(mesh, regions, linear_system_run):
    _, sources, traj = linear_system_run
    pair1 = DiffusionPair.from_fields(mesh, 1.0, 1.0)
    bad_pot = PotentialSet.from_values(mesh, p21=0.0, q21=1.0, p0=0.5)
    cfg = cfg_small(epsilon=0.5)
    with pytest.raises(ValueError, match="p21"):
        shifted_ratio(traj, sources, cfg, mesh, pair1, pair1, regions, bad_pot)


def test_shifted_ratio_refuses_a_misshapen_source(mesh, regions,
                                                 linear_system_run):
    pot, sources, traj = linear_system_run
    pair = DiffusionPair.from_fields(mesh, 1.0, 1.0)
    with pytest.raises(ValueError, match="source f1 has shape"):
        shifted_ratio(traj, {**sources, "f1": np.ones(1)}, cfg_small(), mesh,
                      pair, pair, regions, pot)


def test_shifted_ratio_zero_everything(mesh, regions):
    diffusion = DiffusionSpec.from_values(mesh)
    pot = PotentialSet.from_values(mesh, p21=1.0, q21=1.0, p0=0.5)
    system = SemilinearSystem(mesh, diffusion, pot)
    init = InitialData.from_values(mesh)
    traj = system.solve(init, t_end=1.0, dt=0.02)
    pair = DiffusionPair.from_fields(mesh, 1.0, 1.0)
    out = shifted_ratio(traj, {}, cfg_small(epsilon=0.5), mesh, pair, pair,
                        regions, pot)
    assert out["lhs"] == 0.0 and out["rhs"] == 0.0


def test_shifted_ratio_parts_vs_independent_quadrature(mesh, regions,
                                                       linear_system_run):
    pot, sources, traj = linear_system_run
    pair = DiffusionPair.from_fields(mesh, 1.0, D_SURF)
    eps = 0.5
    cfgs = [cfg_small(epsilon=eps, **point) for point in
            [dict(lam=2.0, s=default_s1(2.0, 0.2, 0.8)), *_SWEEP_POINTS]]
    outs = shifted_sweep([traj], sources, cfgs, mesh, pair, pair, regions,
                         pot)
    for cfg, out in zip(cfgs, outs):
        lam, s = cfg.lam, cfg.s
        obs = f1g1 = f2g2 = 0.0
        for k, W, xi, W_s, xi_s in _independent_nodes(traj, cfg, mesh):
            for i in regions.omega:
                obs += traj.dt * mesh.cell_areas[i] * W[i] * xi[i] ** 4 \
                    * traj.z[k][i] ** 2
            f1g1 += traj.dt * (
                np.dot(mesh.cell_areas, W * xi**-3 * sources["f1"]**2)
                + W_s * xi_s**-3 * np.dot(mesh.surface_weights,
                                          sources["g1"]**2))
            f2g2 += traj.dt * (np.dot(mesh.cell_areas, W * sources["f2"]**2)
                               + W_s * np.dot(mesh.surface_weights,
                                              sources["g2"]**2))
        want = {
            "observation": s**4 * lam ** (4 + eps) * obs,
            "f1_g1": s**-3 * lam ** (-4 + eps) * f1g1,
            "f2_g2": lam ** (2 * eps) * f2g2,
            "norms_y": sum(_independent_norm_terms(-3.0, traj, cfg, mesh,
                                                   pair, "y").values()),
            "norms_z": sum(_independent_norm_terms(0.0, traj, cfg, mesh,
                                                   pair).values()),
        }
        for key, val in want.items():
            assert out["parts"][key] == pytest.approx(val, rel=1e-10,
                                                      abs=0.0), (cfg, key)
    assert shifted_ratio(traj, sources, cfgs[0], mesh, pair, pair, regions,
                         pot) == outs[0]


def _cut(traj, size):
    """``traj`` in blocks of ``size`` new states, each after the first led by
    the two states before it, as a march would yield them."""
    return [traj.rows(max(n - 2, 0), n + size)
            for n in range(0, traj.n_nodes, size)]


@pytest.mark.parametrize("size, shape", [
    pytest.param(16, None, id="16"), pytest.param(5, None, id="5"),
    pytest.param(16, (11, 26), id="16-11x26"),
    pytest.param(5, (11, 26), id="5-11x26")])
def test_window_sums_do_not_depend_on_how_the_states_are_cut(
        mesh, regions, linear_system_run, size, shape):
    # every per-node quantity depends only on its node's rows, so every sum
    # keeps its bits whatever the blocks, also where n_theta and |omega|
    # (130 cells on 11 x 26) are not multiples of 4
    pot, sources, traj = linear_system_run
    if shape is not None:
        mesh = build_polar_mesh(*shape, 1.0)
        regions = build_regions(mesh, 0.2, 0.3, 0.45, 0.2, 0.8)
        pot, sources, traj = _linear_run(mesh)
    pair = DiffusionPair.from_fields(mesh, 1.0, D_SURF)
    cfgs = [cfg_small(epsilon=0.5, **point) for point in _SWEEP_POINTS]
    assert shifted_sweep(_cut(traj, size), sources, cfgs, mesh, pair, pair,
                         regions, pot) == \
        shifted_sweep([traj], sources, cfgs, mesh, pair, pair, regions,
                      pot)
    assert carleman_sweep(0.0, _cut(traj, size), cfgs, mesh, pair,
                          regions) == \
        carleman_sweep(0.0, [traj], cfgs, mesh, pair, regions)


def test_a_march_feeds_the_sweep_as_it_steps(mesh, regions, linear_system_run):
    pot, sources, traj = linear_system_run
    system = SemilinearSystem(mesh, DiffusionSpec.from_values(mesh), pot)
    pair = DiffusionPair.from_fields(mesh, 1.0, D_SURF)
    cfgs = [cfg_small(epsilon=0.5, **point) for point in _SWEEP_POINTS]
    init = InitialData(*(f[0] for f in (traj.y, traj.z, traj.y_gamma,
                                        traj.z_gamma)))
    assert shifted_sweep(system.march(init, 0.8, 0.01, sources=sources),
                         sources, cfgs, mesh, pair, pair, regions, pot) == \
        shifted_sweep([traj], sources, cfgs, mesh, pair, pair, regions,
                      pot)


def test_a_whole_trajectory_is_read_in_place(mesh, regions, linear_system_run,
                                             monkeypatch):
    # the groups of a one-block feed are views of it: nothing is copied
    pot, sources, traj = linear_system_run
    pair = DiffusionPair.from_fields(mesh, 1.0, D_SURF)
    quantities = carleman._pair_quantities
    in_place = []

    def spy(zb, zg, *args, **kwargs):
        in_place.append(np.shares_memory(zb, traj.packed)
                        and np.shares_memory(zg, traj.packed))
        return quantities(zb, zg, *args, **kwargs)

    monkeypatch.setattr(carleman, "_pair_quantities", spy)
    carleman_sweep(0.0, [traj], [cfg_small()], mesh, pair, regions)
    shifted_sweep([traj], sources, [cfg_small(epsilon=0.5)], mesh, pair,
                  pair, regions, pot)
    # a group is a block's window rows: one group per field pair
    assert in_place == [True] * 3


def test_a_sweep_holds_one_group_at_a_time():
    # a group is a view of its block, and each term's block-sized arrays
    # are freed before the next term is formed: the traced working set
    # stays under nine (16 x n_cells) arrays
    # (a sweep that held every term of a group at once used 11 to 14)
    mesh = build_polar_mesh(32, 64, 1.0)
    regions = build_regions(mesh, 0.2, 0.3, 0.45, 0.2, 0.8)
    pot, sources, traj = _linear_run(mesh)
    pair = DiffusionPair.from_fields(mesh, 1.0, D_SURF)
    cfgs = [cfg_small(epsilon=0.5, **point) for point in _SWEEP_POINTS]
    budget = 9 * 16 * mesh.n_cells * 8
    for sweep in (lambda: carleman_sweep(0.0, traj.blocks(), cfgs, mesh, pair,
                                         regions),
                  lambda: shifted_sweep(traj.blocks(), sources, cfgs, mesh,
                                        pair, pair, regions, pot)):
        sweep()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sweep()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < budget, (peak, budget)


def test_folds_copy_no_block():
    # scipy copies the transposed operand of a multi-vector product; the
    # folds take one row per product, so on an (8 x n_cells) block the
    # level sums trace less than half a block and a sparse apply less than
    # its one-block result and a half, with each row's bits as on its own
    mesh = build_polar_mesh(32, 64, 1.0)
    levels = carleman._Levels.of(mesh)
    op = DiffusionPair.from_fields(mesh, 1.0 + 0.3 * mesh.cell_r, D_SURF).op_bulk
    rng = np.random.default_rng(4)
    block = rng.standard_normal((8, mesh.n_cells))
    trace = rng.standard_normal((8, mesh.n_theta))

    def traced(fold):
        tracemalloc.start()
        try:
            return fold(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    sums, peak = traced(lambda: carleman._per_level(levels.areas, block))
    assert peak < 0.5 * block.nbytes, (peak, block.nbytes)
    div, peak = traced(lambda: op.apply(block, trace))
    assert peak < 1.5 * block.nbytes, (peak, block.nbytes)
    np.testing.assert_array_equal(sums, [levels.areas @ row for row in block])
    np.testing.assert_array_equal(
        div, [op.apply(row, row_trace) for row, row_trace in zip(block, trace)])


# --- the level sums against a per-node, per-cell walk -----------------------

def _per_cell_sums(tau, zb, zg, traj, cfg, mesh, pair, omega=None):
    """The window sums of the nine norm terms, and given ``omega`` of
    carleman_ratio's three right-hand-side terms, node by node with one
    weight per cell (no eta0 levels): the parts records' order and powers."""
    eta = np.append(0.0, eta0_and_gradient(mesh.cell_xy)[0])
    ks = window_nodes(traj, cfg.t0, cfg.t1)
    alpha, xi, _ = weight_tables(cfg, eta, traj.times[ks])
    W = exp_weight(cfg.s, alpha, shift=alpha.min())
    areas, ds, dt, lam = mesh.cell_areas, mesh.surface_weights, traj.dt, cfg.lam
    a, b, c = mesh.faces_a, mesh.faces_b, mesh.bnd_cells
    sums = np.zeros(9 if omega is None else 12)
    for row, k in enumerate(ks):
        w = {m: W[row] * (cfg.s * xi[row]) ** (tau + m) for m in (-1, 0, 1, 3)}
        z, z_g = zb[k], zg[k]
        dtz = (zb[k + 1] - zb[k - 1]) / (2 * dt)
        dtzg = (zg[k + 1] - zg[k - 1]) / (2 * dt)
        div_b = pair.op_bulk.apply(z, z_g)
        div_s = pair.op_surf.apply(z_g)
        flux = conormal_flux(mesh, pair.a, z, z_g)
        wg = w[1]
        grad = (np.sum(0.5 * (wg[1 + a] + wg[1 + b]) * mesh.faces_geom
                       * (z[a] - z[b]) ** 2)
                + np.sum(0.5 * (wg[1 + c] + wg[0]) * mesh.bnd_geom
                         * (z_g - z[c]) ** 2))
        terms = [np.sum(w[-1][1:] * areas * dtz**2),
                 np.sum(w[-1][1:] * areas * div_b**2),
                 lam**2 * grad,
                 lam**4 * np.sum(w[3][1:] * areas * z**2),
                 w[-1][0] * np.sum(ds * dtzg**2),
                 w[-1][0] * np.sum(ds * div_s**2),
                 lam * w[1][0] * np.sum((np.roll(z_g, -1) - z_g) ** 2) / ds[0],
                 lam**3 * w[3][0] * np.sum(ds * z_g**2),
                 lam * w[1][0] * np.sum(ds * flux**2)]
        if omega is not None:
            terms += [lam**4 * np.sum((w[3][1:] * areas * z**2)[omega]),
                      np.sum(w[0][1:] * areas * (dtz - div_b) ** 2),
                      w[0][0] * np.sum(ds * (dtzg - div_s + flux) ** 2)]
        sums += dt * np.array(terms)
    return sums


@pytest.mark.parametrize("n_r, n_theta", [(4, 8), (16, 32)])
def test_level_sums_match_a_per_cell_walk(n_r, n_theta):
    # the sweeps sum each bulk term per eta0 level, a block of nodes at a
    # time; a walk with one weight per cell and node gives the same sums
    mesh = build_polar_mesh(n_r, n_theta, 1.0)
    regions = build_regions(mesh, 0.2, 0.3, 0.45, 0.2, 0.8)
    pot, sources, traj = _linear_run(mesh)
    # a flat weight, so that every level and node counts at 1e-12 (at
    # lam = 2, s = 8 the cells outside omega and the nodes a block away
    # from theta weigh less than 1e-16 of the total)
    cfg = cfg_small(lam=1.0, s=0.25, epsilon=0.5)
    pair = DiffusionPair.from_fields(mesh, 1.0 + 0.5 * mesh.cell_r**2,
                                     1.0 + 0.2 * np.cos(mesh.surface_theta))
    field = field_to_trajectory(SpaceTimeField(
        "sin(pi*(t - 0.2)/0.6)*(1 + x1/3 + x2**2/5)"), mesh, _time_grid())
    want = _per_cell_sums(0.0, field.z, field.z_gamma, field, cfg, mesh, pair,
                          regions.omega)
    got = carleman_sweep(0.0, [field], [cfg], mesh, pair, regions)[0]["parts"]
    np.testing.assert_allclose(list(got.values()), want, rtol=1e-12, atol=0)

    y = _per_cell_sums(-3.0, traj.y, traj.y_gamma, traj, cfg, mesh, pair)
    z = _per_cell_sums(0.0, traj.z, traj.z_gamma, traj, cfg, mesh, pair,
                       regions.omega)
    # the observation term at tau = 1 is lam^4 W (s xi)^4 z^2 on omega
    obs = _per_cell_sums(1.0, traj.z, traj.z_gamma, traj, cfg, mesh, pair,
                         regions.omega)[9]
    # the sources on the (nodes x (surface, cells)) weight table: the
    # surface column takes the arc-length total of g1^2 or g2^2
    eta = np.append(0.0, eta0_and_gradient(mesh.cell_xy)[0])
    alpha, xi, _ = weight_tables(cfg, eta,
                                 traj.times[window_nodes(traj, cfg.t0, cfg.t1)])
    W = exp_weight(cfg.s, alpha, shift=alpha.min())
    f1, f2 = (np.append(mesh.surface_weights @ sources[g] ** 2,
                        mesh.cell_areas * sources[f] ** 2)
              for f, g in (("f1", "g1"), ("f2", "g2")))
    lam, eps = cfg.lam, cfg.epsilon
    want = {"observation": lam ** eps * obs,
            "f1_g1": lam ** (-4 + eps) * traj.dt
            * np.sum(W * (cfg.s * xi) ** -3.0 * f1),
            "f2_g2": lam ** (2 * eps) * traj.dt * np.sum(W * f2),
            "norms_y": y.sum(), "norms_z": z[:9].sum()}
    got = shifted_sweep([traj], sources, [cfg], mesh, pair, pair, regions,
                        pot)[0]["parts"]
    for key, val in want.items():
        assert got[key] == pytest.approx(val, rel=1e-12, abs=0.0), key

