"""Carleman weight system: weights, weighted norms, decompositions, ratios.

The weight ingredients are closed forms on the unit disk:

    eta0(x) = 1 - |x|^2,   gamma(t) = (t - t0)(t1 - t),
    alpha   = (e^{2 lam} - e^{lam eta0}) / gamma,
    xi      = e^{lam eta0} / gamma.

Weighted space-time quadratures share a common exponent shift (the grid
minimum of alpha), so left/right-hand-side ratios stay well defined at
parameter values where the raw weight e^{-2 s alpha} underflows; absolute
magnitudes carry the shift as ``log_scale``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Mesh, RegionSet
from .operators import SparseOp, assemble_bulk_diffusion, \
    assemble_surface_diffusion, conormal_flux
from .forward import Trajectory, window_nodes

_EXP_CLAMP = -700.0   # exponents below this evaluate to exact zero

# Closed-form test fields of the carleman-verify ratio sweep; T0 and W stand
# for the window start and width.  carleman.n_test_fields takes the first ones.
TEST_FIELDS = {
    "radial": "sin(pi*(t - T0)/W)*(1 - x1**2 - x2**2)",
    "skew": "sin(pi*(t - T0)/W)*(1 + x1/3 + x2**2/5)",
    "offcenter": "sin(pi*(t - T0)/W)*exp(-8*((x1 - 0.4)**2 + x2**2))",
    "angular": "sin(pi*(t - T0)/W)*(1 + (x1**2 - x2**2)/2)",
    "time_shift": "sin(2*pi*(t - T0)/W)*(1 + x2/4) + 1",
}


def _gamma_max(t0: float, t1: float) -> float:
    """max of gamma(t) = (t - t0)(t1 - t), reached at t = (t0 + t1) / 2."""
    return (t1 - t0) ** 2 / 4.0


def default_s1(lam: float, t0: float, t1: float) -> float:
    """Default large-parameter floor 2 * gamma_max * e^{2 lam sup eta0}."""
    return 2.0 * _gamma_max(t0, t1) * math.exp(2.0 * lam)


@dataclass(frozen=True)
class CarlemanConfig:
    """Weight parameters on the unit disk, where sup eta0 = 1."""

    lam: float
    s: float
    t0: float
    t1: float
    tau: float = 0.0
    epsilon: float = 0.5

    def __post_init__(self):
        if self.lam < 1.0:
            raise ValueError("lambda must be >= 1")
        if self.s <= 0.0:
            raise ValueError("s must be positive")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if not (self.t0 < self.t1):
            raise ValueError("need t0 < t1")


def eta0_and_gradient(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eta0 = 1 - |x|^2 and its gradient -2x; exact radial form on the disk."""
    xy = np.asarray(xy, dtype=float)
    val = 1.0 - np.sum(xy**2, axis=-1)
    return val, -2.0 * xy


def gamma_value(t, cfg: CarlemanConfig):
    return (t - cfg.t0) * (cfg.t1 - t)


def weight_tables(cfg: CarlemanConfig, eta, times) -> tuple:
    """alpha, xi and dlog gamma = gamma'/gamma on the (times x eta) grid.

    The weights depend on x only through eta = eta0(x); the surface is the
    eta = 0 column.  The three broadcast to shape (n_times, *eta.shape).
    """
    eta = np.asarray(eta, dtype=float)
    tt = np.asarray(times, dtype=float).reshape((-1,) + (1,) * eta.ndim)
    gamma = gamma_value(tt, cfg)
    K = math.exp(2.0 * cfg.lam)
    E = np.exp(cfg.lam * eta)
    return (K - E) / gamma, E / gamma, (cfg.t0 + cfg.t1 - 2.0 * tt) / gamma


def weights(t: float, xy: np.ndarray, cfg: CarlemanConfig) -> dict:
    """Closed-form weight values and derivatives at time t and points xy.

    Returns alpha, xi, dalpha_dt, dxi_dt, grad_alpha, grad_xi; the gradient
    identities grad alpha = -grad xi = -lam xi grad eta0 hold by
    construction.
    """
    if not (cfg.t0 < t < cfg.t1):
        raise ValueError(f"t={t} outside the open window ({cfg.t0}, {cfg.t1})")
    eta, grad_eta = eta0_and_gradient(xy)
    alpha, xi, dlog = (table[0] for table in weight_tables(cfg, eta, [t]))
    grad_xi = cfg.lam * xi[..., None] * grad_eta
    return {
        "alpha": alpha,
        "xi": xi,
        "dalpha_dt": -alpha * dlog,
        "dxi_dt": -xi * dlog,
        "grad_alpha": -grad_xi,
        "grad_xi": grad_xi,
    }


def exp_weight(s: float, alpha: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """e^{-2 s (alpha - shift)} with clamped underflow to exact zero."""
    expo = -2.0 * s * (np.asarray(alpha, dtype=float) - shift)
    return np.where(expo < _EXP_CLAMP, 0.0, np.exp(np.maximum(expo, _EXP_CLAMP)))


def weight_property_margins(cfg: CarlemanConfig, times: np.ndarray,
                            eta_values: np.ndarray) -> dict:
    """Empirical constants of the weight inequalities on a sample grid.

    The weights depend on x only through eta0(x), so the spatial samples are
    eta0 values in [0, sup eta0].  ``alpha_time_minimum_margin`` is
    min alpha(t, .) / alpha(theta, .) - 1: alpha is smallest at the window
    midpoint theta.  Passes iff every empirical constant is finite,
    inf xi * (t1-t0)^2 / 4 >= 1, sup xi / xi^3 (scaled) <= 1 and the alpha
    margin is >= 0, each up to rounding.
    """
    times = np.asarray(times, dtype=float)
    if times.min() <= cfg.t0 or times.max() >= cfg.t1:
        raise ValueError("sample times must lie strictly inside (t0, t1)")
    alpha, xi, dlog = weight_tables(cfg, eta_values, times)
    alpha_theta = weight_tables(cfg, eta_values, [0.5 * (cfg.t0 + cfg.t1)])[0][0]
    dalpha = -alpha * dlog
    dxi = -xi * dlog
    s, tau = cfg.s, cfg.tau

    c_quot = np.abs((tau / 2.0 - s * alpha) * dlog)
    # d/dt[(tau/2 - s alpha) dlog gamma]; gamma'' = -2
    gamma = gamma_value(times[:, None], cfg)
    dgamma = cfg.t0 + cfg.t1 - 2.0 * times[:, None]
    ddlog = (-2.0 * gamma - dgamma**2) / gamma**2
    d_quot = np.abs(-s * dalpha * dlog + (tau / 2.0 - s * alpha) * ddlog)

    window2 = (cfg.t1 - cfg.t0) ** 2
    report = {
        "sup_dalpha_over_xi2": float(np.max(np.abs(dalpha) / xi**2)),
        "sup_dxi_over_xi2": float(np.max(np.abs(dxi) / xi**2)),
        "inf_xi_times_window": float(np.min(xi) * window2 / 4.0),
        "sup_xi_over_xi3": float(np.max(xi / xi**3) * 16.0 / window2**2),
        "sup_c_quotient": float(np.max(c_quot / (s * xi**2))),
        "sup_d_quotient": float(np.max(d_quot / (s * xi**3))),
        "alpha_time_minimum_margin": float(np.min(alpha / alpha_theta - 1.0)),
    }
    finite = all(np.isfinite(v) for v in report.values())
    report["passed"] = bool(finite and report["inf_xi_times_window"] >= 1.0 - 1e-12
                            and report["sup_xi_over_xi3"] <= 1.0 + 1e-12
                            and report["alpha_time_minimum_margin"] >= -1e-12)
    return report


def sigma(xy: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sigma = a |grad eta0|^2 = 4 a |x|^2 for isotropic diffusivity."""
    xy = np.asarray(xy, dtype=float)
    return np.asarray(a, dtype=float) * 4.0 * np.sum(xy**2, axis=-1)


def sigma_bounds_report(mesh: Mesh, a: np.ndarray, beta: float) -> dict:
    """Check beta |grad eta0|^2 <= sigma <= C1 with C1 = 4 sup a."""
    xy = mesh.cell_xy
    sig = sigma(xy, a)
    grad2 = 4.0 * np.sum(xy**2, axis=-1)
    C1 = 4.0 * float(np.max(a))
    lower_margin = float(np.min(sig - beta * grad2))
    upper_margin = float(np.min(C1 - sig))
    return {"passed": bool(lower_margin >= -1e-12 and upper_margin >= -1e-12),
            "lower_margin": lower_margin, "upper_margin": upper_margin,
            "C1": C1}


# --- shared weighted-quadrature machinery ----------------------------------

@dataclass(frozen=True)
class DiffusionPair:
    """One (bulk, surface) diffusion pair with its assembled operators."""

    a: np.ndarray
    d: np.ndarray
    op_bulk: SparseOp
    op_surf: SparseOp

    @classmethod
    def from_fields(cls, mesh: Mesh, a, d) -> "DiffusionPair":
        a = np.asarray(a, dtype=float) if np.ndim(a) else np.full(mesh.n_cells, float(a))
        d = np.asarray(d, dtype=float) if np.ndim(d) else np.full(mesh.n_theta, float(d))
        return cls(a=a, d=d, op_bulk=assemble_bulk_diffusion(mesh, a),
                   op_surf=assemble_surface_diffusion(mesh, d))


def _window_weights(cfg: CarlemanConfig, mesh: Mesh, traj: Trajectory):
    """Window nodes and their weight tables, with the common exponent shift.

    Returns (k_idx, W, sxi, log_scale): W = e^{-2 s (alpha - alpha_ref)} and
    sxi = s xi on the (n_nodes, 1 + n_cells) grid, surface in column 0;
    alpha_ref is the grid minimum of alpha, and log_scale = -2 s alpha_ref
    restores absolute magnitudes.
    """
    k_idx = window_nodes(traj, cfg.t0, cfg.t1)
    eta, _ = eta0_and_gradient(mesh.cell_xy)
    alpha, xi, _ = weight_tables(cfg, np.append(0.0, eta), traj.times[k_idx])
    alpha_ref = float(alpha.min())
    return (k_idx, exp_weight(cfg.s, alpha, shift=alpha_ref), cfg.s * xi,
            -2.0 * cfg.s * alpha_ref)


def _grad_quadrature(mesh: Mesh, z: np.ndarray, z_gamma: np.ndarray,
                     w_cell: np.ndarray, w_surf: float) -> float:
    """Face-based quadrature of int w |grad z|^2 including boundary faces."""
    du = z[mesh.faces_a] - z[mesh.faces_b]
    wf = 0.5 * (w_cell[mesh.faces_a] + w_cell[mesh.faces_b])
    total = float(np.dot(mesh.faces_geom * wf, du**2))
    dub = z_gamma - z[mesh.bnd_cells]
    wb = 0.5 * (w_cell[mesh.bnd_cells] + w_surf)
    total += float(np.dot(mesh.bnd_geom * wb, dub**2))
    return total


def _energy(terms: dict) -> float:
    """I(tau): the four bulk terms, then the five surface terms."""
    return ((terms["bulk_time"] + terms["bulk_elliptic"]
             + terms["bulk_gradient"] + terms["bulk_zeroth"])
            + (terms["surf_time"] + terms["surf_elliptic"]
               + terms["surf_gradient"] + terms["surf_zeroth"]
               + terms["surf_conormal"]))


def _window_pass(tau: float, zb: np.ndarray, zg: np.ndarray, dt: float,
                 cfg: CarlemanConfig, mesh: Mesh, pair: DiffusionPair,
                 window: tuple, omega: np.ndarray | None = None) -> dict:
    """The nine weighted-norm terms of (zb, zg), one walk over the window.

    Bulk terms carry (s xi)^{tau-1}, lam^2 (s xi)^{tau+1}, lam^4 (s xi)^{tau+3};
    surface terms carry lam-powers (1, lam, lam^3) plus the lam (s xi)^{tau+1}
    conormal-flux term.  Endpoint nodes are excluded (the weight vanishes
    faster than any polynomial there).  Given the observation cells
    ``omega``, the right-hand-side terms of carleman_ratio come too.
    """
    k_idx, W, sxi, _ = window
    lam = cfg.lam
    areas, ds = mesh.cell_areas, mesh.surface_weights

    t_time = t_ell = t_grad = t_zero = 0.0
    s_time = s_ell = s_grad = s_zero = s_con = 0.0
    obs = res_b = res_s = 0.0
    for row, k in enumerate(k_idx):
        # weights row by row: an (n_nodes, n_cells) table per power would
        # add about 8 MB each to the peak memory at 64x128
        w_te = W[row] * sxi[row] ** (tau - 1.0)
        w_gr = W[row] * sxi[row] ** (tau + 1.0)
        w_z = W[row] * sxi[row] ** (tau + 3.0)
        dtz = (zb[k + 1] - zb[k - 1]) / (2.0 * dt)
        dtzg = (zg[k + 1] - zg[k - 1]) / (2.0 * dt)
        div_b = pair.op_bulk.apply(zb[k], zg[k])
        div_s = pair.op_surf.apply(zg[k])
        flux = conormal_flux(mesh, pair.a, zb[k], zg[k])
        dzg = np.roll(zg[k], -1) - zg[k]

        t_time += dt * float(np.dot(areas, w_te[1:] * dtz**2))
        t_ell += dt * float(np.dot(areas, w_te[1:] * div_b**2))
        t_grad += dt * lam**2 * _grad_quadrature(mesh, zb[k], zg[k],
                                                 w_gr[1:], w_gr[0])
        t_zero += dt * lam**4 * float(np.dot(areas, w_z[1:] * zb[k]**2))

        s_time += dt * float(np.dot(ds, w_te[0] * dtzg**2))
        s_ell += dt * float(np.dot(ds, w_te[0] * div_s**2))
        s_grad += dt * lam * float(np.sum(w_gr[0] * dzg**2 / ds[0]))
        s_zero += dt * lam**3 * float(np.dot(ds, w_z[0] * zg[k]**2))
        s_con += dt * lam * float(np.dot(ds, w_gr[0] * flux**2))

        if omega is not None:
            obs += dt * lam**4 * float(
                np.dot(areas[omega], w_z[1:][omega] * zb[k][omega] ** 2))
            w_res = W[row] * sxi[row] ** tau
            res_b += dt * float(np.dot(areas, w_res[1:] * (dtz - div_b)**2))
            res_s += dt * float(np.dot(ds, w_res[0]
                                       * (dtzg - div_s + flux)**2))

    terms = {
        "bulk_time": t_time, "bulk_elliptic": t_ell,
        "bulk_gradient": t_grad, "bulk_zeroth": t_zero,
        "surf_time": s_time, "surf_elliptic": s_ell,
        "surf_gradient": s_grad, "surf_zeroth": s_zero,
        "surf_conormal": s_con,
    }
    if omega is not None:
        terms.update(observation=obs, bulk_residual=res_b,
                     surface_residual=res_s)
    return terms


def _ratio_record(lhs: float, rhs: float, log_scale: float, parts: dict) -> dict:
    """An estimate's two sides and their ratio (inf or nan when rhs is 0)."""
    if rhs > 0:
        ratio = lhs / rhs
    else:
        ratio = math.inf if lhs > 0 else math.nan
    return {"lhs": lhs, "rhs": rhs, "ratio": ratio, "log_scale": log_scale,
            "parts": parts}


def carleman_ratio(tau: float, traj: Trajectory, cfg: CarlemanConfig,
                   mesh: Mesh, pair: DiffusionPair, regions: RegionSet) -> dict:
    """Left/right sides of the single-pair weighted estimate, constant-free.

    lhs = I_Omega + I_Gamma; rhs = lam^4 observation term + (s xi)^tau
    weighted residual terms of the heat operators.  Both sides share one
    exponent shift, so the ratio is shift-invariant.
    """
    window = _window_weights(cfg, mesh, traj)
    parts = _window_pass(tau, traj.z, traj.z_gamma, traj.dt, cfg, mesh, pair,
                         window, regions.omega)
    rhs = sum(parts[key] for key in
              ("observation", "bulk_residual", "surface_residual"))
    return _ratio_record(_energy(parts), rhs, window[3], parts)


def shifted_ratio(traj: Trajectory, sources: dict, cfg: CarlemanConfig,
                  mesh: Mesh, pair1: DiffusionPair, pair2: DiffusionPair,
                  regions: RegionSet, potentials) -> dict:
    """One-observation estimate for the coupled linear system with sources.

    lhs = lam^{-4+eps} [I(-3) of the y pair] + [I(0) of the z pair];
    rhs = s^4 lam^{4+eps} observation(z) + s^{-3} lam^{-4+eps} xi^{-3}
    weighted (f1, g1) terms + lam^{2 eps} (f2, g2) terms.  ``sources`` maps
    f1, f2 (per cell) and g1, g2 (per surface node) to time-independent
    arrays; a missing key is zero.  Refuses to run unless p21 and q21 sit
    above the coercivity floor.
    """
    floor = potentials.p0
    if floor <= 0 or potentials.p21.min() < floor or potentials.q21.min() < floor:
        raise ValueError(
            "shifted estimate needs p21, q21 >= p0 > 0 "
            f"(floor {floor}, min p21 {potentials.p21.min():.3g}, "
            f"min q21 {potentials.q21.min():.3g})")
    src = {}
    for key, n in (("f1", mesh.n_cells), ("f2", mesh.n_cells),
                   ("g1", mesh.n_theta), ("g2", mesh.n_theta)):
        val = sources.get(key)
        src[key] = np.zeros(n) if val is None else np.asarray(val, dtype=float)
        if src[key].shape != (n,):
            raise ValueError(
                f"source {key} has shape {src[key].shape}, expected ({n},)")

    k_idx, W, sxi, log_scale = window = _window_weights(cfg, mesh, traj)
    eps, lam, dt = cfg.epsilon, cfg.lam, traj.dt
    norms_y = _energy(_window_pass(-3.0, traj.y, traj.y_gamma, dt, cfg, mesh,
                                   pair1, window))
    norms_z = _energy(_window_pass(0.0, traj.z, traj.z_gamma, dt, cfg, mesh,
                                   pair2, window))
    lhs = lam ** (-4.0 + eps) * norms_y + norms_z

    # s^4 xi^4 = sxi^4 and s^-3 xi^-3 = sxi^-3; column 0 of a table is the
    # surface, so bulk cell i sits in column 1 + i
    areas, ds, cells = mesh.cell_areas, mesh.surface_weights, regions.omega
    z_obs = traj.z[np.ix_(k_idx, cells)]
    obs = np.sum((W[:, 1 + cells] * sxi[:, 1 + cells] ** 4.0 * z_obs**2)
                 @ areas[cells])
    src1 = np.append(ds @ src["g1"] ** 2, areas * src["f1"] ** 2)
    src2 = np.append(ds @ src["g2"] ** 2, areas * src["f2"] ** 2)
    parts = {"observation": lam ** (4.0 + eps) * dt * float(obs),
             "f1_g1": lam ** (-4.0 + eps) * dt
             * float(np.sum((W * sxi ** -3.0) @ src1)),
             "f2_g2": lam ** (2.0 * eps) * dt * float(np.sum(W @ src2))}
    rhs = parts["observation"] + parts["f1_g1"] + parts["f2_g2"]
    parts.update(norms_y=norms_y, norms_z=norms_z)
    return _ratio_record(lhs, rhs, log_scale, parts)


# --- weight invariant checks ------------------------------------------------

def weight_vanishing_report(cfg: CarlemanConfig, dt: float) -> dict:
    """Raw clamped weight e^{-2 s alpha} xi^k at the first/last interior nodes.

    For k in (-3, 0, 4), on the boundary and at the centre, and s above the
    default floor, these values drop below 1e-300 (they underflow to exact
    zero), realizing the endpoint degeneracy.
    """
    alpha, xi, _ = weight_tables(cfg, [0.0, 1.0], [cfg.t0 + dt, cfg.t1 - dt])
    worst = max(float(np.max(exp_weight(cfg.s, alpha) * xi**k))
                for k in (-3.0, 0.0, 4.0))
    return {"max_endpoint_weight": worst, "passed": bool(worst < 1e-300)}

