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
import scipy.sparse as sp

from .geometry import Mesh, RegionSet
from .operators import SparseOp, assemble_bulk_diffusion, \
    assemble_surface_diffusion, conormal_flux
from .forward import Trajectory, node_energies, require_window, row_sums, \
    source_array, window_rows

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


def weight_factors(cfg: CarlemanConfig, eta) -> tuple:
    """The spatial factors of the weights: alpha = (K - E) / gamma and
    xi = E / gamma, with E = e^{lam eta} and K = e^{2 lam sup eta0}."""
    E = np.exp(cfg.lam * np.asarray(eta, dtype=float))
    return math.exp(2.0 * cfg.lam) - E, E


def weight_tables(cfg: CarlemanConfig, eta, times) -> tuple:
    """alpha, xi and dlog gamma = gamma'/gamma on the (times x eta) grid.

    The weights depend on x only through eta = eta0(x); the surface is the
    eta = 0 column.  The three broadcast to shape (n_times, *eta.shape).
    """
    eta = np.asarray(eta, dtype=float)
    tt = np.asarray(times, dtype=float).reshape((-1,) + (1,) * eta.ndim)
    gamma = gamma_value(tt, cfg)
    num_alpha, E = weight_factors(cfg, eta)
    return num_alpha / gamma, E / gamma, (cfg.t0 + cfg.t1 - 2.0 * tt) / gamma


def weights(t: float, xy: np.ndarray, cfg: CarlemanConfig) -> dict:
    """Closed-form spatial gradients of the weights at time t and points xy.

    Returns grad_alpha and grad_xi; the identities grad alpha = -grad xi =
    -lam xi grad eta0 hold by construction.  The values and the time
    derivatives (-alpha and -xi times dlog gamma) are ``weight_tables``'.
    """
    if not (cfg.t0 < t < cfg.t1):
        raise ValueError(f"t={t} outside the open window ({cfg.t0}, {cfg.t1})")
    eta, grad_eta = eta0_and_gradient(xy)
    xi = weight_tables(cfg, eta, [t])[1][0]
    grad_xi = cfg.lam * xi[..., None] * grad_eta
    return {"grad_alpha": -grad_xi, "grad_xi": grad_xi}


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
    s = cfg.s

    # (tau/2 - s alpha) dlog gamma at tau = 0 and its d/dt; gamma'' = -2
    c_quot = np.abs(s * alpha * dlog)
    gamma = gamma_value(times[:, None], cfg)
    dgamma = cfg.t0 + cfg.t1 - 2.0 * times[:, None]
    ddlog = (-2.0 * gamma - dgamma**2) / gamma**2
    d_quot = np.abs(-s * dalpha * dlog - s * alpha * ddlog)

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
    op_bulk: SparseOp
    op_surf: SparseOp

    @classmethod
    def from_fields(cls, mesh: Mesh, a, d) -> "DiffusionPair":
        a = np.asarray(a, dtype=float) if np.ndim(a) else np.full(mesh.n_cells, float(a))
        d = np.asarray(d, dtype=float) if np.ndim(d) else np.full(mesh.n_theta, float(d))
        return cls(a=a, op_bulk=assemble_bulk_diffusion(mesh, a),
                   op_surf=assemble_surface_diffusion(mesh, d))


# Terms of one field pair's weighted norm I(tau), in the order of the parts
# records: name -> (power of s xi in its weight, relative to tau; power of
# lam).  Bulk terms carry (s xi)^{tau-1}, lam^2 (s xi)^{tau+1}, lam^4
# (s xi)^{tau+3}; surface terms carry lam-powers (1, lam, lam^3) plus the
# lam (s xi)^{tau+1} conormal-flux term.
_NORM_TERMS = {
    "bulk_time": (-1.0, 0.0), "bulk_elliptic": (-1.0, 0.0),
    "bulk_gradient": (1.0, 2.0), "bulk_zeroth": (3.0, 4.0),
    "surf_time": (-1.0, 0.0), "surf_elliptic": (-1.0, 0.0),
    "surf_gradient": (1.0, 1.0), "surf_zeroth": (3.0, 3.0),
    "surf_conormal": (1.0, 1.0),
}
# the norm terms that have a bulk part (bulk_gradient has a surface part too)
_NORM_BULK = [0, 1, 2, 3]
# carleman_ratio's right-hand side: observation, then the residuals
_RHS_TERMS = {"observation": (3.0, 4.0), "bulk_residual": (0.0, 0.0),
              "surface_residual": (0.0, 0.0)}


@dataclass(frozen=True)
class _Levels:
    """The distinct eta0 values of a mesh's cells, with its cell and face
    quadratures folded onto them.

    The weights see a cell only through eta0 (``weight_factors``), so each
    bulk term is summed per level before it is weighted.  ``eta`` holds the
    surface (eta0 = 0) first, then the levels, each level's exact float.
    ``areas`` (levels x cells) sums area-weighted cell values per level;
    ``faces`` and ``bnd`` (levels x interior or boundary faces) give half
    of each face's geometry factor to the level of each side.
    """

    eta: np.ndarray
    areas: sp.csr_matrix
    faces: sp.csr_matrix
    bnd: sp.csr_matrix

    @classmethod
    def of(cls, mesh: Mesh) -> "_Levels":
        require_unit_disk(mesh)
        eta, index = np.unique(eta0_and_gradient(mesh.cell_xy)[0],
                               return_inverse=True)
        n, n_faces, bnd = eta.size, mesh.faces_a.size, mesh.bnd_cells
        # sparse (levels x items) operators; entries at one position add up
        return cls(
            eta=np.append(0.0, eta),
            areas=sp.csr_matrix((mesh.cell_areas, (index, np.arange(mesh.n_cells))),
                                shape=(n, mesh.n_cells)),
            faces=sp.csr_matrix(
                (np.tile(0.5 * mesh.faces_geom, 2),
                 (np.concatenate([index[mesh.faces_a], index[mesh.faces_b]]),
                  np.tile(np.arange(n_faces), 2))), shape=(n, n_faces)),
            bnd=sp.csr_matrix((0.5 * mesh.bnd_geom,
                               (index[bnd], np.arange(bnd.size))),
                              shape=(n, bnd.size)))

    def on(self, cells: np.ndarray) -> sp.csr_matrix:
        """``areas`` with only the columns of ``cells`` kept."""
        keep = np.zeros(self.areas.shape[1])
        keep[cells] = 1.0
        return self.areas.multiply(keep).tocsr()


def _per_level(op: sp.csr_matrix, rows: np.ndarray) -> np.ndarray:
    """``op`` applied to each row of a (block x items) array, one row per
    product: scipy would copy the transposed block of a multi-vector
    product into item-major order first."""
    out = np.empty((len(rows), op.shape[0]))
    for k, row in enumerate(rows):
        out[k] = op @ row
    return out


def _gradient_energy(mesh: Mesh, levels: _Levels, z: np.ndarray,
                     z_gamma: np.ndarray):
    """Face energies geom |du|^2, half to each side, summed per level, and
    the surface total, so that int w |grad z|^2 = w_levels . levels +
    w_surf surf (interior faces and the boundary faces to the matched
    surface nodes).  ``z`` and ``z_gamma`` are (block x n) arrays."""
    # face-major, so that the fold reads it without a transposed copy
    du2 = np.empty((mesh.faces_a.size, len(z)))
    for k, row in enumerate(z):
        np.subtract(row[mesh.faces_a], row[mesh.faces_b], out=du2[:, k])
    grad_levels = (levels.faces @ np.square(du2, out=du2)).T
    del du2
    db2 = np.square(z_gamma - z[:, mesh.bnd_cells])
    grad_levels += _per_level(levels.bnd, db2)
    return grad_levels, 0.5 * row_sums(db2, mesh.bnd_geom)


def _pair_quantities(zb: np.ndarray, zg: np.ndarray, dt: float, mesh: Mesh,
                     pair: DiffusionPair, levels: _Levels,
                     obs: sp.csr_matrix | None = None) -> tuple:
    """Surface numbers and bulk level sums of the nine norm terms at the
    interior rows of the consecutive states ``zb`` and ``zg``, all at once.

    Returns (surf, bulk): surf (nodes x terms) holds one number per term
    (0 where a term has none), bulk (nodes x terms _NORM_BULK x levels) the
    level sums of the bulk parts, cell quadrature weights included.  Given
    ``obs``, the observation cells' areas folded onto the levels, the three
    right-hand-side terms of carleman_ratio follow.  Each bulk term is
    squared in place and folded onto the levels as soon as it is formed,
    so the block-sized arrays of the terms already folded are freed.
    """
    ds = mesh.surface_weights
    z, z_g = zb[1:-1], zg[1:-1]
    dtzg = (zg[2:] - zg[:-2]) / (2.0 * dt)
    div_s = pair.op_surf.apply(z_g)
    flux = conormal_flux(mesh, pair.a, z, z_g)
    dzg = np.roll(z_g, -1, axis=1) - z_g
    grad_levels, grad_surf = _gradient_energy(mesh, levels, z, z_g)
    zero = np.zeros(len(z))
    surf = [zero, zero, grad_surf, zero, node_energies(dtzg, ds),
            node_energies(div_s, ds), np.sum(dzg**2, axis=1) / ds[0],
            node_energies(z_g, ds), node_energies(flux, ds)]

    def squared(rows):
        """The level sums of ``rows`` squared in place."""
        return _per_level(levels.areas, np.square(rows, out=rows))

    bulk = np.empty((len(z), len(_NORM_BULK) + (0 if obs is None else 2),
                     levels.areas.shape[0]))
    dtz = zb[2:] - zb[:-2]
    dtz /= 2.0 * dt
    div_b = pair.op_bulk.apply(z, z_g)
    if obs is not None:
        surf += [zero, zero, node_energies(dtzg - div_s + flux, ds)]
        bulk[:, 5] = squared(dtz - div_b)
    bulk[:, 0] = squared(dtz)
    bulk[:, 1] = squared(div_b)
    del dtz, div_b
    bulk[:, 2] = grad_levels
    z2 = np.square(z)
    bulk[:, 3] = _per_level(levels.areas, z2)
    if obs is not None:
        bulk[:, 4] = _per_level(obs, z2)
    return np.stack(surf, axis=1), bulk


def _window_sums(blocks, names: tuple, cfgs: list, levels: _Levels, powers,
                 bulk_terms: list, quantities) -> list:
    """Weighted window sums of every term at every config.

    ``blocks`` are consecutive blocks of states, such as ``march`` and
    ``Trajectory.blocks`` cut them, and ``quantities(dt, *tables)`` gives,
    at the interior rows of the named tables of a block's ``window_rows``
    (one group), the surface numbers q (nodes x terms) and the bulk level
    sums b (nodes x terms ``bulk_terms`` x levels).  Every per-node
    quantity depends only on its node's rows, so the sums do not depend on
    how the blocks are cut.  Term j at a config is

        dt sum_k ( w_j[k, surface] q_j(k) + sum_l w_j[k, l] b_j(k)_l ),
        w_j = e^{-2 s (alpha - alpha_ref)} (s xi)^{powers[j]},

    over the window nodes k and the eta0 levels l, where alpha_ref, the
    minimum of alpha over the window grid, makes every config's weights
    finite (the estimates are ratios, so they do not depend on it).
    Endpoint nodes are excluded: the weight vanishes faster than any
    polynomial there.  Each config weighs the window a group at a time:
    alpha = (K - E) / gamma on a (group x [surface, levels]) table, and
    (s xi)^m = (s E)^m gamma^{-m}; every weight is elementwise, so its bits
    do not depend on the groups.  Returns (sums, log_scale) per config,
    log_scale = -2 s alpha_ref.
    """
    if len({(cfg.t0, cfg.t1) for cfg in cfgs}) > 1:
        raise ValueError("the configs of one sweep must share the window (t0, t1)")
    if not cfgs:
        return []
    t0, t1 = cfgs[0].t0, cfgs[0].t1
    groups, dt = [], 0.0
    for block in blocks:
        rows = window_rows(block, t0, t1)
        if rows is not None:
            dt = rows.dt
            groups.append((rows.times[1:-1], *quantities(
                dt, *(getattr(rows, name) for name in names))))
    require_window(len(groups), t0, t1)
    powers = np.asarray(powers, dtype=float)

    out = []
    for cfg in cfgs:
        num_alpha, E = weight_factors(cfg, levels.eta)
        gammas = [gamma_value(times, cfg)[:, None] for times, _, _ in groups]
        # the grid minimum of alpha: division is monotone in each operand
        alpha_ref = float(num_alpha.min() / max(g.max() for g in gammas))
        spatial = (cfg.s * E) ** powers[:, None]
        vals = []
        for (_, q, b), gamma in zip(groups, gammas):
            w = exp_weight(cfg.s, num_alpha / gamma, shift=alpha_ref)
            v = w[:, :1] * spatial[:, 0] * q
            v[:, bulk_terms] += np.sum(b * w[:, None, 1:]
                                       * spatial[bulk_terms, 1:], axis=2)
            vals.append(v * gamma ** -powers)
        out.append((dt * np.sum(np.concatenate(vals), axis=0),
                    -2.0 * cfg.s * alpha_ref))
    return out


def _energy(terms: dict) -> float:
    """I(tau): the four bulk terms, then the five surface terms."""
    return ((terms["bulk_time"] + terms["bulk_elliptic"]
             + terms["bulk_gradient"] + terms["bulk_zeroth"])
            + (terms["surf_time"] + terms["surf_elliptic"]
               + terms["surf_gradient"] + terms["surf_zeroth"]
               + terms["surf_conormal"]))


def _ratio_record(lhs: float, rhs: float, log_scale: float, parts: dict) -> dict:
    """An estimate's two sides and their ratio (inf or nan when rhs is 0)."""
    if rhs > 0:
        ratio = lhs / rhs
    else:
        ratio = math.inf if lhs > 0 else math.nan
    return {"lhs": lhs, "rhs": rhs, "ratio": ratio, "log_scale": log_scale,
            "parts": parts}


def _norm_parts(sums, lam: float, terms: dict) -> dict:
    """Window sums of ``terms`` times their powers of lam, as floats."""
    return {name: float(val * lam**lam_pow)
            for val, (name, (_, lam_pow)) in zip(sums, terms.items())}


def carleman_sweep(tau: float, blocks, cfgs: list, mesh: Mesh,
                   pair: DiffusionPair, regions: RegionSet) -> list:
    """carleman_ratio at each config of ``cfgs``, from one walk of the window.

    ``blocks`` yields the field's consecutive blocks of states, such as
    ``march`` or ``Trajectory.blocks`` give them; only the z pair is read.
    The field quantities at each window node (sparse applies, fluxes,
    gradient energies) are computed once, summed per eta0 level, and
    weighted for every config.
    """
    terms = {**_NORM_TERMS, **_RHS_TERMS}
    n = len(_NORM_TERMS)
    levels = _Levels.of(mesh)
    obs_levels = levels.on(regions.omega)
    sums = _window_sums(
        blocks, ("z", "z_gamma"), cfgs, levels,
        [tau + p for p, _ in terms.values()],
        _NORM_BULK + [n, n + 1],   # observation and bulk_residual
        lambda dt, zb, zg: _pair_quantities(zb, zg, dt, mesh, pair, levels,
                                            obs_levels))
    records = []
    for cfg, (vals, log_scale) in zip(cfgs, sums):
        parts = _norm_parts(vals, cfg.lam, terms)
        rhs = sum(parts[key] for key in _RHS_TERMS)
        records.append(_ratio_record(_energy(parts), rhs, log_scale, parts))
    return records


def carleman_ratio(tau: float, traj: Trajectory, cfg: CarlemanConfig,
                   mesh: Mesh, pair: DiffusionPair, regions: RegionSet) -> dict:
    """Left/right sides of the single-pair weighted estimate, constant-free.

    lhs = I_Omega + I_Gamma; rhs = lam^4 observation term + (s xi)^tau
    weighted residual terms of the heat operators.  Both sides share one
    exponent shift, so the ratio is shift-invariant.
    """
    return carleman_sweep(tau, traj.blocks(), [cfg], mesh, pair, regions)[0]


def require_unit_disk(mesh: Mesh) -> None:
    """Refuse a mesh other than the unit disk, where the closed-form
    weights hold: they take eta0 = 1 - |x|^2 = 0 on the boundary circle."""
    if mesh.R_domain != 1.0:
        raise ValueError(
            "the Carleman weights are closed forms on the unit disk: "
            f"mesh.radius must be 1.0, got {mesh.R_domain}")


def require_p0_floor(potentials) -> None:
    """Refuse potentials that miss the one-observation estimate's
    coercivity condition p21, q21 >= p0 > 0."""
    if not potentials.stability_admissible():
        raise ValueError(
            "shifted estimate needs p21, q21 >= p0 > 0 "
            f"(floor {potentials.p0}, min p21 {potentials.p21.min():.3g}, "
            f"min q21 {potentials.q21.min():.3g})")


def shifted_sweep(blocks, sources: dict, cfgs: list, mesh: Mesh,
                  pair1: DiffusionPair, pair2: DiffusionPair,
                  regions: RegionSet, potentials) -> list:
    """shifted_ratio at each config of ``cfgs``, from one walk of the window.

    ``blocks`` yields the solution's consecutive blocks of states; a
    ``march`` can feed it as it steps.  Each window node's quantities of the
    y pair (tau = -3), the z pair (tau = 0), the observation and the sources
    are computed once, summed per eta0 level, and weighted for every config.
    """
    require_p0_floor(potentials)
    src = {key: source_array(key, sources.get(key), mesh)
           for key in ("f1", "f2", "g1", "g2")}
    levels = _Levels.of(mesh)

    # terms: the y pair's nine, the z pair's nine, then the observation
    # (s^4 xi^4 = (s xi)^4), f1_g1 (s^-3 xi^-3 = (s xi)^-3) and f2_g2
    offsets = [p for p, _ in _NORM_TERMS.values()]
    powers = [p - 3.0 for p in offsets] + offsets + [4.0, -3.0, 0.0]
    n = len(_NORM_TERMS)
    bulk_terms = [*_NORM_BULK, *(n + j for j in _NORM_BULK), 2 * n, 2 * n + 1,
                  2 * n + 2]
    ds = mesh.surface_weights
    obs_levels = levels.on(regions.omega)
    src_surf = np.array([0.0, ds @ src["g1"] ** 2, ds @ src["g2"] ** 2])
    src_bulk = np.stack([levels.areas @ src["f1"] ** 2,
                         levels.areas @ src["f2"] ** 2])

    def quantities(dt, yb, ygb, zb, zgb):
        surf_y, bulk_y = _pair_quantities(yb, ygb, dt, mesh, pair1, levels)
        surf_z, bulk_z = _pair_quantities(zb, zgb, dt, mesh, pair2, levels)
        nodes = len(zb) - 2
        return (np.hstack([surf_y, surf_z, np.tile(src_surf, (nodes, 1))]),
                np.hstack([bulk_y, bulk_z,
                           _per_level(obs_levels, zb[1:-1] ** 2)[:, None],
                           np.tile(src_bulk, (nodes, 1, 1))]))

    records = []
    for cfg, (vals, log_scale) in zip(cfgs, _window_sums(
            blocks, ("y", "y_gamma", "z", "z_gamma"), cfgs, levels, powers,
            bulk_terms, quantities)):
        eps, lam = cfg.epsilon, cfg.lam
        norms_y = _energy(_norm_parts(vals[:n], lam, _NORM_TERMS))
        norms_z = _energy(_norm_parts(vals[n:2 * n], lam, _NORM_TERMS))
        obs, f1g1, f2g2 = vals[2 * n:]
        parts = {"observation": lam ** (4.0 + eps) * float(obs),
                 "f1_g1": lam ** (-4.0 + eps) * float(f1g1),
                 "f2_g2": lam ** (2.0 * eps) * float(f2g2)}
        rhs = parts["observation"] + parts["f1_g1"] + parts["f2_g2"]
        parts.update(norms_y=norms_y, norms_z=norms_z)
        records.append(_ratio_record(lam ** (-4.0 + eps) * norms_y + norms_z,
                                     rhs, log_scale, parts))
    return records


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
    return shifted_sweep(traj.blocks(), sources, [cfg], mesh, pair1, pair2,
                         regions, potentials)[0]


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
    return {"passed": bool(worst < 1e-300)}

