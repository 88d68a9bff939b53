"""Weighted-operator decompositions of the conjugated heat operators.

For psi = e^{-s alpha} xi^{tau/2} z the conjugated bulk operator splits as

    M1 psi = 2 lam (s xi + tau/2) A grad eta0 . grad psi + dt psi
    M2 psi = -lam^2 s^2 xi^2 sigma psi - div(A grad psi)
             + (tau/2 - s alpha)(dt log gamma) psi

and M1 psi + M2 psi equals the weighted right side

    f~ = e^{-s alpha} xi^{tau/2} Lz - lam (s xi + tau/2) div(A grad eta0) psi
         + [lam^2 tau^2/4 - s lam^2 xi (1 - tau)] sigma psi,

with the surface analogue N1 + N2 = e^{-s alpha} xi^{tau/2} L_Gamma(z_G, z).
Note the xi^{tau/2} factor on the right sides: the identities hold with the
same weight that defines psi (for tau = 0 this reduces to the plain
e^{-s alpha} form).  Everything here is evaluated from one symbolic
expression tree per component, so the residual tests the printed grouping,
not the chain rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import sympy as sp

from .carleman import CarlemanConfig
from .fields import (T, TH, X1, X2, SpaceTimeField, divergence_a_grad,
                     lambdify_set, sympy_expr)
from .forward import Trajectory, block_spans
from .geometry import Mesh


@dataclass
class Decomposition:
    """Relative residuals of the M/N splittings on a space-time grid."""

    residual_bulk: float
    residual_surface: float


def _rel_residual(total: np.ndarray, target: np.ndarray, parts: list) -> float:
    """L2 residual of total-target, relative to the component magnitude:
    nan when the components or their squares overflow, 0 when every
    component is zero."""
    num = float(np.sqrt(np.mean((total - target) ** 2)))
    scale = float(np.sqrt(np.mean(sum(np.abs(p) for p in parts) ** 2)))
    if not (math.isfinite(num) and math.isfinite(scale)):
        return math.nan
    return num / scale if scale > 0 else 0.0


# the weight exponent of the decompositions, kept symbolic so that one
# derivation serves every tau
TAU = sp.Symbol("tau", real=True)


def mn_decompositions(taus, z_field: SpaceTimeField, cfg: CarlemanConfig,
                      mesh: Mesh, a_expr=1, d_expr=1) -> list:
    """The M/N splitting residuals for a closed-form z at each tau of ``taus``.

    ``a_expr`` is the isotropic bulk diffusivity as an (x1, x2) expression,
    ``d_expr`` the surface diffusivity as a theta expression.  Each component
    keeps its own symbolic expression (derivatives of psi are taken
    symbolically, with tau a symbol, so the derivation is done once); the
    five bulk components and f~ are evaluated by one lambdified function of
    (t, x1, x2, tau), the five surface components and g by another of
    (t, theta, tau), with their common subexpressions computed once.  The
    components are still summed only after evaluation, so the returned
    residuals measure how exactly the printed splitting reproduces the
    weighted heat operators.  The grid is nine times spread over the inner
    70% of the window (t0, t1).
    """
    if not isinstance(z_field, SpaceTimeField):
        raise TypeError("mn_decomposition needs a closed-form field, "
                        "not a sampled trajectory")
    lam = sp.Float(cfg.lam)
    s = sp.Float(cfg.s)
    half_tau = TAU / 2
    t0, t1 = sp.Float(cfg.t0), sp.Float(cfg.t1)

    a = sympy_expr(a_expr)
    d = sympy_expr(d_expr)
    z = z_field.expr
    eta0 = 1 - X1**2 - X2**2
    gamma = (T - t0) * (t1 - T)
    K = sp.exp(2 * lam)   # e^{2 lam sup eta0}, sup eta0 = 1 on the unit disk
    E = sp.exp(lam * eta0)
    alpha = (K - E) / gamma
    xi = E / gamma
    psi = sp.exp(-s * alpha) * xi**half_tau * z
    sig = a * (sp.diff(eta0, X1) ** 2 + sp.diff(eta0, X2) ** 2)
    dlog = sp.diff(gamma, T) / gamma

    adv = a * (sp.diff(eta0, X1) * sp.diff(psi, X1)
               + sp.diff(eta0, X2) * sp.diff(psi, X2))

    bulk_parts = {
        "M11": 2 * lam * (s * xi + half_tau) * adv,
        "M12": sp.diff(psi, T),
        "M21": -(lam**2) * s**2 * xi**2 * sig * psi,
        "M22": -divergence_a_grad(a, psi),
        "M23": (half_tau - s * alpha) * dlog * psi,
    }
    Lz = sp.diff(z, T) - divergence_a_grad(a, z)
    f_tilde = (sp.exp(-s * alpha) * xi**half_tau * Lz
               - lam * (s * xi + half_tau) * divergence_a_grad(a, eta0) * psi
               + (lam**2 * TAU**2 / 4 - s * lam**2 * xi * (1 - TAU)) * sig * psi)

    circle = {X1: sp.cos(TH), X2: sp.sin(TH)}
    psi_g = psi.subs(circle)
    alpha_g = alpha.subs(circle)
    xi_g = xi.subs(circle)
    a_g = a.subs(circle)
    # A grad eta0 . nu = -2 a on the unit circle
    surf_parts = {
        "N11": sp.diff(psi_g, T),
        "N12": -lam * (s * xi_g + half_tau) * (-2 * a_g) * psi_g,
        "N21": -sp.diff(d * sp.diff(psi_g, TH), TH),
        "N22": (half_tau - s * alpha_g) * dlog * psi_g,
        "N23": (a * (X1 * sp.diff(psi, X1) + X2 * sp.diff(psi, X2))).subs(circle),
    }
    z_g = z.subs(circle)
    conormal_z = (a * (X1 * sp.diff(z, X1) + X2 * sp.diff(z, X2))).subs(circle)
    LGz = sp.diff(z_g, T) - sp.diff(d * sp.diff(z_g, TH), TH) + conormal_z
    g_sym = sp.exp(-s * alpha_g) * xi_g**half_tau * LGz

    w = cfg.t1 - cfg.t0
    times = np.linspace(cfg.t0 + 0.15 * w, cfg.t1 - 0.15 * w, 9)
    xy = mesh.cell_xy
    tt_b = times[:, None]
    x1, x2 = xy[:, 0][None, :], xy[:, 1][None, :]
    th = mesh.surface_theta[None, :]

    bulk_fn = lambdify_set((T, X1, X2, TAU), [*bulk_parts.values(), f_tilde])
    surf_fn = lambdify_set((T, TH, TAU), [*surf_parts.values(), g_sym])

    def on_grid(fn, space, tau):
        """``fn``'s values on the (times x space) grid, one time row at a
        time: the shared subexpressions live on one row, not the grid."""
        rows = [fn(t, *space, tau) for t in tt_b[:, None]]
        return [np.concatenate(vals) for vals in zip(*rows)]

    out = []
    for tau in taus:
        # a large tau overflows the weighted components: the non-finite
        # values give a nan residual, which fails the check, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            *bulk_vals, f_vals = on_grid(bulk_fn, (x1, x2), float(tau))
            *surf_vals, g_vals = on_grid(surf_fn, (th,), float(tau))
            out.append(Decomposition(
                residual_bulk=_rel_residual(sum(bulk_vals), f_vals,
                                            [*bulk_vals, f_vals]),
                residual_surface=_rel_residual(sum(surf_vals), g_vals,
                                               [*surf_vals, g_vals])))
    return out


def mn_decomposition(tau: float, z_field: SpaceTimeField, cfg: CarlemanConfig,
                     mesh: Mesh, a_expr=1, d_expr=1) -> Decomposition:
    """The M/N splitting residuals at one tau (see ``mn_decompositions``)."""
    return mn_decompositions([tau], z_field, cfg, mesh, a_expr, d_expr)[0]


def field_to_trajectory(z_field: SpaceTimeField, mesh: Mesh,
                        times: np.ndarray) -> Trajectory:
    """Sample a closed-form field into a trajectory (z pair only), with the
    step ``times[1] - times[0]``.  The y pair is a read-only zero view."""
    times = np.asarray(times, dtype=float)
    return _sampled(z_field, z_field.on_circle(mesh.R_domain), mesh, times,
                    float(times[1] - times[0]))


def field_blocks(z_field: SpaceTimeField, mesh: Mesh, times: np.ndarray,
                 dt: float):
    """``field_to_trajectory`` cut into the blocks of ``Trajectory.blocks``,
    each sampled when it is asked for: a sweep holds one block at a time.
    ``dt`` is the grid step; a grid cut out of a longer one needs it, since
    ``times[1] - times[0]`` need not equal the step bit for bit."""
    zg_field = z_field.on_circle(mesh.R_domain)
    for start, stop in block_spans(len(times)):
        yield _sampled(z_field, zg_field, mesh, times[start:stop], dt, start)


def _sampled(z_field: SpaceTimeField, zg_field, mesh: Mesh, times: np.ndarray,
             dt: float, start: int = 0) -> Trajectory:
    """The z pair at every time of ``times``, one lambdified call per field."""
    z = z_field.value(times[:, None], mesh.cell_xy)
    zg = zg_field.value(times[:, None], mesh.surface_theta)
    return Trajectory(times=times, y=np.broadcast_to(0.0, z.shape), z=z,
                      y_gamma=np.broadcast_to(0.0, zg.shape), z_gamma=zg,
                      dt=dt, start=start)
