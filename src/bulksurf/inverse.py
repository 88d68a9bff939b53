"""Coefficient recovery from one interior observation, plus the stability harness.

Unknowns are the four coupling coefficients (p13, q13, p21, q21) on a coarse
piecewise-constant parametrization (bulk patches, surface arcs).  The
gradient is the exact discrete adjoint of the IMEX stepping: p21/q21 enter
through the implicit matrix, p13/q13 through the explicit reaction term, and
the reverse sweep reuses the forward LU factorization via transposed solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .forward import (
    ObservationRecord,
    SemilinearSystem,
    SolverError,
    Trajectory,
    observe,
)
from .geometry import Mesh, RegionSet
from .model import (
    DiffusionSpec,
    InitialData,
    Nonlinearity,
    PotentialSet,
    validate_assumption_I,
    validate_assumption_II,
)

_MAX_CHECKPOINT_FLOATS = 5e7
_MAX_DIFFERENCE_PASSES = 8


@dataclass(frozen=True)
class PatchBasis:
    """Piecewise-constant patches: radial x angular in the bulk, arcs on Gamma."""

    n_arcs: int
    bulk: sp.csr_matrix       # (n_cells, n_bulk_patches) indicator
    surf: sp.csr_matrix       # (n_theta, n_arcs) indicator
    bulk_measure: np.ndarray  # patch areas
    surf_measure: np.ndarray  # arc lengths

    @property
    def n_bulk(self) -> int:
        return self.bulk.shape[1]


def build_patch_basis(mesh: Mesh, n_patch_r: int = 4, n_patch_theta: int = 4,
                      n_arcs: int = 8) -> PatchBasis:
    r = mesh.cell_r
    th = np.mod(mesh.cell_theta, 2 * np.pi)
    ir = np.minimum((r / mesh.R_domain * n_patch_r).astype(int), n_patch_r - 1)
    it = np.minimum((th / (2 * np.pi) * n_patch_theta).astype(int),
                    n_patch_theta - 1)
    patch = ir * n_patch_theta + it
    nb = n_patch_r * n_patch_theta
    bulk = sp.csr_matrix((np.ones(mesh.n_cells),
                          (np.arange(mesh.n_cells), patch)),
                         shape=(mesh.n_cells, nb))
    ths = np.mod(mesh.surface_theta, 2 * np.pi)
    arc = np.minimum((ths / (2 * np.pi) * n_arcs).astype(int), n_arcs - 1)
    surf = sp.csr_matrix((np.ones(mesh.n_theta),
                          (np.arange(mesh.n_theta), arc)),
                         shape=(mesh.n_theta, n_arcs))
    if (np.asarray(bulk.sum(axis=0)).ravel() == 0).any():
        raise ValueError("empty bulk patch: mesh too coarse for this patch grid")
    if (np.asarray(surf.sum(axis=0)).ravel() == 0).any():
        raise ValueError("empty surface arc: mesh too coarse for this arc count")
    return PatchBasis(
        n_arcs=n_arcs, bulk=bulk, surf=surf,
        bulk_measure=bulk.T @ mesh.cell_areas,
        surf_measure=surf.T @ mesh.surface_weights)


_COEFF_NAMES = ("p13", "p21", "q13", "q21")


@dataclass(frozen=True)
class CoefficientVector:
    """Patch values of the four coupling coefficients with projection bounds."""

    p13: np.ndarray
    p21: np.ndarray
    q13: np.ndarray
    q21: np.ndarray
    free: tuple = _COEFF_NAMES
    R_bound: float = 10.0
    p0: float = 0.0

    def project(self) -> "CoefficientVector":
        """Clip into the admissible box; p21/q21 respect the p0 floor."""
        out = {}
        for name in _COEFF_NAMES:
            v = np.clip(getattr(self, name), -self.R_bound, self.R_bound)
            if name in ("p21", "q21"):
                v = np.maximum(v, self.p0)
            out[name] = v
        return replace(self, **out)

    def pack(self) -> np.ndarray:
        return np.concatenate([getattr(self, n) for n in self.free])

    def unpack(self, x: np.ndarray) -> "CoefficientVector":
        out = {}
        pos = 0
        for name in self.free:
            n = len(getattr(self, name))
            out[name] = np.asarray(x[pos:pos + n], dtype=float)
            pos += n
        if pos != len(x):
            raise ValueError("flat vector length mismatch")
        return replace(self, **out)

    def bounds(self) -> list[tuple[float, float]]:
        out = []
        for name in self.free:
            lo = self.p0 if name in ("p21", "q21") else -self.R_bound
            for _ in range(len(getattr(self, name))):
                out.append((lo, self.R_bound))
        return out

    def l2_distance(self, other: "CoefficientVector", basis: PatchBasis) -> float:
        """Measure-weighted distance over all four components."""
        total = 0.0
        for name in _COEFF_NAMES:
            w = basis.bulk_measure if name.startswith("p") else basis.surf_measure
            d = getattr(self, name) - getattr(other, name)
            total += float(np.dot(w, d * d))
        return math.sqrt(total)


@dataclass
class InverseProblem:
    """Twin-experiment context: mesh, base model, window, and parametrization."""

    mesh: Mesh
    regions: RegionSet
    diffusion: DiffusionSpec
    base_potentials: PotentialSet   # known coefficients; coupling ones overridden
    nl_f: Nonlinearity
    nl_g: Nonlinearity
    init: InitialData
    t_end: float
    dt: float
    basis: PatchBasis
    r_floor: float = 1.0       # Assumption-I floor for the reference y pair
    r1_floor: float = 0.05     # Assumption-II floor for |f|, |g| at theta

    def __post_init__(self):
        if self.regions.t1 > self.t_end + 1e-12:
            raise ValueError(f"window end t1={self.regions.t1} exceeds "
                             f"t_end={self.t_end}")
        # every solve of this layer stops at the window end t1
        n_nodes = math.ceil(self.regions.t1 / self.dt) + 1
        n_dof = 2 * (self.mesh.n_cells + self.mesh.n_theta)
        if n_nodes * n_dof > _MAX_CHECKPOINT_FLOATS:
            raise ValueError(
                "checkpoint storage exhausted: reduce t1/dt or the mesh")
        # every coefficient set shares this system's diffusion part
        self._base_system = SemilinearSystem(
            self.mesh, self.diffusion, self.base_potentials,
            nl_f=self.nl_f, nl_g=self.nl_g)

    def patch_average(self, field: np.ndarray, where: str) -> np.ndarray:
        """Measure-weighted average of a full field per patch/arc."""
        if where == "bulk":
            P, w = self.basis.bulk, self.mesh.cell_areas
        else:
            P, w = self.basis.surf, self.mesh.surface_weights
        return (P.T @ (w * field)) / (P.T @ w)

    def coefficient_vector(self, p13=None, p21=None, q13=None, q21=None,
                           free=("p13", "q21")) -> CoefficientVector:
        """Patch coefficients; unspecified names default to the base model."""
        pot = self.base_potentials

        def patch_vals(v, n, default_field, where):
            if v is None:
                return self.patch_average(default_field, where)
            arr = np.full(n, float(v)) if np.ndim(v) == 0 else np.asarray(v, dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"expected {n} patch values, got {arr.shape}")
            return arr

        return CoefficientVector(
            p13=patch_vals(p13, self.basis.n_bulk, pot.p13, "bulk"),
            p21=patch_vals(p21, self.basis.n_bulk, pot.p21, "bulk"),
            q13=patch_vals(q13, self.basis.n_arcs, pot.q13, "surf"),
            q21=patch_vals(q21, self.basis.n_arcs, pot.q21, "surf"),
            free=tuple(free), R_bound=pot.R_bound, p0=pot.p0)

    def to_potentials(self, coeffs: CoefficientVector) -> PotentialSet:
        return self.base_potentials.with_fields(
            p13=self.basis.bulk @ coeffs.p13,
            p21=self.basis.bulk @ coeffs.p21,
            q13=self.basis.surf @ coeffs.q13,
            q21=self.basis.surf @ coeffs.q21)

    def system_for(self, coeffs: CoefficientVector) -> SemilinearSystem:
        return self._base_system.with_potentials(self.to_potentials(coeffs))

    def simulate(self, coeffs: CoefficientVector) -> Trajectory:
        """The solve up to the window end t1: the observation reads nothing
        later."""
        return self.system_for(coeffs).solve(self.init, self.regions.t1,
                                             self.dt)

    def observation(self, traj: Trajectory) -> ObservationRecord:
        return observe(traj, self.regions, self.mesh)

    def validate_assumptions(self, coeffs: CoefficientVector,
                             traj: Trajectory | None = None) -> dict:
        pot = self.to_potentials(coeffs)
        rep1 = validate_assumption_I(pot, pot, self.nl_f, self.nl_g, self.init,
                                     r=self.r_floor, p0=pot.p0)
        if traj is None:
            traj = self.simulate(coeffs)
        rep2 = validate_assumption_II(self.nl_f, self.nl_g, traj,
                                      self.regions.theta, self.r1_floor)
        return {"assumption_I": rep1, "assumption_II": rep2,
                "passed": rep1.passed and rep2.passed}

    # -- objective / adjoint -------------------------------------------------

    def _misfit(self, rec: ObservationRecord, data: ObservationRecord) -> float:
        d = rec.values - data.values
        return 0.5 * float((d**2 @ rec.cell_weights).sum() * rec.dt)

    def _reg_weights(self, coeffs: CoefficientVector) -> np.ndarray:
        parts = []
        for name in coeffs.free:
            w = (self.basis.bulk_measure if name.startswith("p")
                 else self.basis.surf_measure)
            parts.append(w)
        return np.concatenate(parts)

    def objective(self, coeffs: CoefficientVector, data: ObservationRecord) -> float:
        """The observation misfit, without regularisation."""
        return self._misfit(self.observation(self.simulate(coeffs)), data)

    def objective_and_gradient(self, coeffs: CoefficientVector,
                               data: ObservationRecord, reg_weight: float = 0.0,
                               prior: CoefficientVector | None = None
                               ) -> tuple[float, np.ndarray]:
        """Exact gradient of the discrete objective via the adjoint sweep.

        The sweep starts at the window end t1, where ``simulate`` stops.
        """
        system = self.system_for(coeffs)
        traj = system.solve(self.init, self.regions.t1, self.dt)
        rec = self.observation(traj)
        J = self._misfit(rec, data)

        sy, sz, syg, szg = system.blocks
        N = traj.n_nodes - 1
        dt = self.dt
        lu = system.factorization(dt)
        M = system.mass
        pot = system.potentials

        # gradient of the misfit wrt each state: z on the omega cells only
        res = (rec.values - data.values) * rec.cell_weights[None, :] * dt
        G = np.zeros((N + 1, rec.cell_indices.size))
        for row, k in enumerate(rec.time_indices):
            G[k + 1] += res[row] / (2 * dt)
            G[k - 1] -= res[row] / (2 * dt)
        z_obs = sz.start + rec.cell_indices

        # Sum over the sweep of the adjoint-times-parameter-Jacobian fields
        # for step n -> n+1; weighted by M and reduced to patches once below.
        # Implicit side: dS/dp21 x^{n+1} = -area * y^{n+1} in the z rows.
        # Explicit side: -mu^T M dE/dc at x^n.
        acc = np.zeros(system.n_dof)

        def accumulate(mu, n):
            acc[sy] += mu[sy] * self.nl_f(traj.y[n], traj.z[n])
            acc[sz] += mu[sz] * traj.y[n + 1]
            acc[syg] += mu[syg] * self.nl_g(traj.y_gamma[n], traj.z_gamma[n])
            acc[szg] += mu[szg] * traj.y_gamma[n + 1]

        def jac_expl_T(mu, n):
            """(dE/dx)^T (M mu) for the explicit reaction at state n."""
            out = np.zeros(system.n_dof)
            fy, fz = self.nl_f.partials(traj.y[n], traj.z[n])
            gy, gz = self.nl_g.partials(traj.y_gamma[n], traj.z_gamma[n])
            wy = M[sy] * mu[sy]
            wyg = M[syg] * mu[syg]
            out[sy] += pot.p13 * fy * wy
            out[sz] += pot.p13 * fz * wy
            out[syg] += pot.q13 * gy * wyg
            out[szg] += pot.q13 * gz * wyg
            return out

        rhs = np.zeros(system.n_dof)
        rhs[z_obs] = -G[N]
        mu = lu.solve(rhs, trans="T")
        accumulate(mu, N - 1)
        for m in range(N - 1, 0, -1):
            rhs = (M / dt) * mu
            rhs[z_obs] -= G[m]
            rhs += jac_expl_T(mu, m)
            mu = lu.solve(rhs, trans="T")
            accumulate(mu, m - 1)

        w = M * acc
        bulk_T, surf_T = self.basis.bulk.T, self.basis.surf.T
        grads = {"p13": -(bulk_T @ w[sy]), "p21": -(bulk_T @ w[sz]),
                 "q13": -(surf_T @ w[syg]), "q21": -(surf_T @ w[szg])}
        flat = np.concatenate([grads[name] for name in coeffs.free])
        if reg_weight > 0 and prior is not None:
            d = coeffs.pack() - prior.pack()
            w = self._reg_weights(coeffs)
            J += 0.5 * reg_weight * float(np.dot(w, d * d))
            flat = flat + reg_weight * w * d
        return J, flat

    def reconstruct(self, data: ObservationRecord,
                    initial_guess: CoefficientVector, max_iter: int = 100,
                    tolerance: float = 1e-10, reg_weight: float = 0.0) -> dict:
        """Bound-constrained quasi-Newton descent from the initial guess.

        ``reg_weight`` pulls toward the projected initial guess.  The history
        records accepted iterates only, so the objective column is
        nonincreasing; a line-search failure flags the result and returns
        the best iterate found.
        """
        from scipy.optimize import minimize

        guess = initial_guess.project()
        evals: list[tuple[np.ndarray, float, float]] = []
        history: list[dict] = []

        def fun(x):
            c = guess.unpack(x)
            J, g = self.objective_and_gradient(c, data, reg_weight, guess)
            evals.append((x.copy(), J, float(np.linalg.norm(g))))
            return J, g

        last_x = {"x": guess.pack()}

        def callback(xk):
            for x, J, gn in reversed(evals):
                if np.array_equal(x, xk):
                    step = float(np.linalg.norm(xk - last_x["x"]))
                    history.append({"iteration": len(history) + 1,
                                    "objective": J, "grad_norm": gn,
                                    "step_size": step})
                    last_x["x"] = xk.copy()
                    return

        x0 = guess.pack()
        # near-full quasi-Newton memory: the parameter count is small and the
        # patch sensitivities are badly scaled
        maxcor = int(max(10, min(2 * x0.size, 50)))
        result = minimize(fun, x0, jac=True, method="L-BFGS-B",
                          bounds=guess.bounds(), callback=callback,
                          options={"maxiter": max_iter, "gtol": tolerance,
                                   "ftol": 1e-16, "maxcor": maxcor})
        coeffs = guess.unpack(result.x).project()
        return {
            "coeffs": coeffs,
            "history": history,
            "converged": bool(result.success),
            "line_search_failed": bool(result.status == 2),
            "message": str(result.message),
            "n_evaluations": len(evals),
            "final_objective": float(result.fun),
        }


def simulate_twin(problem: InverseProblem, true_coeffs: CoefficientVector,
                  noise_level: float = 0.0, seed: int = 0) -> ObservationRecord:
    """Synthetic observation from known coefficients, with optional noise.

    Validates the model assumptions on the reference setup first; noise is
    additive Gaussian scaled to the RMS of the clean record.
    """
    traj = problem.simulate(true_coeffs)
    checks = problem.validate_assumptions(true_coeffs, traj)
    if not checks["passed"]:
        raise ValueError(
            "reference setup violates the model assumptions: "
            f"I={checks['assumption_I'].margins} "
            f"II={checks['assumption_II'].margins}")
    rec = problem.observation(traj)
    if noise_level > 0:
        rng = np.random.default_rng(seed)
        rms = float(np.sqrt(np.mean(rec.values**2)))
        rec.values = rec.values + noise_level * rms * rng.standard_normal(rec.values.shape)
    return rec


# --- stability harness -------------------------------------------------------

@dataclass
class StabilityReport:
    records: list
    max_ratio: float
    median_ratio: float
    spread: float
    n_rejected: int


def _smooth_bulk_shape(mesh: Mesh, rng) -> np.ndarray:
    """Low-order random field, sup-normalized to 1 (keeps dt-identities clean)."""
    x, y = mesh.cell_xy[:, 0], mesh.cell_xy[:, 1]
    c = rng.standard_normal(6)
    raw = (c[0] + c[1] * x + c[2] * y + c[3] * x * y
           + c[4] * (x**2 - y**2) + c[5] * (x**2 + y**2))
    return raw / np.abs(raw).max()


def _smooth_surf_shape(mesh: Mesh, rng) -> np.ndarray:
    th = mesh.surface_theta
    c = rng.standard_normal(5)
    raw = (c[0] + c[1] * np.cos(th) + c[2] * np.sin(th)
           + c[3] * np.cos(2 * th) + c[4] * np.sin(2 * th))
    return raw / np.abs(raw).max()


def first_step_difference(system: SemilinearSystem, s_ref: np.ndarray,
                          dt: float, dE_y: np.ndarray, dp21: np.ndarray,
                          dE_yg: np.ndarray, dq21: np.ndarray) -> np.ndarray:
    """delta = s_pert - s_ref after one step of length ``dt`` from a shared state.

    ``s_ref`` is ``system``'s step; the perturbed system adds ``dp21``,
    ``dq21`` to its implicit potentials and ``dE_y``, ``dE_yg`` to its
    explicit y and y_gamma terms.  Subtracting the two steps gives
    S_ref delta = M dE + dK (s_ref + delta), dK holding the dp21 and dq21
    diagonal blocks, which fixed-point passes on ``system``'s LU solve to
    round-off: each contracts by about dt * |dp21|.
    """
    sy, sz, syg, szg = system.blocks
    M = system.mass
    lu = system.factorization(dt)
    base = np.zeros(system.n_dof)
    base[sy] = M[sy] * dE_y
    base[syg] = M[syg] * dE_yg
    delta = np.zeros(system.n_dof)
    for _ in range(_MAX_DIFFERENCE_PASSES):
        rhs = base.copy()
        rhs[sz] += M[sz] * dp21 * (s_ref[sy] + delta[sy])
        rhs[szg] += M[szg] * dq21 * (s_ref[syg] + delta[syg])
        new = lu.solve(rhs)
        update = np.abs(new - delta).max()
        delta = new
        if update <= 4 * np.finfo(float).eps * np.abs(delta).max():
            return delta
    raise SolverError(
        f"first-step difference: no fixed point in {_MAX_DIFFERENCE_PASSES} "
        f"passes (last update {update:.3g})")


def stability_ensemble(problem: InverseProblem,
                       reference_coeffs: CoefficientVector,
                       n_draws: int = 20, perturbation_scale: float = 1e-3,
                       seed: int = 0) -> StabilityReport:
    """Empirical Lipschitz-stability records for coefficient perturbations.

    Each draw perturbs (p13, p21, q13, q21) by smooth fields of sup norm
    ``perturbation_scale``.  The reference and perturbed systems share the
    state at theta (the mid-time equality is enforced by construction) and
    the observation norm is taken on omega x (theta, t1); ratios are
    delta-norm over observation-norm.  Mid-time identity errors for the
    first-step time derivatives are recorded per draw, and so is
    ``obs_norm_half_scale``, the observation norm for the same draw's
    perturbation times 0.5 (admissible whenever the draw is: the admissible
    set is convex).  A draw that leaves the admissible set is redrawn, up to
    50 times in all.
    """
    if perturbation_scale <= 0:
        raise ValueError(
            f"perturbation_scale must be positive, got {perturbation_scale}")
    mesh, regions = problem.mesh, problem.regions
    rng = np.random.default_rng(seed)

    system_ref = problem.system_for(reference_coeffs)
    ref_traj = system_ref.solve(problem.init, regions.t1, problem.dt)
    checks = problem.validate_assumptions(reference_coeffs, ref_traj)
    if not checks["passed"]:
        raise ValueError("reference setup violates the model assumptions")
    k_theta = ref_traj.index_at(regions.theta)
    theta = float(ref_traj.times[k_theta])
    t1 = regions.t1
    state_theta = ref_traj.state(k_theta)
    pot_ref = system_ref.potentials
    ref_obs = observe(ref_traj, regions, mesh, t0=theta, t1=t1)

    f_theta = problem.nl_f(ref_traj.y[k_theta], ref_traj.z[k_theta])
    g_theta = problem.nl_g(ref_traj.y_gamma[k_theta], ref_traj.z_gamma[k_theta])

    # mid-time identities: one fine substep of both systems off theta
    # isolates d/dt of the difference at theta+ (a coarse step would
    # fold in an O(dt * a/dr^2) boundary-coupling error)
    dt_fine = problem.dt / 64.0
    x_theta = np.concatenate([state_theta.y0, state_theta.z0,
                              state_theta.y0_gamma, state_theta.z0_gamma])
    s_ref = system_ref.step_imex(x_theta, theta, dt_fine)
    sy, sz, syg, szg = system_ref.blocks

    def response_norm(system):
        """Observation norm on (theta, t1) of ``system`` minus the reference."""
        traj = system.solve(state_theta, t1, problem.dt, t_start=theta)
        obs = observe(traj, regions, mesh, t0=theta, t1=t1)
        return replace(obs, values=obs.values - ref_obs.values).norm()

    records = []
    n_rejected = 0
    attempts = 0
    while len(records) < n_draws and attempts < n_draws + 50:
        attempts += 1
        a1 = perturbation_scale * _smooth_bulk_shape(mesh, rng)
        a2 = perturbation_scale * _smooth_bulk_shape(mesh, rng)
        l1 = perturbation_scale * _smooth_surf_shape(mesh, rng)
        l2 = perturbation_scale * _smooth_surf_shape(mesh, rng)

        try:
            pot_pert = pot_ref.with_fields(p13=pot_ref.p13 + a1,
                                           p21=pot_ref.p21 + a2,
                                           q13=pot_ref.q13 + l1,
                                           q21=pot_ref.q21 + l2)
        except ValueError:
            n_rejected += 1
            continue
        if pot_pert.p21.min() < pot_ref.p0 or pot_pert.q21.min() < pot_ref.p0:
            n_rejected += 1
            continue

        delta = math.sqrt(mesh.bulk_l2(a2) ** 2 + mesh.surface_l2(l2) ** 2) \
            + math.sqrt(mesh.bulk_l2(a1) ** 2 + mesh.surface_l2(l1) ** 2)

        system_pert = system_ref.with_potentials(pot_pert)
        obs_norm = response_norm(system_pert)
        obs_half = response_norm(system_ref.with_potentials(pot_ref.with_fields(
            p13=pot_ref.p13 + 0.5 * a1, p21=pot_ref.p21 + 0.5 * a2,
            q13=pot_ref.q13 + 0.5 * l1, q21=pot_ref.q21 + 0.5 * l2)))

        # the perturbed system's step-size guard at dt_fine is implied by
        # the one its response solve passed at the coarser problem.dt
        d = first_step_difference(system_ref, s_ref, dt_fine,
                                  a1 * f_theta, a2, l1 * g_theta, l2)
        v0, u0 = d[sz] / dt_fine, d[sy] / dt_fine
        v0_g, u0_g = d[szg] / dt_fine, d[syg] / dt_fine
        tv = a2 * ref_traj.y[k_theta]
        tu = a1 * f_theta
        tvg = l2 * ref_traj.y_gamma[k_theta]
        tug = l1 * g_theta
        ident = {
            "v_rel_err": mesh.bulk_l2(v0 - tv) / max(mesh.bulk_l2(tv), 1e-300),
            "u_rel_err": mesh.bulk_l2(u0 - tu) / max(mesh.bulk_l2(tu), 1e-300),
            "v_gamma_rel_err": mesh.surface_l2(v0_g - tvg)
            / max(mesh.surface_l2(tvg), 1e-300),
            "u_gamma_rel_err": mesh.surface_l2(u0_g - tug)
            / max(mesh.surface_l2(tug), 1e-300),
            "identity_dt": dt_fine,
        }

        ratio = delta / obs_norm if obs_norm > 0 else float("inf")
        records.append({"delta_norm": delta, "obs_norm": obs_norm,
                        "ratio": ratio, "obs_norm_half_scale": obs_half,
                        **ident})

    if not records:
        raise SolverError("stability ensemble: every draw was rejected")
    ratios = [r["ratio"] for r in records]
    max_ratio = float(np.max(ratios))
    med_ratio = float(np.median(ratios))
    return StabilityReport(
        records=records, max_ratio=max_ratio, median_ratio=med_ratio,
        spread=max_ratio / med_ratio, n_rejected=n_rejected)
