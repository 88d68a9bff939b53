"""Coefficient recovery from one interior observation, plus the stability harness.

Unknowns are the four coupling coefficients (p13, q13, p21, q21) on a coarse
piecewise-constant parametrization (bulk patches, surface arcs).  The
gradient is the exact discrete adjoint of the IMEX stepping: the sweep is
``SemilinearSystem.coefficient_gradient``, loaded through the transpose of
the observation's stencil, and this module reduces its density to patches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .forward import (
    _COEFF_NAMES,
    ObservationRecord,
    SemilinearSystem,
    SolverError,
    Trajectory,
    node_energies,
    observe,
    window_energy,
)
from .geometry import Mesh, RegionSet
from .model import (
    P0_FLOORED,
    DiffusionSpec,
    InitialData,
    Nonlinearity,
    PotentialSet,
    validate_assumption_I,
    validate_assumption_II,
)

_MAX_CHECKPOINT_FLOATS = 5e7


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

    def patches(self, name: str) -> tuple[sp.csr_matrix, np.ndarray]:
        """Indicator and measures of the patches coefficient ``name`` lives
        on: bulk patches for p13 and p21, surface arcs for q13 and q21."""
        if name.startswith("p"):
            return self.bulk, self.bulk_measure
        return self.surf, self.surf_measure


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
            if name in P0_FLOORED:
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
        return [(self.p0 if name in P0_FLOORED else -self.R_bound, self.R_bound)
                for name in self.free for _ in getattr(self, name)]

    def l2_distance(self, other: "CoefficientVector", basis: PatchBasis) -> float:
        """Measure-weighted distance over all four components."""
        total = 0.0
        for name in _COEFF_NAMES:
            w = basis.patches(name)[1]
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
        # every coefficient set shares this system's diffusion part
        self._base_system = SemilinearSystem(
            self.mesh, self.diffusion, self.base_potentials,
            nl_f=self.nl_f, nl_g=self.nl_g)
        # every solve of this layer stops at the window end t1
        n_nodes = math.ceil(self.regions.t1 / self.dt) + 1
        if n_nodes * self._base_system.n_dof > _MAX_CHECKPOINT_FLOATS:
            raise ValueError(
                "checkpoint storage exhausted: reduce t1/dt or the mesh")

    def coefficient_vector(self, p13=None, p21=None, q13=None, q21=None,
                           free=("p13", "q21")) -> CoefficientVector:
        """Patch coefficients; an unspecified name takes the measure-weighted
        patch average of its base-model field."""
        pot, system = self.base_potentials, self._base_system
        given = {"p13": p13, "p21": p21, "q13": q13, "q21": q21}
        vals = {}
        for name, block in system.coefficient_blocks():
            P, measure = self.basis.patches(name)
            v = given[name]
            if v is None:  # the block's mass is the field's cell weight
                v = (P.T @ (system.mass[block] * getattr(pot, name))) / measure
            n = len(measure)
            arr = np.full(n, float(v)) if np.ndim(v) == 0 else np.asarray(v, dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"expected {n} patch values, got {arr.shape}")
            vals[name] = arr
        return CoefficientVector(**vals, free=tuple(free), R_bound=pot.R_bound,
                                 p0=pot.p0)

    def to_potentials(self, coeffs: CoefficientVector) -> PotentialSet:
        return self.base_potentials.with_fields(**{
            name: self.basis.patches(name)[0] @ getattr(coeffs, name)
            for name in _COEFF_NAMES})

    def system_for(self, coeffs: CoefficientVector) -> SemilinearSystem:
        return self._base_system.with_potentials(self.to_potentials(coeffs))

    def reference(self, coeffs: CoefficientVector
                  ) -> tuple[SemilinearSystem, Trajectory]:
        """The system of ``coeffs`` and its solve up to the window end t1
        (the observation reads nothing later): the reference run of the
        twin data and of the stability ensemble.

        Raises ValueError, naming every margin, unless Assumptions I and II
        hold there.
        """
        system = self.system_for(coeffs)
        traj = system.solve(self.init, self.regions.t1, self.dt)
        pot = system.potentials
        rep1 = validate_assumption_I(pot, self.nl_f, self.nl_g, self.init,
                                     r=self.r_floor, p0=pot.p0)
        rep2 = validate_assumption_II(self.nl_f, self.nl_g, traj,
                                      self.regions.theta, self.r1_floor)
        if not (rep1.passed and rep2.passed):
            raise ValueError("reference setup violates the model assumptions: "
                             f"I={rep1.margins} II={rep2.margins}")
        return system, traj

    # -- objective / adjoint -------------------------------------------------

    def _misfit(self, rec: ObservationRecord, data: ObservationRecord) -> float:
        return 0.5 * window_energy(
            [node_energies(rec.values - data.values, rec.cell_weights)], rec.dt)

    def _reg_weights(self, coeffs: CoefficientVector) -> np.ndarray:
        return np.concatenate([self.basis.patches(name)[1]
                               for name in coeffs.free])

    def objective(self, coeffs: CoefficientVector, data: ObservationRecord) -> float:
        """The observation misfit, without regularisation; the march up to
        t1 is reduced block by block, so no table of states is held."""
        march = self.system_for(coeffs).march(self.init, self.regions.t1,
                                              self.dt)
        return self._misfit(observe(march, self.regions, self.mesh), data)

    def objective_and_gradient(self, coeffs: CoefficientVector,
                               data: ObservationRecord, reg_weight: float = 0.0,
                               prior: CoefficientVector | None = None
                               ) -> tuple[float, np.ndarray]:
        """Exact gradient of the discrete objective via the adjoint sweep.

        The sweep starts at the window end t1, where the forward solve stops.
        """
        system = self.system_for(coeffs)
        traj = system.solve(self.init, self.regions.t1, self.dt)
        rec = observe([traj], self.regions, self.mesh)
        J = self._misfit(rec, data)

        # the misfit's derivative in each record value, formed in place in
        # the record's table, which nothing reads again; then in each state
        res = rec.values
        res -= data.values
        res *= rec.cell_weights
        res *= self.dt
        w = system.coefficient_gradient(traj, rec.cell_indices,
                                        rec.transpose(res, traj.n_nodes))
        grads = {name: -(self.basis.patches(name)[0].T @ w[block])
                 for name, block in system.coefficient_blocks()}
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

    The run is ``problem.reference``, which refuses a setup that violates
    the model assumptions; noise is additive Gaussian scaled to the RMS of
    the clean record.
    """
    _, traj = problem.reference(true_coeffs)
    rec = observe([traj], problem.regions, problem.mesh)
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

    system_ref, ref_traj = problem.reference(reference_coeffs)
    k_theta = ref_traj.index_at(regions.theta)
    theta = float(ref_traj.times[k_theta])
    t1 = regions.t1
    state_theta = ref_traj.state(k_theta)
    pot_ref = system_ref.potentials
    ref_obs = observe([ref_traj], regions, mesh, t0=theta, t1=t1)
    blocks = system_ref.blocks

    # mid-time identities: one fine substep of both systems off theta
    # isolates d/dt of the difference at theta+ (a coarse step would
    # fold in an O(dt * a/dr^2) boundary-coupling error)
    dt_fine = problem.dt / 64.0
    x_theta = ref_traj.packed[k_theta]
    s_ref = system_ref.step_imex(x_theta, theta, dt_fine)
    fields_theta = system_ref.coefficient_fields(x_theta, x_theta)

    def perturbed(dc):
        """The reference system with its coupling coefficients moved by the
        packed ``dc``; a ValueError when that leaves the admissible set."""
        pot = pot_ref.with_fields(**{
            name: getattr(pot_ref, name) + dc[block]
            for name, block in system_ref.coefficient_blocks()})
        if pot.below_p0():
            raise ValueError("perturbation below the p0 floor")
        return system_ref.with_potentials(pot)

    def response_norm(system):
        """Observation norm on (theta, t1) of ``system`` minus the reference."""
        obs = observe(system.march(state_theta, t1, problem.dt, t_start=theta),
                      regions, mesh, t0=theta, t1=t1)
        return replace(obs, values=obs.values - ref_obs.values).norm()

    records = []
    n_rejected = 0
    attempts = 0
    while len(records) < n_draws and attempts < n_draws + 50:
        attempts += 1
        # one smooth shape per coefficient, in the packed block order
        dc = perturbation_scale * np.concatenate([
            _smooth_bulk_shape(mesh, rng), _smooth_bulk_shape(mesh, rng),
            _smooth_surf_shape(mesh, rng), _smooth_surf_shape(mesh, rng)])
        try:
            system_pert = perturbed(dc)
        except ValueError:
            n_rejected += 1
            continue

        a1, a2, l1, l2 = (dc[block] for block in blocks)
        delta = math.sqrt(mesh.bulk_l2(a2) ** 2 + mesh.surface_l2(l2) ** 2) \
            + math.sqrt(mesh.bulk_l2(a1) ** 2 + mesh.surface_l2(l1) ** 2)
        obs_norm = response_norm(system_pert)
        obs_half = response_norm(perturbed(0.5 * dc))

        # the perturbed system's step-size guard at dt_fine is implied by
        # the one its response solve passed at the coarser problem.dt;
        # each identity compares d/dt of one block with its target
        rates = system_ref.step_difference(x_theta, s_ref, dt_fine,
                                           dc) / dt_fine
        targets = dc * fields_theta
        ident = {"identity_dt": dt_fine}
        for key, block, norm in zip(
                ("u_rel_err", "v_rel_err", "u_gamma_rel_err", "v_gamma_rel_err"),
                blocks, (mesh.bulk_l2, mesh.bulk_l2, mesh.surface_l2,
                         mesh.surface_l2)):
            ident[key] = norm(rates[block] - targets[block]) \
                / max(norm(targets[block]), 1e-300)

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
