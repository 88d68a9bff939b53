"""Coefficient fields, semilinearities, initial data, and admissibility checks.

Bulk diffusion is isotropic (``a_k(x) * I``); surface diffusion on the
boundary curve reduces to the scalar tangential diffusivity ``d_k(s)``.
Potentials are per-cell / per-node arrays bounded in sup norm by the
admissible-set radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .geometry import Mesh


def _as_field(value, n: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"field has shape {arr.shape}, expected ({n},)")
    return arr.copy()


@dataclass(frozen=True)
class DiffusionSpec:
    """Isotropic bulk diffusivities and scalar surface diffusivities."""

    a1: np.ndarray
    a2: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    beta: float = 1e-8
    beta_gamma: float = 1e-8

    @classmethod
    def from_values(cls, mesh: Mesh, a1=1.0, a2=1.0, d1=1.0, d2=1.0,
                    beta: float | None = None, beta_gamma: float | None = None
                    ) -> "DiffusionSpec":
        nb, ns = mesh.n_cells, mesh.n_theta
        a1 = _as_field(a1, nb)
        a2 = _as_field(a2, nb)
        d1 = _as_field(d1, ns)
        d2 = _as_field(d2, ns)
        if beta is None:
            beta = float(min(a1.min(), a2.min()))
        if beta_gamma is None:
            beta_gamma = float(min(d1.min(), d2.min()))
        spec = cls(a1=a1, a2=a2, d1=d1, d2=d2, beta=beta, beta_gamma=beta_gamma)
        spec.validate()
        return spec

    def validate(self) -> None:
        if self.beta <= 0 or self.beta_gamma <= 0:
            raise ValueError("ellipticity floors beta, beta_gamma must be positive")
        for name, arr, floor in (
            ("a1", self.a1, self.beta), ("a2", self.a2, self.beta),
            ("d1", self.d1, self.beta_gamma), ("d2", self.d2, self.beta_gamma),
        ):
            if arr.min() < floor:
                raise ValueError(
                    f"diffusivity {name} drops below its ellipticity floor "
                    f"({arr.min():.3g} < {floor:.3g})"
                )


_BULK_NAMES = ("p11", "p12", "p13", "p21", "p22")
_SURF_NAMES = ("q11", "q12", "q13", "q21", "q22")
# the coupling potentials held above the coercivity floor p0
P0_FLOORED = ("p21", "q21")


@dataclass(frozen=True)
class PotentialSet:
    """The ten zeroth-order potentials, sup-norm bounded by ``R_bound``.

    ``p0`` is the coercivity floor required of p21 and q21 when the set is
    used in stability/one-observation contexts.
    """

    p11: np.ndarray
    p12: np.ndarray
    p13: np.ndarray
    p21: np.ndarray
    p22: np.ndarray
    q11: np.ndarray
    q12: np.ndarray
    q13: np.ndarray
    q21: np.ndarray
    q22: np.ndarray
    R_bound: float = 10.0
    p0: float = 0.0

    @classmethod
    def from_values(cls, mesh: Mesh, R_bound: float = 10.0, p0: float = 0.0,
                    **values) -> "PotentialSet":
        fields = {}
        for name in _BULK_NAMES:
            fields[name] = _as_field(values.get(name, 0.0), mesh.n_cells)
        for name in _SURF_NAMES:
            fields[name] = _as_field(values.get(name, 0.0), mesh.n_theta)
        unknown = set(values) - set(_BULK_NAMES) - set(_SURF_NAMES)
        if unknown:
            raise ValueError(f"unknown potential names: {sorted(unknown)}")
        pot = cls(R_bound=R_bound, p0=p0, **fields)
        pot.check_admissible()
        return pot

    def check_admissible(self) -> None:
        """Verify sup-norm membership in the admissible set."""
        for name in _BULK_NAMES + _SURF_NAMES:
            arr = getattr(self, name)
            sup = float(np.abs(arr).max())
            if sup > self.R_bound * (1 + 1e-12):
                raise ValueError(
                    f"potential {name} exceeds admissible radius: "
                    f"sup={sup:.6g} > R_bound={self.R_bound:.6g}"
                )

    def below_p0(self) -> list:
        """The coupling potentials, p21 and q21, that drop below the floor
        p0 somewhere; a NaN value counts as below."""
        return [name for name in P0_FLOORED
                if not getattr(self, name).min() >= self.p0]

    def stability_admissible(self) -> bool:
        """True if p0 > 0 and p21 and q21 sit above it everywhere."""
        return self.p0 > 0 and not self.below_p0()

    def with_fields(self, **updates) -> "PotentialSet":
        """Copy with some fields replaced; re-verifies the sup-norm bound."""
        new = replace(self, **{k: np.asarray(v, dtype=float) for k, v in updates.items()})
        new.check_admissible()
        return new


@dataclass(frozen=True)
class Nonlinearity:
    """Lipschitz reaction term f(y, z) with partial derivatives.

    ``lipschitz_bound`` is sup |df/dy| + |df/dz| over the working box; the
    map need not be globally Lipschitz (powers y^d z^delta are not).
    """

    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    partials: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    lipschitz_bound: float

    def __call__(self, y, z):
        return self.evaluate(y, z)


def make_power_nonlinearity(d: int, delta: int,
                            range_box: tuple[float, float] = (1.0, 1.0)
                            ) -> Nonlinearity:
    """Product-power reaction (y, z) -> y^d z^delta with exact partials.

    The Lipschitz bound is the sup of |d/dy| + |d/dz| over the box
    [0, y_max] x [0, z_max]; both partials are monotone there so the sup
    sits at the corner.
    """
    if d < 0 or delta < 0 or d != int(d) or delta != int(delta):
        raise ValueError("powers d, delta must be nonnegative integers")
    y_max, z_max = range_box
    if y_max <= 0 or z_max <= 0:
        raise ValueError("range_box must be positive")
    d, delta = int(d), int(delta)

    def evaluate(y, z):
        return np.asarray(y, dtype=float) ** d * np.asarray(z, dtype=float) ** delta

    def partials(y, z):
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        fy = d * y ** (d - 1) * z ** delta if d > 0 else np.zeros(np.broadcast(y, z).shape)
        fz = delta * y ** d * z ** (delta - 1) if delta > 0 else np.zeros(np.broadcast(y, z).shape)
        return fy, fz

    lip = 0.0
    if d > 0:
        lip += d * y_max ** (d - 1) * z_max ** delta
    if delta > 0:
        lip += delta * y_max ** d * z_max ** (delta - 1)
    return Nonlinearity(evaluate=evaluate, partials=partials,
                        lipschitz_bound=float(lip))


@dataclass(frozen=True)
class InitialData:
    """State quadruple (y0, z0, y0_gamma, z0_gamma) that a solve starts from.

    ``Trajectory.state`` returns one to restart a solve mid-trajectory.
    """

    y0: np.ndarray
    z0: np.ndarray
    y0_gamma: np.ndarray
    z0_gamma: np.ndarray

    @classmethod
    def from_values(cls, mesh: Mesh, y0=0.0, z0=0.0, y0_gamma=None, z0_gamma=None
                    ) -> "InitialData":
        nb, ns = mesh.n_cells, mesh.n_theta
        y0 = _as_field(y0, nb)
        z0 = _as_field(z0, nb)
        # default boundary data: copy the adjacent outer-ring cells
        y0_gamma = y0[mesh.trace_map].copy() if y0_gamma is None else _as_field(y0_gamma, ns)
        z0_gamma = z0[mesh.trace_map].copy() if z0_gamma is None else _as_field(z0_gamma, ns)
        return cls(y0=y0, z0=z0, y0_gamma=y0_gamma, z0_gamma=z0_gamma)


@dataclass
class CheckReport:
    """Outcome of an assumption validator: the minimum margin of each
    inequality; it passes iff every margin is >= 0 (a NaN margin fails)."""

    margins: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(m >= 0 for m in self.margins.values())


def _record(report: CheckReport, name: str, margin_field: np.ndarray) -> None:
    """Record the minimum margin of ``margin_field``."""
    report.margins[name] = float(margin_field.min())


def validate_assumption_I(pot: PotentialSet, nl_f: Nonlinearity,
                          nl_g: Nonlinearity, init_tilde: InitialData,
                          r: float, p0: float) -> CheckReport:
    """Pointwise check of the admissibility/coercivity inequalities.

    Checks, cell by cell:
      * reference initial data floors: y-pair >= r, z-pair >= 0;
      * p11*r + p12*z0 + p13*f(r, z0) >= 0 in the bulk;
      * q11*r + q12*z0_gamma + q13*g(r, z0_gamma) >= 0 on the surface;
      * p21, q21 >= p0.

    Report-only: never raises on violation.
    """
    rep = CheckReport()
    _record(rep, "y0_tilde >= r", init_tilde.y0 - r)
    _record(rep, "y0_gamma_tilde >= r", init_tilde.y0_gamma - r)
    _record(rep, "z0_tilde >= 0", init_tilde.z0)
    _record(rep, "z0_gamma_tilde >= 0", init_tilde.z0_gamma)

    r_arr = np.full_like(init_tilde.z0, float(r))
    bulk = pot.p11 * r + pot.p12 * init_tilde.z0 \
        + pot.p13 * nl_f(r_arr, init_tilde.z0)
    _record(rep, "bulk reaction floor", bulk)

    rg = np.full_like(init_tilde.z0_gamma, float(r))
    surf = pot.q11 * r + pot.q12 * init_tilde.z0_gamma \
        + pot.q13 * nl_g(rg, init_tilde.z0_gamma)
    _record(rep, "surface reaction floor", surf)

    for name in P0_FLOORED:
        _record(rep, f"{name} >= p0", getattr(pot, name) - p0)
    return rep


def validate_assumption_II(nl_f: Nonlinearity, nl_g: Nonlinearity,
                           traj_tilde, theta: float, r1: float) -> CheckReport:
    """Check the mid-time nondegeneracy of f and g along a reference solve.

    Reports min |f(y~, z~)(theta, .)| over bulk cells and the surface
    analogue for g, pass iff both >= r1.
    """
    if not (traj_tilde.times[0] - 1e-12 <= theta <= traj_tilde.times[-1] + 1e-12):
        raise ValueError(
            f"theta={theta} outside trajectory range "
            f"[{traj_tilde.times[0]}, {traj_tilde.times[-1]}]"
        )
    rep = CheckReport()
    k = traj_tilde.index_at(theta)

    f_th = nl_f(traj_tilde.y[k], traj_tilde.z[k])
    g_th = nl_g(traj_tilde.y_gamma[k], traj_tilde.z_gamma[k])
    _record(rep, "|f| >= r1 at theta", np.abs(f_th) - r1)
    _record(rep, "|g| >= r1 at theta", np.abs(g_th) - r1)
    return rep
