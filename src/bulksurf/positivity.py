"""Nonnegativity diagnostics for the general coupled reaction system.

Quasi-positivity of the reactions plus componentwise nonnegative data keeps
the solution componentwise nonnegative; the discrete counterpart is checked
empirically (minimum over all fields and times, and monotonicity of the
negative-part energy), backed by the sufficient off-diagonal sign condition
on the implicit matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import ReactionSet, SemilinearSystem, Trajectory, row_sums
from .geometry import Mesh
from .model import DiffusionSpec, InitialData


@dataclass
class QPReport:
    f1_ok: bool
    f2_ok: bool
    g1_ok: bool
    g2_ok: bool
    worst_violation: tuple | None = None  # (function id, sample point, value)

    @property
    def passed(self) -> bool:
        return self.f1_ok and self.f2_ok and self.g1_ok and self.g2_ok


def check_qp(reactions: ReactionSet, samples: np.ndarray) -> QPReport:
    """Evaluate the quasi-positivity sign conditions on a nonnegative grid.

    Checks f1(0, v) >= 0 and g1(0, v) >= 0 over sample values v, and
    f2(u, 0) >= 0 and g2(u, 0) >= 0 over sample values u.
    """
    v = np.asarray(samples, dtype=float)
    if v.size == 0 or v.min() < 0:
        raise ValueError("samples must be a nonempty nonnegative grid")
    zero = np.zeros_like(v)

    flags = {}
    worst = None
    for fid, fn, args in (
        ("f1", reactions.f1, (zero, v)),
        ("g1", reactions.g1, (zero, v)),
        ("f2", reactions.f2, (v, zero)),
        ("g2", reactions.g2, (v, zero)),
    ):
        if fn is None:
            flags[fid] = True
            continue
        vals = np.asarray(fn(*args), dtype=float)
        ok = bool(vals.min() >= 0)
        flags[fid] = ok
        if not ok:
            i = int(np.argmin(vals))
            if worst is None or vals[i] < worst[2]:
                worst = (fid, float(v[i]), float(vals[i]))
    return QPReport(f1_ok=flags["f1"], f2_ok=flags["f2"],
                    g1_ok=flags["g1"], g2_ok=flags["g2"],
                    worst_violation=worst)


def _negative_square(field: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sum of the squared negative part over the last axis; a
    block ``(n_nodes, k, n)`` gives each draw the bits of its one-draw run."""
    return row_sums(np.minimum(field, 0.0) ** 2, weights)


def sup_abs(field: np.ndarray) -> np.ndarray:
    """max |field| over the time and cell axes (per draw for a block),
    without a temporary copy of the table."""
    return np.maximum(field.max(axis=(0, -1)), -field.min(axis=(0, -1)))


def negative_part_energy(traj: Trajectory, mesh: Mesh) -> dict:
    """Series E-(t) = |u-|^2_{L2(Omega)} + |u_gamma-|^2_{L2(Gamma)} per pair."""
    areas, ds = mesh.cell_areas, mesh.surface_weights
    ey = _negative_square(traj.y, areas) + _negative_square(traj.y_gamma, ds)
    ez = _negative_square(traj.z, areas) + _negative_square(traj.z_gamma, ds)
    return {"E_y": ey, "E_z": ez}


def negative_part_energy_monotone(traj: Trajectory, mesh: Mesh) -> dict:
    """Check E-(t_{n+1}) <= E-(t_n) + tol*dt for both field pairs.

    tol is 1e-8 times the squared field scale, so identically nonnegative
    trajectories pass trivially and genuine growth is flagged.  For a block
    trajectory every entry is per draw.
    """
    return _reduce(traj.blocks(), mesh, traj.dt)["energy"]


def _reduce(blocks, mesh: Mesh, dt: float) -> dict:
    """The per-node series of consecutive blocks of states, such as
    ``march`` yields, each state read once: the times, the minimum over the
    fields (``min_series`` and its minimum ``min_value``), the negative-part
    energy with the checks of ``negative_part_energy_monotone``
    (``energy``) and sup |y| (``sup_y``)."""
    times, mins, ey, ez, sup = [], [], [], [], 0.0
    for block in blocks:
        new = block.new_rows()
        fields = (new.y, new.z, new.y_gamma, new.z_gamma)
        times.append(new.times)
        mins.append(np.minimum.reduce([f.min(axis=-1) for f in fields]))
        energy = negative_part_energy(new, mesh)
        ey.append(energy["E_y"])
        ez.append(energy["E_z"])
        sup = np.maximum(sup, [sup_abs(f) for f in fields])

    energy = {"E_y": np.concatenate(ey), "E_z": np.concatenate(ez)}
    # the field scale is sup |state| over the four fields
    tol = 1e-8 * np.maximum(sup.max(axis=0), 1e-300) ** 2 * dt
    for key in ("E_y", "E_z"):
        growth = np.diff(energy[key], axis=0).max(axis=0, initial=0.0)
        energy[f"{key}_monotone"] = growth <= tol
    energy["passed"] = energy["E_y_monotone"] & energy["E_z_monotone"]
    min_series = np.concatenate(mins)
    return {"times": np.concatenate(times), "min_value": min_series.min(axis=0),
            "min_series": min_series, "energy": energy, "sup_y": sup[0]}


def implicit_offdiagonal_report(system: SemilinearSystem, dt: float) -> dict:
    """Sufficient sign condition for an inverse-positive implicit matrix."""
    S = system.implicit_matrix(dt).tocoo()
    off = S.data[S.row != S.col]
    max_off = float(off.max(initial=0.0))
    diag = S.diagonal()
    return {
        "offdiag_nonpositive": bool(max_off <= 0.0),
        "max_offdiagonal": max_off,
        "min_diagonal": float(diag.min()),
    }


def positivity_experiment(mesh: Mesh, diffusion: DiffusionSpec,
                          init: InitialData, reactions: ReactionSet,
                          t_end: float, dt: float,
                          keep_trajectory: bool = True) -> dict:
    """Solve the general system from nonnegative data.

    Mirrors the positive-part construction: ``ReactionSet.rates`` evaluates
    the reactions at the componentwise nonnegative parts of the state.
    Refuses to run when the quasi-positivity check fails on the grid 0,
    0.05, ..., 2 or the data has a negative component.  ``init`` may hold
    a block of draws (a leading draw axis on every field): they share one
    system and one LU, and every per-draw entry then carries that axis
    last.

    The states are reduced block by block, as ``march`` yields them, into
    the series of ``_reduce``.  The whole trajectory is kept only with
    ``keep_trajectory``; its blocks are reduced the same way.
    """
    qp = check_qp(reactions, np.linspace(0.0, 2.0, 41))
    if not qp.passed:
        raise ValueError(f"quasi-positivity fails: {qp.worst_violation}")
    floor = min(init.y0.min(), init.z0.min(),
                init.y0_gamma.min(), init.z0_gamma.min())
    if floor < 0:
        raise ValueError(f"initial data has a negative component ({floor:.3g})")

    system = SemilinearSystem(mesh, diffusion)
    if keep_trajectory:
        traj = system.solve(init, t_end, dt, reactions=reactions)
        blocks = traj.blocks()
    else:
        blocks = system.march(init, t_end, dt, reactions=reactions)
    out = {**_reduce(blocks, mesh, dt),
           "matrix_check": implicit_offdiagonal_report(system, dt)}
    if keep_trajectory:
        out["trajectory"] = traj
    return out
