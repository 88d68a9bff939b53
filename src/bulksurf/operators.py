"""Discrete divergence-form diffusion operators and pointwise flux algebra.

Both operators are stored in symmetric "flux" form: a matrix T whose
quadratic form is minus the discrete Dirichlet energy.  The divergence-form
action divides by the quadrature weights (cell areas / arc lengths), so the
discrete Green identity

    sum_i w_i (div_h u)_i v_i + pairing(u, v) - sum_j ds_j flux_j v_gamma_j = 0

telescopes exactly when ``pairing`` uses the same face transmissibilities.
Two-point flux with harmonic face averaging keeps T symmetric negative
semidefinite and constant-annihilating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import Mesh


@dataclass(frozen=True)
class SparseOp:
    """Assembled diffusion operator in symmetric flux form.

    ``matrix`` is the symmetric transmissibility form over bulk cells
    (or surface nodes); for the bulk kind, boundary-face transmissibilities
    sit on outer-cell diagonals and ``boundary`` couples the matched
    surface nodes.  ``apply`` realizes the divergence-form action.
    """

    kind: str                      # "bulk_diffusion" | "surface_diffusion"
    matrix: sp.csr_matrix          # symmetric, negative semidefinite
    weights: np.ndarray            # quadrature weights (areas or arc lengths)
    boundary: sp.csr_matrix | None = None   # (n_cells, n_surface) coupling
    faces_a: np.ndarray | None = None       # interior face endpoints
    faces_b: np.ndarray | None = None
    faces_t: np.ndarray | None = None       # transmissibilities a*len/dist
    bnd_cells: np.ndarray | None = None
    bnd_t: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def apply(self, u: np.ndarray, u_boundary: np.ndarray | None = None) -> np.ndarray:
        """Divergence-form action div(a grad u) (bulk needs the boundary trace).

        ``u`` is one field, or a (k, n) block of k fields acted on row by
        row: a multi-vector product would first copy the transposed block.
        """
        if self.boundary is not None and u_boundary is None:
            raise ValueError("bulk operator needs the surface trace field")
        rows = u.reshape(-1, u.shape[-1])
        traces = None if u_boundary is None else u_boundary.reshape(len(rows), -1)
        out = np.empty((len(rows), self.dimension))
        for k, row in enumerate(rows):
            out[k] = self.matrix @ row
            if self.boundary is not None:
                out[k] += self.boundary @ traces[k]
            out[k] /= self.weights
        return out.reshape(u.shape[:-1] + (self.dimension,))

    def energy_pairing(self, u, v, u_boundary=None, v_boundary=None) -> float:
        """Flux-consistent discrete int a grad(u).grad(v)."""
        du = u[self.faces_a] - u[self.faces_b]
        dv = v[self.faces_a] - v[self.faces_b]
        total = float(np.dot(self.faces_t, du * dv))
        if self.bnd_cells is not None and u_boundary is not None:
            dub = u[self.bnd_cells] - u_boundary
            dvb = v[self.bnd_cells] - v_boundary
            total += float(np.dot(self.bnd_t, dub * dvb))
        return total


def _harmonic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 2.0 * a * b / (a + b)


def assemble_bulk_diffusion(mesh: Mesh, a: np.ndarray) -> SparseOp:
    """Two-point-flux finite-volume form of div(a(x) grad .) on the disk.

    Boundary faces use the matched surface node as ghost state with the
    outer cell's diffusivity, i.e. flux (2a/dr)(u_gamma - u_outer) per unit
    arc, which doubles as the discrete conormal derivative.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (mesh.n_cells,):
        raise ValueError(f"diffusivity shape {a.shape} != ({mesh.n_cells},)")
    if a.min() <= 0:
        raise ValueError(f"nonpositive diffusivity (min {a.min():.3g})")

    fa, fb, fg = mesh.faces_a, mesh.faces_b, mesh.faces_geom
    t_int = _harmonic(a[fa], a[fb]) * fg
    t_bnd = a[mesh.bnd_cells] * mesh.bnd_geom

    n = mesh.n_cells
    rows = np.concatenate([fa, fb, fa, fb, mesh.bnd_cells])
    cols = np.concatenate([fb, fa, fa, fb, mesh.bnd_cells])
    vals = np.concatenate([t_int, t_int, -t_int, -t_int, -t_bnd])
    T = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    T.sum_duplicates()

    B = sp.csr_matrix(
        (t_bnd, (mesh.bnd_cells, np.arange(mesh.n_theta))),
        shape=(n, mesh.n_theta),
    )
    return SparseOp(kind="bulk_diffusion", matrix=T, weights=mesh.cell_areas,
                    boundary=B, faces_a=fa, faces_b=fb, faces_t=t_int,
                    bnd_cells=mesh.bnd_cells, bnd_t=t_bnd)


def assemble_surface_diffusion(mesh: Mesh, d: np.ndarray) -> SparseOp:
    """Periodic three-point stencil for div_s(d(s) d/ds .) on the circle."""
    d = np.asarray(d, dtype=float)
    ns = mesh.n_theta
    if d.shape != (ns,):
        raise ValueError(f"diffusivity shape {d.shape} != ({ns},)")
    if d.min() <= 0:
        raise ValueError(f"nonpositive surface diffusivity (min {d.min():.3g})")

    ds = mesh.surface_weights[0]
    j = np.arange(ns)
    jp = (j + 1) % ns
    t = _harmonic(d[j], d[jp]) / ds   # transmissibility of face j+1/2

    rows = np.concatenate([j, jp, j, jp])
    cols = np.concatenate([jp, j, j, jp])
    vals = np.concatenate([t, t, -t, -t])
    T = sp.csr_matrix((vals, (rows, cols)), shape=(ns, ns))
    T.sum_duplicates()
    return SparseOp(kind="surface_diffusion", matrix=T,
                    weights=mesh.surface_weights,
                    faces_a=j, faces_b=jp, faces_t=t)


def conormal_flux(mesh: Mesh, a: np.ndarray, y: np.ndarray,
                  y_gamma: np.ndarray) -> np.ndarray:
    """Discrete conormal derivative a * d_nu y per surface node.

    The one-sided difference over dr/2 matches the boundary-face flux of the
    assembled operator (keeps the coupled matrix symmetric).  ``y`` and
    ``y_gamma`` may be (k, n) blocks of k fields.
    """
    a = np.asarray(a, dtype=float)
    a_bnd = a[mesh.trace_map]
    return a_bnd * (y_gamma - y[..., mesh.trace_map]) / (0.5 * mesh.dr)


def green_identity_residual(mesh: Mesh, op: SparseOp, u: np.ndarray,
                            v: np.ndarray, u_gamma: np.ndarray | None = None,
                            v_gamma: np.ndarray | None = None) -> float:
    """Residual of the discrete integration-by-parts identity.

    Bulk:    |int div(a grad u) v + int a grad u . grad v - int_G flux(u) v_G|
    Surface: |int_G div_s(d u') v + int_G d u' v'|   (periodic, no boundary)

    Zero to rounding by construction.
    """
    if op.kind == "bulk_diffusion":
        if u_gamma is None or v_gamma is None:
            raise ValueError("bulk Green identity needs surface trace fields")
        vol = float(np.dot(mesh.cell_areas, op.apply(u, u_gamma) * v))
        pair = op.energy_pairing(u, v, u_gamma, v_gamma)
        flux = op.bnd_t * (u_gamma - u[op.bnd_cells])   # ds_j * conormal flux
        surf = float(np.dot(flux, v_gamma))
        return abs(vol + pair - surf)
    vol = float(np.dot(mesh.surface_weights, op.apply(u) * v))
    pair = op.energy_pairing(u, v)
    return abs(vol + pair)


def surface_divergence_residual(mesh: Mesh, X: np.ndarray, z: np.ndarray) -> float:
    """Residual of the closed-surface divergence formula for a face field X.

    X lives on faces j+1/2 of the periodic surface grid; the discrete
    divergence (X_{j+1/2} - X_{j-1/2})/ds against z telescopes against
    -X * (centered difference of z) exactly.
    """
    ds = mesh.surface_weights[0]
    divX = (X - np.roll(X, 1)) / ds
    dz_face = (np.roll(z, -1) - z) / ds
    lhs = float(np.dot(mesh.surface_weights, divX * z))
    rhs = -float(np.sum(ds * X * dz_face))
    return abs(lhs - rhs)


def _sqrtm_spd(A: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(A)
    if w.min() <= 0:
        raise ValueError(f"matrix not positive definite (min eig {w.min():.3g})")
    return (V * np.sqrt(w)) @ V.T


def conormal_identity_residual(A: np.ndarray, nu: np.ndarray,
                              grad_psi: np.ndarray) -> float:
    """Residual of the conormal/tangential square identity.

    (A grad.nu)^2 - (A grad_t.nu)^2
        = |A^{1/2} nu|^2 (|A^{1/2} grad|^2 - |A^{1/2} grad_t|^2)

    with grad_t the component of grad_psi orthogonal to the unit normal.
    """
    A = np.asarray(A, dtype=float)
    nu = np.asarray(nu, dtype=float)
    g = np.asarray(grad_psi, dtype=float)
    As = _sqrtm_spd(A)
    gt = g - np.dot(g, nu) * nu
    lhs = np.dot(A @ g, nu) ** 2 - np.dot(A @ gt, nu) ** 2
    half_nu = As @ nu
    rhs = np.dot(half_nu, half_nu) * (
        np.dot(As @ g, As @ g) - np.dot(As @ gt, As @ gt)
    )
    return abs(lhs - rhs)


def operator_invariant_report(op: SparseOp) -> dict:
    """Symmetry and constant-kernel diagnostics, and the largest entry as
    the scale for their tolerances (semidefiniteness is left to eigsh)."""
    T = op.matrix
    sym = abs(T - T.T)
    sym_max = float(sym.max()) if sym.nnz else 0.0
    ones = np.ones(op.dimension)
    if op.kind == "bulk_diffusion":
        row_sums = T @ ones + op.boundary @ np.ones(op.boundary.shape[1])
    else:
        row_sums = T @ ones
    scale = float(abs(T).max())
    return {
        "symmetry_error": sym_max,
        "max_row_sum": float(np.abs(row_sums).max()),
        "scale": scale,
    }
