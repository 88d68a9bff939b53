"""IMEX time stepping of the coupled four-field bulk-surface systems.

One monolithic sparse solve advances (y, z, y_gamma, z_gamma) together:
diffusion, the conormal coupling, and all linear potential terms are
implicit (single LU factorization reused across steps); reaction terms and
sources are explicit.  The integrated (area/arc-weighted) form keeps the
diffusion + coupling block symmetric, which is what makes bulk-surface mass
conservation exact for zero potentials.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import Mesh, RegionSet, build_polar_mesh
from .model import DiffusionSpec, InitialData, Nonlinearity, PotentialSet
from .operators import assemble_bulk_diffusion, assemble_surface_diffusion


class SolverError(RuntimeError):
    """Numerical failure inside a solve (singular system, NaN state)."""


# States per block of a march: a bound on the rows that a march, a window
# sweep or a per-node reduction holds at once.  Every per-node reduction is
# one ``row_sums`` row or one sparse product per row, so no bit depends on
# this number.  8 keeps the march buffer at 10 rows, about 1.3 MB at
# 64x128; below that the two halo rows become a large share of each block
_NODE_BLOCK = 8
# every block after the first repeats the last two states of the one before:
# the neighbours that a centered time difference reads
_HALO = 2


def row_sums(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j rows[..., j] * weights[j] for every row of ``rows``.

    Each row is multiplied into a C-ordered array and reduced along it on
    its own, so its bits depend only on that row; in a BLAS matrix-vector
    product they also depend on the other rows of the call, the layout
    and the alignment.  Per-node sums taken block by block thus keep
    their bits however the blocks are cut.
    """
    return np.multiply(rows, weights, order="C").sum(axis=-1)


def block_spans(n_nodes: int) -> list:
    """(start, stop) of each block of ``n_nodes`` states: block j brings the
    new states j*_NODE_BLOCK up to (j+1)*_NODE_BLOCK, after j > 0 the _HALO
    states before them.  Each state with two neighbours is then an interior
    row of exactly one block."""
    return [(max(new - _HALO, 0), min(new + _NODE_BLOCK, n_nodes))
            for new in range(0, n_nodes, _NODE_BLOCK)]


@dataclass
class Trajectory:
    """Uniformly spaced states; row k of each table is the state at times[k].

    A solve of a block of k states gives tables with a draw axis after the
    time axis, ``(n_nodes, k, n_cells)``.  ``start`` is the index of the
    first state in the run it was cut from (0 for a whole run); only the
    code that cuts blocks sets it.
    """

    times: np.ndarray
    y: np.ndarray        # (n_nodes, n_cells)
    z: np.ndarray
    y_gamma: np.ndarray  # (n_nodes, n_theta)
    z_gamma: np.ndarray
    dt: float
    packed: np.ndarray | None = None  # the (n_nodes, n_dof) states of a solve
    start: int = 0

    @property
    def n_nodes(self) -> int:
        return len(self.times)

    def index_at(self, t: float) -> int:
        k = int(round((t - self.times[0]) / self.dt)) if self.dt > 0 else 0
        if k < 0 or k >= self.n_nodes:
            raise ValueError(f"time {t} outside trajectory range")
        return k

    def state(self, k: int) -> InitialData:
        """A copy of the state at times[k], to restart a solve from there."""
        return InitialData(self.y[k].copy(), self.z[k].copy(),
                           self.y_gamma[k].copy(), self.z_gamma[k].copy())

    def rows(self, start: int, stop: int | None = None) -> "Trajectory":
        """The states start..stop-1, as views of this trajectory's tables."""
        cut = slice(start, stop)
        return Trajectory(times=self.times[cut], y=self.y[cut], z=self.z[cut],
                          y_gamma=self.y_gamma[cut], z_gamma=self.z_gamma[cut],
                          dt=self.dt,
                          packed=None if self.packed is None else self.packed[cut],
                          start=self.start + start)

    def blocks(self):
        """This trajectory cut into the blocks ``march`` yields, as views."""
        for start, stop in block_spans(self.n_nodes):
            yield self.rows(start, stop)

    def new_rows(self) -> "Trajectory":
        """The states of this block that the block before it did not hold:
        all but the _HALO leading states of a block after the first."""
        return self.rows(_HALO if self.start else 0)


@dataclass
class ObservationRecord:
    """Time derivative of z sampled on omega cells inside a time window."""

    values: np.ndarray        # (n_times, n_omega_cells)
    cell_indices: np.ndarray
    time_indices: np.ndarray
    cell_weights: np.ndarray  # cell areas restricted to omega
    dt: float

    def norm(self) -> float:
        """L2(omega x window) norm of the sampled time derivative."""
        per_time = row_sums(self.values**2, self.cell_weights)
        return float(np.sqrt(per_time.sum() * self.dt))


@dataclass(frozen=True)
class ReactionSet:
    """General per-equation reactions for the positivity-type system.

    ``rates`` evaluates them at the positive parts of the state, the
    construction used to propagate nonnegativity.
    """

    f1: Callable | None = None
    f2: Callable | None = None
    g1: Callable | None = None
    g2: Callable | None = None
    lipschitz_bound: float = 0.0

    def rates(self, y, z, yg, zg):
        y, z = np.maximum(y, 0.0), np.maximum(z, 0.0)
        yg, zg = np.maximum(yg, 0.0), np.maximum(zg, 0.0)
        zero_b = 0.0
        out = []
        for fn, args in ((self.f1, (y, z)), (self.f2, (y, z)),
                         (self.g1, (yg, zg)), (self.g2, (yg, zg))):
            out.append(fn(*args) if fn is not None else zero_b)
        return out


class PermutedLU:
    """SuperLU factors of ``P S P^T``, used as a solver for S itself.

    ``perm`` lists the packed index of each factor-order unknown and
    ``inverse`` its inverse; a right-hand side is gathered into factor
    order and the solution gathered back, so callers see packed order.
    """

    def __init__(self, lu: spla.SuperLU, perm: np.ndarray, inverse: np.ndarray):
        self._lu = lu
        self._perm = perm
        self._inverse = inverse
        self.nnz = lu.nnz  # L.nnz + U.nnz, without building L and U

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve ``S x = b`` (``S^T x = b`` for trans "T"); ``b`` is a
        vector or an ``(n_dof, k)`` block."""
        if b.ndim == 1:  # plain indexing is the cheapest gather of one vector
            return self._lu.solve(b[self._perm], trans)[self._inverse]
        # a block arrives as the transpose of a C-ordered (k, n_dof) array,
        # and SuperLU returns Fortran order: gathering along the rows of
        # the transposes reads and writes contiguous memory
        x = self._lu.solve(b.T.take(self._perm, axis=1).T, trans)
        return x.T.take(self._inverse, axis=1).T


def source_array(key: str, val, mesh: Mesh) -> np.ndarray:
    """Source ``key`` as an array checked against its size: f1, f2 per cell,
    g1, g2 per surface node; None is the zero source."""
    n = mesh.n_theta if key.startswith("g") else mesh.n_cells
    arr = np.zeros(n) if val is None else np.asarray(val, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"source {key} has shape {arr.shape}, expected ({n},)")
    return arr


def _time_nodes(t_start: float, t_end: float, dt: float) -> np.ndarray:
    """The time nodes of a solve from t_start to t_end in steps of dt."""
    n_steps = max(0, math.ceil((t_end - t_start) / dt - 1e-9)) if t_end > t_start else 0
    return t_start + dt * np.arange(n_steps + 1)


def _normalize_sources(sources, mesh: Mesh):
    """Turn a {f1,f2,g1,g2} spec of arrays/callables into callables of t."""
    if sources is None:
        return None
    out = {}
    for key in ("f1", "f2", "g1", "g2"):
        val = sources.get(key)
        if val is None or callable(val):
            out[key] = val
        else:
            out[key] = (lambda a: (lambda t: a))(source_array(key, val, mesh))
    return out


# The eight potentials of the implicit matrix, each with the (row, column)
# field blocks of the diagonal it fills: p_ij and q_ij couple field j into
# equation i, in the bulk and on the surface.
_IMPLICIT_POTENTIALS = (("p11", 0, 0), ("p12", 0, 1), ("p21", 1, 0),
                        ("p22", 1, 1), ("q11", 2, 2), ("q12", 2, 3),
                        ("q21", 3, 2), ("q22", 3, 3))


class SemilinearSystem:
    """Assembled coupled system: operators, implicit matrix, IMEX stepping.

    The packed state is x = (y, z, y_gamma, z_gamma); ``blocks`` holds the
    slice of each field in it.  Diffusion, trace coupling and the mass
    vector depend on the mesh and the diffusivities only, so
    ``with_potentials`` shares them and the factor order, and keeps just
    its own potential values.  K is stored once, in the factor order that
    SuperLU reads, so a factorization fills its values without a gather.
    """

    def __init__(self, mesh: Mesh, diffusion: DiffusionSpec,
                 potentials: PotentialSet | None = None,
                 nl_f: Nonlinearity | None = None,
                 nl_g: Nonlinearity | None = None):
        self.mesh = mesh
        self.diffusion = diffusion
        self.nl_f = nl_f
        self.nl_g = nl_g

        nb, ns = mesh.n_cells, mesh.n_theta
        self.n_dof = 2 * nb + 2 * ns
        self.blocks = (slice(0, nb), slice(nb, 2 * nb),
                       slice(2 * nb, 2 * nb + ns), slice(2 * nb + ns, self.n_dof))
        self.mass = np.concatenate([mesh.cell_areas, mesh.cell_areas,
                                    mesh.surface_weights, mesh.surface_weights])
        # factor order: each cell's (y, z) pair together, sector by sector
        # and ring by ring within a sector, then the (y_gamma, z_gamma)
        # pairs; minimum degree finds less fill from this numbering
        cells = np.arange(nb).reshape(mesh.n_r, ns).T.ravel()
        j = np.arange(ns)
        n = self.n_dof
        self._perm = np.concatenate([np.stack([cells, nb + cells], 1).ravel(),
                                     2 * nb + np.stack([j, ns + j], 1).ravel()])
        self._perm_inverse = np.empty(n, dtype=np.intp)
        self._perm_inverse[self._perm] = np.arange(n)
        self._K_diffusion = self._assemble_diffusion()
        # slots in K's stored data of the eight potential diagonals, in the
        # order of ``_IMPLICIT_POTENTIALS``, and of the main diagonal, in
        # packed order: CSC stores column by column with sorted rows, so
        # col * n + row ascends along the data and a search finds any entry
        K, inv = self._K_diffusion, self._perm_inverse
        stored = np.repeat(np.arange(n), np.diff(K.indptr)) * n + K.indices
        rows = np.concatenate([inv[self.blocks[r]]
                               for _, r, _ in _IMPLICIT_POTENTIALS])
        cols = np.concatenate([inv[self.blocks[c]]
                               for _, _, c in _IMPLICIT_POTENTIALS])
        self._pot_slots = np.searchsorted(stored, cols * n + rows)
        self._diag_slots = np.searchsorted(stored, inv * n + inv)
        self._set_potentials(potentials or PotentialSet.from_values(mesh))

    def _assemble_diffusion(self) -> sp.csc_matrix:
        """Integrated diffusion + trace coupling: the potential-free part of
        K, with rows and columns in factor order (``_perm_inverse``).

        The four y-z coupling diagonals are stored as explicit zeros, so the
        pattern holds a slot for every potential entry.
        """
        mesh, diffusion = self.mesh, self.diffusion
        nb, ns = mesh.n_cells, mesh.n_theta
        oy, oz, oyg, ozg = (b.start for b in self.blocks)
        bulk1 = assemble_bulk_diffusion(mesh, diffusion.a1)
        bulk2 = assemble_bulk_diffusion(mesh, diffusion.a2)
        surf1 = assemble_surface_diffusion(mesh, diffusion.d1)
        surf2 = assemble_surface_diffusion(mesh, diffusion.d2)
        t1, t2 = bulk1.bnd_t, bulk2.bnd_t
        i, j = np.arange(nb), np.arange(ns)
        zero_b = sp.coo_matrix((np.zeros(nb), (i, i)), shape=(nb, nb))
        zero_s = sp.coo_matrix((np.zeros(ns), (j, j)), shape=(ns, ns))
        blocks = [
            # bulk diffusion + flux to the surface unknowns
            (oy, oy, bulk1.matrix), (oy, oyg, bulk1.boundary),
            (oz, oz, bulk2.matrix), (oz, ozg, bulk2.boundary),
            # surface diffusion and the returning conormal flux
            (oyg, oyg, surf1.matrix - sp.diags(t1)),
            (oyg, oy, sp.coo_matrix((t1, (j, mesh.trace_map)), shape=(ns, nb))),
            (ozg, ozg, surf2.matrix - sp.diags(t2)),
            (ozg, oz, sp.coo_matrix((t2, (j, mesh.trace_map)), shape=(ns, nb))),
            # slots for the y-z coupling potentials
            (oy, oz, zero_b), (oz, oy, zero_b), (oyg, ozg, zero_s), (ozg, oyg, zero_s),
        ]
        rows, cols, vals = [], [], []
        for orow, ocol, matrix in blocks:
            m = sp.coo_matrix(matrix)
            rows.append(m.row + orow)
            cols.append(m.col + ocol)
            vals.append(m.data)
        inv = self._perm_inverse
        return sp.csc_matrix(
            (np.concatenate(vals),
             (inv[np.concatenate(rows)], inv[np.concatenate(cols)])),
            shape=(self.n_dof, self.n_dof))

    def _set_potentials(self, pot: PotentialSet) -> None:
        """Keep the area-weighted potential values, in the order of
        ``_pot_slots``, and reset the LU cache.

        Also fixes ``lipschitz``, the Lipschitz scale of the explicit part
        plus the potential magnitudes, for the step-size guard.
        """
        self.potentials = pot
        self._pot_values = np.concatenate([
            self.mass[self.blocks[i]] * getattr(pot, name)
            for name, i, _ in _IMPLICIT_POTENTIALS])
        L = max(float(np.abs(getattr(pot, name)).max())
                for name, _, _ in _IMPLICIT_POTENTIALS)
        if self.nl_f is not None:
            L = max(L, float(np.abs(pot.p13).max()) * self.nl_f.lipschitz_bound)
        if self.nl_g is not None:
            L = max(L, float(np.abs(pot.q13).max()) * self.nl_g.lipschitz_bound)
        self.lipschitz = L
        self._lu_cache: dict[float, PermutedLU] = {}

    def with_potentials(self, potentials: PotentialSet) -> "SemilinearSystem":
        """This system with other potentials; the diffusion part is shared."""
        system = copy.copy(self)
        system._set_potentials(potentials)
        return system

    def implicit_matrix(self, dt: float) -> sp.csc_matrix:
        """S = diag(mass/dt) - K, with K the diffusion, coupling and
        potential blocks, in packed order.

        The factor-order values are mapped back through ``_perm``; entries
        that come out zero (the coupling diagonals of zero potentials) are
        dropped, so S stores exactly its nonzeros.
        """
        K, n = self._K_diffusion, self.n_dof
        col = np.repeat(self._perm, np.diff(K.indptr))
        S = sp.csc_matrix((self._implicit_data(dt), (self._perm[K.indices], col)),
                          shape=(n, n))
        S.eliminate_zeros()
        return S

    def _implicit_data(self, dt: float) -> np.ndarray:
        """S's values on K's stored pattern: -k - p is the double -(k + p)."""
        data = -self._K_diffusion.data
        data[self._pot_slots] -= self._pot_values
        data[self._diag_slots] += self.mass / dt
        return data

    def factorization(self, dt: float) -> PermutedLU:
        """Sparse LU of the implicit matrix, one per step size.

        SuperLU factors ``P S P^T``, filled on K's stored pattern, which
        is already in the factor order of ``__init__``, so no sparse
        indexing runs here.  The minimum-degree ordering on A^T + A suits
        this nearly symmetric matrix: it roughly halves the fill of
        SuperLU's default COLAMD.  Relaxed supernodes (``relax``) and
        panels of several columns (``panel_size``) cost time here, so
        both are turned off; the fill is the same.
        """
        key = float(dt)
        if key not in self._lu_cache:
            K = self._K_diffusion
            # eliminate_zeros works in place: the shared pattern must not change
            S = sp.csc_matrix((self._implicit_data(dt), K.indices.copy(),
                               K.indptr.copy()), shape=K.shape)
            S.eliminate_zeros()
            try:
                lu = spla.splu(S, permc_spec="MMD_AT_PLUS_A",
                               relax=1, panel_size=1)
            except RuntimeError as exc:  # singular factorization
                raise SolverError(f"implicit factorization failed: {exc}") from exc
            self._lu_cache[key] = PermutedLU(lu, self._perm, self._perm_inverse)
        return self._lu_cache[key]

    def step_imex(self, x: np.ndarray, t: float, dt: float,
                  out: np.ndarray | None = None, sources=None,
                  reactions: ReactionSet | None = None,
                  lu: PermutedLU | None = None) -> np.ndarray:
        """One IMEX step of the packed state ``x`` at time ``t``.

        ``x`` is one state ``(n_dof,)`` or a block ``(k, n_dof)`` of states
        that share this system; the fields are ``x[..., block]``, so the
        potentials, the mass and the sources broadcast over the block, and
        one solve on the ``(n_dof, k)`` transpose advances every column.
        Writes the state at ``t + dt`` into ``out`` (a new array when None)
        and returns it.  ``sources`` must already be normalized callables;
        ``lu`` is ``factorization(dt)``, looked up when not given.
        """
        L = self.lipschitz if reactions is None \
            else max(self.lipschitz, reactions.lipschitz_bound)
        if L > 0 and dt > 0.5 / L:
            raise ValueError(
                f"dt={dt} exceeds the explicit-part stability bound 0.5/L={0.5 / L:.3g}")
        if lu is None:
            lu = self.factorization(dt)
        pot = self.potentials
        sy, sz, syg, szg = self.blocks
        y, z, yg, zg = x[..., sy], x[..., sz], x[..., syg], x[..., szg]
        # the right-hand side M (x/dt + E) is built in one array: the explicit
        # terms are added to x/dt block by block, then scaled by the mass
        E = x / dt
        if self.nl_f is not None:
            E[..., sy] += pot.p13 * self.nl_f(y, z)
        if self.nl_g is not None:
            E[..., syg] += pot.q13 * self.nl_g(yg, zg)
        if reactions is not None:
            for block, rate in zip(self.blocks, reactions.rates(y, z, yg, zg)):
                E[..., block] += rate
        if sources is not None:
            for block, key in zip(self.blocks, ("f1", "f2", "g1", "g2")):
                if sources[key] is not None:
                    E[..., block] += sources[key](t)
        E *= self.mass
        x_new = lu.solve(E.T).T
        if not np.isfinite(x_new).all():
            raise SolverError(f"non-finite state after step at t={t:.6g}")
        if out is None:
            return x_new
        out[:] = x_new
        return out

    def _trajectory(self, times: np.ndarray, X: np.ndarray, dt: float,
                    start: int = 0) -> Trajectory:
        """The packed states X at ``times`` as a Trajectory of views."""
        sy, sz, syg, szg = self.blocks
        return Trajectory(times=times, y=X[..., sy], z=X[..., sz],
                          y_gamma=X[..., syg], z_gamma=X[..., szg],
                          dt=float(dt), packed=X, start=start)

    def march(self, init: InitialData, t_end: float, dt: float,
              sources=None, reactions: ReactionSet | None = None,
              t_start: float = 0.0):
        """Integrate ``init`` from t_start to t_end, a block of states at a time.

        Yields a block per span of ``block_spans``: a Trajectory of
        consecutive states, the first of which is state ``block.start``.
        Its tables are views of one buffer of _NODE_BLOCK + _HALO rows that
        the next steps overwrite, so read or copy a block before asking for
        the next.  ``init`` holds one state, or a block of k states when
        every field has a leading axis of length k; the block shares one LU
        and is advanced in one step per time node.
        """
        srcs = _normalize_sources(sources, self.mesh)
        times = _time_nodes(t_start, t_end, dt)
        lead = np.shape(init.y0)[:1] if np.ndim(init.y0) == 2 else ()
        X = np.empty((min(times.size, _NODE_BLOCK + _HALO), *lead, self.n_dof))
        for name, block in zip(("y0", "z0", "y0_gamma", "z0_gamma"), self.blocks):
            values = np.asarray(getattr(init, name))
            shape = (*lead, block.stop - block.start)
            if values.shape != shape:
                raise ValueError(f"{name} has shape {values.shape}, expected {shape}")
            if not np.isfinite(values).all():
                raise ValueError(f"{name} contains non-finite values")
            X[0, ..., block] = values
        lu = self.factorization(dt) if times.size > 1 else None
        t = t_start
        rows = 1
        for start, stop in block_spans(times.size):
            if start:  # the halo: the last states of the previous block
                X[:_HALO] = X[rows - _HALO:rows]
            for k in range(start + (_HALO if start else 1), stop):
                try:
                    self.step_imex(X[k - start - 1], t, dt, out=X[k - start],
                                   sources=srcs, reactions=reactions, lu=lu)
                except SolverError as exc:
                    raise SolverError(
                        f"step {k} (t={times[k - 1]:.6g}): {exc}") from exc
                t = t + dt
            rows = stop - start
            yield self._trajectory(times[start:stop], X[:rows], dt, start)

    def solve(self, init: InitialData, t_end: float, dt: float,
              sources=None, reactions: ReactionSet | None = None,
              t_start: float = 0.0) -> Trajectory:
        """Integrate ``init`` from t_start to t_end; returns all intermediate
        states, the blocks of ``march`` stacked.

        The four tables of the result are views of one packed array.
        """
        times = _time_nodes(t_start, t_end, dt)
        X = None
        for block in self.march(init, t_end, dt, sources=sources,
                                reactions=reactions, t_start=t_start):
            if X is None:
                X = np.empty((times.size, *block.packed.shape[1:]))
            X[block.start:block.start + block.n_nodes] = block.packed
        return self._trajectory(times, X, dt)

    def coefficient_fields(self, x: np.ndarray, x_next: np.ndarray) -> np.ndarray:
        """The step's derivative in the four coupling coefficients, packed:
        ``f(y, z) | y_next | g(y_gamma, z_gamma) | y_gamma_next``.

        p13 and q13 multiply the explicit f and g, and p21 and q21 couple
        the new y pair into the z rows of the implicit matrix, so a ``dc``
        laid out in the blocks (p13, p21, q13, q21) adds
        ``M (dc * coefficient_fields(x, x_next))`` to the right-hand side
        of the step from ``x`` to ``x_next``.  Like ``step_imex``, it takes
        one state or a ``(..., n_dof)`` block of them.
        """
        sy, sz, syg, szg = self.blocks
        out = np.zeros(x.shape)
        if self.nl_f is not None:
            out[..., sy] = self.nl_f(x[..., sy], x[..., sz])
        out[..., sz] = x_next[..., sy]
        if self.nl_g is not None:
            out[..., syg] = self.nl_g(x[..., syg], x[..., szg])
        out[..., szg] = x_next[..., syg]
        return out

    def explicit_jacobian_T(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``(dE/dx)^T w`` for the explicit terms ``p13 f(y, z)`` and
        ``q13 g(y_gamma, z_gamma)`` at the state ``x``: the adjoint's pull
        of a mass-weighted ``w`` through one step's explicit part."""
        sy, sz, syg, szg = self.blocks
        pot = self.potentials
        out = np.zeros(x.shape)
        if self.nl_f is not None:
            fy, fz = self.nl_f.partials(x[..., sy], x[..., sz])
            out[..., sy] += pot.p13 * fy * w[..., sy]
            out[..., sz] += pot.p13 * fz * w[..., sy]
        if self.nl_g is not None:
            gy, gz = self.nl_g.partials(x[..., syg], x[..., szg])
            out[..., syg] += pot.q13 * gy * w[..., syg]
            out[..., szg] += pot.q13 * gz * w[..., syg]
        return out


def window_nodes(traj: Trajectory, t0: float, t1: float) -> np.ndarray:
    """Indices of the nodes whose centered stencil lies in ``traj`` and
    strictly inside (t0, t1), possibly none; the times ascend, so the
    indices are consecutive."""
    tol = 1e-9 * max(traj.dt, 1e-30)
    return 1 + np.flatnonzero((traj.times[:-2] > t0 + tol)
                              & (traj.times[2:] < t1 - tol))


def window_rows(block: Trajectory, t0: float, t1: float) -> Trajectory | None:
    """The rows of ``block`` from the state before its first window node to
    the state after its last, as views; None when it holds no window node.

    Each state with two neighbours is an interior row of exactly one block
    of ``march`` or ``Trajectory.blocks``, so these rows of consecutive
    blocks hold each window node of the run once, at most _NODE_BLOCK of
    them at a time.  This is the one walk of the window: the observation
    and the weighted Carleman sums both read it.
    """
    ks = window_nodes(block, t0, t1)
    return block.rows(int(ks[0]) - 1, int(ks[-1]) + 2) if ks.size else None


def require_window(n_nodes: int, t0: float, t1: float) -> None:
    """Refuse a window that holds no node of the states read."""
    if not n_nodes:
        raise ValueError(
            f"window ({t0}, {t1}) leaves no interior stencil nodes in the trajectory")


class WindowObservation:
    """The centered time derivative of z on omega inside (t0, t1), gathered
    from consecutive blocks of states such as ``march`` yields.

    ``add`` takes a block's ``window_rows``, so the record depends on the
    states only through their restriction to omega x (t0, t1).
    """

    def __init__(self, regions: RegionSet, mesh: Mesh,
                 t0: float | None = None, t1: float | None = None):
        self.cells = regions.omega
        self.weights = mesh.cell_areas[self.cells]
        self.t0 = regions.t0 if t0 is None else t0
        self.t1 = regions.t1 if t1 is None else t1
        self.values: list = []
        self.nodes: list = []
        self.dt = 0.0

    def add(self, block: Trajectory) -> None:
        """Difference the window nodes of ``block``."""
        rows = window_rows(block, self.t0, self.t1)
        self.dt = block.dt
        if rows is not None:
            # gather the omega values of the nodes and their two neighbouring
            # rows once, then difference the shifted rows
            z = rows.z[:, self.cells]
            self._keep((z[2:] - z[:-2]) / (2 * block.dt))
            self.nodes.append(rows.start + np.arange(1, rows.n_nodes - 1))

    def _keep(self, values: np.ndarray) -> None:
        self.values.append(values)

    def record(self) -> ObservationRecord:
        """The record of every block added so far."""
        require_window(len(self.nodes), self.t0, self.t1)
        return ObservationRecord(values=np.concatenate(self.values),
                                 cell_indices=self.cells,
                                 time_indices=np.concatenate(self.nodes),
                                 cell_weights=self.weights, dt=self.dt)


class WindowNorm(WindowObservation):
    """The norm of ``WindowObservation``'s record, reduced as the blocks
    arrive: each window node keeps sum_omega w (d_t z)^2, not its row."""

    def __init__(self, regions: RegionSet, mesh: Mesh,
                 t0: float | None = None, t1: float | None = None):
        super().__init__(regions, mesh, t0, t1)
        self.sums: list = []

    def _keep(self, values: np.ndarray) -> None:
        self.sums.append(row_sums(np.square(values, out=values), self.weights))

    def norm(self) -> float:
        """``record().norm()`` of the blocks added so far."""
        require_window(len(self.nodes), self.t0, self.t1)
        return float(np.sqrt(np.concatenate(self.sums).sum() * self.dt))


def observe_blocks(blocks, regions: RegionSet, mesh: Mesh,
                   t0: float | None = None,
                   t1: float | None = None) -> ObservationRecord:
    """The record of consecutive blocks of states such as ``march`` yields."""
    window = WindowObservation(regions, mesh, t0, t1)
    for block in blocks:
        window.add(block)
    return window.record()


def observe(traj: Trajectory, regions: RegionSet, mesh: Mesh,
            t0: float | None = None, t1: float | None = None) -> ObservationRecord:
    """Sample the centered time derivative of z on omega inside (t0, t1).

    Only nodes whose full centered stencil lies strictly inside the open
    window are used, so the record depends on the trajectory only through
    its restriction to omega x (t0, t1).
    """
    return observe_blocks([traj], regions, mesh, t0, t1)


def mass_series(traj: Trajectory, mesh: Mesh) -> np.ndarray:
    """Total bulk+surface content of the y pair per node (conserved when
    potentials, reactions, and sources vanish)."""
    return (row_sums(traj.y, mesh.cell_areas)
            + row_sums(traj.y_gamma, mesh.surface_weights))


# --- manufactured-solution verification -----------------------------------

def manufactured_problem(mesh: Mesh, diffusion: DiffusionSpec,
                         potentials: PotentialSet, y_expr: str, z_expr: str):
    """Compensating sources so that (y_expr, z_expr) solves the linear system.

    The system has no nonlinearity, so p13 and q13 do not enter; the other
    potentials and the diffusivities must be spatially constant for the
    symbolic sources to be exact.  Returns the
    initial data, the sources and ``exact_state(t)`` as an InitialData.
    """
    import sympy as sym

    from .fields import T as SYM_T
    from .fields import (CircleField, SpaceTimeField, divergence_a_grad,
                         surface_divergence_d_grad)

    Y = SpaceTimeField(y_expr)
    Z = SpaceTimeField(z_expr)
    pot = {name: float(np.asarray(getattr(potentials, name)).ravel()[0])
           for name, _, _ in _IMPLICIT_POTENTIALS}
    for name in pot:
        arr = getattr(potentials, name)
        if np.ptp(arr) != 0:
            raise ValueError("manufactured sources need constant potentials")
    a1 = float(diffusion.a1[0])
    a2 = float(diffusion.a2[0])
    d1 = float(diffusion.d1[0])
    d2 = float(diffusion.d2[0])
    for arr in (diffusion.a1, diffusion.a2, diffusion.d1, diffusion.d2):
        if np.ptp(arr) != 0:
            raise ValueError("manufactured sources need constant diffusivities")

    R = mesh.R_domain
    src_f1 = (sym.diff(Y.expr, SYM_T) - divergence_a_grad(a1, Y.expr)
              - pot["p11"] * Y.expr - pot["p12"] * Z.expr)
    src_f2 = (sym.diff(Z.expr, SYM_T) - divergence_a_grad(a2, Z.expr)
              - pot["p21"] * Y.expr - pot["p22"] * Z.expr)

    Yg, Zg = Y.on_circle(R), Z.on_circle(R)
    src_g1 = (sym.diff(Yg.expr, SYM_T) - surface_divergence_d_grad(d1, Yg.expr, R)
              + a1 * Y.normal_derivative_expr(R)
              - pot["q11"] * Yg.expr - pot["q12"] * Zg.expr)
    src_g2 = (sym.diff(Zg.expr, SYM_T) - surface_divergence_d_grad(d2, Zg.expr, R)
              + a2 * Z.normal_derivative_expr(R)
              - pot["q21"] * Yg.expr - pot["q22"] * Zg.expr)

    xy = mesh.cell_xy
    th = mesh.surface_theta
    sf1, sf2 = SpaceTimeField(src_f1), SpaceTimeField(src_f2)
    sg1, sg2 = CircleField(src_g1), CircleField(src_g2)
    sources = {
        "f1": lambda t: sf1.value(t, xy),
        "f2": lambda t: sf2.value(t, xy),
        "g1": lambda t: sg1.value(t, th),
        "g2": lambda t: sg2.value(t, th),
    }

    def exact_state(t):
        return InitialData(y0=Y.value(t, xy), z0=Z.value(t, xy),
                           y0_gamma=Yg.value(t, th), z0_gamma=Zg.value(t, th))

    return exact_state(0.0), sources, exact_state


def _state_error(mesh: Mesh, state: InitialData, exact: InitialData) -> float:
    e = 0.0
    e += np.dot(mesh.cell_areas, (state.y0 - exact.y0) ** 2)
    e += np.dot(mesh.cell_areas, (state.z0 - exact.z0) ** 2)
    e += np.dot(mesh.surface_weights, (state.y0_gamma - exact.y0_gamma) ** 2)
    e += np.dot(mesh.surface_weights, (state.z0_gamma - exact.z0_gamma) ** 2)
    return float(np.sqrt(e))


_MMS_Y = "(exp(-t)*(1 - x1**2 - x2**2) + 1) * (1 + x1/4)"
_MMS_Z = "(exp(-t/2)*(1 - (x1**2 + x2**2)/2)) * (1 + x2/4) + 1"


def mms_convergence(levels, t_end: float = 0.4, potentials_const=None) -> dict:
    """Refinement study against a smooth manufactured solution.

    Each level is (n_r, n_theta, dt).  When the mesh varies across levels the
    error is measured against the exact solution at t_end; when all levels
    share one mesh, a dt/8 reference run on that mesh isolates the temporal
    order (self-convergence).  Returns the pairwise observed orders.
    """
    if len(levels) < 3:
        raise ValueError("need at least 3 refinement levels")
    meshes_vary = len({(nr, nt) for nr, nt, _ in levels}) > 1
    errors = []
    for n_r, n_theta, dt in levels:
        mesh = build_polar_mesh(n_r, n_theta)
        diffusion = DiffusionSpec.from_values(mesh)
        pot = PotentialSet.from_values(mesh, **(potentials_const or {}))
        init, sources, exact_state = manufactured_problem(
            mesh, diffusion, pot, _MMS_Y, _MMS_Z)
        system = SemilinearSystem(mesh, diffusion, pot)
        traj = system.solve(init, t_end, dt, sources=sources)
        if meshes_vary:
            errors.append(_state_error(mesh, traj.state(-1),
                                       exact_state(traj.times[-1])))
        else:
            ref = system.solve(init, t_end, min(l[2] for l in levels) / 8,
                               sources=sources)
            errors.append(_state_error(mesh, traj.state(-1), ref.state(-1)))
    orders = [float(np.log2(errors[i] / errors[i + 1]))
              for i in range(len(errors) - 1)]
    return {"orders": orders}

