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
from scipy.linalg import lapack

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
# fixed-point passes of ``step_difference`` before it gives up
_MAX_DIFFERENCE_PASSES = 8


def row_sums(rows: np.ndarray, weights: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """sum_j rows[..., j] * weights[j] for every row of ``rows``.

    Each row is multiplied into a C-ordered array (``out`` when given, a
    new one otherwise) and reduced along it on its own, so its bits depend
    only on that row; in a BLAS matrix-vector product they also depend on
    the other rows of the call, the layout and the alignment.  Per-node
    sums taken block by block thus keep their bits however the blocks are
    cut.
    """
    return np.multiply(rows, weights, out=out, order="C").sum(axis=-1)


def node_energies(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_omega w v^2 at each node row of ``values``: one ``row_sums`` row
    per node, so its bits do not depend on the block the row sits in.  The
    squares are weighted in their own array."""
    squares = np.square(values, order="C")
    return row_sums(squares, weights, out=squares)


def window_energy(blocks, dt: float) -> float:
    """dt times the sum of the per-node energies in ``blocks``, consecutive
    ``node_energies`` arrays: the squared L2(omega x window) norm."""
    return float(np.concatenate(blocks).sum() * dt)


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
        y, z, yg, zg = (np.maximum(f, 0.0) for f in (y, z, yg, zg))
        return [0.0 if fn is None else fn(*args)
                for fn, args in ((self.f1, (y, z)), (self.f2, (y, z)),
                                 (self.g1, (yg, zg)), (self.g2, (yg, zg)))]


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


def band_order(n_r: int) -> np.ndarray:
    """The row of a sector's packed ``(field, ring)`` table that holds each
    unknown of its band order ``(y_1, z_1, ..., y_nr, z_nr, y_gamma,
    z_gamma)``.

    The packed state reshaped to ``(2 n_r + 2, n_theta)`` has the y rings,
    the z rings, y_gamma and z_gamma as rows and the sectors as columns.
    In the band order each unknown of a sector couples only to those at
    most two places away: its partner field and its radial neighbours.
    """
    ring = np.arange(n_r)
    return np.concatenate([np.stack([ring, n_r + ring], 1).ravel(),
                           [2 * n_r, 2 * n_r + 1]])


# sub- and superdiagonals of each Fourier mode's band matrix, and the row
# of its main diagonal in LAPACK's band storage: two more rows on top hold
# the fill of the pivoting
_BAND = 2
_BAND_DIAGONAL = 2 * _BAND


class FourierBandLU:
    """LU factors of a block-circulant S, taken mode by mode along theta.

    When S couples each sector only to itself and its two neighbours, with
    the same blocks in every sector and equal blocks towards either
    neighbour, a real DFT along theta splits it into ``n_theta/2 + 1``
    real radial matrices, ``A_0 + 2 cos(2 pi k / n_theta) A_1`` for mode k
    (Hockney, J. ACM 12(1), 1965; Swarztrauber, SIAM Review 19(3), 1977).
    In ``band_order`` each is banded with two sub- and superdiagonals;
    ``band`` holds all of them as one block-diagonal band, as LAPACK's
    ``dgbtrf`` factors it, and ``pivots`` its row interchanges.  ``nnz``
    counts the band's stored entries, its fill rows included.
    """

    def __init__(self, band: np.ndarray, pivots: np.ndarray, n_r: int,
                 n_theta: int):
        self._band = band
        self._pivots = pivots
        self._order = band_order(n_r)
        self._inverse = np.argsort(self._order)
        self._n_theta = n_theta
        self.nnz = band.size

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve ``S x = b`` (``S^T x = b`` for trans "T"); ``b`` is a
        vector or an ``(n_dof, k)`` block.

        One ``rfft`` along theta, one ``dgbtrs`` with the real and
        imaginary parts of every mode as right-hand sides, one ``irfft``.
        A vector is a block of one column, so each column of a block gets
        the bits of its own solve.
        """
        rows, n_theta = self._order.size, self._n_theta
        # a block arrives as the transpose of a C-ordered (k, n_dof) array:
        # each state's (field, ring) table is then contiguous along theta,
        # and no copy is made
        states = np.ascontiguousarray(b.T).reshape(-1, rows, n_theta)
        k = len(states)
        spectra = np.fft.rfft(states)
        n_modes = spectra.shape[-1]
        # right-hand sides (state, real | imaginary), each mode after mode
        # in band order: a C-ordered (k, 2, n_modes, rows) array is the
        # Fortran-ordered (n_modes rows, 2k) matrix dgbtrs reads
        parts = spectra.view(float).reshape(k, rows, n_modes, 2)
        rhs = parts.transpose(0, 3, 2, 1).take(self._order, axis=3)
        x, _ = lapack.dgbtrs(self._band, _BAND, _BAND, rhs.reshape(2 * k, -1).T,
                             self._pivots, trans=int(trans == "T"),
                             overwrite_b=1)
        # back into the spectra's array; the indices are a permutation, so
        # "clip" only spares take its bounds-checked buffer
        x.T.reshape(k, 2, n_modes, rows).transpose(0, 3, 2, 1).take(
            self._inverse, axis=1, out=parts, mode="clip")
        out = np.fft.irfft(spectra, n=n_theta).reshape(k, -1)
        return out[0] if b.ndim == 1 else out.T


def _circulant_stencil(K: sp.csc_matrix, perm: np.ndarray, mesh: Mesh,
                       mass: np.ndarray):
    """The band coordinates of sector 0's entries of K when K and the mass
    are block-circulant in theta, as ``FourierBandLU`` needs; else None.

    K is stored in factor order; ``perm`` gives each entry's packed row and
    column, whose ``divmod`` by n_theta is its (table row, sector).  Every
    entry must couple a sector to itself or a neighbour, at most two band
    places away; every sector must hold the same entries with the same
    values as sector 0, and the couplings to sectors j-1 and j+1 must be
    equal.  Returns sector 0's slots in K's data for itself and its
    neighbour j+1, their rows and columns in LAPACK's band storage, and
    which of them couple to the neighbour.
    """
    n_theta = mesh.n_theta
    order = band_order(mesh.n_r)
    m = order.size
    rings = mass.reshape(-1, n_theta)
    if not (rings == rings[:, :1]).all():
        return None
    place = np.argsort(order)
    row_ring, row_sector = np.divmod(perm[K.indices], n_theta)
    col_ring, col_sector = np.divmod(
        np.repeat(perm, np.diff(K.indptr)), n_theta)
    row, col = place[row_ring], place[col_ring]
    # 0 within the sector, 1 towards sector j+1, 2 towards sector j-1
    shift = (col_sector - row_sector) % n_theta
    side = np.select([shift == 0, shift == 1, shift == n_theta - 1], [0, 1, 2], -1)
    offset = row - col
    if (side < 0).any() or (np.abs(offset) > _BAND).any():
        return None
    key = (side * (2 * _BAND + 1) + offset + _BAND) * m + col
    first = np.flatnonzero(row_sector == 0)
    # sector 0's value at each key; NaN where sector 0 has no entry
    table = np.full(3 * (2 * _BAND + 1) * m, np.nan)
    table[key[first]] = K.data[first]
    counts = np.bincount(key, minlength=table.size)
    if not ((counts == n_theta * ~np.isnan(table)).all()
            and (K.data == table[key]).all()):
        return None
    towards = table.reshape(3, -1)
    if not np.array_equal(towards[1], towards[2], equal_nan=True):
        return None
    kept = first[side[first] < 2]
    return (kept, _BAND_DIAGONAL + offset[kept], col[kept], side[kept] == 1)


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

# The coupling coefficients of ``coefficient_fields``, in the order of the
# packed blocks (y, z, y_gamma, z_gamma) they enter: ``coefficient_blocks``
_COEFF_NAMES = ("p13", "p21", "q13", "q21")


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

        nb, ns = mesh.n_cells, mesh.n_theta
        self.n_dof = 2 * nb + 2 * ns
        self.blocks = sy, sz, syg, szg = (
            slice(0, nb), slice(nb, 2 * nb),
            slice(2 * nb, 2 * nb + ns), slice(2 * nb + ns, self.n_dof))
        # the explicit terms, each (coefficient, nonlinearity, row block,
        # partner block): p13 f(y, z) enters the y rows and q13
        # g(y_gamma, z_gamma) the y_gamma rows, each when it is given
        self._explicit = tuple(
            term for term in (("p13", nl_f, sy, sz), ("q13", nl_g, syg, szg))
            if term[1] is not None)
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
        # checked once per mesh and diffusivities; the potentials decide
        # per system (``_set_potentials``)
        self._stencil = _circulant_stencil(K, self._perm, mesh, self.mass)
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
        plus the potential magnitudes, for the step-size guard, and
        whether ``factorization`` takes the Fourier path: K must be
        block-circulant and every implicit potential constant along each
        ring.
        """
        self.potentials = pot
        self._pot_values = np.concatenate([
            self.mass[self.blocks[i]] * getattr(pot, name)
            for name, i, _ in _IMPLICIT_POTENTIALS])
        rings = self._pot_values.reshape(-1, self.mesh.n_theta)
        self._fourier = (self._stencil is not None
                         and bool((rings == rings[:, :1]).all()))
        L = max(float(np.abs(getattr(pot, name)).max())
                for name, _, _ in _IMPLICIT_POTENTIALS)
        for name, nl, _, _ in self._explicit:
            L = max(L, float(np.abs(getattr(pot, name)).max()) * nl.lipschitz_bound)
        self.lipschitz = L
        self._lu_cache: dict[float, PermutedLU | FourierBandLU] = {}

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

    def factorization(self, dt: float) -> PermutedLU | FourierBandLU:
        """LU of the implicit matrix, one per step size.

        A block-circulant S (``_set_potentials`` decides) is factored mode
        by mode along theta (``_fourier_lu``), every other S by SuperLU
        (``_permuted_lu``).  Both solvers take the same ``solve(b,
        trans)`` in packed order and report their stored entries as
        ``nnz``.
        """
        key = float(dt)
        if key not in self._lu_cache:
            factor = self._fourier_lu if self._fourier else self._permuted_lu
            self._lu_cache[key] = factor(dt)
        return self._lu_cache[key]

    def _permuted_lu(self, dt: float) -> PermutedLU:
        """SuperLU factors of ``P S P^T``, filled on K's stored pattern,
        which is already in the factor order of ``__init__``, so no sparse
        indexing runs here.

        The minimum-degree ordering on A^T + A suits this nearly symmetric
        matrix: it roughly halves the fill of SuperLU's default COLAMD.
        Relaxed supernodes (``relax``) and panels of several columns
        (``panel_size``) cost time here, so both are turned off; the fill
        is the same.
        """
        K = self._K_diffusion
        # eliminate_zeros works in place: the shared pattern must not change
        S = sp.csc_matrix((self._implicit_data(dt), K.indices.copy(),
                           K.indptr.copy()), shape=K.shape)
        S.eliminate_zeros()
        try:
            lu = spla.splu(S, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
        except RuntimeError as exc:  # singular factorization
            raise SolverError(f"implicit factorization failed: {exc}") from exc
        return PermutedLU(lu, self._perm, self._perm_inverse)

    def _fourier_lu(self, dt: float) -> FourierBandLU:
        """``dgbtrf`` of every Fourier mode's band matrix at once.

        The band diagonals come straight from sector 0's values of S on
        K's stored pattern: mode k adds ``2 cos(2 pi k / n_theta)`` times
        the couplings to sector j+1 to those within the sector.
        """
        slots, band_rows, cols, towards = self._stencil
        values = self._implicit_data(dt)[slots]
        n_theta = self.mesh.n_theta
        n_modes = n_theta // 2 + 1
        per_sector = self.n_dof // n_theta
        band = np.zeros((_BAND_DIAGONAL + _BAND + 1, n_modes, per_sector))
        inside = ~towards
        band[band_rows[inside], :, cols[inside]] = values[inside, None]
        band[band_rows[towards], :, cols[towards]] += values[towards, None] * (
            2 * np.cos(2 * np.pi * np.arange(n_modes) / n_theta))
        lu, pivots, info = lapack.dgbtrf(
            np.asfortranarray(band.reshape(len(band), -1)), _BAND, _BAND,
            overwrite_ab=1)
        if info:
            raise SolverError(f"implicit factorization failed: dgbtrf info "
                              f"{info} (mode {(info - 1) // per_sector})")
        return FourierBandLU(lu, pivots, self.mesh.n_r, n_theta)

    def step_imex(self, x: np.ndarray, t: float, dt: float,
                  out: np.ndarray | None = None, sources=None,
                  reactions: ReactionSet | None = None,
                  lu: PermutedLU | FourierBandLU | None = None) -> np.ndarray:
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
        # the right-hand side M (x/dt + E) is built in one array: the explicit
        # terms are added to x/dt block by block, then scaled by the mass
        E = x / dt
        for name, nl, rows, partner in self._explicit:
            E[..., rows] += getattr(self.potentials, name) * nl(
                x[..., rows], x[..., partner])
        if reactions is not None:
            rates = reactions.rates(*(x[..., block] for block in self.blocks))
            for block, rate in zip(self.blocks, rates):
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
        for _, nl, rows, partner in self._explicit:
            out[..., rows] = nl(x[..., rows], x[..., partner])
        out[..., sz] = x_next[..., sy]
        out[..., szg] = x_next[..., syg]
        return out

    def coefficient_blocks(self) -> tuple:
        """(name, packed block) of each coupling coefficient, in the layout
        of ``coefficient_fields``."""
        return tuple(zip(_COEFF_NAMES, self.blocks))

    def explicit_jacobian_T(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``(dE/dx)^T w`` for the explicit terms ``p13 f(y, z)`` and
        ``q13 g(y_gamma, z_gamma)`` at the state ``x``: the adjoint's pull
        of a mass-weighted ``w`` through one step's explicit part."""
        out = np.zeros(x.shape)
        for name, nl, rows, partner in self._explicit:
            c = getattr(self.potentials, name)
            d_rows, d_partner = nl.partials(x[..., rows], x[..., partner])
            out[..., rows] += c * d_rows * w[..., rows]
            out[..., partner] += c * d_partner * w[..., rows]
        return out

    def coefficient_gradient(self, traj: Trajectory, cells: np.ndarray,
                             load: np.ndarray) -> np.ndarray:
        """The adjoint sweep of ``traj``, a solve of this system, for an
        objective whose derivative in the z values of ``cells`` at node n
        is ``load[n]``: from mu = 0 at the last state, one transposed solve
        on the forward LU per step back.  Returns M sum_n mu^{n+1} * F[n],
        F[n] the ``coefficient_fields`` of the step from node n, formed one
        step at a time: minus the gradient density."""
        X, dt, M = traj.packed, traj.dt, self.mass
        lu = self.factorization(dt)
        rows = self.blocks[1].start + cells
        mu, acc = np.zeros(self.n_dof), np.zeros(self.n_dof)
        for m in range(traj.n_nodes - 1, 0, -1):
            rhs = (M / dt) * mu
            rhs[rows] -= load[m]
            rhs += self.explicit_jacobian_T(X[m], M * mu)
            mu = lu.solve(rhs, trans="T")
            acc += mu * self.coefficient_fields(X[m - 1], X[m])
        return M * acc

    def step_difference(self, x: np.ndarray, s_ref: np.ndarray, dt: float,
                        dc: np.ndarray) -> np.ndarray:
        """delta = s_pert - s_ref after one step of length ``dt`` from ``x``.

        ``s_ref`` is this system's step; the perturbed system moves the
        coupling coefficients by ``dc``, laid out like
        ``coefficient_fields``.  Subtracting the two steps gives
        S delta = M (dc * coefficient_fields(x, s_ref + delta)), which
        fixed-point passes on this system's LU solve to round-off: each
        contracts by about dt * |dp21|.
        """
        lu = self.factorization(dt)
        delta = np.zeros(self.n_dof)
        for _ in range(_MAX_DIFFERENCE_PASSES):
            new = lu.solve(self.mass
                           * (dc * self.coefficient_fields(x, s_ref + delta)))
            update = np.abs(new - delta).max()
            delta = new
            if update <= 4 * np.finfo(float).eps * np.abs(delta).max():
                return delta
        raise SolverError(
            f"first-step difference: no fixed point in {_MAX_DIFFERENCE_PASSES} "
            f"passes (last update {update:.3g})")


def window_nodes(times: np.ndarray, dt: float, t0: float, t1: float
                 ) -> np.ndarray:
    """Indices of the nodes whose centered stencil lies in ``times``, a grid
    of step ``dt``, and strictly inside (t0, t1), possibly none; the times
    ascend, so the indices are consecutive."""
    tol = 1e-9 * max(dt, 1e-30)
    return 1 + np.flatnonzero((times[:-2] > t0 + tol) & (times[2:] < t1 - tol))


def window_rows(block: Trajectory, t0: float, t1: float) -> Trajectory | None:
    """The rows of ``block`` from the state before its first window node to
    the state after its last, as views; None when it holds no window node.

    Each state with two neighbours is an interior row of exactly one block
    of ``march`` or ``Trajectory.blocks``, so these rows of consecutive
    blocks hold each window node of the run once, at most _NODE_BLOCK of
    them at a time.  This is the one walk of the window: the observation
    and the weighted Carleman sums both read it.
    """
    ks = window_nodes(block.times, block.dt, t0, t1)
    return block.rows(int(ks[0]) - 1, int(ks[-1]) + 2) if ks.size else None


def window_times(t0: float, t1: float, dt: float) -> np.ndarray:
    """The times of a run from 0 in steps of ``dt`` that ``window_rows``
    keeps: from the state before the first node of the window (t0, t1) to
    the state after the last."""
    times = _time_nodes(0.0, t1, dt)
    ks = window_nodes(times, dt, t0, t1)
    require_window(ks.size, t0, t1)
    return times[ks[0] - 1:ks[-1] + 2]


def require_window(n_nodes: int, t0: float, t1: float) -> None:
    """Refuse a window that holds no node of the states read."""
    if not n_nodes:
        raise ValueError(
            f"window ({t0}, {t1}) leaves no interior stencil nodes in the trajectory")


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
        return math.sqrt(window_energy(
            [node_energies(self.values, self.cell_weights)], self.dt))

    def transpose(self, table: np.ndarray, n_nodes: int) -> np.ndarray:
        """The centred difference's transpose: the (n_nodes, n_omega_cells)
        z values whose sum against a run's z on omega equals the sum of
        ``table`` against that run's record."""
        out = np.zeros((n_nodes, self.cell_indices.size))
        scaled = table / (2 * self.dt)
        # the window nodes are consecutive: slices add in place
        first = self.time_indices[0]
        out[first + 1:first + 1 + len(scaled)] += scaled
        out[first - 1:first - 1 + len(scaled)] -= scaled
        return out


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
        self.sums.append(node_energies(values, self.weights))

    def norm(self) -> float:
        """``record().norm()`` of the blocks added so far."""
        require_window(len(self.nodes), self.t0, self.t1)
        return math.sqrt(window_energy(self.sums, self.dt))


def observe(blocks, regions: RegionSet, mesh: Mesh,
            t0: float | None = None, t1: float | None = None) -> ObservationRecord:
    """Sample the centered time derivative of z on omega inside (t0, t1)
    from consecutive blocks of states: a march, or ``[traj]`` for a whole
    trajectory.

    Only nodes whose full centered stencil lies strictly inside the open
    window are used, so the record depends on the states only through
    their restriction to omega x (t0, t1).
    """
    window = WindowObservation(regions, mesh, t0, t1)
    for block in blocks:
        window.add(block)
    return window.record()


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

    def constant(arr, what):
        if np.ptp(arr) != 0:
            raise ValueError(f"manufactured sources need constant {what}")
        return float(arr[0])

    pot = {name: constant(getattr(potentials, name), "potentials")
           for name, _, _ in _IMPLICIT_POTENTIALS}
    a1, a2, d1, d2 = (constant(getattr(diffusion, k), "diffusivities")
                      for k in ("a1", "a2", "d1", "d2"))

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

