"""Polar finite-volume mesh of the unit disk and its boundary circle.

The bulk grid is cell-centered: ring ``i`` (1-based) has centers at
``r_i = (i - 1/2) dr``, sector ``j`` at ``theta_j = j dtheta``.  The innermost
ring covers the origin, so there is no degenerate center cell.  The boundary
circle carries a matched periodic grid of ``n_theta`` nodes, one per angular
sector, linked to the outermost ring by ``trace_map``.

Cell areas are exact: ``r_i * dr * dtheta`` equals the true sector-annulus
area, so the total is ``pi R^2`` to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """Polar finite-volume grid on a disk plus its matched surface grid.

    All arrays are laid out ring-major: bulk cell (i, j) with ring index
    i = 1..n_r and sector index j = 0..n_theta-1 lives at flat index
    ``(i - 1) * n_theta + j``.  Surface node j sits at angle ``theta_j``.
    """

    n_r: int
    n_theta: int
    R_domain: float
    cell_centers: np.ndarray      # (n_cells, 2) as (r, theta)
    cell_areas: np.ndarray        # (n_cells,)
    surface_nodes: np.ndarray     # (n_theta,) arc-length positions R*theta_j
    surface_weights: np.ndarray   # (n_theta,) arc lengths
    trace_map: np.ndarray         # (n_theta,) flat index of adjacent bulk cell

    # face connectivity for divergence-form operators; geom = length/distance
    faces_a: np.ndarray = field(repr=False, default=None)
    faces_b: np.ndarray = field(repr=False, default=None)
    faces_geom: np.ndarray = field(repr=False, default=None)
    bnd_cells: np.ndarray = field(repr=False, default=None)
    bnd_geom: np.ndarray = field(repr=False, default=None)

    @property
    def n_cells(self) -> int:
        return self.n_r * self.n_theta

    @property
    def dr(self) -> float:
        return self.R_domain / self.n_r

    @property
    def cell_r(self) -> np.ndarray:
        return self.cell_centers[:, 0]

    @property
    def cell_theta(self) -> np.ndarray:
        return self.cell_centers[:, 1]

    @property
    def cell_xy(self) -> np.ndarray:
        """Cartesian cell centers, shape (n_cells, 2)."""
        r, th = self.cell_r, self.cell_theta
        return np.column_stack([r * np.cos(th), r * np.sin(th)])

    @property
    def surface_theta(self) -> np.ndarray:
        return self.surface_nodes / self.R_domain

    def bulk_l2(self, u: np.ndarray) -> float:
        return float(np.sqrt(np.dot(self.cell_areas, u * u)))

    def surface_l2(self, u: np.ndarray) -> float:
        return float(np.sqrt(np.dot(self.surface_weights, u * u)))


@dataclass(frozen=True)
class RegionSet:
    """The observation disk omega and the time window."""

    omega: np.ndarray         # cell indices with r < rho_omega
    t0: float
    t1: float
    theta: float


def build_polar_mesh(n_r: int, n_theta: int, R_domain: float = 1.0) -> Mesh:
    """The polar finite-volume mesh of the disk of radius ``R_domain``:
    ``n_r`` >= 4 rings of ``n_theta`` (even, >= 8) sectors."""
    if n_r < 4:
        raise ValueError(f"n_r={n_r} below minimum 4: resolution unusable")
    if n_theta < 8 or n_theta % 2 != 0:
        raise ValueError(f"n_theta={n_theta} must be even and >= 8")
    if R_domain <= 0:
        raise ValueError("R_domain must be positive")

    dr = R_domain / n_r
    dth = 2.0 * np.pi / n_theta

    ring = np.arange(1, n_r + 1)
    r_centers = (ring - 0.5) * dr
    theta_centers = np.arange(n_theta) * dth

    rr, tt = np.meshgrid(r_centers, theta_centers, indexing="ij")
    cell_centers = np.column_stack([rr.ravel(), tt.ravel()])
    # exact sector-annulus area: ((i dr)^2 - ((i-1) dr)^2)/2 * dth = r_i dr dth
    cell_areas = (rr * dr * dth).ravel()

    surface_nodes = R_domain * theta_centers
    surface_weights = np.full(n_theta, R_domain * dth)
    trace_map = (n_r - 1) * n_theta + np.arange(n_theta)

    # interior faces, ring by ring: first those between rings i and i+1
    # (at radius i dr: length i dr dth, center distance dr), then those
    # between sectors j and j+1, periodic in j (length dr, arc distance
    # r_i dth)
    cells = np.arange(n_r * n_theta).reshape(n_r, n_theta)
    faces_a = np.concatenate([cells[:-1].ravel(), cells.ravel()])
    faces_b = np.concatenate([cells[1:].ravel(),
                              np.roll(cells, -1, axis=1).ravel()])
    faces_geom = np.repeat(np.concatenate([ring[:-1] * dth,
                                           dr / (r_centers * dth)]), n_theta)

    # boundary faces: outermost cell to its surface node over half a cell
    bnd_cells = trace_map.copy()
    bnd_geom = np.full(n_theta, (R_domain * dth) / (0.5 * dr))

    return Mesh(
        n_r=n_r,
        n_theta=n_theta,
        R_domain=R_domain,
        cell_centers=cell_centers,
        cell_areas=cell_areas,
        surface_nodes=surface_nodes,
        surface_weights=surface_weights,
        trace_map=trace_map,
        faces_a=faces_a,
        faces_b=faces_b,
        faces_geom=faces_geom,
        bnd_cells=bnd_cells,
        bnd_geom=bnd_geom,
    )


def build_regions(
    mesh: Mesh,
    rho_prime: float,
    rho_dprime: float,
    rho_omega: float,
    t0: float,
    t1: float,
) -> RegionSet:
    """Build the observation disk omega and the window; the nested disks
    omega' < omega'' < omega are checked, but only omega is kept."""
    if not (0.0 < rho_prime < rho_dprime < rho_omega < mesh.R_domain):
        raise ValueError(
            "region radii must satisfy 0 < rho_prime < rho_dprime < rho_omega "
            f"< R_domain, got ({rho_prime}, {rho_dprime}, {rho_omega}, "
            f"{mesh.R_domain})"
        )
    if not (0.0 < t0 < t1):
        raise ValueError(f"time window must satisfy 0 < t0 < t1, got ({t0}, {t1})")

    # the radii are ordered, so a cell center in omega' lies in all three
    r = mesh.cell_r
    if not np.any(r < rho_prime):
        raise ValueError(
            f"omega_prime (r < {rho_prime}) contains no cell centers: "
            "mesh too coarse"
        )

    return RegionSet(
        omega=np.flatnonzero(r < rho_omega),
        t0=float(t0),
        t1=float(t1),
        theta=0.5 * (t0 + t1),
    )
