"""Numerical laboratory for coupled bulk-surface parabolic systems with
dynamic boundary conditions: forward solves, positivity diagnostics,
Carleman-weight verification, and coefficient recovery from one interior
observation component."""

from .geometry import Mesh, RegionSet, build_polar_mesh, build_regions
from .model import (
    DiffusionSpec,
    InitialData,
    Nonlinearity,
    PotentialSet,
    make_power_nonlinearity,
)
from .operators import (
    SparseOp,
    assemble_bulk_diffusion,
    assemble_surface_diffusion,
    conormal_flux,
)
from .forward import (
    ObservationRecord,
    ReactionSet,
    SemilinearSystem,
    SolverError,
    Trajectory,
    observe,
)
from .carleman import CarlemanConfig, DiffusionPair, carleman_ratio, shifted_ratio
from .inverse import (
    CoefficientVector,
    InverseProblem,
    build_patch_basis,
    simulate_twin,
    stability_ensemble,
)

__version__ = "0.1.0"

__all__ = [
    "Mesh", "RegionSet", "build_polar_mesh", "build_regions",
    "DiffusionSpec", "InitialData", "Nonlinearity", "PotentialSet",
    "make_power_nonlinearity",
    "SparseOp", "assemble_bulk_diffusion", "assemble_surface_diffusion",
    "conormal_flux",
    "ObservationRecord", "ReactionSet", "SemilinearSystem", "SolverError",
    "Trajectory", "observe",
    "CarlemanConfig", "DiffusionPair", "carleman_ratio", "shifted_ratio",
    "CoefficientVector", "InverseProblem", "build_patch_basis",
    "simulate_twin", "stability_ensemble",
    "__version__",
]
