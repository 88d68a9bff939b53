import numpy as np
import pytest

from bulksurf.geometry import build_polar_mesh
from bulksurf.model import (
    DiffusionSpec,
    InitialData,
    PotentialSet,
    make_power_nonlinearity,
    validate_assumption_I,
)


@pytest.fixture(scope="module")
def mesh():
    return build_polar_mesh(8, 16, 1.0)


def test_diffusion_floor_enforced(mesh):
    with pytest.raises(ValueError, match="floor"):
        DiffusionSpec.from_values(mesh, a1=1.0, a2=1.0, d1=1.0, d2=1.0, beta=2.0)
    spec = DiffusionSpec.from_values(mesh, a1=2.0, a2=3.0)
    assert spec.beta == 2.0


def test_potential_sup_norm_bound(mesh):
    with pytest.raises(ValueError, match="admissible"):
        PotentialSet.from_values(mesh, R_bound=1.0, p11=2.0)
    pot = PotentialSet.from_values(mesh, R_bound=1.0, p11=0.5)
    with pytest.raises(ValueError, match="admissible"):
        pot.with_fields(p11=np.full(mesh.n_cells, 1.5))


def test_stability_admissible_flag(mesh):
    pot = PotentialSet.from_values(mesh, p21=1.0, q21=1.0, p0=0.5)
    assert pot.stability_admissible()
    pot2 = PotentialSet.from_values(mesh, p21=0.25, q21=1.0, p0=0.5)
    assert not pot2.stability_admissible()


def test_below_p0_names_each_potential_under_the_floor(mesh):
    # a NaN value is not above the floor either
    pot = PotentialSet.from_values(mesh, p21=1.0, q21=1.0, p0=0.5)
    assert pot.below_p0() == []
    q21 = np.full(mesh.n_theta, 1.0)
    q21[3] = np.nan
    assert pot.with_fields(q21=q21).below_p0() == ["q21"]
    low = pot.with_fields(p21=np.full(mesh.n_cells, 0.25), q21=q21)
    assert low.below_p0() == ["p21", "q21"]
    assert not low.stability_admissible()
    assert PotentialSet.from_values(mesh, p21=1.0, q21=1.0).below_p0() == []


def test_power_nonlinearity_values():
    const = make_power_nonlinearity(0, 0, (2.0, 2.0))
    assert const(np.array([3.0]), np.array([5.0]))[0] == 1.0
    fy, fz = const.partials(np.array([3.0]), np.array([5.0]))
    assert fy[0] == 0.0 and fz[0] == 0.0

    prod = make_power_nonlinearity(1, 1, (2.0, 2.0))
    assert prod(np.array([1.0]), np.array([1.0]))[0] == 1.0
    fy, _ = prod.partials(np.array([1.0]), np.array([1.0]))
    assert fy[0] == 1.0
    # sup over box [0,2]x[0,2] of |z| + |y| = 4
    assert prod.lipschitz_bound == 4.0

    sq = make_power_nonlinearity(2, 1, (2.0, 3.0))
    assert sq(np.array([2.0]), np.array([3.0]))[0] == 12.0


def test_partials_match_finite_differences():
    # oracle: centered differences of evaluate at 100 random points in the box
    rng = np.random.default_rng(7)
    for d, delta in ((1, 1), (2, 1), (0, 2), (3, 2)):
        nl = make_power_nonlinearity(d, delta, (2.0, 2.0))
        y = rng.uniform(0.2, 1.9, 100)
        z = rng.uniform(0.2, 1.9, 100)
        fy, fz = nl.partials(y, z)
        h = 1e-6
        fy_fd = (nl(y + h, z) - nl(y - h, z)) / (2 * h)
        fz_fd = (nl(y, z + h) - nl(y, z - h)) / (2 * h)
        scale = np.abs(fy) + np.abs(fz) + 1.0
        assert np.max(np.abs(fy - fy_fd) / scale) < 1e-6
        assert np.max(np.abs(fz - fz_fd) / scale) < 1e-6


def test_power_guards():
    with pytest.raises(ValueError):
        make_power_nonlinearity(-1, 0, (1.0, 1.0))
    with pytest.raises(ValueError):
        make_power_nonlinearity(1, 1, (0.0, 1.0))


def test_initial_data_trace_defaults(mesh):
    r2 = mesh.cell_r**2
    init = InitialData.from_values(mesh, y0=1.0 - r2, z0=0.5)
    # the defaults copy the outer ring
    np.testing.assert_array_equal(init.y0_gamma, init.y0[mesh.trace_map])
    np.testing.assert_array_equal(init.z0_gamma, init.z0[mesh.trace_map])


def test_assumption_I_zero_margin_case(mesh):
    # y0=1, z0=0, p11=p12=0, p13=1, f=y*z so f(1,0)=0: margin exactly 0
    f = make_power_nonlinearity(1, 1, (2.0, 2.0))
    g = make_power_nonlinearity(0, 0, (2.0, 2.0))
    pot = PotentialSet.from_values(mesh, p13=1.0, p21=1.0, q21=1.0)
    init = InitialData.from_values(mesh, y0=1.0, z0=0.0)
    rep = validate_assumption_I(pot, f, g, init, r=1.0, p0=0.5)
    assert rep.margins["bulk reaction floor"] == 0.0
    assert rep.passed


def test_assumption_I_p21_floor_violation(mesh):
    f = make_power_nonlinearity(0, 0, (2.0, 2.0))
    pot = PotentialSet.from_values(mesh, p21=0.5, q21=1.0)
    init = InitialData.from_values(mesh, y0=1.0, z0=0.0)
    rep = validate_assumption_I(pot, f, f, init, r=1.0, p0=1.0)
    assert not rep.passed
    assert rep.margins["p21 >= p0"] == pytest.approx(-0.5)
    # one coefficient set: each p0 margin is named once
    assert [k for k in rep.margins if "p0" in k] == ["p21 >= p0", "q21 >= p0"]


def test_assumption_I_arithmetic_margin(mesh):
    # oracle: p11*r + p12*z0 + p13*f(r, z0) = -0.2 + 0.1 + 0.2 = 0.1
    f = make_power_nonlinearity(1, 1, (3.0, 3.0))
    g = make_power_nonlinearity(0, 0, (3.0, 3.0))
    pot = PotentialSet.from_values(mesh, p11=-0.1, p12=1.0, p13=1.0, p21=1.0,
                                   q21=1.0)
    init = InitialData.from_values(mesh, y0=2.0, z0=0.1)
    rep = validate_assumption_I(pot, f, g, init, r=2.0, p0=0.5)
    assert rep.margins["bulk reaction floor"] == pytest.approx(0.1)
    assert rep.passed
