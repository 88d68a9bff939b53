import ast
import pathlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import bulksurf.forward
import bulksurf.inverse
from bulksurf.cli import _make_inverse_problem, _truth_coeffs
from bulksurf.config import load_config
from bulksurf.forward import SolverError, observe
from bulksurf.geometry import build_polar_mesh, build_regions
from bulksurf.inverse import (
    InverseProblem,
    build_patch_basis,
    simulate_twin,
    stability_ensemble,
)
from bulksurf.model import (
    DiffusionSpec,
    InitialData,
    PotentialSet,
    make_power_nonlinearity,
)


def make_problem(n_r=8, n_theta=16, dt=0.01, t_end=0.5, window=(0.1, 0.4),
                 n_pr=2, n_pt=2, n_arcs=4, rho=(0.2, 0.3, 0.45)):
    mesh = build_polar_mesh(n_r, n_theta, 1.0)
    regions = build_regions(mesh, *rho, *window)
    diffusion = DiffusionSpec.from_values(mesh)
    base = PotentialSet.from_values(
        mesh, p11=0.2, p12=0.1, p21=1.0, p22=-0.1,
        q11=0.1, q12=0.05, q21=1.0, q22=-0.05, q13=0.3,
        R_bound=10.0, p0=0.3)
    nl = make_power_nonlinearity(1, 1, (8.0, 8.0))
    init = InitialData.from_values(mesh, y0=1.5, z0=1.0)
    basis = build_patch_basis(mesh, n_pr, n_pt, n_arcs)
    return InverseProblem(mesh=mesh, regions=regions, diffusion=diffusion,
                          base_potentials=base, nl_f=nl, nl_g=nl, init=init,
                          t_end=t_end, dt=dt, basis=basis,
                          r_floor=1.5, r1_floor=0.05)


@pytest.fixture(scope="module")
def problem():
    return make_problem()


@pytest.fixture(scope="module")
def truth(problem):
    rng = np.random.default_rng(5)
    nb, na = problem.basis.n_bulk, problem.basis.n_arcs
    return problem.coefficient_vector(
        p13=0.8 + 0.3 * rng.standard_normal(nb),
        q21=1.0 + 0.2 * rng.standard_normal(na),
        free=("p13", "q21"))


@pytest.fixture(scope="module")
def data(problem, truth):
    return simulate_twin(problem, truth, noise_level=0.0, seed=0)


def test_inverse_problem_refuses_a_window_past_t_end():
    with pytest.raises(ValueError, match="t1=0.6 exceeds t_end=0.5"):
        make_problem(window=(0.1, 0.6))


def test_objective_and_gradient_solves_twice_per_step_up_to_t1(
        problem, truth, data, monkeypatch):
    # the forward solve stops at the window end t1 and the adjoint sweep
    # starts there: one LU solve per step each way, none after t1
    factorization = bulksurf.forward.SemilinearSystem.factorization
    solves = []

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, *args, **kwargs):
            solves.append(1)
            return self.lu.solve(*args, **kwargs)

    monkeypatch.setattr(bulksurf.forward.SemilinearSystem, "factorization",
                        lambda self, dt: CountingLU(factorization(self, dt)))
    problem.objective_and_gradient(truth, data)
    assert len(solves) == round(2 * problem.regions.t1 / problem.dt) == 80


def test_projection_idempotent(problem, truth):
    proj = truth.project()
    np.testing.assert_array_equal(proj.p13, truth.p13)
    np.testing.assert_array_equal(proj.q21, truth.q21)
    again = proj.project()
    np.testing.assert_array_equal(again.pack(), proj.pack())


def test_projection_clips_bounds(problem):
    c = problem.coefficient_vector(p13=20.0, q21=0.0)
    proj = c.project()
    assert np.all(proj.p13 == 10.0)   # R_bound
    assert np.all(proj.q21 == 0.3)    # p0 floor


def test_pack_unpack_roundtrip(truth):
    x = truth.pack()
    back = truth.unpack(x)
    np.testing.assert_array_equal(back.p13, truth.p13)
    np.testing.assert_array_equal(back.q21, truth.q21)


def test_twin_determinism(problem, truth):
    r1 = simulate_twin(problem, truth, noise_level=0.0, seed=3)
    r2 = simulate_twin(problem, truth, noise_level=0.0, seed=3)
    np.testing.assert_array_equal(r1.values, r2.values)
    n1 = simulate_twin(problem, truth, noise_level=0.01, seed=3)
    n2 = simulate_twin(problem, truth, noise_level=0.01, seed=3)
    np.testing.assert_array_equal(n1.values, n2.values)


def test_twin_noise_magnitude(problem, truth, data):
    noisy = simulate_twin(problem, truth, noise_level=0.01, seed=7)
    rel = np.sqrt(np.mean((noisy.values - data.values) ** 2)) \
        / np.sqrt(np.mean(data.values**2))
    assert 0.005 <= rel <= 0.02


def test_objective_zero_at_truth(problem, truth, data):
    J = problem.objective(truth, data)
    assert J <= 1e-12


def test_objective_positive_away_from_truth(problem, truth, data):
    rng = np.random.default_rng(11)
    c = truth.unpack(truth.pack() + 0.3 * rng.standard_normal(truth.pack().size))
    assert problem.objective(c.project(), data) > 1e-8


def test_objective_reduces_the_march(problem, truth, data, monkeypatch):
    # the misfit is read from the march block by block, with the bits of
    # the misfit of the stored trajectory's record
    rng = np.random.default_rng(12)
    c = truth.unpack(truth.pack() + 0.3 * rng.standard_normal(truth.pack().size))
    traj = problem.system_for(c).solve(problem.init, problem.regions.t1,
                                       problem.dt)
    want = problem._misfit(observe([traj], problem.regions, problem.mesh), data)
    solves = []
    solve = bulksurf.forward.SemilinearSystem.solve
    monkeypatch.setattr(bulksurf.forward.SemilinearSystem, "solve",
                        lambda *a, **k: solves.append(1) or solve(*a, **k))
    assert problem.objective(c, data) == want
    assert solves == []


def test_misfit_quadratic_in_data(problem, truth, data):
    # with zero model output, doubling the data quadruples the data term
    zero_rec = simulate_twin(problem, truth)
    zero_rec.values = np.zeros_like(zero_rec.values)
    d2 = simulate_twin(problem, truth)
    d2.values = 2 * d2.values
    j1 = problem._misfit(zero_rec, data)
    j2 = problem._misfit(zero_rec, d2)
    assert j2 == pytest.approx(4.0 * j1, rel=1e-12)
    assert j1 == pytest.approx(0.5 * data.norm() ** 2, rel=1e-12)


def test_gradient_matches_finite_differences(problem, truth, data):
    # oracle: central differences of the objective, 20 directions x 3 points
    rng = np.random.default_rng(17)
    x_truth = truth.pack()
    h = 1e-5
    worst = 0.0
    for pt in range(3):
        x0 = x_truth + 0.2 * rng.standard_normal(x_truth.size)
        c0 = truth.unpack(x0).project()
        x0 = c0.pack()
        _, g = problem.objective_and_gradient(c0, data)
        for _ in range(20):
            v = rng.standard_normal(x0.size)
            v /= np.linalg.norm(v)
            jp = problem.objective(truth.unpack(x0 + h * v), data)
            jm = problem.objective(truth.unpack(x0 - h * v), data)
            fd = (jp - jm) / (2 * h)
            rel = abs(fd - np.dot(g, v)) / max(abs(fd), 1e-12)
            worst = max(worst, rel)
    assert worst <= 1e-5


def test_gradient_all_four_blocks_per_coordinate(problem, data):
    # oracle: central differences per coordinate, with all four blocks free,
    # so the implicit-side p21/q21 and explicit-side p13/q13 sums are checked
    rng = np.random.default_rng(23)
    nb, na = problem.basis.n_bulk, problem.basis.n_arcs
    c0 = problem.coefficient_vector(
        p13=0.8 + 0.3 * rng.standard_normal(nb),
        p21=1.0 + 0.2 * rng.standard_normal(nb),
        q13=0.3 + 0.2 * rng.standard_normal(na),
        q21=1.0 + 0.2 * rng.standard_normal(na),
        free=("p13", "p21", "q13", "q21")).project()
    x0 = c0.pack()
    _, g = problem.objective_and_gradient(c0, data)
    h = 1e-5
    fd = np.empty_like(x0)
    for i in range(x0.size):
        e = np.zeros_like(x0)
        e[i] = h
        fd[i] = (problem.objective(c0.unpack(x0 + e), data)
                 - problem.objective(c0.unpack(x0 - e), data)) / (2 * h)
    assert np.abs(fd).min() > 1e-6  # every coordinate is sensitive
    rel = np.abs(fd - g) / np.abs(fd)
    assert rel.max() <= 1e-5


def test_gradient_of_regularizer_alone(problem, truth, data):
    # with zero observation misfit, the gradient is reg * W * (c - prior)
    prior = problem.coefficient_vector(p13=0.5, q21=1.0, free=("p13", "q21"))
    reg = 0.7
    J0, g0 = problem.objective_and_gradient(truth, data, reg_weight=0.0,
                                            prior=prior)
    J1, g1 = problem.objective_and_gradient(truth, data, reg_weight=reg,
                                            prior=prior)
    d = truth.pack() - prior.pack()
    w = problem._reg_weights(truth)
    assert J1 - J0 == pytest.approx(0.5 * reg * np.dot(w, d * d), rel=1e-10)
    np.testing.assert_allclose(g1 - g0, reg * w * d, rtol=1e-8, atol=1e-14)


def test_reconstruct_at_truth_returns_immediately(problem, truth, data):
    out = problem.reconstruct(data, truth, max_iter=50, tolerance=1e-8)
    assert len(out["history"]) <= 1
    assert out["final_objective"] <= 1e-12


def test_reconstruct_recovers_small_case(problem, truth, data):
    guess = problem.coefficient_vector(p13=0.5, q21=1.0, free=("p13", "q21"))
    out = problem.reconstruct(data, guess, max_iter=100, tolerance=1e-12)
    rel = out["coeffs"].l2_distance(truth, problem.basis) \
        / max(truth.l2_distance(problem.coefficient_vector(
            p13=0.0, q21=0.0, free=("p13", "q21")), problem.basis), 1e-300)
    assert rel <= 0.05
    objs = [h["objective"] for h in out["history"]]
    assert all(b <= a + 1e-15 for a, b in zip(objs, objs[1:]))


def test_regularization_error_curve_is_u_shaped(problem, truth):
    # 1% noise, reg weight swept over 3+ decades: too little regularization
    # overfits the noise, too much biases toward the prior
    data = simulate_twin(problem, truth, noise_level=0.01, seed=3)
    guess = problem.coefficient_vector(p13=0.5, q21=1.0, free=("p13", "q21"))
    zero = problem.coefficient_vector(p13=0.0, q21=0.0, free=("p13", "q21"))
    norm = truth.l2_distance(zero, problem.basis)
    errs = []
    for reg in (0.0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
        out = problem.reconstruct(data, guess, max_iter=150, tolerance=1e-13,
                                  reg_weight=reg)
        errs.append(out["coeffs"].l2_distance(truth, problem.basis) / norm)
    best = int(np.argmin(errs))
    assert 0 < best < len(errs) - 1   # interior optimum
    assert errs[0] > errs[best] * 1.2   # overfit branch
    assert errs[-1] > errs[best] * 1.2  # underfit branch


def test_stability_ensemble_basic(problem, truth):
    report = stability_ensemble(problem, truth, n_draws=6,
                                perturbation_scale=1e-3, seed=2)
    assert len(report.records) == 6
    assert np.isfinite(report.max_ratio)
    assert report.spread >= 1.0


def test_stability_linear_response(problem, truth):
    # same seed, halved scale: delta halves exactly, obs within 10% of half
    rep1 = stability_ensemble(problem, truth, n_draws=4,
                              perturbation_scale=1e-3, seed=9)
    rep2 = stability_ensemble(problem, truth, n_draws=4,
                              perturbation_scale=5e-4, seed=9)
    for r1, r2 in zip(rep1.records, rep2.records):
        assert r2["delta_norm"] == pytest.approx(0.5 * r1["delta_norm"],
                                                 rel=1e-12)
        assert r2["obs_norm"] == pytest.approx(0.5 * r1["obs_norm"], rel=0.10)


def test_stability_half_scale_response_matches_a_half_scale_ensemble(
        problem, truth):
    # with no rejection both ensembles draw the same shapes, and
    # 0.5 * (scale * shape) is (scale / 2) * shape bit for bit
    full = stability_ensemble(problem, truth, n_draws=3,
                              perturbation_scale=1e-3, seed=9)
    half = stability_ensemble(problem, truth, n_draws=3,
                              perturbation_scale=5e-4, seed=9)
    assert full.n_rejected == half.n_rejected == 0
    assert [r["obs_norm_half_scale"] for r in full.records] == \
        [r["obs_norm"] for r in half.records]


def test_stability_half_scale_response_is_the_draws_own(problem, truth):
    # p21 just above the p0 floor: draws that push it below are redrawn, so
    # a second ensemble at half the scale would pair other perturbations
    near_floor = replace(truth, p21=np.full_like(truth.p21, 0.3007))
    report = stability_ensemble(problem, near_floor, n_draws=6,
                                perturbation_scale=1e-3, seed=2)
    assert report.n_rejected > 0
    for rec in report.records:
        assert rec["obs_norm_half_scale"] / rec["obs_norm"] == \
            pytest.approx(0.5, abs=1e-3)


def test_stability_midtime_identities(problem, truth):
    scale = 1e-3
    report = stability_ensemble(problem, truth, n_draws=4,
                                perturbation_scale=scale, seed=4)
    # first order in the evaluation step (stiff-coupling rate 4 a / dr^2)
    # plus a quadratic remainder in the perturbation size
    kappa = 4.0 * problem.diffusion.a2.max() / problem.mesh.dr**2
    for rec in report.records:
        tol = rec["identity_dt"] * kappa + 100 * scale**2
        assert tol < 0.5  # the bound itself must be meaningful
        assert rec["v_rel_err"] <= tol
        assert rec["u_rel_err"] <= tol
        assert rec["v_gamma_rel_err"] <= tol
        assert rec["u_gamma_rel_err"] <= tol


def test_stability_identity_difference_matches_two_lu_quotient(problem, truth):
    # the first-step difference solved on the reference LU against the
    # difference of two separately factorized steps, at the identity's step
    system = problem.system_for(truth)
    traj = system.solve(problem.init, problem.t_end, problem.dt)
    k = traj.index_at(problem.regions.theta)
    state = traj.state(k)
    x = np.concatenate([state.y0, state.z0, state.y0_gamma, state.z0_gamma])
    dt = problem.dt / 64.0
    s_ref = system.step_imex(x, traj.times[k], dt)
    pot = system.potentials
    rng = np.random.default_rng(3)
    nb, ns = problem.mesh.n_cells, problem.mesh.n_theta
    for _ in range(3):
        a1, a2 = rng.uniform(-1e-3, 1e-3, (2, nb))
        l1, l2 = rng.uniform(-1e-3, 1e-3, (2, ns))
        pert = system.with_potentials(pot.with_fields(
            p13=pot.p13 + a1, p21=pot.p21 + a2, q13=pot.q13 + l1,
            q21=pot.q21 + l2))
        quotient = (pert.step_imex(x, traj.times[k], dt) - s_ref) / dt
        derivative = system.step_difference(
            x, s_ref, dt, np.concatenate([a1, a2, l1, l2])) / dt
        for block in system.blocks:   # u0, v0, u0_g, v0_g
            assert np.linalg.norm(derivative[block] - quotient[block]) <= \
                1e-6 * np.linalg.norm(quotient[block])
    # an update that never settles ends at the pass cap
    with pytest.raises(SolverError, match="no fixed point"):
        system.step_difference(x, s_ref, dt,
                               np.concatenate([np.full(nb, np.nan), a2, l1, l2]))


def test_stability_factorization_count(problem, truth, monkeypatch):
    splu = bulksurf.forward.spla.splu
    calls = []
    monkeypatch.setattr(bulksurf.forward.spla, "splu",
                        lambda *a, **k: calls.append(1) or splu(*a, **k))
    report = stability_ensemble(problem, truth, n_draws=3,
                                perturbation_scale=1e-3, seed=9)
    assert report.n_rejected == 0
    # the reference at dt and dt/64, then each draw's full- and half-scale
    # systems at dt; the identity reuses the reference's dt/64 LU
    assert len(calls) == 2 + 2 * 3


def test_stability_refuses_a_zero_scale(problem, truth):
    with pytest.raises(ValueError, match="perturbation_scale must be positive"):
        stability_ensemble(problem, truth, n_draws=2, perturbation_scale=0.0)


def test_stability_refusal_names_the_margins(problem, truth):
    # the twin data and the ensemble read one reference run, which names
    # every margin when Assumption I or II fails: here y0 = 1.5 < r = 5
    strict = replace(problem, r_floor=5.0)
    for run in (lambda: simulate_twin(strict, truth),
                lambda: stability_ensemble(strict, truth, n_draws=2)):
        with pytest.raises(ValueError, match=r"violates the model assumptions: "
                           r"I=\{'y0_tilde >= r': -3\.5, .*\} II=\{"):
            run()


def test_checkpoint_budget_guard():
    with pytest.raises(ValueError, match="checkpoint"):
        make_problem(n_r=8, n_theta=16, dt=1e-7, t_end=10.0)


def test_checkpoint_guard_refuses_before_any_solve(monkeypatch):
    # 4x8 cells and 8 surface nodes pack 80 dofs; t1 = 0.8 at dt = 1e-6
    # stores 800,001 states of them, 64M floats, past the 5e7 budget.
    # Every solve, on either path, first takes SemilinearSystem.factorization
    factorization = bulksurf.forward.SemilinearSystem.factorization
    built = []
    monkeypatch.setattr(bulksurf.forward.SemilinearSystem, "factorization",
                        lambda self, dt: built.append(dt)
                        or factorization(self, dt))
    with pytest.raises(ValueError, match="checkpoint storage exhausted"):
        make_problem(n_r=4, n_theta=8, dt=1e-6, t_end=1.0, window=(0.1, 0.8))
    assert built == []


def test_inverse_composes_the_step_algebra_of_forward():
    # the adjoint sweep and the first-step difference are SemilinearSystem
    # methods: this module factorizes nothing, solves no transposed system
    # and pulls nothing through the explicit terms itself
    tree = ast.parse(pathlib.Path(bulksurf.inverse.__file__).read_text())
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert not names & {"factorization", "explicit_jacobian_T"}
    keywords = {node.arg for node in ast.walk(tree)
                if isinstance(node, ast.keyword)}
    assert "trans" not in keywords


def test_checkpoint_guard_counts_the_nodes_up_to_t1():
    # every solve of the inverse layer stops at t1 = 0.4: 40,001 stored
    # nodes, where the 200,001 up to t_end would exceed the budget
    problem = make_problem(n_r=8, n_theta=16, dt=1e-5, t_end=2.0)
    assert problem.regions.t1 == 0.4


def test_objective_and_gradient_peaks_below_two_stored_solves():
    # one objective and gradient at the default config holds the stored
    # solve up to t1 (161 states of 1,088 dofs, 1.40 MB) and, per step of
    # the sweep, one state's coefficient fields; the whole table of them
    # lifted the traced peak to 3.7 stored solves
    cfg = load_config(None)
    problem = _make_inverse_problem(cfg)
    truth = _truth_coeffs(problem, cfg)
    data = simulate_twin(problem, truth, seed=cfg.seed)
    problem.objective_and_gradient(truth, data)
    tracemalloc.start()
    try:
        problem.objective_and_gradient(truth, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_nodes = round(cfg.regions.t1 / cfg.dt) + 1
    stored = n_nodes * problem.system_for(truth).n_dof * 8
    assert peak < 2 * stored, (peak, stored)
