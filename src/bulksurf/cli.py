"""Experiment orchestrator: subcommands, result persistence, exit codes.

Every run writes a results directory with a config echo, CSV series, a
column-schema file, and a JSON summary whose ``checks`` block decides the
exit status: 0 when every check passes, 1 on validation/check failure, 2 on
numerical failure.  Re-running with the same config and seed reproduces the
CSV bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from .carleman import (
    TEST_FIELDS,
    CarlemanConfig,
    DiffusionPair,
    carleman_sweep,
    default_s1,
    require_p0_floor,
    require_unit_disk,
    shifted_sweep,
    sigma_bounds_report,
    weight_property_margins,
    weight_vanishing_report,
)
from .config import (
    ConfigError,
    RunConfig,
    compile_expression,
    load_config,
    parse_field_spec,
)
from .forward import (
    ReactionSet,
    SemilinearSystem,
    SolverError,
    WindowNorm,
    mass_series,
    row_sums,
)
from .inverse import (
    InverseProblem,
    build_patch_basis,
    simulate_twin,
    stability_ensemble,
)
from .model import _BULK_NAMES, _SURF_NAMES, InitialData
from .positivity import positivity_experiment


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return str(obj)
    return obj


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def write_csv(path: str, header: list[str], rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(_to_jsonable(obj), indent=2, sort_keys=True) + "\n")


class _Runner:
    """Shared output plumbing for one subcommand invocation."""

    def __init__(self, cfg: RunConfig, out_dir: str):
        self.cfg = cfg
        self.out = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.checks: dict[str, bool] = {}
        lam1 = cfg.carleman["lambda1"]
        self.effective: dict = {
            "seed": cfg.seed,
            "lambda1": lam1,
            "s1_at_lambda1": _s1(cfg, lam1),
            "epsilon": cfg.carleman["epsilon"],
        }
        self.schema: dict[str, list[str]] = {}
        write_json(os.path.join(out_dir, "config_echo.json"), cfg.raw)

    def csv(self, name: str, header: list[str], rows: list) -> None:
        write_csv(os.path.join(self.out, name), header, rows)
        self.schema[name] = header

    def finish(self, extra: dict | None = None) -> int:
        summary = {"checks": self.checks, "effective": self.effective,
                   "passed": all(self.checks.values())}
        if extra:
            summary.update(extra)
        write_json(os.path.join(self.out, "summary.json"), summary)
        write_json(os.path.join(self.out, "schema.json"), self.schema)
        for name, ok in self.checks.items():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        return 0 if all(self.checks.values()) else 1


def _s1(cfg: RunConfig, lam: float) -> float:
    """The configured s1, or the default floor at ``lam``."""
    return cfg.carleman["s1"] or default_s1(lam, cfg.regions.t0, cfg.regions.t1)


def _cmd_simulate(run: _Runner) -> int:
    cfg = run.cfg
    mesh = cfg.mesh
    system = SemilinearSystem(mesh, cfg.diffusion, cfg.potentials,
                              nl_f=cfg.nl_f, nl_g=cfg.nl_g)
    # the run is reduced block by block as it steps: no table of states
    window = WindowNorm(cfg.regions, mesh)
    rows, my, finite = [], [], True
    for block in system.march(cfg.init, cfg.t_end, cfg.dt):
        window.add(block)
        new = block.new_rows()
        my.append(mass_series(new, mesh))
        mz = (row_sums(new.z, mesh.cell_areas)
              + row_sums(new.z_gamma, mesh.surface_weights))
        lows = zip(*(f.min(axis=-1) for f in (new.y, new.z, new.y_gamma,
                                              new.z_gamma)))
        rows += [(t, my[-1][k], mz[k], mesh.bulk_l2(new.y[k]),
                  mesh.bulk_l2(new.z[k]), min(low))
                 for k, (t, low) in enumerate(zip(new.times, lows))]
        finite = finite and np.isfinite(new.y).all() and np.isfinite(new.z).all()
    final = block.state(-1)
    # the LU, the system and the march buffer go before the CSVs are formatted
    fill = system.factorization(cfg.dt).nnz
    del system, block, new
    run.csv("series.csv", ["t", "mass_y", "mass_z", "l2_y", "l2_z", "min_state"],
            rows)
    run.csv("final_state.csv", ["cell", "y", "z"],
            [(i, final.y0[i], final.z0[i]) for i in range(mesh.n_cells)])
    run.csv("final_surface.csv", ["node", "y_gamma", "z_gamma"],
            [(j, final.y0_gamma[j], final.z0_gamma[j])
             for j in range(mesh.n_theta)])

    run.checks["state_finite"] = bool(finite)
    pot = cfg.potentials
    pure_diffusion = all(np.abs(getattr(pot, n)).max() == 0.0
                         for n in _BULK_NAMES + _SURF_NAMES)
    run.effective["mass_tolerance"] = 1e-10
    if pure_diffusion:
        my = np.concatenate(my)
        drift = np.abs(np.diff(my)).max() / max(abs(my[0]), 1e-300)
        run.checks["mass_conservation"] = bool(drift <= 1e-10)
        run.effective["mass_drift"] = float(drift)
    run.effective["observation_norm"] = window.norm()
    return run.finish({"lu_fill_nnz": fill})


def _cmd_positivity(run: _Runner) -> int:
    cfg = run.cfg
    pz = cfg.positivity
    reactions = ReactionSet(
        **{k: compile_expression(spec, ("u", "v"), f"positivity.reactions.{k}")
           for k, spec in pz["reactions"].items() if spec is not None},
        lipschitz_bound=pz["lipschitz_bound"])
    n_draws, t_end = pz["draws"], pz["t_end"]
    rng = np.random.default_rng(cfg.seed)
    tol = 1e-10
    run.effective.update({"min_tolerance": tol, "draws": n_draws,
                          "t_end": t_end})

    # the draws advance as one block: field arrays of shape (n_draws, n)
    nb, ns = cfg.mesh.n_cells, cfg.mesh.n_theta
    init = InitialData(*map(np.array, zip(*(
        (rng.random(nb), rng.random(nb), rng.random(ns), rng.random(ns))
        for _ in range(n_draws)))))
    out = positivity_experiment(cfg.mesh, cfg.diffusion, init, reactions,
                                t_end=t_end, dt=cfg.dt, keep_trajectory=False)
    scale = np.maximum(out["sup_y"], 1.0)
    ok = out["min_value"] >= -tol * scale
    mono = out["energy"]
    run.csv("draws.csv", ["draw", "min_value", "max_E_y", "max_E_z", "passed"],
            [(d, out["min_value"][d], mono["E_y"][:, d].max(),
              mono["E_z"][:, d].max(), int(ok[d])) for d in range(n_draws)])
    run.csv("energy.csv", ["t", "E_neg_y", "E_neg_z", "min_over_fields"],
            [(t, mono["E_y"][k, 0], mono["E_z"][k, 0], out["min_series"][k, 0])
             for k, t in enumerate(out["times"])])
    # holds by construction once matrix_check passes: an implicit matrix with
    # nonpositive off-diagonals and the positive-part reactions keep every
    # step nonnegative, so only a failed matrix_check can make this fail
    run.checks["minimum_nonnegative"] = bool(ok.all())
    run.checks["negative_energy_monotone"] = bool(mono["passed"].all())
    return run.finish({"matrix_check": out["matrix_check"]})


def _sweep_grid(run: _Runner) -> list:
    """(lambda, s1, s) at lambda1 and 2 lambda1, each with s = s1, 2 s1, 4 s1."""
    lam1 = run.effective["lambda1"]
    return [(lam, s1, fac * s1) for lam in (lam1, 2 * lam1)
            for s1 in (_s1(run.cfg, lam),) for fac in (1.0, 2.0, 4.0)]


def _non_growth(ratios: list) -> bool:
    """Each triple of sweep ratios (s = s1, 2 s1, 4 s1) stays within twice its first."""
    return all(np.isfinite(a) and b <= 2.0 * a and c <= 2.0 * a
               for a, b, c in zip(*[iter(ratios)] * 3))


def _cmd_carleman_verify(run: _Runner) -> int:
    # the symbolic layer loads sympy; no other subcommand needs it
    from .decomposition import field_blocks, mn_decompositions
    from .fields import SpaceTimeField, sympy_expr

    cfg = run.cfg
    require_unit_disk(cfg.mesh)
    cl = cfg.carleman
    t0, t1 = cfg.regions.t0, cfg.regions.t1
    lam1, eps = run.effective["lambda1"], run.effective["epsilon"]
    grid = _sweep_grid(run)
    a_expr = sympy_expr(cl["a_expr"], "carleman.a_expr", ("x1", "x2"))
    d_expr = sympy_expr(cl["d_expr"], "carleman.d_expr", ("theta",))
    tau_list = cl["tau_list"]
    run.effective.update({
        "tau_list": tau_list,
        "s1_per_lambda": {str(lam): s1 for lam, s1, _ in grid},
        "residual_tolerance": 1e-8, "growth_tolerance": 2.0,
        "margin_floor": 1.0})

    base = CarlemanConfig(lam=lam1, s=default_s1(lam1, t0, t1), t0=t0, t1=t1,
                          epsilon=eps)
    times = np.linspace(t0 + 0.01 * (t1 - t0), t1 - 0.01 * (t1 - t0), 151)
    margins = weight_property_margins(base, times, np.linspace(0, 1, 41))
    run.checks["weight_margins"] = bool(margins["passed"])
    vanish = weight_vanishing_report(base, dt=cfg.dt)
    run.checks["weight_vanishing"] = bool(vanish["passed"])
    sig = sigma_bounds_report(cfg.mesh, cfg.diffusion.a1, cfg.diffusion.beta)
    run.checks["sigma_bounds"] = bool(sig["passed"])

    dec_cfg = CarlemanConfig(lam=1.0, s=2.0, t0=t0, t1=t1, epsilon=eps)
    field = SpaceTimeField(
        f"sin(pi*(t - {t0})/{t1 - t0})*(1 + x1/2 + x2**2/3)")
    decs = mn_decompositions(tau_list, field, dec_cfg, cfg.mesh,
                             a_expr=a_expr, d_expr=d_expr)
    dec_rows = [(tau, dec.residual_bulk, dec.residual_surface)
                for tau, dec in zip(tau_list, decs)]
    run.csv("decomposition.csv", ["tau", "residual_bulk", "residual_surface"],
            dec_rows)
    # a nan residual (an overflowing decomposition) fails the check
    run.checks["decomposition_residuals"] = all(
        v <= 1e-8 for row in dec_rows for v in row[1:])

    pair = DiffusionPair.from_fields(cfg.mesh, cfg.diffusion.a1,
                                     cfg.diffusion.d1)
    names = list(TEST_FIELDS)[:cl["n_test_fields"]]
    # the sweep reads the nodes strictly inside (t0, t1) and their two
    # neighbours: sample from the last node <= t0 to the first >= t1
    times_traj = np.arange(0.0, cfg.t_end + cfg.dt / 2, cfg.dt)
    first = np.searchsorted(times_traj, t0, side="right") - 1
    last = np.searchsorted(times_traj, t1, side="left")
    times_traj = times_traj[max(first, 0):last + 1]
    cfgs = [CarlemanConfig(lam=lam, s=s, t0=t0, t1=t1, epsilon=eps)
            for lam, _, s in grid]
    rows = []
    for name in names:
        expr = TEST_FIELDS[name].replace("T0", repr(t0)).replace(
            "W", repr(t1 - t0))
        blocks = field_blocks(SpaceTimeField(expr), cfg.mesh, times_traj,
                              cfg.dt)
        outs = carleman_sweep(0.0, blocks, cfgs, cfg.mesh, pair, cfg.regions)
        rows += [(name, 0.0, c.s, c.lam, out["lhs"], out["rhs"], out["ratio"],
                  out["log_scale"], *(out["parts"][key] for key in (
                      "observation", "bulk_residual", "surface_residual",
                      "bulk_zeroth", "bulk_gradient", "surf_zeroth",
                      "surf_conormal")))
                 for c, out in zip(cfgs, outs)]
    run.csv("ratio_sweep.csv",
            ["field", "tau", "s", "lambda", "lhs", "rhs", "ratio", "log_scale",
             "observation", "bulk_residual", "surface_residual",
             "bulk_zeroth", "bulk_gradient", "surf_zeroth", "surf_conormal"],
            rows)
    run.checks["ratio_non_growth"] = _non_growth([r[6] for r in rows])
    return run.finish({"margins": margins, "sigma": sig})


def _cmd_shifted_verify(run: _Runner) -> int:
    cfg = run.cfg
    t0, t1 = cfg.regions.t0, cfg.regions.t1
    eps = run.effective["epsilon"]
    grid = _sweep_grid(run)
    run.effective.update({
        "growth_tolerance": 2.0,
        "s1_per_lambda": {str(lam): s1 for lam, s1, _ in grid},
        "p0": cfg.potentials.p0})

    require_unit_disk(cfg.mesh)
    require_p0_floor(cfg.potentials)
    system = SemilinearSystem(cfg.mesh, cfg.diffusion, cfg.potentials)
    sources = {k: parse_field_spec(spec, cfg.mesh, f"carleman.sources.{k}",
                                   on_surface=k.startswith("g"))
               for k, spec in cfg.carleman["sources"].items()}
    # the sweep reads only the nodes strictly inside (t0, t1); it sums each
    # block of states as the march yields it
    blocks = system.march(cfg.init, t1, cfg.dt, sources=sources)
    pair1 = DiffusionPair.from_fields(cfg.mesh, cfg.diffusion.a1,
                                      cfg.diffusion.d1)
    pair2 = DiffusionPair.from_fields(cfg.mesh, cfg.diffusion.a2,
                                      cfg.diffusion.d2)
    cfgs = [CarlemanConfig(lam=lam, s=s, t0=t0, t1=t1, epsilon=eps)
            for lam, _, s in grid]
    outs = shifted_sweep(blocks, sources, cfgs, cfg.mesh, pair1, pair2,
                         cfg.regions, cfg.potentials)
    rows = [(c.s, c.lam, eps, out["lhs"], out["rhs"], out["ratio"],
             out["log_scale"], *(out["parts"][key] for key in (
                 "observation", "f1_g1", "f2_g2", "norms_y", "norms_z")))
            for c, out in zip(cfgs, outs)]
    run.csv("shifted_sweep.csv",
            ["s", "lambda", "epsilon", "lhs", "rhs", "ratio", "log_scale",
             "observation", "f1_g1", "f2_g2", "norms_y", "norms_z"],
            rows)
    run.checks["shifted_ratio_non_growth"] = _non_growth([r[5] for r in rows])
    return run.finish()


def _make_inverse_problem(cfg: RunConfig) -> InverseProblem:
    inv = cfg.inverse
    basis = build_patch_basis(cfg.mesh, inv["n_patch_r"], inv["n_patch_theta"],
                              inv["n_arcs"])
    return InverseProblem(
        mesh=cfg.mesh, regions=cfg.regions, diffusion=cfg.diffusion,
        base_potentials=cfg.potentials, nl_f=cfg.nl_f, nl_g=cfg.nl_g,
        init=cfg.init, t_end=cfg.t_end, dt=cfg.dt, basis=basis,
        r_floor=cfg.assumptions["r"], r1_floor=cfg.assumptions["r1"])


def _truth_coeffs(problem: InverseProblem, cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    vals = {}
    for name, spec in cfg.inverse["truth"].items():
        raw = rng.standard_normal(len(problem.basis.patches(name)[1]))
        pattern = raw / np.abs(raw).max()
        vals[name] = spec["base"] + spec["amplitude"] * pattern
    return problem.coefficient_vector(free=cfg.inverse["free"], **vals).project()


def _cmd_gradcheck(run: _Runner) -> int:
    cfg = run.cfg
    problem = _make_inverse_problem(cfg)
    truth = _truth_coeffs(problem, cfg)
    data = simulate_twin(problem, truth, noise_level=0.0, seed=cfg.seed)
    inv = cfg.inverse
    n_pts, n_dirs = inv["gradcheck_points"], inv["gradcheck_directions"]
    h = inv["gradcheck_step"]
    tol = 1e-5
    run.effective.update({"fd_step": h, "tolerance": tol,
                          "points": n_pts, "directions": n_dirs})
    rng = np.random.default_rng(cfg.seed + 1)
    rows = []
    worst = 0.0
    for p in range(n_pts):
        x0 = truth.pack() + 0.2 * rng.standard_normal(truth.pack().size)
        c0 = truth.unpack(x0).project()
        x0 = c0.pack()
        _, g = problem.objective_and_gradient(c0, data)
        for d in range(n_dirs):
            v = rng.standard_normal(x0.size)
            v /= np.linalg.norm(v)
            jp = problem.objective(truth.unpack(x0 + h * v), data)
            jm = problem.objective(truth.unpack(x0 - h * v), data)
            fd = (jp - jm) / (2 * h)
            adj = float(np.dot(g, v))
            rel = abs(fd - adj) / max(abs(fd), 1e-12)
            worst = max(worst, rel)
            rows.append((p, d, fd, adj, rel))
    run.csv("gradcheck.csv", ["point", "direction", "fd", "adjoint", "rel_err"],
            rows)
    run.checks["gradient_matches_fd"] = bool(worst <= tol)
    run.effective["worst_rel_err"] = worst
    return run.finish()


def _cmd_reconstruct(run: _Runner) -> int:
    cfg = run.cfg
    inv = cfg.inverse
    problem = _make_inverse_problem(cfg)
    truth = _truth_coeffs(problem, cfg)
    noise = inv["noise_level"]
    data = simulate_twin(problem, truth, noise_level=noise, seed=cfg.seed)
    guess = problem.coefficient_vector(
        free=truth.free,
        **{k: v for k, v in inv["guess"].items() if k in truth.free})
    out = problem.reconstruct(data, guess, max_iter=inv["max_iter"],
                              tolerance=inv["tolerance"],
                              reg_weight=inv["reg_weight"])
    run.csv("history.csv", ["iteration", "objective", "grad_norm", "step_size"],
            [(h["iteration"], h["objective"], h["grad_norm"], h["step_size"])
             for h in out["history"]])
    rows = []
    for name in truth.free:
        tvals = getattr(truth, name)
        rvals = getattr(out["coeffs"], name)
        gvals = getattr(guess, name)
        for i in range(len(tvals)):
            rows.append((name, i, tvals[i], gvals[i], rvals[i]))
    run.csv("coefficients.csv",
            ["name", "patch", "truth", "initial_guess", "recovered"], rows)

    zero = problem.coefficient_vector(
        free=truth.free, **{k: 0.0 for k in truth.free})
    rel = out["coeffs"].l2_distance(truth, problem.basis) \
        / max(truth.l2_distance(zero, problem.basis), 1e-300)
    target = inv["target_rel_error"]
    run.effective.update({k: inv[k] for k in (
        "target_rel_error", "noise_level", "reg_weight", "max_iter",
        "tolerance")})
    run.checks["objective_monotone"] = bool(all(
        b["objective"] <= a["objective"] + 1e-15
        for a, b in zip(out["history"], out["history"][1:])))
    if noise == 0.0:
        run.checks["recovery_error"] = bool(rel <= target)
    return run.finish({"relative_error": rel,
                       "final_objective": out["final_objective"],
                       "converged": out["converged"],
                       "line_search_failed": out["line_search_failed"],
                       "message": out["message"],
                       "n_evaluations": out["n_evaluations"],
                       "iterations": len(out["history"])})


def _cmd_stability(run: _Runner) -> int:
    cfg = run.cfg
    problem = _make_inverse_problem(cfg)
    truth = _truth_coeffs(problem, cfg)
    scale = cfg.stability["scale"]
    rep = stability_ensemble(problem, truth, n_draws=cfg.stability["n_draws"],
                             perturbation_scale=scale, seed=cfg.seed)
    columns = ["delta_norm", "obs_norm", "ratio", "v_rel_err", "u_rel_err",
               "v_gamma_rel_err", "u_gamma_rel_err", "obs_norm_half_scale"]
    run.csv("draws.csv", ["draw", *columns],
            [(i, *(r[c] for c in columns)) for i, r in enumerate(rep.records)])

    kappa = 4.0 * float(cfg.diffusion.a2.max()) / problem.mesh.dr**2
    ident_tol = rep.records[0]["identity_dt"] * kappa + 100 * scale**2
    ident_ok = all(
        max(r["v_rel_err"], r["u_rel_err"], r["v_gamma_rel_err"],
            r["u_gamma_rel_err"]) <= ident_tol for r in rep.records)
    linear_ok = all(
        r["obs_norm_half_scale"] == 0.0 if r["obs_norm"] == 0.0 else
        abs(r["obs_norm_half_scale"] / r["obs_norm"] - 0.5) <= 0.05
        for r in rep.records)
    run.checks["midtime_identities"] = bool(ident_ok)
    run.checks["linear_response"] = bool(linear_ok)
    run.checks["ratio_spread"] = bool(rep.spread <= 10.0)
    run.effective.update({
        "scale": scale, "label": "half-window variant",
        "identity_tolerance": ident_tol, "spread_tolerance": 10.0,
        "linear_response_tolerance": 0.10})
    return run.finish({"max_ratio": rep.max_ratio,
                       "median_ratio": rep.median_ratio,
                       "spread": rep.spread,
                       "n_rejected": rep.n_rejected})


_COMMANDS = {
    "simulate": _cmd_simulate,
    "positivity": _cmd_positivity,
    "carleman-verify": _cmd_carleman_verify,
    "shifted-verify": _cmd_shifted_verify,
    "gradcheck": _cmd_gradcheck,
    "reconstruct": _cmd_reconstruct,
    "stability": _cmd_stability,
}


class _UsageError(Exception):
    """A malformed command line."""


def _usage_error(message: str):
    """argparse's error hook; argparse itself would exit 2, the code of
    numerical failures."""
    raise _UsageError(message)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bulksurf",
        description="Coupled bulk-surface parabolic laboratory: forward "
                    "solves, positivity and weight diagnostics, coefficient "
                    "recovery, stability experiments.")
    parser.error = _usage_error
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default=None, help="results directory")
    parser.add_argument("--seed", default=None, help="integer random seed")
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    out_dir = args.out or os.environ.get("BULKSURF_OUT") or f"results-{args.command}"
    where, seed = (("seed", args.seed) if args.seed is not None
                   else ("BULKSURF_SEED", os.environ.get("BULKSURF_SEED")))
    overrides = {}
    try:
        if seed is not None:
            try:
                overrides["seed"] = int(seed)
            except ValueError:
                raise ConfigError(f"{where}: expected an integer, got {seed!r}")
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    runner = _Runner(cfg, out_dir)
    try:
        return _COMMANDS[args.command](runner)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (ValueError,) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
