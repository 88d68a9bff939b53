import json
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import bulksurf
import bulksurf.cli
import bulksurf.forward
import bulksurf.positivity
from bulksurf.cli import main, write_csv
from bulksurf.config import compile_expression, load_config
from bulksurf.forward import ReactionSet, SemilinearSystem, window_nodes
from bulksurf.operators import SparseOp
from bulksurf.model import InitialData
from bulksurf.positivity import negative_part_energy_monotone, positivity_experiment

SMALL_CONFIG = {
    "mesh": {"n_r": 8, "n_theta": 16},
    "regions": {"rho_prime": 0.2, "rho_dprime": 0.3, "rho_omega": 0.45,
                "t0": 0.1, "t1": 0.4},
    "solver": {"dt": 0.01, "t_end": 0.5},
    "inverse": {"n_patch_r": 2, "n_patch_theta": 2, "n_arcs": 4,
                "max_iter": 60, "gradcheck_points": 1,
                "gradcheck_directions": 4},
    "stability": {"n_draws": 4, "scale": 1e-3},
    "positivity": {"draws": 3, "t_end": 0.2},
    "carleman": {"n_test_fields": 2, "tau_list": [-3, 0, 2]},
    "seed": 7,
}


def write_config(tmp_path, extra=None):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    if extra:
        for k, v in extra.items():
            if isinstance(v, dict) and k in cfg:
                cfg[k].update(v)
            else:
                cfg[k] = v
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(command, config, out, seed=None):
    argv = [command, "--config", config, "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv)


def read_summary(out):
    with open(os.path.join(out, "summary.json")) as fh:
        return json.load(fh)


_ZERO_POTENTIALS = {"p11": 0, "p12": 0, "p13": 0, "p21": 0, "p22": 0, "q11": 0,
                    "q12": 0, "q13": 0, "q21": 0, "q22": 0, "p0": 0.0}


def test_simulate_zero_potentials_steady(tmp_path):
    cfg = write_config(tmp_path, {
        "mesh": {"n_r": 16, "n_theta": 32},
        "potentials": _ZERO_POTENTIALS,
        "initial": {"y0": 1.0, "z0": 1.0},
    })
    out = tmp_path / "out"
    assert run_cli("simulate", cfg, out) == 0
    summary = read_summary(out)
    assert summary["checks"]["mass_conservation"]
    # zero potentials and constant diffusivities are constant along theta,
    # so the Fourier band holds the factor: 7 rows for each of the 17
    # modes' 34 unknowns, whichever couplings vanish.  The SuperLU fill of
    # zero potentials is pinned in test_simulate_reads_the_fill_...
    assert summary["lu_fill_nnz"] == 4_046 == 7 * 17 * 34
    assert os.path.exists(out / "series.csv")
    assert os.path.exists(out / "schema.json")


# A potential that varies along theta keeps S off the Fourier path, so
# SuperLU factors it; at the parent of that path this config read the
# default config's fills
_THETA_VARYING = {"p12": "0.1 + 0.05*x1"}


def test_simulate_lu_fill_at_the_default_config(tmp_path):
    # L.nnz + U.nnz at 16x32 with the default potentials, p12 made to vary
    # along theta: a change of the column ordering or of the supernode
    # settings shows here
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"potentials": _THETA_VARYING}))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert read_summary(out)["lu_fill_nnz"] == 44_668


def test_simulate_fourier_fill_at_the_default_config(tmp_path):
    # the default config is constant along theta: its band holds 7 rows
    # (2 of them pivoting fill) for each of the 17 modes' 34 unknowns
    out = tmp_path / "out"
    assert main(["simulate", "--out", str(out)]) == 0
    assert read_summary(out)["lu_fill_nnz"] == 4_046 == 7 * 17 * 34


@pytest.mark.parametrize("potentials", ["default", "zero"])
@pytest.mark.parametrize("n_r, n_theta", [(4, 8), (16, 32)])
def test_simulate_reads_the_fill_without_building_L_and_U(
        tmp_path, monkeypatch, n_r, n_theta, potentials):
    # L and U are copies of the factors; simulate reads the fill from the
    # SuperLU object's nnz, which counts the same entries.  A p12 or p11
    # that varies along theta keeps S on the SuperLU path
    splu = bulksurf.forward.spla.splu
    factors = []

    class WithoutLU:
        def __init__(self, lu):
            self.nnz = lu.nnz
            self.solve = lu.solve

        @property
        def L(self):
            raise AssertionError("simulate built L")

        @property
        def U(self):
            raise AssertionError("simulate built U")

    def spy(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return WithoutLU(factors[-1])

    monkeypatch.setattr(bulksurf.forward.spla, "splu", spy)
    extra = {"mesh": {"n_r": n_r, "n_theta": n_theta},
             "potentials": _THETA_VARYING}
    if potentials == "zero":
        extra["potentials"] = {**_ZERO_POTENTIALS, "p11": "0.05*x1"}
    out = tmp_path / "out"
    assert run_cli("simulate", write_config(tmp_path, extra), out) == 0
    assert len(factors) == 1
    lu = factors[0]
    assert read_summary(out)["lu_fill_nnz"] == lu.nnz == lu.L.nnz + lu.U.nnz
    if potentials == "zero":
        # zero couplings decouple the y and z pairs: the minimum-degree
        # ordering gives 25,480 at 16x32, SuperLU's default COLAMD 39,280
        # (81,194 with the default potentials)
        assert lu.nnz == {(4, 8): 888, (16, 32): 25_480}[n_r, n_theta]


def test_a_theta_invariant_config_makes_no_splu_call(tmp_path, monkeypatch):
    splu = bulksurf.forward.spla.splu
    calls = []
    monkeypatch.setattr(bulksurf.forward.spla, "splu",
                        lambda *a, **k: calls.append(1) or splu(*a, **k))
    out = tmp_path / "out"
    assert run_cli("simulate", write_config(tmp_path), out) == 0
    assert calls == []
    # 8x16: 7 band rows for each of the 9 modes' 18 unknowns
    assert read_summary(out)["lu_fill_nnz"] == 7 * 9 * 18


def test_a_failing_band_factorization_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bulksurf.forward.lapack, "dgbtrf",
                        lambda ab, kl, ku, **k: (ab, np.zeros(ab.shape[1], np.int32), 1))
    assert run_cli("simulate", write_config(tmp_path), tmp_path / "out") == 2
    assert "numerical failure: implicit factorization failed: dgbtrf info 1" \
        in capsys.readouterr().err


def test_gradcheck_on_ring_patches_solves_the_adjoint_by_fourier(tmp_path,
                                                                 monkeypatch):
    # patches that span whole rings and one arc keep every system of the
    # run constant along theta, so the adjoint's transposed solves take
    # the Fourier path; SuperLU on the same systems gives the same adjoint
    # to round-off
    splu = bulksurf.forward.spla.splu
    calls = []
    monkeypatch.setattr(bulksurf.forward.spla, "splu",
                        lambda *a, **k: calls.append(1) or splu(*a, **k))
    cfg = write_config(tmp_path, {"inverse": {"n_patch_theta": 1, "n_arcs": 1}})
    assert run_cli("gradcheck", cfg, tmp_path / "fourier") == 0
    assert calls == []
    assert read_summary(tmp_path / "fourier")["checks"]["gradient_matches_fd"]
    monkeypatch.setattr(SemilinearSystem, "_fourier_lu",
                        SemilinearSystem._permuted_lu)
    assert run_cli("gradcheck", cfg, tmp_path / "superlu") == 0
    assert calls
    fourier, superlu = (np.loadtxt(tmp_path / side / "gradcheck.csv",
                                   delimiter=",", skiprows=1, usecols=3)
                        for side in ("fourier", "superlu"))
    np.testing.assert_allclose(fourier, superlu, rtol=1e-12)


def test_simulate_lets_its_factorization_go_before_the_csvs(tmp_path,
                                                            monkeypatch):
    # the fill is read first; the LU (1.3 million entries at 64x128) is
    # freed before the CSV rows are formatted
    factorization = SemilinearSystem.factorization
    refs, alive = [], []

    def spy(self, dt):
        lu = factorization(self, dt)
        refs.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(SemilinearSystem, "factorization", spy)
    write = bulksurf.cli.write_csv
    monkeypatch.setattr(bulksurf.cli, "write_csv", lambda *a: alive.append(
        [ref() is not None for ref in refs]) or write(*a))
    assert run_cli("simulate", write_config(tmp_path), tmp_path / "out") == 0
    assert refs and alive == [[False] * len(refs)] * 3


def test_simulate_reproducible_bytes(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", cfg, out1) == 0
    assert run_cli("simulate", cfg, out2) == 0
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()


def test_missing_csv_field_names_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "potentials": {"p13": {"csv": str(tmp_path / "nope.csv")}},
    })
    assert run_cli("reconstruct", cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "potentials.p13" in err and "not found" in err


@pytest.mark.parametrize("field, row, message", [
    ("potentials.p11", "x,1", "invalid literal for int() with base 10: 'x'"),
    ("initial.y0", "0,abc", "could not convert string to float: 'abc'"),
    ("diffusion.a1", "0.5,1", "invalid literal for int() with base 10: '0.5'"),
    ("potentials.q13", "0,nan", None),
])
def test_bad_csv_field_is_refused(tmp_path, capsys, field, row, message):
    # a bad row names the field, the file and the line once; a NaN value
    # is refused by the finiteness check of every field
    section, name = field.split(".")
    n = 16 if name.startswith("q") else 8 * 16
    path = tmp_path / "field.csv"
    path.write_text("index,value\n" + row + "\n"
                    + "".join(f"{i},1.0\n" for i in range(1, n)))
    cfg = write_config(tmp_path, {section: {name: {"csv": str(path)}}})
    assert run_cli("simulate", cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err.strip().splitlines()
    want = (f"configuration error: {field}: {path}:2: {message}" if message
            else f"configuration error: {field}: expected finite values, "
                 f"got nan at index 0")
    assert err == [want]


def test_p0_floor_violation_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, {"potentials": {"p21": 0.1}})
    assert run_cli("simulate", cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "p21 below p0 floor" in err


def test_p0_floor_violation_names_q21(tmp_path, capsys):
    # p21 = 2.0 sits above the floor p0 = 0.3; q21 = 0.1 does not
    cfg = write_config(tmp_path, {"potentials": {"q21": 0.1}})
    assert run_cli("simulate", cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "potentials: q21 below p0 floor" in err


@pytest.mark.parametrize("command", ["carleman-verify", "shifted-verify"])
def test_carleman_commands_refuse_a_non_unit_disk(tmp_path, capsys,
                                                  monkeypatch, command):
    # the Carleman weights are closed forms on the unit disk: a radius-2
    # mesh is refused before any field is solved for or sampled
    import bulksurf.decomposition as decomposition
    calls = []
    for owner, name in ((SemilinearSystem, "march"),
                        (decomposition, "field_blocks"),
                        (decomposition, "mn_decompositions")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, fn=fn, **k:
                            calls.append(1) or fn(*a, **k))
    cfg = write_config(tmp_path, {"mesh": {"radius": 2.0}})
    assert run_cli(command, cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "mesh.radius must be 1.0, got 2.0" in err
    assert calls == []


def test_shifted_verify_without_p0_floor_is_refused(tmp_path, capsys,
                                                    monkeypatch):
    # p21 = 2.0 sits above any floor; what fails is the floor p0 = 0 itself,
    # and it fails before the forward solve
    march = SemilinearSystem.march
    calls = []
    monkeypatch.setattr(SemilinearSystem, "march",
                        lambda *a, **k: calls.append(1) or march(*a, **k))
    cfg = write_config(tmp_path, {"potentials": {"p0": 0.0}})
    assert run_cli("shifted-verify", cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "p0" in err and "p21 below" not in err
    assert calls == []


def test_positivity_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("positivity", cfg, out) == 0
    summary = read_summary(out)
    assert summary["checks"]["minimum_nonnegative"]
    assert summary["checks"]["negative_energy_monotone"]
    assert os.path.exists(out / "energy.csv")


def test_minimum_nonnegative_fails_for_an_understated_lipschitz_bound(
        tmp_path, capsys):
    # f1 = -1000 u is quasi-positive and leaves the implicit matrix's sign
    # check to pass, but the default bound 1 lets dt 0.01 through the step
    # guard, and the explicit decay drives y below zero.  Stated truly, the
    # bound makes the guard refuse the step size instead
    reactions = {"reactions": {"f1": "-1000*u"}}
    out = tmp_path / "out"
    assert run_cli("positivity", write_config(tmp_path, {"positivity": reactions}),
                   out) == 1
    summary = read_summary(out)
    assert summary["checks"] == {"minimum_nonnegative": False,
                                 "negative_energy_monotone": False}
    assert summary["matrix_check"]["offdiag_nonpositive"]
    cfg = write_config(tmp_path, {"positivity": {**reactions,
                                                 "lipschitz_bound": 1000}})
    assert run_cli("positivity", cfg, tmp_path / "guarded") == 1
    assert "exceeds the explicit-part stability bound" in capsys.readouterr().err


def test_positivity_computes_the_negative_part_energy_once(tmp_path,
                                                           monkeypatch):
    # block by block, each state's energy once: the states passed in are
    # the time nodes of energy.csv, each once and in order
    energy = bulksurf.positivity.negative_part_energy
    times = []
    monkeypatch.setattr(bulksurf.positivity, "negative_part_energy",
                        lambda traj, mesh: times.append(traj.times.copy())
                        or energy(traj, mesh))
    cfg = write_config(tmp_path)
    assert run_cli("positivity", cfg, tmp_path / "out") == 0
    written = np.loadtxt(tmp_path / "out" / "energy.csv", delimiter=",",
                         skiprows=1, usecols=0)
    np.testing.assert_array_equal(np.concatenate(times), written)


def test_positivity_draws_share_one_factorization(tmp_path, monkeypatch):
    # counts the factorizations built, on either path
    factorization = SemilinearSystem.factorization
    built = []
    monkeypatch.setattr(SemilinearSystem, "factorization",
                        lambda self, dt: built.append(factorization(self, dt))
                        or built[-1])
    cfg = write_config(tmp_path, {"positivity": {"draws": 5}})
    assert run_cli("positivity", cfg, tmp_path / "out") == 0
    assert len({id(lu) for lu in built}) == 1
    summary = read_summary(tmp_path / "out")
    assert summary["matrix_check"]["offdiag_nonpositive"]
    assert "matrix_check" not in summary["checks"]


def test_positivity_block_matches_one_draw_runs(tmp_path):
    # the CLI advances the draws as one block; a loop of one-draw
    # experiments on the same random stream writes the same bytes
    cfg_path = write_config(tmp_path, {"positivity": {"draws": 4}})
    assert run_cli("positivity", cfg_path, tmp_path / "out") == 0
    cfg = load_config(cfg_path)
    pz = cfg.positivity
    reactions = ReactionSet(
        **{k: compile_expression(spec, ("u", "v"), k)
           for k, spec in pz["reactions"].items()},
        lipschitz_bound=pz["lipschitz_bound"])
    rng = np.random.default_rng(cfg.seed)
    nb, ns = cfg.mesh.n_cells, cfg.mesh.n_theta
    draw_rows, energy_rows = [], None
    for d in range(4):
        init = InitialData(rng.random(nb), rng.random(nb), rng.random(ns),
                           rng.random(ns))
        out = positivity_experiment(cfg.mesh, cfg.diffusion, init, reactions,
                                    t_end=pz["t_end"], dt=cfg.dt)
        traj = out["trajectory"]
        scale = max(abs(traj.y).max(), 1.0)
        ok = out["min_value"] >= -1e-10 * scale
        mono = negative_part_energy_monotone(traj, cfg.mesh)
        assert mono["passed"]
        draw_rows.append((d, out["min_value"], float(np.max(mono["E_y"])),
                          float(np.max(mono["E_z"])), int(ok)))
        if energy_rows is None:
            energy_rows = [(t, mono["E_y"][k], mono["E_z"][k],
                            out["min_series"][k])
                           for k, t in enumerate(traj.times)]
    write_csv(str(tmp_path / "draws.csv"),
              ["draw", "min_value", "max_E_y", "max_E_z", "passed"], draw_rows)
    write_csv(str(tmp_path / "energy.csv"),
              ["t", "E_neg_y", "E_neg_z", "min_over_fields"], energy_rows)
    for name in ("draws.csv", "energy.csv"):
        assert (tmp_path / "out" / name).read_bytes() == \
            (tmp_path / name).read_bytes()


def test_carleman_verify_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("carleman-verify", cfg, out) == 0
    summary = read_summary(out)
    for key in ("weight_margins", "weight_vanishing", "sigma_bounds",
                "decomposition_residuals", "ratio_non_growth"):
        assert summary["checks"][key], key
    # effective parameters are never silent
    assert "s1_per_lambda" in summary["effective"]
    assert "epsilon" in summary["effective"]
    with open(out / "ratio_sweep.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header[:8] == ["field", "tau", "s", "lambda", "lhs", "rhs", "ratio",
                          "log_scale"]
    assert "observation" in header  # per-term breakdown present


@pytest.mark.parametrize("tau", [400, 2000])
def test_overflowing_decomposition_fails_its_check(tmp_path, tau):
    # on 8x16 the weighted components overflow at these tau: their residuals
    # read nan and fail the check, while tau = 200 still passes beside them
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert run_cli("carleman-verify", write_config(
            tmp_path, {"carleman": {"tau_list": [200, tau]}}), out) == 1
    checks = read_summary(out)["checks"]
    assert checks.pop("decomposition_residuals") is False
    assert all(checks.values()), checks
    with open(out / "decomposition.csv") as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    assert [row[0] for row in rows] == ["200", str(tau)]
    assert max(float(v) for v in rows[0][1:]) <= 1e-8
    assert rows[1][1:] == ["nan", "nan"]


def test_overflowing_decomposition_warns_nothing(tmp_path, capsys):
    # the overflow is the check's to report: with RuntimeWarning raised as an
    # error the run still ends, fails only decomposition_residuals and
    # writes nothing to stderr
    import warnings
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("carleman-verify", write_config(
            tmp_path, {"carleman": {"tau_list": [400, 200, 2000]}}), out) == 1
    assert capsys.readouterr().err == ""
    checks = read_summary(out)["checks"]
    assert checks.pop("decomposition_residuals") is False
    assert all(checks.values()), checks


def test_carleman_verify_walks_each_field_once(tmp_path, monkeypatch):
    # the sparse applies depend on the field alone: one bulk and one surface
    # apply per window node and field, whatever the number of (lam, s) points
    apply = SparseOp.apply
    calls = []
    monkeypatch.setattr(SparseOp, "apply",
                        lambda *a: calls.append(1) or apply(*a))
    path = write_config(tmp_path)
    assert run_cli("carleman-verify", path, tmp_path / "out") == 0
    cfg = load_config(path)
    times = np.arange(0.0, cfg.t_end + cfg.dt / 2, cfg.dt)
    n_window = len(window_nodes(times, cfg.dt, cfg.regions.t0, cfg.regions.t1))
    n_fields = cfg.carleman["n_test_fields"]
    assert 0 < len(calls) <= 2 * n_fields * n_window


def test_carleman_verify_samples_only_the_window(tmp_path, monkeypatch):
    # the sweep reads the nodes strictly inside (t0, t1) and their two
    # neighbours; the test fields are sampled there and nowhere else
    import bulksurf.decomposition as decomposition
    sample = decomposition.field_blocks
    grids = []
    monkeypatch.setattr(decomposition, "field_blocks",
                        lambda field, mesh, times, *a: grids.append(times)
                        or sample(field, mesh, times, *a))
    path = write_config(tmp_path)
    assert run_cli("carleman-verify", path, tmp_path / "out") == 0
    cfg = load_config(path)
    t0, t1, dt = cfg.regions.t0, cfg.regions.t1, cfg.dt
    full = np.arange(0.0, cfg.t_end + dt / 2, dt)
    inside = full[window_nodes(full, dt, t0, t1)]
    assert len(grids) == cfg.carleman["n_test_fields"]
    for times in grids:
        assert t0 - dt - 1e-12 <= times[0] and times[-1] <= t1 + dt + 1e-12
        np.testing.assert_array_equal(times[window_nodes(times, dt, t0, t1)],
                                      inside)


def test_shifted_verify_solves_up_to_the_window_end(tmp_path, monkeypatch):
    # the sweep reads only the nodes strictly inside (t0, t1)
    march = SemilinearSystem.march
    ends = []
    monkeypatch.setattr(SemilinearSystem, "march",
                        lambda self, init, t_end, dt, **kw: ends.append(t_end)
                        or march(self, init, t_end, dt, **kw))
    path = write_config(tmp_path)
    assert run_cli("shifted-verify", path, tmp_path / "out") == 0
    assert ends == [load_config(path).regions.t1]


# a run of length L (dt 0.01), and the floats per time node of the table a
# command used to hold: every state (n_dof each, per draw for positivity),
# or for carleman-verify the sampled z pair of each test field
_RUN_LENGTHS = {
    "simulate": (lambda L: {"solver": {"t_end": L}}, 1),
    "shifted-verify": (lambda L: {"solver": {"t_end": L},
                                  "regions": {"t0": L - 0.3, "t1": L}}, 1),
    "positivity": (lambda L: {"positivity": {"t_end": L - 0.3}}, 3),
    "carleman-verify": (lambda L: {"solver": {"t_end": L},
                                   "regions": {"t1": L},
                                   "carleman": {"n_test_fields": 1}}, None),
}


@pytest.mark.parametrize("command", list(_RUN_LENGTHS))
def test_peak_memory_does_not_grow_with_the_run(tmp_path, monkeypatch, command):
    # at 32x64, 100 more time nodes would add at least 100 rows of the old
    # table to the traced peak; reduced block by block, the peak grows by
    # less than a quarter of that
    from sympy.core.cache import clear_cache

    import bulksurf.decomposition as decomposition
    # the decomposition check costs the same at any run length
    monkeypatch.setattr(decomposition, "mn_decompositions", lambda taus, *a, **k:
                        [decomposition.Decomposition(0.0, 0.0) for _ in taus])
    run_of, copies = _RUN_LENGTHS[command]
    assert run_cli(command, write_config(tmp_path, {
        "mesh": {"n_r": 4, "n_theta": 8}}), tmp_path / "warm") == 0
    peaks = []
    for L in (0.5, 1.5):
        path = write_config(tmp_path, {"mesh": {"n_r": 32, "n_theta": 64},
                                       **run_of(L)})
        # sympy's cache holds what earlier tests left in it: start each
        # traced run from an empty one, whatever ran before
        clear_cache()
        tracemalloc.start()
        try:
            assert run_cli(command, path, tmp_path / f"out{L}") == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    mesh = load_config(path).mesh
    row = (mesh.n_cells + mesh.n_theta if copies is None
           else copies * 2 * (mesh.n_cells + mesh.n_theta))
    assert peaks[1] - peaks[0] < 100 * row * 8 / 4, (peaks, 100 * row * 8)


def test_simulate_peak_memory_does_not_grow_with_the_window(tmp_path):
    # 100 more window nodes would add 100 rows of z-differences on omega
    # to a kept record; simulate keeps one number per node, so the traced
    # peak grows by less than a quarter of those rows
    assert run_cli("simulate", write_config(tmp_path, {
        "mesh": {"n_r": 4, "n_theta": 8}}), tmp_path / "warm") == 0
    peaks = []
    for t1 in (0.4, 1.4):
        path = write_config(tmp_path, {"mesh": {"n_r": 32, "n_theta": 64},
                                       "solver": {"t_end": 1.5},
                                       "regions": {"t1": t1}})
        tracemalloc.start()
        try:
            assert run_cli("simulate", path, tmp_path / f"out{t1}") == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    rows = 100 * load_config(path).regions.omega.size * 8
    assert peaks[1] - peaks[0] < rows / 4, (peaks, rows)


def test_cli_import_leaves_sympy_unloaded():
    # only carleman-verify checks symbolic algebra; it loads sympy itself
    code = ("import sys, bulksurf.cli; from bulksurf.config import load_config; "
            "load_config(None); print('sympy' in sys.modules)")
    src = os.path.dirname(os.path.dirname(bulksurf.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_shifted_verify_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("shifted-verify", cfg, out) == 0
    summary = read_summary(out)
    assert summary["checks"]["shifted_ratio_non_growth"]


def test_gradcheck_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("gradcheck", cfg, out) == 0
    summary = read_summary(out)
    assert summary["checks"]["gradient_matches_fd"]
    assert summary["effective"]["worst_rel_err"] <= 1e-5


@pytest.mark.parametrize("step, passed", [(0.05, False), (1e-3, True)])
def test_gradcheck_fails_at_a_coarse_step(tmp_path, step, passed):
    # negative control: at step 0.05 the central differences miss the
    # adjoint by about 3e-4, beyond the 1e-5 tolerance, and the check says
    # so; the same points and directions pass at step 1e-3
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mesh": {"n_r": 8, "n_theta": 16}, "inverse": {
        "gradcheck_points": 2, "gradcheck_directions": 2,
        "gradcheck_step": step}}))
    out = tmp_path / "out"
    assert run_cli("gradcheck", str(path), out, seed=3) == (0 if passed else 1)
    summary = read_summary(out)
    assert summary["checks"] == {"gradient_matches_fd": passed}
    assert (summary["effective"]["worst_rel_err"] <= 1e-5) == passed


def test_reconstruct_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("reconstruct", cfg, out) == 0
    summary = read_summary(out)
    assert summary["checks"]["recovery_error"]
    assert summary["relative_error"] <= 0.05
    assert summary["message"]
    assert summary["n_evaluations"] >= summary["iterations"]
    assert os.path.exists(out / "history.csv")
    assert os.path.exists(out / "coefficients.csv")


def test_stability_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli("stability", cfg, out) == 0
    summary = read_summary(out)
    assert summary["checks"]["midtime_identities"]
    assert summary["checks"]["linear_response"]
    assert summary["checks"]["ratio_spread"]
    assert summary["effective"]["label"] == "half-window variant"


@pytest.mark.parametrize("scale, linear", [(0.3, True), (0.7, False)])
def test_linear_response_fails_at_a_large_scale(tmp_path, scale, linear):
    # at the default config the 10th draw's half-scale response is off by
    # 0.0566 at scale 0.7, past the 0.05 bound; at 0.3 every draw is within
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"stability": {"n_draws": 12, "scale": scale}}))
    out = tmp_path / "out"
    assert run_cli("stability", str(path), out) == (0 if linear else 1)
    summary = read_summary(out)
    assert summary["checks"] == {"midtime_identities": True,
                                 "linear_response": linear,
                                 "ratio_spread": True}
    assert summary["effective"]["linear_response_tolerance"] == 0.05


def test_identity_tolerance_does_not_grow_with_the_scale(tmp_path):
    # the first-step identity errors (0.035 at the default config) do not
    # depend on the scale, and neither does the tolerance they are held to
    tolerances = []
    for scale in (1e-3, 0.6):
        path = tmp_path / f"config-{scale}.json"
        path.write_text(json.dumps({"stability": {"n_draws": 4,
                                                  "scale": scale}}))
        out = tmp_path / f"out-{scale}"
        run_cli("stability", str(path), out)
        summary = read_summary(out)
        assert summary["checks"]["midtime_identities"]
        tolerances.append(summary["effective"]["identity_tolerance"])
    assert tolerances[0] == tolerances[1] < 0.1


def test_ratio_spread_fails_for_an_omega_of_one_ring(tmp_path):
    # omega is the innermost ring and (theta, t1) is 0.11 long, so a draw's
    # response is read mostly where its p21 perturbation sits near the
    # centre; the draw whose perturbation nearly vanishes there has a ratio
    # 17.5 times the median, past the bound of 10
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "mesh": {"n_r": 8, "n_theta": 16},
        "regions": {"rho_prime": 0.07, "rho_dprime": 0.08, "rho_omega": 0.1,
                    "t0": 0.2, "t1": 0.42},
        "stability": {"n_draws": 40}, "seed": 7}))
    out = tmp_path / "out"
    assert run_cli("stability", str(path), out) == 1
    summary = read_summary(out)
    assert summary["checks"] == {"midtime_identities": True,
                                 "linear_response": True,
                                 "ratio_spread": False}
    assert summary["spread"] > summary["effective"]["spread_tolerance"] == 10.0


def test_removed_stability_mode_is_refused(tmp_path, capsys):
    cfg = write_config(tmp_path, {"stability": {"mode": "forward_from_theta"}})
    assert run_cli("stability", cfg, tmp_path / "out") == 1
    assert "stability.mode" in capsys.readouterr().err


@pytest.mark.parametrize("extra, key", [
    ({"solvr": {"dt": 0.01}}, "solvr"),
    ({"stability": {"n_draw": 3}}, "stability.n_draw"),
    ({"carleman": {"sources": {"f3": "1"}}}, "carleman.sources.f3"),
    ({"inverse": {"guess": {"p11": 0.5}}}, "inverse.guess.p11"),
    ({"inverse": {"truth": {"p11": {"base": 1.0, "amplitude": 0.1}}}},
     "inverse.truth.p11"),
])
def test_unknown_config_key_is_refused(tmp_path, capsys, extra, key):
    cfg = write_config(tmp_path, extra)
    assert run_cli("simulate", cfg, tmp_path / "out") == 1
    assert f"{key}: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra, message", [
    ("positivity", {"positivity": {"draws": 0}},
     "positivity.draws: must be at least 1"),
    ("stability", {"stability": {"n_draws": 0}},
     "stability.n_draws: must be at least 1"),
    ("carleman-verify", {"carleman": {"n_test_fields": 0}},
     "carleman.n_test_fields: must be at least 1"),
    ("gradcheck", {"inverse": {"gradcheck_points": 0}},
     "inverse.gradcheck_points: must be at least 1"),
    ("positivity", {"positivity": {"t_end": -1}},
     "positivity.t_end: must be positive"),
    ("positivity", {"positivity": {"draws": "x"}},
     "positivity.draws: expected a number"),
    ("positivity", {"positivity": {"draws": 2.5}},
     "positivity.draws: expected an integer"),
    ("simulate", {"nonlinearity": {"y_max": None}},
     "nonlinearity.y_max: expected a number"),
    ("simulate", {"mesh": {"n_r": True}}, "mesh.n_r: expected a number"),
    ("carleman-verify", {"carleman": {"tau_list": [0, "1"]}},
     "carleman.tau_list[1]: expected a number"),
    ("simulate", {"stability": [1]}, "stability: expected a map"),
    ("gradcheck", {"inverse": {"free": ["p13", "bogus"]}},
     "inverse.free: expected distinct names among p13, p21, q13, q21"),
    ("gradcheck", {"inverse": {"free": []}}, "inverse.free: expected distinct"),
    ("gradcheck", {"inverse": {"truth": {"p21": {"base": 1.0}}}},
     "inverse.truth.p21.amplitude: missing"),
    ("carleman-verify", {"carleman": {"n_test_fields": 9}},
     "carleman.n_test_fields: at most 5 test fields exist, got 9"),
    ("stability", {"stability": {"scale": 0}},
     "stability.scale: must be positive"),
    ("carleman-verify", {"carleman": {"tau_list": []}},
     "carleman.tau_list: expected at least one tau, got []"),
    ("gradcheck", {"inverse": {"gradcheck_step": 0}},
     "inverse.gradcheck_step: must be positive, got 0.0"),
    ("reconstruct", {"inverse": {"noise_level": -0.1}},
     "inverse.noise_level: must be at least 0, got -0.1"),
    ("reconstruct", {"inverse": {"reg_weight": -1}},
     "inverse.reg_weight: must be at least 0, got -1.0"),
    ("positivity", {"positivity": {"lipschitz_bound": -0.5}},
     "positivity.lipschitz_bound: must be at least 0, got -0.5"),
    # JSON NaN, Infinity and integers beyond every float, and fields that
    # are not finite on the mesh
    ("simulate", {"solver": {"dt": float("nan")}},
     "solver.dt: expected a finite number, got nan"),
    ("stability", {"stability": {"scale": float("nan")}},
     "stability.scale: expected a finite number, got nan"),
    ("reconstruct", {"inverse": {"noise_level": float("inf")}},
     "inverse.noise_level: expected a finite number, got inf"),
    ("carleman-verify", {"carleman": {"tau_list": [0, float("-inf")]}},
     "carleman.tau_list[1]: expected a finite number, got -inf"),
    ("simulate", {"potentials": {"p11": "log(x1 - 2)"}},
     "potentials.p11: expected finite values, got nan at index 0"),
    ("simulate", {"diffusion": {"a1": "sqrt(x1 - 2)"}},
     "diffusion.a1: expected finite values, got nan at index 0"),
    ("simulate", {"potentials": {"q12": float("inf")}},
     "potentials.q12: expected finite values, got inf at index 0"),
    ("simulate", {"mesh": {"n_r": 10**400}},
     "mesh.n_r: expected a finite number, got 1000"),
    # an initial guess is a number or one number per patch
    ("reconstruct", {"inverse": {"guess": {"p13": float("nan"), "q21": 1.0}}},
     "inverse.guess.p13: expected a finite number, got nan"),
    ("reconstruct", {"inverse": {"guess": {"p13": [0.5, float("inf"), 0.5,
                                                   0.5]}}},
     "inverse.guess.p13[1]: expected a finite number, got inf"),
    ("reconstruct", {"inverse": {"guess": {"q21": "1.0"}}},
     "inverse.guess.q21: expected a number"),
    # null derives s1 from lambda; a number must be a valid weight parameter
    ("carleman-verify", {"carleman": {"s1": 0}},
     "carleman.s1: must be positive, got 0"),
    ("carleman-verify", {"carleman": {"s1": -1}},
     "carleman.s1: must be positive, got -1"),
])
def test_bad_config_value_is_refused(tmp_path, capsys, command, extra, message):
    cfg = write_config(tmp_path, extra)
    assert run_cli(command, cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"configuration error: {message}"), err


@pytest.mark.parametrize("top", ["[1]", "3", "null", '"simulate"'])
def test_non_object_config_file_is_refused(tmp_path, capsys, top):
    path = tmp_path / "config.json"
    path.write_text(top)
    assert run_cli("simulate", str(path), tmp_path / "out") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"configuration error: config {path}: expected a JSON object"), err


def test_integer_past_the_digit_limit_is_invalid_json(tmp_path, capsys):
    # Python's json refuses to convert an integer of over 4,300 digits
    path = tmp_path / "config.json"
    path.write_text('{"seed": 1' + "0" * 5000 + "}")
    assert run_cli("simulate", str(path), tmp_path / "out") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"configuration error: config {path} is not valid JSON"), err
    assert os.listdir(tmp_path) == ["config.json"]


def test_added_truth_entry_follows_the_defaults(tmp_path):
    # the order of the truth entries fixes the order of the random draws
    cfg = write_config(tmp_path, {"inverse": {
        "free": ["p21", "q21"],
        "truth": {"p21": {"base": 1.5, "amplitude": 0.1}}}})
    assert list(load_config(cfg).inverse["truth"]) == ["p13", "q21", "p21"]
    assert run_cli("gradcheck", cfg, tmp_path / "out") == 0


# Each bad expression, through each entry point, must end in a configuration
# error naming the field; the probe in ``os`` records any payload that runs.
BAD_EXPRESSIONS = {
    "dunder": "[c for c in ().__class__.__base__.__subclasses__() "
              "if c.__name__ == '_wrap_close'][0].__init__.__globals__"
              "['bulksurf_probe']()",
    "import": "__import__('os').bulksurf_probe()",
    "subscript": "[1.0][0]",
    "lambda": "(lambda: 1.0)()",
    "comprehension": "[c for c in (1.0,)][0]",
    "unknown_name": "w",
    "keyword": "exp(0, evaluate=False)",
    "string": "'1.0'",
    "xor": "2^1",
    "list": ["__import__('os').bulksurf_probe()"],
}
EXPRESSION_FIELDS = {
    "diffusion.a1": ("simulate", lambda e: {"diffusion": {"a1": e}}),
    "carleman.sources.f1": ("shifted-verify",
                            lambda e: {"carleman": {"sources": {"f1": e}}}),
    "positivity.reactions.f1": ("positivity",
                                lambda e: {"positivity": {"reactions": {"f1": e}}}),
    "carleman.a_expr": ("carleman-verify", lambda e: {"carleman": {"a_expr": e}}),
}


@pytest.mark.parametrize("payload", list(BAD_EXPRESSIONS.values()),
                         ids=list(BAD_EXPRESSIONS))
@pytest.mark.parametrize("field", list(EXPRESSION_FIELDS))
def test_bad_expression_is_a_config_error(tmp_path, capsys, monkeypatch,
                                          field, payload):
    calls = []
    monkeypatch.setattr(os, "bulksurf_probe", lambda: calls.append(1) or 1.0,
                        raising=False)
    command, section = EXPRESSION_FIELDS[field]
    cfg = write_config(tmp_path, section(payload))
    assert run_cli(command, cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and field in err[0], err
    assert not calls


def test_seed_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "o1"
    monkeypatch.setenv("BULKSURF_SEED", "99")
    assert run_cli("simulate", cfg, out1) == 0
    with open(out1 / "config_echo.json") as fh:
        echo = json.load(fh)
    assert echo["seed"] == 99


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_bad_seed_env_is_a_config_error(tmp_path, capsys, monkeypatch, value):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("BULKSURF_SEED", value)
    assert run_cli("simulate", cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "configuration error: BULKSURF_SEED" in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command",
                         ["simulate", "positivity", "stability", "gradcheck"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path)
    assert run_cli(command, cfg, tmp_path / "out", seed=-1) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "configuration error: seed" in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, message", [
    (["simulate", "--seed", "abc"],
     "configuration error: seed: expected an integer, got 'abc'"),
    (["simulate", "--seed", "1.5"],
     "configuration error: seed: expected an integer, got '1.5'"),
    (["simulat"], "usage error: argument command: invalid choice: 'simulat'"),
    (["--seed", "3"], "usage error: the following arguments are required: "
                      "command"),
    (["simulate", "--out"], "usage error: argument --out: expected one "
                            "argument"),
    (["simulate", "--sed", "3"], "usage error: unrecognized arguments: "
                                 "--sed 3"),
])
def test_malformed_command_line_exits_1(tmp_path, capsys, monkeypatch, args,
                                        message):
    # exit 2 is kept for numerical failures; a bad command line is exit 1
    # with one line on stderr, and no results directory is made
    monkeypatch.chdir(tmp_path)
    assert main(args) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(message), err
    assert os.listdir(tmp_path) == []


def test_stability_pairs_each_draw_with_its_half_scale_response(tmp_path):
    # p21 just above the p0 floor: draws that push it below are redrawn
    cfg = write_config(tmp_path, {"potentials": {"p21": 0.3007}})
    out = tmp_path / "out"
    assert run_cli("stability", cfg, out) == 0
    summary = read_summary(out)
    assert summary["n_rejected"] > 0
    assert summary["checks"]["linear_response"]
