"""Run configuration: JSON schema, eager validation, field-spec parsing.

Coefficient fields accept a number (constant), a closed-form expression in
the cell coordinates (``x1, x2, r, theta`` in the bulk; ``theta, s`` on the
surface), or ``{"csv": path}`` with ``index,value`` rows.  All referenced
files must exist at load time and every numeric constraint of the downstream
modules is checked eagerly with a field-level message.
"""

from __future__ import annotations

import ast
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .carleman import TEST_FIELDS
from .forward import _COEFF_NAMES
from .geometry import Mesh, RegionSet, build_polar_mesh, build_regions
from .model import (
    _BULK_NAMES,
    _SURF_NAMES,
    DiffusionSpec,
    InitialData,
    Nonlinearity,
    PotentialSet,
    make_power_nonlinearity,
)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


# Functions an expression may call, with their number of positional arguments.
_ARITY = {"sin": 1, "cos": 1, "tan": 1, "exp": 1, "sqrt": 1, "abs": 1,
          "log": 1, "tanh": 1, "minimum": 2, "maximum": 2}
# Bounds the nesting depth that compile, eval and sympify recurse through.
_MAX_NODES = 500
_SYNTAX = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Load, ast.Add, ast.Sub,
           ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub)
# Bounds the exact integers and rationals that Python and sympy compute for
# the constant parts of an expression; ``0*9**9**8`` would otherwise run on.
_MAX_BITS = 4096


def _bits(node) -> float:
    """Upper bound on log2(2 + |value|) of a checked (sub)expression.

    A name counts as 1: it stands for a float array or a sympy symbol, never
    for an exact number.
    """
    if isinstance(node, ast.Constant):
        return math.log2(2 + abs(node.value))
    if isinstance(node, ast.UnaryOp):
        return _bits(node.operand)
    if isinstance(node, ast.Call):
        return max(map(_bits, node.args))
    if not isinstance(node, ast.BinOp):
        return 1.0
    left, right = _bits(node.left), _bits(node.right)
    if isinstance(node.op, ast.Pow):
        return left * 2 ** right if right < 64 else math.inf
    if isinstance(node.op, (ast.Mult, ast.Div)):
        return left + right
    return max(left, right) + 1


def check_expression(expr, names, where: str) -> ast.Expression:
    """Parse a closed-form expression string, or raise a ConfigError.

    The only accepted grammar: int/float literals, the names in ``names``,
    ``+ - * / **``, unary ``+``/``-``, and calls with positional arguments to
    the names of ``names`` that are functions (the keys of ``_ARITY``).
    Attributes, subscripts, keywords, strings and everything else are refused
    before any evaluation, and so are powers whose exact value could exceed
    ``_MAX_BITS`` bits.
    """
    if not isinstance(expr, str):
        raise ConfigError(f"{where}: expected an expression string, got {expr!r}")
    try:
        tree = ast.parse(expr, mode="eval")
    # the parser reports over-deep nesting as MemoryError or RecursionError
    except (SyntaxError, ValueError, MemoryError, RecursionError):
        raise ConfigError(f"{where}: cannot parse expression {expr!r}") from None
    nodes = list(ast.walk(tree))
    if len(nodes) > _MAX_NODES:
        raise ConfigError(f"{where}: expression longer than {_MAX_NODES} "
                          f"syntax nodes")
    callees = set()
    for node in nodes:
        if isinstance(node, ast.Call):
            fn = getattr(node.func, "id", None)
            if fn not in names or fn not in _ARITY:
                raise ConfigError(f"{where}: only calls to "
                                  f"{sorted(set(names) & set(_ARITY))} are "
                                  f"allowed in expression {expr!r}")
            if node.keywords or len(node.args) != _ARITY[fn]:
                raise ConfigError(f"{where}: {fn} takes {_ARITY[fn]} positional "
                                  f"argument(s) in expression {expr!r}")
            callees.add(node.func)
        elif isinstance(node, ast.Name):
            if node.id not in names or (node.id in _ARITY) != (node in callees):
                raise ConfigError(f"{where}: unknown name {node.id!r} in "
                                  f"expression {expr!r}")
        elif isinstance(node, ast.Constant):
            if type(node.value) not in (int, float):
                raise ConfigError(f"{where}: literal {node.value!r} not allowed "
                                  f"in expression {expr!r}")
        elif not isinstance(node, _SYNTAX):
            raise ConfigError(f"{where}: {type(node).__name__} not allowed in "
                              f"expression {expr!r}")
    if _bits(tree.body) > _MAX_BITS:
        raise ConfigError(f"{where}: constant part of expression {expr!r} "
                          f"exceeds {_MAX_BITS} bits")
    return tree


_NUMPY_NS = {name: getattr(np, name) for name in _ARITY}
_NUMPY_NS["pi"] = np.pi


def compile_expression(expr, variables: tuple, where: str):
    """Check ``expr`` once; return f(*arrays) that evaluates it with numpy.

    The arrays bind to ``variables`` in order and the result is broadcast to
    their common shape.
    """
    code = compile(check_expression(expr, {**_NUMPY_NS, **dict.fromkeys(variables)},
                                    where), where, "eval")

    def evaluate(*arrays):
        try:
            out = eval(code, {"__builtins__": {}},
                       {**_NUMPY_NS, **dict(zip(variables, arrays))})
        except (ArithmeticError, ValueError, TypeError) as exc:
            raise ConfigError(f"{where}: cannot evaluate expression {expr!r}: {exc}")
        return np.broadcast_to(np.asarray(out, dtype=float),
                               np.broadcast_shapes(*map(np.shape, arrays))).copy()
    return evaluate


def _load_csv_field(path: str, n: int, where: str) -> np.ndarray:
    if not os.path.exists(path):
        raise ConfigError(f"{where}: file not found: {path}")
    out = np.zeros(n)
    seen = np.zeros(n, dtype=bool)
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("index"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ConfigError(f"{where}: {path}:{line_no}: expected 'index,value'")
            try:
                i, value = int(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ConfigError(f"{where}: {path}:{line_no}: {exc}") from None
            if not (0 <= i < n):
                raise ConfigError(f"{where}: {path}:{line_no}: index {i} out of range")
            out[i] = value
            seen[i] = True
    if not seen.all():
        raise ConfigError(f"{where}: {path}: missing {int((~seen).sum())} of {n} entries")
    return out


def parse_field_spec(spec, mesh: Mesh, where: str, on_surface: bool = False
                     ) -> np.ndarray:
    """Number, expression string, or {"csv": path} to a full field array;
    a NaN or infinite value anywhere on the mesh is refused."""
    n = mesh.n_theta if on_surface else mesh.n_cells
    if isinstance(spec, (int, float)):
        arr = np.full(n, float(spec))
    elif isinstance(spec, dict):
        if "csv" not in spec:
            raise ConfigError(f"{where}: field spec dict must carry a 'csv' key")
        arr = _load_csv_field(spec["csv"], n, where)
    elif isinstance(spec, str):
        if on_surface:
            names = {"theta": mesh.surface_theta, "s": mesh.surface_nodes}
        else:
            xy = mesh.cell_xy
            names = {"x1": xy[:, 0], "x2": xy[:, 1],
                     "r": mesh.cell_r, "theta": mesh.cell_theta}
        # a NaN or inf is refused below, not warned about
        with np.errstate(all="ignore"):
            arr = compile_expression(spec, tuple(names), where)(*names.values())
    else:
        raise ConfigError(f"{where}: unsupported field spec {spec!r}")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ConfigError(f"{where}: expected finite values, got {arr[bad[0]]} "
                          f"at index {bad[0]}")
    return arr


@dataclass
class RunConfig:
    """Validated run configuration with constructed model objects.

    ``raw`` is the config as given, merged over DEFAULT_CONFIG; the
    sections below hold its values typed like their defaults.
    """

    raw: dict
    mesh: Mesh
    regions: RegionSet
    diffusion: DiffusionSpec
    potentials: PotentialSet
    nl_f: Nonlinearity
    nl_g: Nonlinearity
    init: InitialData
    dt: float
    t_end: float
    seed: int
    carleman: dict
    inverse: dict
    stability: dict
    assumptions: dict
    positivity: dict


# Every key a run reads, with its default.  ``None`` means "derive it":
# the floors beta, beta_gamma from the diffusivities, the surface powers
# from the bulk ones, the surface initial data from the outer bulk ring and
# s1 from lambda.
DEFAULT_CONFIG = {
    "mesh": {"n_r": 16, "n_theta": 32, "radius": 1.0},
    "regions": {"rho_prime": 0.25, "rho_dprime": 0.4, "rho_omega": 0.6,
                "t0": 0.2, "t1": 0.8},
    "diffusion": {"a1": 1.0, "a2": 1.0, "d1": 1.0, "d2": 1.0,
                  "beta": None, "beta_gamma": None},
    "potentials": {"p11": 0.2, "p12": 0.1, "p13": 0.8, "p21": 2.0,
                   "p22": -0.1, "q11": 0.1, "q12": 0.05, "q13": 0.3,
                   "q21": 1.0, "q22": -0.05, "R_bound": 10.0, "p0": 0.3},
    "nonlinearity": {"d": 1, "delta": 1, "d_surf": None, "delta_surf": None,
                     "y_max": 12.0, "z_max": 12.0},
    "initial": {"y0": 1.5, "z0": 1.0, "y0_gamma": None, "z0_gamma": None},
    "solver": {"dt": 0.005, "t_end": 1.0},
    "carleman": {"lambda1": 2.0, "s1": None, "tau_list": [-3, 0, 2],
                 "epsilon": 0.5, "a_expr": "1", "d_expr": "1",
                 "n_test_fields": 3,
                 "sources": {"f1": "0.5 + 0.3*x1", "f2": "0.4 - 0.2*x2",
                             "g1": "0.2 + 0.1*cos(theta)",
                             "g2": "0.3 + 0.1*sin(theta)"}},
    "inverse": {"n_patch_r": 4, "n_patch_theta": 4, "n_arcs": 8,
                "reg_weight": 0.0, "max_iter": 100, "tolerance": 1e-10,
                "free": ["p13", "q21"], "target_rel_error": 0.05,
                "truth": {"p13": {"base": 0.8, "amplitude": 0.3},
                          "q21": {"base": 1.0, "amplitude": 0.2}},
                "guess": {"p13": 0.5, "q21": 1.0},
                "noise_level": 0.0, "gradcheck_points": 3,
                "gradcheck_directions": 20, "gradcheck_step": 1e-5},
    "stability": {"n_draws": 20, "scale": 1e-3},
    "assumptions": {"r": 1.5, "r1": 0.05},
    "positivity": {"t_end": 0.3, "draws": 20, "lipschitz_bound": 1.0,
                   "reactions": {"f1": "v", "f2": "u", "g1": "v", "g2": "u"}},
    "seed": 1234,
}

# Field specs, passed on as given and checked by parse_field_spec.
# Expression strings, the keys whose default is a string, pass as given too.
_AS_GIVEN = ({f"potentials.{n}" for n in _BULK_NAMES + _SURF_NAMES}
             | {f"diffusion.{n}" for n in ("a1", "a2", "d1", "d2")}
             | {f"initial.{n}" for n in ("y0", "z0", "y0_gamma", "z0_gamma")})
# The list and the maps whose entries are coefficient names.
_BY_COEFF = ("inverse.free", "inverse.truth", "inverse.guess")
# The int keys that count nothing, at least 0; every other one at least 1.
_NOT_COUNTS = ("seed", "nonlinearity.d", "nonlinearity.delta")


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def _typed(value, default, where: str):
    """``value`` in the type of ``default``, or a ConfigError naming ``where``.

    A map takes the keys of its default, each typed in turn; the maps in
    ``_BY_COEFF`` take any coefficient name, typed like their first
    default entry.  A number is a JSON number, never a bool, and an int
    where the default is an int; where the default is None it may be null.
    A list holds numbers, which become floats, or coefficient names; an
    initial guess is a number or a list of them, one per patch.
    """
    if where in _AS_GIVEN or isinstance(default, str):
        return value
    if where.startswith("inverse.guess."):
        default = [] if isinstance(value, list) else 0.0
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected a map, got {value!r}")
        known = _COEFF_NAMES if where in _BY_COEFF else default
        first = next(iter(default.values()))
        out = {}
        for key, v in value.items():
            path = f"{where}.{key}" if where else key
            if key not in known:
                raise ConfigError(f"{path}: unknown key (known: "
                                  f"{', '.join(sorted(known))})")
            out[key] = _typed(v, default[key] if key in default else first,
                              path)
        # only an entry a coefficient map adds can lack a key of its default
        for key in default:
            if key not in out:
                raise ConfigError(f"{where}.{key}: missing")
        return out
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        if where in _BY_COEFF:
            if (not value or any(v not in _COEFF_NAMES for v in value)
                    or len(set(value)) < len(value)):
                raise ConfigError(f"{where}: expected distinct names among "
                                  f"{', '.join(_COEFF_NAMES)}, got {value!r}")
            return list(value)
        return [_typed(v, 0.0, f"{where}[{i}]") for i, v in enumerate(value)]
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the largest float
        finite = False
    if not finite:
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    if not isinstance(default, int):
        return float(value)
    if not (isinstance(value, int) or value.is_integer()):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    floor = 0 if where in _NOT_COUNTS else 1
    if value < floor:
        raise ConfigError(f"{where}: must be at least {floor}, got {value!r}")
    return int(value)


def load_config(path: str | None = None, overrides: dict | None = None
                ) -> RunConfig:
    """Load and validate; missing keys take their DEFAULT_CONFIG values."""
    raw = DEFAULT_CONFIG
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            try:
                user = json.load(fh)
            # a JSONDecodeError, or an integer past Python's digit limit
            except ValueError as exc:
                raise ConfigError(f"config {path} is not valid JSON: {exc}")
        if not isinstance(user, dict):
            raise ConfigError(f"config {path}: expected a JSON object at the "
                              f"top level, got {type(user).__name__}")
        raw = _merge(DEFAULT_CONFIG, user)
    if overrides:
        raw = _merge(raw, overrides)
    typed = _typed(raw, DEFAULT_CONFIG, "")

    m = typed["mesh"]
    try:
        mesh = build_polar_mesh(m["n_r"], m["n_theta"], m["radius"])
    except ValueError as exc:
        raise ConfigError(f"mesh: {exc}")

    rg = typed["regions"]
    try:
        regions = build_regions(mesh, rg["rho_prime"], rg["rho_dprime"],
                                rg["rho_omega"], rg["t0"], rg["t1"])
    except ValueError as exc:
        raise ConfigError(f"regions: {exc}")

    df = typed["diffusion"]
    fields = {k: parse_field_spec(df[k], mesh, f"diffusion.{k}",
                                  on_surface=k.startswith("d"))
              for k in ("a1", "a2", "d1", "d2")}
    try:
        diffusion = DiffusionSpec.from_values(
            mesh, beta=df["beta"], beta_gamma=df["beta_gamma"], **fields)
    except ValueError as exc:
        raise ConfigError(f"diffusion: {exc}")

    pt = dict(typed["potentials"])
    R_bound, p0 = pt.pop("R_bound"), pt.pop("p0")
    fields = {name: parse_field_spec(spec, mesh, f"potentials.{name}",
                                     on_surface=name.startswith("q"))
              for name, spec in pt.items()}
    try:
        potentials = PotentialSet.from_values(mesh, R_bound=R_bound, p0=p0,
                                              **fields)
    except ValueError as exc:
        raise ConfigError(f"potentials: {exc}")
    low = potentials.below_p0()
    if p0 > 0 and low:
        raise ConfigError(
            f"potentials: {', '.join(low)} below p0 floor: stability "
            f"admissibility fails (min p21 {potentials.p21.min():.3g}, min q21 "
            f"{potentials.q21.min():.3g}, p0 {p0:.3g})")

    nl = typed["nonlinearity"]
    try:
        box = (nl["y_max"], nl["z_max"])
        nl_f = make_power_nonlinearity(nl["d"], nl["delta"], box)
        nl_g = make_power_nonlinearity(
            nl["d"] if nl["d_surf"] is None else nl["d_surf"],
            nl["delta"] if nl["delta_surf"] is None else nl["delta_surf"], box)
    except ValueError as exc:
        raise ConfigError(f"nonlinearity: {exc}")

    ic = typed["initial"]
    init = InitialData.from_values(
        mesh,
        y0=parse_field_spec(ic["y0"], mesh, "initial.y0"),
        z0=parse_field_spec(ic["z0"], mesh, "initial.z0"),
        **{k: parse_field_spec(ic[k], mesh, f"initial.{k}", on_surface=True)
           for k in ("y0_gamma", "z0_gamma") if ic[k] is not None})

    dt, t_end = typed["solver"]["dt"], typed["solver"]["t_end"]
    if dt <= 0 or t_end <= 0:
        raise ConfigError("solver: dt and t_end must be positive")
    if regions.t1 > t_end + 1e-12:
        raise ConfigError(
            f"regions: window end t1={regions.t1} exceeds solver t_end={t_end}")

    cl = typed["carleman"]
    if cl["lambda1"] < 1.0:
        raise ConfigError("carleman: lambda1 must be >= 1")
    if not (0.0 < cl["epsilon"] < 1.0):
        raise ConfigError("carleman: epsilon must lie in (0, 1)")
    if not cl["tau_list"]:
        raise ConfigError("carleman.tau_list: expected at least one tau, got []")
    if cl["s1"] is not None and cl["s1"] <= 0:
        raise ConfigError(f"carleman.s1: must be positive, got {cl['s1']!r}")
    if cl["n_test_fields"] > len(TEST_FIELDS):
        raise ConfigError(f"carleman.n_test_fields: at most {len(TEST_FIELDS)} "
                          f"test fields exist, got {cl['n_test_fields']}")
    inv, pz = typed["inverse"], typed["positivity"]
    for where, value in (("positivity.t_end", pz["t_end"]),
                         ("stability.scale", typed["stability"]["scale"]),
                         ("inverse.gradcheck_step", inv["gradcheck_step"])):
        if value <= 0:
            raise ConfigError(f"{where}: must be positive, got {value!r}")
    for where, value in (("inverse.noise_level", inv["noise_level"]),
                         ("inverse.reg_weight", inv["reg_weight"]),
                         ("positivity.lipschitz_bound", pz["lipschitz_bound"])):
        if value < 0:
            raise ConfigError(f"{where}: must be at least 0, got {value!r}")

    return RunConfig(
        raw=raw, mesh=mesh, regions=regions, diffusion=diffusion,
        potentials=potentials, nl_f=nl_f, nl_g=nl_g, init=init,
        dt=dt, t_end=t_end, seed=typed["seed"], carleman=cl,
        inverse=typed["inverse"], stability=typed["stability"],
        assumptions=typed["assumptions"], positivity=typed["positivity"])
