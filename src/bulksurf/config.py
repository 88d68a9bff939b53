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
from dataclasses import dataclass, field

import numpy as np

from .geometry import Mesh, RegionSet, build_polar_mesh, build_regions
from .model import (
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
            i = int(parts[0])
            if not (0 <= i < n):
                raise ConfigError(f"{where}: {path}:{line_no}: index {i} out of range")
            out[i] = float(parts[1])
            seen[i] = True
    if not seen.all():
        raise ConfigError(f"{where}: {path}: missing {int((~seen).sum())} of {n} entries")
    return out


def parse_field_spec(spec, mesh: Mesh, where: str, on_surface: bool = False
                     ) -> np.ndarray:
    """Number, expression string, or {"csv": path} to a full field array."""
    n = mesh.n_theta if on_surface else mesh.n_cells
    if isinstance(spec, (int, float)):
        return np.full(n, float(spec))
    if isinstance(spec, dict):
        if "csv" in spec:
            return _load_csv_field(spec["csv"], n, where)
        raise ConfigError(f"{where}: field spec dict must carry a 'csv' key")
    if isinstance(spec, str):
        if on_surface:
            names = {"theta": mesh.surface_theta, "s": mesh.surface_nodes}
        else:
            xy = mesh.cell_xy
            names = {"x1": xy[:, 0], "x2": xy[:, 1],
                     "r": mesh.cell_r, "theta": mesh.cell_theta}
        return compile_expression(spec, tuple(names), where)(*names.values())
    raise ConfigError(f"{where}: unsupported field spec {spec!r}")


@dataclass
class RunConfig:
    """Validated run configuration with constructed model objects."""

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
    carleman: dict = field(default_factory=dict)
    inverse: dict = field(default_factory=dict)
    stability: dict = field(default_factory=dict)
    assumptions: dict = field(default_factory=dict)
    positivity: dict = field(default_factory=dict)


DEFAULT_CONFIG = {
    "mesh": {"n_r": 16, "n_theta": 32, "radius": 1.0},
    "regions": {"rho_prime": 0.25, "rho_dprime": 0.4, "rho_omega": 0.6,
                "t0": 0.2, "t1": 0.8},
    "diffusion": {"a1": 1.0, "a2": 1.0, "d1": 1.0, "d2": 1.0},
    "potentials": {"p11": 0.2, "p12": 0.1, "p13": 0.8, "p21": 2.0,
                   "p22": -0.1, "q11": 0.1, "q12": 0.05, "q13": 0.3,
                   "q21": 1.0, "q22": -0.05, "R_bound": 10.0, "p0": 0.3},
    "nonlinearity": {"d": 1, "delta": 1, "y_max": 12.0, "z_max": 12.0},
    "initial": {"y0": 1.5, "z0": 1.0},
    "solver": {"dt": 0.005, "t_end": 1.0},
    "carleman": {"lambda1": 2.0, "s1": None, "tau_list": [-3, 0, 2],
                 "epsilon": 0.5},
    "inverse": {"n_patch_r": 4, "n_patch_theta": 4, "n_arcs": 8,
                "reg_weight": 0.0, "max_iter": 100, "tolerance": 1e-10,
                "free": ["p13", "q21"], "target_rel_error": 0.05,
                "truth": {"p13": {"base": 0.8, "amplitude": 0.3},
                          "q21": {"base": 1.0, "amplitude": 0.2}},
                "guess": {"p13": 0.5, "q21": 1.0},
                "noise_level": 0.0},
    "stability": {"n_draws": 20, "scale": 1e-3},
    "assumptions": {"r": 1.5, "r1": 0.05},
    "positivity": {"t_end": 0.3, "draws": 20},
    "seed": 1234,
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


# The keys a run reads that DEFAULT_CONFIG leaves out.  Together with it,
# they are every key that load_config accepts.
_OPTIONAL = {
    "diffusion": dict.fromkeys(("beta", "beta_gamma")),
    "nonlinearity": dict.fromkeys(("d_surf", "delta_surf")),
    "initial": dict.fromkeys(("y0_gamma", "z0_gamma")),
    "carleman": {"a_expr": None, "d_expr": None, "n_test_fields": None,
                 "sources": dict.fromkeys(("f1", "f2", "g1", "g2"))},
    "inverse": {"gradcheck_points": None, "gradcheck_directions": None,
                "gradcheck_step": None, "guess": dict.fromkeys(("p21", "q13")),
                "truth": dict.fromkeys(("p21", "q13"),
                                       {"base": None, "amplitude": None})},
    "positivity": {"lipschitz_bound": None,
                   "reactions": dict.fromkeys(("f1", "f2", "g1", "g2"))},
}
_KNOWN = _merge(DEFAULT_CONFIG, _OPTIONAL)


def _check_keys(section: dict, known: dict, where: str = "") -> None:
    """Raise a ConfigError naming the first key that ``known`` lacks."""
    for key, value in section.items():
        if key not in known:
            raise ConfigError(f"{where}{key}: unknown key (known: "
                              f"{', '.join(sorted(known))})")
        if isinstance(value, dict) and isinstance(known[key], dict):
            _check_keys(value, known[key], f"{where}{key}.")


def load_config(path: str | None = None, overrides: dict | None = None
                ) -> RunConfig:
    """Load and validate; missing keys fall back to documented defaults."""
    raw = DEFAULT_CONFIG
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config {path} is not valid JSON: {exc}")
        raw = _merge(DEFAULT_CONFIG, user)
    if overrides:
        raw = _merge(raw, overrides)
    _check_keys(raw, _KNOWN)

    m = raw["mesh"]
    try:
        mesh = build_polar_mesh(int(m["n_r"]), int(m["n_theta"]),
                                float(m.get("radius", 1.0)))
    except ValueError as exc:
        raise ConfigError(f"mesh: {exc}")

    rg = raw["regions"]
    try:
        regions = build_regions(mesh, float(rg["rho_prime"]),
                                float(rg["rho_dprime"]), float(rg["rho_omega"]),
                                float(rg["t0"]), float(rg["t1"]))
    except ValueError as exc:
        raise ConfigError(f"regions: {exc}")

    df = raw["diffusion"]
    try:
        diffusion = DiffusionSpec.from_values(
            mesh,
            a1=parse_field_spec(df["a1"], mesh, "diffusion.a1"),
            a2=parse_field_spec(df["a2"], mesh, "diffusion.a2"),
            d1=parse_field_spec(df["d1"], mesh, "diffusion.d1", on_surface=True),
            d2=parse_field_spec(df["d2"], mesh, "diffusion.d2", on_surface=True),
            beta=df.get("beta"), beta_gamma=df.get("beta_gamma"))
    except ValueError as exc:
        raise ConfigError(f"diffusion: {exc}")

    pt = dict(raw["potentials"])
    R_bound = float(pt.pop("R_bound", 10.0))
    p0 = float(pt.pop("p0", 0.0))
    fields = {}
    for name, spec in pt.items():
        on_surf = name.startswith("q")
        fields[name] = parse_field_spec(spec, mesh, f"potentials.{name}",
                                        on_surface=on_surf)
    try:
        potentials = PotentialSet.from_values(mesh, R_bound=R_bound, p0=p0,
                                              **fields)
    except ValueError as exc:
        raise ConfigError(f"potentials: {exc}")
    if p0 > 0 and not potentials.stability_admissible():
        raise ConfigError(
            f"potentials: p21 below p0 floor: stability admissibility fails "
            f"(min p21 {potentials.p21.min():.3g}, min q21 "
            f"{potentials.q21.min():.3g}, p0 {p0:.3g})")

    nl = raw["nonlinearity"]
    try:
        box = (float(nl.get("y_max", 8.0)), float(nl.get("z_max", 8.0)))
        nl_f = make_power_nonlinearity(int(nl["d"]), int(nl["delta"]), box)
        nl_g = make_power_nonlinearity(int(nl.get("d_surf", nl["d"])),
                                       int(nl.get("delta_surf", nl["delta"])),
                                       box)
    except ValueError as exc:
        raise ConfigError(f"nonlinearity: {exc}")

    ic = raw["initial"]
    init = InitialData.from_values(
        mesh,
        y0=parse_field_spec(ic["y0"], mesh, "initial.y0"),
        z0=parse_field_spec(ic["z0"], mesh, "initial.z0"),
        y0_gamma=(parse_field_spec(ic["y0_gamma"], mesh, "initial.y0_gamma",
                                   on_surface=True)
                  if "y0_gamma" in ic else None),
        z0_gamma=(parse_field_spec(ic["z0_gamma"], mesh, "initial.z0_gamma",
                                   on_surface=True)
                  if "z0_gamma" in ic else None))

    sv = raw["solver"]
    dt = float(sv["dt"])
    t_end = float(sv["t_end"])
    if dt <= 0 or t_end <= 0:
        raise ConfigError("solver: dt and t_end must be positive")
    if regions.t1 > t_end + 1e-12:
        raise ConfigError(
            f"regions: window end t1={regions.t1} exceeds solver t_end={t_end}")

    cl = dict(raw["carleman"])
    if cl.get("lambda1") is not None and float(cl["lambda1"]) < 1.0:
        raise ConfigError("carleman: lambda1 must be >= 1")
    eps = float(cl.get("epsilon", 0.5))
    if not (0.0 < eps < 1.0):
        raise ConfigError("carleman: epsilon must lie in (0, 1)")

    return RunConfig(
        raw=raw, mesh=mesh, regions=regions, diffusion=diffusion,
        potentials=potentials, nl_f=nl_f, nl_g=nl_g, init=init,
        dt=dt, t_end=t_end, seed=int(raw.get("seed", 0)),
        carleman=cl, inverse=dict(raw["inverse"]),
        stability=dict(raw["stability"]),
        assumptions=dict(raw["assumptions"]),
        positivity=dict(raw.get("positivity", {})))
