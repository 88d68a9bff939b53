import ast
import pathlib

import numpy as np
import pytest
import sympy as sp

import bulksurf
from bulksurf.config import (
    ConfigError,
    check_expression,
    compile_expression,
    load_config,
    parse_field_spec,
)
from bulksurf.fields import X1, X2, sympy_expr


def test_field_spec_expression_value():
    cfg = load_config(overrides={
        "mesh": {"n_r": 8, "n_theta": 16},
        "diffusion": {"a1": "1 + x1**2/4", "d1": "2 + sin(theta)"}})
    xy = cfg.mesh.cell_xy
    np.testing.assert_array_equal(cfg.diffusion.a1, 1 + xy[:, 0] ** 2 / 4)
    np.testing.assert_array_equal(cfg.diffusion.d1,
                                  2 + np.sin(cfg.mesh.surface_theta))
    f1 = parse_field_spec("0.5 + 0.3*x1", cfg.mesh, "carleman.sources.f1")
    np.testing.assert_array_equal(f1, 0.5 + 0.3 * xy[:, 0])


def test_reaction_expression_value():
    rng = np.random.default_rng(0)
    u, v = rng.random(5), rng.random(5)
    fn = compile_expression("u*v + minimum(u, v) - -exp(v)", ("u", "v"),
                            "positivity.reactions.f1")
    np.testing.assert_array_equal(fn(u, v), u * v + np.minimum(u, v) + np.exp(v))
    np.testing.assert_array_equal(
        compile_expression("v", ("u", "v"), "positivity.reactions.f1")(u, v), v)


def test_sympy_expression_value_and_precision():
    a = sympy_expr("1 + (x1**2 + x2**2)/4", "carleman.a_expr", ("x1", "x2"))
    assert a == 1 + (X1**2 + X2**2) / 4
    # the checked string still goes through sympify, which keeps the
    # written digits; a float round trip would round them to 53 bits
    lit = "0.6000000000000001"
    assert sympy_expr(lit) == sp.Float(lit)
    assert sympy_expr(lit) != sp.Float(float(lit))


@pytest.mark.parametrize("expr", ["theta", "t", "1 + r"])
def test_sympy_expression_limits_symbols(expr):
    with pytest.raises(ConfigError, match="carleman.a_expr"):
        sympy_expr(expr, "carleman.a_expr", ("x1", "x2"))


@pytest.mark.parametrize("expr", [
    "sin(x1, x2)",        # would write into x2 through numpy's out argument
    "sin",                # a function used as a value
    "x1(2)",              # a variable called as a function
    "True", "1j", "-" * 100000 + "1", 5,
])
def test_grammar_edge_cases_are_refused(expr):
    with pytest.raises(ConfigError, match="diffusion.a1"):
        compile_expression(expr, ("x1", "x2"), "diffusion.a1")


@pytest.mark.parametrize("expr", [
    ["__import__('os').getpid()"], {"x": "__import__('os').getpid()"}, True,
])
def test_sympy_expression_refuses_other_containers(expr):
    with pytest.raises(ConfigError, match="carleman.a_expr"):
        sympy_expr(expr, "carleman.a_expr", ("x1", "x2"))


def test_sympy_expression_passes_numbers_and_sympy_through():
    assert sympy_expr(2) == 2 and sympy_expr(0.5) == sp.Float(0.5)
    assert sympy_expr(X1 + 1) == X1 + 1


# Python and sympy evaluate these constant powers exactly and without end.
@pytest.mark.parametrize("expr", [
    "0*9**9**8", "x1 + ((9**64)**64)**64", "2**(0*x1 + 9**9)", "1/7**5000",
])
def test_huge_constant_powers_are_refused(expr):
    with pytest.raises(ConfigError, match="diffusion.a1: constant part"):
        check_expression(expr, dict.fromkeys(("x1", "x2")), "diffusion.a1")


@pytest.mark.parametrize("expr", [
    "(1 + x1**2 + x2**2)**8", "x1**(1/3) - 2**x2", "exp(-12*(x1**2 + x2**2))",
    "1e300*x1", "2**1000 - 2**1000 + x1",
])
def test_ordinary_powers_pass(expr):
    check_expression(expr, {"exp": None, "x1": None, "x2": None}, "diffusion.a1")


def _calls(path: pathlib.Path, match) -> set:
    """(file, top-level function) of each call in a module that ``match`` takes."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and scope == "<module>":
            scope = node.name
        if isinstance(node, ast.Call) and match(node):
            found.add((path.name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def _callee(call: ast.Call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _package_calls(match) -> set:
    src = pathlib.Path(bulksurf.__file__).parent
    return set().union(*(_calls(path, match) for path in sorted(src.glob("*.py"))))


def test_strings_are_evaluated_only_after_the_whitelist():
    found = _package_calls(lambda c: _callee(c) in ("eval", "exec", "sympify"))
    assert found == {("config.py", "compile_expression"),
                     ("fields.py", "sympy_expr")}


def test_config_defaults_live_only_in_default_config():
    # a two-argument .get on a config section would keep a second default;
    # the one left reads the keyword potentials of PotentialSet.from_values
    found = _package_calls(lambda c: _callee(c) == "get" and len(c.args) == 2)
    assert found == {("model.py", "PotentialSet")}


def _attributes_read(tree) -> set:
    """Attribute names a module reads, and the names its getattr calls can.

    An attribute only assigned, directly or through a subscript
    (``rep.details[k] = v``), is not read.  A string constant counts as a
    name only where getattr takes it: as getattr's literal name argument, or
    inside an all-string tuple, list or set literal (the name lists that
    getattr loops walk); a dict key or subscript like ``cfg["d"]`` reads no
    attribute.
    """
    stored_into = {id(node.value) for node in ast.walk(tree)
                   if isinstance(node, ast.Subscript)
                   and not isinstance(node.ctx, ast.Load)}
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and id(node) not in stored_into):
            used.add(node.attr)
        elif (isinstance(node, (ast.Tuple, ast.List, ast.Set)) and node.elts
              and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                      for e in node.elts)):
            used |= {e.value for e in node.elts}
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            used.add(node.args[1].value)
    return used


def _names_used(tree) -> set:
    """Every name a module reads: names, attributes and getattr names."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | _attributes_read(tree))


def _defined_and_used(defines, reads) -> tuple[set, set]:
    """What ``defines(file_name, tree)`` finds in the package modules, and
    what ``reads(tree)`` finds in the package (its re-exports aside) and in
    the acceptance criteria."""
    src = pathlib.Path(bulksurf.__file__).parent
    acceptance = pathlib.Path(__file__).with_name("test_acceptance.py")
    defined, used = set(), reads(ast.parse(acceptance.read_text()))
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= defines(path.name, tree)
        if path.name != "__init__.py":
            used |= reads(tree)
    return defined, used


def test_every_defined_name_has_a_caller():
    # a function, method, property or class that neither the package (its
    # re-exports aside) nor an acceptance criterion names is dead code;
    # dunders are called by Python itself
    defined, used = _defined_and_used(lambda file_name, tree: {
        (file_name, node.name) for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))},
        _names_used)
    assert sorted((f, n) for f, n in defined if n not in used) == []


def _attributes(file_name, tree) -> set:
    """(file, "Class.name") of each dataclass field and self.name store."""
    found = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
            found |= {(file_name, f"{cls.name}.{stmt.target.id}")
                      for stmt in cls.body if isinstance(stmt, ast.AnnAssign)}
        found |= {(file_name, f"{cls.name}.{node.attr}")
                  for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return found


def test_every_attribute_is_read():
    # a dataclass field or instance attribute that the package and the
    # acceptance criteria only ever write is dead state
    defined, used = _defined_and_used(_attributes, _attributes_read)
    unread = sorted((f, a) for f, a in defined if a.split(".")[1] not in used)
    assert unread == []


def _returned_dict_keys(file_name, tree) -> set:
    """(file, "function.key") for each string key of a dict that a function
    returns: a dict literal returned as it stands (``return {"passed": ok,
    ...}``), or a local name it returns (``return report``), with the keys
    of the dict literals bound to that name and the keys stored into it
    (``report["passed"] = ok``)."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(ast.walk(fn))
        returned = {node.value.id for node in nodes
                    if isinstance(node, ast.Return)
                    and isinstance(node.value, ast.Name)}
        keys = []
        for node in nodes:
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
                keys += node.value.keys
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Name) and target.id in returned
                            and isinstance(node.value, ast.Dict)):
                        keys += node.value.keys
                    elif (isinstance(target, ast.Subscript)
                          and isinstance(target.value, ast.Name)
                          and target.value.id in returned):
                        keys.append(target.slice)
        found |= {(file_name, f"{fn.name}.{key.value}") for key in keys
                  if isinstance(key, ast.Constant) and isinstance(key.value, str)}
    return found


def _keys_read(tree) -> set:
    """String keys a module reads: loaded subscripts such as ``out["passed"]``,
    and the strings of all-string tuple, list or set literals (the key lists
    that subscript loops walk)."""
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            used.add(node.slice.value)
        elif (isinstance(node, (ast.Tuple, ast.List, ast.Set)) and node.elts
              and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                      for e in node.elts)):
            used |= {e.value for e in node.elts}
    return used


def _written_whole(tree) -> set:
    """What a module writes whole to an output file, and what it binds to a
    function's call, as ("name", x) / ("key", x) / ("call", label, callee).

    A dict literal passed to ``finish`` or ``write_json`` writes its values
    whole: a name (``"sigma": sig``) or a keyed entry (``out["key"]``).  A
    function's dict is written whole when its call is bound to such a name
    (``sig = sigma_bounds_report(...)``) or stored under such a key in
    another dict literal.
    """
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _callee(node) in ("finish", "write_json"):
            for value in (v for arg in node.args if isinstance(arg, ast.Dict)
                          for v in arg.values):
                if isinstance(value, ast.Name):
                    found.add(("name", value.id))
                elif (isinstance(value, ast.Subscript)
                      and isinstance(value.slice, ast.Constant)):
                    found.add(("key", value.slice.value))
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            found |= {("call", ("name", t.id), _callee(node.value))
                      for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.Dict):
            found |= {("call", ("key", k.value), _callee(v))
                      for k, v in zip(node.keys, node.values)
                      if isinstance(k, ast.Constant) and isinstance(v, ast.Call)}
    return found


def test_every_returned_dict_key_is_read():
    # a key of a returned dict that neither the package nor an acceptance
    # criterion reads, in a dict that no subcommand writes whole to an
    # output file, is computed for nothing
    defined, used = _defined_and_used(_returned_dict_keys, _keys_read)
    _, bound = _defined_and_used(lambda file_name, tree: set(), _written_whole)
    written = {item[2] for item in bound
               if item[0] == "call" and item[1] in bound}
    # the summary blocks "sigma" of carleman-verify, "matrix_check" of positivity
    assert {"sigma_bounds_report", "implicit_offdiagonal_report"} <= written
    unread = sorted((f, k) for f, k in defined
                    if k.split(".")[1] not in used
                    and k.split(".")[0] not in written)
    assert unread == []
