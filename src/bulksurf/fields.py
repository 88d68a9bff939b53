"""Closed-form space-time fields with exact derivatives.

Backed by sympy so that manufactured solutions, compatibility sources, and
weighted-operator decompositions can be evaluated with analytically exact
derivatives on any grid.  Expressions use symbols ``t, x1, x2`` in the bulk
and ``t, theta`` on the boundary circle.
"""

from __future__ import annotations

import numpy as np
import sympy as sp

from .config import ConfigError, check_expression

T, X1, X2, TH = sp.symbols("t x1 x2 theta", real=True)

_SYMBOLS = {"t": T, "x1": X1, "x2": X2, "theta": TH}
_SYMPY_NS = {"sin": sp.sin, "cos": sp.cos, "exp": sp.exp, "sqrt": sp.sqrt,
             "pi": sp.pi, "log": sp.log, "tanh": sp.tanh}


def sympy_expr(expr, where: str = "expression", variables=tuple(_SYMBOLS)):
    """Sympy form of ``expr``; a string must first pass ``check_expression``.

    ``variables`` limits the symbols a string may use.  The checked string
    still goes to ``sympify``, which keeps a decimal literal such as
    ``0.6000000000000001`` at its written precision.  Anything else must
    already be a number or a sympy expression: ``sympify`` would parse the
    strings inside a list or dict unchecked.
    """
    if isinstance(expr, (sp.Basic, int, float)) and not isinstance(expr, bool):
        return sp.sympify(expr)
    if not isinstance(expr, str):
        raise ConfigError(f"{where}: expected an expression string, got {expr!r}")
    names = {**_SYMPY_NS, **{v: _SYMBOLS[v] for v in variables}}
    check_expression(expr, names, where)
    return sp.sympify(expr, locals=names)


def _on_grid(out, vals) -> np.ndarray:
    """A lambdified value as a float array of its arguments' broadcast shape."""
    return np.broadcast_to(np.asarray(out, dtype=float),
                           np.broadcast_shapes(*[np.shape(v) for v in vals])).copy()


def _lambdify(args, expr):
    fn = sp.lambdify(args, expr, modules="numpy")
    return lambda *vals: _on_grid(fn(*vals), vals)


def lambdify_set(args, exprs):
    """One numpy function of ``args`` that returns every expression of
    ``exprs``; their common subexpressions are evaluated once."""
    fn = sp.lambdify(args, list(exprs), modules="numpy", cse=True)
    return lambda *vals: [_on_grid(out, vals) for out in fn(*vals)]


class SpaceTimeField:
    """Scalar field f(t, x1, x2): a sympy expression and its lambdified value.

    Callers differentiate ``expr`` symbolically where they need derivatives.
    """

    def __init__(self, expr):
        self.expr = sympy_expr(expr)
        self._value = _lambdify((T, X1, X2), self.expr)

    def value(self, t, xy):
        return self._value(t, xy[..., 0], xy[..., 1])

    def on_circle(self, R: float = 1.0) -> "CircleField":
        """Restriction to the circle of radius R, parametrized by angle."""
        sub = self.expr.subs({X1: R * sp.cos(TH), X2: R * sp.sin(TH)})
        return CircleField(sub)

    def normal_derivative_expr(self, R: float = 1.0):
        """Symbolic d_nu f on the circle of radius R, as a (t, theta) expr."""
        dn = (sp.diff(self.expr, X1) * X1 + sp.diff(self.expr, X2) * X2) / sp.sqrt(X1**2 + X2**2)
        return dn.subs({X1: R * sp.cos(TH), X2: R * sp.sin(TH)})


class CircleField:
    """Scalar field g(t, theta) on a circle, parametrized by angle."""

    def __init__(self, expr):
        self.expr = sympy_expr(expr)
        self._value = _lambdify((T, TH), self.expr)

    def value(self, t, theta):
        return self._value(t, theta)


def divergence_a_grad(a_expr, f_expr):
    """Symbolic div(a(x) grad f) for a scalar diffusivity expression."""
    a_expr = sympy_expr(a_expr)
    return (sp.diff(a_expr * sp.diff(f_expr, X1), X1)
            + sp.diff(a_expr * sp.diff(f_expr, X2), X2))


def surface_divergence_d_grad(d_theta_expr, g_expr, R: float = 1.0):
    """Symbolic div_s(d(s) d/ds g) on a circle of radius R, in theta."""
    d_theta_expr = sympy_expr(d_theta_expr)
    return sp.diff(d_theta_expr * sp.diff(g_expr, TH) / R, TH) / R
