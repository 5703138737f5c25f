"""Analytic scalar test fields with exact partial derivatives.

Every field evaluates D^(ax,ay) u(x, y) for orders up to 4 in each
variable, vectorized over numpy arrays.  This includes manufactured
boundary/corner-layer decompositions whose components copy the decay
structure of the reaction-diffusion solution split, so interpolation
experiments run on functions with closed-form derivatives instead of PDE
solves.

A separable field is its rank-one terms ``((c, fx, fy), ...)``,
u = sum c * fx(x) * fy(y), with ``f(t, order)`` a 1-D derivative
evaluator: its ``_eval`` is a ``_Terms`` object, which called returns
that sum in term order.  ``separable_field`` makes one term, ``scaled``
scales each c, and ``+`` joins the terms of two fields that both have
them.  ``ScalarField.terms`` reads ``_eval.terms``, so a field rebuilt as
``ScalarField(name, f._eval)`` keeps them.  Polynomial fields are the one
exception: their callable carries monomial terms, but pointwise values
come from ``polyval2d``.  The pointwise call and ``ScalarField.factors``
(the pair of ``ScalarField.factor`` along x and along y) evaluate each
distinct factor once per axis (``_factor_values``).  The
call folds the terms left to right in place, in one output and one
scratch array (``_fold``), bit for bit ``total + c * (vx * vy)`` term by
term; ``factors`` stacks the values on the rows and the columns of an
open grid, so the values on any block of its rows are one GEMM (sum
factorisation).  ``_LineGrids`` keeps the factor values of each (axis,
coordinate line, orders) for a run of open-grid gathers on shared lines,
and folds them into each grid as the pointwise call would.  A field
without terms (``exp_xy``, a mesh function, any plain callable) has
none, and a sum or scale with one adds or scales calls.  The layer
factors (``exp_profile``) are never subnormal: they flush such values to
exact 0 at the source, so every one of these paths sees the same values.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._record import record

__all__ = [
    "ScalarField",
    "LayerDecomposition",
    "make_polynomial_field",
    "make_smooth_field",
    "make_layer_decomposition",
    "field_registry",
    "get_field",
]

MAX_ORDER = 4
_TINY = np.finfo(float).tiny  # the smallest normal double


def _check_orders(ax, ay):
    if not (0 <= ax <= MAX_ORDER and 0 <= ay <= MAX_ORDER):
        raise ValueError("derivative orders must lie in 0..4")


@record
class ScalarField:
    """Scalar function on the plane with exact derivatives.

    Every order up to (4, 4) is supported; any other raises
    ``ValueError``, from ``__call__`` and ``factors`` alike.
    """

    name: str
    _eval: Callable

    @property
    def terms(self):
        """The rank-one terms ``((c, fx, fy), ...)`` whose sum is this field, or None."""
        return getattr(self._eval, "terms", None)

    def __call__(self, x, y, ax: int = 0, ay: int = 0):
        _check_orders(ax, ay)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = self._eval(x, y, ax, ay)
        return out if np.ndim(out) else float(out)

    def factors(self, x, y, ax: int = 0, ay: int = 0):
        """Rank-one factors ``(Fx, Fy)`` of D^(ax,ay) u on the open grid of ``x`` and ``y``, or None without terms.

        ``x`` and ``y`` are 1-D; Fx is ``factor(0, x, ax)`` and Fy
        ``factor(1, y, ay)``.  The values at (x[i], y[j]) are the matrix
        ``Fy.T @ Fx``, rows along y; for one term with c = 1 it equals a
        pointwise call in value, but may hold +0.0 where the pointwise
        product is -0.0.
        """
        _check_orders(ax, ay)
        return None if self.terms is None else (self.factor(0, x, ax), self.factor(1, y, ay))

    def factor(self, axis: int, t, order: int = 0):
        """The rank-one factors along ``axis`` (0 for x, 1 for y) at the 1-D ``t``, or None without terms.

        Row k of the (K, len(t)) result is c * D^order fx(t) along x and
        D^order fy(t) along y for the k-th term (c, fx, fy), and each
        distinct factor is evaluated once.  A caller that needs the x
        factors of several y orders evaluates them once this way.
        """
        _check_orders(order, 0)
        terms = self.terms
        if terms is None:
            return None
        t = np.asarray(t, dtype=float)
        values = _factor_values((term[1 + axis] for term in terms), t, order)
        F = np.empty((len(terms), t.size))
        for k, term in enumerate(terms):
            np.multiply(term[0] if axis == 0 else 1.0, values[term[1 + axis]], out=F[k])
        F[np.abs(F) < _TINY] = 0.0  # flushed as exp_profile is: a |c| < 1 takes values just above tiny below it
        return F

    def __add__(self, other: "ScalarField") -> "ScalarField":
        if self.terms is not None and other.terms is not None:
            return ScalarField(f"{self.name}+{other.name}", _Terms(self.terms + other.terms))

        def ev(x, y, ax, ay):
            return self._eval(x, y, ax, ay) + other._eval(x, y, ax, ay)

        return ScalarField(f"{self.name}+{other.name}", ev)

    def scaled(self, c: float) -> "ScalarField":
        if self.terms is not None:
            return ScalarField(f"{c}*{self.name}", _Terms((c * k, fx, fy) for k, fx, fy in self.terms))

        def ev(x, y, ax, ay):
            return c * self._eval(x, y, ax, ay)

        return ScalarField(f"{c}*{self.name}", ev)


def _factor_values(factors, t, order):
    """``{f: D^order f(t)}`` for the distinct 1-D factors among ``factors``, each evaluated once, in the shape of ``t``."""
    shape = np.shape(t)
    values = {}
    for f in factors:
        if f not in values:
            v = f(t, order)
            values[f] = v if np.shape(v) == shape else np.broadcast_to(v, shape)
    return values


def _fold(terms, x_values, y_values, shape):
    """The left fold of c * (fx * fy) over ``terms`` as one new array of ``shape``.

    ``x_values[fx]`` and ``y_values[fy]`` are factor values that broadcast
    to ``shape``.  Each term is written into one scratch array and added in
    place, with the ufuncs of ``total + c * (vx * vy)`` in the same order,
    so the result equals that sum bit for bit; the multiply by c is skipped
    when c is 1.0, where it is exact.
    """
    total = np.empty(shape) if terms else np.zeros(shape)
    scratch = np.empty(shape) if len(terms) > 1 else None
    for k, (c, fx, fy) in enumerate(terms):
        term = scratch if k else total
        np.multiply(x_values[fx], y_values[fy], out=term)
        if c != 1.0:
            np.multiply(c, term, out=term)
        if k:
            np.add(total, term, out=total)
    return total


class _Terms:
    """The ``_eval`` of a field with rank-one terms: called, the in-place left fold (``_fold``) of c * (fx(x) * fy(y)) over ``terms``."""

    def __init__(self, terms):
        self.terms = tuple(terms)

    def __call__(self, x, y, ax, ay):
        x_values = _factor_values((fx for _, fx, _ in self.terms), x, ax)
        y_values = _factor_values((fy for _, _, fy in self.terms), y, ay)
        return _fold(self.terms, x_values, y_values, np.broadcast_shapes(np.shape(x), np.shape(y)))


class _LineGrids:
    """A field on open grids of 1-D coordinate lines, for gathers that share lines.

    ``grid(x, y, x_orders, y_orders)[a, b]`` is D^(x_orders[a], y_orders[b])
    u at (x[i], y[j]), bit for bit the pointwise call on ``x[:, None]`` and
    ``y[None, :]``.  If the field's ``_eval`` is a ``_Terms``, each distinct
    factor is evaluated once per (axis, line, orders), a line being one
    array object, kept as long as this object, and all orders of a grid
    are one ``_fold`` of those values; any other field makes one pointwise
    call per order pair.  Called, it is the pointwise field, and
    ``transposed()`` is (x, y) -> u(y, x) on the same stored values.
    """

    def __init__(self, field, swapped=False, tables=None):
        self.field, self.swapped = field, swapped
        eval_ = getattr(field, "_eval", None)
        self.terms = eval_.terms if isinstance(eval_, _Terms) else None
        self.tables = {} if tables is None else tables  # (axis, id(line), orders) -> (line, factor values)

    def transposed(self) -> "_LineGrids":
        return _LineGrids(self.field, not self.swapped, self.tables)

    def __call__(self, x, y, ax=0, ay=0):
        return self.field(y, x, ay, ax) if self.swapped else self.field(x, y, ax, ay)

    def grid(self, x, y, x_orders, y_orders):
        if self.terms is None:
            shape = (len(x), len(y))
            return np.array([[np.broadcast_to(self(x[:, None], y[None, :], a, b), shape) for b in y_orders] for a in x_orders])
        if self.swapped:
            return self._fold(y, x, y_orders, x_orders).transpose(1, 0, 3, 2)
        return self._fold(x, y, x_orders, y_orders)

    def _fold(self, x, y, x_orders, y_orders):
        shape = (len(x_orders), len(y_orders), len(x), len(y))
        return _fold(self.terms, self._factor_values(0, x, x_orders), self._factor_values(1, y, y_orders), shape)

    def _factor_values(self, axis, line, orders):
        """The factors along ``axis`` at ``line``, stacked over ``orders`` in the layout of ``grid``, evaluated on first use."""
        key = (axis, id(line), tuple(orders))
        if key not in self.tables:
            per_order = [_factor_values((term[1 + axis] for term in self.terms), line, order) for order in orders]
            shape = (-1, 1, len(line), 1) if axis == 0 else (1, -1, 1, len(line))
            self.tables[key] = line, {f: np.stack([v[f] for v in per_order]).reshape(shape) for f in per_order[0]}
        return self.tables[key][1]


def _monomial(k: int):
    """t -> t^k with derivatives k!/(k-order)! t^(k-order), zero for order > k."""

    def f(t, order):
        t = np.asarray(t, dtype=float)
        if order > k:
            return np.zeros_like(t)
        return math.perm(k, order) * t ** (k - order)

    return f


def make_polynomial_field(coefficients) -> ScalarField:
    """Field sum_ij c[i,j] x^i y^j with derivatives by term differentiation.

    Pointwise values come from ``polyval2d`` of the differentiated
    coefficients, made once per order pair; the terms are the nonzero
    c[i,j] x^i y^j, with one monomial factor per power shared by them.
    """
    coef = np.atleast_2d(np.asarray(coefficients, dtype=float))
    derivatives = {}  # (ax, ay) -> coefficients of D^(ax,ay), differentiated on first use

    def ev(x, y, ax, ay):
        if (ax, ay) not in derivatives:
            derivatives[ax, ay] = np.polynomial.polynomial.polyder(np.polynomial.polynomial.polyder(coef, ax, axis=0), ay, axis=1)
        return np.polynomial.polynomial.polyval2d(*np.broadcast_arrays(x, y), derivatives[ax, ay])

    monomials = [_monomial(k) for k in range(max(coef.shape))]
    ev.terms = tuple((float(c), monomials[i], monomials[j]) for (i, j), c in np.ndenumerate(coef) if c != 0.0)
    return ScalarField("poly", ev)


def separable_field(name: str, fx: Callable, fy: Callable) -> ScalarField:
    """Product field u(x,y) = fx(x) * fy(y) from 1D derivative evaluators."""
    return ScalarField(name, _Terms(((1.0, fx, fy),)))


def sin_profile(freq: float = math.pi, shift: float = 0.0):
    def f(t, order):
        return freq**order * np.sin(freq * np.asarray(t, dtype=float) + shift + order * math.pi / 2.0)

    return f


def exp_profile(rate: float):
    """t -> exp(rate * t) with derivatives rate^k exp(rate t), flushed to 0 below the smallest normal double.

    A value whose magnitude is below ``np.finfo(float).tiny`` is returned
    as exact 0: it moves by less than 2.3e-308, and no subnormal operand
    reaches a product (x86 takes a microcode assist on each one, which
    made the norm pass's GEMMs twice as slow on layer fields).  Every
    caller of the profile sees the flushed values.
    """

    def f(t, order):
        v = rate**order * np.exp(rate * np.asarray(t, dtype=float))
        return np.where(np.abs(v) < _TINY, 0.0, v)

    return f


def runge_profile(a: float = 4.0, center: float = 0.5):
    """t -> 1/(1 + a (t-c)^2), derivatives up to order 4 in closed form."""

    def f(t, order):
        s = np.asarray(t, dtype=float) - center
        g = 1.0 + a * s * s
        if order == 0:
            return 1.0 / g
        if order == 1:
            return -2.0 * a * s / g**2
        if order == 2:
            return (8.0 * a * a * s * s - 2.0 * a * g) / g**3
        if order == 3:
            return (24.0 * a * a * s * g - 48.0 * a**3 * s**3) / g**4
        if order == 4:
            return 24.0 * a * a / g**3 - 288.0 * a**3 * s * s / g**4 + 384.0 * a**4 * s**4 / g**5
        raise ValueError("order must lie in 0..4")

    return f


def _exp_xy(x, y, ax, ay):
    # D^(ax,ay) e^{xy} = e^{xy} * sum_k C(ax,k) ay!/(ay-k)! x^{ay-k} y^{ax-k}
    total = np.zeros(np.broadcast(x, y).shape)
    for k in range(min(ax, ay) + 1):
        c = math.comb(ax, k) * math.factorial(ay) // math.factorial(ay - k)
        total = total + c * x ** (ay - k) * y ** (ax - k)
    return np.exp(x * y) * total


_SMOOTH = {
    "sin_sin": lambda: separable_field("sin_sin", sin_profile(), sin_profile()),
    "exp_xy": lambda: ScalarField("exp_xy", _exp_xy),
    "runge": lambda: separable_field("runge", runge_profile(), runge_profile()),
}


def make_smooth_field(name: str) -> ScalarField:
    if name not in _SMOOTH:
        raise ValueError(f"unknown smooth field {name!r}; choose from {sorted(_SMOOTH)}")
    return _SMOOTH[name]()


# ---------------------------------------------------------------------------
# Manufactured layer decompositions.
# ---------------------------------------------------------------------------


def _poly1d(coef):
    c = np.asarray(coef, dtype=float)
    derivatives = [np.polynomial.polynomial.polyder(c, order) for order in range(MAX_ORDER + 1)]

    def f(t, order):
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), derivatives[order])

    return f


def _reflect(profile):
    """t -> profile(1-t)."""

    def f(t, order):
        return (-1.0) ** order * profile(1.0 - np.asarray(t, dtype=float), order)

    return f


@record
class LayerDecomposition:
    """Smooth part plus four edge layers and four corner layers.

    ``total`` is their sum; the components decay away from their edge or
    corner at rate c_star/sqrt(epsilon), matching the shape of the
    reaction-diffusion solution split.
    """

    smooth: ScalarField
    edge_layers: tuple
    corner_layers: tuple
    epsilon: float
    c_star: float
    edge_amplitude: float = 1.0

    @property
    def total(self) -> ScalarField:
        parts = list(self.components().values())
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        return ScalarField("layer_total", total._eval)

    def components(self):
        names = ("S", "E1", "E2", "E3", "E4", "E12", "E23", "E34", "E41")
        return dict(zip(names, (self.smooth,) + self.edge_layers + self.corner_layers))


def make_layer_decomposition(
    epsilon: float,
    c_star: float = 1.0,
    smooth: str = "default",
    edge_amplitude: float = 1.0,
    smooth_amplitude: float = 1.0,
) -> LayerDecomposition:
    """Manufactured decomposition with exact derivatives.

    ``smooth`` selects the regular part: "default" is the biquadratic
    x(1-x)y(1-y)+1, "bounded_third" a trigonometric part with
    epsilon-independent third derivatives, and "eps_growth" adds an
    oscillatory term whose k-th derivatives grow like eps^{1-k/2}.
    The decomposition bounds fix no concrete constants, so the relative
    weight of the smooth part and the layers is configurable.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    rate = c_star / math.sqrt(epsilon)

    bubble = _poly1d([0.0, 1.0, -1.0])  # t(1-t)
    if smooth == "default":
        S = separable_field("S", bubble, bubble) + make_polynomial_field([[1.0]])
    elif smooth == "bounded_third":
        S = separable_field("S", sin_profile(), sin_profile()) + make_polynomial_field([[1.0]])
    elif smooth == "eps_growth":
        osc = separable_field("osc", sin_profile(freq=1.0 / math.sqrt(epsilon)), sin_profile(freq=1.0 / math.sqrt(epsilon)))
        S = separable_field("S", bubble, bubble) + make_polynomial_field([[1.0]]) + osc.scaled(epsilon)
    else:
        raise ValueError("smooth must be 'default', 'bounded_third' or 'eps_growth'")
    if smooth_amplitude != 1.0:
        S = S.scaled(smooth_amplitude)

    g = _poly1d([1.0, 1.0, -1.0])  # smooth edge modulation 1 + t(1-t)
    amp = edge_amplitude
    decay0 = exp_profile(-rate)  # exp(-rate*t), layer at t=0
    decay1 = _reflect(decay0)  # exp(-rate*(1-t)), layer at t=1

    edge_layers = (
        separable_field("E1", g, decay0).scaled(amp),  # layer along y=0
        separable_field("E2", decay0, g).scaled(amp),  # layer along x=0
        separable_field("E3", g, decay1).scaled(amp),  # layer along y=1
        separable_field("E4", decay1, g).scaled(amp),  # layer along x=1
    )
    corner_layers = (
        separable_field("E12", decay0, decay0).scaled(amp),  # corner (0,0)
        separable_field("E23", decay0, decay1).scaled(amp),  # corner (0,1)
        separable_field("E34", decay1, decay1).scaled(amp),  # corner (1,1)
        separable_field("E41", decay1, decay0).scaled(amp),  # corner (1,0)
    )
    return LayerDecomposition(S, edge_layers, corner_layers, epsilon, c_star, amp)


# ---------------------------------------------------------------------------
# Registry for the CLI.
# ---------------------------------------------------------------------------


def field_registry() -> dict:
    return {
        **_SMOOTH,
        "sin_plus_sin": lambda: separable_field("sx", sin_profile(), _monomial(0))
        + separable_field("sy", _monomial(0), sin_profile()),
        "xy": lambda: make_polynomial_field([[0.0, 0.0], [0.0, 1.0]]),
        "x3y3": lambda: make_polynomial_field([[0.0] * 4, [0.0] * 4, [0.0] * 4, [0.0, 0.0, 0.0, 1.0]]),
        "q2_random": lambda: make_polynomial_field(np.random.default_rng(0).normal(size=(3, 3))),
    }


def get_field(name: str) -> ScalarField:
    reg = field_registry()
    if name not in reg:
        raise ValueError(f"unknown field {name!r}; choose from {sorted(reg)}")
    return reg[name]()
