"""One-dimensional C1-P2 macro-spline machinery.

A quadratic C1 spline with a single interior knot solves the two-point
Hermite problem s(a)=u(a), s'(a)=u'(a), s(b)=u(b), s'(b)=u'(b) that a
plain quadratic cannot.  This module provides the reference basis on
[-1,1] with knot 0, divided differences with repeated knots, the Newton
and Lagrange assemblies of the interpolating spline, the scaled world
basis functions with compact support, and the dual weighting functions
used by the quasi-interpolation operator.  It is the home of the one
polynomial kernel, ``_derivative_basis`` (monomial derivatives at points):
every 1-D evaluator applies it to coefficients in a reference variable,
and ``interpolation`` and ``norms`` apply it along each axis of a cell.
Points outside an interval, NaN points, degenerate, reversed or
non-finite edges and unknown sides raise ``ValueError``.
"""

from __future__ import annotations

import functools
import numbers
from typing import Sequence

import numpy as np

from ._record import record
from .quadrature import gauss_rule, integrate

__all__ = [
    "KnotSequence",
    "HermiteData1D",
    "MacroSpline1D",
    "DualWeight",
    "eval_ref_basis",
    "divided_difference",
    "hermite_divided_differences",
    "hermite_interpolate_1d",
    "eval_world_basis",
    "eval_dual_weight",
    "integrate_dual_weight",
    "edge_spline_basis",
    "edge_hat_basis",
    "edge_theta",
]


@functools.lru_cache(maxsize=None)
def _falling_powers(n, a):
    """k!/(k-a)! (0 for k < a) and the exponents max(k - a, 0), k < n: the a-th derivatives of t^k; read-only, as every caller shares them.

    The one order check of every derivative basis: an ``a`` that is not a non-negative integer raises ``ValueError``.
    """
    if a < 0 or a % 1:
        raise ValueError("order must be a non-negative integer")
    k = np.arange(n)
    falling, powers = np.prod(k[None, :] - np.arange(a)[:, None], axis=0), np.maximum(k - a, 0)
    falling.flags.writeable = powers.flags.writeable = False
    return falling, powers


def _derivative_basis(loc, n, a):
    """(len(loc), n) matrix of the a-th derivatives of the monomials t^k, k < n, at ``loc``."""
    falling, powers = _falling_powers(n, a)
    return falling * loc[:, None] ** powers


def _checked(x, lo, hi, what):
    """``x`` as a float array; a point outside [lo, hi], or NaN, raises ``ValueError``."""
    x = np.asarray(x, dtype=float)
    if x.size and not (lo <= x.min() and x.max() <= hi):
        raise ValueError(f"{what} outside [{lo}, {hi}]")
    return x


# ---------------------------------------------------------------------------
# Reference basis on [-1, 1] with knot at 0.
#
# Monomial coefficients (c0, c1, c2) in the reference variable, indexed
# [piece, row]: piece 0 is [-1, 0], piece 1 is [0, 1].
# ---------------------------------------------------------------------------

# The Hermite row order: value and slope function of the left end, then of the right end.
_HERMITE_ROWS = ("phi_minus", "psi_minus", "phi_plus", "psi_plus")
REF_PIECES = np.array(
    [
        [[0.5, -1.0, -0.5], [0.25, -0.5, -0.75], [0.5, 1.0, 0.5], [-0.25, -0.5, -0.25]],
        [[0.5, -1.0, 0.5], [0.25, -0.5, 0.25], [0.5, 1.0, -0.5], [-0.25, -0.5, 0.75]],
    ]
)

# Newton basis 1, (x+1), (x+1)^2, 4*psi_plus used by the Newtonian assembly.
NEWTON_PIECES = np.array(
    [
        [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [-1.0, -2.0, -1.0]],
        [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [-1.0, -2.0, 3.0]],
    ]
)

# Quadratic Lagrange basis on nodes -1, 0, 1 (one row per node, a single polynomial).
LAGRANGE3 = np.array([[0.0, -0.5, 0.5], [1.0, 0.0, -1.0], [0.0, 0.5, 0.5]])

# Piece p of the macro is element p, with local xi in [-1, 1] and x = (xi -+ 1)/2;
# row k of _HALVES[p] holds the xi-coefficients of x^k.  Every entry is dyadic, so
# the element tables below are exact.
_HALVES = np.array([[[1.0, 0.0, 0.0], [-0.5, 0.5, 0.0], [0.25, -0.5, 0.25]], [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.25, 0.5, 0.25]]])
_HERMITE_LOCAL = REF_PIECES @ _HALVES  # [element, Hermite row, xi power], used by the 2D assembly routines
_NEWTON_LOCAL = NEWTON_PIECES @ _HALVES


def _eval_pieces(pieces, t, order, side):
    """The order-th t-derivative of the two-piece quadratic ``pieces`` (left of t = 0, right of it) at ``t``.

    ``side`` picks the limit taken at t = 0; another value, or an order
    that is not a non-negative integer (``_falling_powers``), raises
    ``ValueError``.
    """
    if side not in ("left_limit", "right_limit"):
        raise ValueError("side must be 'left_limit' or 'right_limit'")
    basis = _derivative_basis(t.reshape(-1), 3, order)
    use_left = (t < 0.0) | ((t == 0.0) & (side == "left_limit"))
    vals = np.where(use_left.reshape(-1), basis @ pieces[0], basis @ pieces[1]).reshape(t.shape)
    return vals if vals.ndim else float(vals)


def eval_ref_basis(kind: str, order: int, x, side: str = "right_limit"):
    """Evaluate a reference basis function or one of its derivatives.

    ``kind`` is one of phi_minus, phi_plus, psi_minus, psi_plus; ``order``
    is at most 2.  The second derivative jumps at the knot x=0, where
    ``side`` selects the limit taken (default right).
    """
    if kind not in _HERMITE_ROWS:
        raise ValueError(f"unknown basis kind {kind!r}")
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    x = _checked(x, -1.0, 1.0, "reference coordinate")
    return _eval_pieces(REF_PIECES[:, _HERMITE_ROWS.index(kind)], x, order, side)


# ---------------------------------------------------------------------------
# Divided differences with possibly repeated knots.
# ---------------------------------------------------------------------------


@record
class KnotSequence:
    """Sorted knots with multiplicities, e.g. ((-1, 2), (1, 2))."""

    nodes: tuple

    def __post_init__(self):
        positions = [p for p, _ in self.nodes]
        mults = [m for _, m in self.nodes]
        if len(positions) == 0:
            raise ValueError("empty knot sequence")
        if not all(np.isfinite(p) for p in positions):
            raise ValueError("knot positions must be finite")
        if any(positions[i] >= positions[i + 1] for i in range(len(positions) - 1)):
            raise ValueError("knot positions must be strictly increasing")
        if not all(isinstance(m, numbers.Integral) and 1 <= m <= 4 for m in mults):
            raise ValueError("multiplicities must be integers in 1..4")

    def expanded(self):
        return [p for p, m in self.nodes for _ in range(m)]


def divided_difference(knots: KnotSequence, values_and_derivs: Sequence[Sequence[float]]) -> float:
    """Divided difference u[x0,...,xN] from node data.

    ``values_and_derivs[k]`` holds u(x_k), u'(x_k), ... up to order
    multiplicity-1 for the k-th distinct knot.  Coincident-knot entries of
    the recursion are filled with u^(j)(x)/j!.
    """
    if len(values_and_derivs) != len(knots.nodes):
        raise ValueError("one data list per distinct knot required")
    for (_, m), data in zip(knots.nodes, values_and_derivs):
        if len(data) != m:
            raise ValueError("derivative count must equal knot multiplicity")
    z, deriv = [], []
    for (p, m), data in zip(knots.nodes, values_and_derivs):
        for _ in range(m):
            z.append(p)
            deriv.append(list(data))
    n = len(z)
    fact = 1.0
    table = [np.array([d[0] for d in deriv], dtype=float)]
    for j in range(1, n):
        fact *= j
        prev = table[j - 1]
        col = np.empty(n - j)
        for i in range(n - j):
            if z[i + j] == z[i]:
                col[i] = deriv[i][j] / fact
            else:
                col[i] = (prev[i + 1] - prev[i]) / (z[i + j] - z[i])
        table.append(col)
    return float(table[n - 1][0])


# ---------------------------------------------------------------------------
# Hermite interpolation by the two-piece quadratic spline.
# ---------------------------------------------------------------------------


@record
class HermiteData1D:
    """HermiteData1D(value_left: float, deriv_left: float, value_right: float, deriv_right: float)"""

    value_left: float
    deriv_left: float
    value_right: float
    deriv_right: float

    def __post_init__(self):
        vals = (self.value_left, self.deriv_left, self.value_right, self.deriv_right)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("Hermite data must be finite")


# Closed forms of the divided differences u[-1], u[-1,-1], u[-1,-1,1],
# u[-1,-1,1,1] as rows acting on (u(-1), u'(-1), u(1), u'(1)).
HERMITE_DD_MATRIX = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-0.25, -0.5, 0.25, 0.0],
        [0.25, 0.25, -0.25, 0.25],
    ]
)

# Divided differences p[-1], p[-1,0], p[-1,0,1] acting on (p(-1), p(0), p(1)).
LAGRANGE3_DD_MATRIX = np.array(
    [
        [1.0, 0.0, 0.0],
        [-1.0, 1.0, 0.0],
        [0.5, -1.0, 0.5],
    ]
)


def hermite_divided_differences(data: HermiteData1D) -> np.ndarray:
    """Newton coefficients (u[-1], u[-1,-1], u[-1,-1,1], u[-1,-1,1,1])."""
    vec = np.array([data.value_left, data.deriv_left, data.value_right, data.deriv_right])
    return HERMITE_DD_MATRIX @ vec


@record
class MacroSpline1D:
    """Two quadratic pieces on [a, knot] and [knot, b], C1 at the knot.

    Piece coefficients are monomial triples in the reference variable
    (x - knot)/w, with w = (b - a)/2 the half-width of the interval.
    """

    interval: tuple
    knot: float
    pieces: tuple

    def __call__(self, x, order: int = 0, side: str = "right_limit"):
        a, b = self.interval
        w = 0.5 * (b - a)
        t = (_checked(x, a, b, "point") - self.knot) / w
        return _eval_pieces(self.pieces, t, order, side) / w**order

    def c1_defect(self) -> float:
        """Max of the value and slope mismatches of the two pieces at the knot."""
        (left, right), (a, b) = self.pieces, self.interval
        return float(max(abs(left[0] - right[0]), abs(left[1] - right[1]) / (0.5 * (b - a))))


def hermite_interpolate_1d(data: HermiteData1D, interval=(-1.0, 1.0), assembly: str = "newton") -> MacroSpline1D:
    """Interpolate two-point Hermite data by the C1 quadratic macro-spline.

    Both the Newton assembly and the Lagrange-basis assembly are available;
    they produce the same spline and the tests pin their agreement.  Only
    the midpoint knot is supported.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError("degenerate interval")
    if assembly not in ("newton", "lagrange"):
        raise ValueError("assembly must be 'newton' or 'lagrange'")
    w = 0.5 * (b - a)
    # Reference data: uhat(xhat) = u(mid + w*xhat), so uhat' = w*u'.
    ref = HermiteData1D(data.value_left, w * data.deriv_left, data.value_right, w * data.deriv_right)
    if assembly == "newton":
        left, right = hermite_divided_differences(ref) @ NEWTON_PIECES
    else:
        left, right = np.array([ref.value_left, ref.deriv_left, ref.value_right, ref.deriv_right]) @ REF_PIECES
    return MacroSpline1D(interval=(a, b), knot=0.5 * (a + b), pieces=(left, right))


# ---------------------------------------------------------------------------
# World-domain basis functions.
# ---------------------------------------------------------------------------


def eval_world_basis(grid, node_index: int, kind: str, order: int, x):
    """Evaluate a scaled world basis function on a 1D grid.

    phi/psi are the C1 macro-spline node functions supported on
    [x_{i-2}, x_{i+2}] (truncated at the boundary); lagrange_full is the
    quadratic Lagrange function of node i over the two adjacent intervals
    with implied midpoints, and lagrange_half the interval bubble.
    Outside the support the value is exactly zero; a NaN point raises
    ``ValueError``.
    """
    xs = np.asarray(getattr(grid, "coordinates", grid), dtype=float)
    n = len(xs)
    if kind in ("phi", "psi"):
        if not 0 <= node_index < n or node_index % 2 != 0:
            raise IndexError("phi/psi node index must be an even grid index")
        plus, minus = (REF_PIECES[:, _HERMITE_ROWS.index(f"{kind}_{end}")] for end in ("plus", "minus"))
        segments = [(node_index - 2, node_index, plus), (node_index, node_index + 2, minus)]
    elif kind == "lagrange_full":
        if not 0 <= node_index < n:
            raise IndexError("node index out of range")
        segments = [(node_index - 1, node_index, LAGRANGE3[[2, 2]]), (node_index, node_index + 1, LAGRANGE3[[0, 0]])]
    elif kind == "lagrange_half":
        if not 0 <= node_index < n - 1:
            raise IndexError("interval index out of range")
        segments = [(node_index, node_index + 1, LAGRANGE3[[1, 1]])]
    else:
        raise ValueError(f"unknown world basis kind {kind!r}")
    x = _checked(x, -np.inf, np.inf, "point")
    out = np.zeros_like(x)
    # (lo, hi, piece pair) per segment of the support, a Lagrange row twice; where two meet, the later wins
    for lo, hi, pieces in segments:
        if lo < 0 or hi > n - 1:
            continue
        if kind in ("phi", "psi"):
            mid, h = xs[lo + 1], xs[lo + 1] - xs[lo]
            if abs(mid - 0.5 * (xs[lo] + xs[hi])) > 1e-12 * max(1.0, abs(xs[hi] - xs[lo])):
                raise ValueError("grid lacks the midpoint structure required for phi/psi")
        else:
            mid, h = 0.5 * (xs[lo] + xs[hi]), 0.5 * (xs[hi] - xs[lo])
        mask = (x >= xs[lo]) & (x <= xs[hi])
        t = np.clip((x[mask] - mid) / h, -1.0, 1.0)
        out[mask] = (h if kind == "psi" else 1.0) * _eval_pieces(pieces, t, order, "right_limit") / h**order
    return out if out.ndim else float(out)


def _edge(edge):
    """The ends (a, b) of a macro edge as floats; a degenerate, reversed or non-finite edge raises ``ValueError``."""
    a, b = float(edge[0]), float(edge[1])
    if not (np.isfinite(a) and np.isfinite(b) and b > a):
        raise ValueError("an edge (a, b) must be finite with b > a")
    return a, b


def _edge_coordinate(edge, x):
    """The half-length h of a macro edge and the coordinate (x - mid)/h, clipped to [-1, 1], of points on it.

    A point outside the edge, or NaN, raises ``ValueError``; the clip keeps
    an end of the edge in range where the rounded midpoint puts it an ulp out.
    """
    a, b = _edge(edge)
    h = 0.5 * (b - a)
    return h, np.clip((_checked(x, a, b, "point") - 0.5 * (a + b)) / h, -1.0, 1.0)


def _edge_node_basis(family, edge, node_side, order, x):
    """phi or psi of the edge's left or right end, restricted to the edge."""
    if node_side not in ("left", "right"):
        raise ValueError("node_side must be 'left' or 'right'")
    h, xhat = _edge_coordinate(edge, x)
    kind = f"{family}_minus" if node_side == "left" else f"{family}_plus"
    return (h if family == "psi" else 1.0) * eval_ref_basis(kind, order, xhat) / h**order


def edge_spline_basis(edge, node_side: str, order: int, x):
    """psi_i or psi_{i+1} restricted to one macro edge (node at left/right end)."""
    return _edge_node_basis("psi", edge, node_side, order, x)


def edge_hat_basis(edge, node_side: str, order: int, x):
    """phi_i or phi_{i+1} restricted to one macro edge."""
    return _edge_node_basis("phi", edge, node_side, order, x)


def edge_theta(edge, x):
    """The auxiliary even quadratic ((x-mid)/h)^2 - 1/6 on a macro edge."""
    t = _edge_coordinate(edge, x)[1]
    return t * t - 1.0 / 6.0


# ---------------------------------------------------------------------------
# Dual weighting functions on macro edges.
# ---------------------------------------------------------------------------


@record
class DualWeight:
    """Piecewise-quadratic averaging weight on a macro edge.

    ``endpoint_side`` names the node the weight is dual to: 'left' pairs
    with the slope basis function of the left edge endpoint.  The weight
    integrates to one over the edge and is bounded by C/h.
    """

    edge_interval: tuple
    endpoint_side: str

    def __post_init__(self):
        _edge(self.edge_interval)
        if self.endpoint_side not in ("left", "right"):
            raise ValueError("endpoint_side must be 'left' or 'right'")

    @property
    def half_length(self) -> float:
        a, b = self.edge_interval
        return 0.5 * (b - a)


def eval_dual_weight(weight: DualWeight, x):
    """Evaluate the dual weight at points of its edge."""
    a, b = weight.edge_interval
    x = _checked(x, a, b, "point")
    h = weight.half_length
    t = x - 0.5 * (a + b)
    if weight.endpoint_side == "right":
        t = -t
    quad = np.where(t < 0.0, -3.0 * t * t, 9.0 * t * t) / h**3
    vals = -(h * h + 12.0 * h * t) / (2.0 * h**3) + quad
    return vals if vals.ndim else float(vals)


def integrate_dual_weight(weight: DualWeight, npoints: int = 3) -> float:
    """Integrate the dual weight over its edge by per-piece Gauss rules."""
    return integrate(lambda t: eval_dual_weight(weight, t), *weight.edge_interval, gauss_rule(npoints, split=True))
