"""One-dimensional C1-P2 macro-spline machinery.

A quadratic C1 spline with a single interior knot solves the two-point
Hermite problem s(a)=u(a), s'(a)=u'(a), s(b)=u(b), s'(b)=u'(b) that a
plain quadratic cannot.  This module provides the reference basis on
[-1,1] with knot 0, divided differences with repeated knots, the Newton
and Lagrange assemblies of the interpolating spline, the scaled world
basis functions with compact support, and the dual weighting functions
used by the quasi-interpolation operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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

# ---------------------------------------------------------------------------
# Reference basis on [-1, 1] with knot at 0.
#
# Monomial coefficients (c0, c1, c2) in the reference variable, one triple
# per piece.  "left" is [-1, 0], "right" is [0, 1].
# ---------------------------------------------------------------------------

REF_PIECES = {
    "phi_minus": (np.array([0.5, -1.0, -0.5]), np.array([0.5, -1.0, 0.5])),
    "phi_plus": (np.array([0.5, 1.0, 0.5]), np.array([0.5, 1.0, -0.5])),
    "psi_minus": (np.array([0.25, -0.5, -0.75]), np.array([0.25, -0.5, 0.25])),
    "psi_plus": (np.array([-0.25, -0.5, -0.25]), np.array([-0.25, -0.5, 0.75])),
}

# Newton basis 1, (x+1), (x+1)^2, 4*psi_plus used by the Newtonian assembly.
NEWTON_PIECES = {
    1: (np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])),
    2: (np.array([1.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0])),
    3: (np.array([1.0, 2.0, 1.0]), np.array([1.0, 2.0, 1.0])),
    4: (np.array([-1.0, -2.0, -1.0]), np.array([-1.0, -2.0, 3.0])),
}

# Quadratic Lagrange basis on nodes -1, 0, 1 (single polynomial, no pieces).
LAGRANGE3 = {
    -1: np.array([0.0, -0.5, 0.5]),
    0: np.array([1.0, 0.0, -1.0]),
    1: np.array([0.0, 0.5, 0.5]),
}


def _poly_eval(coef, x, order):
    return np.polynomial.polynomial.polyval(x, np.polynomial.polynomial.polyder(coef, order))


def _rebase(coef, scale, shift):
    """Coefficients of p(scale*t + shift) given those of p(x)."""
    p = np.polynomial.Polynomial(coef)
    q = p(np.polynomial.Polynomial([shift, scale]))
    out = np.zeros(len(coef))
    out[: len(q.coef)] = q.coef
    return out


def _local_pieces(pieces):
    """Re-express macro-piece coefficients in element-local xi in [-1,1]."""
    left, right = pieces
    return _rebase(left, 0.5, -0.5), _rebase(right, 0.5, 0.5)


# Per-piece coefficients in the local coordinate of the owning element,
# used by the 2D assembly routines.
REF_LOCAL = {k: _local_pieces(v) for k, v in REF_PIECES.items()}
NEWTON_LOCAL = {k: _local_pieces(v) for k, v in NEWTON_PIECES.items()}


def eval_ref_basis(kind: str, order: int, x, side: str = "right_limit"):
    """Evaluate a reference basis function or one of its derivatives.

    ``kind`` is one of phi_minus, phi_plus, psi_minus, psi_plus; ``order``
    is at most 2.  The second derivative jumps at the knot x=0, where
    ``side`` selects the limit taken (default right).
    """
    if kind not in REF_PIECES:
        raise ValueError(f"unknown basis kind {kind!r}")
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    if side not in ("left_limit", "right_limit"):
        raise ValueError("side must be 'left_limit' or 'right_limit'")
    x = np.asarray(x, dtype=float)
    if np.any(x < -1.0) or np.any(x > 1.0):
        raise ValueError("reference coordinate outside [-1, 1]")
    left, right = REF_PIECES[kind]
    use_left = (x < 0.0) | ((x == 0.0) & (side == "left_limit"))
    vals = np.where(use_left, _poly_eval(left, x, order), _poly_eval(right, x, order))
    return vals if vals.ndim else float(vals)


# ---------------------------------------------------------------------------
# Divided differences with possibly repeated knots.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnotSequence:
    """Sorted knots with multiplicities, e.g. ((-1, 2), (1, 2))."""

    nodes: tuple

    def __post_init__(self):
        positions = [p for p, _ in self.nodes]
        mults = [m for _, m in self.nodes]
        if len(positions) == 0:
            raise ValueError("empty knot sequence")
        if any(positions[i] >= positions[i + 1] for i in range(len(positions) - 1)):
            raise ValueError("knot positions must be strictly increasing")
        if any(m < 1 or m > 4 for m in mults):
            raise ValueError("multiplicities must lie in 1..4")

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


@dataclass(frozen=True)
class HermiteData1D:
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


@dataclass(frozen=True)
class MacroSpline1D:
    """Two quadratic pieces on [a, knot] and [knot, b], C1 at the knot.

    Piece coefficients are monomial triples in the shifted variable
    x - xc, with xc the midpoint of the respective piece.
    """

    interval: tuple
    knot: float
    pieces: tuple

    def piece_center(self, which: int) -> float:
        a, b = self.interval
        return 0.5 * (a + self.knot) if which == 0 else 0.5 * (self.knot + b)

    def __call__(self, x, order: int = 0, side: str = "right_limit"):
        x = np.asarray(x, dtype=float)
        a, b = self.interval
        if np.any(x < a) or np.any(x > b):
            raise ValueError("point outside the spline interval")
        use_left = (x < self.knot) | ((x == self.knot) & (side == "left_limit"))
        v_left = _poly_eval(self.pieces[0], x - self.piece_center(0), order)
        v_right = _poly_eval(self.pieces[1], x - self.piece_center(1), order)
        vals = np.where(use_left, v_left, v_right)
        return vals if vals.ndim else float(vals)

    def c1_defect(self) -> float:
        """Max of the value and slope mismatches of the two pieces at the knot."""
        t0 = self.knot - self.piece_center(0)
        t1 = self.knot - self.piece_center(1)
        dv = abs(_poly_eval(self.pieces[0], t0, 0) - _poly_eval(self.pieces[1], t1, 0))
        dd = abs(_poly_eval(self.pieces[0], t0, 1) - _poly_eval(self.pieces[1], t1, 1))
        return float(max(dv, dd))


def _spline_from_ref_pieces(ref_left, ref_right, a, b):
    """Build a MacroSpline1D from reference-piece coefficients on [-1,1]."""
    w = 0.5 * (b - a)
    knot = 0.5 * (a + b)
    out = []
    for coef, (lo, hi) in ((ref_left, (a, knot)), (ref_right, (knot, b))):
        xc = 0.5 * (lo + hi)
        # x = knot + w*xhat, piece center xc = knot + w*xhat_c
        xhat_c = (xc - knot) / w
        shifted = _rebase(coef, 1.0 / w, xhat_c)
        out.append(shifted)
    return MacroSpline1D(interval=(a, b), knot=knot, pieces=(out[0], out[1]))


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
        dd = hermite_divided_differences(ref)
        left = sum(dd[k] * NEWTON_PIECES[k + 1][0] for k in range(4))
        right = sum(dd[k] * NEWTON_PIECES[k + 1][1] for k in range(4))
    else:
        weights = {
            "phi_minus": ref.value_left,
            "psi_minus": ref.deriv_left,
            "phi_plus": ref.value_right,
            "psi_plus": ref.deriv_right,
        }
        left = sum(c * REF_PIECES[k][0] for k, c in weights.items())
        right = sum(c * REF_PIECES[k][1] for k, c in weights.items())
    return _spline_from_ref_pieces(left, right, a, b)


# ---------------------------------------------------------------------------
# World-domain basis functions.
# ---------------------------------------------------------------------------


def _coords(grid) -> np.ndarray:
    return np.asarray(getattr(grid, "coordinates", grid), dtype=float)


def _check_midpoint(xs, lo, mid, hi):
    if abs(xs[mid] - 0.5 * (xs[lo] + xs[hi])) > 1e-12 * max(1.0, abs(xs[hi] - xs[lo])):
        raise ValueError("grid lacks the midpoint structure required for phi/psi")


def eval_world_basis(grid, node_index: int, kind: str, order: int, x):
    """Evaluate a scaled world basis function on a 1D grid.

    phi/psi are the C1 macro-spline node functions supported on
    [x_{i-2}, x_{i+2}] (truncated at the boundary); lagrange_full is the
    quadratic Lagrange function of node i over the two adjacent intervals
    with implied midpoints, and lagrange_half the interval bubble.
    Outside the support the value is exactly zero.
    """
    xs = _coords(grid)
    n = len(xs)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.zeros_like(x)

    if kind in ("phi", "psi"):
        if not 0 <= node_index < n or node_index % 2 != 0:
            raise IndexError("phi/psi node index must be an even grid index")
        ref = "phi" if kind == "phi" else "psi"
        for lo, hi, ref_kind in ((node_index - 2, node_index, f"{ref}_plus"), (node_index, node_index + 2, f"{ref}_minus")):
            if lo < 0 or hi > n - 1:
                continue
            _check_midpoint(xs, lo, lo + 1, hi)
            h = xs[lo + 1] - xs[lo]
            mask = (x >= xs[lo]) & (x <= xs[hi])
            if not np.any(mask):
                continue
            xhat = np.clip((x[mask] - xs[lo + 1]) / h, -1.0, 1.0)
            scale = h if kind == "psi" else 1.0
            vals = scale * eval_ref_basis(ref_kind, order, xhat) / h**order
            out[mask] = vals
    elif kind == "lagrange_full":
        if not 0 <= node_index < n:
            raise IndexError("node index out of range")
        for lo, hi, side in ((node_index - 1, node_index, 1), (node_index, node_index + 1, -1)):
            if lo < 0 or hi > n - 1:
                continue
            h = 0.5 * (xs[hi] - xs[lo])
            mask = (x >= xs[lo]) & (x <= xs[hi])
            if not np.any(mask):
                continue
            xhat = (x[mask] - 0.5 * (xs[lo] + xs[hi])) / h
            out[mask] = _poly_eval(LAGRANGE3[side], xhat, order) / h**order
    elif kind == "lagrange_half":
        if not 0 <= node_index < n - 1:
            raise IndexError("interval index out of range")
        lo, hi = node_index, node_index + 1
        h = 0.5 * (xs[hi] - xs[lo])
        mask = (x >= xs[lo]) & (x <= xs[hi])
        xhat = (x[mask] - 0.5 * (xs[lo] + xs[hi])) / h
        out[mask] = _poly_eval(LAGRANGE3[0], xhat, order) / h**order
    else:
        raise ValueError(f"unknown world basis kind {kind!r}")
    return float(out[0]) if scalar else out


def edge_spline_basis(edge, node_side: str, order: int, x):
    """psi_i or psi_{i+1} restricted to one macro edge (node at left/right end)."""
    a, b = float(edge[0]), float(edge[1])
    h = 0.5 * (b - a)
    xhat = (np.asarray(x, dtype=float) - 0.5 * (a + b)) / h
    kind = "psi_minus" if node_side == "left" else "psi_plus"
    return h * eval_ref_basis(kind, order, xhat) / h**order


def edge_hat_basis(edge, node_side: str, order: int, x):
    """phi_i or phi_{i+1} restricted to one macro edge."""
    a, b = float(edge[0]), float(edge[1])
    h = 0.5 * (b - a)
    xhat = (np.asarray(x, dtype=float) - 0.5 * (a + b)) / h
    kind = "phi_minus" if node_side == "left" else "phi_plus"
    return eval_ref_basis(kind, order, xhat) / h**order


def edge_theta(edge, x):
    """The auxiliary even quadratic ((x-mid)/h)^2 - 1/6 on a macro edge."""
    a, b = float(edge[0]), float(edge[1])
    h = 0.5 * (b - a)
    t = (np.asarray(x, dtype=float) - 0.5 * (a + b)) / h
    return t * t - 1.0 / 6.0


# ---------------------------------------------------------------------------
# Dual weighting functions on macro edges.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualWeight:
    """Piecewise-quadratic averaging weight on a macro edge.

    ``endpoint_side`` names the node the weight is dual to: 'left' pairs
    with the slope basis function of the left edge endpoint.  The weight
    integrates to one over the edge and is bounded by C/h.
    """

    edge_interval: tuple
    endpoint_side: str

    def __post_init__(self):
        a, b = self.edge_interval
        if not b > a:
            raise ValueError("degenerate edge interval")
        if self.endpoint_side not in ("left", "right"):
            raise ValueError("endpoint_side must be 'left' or 'right'")

    @property
    def half_length(self) -> float:
        a, b = self.edge_interval
        return 0.5 * (b - a)


def eval_dual_weight(weight: DualWeight, x):
    """Evaluate the dual weight at points of its edge."""
    a, b = weight.edge_interval
    x = np.asarray(x, dtype=float)
    if np.any(x < a) or np.any(x > b):
        raise ValueError("point outside the edge interval")
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
