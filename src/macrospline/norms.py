"""Quadrature-based error norms over element meshes.

Norms of a difference field (analytic field minus interpolant) are
computed by tensor Gauss rules from ``quadrature``, per element, and
accumulated pairwise in a fixed element order, so a result depends
only on its inputs.  ``_seminorms`` gathers the elements' coefficients
and their quadrature points, on the open grid of their distinct columns
and rows (``_element_points``), once for all derivative orders.  Per
order, the field values come from one ``field.grid(X, Y, ax, ay)`` call
on that grid, and every cell polynomial is evaluated by one GEMM with
the derivative basis of ``interpolation`` (``_difference``).  Broken
second-order seminorms never integrate across element interfaces, where
the interpolant's second derivatives jump.  Edge norms evaluate the
interpolant at the Gauss points of all edges at once.  A jump sum takes
no field, as a smooth field's normal derivative cancels from a jump,
and locates no point: it reads each edge's two cells off the grid and
applies the same basis to their coefficients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .interpolation import _derivative_basis
from .mesh import EdgeSet
from .quadrature import QuadratureRule, gauss_rule

__all__ = [
    "QuadratureRule",
    "gauss_rule",
    "seminorm",
    "edge_l2",
    "jump_norm_sum",
    "linf_sampled",
    "NormReport",
    "compute_norm_report",
]

FIRST_ORDER = ((1, 0), (0, 1))
SECOND_ORDER = ((2, 0), (1, 1), (0, 2))
ORDERS = ((0, 0),) + FIRST_ORDER + SECOND_ORDER  # L2, then H1 and broken H2 seminorm parts


def _pairwise_sum(values) -> float:
    """Tree reduction with a fixed association order.

    Each round adds neighbours, ``v[0] + v[1]``, ``v[2] + v[3]``, ..., and
    carries an odd last value to the next round.
    """
    v = np.asarray(values, dtype=float) if isinstance(values, np.ndarray) else np.fromiter(values, dtype=float)
    if not v.size:
        return 0.0
    while v.size > 1:
        pairs = v[0:-1:2] + v[1::2]
        v = np.append(pairs, v[-1]) if v.size % 2 else pairs
    return float(v[0])


def _element_indices(poly, region):
    """Index arrays (ix, jy) of ``region`` in (jy, ix) order; the whole mesh for None.

    Raises ValueError when ``poly`` is None, or names the first element
    of ``region`` that lies outside the mesh, or else the first that
    repeats an earlier one.
    """
    if poly is None:
        raise ValueError("an interpolant is required to define the element mesh")
    nx, ny = len(poly.grid_x) - 1, len(poly.grid_y) - 1
    if region is None:
        return np.tile(np.arange(nx), ny), np.repeat(np.arange(ny), nx)
    elements = np.asarray(region if isinstance(region, np.ndarray) else list(region), dtype=int).reshape(-1, 2)
    outside = np.flatnonzero((elements < 0).any(axis=1) | (elements[:, 0] >= nx) | (elements[:, 1] >= ny))
    if outside.size:
        raise ValueError(f"element {tuple(elements[outside[0]].tolist())} lies outside the {nx}x{ny} element mesh")
    key = elements[:, 1] * nx + elements[:, 0]
    first = np.unique(key, return_index=True)[1]
    if first.size < key.size:
        repeated = np.setdiff1d(np.arange(key.size), first)[0]
        raise ValueError(f"element {tuple(elements[repeated].tolist())} appears more than once in the region")
    order = np.argsort(key)
    return elements[order, 0], elements[order, 1]


def _element_points(poly, ix, jy, loc):
    """``(wx, wy, X, Y, cells, coef)``: the points ``loc`` on the open grid of the elements.

    ``X`` (nux, len(loc)) and ``Y`` (nuy, len(loc)) are the world
    coordinates of ``loc`` on the distinct element columns and rows, in
    increasing order; ``wx``, ``wy`` are the widths of each element.
    ``cells``, a pair of index arrays (rows, columns), picks each
    element, in (jy, ix) order, from the nuy x nux cells of that grid,
    and is None when the elements are the whole grid, whose C order is
    already (jy, ix).  ``coef`` (E, kx, ky) holds the elements' local
    coefficients, gathered once for every derivative order.
    """
    gx, gy = poly.grid_x, poly.grid_y
    ux, cx = np.unique(ix, return_inverse=True)
    uy, cy = np.unique(jy, return_inverse=True)
    X = (0.5 * (gx[ux] + gx[ux + 1]))[:, None] + (0.5 * (gx[ux + 1] - gx[ux]))[:, None] * loc[None, :]
    Y = (0.5 * (gy[uy] + gy[uy + 1]))[:, None] + (0.5 * (gy[uy + 1] - gy[uy]))[:, None] * loc[None, :]
    cells = None if ix.size == ux.size * uy.size else (cy, cx)
    return gx[ix + 1] - gx[ix], gy[jy + 1] - gy[jy], X, Y, cells, poly.coef[jy, ix]


def _difference(field, points, loc, alpha):
    """D^alpha (field - poly) at ``points`` of ``_element_points``; ``field`` may be None.

    The field values come from one ``field.grid(X, Y, ax, ay)`` call on
    the open grid, shape (nuy, nux, p, p), p = len(loc); a region that is
    not a block takes its cells from that grid by index.  The cell
    polynomials are evaluated at all tensor points as one GEMM,
    ``coef.reshape(E, -1) @ kron(D^ax P, D^ay Q).T``, where ``D^a P``
    holds the a-th derivatives of the local monomials at ``loc``, so no
    coefficient is differentiated; the difference is formed in that
    GEMM's buffer.  Returns an array of shape (E, p, p).
    """
    wx, wy, X, Y, cells, coef = points
    p = len(loc)
    basis = np.kron(_derivative_basis(loc, coef.shape[1], alpha[0]), _derivative_basis(loc, coef.shape[2], alpha[1]))
    vals = (coef.reshape(len(coef), -1) @ basis.T).reshape(len(coef), p, p)
    vals *= ((2.0 / wx) ** alpha[0] * (2.0 / wy) ** alpha[1])[:, None, None]
    if field is None:
        return np.negative(vals, out=vals)
    f = field.grid(X, Y, alpha[0], alpha[1])
    if cells is not None:
        f = f[cells]
    out = vals if cells is not None else vals.reshape(len(Y), len(X), p, p)
    np.subtract(f, out, out=out)
    return vals


def _seminorms(field, interp, alphas, region=None, rule: QuadratureRule | None = None) -> list:
    """``seminorm`` for each multi-index in ``alphas``, in one pass.

    The element indices, quadrature points, coefficients and Jacobians
    are built once; each alpha then makes the same field call and the
    same sums as a ``seminorm`` call of its own, so the values are the
    same bit for bit.
    """
    if rule is None:
        rule = gauss_rule()
    ix, jy = _element_indices(interp, region)
    if not ix.size:
        return [0.0] * len(alphas)
    points = _element_points(interp, ix, jy, rule.nodes)
    jac = 0.25 * (interp.grid_x[ix + 1] - interp.grid_x[ix]) * (interp.grid_y[jy + 1] - interp.grid_y[jy])
    weights = np.outer(rule.weights, rule.weights).ravel()

    def norm(diff):
        contributions = jac * ((diff * diff).reshape(len(jac), -1) @ weights)
        return float(np.sqrt(max(_pairwise_sum(contributions), 0.0)))

    return [norm(_difference(field, points, rule.nodes, alpha)) for alpha in alphas]


def seminorm(field, interp, alpha=(0, 0), region=None, rule: QuadratureRule | None = None) -> float:
    """L2 norm of D^alpha (field - interp) over a set of elements.

    ``region`` is an iterable of element indices (ix, jy); the whole mesh
    by default.  The field may be None, which measures the interpolant
    itself; the interpolant defines the element mesh and may not.
    """
    return _seminorms(field, interp, (alpha,), region, rule)[0]


def edge_l2(field, interp, edges: EdgeSet, rule: QuadratureRule | None = None, alpha=(0, 0), side: str = "-") -> np.ndarray:
    """Per-edge L2 norms of the difference trace, one-sided: ``side`` picks the element across each edge."""
    if rule is None:
        rule = gauss_rule()
    half = 0.5 * (np.abs(edges.x1 - edges.x0) + np.abs(edges.y1 - edges.y0))
    offset = half[:, None] * rule.nodes[None, :]
    X = np.where(edges.horizontal[:, None], (0.5 * (edges.x0 + edges.x1))[:, None] + offset, edges.x0[:, None])
    Y = np.where(edges.horizontal[:, None], edges.y0[:, None], (0.5 * (edges.y0 + edges.y1))[:, None] + offset)
    trace = np.zeros(X.shape)
    if interp is not None:
        for horizontal, sides in ((True, ("-", side)), (False, (side, "-"))):
            rows = edges.horizontal == horizontal
            trace[rows] = interp.evaluate(X[rows], Y[rows], alpha[0], alpha[1], side=sides)
    vals = -trace if field is None else np.asarray(field(X, Y, alpha[0], alpha[1]), dtype=float) - trace
    return np.sqrt(half * ((vals * vals) @ rule.weights))


def jump_norm_sum(interp, edges: EdgeSet, rule: QuadratureRule | None = None) -> float:
    """Sum over edges of the squared L2 norm of the interpolant's normal-derivative jump.

    The jump is the trace from the lower-index element minus the trace
    from the higher one, matching normals that point in the increasing
    coordinate direction.  Each edge's two cells are found by
    ``searchsorted`` of its ends on the grid, and their traces at the
    Gauss nodes come from the coefficients, ``(coef[cells] @ D^1 Q(±1))
    @ D^0 P(nodes).T`` scaled by 2/w; ``ValueError`` names any edge that
    is not an interior element edge of the grid.  The edges are summed
    in endpoint order (x0, y0, x1, y1), so the result does not depend on
    their row order; an empty set gives 0.0.
    """
    if rule is None:
        rule = gauss_rule()
    ordered = edges[np.lexsort((edges.y1, edges.x1, edges.y0, edges.x0))]
    if np.any(ordered.edge_type == "boundary"):
        raise ValueError("jump norms are defined on interior edges only")
    contributions = np.zeros(len(ordered))
    for horizontal in (True, False):
        rows = ordered.horizontal == horizontal
        e = ordered[rows]
        # an edge runs from a0 to a1 on the line b0 = b1; a vertical one is a horizontal one of the transposed grid
        along, across = (interp.grid_x, interp.grid_y) if horizontal else (interp.grid_y, interp.grid_x)
        a0, a1, b0, b1 = (e.x0, e.x1, e.y0, e.y1) if horizontal else (e.y0, e.y1, e.x0, e.x1)
        coef = interp.coef if horizontal else interp.coef.transpose(1, 0, 3, 2)
        i = np.searchsorted(along, a0).clip(max=len(along) - 2)
        j = np.searchsorted(across, b0).clip(1, len(across) - 1)
        bad = np.flatnonzero((along[i] != a0) | (along[i + 1] != a1) | (across[j] != b0) | (b1 != b0) | (j == len(across) - 1))
        if bad.size:
            k = bad[0]
            raise ValueError(f"edge ({e.x0[k]}, {e.y0[k]})-({e.x1[k]}, {e.y1[k]}) is not an interior element edge of the grid")
        tangent = _derivative_basis(rule.nodes, coef.shape[2], 0)
        lo, hi = (
            (2.0 / w)[:, None] * ((cells @ _derivative_basis(np.array([s]), coef.shape[3], 1)[0]) @ tangent.T)
            for cells, s, w in ((coef[j - 1, i], 1.0, across[j] - across[j - 1]), (coef[j, i], -1.0, across[j + 1] - across[j]))
        )
        jump = lo - hi
        contributions[rows] = 0.5 * (a1 - a0) * ((jump * jump) @ rule.weights)
    return _pairwise_sum(contributions)


def linf_sampled(field, interp, region=None, samples_per_element: int = 5) -> float:
    """Max |difference| over a deterministic tensor sample grid."""
    ix, jy = _element_indices(interp, region)
    if not ix.size:
        return 0.0
    loc = np.linspace(-1.0, 1.0, samples_per_element)
    diff = _difference(field, _element_points(interp, ix, jy, loc), loc, (0, 0))
    return float(np.max(np.abs(diff)))


# ---------------------------------------------------------------------------
# Aggregated reports.
# ---------------------------------------------------------------------------


@dataclass
class NormReport:
    """Per-region and global error norms plus typed edge-jump sums."""

    regional: dict
    global_values: dict
    jump_sums: dict = dataclass_field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "macrospline-norms/1",
                "regional": self.regional,
                "global": self.global_values,
                "jump_sums": self.jump_sums,
            },
            indent=1,
        )

    def to_csv_rows(self):
        for region in sorted(self.regional):
            for quantity in sorted(self.regional[region]):
                yield (region, quantity, self.regional[region][quantity])
        for quantity in sorted(self.global_values):
            yield ("global", quantity, self.global_values[quantity])
        for edge_type in sorted(self.jump_sums):
            yield ("edges", f"jump2_{edge_type}", self.jump_sums[edge_type])


def compute_norm_report(field, interp, mesh, edges=None, rule: QuadratureRule | None = None, samples_per_element: int = 4) -> NormReport:
    """L2, H1-semi, broken-H2-semi and sampled sup norms per subdomain."""
    regional = {}
    for region in np.unique(mesh.region):
        jy, ix = np.nonzero(mesh.region == region)
        elements = np.column_stack((ix, jy))
        l2, h1x, h1y, h2xx, h2xy, h2yy = _seminorms(field, interp, ORDERS, elements, rule)
        h1 = np.sqrt(_pairwise_sum((h1x**2, h1y**2)))
        h2 = np.sqrt(_pairwise_sum((h2xx**2, h2xy**2, h2yy**2)))
        regional[region] = {
            "L2": l2,
            "H1_semi": float(h1),
            "broken_H2_semi": float(h2),
            "Linf_sampled": linf_sampled(field, interp, elements, samples_per_element),
        }
    global_values = {
        "L2": float(np.sqrt(_pairwise_sum(v["L2"] ** 2 for v in regional.values()))),
        "H1_semi": float(np.sqrt(_pairwise_sum(v["H1_semi"] ** 2 for v in regional.values()))),
        "broken_H2_semi": float(np.sqrt(_pairwise_sum(v["broken_H2_semi"] ** 2 for v in regional.values()))),
        "Linf_sampled": max(v["Linf_sampled"] for v in regional.values()),
    }
    jump_sums = {}
    if edges is not None:
        for edge_type in ("I", "II", "III", "IV"):
            jump_sums[edge_type] = jump_norm_sum(interp, edges[edges.edge_type == edge_type], rule)
    return NormReport(regional, global_values, jump_sums)
