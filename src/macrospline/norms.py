"""Quadrature-based error norms over element meshes.

Norms of a difference field (analytic field minus interpolant) are
computed by tensor Gauss rules from ``quadrature``, per element, and
accumulated pairwise in a fixed element order, so a result depends
only on its inputs.  One kernel, ``_per_cell``, serves ``seminorm``,
``_seminorms`` (every derivative order in one pass), ``linf_sampled``
and ``compute_norm_report``.  It lays the points of a set of elements
out as one matrix on the open grid of their distinct rows and columns,
rows (jy, b) along y and columns (ix, a) along x, and walks it in
blocks of whole element rows small enough to stay in the L2 cache,
into buffers made once per call.  Per block, the cell polynomials are
evaluated by sum factorisation with the derivative basis of
``interpolation`` (along y, then along x), and the field values come in
the same layout from its rank-one factors (``ScalarField.factors``, a
GEMM or an outer product) or from one call on the block's points;
each cell's weighted squares or largest value is then reduced in place.
Broken second-order seminorms never integrate across element
interfaces, where the interpolant's second derivatives jump.  Edge
norms and jump sums locate no point: they read each edge's cells off
the grid and apply the same basis to their coefficients.  A jump sum
takes no field, as a smooth field's normal derivative cancels from it.
"""

from __future__ import annotations

import json
import numbers
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
_BLOCK_VALUES = 2**16  # values of one block of the norm pass: 512 KiB, well inside L2


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


def _open_grid(poly, region):
    """``(ux, uy, cells)``: the open grid of ``region``'s elements (ix, jy); the whole mesh for None.

    ``ux`` and ``uy`` are the distinct element columns and rows, in
    increasing order.  ``cells``, a pair of index arrays (rows, columns),
    picks the elements in (jy, ix) order from the nuy x nux cells of that
    grid, and is None when they are all of its cells, whose C order is
    already (jy, ix).  Raises ValueError when ``poly`` is None, or names
    the first element of ``region`` that lies outside the mesh, or else
    the first that repeats an earlier one.
    """
    if poly is None:
        raise ValueError("an interpolant is required to define the element mesh")
    nx, ny = len(poly.grid_x) - 1, len(poly.grid_y) - 1
    if region is None:
        return np.arange(nx), np.arange(ny), None
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
    ux, cx = np.unique(elements[order, 0], return_inverse=True)
    uy, cy = np.unique(elements[order, 1], return_inverse=True)
    return ux, uy, None if key.size == ux.size * uy.size else (cy, cx)


def _per_cell(field, interp, region, loc, alphas, reduce):
    """Per multi-index in ``alphas``, ``reduce`` of D^alpha (field - interp) on each element of ``region``.

    Yields one 1-D array per alpha, one value per element in (jy, ix)
    order; the array is reused, so take what is needed before the next.
    The points are ``loc`` x ``loc`` in every cell of the region's open
    grid, laid out as one matrix: row (jy, b) at y = Y[jy, b], column
    (ix, a) at x = X[ix, a].  The grid is walked in blocks of whole
    element rows of about ``_BLOCK_VALUES`` values, into buffers made
    once per call.  In a block, the cell values come by sum
    factorisation, ``D^ay Q @ coef`` along y, scaled by (2/wy)^ay
    (2/wx)^ax, then ``@ (D^ax P).T`` along x, where ``D^a P`` holds the
    a-th derivatives of the local monomials at ``loc``.  A field with
    terms fills the block from ``field.factors`` on all rows and columns,
    made once per alpha; a field without terms is called once per block
    on its rows against all columns; None measures the interpolant.
    ``reduce(D, wx, wy)`` takes the block's differences as an
    (rows, p, columns, p) array, which it may overwrite, and the widths
    of its columns and rows, and returns (rows, columns) cell values.
    """
    ux, uy, cells = _open_grid(interp, region)
    gx, gy = interp.grid_x, interp.grid_y
    wx, wy = gx[ux + 1] - gx[ux], gy[uy + 1] - gy[uy]
    x = ((0.5 * (gx[ux] + gx[ux + 1]))[:, None] + (0.5 * wx)[:, None] * loc[None, :]).ravel()
    y = ((0.5 * (gy[uy] + gy[uy + 1]))[:, None] + (0.5 * wy)[:, None] * loc[None, :]).ravel()
    coef = interp.coef if region is None else interp.coef[np.ix_(uy, ux)]
    (nuy, nux, kx, ky), p = coef.shape, len(loc)
    rows = max(1, min(nuy, _BLOCK_VALUES // max(1, p * p * nux)))
    T = np.empty((rows, p, nux * kx))
    V = np.empty((rows * p, nux * p))
    D = np.empty_like(V)
    values = np.empty((nuy, nux))
    for ax, ay in alphas:
        Q, PT = _derivative_basis(loc, ky, ay), _derivative_basis(loc, kx, ax).T.copy()  # BLAS takes a contiguous PT 4x faster
        sx, sy = np.repeat((2.0 / wx) ** ax, kx), (2.0 / wy) ** ay
        factors = None if field is None else field.factors(x, y, ax, ay)
        if factors is not None:
            Fx, FyT = factors[0], factors[1].T.copy()
        # every BLAS call below covers one element row, so a row's values do not depend on the block size
        for j0 in range(0, nuy, rows):
            n = min(rows, nuy - j0)
            t, v, d, at = T[:n], V[: n * p], D[: n * p], slice(j0 * p, (j0 + n) * p)
            np.matmul(Q, coef[j0 : j0 + n].reshape(n, nux * kx, ky).transpose(0, 2, 1), out=t)
            if ax or ay:
                np.multiply(t, (sy[j0 : j0 + n, None] * sx)[:, None, :], out=t)
            np.matmul(t.reshape(n, p * nux, kx), PT, out=v.reshape(n, p * nux, p))
            if field is None:
                np.negative(v, out=d)
            else:
                if factors is None:
                    d[...] = field(x[None, :], y[at, None], ax, ay)
                elif len(Fx) == 1:
                    np.multiply.outer(FyT[at, 0], Fx[0], out=d)  # faster than a K = 1 GEMM, and as exact
                else:
                    np.matmul(FyT[at].reshape(n, p, -1), Fx, out=d.reshape(n, p, nux * p))
                np.subtract(d, v, out=d)
            values[j0 : j0 + n] = reduce(d.reshape(n, p, nux, p), wx, wy[j0 : j0 + n])
        yield values.ravel() if cells is None else values[cells]


def _seminorms(field, interp, alphas, region=None, rule: QuadratureRule | None = None) -> list:
    """``seminorm`` for each multi-index in ``alphas``, in one pass.

    Each cell contributes (wx wy / 4) sum_b w_b sum_a w_a D[b, a]^2,
    both sums taken in index order, and the contributions are added
    pairwise in (jy, ix) order; a ``seminorm`` call of its own makes the
    same sums, so the values are the same bit for bit.
    """
    if rule is None:
        rule = gauss_rule()
    w = rule.weights

    def weighted_squares(d, wx, wy):
        n, p, nux = d.shape[:3]
        np.multiply(d, d, out=d)
        inner = np.matmul(d.reshape(n, p * nux, p), w).reshape(n, p, nux)
        cell = inner[:, 0] * w[0]
        for b in range(1, p):
            cell += inner[:, b] * w[b]
        cell *= 0.25 * wy[:, None] * wx[None, :]
        return cell

    return [float(np.sqrt(max(_pairwise_sum(c), 0.0))) for c in _per_cell(field, interp, region, rule.nodes, alphas, weighted_squares)]


def seminorm(field, interp, alpha=(0, 0), region=None, rule: QuadratureRule | None = None) -> float:
    """L2 norm of D^alpha (field - interp) over a set of elements.

    ``region`` is an iterable of element indices (ix, jy); the whole mesh
    by default.  The field may be None, which measures the interpolant
    itself; the interpolant defines the element mesh and may not.
    """
    return _seminorms(field, interp, (alpha,), region, rule)[0]


def _edge_traces(interp, e, horizontal, nodes, alpha, interior):
    """``[lo, hi]``: D^alpha of ``interp`` at ``nodes`` on the edges ``e`` of one orientation.

    ``lo`` reads the cell below or left of each edge and ``hi`` the one
    above or right of it; on a boundary line both read the one cell there.
    An edge runs from a0 to a1 on the line b0 = b1, and a vertical one is a
    horizontal one of the transposed grid, so ``alpha`` is (along, across).
    Each edge's cells are found by ``searchsorted`` on the grid, and a
    cell's trace is ``(coef[cell] @ D^across Q(±1)) @ D^along P(nodes).T``
    scaled by (2/w)^alpha.  ``ValueError`` names the first edge that is not
    an element edge of the grid, or with ``interior`` one on the boundary.
    """
    along, across = (interp.grid_x, interp.grid_y) if horizontal else (interp.grid_y, interp.grid_x)
    a0, a1, b0, b1 = (e.x0, e.x1, e.y0, e.y1) if horizontal else (e.y0, e.y1, e.x0, e.x1)
    coef = interp.coef if horizontal else interp.coef.transpose(1, 0, 3, 2)
    i = np.searchsorted(along, a0).clip(max=len(along) - 2)
    j = np.searchsorted(across, b0).clip(max=len(across) - 1)
    bad = np.flatnonzero((along[i] != a0) | (along[i + 1] != a1) | (across[j] != b0) | (b1 != b0) | (interior & ((j == 0) | (j == len(across) - 1))))
    if bad.size:
        k = bad[0]
        raise ValueError(f"edge ({e.x0[k]}, {e.y0[k]})-({e.x1[k]}, {e.y1[k]}) is not {'an interior' if interior else 'an'} element edge of the grid")
    tangent = _derivative_basis(nodes, coef.shape[2], alpha[0])
    normal = _derivative_basis(np.array([-1.0, 1.0]), coef.shape[3], alpha[1])  # row j - cell: the line is at +1 in the cell below it
    traces = []
    for cell in (np.maximum(j - 1, 0), np.minimum(j, len(across) - 2)):
        scale = (2.0 / (across[cell + 1] - across[cell])) ** alpha[1] * (2.0 / (a1 - a0)) ** alpha[0]
        traces.append(scale[:, None] * (np.einsum("ekl,el->ek", coef[cell, i], normal[j - cell]) @ tangent.T))
    return traces


def edge_l2(field, interp, edges: EdgeSet, rule: QuadratureRule | None = None, alpha=(0, 0), side: str = "-") -> np.ndarray:
    """Per-edge L2 norms of the difference trace, one-sided: ``side`` picks the element across each edge.

    "-" reads the element below or left of an edge and "+" the one above or
    right of it; a boundary edge reads its one element either way.  The
    interpolant's trace comes from its cell coefficients, the field's from
    the Gauss points of each edge.  ``ValueError`` names the first edge that
    is not an element edge of ``interp``'s grid.
    """
    if side not in ("-", "+"):
        raise ValueError(f"side entries must be '-' or '+', not {side!r}")
    if rule is None:
        rule = gauss_rule()
    half = 0.5 * (np.abs(edges.x1 - edges.x0) + np.abs(edges.y1 - edges.y0))
    offset = half[:, None] * rule.nodes[None, :]
    X = np.where(edges.horizontal[:, None], (0.5 * (edges.x0 + edges.x1))[:, None] + offset, edges.x0[:, None])
    Y = np.where(edges.horizontal[:, None], edges.y0[:, None], (0.5 * (edges.y0 + edges.y1))[:, None] + offset)
    trace = np.zeros(X.shape)
    if interp is not None:
        for horizontal in (True, False):
            rows = edges.horizontal == horizontal
            trace[rows] = _edge_traces(interp, edges[rows], horizontal, rule.nodes, alpha if horizontal else alpha[::-1], False)[side == "+"]
    vals = -trace if field is None else np.asarray(field(X, Y, alpha[0], alpha[1]), dtype=float) - trace
    return np.sqrt(half * ((vals * vals) @ rule.weights))


def jump_norm_sum(interp, edges: EdgeSet, rule: QuadratureRule | None = None) -> float:
    """Sum over edges of the squared L2 norm of the interpolant's normal-derivative jump.

    The jump is the trace from the lower-index element minus the trace
    from the higher one, matching normals that point in the increasing
    coordinate direction; both come from ``_edge_traces``, which names any
    edge that is not an interior element edge of the grid.  The edges are
    summed in endpoint order (x0, y0, x1, y1), so the result does not
    depend on their row order; an empty set gives 0.0.
    """
    if rule is None:
        rule = gauss_rule()
    ordered = edges[np.lexsort((edges.y1, edges.x1, edges.y0, edges.x0))]
    contributions = np.zeros(len(ordered))
    for horizontal in (True, False):
        rows = ordered.horizontal == horizontal
        e = ordered[rows]
        lo, hi = _edge_traces(interp, e, horizontal, rule.nodes, (0, 1), True)
        jump = lo - hi
        contributions[rows] = 0.5 * (e.x1 - e.x0 if horizontal else e.y1 - e.y0) * ((jump * jump) @ rule.weights)
    return _pairwise_sum(contributions)


def linf_sampled(field, interp, region=None, samples_per_element: int = 5) -> float:
    """Max |difference| over a deterministic tensor sample grid of ``samples_per_element`` points per axis in each element."""
    if not isinstance(samples_per_element, numbers.Integral) or samples_per_element < 1:
        raise ValueError(f"samples_per_element must be an integer of at least 1, not {samples_per_element!r}")

    def largest(d, wx, wy):
        return np.abs(d, out=d).max(axis=(1, 3))

    (cells,) = _per_cell(field, interp, region, np.linspace(-1.0, 1.0, samples_per_element), ((0, 0),), largest)
    return float(cells.max()) if cells.size else 0.0


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
    if not isinstance(samples_per_element, numbers.Integral) or samples_per_element < 1:
        raise ValueError(f"samples_per_element must be an integer of at least 1, not {samples_per_element!r}")
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
