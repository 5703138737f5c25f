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
into buffers made once per call.  Per block and derivative order, one
GEMM contracts the cell coefficients along x with the derivative basis
of ``spline_core`` (sum factorisation), and one batched GEMM gives each
element row's differences at once: the field's rank-one factors
(``ScalarField.factors``) and the interpolant's y basis, scaled and
negated, are the columns of its left factor, and the x factors of the
field and the x contraction the rows of its right one.  None of these
products sums more than ``_FUSED_TERMS`` terms, as on some OpenBLAS
kernels a longer sum gives a cell bits that depend on how many cells
the product covers: a field of many terms takes its first terms seven
at a time in 2-D GEMMs of its factors over the whole block, and the
parts are added in order.  A field without terms is called once per
block on the block's points and added.  Each cell is then reduced in
place to its weighted sum of squares or of signed values
(``_weighted_sum``, also the reducer of ``oracles.bound_consistency``)
or to its largest absolute value.  Where the pointwise product of a field's factors is
-0.0, the block may hold +0.0; no result sees that sign, as every
reducer squares the differences or takes their absolute value, except
the signed sum, whose one caller takes the absolute value of each cell.
Broken second-order seminorms never integrate across element
interfaces, where the interpolant's second derivatives jump.  Edge
norms and jump sums locate no point and gather no cell per edge: they
read traces per grid line, not per edge.  ``_line_traces`` gives the
traces on both sides of every line of one orientation from the cell
coefficients, with the same basis.  Jump sums take groups of edge slots
[ix, iy, horizontal], so one pass over the lines serves every group,
such as one mask per edge type (``mesh._type_masks``); only the rows of
an ``EdgeSet`` a caller gives are mapped to their slots.  A jump sum
takes no field, as a smooth field's normal derivative cancels from it.
"""

from __future__ import annotations

import json
import numbers

import numpy as np

from ._record import default_factory, record
from .mesh import EDGE_TYPES, EdgeSet
from .quadrature import QuadratureRule, gauss_rule
from .spline_core import _derivative_basis

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
JUMP_TYPES = EDGE_TYPES[1:5]  # the interior edge types I-IV, each with its own jump sum
_BLOCK_VALUES = 2**16  # values of one block of the norm pass (512 KiB, well inside L2)
_FUSED_TERMS = 7  # longest sum of one product of the norm pass: OpenBLAS's Haswell and Prescott kernels give a row of 8 or more terms bits that depend on the product's width


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


def _gemm(a, b, out):
    """``a @ b`` into ``out`` for a 2-D ``a`` by GEMM, also for one row, which numpy would send to GEMV, whose bits differ from a row of a GEMM."""
    if len(a) > 1:
        np.matmul(a, b, out=out)
    else:
        out[...] = (np.repeat(a, 2, axis=0) @ b)[:1]


def _per_cell(field, interp, region, loc, alphas, reduce):
    """Per multi-index in ``alphas``, ``reduce`` of D^alpha (field - interp) on each element of ``region``.

    Yields one 1-D array per alpha, one value per element in (jy, ix)
    order; the array is reused, so take what is needed before the next.
    The points are ``loc`` x ``loc`` in every cell of the region's open
    grid, laid out as one matrix: row (jy, b) at y = Y[jy, b], column
    (ix, a) at x = X[ix, a].  The grid is walked in blocks of whole
    element rows, into buffers made once per call that each hold at
    most about ``_BLOCK_VALUES`` values.  Per block, the coefficients
    are copied once in (l, j, ix, k) order, scaled by (2/wx)^ax, and one
    2-D GEMM contracts x: ``R = C @ (D^ax P).T``, where ``D^a P`` holds
    the a-th derivatives of the local monomials at ``loc``.  Each element
    row j's differences are then ``[Fy_j | -(2/wy_j)^ay D^ay Q] @ [Fx ;
    R_j]``, with the field's rank-one factors ``field.factors`` (made once
    per alpha, on all rows and columns) in the first ``terms`` columns and
    rows.  Its inner sum is taken ``_FUSED_TERMS`` terms at a time and
    the parts are added in order; a part of factors alone is one 2-D GEMM
    over the block's rows, ``Fy.T @ Fx``, any other part one batched GEMM
    with a product per element row.  A field without terms is called once
    per block, on its rows against all columns, and added; None measures
    the interpolant.  Every product is a GEMM, even for one row
    (``_gemm``), and those of the differences sum at most
    ``_FUSED_TERMS`` terms, so a cell's values do not depend on the block
    size or the region.  ``reduce(D, wx, wy)`` takes the block's
    differences as an (rows, p, columns, p) array, which it may
    overwrite, and the widths of its columns and rows, and returns
    (rows, columns) cell values.
    """
    ux, uy, cells = _open_grid(interp, region)
    gx, gy = interp.grid_x, interp.grid_y
    wx, wy = gx[ux + 1] - gx[ux], gy[uy + 1] - gy[uy]
    x = ((0.5 * (gx[ux] + gx[ux + 1]))[:, None] + (0.5 * wx)[:, None] * loc[None, :]).ravel()
    y = ((0.5 * (gy[uy] + gy[uy + 1]))[:, None] + (0.5 * wy)[:, None] * loc[None, :]).ravel()
    coef = interp.coef if region is None else interp.coef[np.ix_(uy, ux)]
    (nuy, nux, kx, ky), p = coef.shape, len(loc)
    terms = 0 if field is None or field.terms is None else len(field.terms)
    K, N, T = terms + ky, nux * p, _FUSED_TERMS
    m = T * (terms // T) if K > T else 0  # terms whose products are 2-D GEMMs of the factors alone
    rows = max(1, min(nuy, _BLOCK_VALUES // max(1, nux * max(p * p, p * (K - m), kx * ky))))
    W, G = np.empty(rows * nux * max(p * p, kx * ky)), np.empty((K - m) * rows * N)  # flat, so a block of any height is contiguous; W holds C, then D
    S = np.empty(rows * p * N) if K > T else None
    A = np.empty((nuy, p, K))  # [Fy_j | -(2/wy_j)^ay D^ay Q] for every row j
    values = np.empty((nuy, nux))
    for ax, ay in alphas:
        PT, sx = _derivative_basis(loc, kx, ax).T.copy(), np.repeat((2.0 / wx) ** ax, kx)  # BLAS takes a contiguous PT 4x faster
        np.multiply(_derivative_basis(loc, ky, ay), -((2.0 / wy) ** ay)[:, None, None], out=A[:, :, terms:])
        if terms:
            Fx, Fy = field.factors(x, y, ax, ay)
            A[:, :, :terms] = Fy.T.reshape(nuy, p, terms)
        filled = 0
        for j0 in range(0, nuy, rows):
            n = min(rows, nuy - j0)
            c, g = W[: ky * n * nux * kx].reshape(ky, n, nux * kx), G[: (K - m) * n * N].reshape(K - m, n, N)
            np.copyto(c, coef[j0 : j0 + n].reshape(n, nux * kx, ky).transpose(2, 0, 1))
            if ax:
                c *= sx  # in place: 3x faster than scaling in the transposing copy
            _gemm(c.reshape(-1, kx), PT, g[terms - m :].reshape(-1, p))
            if terms > m and filled != n:  # the layout of Fx's copies depends on n
                g[: terms - m] = Fx[m:, None, :]
                filled = n
            a, b, d = A[j0 : j0 + n], g.transpose(1, 0, 2), W[: n * p * N].reshape(n * p, N)
            for k in range(0, K, T):
                out = S[: n * p * N].reshape(n * p, N) if k else d
                if k < m:
                    _gemm(a.reshape(n * p, K)[:, k : k + T], Fx[k : k + T], out)
                else:
                    np.matmul(a[:, :, k : k + T], b[:, k - m : k - m + T], out=out.reshape(n, p, N))
                if k:
                    d += out
            if field is not None and not terms:
                d += field(x[None, :], y[j0 * p : (j0 + n) * p, None], ax, ay)
            values[j0 : j0 + n] = reduce(d.reshape(n, p, nux, p), wx, wy[j0 : j0 + n])
        yield values.ravel() if cells is None else values[cells]


def _weighted_sum(w, square=False):
    """A ``_per_cell`` reducer: each cell's (wx wy / 4) sum_b w_b sum_a w_a D[b, a] (D[b, a]^2, squared in place, with ``square``), both sums in index order."""

    def reduce(d, wx, wy):
        n, p, nux = d.shape[:3]
        if square:
            np.multiply(d, d, out=d)
        inner = np.matmul(d.reshape(n, p * nux, p), w).reshape(n, p, nux)
        cell = inner[:, 0] * w[0]
        for b in range(1, p):
            cell += inner[:, b] * w[b]
        cell *= 0.25 * wy[:, None] * wx[None, :]
        return cell

    return reduce


def _seminorms(field, interp, alphas, region=None, rule: QuadratureRule | None = None) -> list:
    """``seminorm`` for each multi-index in ``alphas``, in one pass.

    Each cell contributes its ``_weighted_sum`` of squares, and the
    contributions are added pairwise in (jy, ix) order; a ``seminorm``
    call of its own makes the same sums, so the values are the same bit
    for bit.
    """
    if rule is None:
        rule = gauss_rule()
    return [float(np.sqrt(max(_pairwise_sum(c), 0.0))) for c in _per_cell(field, interp, region, rule.nodes, alphas, _weighted_sum(rule.weights, square=True))]


def seminorm(field, interp, alpha=(0, 0), region=None, rule: QuadratureRule | None = None) -> float:
    """L2 norm of D^alpha (field - interp) over a set of elements.

    ``region`` is an iterable of element indices (ix, jy); the whole mesh
    by default.  The field may be None, which measures the interpolant
    itself; the interpolant defines the element mesh and may not.
    """
    return _seminorms(field, interp, (alpha,), region, rule)[0]


def _edge_slots(interp, edges, rows, interior):
    """``(horizontal, ix, iy)`` of rows ``rows`` of ``edges``: each one's orientation and the grid node (ix, iy) of its lower end.

    The node is found by ``searchsorted`` on the grid, and the edge must
    run from it to the next node along its orientation: a horizontal
    edge then lies on line iy in cell ix, a vertical one on line ix in
    cell iy.  ``ValueError`` names the first row that is not an element
    edge of the grid, or with ``interior`` one on its boundary.
    """
    gx, gy = interp.grid_x, interp.grid_y
    nx, ny = len(gx) - 1, len(gy) - 1
    x0, y0, x1, y1 = edges.x0[rows], edges.y0[rows], edges.x1[rows], edges.y1[rows]
    h = np.asarray(edges.horizontal[rows], dtype=bool)
    ix, iy = np.searchsorted(gx, x0).clip(max=nx), np.searchsorted(gy, y0).clip(max=ny)
    ok = (gx[ix] == x0) & (gy[iy] == y0) & np.where(h, ix < nx, iy < ny)
    ok &= (gx[np.minimum(ix + h, nx)] == x1) & (gy[np.minimum(iy + ~h, ny)] == y1)
    if interior:
        ok &= np.where(h, (0 < iy) & (iy < ny), (0 < ix) & (ix < nx))
    bad = np.flatnonzero(~ok)
    if bad.size:
        k = bad[0]
        raise ValueError(f"edge ({x0[k]}, {y0[k]})-({x1[k]}, {y1[k]}) is not {'an interior' if interior else 'an'} element edge of the grid")
    return h, ix, iy


def _line_traces(interp, horizontal, nodes, alpha):
    """``(lo, hi)``: D^alpha of ``interp`` at ``nodes`` along every element edge of one orientation.

    Both are (lines, cells, p): ``lo`` reads the cell below or left of a
    grid line and ``hi`` the one above or right of it, and a boundary
    line reads its one cell from both sides.  ``alpha`` is (along,
    across) the lines.  For each cell end, -1 and +1 across the lines,
    one GEMM contracts every cell's coefficients with the derivative
    basis across at that end; the basis along the lines at ``nodes``
    follows, and then the scale (2/w)^alpha of each cell.
    """
    gx, gy, coef = interp.grid_x, interp.grid_y, interp.coef
    ny, nx, kx, ky = coef.shape
    along, across, k, m = (gx, gy, kx, ky) if horizontal else (gy, gx, ky, kx)  # k coefficients along, m across
    normal = _derivative_basis(np.array([-1.0, 1.0]), m, alpha[1])
    tangent = _derivative_basis(nodes, k, alpha[0]).T
    scale = ((2.0 / np.diff(across)) ** alpha[1])[:, None, None] * ((2.0 / np.diff(along)) ** alpha[0])[None, :, None]
    lo, hi = np.empty((2, len(across), len(along) - 1, len(nodes)))
    for end, out in ((1, lo[1:]), (0, hi[:-1])):  # line j is the +1 end of cell j - 1 and the -1 end of cell j
        # (kx * ky, k): the basis row across at this end, on the diagonal of the coefficients along
        expand = np.einsum("l,km->klm" if horizontal else "k,lm->klm", normal[end], np.eye(k)).reshape(kx * ky, k)
        ends = (coef.reshape(ny * nx, kx * ky) @ expand).reshape(ny, nx, k)  # [jy, ix, coefficient along]
        np.matmul(ends if horizontal else ends.transpose(1, 0, 2), tangent, out=out)
        out *= scale
        del ends  # one end's contraction is held at a time
    lo[0], hi[-1] = hi[0], lo[-1]
    return lo, hi


def edge_l2(field, interp, edges: EdgeSet, rule: QuadratureRule | None = None, alpha=(0, 0), side: str = "-") -> np.ndarray:
    """Per-edge L2 norms of the difference trace, one-sided: ``side`` picks the element across each edge.

    "-" reads the element below or left of an edge and "+" the one above or
    right of it; a boundary edge reads its one element either way.  The
    interpolant's trace is read from ``_line_traces`` at each edge's line
    and cell, the field's from the Gauss points of each edge.
    ``ValueError`` names the first edge that is not an element edge of
    ``interp``'s grid.
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
        h, ix, iy = _edge_slots(interp, edges, slice(None), False)
        for horizontal, rows in ((True, h), (False, ~h)):
            if rows.any():
                traces = _line_traces(interp, horizontal, rule.nodes, alpha if horizontal else alpha[::-1])[side == "+"]
                trace[rows] = traces[iy[rows], ix[rows]] if horizontal else traces[ix[rows], iy[rows]]
    vals = -trace if field is None else np.asarray(field(X, Y, alpha[0], alpha[1]), dtype=float) - trace
    return np.sqrt(half * ((vals * vals) @ rule.weights))


def _line_jumps(interp, horizontal, rule):
    """Per interior line and cell of one orientation, the squared L2 norm of the normal-derivative jump on that edge."""
    lo, hi = _line_traces(interp, horizontal, rule.nodes, (0, 1))
    jump = lo[1:-1]
    jump -= hi[1:-1]
    jump *= jump
    return 0.5 * np.diff(interp.grid_x if horizontal else interp.grid_y) * (jump @ rule.weights)


def _jump_sums(interp, groups, rule: QuadratureRule | None = None) -> list:
    """``jump_norm_sum`` of each group of edges; ``groups`` holds one count or mask per slot per group.

    Slot [ix, iy, horizontal], in an (nx + 1, ny + 1, 2) array or its
    ravel, is the edge of that orientation from grid node (ix, iy), so
    slot order is the endpoint order (x0, y0, x1, y1).  Only interior
    edges may be counted.  A group sums the ``_line_jumps`` of its slots
    pairwise in slot order, each as many times as it is counted.
    """
    if rule is None:
        rule = gauss_rule()
    slots = np.zeros((len(interp.grid_x), len(interp.grid_y), 2))  # [ix, iy, horizontal]
    slots[:-1, 1:-1, 1] = _line_jumps(interp, True, rule).T
    slots[1:-1, :-1, 0] = _line_jumps(interp, False, rule)
    return [_pairwise_sum(np.repeat(slots.ravel(), np.ravel(g))) for g in groups]


def _slot_counts(interp, edges: EdgeSet, masks) -> list:
    """Per row mask of ``edges``, its ``_jump_sums`` counts; ``ValueError`` names the first row that is not an interior edge."""
    rows = np.logical_or.reduce(masks)
    h, ix, iy = _edge_slots(interp, edges, rows, True)
    key = (ix * len(interp.grid_y) + iy) * 2 + h
    return [np.bincount(key[m[rows]], minlength=2 * len(interp.grid_x) * len(interp.grid_y)) for m in masks]


def jump_norm_sum(interp, edges: EdgeSet, rule: QuadratureRule | None = None) -> float:
    """Sum over edges of the squared L2 norm of the interpolant's normal-derivative jump.

    The jump is the trace from the lower-index element minus the trace
    from the higher one, matching normals that point in the increasing
    coordinate direction.  ``ValueError`` names the first edge that is
    not an interior element edge of the grid.  The edges are summed in
    endpoint order (x0, y0, x1, y1), so the result does not depend on
    their row order; an empty set gives 0.0.
    """
    return _jump_sums(interp, _slot_counts(interp, edges, [np.ones(len(edges), bool)]), rule)[0]


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


@record(frozen=False)
class NormReport:
    """Per-region and global error norms plus typed edge-jump sums."""

    regional: dict
    global_values: dict
    jump_sums: dict = default_factory(dict)

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
        "Linf_sampled": float(np.max([v["Linf_sampled"] for v in regional.values()])),  # np.max keeps a NaN, max() may drop it
    }
    jump_sums = {} if edges is None else dict(zip(JUMP_TYPES, _jump_sums(interp, _slot_counts(interp, edges, [edges.edge_type == t for t in JUMP_TYPES]), rule)))
    return NormReport(regional, global_values, jump_sums)
