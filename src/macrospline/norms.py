"""Quadrature-based error norms over element meshes.

Norms of a difference field (analytic field minus interpolant) are
computed by tensor Gauss rules from ``quadrature``, per element, and
accumulated pairwise in a fixed element order, so a result depends
only on its inputs.  One kernel, ``_per_cell``, serves ``seminorm``,
``_seminorms`` (every derivative order in one pass), ``linf_sampled``
and ``compute_norm_report``.  It lays the points of a set of elements
out as one matrix on the open grid of their distinct rows and columns,
rows (jy, b) along y and columns (a, ix) along x, node-major, and walks
it in blocks of whole element rows small enough to stay in the L2
cache, into buffers made once per call.  Consecutive derivative orders
with the same x order ax form a group, and ``_seminorms`` sorts its
orders by ax so that each ax is one group.  Per block and group, one
batched GEMM contracts the cell coefficients along x with the
derivative basis of ``spline_core`` (sum factorisation), shared by every
order of the group, as are the field's x factors, evaluated once per
group; per block and order, one batched GEMM then gives each element
row's differences at once: the field's rank-one y factors
(``ScalarField.factor``) and the interpolant's y basis, scaled and
negated, are the columns of its left factor, and the x factors of the
field and the x contraction the rows of its right one, for any number
of terms.  A field without terms is called once per block on the
block's points and added.  Each cell is then reduced in place to its
weighted sum of squares or of signed values (``_weighted_sum``, one
GEMV per block over the (b, a) products, also the reducer of
``oracles.bound_consistency``) or to its largest absolute value.
Where the pointwise product of a field's factors is -0.0, the block
may hold +0.0; no result sees that sign, as every
reducer squares the differences or takes their absolute value, except
the signed sum, whose one caller takes the absolute value of each cell.
Broken second-order seminorms never integrate across element
interfaces, where the interpolant's second derivatives jump.  Edge
norms and jump sums locate no point and gather no cell per edge: they
read traces per grid line, not per edge.  ``_line_traces`` gives the
traces on both sides of a range of lines of one orientation from the
cell coefficients, with the same basis.  ``edge_l2`` reads every line at
once; jump sums read the interior lines in blocks, like the norm pass,
into one array of edge slots [ix, iy, horizontal] that serves every
group of slots, such as one mask per edge type (``mesh._type_masks``);
only the rows of an ``EdgeSet`` a caller gives are mapped to their
slots.  A jump sum takes no field, as a smooth field's normal
derivative cancels from it.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers

import numpy as np

from ._record import default_factory, record
from .mesh import _REGIONS, EDGE_TYPES, EdgeSet, _bands
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
_BLOCK_VALUES = 2**16  # values of one block of the norm pass or of the jump sums (512 KiB, well inside L2)


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
    the first entry of ``region`` that is not a pair of integers, or else
    the first element that lies outside the mesh, or else the first that
    repeats an earlier one.
    """
    if poly is None:
        raise ValueError("an interpolant is required to define the element mesh")
    nx, ny = len(poly.grid_x) - 1, len(poly.grid_y) - 1
    if region is None:
        return np.arange(nx), np.arange(ny), None
    entries = region if isinstance(region, np.ndarray) else list(region)
    try:
        elements = np.asarray(entries)
    except ValueError:  # entries of different lengths
        elements = np.empty(0)
    if elements.dtype.kind not in "iu" or elements.shape[1:] != (2,):
        if len(entries):
            bad = next((e for e in entries if np.ndim(e) != 1 or len(e) != 2 or not all(isinstance(v, numbers.Integral) for v in e)), entries[0])
            raise ValueError(f"region entry {bad.tolist() if isinstance(bad, (np.ndarray, np.generic)) else bad!r} is not a pair of integers (ix, jy)")
        elements = np.empty((0, 2), dtype=int)
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

    Yields one 1-D array per alpha, in ``alphas`` order, one value per
    element in (jy, ix) order; the array is reused, so take what is needed
    before the next.  Consecutive alphas with the same ax form a group: the
    blocks are the outer loop within a group and its orders the inner one,
    and a group's arrays are yielded once all its blocks are done.  A call
    makes one (rows, columns) values array per order of its largest group,
    once, so it holds as many per-cell arrays as that group has orders
    (three for ``ORDERS`` sorted by ax).
    The points are ``loc`` x ``loc`` in every cell of the region's open
    grid, laid out as one matrix: row (jy, b) at y = Y[jy, b], column
    (a, ix) at x = X[ix, a], so that each node a's columns are
    contiguous.  The grid is walked in blocks of whole element rows, into
    buffers made once per call that each hold at most about
    ``_BLOCK_VALUES`` values.  Per block and group, the coefficients are
    copied once in (l, j, k, ix) order, scaled by (2/wx)^ax, and one
    batched GEMM contracts x: ``R[l, j] = D^ax P @ C[l, j]``, where
    ``D^a P`` holds the a-th derivatives of the local monomials at
    ``loc``; the copies of the field's x factors Fx (``field.factor``,
    evaluated once per group on all columns, as they depend on ax alone)
    are laid out next to R.  Per order, one batched GEMM over the block's
    element rows then gives each row j's differences,
    ``[Fy_j | -(2/wy_j)^ay D^ay Q] @ [Fx ; R_j]``, with the field's y
    factors Fy (made once per alpha, on all rows, before the group's
    blocks) in the first ``terms`` columns and rows.  A field without
    terms is called once per block, on its rows against all columns, and
    added; None measures the interpolant.  A cell's values depend on the
    block size and the region only at roundoff, as a BLAS kernel may
    order a product's sums by its shape.  ``reduce(D, wx, wy)`` takes the
    block's differences as an (rows, p_b, p_a, columns) array, which it
    may overwrite, and the widths of its columns and rows, and returns
    (rows, columns) cell values.
    """
    ux, uy, cells = _open_grid(interp, region)
    gx, gy = interp.grid_x, interp.grid_y
    wx, wy = gx[ux + 1] - gx[ux], gy[uy + 1] - gy[uy]
    x = ((0.5 * (gx[ux] + gx[ux + 1]))[None, :] + (0.5 * wx)[None, :] * loc[:, None]).ravel()  # columns (a, ix)
    y = ((0.5 * (gy[uy] + gy[uy + 1]))[:, None] + (0.5 * wy)[:, None] * loc[None, :]).ravel()  # rows (jy, b)
    coef = interp.coef if region is None else interp.coef[np.ix_(uy, ux)]
    (nuy, nux, kx, ky), p = coef.shape, len(loc)
    terms = 0 if field is None or field.terms is None else len(field.terms)
    K, N = terms + ky, nux * p
    rows = max(1, min(nuy, _BLOCK_VALUES // max(1, nux * max(p * p, p * K, kx * ky))))
    W, G = np.empty(rows * nux * max(p * p, kx * ky)), np.empty(K * rows * N)  # flat, so a block of any height is contiguous; W holds C, then D
    groups = [(ax, [ay for _, ay in group]) for ax, group in itertools.groupby(alphas, key=lambda alpha: alpha[0])]
    A = np.empty((max(len(ays) for _, ays in groups), nuy, p, K))  # per order of a group, [Fy_j | -(2/wy_j)^ay D^ay Q] for every row j
    values = [np.empty((nuy, nux)) for _ in A]
    for ax, ays in groups:
        P, sx = _derivative_basis(loc, kx, ax), (2.0 / wx) ** ax
        Fx = field.factor(0, x, ax) if terms else None  # the same for every order of the group
        for i, ay in enumerate(ays):
            np.multiply(_derivative_basis(loc, ky, ay), -((2.0 / wy) ** ay)[:, None, None], out=A[i, :, :, terms:])
            if terms:
                A[i, :, :, :terms] = field.factor(1, y, ay).T.reshape(nuy, p, terms)
        filled = 0
        for j0 in range(0, nuy, rows):
            n = min(rows, nuy - j0)
            c, g = W[: ky * n * kx * nux].reshape(ky, n, kx, nux), G[: K * n * N].reshape(K, n, N)
            np.copyto(c, coef[j0 : j0 + n].transpose(3, 0, 2, 1))
            if ax:
                c *= sx  # in place: 3x faster than scaling in the transposing copy
            np.matmul(P, c, out=g[terms:].reshape(ky, n, p, nux))
            if terms and filled != n:  # the layout of Fx's copies depends on n
                g[:terms] = Fx[:, None, :]
                filled = n
            b, d = g.transpose(1, 0, 2), W[: n * p * N].reshape(n * p, N)
            for i, ay in enumerate(ays):
                np.matmul(A[i, j0 : j0 + n], b, out=d.reshape(n, p, N))
                if field is not None and not terms:
                    d += field(x[None, :], y[j0 * p : (j0 + n) * p, None], ax, ay)
                values[i][j0 : j0 + n] = reduce(d.reshape(n, p, p, nux), wx, wy[j0 : j0 + n])
        for v in values[: len(ays)]:
            yield v.ravel() if cells is None else v[cells]


def _weighted_sum(w, square=False):
    """A ``_per_cell`` reducer: each cell's (wx wy / 4) sum_(b, a) w_b w_a D[b, a] (D[b, a]^2, squared in place, with ``square``).

    The sum over the (b, a) products is one batched GEMV of the block,
    viewed as (rows, p * p, columns), against the weights w_b w_a.
    """
    ww = np.outer(w, w).ravel()

    def reduce(d, wx, wy):
        n, p, _, nux = d.shape
        if square:
            np.multiply(d, d, out=d)
        cell = np.matmul(ww, d.reshape(n, p * p, nux))
        cell *= 0.25 * wy[:, None] * wx[None, :]
        return cell

    return reduce


def _seminorms(field, interp, alphas, region=None, rule: QuadratureRule | None = None) -> list:
    """``seminorm`` for each multi-index in ``alphas``, in one pass.

    Each cell contributes its ``_weighted_sum`` of squares, and the
    contributions are added pairwise in (jy, ix) order; a ``seminorm``
    call of its own makes the same sums, so the values are the same bit
    for bit.  The pass takes the multi-indices stably sorted by ax, so
    those of one ax share each block's x contraction; the values come
    back in ``alphas`` order.
    """
    if rule is None:
        rule = gauss_rule()
    order = sorted(range(len(alphas)), key=lambda i: alphas[i][0])
    values = [0.0] * len(alphas)
    for i, c in zip(order, _per_cell(field, interp, region, rule.nodes, [alphas[i] for i in order], _weighted_sum(rule.weights, square=True))):
        values[i] = float(np.sqrt(max(_pairwise_sum(c), 0.0)))
    return values


def _error_norms(field, interp, rule: QuadratureRule | None = None, region=None) -> tuple:
    """L2 norm, H1 seminorm and broken H2 seminorm of field - interp over ``region``, in one pass."""
    l2, h1x, h1y, h2xx, h2xy, h2yy = _seminorms(field, interp, ORDERS, region, rule)
    return l2, math.sqrt(h1x**2 + h1y**2), math.sqrt(h2xx**2 + h2xy**2 + h2yy**2)


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


def _trace_basis(interp, horizontal, nodes, alpha):
    """``(expand, tangent, across, along)`` of ``_line_traces``, which depend on the orientation, ``nodes`` and ``alpha`` alone.

    ``expand`` holds, per cell end (-1, then +1 across the lines), the
    (kx * ky, k) matrix with the basis row across at that end on the
    diagonal of the k coefficients along; ``tangent`` is the basis along
    the lines at ``nodes``, and ``across`` and ``along`` are (2/w)^alpha
    of every cell across and along.  A caller that reads the lines in
    blocks builds them once.
    """
    kx, ky = interp.coef.shape[2:]
    along, across, k, m = (interp.grid_x, interp.grid_y, kx, ky) if horizontal else (interp.grid_y, interp.grid_x, ky, kx)
    normal = _derivative_basis(np.array([-1.0, 1.0]), m, alpha[1])
    expand = [np.einsum("l,km->klm" if horizontal else "k,lm->klm", normal[end], np.eye(k)).reshape(kx * ky, k) for end in (0, 1)]
    return expand, _derivative_basis(nodes, k, alpha[0]).T, (2.0 / np.diff(across)) ** alpha[1], (2.0 / np.diff(along)) ** alpha[0]


def _line_traces(interp, horizontal, nodes, alpha, start=0, stop=None, basis=None):
    """``(lo, hi)``: D^alpha of ``interp`` at ``nodes`` along the element edges of grid lines ``start`` to ``stop`` of one orientation.

    Both are (lines, cells, p), all the lines by default: ``lo`` reads the
    cell below or left of a grid line and ``hi`` the one above or right of
    it, and a boundary line reads its one cell from both sides.  ``alpha``
    is (along, across) the lines.  For each cell end, -1 and +1 across the
    lines, one GEMM contracts the coefficients of the cells the lines read
    with the derivative basis across at that end; the basis along the
    lines at ``nodes`` follows, and then the scale (2/w)^alpha of each
    cell.  ``basis`` is ``_trace_basis`` of the same arguments, built here
    when None.  A line's normal derivative, alpha (0, 1), keeps its bits
    whichever other lines are read with it (see the README on kernels).
    """
    gx, gy, coef = interp.grid_x, interp.grid_y, interp.coef
    ny, nx, kx, ky = coef.shape
    along, across, k = (gx, gy, kx) if horizontal else (gy, gx, ky)  # k coefficients along
    n, stop = len(across) - 1, len(across) if stop is None else stop  # n cells across the lines
    expand, tangent, across_scale, along_scale = _trace_basis(interp, horizontal, nodes, alpha) if basis is None else basis
    lo, hi = np.empty((2, stop - start, len(along) - 1, len(nodes)))
    a, b = max(start - 1, 0), min(stop, n)  # the cells across that the lines read
    cells = (coef[a:b] if horizontal else coef[:, a:b]).reshape(-1, kx * ky)  # for vertical lines, a copy unless they read every cell
    scale = across_scale[a:b, None, None] * along_scale[None, :, None]
    for end, out, shift in ((1, lo, 1), (0, hi, 0)):  # line j is the +1 end of cell j - 1 and the -1 end of cell j
        ends = np.empty((b - a, nx, k) if horizontal else (ny, b - a, k))  # [jy, ix, coefficient along]
        np.matmul(cells, expand[end], out=ends.reshape(-1, k))
        c0, c1 = max(start - shift, 0), min(stop - shift, n)  # the cells this end reads
        rows = out[c0 + shift - start : c1 + shift - start]
        np.matmul(ends[c0 - a : c1 - a] if horizontal else ends[:, c0 - a : c1 - a].transpose(1, 0, 2), tangent, out=rows)
        rows *= scale[c0 - a : c1 - a]
        del ends  # one end's contraction is held at a time
    if start == 0:
        lo[0] = hi[0]
    if stop == n + 1:
        hi[-1] = lo[-1]
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


def _line_jumps(interp, horizontal, rule, out):
    """Into ``out[j - 1]``, per interior line j and cell of one orientation, the squared L2 norm of the normal-derivative jump on that edge, read from ``_line_traces`` in blocks of lines."""
    lines = max(1, _BLOCK_VALUES // max(1, out.shape[1] * max(math.prod(interp.coef.shape[2:]), len(rule.nodes))))  # sized on a block's largest array: for vertical lines, the copy of its cells' coefficients
    half = 0.5 * np.diff(interp.grid_x if horizontal else interp.grid_y)
    basis = _trace_basis(interp, horizontal, rule.nodes, (0, 1))
    for j in range(1, len(out) + 1, lines):
        jump, hi = _line_traces(interp, horizontal, rule.nodes, (0, 1), j, min(j + lines, len(out) + 1), basis)
        jump -= hi
        jump *= jump
        out[j - 1 : j - 1 + len(jump)] = half * (jump @ rule.weights)


def _jump_sums(interp, groups, rule: QuadratureRule | None = None) -> list:
    """``jump_norm_sum`` of each group of edges; ``groups`` holds one count or mask per slot per group.

    Slot [ix, iy, horizontal], in an (nx + 1, ny + 1, 2) array or its
    ravel, is the edge of that orientation from grid node (ix, iy), so
    slot order is the endpoint order (x0, y0, x1, y1).  Only interior
    edges may be counted: ``ValueError`` names the first slot of a group
    that counts any other.  A group sums the ``_line_jumps`` of its slots
    pairwise in slot order, each as many times as it is counted.
    """
    if rule is None:
        rule = gauss_rule()
    slots = np.zeros((len(interp.grid_x), len(interp.grid_y), 2))  # [ix, iy, horizontal]
    outside = np.ones(slots.shape, dtype=bool)  # the slots that hold no interior edge
    outside[:-1, 1:-1, 1] = outside[1:-1, :-1, 0] = False
    groups, outside = [np.ravel(g) for g in groups], np.flatnonzero(outside)
    counted = np.flatnonzero([g[outside] for g in groups])  # group by group
    if counted.size:
        k, i = divmod(counted[0], outside.size)
        raise ValueError(f"group {k} counts slot [ix, iy, horizontal] = {[int(v) for v in np.unravel_index(outside[i], slots.shape)]}, which holds no interior edge")
    _line_jumps(interp, True, rule, slots[:-1, 1:-1, 1].T)
    _line_jumps(interp, False, rule, slots[1:-1, :-1, 0])
    return [_pairwise_sum(slots.ravel()[g] if g.dtype == bool else np.repeat(slots.ravel(), g)) for g in groups]


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
        return np.abs(d, out=d).max(axis=(1, 2))

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
    """L2, H1-semi, broken-H2-semi and sampled sup norms per subdomain, in name order.

    ``interp`` must lie on the grids of ``mesh``, or ``ValueError`` is raised.
    """
    if not isinstance(samples_per_element, numbers.Integral) or samples_per_element < 1:
        raise ValueError(f"samples_per_element must be an integer of at least 1, not {samples_per_element!r}")
    if not (np.array_equal(interp.grid_x, mesh.grid_x) and np.array_equal(interp.grid_y, mesh.grid_y)):
        raise ValueError("the interpolant's grids are not the mesh's grids")
    regional, bands, quantities = {}, _bands(mesh.N), ("L2", "H1_semi", "broken_H2_semi")
    for region, (bx, by) in sorted(zip(_REGIONS.ravel().tolist(), np.ndindex(_REGIONS.shape))):
        elements = np.mgrid[bands[by], bands[bx]].reshape(2, -1)[::-1].T  # (ix, jy) on the block of its x and y band, jy outer
        regional[region] = dict(zip(quantities, _error_norms(field, interp, rule, elements)), Linf_sampled=linf_sampled(field, interp, elements, samples_per_element))
    global_values = {q: float(np.sqrt(_pairwise_sum(v[q] ** 2 for v in regional.values()))) for q in quantities}
    global_values["Linf_sampled"] = float(np.max([v["Linf_sampled"] for v in regional.values()]))  # np.max keeps a NaN, max() may drop it
    jump_sums = {} if edges is None else dict(zip(JUMP_TYPES, _jump_sums(interp, _slot_counts(interp, edges, [edges.edge_type == t for t in JUMP_TYPES]), rule)))
    return NormReport(regional, global_values, jump_sums)
