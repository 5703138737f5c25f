"""Interpolation operators on tensor-product rectangle meshes.

Every operator returns a :class:`PiecewisePoly2D`, a per-element grid of
tensor monomial coefficients in element-local coordinates.  Each is
defined on one macro the same way: gather the corner functionals
(values, scaled slopes, mixed derivatives or Lagrange node values) into
a matrix G, then apply fixed basis matrices, B_x^T G B_y.  The per-macro
functions (full and reduced C1 macro, bicubic Hermite, biquadratic
nodal, anisotropic two-element macro) spell this out for one macro and
are the reference.  The mesh-level operators, bicubic Hermite among
them, run it for all cells on one path: ``_node_values`` takes the
field's values for each derivative order on the node grid, one open-grid
call of ``fields._LineGrids``, an operator edits those of a functional it
replaces, and ``_assemble`` gathers G and applies the scheme's fixed
matrices per block of macro rows, straight into the coefficient grid.
Orientation lives here alone: the x-spline anisotropic operator is the
y-spline one on transposed node values, its cells transposed back.
Quasi-interpolation replaces the mixed node values by weighted edge
averages of u_xy, which a field with terms sums by factors
(``_sigma_averages``); the Shishkin composite glues quasi, anisotropic
and nodal interpolation, with interface slopes taken from the interior
so the normal derivative is continuous across long edges.
The composite is itself a ``PiecewisePoly2D``; its jump sums depend on it alone.
``evaluate``, the norm pass and jump sums all read the cells one way: as
weights of ``spline_core._derivative_basis``, the local monomials' derivatives.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .fields import ScalarField, _LineGrids, _factor_values, _fold
from .mesh import _SIGMA_ROW, MacroMesh, ShishkinMesh, SigmaEdge, SigmaSelection, _bands, _bisect, _check_on_edge, _edge_row, _node_tol, _sigma_runs
from .norms import _BLOCK_VALUES
from .quadrature import gauss_rule
from .spline_core import (
    DualWeight,
    HERMITE_DD_MATRIX,
    LAGRANGE3,
    LAGRANGE3_DD_MATRIX,
    _HERMITE_LOCAL,
    _NEWTON_LOCAL,
    _derivative_basis,
    eval_dual_weight,
)

__all__ = [
    "PiecewisePoly2D",
    "CompositeInterpolant",
    "interp_full_macro",
    "interp_reduced_macro",
    "interp_bfs",
    "nodal_q2",
    "interp_aniso",
    "quasi_interp",
    "build_composite",
    "evaluate",
    "interp_full",
    "interp_reduced",
    "interp_bfs_mesh",
    "nodal_q2_mesh",
    "interp_aniso_mesh",
    "assemble_from_nodal_data",
    "random_c1q2",
    "sigma_average",
]

ASPECT_WARN = 1e8

# Element tables [element side, basis row, local power].  Hermite rows: value
# and scaled slope at the left endpoint, then at the right endpoint.
_HB, _NB = _HERMITE_LOCAL, _NEWTON_LOCAL
_LG3 = LAGRANGE3  # rows: nodes -1, 0, 1
# Newton basis in the Lagrange direction: 1, (x+1), (x+1)x
_LGN = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
# Cubic Hermite basis, Hermite rows: HERMITE_DD_MATRIX.T @ (Newton basis 1, (x+1), (x+1)^2, (x+1)^2(x-1))
_CUBIC = np.array(
    [
        [0.5, -0.75, 0.0, 0.25],
        [0.25, -0.25, -0.25, 0.25],
        [0.5, 0.75, 0.0, -0.25],
        [-0.25, -0.25, 0.25, 0.25],
    ]
)


# ---------------------------------------------------------------------------
# Piecewise polynomial container.
# ---------------------------------------------------------------------------


class PiecewisePoly2D:
    """Per-element tensor polynomial in element-local coordinates.

    ``coef[jy, ix, kx, ky]`` multiplies xi^kx * eta^ky with xi, eta in
    [-1, 1] over element (ix, jy).  All elements share one degree.  The
    grids must be 1-D, strictly increasing and at least 2 nodes long,
    and ``coef`` 4-D with at least one coefficient per axis, or
    ``ValueError`` is raised.
    """

    def __init__(self, grid_x, grid_y, coef):
        self.grid_x = np.asarray(grid_x, dtype=float)
        self.grid_y = np.asarray(grid_y, dtype=float)
        self.coef = np.asarray(coef, dtype=float)
        for name, grid in (("grid_x", self.grid_x), ("grid_y", self.grid_y)):
            if grid.ndim != 1 or len(grid) < 2 or not np.all(grid[1:] > grid[:-1]):
                raise ValueError(f"{name} must be 1-D and strictly increasing, with at least 2 nodes")
        if self.coef.ndim != 4 or self.coef.shape[:2] != (len(self.grid_y) - 1, len(self.grid_x) - 1) or 0 in self.coef.shape[2:]:
            raise ValueError(f"coefficient grid of shape {self.coef.shape} does not match the element mesh: it must be 4-D, (jy, ix, kx, ky), with kx, ky at least 1")

    @property
    def degree(self) -> tuple:
        return (self.coef.shape[2] - 1, self.coef.shape[3] - 1)

    def _locate(self, grid, v, side):
        if side not in ("-", "+"):
            raise ValueError(f"side entries must be '-' or '+', not {side!r}")
        idx = np.searchsorted(grid, v, side="left" if side == "-" else "right") - 1
        return np.minimum(np.maximum(idx, 0), len(grid) - 2)

    def evaluate(self, x, y, ax: int = 0, ay: int = 0, side=("-", "-")):
        """Pointwise D^(ax,ay) values; ``side`` picks the element at grid lines.

        The default takes the element with the lowest index whose closed
        bounding box contains the point; "+" takes the other limit, and
        any other entry raises ``ValueError``, as does a coordinate that
        is NaN or outside the domain by more than 1e-12, or an order
        ``ax``, ``ay`` that is not a non-negative integer.  Each point's
        cell is applied to the derivative basis at its local (xi, eta).
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        xb, yb = np.broadcast_arrays(x, y)
        flat_x, flat_y = xb.ravel(), yb.ravel()
        for axis, grid, v in (("x", self.grid_x, flat_x), ("y", self.grid_y, flat_y)):
            if v.size and not (grid[0] - 1e-12 <= v.min() and v.max() <= grid[-1] + 1e-12):
                raise ValueError(f"{axis} outside the mesh domain")
        ix = self._locate(self.grid_x, flat_x, side[0])
        jy = self._locate(self.grid_y, flat_y, side[1])
        wx = self.grid_x[ix + 1] - self.grid_x[ix]
        wy = self.grid_y[jy + 1] - self.grid_y[jy]
        xi = (2.0 * flat_x - self.grid_x[ix] - self.grid_x[ix + 1]) / wx
        eta = (2.0 * flat_y - self.grid_y[jy] - self.grid_y[jy + 1]) / wy
        cells = self.coef[jy, ix]
        out = np.einsum("pk,pkl,pl->p", _derivative_basis(xi, cells.shape[1], ax), cells, _derivative_basis(eta, cells.shape[2], ay))
        out *= (2.0 / wx) ** ax * (2.0 / wy) ** ay
        out = out.reshape(xb.shape)
        return out if out.ndim else float(out)

    def __call__(self, x, y, ax=0, ay=0):
        return self.evaluate(x, y, ax, ay)

    def as_field(self, name: str = "mesh_function") -> ScalarField:
        return ScalarField(name, lambda x, y, ax, ay: self.evaluate(x, y, ax, ay))

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "macrospline-poly/1",
                "grid_x": self.grid_x.tolist(),
                "grid_y": self.grid_y.tolist(),
                "degree": list(self.degree),
                "coef": self.coef.tolist(),
            }
        )

    @staticmethod
    def from_json(text: str) -> "PiecewisePoly2D":
        data = json.loads(text)
        if data.get("schema") != "macrospline-poly/1":
            raise ValueError("unrecognized serialization schema")
        return PiecewisePoly2D(data["grid_x"], data["grid_y"], np.asarray(data["coef"]))

    def to_csv_rows(self):
        ny, nx, dx, dy = self.coef.shape
        for jy in range(ny):
            for ix in range(nx):
                for kx in range(dx):
                    for ky in range(dy):
                        yield (ix, jy, kx, ky, self.coef[jy, ix, kx, ky])


def evaluate(interpolant, x, y, alpha=(0, 0), side=("-", "-")):
    """Evaluate an interpolant with an explicit side convention."""
    return interpolant.evaluate(x, y, alpha[0], alpha[1], side=side)


# ---------------------------------------------------------------------------
# Local data collection.
# ---------------------------------------------------------------------------


def _check_widths(hx, hy, stacklevel=3):
    """Reject cell widths (or half-widths) ``hx``, ``hy`` that are not positive; warn on an aspect ratio over ``ASPECT_WARN``."""
    hx, hy = np.asarray(hx, dtype=float), np.asarray(hy, dtype=float)
    if not (np.all(hx > 0) and np.all(hy > 0)):
        raise ValueError("degenerate macro bounds")
    aspect = max(hx.max() / hy.min(), hy.max() / hx.min())
    if aspect > ASPECT_WARN:
        warnings.warn(f"macro aspect ratio {aspect:.2e} may lose precision", stacklevel=stacklevel)


def _hermite_data(field, x0, x1, y0, y1):
    """4x4 matrix of scaled corner data in the Hermite row/column order."""
    hx, hy = 0.5 * (x1 - x0), 0.5 * (y1 - y0)
    _check_widths(hx, hy, stacklevel=4)
    xs, ys = np.array([x0, x1]), np.array([y0, y1])
    G = np.empty((4, 4))
    for px in (0, 1):
        for py in (0, 1):
            G[px::2, py::2] = hx**px * hy**py * np.asarray(field(xs[:, None], ys[None, :], px, py))
    return G


def _blocks_from_hermite(G):
    """Element-local [kx, ky] coefficient blocks, indexed [sy][sx]."""
    return [[_HB[sx].T @ G @ _HB[sy] for sx in (0, 1)] for sy in (0, 1)]


def _blocks_from_newton(G):
    F = HERMITE_DD_MATRIX @ G @ HERMITE_DD_MATRIX.T
    return [[_NB[sx].T @ F @ _NB[sy] for sx in (0, 1)] for sy in (0, 1)]


def _macro_poly(x0, x1, y0, y1, blocks) -> PiecewisePoly2D:
    gx = np.array([x0, 0.5 * (x0 + x1), x1])
    gy = np.array([y0, 0.5 * (y0 + y1), y1])
    return PiecewisePoly2D(gx, gy, np.array(blocks))


# ---------------------------------------------------------------------------
# Macro-level operators.
# ---------------------------------------------------------------------------


def interp_full_macro(field, macro, assembly: str = "lagrange") -> PiecewisePoly2D:
    """Full C1 macro interpolant on macro = (x0, x1, y0, y1), four elements.

    Matches value, both first derivatives and the mixed derivative of the
    field at the four macro vertices; reproduces biquadratics exactly.
    """
    x0, x1, y0, y1 = macro
    G = _hermite_data(field, x0, x1, y0, y1)
    if assembly == "lagrange":
        blocks = _blocks_from_hermite(G)
    elif assembly == "newton":
        blocks = _blocks_from_newton(G)
    else:
        raise ValueError("assembly must be 'lagrange' or 'newton'")
    return _macro_poly(x0, x1, y0, y1, blocks)


def interp_reduced_macro(field, macro) -> PiecewisePoly2D:
    """Reduced macro interpolant: mixed-derivative coefficients set to zero."""
    x0, x1, y0, y1 = macro
    G = _hermite_data(field, x0, x1, y0, y1)
    G[1, 1] = G[1, 3] = G[3, 1] = G[3, 3] = 0.0
    return _macro_poly(x0, x1, y0, y1, _blocks_from_hermite(G))


def interp_bfs(field, element) -> PiecewisePoly2D:
    """Bicubic Hermite interpolant on one element from the 16 corner functionals."""
    x0, x1, y0, y1 = element
    C = _CUBIC.T @ _hermite_data(field, x0, x1, y0, y1) @ _CUBIC
    return PiecewisePoly2D(np.array([x0, x1]), np.array([y0, y1]), C[None, None, :, :])


def nodal_q2(field, element) -> PiecewisePoly2D:
    """Standard biquadratic nodal interpolant on one element (3x3 nodes)."""
    x0, x1, y0, y1 = element
    _check_widths(x1 - x0, y1 - y0)
    xs = np.array([x0, 0.5 * (x0 + x1), x1])
    ys = np.array([y0, 0.5 * (y0 + y1), y1])
    V = np.asarray(field(xs[:, None], ys[None, :], 0, 0))
    C = _LG3.T @ V @ _LG3
    return PiecewisePoly2D(np.array([x0, x1]), np.array([y0, y1]), C[None, None, :, :])


def _aniso_blocks_y(field, x0, x1, y0, y1, assembly):
    """Coefficient blocks [sy] for the y-spline anisotropic operator."""
    hy = 0.5 * (y1 - y0)
    xs = np.array([x0, 0.5 * (x0 + x1), x1])
    ys = np.array([y0, y1])
    G = np.empty((3, 4))
    for py in (0, 1):
        G[:, py::2] = hy**py * np.asarray(field(xs[:, None], ys[None, :], 0, py))
    if assembly == "lagrange":
        return [_LG3.T @ G @ _HB[sy] for sy in (0, 1)]
    if assembly != "newton":
        raise ValueError("assembly must be 'lagrange' or 'newton'")
    F = LAGRANGE3_DD_MATRIX @ G @ HERMITE_DD_MATRIX.T
    return [_LGN.T @ F @ _NB[sy] for sy in (0, 1)]


def interp_aniso(field, macro, orientation: str = "y_spline", assembly: str = "lagrange") -> PiecewisePoly2D:
    """Anisotropic two-element macro interpolant.

    For ``y_spline`` the macro is one element wide and split across its
    height: quadratic Lagrange along x through the edge endpoints and
    midpoint, C1 quadratic spline along y from values and y-derivatives
    on the two long edges.  ``x_spline`` swaps the roles.
    """
    x0, x1, y0, y1 = macro
    _check_widths(x1 - x0, y1 - y0)
    if orientation == "y_spline":
        blocks = _aniso_blocks_y(field, x0, x1, y0, y1, assembly)
        gx = np.array([x0, x1])
        gy = np.array([y0, 0.5 * (y0 + y1), y1])
        return PiecewisePoly2D(gx, gy, np.array([[block] for block in blocks]))
    if orientation == "x_spline":
        swapped = interp_aniso(lambda x, y, ax, ay: field(y, x, ay, ax), (y0, y1, x0, x1), "y_spline", assembly)
        coef = np.transpose(swapped.coef, (1, 0, 3, 2))
        return PiecewisePoly2D(swapped.grid_y, swapped.grid_x, coef)
    raise ValueError("orientation must be 'y_spline' or 'x_spline'")


# ---------------------------------------------------------------------------
# Mesh-level operators: gather the cell functionals, apply the basis matrices.
# ---------------------------------------------------------------------------

# Functionals of a cell along one axis as (node offset, derivative order);
# the last offset is the cell's stride on the node grid.  The orders of
# each set run from 0 up, so ``V[p, q]`` of ``_node_values`` is order (p, q).
_HERMITE = ((0, 0), (0, 1), (1, 0), (1, 1))  # value, scaled slope at each end
_LAGRANGE = ((0, 0), (1, 0), (2, 0))  # ends and midpoint, on a bisected grid


def _half_widths(grid, stride):
    return 0.5 * (grid[stride::stride] - grid[:-stride:stride])


def _node_values(field, grid_x, grid_y, scheme) -> np.ndarray:
    """``V[p, q, i, k]``: D^(p,q) u at node (grid_x[i], grid_y[k]) for each order pair of ``scheme``, a new array that operators may edit.

    One open-grid call of ``fields._LineGrids``, which shares stored
    factor values with all calls on the same line arrays.  ValueError on
    a cell of no positive width; ``_assemble`` rejects what is not finite.
    """
    lines = field if isinstance(field, _LineGrids) else _LineGrids(field)
    _check_widths(_half_widths(grid_x, scheme[0][-1][0]), _half_widths(grid_y, scheme[1][-1][0]), stacklevel=4)
    x_orders, y_orders = (sorted({p for _, p in rows}) for rows in scheme[:2])
    return lines.grid(grid_x, grid_y, x_orders, y_orders)


def _check_finite(V):
    """ValueError naming the first order pair (p, q) whose node values ``V[p, q]`` are not all finite."""
    bad = np.argwhere(~np.isfinite(V).all(axis=(2, 3)))
    if bad.size:
        raise ValueError(f"field derivative ({bad[0, 0]}, {bad[0, 1]}) is not finite at a node")


def _x_spline_values(field, spline_grid, lagrange_nodes) -> np.ndarray:
    """V of the x-spline operator in the y-spline's axes: gathered and checked finite along the real axes, then transposed."""
    V = _node_values(field, spline_grid, lagrange_nodes, (_HERMITE, _LAGRANGE))
    _check_finite(V)
    return V.transpose(1, 0, 3, 2)


_HB2T = np.ascontiguousarray(np.hstack([_HB[0], _HB[1]]).T)  # both Hermite bases, rows (side, k)
_LG3T = np.ascontiguousarray(_LG3.T)
_C1 = (_HERMITE, _HERMITE, _HB2T, (_HB[0], _HB[1]))  # the C1 macro interpolant
_ANISO = (_LAGRANGE, _HERMITE, _LG3T, (_HB[0], _HB[1]))  # the y-spline anisotropic operator
_NODAL = (_LAGRANGE, _LAGRANGE, _LG3T, (_LG3,))  # biquadratic nodal interpolation
_BFS = (_HERMITE, _HERMITE, _CUBIC.T, (_CUBIC,))  # bicubic Hermite (Bogner-Fox-Schmit) interpolation


def _assemble(V, grid_x, grid_y, scheme, out=None) -> np.ndarray:
    """Cells ``Bx[sx].T @ G[j, i] @ By[sy]`` of every macro (i, j), of the y basis's degree, interleaved into one element grid.

    ``scheme`` is (rows_x, rows_y, BxT, By): the functionals of a cell,
    ``G[j, i, r, c]`` applying ``rows_x[r]`` along x and ``rows_y[c]`` along
    y to the node values V, order (p, q) scaled by hx**p * hy**q; the x
    bases transposed and stacked, rows (sx, kx); the y bases.  ValueError
    first on node values that are not finite.  Per block of macro rows
    within ``norms._BLOCK_VALUES``, in reused buffers, one batched product
    sums along x, then one GEMM per macro row and y side along y, straight
    into the element grid: ``out`` if given, such as a block of a larger
    grid (a transposed one gets each block copied in).  No product's shape
    depends on the block, and the sums associate as the per-macro
    operators do: each cell is theirs bit for bit but under Nehalem (README).
    """
    rows_x, rows_y, BxT, By = scheme
    _check_finite(V)
    sx, sy = rows_x[-1][0], rows_y[-1][0]
    hx, hy = _half_widths(grid_x, sx), _half_widths(grid_y, sy)
    hx_pow, hy_pow = {p: hx**p for _, p in rows_x}, {q: hy**q for _, q in rows_y}
    nx, ny, k = len(hx), len(hy), By[0].shape[1]
    if out is None:
        out = np.empty((len(By) * ny, nx * len(BxT) // k, k, k))
    rows = max(1, min(ny, _BLOCK_VALUES // (nx * len(BxT) * len(rows_y))))
    buffer, work = np.empty((rows, nx, len(rows_x), len(rows_y))), np.empty((rows, nx, len(BxT), len(rows_y)))
    for j0 in range(0, ny, rows):
        G = buffer[: min(rows, ny - j0)]
        for r, (ox, px) in enumerate(rows_x):
            for c, (oy, py) in enumerate(rows_y):
                v = V[px, py].T[oy + sy * j0 : oy + sy * (j0 + len(G)) : sy, ox : ox + sx * nx : sx]  # rows along y
                np.multiply(hx_pow[px][None, :] * hy_pow[py][j0 : j0 + len(G), None], v, out=G[:, :, r, c])
        a = np.matmul(BxT, G, out=work[: len(G)]).reshape(len(G), -1, len(rows_y))  # macro row j: rows (i, sx, kx)
        block = out[len(By) * j0 : len(By) * (j0 + len(G))]
        cells = block.reshape(len(G), len(By), a.shape[1], k)  # element row len(By) * j + side: rows (i, sx, kx)
        for side, B in enumerate(By):
            np.matmul(a, B, out=cells[:, side])
        if not np.may_share_memory(cells, block):
            block[...] = cells.reshape(block.shape)
    return out


def interp_full(field, mesh: MacroMesh) -> PiecewisePoly2D:
    mx, my = mesh.macro_x.coordinates, mesh.macro_y.coordinates
    V = _node_values(field, mx, my, _C1)
    return PiecewisePoly2D(mesh.element_x, mesh.element_y, _assemble(V, mx, my, _C1))


def interp_reduced(field, mesh: MacroMesh) -> PiecewisePoly2D:
    mx, my = mesh.macro_x.coordinates, mesh.macro_y.coordinates
    V = _node_values(field, mx, my, _C1)
    V[1, 1] = 0.0
    return PiecewisePoly2D(mesh.element_x, mesh.element_y, _assemble(V, mx, my, _C1))


def interp_bfs_mesh(field, grid_x, grid_y) -> PiecewisePoly2D:
    gx, gy = np.asarray(grid_x, dtype=float), np.asarray(grid_y, dtype=float)
    V = _node_values(field, gx, gy, _BFS)
    return PiecewisePoly2D(gx, gy, _assemble(V, gx, gy, _BFS))


def nodal_q2_mesh(field, grid_x, grid_y) -> PiecewisePoly2D:
    gx, gy = np.asarray(grid_x, dtype=float), np.asarray(grid_y, dtype=float)
    bx, by = _bisect(gx), _bisect(gy)
    V = _node_values(field, bx, by, _NODAL)
    return PiecewisePoly2D(gx, gy, _assemble(V, bx, by, _NODAL))


def interp_aniso_mesh(field, lagrange_grid, spline_grid, orientation: str = "y_spline") -> PiecewisePoly2D:
    """Anisotropic operator over a mesh: one grid of plain elements along the
    Lagrange direction, one grid of two-element macros across it."""
    lag = np.asarray(lagrange_grid, dtype=float)
    spl = np.asarray(spline_grid, dtype=float)
    bx = _bisect(lag)
    if orientation == "y_spline":
        V = _node_values(field, bx, spl, _ANISO)
        return PiecewisePoly2D(lag, _bisect(spl), _assemble(V, bx, spl, _ANISO))
    if orientation != "x_spline":
        raise ValueError("orientation must be 'y_spline' or 'x_spline'")
    V = _x_spline_values(field, spl, bx)
    return PiecewisePoly2D(_bisect(spl), lag, _assemble(V, bx, spl, _ANISO).transpose(1, 0, 3, 2))


# ---------------------------------------------------------------------------
# Quasi-interpolation.
# ---------------------------------------------------------------------------

# Five-point Gauss on each half of the reference edge [-1, 1], split at the
# midpoint where the dual weight (and a mesh function's derivative) may
# kink.  The weight scales like 1/h and the rule like h, so the average
# over an edge of half-length h is a fixed weight vector, one per node
# side, dotted with u_xy at mid + h * _SIGMA_T.
_SIGMA_RULE = gauss_rule(5, split=True)
_SIGMA_T = _SIGMA_RULE.nodes
_SIGMA_W = np.array([_SIGMA_RULE.weights * eval_dual_weight(DualWeight((-1.0, 1.0), s), _SIGMA_T) for s in ("left", "right")])


def _sigma_averages(field, rows) -> np.ndarray:
    """Weighted means of u_xy over sigma edges, selection rows of any shape.

    A field with terms (``fields._LineGrids.terms``) is summed by factors
    (``_axis_sums``): each span's two weighted Gauss sums, one per node
    side, come before the fold of the terms on the rows, c * (S_x * F_y)
    on a horizontal edge.  A row has the same bits alone as in any batch,
    and the pointwise Gauss sum's value at roundoff.  Any other field is
    summed from one pointwise call at every row's Gauss points.

    ValueError on a span or level that is not finite, or a span with hi <= lo."""
    lo, hi, level = rows["lo"], rows["hi"], rows["level"]
    if not (np.isfinite(lo).all() and np.isfinite(hi).all() and np.isfinite(level).all()):
        raise ValueError("sigma edge span and level must be finite")
    if np.any(hi <= lo):
        raise ValueError("degenerate edge interval")
    lines = field if isinstance(field, _LineGrids) else _LineGrids(field)
    if lines.terms is None:
        along = (0.5 * (lo + hi))[..., None] + (0.5 * (hi - lo))[..., None] * _SIGMA_T
        across = np.broadcast_to(level[..., None], along.shape)
        horizontal = rows["horizontal"][..., None]
        vals = lines.field(np.where(horizontal, along, across), np.where(horizontal, across, along), 1, 1)
        return np.sum(_SIGMA_W[rows["upper"].astype(int)] * vals, axis=-1)
    horizontal = rows["horizontal"]
    x_values = _axis_sums([fx for _, fx, _ in lines.terms], rows, horizontal)
    y_values = _axis_sums([fy for _, _, fy in lines.terms], rows, ~horizontal)
    return _fold(lines.terms, x_values, y_values, rows.shape)


def _axis_sums(factors, rows, along) -> dict:
    """``{f: V}`` for the distinct 1-D ``factors`` of one axis, each V of the shape of ``rows``.

    V is the first derivative's Gauss sum over the span, with the weights
    of the node side, on the rows ``along`` this axis, and its value at
    the level on the others.  Each factor is evaluated once, at the Gauss
    points of the distinct spans and then the distinct levels.
    """
    (lo, hi), at_span = _distinct_spans(rows["lo"][along], rows["hi"][along])
    levels, _, at_level = _distinct(rows["level"][~along])
    n, m = len(lo), len(_SIGMA_T)
    t = np.concatenate([((0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * _SIGMA_T).ravel(), levels])
    values = _factor_values(factors, t, 1)
    F = np.array(list(values.values()))  # [factor, point]
    sums = (F[:, : n * m].reshape(len(F), n, 1, m) * _SIGMA_W).sum(axis=-1)  # [factor, span, node side]
    table = np.concatenate([sums.reshape(len(F), 2 * n), F[:, n * m :]], axis=1)
    index = np.empty(rows.shape, np.intp)
    index[along] = 2 * at_span + rows["upper"][along]
    index[~along] = 2 * n + at_level
    return dict(zip(values, table[:, index]))


def _distinct_spans(lo, hi) -> tuple:
    """The distinct spans ``(lo, hi)`` of the 1-D ``lo``, ``hi``, and each row's index into them.

    Spans are told apart by lo; a row whose lo comes with another hi than
    the first row of that lo keeps a span of its own.
    """
    starts, first, at = _distinct(lo)
    ends = hi[first]
    own = np.flatnonzero(ends[at] != hi)
    at[own] = len(starts) + np.arange(len(own))
    return (np.concatenate([starts, lo[own]]), np.concatenate([ends, hi[own]])), at


def _distinct(v) -> tuple:
    """The sorted distinct values of the 1-D ``v``, the index of each one's first entry, and each entry's index into them.

    One stable argsort: ``np.unique`` runs other sort and hash code, whose
    pages add about 0.4 MiB of resident memory the first time a process
    runs them.
    """
    order = np.argsort(v, kind="stable")
    s = v[order]
    new = np.empty(len(s), bool)
    new[:1] = True
    np.not_equal(s[1:], s[:-1], out=new[1:])
    at = np.empty(len(v), np.intp)
    at[order] = np.cumsum(new) - 1
    return s[new], order[new], at


def sigma_average(field, edge: SigmaEdge) -> float:
    """Weighted mean of the mixed derivative over one macro edge."""
    return float(_sigma_averages(field, np.array([_edge_row(edge, None)], _SIGMA_ROW))[0])


def _node_averages(field, mesh, sigma: SigmaSelection) -> np.ndarray:
    """Sigma averages ``A[j, i]`` on the node grid ``mesh._sigma_runs``, in one ``_sigma_averages`` pass.
    ValueError names the first node, y outer, that the selection lacks or
    that is off its edge."""
    xs, ys, runs_x, runs_y = _sigma_runs(mesh)
    nodes_x, nodes_y = np.concatenate(runs_x), np.concatenate(runs_y)
    try:
        rows = sigma.rows(nodes_x[None, :], nodes_y[:, None])
    except KeyError as missing:
        raise ValueError(f"sigma edge for node {missing.args[0]} is missing") from None
    _check_on_edge(rows, xs[nodes_x][None, :], ys[nodes_y][:, None], nodes_x[None, :], nodes_y[:, None], _node_tol(xs, ys))
    return _sigma_averages(field, rows)


def quasi_interp(field, mesh: MacroMesh, sigma: SigmaSelection) -> PiecewisePoly2D:
    """Quasi-interpolant: reduced operator plus edge-averaged mixed terms.

    The coefficient of each mixed-derivative basis function is the
    weighted mean of u_xy over the node's sigma edge, which preserves
    every C1 biquadratic mesh function and any field that is biquadratic
    on the associated macro patch.
    """
    mx, my = mesh.macro_x.coordinates, mesh.macro_y.coordinates
    A = _node_averages(field, mesh, sigma)
    V = _node_values(field, mx, my, _C1)
    V[1, 1] = A.T
    return PiecewisePoly2D(mesh.element_x, mesh.element_y, _assemble(V, mx, my, _C1))


def assemble_from_nodal_data(mesh: MacroMesh, dofs) -> PiecewisePoly2D:
    """C1 biquadratic mesh function from nodal (v, v_x, v_y, v_xy) data.

    ``dofs[i, j]`` holds the data at macro node (i, j): a dict keyed by
    index pairs or an array of shape (nx + 1, ny + 1, 4).
    """
    nmx, nmy = mesh.n_macros
    if isinstance(dofs, dict):
        dofs = [[dofs[i, j] for j in range(nmy + 1)] for i in range(nmx + 1)]
    mx, my = mesh.macro_x.coordinates, mesh.macro_y.coordinates
    _check_widths(_half_widths(mx, 1), _half_widths(my, 1))
    V = np.asarray(dofs, dtype=float).reshape(nmx + 1, nmy + 1, 2, 2).transpose(3, 2, 0, 1)  # [x order, y order, i, j]
    return PiecewisePoly2D(mesh.element_x, mesh.element_y, _assemble(V, mx, my, _C1))


def random_c1q2(mesh: MacroMesh, rng) -> PiecewisePoly2D:
    """Random member of the C1 biquadratic space over the element mesh."""
    nmx, nmy = mesh.n_macros
    return assemble_from_nodal_data(mesh, rng.normal(size=(nmx + 1, nmy + 1, 4)))


# ---------------------------------------------------------------------------
# Shishkin composite interpolant.
# ---------------------------------------------------------------------------


class CompositeInterpolant(PiecewisePoly2D):
    """Region-wise interpolant ``u*``: a piecewise biquadratic on a Shishkin mesh's element grid, which it keeps as ``mesh``."""

    def __init__(self, mesh: ShishkinMesh, coef):
        super().__init__(mesh.grid_x, mesh.grid_y, coef)
        self.mesh = mesh


def _edge_slope(v, w):
    """Slope at v[..., 0] of the quadratic through v[..., :3] at steps 0, w/2, w."""
    return (-3.0 * v[..., 0] + 4.0 * v[..., 1] - v[..., 2]) / w


def build_composite(field, mesh: ShishkinMesh, sigma: SigmaSelection) -> CompositeInterpolant:
    """Glue quasi-, anisotropic and nodal interpolation on a Shishkin mesh.

    Corner regions use the quasi-interpolant, the edge strips the
    anisotropic macro operator with the interface slope replaced by the
    interior nodal interpolant's slope, and the interior plain nodal
    interpolation; the result is continuous with a continuous normal
    derivative across long (type II) and corner-region (type IV) edges.

    All node values read the field through one ``fields._LineGrids``: a
    field with terms evaluates each distinct 1-D factor once per axis,
    order and node-line set (the bisected core lines at order 0, each fine
    band's macro lines at orders 0 and 1), and every grid is folded from
    those values, bit for bit the pointwise call.  The values live only
    for this call.  One ``_node_averages`` pass on ``mesh``, whose sigma
    nodes are the macro lines of both fine bands per axis, gives the sigma
    averages of all four corner regions, so an edge that misses its node
    raises ValueError naming the first such node, y outer, of that grid;
    it evaluates each factor once more per axis (``_sigma_averages``).
    Interface slopes are read from the core's node values (a Lagrange
    scale is exactly 1); each region is written into the coefficient grid.
    """
    gx, gy, runs_x, runs_y = _sigma_runs(mesh)  # the grids, and the macro lines of the low and the high fine band
    low, inner, high = _bands(mesh.N)  # elements of the low fine band, the core and the high fine band
    core = slice(inner.start, inner.stop + 1)  # core node lines
    u = _LineGrids(field)
    core_x, core_y = _bisect(gx[core]), _bisect(gy[core])
    band_x, band_y = [gx[run] for run in runs_x], [gy[run] for run in runs_y]
    # The sigma averages of all four corners in one pass, blocks [y band][x band],
    # made first so that its temporaries are gone before the coefficient grid is.
    A = [np.split(rows, 2, axis=1) for rows in np.split(_node_averages(u, mesh, sigma), 2)]

    coef = np.zeros((mesh.N, mesh.N, 3, 3))
    V = _node_values(u, core_x, core_y, _NODAL)
    _assemble(V, core_x, core_y, _NODAL, coef[inner, inner])
    # Normal slopes of the interior nodal interpolant on its low and high
    # interfaces, per node along the interface.
    v, wx, wy = V[0, 0], np.diff(gx[core]), np.diff(gy[core])
    slope_x = (_edge_slope(v[:3].T, wx[0]), -_edge_slope(v[:-4:-1].T, wx[-1]))
    slope_y = (_edge_slope(v[:, :3], wy[0]), -_edge_slope(v[:, :-4:-1], wy[-1]))

    # Edge strips: one anisotropic operator per band, with the spline slopes
    # on the core-facing line taken from the interior.  The x-strips are
    # y-strips on their node values transposed, written through a transposed view.
    strips = ((False, core_x, band_y, slope_y, coef), (True, core_y, band_x, slope_x, coef.transpose(1, 0, 3, 2)))
    for x_spline, along, across, slopes, out in strips:
        for lines, elements, j, s in zip(across, (low, high), (-1, 0), slopes):
            V = _x_spline_values(u, lines, along) if x_spline else _node_values(u, along, lines, _ANISO)
            V[0, 1, :, j] = s
            _assemble(V, along, lines, _ANISO, out[elements, inner])

    # Corner regions: one quasi operator per band with its block of averages.
    # At the junction node, in the one cell touching the core, the slopes
    # follow the interior so its traces agree with the adjacent strips.
    for a, xe in enumerate((low, high)):
        for b, ye in enumerate((low, high)):
            V = _node_values(u, band_x[a], band_y[b], _C1)
            V[1, 1] = A[b][a].T
            i, j = a - 1, b - 1  # the junction is the last node of a low band, the first of a high one
            V[1, 0, i, j], V[0, 1, i, j] = slope_x[a][-b], slope_y[b][-a]
            _assemble(V, band_x[a], band_y[b], _C1, coef[ye, xe])

    return CompositeInterpolant(mesh, coef)
