"""Tensor-product element and macro-element meshes.

A macro mesh is refined into an element mesh by bisecting every macro
interval at its midpoint.  The Shishkin generator builds the
layer-adapted piecewise-uniform mesh on the unit square, and the
classification types its element edges (I-IV, boundary) by one-byte
codes into ``EDGE_TYPES`` on a grid of slots [ix, iy, horizontal], as
the jump sums read them, or by name in an ``EdgeSet`` of columns, one
row per edge.  ``select_sigma`` picks the averaging edges of the
quasi-interpolation operator, one row of columns per node of a tensor
node set (orientation, span, level, which end holds the node).
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np

from ._record import record

__all__ = [
    "Grid1D",
    "MacroMesh",
    "ShishkinMesh",
    "EdgeSet",
    "SigmaEdge",
    "SigmaSelection",
    "build_macro_mesh",
    "build_shishkin",
    "classify_edges",
    "select_sigma",
    "verify_sigma_selection",
    "mesh_to_json",
]

EDGE_TYPES = ("", "I", "II", "III", "IV", "boundary")  # the name of each slot code of _slot_types; 0 is no edge
_CODES = {t: np.uint8(c) for c, t in enumerate(EDGE_TYPES)}


@record
class Grid1D:
    """Strictly increasing 1D coordinates; interval midpoints are implied."""

    coordinates: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coordinates, dtype=float)
        if coords.ndim != 1 or len(coords) < 2:
            raise ValueError("grid needs at least two coordinates")
        if not np.all(np.isfinite(coords)):
            raise ValueError("grid coordinates must be finite")
        if np.any(np.diff(coords) <= 0):
            raise ValueError("grid coordinates must be strictly increasing")
        object.__setattr__(self, "coordinates", coords)

    def __len__(self):
        return len(self.coordinates)


def _bisect(c: np.ndarray) -> np.ndarray:
    """Coordinates with every interval's midpoint inserted."""
    out = np.empty(2 * len(c) - 1)
    out[0::2] = c
    out[1::2] = 0.5 * (c[:-1] + c[1:])
    return out


@record
class MacroMesh:
    """Tensor macro mesh whose elements arise from midpoint bisection."""

    macro_x: Grid1D
    macro_y: Grid1D

    @property
    def element_x(self) -> np.ndarray:
        return _bisect(self.macro_x.coordinates)

    @property
    def element_y(self) -> np.ndarray:
        return _bisect(self.macro_y.coordinates)

    @property
    def n_macros(self) -> tuple:
        return (len(self.macro_x) - 1, len(self.macro_y) - 1)

    def macro_bounds(self, i: int, j: int) -> tuple:
        mx, my = self.macro_x.coordinates, self.macro_y.coordinates
        return (mx[i], mx[i + 1], my[j], my[j + 1])


def build_macro_mesh(grid_x, grid_y) -> MacroMesh:
    """Wrap two 1D grids into a macro mesh of four-element macros."""
    gx = grid_x if isinstance(grid_x, Grid1D) else Grid1D(np.asarray(grid_x, dtype=float))
    gy = grid_y if isinstance(grid_y, Grid1D) else Grid1D(np.asarray(grid_y, dtype=float))
    return MacroMesh(gx, gy)


# ---------------------------------------------------------------------------
# Shishkin mesh.
# ---------------------------------------------------------------------------


def _bands(N: int) -> tuple:
    """Element-index slices (low fine, coarse, high fine) of an axis of the Shishkin mesh: N/4, N/2 and N/4 cells."""
    return slice(0, N // 4), slice(N // 4, 3 * N // 4), slice(3 * N // 4, N)


def _by_bands(N: int, table: np.ndarray) -> np.ndarray:
    """``table[band of i, band of j]`` at [i, j] for element indices i, j < N, the bands 0, 1, 2 of ``_bands``."""
    band = np.repeat([0, 1, 2], [s.stop - s.start for s in _bands(N)])
    return table[band[:, None], band[None, :]]


# Subdomain of an element by the bands of its x and y index [x band, y band] (fine0, coarse, fine1).
_REGIONS = np.array(
    [
        ["omega12", "omega2", "omega23"],
        ["omega1", "omega0", "omega3"],
        ["omega41", "omega4", "omega34"],
    ],
    dtype="<U8",
)
# Edge class of an element by [x band, y band] (_interior_types): 0 omega0, 1 bottom/top strip, 2 left/right strip, 3 corner.
_CLASSES = np.array([[3, 2, 3], [1, 0, 1], [3, 2, 3]], dtype=np.uint8)


@record
class ShishkinMesh:
    """The mesh of ``build_shishkin``: per axis N/4 fine, N/2 coarse and N/4 fine cells (``_bands``); ``region`` derives the subdomain names."""

    epsilon: float
    N: int
    lambda0: float
    c_star: float
    lam: float
    grid_x: np.ndarray
    grid_y: np.ndarray

    @property
    def fine_step(self) -> float:
        return 4.0 * self.lam / self.N

    @property
    def coarse_step(self) -> float:
        return 2.0 * (1.0 - 2.0 * self.lam) / self.N

    @property
    def region(self) -> np.ndarray:
        """The subdomain name (``<U8``) of each element [jy, ix], made on each call."""
        return _by_bands(self.N, _REGIONS.T)

    def band(self, index: int) -> str:
        low, coarse, _ = _bands(self.N)
        return "fine0" if index < low.stop else "coarse" if index < coarse.stop else "fine1"


def _shishkin_steps(epsilon: float, N: int, lambda0: float, c_star: float) -> tuple:
    """Transition point and fine step ``(lam, h)``; ValueError if no mesh can be built.

    lam = min(1/4, lambda0*sqrt(epsilon)*ln(N)/c_star) gives h = 4*lam/N,
    rounded down to a multiple of 2^-52, and lam is then reset to (N/4)*h.
    """
    if N % 8 != 0 or N <= 0:
        raise ValueError("N must be a positive multiple of 8")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not (math.isfinite(lambda0) and lambda0 >= 3.0):
        raise ValueError(f"lambda0 must be finite and at least 3, not {lambda0}")
    if not (math.isfinite(c_star) and c_star > 0):
        raise ValueError(f"c_star must be finite and positive, not {c_star}")
    lam = min(0.25, lambda0 * math.sqrt(epsilon) * math.log(N) / c_star)
    h = math.ldexp(math.floor(math.ldexp(4.0 * lam / N, 52)), -52)
    if h == 0.0:
        raise ValueError("epsilon is too small for a fine step of at least 2^-52")
    return _bands(N)[0].stop * h, h


def build_shishkin(epsilon: float, N: int, lambda0: float = 3.0, c_star: float = 1.0) -> ShishkinMesh:
    """Layer-adapted piecewise-uniform mesh on the unit square.

    N/4 cells of width h in each fine band of width lam (``_shishkin_steps``),
    N/2 in the interior.  Fine nodes k*h and 1 - lam + k*h are exact, so a
    C1 macro spline keeps its knot at the midpoint of each fine macro pair.
    """
    lam, h = _shishkin_steps(epsilon, N, lambda0, c_star)
    if math.sqrt(epsilon) > 1.0 / N:
        warnings.warn("sqrt(epsilon) exceeds 1/N; the layers are not mesh-resolved", stacklevel=2)
    low, coarse, _ = _bands(N)
    fine = h * np.arange(low.stop + 1)
    grid = np.concatenate([fine, np.linspace(lam, 1.0 - lam, coarse.stop - coarse.start + 1)[1:], (1.0 - lam + fine)[1:]])
    return ShishkinMesh(epsilon, N, lambda0, c_star, lam, grid, grid.copy())


# ---------------------------------------------------------------------------
# Edge classification.
# ---------------------------------------------------------------------------


@record
class EdgeSet:
    """Element edges as equal-length columns, one row per edge.

    ``(x0, y0)`` is the lower end of an edge and ``(x1, y1)`` the upper
    one; ``horizontal`` is the orientation flag.  ``normal`` holds unit
    normals, shape (n, 2): in the increasing coordinate direction for
    interior edges, outward on the boundary.  ``edge_type`` is one of
    I | II | III | IV | boundary.  A mask, index array or slice selects
    rows and gives another ``EdgeSet``:
    ``edges[edges.edge_type == "II"]``.
    """

    x0: np.ndarray
    y0: np.ndarray
    x1: np.ndarray
    y1: np.ndarray
    horizontal: np.ndarray
    normal: np.ndarray
    edge_type: np.ndarray

    def __len__(self):
        return len(self.x0)

    def __getitem__(self, rows) -> EdgeSet:
        return EdgeSet(*(getattr(self, name)[rows] for name in self._fields))


def _interior_types(lo: np.ndarray, hi: np.ndarray, horizontal: bool) -> np.ndarray:
    """Type codes of the edges between elements of classes ``lo`` and ``hi`` (see ``_slot_types``).

    A strip neighbour (``lo`` before ``hi``) decides long (II) or short
    (III): bottom/top strips hold wide elements, so their horizontal
    edges are long, and left/right strips their vertical ones.  Between
    two omega0 elements an edge is I, anywhere else IV.
    """
    strip = np.where((lo == 1) | (lo == 2), lo, hi)
    core = np.where((lo == 0) & (hi == 0), _CODES["I"], _CODES["IV"])
    return np.where((strip == 1) | (strip == 2), np.where((strip == 1) == horizontal, _CODES["II"], _CODES["III"]), core)


def _slot_types(mesh: ShishkinMesh) -> np.ndarray:
    """``uint8`` codes into ``EDGE_TYPES`` on the slots ``[ix, iy, horizontal]`` of ``norms._jump_sums``, 0 where no edge is.

    Each element is classed once from the bands of its x and y index (``_CLASSES``).
    """
    classes = _by_bands(mesh.N, _CLASSES)  # [ix, jy]
    types = np.zeros((len(mesh.grid_x), len(mesh.grid_y), 2), dtype=np.uint8)
    types[[0, -1], :-1, 0] = types[:-1, [0, -1], 1] = _CODES["boundary"]
    types[1:-1, :-1, 0] = _interior_types(classes[:-1], classes[1:], False)
    types[:-1, 1:-1, 1] = _interior_types(classes[:, :-1], classes[:, 1:], True)
    return types


def _type_masks(mesh: ShishkinMesh, names) -> list:
    """One mask of the slots of ``_slot_types`` per edge type in ``names``."""
    types = _slot_types(mesh)
    return [types == _CODES[t] for t in names]


def classify_edges(mesh: ShishkinMesh) -> EdgeSet:
    """All element edges of a Shishkin mesh with their types.

    Rows are the vertical edges (ix outer, jy inner), then the horizontal
    ones (jy outer, ix inner).  Each column is one copy of its values on
    the (ix, jy) grid of vertical edges and the (jy, ix) grid of
    horizontal ones; the types are the names of the ``_slot_types`` codes.
    """
    types = _slot_types(mesh)
    gx, gy = mesh.grid_x, mesh.grid_y
    grids = (len(gx), len(gy) - 1), (len(gy), len(gx) - 1)

    def column(vertical, horizontal):
        return np.concatenate([np.broadcast_to(v, grid) for v, grid in zip((vertical, horizontal), grids)], axis=None)

    edge_type = np.array(EDGE_TYPES)[column(types[:, :-1, 0], types[:-1, :, 1].T)]  # <U8, as the names are
    sign_x, sign_y = np.r_[-1.0, np.ones(len(gx) - 1)], np.r_[-1.0, np.ones(len(gy) - 1)]  # normals on line 0 point out
    normal = np.stack((column(sign_x[:, None], 0.0), column(0.0, sign_y[:, None])), axis=1)
    ends = column(gx[:, None], gx[:-1]), column(gy[:-1], gy[:, None]), column(gx[:, None], gx[1:]), column(gy[1:], gy[:, None])
    return EdgeSet(*ends, column(False, True), normal, edge_type)


# ---------------------------------------------------------------------------
# Sigma-edge selection for the quasi-interpolation operator.
# ---------------------------------------------------------------------------

_TOL = 1e-12  # node-on-edge tolerance, narrowed on a mesh of finer steps (_node_tol)
_SIGMA_ROW = np.dtype([("horizontal", bool), ("lo", float), ("hi", float), ("level", float), ("upper", bool)])


@record
class SigmaEdge:
    """A macro edge used to average the mixed derivative at one node."""

    orientation: str  # horizontal | vertical
    span: tuple  # (lo, hi) along the edge
    level: float  # the fixed transverse coordinate
    node_side: str  # which end of the span carries the node: left | right


@record
class SigmaSelection:
    """Averaging edges of the tensor node set ``nodes_x`` x ``nodes_y``.

    ``edges`` is a plain structured array of ``_SIGMA_ROW``, one row per
    node, x index outer (row ``i * len(nodes_y) + j`` is node
    ``(nodes_x[i], nodes_y[j])``), with fields
    ``horizontal`` (orientation), ``lo``/``hi`` (the span along the edge),
    ``level`` (the fixed transverse coordinate) and ``upper`` (the node is
    the span's upper end, node side right).
    """

    nodes_x: np.ndarray
    nodes_y: np.ndarray
    edges: np.ndarray

    def rows(self, a, b) -> np.ndarray:
        """Rows of nodes (a, b); index arrays broadcast, and a node outside the set raises KeyError."""
        a, b = np.broadcast_arrays(a, b)
        # integers in a contiguous index range are read by offset, other nodes by search
        i, j = ((v - n[0] if v.dtype.kind == n.dtype.kind == "i" and (np.diff(n) == 1).all() else np.searchsorted(n, v)).clip(0, len(n) - 1) for n, v in ((self.nodes_x, a), (self.nodes_y, b)))
        outside = np.flatnonzero((self.nodes_x[i] != a) | (self.nodes_y[j] != b))
        if outside.size:
            raise KeyError((int(a.flat[outside[0]]), int(b.flat[outside[0]])))
        return self.edges.take(i * len(self.nodes_y) + j)  # take copies structured rows far faster than a fancy index

    def edge(self, node) -> SigmaEdge:
        row = self.rows(*node)
        orientation = "horizontal" if row["horizontal"] else "vertical"
        return SigmaEdge(orientation, (row["lo"], row["hi"]), row["level"], "right" if row["upper"] else "left")


def _edge_row(edge: SigmaEdge | None, node) -> tuple:
    """One ``_SIGMA_ROW``; ValueError, naming ``node``, on no edge or an unknown orientation or node side."""
    if edge is None:
        raise ValueError(f"sigma edge for node {node} is missing")
    if edge.orientation not in ("horizontal", "vertical") or edge.node_side not in ("left", "right"):
        raise ValueError(f"sigma edge for node {node}: orientation {edge.orientation!r}, node_side {edge.node_side!r}")
    return (edge.orientation == "horizontal", *edge.span, edge.level, edge.node_side == "right")


def _sigma_runs(mesh) -> tuple:
    """The node lines ``xs``, ``ys`` and, per axis, the runs of sigma node indices on them.

    The one definition of the sigma node grid: the selection, its check
    and the averages of ``quasi_interp`` and ``build_composite`` all read
    it.  On a macro mesh every macro node needs an edge: one run per axis.
    On a Shishkin mesh only the corner-macro vertices do, every other line
    of the fine bands, and each band is a run of its own.
    """
    if isinstance(mesh, ShishkinMesh):
        runs = tuple(np.arange(band.start, band.stop + 1, 2) for band in _bands(mesh.N)[::2])  # the low and the high fine band
        return mesh.grid_x, mesh.grid_y, runs, runs
    xs, ys = mesh.macro_x.coordinates, mesh.macro_y.coordinates
    return xs, ys, (np.arange(len(xs)),), (np.arange(len(ys)),)


def _walk(c, runs, strategy) -> tuple:
    """Spans ``(lo, hi, upper), turned`` along the line ``c`` of the sigma nodes in ``runs``.

    Each node steps to a neighbour in its run: down, or with
    'toward_corner' toward the nearer end of ``c``, and turns inward at an
    end of its run (``turned``).  ``upper`` marks a node at the upper end
    of its span.
    """
    columns = []
    for run in runs:
        x, k = c[run], np.arange(len(run))
        down = (x - c[0]) <= (c[-1] - x) if strategy == "toward_corner" else np.ones(len(x), bool)
        turned = np.where(down, k == 0, k == len(x) - 1)
        upper = down != turned
        columns.append((x[k - upper], x[k - upper + 1], upper, turned))
    lo, hi, upper, turned = map(np.concatenate, zip(*columns))
    return (lo, hi, upper), turned


def _node_tol(xs, ys) -> float:
    """The node-on-edge tolerance on the node lines ``xs``, ``ys``: ``_TOL``, or a quarter of their smallest step where that is less."""
    return min(_TOL, 0.25 * min(np.diff(xs).min(), np.diff(ys).min()))


def _check_on_edge(rows, x, y, node_x, node_y, tol, extra=()) -> None:
    """ValueError unless each node (x, y) lies on its sigma edge ``rows``, at the node-side end, within ``tol``.

    All arguments broadcast to one shape; ``extra`` holds more ``(ok,
    what)`` checks of that shape, tested last.  The error names the first
    failing node, in row-major order, by its indices (node_x, node_y).
    """
    along, across = np.where(rows["horizontal"], x, y), np.where(rows["horizontal"], y, x)
    # each check holds where True; NaN columns fail them
    checks = [
        ((np.abs(across - rows["level"]) <= tol) & (rows["lo"] - tol <= along) & (along <= rows["hi"] + tol), "does not contain the node"),
        (np.abs(along - np.where(rows["upper"], rows["hi"], rows["lo"])) <= tol, "does not end at the node on its node side"),
        *extra,
    ]
    node_x, node_y = np.broadcast_arrays(node_x, node_y, along)[:2]
    for ok, what in checks:
        bad = np.flatnonzero(~ok)
        if bad.size:
            raise ValueError(f"sigma edge for node {(int(node_x.flat[bad[0]]), int(node_y.flat[bad[0]]))} {what}")


def select_sigma(mesh, strategy: str = "toward_corner", custom: dict | None = None) -> SigmaSelection:
    """Assign an averaging macro edge to every relevant macro node.

    On a plain macro mesh every tensor macro node gets an edge.  On a
    Shishkin mesh only the corner-macro vertices need one, and the choice
    is constrained to the closed corner regions; 'toward_corner' walks
    toward the nearest domain corner and satisfies this by construction.
    'left' and 'down' walk one macro left or down.  'custom' takes a
    node -> ``SigmaEdge`` map holding exactly these nodes; a map given
    with another strategy raises ``ValueError``.  The result
    passes ``verify_sigma_selection``.
    """
    sel = _build_selection(mesh, strategy, custom)
    verify_sigma_selection(mesh, sel)
    return sel


def _build_selection(mesh, strategy: str, custom: dict | None = None) -> SigmaSelection:
    """The selection of ``select_sigma``, not yet verified."""
    xs, ys, runs_x, runs_y = _sigma_runs(mesh)
    nodes_x, nodes_y = np.concatenate(runs_x), np.concatenate(runs_y)
    if custom is not None and strategy != "custom":
        raise ValueError(f"a custom edge map is read only by the 'custom' strategy, not {strategy!r}")
    if strategy == "custom":
        if custom is None:
            raise ValueError("custom strategy requires an explicit node -> SigmaEdge map")
        nodes = [(a, b) for a in nodes_x.tolist() for b in nodes_y.tolist()]
        extra = set(custom).difference(nodes)
        if extra:
            raise ValueError(f"node {next(n for n in custom if n in extra)} is not a sigma node of the mesh")
        edges = np.array([_edge_row(custom.get(node), node) for node in nodes], dtype=_SIGMA_ROW)
    elif strategy in ("left", "down", "toward_corner"):
        (x_spans, x_turned), (y_spans, y_turned) = _walk(xs, runs_x, strategy), _walk(ys, runs_y, strategy)
        if strategy == "toward_corner":  # along x unless the x walk turned; at a domain corner, along x again
            horizontal = ~x_turned[:, None] | y_turned
        else:
            horizontal = np.full((len(nodes_x), len(nodes_y)), strategy == "left")
        lo, hi, upper = (np.where(horizontal, x[:, None], y) for x, y in zip(x_spans, y_spans))
        level = np.where(horizontal, ys[nodes_y], xs[nodes_x][:, None])
        edges = np.empty(horizontal.shape, _SIGMA_ROW)
        for name, column in zip(_SIGMA_ROW.names, (horizontal, lo, hi, level, upper)):
            edges[name] = column
    else:
        raise ValueError(f"unknown sigma strategy {strategy!r}")
    return SigmaSelection(nodes_x, nodes_y, edges.ravel())


def verify_sigma_selection(mesh, selection: SigmaSelection, patch_factor: float = 3.0) -> None:
    """Check the selection invariants; raises ValueError on violation.

    The selection must hold exactly the mesh's sigma nodes, and every
    node must lie on its own edge, at the ``node_side`` end.  On a
    Shishkin mesh the edge must stay inside the closed corner region of
    its node.  On a plain macro mesh the associated patch of each macro
    must stay within the given size factor of the macro and inside the
    macro neighbourhood.
    """
    xs, ys, runs_x, runs_y = _sigma_runs(mesh)
    nodes_x, nodes_y = np.concatenate(runs_x), np.concatenate(runs_y)
    if not (np.array_equal(selection.nodes_x, nodes_x) and np.array_equal(selection.nodes_y, nodes_y)):
        raise ValueError("the selection's nodes are not the sigma nodes of the mesh")
    e = selection.edges.reshape(len(nodes_x), len(nodes_y))
    x, y, tol = xs[nodes_x][:, None], ys[nodes_y], _node_tol(xs, ys)
    extra = []
    if isinstance(mesh, ShishkinMesh):  # the level is in its node's band once the node is on the edge
        low = np.where(e["horizontal"], x, y) <= mesh.lam + tol
        inside = (np.where(low, 0.0, 1.0 - mesh.lam) - tol <= e["lo"]) & (e["hi"] <= np.where(low, mesh.lam, 1.0) + tol)
        extra.append((inside, "leaves the closed corner region"))
    _check_on_edge(e, x, y, nodes_x[:, None], nodes_y, tol, extra)
    if isinstance(mesh, ShishkinMesh):
        return

    nx, ny = mesh.n_macros
    mi, mj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    x0, x1, y0, y1 = mesh.macro_bounds(mi, mj)
    lo_x, hi_x, lo_y, hi_y = patch_bounds(mesh, selection, mi, mj)
    too_large = ((hi_x - lo_x) > patch_factor * (x1 - x0) + 1e-12) | ((hi_y - lo_y) > patch_factor * (y1 - y0) + 1e-12)
    # patch must stay within the one-ring macro neighbourhood
    outside = (lo_x < xs[np.maximum(mi - 1, 0)] - 1e-12) | (hi_x > xs[np.minimum(mi + 2, nx)] + 1e-12)
    outside |= (lo_y < ys[np.maximum(mj - 1, 0)] - 1e-12) | (hi_y > ys[np.minimum(mj + 2, ny)] + 1e-12)
    bad = np.flatnonzero(too_large | outside)  # (mi outer, mj inner) order
    if bad.size:
        macro = f"({mi.flat[bad[0]]},{mj.flat[bad[0]]})"
        if too_large.flat[bad[0]]:
            raise ValueError(f"associated patch of macro {macro} exceeds factor {patch_factor}")
        raise ValueError(f"associated patch of macro {macro} leaves its neighbourhood")


def patch_bounds(mesh: MacroMesh, selection: SigmaSelection, mi, mj) -> tuple:
    """Associated macro patch around macro (mi, mj) as (x0, x1, y0, y1).

    The hull of the macro and its nodes' sigma edges, snapped outward to
    macro grid lines.  ``mi`` and ``mj`` may be integers or index arrays,
    which broadcast; each bound then has their broadcast shape.
    """
    xs, ys = mesh.macro_x.coordinates, mesh.macro_y.coordinates
    mi, mj = np.broadcast_arrays(mi, mj)
    x0, x1, y0, y1 = mesh.macro_bounds(mi, mj)
    for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)):
        e = selection.rows(mi + di, mj + dj)
        horizontal, lo, hi, level = e["horizontal"], e["lo"], e["hi"], e["level"]
        x0, x1 = np.minimum(x0, np.where(horizontal, lo, level)), np.maximum(x1, np.where(horizontal, hi, level))
        y0, y1 = np.minimum(y0, np.where(horizontal, level, lo)), np.maximum(y1, np.where(horizontal, level, hi))
    x0 = xs[np.searchsorted(xs, x0 + 1e-14, "right") - 1]
    x1 = xs[np.searchsorted(xs, x1 - 1e-14, "left")]
    y0 = ys[np.searchsorted(ys, y0 + 1e-14, "right") - 1]
    y1 = ys[np.searchsorted(ys, y1 - 1e-14, "left")]
    return (x0, x1, y0, y1)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def mesh_to_json(mesh: ShishkinMesh, edges: EdgeSet | None = None) -> str:
    """JSON dump of the grids, element regions and typed edge list."""
    if edges is None:
        edges = classify_edges(mesh)
    endpoints = np.stack([edges.x0, edges.y0, edges.x1, edges.y1], axis=-1).reshape(-1, 2, 2)
    orientation = np.where(edges.horizontal, "horizontal", "vertical")
    rows = zip(endpoints.tolist(), orientation.tolist(), edges.normal.tolist(), edges.edge_type.tolist())
    payload = {
        "schema": "macrospline-mesh/1",
        "epsilon": mesh.epsilon,
        "N": mesh.N,
        "lambda0": mesh.lambda0,
        "c_star": mesh.c_star,
        "transition": mesh.lam,
        "grid_x": mesh.grid_x.tolist(),
        "grid_y": mesh.grid_y.tolist(),
        "regions": mesh.region.tolist(),
        "edges": [{"endpoints": p, "orientation": o, "normal": n, "type": t} for p, o, n, t in rows],
    }
    return json.dumps(payload, indent=1)
