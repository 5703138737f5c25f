"""Tensor-product element and macro-element meshes.

A macro mesh is refined into an element mesh by bisecting every macro
interval at its midpoint.  The Shishkin generator builds the
layer-adapted piecewise-uniform mesh on the unit square, labels every
element with its subdomain, groups elements into the heterogeneous macro
structure (2x2 macros near the corners, element pairs in the edge
strips, single elements in the interior), classifies its element edges
into the four interior types and the boundary (one ``EdgeSet`` of
columns, one row per edge), and picks the averaging edges used by the
quasi-interpolation operator.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

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

CORNER_REGIONS = ("omega12", "omega23", "omega34", "omega41")
STRIP_REGIONS = ("omega1", "omega2", "omega3", "omega4")


@dataclass(frozen=True)
class Grid1D:
    """Strictly increasing 1D coordinates; interval midpoints are implied."""

    coordinates: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coordinates, dtype=float)
        if coords.ndim != 1 or len(coords) < 2:
            raise ValueError("grid needs at least two coordinates")
        if np.any(np.diff(coords) <= 0):
            raise ValueError("grid coordinates must be strictly increasing")
        object.__setattr__(self, "coordinates", coords)

    def __len__(self):
        return len(self.coordinates)

    @property
    def midpoints(self) -> np.ndarray:
        c = self.coordinates
        return 0.5 * (c[:-1] + c[1:])

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.coordinates)


def _bisect(c: np.ndarray) -> np.ndarray:
    """Coordinates with every interval's midpoint inserted."""
    out = np.empty(2 * len(c) - 1)
    out[0::2] = c
    out[1::2] = 0.5 * (c[:-1] + c[1:])
    return out


@dataclass(frozen=True)
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

    def node(self, i: int, j: int) -> tuple:
        return (self.macro_x.coordinates[i], self.macro_y.coordinates[j])


def build_macro_mesh(grid_x, grid_y) -> MacroMesh:
    """Wrap two 1D grids into a macro mesh of four-element macros."""
    gx = grid_x if isinstance(grid_x, Grid1D) else Grid1D(np.asarray(grid_x, dtype=float))
    gy = grid_y if isinstance(grid_y, Grid1D) else Grid1D(np.asarray(grid_y, dtype=float))
    return MacroMesh(gx, gy)


# ---------------------------------------------------------------------------
# Shishkin mesh.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MacroCell:
    """A group of elements acting as one macro: index window into the element grid."""

    ix: tuple  # (first x element index, one past last)
    jy: tuple
    kind: str  # corner4 | strip2y | strip2x | single
    region: str


@dataclass(frozen=True)
class ShishkinMesh:
    epsilon: float
    N: int
    lambda0: float
    c_star: float
    lam: float
    grid_x: np.ndarray
    grid_y: np.ndarray
    region: np.ndarray  # [jy, ix] subdomain name per element
    macros: tuple  # MacroCell instances covering all elements

    @property
    def fine_step(self) -> float:
        return 4.0 * self.lam / self.N

    @property
    def coarse_step(self) -> float:
        return 2.0 * (1.0 - 2.0 * self.lam) / self.N

    def band(self, index: int) -> str:
        if index < self.N // 4:
            return "fine0"
        if index < 3 * self.N // 4:
            return "coarse"
        return "fine1"

    def element_size(self, ix: int, jy: int) -> tuple:
        return (self.grid_x[ix + 1] - self.grid_x[ix], self.grid_y[jy + 1] - self.grid_y[jy])

    def corner_nodes(self):
        """Element-grid index pairs (even) that are vertices of corner macros."""
        n4 = self.N // 4
        fine = list(range(0, n4 + 1, 2))
        fine_hi = list(range(3 * n4, self.N + 1, 2))
        nodes = []
        for xs in (fine, fine_hi):
            for ys in (fine, fine_hi):
                nodes.extend((a, b) for a in xs for b in ys)
        return nodes


# Subdomain of an element by the bands of its x and y index (fine0, coarse, fine1).
_REGIONS = np.array(
    [
        ["omega12", "omega2", "omega23"],
        ["omega1", "omega0", "omega3"],
        ["omega41", "omega4", "omega34"],
    ],
    dtype="<U8",
)


def build_shishkin(epsilon: float, N: int, lambda0: float = 3.0, c_star: float = 1.0) -> ShishkinMesh:
    """Layer-adapted piecewise-uniform mesh on the unit square.

    The transition point is min(1/4, lambda0*sqrt(epsilon)*ln(N)/c_star).
    Each fine band is split into N/4 equal subintervals and the interior
    into N/2, giving steps h = 4*lam/N and H = 2(1-2*lam)/N.
    """
    if N % 8 != 0 or N <= 0:
        raise ValueError("N must be a positive multiple of 8")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if lambda0 < 3.0:
        raise ValueError("lambda0 must be at least 3")
    if c_star <= 0:
        raise ValueError("c_star must be positive")
    if math.sqrt(epsilon) > 1.0 / N:
        warnings.warn("sqrt(epsilon) exceeds 1/N; the layers are not mesh-resolved", stacklevel=2)
    lam = min(0.25, lambda0 * math.sqrt(epsilon) * math.log(N) / c_star)

    n4, n2 = N // 4, N // 2
    grid = np.concatenate(
        [
            np.linspace(0.0, lam, n4 + 1),
            np.linspace(lam, 1.0 - lam, n2 + 1)[1:],
            np.linspace(1.0 - lam, 1.0, n4 + 1)[1:],
        ]
    )

    band = np.repeat([0, 1, 2], [n4, n2, n4])  # ShishkinMesh.band per element index: fine0, coarse, fine1
    region = _REGIONS[band[None, :], band[:, None]]

    macros = []
    fine_pairs = [(k, k + 2) for k in range(0, n4, 2)] + [(k, k + 2) for k in range(3 * n4, N, 2)]
    coarse_single = [(k, k + 1) for k in range(n4, 3 * n4)]
    # corner regions: 2x2-element macros
    for ix0, ix1 in fine_pairs:
        for jy0, jy1 in fine_pairs:
            macros.append(MacroCell((ix0, ix1), (jy0, jy1), "corner4", region[jy0, ix0]))
    # bottom/top strips: one coarse element wide, element pair in y
    for ix0, ix1 in coarse_single:
        for jy0, jy1 in fine_pairs:
            macros.append(MacroCell((ix0, ix1), (jy0, jy1), "strip2y", region[jy0, ix0]))
    # left/right strips: element pair in x, one coarse element tall
    for ix0, ix1 in fine_pairs:
        for jy0, jy1 in coarse_single:
            macros.append(MacroCell((ix0, ix1), (jy0, jy1), "strip2x", region[jy0, ix0]))
    # interior: single elements
    for ix0, ix1 in coarse_single:
        for jy0, jy1 in coarse_single:
            macros.append(MacroCell((ix0, ix1), (jy0, jy1), "single", "omega0"))
    return ShishkinMesh(epsilon, N, lambda0, c_star, lam, grid, grid.copy(), region, tuple(macros))


# ---------------------------------------------------------------------------
# Edge classification.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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
        return EdgeSet(*(getattr(self, f.name)[rows] for f in fields(self)))


def _interior_types(lo: np.ndarray, hi: np.ndarray, horizontal: bool) -> np.ndarray:
    """Types of the edges between elements of subdomains ``lo`` and ``hi``.

    A strip neighbour (``lo`` before ``hi``) decides long (II) or short
    (III): bottom/top strips hold wide elements, so their horizontal
    edges are long, and left/right strips their vertical ones.  Between
    two omega0 elements an edge is I, anywhere else IV.
    """
    strip = np.where(np.isin(lo, STRIP_REGIONS), lo, hi)
    long = np.isin(strip, ("omega1", "omega3")) == horizontal
    core = np.where((lo == "omega0") & (hi == "omega0"), "I", "IV")
    return np.where(np.isin(strip, STRIP_REGIONS), np.where(long, "II", "III"), core)


def _line_edges(lines, along, region, horizontal: bool) -> tuple:
    """Columns of the edges on grid lines ``lines`` (outer) between nodes ``along`` (inner).

    ``region[k, m]`` is the subdomain of the element between lines k and
    k + 1 and nodes m and m + 1; the first and last lines are boundary.
    """
    n = len(along) - 1
    level = np.repeat(lines, n)
    start, end = np.tile(along[:-1], len(lines)), np.tile(along[1:], len(lines))
    edge_type = np.full((len(lines), n), "boundary", dtype="<U8")
    edge_type[1:-1] = _interior_types(region[:-1], region[1:], horizontal)
    normal = np.zeros((len(lines), n, 2))
    normal[:, :, int(horizontal)] = 1.0
    normal[0, :, int(horizontal)] = -1.0
    x0, y0, x1, y1 = (start, level, end, level) if horizontal else (level, start, level, end)
    return x0, y0, x1, y1, np.full(level.shape, horizontal), normal.reshape(-1, 2), edge_type.ravel()


def classify_edges(mesh: ShishkinMesh) -> EdgeSet:
    """All element edges of a Shishkin mesh with their types.

    Rows are the vertical edges (ix outer, jy inner), then the horizontal
    ones (jy outer, ix inner).
    """
    vertical = _line_edges(mesh.grid_x, mesh.grid_y, mesh.region.T, False)
    horizontal = _line_edges(mesh.grid_y, mesh.grid_x, mesh.region, True)
    return EdgeSet(*map(np.concatenate, zip(vertical, horizontal)))


# ---------------------------------------------------------------------------
# Sigma-edge selection for the quasi-interpolation operator.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaEdge:
    """A macro edge used to average the mixed derivative at one node."""

    orientation: str  # horizontal | vertical
    span: tuple  # (lo, hi) along the edge
    level: float  # the fixed transverse coordinate
    node_side: str  # which end of the span carries the node: left | right

    def contains(self, x: float, y: float, tol: float = 1e-12) -> bool:
        along, across = (x, y) if self.orientation == "horizontal" else (y, x)
        return abs(across - self.level) <= tol and self.span[0] - tol <= along <= self.span[1] + tol


@dataclass(frozen=True)
class SigmaSelection:
    """Per-node averaging edges, keyed by macro-node index pair."""

    edges: dict
    strategy: str

    def edge(self, node) -> SigmaEdge:
        return self.edges[tuple(node)]


def _toward(coord, lo, hi):
    """-1 to walk down/left, +1 to walk up/right, toward the nearer bound."""
    return -1 if (coord - lo) <= (hi - coord) else 1


def _sigma_for_node(xs, ys, i, j, strategy, domain=None):
    """Pick a macro edge containing node (xs[i], ys[j]) on a tensor macro grid."""
    nx, ny = len(xs) - 1, len(ys) - 1
    if strategy == "left":
        k = i - 1 if i >= 1 else 0
        return SigmaEdge("horizontal", (xs[k], xs[k + 1]), ys[j], "right" if i >= 1 else "left")
    if strategy == "down":
        k = j - 1 if j >= 1 else 0
        return SigmaEdge("vertical", (ys[k], ys[k + 1]), xs[i], "right" if j >= 1 else "left")
    if strategy == "toward_corner":
        xlo, xhi, ylo, yhi = domain if domain is not None else (xs[0], xs[-1], ys[0], ys[-1])
        dx = _toward(xs[i], xlo, xhi)
        dy = _toward(ys[j], ylo, yhi)
        at_x_bound = (i == 0 and dx == -1) or (i == nx and dx == 1)
        at_y_bound = (j == 0 and dy == -1) or (j == ny and dy == 1)
        if not at_x_bound:
            k = i - 1 if dx == -1 else i
            return SigmaEdge("horizontal", (xs[k], xs[k + 1]), ys[j], "right" if dx == -1 else "left")
        if not at_y_bound:
            k = j - 1 if dy == -1 else j
            return SigmaEdge("vertical", (ys[k], ys[k + 1]), xs[i], "right" if dy == -1 else "left")
        # domain corner node: step along x away from the corner
        k = i if i == 0 else i - 1
        return SigmaEdge("horizontal", (xs[k], xs[k + 1]), ys[j], "left" if i == 0 else "right")
    raise ValueError(f"unknown sigma strategy {strategy!r}")


def select_sigma(mesh, strategy: str = "toward_corner", custom: dict | None = None) -> SigmaSelection:
    """Assign an averaging macro edge to every relevant macro node.

    On a plain macro mesh every tensor macro node gets an edge.  On a
    Shishkin mesh only the corner-macro vertices need one, and the choice
    is constrained to the closed corner regions; 'toward_corner' walks
    toward the nearest domain corner and satisfies this by construction.
    """
    if strategy == "custom":
        if custom is None:
            raise ValueError("custom strategy requires an explicit node -> SigmaEdge map")
        sel = SigmaSelection(dict(custom), "custom")
        verify_sigma_selection(mesh, sel)
        return sel

    edges = {}
    if isinstance(mesh, ShishkinMesh):
        gx, gy = mesh.grid_x, mesh.grid_y
        n4 = mesh.N // 4
        for a, b in mesh.corner_nodes():
            # restrict the walk to the fine corner band holding this node
            xs = gx[0 : n4 + 1 : 2] if a <= n4 else gx[3 * n4 : mesh.N + 1 : 2]
            ys = gy[0 : n4 + 1 : 2] if b <= n4 else gy[3 * n4 : mesh.N + 1 : 2]
            ii = (a if a <= n4 else a - 3 * n4) // 2
            jj = (b if b <= n4 else b - 3 * n4) // 2
            edges[(a, b)] = _sigma_for_node(xs, ys, ii, jj, strategy, domain=(0.0, 1.0, 0.0, 1.0))
        sel = SigmaSelection(edges, strategy)
    else:
        xs, ys = mesh.macro_x.coordinates, mesh.macro_y.coordinates
        for i in range(len(xs)):
            for j in range(len(ys)):
                edges[(i, j)] = _sigma_for_node(xs, ys, i, j, strategy)
        sel = SigmaSelection(edges, strategy)
    verify_sigma_selection(mesh, sel)
    return sel


def _node_coords(mesh, node):
    if isinstance(mesh, ShishkinMesh):
        return (mesh.grid_x[node[0]], mesh.grid_y[node[1]])
    return mesh.node(*node)


def verify_sigma_selection(mesh, selection: SigmaSelection, patch_factor: float = 3.0) -> None:
    """Check the selection invariants; raises ValueError on violation.

    Every node must lie on its own edge.  On a Shishkin mesh the edge
    must stay inside the closed corner region of its node.  On a plain
    macro mesh the associated patch of each macro must stay within the
    given size factor of the macro and inside the macro neighbourhood.
    """
    for node, edge in selection.edges.items():
        x, y = _node_coords(mesh, node)
        if not edge.contains(x, y):
            raise ValueError(f"sigma edge for node {node} does not contain the node")

    if isinstance(mesh, ShishkinMesh):
        lam, N = mesh.lam, mesh.N
        tol = 1e-12
        for node, edge in selection.edges.items():
            x, y = _node_coords(mesh, node)
            bands = []
            for c in (x, y):
                bands.append((0.0, lam) if c <= lam + tol else (1.0 - lam, 1.0))
            (bx, by) = bands
            if edge.orientation == "horizontal":
                lo, hi, level = edge.span[0], edge.span[1], edge.level
                ok = bx[0] - tol <= lo and hi <= bx[1] + tol and by[0] - tol <= level <= by[1] + tol
            else:
                lo, hi, level = edge.span[0], edge.span[1], edge.level
                ok = by[0] - tol <= lo and hi <= by[1] + tol and bx[0] - tol <= level <= bx[1] + tol
            if not ok:
                raise ValueError(f"sigma edge for node {node} leaves the closed corner region")
        return

    xs, ys = mesh.macro_x.coordinates, mesh.macro_y.coordinates
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
        nodes = zip((mi + di).ravel().tolist(), (mj + dj).ravel().tolist())
        edges = (selection.edges[node] for node in nodes)
        columns = np.array([(*e.span, e.level, e.orientation == "horizontal") for e in edges], dtype=float)
        lo, hi, level, horizontal = columns.T.reshape(4, *mi.shape)
        horizontal = horizontal == 1.0
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
