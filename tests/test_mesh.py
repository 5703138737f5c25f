import json
import math
import re

import numpy as np
import pytest

from macrospline.mesh import (
    EdgeSet,
    Grid1D,
    SigmaEdge,
    SigmaSelection,
    _sigma_for_node,
    build_macro_mesh,
    build_shishkin,
    classify_edges,
    mesh_to_json,
    patch_bounds,
    select_sigma,
    verify_sigma_selection,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(np.array([0.0]))
    with pytest.raises(ValueError):
        Grid1D(np.array([0.0, 1.0, 1.0]))


def test_macro_mesh_bisection():
    m = build_macro_mesh([0.0, 2.0], [0.0, 2.0])
    assert np.allclose(m.element_x, [0.0, 1.0, 2.0])
    assert np.allclose(m.element_y, [0.0, 1.0, 2.0])
    assert m.n_macros == (1, 1)


def test_macro_mesh_nonuniform():
    m = build_macro_mesh([0.0, 1.0, 3.0], [0.0, 2.0])
    assert m.n_macros == (2, 1)
    widths = np.diff(m.element_x)
    assert np.allclose(widths, [0.5, 0.5, 1.0, 1.0])
    assert len(m.element_x) - 1 == 4 and len(m.element_y) - 1 == 2  # 8 elements


def test_macro_mesh_rejects_bad_grid():
    with pytest.raises(ValueError):
        build_macro_mesh([0.0, 1.0, 0.5], [0.0, 1.0])


def test_shishkin_transition_point():
    mesh = build_shishkin(1e-6, 16, lambda0=3.0, c_star=1.0)
    assert mesh.lam == pytest.approx(3e-3 * math.log(16.0), rel=1e-12)
    assert mesh.lam == pytest.approx(8.3178e-3, rel=1e-4)
    assert mesh.coarse_step == pytest.approx(2 * (1 - 2 * mesh.lam) / 16, rel=1e-12)
    assert mesh.fine_step == pytest.approx(4 * mesh.lam / 16, rel=1e-12)


def test_shishkin_clamped_transition():
    with pytest.warns(UserWarning):
        mesh = build_shishkin(0.25, 16, lambda0=3.0, c_star=1.0)
    assert mesh.lam == 0.25


def test_shishkin_validation():
    with pytest.raises(ValueError):
        build_shishkin(1e-6, 12)
    with pytest.raises(ValueError):
        build_shishkin(-1.0, 16)
    with pytest.raises(ValueError):
        build_shishkin(1e-6, 16, lambda0=2.0)


def test_shishkin_tiling_and_counts():
    mesh = build_shishkin(1e-6, 16)
    hx = np.diff(mesh.grid_x)
    hy = np.diff(mesh.grid_y)
    area = float(np.outer(hy, hx).sum())
    assert area == pytest.approx(1.0, abs=1e-12)
    assert len(mesh.grid_x) == 17
    # every element belongs to exactly one macro
    owned = np.zeros((16, 16), dtype=int)
    for m in mesh.macros:
        owned[m.jy[0] : m.jy[1], m.ix[0] : m.ix[1]] += 1
    assert np.all(owned == 1)


def test_shishkin_region_labels():
    mesh = build_shishkin(1e-6, 16)
    assert mesh.region[0, 0] == "omega12"
    assert mesh.region[0, 8] == "omega1"
    assert mesh.region[8, 0] == "omega2"
    assert mesh.region[8, 8] == "omega0"
    assert mesh.region[15, 15] == "omega34"
    assert mesh.region[0, 15] == "omega41"
    assert mesh.region[15, 0] == "omega23"


@pytest.mark.parametrize("N", (8, 64))
def test_region_matches_per_element_loop(N):
    mesh = build_shishkin(1e-6, N)
    table = {
        ("coarse", "coarse"): "omega0",
        ("coarse", "fine0"): "omega1",
        ("fine0", "coarse"): "omega2",
        ("coarse", "fine1"): "omega3",
        ("fine1", "coarse"): "omega4",
        ("fine0", "fine0"): "omega12",
        ("fine0", "fine1"): "omega23",
        ("fine1", "fine1"): "omega34",
        ("fine1", "fine0"): "omega41",
    }
    expected = np.empty((N, N), dtype="<U8")
    for jy in range(N):
        for ix in range(N):
            expected[jy, ix] = table[(mesh.band(ix), mesh.band(jy))]
    assert mesh.region.dtype == expected.dtype
    assert np.array_equal(mesh.region, expected)


def test_shishkin_macro_kinds():
    mesh = build_shishkin(1e-6, 16)
    kinds = {}
    for m in mesh.macros:
        kinds.setdefault(m.kind, 0)
        kinds[m.kind] += 1
    # 4 corner regions of 2x2 macros each, strips of 8x2, interior 8x8 singles
    assert kinds["corner4"] == 4 * 4
    assert kinds["strip2y"] == 8 * 4
    assert kinds["strip2x"] == 8 * 4
    assert kinds["single"] == 64


def _brute_force_edge_counts(mesh):
    """Independent edge-type enumeration straight from the definition."""
    N = mesh.N
    counts = {"I": 0, "II": 0, "III": 0, "IV": 0, "boundary": 0}

    def elem_kind(ix, jy):
        r = mesh.region[jy, ix]
        if r == "omega0":
            return "coarse"
        if r in ("omega1", "omega3"):
            return "wide"
        if r in ("omega2", "omega4"):
            return "tall"
        return "fine"

    # vertical edges
    for ix in range(N + 1):
        for jy in range(N):
            if ix in (0, N):
                counts["boundary"] += 1
                continue
            kinds = {elem_kind(ix - 1, jy), elem_kind(ix, jy)}
            if "wide" in kinds:
                counts["III"] += 1
            elif "tall" in kinds:
                counts["II"] += 1
            elif kinds == {"coarse"}:
                counts["I"] += 1
            else:
                counts["IV"] += 1
    # horizontal edges
    for jy in range(N + 1):
        for ix in range(N):
            if jy in (0, N):
                counts["boundary"] += 1
                continue
            kinds = {elem_kind(ix, jy - 1), elem_kind(ix, jy)}
            if "wide" in kinds:
                counts["II"] += 1
            elif "tall" in kinds:
                counts["III"] += 1
            elif kinds == {"coarse"}:
                counts["I"] += 1
            else:
                counts["IV"] += 1
    return counts


def test_edge_classification_against_enumeration_oracle():
    mesh = build_shishkin(1e-6, 16)
    edges = classify_edges(mesh)
    types, counts = np.unique(edges.edge_type, return_counts=True)
    got = dict(zip(types.tolist(), counts.tolist()))
    assert got == _brute_force_edge_counts(mesh)
    total = 2 * 16 * 17
    assert sum(got.values()) == total


def test_edge_examples():
    mesh = build_shishkin(1e-6, 16)
    edges = classify_edges(mesh)
    lam = mesh.lam
    x0, y0 = edges.x0, edges.y0

    def find(horizontal, predicate):
        rows = np.flatnonzero((edges.horizontal == horizontal) & predicate)
        if not rows.size:
            raise AssertionError("edge not found")
        return edges.edge_type[rows[0]]

    # interior horizontal edge deep inside the coarse region: type I
    assert find(True, (x0 > 0.4) & (np.abs(y0 - 0.5) < 0.1) & (edges.edge_type != "boundary")) == "I"
    # short (vertical) edge of a bottom-strip element: type III
    assert find(False, (y0 < lam) & (0.4 < x0) & (x0 < 0.6)) == "III"
    # long (horizontal) edge between two bottom-strip elements: type II
    assert find(True, (0 < y0) & (y0 < lam) & (0.4 < x0) & (x0 < 0.6)) == "II"


def _per_edge_classification(mesh):
    """The per-edge loop that classify_edges replaced: one (endpoints, orientation, normal, type) per edge."""
    N = mesh.N
    gx, gy, region = mesh.grid_x, mesh.grid_y, mesh.region

    def interior_type(r1, r2, orientation):
        for r in (r1, r2):
            if r in ("omega1", "omega2", "omega3", "omega4"):
                if r in ("omega1", "omega3"):
                    return "II" if orientation == "horizontal" else "III"
                return "II" if orientation == "vertical" else "III"
        if r1 == "omega0" and r2 == "omega0":
            return "I"
        return "IV"

    edges = []
    for ix in range(N + 1):
        for jy in range(N):
            endpoints = ((gx[ix], gy[jy]), (gx[ix], gy[jy + 1]))
            if ix == 0:
                edges.append((endpoints, "vertical", (-1.0, 0.0), "boundary"))
            elif ix == N:
                edges.append((endpoints, "vertical", (1.0, 0.0), "boundary"))
            else:
                edges.append((endpoints, "vertical", (1.0, 0.0), interior_type(region[jy, ix - 1], region[jy, ix], "vertical")))
    for jy in range(N + 1):
        for ix in range(N):
            endpoints = ((gx[ix], gy[jy]), (gx[ix + 1], gy[jy]))
            if jy == 0:
                edges.append((endpoints, "horizontal", (0.0, -1.0), "boundary"))
            elif jy == N:
                edges.append((endpoints, "horizontal", (0.0, 1.0), "boundary"))
            else:
                edges.append((endpoints, "horizontal", (0.0, 1.0), interior_type(region[jy - 1, ix], region[jy, ix], "horizontal")))
    return edges


def _per_edge_json(mesh, edges):
    """mesh_to_json as it was written from one object per edge."""
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
        "edges": [
            {"endpoints": [list(p[0]), list(p[1])], "orientation": o, "normal": list(n), "type": t}
            for p, o, n, t in edges
        ],
    }
    return json.dumps(payload, indent=1)


@pytest.mark.parametrize("eps", (1e-4, 1e-8))
@pytest.mark.parametrize("N", (8, 16, 64))
def test_classify_edges_matches_per_edge_loop(N, eps):
    mesh = build_shishkin(eps, N)
    edges = classify_edges(mesh)
    expected = _per_edge_classification(mesh)
    assert len(edges) == len(expected) == 2 * N * (N + 1)
    points = np.array([p for p, _, _, _ in expected])
    assert np.array_equal(edges.x0, points[:, 0, 0])
    assert np.array_equal(edges.y0, points[:, 0, 1])
    assert np.array_equal(edges.x1, points[:, 1, 0])
    assert np.array_equal(edges.y1, points[:, 1, 1])
    assert np.array_equal(edges.horizontal, np.array([o == "horizontal" for _, o, _, _ in expected]))
    assert np.array_equal(edges.normal, np.array([n for _, _, n, _ in expected]))
    assert np.array_equal(edges.edge_type, np.array([t for _, _, _, t in expected]))
    text = _per_edge_json(mesh, expected)
    assert mesh_to_json(mesh) == text
    assert mesh_to_json(mesh, edges) == text


def test_edge_set_selection():
    edges = classify_edges(build_shishkin(1e-4, 8))
    long_edges = edges[edges.edge_type == "II"]
    assert isinstance(long_edges, EdgeSet)
    assert len(long_edges) == np.count_nonzero(edges.edge_type == "II")
    assert np.all(long_edges.edge_type == "II")
    assert long_edges.normal.shape == (len(long_edges), 2)
    rows = np.array([5, 0, 17])
    picked = edges[rows]
    assert np.array_equal(picked.x0, edges.x0[rows]) and np.array_equal(picked.edge_type, edges.edge_type[rows])
    assert np.array_equal(picked.normal, edges.normal[rows])
    assert len(edges[:0]) == 0 and len(edges[3:7]) == 4


def test_sigma_left_on_uniform_macro_mesh():
    m = build_macro_mesh(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
    sel = select_sigma(m, "left")
    e = sel.edge((2, 1))
    assert e.orientation == "horizontal"
    assert e.span == (0.25, 0.5) and e.level == 0.25
    assert e.node_side == "right"
    # patch size at most twice the macro on a uniform mesh
    for mi in range(4):
        for mj in range(4):
            x0, x1, y0, y1 = patch_bounds(m, sel, mi, mj)
            assert (x1 - x0) <= 2 * 0.25 + 1e-14
            assert (y1 - y0) <= 2 * 0.25 + 1e-14


def test_sigma_toward_corner_on_shishkin():
    mesh = build_shishkin(1e-6, 16)
    sel = select_sigma(mesh, "toward_corner")
    n4 = mesh.N // 4
    # node on the line x = lam keeps its edge inside the closed corner region
    e = sel.edge((n4, 2))
    assert e.orientation == "horizontal"
    assert e.span[1] <= mesh.lam + 1e-12
    verify_sigma_selection(mesh, sel)


def test_sigma_custom_violation_rejected():
    mesh = build_shishkin(1e-6, 16)
    sel = select_sigma(mesh, "toward_corner")
    bad = dict(sel.edges)
    bad[(0, 0)] = SigmaEdge("horizontal", (0.5, 0.6), 0.0, "left")
    with pytest.raises(ValueError):
        select_sigma(mesh, "custom", custom=bad)


def _graded_macro_mesh(rng, nx=7, ny=6):
    """Random macro widths in [1, 2]: neighbouring macros differ by at most a factor 2."""
    xs = np.cumsum(np.r_[0.0, rng.uniform(1.0, 2.0, nx)])
    ys = np.cumsum(np.r_[0.0, rng.uniform(1.0, 2.0, ny)])
    return build_macro_mesh(xs / xs[-1], ys / ys[-1])


def _patch_bounds_per_macro(mesh, selection, mi, mj):
    """Reference: the hull of one macro and its nodes' sigma edges, snapped outward."""
    xs, ys = mesh.macro_x.coordinates, mesh.macro_y.coordinates
    x0, x1, y0, y1 = mesh.macro_bounds(mi, mj)
    for node in ((mi, mj), (mi + 1, mj), (mi, mj + 1), (mi + 1, mj + 1)):
        e = selection.edges[node]
        if e.orientation == "horizontal":
            x0, x1 = min(x0, e.span[0]), max(x1, e.span[1])
            y0, y1 = min(y0, e.level), max(y1, e.level)
        else:
            y0, y1 = min(y0, e.span[0]), max(y1, e.span[1])
            x0, x1 = min(x0, e.level), max(x1, e.level)
    x0 = xs[np.searchsorted(xs, x0 + 1e-14, "right") - 1]
    x1 = xs[np.searchsorted(xs, x1 - 1e-14, "left")]
    y0 = ys[np.searchsorted(ys, y0 + 1e-14, "right") - 1]
    y1 = ys[np.searchsorted(ys, y1 - 1e-14, "left")]
    return (x0, x1, y0, y1)


def _first_patch_violation(mesh, selection, patch_factor=3.0):
    """Reference: the message of the per-macro patch checks (mi outer, mj inner), or None."""
    xs, ys = mesh.macro_x.coordinates, mesh.macro_y.coordinates
    nx, ny = mesh.n_macros
    for mi in range(nx):
        for mj in range(ny):
            x0, x1, y0, y1 = mesh.macro_bounds(mi, mj)
            lo_x, hi_x, lo_y, hi_y = _patch_bounds_per_macro(mesh, selection, mi, mj)
            if (hi_x - lo_x) > patch_factor * (x1 - x0) + 1e-12 or (hi_y - lo_y) > patch_factor * (y1 - y0) + 1e-12:
                return f"associated patch of macro ({mi},{mj}) exceeds factor {patch_factor}"
            if lo_x < xs[max(mi - 1, 0)] - 1e-12 or hi_x > xs[min(mi + 2, nx)] + 1e-12:
                return f"associated patch of macro ({mi},{mj}) leaves its neighbourhood"
            if lo_y < ys[max(mj - 1, 0)] - 1e-12 or hi_y > ys[min(mj + 2, ny)] + 1e-12:
                return f"associated patch of macro ({mi},{mj}) leaves its neighbourhood"
    return None


@pytest.mark.parametrize("strategy", ["left", "down", "toward_corner"])
def test_patch_bounds_on_index_grids_matches_per_macro_loop(strategy):
    mesh = _graded_macro_mesh(np.random.default_rng(11))
    xs, ys = mesh.macro_x.coordinates, mesh.macro_y.coordinates
    nodes = [(i, j) for i in range(len(xs)) for j in range(len(ys))]
    sel = SigmaSelection({n: _sigma_for_node(xs, ys, *n, strategy) for n in nodes}, strategy)
    nx, ny = mesh.n_macros
    want = [[_patch_bounds_per_macro(mesh, sel, mi, mj) for mj in range(ny)] for mi in range(nx)]
    mi, mj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    got = patch_bounds(mesh, sel, mi, mj)
    assert all(bound.shape == (nx, ny) for bound in got)
    assert np.array_equal(np.stack(got, axis=-1), np.array(want))
    row = patch_bounds(mesh, sel, np.arange(nx), 2)  # broadcast against a scalar index
    assert np.array_equal(np.stack(row, axis=-1), np.array(want)[:, 2])
    for i in range(nx):
        for j in range(ny):
            scalar = patch_bounds(mesh, sel, i, j)
            assert scalar == want[i][j]
            assert all(type(v) is np.float64 for v in scalar)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sigma_custom_violation_on_macro_mesh_rejected(seed):
    rng = np.random.default_rng(seed)
    mesh = _graded_macro_mesh(rng)
    xs, ys = mesh.macro_x.coordinates, mesh.macro_y.coordinates
    h = np.diff(xs)
    base = select_sigma(mesh, "left")
    j = int(rng.integers(1, len(ys)))

    # a node off its own edge
    i = int(rng.integers(0, len(xs)))
    off = dict(base.edges)
    e = off[(i, j)]
    off[(i, j)] = SigmaEdge(e.orientation, e.span, e.level - 0.5 * np.min(np.diff(ys)), e.node_side)
    with pytest.raises(ValueError, match=re.escape(f"sigma edge for node {(i, j)} does not contain the node")):
        select_sigma(mesh, "custom", custom=off)

    # both nodes of an x-interval of a narrow macro walk outward: the patch
    # spans the one-ring, wider than three macros
    m = 1 + int(np.argmin(2 * h[1:-1] - h[:-2] - h[2:]))
    assert h[m - 1] + h[m + 1] > 2 * h[m]
    wide = dict(base.edges)
    wide[(m + 1, j)] = SigmaEdge("horizontal", (xs[m + 1], xs[m + 2]), ys[j], "left")
    message = f"associated patch of macro ({m},{j - 1}) exceeds factor 3.0"
    assert _first_patch_violation(mesh, SigmaSelection(wide, "custom")) == message
    with pytest.raises(ValueError, match=re.escape(message)):
        select_sigma(mesh, "custom", custom=wide)

    # a two-macro edge leaves the one-ring of a wide macro, within the factor
    i = 2 + int(np.argmax(2 * h[2:] - h[:-2] - h[1:-1]))
    assert h[i - 2] + h[i - 1] <= 2 * h[i]
    far = dict(base.edges)
    far[(i, j)] = SigmaEdge("horizontal", (xs[i - 2], xs[i]), ys[j], "right")
    message = f"associated patch of macro ({i},{j - 1}) leaves its neighbourhood"
    assert _first_patch_violation(mesh, SigmaSelection(far, "custom")) == message
    with pytest.raises(ValueError, match=re.escape(message)):
        select_sigma(mesh, "custom", custom=far)

    # random edits: the same verdict and first violating macro as the per-macro loop
    for _ in range(40):
        custom = dict(base.edges)
        for _ in range(int(rng.integers(1, 4))):
            a, b = int(rng.integers(0, len(xs))), int(rng.integers(0, len(ys)))
            horizontal = bool(rng.integers(0, 2))
            line, k = (xs, a) if horizontal else (ys, b)
            lo = int(np.clip(k - rng.integers(0, 3), 0, len(line) - 2))
            hi = int(np.clip(max(k, lo + 1) + rng.integers(0, 3), lo + 1, len(line) - 1))
            level = ys[b] if horizontal else xs[a]
            side = "left" if line[lo] == line[k] else "right"
            custom[(a, b)] = SigmaEdge("horizontal" if horizontal else "vertical", (line[lo], line[hi]), level, side)
        message = _first_patch_violation(mesh, SigmaSelection(custom, "custom"))
        if message is None:
            verify_sigma_selection(mesh, SigmaSelection(custom, "custom"))
        else:
            with pytest.raises(ValueError, match=re.escape(message)):
                verify_sigma_selection(mesh, SigmaSelection(custom, "custom"))


def test_transition_point_stays_below_quarter():
    # consistency of the clamp: lambda < 1/4 whenever the layers are
    # mesh-resolved and the formula value is below the cap
    for eps, N in ((1e-4, 32), (1e-6, 8), (1e-8, 64)):
        if math.sqrt(eps) <= 1.0 / N and 3.0 * math.log(N) * math.sqrt(eps) < 0.25:
            mesh = build_shishkin(eps, N)
            assert mesh.lam < 0.25


def test_mesh_json_roundtrip_schema():
    mesh = build_shishkin(1e-4, 8)
    payload = json.loads(mesh_to_json(mesh))
    assert payload["schema"] == "macrospline-mesh/1"
    assert len(payload["grid_x"]) == 9
    assert len(payload["edges"]) == 2 * 8 * 9
    assert payload["regions"][0][0] == "omega12"
