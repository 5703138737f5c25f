import json
import math

import numpy as np
import pytest

from macrospline.mesh import (
    EdgeSet,
    Grid1D,
    SigmaEdge,
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
