import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrospline.mesh import (
    EDGE_TYPES,
    EdgeSet,
    Grid1D,
    ShishkinMesh,
    SigmaEdge,
    _build_selection,
    _shishkin_steps,
    _slot_types,
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


@pytest.mark.parametrize("coords", ([0.0, math.nan, 1.0], [0.0, math.inf], [-math.inf, 0.0], [math.nan, math.nan]))
def test_grid_rejects_non_finite_coordinates(coords):
    # NaN slips past the increasing check (nan <= 0 is False) and inf passes it
    with pytest.raises(ValueError, match="grid coordinates must be finite"):
        Grid1D(coords)
    with pytest.raises(ValueError, match="grid coordinates must be finite"):
        build_macro_mesh(coords, [0.0, 1.0])


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
    with pytest.raises(ValueError, match="too small"):
        build_shishkin(1e-40, 8)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_shishkin_steps_reject_non_finite_parameters(value):
    # NaN compares False with everything, so a plain range check would let it through
    with pytest.raises(ValueError, match="lambda0 must be finite"):
        _shishkin_steps(1e-4, 8, value, 1.0)
    with pytest.raises(ValueError, match="c_star must be finite"):
        _shishkin_steps(1e-4, 8, 3.0, value)
    with pytest.raises(ValueError, match="c_star must be finite"):
        build_shishkin(1e-4, 8, c_star=value)


@pytest.mark.parametrize("eps", [0.25, 1e-6, 1e-14])
@pytest.mark.parametrize("N", [8, 256])
def test_shishkin_steps_are_the_mesh_steps(N, eps):
    lam, h = _shishkin_steps(eps, N, 3.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mesh = build_shishkin(eps, N)
    assert (lam, h) == (mesh.lam, mesh.grid_x[1])


@pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-14])
@pytest.mark.parametrize("N", [8, 24, 256])
def test_shishkin_fine_widths_equal_bit_for_bit(N, eps):
    mesh = build_shishkin(eps, N)
    widths = np.diff(mesh.grid_x)
    fine = np.r_[widths[: N // 4], widths[-(N // 4) :]]
    assert np.all(fine == mesh.fine_step)
    assert mesh.lam == N // 4 * mesh.fine_step and mesh.grid_x[-1] == 1.0


def test_shishkin_tiling_and_counts():
    mesh = build_shishkin(1e-6, 16)
    hx = np.diff(mesh.grid_x)
    hy = np.diff(mesh.grid_y)
    area = float(np.outer(hy, hx).sum())
    assert area == pytest.approx(1.0, abs=1e-12)
    assert len(mesh.grid_x) == 17


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


def test_classify_edges_of_a_mesh_with_other_subdomain_names():
    # names outside the nine subdomains are classified as the per-edge loop does
    mesh = build_shishkin(1e-4, 8)
    region = mesh.region.copy()
    region[2, 3], region[5, 5], region[0, 0] = "omega9", "hole", "omega0"
    odd = ShishkinMesh(mesh.epsilon, mesh.N, mesh.lambda0, mesh.c_star, mesh.lam, mesh.grid_x, mesh.grid_y, region)
    expected = _per_edge_classification(odd)
    assert np.array_equal(classify_edges(odd).edge_type, np.array([t for _, _, _, t in expected]))
    assert not np.array_equal(classify_edges(odd).edge_type, classify_edges(mesh).edge_type)
    # each edge's type sits in its slot [ix, iy, horizontal], and every other slot is empty
    for m in (mesh, odd):
        types = np.array(EDGE_TYPES)[_slot_types(m)]
        assert types.shape == (m.N + 1, m.N + 1, 2) and np.count_nonzero(types) == 2 * m.N * (m.N + 1)
        assert np.array_equal(np.concatenate([types[:, :-1, 0].ravel(), types[:-1, :, 1].T.ravel()]), classify_edges(m).edge_type)


_SUBDOMAINS = ("omega0", "omega1", "omega2", "omega3", "omega4", "omega12", "omega23", "omega34", "omega41")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((8, 16)), st.data())
def test_slot_types_of_any_subdomain_names_match_the_per_edge_loop(N, data):
    # one classification path for every name: the nine subdomains and foreign ones alike
    names = st.sampled_from(_SUBDOMAINS + ("hole", "omega9", "", "omega00"))
    region = np.array(data.draw(st.lists(names, min_size=N * N, max_size=N * N)), dtype="<U8").reshape(N, N)
    base = build_shishkin(1e-4, N)
    m = ShishkinMesh(base.epsilon, base.N, base.lambda0, base.c_star, base.lam, base.grid_x, base.grid_y, region)
    codes = _slot_types(m)
    assert codes.dtype == np.uint8 and codes.shape == (N + 1, N + 1, 2)
    edges = _per_edge_classification(m)
    expected = np.full((N + 1, N + 1, 2), "", dtype="<U8")  # slot [ix, iy, horizontal] of each edge's lower end
    for ((x0, y0), _), orientation, _, t in edges:
        expected[np.searchsorted(m.grid_x, x0), np.searchsorted(m.grid_y, y0), int(orientation == "horizontal")] = t
    assert np.array_equal(np.array(EDGE_TYPES)[codes], expected)
    edge_type = classify_edges(m).edge_type
    assert edge_type.dtype == np.dtype("<U8")
    assert np.array_equal(edge_type, np.array([t for _, _, _, t in edges]))


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
    bad = _edge_map(sel)
    bad[(0, 0)] = SigmaEdge("horizontal", (0.5, 0.6), 0.0, "left")
    with pytest.raises(ValueError):
        select_sigma(mesh, "custom", custom=bad)


def _edge_map(selection):
    """A selection as the node -> SigmaEdge map that select_sigma(..., "custom") takes."""
    return {(a, b): selection.edge((a, b)) for a in selection.nodes_x.tolist() for b in selection.nodes_y.tolist()}


def _toward(coord, lo, hi):
    """-1 to walk down/left, +1 to walk up/right, toward the nearer bound."""
    return -1 if (coord - lo) <= (hi - coord) else 1


def _sigma_for_node(xs, ys, i, j, strategy, domain=None):
    """Reference: the per-node rule select_sigma replaced, an edge containing node (xs[i], ys[j])."""
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


def _per_node_selection(mesh, strategy):
    """Reference: the per-node loop select_sigma replaced, node -> SigmaEdge."""
    edges = {}
    if isinstance(mesh, ShishkinMesh):
        gx, gy = mesh.grid_x, mesh.grid_y
        n4 = mesh.N // 4
        fine, fine_hi = list(range(0, n4 + 1, 2)), list(range(3 * n4, mesh.N + 1, 2))
        for xs_ in (fine, fine_hi):
            for ys_ in (fine, fine_hi):
                for a, b in ((a, b) for a in xs_ for b in ys_):
                    # restrict the walk to the fine corner band holding this node
                    xs = gx[0 : n4 + 1 : 2] if a <= n4 else gx[3 * n4 : mesh.N + 1 : 2]
                    ys = gy[0 : n4 + 1 : 2] if b <= n4 else gy[3 * n4 : mesh.N + 1 : 2]
                    ii = (a if a <= n4 else a - 3 * n4) // 2
                    jj = (b if b <= n4 else b - 3 * n4) // 2
                    edges[(a, b)] = _sigma_for_node(xs, ys, ii, jj, strategy, domain=(0.0, 1.0, 0.0, 1.0))
        return edges
    xs, ys = mesh.macro_x.coordinates, mesh.macro_y.coordinates
    for i in range(len(xs)):
        for j in range(len(ys)):
            edges[(i, j)] = _sigma_for_node(xs, ys, i, j, strategy)
    return edges


def _graded_macro_mesh(rng, nx=7, ny=6):
    """Random macro widths in [1, 2]: neighbouring macros differ by at most a factor 2."""
    xs = np.cumsum(np.r_[0.0, rng.uniform(1.0, 2.0, nx)])
    ys = np.cumsum(np.r_[0.0, rng.uniform(1.0, 2.0, ny)])
    return build_macro_mesh(xs / xs[-1], ys / ys[-1])


def _sigma_meshes():
    rng = np.random.default_rng(5)
    meshes = [_graded_macro_mesh(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9))) for _ in range(4)]
    # uniform: the middle nodes are equally near both ends, and toward_corner then walks down
    meshes.append(build_macro_mesh(np.linspace(0, 1, 5), np.linspace(0, 1, 7)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # eps=1e-4 at N=256 leaves the layers unresolved
        meshes += [build_shishkin(eps, N) for N in (8, 64, 256) for eps in (1e-4, 1e-8)]
    return meshes


@pytest.mark.parametrize("strategy", ["left", "down", "toward_corner"])
def test_sigma_columns_match_per_node_loop(strategy):
    for mesh in _sigma_meshes():
        sel = _build_selection(mesh, strategy)  # toward_corner fails the patch check on some graded meshes
        expected = _per_node_selection(mesh, strategy)
        nodes = [(a, b) for a in sel.nodes_x.tolist() for b in sel.nodes_y.tolist()]
        assert len(sel.edges) == len(nodes) == len(expected) and set(nodes) == set(expected)
        want = [expected[node] for node in nodes]
        assert np.array_equal(sel.edges["horizontal"], np.array([e.orientation == "horizontal" for e in want]))
        assert np.array_equal(sel.edges["lo"], np.array([e.span[0] for e in want]))
        assert np.array_equal(sel.edges["hi"], np.array([e.span[1] for e in want]))
        assert np.array_equal(sel.edges["level"], np.array([e.level for e in want]))
        assert np.array_equal(sel.edges["upper"], np.array([e.node_side == "right" for e in want]))


def test_sigma_edge_round_trips_and_rejects_outside_nodes():
    for mesh in _sigma_meshes():
        sel = select_sigma(mesh, "left")
        expected = _per_node_selection(mesh, "left")
        edges = _edge_map(sel)
        assert edges == expected
        again = select_sigma(mesh, "custom", custom=edges)
        assert again.edges.dtype == sel.edges.dtype and np.all(again.edges == sel.edges)
        assert np.array_equal(again.nodes_x, sel.nodes_x) and np.array_equal(again.nodes_y, sel.nodes_y)
        outside = [(-1, 0), (0, int(sel.nodes_y[-1]) + 1)]
        if isinstance(mesh, ShishkinMesh):
            outside += [(1, 0), (0, mesh.N // 2)]  # odd, and coarse-band lines
        for node in outside:
            with pytest.raises(KeyError):
                sel.edge(node)


@pytest.mark.parametrize("strategy", ["left", "down", "toward_corner"])
def test_a_custom_map_with_another_strategy_is_rejected(strategy):
    for mesh in (build_macro_mesh(np.linspace(0, 1, 5), np.linspace(0, 1, 7)), build_shishkin(1e-4, 8), build_shishkin(1e-8, 64)):
        edges = _edge_map(select_sigma(mesh, strategy))
        for custom in (edges, {}):
            with pytest.raises(ValueError, match=f"custom edge map is read only by the 'custom' strategy, not '{strategy}'"):
                select_sigma(mesh, strategy, custom=custom)


def test_sigma_custom_map_defects_rejected_naming_the_node():
    mesh = build_macro_mesh(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
    xs, ys = mesh.macro_x.coordinates, mesh.macro_y.coordinates
    base = _edge_map(select_sigma(mesh, "left"))

    missing = dict(base)
    del missing[(2, 3)]
    with pytest.raises(ValueError, match=re.escape("sigma edge for node (2, 3) is missing")):
        select_sigma(mesh, "custom", custom=missing)

    extra = dict(base)
    extra[(5, 0)] = SigmaEdge("horizontal", (xs[3], xs[4]), ys[0], "right")
    with pytest.raises(ValueError, match=re.escape("node (5, 0) is not a sigma node of the mesh")):
        select_sigma(mesh, "custom", custom=extra)

    diagonal = dict(base)
    diagonal[(1, 1)] = SigmaEdge("diagonal", (xs[0], xs[1]), ys[1], "right")
    with pytest.raises(ValueError, match=re.escape("sigma edge for node (1, 1): orientation 'diagonal'")):
        select_sigma(mesh, "custom", custom=diagonal)

    middle = dict(base)
    middle[(1, 2)] = SigmaEdge("horizontal", (xs[0], xs[1]), ys[2], "middle")
    with pytest.raises(ValueError, match=re.escape("sigma edge for node (1, 2): orientation 'horizontal', node_side 'middle'")):
        select_sigma(mesh, "custom", custom=middle)

    # node (2, 1) is the right end of its edge but claims the left one
    wrong_end = dict(base)
    wrong_end[(2, 1)] = SigmaEdge("horizontal", (xs[1], xs[2]), ys[1], "left")
    with pytest.raises(ValueError, match=re.escape("sigma edge for node (2, 1) does not end at the node on its node side")):
        select_sigma(mesh, "custom", custom=wrong_end)

    # a selection checked against a mesh with other sigma nodes
    with pytest.raises(ValueError, match="not the sigma nodes of the mesh"):
        verify_sigma_selection(build_macro_mesh(np.linspace(0, 1, 4), np.linspace(0, 1, 5)), select_sigma(mesh, "left"))

    shishkin = build_shishkin(1e-6, 16)
    gx = shishkin.grid_x
    corner = _edge_map(select_sigma(shishkin, "toward_corner"))
    del corner[(14, 4)]
    with pytest.raises(ValueError, match=re.escape("sigma edge for node (14, 4) is missing")):
        select_sigma(shishkin, "custom", custom=corner)
    # edges ending at their node on the band lines x = lam and x = 1 - lam, reaching into the coarse band
    for node, span, side in (((4, 2), (gx[4], gx[6]), "left"), ((12, 2), (gx[10], gx[12]), "right")):
        leaving = _edge_map(select_sigma(shishkin, "toward_corner"))
        leaving[node] = SigmaEdge("horizontal", span, shishkin.grid_y[2], side)
        with pytest.raises(ValueError, match=re.escape(f"sigma edge for node {node} leaves the closed corner region")):
            select_sigma(shishkin, "custom", custom=leaving)


def _patch_bounds_per_macro(mesh, edges, mi, mj):
    """Reference: the hull of one macro and its nodes' sigma edges (node -> SigmaEdge), snapped outward."""
    xs, ys = mesh.macro_x.coordinates, mesh.macro_y.coordinates
    x0, x1, y0, y1 = mesh.macro_bounds(mi, mj)
    for node in ((mi, mj), (mi + 1, mj), (mi, mj + 1), (mi + 1, mj + 1)):
        e = edges[node]
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


def _first_patch_violation(mesh, edges, patch_factor=3.0):
    """Reference: the message of the first failed check, or None.

    The node-end rule in (i outer, j inner) node order, then the
    per-macro patch checks (mi outer, mj inner).
    """
    xs, ys = mesh.macro_x.coordinates, mesh.macro_y.coordinates
    for node in sorted(edges):
        e = edges[node]
        along = xs[node[0]] if e.orientation == "horizontal" else ys[node[1]]
        if abs(along - (e.span[1] if e.node_side == "right" else e.span[0])) > 1e-12:
            return f"sigma edge for node {node} does not end at the node on its node side"
    nx, ny = mesh.n_macros
    for mi in range(nx):
        for mj in range(ny):
            x0, x1, y0, y1 = mesh.macro_bounds(mi, mj)
            lo_x, hi_x, lo_y, hi_y = _patch_bounds_per_macro(mesh, edges, mi, mj)
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
    sel = _build_selection(mesh, strategy)
    edges = _per_node_selection(mesh, strategy)
    nx, ny = mesh.n_macros
    want = [[_patch_bounds_per_macro(mesh, edges, mi, mj) for mj in range(ny)] for mi in range(nx)]
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
    base = _edge_map(select_sigma(mesh, "left"))
    j = int(rng.integers(1, len(ys)))

    # a node off its own edge
    i = int(rng.integers(0, len(xs)))
    off = dict(base)
    e = off[(i, j)]
    off[(i, j)] = SigmaEdge(e.orientation, e.span, e.level - 0.5 * np.min(np.diff(ys)), e.node_side)
    with pytest.raises(ValueError, match=re.escape(f"sigma edge for node {(i, j)} does not contain the node")):
        select_sigma(mesh, "custom", custom=off)

    # both nodes of an x-interval of a narrow macro walk outward: the patch
    # spans the one-ring, wider than three macros
    m = 1 + int(np.argmin(2 * h[1:-1] - h[:-2] - h[2:]))
    assert h[m - 1] + h[m + 1] > 2 * h[m]
    wide = dict(base)
    wide[(m + 1, j)] = SigmaEdge("horizontal", (xs[m + 1], xs[m + 2]), ys[j], "left")
    message = f"associated patch of macro ({m},{j - 1}) exceeds factor 3.0"
    assert _first_patch_violation(mesh, wide) == message
    with pytest.raises(ValueError, match=re.escape(message)):
        select_sigma(mesh, "custom", custom=wide)

    # a two-macro edge leaves the one-ring of a wide macro, within the factor
    i = 2 + int(np.argmax(2 * h[2:] - h[:-2] - h[1:-1]))
    assert h[i - 2] + h[i - 1] <= 2 * h[i]
    far = dict(base)
    far[(i, j)] = SigmaEdge("horizontal", (xs[i - 2], xs[i]), ys[j], "right")
    message = f"associated patch of macro ({i},{j - 1}) leaves its neighbourhood"
    assert _first_patch_violation(mesh, far) == message
    with pytest.raises(ValueError, match=re.escape(message)):
        select_sigma(mesh, "custom", custom=far)

    # random edits: the same verdict and first violation as the reference
    for _ in range(40):
        custom = dict(base)
        for _ in range(int(rng.integers(1, 4))):
            a, b = int(rng.integers(0, len(xs))), int(rng.integers(0, len(ys)))
            horizontal = bool(rng.integers(0, 2))
            line, k = (xs, a) if horizontal else (ys, b)
            lo = int(np.clip(k - rng.integers(0, 3), 0, len(line) - 2))
            hi = int(np.clip(max(k, lo + 1) + rng.integers(0, 3), lo + 1, len(line) - 1))
            level = ys[b] if horizontal else xs[a]
            side = "left" if line[lo] == line[k] else "right"
            custom[(a, b)] = SigmaEdge("horizontal" if horizontal else "vertical", (line[lo], line[hi]), level, side)
        message = _first_patch_violation(mesh, custom)
        if message is None:
            select_sigma(mesh, "custom", custom=custom)
        else:
            with pytest.raises(ValueError, match=re.escape(message)):
                select_sigma(mesh, "custom", custom=custom)


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
