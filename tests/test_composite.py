import csv
import gc
import re
import weakref
from collections import Counter

import numpy as np
import pytest

from macrospline import interpolation
from macrospline.cli import main
from macrospline.fields import ScalarField, _LineGrids, _Terms, make_layer_decomposition, make_polynomial_field, make_smooth_field
from macrospline.interpolation import build_composite, interp_aniso, nodal_q2
from macrospline.mesh import SigmaEdge, SigmaSelection, _bisect, _check_on_edge, _edge_row, _node_tol, build_shishkin, classify_edges, select_sigma
from macrospline.norms import gauss_rule, jump_norm_sum, seminorm


def _setup(eps=1e-6, N=16):
    mesh = build_shishkin(eps, N)
    sigma = select_sigma(mesh, "toward_corner")
    return mesh, sigma


def _value_jump_max(poly, edges, npts=7):
    X = np.linspace(edges.x0, edges.x1, npts, axis=1)
    Y = np.linspace(edges.y0, edges.y1, npts, axis=1)
    worst = 0.0
    for horizontal, hi_side in ((True, ("-", "+")), (False, ("+", "-"))):
        rows = edges.horizontal == horizontal
        lo = poly.evaluate(X[rows], Y[rows], side=("-", "-"))
        hi = poly.evaluate(X[rows], Y[rows], side=hi_side)
        worst = max(worst, float(np.max(np.abs(lo - hi), initial=0.0)))
    return worst


def test_composite_reproduces_global_q2():
    mesh, sigma = _setup()
    rng = np.random.default_rng(31)
    f = make_polynomial_field(rng.normal(size=(3, 3)))
    star = build_composite(f, mesh, sigma)
    X, Y = np.meshgrid(np.linspace(0, 1, 41), np.linspace(0, 1, 41), indexing="ij")
    assert np.max(np.abs(star.evaluate(X, Y) - f(X, Y))) < 1e-9
    # interface slopes coincide with the exact transverse derivative, so
    # the modification leaves the anisotropic interpolant untouched: on the
    # four core interface lines, at the Lagrange points of each core
    # element k along them, the normal derivative from the strip side is exact
    n4 = mesh.N // 4
    k = np.arange(n4, 3 * n4)
    gx, gy = mesh.grid_x, mesh.grid_y

    def lagrange(g):
        """(side along the line that keeps the point in element k, points) for each Lagrange point."""
        return (("+", g[k]), ("+", 0.5 * (g[k] + g[k + 1])), ("-", g[k + 1]))

    for strip, j in (("-", n4), ("+", 3 * n4)):  # a strip lies below the low interface, above the high one
        for along, x in lagrange(gx):
            y = np.full_like(x, gy[j])
            assert np.max(np.abs(star.evaluate(x, y, 0, 1, side=(along, strip)) - f(x, y, 0, 1))) < 1e-9
        for along, y in lagrange(gy):
            x = np.full_like(y, gx[j])
            assert np.max(np.abs(star.evaluate(x, y, 1, 0, side=(strip, along)) - f(x, y, 1, 0))) < 1e-9


def test_composite_continuity_all_edges():
    mesh, sigma = _setup(1e-6, 16)
    f = make_smooth_field("sin_sin")
    star = build_composite(f, mesh, sigma)
    edges = classify_edges(mesh)
    interior = edges[edges.edge_type != "boundary"]
    assert _value_jump_max(star, interior) < 1e-10


def test_composite_normal_derivative_continuous_on_II_and_IV():
    mesh, sigma = _setup(1e-6, 16)
    edges = classify_edges(mesh)
    rule = gauss_rule(4)
    for f in (make_smooth_field("sin_sin"), make_layer_decomposition(1e-6, smooth="bounded_third").total):
        star = build_composite(f, mesh, sigma)
        for t in ("II", "IV"):
            subset = edges[edges.edge_type == t]
            assert len(subset)
            assert jump_norm_sum(star, subset, rule) < 1e-10
        # types I and III do jump in general
        for t in ("I", "III"):
            subset = edges[edges.edge_type == t]
            assert jump_norm_sum(star, subset, rule) > 1e-12


def test_composite_layer_field_continuity():
    mesh, sigma = _setup(1e-8, 16)
    dec = make_layer_decomposition(1e-8, smooth="bounded_third")
    star = build_composite(dec.total, mesh, sigma)
    edges = classify_edges(mesh)
    interior = edges[edges.edge_type != "boundary"]
    assert _value_jump_max(star, interior) < 1e-10


def test_evaluate_wrapper_on_composite():
    from macrospline.interpolation import evaluate

    mesh, sigma = _setup(1e-4, 8)
    f = make_smooth_field("sin_sin")
    star = build_composite(f, mesh, sigma)
    x, y = 0.51, 0.52
    assert evaluate(star, x, y, alpha=(1, 0)) == star.evaluate(x, y, 1, 0)
    lam = mesh.lam
    lo = evaluate(star, 0.5, lam, alpha=(0, 1), side=("-", "-"))
    hi = evaluate(star, 0.5, lam, alpha=(0, 1), side=("-", "+"))
    assert abs(lo - hi) < 1e-11  # normal derivative continuous across y=lam


def _macro_windows(mesh):
    """The heterogeneous macro structure as ((ix0, ix1), (jy0, jy1), kind) element index windows:
    2x2 macros in the corner regions, element pairs in the strips, single interior elements."""
    N, n4 = mesh.N, mesh.N // 4
    fine_pairs = [(k, k + 2) for k in range(0, n4, 2)] + [(k, k + 2) for k in range(3 * n4, N, 2)]
    coarse_single = [(k, k + 1) for k in range(n4, 3 * n4)]
    for ix in fine_pairs:
        for jy in fine_pairs:
            yield ix, jy, "corner4"
    for ix in coarse_single:
        for jy in fine_pairs:
            yield ix, jy, "strip2y"
    for ix in fine_pairs:
        for jy in coarse_single:
            yield ix, jy, "strip2x"
    for ix in coarse_single:
        for jy in coarse_single:
            yield ix, jy, "single"


def test_macro_windows_tile_the_mesh():
    mesh = build_shishkin(1e-6, 16)
    # every element belongs to exactly one macro
    owned = np.zeros((16, 16), dtype=int)
    kinds = {}
    for (i0, i1), (j0, j1), kind in _macro_windows(mesh):
        owned[j0:j1, i0:i1] += 1
        kinds[kind] = kinds.get(kind, 0) + 1
    assert np.all(owned == 1)
    # 4 corner regions of 2x2 macros each, strips of 8x2, interior 8x8 singles
    assert kinds == {"corner4": 4 * 4, "strip2y": 8 * 4, "strip2x": 8 * 4, "single": 64}


def _macro_blocks(star, kinds):
    gx, gy = star.mesh.grid_x, star.mesh.grid_y
    for (i0, i1), (j0, j1), kind in _macro_windows(star.mesh):
        if kind in kinds:
            yield kind, (gx[i0], gx[i1], gy[j0], gy[j1]), star.coef[j0:j1, i0:i1]


def test_composite_interior_is_nodal_interpolant():
    mesh, sigma = _setup(1e-6, 16)
    for f in (make_smooth_field("exp_xy"), make_layer_decomposition(1e-6, smooth="bounded_third").total):
        star = build_composite(f, mesh, sigma)
        blocks = list(_macro_blocks(star, ("single",)))
        assert len(blocks) == (mesh.N // 2) ** 2
        for _, bounds, coef in blocks:
            assert np.max(np.abs(coef - nodal_q2(f, bounds).coef)) == 0.0


def test_composite_strips_away_from_the_core_are_anisotropic_interpolants():
    mesh, sigma = _setup(1e-6, 32)
    interfaces = (mesh.grid_x[mesh.N // 4], mesh.grid_x[3 * mesh.N // 4])  # lambda, 1 - lambda
    orientation = {"strip2y": "y_spline", "strip2x": "x_spline"}
    for f in (make_smooth_field("exp_xy"), make_layer_decomposition(1e-6, smooth="bounded_third").total):
        star = build_composite(f, mesh, sigma)
        checked = 0
        for kind, bounds, coef in _macro_blocks(star, orientation):
            if not any(c in interfaces for c in bounds):
                assert np.max(np.abs(coef - interp_aniso(f, bounds, orientation[kind]).coef)) == 0.0
                checked += 1
        assert checked == 4 * (mesh.N // 2 - 2) * (mesh.N // 8 - 1)


def test_composite_error_decreases_with_n():
    eps = 1e-6
    dec = make_layer_decomposition(eps, smooth="bounded_third")
    u = dec.total
    errs = []
    for N in (8, 16, 32):
        mesh = build_shishkin(eps, N)
        sigma = select_sigma(mesh, "toward_corner")
        star = build_composite(u, mesh, sigma)
        errs.append(seminorm(u, star, rule=gauss_rule(4)))
    assert errs[1] < errs[0] and errs[2] < errs[1]
    # layer terms carry log factors, so demand a bit less than order two
    assert errs[2] < 0.09 * errs[0]


# ---------------------------------------------------------------------------
# Stored factor values: the same coefficients as pointwise field calls.
# ---------------------------------------------------------------------------


def _pointwise_node_values(field, grid_x, grid_y, scheme):
    """The node values with one plain pointwise field call per derivative order on the open node grid."""
    field = field.field if isinstance(field, _LineGrids) else field
    gx, gy = np.asarray(grid_x, dtype=float), np.asarray(grid_y, dtype=float)
    x_orders, y_orders = (sorted({p for _, p in rows}) for rows in scheme[:2])
    return np.array([[np.broadcast_to(field(gx[:, None], gy[None, :], px, py), (len(gx), len(gy))) for py in y_orders] for px in x_orders])


def _sigma_selections(mesh):
    down = select_sigma(mesh, "down")
    custom = {(a, b): down.edge((a, b)) for a in down.nodes_x.tolist() for b in down.nodes_y.tolist()}
    return [select_sigma(mesh, s) for s in ("toward_corner", "left", "down")] + [select_sigma(mesh, "custom", custom=custom)]


def _composite_fields(eps, N):
    """A field without terms, a polynomial and the layer fields of every smooth part and amplitude sign."""
    fields = [make_smooth_field("exp_xy"), make_polynomial_field(np.random.default_rng(N).normal(size=(3, 3)))]
    for smooth in ("default", "bounded_third", "eps_growth"):
        for amplitude in (1.0, 10.0, -1e-3):
            fields.append(make_layer_decomposition(eps, smooth=smooth, smooth_amplitude=amplitude, edge_amplitude=amplitude).total)
    return fields


@pytest.mark.parametrize("N", [8, 16, 64])
@pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-14])
def test_composite_from_stored_factors_is_the_pointwise_composite_bit_for_bit(monkeypatch, N, eps):
    mesh = build_shishkin(eps, N)
    sigmas = _sigma_selections(mesh)
    fields = _composite_fields(eps, N)
    # every field on this mesh, the sigma strategies taken in turn
    cases = [(f, sigmas[k % len(sigmas)]) for k, f in enumerate(fields)]
    stored = [build_composite(f, mesh, sigma).coef for f, sigma in cases]
    monkeypatch.setattr(interpolation, "_node_values", _pointwise_node_values)
    for (f, sigma), coef in zip(cases, stored):
        assert np.all(coef == build_composite(f, mesh, sigma).coef)


def _per_corner_quasi_data(field, grid_x, grid_y, sigma, nodes_x, nodes_y):
    """Quasi node values of one corner with its own sigma lookup, node check and field call."""
    rows = sigma.rows(nodes_x[None, :], nodes_y[:, None])
    _check_on_edge(rows, grid_x[None, :], grid_y[:, None], nodes_x[None, :], nodes_y[:, None], _node_tol(grid_x, grid_y))
    V = interpolation._node_values(field, grid_x, grid_y, interpolation._C1)
    V[1, 1] = interpolation._sigma_averages(field, rows).T
    return V


def _per_corner_composite(field, mesh, sigma):
    """The composite with one sigma pass per corner region, as it was built before the four were merged."""
    N, n4 = mesh.N, mesh.N // 4
    gx, gy = mesh.grid_x, mesh.grid_y
    core, inner = slice(n4, 3 * n4 + 1), slice(n4, 3 * n4)
    bands = ((slice(0, n4 + 1, 2), slice(0, n4)), (slice(3 * n4, N + 1, 2), slice(3 * n4, N)))
    coef = np.zeros((N, N, 3, 3))
    u = _LineGrids(field)
    core_x, core_y = _bisect(gx[core]), _bisect(gy[core])
    band_x, band_y = [gx[lines] for lines, _ in bands], [gy[lines] for lines, _ in bands]
    V = interpolation._node_values(u, core_x, core_y, interpolation._NODAL)
    G = np.lib.stride_tricks.sliding_window_view(V[0, 0], (3, 3))[::2, ::2].transpose(1, 0, 2, 3)  # [j, i, r, c]: node (2i + r, 2j + c)
    coef[inner, inner] = interpolation._LG3.T @ G @ interpolation._LG3
    v, wx, wy = V[0, 0], np.diff(gx[core]), np.diff(gy[core])
    edge_slope = interpolation._edge_slope
    slope_x = (edge_slope(v[:3].T, wx[0]), -edge_slope(v[:-4:-1].T, wx[-1]))
    slope_y = (edge_slope(v[:, :3], wy[0]), -edge_slope(v[:, :-4:-1], wy[-1]))
    strips = ((False, core_x, band_y, slope_y, coef), (True, core_y, band_x, slope_x, coef.transpose(1, 0, 3, 2)))
    for x_spline, along, across, slopes, out in strips:
        for lines, (_, elements), j, s in zip(across, bands, (-1, 0), slopes):
            if x_spline:  # the y-strip operator on the transposed node values
                V = interpolation._node_values(u, lines, along, (interpolation._HERMITE, interpolation._LAGRANGE)).transpose(1, 0, 3, 2)
            else:
                V = interpolation._node_values(u, along, lines, interpolation._ANISO)
            V[0, 1, :, j] = s
            out[elements, inner] = interpolation._assemble(V, along, lines, interpolation._ANISO)
    nodes = np.arange(N + 1)
    for a, (xl, xe) in enumerate(bands):
        for b, (yl, ye) in enumerate(bands):
            V = _per_corner_quasi_data(u, band_x[a], band_y[b], sigma, nodes[xl], nodes[yl])
            i, j = a - 1, b - 1
            V[1, 0, i, j], V[0, 1, i, j] = slope_x[a][-b], slope_y[b][-a]
            coef[ye, xe] = interpolation._assemble(V, band_x[a], band_y[b], interpolation._C1)
    return coef


@pytest.mark.parametrize("N", [8, 16, 64])
@pytest.mark.parametrize("eps", [1e-4, 1e-8, 1e-14])
def test_one_sigma_pass_for_all_corners_is_the_per_corner_composite_bit_for_bit(N, eps):
    mesh = build_shishkin(eps, N)
    for sigma in _sigma_selections(mesh):
        for f in _composite_fields(eps, N):
            assert build_composite(f, mesh, sigma).coef.tobytes() == _per_corner_composite(f, mesh, sigma).tobytes()


@pytest.mark.parametrize("N", [40, 48, 56])
def test_composite_does_not_depend_on_the_block_size(monkeypatch, N):
    # 5 to 7 macro rows per corner and strip, N/2 element rows in the
    # core: blocks of one row, and of several with a ragged last one in
    # every part, give the coefficients of one block bit for bit.
    mesh = build_shishkin(1e-6, N)
    sigmas = _sigma_selections(mesh)
    cases = [(f, sigmas[k % len(sigmas)]) for k, f in enumerate(_composite_fields(1e-6, N))]
    monkeypatch.setattr(interpolation, "_BLOCK_VALUES", 2**62)
    whole = [build_composite(f, mesh, sigma).coef for f, sigma in cases]
    for block in (1, 2**8, 2**9, 2**10, 2**11):
        monkeypatch.setattr(interpolation, "_BLOCK_VALUES", block)
        for (f, sigma), coef in zip(cases, whole):
            assert np.array_equal(build_composite(f, mesh, sigma).coef, coef)


def _unverified(sigma, broken):
    """``sigma`` with the edges of the nodes in ``broken`` replaced, not checked by ``select_sigma``."""
    edges = sigma.edges.copy()
    for node, edge in broken.items():
        edges[sigma.nodes_x.tolist().index(node[0]) * len(sigma.nodes_y) + sigma.nodes_y.tolist().index(node[1])] = _edge_row(edge, node)
    return SigmaSelection(sigma.nodes_x, sigma.nodes_y, edges)


@pytest.mark.parametrize("node", [(16, 16), (14, 12), (12, 14)])
def test_an_edge_missing_its_node_in_the_high_high_corner_is_named(node):
    mesh, sigma = _setup(1e-6, 16)
    good = sigma.edge(node)
    moved = SigmaEdge(good.orientation, good.span, good.level - 0.25, good.node_side)
    with pytest.raises(ValueError, match=re.escape(f"sigma edge for node {node} does not contain the node")):
        build_composite(make_smooth_field("exp_xy"), mesh, _unverified(sigma, {node: moved}))


def test_the_merged_node_check_names_the_first_failing_node_with_y_outer():
    # (16, 0) is in the low-y row of the merged corner node grid and (0, 16)
    # in the high-y row, so (16, 0) is named although its corner is not the first.
    mesh, sigma = _setup(1e-6, 16)
    edges = {node: sigma.edge(node) for node in ((0, 16), (16, 0))}
    broken = {node: SigmaEdge(e.orientation, e.span, 0.5, e.node_side) for node, e in edges.items()}
    with pytest.raises(ValueError, match=re.escape("sigma edge for node (16, 0) does not contain the node")):
        build_composite(make_smooth_field("exp_xy"), mesh, _unverified(sigma, broken))


@pytest.mark.parametrize("node", [(0, 0), (14, 2), (0, 14), (16, 14)])
def test_an_infinite_edge_end_in_any_corner_is_rejected(node):
    # each node here is the lower end of its edge, so the node check passes
    mesh, sigma = _setup(1e-6, 16)
    good = sigma.edge(node)
    assert good.node_side == "left"
    infinite = SigmaEdge(good.orientation, (good.span[0], np.inf), good.level, "left")
    with pytest.raises(ValueError, match="^sigma edge span and level must be finite$"):
        build_composite(make_smooth_field("exp_xy"), mesh, _unverified(sigma, {node: infinite}))


@pytest.mark.parametrize("node", [(0, 0), (16, 2), (2, 14), (12, 16)])
def test_a_degenerate_edge_in_any_corner_is_rejected(node):
    mesh = build_shishkin(1e-6, 16)
    down = select_sigma(mesh, "down")
    custom = {(a, b): down.edge((a, b)) for a in down.nodes_x.tolist() for b in down.nodes_y.tolist()}
    x = mesh.grid_x[node[0]]
    custom[node] = SigmaEdge("horizontal", (x, x), mesh.grid_y[node[1]], "left")
    sigma = select_sigma(mesh, "custom", custom=custom)  # on its own node, inside its corner
    with pytest.raises(ValueError, match="degenerate edge interval"):
        build_composite(make_smooth_field("exp_xy"), mesh, sigma)


def _counted_layer_field(calls, points):
    """The sweep's layer field with each distinct 1-D factor of each axis counting its calls in ``calls``
    and the points it is evaluated at in ``points``, keyed (axis, factor)."""
    total = make_layer_decomposition(1e-6, smooth="bounded_third", smooth_amplitude=10.0, edge_amplitude=0.05).total

    def counted(key):
        return lambda t, order: calls.update([key]) or points.update({key: np.size(t)}) or key[1](t, order)

    wrapped = [{f: counted((axis, f)) for f in {term[1 + axis] for term in total.terms}} for axis in (0, 1)]
    return total, ScalarField("counted", _Terms((c, wrapped[0][fx], wrapped[1][fy]) for c, fx, fy in total.terms))


def _sigma_points(mesh, sigma):
    """Per axis, the distinct spans along it times the Gauss points per span plus the distinct levels across it."""
    rows = sigma.edges
    bound = []
    for along in (rows["horizontal"], ~rows["horizontal"]):
        spans = set(zip(rows["lo"][along].tolist(), rows["hi"][along].tolist()))
        bound.append(len(spans) * len(interpolation._SIGMA_T) + len(np.unique(rows["level"][~along])))
    return bound


@pytest.mark.parametrize("N", [8, 64])
def test_a_shishkin_point_evaluates_each_factor_once_per_line_set_and_order(N):
    # 5 distinct factors per axis.  Stored per axis: the bisected core lines
    # at order 0 and the two bands' macro lines at orders 0 and 1, so
    # 5 * 5 * 2 = 50 evaluations for the 25 gathers, plus 10 for the one
    # sigma pass of all four corners: 60 in all, where 29 pointwise calls of
    # 10 evaluations each made 290.  The sigma pass evaluates each factor
    # at no more points than the Gauss points of the distinct spans along
    # its axis and the distinct levels across it.
    calls, points = Counter(), Counter()
    total, counted = _counted_layer_field(calls, points)
    mesh, sigma = _setup(1e-6, N)
    coef = build_composite(counted, mesh, sigma).coef
    assert sum(calls.values()) == 60
    assert np.all(coef == build_composite(total, mesh, sigma).coef)
    calls.clear(), points.clear()
    interpolation._node_averages(counted, mesh, sigma)
    assert len(calls) == 10 and set(calls.values()) == {1}
    for axis, bound in enumerate(_sigma_points(mesh, sigma)):
        assert all(n <= bound for (a, _), n in points.items() if a == axis)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_no_stored_value_outlives_its_composite(tmp_path):
    # The (1e-6, 16) point reads the same with or without other points run
    # before it.  The order columns compare a row with the previous N of its
    # eps, so they are empty when N = 16 runs alone, and are left out.
    together, alone = tmp_path / "together.csv", tmp_path / "alone.csv"
    assert main(["shishkin", "--N", "8", "16", "--eps", "1e-4", "1e-6", "--out", str(together), "--format", "csv"]) == 0
    assert main(["shishkin", "--N", "16", "--eps", "1e-6", "--out", str(alone), "--format", "csv"]) == 0
    [row] = [r for r in _csv_rows(together) if (float(r["eps"]), int(r["N"])) == (1e-6, 16)]
    [single] = _csv_rows(alone)
    assert (float(single["eps"]), int(single["N"])) == (1e-6, 16)
    same = [k for k in row if not k.startswith("order_")]
    assert len(same) == len(row) - 2
    assert [row[k] for k in same] == [single[k] for k in same]


def test_the_stored_factor_values_die_with_their_composite():
    # The stored values keep their line arrays, views of the mesh grid, alive;
    # once build_composite returns, nothing may hold them.
    mesh, sigma = _setup(1e-6, 8)
    grid_x = weakref.ref(mesh.grid_x)
    build_composite(make_layer_decomposition(1e-6, smooth="bounded_third").total, mesh, sigma)
    del mesh, sigma
    gc.collect()
    assert grid_x() is None
