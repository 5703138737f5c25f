import numpy as np

from macrospline.fields import make_layer_decomposition, make_polynomial_field, make_smooth_field
from macrospline.interpolation import build_composite, interp_aniso, nodal_q2
from macrospline.mesh import build_shishkin, classify_edges, select_sigma
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
