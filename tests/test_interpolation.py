import json
import re

import numpy as np
import pytest

from macrospline.fields import (
    ScalarField,
    get_field,
    make_polynomial_field,
    make_smooth_field,
)
from macrospline.interpolation import (
    _ANISO,
    _BFS,
    _C1,
    _CUBIC,
    _HB,
    _LG3,
    _NODAL,
    PiecewisePoly2D,
    _assemble,
    _derivative_basis,
    assemble_from_nodal_data,
    build_composite,
    interp_aniso,
    interp_aniso_mesh,
    interp_bfs,
    interp_bfs_mesh,
    interp_full,
    interp_full_macro,
    interp_reduced,
    interp_reduced_macro,
    nodal_q2,
    nodal_q2_mesh,
    quasi_interp,
)
from macrospline.mesh import build_macro_mesh, build_shishkin, select_sigma
from macrospline.spline_core import HERMITE_DD_MATRIX

REF = (-1.0, 1.0, -1.0, 1.0)


def _sample(n=9, lo=-1.0, hi=1.0):
    x = np.linspace(lo, hi, n)
    return np.meshgrid(x, x, indexing="ij")


def _max_diff(p, field, macro, ax=0, ay=0, n=9):
    x0, x1, y0, y1 = macro
    X, Y = np.meshgrid(np.linspace(x0, x1, n), np.linspace(y0, y1, n), indexing="ij")
    return float(np.max(np.abs(p.evaluate(X, Y, ax, ay) - field(X, Y, ax, ay))))


def test_full_macro_reproduces_q2_random():
    rng = np.random.default_rng(42)
    for aspect in (1.0, 1e3, 1e6):
        for _ in range(50 // 3 + 1):
            f = make_polynomial_field(rng.normal(size=(3, 3)))
            macro = (0.0, 1.0, 0.0, 1.0 / aspect)
            p = interp_full_macro(f, macro)
            scale = max(1.0, np.max(np.abs(p.coef)))
            assert _max_diff(p, f, macro) < 1e-9 * scale


def test_full_macro_reproduces_low_degree_monomials():
    # every monomial of total degree < 3
    for i, j in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        c = np.zeros((3, 3))
        c[i, j] = 1.0
        f = make_polynomial_field(c)
        p = interp_full_macro(f, REF)
        assert _max_diff(p, f, REF) < 1e-13


def test_full_macro_x3_matches_functionals_not_function():
    f = make_polynomial_field([[0.0], [0.0], [0.0], [1.0]])  # x^3
    p = interp_full_macro(f, REF)
    # the 16 corner functionals agree ...
    for x in (-1.0, 1.0):
        for y in (-1.0, 1.0):
            sx = "-" if x > 0 else "+"
            sy = "-" if y > 0 else "+"
            for ax, ay in ((0, 0), (1, 0), (0, 1), (1, 1)):
                got = p.evaluate(x, y, ax, ay, side=(sx, sy))
                assert got == pytest.approx(f(x, y, ax, ay), abs=1e-12)
    # ... but the function is not reproduced
    assert _max_diff(p, f, REF) > 0.05


def test_full_macro_newton_equals_lagrange():
    rng = np.random.default_rng(1)
    for _ in range(100):
        f = make_polynomial_field(rng.normal(size=(4, 4)))
        macro = (0.0, rng.uniform(0.5, 2.0), 0.0, rng.uniform(0.5, 2.0))
        pl = interp_full_macro(f, macro, assembly="lagrange")
        pn = interp_full_macro(f, macro, assembly="newton")
        assert np.max(np.abs(pl.coef - pn.coef)) < 1e-12 * max(1.0, np.max(np.abs(pl.coef)))


def test_full_macro_c1_across_knot_lines():
    f = make_smooth_field("sin_sin")
    macro = (0.1, 0.9, 0.2, 0.7)
    p = interp_full_macro(f, macro)
    xm, ym = 0.5, 0.45
    ts = np.linspace(0.2, 0.7, 100)
    for ax, ay in ((0, 0), (1, 0), (0, 1)):
        left = p.evaluate(np.full_like(ts, xm), ts, ax, ay, side=("-", "-"))
        right = p.evaluate(np.full_like(ts, xm), ts, ax, ay, side=("+", "-"))
        assert np.max(np.abs(left - right)) < 1e-10
    ts = np.linspace(0.1, 0.9, 100)
    for ax, ay in ((0, 0), (1, 0), (0, 1)):
        below = p.evaluate(ts, np.full_like(ts, ym), ax, ay, side=("-", "-"))
        above = p.evaluate(ts, np.full_like(ts, ym), ax, ay, side=("-", "+"))
        assert np.max(np.abs(below - above)) < 1e-10


def test_duality_kronecker_table():
    # 16x16 pairing of corner functionals with the nodal basis functions
    from macrospline.interpolation import assemble_from_nodal_data

    mesh = build_macro_mesh([-1.0, 1.0], [-1.0, 1.0])
    dof_kinds = ((0, 0), (1, 0), (0, 1), (1, 1))
    for kind in range(4):
        for i in (0, 1):
            for j in (0, 1):
                dofs = {(a, b): [0.0] * 4 for a in (0, 1) for b in (0, 1)}
                dofs[(i, j)][kind] = 1.0
                dofs = {k: tuple(v) for k, v in dofs.items()}
                p = assemble_from_nodal_data(mesh, dofs)
                for wkind, (ax, ay) in enumerate(dof_kinds):
                    for a in (0, 1):
                        for b in (0, 1):
                            x, y = 2 * a - 1.0, 2 * b - 1.0
                            sx = "-" if a == 1 else "+"
                            sy = "-" if b == 1 else "+"
                            got = p.evaluate(x, y, ax, ay, side=(sx, sy))
                            want = 1.0 if (wkind == kind and (a, b) == (i, j)) else 0.0
                            assert got == pytest.approx(want, abs=1e-12)


def test_reduced_macro_preserves_separable_quadratics():
    for c in ([[0.0, 0.0], [1.0, 0.0]], [[0.0], [0.0], [1.0]], [[0.0, 1.0]], [[0.0, 0.0, 1.0]], [[7.0]]):
        f = make_polynomial_field(c)
        p = interp_reduced_macro(f, (0.2, 0.8, 0.1, 0.9))
        assert _max_diff(p, f, (0.2, 0.8, 0.1, 0.9)) < 1e-13


def test_reduced_macro_equals_full_with_psi_dropped():
    f = make_smooth_field("exp_xy")
    macro = (0.0, 0.5, 0.0, 0.25)
    pr = interp_reduced_macro(f, macro)
    zeroed = ScalarField("z", lambda x, y, ax, ay: 0.0 if (ax == 1 and ay == 1) else f(x, y, ax, ay))
    pf = interp_full_macro(zeroed, macro)
    assert np.max(np.abs(pr.coef - pf.coef)) < 1e-14


def test_reduced_macro_xy_residual_matches_direct_assembly():
    f = make_polynomial_field([[0.0, 0.0], [0.0, 1.0]])  # xy
    p = interp_reduced_macro(f, REF)
    # direct residual: xy - (reduced interpolant) = product of the two
    # one-dimensional slope-basis sums, with unit mixed derivative
    def w(t):
        return t * (np.abs(t) - 1.0)

    X, Y = _sample(17)
    resid = f(X, Y) - p.evaluate(X, Y)
    assert np.max(np.abs(resid - w(X) * w(Y))) < 1e-13
    dresid = f(X, Y, 1, 0) - p.evaluate(X, Y, 1, 0)
    # x-derivative residual is w'(x) w(y), sup 1/4: genuinely nonzero
    assert np.max(np.abs(dresid)) == pytest.approx(0.25, abs=1e-13)


def test_bfs_reproduces_cubics():
    rng = np.random.default_rng(9)
    for i in range(4):
        for j in range(4 - i):
            c = np.zeros((4, 4))
            c[i, j] = 1.0
            f = make_polynomial_field(c)
            p = interp_bfs(f, (0.0, 2.0, 0.0, 0.5))
            assert _max_diff(p, f, (0.0, 2.0, 0.0, 0.5)) < 1e-12


def test_bfs_reproduces_full_tensor_cubics():
    # the 16 Hermite functionals determine the bicubic space exactly, so
    # x^3 y^3 is reproduced despite its total degree exceeding three
    f = get_field("x3y3")
    p = interp_bfs(f, REF)
    assert _max_diff(p, f, REF) < 1e-12


def test_bfs_x4_matches_functionals_only():
    f = make_polynomial_field([[0.0], [0.0], [0.0], [0.0], [1.0]])  # x^4
    p = interp_bfs(f, REF)
    for x in (-1.0, 1.0):
        for y in (-1.0, 1.0):
            for ax, ay in ((0, 0), (1, 0), (0, 1), (1, 1)):
                assert p.evaluate(x, y, ax, ay) == pytest.approx(f(x, y, ax, ay), abs=1e-12)
    assert _max_diff(p, f, REF) > 1e-2


def test_nodal_q2_matches_nodes():
    f = make_smooth_field("sin_sin")
    el = (0.25, 0.75, 0.5, 1.0)
    p = nodal_q2(f, el)
    for x in np.linspace(el[0], el[1], 3):
        for y in np.linspace(el[2], el[3], 3):
            assert p.evaluate(x, y) == pytest.approx(f(x, y), abs=1e-13)
    # biquadratic reproduction
    g = make_polynomial_field(np.arange(9.0).reshape(3, 3))
    assert _max_diff(nodal_q2(g, el), g, el) < 1e-12


def test_nodal_q2_x3_center_residual():
    f = make_polynomial_field([[0.0], [0.0], [0.0], [1.0]])
    el = (0.0, 1.0, 0.0, 1.0)
    p = nodal_q2(f, el)
    # direct Lagrange assembly of x^3 on nodes {0, 1/2, 1}: value at 1/4
    # p(1/4) interpolates 0, 1/8, 1 quadratically -> 3/32 - 1/16... compute directly
    xs = np.array([0.0, 0.5, 1.0])
    vals = xs**3
    coef = np.polyfit(xs, vals, 2)
    expected = np.polyval(coef, 0.25)
    assert p.evaluate(0.25, 0.3) == pytest.approx(expected, abs=1e-13)


def test_aniso_reproduces_q2():
    rng = np.random.default_rng(4)
    for orientation in ("y_spline", "x_spline"):
        f = make_polynomial_field(rng.normal(size=(3, 3)))
        macro = (0.0, 1.0, 0.0, 0.01) if orientation == "y_spline" else (0.0, 0.01, 0.0, 1.0)
        p = interp_aniso(f, macro, orientation)
        assert _max_diff(p, f, macro) < 1e-11


def test_aniso_newton_equals_lagrange():
    rng = np.random.default_rng(14)
    for _ in range(50):
        f = make_polynomial_field(rng.normal(size=(4, 4)))
        macro = (0.0, rng.uniform(0.5, 2.0), 0.0, rng.uniform(0.1, 1.0))
        pl = interp_aniso(f, macro, "y_spline", assembly="lagrange")
        pn = interp_aniso(f, macro, "y_spline", assembly="newton")
        assert np.max(np.abs(pl.coef - pn.coef)) < 1e-12 * max(1.0, np.max(np.abs(pl.coef)))


def test_aniso_long_edge_traces():
    f = make_smooth_field("exp_xy")
    macro = (0.0, 1.0, 0.0, 0.1)
    p = interp_aniso(f, macro, "y_spline")
    xs = np.linspace(0.0, 1.0, 33)
    # restriction to a long edge is the 1D quadratic Lagrange interpolant
    nodes = np.array([0.0, 0.5, 1.0])
    for y in (0.0, 0.1):
        vals = f(nodes, np.full_like(nodes, y))
        quad = np.polyfit(nodes, vals, 2)
        assert np.max(np.abs(p.evaluate(xs, np.full_like(xs, y)) - np.polyval(quad, xs))) < 1e-12
    # normal derivative along a long edge is the quadratic through the
    # three edge derivative values
    for y in (0.0, 0.1):
        dvals = f(nodes, np.full_like(nodes, y), 0, 1)
        quad = np.polyfit(nodes, dvals, 2)
        got = p.evaluate(xs, np.full_like(xs, y), 0, 1)
        assert np.max(np.abs(got - np.polyval(quad, xs))) < 1e-11


def test_aniso_stability_bound():
    rng = np.random.default_rng(23)
    macro = (0.0, 1.0, 0.0, 0.05)
    xs = np.linspace(0, 1, 40)
    ys = np.linspace(0, 0.05, 25)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    for _ in range(20):
        f = make_polynomial_field(rng.normal(size=(4, 4)))
        p = interp_aniso(f, macro, "y_spline")
        sup_u = np.max(np.abs(f(X, Y)))
        sup_un = np.max(np.abs(f(X, Y, 0, 1)))
        sup_p = np.max(np.abs(p.evaluate(X, Y)))
        assert sup_p <= 4.0 * (sup_u + 0.05 * sup_un)


def test_aniso_y_only_field_independent_of_width():
    from macrospline.fields import separable_field, sin_profile

    def one(t, order):
        t = np.asarray(t, dtype=float)
        return np.ones_like(t) if order == 0 else np.zeros_like(t)

    g = separable_field("gy", one, sin_profile(freq=2.0, shift=0.3))
    pa = interp_aniso(g, (0.0, 1.0, 0.0, 0.2), "y_spline")
    pb = interp_aniso(g, (0.0, 100.0, 0.0, 0.2), "y_spline")
    assert np.max(np.abs(pa.coef - pb.coef)) < 1e-12
    # reduced operator on a four-element macro gives per-element grids with
    # the same y-coefficients
    pr_a = interp_reduced_macro(g, (0.0, 1.0, 0.0, 0.2))
    pr_b = interp_reduced_macro(g, (0.0, 100.0, 0.0, 0.2))
    assert np.max(np.abs(pr_a.coef - pr_b.coef)) < 1e-12
    # x-constant columns agree with the two-element operator
    assert np.max(np.abs(pr_a.coef[0, 0][0, :] - pa.coef[0, 0][0, :])) < 1e-12
    assert np.max(np.abs(pr_a.coef[:, :, 1:, :])) < 1e-12


# mesh-level operator on cell grids (gx, gy), and its per-macro oracle
MESH_OPERATORS = {
    "full": (lambda f, gx, gy: interp_full(f, build_macro_mesh(gx, gy)), interp_full_macro),
    "reduced": (lambda f, gx, gy: interp_reduced(f, build_macro_mesh(gx, gy)), interp_reduced_macro),
    "bfs": (interp_bfs_mesh, interp_bfs),
    "nodal": (nodal_q2_mesh, nodal_q2),
    "aniso_y": (lambda f, gx, gy: interp_aniso_mesh(f, gx, gy, "y_spline"), lambda f, b: interp_aniso(f, b, "y_spline")),
    "aniso_x": (lambda f, gx, gy: interp_aniso_mesh(f, gy, gx, "x_spline"), lambda f, b: interp_aniso(f, b, "x_spline")),
}


@pytest.mark.parametrize("name", sorted(MESH_OPERATORS))
def test_mesh_driver_matches_macro_blocks(name):
    build, oracle = MESH_OPERATORS[name]
    rng = np.random.default_rng(11)
    gx = np.cumsum(np.r_[0.0, rng.uniform(0.05, 1.0, 6)])
    gy = np.cumsum(np.r_[0.0, rng.uniform(0.05, 1.0, 5)]) / 3.0
    for f in (make_smooth_field("exp_xy"), make_smooth_field("runge"), get_field("q2_random")):
        p = build(f, gx, gy)
        for i in range(len(gx) - 1):
            for j in range(len(gy) - 1):
                block = oracle(f, (gx[i], gx[i + 1], gy[j], gy[j + 1])).coef
                by, bx = block.shape[:2]
                assert np.max(np.abs(p.coef[by * j : by * (j + 1), bx * i : bx * (i + 1)] - block)) == 0.0


def test_evaluate_domain_error():
    f = make_smooth_field("sin_sin")
    p = interp_full_macro(f, (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        p.evaluate(1.5, 0.5)
    # each axis against its grid, 1e-12 of slack, NaN outside, empty inside
    p = PiecewisePoly2D([0.0, 0.5, 1.0], [-1.0, 2.0], np.ones((1, 2, 3, 3)))
    for x, y, axis in ((1.0 + 2e-12, 0.5, "x"), (-2e-12, 0.5, "x"), (0.5, 2.0 + 1e-11, "y"), (0.5, -1.1, "y"), (2.0, 3.0, "x")):
        with pytest.raises(ValueError, match=f"^{axis} outside the mesh domain$"):
            p.evaluate(x, y)
        with pytest.raises(ValueError, match=f"^{axis} outside the mesh domain$"):
            p.evaluate(np.array([0.5, x, 0.25]), np.array([0.0, y, 1.0]))
    for x, y in ((1.0 + 5e-13, 0.5), (-5e-13, 2.0 + 5e-13), (0.5, -1.0 - 5e-13)):
        assert isinstance(p.evaluate(x, y), float)
    for x, y, axis in ((np.nan, 0.5, "x"), (0.5, np.nan, "y"), ([0.5, np.nan], [0.0, 0.0], "x"), (0.5, [0.0, np.nan], "y")):
        with pytest.raises(ValueError, match=f"^{axis} outside the mesh domain$"):
            p.evaluate(x, y)
    for x, y, shape in (([], [], (0,)), (np.empty((0, 3)), 0.5, (0, 3)), (np.empty(0), np.empty((2, 0)), (2, 0))):
        got = p.evaluate(x, y, 1, 0)
        assert isinstance(got, np.ndarray) and got.shape == shape
    assert isinstance(p.evaluate(0.25, 0.5, 2, 1, side=("+", "-")), float)


def _evaluate_before(poly, x, y, ax=0, ay=0, side=("-", "-")):
    """``PiecewisePoly2D.evaluate`` with its earlier domain tests (``np.any``) and cell clamp (``np.clip``)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xb, yb = np.broadcast_arrays(x, y)
    if np.any(xb < poly.grid_x[0] - 1e-12) or np.any(xb > poly.grid_x[-1] + 1e-12):
        raise ValueError("x outside the mesh domain")
    if np.any(yb < poly.grid_y[0] - 1e-12) or np.any(yb > poly.grid_y[-1] + 1e-12):
        raise ValueError("y outside the mesh domain")
    flat_x, flat_y = xb.ravel(), yb.ravel()
    ix = np.clip(np.searchsorted(poly.grid_x, flat_x, side="left" if side[0] == "-" else "right") - 1, 0, len(poly.grid_x) - 2)
    jy = np.clip(np.searchsorted(poly.grid_y, flat_y, side="left" if side[1] == "-" else "right") - 1, 0, len(poly.grid_y) - 2)
    wx = poly.grid_x[ix + 1] - poly.grid_x[ix]
    wy = poly.grid_y[jy + 1] - poly.grid_y[jy]
    xi = (2.0 * flat_x - poly.grid_x[ix] - poly.grid_x[ix + 1]) / wx
    eta = (2.0 * flat_y - poly.grid_y[jy] - poly.grid_y[jy + 1]) / wy
    cells = poly.coef[jy, ix]
    out = np.einsum("pk,pkl,pl->p", _derivative_basis(xi, cells.shape[1], ax), cells, _derivative_basis(eta, cells.shape[2], ay))
    out *= (2.0 / wx) ** ax * (2.0 / wy) ** ay
    out = out.reshape(xb.shape)
    return out if out.ndim else float(out)


def test_evaluate_is_bit_identical_to_the_earlier_scalar_and_array_path():
    rng = np.random.default_rng(23)
    gx = np.cumsum(np.r_[0.0, rng.uniform(0.01, 1.0, 5)])
    gy = np.cumsum(np.r_[0.0, rng.uniform(1e-4, 1.0, 4)]) - 0.7
    poly = PiecewisePoly2D(gx, gy, rng.normal(size=(4, 5, 3, 4)))
    on_x, on_y = np.meshgrid(gx, gy, indexing="ij")
    xs = np.r_[rng.uniform(gx[0], gx[-1], 30), on_x.ravel(), gx[0] - 5e-13, gx[-1] + 5e-13]
    ys = np.r_[rng.uniform(gy[0], gy[-1], 30), on_y.ravel(), gy[-1], gy[0]]
    for ax in range(3):
        for ay in range(3):
            for side in (("-", "-"), ("-", "+"), ("+", "-"), ("+", "+")):
                assert np.array_equal(poly.evaluate(xs, ys, ax, ay, side=side), _evaluate_before(poly, xs, ys, ax, ay, side))
                for x, y in zip(xs[::3], ys[::3]):
                    got = poly.evaluate(x, y, ax, ay, side=side)
                    assert isinstance(got, float) and got == _evaluate_before(poly, x, y, ax, ay, side)


def test_degenerate_macro_rejected():
    f = make_smooth_field("sin_sin")
    with pytest.raises(ValueError):
        interp_full_macro(f, (0.0, 0.0, 0.0, 1.0))
    # mesh level: a non-increasing grid
    for build in (interp_bfs_mesh, nodal_q2_mesh, interp_aniso_mesh):
        for gx, gy in (([0.0, 0.5, 0.5, 1.0], [0.0, 1.0]), ([0.0, 1.0], [0.0, 0.7, 0.3, 1.0])):
            with pytest.raises(ValueError, match="degenerate"):
                build(f, gx, gy)


def test_an_unknown_anisotropic_orientation_or_assembly_is_rejected():
    f = make_smooth_field("sin_sin")
    grid = np.linspace(0.0, 1.0, 3)
    for orientation in ("z_spline", "x", ""):
        with pytest.raises(ValueError, match="^orientation must be 'y_spline' or 'x_spline'$"):
            interp_aniso_mesh(f, grid, grid, orientation)
        with pytest.raises(ValueError, match="^orientation must be 'y_spline' or 'x_spline'$"):
            interp_aniso(f, (0.0, 1.0, 0.0, 1.0), orientation)
    for orientation in ("y_spline", "x_spline"):
        with pytest.raises(ValueError, match="^assembly must be 'lagrange' or 'newton'$"):
            interp_aniso(f, (0.0, 1.0, 0.0, 1.0), orientation, assembly="lagrnge")


def test_poly_json_roundtrip():
    f = make_smooth_field("exp_xy")
    p = interp_full_macro(f, (0.0, 1.0, 0.0, 1.0))
    q = PiecewisePoly2D.from_json(p.to_json())
    assert np.array_equal(q.coef, p.coef)
    rows = list(p.to_csv_rows())
    assert len(rows) == 2 * 2 * 3 * 3


def _evaluate_per_element(poly, x, y, ax=0, ay=0, side=("-", "-")):
    """Reference D^(ax,ay) in extended precision, one ``polyval2d`` call of the differentiated
    coefficients per occupied element, and the sum of the magnitudes of its terms."""
    ld = np.longdouble
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    flat_x, flat_y = xb.ravel(), yb.ravel()
    ix = poly._locate(poly.grid_x, flat_x, side[0])
    jy = poly._locate(poly.grid_y, flat_y, side[1])
    c = np.polynomial.polynomial.polyder(np.polynomial.polynomial.polyder(poly.coef.astype(ld), ax, axis=2), ay, axis=3)
    wx = poly.grid_x[ix + 1] - poly.grid_x[ix]
    wy = poly.grid_y[jy + 1] - poly.grid_y[jy]
    xi = ((2.0 * flat_x - poly.grid_x[ix] - poly.grid_x[ix + 1]) / wx).astype(ld)
    eta = ((2.0 * flat_y - poly.grid_y[jy] - poly.grid_y[jy + 1]) / wy).astype(ld)
    out, magnitude = np.empty(xi.shape, ld), np.empty(xi.shape, ld)
    for key in np.unique(jy * (len(poly.grid_x) - 1) + ix):
        sel = np.flatnonzero(jy * (len(poly.grid_x) - 1) + ix == key)
        cell = c[jy[sel[0]], ix[sel[0]]]
        out[sel] = np.polynomial.polynomial.polyval2d(xi[sel], eta[sel], cell)
        magnitude[sel] = np.polynomial.polynomial.polyval2d(np.abs(xi[sel]), np.abs(eta[sel]), np.abs(cell))
    scale = (ld(2) / wx.astype(ld)) ** ax * (ld(2) / wy.astype(ld)) ** ay
    return (out * scale).reshape(xb.shape), (magnitude * scale).astype(float).reshape(xb.shape)


@pytest.mark.parametrize("degree", [(2, 2), (3, 3), (2, 3)])
def test_evaluate_matches_per_element_polyval2d(degree):
    # Within (kx ky + 2) eps sum|terms| of an extended-precision polyval2d
    # of the differentiated coefficients; the worst case measured is about
    # 3 eps sum|terms|.
    rng = np.random.default_rng(sum(degree))
    eps = np.finfo(float).eps
    for _ in range(2):
        gx = np.cumsum(np.r_[0.0, rng.uniform(0.01, 1.0, 7)])
        gy = np.cumsum(np.r_[0.0, rng.uniform(1e-4, 1.0, 5)]) / 3.0
        poly = PiecewisePoly2D(gx, gy, rng.normal(size=(5, 7, degree[0] + 1, degree[1] + 1)))
        bound = ((degree[0] + 1) * (degree[1] + 1) + 2) * eps
        inner_x = rng.uniform(gx[0], gx[-1], 40)
        inner_y = rng.uniform(gy[0], gy[-1], 40)
        corners_x, corners_y = np.meshgrid(gx, gy, indexing="ij")  # every node, the domain corners among them
        xs = np.r_[inner_x, gx, inner_x[: len(gy)], corners_x.ravel()]
        ys = np.r_[inner_y, inner_y[: len(gx)], gy, corners_y.ravel()]
        for ax in range(3):
            for ay in range(3):
                for side in (("-", "-"), ("-", "+"), ("+", "-"), ("+", "+")):
                    for x, y in ((xs, ys), (xs[:36].reshape(6, 6), ys[:36].reshape(6, 6)), (xs[:, None], gy[None, :])):
                        got = poly.evaluate(x, y, ax, ay, side=side)
                        reference, magnitude = _evaluate_per_element(poly, x, y, ax, ay, side)
                        assert got.shape == np.broadcast(x, y).shape
                        assert np.all(np.abs(got - reference) <= bound * magnitude)
                    for x, y in ((gx[-1], gy[0]), (inner_x[0], gy[2]), (gx[3], inner_y[1])):
                        got = poly.evaluate(x, y, ax, ay, side=side)
                        reference, magnitude = _evaluate_per_element(poly, x, y, ax, ay, side)
                        assert isinstance(got, float)
                        assert abs(got - reference) <= bound * magnitude


def test_evaluate_repeated_and_interleaved_calls_agree():
    # Repeated and interleaved calls give the values of a fresh polynomial per call.
    rng = np.random.default_rng(17)
    gx = np.cumsum(np.r_[0.0, rng.uniform(0.01, 1.0, 6)])
    gy = np.cumsum(np.r_[0.0, rng.uniform(1e-4, 1.0, 4)])
    coef = rng.normal(size=(4, 6, 3, 4))
    xs, ys = rng.uniform(gx[0], gx[-1], 50), rng.uniform(gy[0], gy[-1], 50)
    alphas = [(0, 0), (1, 0), (2, 1), (1, 0), (0, 3), (0, 0), (2, 1), (3, 2), (1, 0)]
    fresh = {a: PiecewisePoly2D(gx, gy, coef).evaluate(xs, ys, *a, side=("+", "-")) for a in alphas}
    poly = PiecewisePoly2D(gx, gy, coef)
    for _ in range(2):
        for a in alphas:
            assert np.array_equal(poly.evaluate(xs, ys, *a, side=("+", "-")), fresh[a])


def test_evaluate_rejects_an_unknown_side():
    poly = PiecewisePoly2D([0.0, 0.5, 1.0], [0.0, 1.0], np.ones((1, 2, 3, 3)))
    for side in (("x", "-"), ("-", "x"), ("+", ""), ("left", "+")):
        with pytest.raises(ValueError, match="side entries must be '-' or '\\+'"):
            poly.evaluate(0.5, 0.5, 0, 0, side=side)


def test_malformed_json_polynomials_are_rejected():
    good = {"schema": "macrospline-poly/1", "grid_x": [0.0, 0.5, 1.0], "grid_y": [0.0, 1.0], "coef": np.ones((1, 2, 3, 3)).tolist()}
    assert PiecewisePoly2D.from_json(json.dumps(good)).degree == (2, 2)
    bad = [
        ("grid_x must be 1-D and strictly increasing", {"grid_x": [1.0, 0.5, 0.0]}),
        ("grid_x must be 1-D and strictly increasing", {"grid_x": [0.0, float("nan"), 1.0]}),
        ("grid_x must be 1-D", {"grid_x": [[0.0, 0.5, 1.0]]}),
        ("grid_y must be 1-D and strictly increasing", {"grid_y": [0.0, 0.0]}),
        ("grid_y must be 1-D and strictly increasing, with at least 2 nodes", {"grid_y": [0.0], "coef": np.ones((0, 2, 3, 3)).tolist()}),
        ("it must be 4-D", {"coef": np.ones((1, 2)).tolist()}),
        ("does not match the element mesh", {"coef": np.ones((2, 1, 3, 3)).tolist()}),
    ]
    for message, change in bad:
        with pytest.raises(ValueError, match=message):
            PiecewisePoly2D.from_json(json.dumps({**good, **change}))


@pytest.mark.parametrize("shape", [(1, 2, 0, 3), (1, 2, 3, 0), (1, 2, 0, 0)])
def test_a_coefficient_grid_with_an_empty_axis_is_rejected(shape):
    with pytest.raises(ValueError, match=re.escape(f"coefficient grid of shape {shape} does not match the element mesh")):
        PiecewisePoly2D([0.0, 0.5, 1.0], [0.0, 1.0], np.ones(shape))


def test_gather_rejects_non_finite_field_values():
    base = make_smooth_field("sin_sin")

    def bad_at(value, node):
        def ev(x, y, ax, ay):
            v = np.array(np.broadcast_to(base(x, y, ax, ay), np.broadcast(x, y).shape))
            v[np.broadcast_to((x == node[0]) & (y == node[1]), v.shape)] = value
            return v

        return ScalarField("bad", ev)

    gx, gy = np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 5)
    for value in (np.nan, np.inf, -np.inf):
        field = bad_at(value, (0.5, 0.25))
        for build in (lambda f: interp_full(f, build_macro_mesh(gx, gy)), lambda f: nodal_q2_mesh(f, gx, gy)):
            with pytest.raises(ValueError, match="not finite"):
                build(field)
    interp_full(bad_at(np.nan, (0.3, 0.3)), build_macro_mesh(gx, gy))  # NaN off the nodes is never read


def _re_z_power(beta, at_origin=np.inf):
    """u = Re z^beta on the closed first quadrant: D^(ax,ay) u = Re(i^ay beta (beta-1) ... z^(beta-ax-ay)); an order above beta takes ``at_origin`` at z = 0."""

    def ev(x, y, ax, ay):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        z, k = x + 1j * y, ax + ay
        origin = z == 0
        v = (np.prod([beta - m for m in range(k)]) * 1j**ay * np.where(origin, 1.0, z) ** (beta - k)).real
        return np.where(origin, 0.0 if k < beta else at_origin, v)

    return ScalarField(f"re_z^{beta}", ev)


def test_operators_that_replace_the_mixed_node_values_accept_a_singular_u_xy():
    # u = Re z^1.5 on 4 x 4 macros: u_xy ~ r^-1/2 is infinite at the corner node
    # and integrable along every edge.  Reduced and quasi never read u_xy at a
    # node, so they equal themselves on the field with u_xy(0, 0) = 0; full reads it.
    grid = np.linspace(0.0, 1.0, 5)
    mesh = build_macro_mesh(grid, grid)
    sigma = select_sigma(mesh, "toward_corner")
    u, tamed = _re_z_power(1.5), _re_z_power(1.5, at_origin=0.0)
    assert u(0.0, 0.0, 1, 1) == np.inf and u(0.0, 0.0, 1, 0) == 0.0
    for build in (lambda f: interp_reduced(f, mesh), lambda f: quasi_interp(f, mesh, sigma)):
        coef = build(u).coef
        assert np.all(np.isfinite(coef))
        assert coef.tobytes() == build(tamed).coef.tobytes()
    with pytest.raises(ValueError, match=re.escape("field derivative (1, 1) is not finite at a node")):
        interp_full(u, mesh)
    # a sigma average that is not finite is rejected as the node value it replaces
    base = make_smooth_field("sin_sin")
    nan_off_nodes = ScalarField("nan_off_nodes", lambda x, y, ax, ay: np.where(np.isin(x, grid) & np.isin(y, grid), base(x, y, ax, ay), np.nan))
    interp_full(nan_off_nodes, mesh)
    with pytest.raises(ValueError, match=re.escape("field derivative (1, 1) is not finite at a node")):
        quasi_interp(nan_off_nodes, mesh, sigma)


def test_x_spline_is_the_y_spline_of_the_swapped_field_transposed_bit_for_bit():
    # Both sides gather the same node values and run the same products, so
    # this holds under every OpenBLAS kernel.
    rng = np.random.default_rng(37)
    lag = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 4)), [1.0]])
    spl = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, 6)), [2.0]])
    for f in (get_field("sin_plus_sin"), make_polynomial_field(rng.normal(size=(3, 4))), make_smooth_field("exp_xy")):
        swapped = ScalarField("swapped", lambda x, y, ax, ay, f=f: f(y, x, ay, ax))
        x_spline, y_spline = interp_aniso_mesh(f, lag, spl, "x_spline"), interp_aniso_mesh(swapped, lag, spl, "y_spline")
        assert np.array_equal(x_spline.grid_x, y_spline.grid_y) and np.array_equal(x_spline.grid_y, y_spline.grid_x)
        assert x_spline.coef.tobytes() == np.ascontiguousarray(y_spline.coef.transpose(1, 0, 3, 2)).tobytes(), f.name


def test_a_non_finite_spline_slope_is_named_in_the_real_axes():
    # u_x NaN at the node (0.5, 0.5) is order (1, 0) for the x-spline operator,
    # u_y there order (0, 1) for the y-spline one, although both assemble y-spline axes.
    base, grid = make_smooth_field("sin_sin"), np.array([0.0, 0.5, 1.0])

    def nan_slope(order, inside):
        return ScalarField("nan_slope", lambda x, y, ax, ay: np.where(((ax, ay) == order) & inside(x, y), np.nan, base(x, y, ax, ay)))

    for orientation, order in (("x_spline", (1, 0)), ("y_spline", (0, 1))):
        with pytest.raises(ValueError, match=re.escape(f"field derivative {order} is not finite at a node")):
            interp_aniso_mesh(nan_slope(order, lambda x, y: (x == 0.5) & (y == 0.5)), grid, grid, orientation)
    # the composite's x-strips: u_x NaN across the core rows is read by them alone
    mesh = build_shishkin(1e-4, 8)
    core = (mesh.grid_y[2], mesh.grid_y[6])
    field = nan_slope((1, 0), lambda x, y: (core[0] < y) & (y < core[1]))
    with pytest.raises(ValueError, match=re.escape("field derivative (1, 0) is not finite at a node")):
        build_composite(field, mesh, select_sigma(mesh, "toward_corner"))


def _c1_coef_by_cell(G):
    """The C1 assembly as four batched two-matmul products with strided stores."""
    coef = np.empty((2 * G.shape[0], 2 * G.shape[1], 3, 3))
    for sy in (0, 1):
        for sx in (0, 1):
            coef[sy::2, sx::2] = _HB[sx].T @ G @ _HB[sy]
    return coef


def _aniso_coef_by_cell(G):
    """The y-spline anisotropic assembly as two batched two-matmul products with strided stores."""
    coef = np.empty((2 * G.shape[0], G.shape[1], 3, 3))
    for sy in (0, 1):
        coef[sy::2] = _LG3.T @ G @ _HB[sy]
    return coef


def _random_node_values(rng, shape, rows_x, rows_y):
    """Node values V of random sizes over ``shape`` (ny, nx) cells, and random grids of the cells' strides."""
    sx, sy = rows_x[-1][0], rows_y[-1][0]
    gx = np.cumsum(np.r_[0.0, rng.uniform(0.1, 1.0, sx * shape[1])])
    gy = np.cumsum(np.r_[0.0, rng.uniform(0.1, 1.0, sy * shape[0])])
    size = (1 + max(p for _, p in rows_x), 1 + max(q for _, q in rows_y), len(gx), len(gy))
    return rng.normal(size=size) * 10.0 ** rng.integers(-12, 12, size=size), gx, gy


def _cell_data(V, gx, gy, rows_x, rows_y):
    """``G[j, i, r, c]`` of every cell from node values V: one strided read per functional pair, scaled by the half-widths."""
    sx, sy = rows_x[-1][0], rows_y[-1][0]
    hx, hy = 0.5 * (gx[sx::sx] - gx[:-sx:sx]), 0.5 * (gy[sy::sy] - gy[:-sy:sy])
    G = np.empty((len(hy), len(hx), len(rows_x), len(rows_y)))
    for r, (ox, px) in enumerate(rows_x):
        for c, (oy, py) in enumerate(rows_y):
            G[:, :, r, c] = hx[None, :] ** px * hy[:, None] ** py * V[px, py, ox : ox + sx * len(hx) : sx, oy : oy + sy * len(hy) : sy].T
    return G


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (64, 48)])
def test_fixed_matrix_assembly_matches_the_two_matmul_form(shape):
    # Bound 0: the fixed matrices contract along x first, then along y,
    # as the per-cell products do, so the coefficients agree bit for bit.
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for scheme, per_cell in ((_C1, _c1_coef_by_cell), (_ANISO, _aniso_coef_by_cell)):
        V, gx, gy = _random_node_values(rng, shape, *scheme[:2])
        coef, by_cell = _assemble(V, gx, gy, scheme), per_cell(_cell_data(V, gx, gy, *scheme[:2]))
        assert coef.shape == by_cell.shape
        assert np.array_equal(coef, by_cell)


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (64, 48)])
def test_bicubic_assembly_matches_the_two_matmul_form(shape):
    # One cell per macro: the per-element _CUBIC.T @ G @ _CUBIC, bit for bit.
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    V, gx, gy = _random_node_values(rng, shape, *_BFS[:2])
    assert np.array_equal(_assemble(V, gx, gy, _BFS), _CUBIC.T @ _cell_data(V, gx, gy, *_BFS[:2]) @ _CUBIC)


def test_cubic_hermite_basis_is_the_newton_basis_behind_the_divided_differences():
    # Newton basis 1, (x+1), (x+1)^2, (x+1)^2(x-1) of the nodes -1, -1, 1, 1, rows
    # by basis function; every entry of both tables is dyadic, so the product is exact.
    newton = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [1.0, 2.0, 1.0, 0.0], [-1.0, -1.0, 1.0, 1.0]])
    assert np.array_equal(_CUBIC, HERMITE_DD_MATRIX.T @ newton)
    # the Hermite rows: value and slope at -1, then at 1
    t = np.array([-1.0, 1.0])
    values, slopes = _derivative_basis(t, 4, 0) @ _CUBIC.T, _derivative_basis(t, 4, 1) @ _CUBIC.T
    assert np.array_equal(values, [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    assert np.array_equal(slopes, [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (64, 48)])
def test_nodal_assembly_matches_the_stacked_form_also_into_a_block(shape):
    # One Lagrange side per axis: the stacked _LG3.T @ G @ _LG3 per cell,
    # bit for bit, also when written into a block of a larger grid.
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    V, gx, gy = _random_node_values(rng, shape, *_NODAL[:2])
    stacked = _LG3.T @ _cell_data(V, gx, gy, *_NODAL[:2]) @ _LG3
    assert np.array_equal(_assemble(V, gx, gy, _NODAL), stacked)
    grid = np.zeros((shape[0] + 3, shape[1] + 4, 3, 3))
    block = (slice(1, shape[0] + 1), slice(2, shape[1] + 2))
    out = grid[block]
    assert _assemble(V, gx, gy, _NODAL, out) is out
    assert np.array_equal(grid[block], stacked)
    grid[block] = 0.0
    assert not grid.any()


@pytest.mark.parametrize("cells", [(4, 5), (3, 6), (2, 7)])
def test_mesh_operators_do_not_depend_on_the_block_size(monkeypatch, cells):
    # Blocks of 1 to 7 macro rows, ragged ones among them, give the
    # coefficients of one block bit for bit: no product changes shape.
    from macrospline import interpolation

    rng = np.random.default_rng(sum(cells))
    gx = np.cumsum(np.r_[0.0, rng.uniform(0.8, 1.0, cells[0])])
    gy = np.cumsum(np.r_[0.0, rng.uniform(0.8, 1.0, cells[1])]) / 3.0
    mesh = build_macro_mesh(gx, gy)
    dofs = rng.normal(size=(cells[0] + 1, cells[1] + 1, 4))
    builds = [
        lambda f: interp_full(f, mesh),
        lambda f: interp_reduced(f, mesh),
        lambda f: quasi_interp(f, mesh, select_sigma(mesh, "down")),
        lambda f: interp_bfs_mesh(f, gx, gy),
        lambda f: nodal_q2_mesh(f, gx, gy),
        lambda f: interp_aniso_mesh(f, gx, gy, "y_spline"),
        lambda f: interp_aniso_mesh(f, gy, gx, "x_spline"),
        lambda f: assemble_from_nodal_data(mesh, dofs),
    ]
    fields = (make_smooth_field("exp_xy"), get_field("q2_random"))
    monkeypatch.setattr(interpolation, "_BLOCK_VALUES", 2**62)
    whole = [build(f).coef for build in builds for f in fields]
    for block in (1, 2**7, 2**8, 2**9, 2**10, 2**11):
        monkeypatch.setattr(interpolation, "_BLOCK_VALUES", block)
        assert all(np.array_equal(build(f).coef, coef) for (build, f), coef in zip(((b, f) for b in builds for f in fields), whole))
