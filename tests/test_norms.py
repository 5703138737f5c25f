import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrospline.fields import ScalarField, exp_profile, make_layer_decomposition, make_polynomial_field, make_smooth_field, separable_field, sin_profile
from macrospline.interpolation import PiecewisePoly2D, build_composite, interp_full, interp_full_macro, nodal_q2_mesh
from macrospline.mesh import EdgeSet, build_macro_mesh, build_shishkin, classify_edges, select_sigma
from macrospline import norms, quadrature
from macrospline.norms import (
    ORDERS,
    NormReport,
    _pairwise_sum,
    _per_cell,
    _seminorms,
    _weighted_sum,
    compute_norm_report,
    edge_l2,
    gauss_rule,
    jump_norm_sum,
    linf_sampled,
    seminorm,
)
from macrospline.quadrature import integrate, integrate2d
from macrospline.spline_core import HermiteData1D, hermite_interpolate_1d


def _unit_mesh_poly(n=2):
    # zero interpolant over a uniform element mesh, to carry the grids
    f = make_polynomial_field([[0.0]])
    mesh = build_macro_mesh(np.linspace(0, 1, n + 1), np.linspace(0, 1, n + 1))
    return interp_full(f, mesh)


def test_quadrature_exactness():
    P = np.polynomial.polynomial
    rng = np.random.default_rng(0)
    assert norms.gauss_rule is quadrature.gauss_rule and norms.QuadratureRule is quadrature.QuadratureRule
    for order in (3, 4, 5):
        rule = gauss_rule(order)
        deg = 2 * order - 1
        coefs = rng.normal(size=deg + 1)
        exact = sum(c / (k + 1) * (1 - (-1) ** (k + 1)) for k, c in enumerate(coefs))
        approx = float(np.dot(rule.weights, np.polynomial.polynomial.polyval(rule.nodes, coefs)))
        assert approx == pytest.approx(exact, rel=1e-13, abs=1e-13)

        # a split rule is exact on each half: one polynomial of degree 2n-1
        # on [a, mid], another on [mid, b]
        left, right = rng.normal(size=(2, deg + 1))
        a, b = -0.7, 1.9
        mid, half = 0.5 * (a + b), 0.5 * (b - a)

        def kinked(x):
            t = (x - mid) / half
            return np.where(t < 0.0, P.polyval(t, left), P.polyval(t, right))

        il, ir = P.polyint(left), P.polyint(right)
        exact = half * (P.polyval(0.0, il) - P.polyval(-1.0, il) + P.polyval(1.0, ir) - P.polyval(0.0, ir))
        split = gauss_rule(order, split=True)
        assert len(split.nodes) == 2 * order and np.all(split.nodes[:order] < 0.0) and np.all(split.nodes[order:] > 0.0)
        assert integrate(kinked, a, b, split) == pytest.approx(exact, rel=1e-13, abs=1e-13)
        assert integrate(kinked, a, b, gauss_rule(2 * order)) != pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("order", [2, 3, 5])
def test_integrate2d_exact_on_tensor_monomials(order):
    x0, x1, y0, y1 = 0.3, 1.1, -2.0, -0.5
    for split in (False, True):
        rule = gauss_rule(order, split)
        for i in range(2 * order):
            for j in range(2 * order):
                exact = (x1 ** (i + 1) - x0 ** (i + 1)) / (i + 1) * (y1 ** (j + 1) - y0 ** (j + 1)) / (j + 1)
                got = integrate2d(lambda X, Y: X**i * Y**j, x0, x1, y0, y1, rule)
                assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_seminorm_constant_and_linear():
    zero = _unit_mesh_poly()
    one = make_polynomial_field([[1.0]])
    assert seminorm(one, zero) == pytest.approx(1.0, abs=1e-13)
    x = make_polynomial_field([[0.0], [1.0]])
    assert seminorm(x, zero) ** 2 == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_seminorm_derivative_analytic():
    zero = _unit_mesh_poly()
    f = make_polynomial_field([[0, 0, 0], [0, 0, 0], [0, 0, 1.0]])  # x^2 y^2
    # ||d/dx x^2 y^2||^2 = ||2 x y^2||^2 = 4 * 1/3 * 1/5
    assert seminorm(f, zero, (1, 0)) == pytest.approx(2.0 / np.sqrt(15.0), rel=1e-13)


def test_region_additivity():
    zero = _unit_mesh_poly(4)
    f = make_smooth_field("sin_sin")
    all_sq = seminorm(f, zero) ** 2
    parts = 0.0
    for ix in range(8):
        for jy in range(8):
            parts += seminorm(f, zero, region=[(ix, jy)]) ** 2
    assert parts == pytest.approx(all_sq, rel=1e-10)


def test_monotone_under_refinement():
    f = make_smooth_field("sin_sin")
    errors = []
    for n in (2, 4, 8, 16):
        mesh = build_macro_mesh(np.linspace(0, 1, n + 1), np.linspace(0, 1, n + 1))
        p = interp_full(f, mesh)
        errors.append(seminorm(f, p))
    violations = sum(1 for a, b in zip(errors, errors[1:]) if b > 1.05 * a)
    assert violations <= 1


def test_edge_l2_and_jump_of_c1_interpolant():
    f = make_smooth_field("sin_sin")
    mesh = build_shishkin(1e-4, 8)
    edges = classify_edges(mesh)
    p = nodal_q2_mesh(f, mesh.grid_x, mesh.grid_y)
    interior = edges[edges.edge_type != "boundary"]
    val = edge_l2(f, p, interior[:1])
    assert val.shape == (1,)
    assert val[0] >= 0.0
    with pytest.raises(ValueError):
        jump_norm_sum(p, edges[edges.edge_type == "boundary"][:1])


def _one_edge_l2(field, poly, x0, y0, x1, y1, horizontal, rule, alpha, side):
    """The trace norm of one edge, as edge_l2 computed it one edge at a time."""
    half = 0.5 * (abs(x1 - x0) + abs(y1 - y0))
    if horizontal:
        xs = 0.5 * (x0 + x1) + half * rule.nodes
        ys, sides = np.full_like(xs, y0), ("-", side)
    else:
        ys = 0.5 * (y0 + y1) + half * rule.nodes
        xs, sides = np.full_like(ys, x0), (side, "-")
    vals = field(xs, ys, alpha[0], alpha[1]) - poly.evaluate(xs, ys, alpha[0], alpha[1], side=sides)
    return float(np.sqrt(half * np.dot(rule.weights, vals * vals)))


def test_edge_l2_matches_one_edge_traces():
    # a discontinuous piecewise polynomial, so the side convention shows
    mesh = build_shishkin(1e-4, 8)
    rng = np.random.default_rng(11)
    poly = PiecewisePoly2D(mesh.grid_x, mesh.grid_y, rng.normal(size=(8, 8, 3, 3)))
    f = make_smooth_field("sin_sin")
    edges = classify_edges(mesh)
    rule = gauss_rule(4)
    for alpha in ((0, 0), (1, 0), (0, 1)):
        for side in ("-", "+"):
            got = edge_l2(f, poly, edges, rule, alpha, side)
            expected = [
                _one_edge_l2(f, poly, *row, rule, alpha, side)
                for row in zip(edges.x0, edges.y0, edges.x1, edges.y1, edges.horizontal)
            ]
            assert got.shape == (len(edges),)
            assert np.allclose(got, expected, rtol=1e-13, atol=0.0)
    assert not np.allclose(edge_l2(f, poly, edges, rule, side="-"), edge_l2(f, poly, edges, rule, side="+"))
    for side in ("x", "", "right"):
        with pytest.raises(ValueError, match="side entries must be '-' or '\\+'"):
            edge_l2(f, poly, edges, rule, side=side)


def _edge_l2_extended(poly, edges, rule, alpha, side):
    """edge_l2 of ``poly`` alone, from its cell coefficients in np.longdouble: the norms and the
    norms of the trace of |terms|, which scale their roundoff.  On a boundary line both sides read
    the one cell there."""
    ld, h = np.longdouble, edges.horizontal
    i = np.where(h, np.searchsorted(poly.grid_x, edges.x0), np.searchsorted(poly.grid_y, edges.y0))
    j = np.where(h, np.searchsorted(poly.grid_y, edges.y0), np.searchsorted(poly.grid_x, edges.x0))
    assert np.all(np.where(h, poly.grid_x[i], poly.grid_y[i]) == np.where(h, edges.x0, edges.y0))
    assert np.all(np.where(h, poly.grid_y[j], poly.grid_x[j]) == np.where(h, edges.y0, edges.x0))
    cell = np.clip(j - (side == "-"), 0, np.where(h, len(poly.grid_y), len(poly.grid_x)) - 2)
    ix, jy = np.where(h, i, cell), np.where(h, cell, i)
    # per edge and node, the row of xi and eta in the table of local coordinates: the nodes, then -1, +1
    node, line = np.broadcast_to(np.arange(len(rule.nodes)), (len(h), len(rule.nodes))), len(rule.nodes) + (cell[:, None] < j[:, None])
    xi, eta = np.where(h[:, None], node, line), np.where(h[:, None], line, node)
    table = np.r_[rule.nodes, -1.0, 1.0].astype(ld)
    c = poly.coef[jy, ix].astype(ld)

    def basis(n, a):
        k = np.arange(n)
        return np.array([np.prod(m - np.arange(a)) for m in k], dtype=ld) * table[:, None] ** np.maximum(k - a, 0)

    gx, gy = poly.grid_x.astype(ld), poly.grid_y.astype(ld)
    scale = ((ld(2) / (gx[ix + 1] - gx[ix])) ** alpha[0] * (ld(2) / (gy[jy + 1] - gy[jy])) ** alpha[1])[:, None]
    P, Q = basis(c.shape[1], alpha[0])[xi], basis(c.shape[2], alpha[1])[eta]
    trace, terms = np.zeros(P.shape[:2], dtype=ld), np.zeros(P.shape[:2], dtype=ld)
    for k, m in itertools.product(range(c.shape[1]), range(c.shape[2])):
        term = P[:, :, k] * c[:, None, k, m] * Q[:, :, m]
        trace += term
        terms += np.abs(term)
    trace, terms = trace * scale, terms * scale
    half, w = np.where(h, edges.x1 - edges.x0, edges.y1 - edges.y0).astype(ld) / 2, rule.weights.astype(ld)
    return np.sqrt(half * ((trace * trace) @ w)), np.sqrt(half * ((terms * terms) @ w))


# edge_l2 of a piecewise polynomial lies within EDGE_ROUNDOFF eps of the
# norm of its trace of |terms|, against an extended-precision trace from
# the coefficients.  Measured worst ratio over the cases below: 1.5 (29 eps
# relative to the norm itself).  Traces read back from world points on each
# edge are off by up to 1.1e7 at eps = 1e-14.
EDGE_ROUNDOFF = 4


def test_edge_l2_matches_an_extended_precision_coefficient_trace():
    rng = np.random.default_rng(0)
    rule = gauss_rule(4)
    for N, eps in itertools.product((8, 32, 128), (1e-4, 1e-8, 1e-12, 1e-14)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # layers not mesh-resolved at eps = 1e-4, N = 128
            mesh = build_shishkin(eps, N)
        edges = classify_edges(mesh)
        boundary = edges.edge_type == "boundary"
        poly = PiecewisePoly2D(mesh.grid_x, mesh.grid_y, rng.normal(size=(N, N, 3, 3)))
        for alpha in ((0, 0), (1, 0), (0, 1)):
            below, above = (edge_l2(None, poly, edges, rule, alpha, side) for side in ("-", "+"))
            assert np.array_equal(below[boundary], above[boundary])
            for side, got in (("-", below), ("+", above)):
                reference, terms = _edge_l2_extended(poly, edges, rule, alpha, side)
                assert np.all(np.abs(got - reference) <= EDGE_ROUNDOFF * np.finfo(float).eps * terms)


def test_jump_zero_for_globally_c1():
    # a C1 macro interpolant has no first-derivative jumps anywhere
    from macrospline.interpolation import random_c1q2

    rng = np.random.default_rng(3)
    mesh = build_macro_mesh(np.linspace(0, 1, 3), np.linspace(0, 1, 3))
    p = random_c1q2(mesh, rng)
    # pseudo-edges on all interior vertical element lines
    gx, gy = p.grid_x, p.grid_y
    ix, jy = (a.ravel() for a in np.meshgrid(np.arange(1, len(gx) - 1), np.arange(len(gy) - 1), indexing="ij"))
    n = ix.size
    edges = EdgeSet(gx[ix], gy[jy], gx[ix], gy[jy + 1], np.zeros(n, bool), np.tile([1.0, 0.0], (n, 1)), np.full(n, "I"))
    assert len(edges) == 12
    assert jump_norm_sum(p, edges) < 1e-20


def _per_edge_jump_sum(poly, edges, rule):
    """jump_norm_sum as it was written over one object per edge, with pointwise ``evaluate`` calls:
    sorted by endpoints, one batch per orientation.  Also returns the trace energy, the sum over
    edges of the integral of lo^2 + hi^2, which scales the roundoff of a jump sum."""
    rows = sorted(
        zip(edges.x0, edges.y0, edges.x1, edges.y1, edges.horizontal),
        key=lambda r: ((r[0], r[1]), (r[2], r[3])),
    )
    contributions, energy = np.zeros(len(rows)), np.zeros(len(rows))
    for horizontal in (True, False):
        idx = [k for k, r in enumerate(rows) if r[4] == horizontal]
        if not idx:
            continue
        p0 = np.array([rows[k][0:2] for k in idx])
        p1 = np.array([rows[k][2:4] for k in idx])
        half = 0.5 * np.array([abs(rows[k][2] - rows[k][0]) + abs(rows[k][3] - rows[k][1]) for k in idx])
        if horizontal:
            X = (0.5 * (p0[:, 0] + p1[:, 0]))[:, None] + half[:, None] * rule.nodes[None, :]
            Y = np.broadcast_to(p0[:, 1][:, None], X.shape)
            alpha, hi_side = (0, 1), ("-", "+")
        else:
            Y = (0.5 * (p0[:, 1] + p1[:, 1]))[:, None] + half[:, None] * rule.nodes[None, :]
            X = np.broadcast_to(p0[:, 0][:, None], Y.shape)
            alpha, hi_side = (1, 0), ("+", "-")
        lo = poly.evaluate(X, Y, alpha[0], alpha[1], side=("-", "-"))
        hi = poly.evaluate(X, Y, alpha[0], alpha[1], side=hi_side)
        jump = lo - hi
        contributions[idx] = half * ((jump * jump) @ rule.weights)
        energy[idx] = half * ((lo * lo + hi * hi) @ rule.weights)
    return _pairwise_sum(contributions), float(np.sum(energy))


def _interior_element_edges(gx, gy, edge_type="I"):
    """Every interior element edge of the tensor grid gx x gy, horizontal ones first."""
    ix, jy = (a.ravel() for a in np.meshgrid(np.arange(len(gx) - 1), np.arange(1, len(gy) - 1), indexing="ij"))
    vx, vy = (a.ravel() for a in np.meshgrid(np.arange(1, len(gx) - 1), np.arange(len(gy) - 1), indexing="ij"))
    horizontal = np.r_[np.ones(ix.size, bool), np.zeros(vx.size, bool)]
    normal = np.where(horizontal[:, None], [0.0, 1.0], [1.0, 0.0])
    return EdgeSet(np.r_[gx[ix], gx[vx]], np.r_[gy[jy], gy[vy]], np.r_[gx[ix + 1], gx[vx]], np.r_[gy[jy], gy[vy + 1]], horizontal, normal, np.full(horizontal.size, edge_type))


# A jump sum from coefficient traces lies within JUMP_ROUNDOFF eps of the
# trace energy of the evaluate-based sum.  The gap is the reference's own
# error: it rebuilds world coordinates on each edge and maps them back to
# local ones.  Measured worst ratios: 10 on u* below, 41 over 120 random
# graded cases like those below; the coefficient traces stay within
# 2.2 eps of the energy from an extended-precision trace sum.
JUMP_ROUNDOFF = 64


def test_jump_norm_sum_is_independent_of_row_order():
    eps = np.finfo(float).eps
    rule = gauss_rule(4)
    rng = np.random.default_rng(5)
    mesh = build_shishkin(1e-6, 16)
    f = make_layer_decomposition(1e-6, smooth="bounded_third").total
    star = build_composite(f, mesh, select_sigma(mesh, "toward_corner"))
    edges = classify_edges(mesh)
    interior = edges[edges.edge_type != "boundary"]
    cases = [(star, subset) for subset in [edges[edges.edge_type == t] for t in ("I", "II", "III", "IV")] + [interior]]
    # discontinuous random piecewise polynomials on graded grids, cells scaled by 10^-3..10^2
    for shape in ((3, 3), (4, 4), (2, 4)):
        gx = np.cumsum(np.r_[0.0, rng.uniform(1e-3, 1.0, 7)])
        gy = np.cumsum(np.r_[0.0, rng.uniform(1e-3, 1.0, 5)]) / 7.0
        scale = 10.0 ** rng.integers(-3, 3, (len(gy) - 1, len(gx) - 1, 1, 1))
        cases.append((PiecewisePoly2D(gx, gy, scale * rng.normal(size=(len(gy) - 1, len(gx) - 1, *shape))), _interior_element_edges(gx, gy)))
    for poly, subset in cases:
        value = jump_norm_sum(poly, subset, rule)
        reference, energy = _per_edge_jump_sum(poly, subset, rule)
        assert abs(value - reference) <= JUMP_ROUNDOFF * eps * energy
        assert jump_norm_sum(poly, subset[rng.permutation(len(subset))], rule) == value


@pytest.mark.parametrize("shape", [(3, 5), (5, 5)])
def test_jump_norm_sum_of_degree_four_polynomials(shape):
    # degree (2, 4) and (4, 4) cells, against the evaluate-based sum
    eps = np.finfo(float).eps
    rule = gauss_rule(4)
    rng = np.random.default_rng(sum(shape))
    gx = np.cumsum(np.r_[0.0, rng.uniform(1e-3, 1.0, 6)])
    gy = np.cumsum(np.r_[0.0, rng.uniform(1e-3, 1.0, 5)]) / 3.0
    scale = 10.0 ** rng.integers(-3, 3, (len(gy) - 1, len(gx) - 1, 1, 1))
    poly = PiecewisePoly2D(gx, gy, scale * rng.normal(size=(len(gy) - 1, len(gx) - 1, *shape)))
    edges = _interior_element_edges(gx, gy)
    value = jump_norm_sum(poly, edges, rule)
    reference, energy = _per_edge_jump_sum(poly, edges, rule)
    assert value > 0.0
    assert abs(value - reference) <= JUMP_ROUNDOFF * eps * energy
    assert jump_norm_sum(poly, edges[rng.permutation(len(edges))], rule) == value


def test_jump_norm_sum_counts_a_repeated_row_each_time():
    # a row that appears twice is summed twice, in endpoint order (x0, y0, x1, y1)
    mesh = build_shishkin(1e-4, 8)
    rng = np.random.default_rng(8)
    poly = PiecewisePoly2D(mesh.grid_x, mesh.grid_y, rng.normal(size=(8, 8, 3, 3)))
    edges = classify_edges(mesh)
    interior = edges[edges.edge_type != "boundary"]
    rule = gauss_rule(4)
    single = np.array([jump_norm_sum(poly, interior[[k]], rule) for k in range(len(interior))])
    assert jump_norm_sum(poly, interior[[5, 5]], rule) == 2.0 * single[5]
    rows = np.r_[np.arange(len(interior)), 5, 40, 5]
    picked = interior[rows]
    order = np.lexsort((picked.y1, picked.x1, picked.y0, picked.x0))
    value = jump_norm_sum(poly, picked, rule)
    assert value == _pairwise_sum(single[rows][order])
    assert value > jump_norm_sum(poly, interior, rule)


def test_typed_jump_sums_equal_one_jump_norm_sum_per_type(monkeypatch):
    from macrospline import mesh as mesh_module, norms
    from macrospline.experiments import ShishkinConfig, _shishkin_point, verification_suite

    eps, N, rule = 1e-6, 16, gauss_rule(4)
    config = ShishkinConfig(N_list=(N,), eps_list=(eps,))
    u = make_layer_decomposition(eps, config.c_star, smooth=config.smooth_variant).total
    mesh = build_shishkin(eps, N, config.lambda0, config.c_star)
    star = build_composite(u, mesh, select_sigma(mesh, config.sigma))
    edges = classify_edges(mesh)
    separate = {t: jump_norm_sum(star, edges[edges.edge_type == t], rule) for t in ("I", "II", "III", "IV")}
    assert compute_norm_report(u, star, mesh, edges, rule).jump_sums == separate
    row = _shishkin_point(config, u, eps, N, rule)
    assert {t: row[f"jump2_{t}"] for t in separate} == separate
    # the studies sum by slot type: they map no edge row and build no EdgeSet
    checks = {r.name: r.value for r in verification_suite(rng_seed=1) if r.name.startswith("composite_jump2_")}
    assert sorted(checks) == ["composite_jump2_II", "composite_jump2_IV"]

    def unused(*args):
        raise AssertionError("a study mapped edge rows")

    monkeypatch.setattr(norms, "_edge_slots", unused)
    monkeypatch.setattr(mesh_module, "classify_edges", unused)
    assert _shishkin_point(config, u, eps, N, rule) == row
    assert {r.name: r.value for r in verification_suite(rng_seed=1) if r.name in checks} == checks


def test_jump_norm_sum_rejects_edges_that_are_not_interior_element_edges():
    gx, gy = np.array([0.0, 0.25, 0.5, 1.0]), np.array([0.0, 0.5, 0.75, 1.0])
    poly = PiecewisePoly2D(gx, gy, np.ones((3, 3, 3, 3)))
    edges = _interior_element_edges(gx, gy)
    assert len(edges) == 12 and jump_norm_sum(poly, edges) > 0.0
    bad = {
        "half an element": (0.0, 0.5, 0.125, 0.5, True),
        "two cells": (0.0, 0.5, 0.5, 0.5, True),
        "no grid line": (0.25, 0.6, 0.5, 0.6, True),
        "no grid line, vertical": (0.3, 0.5, 0.3, 0.75, False),
        "a boundary line": (0.0, 0.0, 0.25, 0.0, True),
        "the far boundary line": (1.0, 0.75, 1.0, 1.0, False),
    }
    for case, (x0, y0, x1, y1, horizontal) in bad.items():
        # the one bad edge among the good ones is named
        edge = EdgeSet(np.array([x0]), np.array([y0]), np.array([x1]), np.array([y1]), np.array([horizontal]), np.array([[0.0, 1.0]]), np.array(["I"]))
        mixed = EdgeSet(*(np.concatenate([getattr(edges, name), getattr(edge, name)]) for name in ("x0", "y0", "x1", "y1", "horizontal", "normal", "edge_type")))
        with pytest.raises(ValueError, match=re.escape(f"edge ({x0}, {y0})-({x1}, {y1}) is not an interior element edge of the grid")):
            jump_norm_sum(poly, mixed)
        # edge_l2 takes boundary edges, and rejects the others the same way
        if "boundary" in case:
            assert edge_l2(None, poly, mixed).shape == (len(mixed),)
        else:
            with pytest.raises(ValueError, match=re.escape(f"edge ({x0}, {y0})-({x1}, {y1}) is not an element edge of the grid")):
                edge_l2(None, poly, mixed)


@pytest.mark.parametrize("alpha", [(-1, 0), (0, -1), (1.5, 0), (0, 0.5)])
def test_a_derivative_order_that_is_not_a_non_negative_integer_is_rejected(alpha):
    # evaluation, seminorms and edge norms all take their derivative basis from one kernel, which checks the order
    p = interp_full_macro(make_smooth_field("sin_sin"), (0.0, 1.0, 0.0, 1.0))
    edges = _interior_element_edges(p.grid_x, p.grid_y)
    message = "order must be a non-negative integer"
    with pytest.raises(ValueError, match=message):
        p.evaluate(0.3, 0.4, *alpha)
    with pytest.raises(ValueError, match=message):
        seminorm(None, p, alpha=alpha)
    with pytest.raises(ValueError, match=message):
        edge_l2(None, p, edges, alpha=alpha)
    with pytest.raises(ValueError, match=message):
        hermite_interpolate_1d(HermiteData1D(0.0, 1.0, 0.0, 1.0))(0.5, order=alpha[0] + alpha[1])


def test_jump_norm_sum_of_empty_edge_set_is_zero():
    mesh = build_shishkin(1e-4, 8)
    f = make_smooth_field("sin_sin")
    p = nodal_q2_mesh(f, mesh.grid_x, mesh.grid_y)
    edges = classify_edges(mesh)
    for empty in (edges[:0], edges[edges.edge_type == "V"]):
        assert len(empty) == 0
        assert jump_norm_sum(p, empty) == 0.0
        assert jump_norm_sum(p, empty, gauss_rule(4)) == 0.0


def test_linf_sampled():
    zero = _unit_mesh_poly()
    f = make_smooth_field("sin_sin")
    assert linf_sampled(f, zero, samples_per_element=9) == pytest.approx(1.0, abs=1e-6)
    c = make_polynomial_field([[0.25]])
    assert linf_sampled(c, zero) == pytest.approx(0.25, abs=1e-14)


def test_norm_report_additivity_and_serialization():
    mesh = build_shishkin(1e-4, 8)
    f = make_smooth_field("sin_sin")
    p = nodal_q2_mesh(f, mesh.grid_x, mesh.grid_y)
    edges = classify_edges(mesh)
    report = compute_norm_report(f, p, mesh, edges)
    total_sq = sum(v["L2"] ** 2 for v in report.regional.values())
    assert report.global_values["L2"] ** 2 == pytest.approx(total_sq, rel=1e-10)
    assert report.jump_sums["II"] >= 0.0
    text = report.to_json()
    assert "macrospline-norms/1" in text
    rows = list(report.to_csv_rows())
    assert any(r[0] == "edges" for r in rows)
    assert all(v >= 0 for _, _, v in rows if isinstance(v, float))


def test_a_nan_in_one_region_reaches_the_global_sampled_sup_norm():
    # sin_sin made NaN near x = 1 (omega34, omega4, omega41 only), against its nodal interpolant
    mesh = build_shishkin(1e-4, 8)
    f = make_smooth_field("sin_sin")
    p = nodal_q2_mesh(f, mesh.grid_x, mesh.grid_y)
    nan_edge = ScalarField("nan_edge", lambda x, y, ax, ay: np.where(x > 0.99, np.nan, f(x, y, ax, ay)))
    report = compute_norm_report(nan_edge, p, mesh)
    assert np.isfinite(report.regional["omega0"]["Linf_sampled"])
    assert np.isnan(report.regional["omega4"]["Linf_sampled"])
    assert all(np.isnan(report.global_values[q]) for q in ("L2", "H1_semi", "broken_H2_semi", "Linf_sampled"))


def _pairwise_sum_of_list(values):
    """Reference tree reduction on a Python list."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return float(vals[0])


def test_pairwise_sum_matches_list_reduction():
    rng = np.random.default_rng(3)
    for n in range(18):
        v = rng.normal(size=n) * 10.0 ** rng.integers(-12, 12, size=n)
        want = _pairwise_sum_of_list(v.tolist())
        assert _pairwise_sum(v) == want
        assert _pairwise_sum(iter(v.tolist())) == want
        assert _pairwise_sum(x for x in v.tolist()) == want


def _fused(a, b):
    """``a @ b`` as the norm pass makes it: products of at most ``_FUSED_TERMS`` terms of the inner sum, added in order."""
    t = norms._FUSED_TERMS
    out = a[..., :t] @ b[..., :t, :]
    for k in range(t, a.shape[-1], t):
        out += a[..., k : k + t] @ b[..., k : k + t, :]
    return out


def _difference_per_element(field, poly, alpha, elements, loc):
    """Reference: D^alpha (field - poly), element by element, shape (E, p, p) with entry [e, b, a] at (X[a], Y[b]).

    Each element's differences are one product of the factors of y and
    of x, ``[Fy_e | -(2/wy)^ay D^ay Q] @ [Fx_e ; R_e]``, made by ``_fused``.  ``R_e`` contracts
    x, ``C_e @ (D^ax P).T``, with ``C_e`` the element's coefficients in
    (l, k) order scaled by (2/wx)^ax; one 2-D product makes the rows of
    every element.  ``D^a P`` and ``D^a Q`` hold the a-th derivatives of
    the local monomials at ``loc``.  A field with terms takes ``Fx_e`` and
    ``Fy_e`` from one ``field.factors`` call on the distinct columns and
    rows of ``elements``; a field without terms, or None, has none, and a
    field without terms is then added, called with one row of
    coordinates per element, ``field(X[:, None, :], Y[:, :, None])``.
    """
    ix = np.array([e[0] for e in elements], dtype=int)
    jy = np.array([e[1] for e in elements], dtype=int)
    gx, gy = poly.grid_x, poly.grid_y
    wx, wy = gx[ix + 1] - gx[ix], gy[jy + 1] - gy[jy]
    c = poly.coef[jy, ix]
    p, (kx, ky) = len(loc), c.shape[1:]
    Q, PT = norms._derivative_basis(loc, ky, alpha[1]), norms._derivative_basis(loc, kx, alpha[0]).T.copy()
    R = (np.multiply(c.transpose(0, 2, 1), ((2.0 / wx) ** alpha[0])[:, None, None]).reshape(-1, kx) @ PT).reshape(len(c), ky, p)
    A = np.multiply(Q, -((2.0 / wy) ** alpha[1])[:, None, None])
    if field is None or field.terms is None:
        diff = _fused(A, R)
        if field is not None:
            X = (0.5 * (gx[ix] + gx[ix + 1]))[:, None] + (0.5 * wx)[:, None] * loc[None, :]
            Y = (0.5 * (gy[jy] + gy[jy + 1]))[:, None] + (0.5 * wy)[:, None] * loc[None, :]
            diff += field(X[:, None, :], Y[:, :, None], alpha[0], alpha[1])
        return diff
    columns, rows = sorted(set(ix.tolist())), sorted(set(jy.tolist()))
    ux, uy = np.array(columns), np.array(rows)
    X = (0.5 * (gx[ux] + gx[ux + 1]))[:, None] + (0.5 * (gx[ux + 1] - gx[ux]))[:, None] * loc[None, :]
    Y = (0.5 * (gy[uy] + gy[uy + 1]))[:, None] + (0.5 * (gy[uy + 1] - gy[uy]))[:, None] * loc[None, :]
    Fx, Fy = (F.reshape(len(F), -1, p) for F in field.factors(X.ravel(), Y.ravel(), alpha[0], alpha[1]))
    diff = []
    for e, (i, j) in enumerate(elements):
        fx, fy = Fx[:, columns.index(i)], Fy[:, rows.index(j)]
        diff.append(_fused(np.hstack([fy.T, A[e]]), np.vstack([fx, R[e]])))
    return np.array(diff)


def _sorted_elements(poly, region):
    nx, ny = len(poly.grid_x) - 1, len(poly.grid_y) - 1
    elements = region if region is not None else [(ix, jy) for jy in range(ny) for ix in range(nx)]
    return sorted(elements, key=lambda e: (e[1], e[0]))


def _seminorm_per_alpha(field, poly, alpha, region, rule):
    """Reference: one element list sorted by (jy, ix), one field call per multi-index, and per cell (wx wy / 4) sum_b w_b sum_a w_a D^2."""
    elements = _sorted_elements(poly, region)
    if not elements:
        return 0.0
    diff = _difference_per_element(field, poly, alpha, elements, rule.nodes)
    ix = np.array([e[0] for e in elements], dtype=int)
    jy = np.array([e[1] for e in elements], dtype=int)
    gx, gy = poly.grid_x, poly.grid_y
    w = rule.weights
    inner = ((diff * diff).reshape(-1, len(w)) @ w).reshape(len(elements), len(w))
    cell = inner[:, 0] * w[0]
    for b in range(1, len(w)):
        cell += inner[:, b] * w[b]
    contributions = cell * (0.25 * (gy[jy + 1] - gy[jy]) * (gx[ix + 1] - gx[ix]))
    return float(np.sqrt(max(_pairwise_sum_of_list(contributions.tolist()), 0.0)))


def _linf_per_element(field, poly, region, samples):
    """Reference ``linf_sampled``: the per-element field call."""
    elements = _sorted_elements(poly, region)
    if not elements:
        return 0.0
    diff = _difference_per_element(field, poly, (0, 0), elements, np.linspace(-1.0, 1.0, samples))
    return float(np.max(np.abs(diff)))


def test_seminorms_match_per_alpha_seminorm():
    mesh = build_shishkin(1e-4, 16)
    u = make_layer_decomposition(1e-4, smooth="bounded_third").total
    star = build_composite(u, mesh, select_sigma(mesh, "toward_corner"))
    rng = np.random.default_rng(8)
    cells = [(ix, jy) for jy in range(mesh.N) for ix in range(mesh.N)]
    shuffled = [cells[k] for k in rng.permutation(len(cells))[:40]]
    for field in (u, None):
        for region in (None, shuffled, []):
            for rule in (gauss_rule(4), gauss_rule(5)):
                got = _seminorms(field, star, ORDERS, region, rule)
                assert got == [seminorm(field, star, a, region, rule) for a in ORDERS]
                assert got == [_seminorm_per_alpha(field, star, a, region, rule) for a in ORDERS]


# Fields for the open-grid tests: separable, non-separable, the layer sum,
# one that depends on x alone and returns only x's shape (it broadcasts to
# the grid), one that returns a Python float, and a polynomial whose nine
# terms share their monomial factors.
_OPEN_GRID_FIELDS = {
    "sin_sin": make_smooth_field("sin_sin"),
    "exp_xy": make_smooth_field("exp_xy"),
    "layer_total": make_layer_decomposition(1e-4, smooth="bounded_third").total,
    "x_only": ScalarField("x", lambda x, y, ax, ay: np.sin(x) if ax == ay == 0 else 0 * x),
    "constant": ScalarField("c", lambda x, y, ax, ay: 0.75 if ax == ay == 0 else 0.0),
    "q2_random": make_polynomial_field(np.random.default_rng(0).normal(size=(3, 3))),
}
_OPEN_GRID_FIELDS["layer_q2"] = _OPEN_GRID_FIELDS["layer_total"] + _OPEN_GRID_FIELDS["q2_random"]  # 19 terms: two parts of factors alone


def _graded_grid(draw, n):
    steps = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    grid = np.r_[0.0, np.cumsum(steps)] / steps.sum()
    grid[-1] = 1.0
    gap = draw(st.sampled_from([0.0, 2.0**-20, 2.0**-40, 2.0**-50]))
    if gap and grid[-2] < 1.0 - gap:  # an element a few ulp wide at 1
        grid = np.r_[grid[:-1], 1.0 - gap, 1.0]
    return grid


@st.composite
def _open_grid_case(draw):
    gx, gy = _graded_grid(draw, draw(st.integers(1, 7))), _graded_grid(draw, draw(st.integers(1, 7)))
    nx, ny = len(gx) - 1, len(gy) - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    degree = draw(st.sampled_from([(2, 2), (3, 3), (2, 3)]))
    poly = PiecewisePoly2D(gx, gy, rng.normal(size=(ny, nx, degree[0] + 1, degree[1] + 1)))
    cells = [(ix, jy) for jy in range(ny) for ix in range(nx)]
    kind = draw(st.sampled_from(["whole", "block", "scattered"]))
    if kind == "whole":
        region = None
    elif kind == "block":
        x0, y0 = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
        x1, y1 = draw(st.integers(x0 + 1, nx)), draw(st.integers(y0 + 1, ny))
        block = [(ix, jy) for ix in range(x0, x1) for jy in range(y0, y1)]
        region = [block[k] for k in rng.permutation(len(block))]
    else:
        region = [cells[k] for k in rng.permutation(len(cells))[: draw(st.integers(1, len(cells)))]]
    field = _OPEN_GRID_FIELDS[draw(st.sampled_from(sorted(_OPEN_GRID_FIELDS)))]
    return poly, region, field


@settings(max_examples=80, deadline=None)
@given(_open_grid_case(), st.sampled_from([4, 5]))
def test_open_grid_matches_per_element_field_call(case, order):
    poly, region, field = case
    rule = gauss_rule(order)
    got = _seminorms(field, poly, ORDERS, region, rule)
    assert got == [_seminorm_per_alpha(field, poly, a, region, rule) for a in ORDERS]
    assert linf_sampled(field, poly, region, order) == _linf_per_element(field, poly, region, order)


def _one_block_and_row_blocks(monkeypatch, norm):
    """``norm()`` with the whole open grid in one block, and with one element row per block."""
    monkeypatch.setattr(norms, "_BLOCK_VALUES", 2**62)
    whole = norm()
    monkeypatch.setattr(norms, "_BLOCK_VALUES", 1)
    return whole, norm()


@settings(max_examples=60, deadline=None)
@given(_open_grid_case(), st.sampled_from([4, 5]), st.booleans())
def test_blocks_of_element_rows_match_one_block(case, order, measure_interpolant):
    poly, region, field = case
    field = None if measure_interpolant else field
    rule = gauss_rule(order)
    with pytest.MonkeyPatch.context() as monkeypatch:
        whole, rows = _one_block_and_row_blocks(monkeypatch, lambda: (_seminorms(field, poly, ORDERS, region, rule), linf_sampled(field, poly, region, order)))
    assert whole == rows


def test_blocks_of_element_rows_match_one_block_on_the_composite(monkeypatch):
    mesh = build_shishkin(1e-8, 32)
    u = make_layer_decomposition(1e-8, smooth="eps_growth").total
    star = build_composite(u, mesh, select_sigma(mesh, "toward_corner"))
    regions = {r: np.column_stack(np.nonzero(mesh.region == r)[::-1]) for r in np.unique(mesh.region)}
    for rule in (gauss_rule(4), gauss_rule(5)):
        for region in (None, *regions.values()):
            whole, rows = _one_block_and_row_blocks(monkeypatch, lambda: (_seminorms(u, star, ORDERS, region, rule), linf_sampled(u, star, region, 4)))
            assert whole == rows
    whole, rows = _one_block_and_row_blocks(monkeypatch, lambda: compute_norm_report(u, star, mesh, rule=gauss_rule(4)).to_json())
    assert whole == rows


def test_signed_zeros_of_the_factor_products_do_not_reach_a_norm():
    # u = x y: D^(2,0) u is the factor 0.0 in x times y and D^(0,2) u the
    # factor x times 0.0, so the pointwise product of the factors is -0.0
    # on the negative half of the other axis.  The pass takes u from its
    # factors in a GEMM; fields without terms with the pointwise products,
    # and with +0.0 for every zero, are added to the block.  Every norm
    # must read the same bits all three ways.
    u = make_polynomial_field([[0.0, 0.0], [0.0, 1.0]])

    def derivative(t, order):
        return (t, np.ones_like(t), np.zeros_like(t))[order]

    products = ScalarField("products", lambda x, y, ax, ay: derivative(x, ax) * derivative(y, ay))
    plus = ScalarField("plus_zeros", lambda x, y, ax, ay: derivative(x, ax) * derivative(y, ay) + 0.0)
    grid = np.linspace(-1.0, 1.0, 5)
    zero = PiecewisePoly2D(grid, grid, np.zeros((4, 4, 1, 1)))
    rule = gauss_rule()
    t = rule.nodes[:, None]
    for alpha in ((2, 0), (0, 2)):
        assert np.signbit(products(t.T, t, *alpha)).any() and not np.signbit(plus(t.T, t, *alpha)).any()

    def norms_of(field):
        values = [v.hex() for v in _seminorms(field, zero, ((2, 0), (0, 2), (1, 1)), None, rule)]
        values.append(linf_sampled(field, zero, None, 3).hex())
        for integral in _per_cell(field, zero, None, rule.nodes, ((2, 0), (0, 2)), _weighted_sum(rule.weights)):
            values += [float(v).hex() for v in integral]
        return values

    got = norms_of(u)
    assert got == norms_of(products) == norms_of(plus)
    assert got[3] == 1.0.hex() and set(got[:2] + got[4:]) == {0.0.hex()}  # max |D^(0,0) u| is 1; the rest are +0.0


def test_norm_pass_memory_stays_within_a_few_blocks():
    # 256 x 256 elements: one field or difference matrix is 13 MB at p = 5,
    # a block of the pass 0.5 MiB.  The ten terms of the layer composite,
    # at p = 4, add rows of x factors to each element row's product and a
    # second block for the parts of its sum.
    f = make_smooth_field("sin_sin")
    poly = interp_full(f, build_macro_mesh(np.linspace(0.0, 1.0, 129), np.linspace(0.0, 1.0, 129)))
    mesh = build_shishkin(1e-6, 256)
    u = make_layer_decomposition(1e-6, smooth="bounded_third").total
    star = build_composite(u, mesh, select_sigma(mesh, "toward_corner"))
    assert len(u.terms) == 10
    for field, interp, rule in ((f, poly, gauss_rule(5)), (u, star, gauss_rule(4))):
        _seminorms(field, interp, ORDERS, rule=rule)
        tracemalloc.start()
        try:
            _seminorms(field, interp, ORDERS, rule=rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


def test_linf_sampled_rejects_a_sample_count_that_is_not_a_positive_integer():
    f = make_smooth_field("sin_sin")
    p = _unit_mesh_poly()
    mesh = build_shishkin(1e-4, 8)
    star = nodal_q2_mesh(f, mesh.grid_x, mesh.grid_y)
    calls = []

    def counted(x, y, ax, ay):
        calls.append((ax, ay))
        return f(x, y, ax, ay)

    for samples in (0, -3, 2.5, 4.0, "4", None):
        with pytest.raises(ValueError, match=re.escape(f"samples_per_element must be an integer of at least 1, not {samples!r}")):
            linf_sampled(f, p, None, samples)
        # the report checks the count before its first norm pass calls the field
        with pytest.raises(ValueError, match=re.escape(f"samples_per_element must be an integer of at least 1, not {samples!r}")):
            compute_norm_report(ScalarField("counted", counted), star, mesh, samples_per_element=samples)
        assert calls == []
    # one sample per axis: the lower-left corner of each element, (0.5, 0.5) among them
    assert linf_sampled(f, p, None, np.int64(1)) == linf_sampled(f, p, None, 1) == pytest.approx(1.0, abs=1e-15)


def test_open_grid_calls_the_field_once_per_order_on_distinct_coordinates(monkeypatch):
    rng = np.random.default_rng(21)
    nx, ny, p = 6, 5, 5
    gx = np.cumsum(np.r_[0.0, rng.uniform(0.01, 1.0, nx)])
    gy = np.cumsum(np.r_[0.0, rng.uniform(0.01, 1.0, ny)])
    poly = PiecewisePoly2D(gx, gy, rng.normal(size=(ny, nx, 3, 3)))
    calls, factor_points = [], {"x": [], "y": []}

    def counted(profile, axis):
        def f(t, order):
            factor_points[axis].append(np.size(t))
            return profile(t, order)

        return f

    product = separable_field("counted", counted(sin_profile(), "x"), counted(exp_profile(2.0), "y"))

    def recorded(x, y, ax, ay):
        calls.append((x, y, ax, ay))
        return product(x, y, ax, ay)

    field = ScalarField("recorded", recorded)
    # two element rows per block: the field is called once per block, on
    # the block's rows against every column
    monkeypatch.setattr(norms, "_BLOCK_VALUES", 2 * p * p * nx)
    _seminorms(field, poly, ORDERS, None, gauss_rule(p))
    assert [(ax, ay) for _, _, ax, ay in calls] == [a for a in ORDERS for _ in range(3)]
    assert [(x.shape, y.shape) for x, y, _, _ in calls] == [((1, nx * p), (2 * p, 1)), ((1, nx * p), (2 * p, 1)), ((1, nx * p), (p, 1))] * len(ORDERS)
    for k in range(len(ORDERS)):
        blocks = calls[3 * k : 3 * k + 3]
        assert all(np.array_equal(x, blocks[0][0]) for x, _, _, _ in blocks)
        rows = np.concatenate([y.ravel() for _, y, _, _ in blocks])
        assert np.unique(blocks[0][0]).size == nx * p and np.unique(rows).size == rows.size == ny * p  # every point once
    assert factor_points == {"x": [nx * p] * 3 * len(ORDERS), "y": [2 * p, 2 * p, p] * len(ORDERS)}
    calls.clear()
    linf_sampled(field, poly, None, 4)
    assert [(x.shape, y.shape, ax, ay) for x, y, ax, ay in calls] == [((1, nx * 4), (12, 1), 0, 0), ((1, nx * 4), (8, 1), 0, 0)]
    assert factor_points["x"][-1] <= nx * 4 and factor_points["y"][-1] <= ny * 4

    # a region is evaluated on its distinct columns and rows only
    calls.clear()
    _seminorms(field, poly, ((0, 0),), [(4, 3), (1, 0), (4, 0)], gauss_rule(p))
    assert [(x.shape, y.shape, ax, ay) for x, y, ax, ay in calls] == [((1, 2 * p), (2 * p, 1), 0, 0)]


def test_norm_pass_evaluates_each_factor_of_a_separable_field_once_per_order(monkeypatch):
    monkeypatch.setattr(PiecewisePoly2D, "evaluate", None)  # the norm pass makes no pointwise evaluation
    rng = np.random.default_rng(22)
    nx, ny, p = 6, 5, 5
    gx = np.cumsum(np.r_[0.0, rng.uniform(0.01, 1.0, nx)])
    gy = np.cumsum(np.r_[0.0, rng.uniform(0.01, 1.0, ny)])
    poly = PiecewisePoly2D(gx, gy, rng.normal(size=(ny, nx, 3, 3)))
    calls, factor_points = [], {"x": [], "y": []}

    def counted(profile, axis):
        def f(t, order):
            factor_points[axis].append(np.size(t))
            return profile(t, order)

        return f

    product = separable_field("counted", counted(sin_profile(), "x"), counted(exp_profile(2.0), "y"))

    def recorded(x, y, ax, ay):
        calls.append((ax, ay))
        return product._eval(x, y, ax, ay)

    recorded.terms = product.terms
    field = ScalarField("recorded", recorded)
    expected = _seminorms(ScalarField("plain", product._eval), poly, ORDERS, None, gauss_rule(p))
    for points in factor_points.values():
        points.clear()
    assert _seminorms(field, poly, ORDERS, None, gauss_rule(p)) == expected
    assert calls == []
    assert factor_points == {"x": [nx * p] * len(ORDERS), "y": [ny * p] * len(ORDERS)}
    linf_sampled(field, poly, [(4, 3), (1, 0), (4, 0)], 4)
    assert calls == []
    assert factor_points["x"][-1] == 2 * 4 and factor_points["y"][-1] == 2 * 4


def test_a_missing_interpolant_is_rejected():
    f = make_smooth_field("sin_sin")
    for norm in (lambda: seminorm(f, None), lambda: linf_sampled(f, None), lambda: _seminorms(f, None, ORDERS)):
        with pytest.raises(ValueError, match="an interpolant is required to define the element mesh"):
            norm()


def test_region_elements_outside_the_mesh_or_repeated_are_rejected():
    f = make_smooth_field("sin_sin")
    p = interp_full(f, build_macro_mesh(np.linspace(0, 1, 5), np.linspace(0, 1, 5)))  # 8x8 elements
    bad = {
        "element (-1, 0) lies outside the 8x8 element mesh": [(-1, 0)],
        "element (8, 0) lies outside": [(0, 0), (8, 0)],
        "element (2, 8) lies outside": [(2, 8), (9, 9)],
        "element (0, 0) appears more than once": [(0, 0), (0, 0)],
        "element (1, 1) appears more than once": [(1, 1), (0, 0), (1, 0), (1, 1), (0, 0)],
    }
    for message, region in bad.items():
        for norm in (lambda r: seminorm(f, p, (0, 0), r), lambda r: linf_sampled(f, p, r), lambda r: _seminorms(f, p, ORDERS, r)):
            with pytest.raises(ValueError, match=re.escape(message)):
                norm(region)
    # four elements that only look like a 2x2 block by their count
    with pytest.raises(ValueError, match="appears more than once"):
        seminorm(f, p, (0, 0), [(0, 0), (0, 0), (1, 1), (1, 1)])
    assert seminorm(f, p, (0, 0), [(0, 0), (1, 1), (1, 0), (0, 1)]) == _seminorm_per_alpha(f, p, (0, 0), [(0, 0), (1, 0), (0, 1), (1, 1)], gauss_rule())


def test_composite_is_measured_as_its_piecewise_polynomial():
    from macrospline.interpolation import evaluate

    mesh = build_shishkin(1e-6, 16)
    u = make_layer_decomposition(1e-6, smooth="bounded_third").total
    star = build_composite(u, mesh, select_sigma(mesh, "toward_corner"))
    assert isinstance(star, PiecewisePoly2D)
    plain = PiecewisePoly2D(star.grid_x, star.grid_y, star.coef)
    edges = classify_edges(mesh)
    interior = edges[edges.edge_type != "boundary"]
    rule = gauss_rule(4)
    region = [(ix, jy) for jy in range(3, 9) for ix in range(2, 7)]
    x, y = np.meshgrid(np.linspace(0.0, 1.0, 13), mesh.grid_y, indexing="ij")
    for alpha in ORDERS:
        assert seminorm(u, star, alpha, region, rule) == seminorm(u, plain, alpha, region, rule)
        assert np.array_equal(evaluate(star, x, y, alpha, ("+", "-")), evaluate(plain, x, y, alpha, ("+", "-")))
    assert _seminorms(u, star, ORDERS, rule=rule) == _seminorms(u, plain, ORDERS, rule=rule)
    assert linf_sampled(u, star, region) == linf_sampled(u, plain, region)
    assert np.array_equal(edge_l2(u, star, interior, rule, (0, 1), "+"), edge_l2(u, plain, interior, rule, (0, 1), "+"))
    for t in ("I", "II", "III", "IV"):
        assert jump_norm_sum(star, edges[edges.edge_type == t], rule) == jump_norm_sum(plain, edges[edges.edge_type == t], rule)


def test_jump_sums_make_no_pointwise_evaluation(monkeypatch):
    mesh = build_shishkin(1e-6, 16)
    u = make_layer_decomposition(1e-6, smooth="bounded_third").total
    star = build_composite(u, mesh, select_sigma(mesh, "toward_corner"))
    edges = classify_edges(mesh)
    rule = gauss_rule(4)
    expected = [jump_norm_sum(PiecewisePoly2D(star.grid_x, star.grid_y, star.coef), edges[edges.edge_type == t], rule) for t in ("I", "II", "III", "IV")]
    cases = list(itertools.product(((0, 0), (1, 0), (0, 1)), ("-", "+")))
    traces = [edge_l2(u, star, edges, rule, alpha, side) for alpha, side in cases]
    monkeypatch.setattr(PiecewisePoly2D, "evaluate", None)
    assert [jump_norm_sum(star, edges[edges.edge_type == t], rule) for t in ("I", "II", "III", "IV")] == expected
    assert all(np.array_equal(edge_l2(u, star, edges, rule, alpha, side), trace) for (alpha, side), trace in zip(cases, traces))


def _differences(field, poly, loc, alpha, region=None):
    """The norm pass's D^alpha (field - poly) on the open grid of ``region``, shape (nuy, p, nux, p), entry [jy, b, ix, a] at (X[ix, a], Y[jy, b])."""
    blocks = []

    def keep(d, wx, wy):
        blocks.append(d.copy())
        return np.zeros(d.shape[::2])

    next(_per_cell(field, poly, region, loc, (alpha,), keep))
    return np.concatenate(blocks)


def _cell_values(poly, loc, alpha, region=None):
    """The norm pass's values of D^alpha poly on the open grid of ``region``, shape (nuy, p, nux, p), entry [jy, b, ix, a] at (X[ix, a], Y[jy, b])."""
    return -_differences(None, poly, loc, alpha, region)


def test_no_product_of_the_norm_pass_sums_more_than_seven_terms(monkeypatch):
    # OpenBLAS's Haswell and Prescott kernels give a row of a product of 8
    # or more terms bits that depend on the product's width, so a cell's
    # differences would depend on how many cells a product covers.  This
    # checks the inner length of every product on any kernel, for fields
    # of 1, 10 and 19 terms, one without terms and None, at p = 4 and 5.
    inner, matmul = [], np.matmul

    def recorded(a, b, *args, **kwargs):
        inner.append(np.shape(a)[-1])
        return matmul(a, b, *args, **kwargs)

    rng = np.random.default_rng(7)
    poly = PiecewisePoly2D(_graded(rng, 6), _graded(rng, 5), rng.normal(size=(5, 6, 4, 4)))
    monkeypatch.setattr(np, "matmul", recorded)
    for name in ("sin_sin", "layer_total", "layer_q2", "exp_xy", None):
        for p in (4, 5):
            inner.clear()
            _seminorms(_OPEN_GRID_FIELDS.get(name), poly, ORDERS, rule=gauss_rule(p))
            assert inner and max(inner) <= norms._FUSED_TERMS == 7
    assert len(_OPEN_GRID_FIELDS["layer_q2"].terms) == 19


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("p", [4, 5])
def test_cell_differences_do_not_depend_on_how_many_cells_a_product_covers(monkeypatch, p):
    # numpy sends a one-row product to GEMV, whose bits can differ from the
    # same row inside a GEMM.  A one-column mesh, a one-row mesh and each
    # single element must give every cell the differences of the whole
    # mesh bit for bit, with one element row per block and with one block,
    # for coefficients of degree 2 in y and of degree 0 (a one-row x product).
    rng = np.random.default_rng(40 + p)
    nx, ny = 5, 4
    gx, gy = _graded(rng, nx), _graded(rng, ny)
    loc = gauss_rule(p).nodes
    fields = (make_smooth_field("sin_sin"), _OPEN_GRID_FIELDS["layer_total"], _OPEN_GRID_FIELDS["layer_q2"], make_smooth_field("exp_xy"), None)
    for shape in ((3, 3), (3, 1)):
        coef = rng.normal(size=(ny, nx, *shape))
        poly = PiecewisePoly2D(gx, gy, coef)
        for field, block, alpha in itertools.product(fields, (2**62, 1), ORDERS):
            monkeypatch.setattr(norms, "_BLOCK_VALUES", block)
            whole = _differences(field, poly, loc, alpha)
            for ix in range(nx):
                column = PiecewisePoly2D(gx[ix : ix + 2], gy, coef[:, ix : ix + 1])
                assert _same_bits(_differences(field, column, loc, alpha), whole[:, :, ix : ix + 1])
            for jy in range(ny):
                row = PiecewisePoly2D(gx, gy[jy : jy + 2], coef[jy : jy + 1])
                assert _same_bits(_differences(field, row, loc, alpha), whole[jy : jy + 1])
                for ix in range(nx):
                    assert _same_bits(_differences(field, poly, loc, alpha, [(ix, jy)]), whole[jy : jy + 1, :, ix : ix + 1])


def _graded(rng, n):
    """n random steps on [0, 1], the last element 2^-50 wide at 1."""
    grid = np.r_[0.0, np.cumsum(rng.uniform(1e-3, 1.0, n - 1))]
    return np.r_[(1.0 - 2.0**-50) * grid[:-1] / grid[-1], 1.0 - 2.0**-50, 1.0]


# Largest |pass - reference| / bound over the cases below, measured with
# numpy 2.4 and OpenBLAS 0.3.31 on x86-64: 0.20 for the pass and 0.27 for the
# einsum, on either mesh.
@pytest.mark.parametrize("order", [4, 5, 10])
@pytest.mark.parametrize("shape", [(3, 3), (2, 3), (4, 4), (4, 2)])
def test_element_kernel_matches_einsum(shape, order):
    # For every derivative order, the sum-factorised cell values of the
    # norm pass and an einsum over the same factors both lie within
    # (k + 2) eps sum |c P Q| (2/w)^a, k = kx * ky coefficients, of an
    # extended-precision reference that differentiates the coefficients,
    # on a mesh of widths 0.5..2 and on a graded one whose last element
    # is 2^-50 wide.
    rng = np.random.default_rng(sum(shape) * 100 + order)
    widths = (np.cumsum(np.r_[0.0, rng.uniform(0.5, 2.0, 6)]), np.cumsum(np.r_[0.0, rng.uniform(0.5, 2.0, 5)]))
    coef = rng.normal(size=(5, 6, *shape)) * 10.0 ** rng.integers(-6, 6, size=(5, 6, *shape))
    meshes = (widths, (_graded(rng, 6), _graded(rng, 5)))
    loc = gauss_rule(order).nodes
    jy, ix = (a.ravel() for a in np.meshgrid(np.arange(5), np.arange(6), indexing="ij"))
    c = coef[jy, ix]
    ld = np.longdouble
    for (grid_x, grid_y), (ax, ay) in itertools.product(meshes, ORDERS):
        poly = PiecewisePoly2D(grid_x, grid_y, coef)
        kernel = _cell_values(poly, loc, (ax, ay))
        assert kernel.shape == (5, order, 6, order)
        kernel = kernel.transpose(0, 2, 3, 1).reshape(len(ix), order, order)  # [e, a, b]
        P, Q = norms._derivative_basis(loc, shape[0], ax), norms._derivative_basis(loc, shape[1], ay)
        scale = ((2.0 / (grid_x[ix + 1] - grid_x[ix])) ** ax * (2.0 / (grid_y[jy + 1] - grid_y[jy])) ** ay)[:, None, None]
        einsum = np.einsum("ekl,pk,ql->epq", c, P, Q) * scale
        d = np.polynomial.polynomial.polyder(np.polynomial.polynomial.polyder(c.astype(ld), ax, axis=1), ay, axis=2)
        Pld = loc.astype(ld)[:, None] ** np.arange(d.shape[1])[None, :]
        Qld = loc.astype(ld)[:, None] ** np.arange(d.shape[2])[None, :]
        scale_ld = ((ld(2) / (grid_x[ix + 1] - grid_x[ix]).astype(ld)) ** ax * (ld(2) / (grid_y[jy + 1] - grid_y[jy]).astype(ld)) ** ay)[:, None, None]
        reference = np.einsum("ekl,pk,ql->epq", d, Pld, Qld) * scale_ld
        magnitude = np.einsum("ekl,pk,ql->epq", np.abs(c), np.abs(P), np.abs(Q)) * scale
        bound = (c[0].size + 2) * np.finfo(float).eps * magnitude
        assert np.all(np.abs(kernel - reference) <= bound)
        assert np.all(np.abs(einsum - reference) <= bound)


def _norm_report_by_loop_grouping(field, poly, mesh, edges, rule):
    """Reference: compute_norm_report with the per-element dict grouping of regions."""
    by_region = {}
    for jy in range(mesh.N):
        for ix in range(mesh.N):
            by_region.setdefault(mesh.region[jy, ix], []).append((ix, jy))
    regional = {}
    for region, elements in sorted(by_region.items()):
        l2, h1x, h1y, h2xx, h2xy, h2yy = _seminorms(field, poly, ORDERS, elements, rule)
        regional[region] = {
            "L2": l2,
            "H1_semi": float(np.sqrt(_pairwise_sum((h1x**2, h1y**2)))),
            "broken_H2_semi": float(np.sqrt(_pairwise_sum((h2xx**2, h2xy**2, h2yy**2)))),
            "Linf_sampled": linf_sampled(field, poly, elements, 4),
        }
    global_values = {
        "L2": float(np.sqrt(_pairwise_sum(v["L2"] ** 2 for v in regional.values()))),
        "H1_semi": float(np.sqrt(_pairwise_sum(v["H1_semi"] ** 2 for v in regional.values()))),
        "broken_H2_semi": float(np.sqrt(_pairwise_sum(v["broken_H2_semi"] ** 2 for v in regional.values()))),
        "Linf_sampled": max(v["Linf_sampled"] for v in regional.values()),
    }
    jump_sums = {t: jump_norm_sum(poly, edges[edges.edge_type == t], rule) for t in ("I", "II", "III", "IV")}
    return NormReport(regional, global_values, jump_sums)


@pytest.mark.parametrize("N", [8, 64])
def test_norm_report_grouping_matches_per_element_loop(N):
    mesh = build_shishkin(1e-6, N)
    u = make_layer_decomposition(1e-6, smooth="bounded_third").total
    star = build_composite(u, mesh, select_sigma(mesh, "toward_corner"))
    edges = classify_edges(mesh)
    rule = gauss_rule(4)
    report = compute_norm_report(u, star, mesh, edges, rule)
    assert list(report.regional) == sorted(set(mesh.region.ravel().tolist()))
    assert report.to_json() == _norm_report_by_loop_grouping(u, star, mesh, edges, rule).to_json()
