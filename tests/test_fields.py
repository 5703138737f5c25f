import math

import numpy as np
import pytest

from macrospline.fields import (
    get_field,
    make_layer_decomposition,
    make_polynomial_field,
    make_smooth_field,
)

# 4th-order central difference weights for first/second derivative
_D1 = ([-2, -1, 1, 2], [1 / 12, -8 / 12, 8 / 12, -1 / 12])
_D2 = ([-2, -1, 0, 1, 2], [-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12])


def _fd(field, x, y, ax, ay, h=None):
    def step(order):
        if h is not None:
            return h
        return 6e-3 if order == 1 else 8e-3

    def fx(f, order):
        if order == 0:
            return f
        offs, wts = _D1 if order == 1 else _D2
        hh = step(order)
        return lambda px, py: sum(w * f(px + o * hh, py) for o, w in zip(offs, wts)) / hh ** min(order, 2)

    def fy(f, order):
        if order == 0:
            return f
        offs, wts = _D1 if order == 1 else _D2
        hh = step(order)
        return lambda px, py: sum(w * f(px, py + o * hh) for o, w in zip(offs, wts)) / hh ** min(order, 2)

    g = fy(fx(lambda px, py: field(px, py), ax), ay)
    return g(x, y)


def test_polynomial_field_xy():
    f = make_polynomial_field([[0.0, 0.0], [0.0, 1.0]])
    assert f(0.3, 0.8) == pytest.approx(0.24)
    assert f(0.3, 0.8, 1, 1) == pytest.approx(1.0)
    assert f(0.1, 0.9, 2, 0) == pytest.approx(0.0)


def test_polynomial_field_x2y2():
    f = make_polynomial_field([[0, 0, 0], [0, 0, 0], [0, 0, 1.0]])
    assert f(0.4, 0.7, 2, 2) == pytest.approx(4.0)


def test_polynomial_field_matches_fd():
    rng = np.random.default_rng(3)
    f = make_polynomial_field(rng.normal(size=(3, 3)))
    pts = rng.uniform(0.1, 0.9, size=(20, 2))
    for ax, ay in ((1, 0), (0, 1), (1, 1), (2, 0), (2, 2)):
        for x, y in pts:
            exact = f(x, y, ax, ay)
            # polynomials carry no truncation error, so a large step is best
            approx = _fd(f, x, y, ax, ay, h=5e-2)
            assert approx == pytest.approx(exact, rel=1e-6, abs=1e-6)


def test_sin_sin_values():
    f = make_smooth_field("sin_sin")
    assert f(0.5, 0.5) == pytest.approx(1.0)
    assert f(0.5, 0.5, 2, 0) == pytest.approx(-math.pi**2)


def test_exp_xy_closed_form():
    f = make_smooth_field("exp_xy")
    assert f(0.0, 0.0, 1, 1) == pytest.approx(1.0)
    # higher orders: differentiate the exact next-lower derivative numerically
    offs, wts = _D1
    h = 6e-3
    rng = np.random.default_rng(5)
    for x, y in rng.uniform(-0.8, 0.8, size=(10, 2)):
        for ax, ay in ((2, 1), (3, 1), (3, 3)):
            stencil = sum(w * f(x + o * h, y, ax - 1, ay) for o, w in zip(offs, wts)) / h
            assert f(x, y, ax, ay) == pytest.approx(stencil, rel=1e-7, abs=1e-7)


def test_smooth_fields_match_fd_at_random_points():
    # relative to the magnitude of the derivative over the sample
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.05, 0.95, size=(200, 2))
    for name in ("sin_sin", "exp_xy", "runge"):
        f = make_smooth_field(name)
        for ax, ay in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 2)):
            exact = f(pts[:, 0], pts[:, 1], ax, ay)
            approx = np.array([_fd(f, x, y, ax, ay) for x, y in pts])
            scale = max(np.max(np.abs(exact)), 1.0)
            assert np.max(np.abs(approx - exact)) / scale < 1e-6


def test_layer_decomposition_total_is_sum():
    dec = make_layer_decomposition(1e-4)
    u = dec.total
    x = np.linspace(0, 1, 7)
    y = np.linspace(0, 1, 7)[:, None]
    parts = sum(c(x, y) for c in dec.components().values())
    assert np.max(np.abs(u(x, y) - parts)) < 1e-14


def test_layer_e1_boundary_restriction():
    dec = make_layer_decomposition(1e-6, c_star=1.0)
    e1 = dec.components()["E1"]
    g_like = [e1(x, 0.0) for x in (0.0, 0.3, 1.0)]
    # exp(0) = 1 so the trace equals the modulation profile
    assert g_like[0] == pytest.approx(1.0)
    assert g_like[1] == pytest.approx(1.0 + 0.3 * 0.7)


def test_layer_e1_derivative_scaling():
    eps = 1e-6
    dec = make_layer_decomposition(eps, c_star=1.0)
    e1 = dec.components()["E1"]
    rate = 1.0 / math.sqrt(eps)
    for y in (0.0, 0.5 * math.sqrt(eps), 4 * math.sqrt(eps)):
        expected = -rate * math.exp(-rate * y) * e1(0.5, 0.0) / e1(0.5, 0.0)
        ratio = e1(0.5, y, 0, 1) / (rate * math.exp(-rate * y))
        assert abs(ratio) < 4.0  # eps^{-1/2} exp decay pattern, constant bounded


def test_corner_layer_small_at_transition():
    eps, N, lam0 = 1e-6, 16, 3.0
    lam = lam0 * math.sqrt(eps) * math.log(N)
    dec = make_layer_decomposition(eps, c_star=1.0)
    e12 = dec.components()["E12"]
    assert abs(e12(lam, lam)) <= N ** (-6.0) * (1 + 1e-12)


def test_edge_layer_small_at_transition_line():
    eps, N, lam0 = 1e-8, 32, 3.0
    lam = lam0 * math.sqrt(eps) * math.log(N)
    dec = make_layer_decomposition(eps, c_star=1.0)
    e1 = dec.components()["E1"]
    xs = np.linspace(0, 1, 33)
    gmax = 1.25  # max of 1 + t(1-t)
    assert np.max(np.abs(e1(xs, lam))) <= N ** (-3.0) * gmax * (1 + 1e-12)


def test_smooth_variants():
    for name in ("default", "bounded_third", "eps_growth"):
        dec = make_layer_decomposition(1e-4, smooth=name)
        assert np.isfinite(dec.smooth(0.3, 0.7, 3, 3))
    with pytest.raises(ValueError):
        make_layer_decomposition(1e-4, smooth="nope")
    with pytest.raises(ValueError):
        make_layer_decomposition(2.0)


def test_eps_growth_third_derivative_pattern():
    eps = 1e-4
    dec = make_layer_decomposition(eps, smooth="eps_growth")
    # D^(3,0) of the oscillatory part scales like eps^{-1/2}
    sup = max(abs(dec.smooth(x, 0.37, 3, 0)) for x in np.linspace(0, 1, 50))
    assert sup > 0.1 / math.sqrt(eps)
    assert sup < 10.0 / math.sqrt(eps)


def test_registry():
    f = get_field("sin_plus_sin")
    assert f(0.25, 0.5, 1, 1) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        get_field("not_a_field")


def test_polynomial_field_matches_polyval2d():
    rng = np.random.default_rng(5)
    for shape in ((1, 1), (3, 3), (4, 2)):
        c = rng.normal(size=shape)
        f = make_polynomial_field(c)
        x, y = rng.uniform(-2.0, 2.0, (2, 30))
        for ax in range(3):
            for ay in range(3):
                d = c
                for _ in range(ax):
                    d = np.polynomial.polynomial.polyder(d, axis=0)
                for _ in range(ay):
                    d = np.polynomial.polynomial.polyder(d, axis=1)
                assert np.array_equal(f(x, y, ax, ay), np.polynomial.polynomial.polyval2d(x, y, d))
                assert np.array_equal(f(x[:, None], y[None, :], ax, ay), np.polynomial.polynomial.polyval2d(*np.broadcast_arrays(x[:, None], y[None, :]), d))
                assert f(x[0], y[0], ax, ay) == np.polynomial.polynomial.polyval2d(x[0], y[0], d)
