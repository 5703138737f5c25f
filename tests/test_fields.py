import functools
import math
import operator
from collections import Counter

import numpy as np
import pytest

import macrospline.fields as fields_mod
from macrospline.fields import (
    ScalarField,
    exp_profile,
    field_registry,
    get_field,
    make_layer_decomposition,
    make_polynomial_field,
    make_smooth_field,
    separable_field,
    sin_profile,
)
from macrospline.interpolation import PiecewisePoly2D
from macrospline.norms import ORDERS, _per_cell
from macrospline.quadrature import gauss_rule

from _reference import unflushed_exp_profile

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


@pytest.mark.parametrize("c_star", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
def test_layer_factors_are_never_subnormal(eps, c_star):
    # exp(-rate t) is a subnormal double for rate t between about 708 and 745,
    # and x86 takes a microcode assist on each subnormal operand of a product.
    # The decays flush such values to exact 0 and keep the bits of every other.
    tiny = np.finfo(float).tiny
    layers = make_layer_decomposition(eps, c_star=c_star).edge_layers
    decay0, decay1 = layers[1].terms[0][1], layers[3].terms[0][1]  # E2 = decay0(x) g(y), E4 = decay1(x) g(y)
    rate = c_star / math.sqrt(eps)
    band = np.linspace(700.0, 750.0, 5001) / rate  # rate t across the subnormal band and past it
    t0, t1 = np.r_[np.linspace(0.0, 1.0, 10001), band], np.r_[np.linspace(0.0, 1.0, 10001), 1.0 - band]  # decay1 meets the band at 1 - t
    raw = unflushed_exp_profile(-rate)
    assert np.any((raw(band, 0) != 0.0) & (np.abs(raw(band, 0)) < tiny))
    for order in range(5):
        for values, unflushed in ((decay0(t0, order), raw(t0, order)), (decay1(t1, order), (-1.0) ** order * raw(1.0 - t1, order))):
            assert np.all((values == 0.0) | (np.abs(values) >= tiny))
            assert np.array_equal(values, np.where(np.abs(unflushed) < tiny, 0.0, unflushed))
    # the norm pass's x factors are c times the decays: an edge amplitude below 1
    # takes values just above tiny below it, and the scaled factors are flushed again
    total = make_layer_decomposition(eps, c_star=c_star, edge_amplitude=0.05).total
    x = np.r_[t0, t1]
    x = x[(0.0 <= x) & (x <= 1.0)]  # the domain: the growing factors overflow far outside it
    for order in range(5):
        F = total.factor(0, x, order)
        assert np.all((F == 0.0) | (np.abs(F) >= tiny))


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


def test_polynomial_field_differentiates_once_per_order_pair(monkeypatch):
    # the values stay polyval2d of the differentiated coefficients, bit for bit
    rng = np.random.default_rng(6)
    c = rng.normal(size=(4, 3))
    x, y = rng.uniform(-2.0, 2.0, (2, 20))
    P = np.polynomial.polynomial
    want = {(ax, ay): P.polyval2d(x, y, P.polyder(P.polyder(c, ax, axis=0), ay, axis=1)) for ax in range(5) for ay in range(5)}
    calls = []
    polyder = P.polyder
    monkeypatch.setattr(P, "polyder", lambda *args, **kwargs: calls.append(args[1:]) or polyder(*args, **kwargs))
    f = make_polynomial_field(c)
    assert calls == []
    for _ in range(3):
        for (ax, ay), values in want.items():
            assert np.array_equal(f(x, y, ax, ay), values)
    assert len(calls) == 2 * len(want)


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


# ---------------------------------------------------------------------------
# Rank-one terms and their factors on an open grid.
# ---------------------------------------------------------------------------


def _graded_grid(rng, n):
    """n random steps on [0, 1], the last element 2^-50 wide at 1."""
    grid = np.r_[0.0, np.cumsum(rng.uniform(1e-3, 1.0, n - 1))]
    grid = (1.0 - 2.0**-50) * grid / grid[-1]
    return np.r_[grid[:-1], 1.0 - 2.0**-50, 1.0]


def _open_grid_points(rng, nx, ny, p):
    loc = gauss_rule(p).nodes
    gx, gy = _graded_grid(rng, nx), _graded_grid(rng, ny)
    X = (0.5 * (gx[:-1] + gx[1:]))[:, None] + (0.5 * np.diff(gx))[:, None] * loc[None, :]
    Y = (0.5 * (gy[:-1] + gy[1:]))[:, None] + (0.5 * np.diff(gy))[:, None] * loc[None, :]
    return X, Y


def _terms_reference(field, X, Y, ax, ay):
    """Extended-precision sum of the field's terms on the open grid, and the sum of their magnitudes."""
    ld = np.longdouble
    total = np.zeros((len(Y), len(X), X.shape[1], Y.shape[1]), dtype=ld)
    magnitude = np.zeros(total.shape)
    for c, fx, fy in field.terms:
        term = ld(c) * np.broadcast_to(fx(X, ax), X.shape).astype(ld)[None, :, :, None] * np.broadcast_to(fy(Y, ay), Y.shape).astype(ld)[:, None, None, :]
        total += term
        magnitude += np.abs(term).astype(float)
    return total, (len(field.terms) + 2) * np.finfo(float).eps * magnitude


def _open_grid_matrix(field, X, Y, ax, ay):
    """``field.factor`` on the rows and the columns of the open grid, multiplied out as (ny, nx, p, p), entry [jy, ix, a, b] at (X[ix, a], Y[jy, b])."""
    Fx, Fy = field.factor(0, X.ravel(), ax), field.factor(1, Y.ravel(), ay)
    assert Fx.shape == (len(field.terms), X.size) and Fy.shape == (len(field.terms), Y.size)
    matrix = np.multiply.outer(Fy[0], Fx[0]) if len(Fx) == 1 else Fy.T @ Fx  # rows (jy, b), columns (ix, a)
    return matrix.reshape(len(Y), Y.shape[1], len(X), X.shape[1]).transpose(0, 2, 3, 1)


@pytest.mark.parametrize("smooth", ["default", "bounded_third", "eps_growth"])
@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
def test_grid_is_within_a_summation_bound_of_the_terms(smooth, eps):
    # Both the GEMM of the factors and the broadcast pointwise call lie
    # within (r + 2) eps sum|c fx fy| of an extended-precision sum of the terms.
    rng = np.random.default_rng(round(-math.log10(eps)) * 10 + len(smooth))
    fields = (make_layer_decomposition(eps, smooth=smooth).total, make_layer_decomposition(eps, smooth=smooth, smooth_amplitude=10.0, edge_amplitude=0.05).total)
    for u in fields:
        for nx, ny, p in ((9, 6, 4), (5, 12, 5)):
            X, Y = _open_grid_points(rng, nx, ny, p)
            for ax, ay in ORDERS:
                reference, bound = _terms_reference(u, X, Y, ax, ay)
                grid = _open_grid_matrix(u, X, Y, ax, ay)
                broadcast = u(X[None, :, :, None], Y[:, None, None, :], ax, ay)
                assert grid.shape == broadcast.shape == (ny, nx, p, p)
                assert np.all(np.abs(grid - reference) <= bound)
                assert np.all(np.abs(broadcast - reference) <= bound)


def test_grid_layout_on_an_asymmetric_field():
    # sin(x) e^(2y) + x^2 y on a grid with nx != ny: Fy.T @ Fx has row (jy, b) at Y[jy, b] and column (ix, a) at X[ix, a].
    u = separable_field("sin_exp", sin_profile(1.0), exp_profile(2.0)) + make_polynomial_field([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    assert len(u.terms) == 2
    rng = np.random.default_rng(4)
    X, Y = _open_grid_points(rng, 7, 3, 4)
    for ax, ay in ORDERS:
        bound = _terms_reference(u, X, Y, ax, ay)[1]
        broadcast = u(X[None, :, :, None], Y[:, None, None, :], ax, ay)
        assert np.all(np.abs(_open_grid_matrix(u, X, Y, ax, ay) - broadcast) <= bound)
        Fx, Fy = u.factor(0, X.ravel(), ax), u.factor(1, Y.ravel(), ay)
        matrix = Fy.T @ Fx
        assert matrix.shape == (3 * 4, 7 * 4)
        assert np.all(np.abs(matrix - u(X.ravel()[None, :], Y.ravel()[:, None], ax, ay)) <= bound.transpose(0, 3, 1, 2).reshape(matrix.shape))


def test_one_term_grid_is_the_broadcast_call():
    # One term is one product per entry, so the outer product of the two
    # factors equals the pointwise call bit for bit.
    X, Y = _open_grid_points(np.random.default_rng(8), 6, 5, 4)
    for name in ("sin_sin", "runge"):
        field = make_smooth_field(name)
        assert len(field.terms) == 1
        for ax in range(4):
            for ay in range(4):
                grid = _open_grid_matrix(field, X, Y, ax, ay)
                assert grid.shape == (5, 6, 4, 4)
                assert np.array_equal(grid, field(X[None, :, :, None], Y[:, None, None, :], ax, ay))


def test_grid_without_terms_is_the_broadcast_call():
    # A field without terms has no factors; the norm pass calls it on the
    # broadcast of its rows against its columns instead, here on the
    # open grid of a zero interpolant, so the difference is the field.
    rng = np.random.default_rng(6)
    loc = gauss_rule(3).nodes
    gx, gy = _graded_grid(rng, 4), _graded_grid(rng, 3)
    X = (0.5 * (gx[:-1] + gx[1:]))[:, None] + (0.5 * np.diff(gx))[:, None] * loc[None, :]
    Y = (0.5 * (gy[:-1] + gy[1:]))[:, None] + (0.5 * np.diff(gy))[:, None] * loc[None, :]
    zero = PiecewisePoly2D(gx, gy, np.zeros((3, 4, 3, 3)))
    x_only = ScalarField("x", lambda x, y, ax, ay: np.sin(x) if ax == ay == 0 else 0.0)
    for field in (make_smooth_field("exp_xy"), x_only):
        for ax, ay in ORDERS:
            assert field.factor(0, X.ravel(), ax) is None and field.factor(1, Y.ravel(), ay) is None
            blocks = []
            next(_per_cell(field, zero, None, loc, ((ax, ay),), lambda d, wx, wy: blocks.append(d.copy()) or np.zeros(d.shape[::3])))
            grid = np.concatenate(blocks).transpose(0, 3, 2, 1)
            assert grid.shape == (3, 4, 3, 3)
            assert np.array_equal(grid, np.broadcast_to(field(X[None, :, :, None], Y[:, None, None, :], ax, ay), grid.shape))
    with pytest.raises(ValueError, match="derivative orders"):
        make_smooth_field("sin_sin").factor(0, X.ravel(), 5)


def test_terms_ride_on_eval():
    decompositions = [make_layer_decomposition(1e-6, smooth=s) for s in ("default", "bounded_third", "eps_growth")]
    fields = [make() for make in field_registry().values()] + [d.total for d in decompositions]
    for f in fields:
        assert ScalarField(f.name, f._eval).terms == f.terms
    assert all(f.terms for f in fields if f.name != "exp_xy")
    assert [len(d.total.terms) for d in decompositions] == [10, 10, 11]
    assert len(get_field("q2_random").terms) == 9 and len(get_field("x3y3").terms) == 1

    # a field without terms, and any sum with one, has none
    poly = PiecewisePoly2D([0.0, 1.0], [0.0, 1.0], np.ones((1, 1, 2, 2)))
    sin_sin = make_smooth_field("sin_sin")
    for plain in (make_smooth_field("exp_xy"), poly.as_field()):
        assert plain.terms is None
        assert (sin_sin + plain).terms is None and (plain + sin_sin).terms is None
        assert plain.scaled(2.0).terms is None

    # pointwise values compose as before: + adds the two calls, scaled multiplies one
    rng = np.random.default_rng(9)
    x, y = rng.uniform(0.0, 1.0, (2, 40))
    exp_xy = make_smooth_field("exp_xy")
    for ax in range(3):
        for ay in range(3):
            for d in decompositions:
                parts = list(d.components().values())
                want = parts[0](x, y, ax, ay)
                for part in parts[1:]:
                    want = want + part(x, y, ax, ay)
                assert np.array_equal(d.total(x, y, ax, ay), want)
            assert np.array_equal((sin_sin + exp_xy)(x, y, ax, ay), sin_sin(x, y, ax, ay) + exp_xy(x, y, ax, ay))
            assert np.array_equal(sin_sin.scaled(0.3)(x, y, ax, ay), 0.3 * sin_sin(x, y, ax, ay))
            assert np.array_equal(sin_sin(x, y, ax, ay), sin_profile()(x, ax) * sin_profile()(y, ay))


@pytest.fixture
def counted_layer_total(monkeypatch):
    """The acceptance layer total built from factor factories whose factors log each call by factory name, and the log."""
    calls = []
    for name in ("exp_profile", "_poly1d", "sin_profile", "_monomial"):

        def factory(*args, _make=getattr(fields_mod, name), _name=name):
            f = _make(*args)
            return lambda t, order: calls.append(_name) or f(t, order)

        monkeypatch.setattr(fields_mod, name, factory)
    total = make_layer_decomposition(1e-6, smooth="bounded_third", smooth_amplitude=10.0, edge_amplitude=0.05).total
    assert len(total.terms) == 10
    return total, calls


def test_layer_total_evaluates_each_distinct_factor_once_per_axis(counted_layer_total):
    # 10 terms share 5 distinct factors per axis: sin, the constant monomial,
    # 1 + t(1-t) and the two decays, the reflected one calling exp once more.
    total, calls = counted_layer_total
    x, y = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 7)[:, None]
    for ax, ay in ORDERS:
        calls.clear()
        assert total(x, y, ax, ay).shape == (7, 9)
        assert Counter(calls) == {"sin_profile": 2, "_monomial": 2, "_poly1d": 2, "exp_profile": 4}


def test_layer_total_call_differentiates_no_polynomial(counted_layer_total, monkeypatch):
    total, _ = counted_layer_total
    polyder_calls = []
    polyder = np.polynomial.polynomial.polyder
    monkeypatch.setattr(np.polynomial.polynomial, "polyder", lambda *args, **kwargs: polyder_calls.append(args) or polyder(*args, **kwargs))
    for ax in range(5):
        for ay in range(5):
            total(0.3, 0.7, ax, ay)
    assert polyder_calls == []


def test_a_sum_of_many_fields_is_one_flat_sum():
    # a sum of fields with terms is their joined terms, not a chain of
    # nested calls, so its depth does not grow with the number of fields
    sin_sin = make_smooth_field("sin_sin")
    n = 1200
    total = functools.reduce(operator.add, [sin_sin] * n)
    assert len(total.terms) == n
    x, y = np.random.default_rng(12).uniform(0.0, 1.0, (2, 50))
    for ax, ay in ((0, 0), (1, 2), (4, 4)):
        one = sin_sin(x, y, ax, ay)
        assert np.all(np.abs(total(x, y, ax, ay) - n * one) <= n * n * np.finfo(float).eps * np.abs(one))


def test_a_field_whose_terms_are_all_zero_is_zero():
    zero = make_polynomial_field(np.zeros((2, 2)))
    x, y = np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 3)[:, None]
    for f in (zero, zero.scaled(2.0), zero + zero):
        assert f.terms == ()
        assert np.array_equal(f(x, y, 1, 0), np.zeros((3, 4)))


_ALL_FIELDS = {
    **{name: make for name, make in field_registry().items()},
    **{f"layer_{smooth}": lambda smooth=smooth: make_layer_decomposition(1e-6, smooth=smooth).total for smooth in ("default", "bounded_third", "eps_growth")},
}


@pytest.mark.parametrize("name", sorted(_ALL_FIELDS))
def test_orders_up_to_four_are_finite_and_others_are_rejected(name):
    f = _ALL_FIELDS[name]()
    x, y = np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 5)
    assert np.all(np.isfinite(f(x[:, None], y[None, :], 4, 4)))
    assert all(F is None or np.all(np.isfinite(F)) for F in (f.factor(0, x, 4), f.factor(1, y, 4)))
    for order in ((5, 0), (-1, 0), (0, 5), (0, -1)):
        with pytest.raises(ValueError, match="0..4"):
            f(x, y, *order)
    for axis, t in ((0, x), (1, y)):
        for order in (5, -1):
            with pytest.raises(ValueError, match="0..4"):
                f.factor(axis, t, order)


def _fold_reference(terms, x, y, ax, ay):
    """The term sum as a plain left fold: each distinct factor once per axis, then total + c * (vx * vy) term by term."""
    fx_values, fy_values = {}, {}
    total = np.zeros(np.broadcast(x, y).shape) if not terms else None
    for c, fx, fy in terms:
        if fx not in fx_values:
            fx_values[fx] = np.broadcast_to(fx(x, ax), np.shape(x))
        if fy not in fy_values:
            fy_values[fy] = np.broadcast_to(fy(y, ay), np.shape(y))
        term = c * (fx_values[fx] * fy_values[fy])
        total = term if total is None else total + term
    return total


def _fold_inputs():
    rng = np.random.default_rng(23)
    x, y = rng.uniform(0.0, 1.0, (2, 11))
    return {
        "scalar": (0.3, 0.7),
        "0-d": (np.array(0.3), np.array(0.7)),
        "1-d": (x, y),
        "open grid": (x[:, None], rng.uniform(0.0, 1.0, 6)[None, :]),
    }


@pytest.mark.parametrize("c", [1.0, -1.0, 0.05, 10, 0.0])
def test_terms_call_is_the_plain_left_fold_bit_for_bit(c):
    # The in-place fold keeps the ufuncs and the order of total + c * (vx * vy),
    # with and without the multiply by c; factors that return one value for
    # all points (a broadcast constant) or a constant derivative are included.
    constant = lambda t, order: 2.5 if order == 0 else 0.0
    odd = (
        (c, fields_mod._monomial(0), sin_profile()),
        (c, fields_mod._poly1d([3.0, -1.0]), constant),
        (c, constant, fields_mod._monomial(0)),
        (-c, exp_profile(-7.0), fields_mod._poly1d([1.0, 1.0, -1.0])),
    )
    layer = make_layer_decomposition(1e-6, smooth="eps_growth").total.terms
    inputs = _fold_inputs()
    for terms in (odd, tuple((c * k, fx, fy) for k, fx, fy in layer), odd[:1], ()):
        field = ScalarField("terms", fields_mod._Terms(terms))
        for x, y in inputs.values():
            for ax in range(5):
                for ay in range(5):
                    want = _fold_reference(terms, x, y, ax, ay)
                    got = field._eval(x, y, ax, ay)
                    assert np.shape(got) == np.shape(want)
                    assert np.all(got == want)
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                    assert np.asarray(field(x, y, ax, ay)).tobytes() == np.asarray(want).tobytes()


def test_line_grids_are_the_pointwise_call_bit_for_bit():
    # Each factor is evaluated once per (axis, order, line), and a grid
    # folds the stored values as the pointwise call does.
    total = make_layer_decomposition(1e-8, smooth="bounded_third", smooth_amplitude=10.0, edge_amplitude=0.05).total
    calls = Counter()

    def counted(f):
        return lambda t, order: calls.update([f]) or f(t, order)

    wrapped = {f: counted(f) for _, fx, fy in total.terms for f in (fx, fy)}
    field = ScalarField("counted", fields_mod._Terms((c, wrapped[fx], wrapped[fy]) for c, fx, fy in total.terms))
    x, y = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 5)[::2]  # a strided line too
    grids = fields_mod._LineGrids(field)
    for _ in range(2):
        V = grids.grid(x, y, [0, 1], [0, 1])
        assert V.shape == (2, 2, 9, 3)
        for ax in range(2):
            for ay in range(2):
                want = total(x[:, None], y[None, :], ax, ay)
                assert V[ax, ay].tobytes() == want.tobytes()
    # 5 distinct factors on each of the 2 axes, at 2 orders, however often the grids are asked for
    assert sum(calls.values()) == 5 * 2 * 2
    # a field without terms makes one pointwise call per order pair
    exp_xy = make_smooth_field("exp_xy")
    plain = fields_mod._LineGrids(exp_xy)
    assert np.array_equal(plain.grid(x, y, [1], [0, 2])[0, 1], exp_xy(x[:, None], y[None, :], 1, 2))
