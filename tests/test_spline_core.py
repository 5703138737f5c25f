import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrospline import interpolation, norms, spline_core
from macrospline.interpolation import _HB, _LG3, _NB
from macrospline.spline_core import (
    DualWeight,
    HermiteData1D,
    KnotSequence,
    MacroSpline1D,
    divided_difference,
    edge_hat_basis,
    edge_spline_basis,
    edge_theta,
    eval_dual_weight,
    eval_ref_basis,
    eval_world_basis,
    hermite_divided_differences,
    hermite_interpolate_1d,
    integrate_dual_weight,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


def test_ref_basis_endpoint_conditions():
    # value/slope Kronecker pattern at the endpoints
    assert eval_ref_basis("phi_minus", 0, -1.0) == pytest.approx(1.0, abs=1e-15)
    assert eval_ref_basis("phi_plus", 0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert eval_ref_basis("psi_minus", 1, -1.0) == pytest.approx(1.0, abs=1e-15)
    assert eval_ref_basis("psi_plus", 1, 1.0) == pytest.approx(1.0, abs=1e-15)
    for kind in ("phi_plus", "psi_minus", "psi_plus"):
        assert eval_ref_basis(kind, 0, -1.0) == pytest.approx(0.0, abs=1e-15)
    for kind in ("phi_minus", "psi_minus", "psi_plus"):
        assert eval_ref_basis(kind, 0, 1.0) == pytest.approx(0.0, abs=1e-15)
    for kind in ("phi_minus", "phi_plus", "psi_plus"):
        assert eval_ref_basis(kind, 1, -1.0) == pytest.approx(0.0, abs=1e-15)
    for kind in ("phi_minus", "phi_plus", "psi_minus"):
        assert eval_ref_basis(kind, 1, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_ref_basis_midpoint_value():
    assert eval_ref_basis("phi_minus", 0, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_ref_basis_symmetry_sampled():
    x = np.linspace(-1.0, 1.0, 10_000)
    phi_m = eval_ref_basis("phi_minus", 0, x)
    phi_p = eval_ref_basis("phi_plus", 0, -x)
    psi_m = eval_ref_basis("psi_minus", 0, x)
    psi_p = eval_ref_basis("psi_plus", 0, -x)
    assert np.max(np.abs(phi_m - phi_p)) < 1e-14
    assert np.max(np.abs(psi_m + psi_p)) < 1e-14


def test_ref_basis_derivatives_of_phi_are_even_and_opposite():
    # phi' is an even function and phi_plus' = -phi_minus', so the four
    # basis derivatives span a three-dimensional space
    x = np.linspace(-1.0, 1.0, 1001)
    dm = eval_ref_basis("phi_minus", 1, x)
    assert np.max(np.abs(dm - eval_ref_basis("phi_minus", 1, -x))) < 1e-14
    dp = eval_ref_basis("phi_plus", 1, x)
    assert np.max(np.abs(dp - eval_ref_basis("phi_plus", 1, -x))) < 1e-14
    assert np.max(np.abs(dp + dm)) < 1e-14


def test_ref_basis_second_derivative_sides():
    left = eval_ref_basis("phi_minus", 2, 0.0, side="left_limit")
    right = eval_ref_basis("phi_minus", 2, 0.0, side="right_limit")
    assert left == pytest.approx(-1.0)
    assert right == pytest.approx(1.0)


def test_ref_basis_domain_error():
    with pytest.raises(ValueError):
        eval_ref_basis("phi_minus", 0, 1.5)


def test_divided_difference_repeated_is_derivative():
    ks = KnotSequence(((-1.0, 2),))
    assert divided_difference(ks, [[5.0, 3.0]]) == pytest.approx(3.0, abs=1e-15)


def test_divided_difference_constant_annihilation():
    ks = KnotSequence(((-1.0, 2), (1.0, 2)))
    assert divided_difference(ks, [[7.0, 0.0], [7.0, 0.0]]) == pytest.approx(0.0, abs=1e-15)


def test_divided_difference_x_squared():
    # u(x) = x^2: u[-1,-1,1] = (u(1)-u(-1))/4 - u'(-1)/2 = 0 + 1
    ks = KnotSequence(((-1.0, 2), (1.0, 1)))
    assert divided_difference(ks, [[1.0, -2.0], [1.0]]) == pytest.approx(1.0, abs=1e-15)


def test_divided_difference_data_mismatch():
    ks = KnotSequence(((-1.0, 2), (1.0, 1)))
    with pytest.raises(ValueError):
        divided_difference(ks, [[1.0], [1.0]])


def test_knot_sequence_validation():
    with pytest.raises(ValueError):
        KnotSequence(((1.0, 1), (0.0, 1)))
    with pytest.raises(ValueError):
        KnotSequence(((0.0, 5),))


@given(v0=finite, d0=finite, v1=finite, d1=finite)
@settings(max_examples=100, deadline=None)
def test_newton_equals_lagrange_assembly(v0, d0, v1, d1):
    data = HermiteData1D(v0, d0, v1, d1)
    s_newton = hermite_interpolate_1d(data, assembly="newton")
    s_lagrange = hermite_interpolate_1d(data, assembly="lagrange")
    x = np.linspace(-1.0, 1.0, 41)
    scale = max(1.0, abs(v0), abs(d0), abs(v1), abs(d1))
    assert np.max(np.abs(s_newton(x) - s_lagrange(x))) < 1e-12 * scale
    assert s_newton.c1_defect() < 1e-12 * scale


@given(v0=finite, d0=finite, v1=finite, d1=finite)
@settings(max_examples=50, deadline=None)
def test_hermite_conditions_met(v0, d0, v1, d1):
    data = HermiteData1D(v0, d0, v1, d1)
    s = hermite_interpolate_1d(data, interval=(0.25, 1.75))
    scale = max(1.0, abs(v0), abs(d0), abs(v1), abs(d1))
    assert s(0.25) == pytest.approx(v0, abs=1e-12 * scale)
    assert s(1.75) == pytest.approx(v1, abs=1e-12 * scale)
    assert s(0.25, order=1) == pytest.approx(d0, abs=1e-12 * scale)
    assert s(1.75, order=1) == pytest.approx(d1, abs=1e-12 * scale)


def test_hermite_linear_reproduction():
    data = HermiteData1D(-1.0, 1.0, 1.0, 1.0)  # u(x) = x
    s = hermite_interpolate_1d(data)
    x = np.linspace(-1, 1, 17)
    assert np.max(np.abs(s(x) - x)) < 1e-14


def test_hermite_quadratic_newton_coefficients():
    data = HermiteData1D(1.0, -2.0, 1.0, 2.0)  # u(x) = x^2
    dd = hermite_divided_differences(data)
    assert dd == pytest.approx([1.0, -2.0, 1.0, 0.0], abs=1e-15)
    s = hermite_interpolate_1d(data)
    x = np.linspace(-1, 1, 17)
    assert np.max(np.abs(s(x) - x * x)) < 1e-14


def test_hermite_degenerate_interval():
    with pytest.raises(ValueError):
        hermite_interpolate_1d(HermiteData1D(0, 1, 0, 1), interval=(1.0, 1.0))


def test_hermite_post_example():
    s = hermite_interpolate_1d(HermiteData1D(0.0, 1.0, 0.0, 1.0))
    assert s(-1.0) == pytest.approx(0.0, abs=1e-14)
    assert s(1.0) == pytest.approx(0.0, abs=1e-14)
    assert s(-1.0, order=1) == pytest.approx(1.0, abs=1e-14)
    assert s(1.0, order=1) == pytest.approx(1.0, abs=1e-14)


def _macro_grid(n_macros, lo=0.0, hi=1.0, rng=None):
    """Element grid (macro nodes at even indices, exact midpoints between)."""
    macro = np.linspace(lo, hi, n_macros + 1)
    coords = np.empty(2 * n_macros + 1)
    coords[0::2] = macro
    coords[1::2] = 0.5 * (macro[:-1] + macro[1:])
    return coords


def test_world_phi_psi_tables():
    xs = _macro_grid(4)
    i = 4  # interior macro node
    assert eval_world_basis(xs, i, "phi", 0, xs[i]) == pytest.approx(1.0, abs=1e-14)
    assert eval_world_basis(xs, i, "phi", 0, xs[i - 2]) == pytest.approx(0.0, abs=1e-14)
    assert eval_world_basis(xs, i, "phi", 0, xs[i - 1]) == pytest.approx(0.5, abs=1e-14)
    assert eval_world_basis(xs, i, "psi", 1, xs[i]) == pytest.approx(1.0, abs=1e-12)
    assert eval_world_basis(xs, i, "psi", 1, xs[i - 1]) == pytest.approx(-0.5, abs=1e-12)
    assert eval_world_basis(xs, i, "psi", 0, xs[i]) == pytest.approx(0.0, abs=1e-14)
    # compact support: exactly zero outside [x_{i-2}, x_{i+2}]
    outside = np.array([xs[i - 2] - 0.05, xs[i + 2] + 0.05])
    assert np.all(eval_world_basis(xs, i, "phi", 0, outside) == 0.0)
    assert np.all(eval_world_basis(xs, i, "psi", 0, outside) == 0.0)


def test_world_psi_scaling():
    # psi values scale with h, slopes stay O(1)
    for h in (0.1, 0.01):
        xs = _macro_grid(4, 0.0, 4 * 2 * h)
        sup = np.max(np.abs(eval_world_basis(xs, 4, "psi", 0, np.linspace(xs[2], xs[6], 601))))
        dsup = np.max(np.abs(eval_world_basis(xs, 4, "psi", 1, np.linspace(xs[2], xs[6], 601))))
        assert sup == pytest.approx(h / 3.0, rel=1e-4)  # attained at xhat = -1/3
        assert dsup == pytest.approx(1.0, rel=1e-10)


def test_world_lagrange():
    xs = np.array([0.0, 0.5, 2.0])
    assert eval_world_basis(xs, 1, "lagrange_full", 0, 0.5) == pytest.approx(1.0)
    assert eval_world_basis(xs, 1, "lagrange_full", 0, 0.25) == pytest.approx(0.0, abs=1e-14)
    assert eval_world_basis(xs, 1, "lagrange_full", 0, 1.25) == pytest.approx(0.0, abs=1e-14)
    assert eval_world_basis(xs, 0, "lagrange_half", 0, 0.25) == pytest.approx(1.0)
    assert eval_world_basis(xs, 0, "lagrange_half", 0, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert eval_world_basis(xs, 0, "lagrange_half", 0, 0.5) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(IndexError):
        eval_world_basis(xs, 5, "lagrange_full", 0, 0.25)


def test_dual_weight_unit_integral():
    for interval, side in (((0.0, 1.0), "left"), ((0.0, 1.0), "right"), ((2.0, 2.2), "left")):
        w = DualWeight(interval, side)
        assert integrate_dual_weight(w) == pytest.approx(1.0, abs=1e-12)


def test_dual_weight_midpoint_value():
    h = 0.35
    w = DualWeight((0.0, 2 * h), "left")
    assert eval_dual_weight(w, h) == pytest.approx(-1.0 / (2 * h), rel=1e-12)


def test_dual_weight_duality_uniform_and_graded():
    # pairing with the slope basis derivative is a Kronecker delta,
    # on a unit edge and on one ten times shorter
    nodes, wts = np.polynomial.legendre.leggauss(6)
    for a, b in ((0.0, 1.0), (1.0, 1.1)):
        mid = 0.5 * (a + b)
        for dual_side in ("left", "right"):
            w = DualWeight((a, b), dual_side)
            for basis_side in ("left", "right"):
                total = 0.0
                for lo, hi in ((a, mid), (mid, b)):
                    half = 0.5 * (hi - lo)
                    pts = 0.5 * (lo + hi) + half * nodes
                    total += half * np.dot(
                        wts, eval_dual_weight(w, pts) * edge_spline_basis((a, b), basis_side, 1, pts)
                    )
                expected = 1.0 if dual_side == basis_side else 0.0
                assert total == pytest.approx(expected, abs=1e-12)


def test_edge_functions_orthogonal_to_hat_slopes():
    nodes, wts = np.polynomial.legendre.leggauss(6)
    for a, b in ((0.0, 1.0), (0.3, 0.34)):
        mid = 0.5 * (a + b)
        psum = lambda x: edge_spline_basis((a, b), "left", 0, x) + edge_spline_basis((a, b), "right", 0, x)
        for hat_side in ("left", "right"):
            for fn in (psum, lambda x: edge_theta((a, b), x)):
                total = 0.0
                for lo, hi in ((a, mid), (mid, b)):
                    half = 0.5 * (hi - lo)
                    pts = 0.5 * (lo + hi) + half * nodes
                    total += half * np.dot(wts, fn(pts) * edge_hat_basis((a, b), hat_side, 1, pts))
                assert total == pytest.approx(0.0, abs=1e-12)


def test_macro_spline_c1_invariant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.normal(size=4)
        s = hermite_interpolate_1d(HermiteData1D(*v), interval=(0.0, 0.125))
        assert s.c1_defect() < 1e-12


# ---------------------------------------------------------------------------
# The module as it was built from np.polynomial: reference pieces as dicts,
# element tables rebased by Polynomial composition, the macro-spline stored in
# per-piece centred variables, every value by polyder + polyval.
# ---------------------------------------------------------------------------

_EARLIER_REF = {
    "phi_minus": ([0.5, -1.0, -0.5], [0.5, -1.0, 0.5]),
    "phi_plus": ([0.5, 1.0, 0.5], [0.5, 1.0, -0.5]),
    "psi_minus": ([0.25, -0.5, -0.75], [0.25, -0.5, 0.25]),
    "psi_plus": ([-0.25, -0.5, -0.25], [-0.25, -0.5, 0.75]),
}
_EARLIER_NEWTON = {
    1: ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
    2: ([1.0, 1.0, 0.0], [1.0, 1.0, 0.0]),
    3: ([1.0, 2.0, 1.0], [1.0, 2.0, 1.0]),
    4: ([-1.0, -2.0, -1.0], [-1.0, -2.0, 3.0]),
}
_EARLIER_LAGRANGE3 = {-1: [0.0, -0.5, 0.5], 0: [1.0, 0.0, -1.0], 1: [0.0, 0.5, 0.5]}
_HERMITE_ORDER = ("phi_minus", "psi_minus", "phi_plus", "psi_plus")


def _poly_eval(coef, x, order):
    return np.polynomial.polynomial.polyval(x, np.polynomial.polynomial.polyder(np.asarray(coef, dtype=float), order))


def _rebase(coef, scale, shift):
    q = np.polynomial.Polynomial(coef)(np.polynomial.Polynomial([shift, scale]))
    out = np.zeros(len(coef))
    out[: len(q.coef)] = q.coef
    return out


def _local_pieces(pieces):
    left, right = pieces
    return _rebase(left, 0.5, -0.5), _rebase(right, 0.5, 0.5)


def _centred_spline(data, a, b, assembly):
    """The earlier MacroSpline1D: (knot, evaluator) with pieces in x minus the piece midpoint."""
    w, knot = 0.5 * (b - a), 0.5 * (a + b)
    ref = (data.value_left, w * data.deriv_left, data.value_right, w * data.deriv_right)
    if assembly == "newton":
        dd = hermite_divided_differences(HermiteData1D(*ref))
        ref_pieces = [sum(dd[k] * np.array(_EARLIER_NEWTON[k + 1][p]) for k in range(4)) for p in (0, 1)]
    else:
        ref_pieces = [sum(c * np.array(_EARLIER_REF[k][p]) for k, c in zip(_HERMITE_ORDER, ref)) for p in (0, 1)]
    centres = (0.5 * (a + knot), 0.5 * (knot + b))
    pieces = [_rebase(coef, 1.0 / w, (xc - knot) / w) for coef, xc in zip(ref_pieces, centres)]

    def spline(x, order, side):
        use_left = (x < knot) | ((x == knot) & (side == "left_limit"))
        return np.where(use_left, _poly_eval(pieces[0], x - centres[0], order), _poly_eval(pieces[1], x - centres[1], order))

    return knot, spline


def _earlier_world_basis(xs, node_index, kind, order, x):
    """The earlier eval_world_basis: one loop per kind, each later segment overwriting at the shared node."""
    n, x = len(xs), np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    if kind in ("phi", "psi"):
        for lo, hi, ref_kind in ((node_index - 2, node_index, f"{kind}_plus"), (node_index, node_index + 2, f"{kind}_minus")):
            if lo < 0 or hi > n - 1:
                continue
            h = xs[lo + 1] - xs[lo]
            mask = (x >= xs[lo]) & (x <= xs[hi])
            xhat = np.clip((x[mask] - xs[lo + 1]) / h, -1.0, 1.0)
            left, right = _EARLIER_REF[ref_kind]
            vals = np.where(xhat < 0.0, _poly_eval(left, xhat, order), _poly_eval(right, xhat, order))
            out[mask] = (h if kind == "psi" else 1.0) * vals / h**order
    else:
        segments = ((node_index - 1, node_index, 1), (node_index, node_index + 1, -1)) if kind == "lagrange_full" else ((node_index, node_index + 1, 0),)
        for lo, hi, node in segments:
            if lo < 0 or hi > n - 1:
                continue
            h = 0.5 * (xs[hi] - xs[lo])
            mask = (x >= xs[lo]) & (x <= xs[hi])
            out[mask] = _poly_eval(_EARLIER_LAGRANGE3[node], (x[mask] - 0.5 * (xs[lo] + xs[hi])) / h, order) / h**order
    return out


def test_one_derivative_basis_serves_every_module():
    assert interpolation._derivative_basis is spline_core._derivative_basis
    assert norms._derivative_basis is spline_core._derivative_basis


def test_element_tables_equal_the_rebased_polynomials_bit_for_bit():
    ref_local = {k: _local_pieces(v) for k, v in _EARLIER_REF.items()}
    newton_local = {k: _local_pieces(v) for k, v in _EARLIER_NEWTON.items()}
    for side in (0, 1):
        hermite = np.vstack([ref_local[k][side] for k in _HERMITE_ORDER])
        newton = np.vstack([newton_local[k][side] for k in (1, 2, 3, 4)])
        assert np.array_equal(_HB[side], hermite) and _HB[side].tobytes() == hermite.tobytes()
        assert np.array_equal(_NB[side], newton) and _NB[side].tobytes() == newton.tobytes()
    lagrange = np.vstack([_EARLIER_LAGRANGE3[-1], _EARLIER_LAGRANGE3[0], _EARLIER_LAGRANGE3[1]])
    assert _LG3.tobytes() == lagrange.tobytes()


@given(
    v0=finite,
    d0=finite,
    v1=finite,
    d1=finite,
    offset=st.sampled_from([0.0, -1.0, 0.25, 1e3]),
    width=st.sampled_from([1e-9, 1e-4, 0.125, 2.0, 7.0]),
    assembly=st.sampled_from(["newton", "lagrange"]),
)
@settings(max_examples=100, deadline=None)
def test_macro_spline_equals_the_centred_piece_spline(v0, d0, v1, d1, offset, width, assembly):
    data = HermiteData1D(v0, d0, v1, d1)
    a, b = offset, offset + width
    s = hermite_interpolate_1d(data, interval=(a, b), assembly=assembly)
    knot, earlier = _centred_spline(data, s.interval[0], s.interval[1], assembly)
    assert s.knot == knot
    w = 0.5 * (s.interval[1] - s.interval[0])
    x = np.append(np.linspace(s.interval[0], s.interval[1], 33), knot)
    for order in (0, 1, 2):
        scale = max(1.0, abs(v0), abs(v1), w * abs(d0), w * abs(d1)) / w**order
        for side in ("left_limit", "right_limit"):
            assert np.max(np.abs(s(x, order, side) - earlier(x, order, side))) <= 1e-14 * scale
            assert abs(s(knot, order, side) - float(earlier(np.array(knot), order, side))) <= 1e-14 * scale


def test_world_basis_equals_the_earlier_loop_for_every_kind_and_order():
    macro = np.array([0.0, 0.1, 0.35, 0.4, 1.0])
    xs = np.empty(2 * len(macro) - 1)
    xs[0::2], xs[1::2] = macro, 0.5 * (macro[:-1] + macro[1:])
    x = np.concatenate([xs, np.random.default_rng(5).uniform(-0.1, 1.1, 400)])  # every node, shared or not
    n = len(xs)
    for kind, nodes in (("phi", range(0, n, 2)), ("psi", range(0, n, 2)), ("lagrange_full", range(n)), ("lagrange_half", range(n - 1))):
        for i in nodes:
            for order in (0, 1, 2):
                expected = _earlier_world_basis(xs, i, kind, order, x)
                got = eval_world_basis(xs, i, kind, order, x)
                assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
                assert eval_world_basis(xs, i, kind, order, xs[i]) == pytest.approx(float(expected[i]), rel=1e-14, abs=1e-14 * np.max(np.abs(expected)))


def test_a_nan_point_is_rejected():
    nan = float("nan")
    with pytest.raises(ValueError):
        eval_ref_basis("phi_minus", 0, nan)
    with pytest.raises(ValueError):
        eval_ref_basis("phi_minus", 0, np.array([0.0, nan]))
    with pytest.raises(ValueError):
        hermite_interpolate_1d(HermiteData1D(0.0, 1.0, 0.0, 1.0))(nan)
    with pytest.raises(ValueError):
        eval_dual_weight(DualWeight((0.0, 1.0), "left"), nan)
    for kind in ("phi", "psi", "lagrange_full", "lagrange_half"):
        with pytest.raises(ValueError):
            eval_world_basis(np.linspace(0.0, 1.0, 5), 2, kind, 0, nan)
    # a point outside the support is zero, an infinite one too
    assert eval_world_basis(np.linspace(0.0, 1.0, 5), 1, "lagrange_full", 0, np.inf) == 0.0


def test_macro_spline_limits_at_the_knot_and_a_wrong_side():
    s = hermite_interpolate_1d(HermiteData1D(0.0, 1.0, 0.0, 1.0))
    assert s(0.0, order=2, side="left_limit") == pytest.approx(-2.0, abs=1e-14)
    assert s(0.0, order=2, side="right_limit") == pytest.approx(2.0, abs=1e-14)
    assert s(0.0, order=2) == s(0.0, order=2, side="right_limit")
    for side in ("left", "right", "+"):
        with pytest.raises(ValueError):
            s(0.0, order=2, side=side)
    with pytest.raises(ValueError):
        s(0.0, order=-1)
    with pytest.raises(ValueError):
        s(1.5)
    with pytest.raises(ValueError):
        eval_ref_basis("phi_minus", 2, 0.0, side="left")


@pytest.mark.parametrize("edge", [(1.0, 0.0), (1.0, 1.0), (0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)])
def test_a_degenerate_reversed_or_non_finite_edge_is_rejected(edge):
    with pytest.raises(ValueError):
        edge_spline_basis(edge, "left", 0, 0.25)
    with pytest.raises(ValueError):
        edge_hat_basis(edge, "right", 1, 0.25)
    with pytest.raises(ValueError):
        edge_theta(edge, 0.25)
    with pytest.raises(ValueError):
        DualWeight(edge, "left")


def test_an_unknown_node_side_is_rejected():
    for fn in (edge_spline_basis, edge_hat_basis):
        for side in ("middle", "minus", "right_limit"):
            with pytest.raises(ValueError):
                fn((0.0, 1.0), side, 0, 0.25)
    with pytest.raises(ValueError):
        DualWeight((0.0, 1.0), "middle")


@pytest.mark.parametrize(
    "nodes",
    [((float("nan"), 2),), ((-1.0, 2), (float("nan"), 2)), ((-1.0, 1), (np.inf, 1)), ((-np.inf, 1),), ((0.0, 1.5),), ((0.0, 0),), ((0.0, 5),), ((0.0, "2"),)],
)
def test_knot_sequence_rejects_bad_knots(nodes):
    with pytest.raises(ValueError):
        KnotSequence(nodes)


def test_knot_sequence_takes_numpy_integer_multiplicities():
    assert KnotSequence(((-1.0, np.int64(2)), (1.0, 1))).expanded() == [-1.0, -1.0, 1.0]


@pytest.mark.parametrize("edge", [(0.1, 0.3), (0.1, 0.7), (1e-9, 3e-9)])
def test_edge_bases_take_both_ends_of_an_edge_whose_midpoint_rounds(edge):
    # (0.1 - 0.2) / 0.09999999999999999 rounds to -1.0000000000000002; an
    # end of the edge must still be taken, at the reference end -1 or 1 to
    # within the rounding of its coordinate
    a, b = edge
    h = 0.5 * (b - a)
    for family, fn in (("psi", edge_spline_basis), ("phi", edge_hat_basis)):
        for node_side, kind in (("left", f"{family}_minus"), ("right", f"{family}_plus")):
            for order in (0, 1, 2):
                for end, t in ((a, -1.0), (b, 1.0)):
                    unscale = h**order / (h if family == "psi" else 1.0)
                    for value in (fn(edge, node_side, order, end), fn(edge, node_side, order, np.array([end]))[0]):
                        assert value * unscale == pytest.approx(eval_ref_basis(kind, order, t), abs=1e-14)
                for bad in (a - 1e-3 * h, b + 1e-3 * h, np.nan):
                    with pytest.raises(ValueError, match="outside"):
                        fn(edge, node_side, order, bad)
    # the dual weight checks the point itself against the edge, not its rounded reference coordinate
    for side in ("left", "right"):
        w = DualWeight(edge, side)
        assert np.all(np.isfinite(eval_dual_weight(w, np.array([a, b]))))
        for bad in (a - 1e-3 * h, b + 1e-3 * h, np.nan):
            with pytest.raises(ValueError, match="outside"):
                eval_dual_weight(w, bad)
