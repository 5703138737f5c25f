import itertools
import math
from collections import Counter

import numpy as np
import pytest

from macrospline import oracles
from macrospline.fields import ScalarField, make_polynomial_field, make_smooth_field
from macrospline.interpolation import PiecewisePoly2D, interp_aniso, interp_bfs, interp_full_macro, interp_reduced_macro
from macrospline.mesh import build_macro_mesh
from macrospline.norms import seminorm
from macrospline.oracles import (
    HERMITE_NODE_SEQS,
    LAGRANGE_NODE_SEQS,
    BoundSpec,
    KnotSequence,
    aniso_functional_checks,
    bound_consistency,
    bound_spec_catalog,
    brute_force_divided_difference,
    check_duality_and_functionals,
    check_trace_inequality,
    divided_difference_2d,
    dual_weight_checks,
    fd_check,
    kronecker_table,
    orthogonality_checks,
    peano_checks,
    reduced_functional_checks,
)
from macrospline.quadrature import gauss_rule, integrate2d
from macrospline.spline_core import divided_difference

from _reference import assert_within_roundoff, cell_integrals, seminorm_per_alpha


REF_MACRO = (-1.0, 1.0, -1.0, 1.0)


def test_fd_check_polynomial():
    f = make_polynomial_field(np.random.default_rng(0).normal(size=(3, 3)))
    pts = np.random.default_rng(1).uniform(0.2, 0.8, size=(30, 2))
    for alpha in ((1, 0), (1, 1), (2, 2)):
        assert fd_check(f, alpha, pts, step=5e-2) < 1e-9


def test_fd_check_sin():
    f = make_smooth_field("sin_sin")
    pts = np.random.default_rng(2).uniform(0.1, 0.9, size=(50, 2))
    for alpha in ((1, 0), (0, 2), (2, 2)):
        assert fd_check(f, alpha, pts) < 1e-6


def test_fd_check_interpolant():
    f = make_smooth_field("exp_xy")
    p = interp_full_macro(f, (0.0, 1.0, 0.0, 1.0))
    # interior points of one element, clear of the knot lines
    pts = np.random.default_rng(3).uniform(0.1, 0.4, size=(20, 2))
    for alpha in ((1, 0), (1, 1), (2, 2)):
        assert fd_check(lambda x, y, ax, ay: p.evaluate(x, y, ax, ay), alpha, pts, step=2e-2) < 1e-8


def test_fd_check_step_underflow():
    f = make_smooth_field("sin_sin")
    with pytest.raises(ValueError):
        fd_check(f, (1, 0), [(0.5, 0.5)], step=1e-12)


def test_brute_force_dd_matches_table_algorithm():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n_knots = rng.integers(1, 4)
        positions = np.sort(rng.uniform(-1, 1, size=n_knots))
        while len(positions) > 1 and np.min(np.diff(positions)) < 1e-3:
            positions = np.sort(rng.uniform(-1, 1, size=n_knots))
        mults = rng.integers(1, 4, size=n_knots)
        ks = KnotSequence(tuple((float(p), int(m)) for p, m in zip(positions, mults)))
        coeffs = rng.normal(size=7)

        def f1d(x, order):
            d = coeffs
            for _ in range(order):
                d = np.polynomial.polynomial.polyder(d)
            return float(np.polynomial.polynomial.polyval(x, d))

        data = [[f1d(p, k) for k in range(m)] for (p, m) in ks.nodes]
        a = divided_difference(ks, data)
        b = brute_force_divided_difference(ks, f1d)
        assert a == pytest.approx(b, abs=1e-12 * max(1.0, abs(b)))


def test_brute_force_dd_constant():
    ks = KnotSequence(((0.0, 1), (1.0, 2)))
    assert brute_force_divided_difference(ks, lambda x, o: 3.0 if o == 0 else 0.0) == pytest.approx(0.0, abs=1e-15)


def test_brute_force_dd_closed_forms():
    rng = np.random.default_rng(8)
    c = rng.normal(size=5)

    def f1d(x, order):
        d = c
        for _ in range(order):
            d = np.polynomial.polynomial.polyder(d)
        return float(np.polynomial.polynomial.polyval(x, d))

    u_m, du_m, u_p, du_p = f1d(-1, 0), f1d(-1, 1), f1d(1, 0), f1d(1, 1)
    assert brute_force_divided_difference(KnotSequence(((-1.0, 2), (1.0, 1))), f1d) == pytest.approx(
        0.25 * (u_p - u_m) - 0.5 * du_m, abs=1e-13
    )
    assert brute_force_divided_difference(KnotSequence(((-1.0, 2), (1.0, 2))), f1d) == pytest.approx(
        0.25 * (u_m - u_p + du_m + du_p), abs=1e-13
    )


def test_2d_divided_difference_invariance_under_full_interpolation():
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = make_polynomial_field(rng.normal(size=(4, 4)))
        p = interp_full_macro(u, (-1.0, 1.0, -1.0, 1.0))
        for i in range(1, 5):
            for j in range(1, 5):
                xs, ys = HERMITE_NODE_SEQS[i], HERMITE_NODE_SEQS[j]
                du = divided_difference_2d(u, xs, ys)
                dp = divided_difference_2d(lambda x, y, ax, ay: p.evaluate(x, y, ax, ay), xs, ys)
                assert du == pytest.approx(dp, abs=1e-11 * max(1.0, abs(du)))


def _naive_dd(zs, f):
    """The divided-difference recursion without a leaf memo: every leaf reached is evaluated."""
    if zs[0] == zs[-1]:
        n = len(zs) - 1
        return f(zs[0], n) / math.factorial(n)
    return (_naive_dd(zs[1:], f) - _naive_dd(zs[:-1], f)) / (zs[-1] - zs[0])


def _naive_dd_2d(fn, xseq, yseq):
    return float(_naive_dd(tuple(yseq), lambda y, ay: _naive_dd(tuple(xseq), lambda x, ax: fn(x, y, ax, ay))))


def _naive_brute_force(knots, field1d):
    return float(_naive_dd(tuple(knots.expanded()), field1d))


KNOT_PAIRS = [(HERMITE_NODE_SEQS[i], HERMITE_NODE_SEQS[j]) for i in range(1, 5) for j in range(1, 5)] + [
    (LAGRANGE_NODE_SEQS[i], HERMITE_NODE_SEQS[j]) for i in range(1, 4) for j in range(1, 5)
]


def test_2d_divided_difference_equals_the_naive_recursion_bit_for_bit():
    rng = np.random.default_rng(5)
    for _ in range(4):
        u = make_polynomial_field(rng.normal(size=(5, 5)))
        fields = (u, interp_aniso(u, REF_MACRO, "y_spline").evaluate, interp_full_macro(u, REF_MACRO).evaluate)
        for fn in fields:
            for xs, ys in KNOT_PAIRS:
                assert divided_difference_2d(fn, xs, ys) == _naive_dd_2d(fn, xs, ys)


def test_aniso_and_peano_checks_equal_the_uncached_oracles(monkeypatch):
    got = [r.as_dict() for r in aniso_functional_checks() + peano_checks()]
    monkeypatch.setattr(oracles, "_once", lambda fn: fn)
    monkeypatch.setattr(oracles, "divided_difference_2d", _naive_dd_2d)
    monkeypatch.setattr(oracles, "brute_force_divided_difference", _naive_brute_force)
    assert got == [r.as_dict() for r in aniso_functional_checks() + peano_checks()]


def _leaves(zs):
    """The distinct (z, n) leaves the recursion over ``zs`` reaches."""
    seen = set()
    _naive_dd(zs, lambda z, n: seen.add((z, n)) or 0.0)
    return seen


def test_each_distinct_leaf_is_evaluated_once_per_call():
    u = make_polynomial_field(np.random.default_rng(6).normal(size=(4, 4)))
    for xs, ys in KNOT_PAIRS:
        calls = Counter()

        def counted(x, y, ax, ay):
            calls[(x, y, ax, ay)] += 1
            return u(x, y, ax, ay)

        for repeat in (1, 2):  # nothing is kept from one call to the next
            divided_difference_2d(counted, xs, ys)
            assert set(calls) == {(x, y, ax, ay) for x, ax in _leaves(xs) for y, ay in _leaves(ys)}
            assert set(calls.values()) == {repeat}
    for nodes in (((-1.0, 2), (1.0, 2)), ((-1.0, 3), (0.5, 1), (1.0, 2))):
        calls = Counter()
        brute_force_divided_difference(KnotSequence(nodes), lambda x, o: calls.update([(x, o)]) or float(x) ** 3)
        assert set(calls) == _leaves(tuple(KnotSequence(nodes).expanded()))
        assert set(calls.values()) == {1}


@pytest.mark.parametrize(
    "xs, ys, message",
    [
        ((1.0, -1.0, 1.0), (-1.0,), "non-decreasing"),
        ((-1.0,), (1.0, -1.0), "non-decreasing"),
        ((-1.0, 0.0, float("nan")), (-1.0,), "finite"),
        ((float("nan"),), (-1.0,), "finite"),
        ((-1.0,), (math.inf, math.inf), "finite"),
        ((), (-1.0,), "empty"),
        ((-1.0,), [], "empty"),
    ],
)
def test_2d_divided_difference_rejects_bad_knots(xs, ys, message):
    u = make_polynomial_field(np.ones((3, 3)))
    with pytest.raises(ValueError, match=message):
        divided_difference_2d(u, xs, ys)


def test_kronecker_table():
    dev, table = kronecker_table()
    assert dev < 1e-12
    assert table.shape == (16, 16)


def test_identity_suites_pass():
    for result in dual_weight_checks() + orthogonality_checks() + peano_checks() + reduced_functional_checks() + aniso_functional_checks():
        assert result.passed, f"{result.name}: {result.value:.3e} > {result.tolerance:.1e}"


def _nan_where(fn, predicate):
    """``fn``, returning NaN instead on the calls whose arguments satisfy ``predicate``."""

    def patched(*args, **kwargs):
        return np.nan if predicate(*args, **kwargs) else fn(*args, **kwargs)

    return patched


def test_a_nan_after_a_finite_term_fails_the_reduced_invariance_checks(monkeypatch):
    # the interpolant's line integrals on y = 1 (and x = 1) follow finite ones on y = -1
    monkeypatch.setattr(oracles, "_line", _nan_where(oracles._line, lambda v, level, *_: not isinstance(v, ScalarField) and level == 1.0))
    results = {r.name: r for r in reduced_functional_checks()}
    for trial in range(5):
        for name in (f"reduced_dx_invariance[{trial}]", f"reduced_dxy_invariance[{trial}]"):
            assert math.isnan(results[name].value) and not results[name].passed, name
        assert results[f"reduced_F5_identity[{trial}]"].passed and results[f"reduced_F7_identity[{trial}]"].passed


def test_a_nan_after_a_finite_term_fails_the_aniso_table_checks(monkeypatch):
    # every divided difference after the first entry of the first trial is NaN
    calls = itertools.count(1)
    monkeypatch.setattr(oracles, "divided_difference_2d", _nan_where(oracles.divided_difference_2d, lambda *_: next(calls) > 2))
    results = aniso_functional_checks()
    assert [r.name for r in results] == [f"aniso_table_{kind}[{trial}]" for trial in range(3) for kind in ("identities", "invariance")]
    for r in results:
        assert math.isnan(r.value) and not r.passed, r.name


def test_full_suite_aggregator():
    results = check_duality_and_functionals()
    assert len(results) > 50
    assert all(r.passed for r in results)


def test_trace_inequality_constant_equality():
    c = make_polynomial_field([[2.0]])
    hx, hy = 0.5, 0.125
    lhs, rhs = check_trace_inequality(c, (0.0, hx, 0.0, hy))
    assert lhs == pytest.approx(2 * hy * 4.0, rel=1e-12)
    assert lhs == pytest.approx(rhs, rel=1e-12)  # v_x = 0 makes it sharp


def test_trace_inequality_random_and_stretched():
    rng = np.random.default_rng(13)
    for trial in range(100):
        f = make_polynomial_field(rng.normal(size=(3, 3)))
        aspect = 10.0 ** rng.uniform(0, 6)
        el = (0.0, 1.0, 0.0, 1.0 / aspect)
        lhs, rhs = check_trace_inequality(f, el)
        assert lhs <= rhs * (1 + 1e-10)


def test_bound_consistency_reproduction_class():
    specs = bound_spec_catalog()
    meshes = [build_macro_mesh(np.linspace(0, 1, n + 1), np.linspace(0, 1, n + 1)) for n in (2, 4)]
    f = make_polynomial_field([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])  # x^2
    res = bound_consistency(specs["reduced_dx"], f, meshes)
    assert res["zero_rhs_ok"]
    assert not res["sup_ratios"]


def test_bound_consistency_bounded_ratios_smoke():
    specs = bound_spec_catalog()
    f = make_smooth_field("sin_sin")
    meshes = [build_macro_mesh(np.linspace(0, 1, n + 1), np.linspace(0, 1, n + 1)) for n in (2, 4, 8)]
    for name in ("full_g10", "bfs_g00"):
        res = bound_consistency(specs[name], f, meshes)
        assert res["max_over_min"] < 4.0
        assert res["zero_rhs_ok"]


def test_bound_consistency_rejects_other_meshes_and_operators():
    spec = bound_spec_catalog()["full_g00"]
    f = make_smooth_field("sin_sin")
    with pytest.raises(ValueError, match="not list"):
        bound_consistency(spec, f, [[(0.0, 1.0, 0.0, 1.0)]])
    mesh = build_macro_mesh([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="'cubic'"):
        bound_consistency(BoundSpec("bad", "cubic", (0, 0), spec.terms), f, [mesh])


_RULE10 = gauss_rule(10)
_MACRO_OPERATORS = {
    "full": interp_full_macro,
    "reduced": interp_reduced_macro,
    "bfs": interp_bfs,
    "aniso_y": lambda field, bounds: interp_aniso(field, bounds, "y_spline"),
}


def _macro_rhs(spec, field, bounds):
    x0, x1, y0, y1 = bounds
    h1, h2 = 0.5 * (x1 - x0), 0.5 * (y1 - y0)
    total = 0.0
    for term in spec.terms:
        w = h1 ** term.weight[0] * h2 ** term.weight[1]
        if term.kind == "seminorm":
            val = math.sqrt(integrate2d(lambda X, Y: field(X, Y, *term.total) ** 2, x0, x1, y0, y1, _RULE10))
        else:
            val = abs(integrate2d(lambda X, Y: field(X, Y, *term.total), x0, x1, y0, y1, _RULE10))
        total += w * val
    return total


# bound_consistency and the per-macro loop build their interpolants by
# different products, the mesh operator and the scalar one.  Under
# OPENBLAS_CORETYPE=Nehalem their coefficients differ at roundoff (see
# Known fragilities in README.md), which the scale S of _reference does
# not count.  The largest |batched - loop| / (eps scale) over the cases of
# test_bound_consistency_matches_the_per_macro_loop is 115.2 there
# (reduced_dx, exp_xy on the aspect-100 meshes) and at most 0.12 under the
# other four kernels of _reference.ROUNDOFF; the test allows 4 times 115.2.
_OPERATOR_ROUNDOFF = 461.0


def _macro_rhs_scales(spec, field, mesh):
    """Per macro of ``mesh``, in ``macro_bounds(i, j)`` order j then i, ``_macro_rhs`` of the scale S of ``_reference`` in place of each term's derivative: its norm for a seminorm term, its integral for a mean term."""
    mx, my = mesh.macro_x.coordinates, mesh.macro_y.coordinates
    zero = PiecewisePoly2D(mx, my, np.zeros((len(my) - 1, len(mx) - 1, 1, 1)))
    elements = [(i, j) for j in range(len(my) - 1) for i in range(len(mx) - 1)]
    h1, h2 = np.tile(0.5 * np.diff(mx), len(my) - 1), np.repeat(0.5 * np.diff(my), len(mx) - 1)
    total = np.zeros(len(elements))
    for term in spec.terms:
        cells = cell_integrals(field, zero, term.total, elements, _RULE10, absolute=True, square=term.kind == "seminorm")
        total += h1 ** term.weight[0] * h2 ** term.weight[1] * (np.sqrt(cells) if term.kind == "seminorm" else cells)
    return total


def _per_macro_bound_consistency(spec, field, meshes):
    """The per-macro loop over the paper-level definitions: a scalar operator, ``seminorm`` and one ``integrate2d`` per term.

    A level's entry of ``scales`` bounds the roundoff of its sup ratio
    LHS / RHS: the largest (LS + ratio RS) / RHS over the macros that
    enter it, where LS and RS are the LHS and the RHS of the scale S of
    ``_reference``.
    """
    sup_ratios, scales, zero_rhs_lhs = [], [], []
    for mesh in meshes:
        nmx, nmy = mesh.n_macros
        macros = []
        for bounds, rhs_scale in zip((mesh.macro_bounds(i, j) for j in range(nmy) for i in range(nmx)), _macro_rhs_scales(spec, field, mesh)):
            poly = _MACRO_OPERATORS[spec.operator](field, bounds)
            lhs_scale = seminorm_per_alpha(field, poly, spec.gamma, None, _RULE10, absolute=True)
            macros.append((seminorm(field, poly, spec.gamma, rule=_RULE10), _macro_rhs(spec, field, bounds), lhs_scale, rhs_scale))
        floor = 1e-12 * max(max(rhs for _, rhs, _, _ in macros), 1.0)
        ratios = [(lhs / rhs, (ls + lhs / rhs * rs) / rhs) for lhs, rhs, ls, rs in macros if rhs > floor]
        zero_rhs_lhs.extend(lhs for lhs, rhs, _, _ in macros if rhs <= floor)
        if ratios:
            sup_ratios.append(max(ratio for ratio, _ in ratios))
            scales.append(max(scale for _, scale in ratios))
    return {"sup_ratios": sup_ratios, "scales": scales, "zero_rhs_ok": all(lhs <= 1e-10 for lhs in zero_rhs_lhs)}


def _square_and_graded_meshes(aspect):
    meshes = [build_macro_mesh(np.linspace(0.0, 1.0, n + 1), np.linspace(0.0, 1.0 / aspect, n + 1)) for n in (2, 4, 8, 16)]
    # macro rows and columns differ in number and in width, so a macro that takes another's elements shows
    meshes.append(build_macro_mesh(np.linspace(0.0, 1.0, 4) ** 1.5, np.linspace(0.0, 1.0, 6) ** 2 / aspect))
    return meshes


@pytest.mark.parametrize("name", sorted(bound_spec_catalog()))
def test_bound_consistency_matches_the_per_macro_loop(name):
    spec = bound_spec_catalog()[name]
    cases = [(make_smooth_field(f), _square_and_graded_meshes(aspect)) for f in ("sin_sin", "exp_xy") for aspect in (1.0, 100.0)]
    # the zero-RHS fields of criterion 8, each on the two coarsest square meshes
    p1 = make_polynomial_field([[0.5, 1.0], [0.25, 0.0]])
    p2 = make_polynomial_field([[0.0, 0.5, 1.0], [0.25, 1.0, 0.0], [1.0, 0.0, 0.0]])
    p3 = make_polynomial_field([[0.0, 0.5, 1.0, 0.5], [0.25, 1.0, 0.5, 0.0], [1.0, 0.5, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]])
    x2 = make_polynomial_field([[0.0], [0.0], [1.0]])
    for f in (p1, p2, p3, x2):
        cases.append((f, _square_and_graded_meshes(1.0)[:2]))
    for field, meshes in cases:
        got = bound_consistency(spec, field, meshes)
        want = _per_macro_bound_consistency(spec, field, meshes)
        assert got["zero_rhs_ok"] == want["zero_rhs_ok"]
        assert_within_roundoff(got["sup_ratios"], want["sup_ratios"], want["scales"], _OPERATOR_ROUNDOFF)
