"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from macrospline.experiments import ConvergenceConfig, ShishkinConfig, run_convergence, run_shishkin
from macrospline.fields import make_layer_decomposition, make_polynomial_field, make_smooth_field, separable_field, sin_profile
from macrospline.interpolation import (
    build_composite,
    interp_aniso,
    interp_bfs,
    interp_full,
    interp_full_macro,
    interp_reduced_macro,
    quasi_interp,
    random_c1q2,
)
from macrospline.mesh import build_macro_mesh, build_shishkin, classify_edges, select_sigma
from macrospline.norms import gauss_rule, jump_norm_sum
from macrospline.oracles import (
    KnotSequence,
    bound_consistency,
    bound_spec_catalog,
    brute_force_divided_difference,
    check_trace_inequality,
    dual_weight_checks,
    kronecker_table,
    orthogonality_checks,
)
from macrospline.spline_core import HermiteData1D, divided_difference, hermite_interpolate_1d


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_duality_kronecker():
    dev, _ = kronecker_table()
    _report("1 duality/Kronecker 256 pairs", dev <= 1e-12, f"max deviation {dev:.2e} (tol 1e-12)")


def test_criterion_2_reproduction():
    rng = np.random.default_rng(1001)
    worst_full = 0.0
    for k in range(50):
        aspect = (1.0, 1e3, 1e6)[k % 3]
        f = make_polynomial_field(rng.normal(size=(3, 3)))
        macro = (0.0, 1.0, 0.0, 1.0 / aspect)
        p = interp_full_macro(f, macro)
        X, Y = np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 1.0 / aspect, 7), indexing="ij")
        scale = max(1.0, float(np.max(np.abs(f(X, Y)))))
        worst_full = max(worst_full, float(np.max(np.abs(p.evaluate(X, Y) - f(X, Y)))) / scale)

    worst_bfs = 0.0
    for i in range(4):
        for j in range(4 - i):
            c = np.zeros((4, 4))
            c[i, j] = 1.0
            f = make_polynomial_field(c)
            p = interp_bfs(f, (0.0, 1.0, 0.0, 0.5))
            X, Y = np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 0.5, 7), indexing="ij")
            worst_bfs = max(worst_bfs, float(np.max(np.abs(p.evaluate(X, Y) - f(X, Y)))))

    worst_aniso = 0.0
    for _ in range(10):
        f = make_polynomial_field(rng.normal(size=(3, 3)))
        p = interp_aniso(f, (0.0, 1.0, 0.0, 1e-3), "y_spline")
        X, Y = np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 1e-3, 7), indexing="ij")
        worst_aniso = max(worst_aniso, float(np.max(np.abs(p.evaluate(X, Y) - f(X, Y)))))

    worst_red = 0.0
    for c in ([[1.0]], [[0, 0], [1, 0]], [[0], [0], [1.0]], [[0.0, 1.0]], [[0, 0, 1.0]]):
        f = make_polynomial_field(c)
        p = interp_reduced_macro(f, (0.0, 1.0, 0.0, 0.5))
        X, Y = np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 0.5, 7), indexing="ij")
        worst_red = max(worst_red, float(np.max(np.abs(p.evaluate(X, Y) - f(X, Y)))))

    rng2 = np.random.default_rng(77)
    mesh = build_macro_mesh(np.linspace(0, 1, 4), np.linspace(0, 1, 4))
    sigma = select_sigma(mesh, "toward_corner")
    worst_quasi = 0.0
    for _ in range(5):
        v = random_c1q2(mesh, rng2)
        q = quasi_interp(v.as_field(), mesh, sigma)
        worst_quasi = max(worst_quasi, float(np.max(np.abs(q.coef - v.coef))))

    ok = worst_full <= 1e-9 and worst_bfs <= 1e-10 and worst_aniso <= 1e-10 and worst_red <= 1e-10 and worst_quasi <= 1e-10
    _report(
        "2 reproduction (full/bfs/aniso/reduced/quasi)",
        ok,
        f"full {worst_full:.2e} (1e-9), bfs {worst_bfs:.2e}, aniso {worst_aniso:.2e}, reduced {worst_red:.2e}, quasi {worst_quasi:.2e} (1e-10)",
    )


def test_criterion_3_c1_continuity():
    mesh = build_macro_mesh(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
    sigma = select_sigma(mesh, "toward_corner")
    worst = 0.0
    for field_name in ("sin_sin", "exp_xy"):
        f = make_smooth_field(field_name)
        for poly in (interp_full(f, mesh), quasi_interp(f, mesh, sigma)):
            ts = np.linspace(0.0, 1.0, 100)
            for line in poly.grid_x[1:-1]:
                for ax, ay in ((0, 0), (1, 0), (0, 1)):
                    a = poly.evaluate(np.full_like(ts, line), ts, ax, ay, side=("-", "-"))
                    b = poly.evaluate(np.full_like(ts, line), ts, ax, ay, side=("+", "-"))
                    worst = max(worst, float(np.max(np.abs(a - b))))
            for line in poly.grid_y[1:-1]:
                for ax, ay in ((0, 0), (1, 0), (0, 1)):
                    a = poly.evaluate(ts, np.full_like(ts, line), ax, ay, side=("-", "-"))
                    b = poly.evaluate(ts, np.full_like(ts, line), ax, ay, side=("-", "+"))
                    worst = max(worst, float(np.max(np.abs(a - b))))
    _report("3 C1 continuity of full/quasi outputs", worst <= 1e-10, f"max jump {worst:.2e} (tol 1e-10)")


def test_criterion_4_newton_vs_lagrange_and_dd():
    rng = np.random.default_rng(42)
    worst_1d = 0.0
    for _ in range(100):
        data = HermiteData1D(*rng.normal(size=4))
        sn = hermite_interpolate_1d(data, assembly="newton")
        sl = hermite_interpolate_1d(data, assembly="lagrange")
        x = np.linspace(-1, 1, 21)
        scale = max(1.0, *(abs(v) for v in (data.value_left, data.deriv_left, data.value_right, data.deriv_right)))
        worst_1d = max(worst_1d, float(np.max(np.abs(sn(x) - sl(x)))) / scale)

    worst_2d = 0.0
    for _ in range(100):
        f = make_polynomial_field(rng.normal(size=(4, 4)))
        macro = (0.0, rng.uniform(0.5, 2.0), 0.0, rng.uniform(0.5, 2.0))
        pl = interp_full_macro(f, macro, assembly="lagrange")
        pn = interp_full_macro(f, macro, assembly="newton")
        scale = max(1.0, float(np.max(np.abs(pl.coef))))
        worst_2d = max(worst_2d, float(np.max(np.abs(pl.coef - pn.coef))) / scale)

    worst_dd = 0.0
    for _ in range(200):
        n_knots = int(rng.integers(1, 4))
        positions = np.sort(rng.uniform(-1, 1, size=n_knots))
        while len(positions) > 1 and np.min(np.diff(positions)) < 5e-2:
            positions = np.sort(rng.uniform(-1, 1, size=n_knots))
        mults = rng.integers(1, 4, size=n_knots)
        ks = KnotSequence(tuple((float(p), int(m)) for p, m in zip(positions, mults)))
        coeffs = rng.normal(size=6)

        def f1d(x, order):
            d = coeffs
            for _ in range(order):
                d = np.polynomial.polynomial.polyder(d)
            return float(np.polynomial.polynomial.polyval(x, d))

        data = [[f1d(p, k) for k in range(m)] for (p, m) in ks.nodes]
        a = divided_difference(ks, data)
        b = brute_force_divided_difference(ks, f1d)
        worst_dd = max(worst_dd, abs(a - b) / max(1.0, abs(b)))

    ok = worst_1d <= 1e-12 and worst_2d <= 1e-12 and worst_dd <= 1e-12
    _report(
        "4 Newton-vs-Lagrange and divided differences",
        ok,
        f"1D {worst_1d:.2e}, 2D {worst_2d:.2e}, dd-vs-bruteforce {worst_dd:.2e} (tol 1e-12)",
    )


def test_criterion_5_dual_weight_identities():
    results = dual_weight_checks() + orthogonality_checks()
    worst = max(r.value for r in results)
    _report("5 dual-weight identities and orthogonality", all(r.passed for r in results), f"max deviation {worst:.2e} (tol 1e-12)")


def test_criterion_6_anisotropy_invariance():
    def one(t, order):
        t = np.asarray(t, dtype=float)
        return np.ones_like(t) if order == 0 else np.zeros_like(t)

    g = separable_field("gy", one, sin_profile(freq=2.0, shift=0.3))
    worst = 0.0
    pa = interp_aniso(g, (0.0, 0.01, 0.0, 0.2), "y_spline")
    pb = interp_aniso(g, (0.0, 1.0, 0.0, 0.2), "y_spline")
    worst = max(worst, float(np.max(np.abs(pa.coef - pb.coef))))
    ra = interp_reduced_macro(g, (0.0, 0.01, 0.0, 0.2))
    rb = interp_reduced_macro(g, (0.0, 1.0, 0.0, 0.2))
    worst = max(worst, float(np.max(np.abs(ra.coef - rb.coef))))
    _report("6 anisotropy invariance for y-only fields", worst <= 1e-12, f"max coefficient change {worst:.2e} (tol 1e-12)")


def test_criterion_7_uniform_orders():
    checks = []
    t = run_convergence(ConvergenceConfig(operator="full", field="sin_sin", levels=4))
    checks.append(("full", t.meta["ls_order_L2"], 2.9))
    checks.append(("full", t.meta["ls_order_H1"], 1.9))
    checks.append(("full", t.meta["ls_order_H2"], 0.9))
    t = run_convergence(ConvergenceConfig(operator="bfs", field="sin_sin", levels=4))
    checks.append(("bfs", t.meta["ls_order_L2"], 3.9))
    checks.append(("bfs", t.meta["ls_order_H1"], 2.9))
    checks.append(("bfs", t.meta["ls_order_H2"], 1.9))
    t = run_convergence(ConvergenceConfig(operator="quasi", field="sin_sin", levels=4, sigma="left"))
    checks.append(("quasi", t.meta["ls_order_L2"], 2.9))
    checks.append(("quasi", t.meta["ls_order_H1"], 1.9))
    checks.append(("quasi", t.meta["ls_order_H2"], 0.9))
    t = run_convergence(ConvergenceConfig(operator="reduced", field="sin_plus_sin", levels=4))
    checks.append(("reduced(uxy=0)", t.meta["ls_order_H1"], 1.9))
    ok = all(order >= floor for _, order, floor in checks)
    detail = "; ".join(f"{name} {order:.2f}>={floor}" for name, order, floor in checks)
    _report("7 uniform-mesh observed orders", ok, detail)


def test_criterion_8_bound_consistency():
    specs = bound_spec_catalog()
    meshes = [build_macro_mesh(np.linspace(0, 1, n + 1), np.linspace(0, 1, n + 1)) for n in (2, 4, 8, 16, 32, 64)]
    sin2 = make_smooth_field("sin_sin")
    p2 = make_polynomial_field([[0.0, 0.5, 1.0], [0.25, 1.0, 0.0], [1.0, 0.0, 0.0]])  # generic P2
    p1 = make_polynomial_field([[0.5, 1.0], [0.25, 0.0]])
    p3 = make_polynomial_field([[0.0, 0.5, 1.0, 0.5], [0.25, 1.0, 0.5, 0.0], [1.0, 0.5, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]])
    zero_rhs_field = {
        "reduced_dx": make_polynomial_field([[0.0], [0.0], [1.0]]),
        "full_g00": p2,
        "full_g10": p2,
        "full_g11": p2,
        "bfs_g00": p3,
        "bfs_g10": p3,
        "bfs_g11": p3,
        "aniso_g00": p2,
        "aniso_g01": p2,
        "aniso_xx": p2,
        "aniso_l2_suboptimal": p1,
    }
    lines = []
    ok = True
    for name, spec in specs.items():
        res = bound_consistency(spec, sin2, meshes)
        ratio = res.get("max_over_min", float("inf"))
        good = bool(res["sup_ratios"]) and ratio <= 4.0
        rep = bound_consistency(spec, zero_rhs_field[name], meshes[:2])
        good = good and rep["zero_rhs_ok"] and not rep["sup_ratios"]
        ok = ok and good
        lines.append(f"{name} ratio-spread {ratio:.2f} zeroRHS lhs {rep['zero_rhs_lhs_max']:.1e}")
    _report("8 bound-consistency ratios", ok, "; ".join(lines))


def test_criterion_9_trace_inequality():
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for _ in range(100):
        f = make_polynomial_field(rng.normal(size=(3, 3)))
        aspect = 10.0 ** rng.uniform(0.0, 6.0)
        if rng.uniform() < 0.5:
            el = (0.0, 1.0, 0.0, 1.0 / aspect)
        else:
            el = (0.0, 1.0 / aspect, 0.0, 1.0)
        lhs, rhs = check_trace_inequality(f, el)
        worst = max(worst, (lhs - rhs) / max(rhs, 1e-300))
    _report("9 anisotropic multiplicative trace inequality", worst <= 1e-10, f"max relative excess {worst:.2e}")


def test_criterion_10_shishkin_composite():
    start = time.time()
    # (a) normal-derivative continuity across long and corner edges
    mesh = build_shishkin(1e-6, 16)
    sigma = select_sigma(mesh, "toward_corner")
    edges = classify_edges(mesh)
    rule = gauss_rule(4)
    from macrospline.fields import make_layer_decomposition

    worst_jump = 0.0
    for f in (make_smooth_field("sin_sin"), make_layer_decomposition(1e-6, smooth="bounded_third").total):
        star = build_composite(f, mesh, sigma)
        for t in ("II", "IV"):
            worst_jump = max(worst_jump, jump_norm_sum(star, edges[edges.edge_type == t], rule))
    ok_a = worst_jump <= 1e-10

    # (b) global biquadratic reproduction
    rng = np.random.default_rng(5)
    q2 = make_polynomial_field(rng.normal(size=(3, 3)))
    star = build_composite(q2, mesh, sigma)
    X, Y = np.meshgrid(np.linspace(0, 1, 33), np.linspace(0, 1, 33), indexing="ij")
    dev_b = float(np.max(np.abs(star.evaluate(X, Y) - q2(X, Y))))
    ok_b = dev_b <= 1e-9

    # (c) the (eps, N) grid with the bounded-third-derivative smooth part
    cfg = ShishkinConfig(
        N_list=(8, 16, 32, 64),
        eps_list=(1e-4, 1e-6, 1e-8),
        smooth_variant="bounded_third",
        smooth_amplitude=10.0,
        edge_amplitude=0.05,
    )
    table = run_shishkin(cfg)
    orders_ok, jump_orders_ok = True, True
    consts = {}
    for eps, meta in table.meta["orders_by_eps"].items():
        orders_ok = orders_ok and meta["ls_order_L2"] >= 1.8
        jump_orders_ok = jump_orders_ok and meta["ls_order_jump2_I"] >= 2.5
        consts[eps] = float(np.exp(np.mean(np.log(meta["C_L2_values"]))))
    const_spread = max(consts.values()) / min(consts.values())
    elapsed = time.time() - start
    ok_c = orders_ok and jump_orders_ok and const_spread < 2.0 and elapsed < 60.0
    _report(
        "10 Shishkin composite",
        ok_a and ok_b and ok_c,
        f"jump2 II/IV {worst_jump:.1e} (1e-10); Q2 dev {dev_b:.1e} (1e-9); "
        f"L2 orders ok={orders_ok}, jumpI orders ok={jump_orders_ok}, C spread {const_spread:.2f} (<2), {elapsed:.1f}s (<60)",
    )


def test_criterion_10_continuity_down_to_eps_1e_14():
    # Exact fine nodes keep u* C1 to roundoff where the layers are thinnest.
    cfg = ShishkinConfig(
        N_list=(8, 16, 32, 64),
        eps_list=(1e-10, 1e-12, 1e-14),
        smooth_variant="bounded_third",
        smooth_amplitude=10.0,
        edge_amplitude=0.05,
    )
    table = run_shishkin(cfg)
    cols = [table.columns.index(f"jump2_{t}") for t in ("II", "IV")]
    worst = max(row[c] for row in table.rows for c in cols)
    # N=256: the same point as run_shishkin, but only the two jump sums, without the seminorms
    rule = gauss_rule(4)
    for eps in cfg.eps_list:
        u = make_layer_decomposition(
            eps, cfg.c_star, smooth=cfg.smooth_variant, edge_amplitude=cfg.edge_amplitude, smooth_amplitude=cfg.smooth_amplitude
        ).total
        mesh = build_shishkin(eps, 256, cfg.lambda0, cfg.c_star)
        star = build_composite(u, mesh, select_sigma(mesh, cfg.sigma))
        edges = classify_edges(mesh)
        for t in ("II", "IV"):
            worst = max(worst, jump_norm_sum(star, edges[edges.edge_type == t], rule))
    _report("10 Shishkin continuity at small eps", worst <= 1e-10, f"jump2 II/IV {worst:.1e} (1e-10), N 8..256, eps 1e-10..1e-14")
