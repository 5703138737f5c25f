"""Independent verification oracles.

Everything here re-derives quantities through a second route: finite
differences against analytic derivatives, one naive divided-difference
recursion (each distinct leaf f(z, n) evaluated once per call) against
the table algorithm, quadrature evaluations of the
dual/associated functionals against their closed forms, and
bound-consistency ratios that track the right-hand sides of the error
estimates across refinement levels.  The integrals use 10-point Gauss
rules from ``quadrature``; a split rule, one rule per half of [-1, 1],
integrates the spline derivatives and dual weights that kink at the
midpoint.
"""

from __future__ import annotations

import math

import numpy as np

from . import fields
from ._record import record
from .experiments import ELEMENTS_PER_MACRO, _apply_mesh_operator
from .interpolation import (
    PiecewisePoly2D,
    assemble_from_nodal_data,
    interp_aniso,
    interp_reduced_macro,
)
from .mesh import MacroMesh, build_macro_mesh
from .norms import _per_cell, _weighted_sum
from .quadrature import gauss_rule, integrate, integrate2d
from .spline_core import (
    DualWeight,
    KnotSequence,
    edge_hat_basis,
    edge_spline_basis,
    edge_theta,
    eval_dual_weight,
    eval_ref_basis,
    integrate_dual_weight,
)

__all__ = [
    "CheckResult",
    "fd_check",
    "brute_force_divided_difference",
    "divided_difference_2d",
    "kronecker_table",
    "dual_weight_checks",
    "orthogonality_checks",
    "peano_checks",
    "reduced_functional_checks",
    "aniso_functional_checks",
    "check_duality_and_functionals",
    "check_trace_inequality",
    "BoundSpec",
    "BoundTerm",
    "bound_spec_catalog",
    "bound_consistency",
]


@record
class CheckResult:
    """CheckResult(name: str, value: float, tolerance: float)"""

    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance

    def as_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "tolerance": self.tolerance, "margin": self.value / self.tolerance, "passed": self.passed}


# ---------------------------------------------------------------------------
# Finite differences.
# ---------------------------------------------------------------------------

_D1_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_D1_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
_D2_OFFSETS = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
_D2_WEIGHTS = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def _axis_stencil(order, step):
    if order == 0:
        return np.array([0.0]), np.array([1.0])
    if order == 1:
        return _D1_OFFSETS * step, _D1_WEIGHTS / step
    return _D2_OFFSETS * step, _D2_WEIGHTS / step**2


def fd_check(target, alpha, points, step=None) -> float:
    """Max deviation of analytic D^alpha from 4th-order central differences.

    ``target`` is any (x, y, ax, ay) evaluator; the deviation is relative
    to the magnitude of the derivative over the sample.  Points must keep
    two stencil steps clear of any element interface.
    """
    ax, ay = alpha
    if not (0 <= ax <= 2 and 0 <= ay <= 2):
        raise ValueError("finite-difference orders are limited to 2 per axis")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    hx = step if step is not None else (6e-3 if ax == 1 else 8e-3)
    hy = step if step is not None else (6e-3 if ay == 1 else 8e-3)
    if hx <= 0 or hy <= 0 or hx < 1e-8 or hy < 1e-8:
        raise ValueError("step underflow")
    offs_x, w_x = _axis_stencil(ax, hx)
    offs_y, w_y = _axis_stencil(ay, hy)
    exact = np.array([target(x, y, ax, ay) for x, y in pts])
    approx = np.zeros(len(pts))
    for ox, wx_ in zip(offs_x, w_x):
        for oy, wy_ in zip(offs_y, w_y):
            approx += wx_ * wy_ * np.array([target(x + ox, y + oy, 0, 0) for x, y in pts])
    scale = max(float(np.max(np.abs(exact))), 1.0)
    return float(np.max(np.abs(approx - exact))) / scale


# ---------------------------------------------------------------------------
# Divided-difference oracles.
# ---------------------------------------------------------------------------


def _dd(zs, f):
    """Divided difference over the sorted knots ``zs`` by the naive recursion; ``f(z, n)`` is the n-th derivative.

    Coincident knots, a single knot included, give f(z, n) / n!.  The
    recursion reaches the same leaf f(z, n) many times; the callers below
    pass an ``f`` that evaluates each distinct leaf once per call.
    """
    if zs[0] == zs[-1]:
        n = len(zs) - 1
        return f(zs[0], n) / math.factorial(n)
    return (_dd(zs[1:], f) - _dd(zs[:-1], f)) / (zs[-1] - zs[0])


def _knots(seq):
    """``seq`` as a tuple; an empty, non-finite or not non-decreasing sequence raises ``ValueError``."""
    zs = tuple(seq)
    if not zs:
        raise ValueError("empty knot sequence")
    if not all(math.isfinite(z) for z in zs):
        raise ValueError("knots must be finite")
    if not all(a <= b for a, b in zip(zs, zs[1:])):
        raise ValueError("knots must be non-decreasing")
    return zs


def _once(fn):
    """``fn`` evaluated once per distinct argument tuple, for as long as the returned function lives."""
    memo = {}

    def leaf(*args):
        if args not in memo:
            memo[args] = fn(*args)
        return memo[args]

    return leaf


def brute_force_divided_difference(knots: KnotSequence, field1d) -> float:
    """Naive recursion straight from the definition; ``field1d(x, order)``, once per distinct leaf."""
    return float(_dd(tuple(knots.expanded()), _once(field1d)))


def divided_difference_2d(fn, xseq, yseq) -> float:
    """Two-dimensional divided difference of ``fn(x, y, ax, ay)``: the one along x, differentiated in y.

    Each distinct leaf (x, y, ax, ay) is evaluated once per call; empty,
    non-finite or not non-decreasing knot sequences raise ``ValueError``.
    """
    xs, ys, leaf = _knots(xseq), _knots(yseq), _once(fn)
    return float(_dd(ys, lambda y, ay: _dd(xs, lambda x, ax: leaf(x, y, ax, ay))))


HERMITE_NODE_SEQS = {1: (-1.0,), 2: (-1.0, -1.0), 3: (-1.0, -1.0, 1.0), 4: (-1.0, -1.0, 1.0, 1.0)}
LAGRANGE_NODE_SEQS = {1: (-1.0,), 2: (-1.0, 0.0), 3: (-1.0, 0.0, 1.0)}


# ---------------------------------------------------------------------------
# Quadrature on the reference square.
# ---------------------------------------------------------------------------

_RULE = gauss_rule(10)
_SPLIT = gauss_rule(10, split=True)
# The corners (a, b) of the reference macro, a outer; it is a whole mesh, so
# ``evaluate`` takes each corner from the one element that holds it.
_CORNERS = (np.array([-1.0, -1.0, 1.0, 1.0]), np.array([-1.0, 1.0, -1.0, 1.0]))


def _line(v, level, ax, ay, horizontal=True):
    """Integral over [-1, 1] of v(t, level) (horizontal) or v(level, t), split at t = 0."""
    if horizontal:
        return integrate(lambda t: v(t, np.full_like(t, level), ax, ay), -1.0, 1.0, _SPLIT)
    return integrate(lambda t: v(np.full_like(t, level), t, ax, ay), -1.0, 1.0, _SPLIT)


def _s_weight(k):
    """The Peano kernel (1 - t)/4 for k = 1, t/4 otherwise."""
    return (lambda t: (1.0 - t) / 4.0) if k == 1 else (lambda t: t / 4.0)


# ---------------------------------------------------------------------------
# Kronecker duality table.
# ---------------------------------------------------------------------------


def kronecker_table() -> tuple:
    """All 256 pairings of corner functionals with nodal basis functions.

    Column 4k + 2i + j is the basis function whose dof k (v, v_x, v_y, v_xy)
    at corner (i, j) is one, a row of the identity; row 4k + 2a + b is dof
    k at corner (a, b), from one ``evaluate`` per k on the four corners.
    Returns (max deviation from the delta pattern, the 16x16 table).
    """
    mesh = build_macro_mesh([-1.0, 1.0], [-1.0, 1.0])
    table = np.zeros((16, 16))
    for col, dofs in enumerate(np.eye(16).reshape(16, 4, 2, 2).transpose(0, 2, 3, 1)):
        p = assemble_from_nodal_data(mesh, dofs)
        for k, (ax, ay) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
            table[4 * k : 4 * k + 4, col] = p.evaluate(*_CORNERS, ax, ay)
    return float(np.max(np.abs(table - np.eye(16)))), table


# ---------------------------------------------------------------------------
# Dual weights, orthogonality, Peano form.
# ---------------------------------------------------------------------------


def dual_weight_checks() -> list:
    """Unit integral and duality system on uniform and 10:1-graded edges."""
    out = []
    for tag, (a, b) in (("uniform", (0.0, 1.0)), ("graded", (2.0, 2.1))):
        for dual_side in ("left", "right"):
            w = DualWeight((a, b), dual_side)
            out.append(CheckResult(f"dual_unit_integral[{tag},{dual_side}]", abs(integrate_dual_weight(w, 10) - 1.0), 1e-12))
            for basis_side in ("left", "right"):
                pair = integrate(lambda t: eval_dual_weight(w, t) * edge_spline_basis((a, b), basis_side, 1, t), a, b, _SPLIT)
                want = 1.0 if dual_side == basis_side else 0.0
                out.append(CheckResult(f"dual_duality[{tag},{dual_side},{basis_side}]", abs(pair - want), 1e-12))
    return out


def orthogonality_checks() -> list:
    """The averaging space is L2-orthogonal to the hat-function slopes."""
    out = []
    for tag, (a, b) in (("uniform", (0.0, 1.0)), ("nonuniform", (0.7, 0.775))):

        def psum(t):
            return edge_spline_basis((a, b), "left", 0, t) + edge_spline_basis((a, b), "right", 0, t)

        for hat_side in ("left", "right"):
            for fname, fn in (("psi_sum", psum), ("theta", lambda t: edge_theta((a, b), t))):
                val = integrate(lambda t: fn(t) * edge_hat_basis((a, b), hat_side, 1, t), a, b, _SPLIT)
                out.append(CheckResult(f"orthogonality[{tag},{fname},phi_{hat_side}']", abs(val), 1e-12))
    return out


def peano_checks(rng=None) -> list:
    """Second/third divided differences as weighted integrals of u''.

    The divided differences over the knots (-1, -1, 1) and (-1, -1, 1, 1)
    reach orders 0 and 1; the integrals take order 2.  The trials are 20
    random quintics plus sin(a t + b), from ``fields._poly1d`` and
    ``fields.sin_profile``, and the four reference basis functions.
    """
    rng = rng or np.random.default_rng(123)
    out = []

    def check(fn, label):
        for i in (1, 2):
            s = _s_weight(i)
            lhs = brute_force_divided_difference(KnotSequence(((-1.0, 2), (1.0, i))), fn)
            rhs = integrate(lambda t: s(t) * fn(t, 2), -1.0, 1.0, _SPLIT)
            out.append(CheckResult(f"peano[{label},order{i + 1}]", abs(lhs - rhs), 1e-10))

    for trial in range(20):
        poly = fields._poly1d(rng.normal(size=6))
        trig = fields.sin_profile(rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0))
        check(lambda x, order: poly(x, order) + trig(x, order), f"random{trial}")
    for kind in ("phi_minus", "phi_plus", "psi_minus", "psi_plus"):
        check(lambda x, order: eval_ref_basis(kind, order, x), kind)
    return out


# ---------------------------------------------------------------------------
# Associated functionals of the reduced operator.
# ---------------------------------------------------------------------------


def reduced_functional_checks(rng=None) -> list:
    """Mean-value identities and invariance for the reduced operator.

    For the x-derivative the associated functionals are the corner values
    plus edge means of v and v_y on the two horizontal edges; for the
    mixed derivative they are the four edge integrals and the area
    integral.  Each is checked for the closed-form identity and for
    invariance under interpolation.
    """
    rng = rng or np.random.default_rng(7)
    out = []
    macro = (-1.0, 1.0, -1.0, 1.0)
    for trial in range(5):
        u = fields.make_polynomial_field(rng.normal(size=(4, 4)))
        p = interp_reduced_macro(u, macro)
        # identity chain: edge mean of u_x equals the corner difference,
        # edge mean of u_xy the corner difference of u_y
        f5_u = 0.5 * _line(u, -1.0, 1, 0)
        out.append(CheckResult(f"reduced_F5_identity[{trial}]", abs(f5_u - 0.5 * (u(1, -1) - u(-1, -1))), 1e-10))
        f7_u = 0.5 * _line(u, -1.0, 1, 1)
        out.append(CheckResult(f"reduced_F7_identity[{trial}]", abs(f7_u - 0.5 * (u(1, -1, 0, 1) - u(-1, -1, 0, 1))), 1e-10))

        # invariance of the eight functionals for the x-derivative
        errors = [*np.abs(u(*_CORNERS, 1, 0) - p.evaluate(*_CORNERS, 1, 0))]
        errors += [0.5 * abs(_line(u, ylevel, 1, dy) - _line(p.evaluate, ylevel, 1, dy)) for ylevel in (-1.0, 1.0) for dy in (0, 1)]
        out.append(CheckResult(f"reduced_dx_invariance[{trial}]", float(np.max(errors)), 1e-10))  # np.max keeps a NaN, max() may drop it

        # mixed-derivative functionals: four edge integrals and the area mean
        functionals = [lambda v, level=level, h=h: _line(v, level, 1, 1, h) for h in (True, False) for level in (-1.0, 1.0)]
        functionals.append(lambda v: integrate2d(lambda X, Y: v(X, Y, 1, 1), -1.0, 1.0, -1.0, 1.0, _SPLIT))
        errors = [abs(F(u) - F(p.evaluate)) for F in functionals]
        out.append(CheckResult(f"reduced_dxy_invariance[{trial}]", float(np.max(errors, initial=0.0)), 1e-10))
    return out


# ---------------------------------------------------------------------------
# Associated functionals of the anisotropic operator (reference macro).
# ---------------------------------------------------------------------------


def _aniso_table_entries():
    """Entries of the associated-functional table as (i, j, gamma, evaluator).

    Each evaluator consumes v(x, y, ax, ay) representing D^gamma u and
    integrates over parts of the reference square; split in y at 0 where
    spline derivatives kink.
    """

    def int_x(v, a, b, ay=0):
        return integrate(lambda x: v(x, np.full_like(x, -1.0), 0, ay), a, b, _RULE)

    def sy_line(v, k, x, ax, ay):
        s = _s_weight(k)
        return integrate(lambda y: s(y) * v(np.full_like(y, x), y, ax, ay), -1.0, 1.0, _SPLIT)

    def sy_strip(v, k, a, b, ax, ay):
        s = _s_weight(k)
        return integrate2d(lambda X, Y: s(Y) * v(X, Y, ax, ay), a, b, -1.0, 1.0, _SPLIT)

    entries = []
    # gamma = (1, 0)
    for ell in (1, 2):
        entries.append((2, ell, (1, 0), lambda v, ell=ell: int_x(v, -1.0, 0.0, ell - 1)))
        entries.append(
            (3, ell, (1, 0), lambda v, ell=ell: 0.5 * int_x(v, 0.0, 1.0, ell - 1) - 0.5 * int_x(v, -1.0, 0.0, ell - 1))
        )
    for k in (3, 4):
        entries.append((2, k, (1, 0), lambda v, k=k: sy_strip(v, k - 2, -1.0, 0.0, 0, 2)))
        entries.append(
            (3, k, (1, 0), lambda v, k=k: 0.5 * (sy_strip(v, k - 2, 0.0, 1.0, 0, 2) - sy_strip(v, k - 2, -1.0, 0.0, 0, 2)))
        )
    # gamma = (0, 1)
    entries.append((1, 2, (0, 1), lambda v: float(v(-1.0, -1.0, 0, 0))))
    entries.append((2, 2, (0, 1), lambda v: float(v(0.0, -1.0, 0, 0) - v(-1.0, -1.0, 0, 0))))
    entries.append((3, 2, (0, 1), lambda v: 0.5 * float(v(-1.0, -1.0, 0, 0) - 2.0 * v(0.0, -1.0, 0, 0) + v(1.0, -1.0, 0, 0))))
    for k in (3, 4):
        entries.append((1, k, (0, 1), lambda v, k=k: sy_line(v, k - 2, -1.0, 0, 1)))
        entries.append((2, k, (0, 1), lambda v, k=k: sy_strip(v, k - 2, -1.0, 0.0, 1, 1)))
        entries.append(
            (3, k, (0, 1), lambda v, k=k: 0.5 * (sy_line(v, k - 2, -1.0, 0, 1) - 2.0 * sy_line(v, k - 2, 0.0, 0, 1) + sy_line(v, k - 2, 1.0, 0, 1)))
        )
    # gamma = (1, 1)
    entries.append((2, 2, (1, 1), lambda v: int_x(v, -1.0, 0.0)))
    entries.append((3, 2, (1, 1), lambda v: 0.5 * int_x(v, 0.0, 1.0) - 0.5 * int_x(v, -1.0, 0.0)))
    for k in (3, 4):
        entries.append((2, k, (1, 1), lambda v, k=k: sy_strip(v, k - 2, -1.0, 0.0, 0, 1)))
        entries.append(
            (3, k, (1, 1), lambda v, k=k: 0.5 * (sy_strip(v, k - 2, 0.0, 1.0, 0, 1) - sy_strip(v, k - 2, -1.0, 0.0, 0, 1)))
        )
    # gamma = (0, 2)
    for k in (3, 4):
        entries.append((1, k, (0, 2), lambda v, k=k: sy_line(v, k - 2, -1.0, 0, 0)))
        entries.append((2, k, (0, 2), lambda v, k=k: sy_strip(v, k - 2, -1.0, 0.0, 1, 0)))
        entries.append(
            (3, k, (0, 2), lambda v, k=k: 0.5 * (sy_line(v, k - 2, -1.0, 0, 0) - 2.0 * sy_line(v, k - 2, 0.0, 0, 0) + sy_line(v, k - 2, 1.0, 0, 0)))
        )
    return entries


def aniso_functional_checks(rng=None) -> list:
    """Associated-functional table of the anisotropic operator.

    Verifies that each tabulated functional applied to D^gamma u equals
    the divided difference F_ij(u), and that the divided differences are
    invariant under interpolation.
    """
    rng = rng or np.random.default_rng(21)
    out = []
    macro = (-1.0, 1.0, -1.0, 1.0)
    for trial in range(3):
        u = fields.make_polynomial_field(rng.normal(size=(4, 4)))
        p = interp_aniso(u, macro, "y_spline")
        # the 29 entries share 12 leaves per field: one memo per field and trial
        leaf_u, leaf_p = _once(u), _once(p.evaluate)

        errors_id, errors_inv = [], []
        for i, j, gamma, functional in _aniso_table_entries():
            dd_u = divided_difference_2d(leaf_u, LAGRANGE_NODE_SEQS[i], HERMITE_NODE_SEQS[j])
            val = functional(lambda x, y, ax, ay, g=gamma: u(x, y, ax + g[0], ay + g[1]))
            errors_id.append(abs(dd_u - val))
            dd_p = divided_difference_2d(leaf_p, LAGRANGE_NODE_SEQS[i], HERMITE_NODE_SEQS[j])
            errors_inv.append(abs(dd_u - dd_p))
        out.append(CheckResult(f"aniso_table_identities[{trial}]", float(np.max(errors_id, initial=0.0)), 1e-10))
        out.append(CheckResult(f"aniso_table_invariance[{trial}]", float(np.max(errors_inv, initial=0.0)), 1e-10))
    return out


def check_duality_and_functionals() -> list:
    """Full identity suite: duality, dual weights, orthogonality, Peano,
    reduced-operator and anisotropic associated functionals."""
    out = [CheckResult("kronecker_table", kronecker_table()[0], 1e-12)]
    out.extend(dual_weight_checks())
    out.extend(orthogonality_checks())
    out.extend(peano_checks())
    out.extend(reduced_functional_checks())
    out.extend(aniso_functional_checks())
    return out


# ---------------------------------------------------------------------------
# Anisotropic multiplicative trace inequality.
# ---------------------------------------------------------------------------


def check_trace_inequality(field, element) -> tuple:
    """(lhs, rhs) of the trace inequality on the two x-normal edges.

    lhs = ||v||^2 over both vertical edges; rhs = 2 ||v|| ||v_x|| +
    (2/h_x) ||v||^2 with norms over the element.
    """
    x0, x1, y0, y1 = element
    hx = x1 - x0
    lhs = sum(integrate(lambda y: field(np.full_like(y, x), y) ** 2, y0, y1, _RULE) for x in (x0, x1))
    nrm = math.sqrt(integrate2d(lambda X, Y: field(X, Y) ** 2, x0, x1, y0, y1, _RULE))
    nrm_x = math.sqrt(integrate2d(lambda X, Y: field(X, Y, 1, 0) ** 2, x0, x1, y0, y1, _RULE))
    rhs = 2.0 * nrm * nrm_x + 2.0 / hx * nrm * nrm
    return lhs, rhs


# ---------------------------------------------------------------------------
# Bound-consistency ratios.
# ---------------------------------------------------------------------------


@record
class BoundTerm:
    """One right-hand-side term: a derivative seminorm or mean integral.

    ``total`` is the full derivative multi-index of u; ``weight`` the
    exponents (e1, e2) of the macro half-sizes multiplying the term.
    """

    total: tuple
    weight: tuple
    kind: str  # seminorm | mean


@record
class BoundSpec:
    """Operator, differentiated error D^gamma, and its estimate's terms."""

    name: str
    operator: str  # full | reduced | bfs | aniso_y
    gamma: tuple
    terms: tuple


def _terms_for(gamma, seminorm_order, mean_order=None, mean_scaling=-0.5):
    g1, g2 = gamma
    terms = []
    for a1 in range(seminorm_order + 1):
        a2 = seminorm_order - a1
        terms.append(BoundTerm((g1 + a1, g2 + a2), (float(a1), float(a2)), "seminorm"))
    if mean_order is not None:
        for a1 in range(mean_order + 1):
            a2 = mean_order - a1
            terms.append(BoundTerm((g1 + a1, g2 + a2), (a1 + mean_scaling, a2 + mean_scaling), "mean"))
    return tuple(terms)


def bound_spec_catalog() -> dict:
    """The estimates exercised by the consistency oracle.

    Mean-integral weights carry the extra 1/sqrt(area) factor that the
    reference-element scaling produces; the plain printed weights grow
    like 1/h under refinement and cannot satisfy a bounded-ratio check.
    """
    specs = {
        # the reduced estimate carries a single mean term, of the mixed
        # derivative only
        "reduced_dx": BoundSpec(
            "reduced_dx",
            "reduced",
            (1, 0),
            _terms_for((1, 0), 2) + (BoundTerm((1, 1), (-0.5, 0.5), "mean"),),
        ),
        "full_g00": BoundSpec("full_g00", "full", (0, 0), _terms_for((0, 0), 4, 3)),
        "full_g10": BoundSpec("full_g10", "full", (1, 0), _terms_for((1, 0), 3, 2)),
        "full_g11": BoundSpec("full_g11", "full", (1, 1), _terms_for((1, 1), 2, 1)),
        "bfs_g00": BoundSpec("bfs_g00", "bfs", (0, 0), _terms_for((0, 0), 4)),
        "bfs_g10": BoundSpec("bfs_g10", "bfs", (1, 0), _terms_for((1, 0), 3)),
        "bfs_g11": BoundSpec("bfs_g11", "bfs", (1, 1), _terms_for((1, 1), 2)),
        "aniso_g00": BoundSpec("aniso_g00", "aniso_y", (0, 0), _terms_for((0, 0), 3)),
        "aniso_g01": BoundSpec("aniso_g01", "aniso_y", (0, 1), _terms_for((0, 1), 2)),
        "aniso_xx": BoundSpec(
            "aniso_xx",
            "aniso_y",
            (2, 0),
            (
                BoundTerm((3, 0), (1.0, 0.0), "seminorm"),
                BoundTerm((2, 1), (0.0, 1.0), "seminorm"),
                BoundTerm((3, 0), (1.0, 0.0), "seminorm"),
                BoundTerm((2, 1), (0.0, 1.0), "seminorm"),
                BoundTerm((1, 2), (-1.0, 2.0), "seminorm"),
            ),
        ),
        "aniso_l2_suboptimal": BoundSpec(
            "aniso_l2_suboptimal",
            "aniso_y",
            (0, 0),
            (
                BoundTerm((2, 0), (2.0, 0.0), "seminorm"),
                BoundTerm((1, 1), (1.0, 1.0), "seminorm"),
                BoundTerm((0, 2), (0.0, 2.0), "seminorm"),
                BoundTerm((2, 1), (2.0, 1.0), "seminorm"),
                BoundTerm((1, 2), (1.0, 2.0), "seminorm"),
                BoundTerm((0, 3), (0.0, 3.0), "seminorm"),
            ),
        ),
    }
    return specs


ZERO_RHS_TOL = 1e-10  # largest LHS a macro whose right-hand side vanishes may have


def bound_consistency(spec: BoundSpec, field, meshes) -> dict:
    """Sup of LHS/RHS over macros, per refinement level; a level that is not a ``MacroMesh`` raises ``ValueError``.

    A level is one whole-mesh pass of ``_per_cell`` with 10-point Gauss
    rules.  The LHS adds the weighted squares of D^gamma (field - the spec's
    mesh operator) over each macro's elements, along x then y as ``seminorm``
    does.  Each RHS term takes the weighted squares (seminorm term) or signed
    weighted sum (mean term) of D^total u over each macro, a cell of a zero
    interpolant on the macro grid.  Macros with an (absolutely and relatively)
    vanishing RHS must have an LHS of at most ``ZERO_RHS_TOL`` instead of
    entering the ratio.
    """
    squares, signed = _weighted_sum(_RULE.weights, square=True), _weighted_sum(_RULE.weights)
    sup_ratios = []
    zero_rhs_lhs = np.empty(0)
    for mesh in meshes:
        if not isinstance(mesh, MacroMesh):
            raise ValueError(f"meshes must be MacroMesh objects, not {type(mesh).__name__}")
        mx, my = mesh.macro_x.coordinates, mesh.macro_y.coordinates
        poly = _apply_mesh_operator(spec.operator, field, mx, my)
        ex, ey = ELEMENTS_PER_MACRO[spec.operator]
        (cells,) = _per_cell(field, poly, None, _RULE.nodes, (spec.gamma,), squares)
        lhs = np.sqrt(np.maximum(cells.reshape(len(my) - 1, ey, len(mx) - 1, ex).sum(axis=3).sum(axis=1), 0.0))
        zero = PiecewisePoly2D(mx, my, np.zeros(lhs.shape + (1, 1)))
        h1, h2 = 0.5 * np.diff(mx), 0.5 * np.diff(my)
        rhs = np.zeros(lhs.shape)
        for term in spec.terms:
            (integral,) = _per_cell(field, zero, None, _RULE.nodes, (term.total,), squares if term.kind == "seminorm" else signed)
            value = np.sqrt(integral) if term.kind == "seminorm" else np.abs(integral)
            rhs += h1[None, :] ** term.weight[0] * h2[:, None] ** term.weight[1] * value.reshape(rhs.shape)
        floor = 1e-12 * max(rhs.max(), 1.0)
        enters = rhs > floor
        zero_rhs_lhs = np.append(zero_rhs_lhs, lhs[~enters])
        if enters.any():
            sup_ratios.append(float((lhs[enters] / rhs[enters]).max()))
    result = {
        "spec": spec.name,
        "sup_ratios": sup_ratios,
        "zero_rhs_lhs_max": float(zero_rhs_lhs.max(initial=0.0)),
        "zero_rhs_ok": bool(np.all(zero_rhs_lhs <= ZERO_RHS_TOL)),
    }
    if sup_ratios:
        result["max_over_min"] = max(sup_ratios) / min(sup_ratios)
    return result
