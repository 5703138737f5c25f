"""Per-element references of the norm pass, the roundoff bound that holds the pass to them, an exp factor without the flush, and Shishkin subdomain names made one element at a time.

A reference makes each element's differences D^alpha (field - poly) on
its own, from its own coefficients, and sums its cells with
``math.fsum``.  With ``absolute``, it takes the absolute value of every
operand instead, and so gives the scale

    S = sum_t |Fy_t| |Fx_t| + sum_kl |c_kl| |D^ax P_k| |D^ay Q_l| (2/wx)^ax (2/wy)^ay

(plus |f| for a field without terms) at each point, and the norms of S.
S bounds |D|, and by the standard rounding bound
|fl(sum) - sum| <= gamma_n sum |terms| (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., section 3.1) any two orders of these sums
differ by at most a multiple of eps S, whatever order a BLAS kernel
takes; the norms of the differences then differ by at most a multiple of
eps times the same norm of S.  ``assert_within_roundoff`` checks that
multiple against ``ROUNDOFF``.
"""

import math

import numpy as np

from macrospline.spline_core import _derivative_basis

# The largest |pass - reference| / (eps scale) over the bound tests of
# tests/test_norms.py, measured with numpy 2.4 and OpenBLAS 0.3.31 on
# x86-64 under its default SkylakeX kernel and under OPENBLAS_CORETYPE =
# Sandybridge, Haswell, Prescott and Nehalem, hypothesis seeds 0-39, is
# 1.85; ROUNDOFF is that times a safety factor of 4, rounded up.
ROUNDOFF = 8.0
EPS = np.finfo(float).eps


def assert_within_roundoff(got, want, scale, c=ROUNDOFF):
    """Assert |got - want| <= c eps scale, element by element."""
    got, want, scale = np.asarray(got, dtype=float), np.asarray(want, dtype=float), np.asarray(scale, dtype=float)
    assert got.shape == want.shape
    error = np.abs(got - want)
    bad = np.flatnonzero(~(error <= c * EPS * scale))
    assert not bad.size, f"{bad.size} of {error.size} values differ by more than {c} eps times their scale; the first, at {bad[0]}: {got.ravel()[bad[0]]!r} against {want.ravel()[bad[0]]!r}, scale {scale.ravel()[bad[0]] if scale.size > 1 else scale.item()!r}"


def sorted_elements(poly, region):
    nx, ny = len(poly.grid_x) - 1, len(poly.grid_y) - 1
    elements = region if region is not None else [(ix, jy) for jy in range(ny) for ix in range(nx)]
    return sorted(elements, key=lambda e: (e[1], e[0]))


def difference_per_element(field, poly, alpha, elements, loc, absolute=False):
    """D^alpha (field - poly), element by element, shape (E, p, p) with entry [e, b, a] at (X[a], Y[b]); the scale S with ``absolute``.

    Each element's differences are one product of the factors of y and
    of x, ``[Fy_e | -(2/wy)^ay D^ay Q] @ [Fx_e ; R_e]``.  ``R_e`` contracts
    x, ``C_e @ (D^ax P).T``, with ``C_e`` the element's coefficients in
    (l, k) order scaled by (2/wx)^ax; one 2-D product makes the rows of
    every element.  ``D^a P`` and ``D^a Q`` hold the a-th derivatives of
    the local monomials at ``loc``.  A field with terms takes ``Fx_e`` and
    ``Fy_e`` from one ``field.factor`` call per axis on the distinct columns
    and rows of ``elements``; a field without terms, or None, has none, and a
    field without terms is then added, called with one row of
    coordinates per element, ``field(X[:, None, :], Y[:, :, None])``.
    """
    part = np.abs if absolute else np.asarray
    ix = np.array([e[0] for e in elements], dtype=int)
    jy = np.array([e[1] for e in elements], dtype=int)
    gx, gy = poly.grid_x, poly.grid_y
    wx, wy = gx[ix + 1] - gx[ix], gy[jy + 1] - gy[jy]
    c = part(poly.coef[jy, ix])
    p, (kx, ky) = len(loc), c.shape[1:]
    Q, PT = _derivative_basis(loc, ky, alpha[1]), part(_derivative_basis(loc, kx, alpha[0]).T)
    R = (np.multiply(c.transpose(0, 2, 1), ((2.0 / wx) ** alpha[0])[:, None, None]).reshape(-1, kx) @ PT).reshape(len(c), ky, p)
    A = part(np.multiply(Q, -((2.0 / wy) ** alpha[1])[:, None, None]))
    if field is None or field.terms is None:
        diff = A @ R
        if field is not None:
            X = (0.5 * (gx[ix] + gx[ix + 1]))[:, None] + (0.5 * wx)[:, None] * loc[None, :]
            Y = (0.5 * (gy[jy] + gy[jy + 1]))[:, None] + (0.5 * wy)[:, None] * loc[None, :]
            diff += part(field(X[:, None, :], Y[:, :, None], alpha[0], alpha[1]))
        return diff
    (ux, cx), (uy, cy) = np.unique(ix, return_inverse=True), np.unique(jy, return_inverse=True)
    X = (0.5 * (gx[ux] + gx[ux + 1]))[:, None] + (0.5 * (gx[ux + 1] - gx[ux]))[:, None] * loc[None, :]
    Y = (0.5 * (gy[uy] + gy[uy + 1]))[:, None] + (0.5 * (gy[uy + 1] - gy[uy]))[:, None] * loc[None, :]
    Fx, Fy = (part(F).reshape(len(F), -1, p) for F in (field.factor(0, X.ravel(), alpha[0]), field.factor(1, Y.ravel(), alpha[1])))
    return np.concatenate([Fy[:, cy].transpose(1, 2, 0), A], axis=2) @ np.concatenate([Fx[:, cx].transpose(1, 0, 2), R], axis=1)


def cell_integrals(field, poly, alpha, elements, rule, absolute=False, square=True):
    """Per element, (wx wy / 4) sum_b w_b sum_a w_a D[b, a]^2 (D[b, a] without ``square``) of ``difference_per_element``."""
    diff = difference_per_element(field, poly, alpha, elements, rule.nodes, absolute)
    ix = np.array([e[0] for e in elements], dtype=int)
    jy = np.array([e[1] for e in elements], dtype=int)
    gx, gy = poly.grid_x, poly.grid_y
    w = rule.weights
    return np.einsum("eba,b,a->e", diff * diff if square else diff, w, w) * (0.25 * (gy[jy + 1] - gy[jy]) * (gx[ix + 1] - gx[ix]))


def seminorm_per_alpha(field, poly, alpha, region, rule, absolute=False):
    """Reference ``seminorm``: one element list sorted by (jy, ix) and one field call per multi-index; the norm of S with ``absolute``."""
    elements = sorted_elements(poly, region)
    if not elements:
        return 0.0
    return math.sqrt(max(math.fsum(cell_integrals(field, poly, alpha, elements, rule, absolute)), 0.0))


def linf_per_element(field, poly, region, samples, absolute=False):
    """Reference ``linf_sampled``: the per-element field call; the largest S with ``absolute``."""
    elements = sorted_elements(poly, region)
    if not elements:
        return 0.0
    return float(np.max(np.abs(difference_per_element(field, poly, (0, 0), elements, np.linspace(-1.0, 1.0, samples), absolute))))


def unflushed_exp_profile(rate):
    """``fields.exp_profile`` without its flush: t -> rate^k exp(rate t), subnormal values included."""

    def f(t, order):
        return rate**order * np.exp(rate * np.asarray(t, dtype=float))

    return f


# The subdomain of a Shishkin-mesh element by the bands of its (x, y) indices.
SUBDOMAINS = {
    ("coarse", "coarse"): "omega0",
    ("coarse", "fine0"): "omega1",
    ("fine0", "coarse"): "omega2",
    ("coarse", "fine1"): "omega3",
    ("fine1", "coarse"): "omega4",
    ("fine0", "fine0"): "omega12",
    ("fine0", "fine1"): "omega23",
    ("fine1", "fine1"): "omega34",
    ("fine1", "fine0"): "omega41",
}


def shishkin_band(index, N):
    """The band of element index ``index`` on an axis of N Shishkin cells: N/4 fine, N/2 coarse, N/4 fine."""
    if index < N // 4:
        return "fine0"
    if index < 3 * N // 4:
        return "coarse"
    return "fine1"


def shishkin_region_names(N):
    """The subdomain name (``<U8``) of each element [jy, ix] of a Shishkin mesh of N cells per axis, one element at a time."""
    names = np.empty((N, N), dtype="<U8")
    for jy in range(N):
        for ix in range(N):
            names[jy, ix] = SUBDOMAINS[(shishkin_band(ix, N), shishkin_band(jy, N))]
    return names
