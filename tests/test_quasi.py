import re

import numpy as np
import pytest

from macrospline import interpolation
from macrospline.fields import ScalarField, _LineGrids, _Terms, get_field, make_layer_decomposition, make_polynomial_field, make_smooth_field
from macrospline.interpolation import (
    build_composite,
    interp_reduced,
    quasi_interp,
    random_c1q2,
    sigma_average,
)
from macrospline.mesh import SigmaEdge, SigmaSelection, ShishkinMesh, build_macro_mesh, build_shishkin, select_sigma


def _uniform(n):
    return build_macro_mesh(np.linspace(0, 1, n + 1), np.linspace(0, 1, n + 1))


def test_xy_gives_unit_averages_and_exact_reproduction():
    mesh = _uniform(3)
    sigma = select_sigma(mesh, "left")
    f = get_field("xy")  # u_xy == 1
    for a in sigma.nodes_x:
        for b in sigma.nodes_y:
            assert sigma_average(f, sigma.edge((a, b))) == pytest.approx(1.0, abs=1e-13)
    p = quasi_interp(f, mesh, sigma)
    X, Y = np.meshgrid(np.linspace(0, 1, 13), np.linspace(0, 1, 13), indexing="ij")
    assert np.max(np.abs(p.evaluate(X, Y) - f(X, Y))) < 1e-13


def test_zero_mixed_derivative_reduces_to_reduced_operator():
    mesh = _uniform(2)
    sigma = select_sigma(mesh, "toward_corner")
    f = get_field("sin_plus_sin")  # u_xy == 0
    pq = quasi_interp(f, mesh, sigma)
    pr = interp_reduced(f, mesh)
    assert np.max(np.abs(pq.coef - pr.coef)) < 1e-14


@pytest.mark.parametrize("strategy", ["left", "down", "toward_corner"])
def test_projector_on_random_c1q2_functions(strategy):
    rng = np.random.default_rng(17)
    mesh = _uniform(3)
    sigma = select_sigma(mesh, strategy)
    for _ in range(5):
        v = random_c1q2(mesh, rng)
        p = quasi_interp(v.as_field(), mesh, sigma)
        assert np.max(np.abs(p.coef - v.coef)) < 1e-10


def test_projector_on_nonuniform_mesh():
    rng = np.random.default_rng(5)
    mesh = build_macro_mesh([0.0, 0.1, 0.3, 0.6, 1.0], [0.0, 0.5, 0.75, 1.0])
    sigma = select_sigma(mesh, "left")
    v = random_c1q2(mesh, rng)
    p = quasi_interp(v.as_field(), mesh, sigma)
    assert np.max(np.abs(p.coef - v.coef)) < 1e-10


def test_selection_of_another_mesh_is_rejected_naming_the_node():
    # A 4x4 selection covers the node indices of a 2x2 mesh, but its edges
    # lie on the 4x4 grid lines; used silently, it spoils reproduction.
    f = make_polynomial_field(np.random.default_rng(3).normal(size=(3, 3)))
    graded = build_macro_mesh([0.0, 0.3, 1.0], [0.0, 0.6, 1.0])
    with pytest.raises(ValueError, match=r"sigma edge for node \(1, 0\) does not contain the node"):
        quasi_interp(f, graded, select_sigma(_uniform(4), "toward_corner"))
    with pytest.raises(ValueError, match="sigma edge for node"):
        build_composite(f, build_shishkin(1e-6, 8), select_sigma(build_shishkin(1e-4, 8), "toward_corner"))
    p = quasi_interp(f, graded, select_sigma(graded, "toward_corner"))
    X, Y = np.meshgrid(np.linspace(0, 1, 9), np.linspace(0, 1, 9), indexing="ij")
    assert np.max(np.abs(p.evaluate(X, Y) - f(X, Y))) < 1e-13


def test_selection_lacking_a_node_of_the_mesh_is_rejected_naming_the_node():
    # the selection's node set is smaller than the mesh's: a ValueError names the first missing node, y outer
    f = make_smooth_field("sin_sin")
    with pytest.raises(ValueError, match=r"^sigma edge for node \(2, 0\) is missing$"):
        quasi_interp(f, _uniform(4), select_sigma(_uniform(1), "toward_corner"))
    for n_mesh, n_selection, node in ((16, 8, "(4, 0)"), (8, 16, "(6, 0)")):
        selection = select_sigma(build_shishkin(1e-4, n_selection), "toward_corner")
        with pytest.raises(ValueError, match=re.escape(f"sigma edge for node {node} is missing")):
            build_composite(f, build_shishkin(1e-4, n_mesh), selection)


@pytest.mark.parametrize(
    "span, level",
    [((0.0, np.nan), 0.5), ((np.nan, 1.0), 0.5), ((0.0, 1.0), np.nan), ((0.0, np.inf), 0.5), ((-np.inf, 1.0), 0.5), ((0.0, 1.0), -np.inf)],
)
def test_a_sigma_edge_that_is_not_finite_is_rejected(span, level):
    with pytest.raises(ValueError, match="^sigma edge span and level must be finite$"):
        sigma_average(get_field("xy"), SigmaEdge("horizontal", span, level, "left"))


def test_an_unverified_selection_with_an_infinite_edge_end_is_rejected():
    # node (0, 0) is the lower end of its edge, so an infinite upper end still
    # contains the node and ends there; the averages must not come out NaN
    mesh = _uniform(4)
    sigma = select_sigma(mesh, "toward_corner")
    edges = sigma.edges.copy()
    assert not edges[0]["upper"]  # row 0 is node (0, 0)
    edges["hi"][0] = np.inf
    with pytest.raises(ValueError, match="^sigma edge span and level must be finite$"):
        quasi_interp(make_smooth_field("sin_sin"), mesh, SigmaSelection(sigma.nodes_x, sigma.nodes_y, edges))


def test_biquadratic_field_reproduced():
    rng = np.random.default_rng(2)
    mesh = _uniform(4)
    sigma = select_sigma(mesh, "toward_corner")
    f = make_polynomial_field(rng.normal(size=(3, 3)))
    p = quasi_interp(f, mesh, sigma)
    X, Y = np.meshgrid(np.linspace(0, 1, 17), np.linspace(0, 1, 17), indexing="ij")
    assert np.max(np.abs(p.evaluate(X, Y) - f(X, Y))) < 1e-11


def test_quasi_output_is_c1_across_macro_interfaces():
    mesh = _uniform(4)
    sigma = select_sigma(mesh, "toward_corner")
    f = make_smooth_field("sin_sin")
    p = quasi_interp(f, mesh, sigma)
    ts = np.linspace(0.0, 1.0, 100)
    for xline in (0.25, 0.5, 0.75):
        for ax, ay in ((0, 0), (1, 0), (0, 1)):
            left = p.evaluate(np.full_like(ts, xline), ts, ax, ay, side=("-", "-"))
            right = p.evaluate(np.full_like(ts, xline), ts, ax, ay, side=("+", "-"))
            assert np.max(np.abs(left - right)) < 1e-10
    for yline in (0.25, 0.5, 0.75):
        for ax, ay in ((0, 0), (1, 0), (0, 1)):
            below = p.evaluate(ts, np.full_like(ts, yline), ax, ay, side=("-", "-"))
            above = p.evaluate(ts, np.full_like(ts, yline), ax, ay, side=("-", "+"))
            assert np.max(np.abs(below - above)) < 1e-10


# ---------------------------------------------------------------------------
# Sigma averages by factors against the pointwise Gauss sum.
# ---------------------------------------------------------------------------

# |by factors - pointwise| <= SIGMA_ROUNDOFF * eps * scale, with the scale the
# same Gauss sum taken on |W| |c fx fy|.  The largest ratio measured over
# test_sigma_averages_by_factors_match_the_pointwise_gauss_sum, under the
# default SkylakeX kernel and OPENBLAS_CORETYPE = Sandybridge, Haswell,
# Prescott and Nehalem alike (no BLAS product is involved), is 1.49, on
# the layer field; the bound is that times a safety factor of 4, rounded up.
SIGMA_ROUNDOFF = 6.0


def _pointwise_sigma_sum(field, rows, absolute=False):
    """The Gauss sum of u_xy at each row's points from one pointwise call, as the
    averages were made before they were summed by factors; with ``absolute``
    the same sum of |W| times sum |c fx fy| over the field's terms."""
    lo, hi, level = rows["lo"], rows["hi"], rows["level"]
    along = (0.5 * (lo + hi))[..., None] + (0.5 * (hi - lo))[..., None] * interpolation._SIGMA_T
    across = np.broadcast_to(level[..., None], along.shape)
    horizontal = rows["horizontal"][..., None]
    x, y = np.where(horizontal, along, across), np.where(horizontal, across, along)
    W = interpolation._SIGMA_W[rows["upper"].astype(int)]
    if not absolute:
        return np.sum(W * field(x, y, 1, 1), axis=-1)
    if isinstance(field, _LineGrids):
        field, x, y = field.field, *((y, x) if field.swapped else (x, y))
    return np.sum(np.abs(W) * sum(np.abs(c * fx(x, 1) * fy(y, 1)) for c, fx, fy in field.terms), axis=-1)


def _sigma_fields(eps):
    """The layer field, sin_sin, a polynomial on its own and as terms, and exp_xy, which has none."""
    poly = make_polynomial_field(np.random.default_rng(11).normal(size=(4, 4)))
    return [
        make_layer_decomposition(eps, smooth="bounded_third", smooth_amplitude=10.0, edge_amplitude=0.05).total,
        make_smooth_field("sin_sin"),
        poly,
        ScalarField("poly_terms", _Terms(poly.terms)),
        make_smooth_field("exp_xy"),
    ]


def _custom_selection(mesh):
    """A selection of ``mesh`` in which lo = 0 carries two different hi, along x and along y."""
    base = select_sigma(mesh, "down")
    custom = {(a, b): base.edge((a, b)) for a in base.nodes_x.tolist() for b in base.nodes_y.tolist()}
    xs, ys = mesh.macro_x.coordinates, mesh.macro_y.coordinates
    custom[0, 1] = SigmaEdge("horizontal", (xs[0], xs[1]), ys[1], "left")
    custom[0, 2] = SigmaEdge("horizontal", (xs[0], xs[2]), ys[2], "left")
    custom[1, 0] = SigmaEdge("vertical", (ys[0], ys[1]), xs[1], "left")
    custom[2, 0] = SigmaEdge("vertical", (ys[0], ys[2]), xs[2], "left")
    return select_sigma(mesh, "custom", custom=custom)


_MACRO_MESHES = {
    "uniform": lambda: _uniform(4),
    "graded": lambda: build_macro_mesh([0.0, 0.1, 0.3, 0.6, 1.0], [0.0, 0.5, 0.75, 1.0]),
    "geometric": lambda: build_macro_mesh(np.r_[0.0, np.geomspace(1e-4, 1.0, 6)], np.r_[0.0, np.geomspace(1e-3, 1.0, 5)]),
}
_SIGMA_CASES = (
    [(f"{name}-{strategy}", _MACRO_MESHES[name], strategy) for name in ("uniform", "geometric") for strategy in ("toward_corner", "left", "down")]
    + [(f"graded-{strategy}", _MACRO_MESHES["graded"], strategy) for strategy in ("left", "down")]  # toward_corner's patch is too large there
    + [(f"shishkin{N}-{strategy}", lambda N=N: build_shishkin(1e-6, N), strategy) for N in (8, 64) for strategy in ("toward_corner", "left", "down")]
    + [("graded-custom", _MACRO_MESHES["graded"], "custom")]
)


def _sigma_sums(make_mesh, strategy):
    """``(name, by factors, pointwise, eps * scale)`` of every field and its transposition on the
    selection; the scale is None for a field on the pointwise path."""
    mesh = make_mesh()
    sigma = _custom_selection(mesh) if strategy == "custom" else select_sigma(mesh, strategy)
    rows = sigma.edges.reshape(len(sigma.nodes_x), len(sigma.nodes_y))
    if strategy == "custom":
        assert len(set(rows["hi"][rows["lo"] == 0.0].tolist())) > 2  # lo = 0 carries several hi
    for f in _sigma_fields(1e-6 if isinstance(mesh, ShishkinMesh) else 1e-4):
        for field in (f, _LineGrids(f).transposed()):
            got, want = interpolation._sigma_averages(field, rows), _pointwise_sigma_sum(field, rows)
            scale = None if _LineGrids(f).terms is None else np.finfo(float).eps * _pointwise_sigma_sum(field, rows, absolute=True)
            yield f.name, got, want, scale


@pytest.mark.parametrize("make_mesh, strategy", [case[1:] for case in _SIGMA_CASES], ids=[case[0] for case in _SIGMA_CASES])
def test_sigma_averages_by_factors_match_the_pointwise_gauss_sum(make_mesh, strategy):
    for name, got, want, scale in _sigma_sums(make_mesh, strategy):
        if scale is None:  # a field without _Terms keeps its one pointwise call
            assert got.tobytes() == want.tobytes(), name
        else:
            assert np.all(np.abs(got - want) <= SIGMA_ROUNDOFF * scale), name


@pytest.mark.parametrize("strategy", ["toward_corner", "left", "down"])
def test_one_sigma_average_is_its_node_averages_entry_bit_for_bit(strategy):
    # a span's Gauss sums do not depend on how many spans are summed with it
    mesh = build_shishkin(1e-6, 16)
    sigma = select_sigma(mesh, strategy)
    f = make_layer_decomposition(1e-6, smooth="bounded_third", smooth_amplitude=10.0, edge_amplitude=0.05).total
    A = interpolation._node_averages(f, mesh, sigma)
    assert A.shape == (len(sigma.nodes_y), len(sigma.nodes_x))
    for i, a in enumerate(sigma.nodes_x.tolist()):
        for j, b in enumerate(sigma.nodes_y.tolist()):
            assert np.float64(sigma_average(f, sigma.edge((a, b)))).tobytes() == A[j, i].tobytes()
