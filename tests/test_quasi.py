import re

import numpy as np
import pytest

from macrospline.fields import get_field, make_polynomial_field, make_smooth_field
from macrospline.interpolation import (
    build_composite,
    interp_reduced,
    quasi_interp,
    random_c1q2,
    sigma_average,
)
from macrospline.mesh import SigmaEdge, SigmaSelection, build_macro_mesh, build_shishkin, select_sigma


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
