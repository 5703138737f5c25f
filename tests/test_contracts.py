"""Smaller contract details: bounds, conventions, warnings, golden values."""

import json

import numpy as np
import pytest

from macrospline.fields import get_field, make_smooth_field
from macrospline.interpolation import (
    PiecewisePoly2D,
    interp_bfs_mesh,
    interp_full,
    interp_full_macro,
    nodal_q2,
    nodal_q2_mesh,
)
from macrospline.mesh import build_macro_mesh
from macrospline.spline_core import DualWeight, eval_dual_weight


def test_dual_weight_bounded_by_c_over_h():
    for h in (0.5, 0.05, 0.005):
        w = DualWeight((0.0, 2 * h), "left")
        xs = np.linspace(0.0, 2 * h, 501)
        sup = np.max(np.abs(eval_dual_weight(w, xs)))
        assert sup * h <= 4.0
        # it genuinely scales like 1/h: the sup times h is bounded below too
        assert sup * h >= 1.0


def test_nodal_q2_golden_coefficients():
    # xy on the unit element: (1 + xi + eta + xi*eta)/4 in local coordinates
    p = nodal_q2(get_field("xy"), (0.0, 1.0, 0.0, 1.0))
    want = np.zeros((3, 3))
    want[0, 0] = want[1, 0] = want[0, 1] = want[1, 1] = 0.25
    assert np.max(np.abs(p.coef[0, 0] - want)) < 1e-15
    payload = json.loads(p.to_json())
    assert payload["schema"] == "macrospline-poly/1"
    assert payload["degree"] == [2, 2]


def test_evaluate_side_convention_default_lowest_index():
    # two elements with different constants: the shared line belongs to
    # the lower-index element unless the caller asks otherwise
    coef = np.zeros((1, 2, 1, 1))
    coef[0, 0, 0, 0] = 1.0
    coef[0, 1, 0, 0] = 2.0
    p = PiecewisePoly2D([0.0, 0.5, 1.0], [0.0, 1.0], coef)
    assert p.evaluate(0.5, 0.3) == 1.0
    assert p.evaluate(0.5, 0.3, side=("+", "-")) == 2.0
    # domain endpoints clip into the existing elements
    assert p.evaluate(0.0, 0.3) == 1.0
    assert p.evaluate(1.0, 0.3, side=("+", "-")) == 2.0


def _aspect_cases(f, thin):
    """The macro and mesh-level operators on cells of aspect ratio 1/thin."""
    yield lambda: interp_full_macro(f, (0.0, 1.0, 0.0, thin))
    # a tensor grid's aspect pairs its widest cell in one direction with its thinnest in the other
    yield lambda: interp_bfs_mesh(f, [0.0, 0.5, 1.0], [0.0, thin, 1.0])
    yield lambda: nodal_q2_mesh(f, [0.0, 1.0], [0.0, thin])
    yield lambda: interp_full(f, build_macro_mesh([0.0, 1.0], [0.0, thin]))


def test_extreme_aspect_emits_conditioning_warning():
    f = make_smooth_field("sin_sin")
    for build in _aspect_cases(f, 1e-9):
        with pytest.warns(UserWarning, match="aspect"):
            build()


def test_moderate_aspect_silent():
    import warnings

    f = make_smooth_field("sin_sin")
    for build in _aspect_cases(f, 1e-6):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build()


def test_public_api_is_pinned():
    import macrospline
    import macrospline.mesh

    assert macrospline.__all__ == [
        "ScalarField",
        "get_field",
        "make_layer_decomposition",
        "make_polynomial_field",
        "make_smooth_field",
        "CompositeInterpolant",
        "PiecewisePoly2D",
        "build_composite",
        "evaluate",
        "interp_aniso",
        "interp_bfs",
        "interp_full",
        "interp_full_macro",
        "interp_reduced",
        "interp_reduced_macro",
        "nodal_q2",
        "quasi_interp",
        "Grid1D",
        "MacroMesh",
        "ShishkinMesh",
        "build_macro_mesh",
        "build_shishkin",
        "classify_edges",
        "select_sigma",
        "NormReport",
        "compute_norm_report",
        "edge_l2",
        "gauss_rule",
        "jump_norm_sum",
        "linf_sampled",
        "seminorm",
        "DualWeight",
        "HermiteData1D",
        "KnotSequence",
        "MacroSpline1D",
        "divided_difference",
        "eval_dual_weight",
        "eval_ref_basis",
        "eval_world_basis",
        "hermite_interpolate_1d",
        "integrate_dual_weight",
        "__version__",
    ]
    assert macrospline.mesh.__all__ == [
        "Grid1D",
        "MacroMesh",
        "ShishkinMesh",
        "EdgeSet",
        "SigmaEdge",
        "SigmaSelection",
        "build_macro_mesh",
        "build_shishkin",
        "classify_edges",
        "select_sigma",
        "verify_sigma_selection",
        "mesh_to_json",
    ]
    for module in (macrospline, macrospline.mesh):
        for name in module.__all__:
            assert hasattr(module, name), name
