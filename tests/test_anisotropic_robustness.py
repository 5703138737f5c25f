"""Robustness of the estimates and operators under extreme anisotropy
and on graded macro meshes."""

import math

import numpy as np
import pytest

from macrospline.fields import make_layer_decomposition, make_smooth_field
from macrospline.interpolation import build_composite, quasi_interp
from macrospline.mesh import build_macro_mesh, build_shishkin, classify_edges, select_sigma
from macrospline.norms import FIRST_ORDER, edge_l2, gauss_rule, seminorm
from macrospline.oracles import bound_consistency, bound_spec_catalog


def _aniso_macro_sequence(aspect, levels=(2, 4, 8, 16)):
    """Macro meshes of n x n macros with x-width = aspect * y-height."""
    return [build_macro_mesh(np.linspace(0.0, 1.0, n + 1), np.linspace(0.0, 1.0 / aspect, n + 1)) for n in levels]


@pytest.mark.parametrize("spec_name", ["aniso_g00", "aniso_g01", "aniso_xx", "aniso_l2_suboptimal"])
def test_aniso_bounds_stay_uniform_at_aspect_100(spec_name):
    # the anisotropic estimates must not degrade when the spline (y)
    # direction is 100 times shorter than the Lagrange direction
    specs = bound_spec_catalog()
    f = make_smooth_field("exp_xy")
    ratios = {}
    for aspect in (1.0, 100.0):
        res = bound_consistency(specs[spec_name], f, _aniso_macro_sequence(aspect))
        sup = res["sup_ratios"]
        if spec_name == "aniso_l2_suboptimal":
            # a deliberately suboptimal bound: on fields whose second
            # derivatives vanish nowhere the ratio decays under
            # refinement, so only demand no growth
            assert max(sup) <= sup[0] * 1.05
        else:
            assert res["max_over_min"] <= 4.0
        assert res["zero_rhs_ok"]
        ratios[aspect] = max(sup)
    # the constant itself stays comparable across aspect ratios
    assert ratios[100.0] <= 10.0 * ratios[1.0] + 1.0


def test_quasi_converges_on_graded_macro_mesh():
    # geometric grading with ratio 1.3 satisfies the patch-size assumption
    # but not local uniformity; first derivatives still gain two orders
    f = make_smooth_field("sin_sin")
    errors, hs = [], []
    for n in (4, 8, 16, 32):
        q = 1.3 ** (4.0 / n)
        steps = q ** np.arange(n)
        coords = np.concatenate([[0.0], np.cumsum(steps)])
        coords /= coords[-1]
        mesh = build_macro_mesh(coords, coords)
        sigma = select_sigma(mesh, "left")
        p = quasi_interp(f, mesh, sigma)
        h1 = math.sqrt(sum(seminorm(f, p, a) ** 2 for a in FIRST_ORDER))
        errors.append(h1)
        hs.append(float(np.max(np.diff(coords))))
    order = math.log(errors[-2] / errors[-1]) / math.log(hs[-2] / hs[-1])
    assert order >= 1.8


def test_long_edge_trace_norms_decrease():
    # per-edge squared trace norms of u - u* on long edges follow the
    # N^{-5} pattern; summed over the ~N^2 long edges that leaves N^{-3}
    eps = 1e-6
    dec = make_layer_decomposition(eps, smooth="bounded_third")
    u = dec.total
    rule = gauss_rule(4)
    sums = []
    for N in (8, 16, 32):
        mesh = build_shishkin(eps, N)
        star = build_composite(u, mesh, select_sigma(mesh, "toward_corner"))
        edges = classify_edges(mesh)
        long_edges = edges[np.isin(edges.edge_type, ("I", "II"))]
        sums.append(float(np.sum(edge_l2(u, star, long_edges, rule) ** 2)))
    assert sums[1] < sums[0] and sums[2] < sums[1]
    order = math.log(sums[0] / sums[2]) / math.log(4.0)
    assert order >= 2.5
