"""Gauss-Legendre quadrature: the one place the package builds a rule.

A rule lives on the reference interval [-1, 1]; ``integrate`` and
``integrate2d`` map it onto an interval or a rectangle.  A split rule
applies the base rule on each half of [-1, 1], for integrands that kink
at the midpoint, such as a macro-spline derivative at its knot or a dual
weight.  The module depends on numpy only, so every other module can
import it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadratureRule", "gauss_rule", "integrate", "integrate2d"]


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights on [-1, 1]; exact through degree 2*order-1 (on each half if split)."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray


def gauss_rule(order: int = 5, split: bool = False) -> QuadratureRule:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    if split:
        nodes = np.concatenate([0.5 * (nodes - 1.0), 0.5 * (nodes + 1.0)])
        weights = 0.5 * np.tile(weights, 2)
    return QuadratureRule(order, nodes, weights)


def integrate(fn, a, b, rule: QuadratureRule) -> float:
    """Integral of ``fn`` (called once, on the array of mapped nodes) over [a, b]."""
    half = 0.5 * (b - a)
    return half * float(np.dot(rule.weights, fn(0.5 * (a + b) + half * rule.nodes)))


def integrate2d(fn, x0, x1, y0, y1, rule: QuadratureRule) -> float:
    """Integral of ``fn(X, Y)`` over [x0, x1] x [y0, y1] by the tensor rule, in one call."""
    hx, hy = 0.5 * (x1 - x0), 0.5 * (y1 - y0)
    X, Y = np.meshgrid(0.5 * (x0 + x1) + hx * rule.nodes, 0.5 * (y0 + y1) + hy * rule.nodes, indexing="ij")
    return hx * hy * float(rule.weights @ fn(X, Y) @ rule.weights)
