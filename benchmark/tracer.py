"""Outside-in tracer: spans and counts at the package's module boundaries.

Nothing inside the package changes.  ``install`` replaces the public
functions of each layer where the calling module looks them up (for
example ``experiments.build_composite``, not ``interpolation.build_composite``,
so calls inside a layer stay untraced), wraps the field objects the
fields module hands out and ``evaluate`` on every ``PiecewisePoly2D`` a
traced constructor returns.  ``uninstall`` restores all of it.

A span is ``[name, start, end, parent, counts]``: ``parent`` is the index
of the enclosing span (-1 for the job's root span) and ``counts`` a dict
of work done at that boundary, or None.  Spans stay in memory and are
written out once, when the job ends.  A name missing from a module (a
later version may drop it) is skipped and listed in the trace.
"""

from __future__ import annotations

import functools
import inspect
import os
import weakref
from time import perf_counter

import numpy as np

# Constructors of the interpolation layer and the operator each builds.
BUILDERS = {
    "build_composite": "composite",
    "interp_full": "full",
    "interp_full_macro": "full",
    "interp_reduced": "reduced",
    "interp_reduced_macro": "reduced",
    "quasi_interp": "quasi",
    "interp_bfs_mesh": "bfs",
    "interp_bfs": "bfs",
    "nodal_q2_mesh": "nodal",
    "nodal_q2": "nodal",
    "interp_aniso_mesh": "aniso_y",
    "interp_aniso": "aniso_y",
    "random_c1q2": None,
    "assemble_from_nodal_data": None,
}
OPERATOR_GROUPS = tuple(dict.fromkeys(g for g in BUILDERS.values() if g))
SPLINE_CORE = (
    "divided_difference",
    "edge_hat_basis",
    "edge_spline_basis",
    "edge_theta",
    "eval_dual_weight",
    "eval_ref_basis",
    "eval_world_basis",
    "hermite_divided_differences",
    "hermite_interpolate_1d",
    "integrate_dual_weight",
)
MESH = ("build_shishkin", "build_macro_mesh", "select_sigma", "classify_edges")
ORACLES = ("check_duality_and_functionals", "check_trace_inequality")
DRIVERS = ("run_shishkin", "run_convergence", "verification_suite")
OUTPUT = ("write_csv", "write_json")

# A count callback that fails on a changed signature costs the count, never the job.
_COUNT_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


class Tracer:
    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans = []
        self.missing = []
        self._open = []
        self._patched = []
        self._instances = []
        self._field_classes = None  # (ScalarField, its traced subclass), set by install

    # -- recording ---------------------------------------------------------

    def run(self, name, fn, args, kwargs, count=None):
        """Call ``fn`` inside a span; ``count(args, kwargs, result)`` adds counts."""
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._open.pop()
        if count is not None:
            try:
                record[4] = count(args, kwargs, result)
            except _COUNT_ERRORS:
                record[4] = {"count_error": 1}
        return result

    def patch(self, owner, attribute, name, count=None):
        original = getattr(owner, attribute, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attribute}")
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.run(name, original, args, kwargs, count)

        self._replace(owner, attribute, original, traced)

    def patch_factory(self, owner, attribute, convert):
        """Pass what ``owner.attribute`` returns through ``convert``; no span."""
        original = getattr(owner, attribute, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attribute}")
            return

        @functools.wraps(original)
        def converted(*args, **kwargs):
            return convert(original(*args, **kwargs))

        self._replace(owner, attribute, original, converted)

    def _replace(self, owner, attribute, original, replacement):
        setattr(owner, attribute, replacement)
        self._patched.append((owner, attribute, original))

    def uninstall(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)
        for ref in self._instances:
            poly = ref()
            if poly is not None and "evaluate" in vars(poly):
                del poly.evaluate
        self._instances.clear()

    # -- fields and piecewise polynomials ----------------------------------

    def traced_field(self, field):
        """The same field, with every call recorded as a ``fields.call`` span."""
        base, traced_class = self._field_classes
        if not isinstance(field, base) or isinstance(field, traced_class):
            return field
        traced = traced_class(field.name, field._eval)
        object.__setattr__(traced, "_tracer", self)
        return traced

    def traced_decomposition(self, decomposition):
        return _TracedDecomposition(decomposition, self.traced_field(decomposition.total))

    def trace_evaluate(self, poly):
        """Record ``poly.evaluate`` calls; undone by ``uninstall``."""
        original = getattr(poly, "evaluate", None)
        if original is None or "evaluate" in getattr(poly, "__dict__", {}):
            return

        def evaluate(*args, **kwargs):
            return self.run("interpolation.evaluate", original, args, kwargs, _points)

        try:
            poly.evaluate = evaluate
            self._instances.append(weakref.ref(poly))
        except (AttributeError, TypeError):
            pass

    def to_json(self) -> dict:
        return {"job_id": self.job_id, "missing": self.missing, "spans": self.spans}


class _TracedDecomposition:
    """A layer decomposition whose ``total`` field is traced."""

    def __init__(self, decomposition, total):
        self._decomposition = decomposition
        self.total = total

    def __getattr__(self, name):
        return getattr(self._decomposition, name)


def _field_class(ScalarField):
    class TracedField(ScalarField):
        def __call__(self, x, y, ax=0, ay=0):
            call = super().__call__
            return self._tracer.run("fields.call", call, (x, y, ax, ay), {}, _points)

    return TracedField


# -- count callbacks -------------------------------------------------------


def _points(args, kwargs, result):
    return {"points": int(np.broadcast(args[0], args[1]).size)}


def _mesh_elements(args, kwargs, mesh):
    gx = getattr(mesh, "grid_x", None)
    gy = getattr(mesh, "grid_y", None)
    if gx is None:
        gx, gy = mesh.element_x, mesh.element_y
    return {"elements": (len(gx) - 1) * (len(gy) - 1)}


def _edges(args, kwargs, edges):
    return {"edges": len(edges)}


def _sigma_nodes(args, kwargs, selection):
    return {"sigma_nodes": len(selection.edges)}


def _checks(args, kwargs, results):
    return {"checks": len(results), "checks_failed": sum(1 for r in results if not r.passed)}


def _output_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def install(tracer: Tracer) -> None:
    from macrospline import cli, experiments, fields, interpolation, norms, oracles

    tracer._field_classes = (fields.ScalarField, _field_class(fields.ScalarField))

    for attribute in DRIVERS[:2]:
        tracer.patch(cli, attribute, f"experiments.{attribute}")
    tracer.patch(experiments, "verification_suite", "experiments.verification_suite", _checks)
    for attribute in OUTPUT:
        tracer.patch(cli, attribute, f"experiments.{attribute}", _output_bytes)

    for attribute in ("get_field", "make_smooth_field", "make_polynomial_field"):
        tracer.patch_factory(experiments, attribute, tracer.traced_field)
    # oracles imports make_polynomial_field from fields at call time
    tracer.patch_factory(fields, "make_polynomial_field", tracer.traced_field)
    tracer.patch_factory(experiments, "make_layer_decomposition", tracer.traced_decomposition)

    def built(args, kwargs, result):
        poly = getattr(result, "poly", result)
        tracer.trace_evaluate(poly)
        return {"elements": int(poly.coef.shape[0] * poly.coef.shape[1])}

    mesh_counts = {"build_shishkin": _mesh_elements, "build_macro_mesh": _mesh_elements, "select_sigma": _sigma_nodes, "classify_edges": _edges}
    for owner in (experiments, oracles):
        for attribute in BUILDERS:
            if hasattr(owner, attribute):
                tracer.patch(owner, attribute, f"interpolation.{attribute}", built)
        for attribute in MESH:
            if hasattr(owner, attribute):
                tracer.patch(owner, attribute, f"mesh.{attribute}", mesh_counts[attribute])
    for owner in (interpolation, oracles):
        for attribute in SPLINE_CORE:
            if hasattr(owner, attribute):
                tracer.patch(owner, attribute, f"spline_core.{attribute}")
    for attribute in ORACLES:
        tracer.patch(oracles, attribute, f"oracles.{attribute}")

    seminorm = getattr(experiments, "seminorm", None)
    jump_norm_sum = getattr(experiments, "jump_norm_sum", None)

    def rule_points(arguments):
        rule = arguments.get("rule") or norms.gauss_rule()
        return len(rule.nodes)

    def seminorm_counts(args, kwargs, result):
        arguments = _bound(seminorm, args, kwargs)
        poly = getattr(arguments["interp"], "poly", arguments["interp"])
        region = arguments.get("region")
        elements = len(region) if region is not None else (len(poly.grid_x) - 1) * (len(poly.grid_y) - 1)
        return {"quad_points": elements * rule_points(arguments) ** 2}

    def jump_counts(args, kwargs, result):
        arguments = _bound(jump_norm_sum, args, kwargs)
        edges = len(arguments["edges"])
        return {"edges": edges, "quad_points": edges * rule_points(arguments)}

    tracer.patch(experiments, "seminorm", "norms.seminorm", seminorm_counts)
    tracer.patch(experiments, "jump_norm_sum", "norms.jump_norm_sum", jump_counts)


# -- per-layer metrics from a trace ----------------------------------------


def summarize(spans) -> dict:
    """Per-layer metrics of one traced job.

    Busy time of a set of spans counts only the outermost ones, so nested
    calls are not counted twice.  Self time is a span's duration minus
    the durations of its direct children; in a single-threaded job the
    children are disjoint, so that is the part of the interval they do
    not cover.
    """
    n = len(spans)
    names = [s[0] for s in spans]
    duration = [s[2] - s[1] for s in spans]
    children = [0.0] * n
    for k, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]] += duration[k]
    own = [d - c for d, c in zip(duration, children)]

    def select(test):
        return [k for k in range(n) if test(names[k])]

    def busy(test):
        inside = [False] * n
        total = 0.0
        for k, s in enumerate(spans):
            p = s[3]
            inside[k] = p >= 0 and (inside[p] or test(names[p]))
            if test(names[k]) and not inside[k]:
                total += duration[k]
        return total

    def count(keys, key):
        return sum((spans[k][4] or {}).get(key, 0) for k in keys)

    def named(*candidates):
        wanted = set(candidates)
        return lambda name: name in wanted

    layer = lambda prefix, group: named(*(f"{prefix}.{a}" for a in group))  # noqa: E731
    builder = layer("interpolation", BUILDERS)
    field_calls = select(named("fields.call"))
    evaluate = select(named("interpolation.evaluate"))
    builds = select(builder)
    seminorms = select(named("norms.seminorm"))
    jumps = select(named("norms.jump_norm_sum"))
    drivers = select(layer("experiments", DRIVERS))
    points = count(field_calls, "points")

    m = {
        "fields.calls": len(field_calls),
        "fields.points": points,
        "fields.points_per_call": points / len(field_calls) if field_calls else 0.0,
        "fields.busy_s": busy(named("fields.call")),
        "mesh.build_s": busy(named("mesh.build_shishkin", "mesh.build_macro_mesh")),
        "mesh.select_sigma_s": busy(named("mesh.select_sigma")),
        "mesh.classify_edges_s": busy(named("mesh.classify_edges")),
        "mesh.elements": count(select(named("mesh.build_shishkin", "mesh.build_macro_mesh")), "elements"),
        "mesh.edges": count(select(named("mesh.classify_edges")), "edges"),
        "mesh.sigma_nodes": count(select(named("mesh.select_sigma")), "sigma_nodes"),
        "interpolation.build_s": busy(builder),
        "interpolation.build_self_s": sum(own[k] for k in builds),
        "interpolation.build_calls": len(builds),
        "interpolation.elements_built": count(builds, "elements"),
    }
    for group in OPERATOR_GROUPS:
        members = [f"interpolation.{a}" for a, g in BUILDERS.items() if g == group]
        m[f"interpolation.{group}_s"] = busy(named(*members))
    m.update(
        {
            "interpolation.evaluate_calls": len(evaluate),
            "interpolation.evaluate_points": count(evaluate, "points"),
            "interpolation.evaluate_s": busy(named("interpolation.evaluate")),
            "norms.seminorm_calls": len(seminorms),
            "norms.seminorm_s": busy(named("norms.seminorm")),
            "norms.seminorm_self_s": sum(own[k] for k in seminorms),
            "norms.jump_calls": len(jumps),
            "norms.jump_edges": count(jumps, "edges"),
            "norms.jump_s": busy(named("norms.jump_norm_sum")),
            "norms.jump_self_s": sum(own[k] for k in jumps),
            "norms.quad_points": count(seminorms + jumps, "quad_points"),
            "spline_core.calls": len(select(layer("spline_core", SPLINE_CORE))),
            "spline_core.s": busy(layer("spline_core", SPLINE_CORE)),
            "oracles.checks": count(drivers, "checks"),
            "oracles.checks_failed": count(drivers, "checks_failed"),
            "oracles.self_s": sum(own[k] for k in select(layer("oracles", ORACLES))),
            "experiments.jobs": len(drivers),
            "experiments.self_s": sum(own[k] for k in drivers),
            "experiments.output_s": busy(layer("experiments", OUTPUT)),
            "experiments.output_bytes": count(select(layer("experiments", OUTPUT)), "bytes"),
            "trace.spans": n,
        }
    )
    return m
