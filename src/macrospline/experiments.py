"""Verification suites and convergence/Shishkin experiment drivers.

Experiments collect errors over refinement levels or (epsilon, N) grids,
fit observed orders, and serialize rate tables to CSV and JSON.  Levels
and grid points run one after another in one thread; each computes all
its error norms in one pass over its mesh.  A ``ConvergenceConfig`` or
``ShishkinConfig`` checks itself when it is made, so bad input, such as
a finest mesh over ``MAX_ELEMENTS`` elements, a repeated N or eps, or an
eps too small for the fine step, is rejected before anything is built.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ._record import default_factory, record
from .fields import get_field, make_layer_decomposition, make_polynomial_field, make_smooth_field
from .interpolation import (
    build_composite,
    interp_aniso_mesh,
    interp_bfs,
    interp_bfs_mesh,
    interp_full,
    interp_full_macro,
    interp_reduced,
    nodal_q2_mesh,
    quasi_interp,
    random_c1q2,
)
from .mesh import _shishkin_steps, _type_masks, build_macro_mesh, build_shishkin, select_sigma
from .norms import JUMP_TYPES, ORDERS, _jump_sums, _seminorms, gauss_rule

__all__ = [
    "ConvergenceConfig",
    "ShishkinConfig",
    "RateTable",
    "observed_orders",
    "ls_slope",
    "run_convergence",
    "run_shishkin",
    "verification_suite",
    "write_csv",
    "write_json",
]

# Elements (ex, ey) each operator puts in one macro, a cell of the grid it is given.
ELEMENTS_PER_MACRO = {"full": (2, 2), "reduced": (2, 2), "quasi": (2, 2), "bfs": (1, 1), "nodal": (1, 1), "aniso_y": (1, 2)}
ELEMENTS_PER_CELL = {operator: ex * ey for operator, (ex, ey) in ELEMENTS_PER_MACRO.items()}
OPERATORS = tuple(ELEMENTS_PER_MACRO)
# Largest finest mesh a run may build.  `macrospline shishkin --N <N> --eps 1e-6` peaks
# (ru_maxrss) at 47 MiB at N=256 and 261 MiB at N=1024, the budget: about 0.22 KiB per
# element over the 32 MiB of the imported package (2-core x86_64 Xeon, Python 3.11, numpy 2.4).
MAX_ELEMENTS = 2**20
FLOAT_FMT = "%.17g"


def _check_budget(config):
    elements = config.finest_elements()
    if elements > MAX_ELEMENTS:
        raise ValueError(f"the finest mesh would have {elements} elements, over the budget of {MAX_ELEMENTS}")


@record
class ConvergenceConfig:
    """Uniform refinement of one operator: ``levels`` meshes of base_n * 2**k cells per side."""

    operator: str = "full"
    field: str = "sin_sin"
    levels: int = 4
    base_n: int = 2
    sigma: str | None = None  # the quasi operator's strategy, "toward_corner" when None; no other operator takes one

    def __post_init__(self):
        if self.operator not in OPERATORS:
            raise ValueError(f"operator must be one of {OPERATORS}")
        if self.levels < 3:
            raise ValueError("rate fitting needs at least 3 levels")
        if self.base_n < 1:
            raise ValueError("base n must be positive")
        if self.sigma is not None and self.operator != "quasi":
            raise ValueError(f"sigma applies to the quasi operator only, not to {self.operator}")
        _check_budget(self)
        get_field(self.field)  # the run's own constructors check the names, as in ShishkinConfig
        select_sigma(build_macro_mesh((0.0, 1.0), (0.0, 1.0)), self.sigma or "toward_corner")

    def finest_elements(self) -> int:
        """Elements of the finest mesh the run builds."""
        n = self.base_n * 2 ** (self.levels - 1)
        return ELEMENTS_PER_CELL[self.operator] * n**2


@record
class ShishkinConfig:
    """The composite interpolant of a layer decomposition over an (eps, N) grid of Shishkin meshes."""

    N_list: tuple = (8, 16, 32, 64)
    eps_list: tuple = (1e-4, 1e-6, 1e-8)
    lambda0: float = 3.0
    c_star: float = 1.0
    sigma: str = "toward_corner"
    smooth_variant: str = "bounded_third"
    smooth_amplitude: float = 1.0
    edge_amplitude: float = 1.0

    def __post_init__(self):
        if not self.N_list or any(n <= 0 or n % 8 != 0 for n in self.N_list):
            raise ValueError("Shishkin N values must be positive multiples of 8")
        if not self.eps_list or not all(0.0 < eps < 1.0 for eps in self.eps_list):
            raise ValueError("epsilon must lie in (0, 1)")
        for name, values in (("N", self.N_list), ("eps", self.eps_list)):
            if len(set(values)) != len(values):
                raise ValueError(f"Shishkin {name} values must not repeat")
        for name in ("smooth_amplitude", "edge_amplitude"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)}")
        _check_budget(self)
        for eps in self.eps_list:
            for N in self.N_list:
                _shishkin_steps(eps, N, self.lambda0, self.c_star)
        make_layer_decomposition(self.eps_list[0], smooth=self.smooth_variant)  # the run's own constructors check the names
        select_sigma(build_macro_mesh((0.0, 1.0), (0.0, 1.0)), self.sigma)

    def finest_elements(self) -> int:
        """Elements of the finest mesh the run builds."""
        return max(self.N_list) ** 2


@record(frozen=False)
class RateTable:
    """Rows of (level tag, h or N, error per norm, observed order per norm)."""

    columns: tuple
    rows: list = default_factory(list)
    meta: dict = default_factory(dict)

    def column(self, name):
        k = self.columns.index(name)
        return [row[k] for row in self.rows]


def observed_orders(errors, hs):
    """Pairwise orders log(e_k/e_{k+1}) / log(h_k/h_{k+1}); first entry None."""
    orders = [None]
    for (e0, e1), (h0, h1) in zip(zip(errors, errors[1:]), zip(hs, hs[1:])):
        if e0 > 0 and e1 > 0:
            orders.append(math.log(e0 / e1) / math.log(h0 / h1))
        else:
            orders.append(float("nan"))
    return orders


def _rate_rows(rows, columns, hs) -> list:
    """``rows`` (dicts) as tuples in ``columns`` order; an ``order_*`` column gets the observed orders of the column before it."""
    for k, name in enumerate(columns):
        if name.startswith("order_"):
            for row, order in zip(rows, observed_orders([r[columns[k - 1]] for r in rows], hs)):
                row[name] = order
    return [tuple(row[c] for c in columns) for row in rows]


def ls_slope(errors, hs, tail: int = 3):
    """Least-squares convergence order over the last ``tail`` levels."""
    e = np.asarray(errors[-tail:], dtype=float)
    h = np.asarray(hs[-tail:], dtype=float)
    if len(e) < 2:
        return float("nan")
    if np.any(e <= 0):
        return float("inf")
    return float(np.polyfit(np.log(h), np.log(e), 1)[0])


def _provenance(config, **resolved) -> dict:
    """JSON ``meta`` entries: the run's config with its defaults (and ``resolved``) filled in, and the versions it ran on."""
    import sys

    from . import __version__

    settings = {name: getattr(config, name) for name in config._fields}
    return {"config": {**settings, **resolved}, "versions": {"macrospline": __version__, "numpy": np.__version__, "python": "%d.%d.%d" % sys.version_info[:3]}}


def _apply_mesh_operator(operator, field, grid_x, grid_y, sigma_strategy="toward_corner"):
    """Interpolant of ``field`` by ``operator`` over the macro grid ``grid_x`` x ``grid_y``; ValueError names an unknown operator."""
    if operator in ("full", "reduced", "quasi"):
        mesh = build_macro_mesh(grid_x, grid_y)
        if operator == "full":
            return interp_full(field, mesh)
        if operator == "reduced":
            return interp_reduced(field, mesh)
        sigma = select_sigma(mesh, sigma_strategy)
        return quasi_interp(field, mesh, sigma)
    if operator == "bfs":
        return interp_bfs_mesh(field, grid_x, grid_y)
    if operator == "nodal":
        return nodal_q2_mesh(field, grid_x, grid_y)
    if operator == "aniso_y":
        return interp_aniso_mesh(field, grid_x, grid_y, "y_spline")
    raise ValueError(f"unknown operator {operator!r}")


def _error_norms(field, interp, rule):
    """L2 norm, H1 seminorm and broken H2 seminorm of field - interp, in one pass."""
    l2, h1x, h1y, h2xx, h2xy, h2yy = _seminorms(field, interp, ORDERS, rule=rule)
    return l2, math.sqrt(h1x**2 + h1y**2), math.sqrt(h2xx**2 + h2xy**2 + h2yy**2)


CONVERGENCE_COLUMNS = ("n", "h", "L2", "order_L2", "H1", "order_H1", "brokenH2", "order_H2")


def run_convergence(config: ConvergenceConfig) -> RateTable:
    """Uniform-refinement errors and observed orders for one operator."""
    field = get_field(config.field)
    rule = gauss_rule(5)
    sigma = config.sigma or "toward_corner"

    rows = []
    for level in range(config.levels):
        n = config.base_n * 2**level
        grid = np.linspace(0.0, 1.0, n + 1)
        poly = _apply_mesh_operator(config.operator, field, grid, grid, sigma)
        l2, h1, h2 = _error_norms(field, poly, rule)
        rows.append({"n": n, "h": 1.0 / n, "L2": l2, "H1": h1, "brokenH2": h2})

    hs = [r["h"] for r in rows]
    table = RateTable(CONVERGENCE_COLUMNS, _rate_rows(rows, CONVERGENCE_COLUMNS, hs))
    table.meta = {
        "schema": "macrospline-rates/1",
        "experiment": "converge",
        "operator": config.operator,
        "field": config.field,
        "ls_order_L2": ls_slope(table.column("L2"), hs),
        "ls_order_H1": ls_slope(table.column("H1"), hs),
        "ls_order_H2": ls_slope(table.column("brokenH2"), hs),
        **_provenance(config, sigma=sigma if config.operator == "quasi" else None),
    }
    return table


SHISHKIN_MODELS = {
    "L2": lambda N, eps: N**-2.0,
    "weighted_H1": lambda N, eps: N**-2.0 * math.log(N) ** 2,
    "weighted_H2": lambda N, eps: N**-1.0 * math.log(N),
    "jump2_I": lambda N, eps: N**-3.0,
    "jump2_III": lambda N, eps: eps**-0.5 * N**-3.0 * math.log(N) ** 4,
}
SHISHKIN_COLUMNS = (
    "eps",
    "N",
    "L2",
    "order_L2",
    "weighted_H1",
    "weighted_H2",
    "jump2_I",
    "order_jump2_I",
    "jump2_II",
    "jump2_III",
    "jump2_IV",
    *(f"C_{name}" for name in SHISHKIN_MODELS),
)


def _shishkin_point(config: ShishkinConfig, u, eps, N, rule) -> dict:
    """Weighted errors of u - u*, jump sums per edge type and model constants at one (eps, N); ``u`` is the layer field of eps."""
    mesh = build_shishkin(eps, N, config.lambda0, config.c_star)
    sigma = select_sigma(mesh, config.sigma)
    star = build_composite(u, mesh, sigma)
    l2, h1, h2 = _error_norms(u, star, rule)
    row = {"eps": eps, "N": N, "L2": l2, "weighted_H1": eps**0.25 * h1, "weighted_H2": eps**0.75 * h2}
    for t, jump in zip(JUMP_TYPES, _jump_sums(star, _type_masks(mesh, JUMP_TYPES), rule)):
        row[f"jump2_{t}"] = jump
    for name, model in SHISHKIN_MODELS.items():
        row[f"C_{name}"] = row[name] / model(N, eps)
    return row


def run_shishkin(config: ShishkinConfig) -> RateTable:
    """Composite-interpolant error survey over an (epsilon, N) grid.

    Per grid point: weighted error norms of u - u*, the squared
    normal-derivative jump sums per edge type, and fitted constants
    against the model rates.  Rows run over N in increasing order for
    each eps in turn.
    """
    rule = gauss_rule(4)
    table = RateTable(SHISHKIN_COLUMNS)
    meta_orders = {}
    for eps in config.eps_list:
        u = make_layer_decomposition(
            eps,
            config.c_star,
            smooth=config.smooth_variant,
            edge_amplitude=config.edge_amplitude,
            smooth_amplitude=config.smooth_amplitude,
        ).total
        rows = [_shishkin_point(config, u, eps, N, rule) for N in sorted(config.N_list)]
        hs = [1.0 / r["N"] for r in rows]
        meta_orders[str(eps)] = {
            "ls_order_L2": ls_slope([r["L2"] for r in rows], hs),
            "ls_order_jump2_I": ls_slope([r["jump2_I"] for r in rows], hs),
            "C_L2_values": [r["C_L2"] for r in rows],
        }
        table.rows += _rate_rows(rows, SHISHKIN_COLUMNS, hs)
    table.meta = {
        "schema": "macrospline-rates/1",
        "experiment": "shishkin",
        "smooth_variant": config.smooth_variant,
        "orders_by_eps": meta_orders,
        **_provenance(config),
    }
    return table


# ---------------------------------------------------------------------------
# Verification battery for the CLI.
# ---------------------------------------------------------------------------


def _reproduction_error(p, f, macro) -> float:
    """Largest |p - f| on a 9 x 9 grid over the macro, relative to max(1, max |f|) there."""
    x0, x1, y0, y1 = macro
    X, Y = np.meshgrid(np.linspace(x0, x1, 9), np.linspace(y0, y1, 9), indexing="ij")
    return float(np.max(np.abs(p.evaluate(X, Y) - f(X, Y)))) / max(1.0, float(np.max(np.abs(f(X, Y)))))


def verification_suite(rng_seed: int = 2026) -> list:
    """All identity/reproduction/continuity checks as CheckResult items."""
    from . import oracles  # only this battery needs the oracles; they import this module
    from .oracles import CheckResult

    rng = np.random.default_rng(rng_seed)
    out = list(oracles.check_duality_and_functionals())

    # reproduction checks
    errors = []
    for aspect in (1.0, 1e3, 1e6):
        f = make_polynomial_field(rng.normal(size=(3, 3)))
        macro = (0.0, 1.0, 0.0, 1.0 / aspect)
        errors.append(_reproduction_error(interp_full_macro(f, macro), f, macro))
    out.append(CheckResult("reproduction_full_q2", float(np.max(errors, initial=0.0)), 1e-9))  # np.max keeps a NaN, max() may drop it

    f = make_polynomial_field(rng.normal(size=(4, 4)))
    element = (0.0, 1.0, 0.0, 0.5)
    out.append(CheckResult("reproduction_bfs_q3", _reproduction_error(interp_bfs(f, element), f, element), 1e-9))

    mesh = build_macro_mesh(np.linspace(0, 1, 4), np.linspace(0, 1, 4))
    sigma = select_sigma(mesh, "toward_corner")
    v = random_c1q2(mesh, rng)
    q = quasi_interp(v.as_field(), mesh, sigma)
    out.append(CheckResult("projector_quasi_c1q2", float(np.max(np.abs(q.coef - v.coef))), 1e-10))

    # C1 continuity of the full and quasi interpolants
    smooth = make_smooth_field("sin_sin")
    for name, poly in (("full", interp_full(smooth, mesh)), ("quasi", quasi_interp(smooth, mesh, sigma))):
        errors = []
        ts = np.linspace(0.0, 1.0, 50)
        for line in mesh.macro_x.coordinates[1:-1]:
            for ax, ay in ((0, 0), (1, 0), (0, 1)):
                a = poly.evaluate(np.full_like(ts, line), ts, ax, ay, side=("-", "-"))
                b = poly.evaluate(np.full_like(ts, line), ts, ax, ay, side=("+", "-"))
                errors.append(np.max(np.abs(a - b)))
        out.append(CheckResult(f"c1_continuity_{name}", float(np.max(errors, initial=0.0)), 1e-10))

    # composite continuity across long/corner edges on a small Shishkin mesh
    mesh_s = build_shishkin(1e-6, 8)
    star = build_composite(smooth, mesh_s, select_sigma(mesh_s, "toward_corner"))
    for t, jump in zip(("II", "IV"), _jump_sums(star, _type_masks(mesh_s, ("II", "IV")), gauss_rule(4))):
        out.append(CheckResult(f"composite_jump2_{t}", jump, 1e-10))

    # trace inequality battery
    violations = []
    for _ in range(20):
        f = make_polynomial_field(rng.normal(size=(3, 3)))
        aspect = 10.0 ** rng.uniform(0, 6)
        lhs, rhs = oracles.check_trace_inequality(f, (0.0, 1.0, 0.0, 1.0 / aspect))
        violations.append(lhs - rhs)
    out.append(CheckResult("trace_inequality_violation", float(np.max(violations, initial=0.0)), 1e-10))
    return out


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


def write_csv(table: RateTable, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(table.columns) + "\n")
        for row in table.rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(table: RateTable, path: str) -> None:
    payload = dict(table.meta)
    payload["columns"] = list(table.columns)
    payload["rows"] = [list(row) for row in table.rows]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
