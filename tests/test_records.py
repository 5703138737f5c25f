"""The record classes: construction, defaults, checks, immutability, equality and repr."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import macrospline
from macrospline import cli, experiments, fields, interpolation, mesh, norms, oracles, quadrature, spline_core
from macrospline._record import FrozenInstanceError
from macrospline.experiments import ConvergenceConfig, RateTable, ShishkinConfig
from macrospline.fields import LayerDecomposition, ScalarField
from macrospline.mesh import EdgeSet, Grid1D, MacroMesh, ShishkinMesh, SigmaEdge, SigmaSelection
from macrospline.norms import NormReport
from macrospline.oracles import BoundSpec, BoundTerm, CheckResult
from macrospline.quadrature import QuadratureRule
from macrospline.spline_core import DualWeight, HermiteData1D, KnotSequence, MacroSpline1D

SHISHKIN_DEFAULTS = dict(
    N_list=(8, 16, 32, 64),
    eps_list=(1e-4, 1e-6, 1e-8),
    lambda0=3.0,
    c_star=1.0,
    sigma="toward_corner",
    smooth_variant="bounded_third",
    smooth_amplitude=1.0,
    edge_amplitude=1.0,
)

# class: (fields in order, a sample, the defaults, one change that __post_init__ rejects)
RECORDS = {
    QuadratureRule: (("order", "nodes", "weights"), lambda: quadrature.gauss_rule(3), {}, None),
    KnotSequence: (("nodes",), lambda: KnotSequence(((-1.0, 2), (1.0, 2))), {}, {"nodes": ((1.0, 1), (-1.0, 1))}),
    HermiteData1D: (("value_left", "deriv_left", "value_right", "deriv_right"), lambda: HermiteData1D(1.0, 0.5, -1.0, 2.0), {}, {"deriv_right": math.nan}),
    MacroSpline1D: (("interval", "knot", "pieces"), lambda: spline_core.hermite_interpolate_1d(HermiteData1D(1.0, 0.5, -1.0, 2.0), (0.0, 1.0)), {}, None),
    DualWeight: (("edge_interval", "endpoint_side"), lambda: DualWeight((0.0, 0.5), "left"), {}, {"endpoint_side": "middle"}),
    Grid1D: (("coordinates",), lambda: Grid1D(np.linspace(0.0, 1.0, 3)), {}, {"coordinates": np.array([0.0, 1.0, 1.0])}),
    MacroMesh: (("macro_x", "macro_y"), lambda: mesh.build_macro_mesh([0.0, 1.0], [0.0, 0.5, 1.0]), {}, None),
    ShishkinMesh: (("epsilon", "N", "lambda0", "c_star", "lam", "grid_x", "grid_y", "region"), lambda: mesh.build_shishkin(1e-4, 8), {}, None),
    EdgeSet: (("x0", "y0", "x1", "y1", "horizontal", "normal", "edge_type"), lambda: mesh.classify_edges(mesh.build_shishkin(1e-4, 8)), {}, None),
    SigmaEdge: (("orientation", "span", "level", "node_side"), lambda: SigmaEdge("horizontal", (0.0, 0.5), 0.0, "left"), {}, None),
    SigmaSelection: (("nodes_x", "nodes_y", "edges"), lambda: mesh.select_sigma(mesh.build_macro_mesh([0.0, 0.5, 1.0], [0.0, 1.0])), {}, None),
    ScalarField: (("name", "_eval"), lambda: fields.get_field("xy"), {}, None),
    LayerDecomposition: (("smooth", "edge_layers", "corner_layers", "epsilon", "c_star", "edge_amplitude"), lambda: fields.make_layer_decomposition(1e-4), {"edge_amplitude": 1.0}, None),
    NormReport: (("regional", "global_values", "jump_sums"), lambda: NormReport({"omega0": {"L2": 0.5}}, {"L2": 0.5}, {"I": 0.0}), {"jump_sums": {}}, None),
    ConvergenceConfig: (("operator", "field", "levels", "base_n", "sigma"), ConvergenceConfig, {"operator": "full", "field": "sin_sin", "levels": 4, "base_n": 2, "sigma": None}, {"levels": 2}),
    ShishkinConfig: (tuple(SHISHKIN_DEFAULTS), ShishkinConfig, SHISHKIN_DEFAULTS, {"N_list": (8, 12)}),
    RateTable: (("columns", "rows", "meta"), lambda: RateTable(("n", "L2"), [(2, 0.5)], {"schema": "s"}), {"rows": [], "meta": {}}, None),
    CheckResult: (("name", "value", "tolerance"), lambda: CheckResult("c", 1e-12, 1e-10), {}, None),
    BoundTerm: (("total", "weight", "kind"), lambda: BoundTerm((2, 0), (2.0, 0.0), "seminorm"), {}, None),
    BoundSpec: (("name", "operator", "gamma", "terms"), lambda: next(iter(oracles.bound_spec_catalog().values())), {}, None),
}
NOT_FROZEN = (RateTable, NormReport)
VALUE_RECORDS = (SigmaEdge, HermiteData1D, DualWeight, KnotSequence, ConvergenceConfig, ShishkinConfig)


def _values(record, names):
    return {name: getattr(record, name) for name in names}


def _same_fields(a, b, names):
    return all(getattr(a, name) is getattr(b, name) for name in names)


def test_every_record_class_of_the_package_is_covered():
    found = {
        cls
        for module in (quadrature, spline_core, mesh, fields, norms, experiments, oracles, interpolation, cli)
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and "_fields" in vars(cls)
    }
    assert found == set(RECORDS) and len(found) == 20


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_construction_by_position_keyword_and_default(cls):
    names, sample, defaults, _ = RECORDS[cls]
    record = sample()
    assert cls._fields == names
    assert _same_fields(cls(*(getattr(record, n) for n in names)), record, names)
    assert _same_fields(cls(**_values(record, names)), record, names)
    given = {n: v for n, v in _values(record, names).items() if n not in defaults}
    made = cls(**given)
    assert _values(made, defaults) == defaults
    with pytest.raises(TypeError):
        cls(*_values(record, names).values(), None)
    with pytest.raises(TypeError):
        cls(**given, unknown=None)
    if len(given) > 0:
        with pytest.raises(TypeError):
            cls(*list(given.values())[:-1])  # one argument without a default missing


@pytest.mark.parametrize("cls", NOT_FROZEN, ids=lambda cls: cls.__name__)
def test_a_default_factory_gives_each_instance_its_own_object(cls):
    names, sample, defaults, _ = RECORDS[cls]
    required = [getattr(sample(), n) for n in names if n not in defaults]
    a, b = cls(*required), cls(*required)
    for name in defaults:
        assert getattr(a, name) == defaults[name] and getattr(a, name) is not getattr(b, name)
        assert name not in vars(cls)  # no class attribute, as with dataclasses


@pytest.mark.parametrize("cls", [cls for cls, (*_, bad) in RECORDS.items() if bad], ids=lambda cls: cls.__name__)
def test_post_init_still_rejects_bad_input(cls):
    names, sample, _, bad = RECORDS[cls]
    with pytest.raises(ValueError):
        cls(**{**_values(sample(), names), **bad})


def test_grid_coordinates_become_a_float_array():
    grid = Grid1D([0, 1, 2])
    assert isinstance(grid.coordinates, np.ndarray) and grid.coordinates.dtype == float


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if cls not in NOT_FROZEN], ids=lambda cls: cls.__name__)
def test_frozen_records_refuse_assignment_and_deletion(cls):
    names, sample, _, _ = RECORDS[cls]
    record = sample()
    before = _values(record, names)
    for name in (names[0], "not_a_field"):
        with pytest.raises(AttributeError) as assigned:
            setattr(record, name, None)
        with pytest.raises(AttributeError) as deleted:
            delattr(record, name)
        assert isinstance(assigned.value, FrozenInstanceError) and isinstance(deleted.value, FrozenInstanceError)
    assert all(getattr(record, n) is v for n, v in before.items())


@pytest.mark.parametrize("cls", NOT_FROZEN, ids=lambda cls: cls.__name__)
def test_records_that_are_not_frozen_take_assignment_and_have_no_hash(cls):
    names, sample, _, _ = RECORDS[cls]
    record = sample()
    setattr(record, names[0], "changed")
    assert getattr(record, names[0]) == "changed"
    assert cls.__hash__ is None
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=lambda cls: cls.__name__)
def test_value_records_compare_and_hash_by_their_fields(cls):
    names, sample, _, _ = RECORDS[cls]
    a, b = sample(), sample()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, n) for n in names))
    assert a != tuple(getattr(a, n) for n in names)  # another class never compares equal
    assert len({a, b}) == 1


def test_value_records_differ_when_a_field_differs():
    edge = SigmaEdge("horizontal", (0.0, 0.5), 0.0, "left")
    assert edge != SigmaEdge("horizontal", (0.0, 0.5), 0.25, "left")
    assert ConvergenceConfig() != ConvergenceConfig(levels=5)
    assert HermiteData1D(1.0, 0.5, -1.0, 2.0) != HermiteData1D(1.0, 0.5, -1.0, 2.5)


def test_records_holding_arrays_refuse_equality_and_hash_as_before():
    a, b = Grid1D(np.linspace(0.0, 1.0, 3)), Grid1D(np.linspace(0.0, 1.0, 3))
    with pytest.raises(ValueError):
        a == b
    with pytest.raises(TypeError):
        hash(a)
    assert a == a  # the fields are the same objects


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_names_the_fields(cls):
    names, sample, _, _ = RECORDS[cls]
    record = sample()
    text = repr(record)
    assert text == f"{cls.__qualname__}({', '.join(f'{n}={getattr(record, n)!r}' for n in names)})"


def test_the_cli_import_sets_up_no_dataclass_and_leaves_the_oracles_and_numpy_random_out():
    # numpy 1.x imports numpy.random itself; the package must not be what loads it
    src = os.path.dirname(os.path.dirname(os.path.abspath(macrospline.__file__)))
    code = (
        "import sys, numpy\n"
        "ours = {'macrospline.oracles'} | ({'numpy.random'} if 'numpy.random' not in sys.modules else set())\n"
        "import macrospline, macrospline.cli\n"
        "print(sorted(ours & set(sys.modules)))\n"
        "import macrospline.oracles\n"
        "print(sorted(f'{n}.{k}' for n, m in list(sys.modules.items()) if n.startswith('macrospline')\n"
        "    for k, c in vars(m).items() if isinstance(c, type) and hasattr(c, '__dataclass_fields__')))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True, text=True)
    assert result.stdout.split("\n")[:2] == ["[]", "[]"]
