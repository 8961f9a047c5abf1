"""One form per physics law, and the kernel runs that form.

Each law of `state`, `rheology`, `hydraulics`, `smc` and `energetics` is
one public function that checks nothing, with no checked twin beside an
unchecked `_` copy and no default regularizer that could differ from
`Parameters.eps`. The kernel calls those public functions, so the criteria,
the tests and the bench's per-module call counts see the equations that are
integrated.

Each decision of the engine is made in one place: `_STEPPERS` is the one
table of methods, `_bounded` the one rule for the hard state bounds, and
the kernel's derivative is a tuple of floats that no stepper converts.

One loop, `engine._drive`, protects every integrator's step ends, restarts
a stepper after a clamp and holds every method's step budget, `MAX_STEPS`
between two breakpoints: steppers yield `(t, y, dense)` and are sent
nothing back, so none clamps, restarts or counts steps itself. It hands
each logged row the inputs it holds, and the row is packed into a
C-contiguous float64 table in column order, in one call.

One boundary checks a scenario: `Scenario.validate` alone calls the
validators of its parts, and it runs once when a document is parsed and
once when the scenario is integrated.
"""

import ast
import operator
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from blowdown import engine
from blowdown.cli import EXIT_OK, main
from blowdown.scenario_io import default_scenario
from blowdown.state import ExogenousInputs, Parameters

PHYSICS = ("state", "rheology", "hydraulics", "smc", "energetics")
SOURCE = Path(engine.__file__).parent


def tree(module: str) -> ast.Module:
    return ast.parse((SOURCE / f"{module}.py").read_text())


def functions(module: str):
    return [node for node in tree(module).body
            if isinstance(node, ast.FunctionDef)]


@pytest.mark.parametrize("module", PHYSICS)
def test_no_private_twin(module):
    names = {f.name for f in functions(module)}
    assert sorted(n for n in names if "_" + n in names) == []


@pytest.mark.parametrize("module", PHYSICS)
def test_no_eps_default(module):
    for node in ast.walk(tree(module)):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):] + [
                arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            assert "eps" not in [arg.arg for arg in defaulted], (
                f"{module}: {getattr(node, 'name', 'lambda')}")


@pytest.mark.parametrize("module", PHYSICS + ("engine", "scenario_io",
                                              "acceptance"))
def test_no_default_regularizer(module):
    names = set()
    for node in ast.walk(tree(module)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert "EPS_DEFAULT" not in names


def test_kernel_calls_the_public_laws():
    private = {f.name for m in PHYSICS for f in functions(m)
               if f.name.startswith("_")}
    called = engine._evaluate.__code__.co_names
    assert sorted(set(called) & private) == []
    for name in called:
        module = getattr(getattr(engine, name, None), "__module__", "")
        if module.removeprefix("blowdown.") in PHYSICS:
            assert not name.startswith("_"), name


def engine_functions():
    return [fn for fn in ast.walk(tree("engine"))
            if isinstance(fn, ast.FunctionDef)]


def callers(name: str):
    """The `engine` functions that call `name`, nested calls included."""
    return {fn.name for fn in engine_functions() for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == name}


def test_only_the_driver_protects():
    assert callers("_protect") == {"_drive", "_log_row"}


def test_one_rule_bounds_the_states():
    # Only `_bounded` compares a state with q_p_max or H0_max; the kernel
    # reads its states through it and `_protect` clamps with it.
    states = {"y", "M_s", "M_fl", "q_p", "H0", "q_cmd", "q_p_cmd"}
    comparers = set()
    for fn in engine_functions():
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare):
                named = {getattr(n, "id", getattr(n, "attr", None))
                         for n in ast.walk(node)}
                if named & states and named & {"q_p_max", "H0_max"}:
                    comparers.add(fn.name)
    assert comparers == {"_bounded"}
    assert callers("_bounded") == {"_evaluate", "_protect"}


def test_no_rhs_result_becomes_a_list():
    # `assemble_rhs` returns floats, which every stepper uses as they come,
    # in code it writes out (DOPRI5's `attempt`) as in code it runs.
    for node in ast.walk(tree("engine")):
        if isinstance(node, ast.JoinedStr):
            assert "tolist" not in ast.unparse(node), node.lineno
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "tolist"
                and isinstance(node.func.value, ast.Call)):
            callee = node.func.value.func
            name = getattr(callee, "id", getattr(callee, "attr", None))
            assert name not in ("assemble_rhs", "rhs", "f"), ast.unparse(node)


def test_one_method_table():
    # `integrate` picks a method's stepper from `_STEPPERS`; no other code
    # lists the methods or looks a solver up.
    assert not hasattr(engine.Scenario, "solver_class")
    assert list(engine._STEPPERS) == ["DOPRI5", "LSODA", "BDF"]
    words = set(re.findall(r"\w+", (SOURCE / "acceptance.py").read_text()))
    assert words & {*engine._STEPPERS, "solver_class", "RK45"} == set()


def test_steppers_yield_time_state_and_interpolant():
    nodes = list(ast.walk(tree("engine")))
    yields = [node for node in nodes
              if isinstance(node, (ast.Yield, ast.YieldFrom))]
    # LSODA/BDF (a step, or a segment too short to step), DOPRI5 and RK4
    assert len(yields) == 4
    statements = {id(node.value) for node in nodes
                  if isinstance(node, ast.Expr)}
    for node in yields:
        assert isinstance(node, ast.Yield), node.lineno
        assert id(node) in statements, node.lineno  # nothing is sent back
        assert isinstance(node.value, ast.Tuple), node.lineno
        assert len(node.value.elts) == 3, node.lineno


def test_a_row_is_given_its_inputs():
    # `_drive` hands each row the inputs it holds; only a row at a segment
    # end looks them up.
    log_row = next(f for f in functions("engine") if f.name == "_log_row")
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(log_row) if isinstance(node, ast.Call)}
    assert "inputs_at" not in called


def test_a_row_is_packed_in_column_order():
    # Distinct sentinels through the packer come back under their names.
    table = np.zeros((3, len(engine.TRAJECTORY_COLUMNS)))
    y = [100.0 + k for k in range(len(engine._STATE_NAMES))]
    u = ExogenousInputs(**{name: 200.0 + k
                           for k, name in enumerate(engine._INPUT_NAMES)})
    snap = tuple(300.0 + k for k in range(len(engine.SNAPSHOT_COLUMNS)))
    engine._row_packer()(table, 1, 1.5, y, u, -7.0, 0x15, snap)
    expected = {"t": 1.5, "dVdt": -7.0, "protection_mask": 0x15,
                **dict(zip(engine._STATE_NAMES, y)),
                **{name: getattr(u, name) for name in engine._INPUT_NAMES},
                **dict(zip(engine.SNAPSHOT_COLUMNS, snap))}
    assert sorted(expected) == sorted(engine.TRAJECTORY_COLUMNS)
    trajectory = engine.Trajectory(table)
    for name, value in expected.items():
        assert trajectory.column(name)[1] == value, name
    assert not table[[0, 2]].any()  # only row 1 is written


def test_a_row_is_built_by_no_tuple():
    # `_log_row` hands its values to the packer as they are: no starred
    # call and no itemgetter or attrgetter building a row tuple.
    log_row = next(f for f in functions("engine") if f.name == "_log_row")
    for node in ast.walk(log_row):
        if isinstance(node, ast.Call):
            assert not any(isinstance(a, ast.Starred) for a in node.args), (
                ast.unparse(node))
        name = getattr(node, "id", getattr(node, "attr", None))
        assert name not in ("itemgetter", "attrgetter"), ast.unparse(node)
        assert not isinstance(getattr(engine, name or "", None),
                              (operator.itemgetter, operator.attrgetter)), name


def test_the_table_is_c_contiguous_float64():
    # `_log_row` packs each row at its byte offset in the table.
    data = engine.integrate(replace(default_scenario(), t_end=200.0,
                                    method="DOPRI5")).data
    assert data.dtype == np.float64
    assert data.flags.c_contiguous
    assert data.shape == (5, len(engine.TRAJECTORY_COLUMNS))


def test_only_the_driver_counts_steps():
    readers = {fn.name for fn in ast.walk(tree("engine"))
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Name) and node.id == "MAX_STEPS"}
    assert readers == {"_drive"}


def validate_calls():
    """(enclosing function, receiver) of every `.validate(...)` call in the
    package; a receiver that is a `Scenario` by name or construction reads
    `scenario`."""
    calls = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "validate"):
                receiver = ast.unparse(child.func.value)
                if receiver.startswith("Scenario("):
                    receiver = "scenario"
                calls.add((scope, receiver))
            visit(child, inner)

    for path in SOURCE.glob("*.py"):
        visit(ast.parse(path.read_text()), "")
    return calls


def test_one_boundary_validates():
    assert validate_calls() == {
        ("Scenario.validate", "p"),  # Parameters
        ("Scenario.validate", "self.initial_state"),
        ("Scenario.validate", "u"),  # each schedule entry
        ("parse_scenario", "scenario"), ("integrate", "scenario"),
        ("integrate_fixed_rk4", "scenario")}


def test_simulate_validates_the_parameters_twice(tmp_path, monkeypatch,
                                                 capsys):
    # Once when the document is parsed, once when it is integrated.
    calls = []
    validate = Parameters.validate

    def counting(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(Parameters, "validate", counting)
    assert main(["simulate", "--t-end", "100",
                 "--out", str(tmp_path / "run")]) == EXIT_OK
    assert len(calls) == 2


#: The public functions of the modules whose every public function the
#: bench tracer times: a new one would be a span of its own, and a new
#: callee of `integrate` would leave `integrate`'s self time.
PUBLIC = {
    "cli": {"main"},
    "scenario_io": {"load_yaml", "parse_scenario", "load_scenario",
                    "default_scenario", "format_value", "trajectory_csv",
                    "write_trajectory", "read_trajectory", "write_manifold"},
    "engine": {"inputs_at", "assemble_rhs", "evaluate_snapshot", "integrate",
               "integrate_fixed_rk4"}}


@pytest.mark.parametrize("module", PUBLIC)
def test_helpers_stay_private(module):
    public = {f.name for f in functions(module) if not f.name.startswith("_")}
    assert public == PUBLIC[module]
