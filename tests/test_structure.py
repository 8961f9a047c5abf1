"""One form per physics law, and the kernel runs that form.

Each law of `state`, `rheology`, `hydraulics`, `smc` and `energetics` is
one public function that checks nothing, with no checked twin beside an
unchecked `_` copy and no default regularizer that could differ from
`Parameters.eps`. The kernel is written from those public laws:
`_evaluate` calls them, and the kernel `assemble_rhs` and `evaluate_snapshot`
run is `_evaluate` with each law's body written in, committed as a module
and compiled once per process, by its first run; no run imports the writer.
While `engine` or a law's module holds a wrapper or a replacement of a law,
a run calls `_evaluate`, each law a call, so the criteria, the tests and the
bench's per-module call counts see the equations that are integrated.

Each decision of the engine is made in one place: `_STEPPERS` is the one
table of methods, `_bounded` the one rule for the hard state bounds, and
the kernel's derivative is a tuple of floats that no stepper converts.

One loop, `engine._drive`, protects every integrator's step ends, restarts
a stepper after a clamp and holds every method's step budget, `MAX_STEPS`
between two breakpoints: steppers yield `(t, y, dense)` and are sent
nothing back, so none clamps, restarts or counts steps itself. It records
each logged row's time, state, held inputs and protection bits, and after
the last step the rows are filled into a C-contiguous float64 table, a
block of rows at a time, a column at a time.

One boundary checks a scenario: `Scenario.validate` alone calls the
validators of its parts, and it runs once when a document is parsed and
once when the scenario is integrated.
"""

import ast
import json
import operator
import re
import subprocess
import sys
import types
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from blowdown import engine, scenario_io
from blowdown.cli import EXIT_OK, main
from blowdown.scenario_io import default_scenario
from blowdown.smc import lyapunov_rate
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


def test_the_kernel_writes_every_law_in():
    # The generated kernel calls no law: each law `_evaluate` calls, and
    # `saturation`, which `control_law` calls, is written in. The one
    # function it still calls names a non-finite value.
    laws = {f.name for m in PHYSICS for f in functions(m)} | {"_bounded"}
    names = set(engine._refresh_kernel().__code__.co_names)
    assert names & laws == set()
    assert {name for name in names if isinstance(
        getattr(engine, name, None), types.FunctionType)} == {
            "_raise_non_finite"}


#: Imports the CLI, then parses and integrates the 100 documents of
#: `perfbench`'s seed-1 ensemble, counting the kernels compiled from the
#: committed module.
KERNEL_BUILDS = """
import json, sys
sys.path[:0] = sys.argv[1:]
import blowdown.cli
from blowdown import engine
at_import = engine._kernel is not engine._evaluate
builds, compiled = [], engine._compiled
def counted(source, generator, namespace):
    builds.append(generator)
    return compiled(source, generator, namespace)
engine._compiled = counted
import blowdown, workloads
scenarios = [blowdown.parse_scenario(d) for d in workloads.make_ensemble(1)]
after_parsing = len(builds)
writer_loaded = "blowdown._kernel_writer" in sys.modules
for scenario in scenarios:
    blowdown.integrate(scenario)
print(json.dumps({"at_import": at_import, "after_parsing": after_parsing,
                  "writer_loaded": writer_loaded,
                  "writer_run": "blowdown._kernel_writer" in sys.modules,
                  "builds": builds.count("_kernel")}))
"""


@pytest.fixture(scope="module")
def kernel_builds():
    root = SOURCE.parents[1]
    done = subprocess.run(
        [sys.executable, "-c", KERNEL_BUILDS, str(SOURCE.parent),
         str(root / "perfbench")], capture_output=True, text=True,
        timeout=300, check=True)
    return json.loads(done.stdout)


def test_importing_the_cli_builds_no_kernel(kernel_builds):
    assert kernel_builds["at_import"] is False


def test_parsing_builds_no_kernel(kernel_builds):
    # Until the first run, the kernel is `_evaluate` itself, and the writer
    # is not even imported.
    assert kernel_builds["after_parsing"] == 0
    assert kernel_builds["writer_loaded"] is False


def test_an_ensemble_builds_one_kernel(kernel_builds):
    assert kernel_builds["builds"] == 1


def test_an_ensemble_never_imports_the_writer(kernel_builds):
    # The first run compiles the committed kernel and block filler: no run
    # imports the writer.
    assert kernel_builds["writer_run"] is False


def test_only_the_build_tool_imports_the_writer():
    # The writer runs as `python -m blowdown._kernel_writer` and in tier-1,
    # never on a run's path.
    importers = {path.stem for path in SOURCE.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and "_kernel_writer" in ast.unparse(node)}
    assert not importers


def engine_functions():
    return [fn for fn in ast.walk(tree("engine"))
            if isinstance(fn, ast.FunctionDef)]


def callers(name: str):
    """The `engine` functions that call `name`, nested calls included."""
    return {fn.name for fn in engine_functions() for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == name}


def filler_source() -> str:
    """The source of the generated block filler."""
    from blowdown import _kernel_writer
    _, kernel, _ = _kernel_writer.write(engine._evaluate, "_kernel",
                                        vars(engine))
    return _kernel_writer.write_block(kernel, vars(engine))[0]


def called(source: str):
    """The names `source` calls, by name or as an attribute, with counts."""
    return Counter(getattr(node.func, "id", getattr(node.func, "attr", None))
                   for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Call))


def test_only_the_driver_protects():
    # `_drive` protects each step end and refuses a non-finite row; a row
    # filled on its own is protected by one call of `_protect`, and the
    # block filler bounds its rows by the kernel's one `_bounded` rule
    # written in, and refuses a raw value that is not finite.
    assert callers("_protect") == {"_drive", "_fill_rows"}
    assert callers("_refuse") == {"_drive", "_protect"}
    source = filler_source()
    assert not called(source).keys() & {"_protect", "_refuse", "_bounded"}
    assert source.count("np.isfinite(block)") == 1
    assert set(re.findall(r"\b_bounded(\d+)_", source)) == {"1"}


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
    assert list(engine._STEPPERS) == ["DOPRI5", "LSODA"]
    words = set(re.findall(r"\w+", (SOURCE / "acceptance.py").read_text()))
    assert words & {*engine._STEPPERS, "solver_class", "RK45"} == set()


@pytest.mark.parametrize("document", ["README.md",
                                      "src/blowdown/default_scenario.yaml"])
def test_documented_methods_are_the_method_table(document):
    # The comment on the example `method:` line lists the methods.
    text = (SOURCE.parents[1] / document).read_text()
    [comment] = re.findall(r"^method: \w+ +#(.*)$", text, re.MULTILINE)
    assert set(re.findall(r"\b[A-Z][A-Z0-9]+\b", comment)) == set(
        engine._STEPPERS)


def test_steppers_yield_time_state_and_interpolant():
    nodes = list(ast.walk(tree("engine")))
    yields = [node for node in nodes
              if isinstance(node, (ast.Yield, ast.YieldFrom))]
    # LSODA (a step, or a segment too short to step), DOPRI5 and RK4
    assert len(yields) == 4
    statements = {id(node.value) for node in nodes
                  if isinstance(node, ast.Expr)}
    for node in yields:
        assert isinstance(node, ast.Yield), node.lineno
        assert id(node) in statements, node.lineno  # nothing is sent back
        assert isinstance(node.value, ast.Tuple), node.lineno
        assert len(node.value.elts) == 3, node.lineno


def test_a_row_is_given_its_inputs():
    # `_drive` records the inputs each row holds; only a row at a segment
    # end looks them up, and no row is filled by looking them up.
    assert callers("inputs_at") == {"_drive"}
    assert "inputs_at" not in called(filler_source())


def test_a_row_is_packed_in_column_order(monkeypatch):
    # Distinct sentinels through the rows filled one at a time come back
    # under their names: `_protect` and `evaluate_snapshot` are given
    # stand-ins that return them.
    table = np.zeros((3, len(engine.TRAJECTORY_COLUMNS)))
    y = [100.0 + k for k in range(len(engine._STATE_NAMES))]
    u = ExogenousInputs(**{name: 200.0 + k
                           for k, name in enumerate(engine._INPUT_NAMES)})
    snap = tuple(300.0 + k for k in range(len(engine.SNAPSHOT_COLUMNS)))
    raw = np.array([[1.5, *y, *engine._held(u), 0x05]] * 3)
    monkeypatch.setattr(engine, "_protect", lambda y, p: (y, 0x10))
    monkeypatch.setattr(engine, "evaluate_snapshot", lambda y, p, u: snap)
    engine._fill_rows(table, raw, 1, 2, None)
    s_q = dict(zip(engine.SNAPSHOT_COLUMNS, snap))["s_q"]
    expected = {"t": 1.5, "dVdt": lyapunov_rate(s_q, 0.0, 1.5),
                "protection_mask": 0x15,
                **dict(zip(engine._STATE_NAMES, y)),
                **{name: getattr(u, name) for name in engine._INPUT_NAMES},
                **dict(zip(engine.SNAPSHOT_COLUMNS, snap))}
    assert sorted(expected) == sorted(engine.TRAJECTORY_COLUMNS)
    trajectory = engine.Trajectory(table)
    for name, value in expected.items():
        assert trajectory.column(name)[1] == value, name
    assert not table[[0, 2]].any()  # only row 1 is written


def test_a_row_is_built_by_no_tuple():
    # The block filler builds no row: it writes each column of its block
    # once, with one assignment of the column's vector, and calls no
    # `evaluate_snapshot` to return a row, no `_pack_into` and no getter.
    source = filler_source()
    writes = [node.targets[0] for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Subscript)]
    assert [ast.unparse(w) for w in writes] == [
        f"out[:, {k}]" for k in range(len(engine.TRAJECTORY_COLUMNS))]
    calls = called(source)
    assert not calls.keys() & {"evaluate_snapshot", "_pack_into",
                               "itemgetter", "attrgetter", "tuple"}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            assert not any(isinstance(a, ast.Starred) for a in node.args), (
                ast.unparse(node))


def test_the_table_is_c_contiguous_float64():
    # `_fill_rows` packs a row at its byte offset in the table.
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


def test_one_percent_a_csv_block(monkeypatch):
    # Each block is printed by one `%` of "%s" cells, a statement of
    # `_block_text` outside any loop, and no "%.*f" is left to print a
    # float.
    [block_text] = [f for f in functions("scenario_io")
                    if f.name == "_block_text"]
    [format_] = [node for node in ast.walk(block_text)
                 if isinstance(node, ast.BinOp)
                 and isinstance(node.op, ast.Mod)]
    assert format_ in [stmt.value for stmt in block_text.body
                       if isinstance(stmt, ast.Assign)]
    assert not [node.value for node in ast.walk(tree("scenario_io"))
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str) and "%." in node.value]
    blocks = []
    block = scenario_io._block_text
    monkeypatch.setattr(scenario_io, "_block_text", lambda *args: (
        blocks.append(args[0]) or block(*args)))
    table = np.random.default_rng(3).standard_normal((600, 4))
    assert len(list(scenario_io._csv_text(list("abcd"), table))) == 1 + 3
    assert blocks == ["%s,%s,%s,%s\n"] * 3


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
