"""One form per physics law, and the kernel runs that form.

Each law of `state`, `rheology`, `hydraulics`, `smc` and `energetics` is
one public function that checks nothing, with no checked twin beside an
unchecked `_` copy and no default regularizer that could differ from
`Parameters.eps`. The kernel calls those public functions, so the criteria,
the tests and the bench's per-module call counts see the equations that are
integrated.

One loop, `engine._drive`, protects every integrator's step ends: steppers
yield `(t, y, dense)` and clamp nothing themselves.
"""

import ast
from pathlib import Path

import pytest

from blowdown import engine

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


def test_only_the_driver_protects():
    callers = set()
    for fn in ast.walk(tree("engine")):
        if isinstance(fn, ast.FunctionDef):
            callers.update(fn.name for node in ast.walk(fn)
                           if isinstance(node, ast.Call)
                           and getattr(node.func, "id", None) == "_protect")
    assert callers == {"_drive", "_log_row"}


def test_steppers_yield_time_state_and_interpolant():
    yields = [node for node in ast.walk(tree("engine"))
              if isinstance(node, (ast.Yield, ast.YieldFrom))]
    assert len(yields) == 3  # LSODA/BDF, DOPRI5 and RK4
    for node in yields:
        assert isinstance(node, ast.Yield), node.lineno
        assert isinstance(node.value, ast.Tuple), node.lineno
        assert len(node.value.elts) == 3, node.lineno
