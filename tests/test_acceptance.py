"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest -v tests/test_acceptance.py` (or `blowdown check` for the
same results from the command line). Each criterion prints its quantitative
one-liner so the observed margins are visible in the test log.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from blowdown import acceptance, engine
from blowdown.acceptance import CRITERIA, run_all
from blowdown.errors import IntegrationError
from blowdown.scenario_io import load_scenario, parse_scenario

_NAMES = [fn.__name__.removeprefix("criterion_") for fn in CRITERIA]


@pytest.fixture(scope="module")
def results():
    return run_all()


@pytest.mark.parametrize("index", range(len(CRITERIA)), ids=_NAMES)
def test_criterion(results, index):
    result = results[index]
    print(result.line)
    assert result.passed, result.line


def test_all_criteria_reported(results):
    assert [r.number for r in results] == list(range(1, len(CRITERIA) + 1))


#: Disturbances on a loaded vessel (`scenarios/`), where the pump lag tau_H
#: pushes the flow loop out of its boundary layer. Each failing criterion is
#: a strict xfail, with the figures it fails by: it may start passing only
#: through a change of the controller or of how a criterion reads the run,
#: never of a bound. Both documents' steady |e_q| is the start-up error at
#: 2950 s, inside the 5000 s window before the 3000 s breakpoint.
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
_LOADED = {
    "loaded_k_ch_step": {
        "tracking": "in-layer 0.9426, re-entry inf, steady |e_q| 1.238e-4",
        "lyapunov": "dV/dt < 0 at 0.1304 of 23 out-of-layer samples",
        "mass": "liquor residual 1.567e-3 over the 50 s log"},
    "loaded_q_ref_step": {
        "tracking": "steady |e_q| 1.238e-4",
        "lyapunov": "dV/dt < 0 at 0.5833 of 12 out-of-layer samples"}}


@pytest.fixture(scope="module")
def loaded_contexts():
    return {name: acceptance._Context(
        load_scenario(SCENARIOS / f"{name}.yaml")) for name in _LOADED}


@pytest.mark.parametrize("name, criterion", [
    pytest.param(name, criterion, marks=[pytest.mark.xfail(
        strict=True, reason=failures[criterion])]
        if criterion in failures else [])
    for name, failures in _LOADED.items()
    for criterion in ("tracking", "lyapunov", "mass")])
def test_loaded_vessel(loaded_contexts, name, criterion):
    result = getattr(acceptance, f"criterion_{criterion}")(
        loaded_contexts[name])
    print(result.line)
    assert result.passed, result.line


def test_boundedness_names_the_scenarios_bounds():
    ctx = acceptance._Context(parse_scenario({
        "parameters": {"H0_max": 100.0, "q_p_max": 0.0035},
        "t_end": 2000.0, "method": "DOPRI5"}))
    result = acceptance.criterion_boundedness(ctx)
    assert result.passed, result.line
    assert result.detail.endswith("q_p in [0, 0.0035], H0 in [0, 100]")


def test_boundedness_fails_on_a_flow_clamp(monkeypatch):
    # Every logged q_p lies within its bounds by construction: the criterion
    # reads the protection mask, so one flow clamp on one row fails it.
    ctx = acceptance._Context(parse_scenario({"t_end": 2000.0,
                                              "method": "DOPRI5"}))
    data = ctx.trajectory.data.copy()
    mask = engine.TRAJECTORY_COLUMNS.index("protection_mask")
    assert not data[:, mask].any()
    data[3, mask] = engine.PROT_QP_BOUND
    monkeypatch.setattr(acceptance, "integrate",
                        lambda scenario: engine.Trajectory(data.copy()))
    result = acceptance.criterion_boundedness(ctx)
    assert not result.passed, result.line
    assert "run 0: PROT_QP_BOUND on 1 of " in result.detail


def test_boundedness_fails_on_a_failed_run_and_a_non_finite_record(
        monkeypatch):
    # A run that raises and a run whose record holds a NaN each fail the
    # criterion, named by their index; the other runs are clean.
    ctx = acceptance._Context(parse_scenario({"t_end": 2000.0,
                                              "method": "DOPRI5"}))
    clean = ctx.trajectory.data
    nan = clean.copy()
    nan[3, engine.TRAJECTORY_COLUMNS.index("H0")] = math.nan
    runs = []

    def integrate(scenario):
        runs.append(scenario)
        if len(runs) == 1:
            raise IntegrationError("a run that fails", t=5.0)
        return engine.Trajectory((nan if len(runs) == 2 else clean).copy())

    monkeypatch.setattr(acceptance, "integrate", integrate)
    result = acceptance.criterion_boundedness(ctx)
    assert len(runs) == 50
    assert not result.passed, result.line
    assert result.detail.startswith(
        "run 0: a run that fails (at t = 5 s); run 1: non-finite record; "
        "q_p in ["), result.detail


@pytest.mark.parametrize("state", [{"M_s": 0.0}, {"M_fl": 0.0}])
def test_mass_on_a_phase_that_starts_empty(state):
    # A phase that starts empty is judged against its largest logged mass;
    # the fiber phase of {M_s: 0} is never present and has no residual.
    ctx = acceptance._Context(parse_scenario({
        "initial_state": state, "t_end": 2000.0, "method": "DOPRI5"}))
    assert ctx.trajectory.column("M_fl").max() > 0.0
    result = acceptance.criterion_mass(ctx)
    assert result.passed, result.line
    assert "nan" not in result.detail
    assert result.detail.startswith("fiber residual none,") == ("M_s" in state)


def test_determinism_runs_the_written_laws_unfused(monkeypatch):
    # The second of its three runs calls `_evaluate`, each law a call, and
    # fills its rows one at a time; the third runs the generated code again.
    ctx = acceptance._Context(parse_scenario({"t_end": 2000.0}))
    engine._refresh_kernel()
    fused = engine._kernel, engine._fill_block
    seen, reconstruct = [], engine._reconstruct
    monkeypatch.setattr(engine, "_reconstruct", lambda *args: (
        seen.append((engine._kernel, engine._fill_block)),
        reconstruct(*args))[1])
    result = acceptance.criterion_determinism(ctx)
    assert result.passed, result.line
    assert seen == [fused, (engine._evaluate, None), fused]


def test_determinism_restores_the_kernel_when_a_run_raises(monkeypatch):
    ctx = acceptance._Context(parse_scenario({"t_end": 2000.0}))
    engine._refresh_kernel()
    fused = engine._kernel, engine._fill_block, engine._committed
    runs, integrate = [], acceptance.integrate

    def second_fails(scenario):
        runs.append(engine._kernel)
        if len(runs) == 2:
            raise RuntimeError("a fault inside the unfused run")
        return integrate(scenario)

    monkeypatch.setattr(acceptance, "integrate", second_fails)
    with pytest.raises(RuntimeError):
        acceptance.criterion_determinism(ctx)
    assert runs[1] is engine._evaluate
    assert (engine._kernel, engine._fill_block, engine._committed) == fused


def test_determinism_fails_on_numpys_power(monkeypatch):
    # numpy's `power` rounds some results to another last bit, which the
    # CSV's 9 significant digits hide: the tables differ, so the criterion
    # fails when the block filler takes it for Python's `**`.
    monkeypatch.setattr(engine, "_pow", np.power)
    result = acceptance.criterion_determinism(acceptance._Context())
    assert not result.passed, result.line
