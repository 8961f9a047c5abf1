"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest -v tests/test_acceptance.py` (or `blowdown check` for the
same results from the command line). Each criterion prints its quantitative
one-liner so the observed margins are visible in the test log.
"""

from pathlib import Path

import pytest

from blowdown import acceptance
from blowdown.acceptance import CRITERIA, run_all
from blowdown.scenario_io import load_scenario

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
