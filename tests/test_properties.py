"""Property tests over bounded scenario documents.

A document that parses integrates to finite rows inside the hard bounds,
and the protections that fire are reported on the same log intervals
whatever the log grid; any other document is refused with an
`InvariantViolation` naming the part at fault, and by the CLI with exit 1.
"""

import contextlib
import io
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blowdown.cli import EXIT_USAGE, main
from blowdown.engine import (PROT_H0_BOUND, PROT_MFL_FLOOR, PROT_MS_FLOOR,
                             PROT_QCMD_BOUND, PROT_QP_BOUND, integrate)
from blowdown.errors import InvariantViolation
from blowdown.scenario_io import parse_scenario

#: Each input drawn from a range reaching past its valid one: k_ch and
#: gamma_K lie in [0, 1], flows are non-negative and q_p_ref is at most
#: q_p_max = 0.004.
INPUTS = {"k_ch": (-0.1, 1.1), "gamma_K": (-0.1, 1.1), "f_in": (-1e-4, 1e-3),
          "f_fl": (-1e-4, 1e-3), "q_p_ref": (-5e-4, 5e-3)}
FINE_LOG = 100.0


def inputs():
    return st.fixed_dictionaries({}, optional={
        key: st.floats(lo, hi) for key, (lo, hi) in INPUTS.items()})


@st.composite
def documents(draw):
    mass = st.floats(-100.0, 4.0e4)
    schedule = [{"t": 0.0, **draw(inputs())}] + [
        {"t": t, **draw(inputs())}
        for t in draw(st.lists(st.floats(1.0, 5.0e3), max_size=3))]
    return {"initial_state": {"M_s": draw(mass), "M_fl": draw(mass)},
            "schedule": schedule, "t_end": draw(st.floats(1.0, 5.0e3)),
            "log_interval": FINE_LOG,
            "method": draw(st.sampled_from(["LSODA", "DOPRI5"]))}


def assert_bounded(traj, p):
    """Finite rows with the flow, the head, the reference and the masses
    inside their hard bounds."""
    assert np.all(np.isfinite(traj.data))
    for name, hi in (("q_p", p.q_p_max), ("H0", p.H0_max),
                     ("q_p_cmd", p.q_p_max), ("M_s", np.inf),
                     ("M_fl", np.inf)):
        column = traj.column(name)
        assert np.all((0.0 <= column) & (column <= hi)), name


def on_bound(traj, p):
    """Per protection bit, the rows whose logged state sits on its bound."""
    def at(name, *bounds):
        return np.isin(traj.column(name), bounds)
    return {PROT_MS_FLOOR: at("M_s", 0.0), PROT_MFL_FLOOR: at("M_fl", 0.0),
            PROT_QP_BOUND: at("q_p", 0.0, p.q_p_max),
            PROT_H0_BOUND: at("H0", 0.0, p.H0_max),
            PROT_QCMD_BOUND: at("q_p_cmd", 0.0, p.q_p_max)}


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_bounded_documents(doc):
    try:
        scenario = parse_scenario(doc)
    except InvariantViolation:
        return
    p = scenario.parameters
    fine = integrate(scenario)
    coarse = integrate(replace(scenario, log_interval=scenario.t_end))
    for traj in (fine, coarse):
        assert_bounded(traj, p)

    # Every coarse row is a step end on the fine grid too. Between two of
    # them, the fine rows report the same firings once each, and may add
    # the clamps that a row read from a step's interpolant needs itself;
    # such a row shows the clamped value.
    assert set(coarse.times) <= set(fine.times)
    mask = fine.column("protection_mask").astype(int)
    bound = on_bound(fine, p)
    edges = np.searchsorted(fine.times, coarse.times, side="right")
    for m, a, b in zip(coarse.column("protection_mask").astype(int).tolist(),
                       [0, *edges[:-1]], edges):
        reported = int(np.bitwise_or.reduce(mask[a:b]))
        assert m & ~reported == 0
        for bit, rows in bound.items():
            if reported & ~m & bit:
                assert np.any(rows[a:b] & (mask[a:b] & bit != 0))


#: Per document key, a valid range within a few times the shipped value (a
#: much shorter time constant or thinner boundary layer makes the loop
#: stiff) and a range past the valid one.
KEYS = {
    "parameters.n": (st.floats(0.5, 1.5), st.floats(2.0, 4.0,
                                                    exclude_min=True)),
    "parameters.tau_p": (st.floats(60.0, 360.0), st.floats(-120.0, 0.0)),
    "parameters.tau_H": (st.floats(150.0, 900.0), st.floats(-300.0, 0.0)),
    "parameters.k_smc": (st.floats(1.0, 6.0), st.floats(-3.0, -1e-3)),
    "parameters.phi_q": (st.floats(2.5e-4, 1.5e-3), st.floats(-5e-4, 0.0)),
    "parameters.eta_pm": (st.floats(0.3, 1.0), st.floats(1.0, 2.0,
                                                         exclude_min=True)),
    "tolerances.rtol": (st.floats(1e-8, 1e-4), st.floats(-1e-6, 0.0)),
    "tolerances.atol": (st.floats(1e-11, 1e-7), st.floats(-1e-9, 0.0)),
}


@st.composite
def tuned_documents(draw):
    """A document setting some of `KEYS` within range and at most one of
    them past it, with the name of that one (None when all are valid)."""
    chosen = draw(st.lists(st.sampled_from(sorted(KEYS)), unique=True,
                           max_size=4))
    bad = draw(st.sampled_from([None, *chosen]))
    doc = {"t_end": draw(st.floats(100.0, 2.0e3)), "log_interval": FINE_LOG,
           "method": draw(st.sampled_from(["LSODA", "DOPRI5", "BDF"]))}
    for name in chosen:
        section, key = name.split(".")
        doc.setdefault(section, {})[key] = draw(KEYS[name][name == bad])
    return doc, bad


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tuned_documents())
def test_parameters_and_tolerances(case):
    doc, bad = case
    if bad is None:
        scenario = parse_scenario(doc)
        assert_bounded(integrate(scenario), scenario.parameters)
        return
    with pytest.raises(InvariantViolation) as refused:
        parse_scenario(doc)
    # The tolerances are checked with the scenario-level fields.
    assert refused.value.path == ("parameters" if bad.startswith("parameters.")
                                  else "scenario")


#: YAML values that are not a mapping at the top level: scalars, lists and
#: nested lists, whose items may be mappings.
NOT_MAPPINGS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda items: st.lists(items, max_size=3)
    | st.dictionaries(st.text(max_size=5), items, max_size=2),
    max_leaves=6).filter(lambda v: v is not None and not isinstance(v, dict))


@settings(max_examples=60, deadline=None)
@given(NOT_MAPPINGS, st.sampled_from(["simulate", "check", "sweep"]))
def test_cli_refuses_a_document_that_is_not_a_mapping(value, command):
    with tempfile.TemporaryDirectory() as tmp:
        doc, out = Path(tmp) / "scenario.yaml", str(Path(tmp) / "out")
        doc.write_text(yaml.safe_dump(value))
        args = {"simulate": ["--out", out], "check": [],
                "sweep": ["--param", "parameters.k_smc", "--values", "1",
                          "--out", out]}[command]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--scenario", str(doc), *args])
        assert code == EXIT_USAGE
        assert err.getvalue().startswith("blowdown: scenario error: ")
        assert "Traceback" not in err.getvalue()
        assert list(Path(tmp).iterdir()) == [doc]
