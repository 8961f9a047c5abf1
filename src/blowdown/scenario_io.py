"""Scenario document parsing and trajectory/manifold serialization.

Scenario documents are YAML with a strict schema: unknown keys are rejected
with a path-qualified error, and every absent key falls back to the shipped
default (reference operating point plus the three-event disturbance script).
The shipped file `default_scenario.yaml` documents units and marks every
value that has no published source with a `not-in-paper` tag.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import fields
from pathlib import Path
from typing import Dict, Union

import numpy as np
import yaml

from . import smc
from .engine import (TRAJECTORY_COLUMNS, Scenario, Trajectory,
                     evaluate_snapshot)
from .errors import (InvariantViolation, ParameterError, ScenarioError,
                     ScenarioSyntaxError, StateValidityError, UnknownKeyError)
from .state import ExogenousInputs, Parameters, ProcessState, consistency

MANIFOLD_COLUMNS = ["e_q", "xi_eq", "s_q"]

_INPUT_KEYS = ("k_ch", "gamma_K", "f_in", "f_fl", "q_p_ref")
_STATE_KEYS = tuple(f.name for f in fields(ProcessState))
_PARAM_KEYS = tuple(f.name for f in fields(Parameters))
_TOP_KEYS = ("parameters", "initial_state", "schedule", "t_end",
             "log_interval", "tolerances", "method")

#: Default disturbance script: three step events on top of the t = 0 hold.
DEFAULT_SCHEDULE = [
    (0.0, dict(k_ch=0.50, gamma_K=0.20, f_in=1.0e-4, f_fl=0.0, q_p_ref=0.003)),
    (2.0e4, dict(k_ch=0.80)),
    (5.0e4, dict(gamma_K=0.50)),
    (6.0e4, dict(f_in=1.5e-4)),
]
DEFAULT_T_END = 1.0e5
DEFAULT_LOG_INTERVAL = 50.0
DEFAULT_RTOL = 1e-6
DEFAULT_ATOL = 1e-9
DEFAULT_INITIAL_MASSES = dict(M_s=2500.0, M_fl=25000.0)


def _reject_unknown(mapping: dict, allowed, path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise UnknownKeyError(f"{path}.{key}" if path else str(key))


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvariantViolation(path, f"expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise InvariantViolation(path, f"must be finite, got {v!r}")
    return v


def _resolve_initial_state(state_doc: dict, params: Parameters,
                           first_inputs: ExogenousInputs) -> ProcessState:
    """Fill unspecified initial states with on-manifold defaults.

    The default trajectory starts with the discharge already running at the
    protected reference: q_p_cmd = sigma_C(C0) * q_p_ref, q_p = q_p_cmd and
    H0 at the engine's equivalent head, so the loop begins on the sliding
    surface.
    """
    vals = dict(DEFAULT_INITIAL_MASSES)
    vals.update({k: 0.0 for k in ("xi_eq", "E_h", "E_useful", "E_elec")})
    for key, value in state_doc.items():
        vals[key] = _as_number(value, f"initial_state.{key}")

    if "q_p_cmd" not in vals:
        C0 = consistency(vals["M_s"], vals["M_fl"], params.eps)
        sigma0 = smc.consistency_guard(C0, params.C_max, params.alpha_sig)
        vals["q_p_cmd"] = smc.protected_reference(sigma0, first_inputs.q_p_ref)
    if "q_p" not in vals:
        vals["q_p"] = vals["q_p_cmd"]
    if "H0" not in vals:
        y = [vals.get(k, 0.0) for k in _STATE_KEYS]
        H_eq = evaluate_snapshot(y, params, first_inputs)["H_eq"]
        vals["H0"] = min(H_eq, params.H0_max)
    return ProcessState(**{k: vals[k] for k in _STATE_KEYS})


def _resolve_schedule(schedule_doc, params: Parameters):
    """Breakpoint list with piecewise inheritance of unspecified inputs."""
    if schedule_doc is None:
        entries = [dict(t=t, **vals) for t, vals in DEFAULT_SCHEDULE]
    else:
        if not isinstance(schedule_doc, list) or not schedule_doc:
            raise InvariantViolation("schedule", "must be a non-empty list")
        entries = []
        for i, entry in enumerate(schedule_doc):
            if not isinstance(entry, dict):
                raise InvariantViolation(f"schedule[{i}]", "must be a mapping")
            _reject_unknown(entry, ("t",) + _INPUT_KEYS, f"schedule[{i}]")
            if "t" not in entry:
                raise InvariantViolation(f"schedule[{i}]", "missing 't'")
            entries.append(entry)

    schedule = []
    current = dict(DEFAULT_SCHEDULE[0][1])  # first-entry fallback values
    for i, entry in enumerate(entries):
        t = _as_number(entry["t"], f"schedule[{i}].t")
        for key in _INPUT_KEYS:
            if key in entry:
                current[key] = _as_number(entry[key], f"schedule[{i}].{key}")
        inputs = ExogenousInputs(**current)
        try:
            inputs.validate(params)
        except (StateValidityError, ParameterError) as exc:
            raise InvariantViolation(f"schedule[{i}]", str(exc)) from exc
        schedule.append((t, inputs))
    return schedule


def parse_scenario(document: Union[str, dict, None]) -> Scenario:
    """Validated Scenario from a YAML string or pre-parsed mapping.

    An empty document yields the full shipped default scenario.
    """
    if isinstance(document, str):
        try:
            doc = yaml.safe_load(document)
        except yaml.YAMLError as exc:
            raise ScenarioSyntaxError(f"malformed scenario document: {exc}")
    else:
        doc = document
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ScenarioSyntaxError(
            f"scenario document must be a mapping, got {type(doc).__name__}")
    _reject_unknown(doc, _TOP_KEYS, "")

    params_doc = doc.get("parameters") or {}
    if not isinstance(params_doc, dict):
        raise InvariantViolation("parameters", "must be a mapping")
    _reject_unknown(params_doc, _PARAM_KEYS, "parameters")
    params = Parameters(**{k: _as_number(v, f"parameters.{k}")
                           for k, v in params_doc.items()})
    try:
        params.validate()
    except ParameterError as exc:
        raise InvariantViolation("parameters", str(exc)) from exc

    schedule = _resolve_schedule(doc.get("schedule"), params)

    state_doc = doc.get("initial_state") or {}
    if not isinstance(state_doc, dict):
        raise InvariantViolation("initial_state", "must be a mapping")
    _reject_unknown(state_doc, _STATE_KEYS, "initial_state")
    initial_state = _resolve_initial_state(state_doc, params, schedule[0][1])
    try:
        initial_state.validate(params)
    except StateValidityError as exc:
        raise InvariantViolation("initial_state", str(exc)) from exc

    tol_doc = doc.get("tolerances") or {}
    if not isinstance(tol_doc, dict):
        raise InvariantViolation("tolerances", "must be a mapping")
    _reject_unknown(tol_doc, ("rtol", "atol"), "tolerances")

    scenario = Scenario(
        parameters=params,
        initial_state=initial_state,
        schedule=schedule,
        t_end=_as_number(doc.get("t_end", DEFAULT_T_END), "t_end"),
        log_interval=_as_number(doc.get("log_interval", DEFAULT_LOG_INTERVAL),
                                "log_interval"),
        rtol=_as_number(tol_doc.get("rtol", DEFAULT_RTOL), "tolerances.rtol"),
        atol=_as_number(tol_doc.get("atol", DEFAULT_ATOL), "tolerances.atol"),
        method=str(doc.get("method", "LSODA")),
    )
    try:
        scenario.validate()
    except (ScenarioError, ParameterError, StateValidityError) as exc:
        if isinstance(exc, InvariantViolation):
            raise
        raise InvariantViolation("scenario", str(exc)) from exc
    return scenario


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Parse a scenario document from a file path."""
    return parse_scenario(Path(path).read_text())


def default_scenario() -> Scenario:
    """The full shipped default scenario (empty-document path)."""
    return parse_scenario({})


def format_value(value) -> str:
    """Decimal notation with 9 significant digits; ints stay ints."""
    if isinstance(value, (bool, np.bool_)):
        value = int(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if v == 0.0:
        return "0"
    return np.format_float_positional(v, precision=9, unique=False,
                                      fractional=False, trim="-")


def trajectory_csv(trajectory: Trajectory) -> str:
    """Serialize a trajectory to the fixed-column CSV contract."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRAJECTORY_COLUMNS)
    for row in trajectory.data.tolist():
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue()


def write_trajectory(trajectory: Trajectory,
                     destination: Union[str, Path]) -> None:
    """Write the trajectory CSV (header + one row per logged instant)."""
    Path(destination).write_text(trajectory_csv(trajectory))


def read_trajectory(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Read a trajectory CSV back into a column -> array mapping."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = {name: [] for name in header}
        for row in reader:
            for name, value in zip(header, row):
                cols[name].append(float(value))
    return {name: np.array(vals) for name, vals in cols.items()}


def write_manifold(e_grid, xi_grid, s_grid,
                   destination: Union[str, Path]) -> None:
    """Write the sliding-manifold grid as a flat (e_q, xi_eq, s_q) CSV."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MANIFOLD_COLUMNS)
    for e, x, s in zip(np.ravel(e_grid), np.ravel(xi_grid), np.ravel(s_grid)):
        writer.writerow([format_value(e), format_value(x), format_value(s)])
    Path(destination).write_text(buf.getvalue())
