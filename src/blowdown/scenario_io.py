"""Scenario document parsing and trajectory/manifold serialization.

Scenario documents are YAML with a strict schema: unknown keys are rejected
with a path-qualified error, and every absent key is read from the shipped
file `default_scenario.yaml` (reference operating point plus the three-event
disturbance script). That file is the one home of every default value; it
documents units and marks every value that has no published source with a
`not-in-paper` tag.
"""

from __future__ import annotations

import functools
import math
from dataclasses import fields
from pathlib import Path
from typing import Dict, Iterator, Union

import numpy as np
import yaml

from . import smc
from .engine import (SNAPSHOT_COLUMNS, TRAJECTORY_COLUMNS, Scenario,
                     Trajectory, evaluate_snapshot)
from .errors import (IntegrationError, InvariantViolation,
                     ScenarioSyntaxError, UnknownKeyError)
from .state import ExogenousInputs, Parameters, ProcessState, consistency

MANIFOLD_COLUMNS = ["e_q", "xi_eq", "s_q"]

_INPUT_KEYS = tuple(f.name for f in fields(ExogenousInputs))
_STATE_KEYS = tuple(f.name for f in fields(ProcessState))
_PARAM_KEYS = tuple(f.name for f in fields(Parameters))


def load_yaml(text: str) -> dict:
    """The mapping a YAML scenario document holds, `{}` for an empty one;
    malformed text or any other value raises ScenarioSyntaxError. libyaml's
    safe loader, where PyYAML has it, reads several times faster."""
    try:
        doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader",
                                             yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ScenarioSyntaxError(f"malformed scenario document: {exc}")
    return _as_mapping(doc)


def _as_mapping(doc) -> dict:
    """The scenario mapping `doc`, `{}` for None; else ScenarioSyntaxError."""
    if doc is None or isinstance(doc, dict):
        return doc or {}
    raise ScenarioSyntaxError(
        f"scenario document must be a mapping, got {type(doc).__name__}")


@functools.lru_cache(maxsize=None)
def _shipped() -> dict:
    """The shipped default document, read once per process.

    Every caller lays a document over it and none may mutate it.
    """
    return load_yaml(Path(__file__).with_name("default_scenario.yaml")
                     .read_text())


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


def _section(doc: dict, key: str, allowed) -> dict:
    """The mapping `doc[key]` laid key by key over the shipped one."""
    section = doc.get(key) or {}
    if not isinstance(section, dict):
        raise InvariantViolation(key, "must be a mapping")
    _reject_unknown(section, allowed, key)
    return {**_shipped()[key], **{k: _as_number(v, f"{key}.{k}")
                                 for k, v in section.items()}}


def _start_on_manifold(scenario: Scenario, document_state: dict) -> None:
    """Set the start states the document leaves unset onto the manifold.

    The default trajectory starts with the discharge already running at the
    protected reference: q_p_cmd = sigma_C(C0) * q_p_ref, q_p = q_p_cmd and
    H0 at the engine's equivalent head, so the loop begins on the sliding
    surface. The scenario has been validated with those states at 0, as the
    laws deriving them check nothing; the derived values lie within their
    bounds by construction.
    """
    state, p, u0 = (scenario.initial_state, scenario.parameters,
                    scenario.schedule[0][1])
    if "q_p_cmd" not in document_state:
        C0 = consistency(state.M_s, state.M_fl, p.eps)
        sigma0 = smc.consistency_guard(C0, p.C_max, p.alpha_sig)
        state.q_p_cmd = smc.protected_reference(sigma0, u0.q_p_ref)
    if "q_p" not in document_state:
        state.q_p = state.q_p_cmd
    if "H0" not in document_state:  # H_eq reads no H0
        try:
            snapshot = evaluate_snapshot(state.as_array(), p, u0)
        except IntegrationError as exc:  # masses that overflow the laws
            raise InvariantViolation(
                "initial_state", f"no finite start head: {exc}") from exc
        state.H0 = min(snapshot[SNAPSHOT_COLUMNS.index("H_eq")], p.H0_max)


def _resolve_schedule(schedule_doc):
    """Breakpoint list with piecewise inheritance of unspecified inputs.

    A document's schedule replaces the shipped one; its first entry takes
    every input it leaves unset from the shipped first entry.
    """
    shipped = _shipped()["schedule"]
    entries = shipped if schedule_doc is None else schedule_doc
    if not isinstance(entries, list) or not entries:
        raise InvariantViolation("schedule", "must be a non-empty list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise InvariantViolation(f"schedule[{i}]", "must be a mapping")
        _reject_unknown(entry, ("t",) + _INPUT_KEYS, f"schedule[{i}]")
        if "t" not in entry:
            raise InvariantViolation(f"schedule[{i}]", "missing 't'")

    schedule = []
    current = {key: shipped[0][key] for key in _INPUT_KEYS}
    for i, entry in enumerate(entries):
        t = _as_number(entry["t"], f"schedule[{i}].t")
        for key in _INPUT_KEYS:
            if key in entry:
                current[key] = _as_number(entry[key], f"schedule[{i}].{key}")
        schedule.append((t, ExogenousInputs(**current)))
    return schedule


def parse_scenario(document: Union[str, dict, None]) -> Scenario:
    """Validated Scenario from a YAML string or pre-parsed mapping.

    An empty document yields the full shipped default scenario. The
    document is laid over the shipped one, checked by `Scenario.validate`,
    and only then are the unset start states derived from it.
    """
    doc = (load_yaml(document) if isinstance(document, str)
           else _as_mapping(document))
    shipped = _shipped()
    _reject_unknown(doc, shipped, "")
    state = _section(doc, "initial_state", _STATE_KEYS)
    tolerances = _section(doc, "tolerances", shipped["tolerances"])
    scenario = Scenario(
        parameters=Parameters(**_section(doc, "parameters", _PARAM_KEYS)),
        initial_state=ProcessState(**state),  # unset q_p, q_p_cmd, H0: 0
        schedule=_resolve_schedule(doc.get("schedule")),
        t_end=_as_number(doc.get("t_end", shipped["t_end"]), "t_end"),
        log_interval=_as_number(doc.get("log_interval",
                                        shipped["log_interval"]),
                                "log_interval"),
        rtol=tolerances["rtol"],
        atol=tolerances["atol"],
        method=str(doc.get("method", shipped["method"])),
    ).validate()
    _start_on_manifold(scenario, state)
    return scenario


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Parse a scenario document from a file path."""
    return parse_scenario(Path(path).read_text())


def default_scenario() -> Scenario:
    """The full shipped default scenario (empty-document path)."""
    return parse_scenario({})


def format_value(value) -> str:
    """Decimal notation with 9 significant digits; ints stay ints.

    The reference rule for every CSV cell: the block formatter of
    `trajectory_csv` and `write_manifold` must print what this prints.
    """
    if isinstance(value, (bool, np.bool_)):
        value = int(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if v == 0.0:
        return "0"
    return np.format_float_positional(v, precision=9, unique=False,
                                      fractional=False, trim="-")


#: Rows per formatting block: one C-level `%` per block keeps the per-cell
#: work out of the interpreter, while the argument tuple stays small (one
#: tuple for the whole table raised peak memory).
_BLOCK_ROWS = 256


#: 10**j for j in 0..166 by numpy's power, the scaling the pinned CSV
#: hashes were made with: the correctly rounded float(10**j) differs from it
#: by an ulp at j = 106, 130, 136 and 149 (numpy 2.4 on x86-64).
_POWERS_OF_TEN = 10.0 ** np.arange(167.0)


def _decimals(v: np.ndarray):
    """Decimal places that print each cell at 9 significant digits.

    Returns the trimmed decimal count of every cell and a mask of the cells
    this float arithmetic cannot settle, which `format_value` prints:
    non-finite values, |v| >= 1e9 (digits past the ninth print as zeros)
    and possible ties. x below is the cell scaled to a 9-digit integer part
    by two factors of `_POWERS_OF_TEN` (10**k overflows for k > 308), off
    by at most a few ulp (< 1e-6), so an x within 1e-6 of a half may round
    either way. 0 <= k <= 332: just below 1e9, where log10 rounds up to 9,
    k is raised from -1 to 0 and x carries like its neighbours. The
    trailing zeros of the 9-digit mantissa are counted in halving passes of
    8, 4, 2 and 1 digits.
    """
    a = np.abs(v)
    plain = a < 1e9  # False for inf and nan
    a = np.where(plain & (a > 0.0), a, 1.0)  # 1 also prints with 0 places
    k = np.maximum(8 - np.floor(np.log10(a)).astype(np.int64), 0)
    x = a * _POWERS_OF_TEN[k >> 1] * _POWERS_OF_TEN[(k + 1) >> 1]
    m = np.rint(x)
    deferred = ~plain | (np.abs(np.abs(x - m) - 0.5) < 1e-6)
    # m reaches 1e9 when rounding carries into a new leading digit, or when
    # log10 fell just short of an integer at a power of ten.
    carry = m >= 1e9
    m = np.where(carry, 1e8, m).astype(np.int64)
    places = k - carry
    for digits in (8, 4, 2, 1):
        scale = 10 ** digits
        q = m // scale
        zeros = q * scale == m
        m = np.where(zeros, q, m)
        places -= digits * zeros
    return np.maximum(places, 0), deferred


def _csv_text(columns, table: np.ndarray) -> Iterator[str]:
    """CSV text in pieces: a header line, then blocks of `_BLOCK_ROWS` rows
    with each cell as `format_value` prints it."""
    table = np.asarray(table, dtype=float)
    row_format = ",".join(["%.*f"] * len(columns)) + "\n"
    yield ",".join(columns) + "\n"
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS] + 0.0  # -0.0 prints as 0
        places, deferred = _decimals(block)
        args = [0] * (2 * block.size)
        args[0::2] = places.ravel().tolist()
        args[1::2] = block.ravel().tolist()
        block_format = row_format * len(block)
        if deferred.any():
            # A deferred cell prints the text of `format_value` via "%.*s".
            cells = block_format.split("%")[1:]  # ".*f," or ".*f\n"
            for i in np.flatnonzero(deferred).tolist():
                text = format_value(args[2 * i + 1])
                cells[i] = ".*s" + cells[i][3:]
                args[2 * i:2 * i + 2] = len(text), text
            block_format = "%" + "%".join(cells)
        yield block_format % tuple(args)


def trajectory_csv(trajectory: Trajectory) -> str:
    """Serialize a trajectory to the fixed-column CSV contract."""
    return "".join(_csv_text(TRAJECTORY_COLUMNS, trajectory.data))


def write_trajectory(trajectory: Trajectory,
                     destination: Union[str, Path]) -> None:
    """Write the trajectory CSV (header + one row per logged instant), one
    block at a time, so its whole text is never held in memory."""
    with open(destination, "w") as fh:
        fh.writelines(_csv_text(TRAJECTORY_COLUMNS, trajectory.data))


def read_trajectory(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Read a trajectory CSV back into a column -> array mapping."""
    with open(path) as fh:  # loadtxt would warn on a file with no rows
        header, rows = fh.readline().strip().split(","), fh.readlines()
    table = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else []
    return dict(zip(header, np.reshape(table, (-1, len(header))).T))


def write_manifold(e_grid, xi_grid, s_grid,
                   destination: Union[str, Path]) -> None:
    """Write the sliding-manifold grid as a flat (e_q, xi_eq, s_q) CSV."""
    table = np.column_stack([np.ravel(g) for g in (e_grid, xi_grid, s_grid)])
    with open(destination, "w") as fh:
        fh.writelines(_csv_text(MANIFOLD_COLUMNS, table))
