"""Output checks applied to every pass of every workload.

The checks are the benchmark's own: the 38-column trajectory contract, the
log grid implied by the scenario, finiteness, the hard bounds on q_p and H0,
and mass accounting over the logged columns. Each check returns a list of
problems; an empty list means the output is accepted.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

#: The trajectory CSV contract, frozen here so a change to it shows up as a
#: failed check instead of a silently different workload.
COLUMNS = [
    "t", "M_s", "M_fl", "C", "rho_mix", "V", "C_n", "H_static", "q_p",
    "q_p_alg", "q_p_ref", "q_p_cmd", "e_q", "xi_eq", "s_q", "sigma_C",
    "H_eq", "H0s", "H0", "f_s", "f_liq", "f_in", "f_fl", "k_ch", "gamma_K",
    "gamma_dot", "tau", "Phi_v", "P_h", "P_useful", "P_elec", "eta_h",
    "E_h", "E_useful", "E_elec", "V_lyap", "dVdt", "protection_mask",
]

MASS_TOLERANCE = 1e-3
#: Behaviours `member_kinds` reports for one run.
KINDS = ("guard_active", "protected", "drained")
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def log_grid(t_end: float, log_interval: float,
             breakpoints: Sequence[float]) -> np.ndarray:
    """Logged instants: multiples of the interval, breakpoints and t_end."""
    points = {0.0, t_end}
    k = 0
    while k * log_interval <= t_end:
        points.add(k * log_interval)
        k += 1
    points.update(t for t in breakpoints if 0.0 <= t <= t_end)
    return np.array(sorted(points))


def parse_csv(text: str) -> Dict[str, np.ndarray]:
    """Column name -> float array; raises ValueError on a malformed table."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    if header != COLUMNS:
        raise ValueError(f"header differs from the {len(COLUMNS)}-column "
                         f"contract: {header[:5]}...")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(COLUMNS) for row in rows):
        raise ValueError("a row has the wrong number of fields")
    data = np.array(rows, dtype=float).reshape(len(rows), len(COLUMNS))
    return {name: data[:, i] for i, name in enumerate(COLUMNS)}


def check_table(cols: Dict[str, np.ndarray], scenario,
                mass: bool = True) -> List[str]:
    """Grid, finiteness, bound and (optionally) mass-accounting checks."""
    p = scenario.parameters
    grid = log_grid(scenario.t_end, scenario.log_interval,
                    [t for t, _ in scenario.schedule])
    problems = [f"column {name} is not finite"
                for name, values in cols.items()
                if not np.all(np.isfinite(values))]
    t = cols["t"]
    if len(t) != len(grid):
        problems.append(f"{len(t)} rows, the log grid has {len(grid)}")
    elif not np.allclose(t, grid, rtol=1e-8, atol=0.0):
        problems.append("logged times differ from the log grid")
    if np.any(cols["q_p"] < 0.0) or np.any(cols["q_p"] > p.q_p_max):
        problems.append(f"q_p outside [0, {p.q_p_max}]")
    if np.any(cols["H0"] < 0.0) or np.any(cols["H0"] > p.H0_max):
        problems.append(f"H0 outside [0, {p.H0_max}]")
    if mass and not problems:
        M_s, M_fl = cols["M_s"], cols["M_fl"]
        fiber = abs(M_s[0] - M_s[-1] - _trapezoid(cols["f_s"], t)) / M_s[0]
        net = p.rho_fl * (cols["f_in"] - cols["f_fl"]) - cols["f_liq"]
        liquor = abs(M_fl[-1] - M_fl[0] - _trapezoid(net, t)) / M_fl[0]
        if not (fiber < MASS_TOLERANCE and liquor < MASS_TOLERANCE):
            problems.append(f"mass accounting residuals {fiber:.2e} (fiber), "
                            f"{liquor:.2e} (liquor) exceed {MASS_TOLERANCE}")
    return problems


def check_csv(text: str, scenario) -> List[str]:
    """All checks on one trajectory CSV written for `scenario`."""
    try:
        cols = parse_csv(text)
    except ValueError as exc:
        return [str(exc)]
    return check_table(cols, scenario, mass=True)


def member_kinds(cols: Dict[str, np.ndarray], t_end: float) -> Dict[str, bool]:
    """Which behaviours a run exercised, read from its logged columns."""
    total = cols["M_s"] + cols["M_fl"]
    return {
        "guard_active": bool(np.min(cols["sigma_C"]) < 0.5),
        "protected": bool(np.any(cols["protection_mask"] != 0)),
        "drained": bool(np.any((total < 100.0) & (cols["t"] < t_end))),
    }
