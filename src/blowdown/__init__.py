"""Nonlinear batch-digester blowdown model with sliding-mode flow control.

Library layout:

- `state`       domain types and mixture reconstructions
- `rheology`    Herschel-Bulkley law, shear rate, resistance, dissipation
- `hydraulics`  head/flow laws, lags, transport flows
- `smc`         the sliding-mode control stack and its diagnostics
- `energetics`  powers, efficiency
- `engine`      right-hand side assembly and event-aligned integration
- `scenario_io` scenario documents, trajectory/manifold CSV
- `acceptance`  the runnable verification suite behind `blowdown check`
"""

from .engine import Scenario, Trajectory, integrate, integrate_fixed_rk4
from .scenario_io import (default_scenario, load_scenario, parse_scenario,
                          write_manifold, write_trajectory)
from .state import ExogenousInputs, Parameters, ProcessState

__all__ = [
    "ExogenousInputs", "Parameters", "ProcessState",
    "Scenario", "Trajectory", "default_scenario", "integrate",
    "integrate_fixed_rk4", "load_scenario", "parse_scenario",
    "write_manifold", "write_trajectory",
]

__version__ = "0.1.0"
