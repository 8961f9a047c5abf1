"""Herschel-Bulkley rheology and consistency-dependent hydraulic resistance.

The shear rate is reconstructed from the pipe flow with the Newtonian
wall-shear formula 8v/D (v = q / (pi D^2 / 4)), i.e. gamma_dot = 32 q / (pi D^3).
A Rabinowitsch-Mooney correction is deliberately not applied: dissipation is a
diagnostic here and the simple form keeps it monotone in the flow. Swap
`shear_rate` for a corrected strategy if wall-accurate stresses are needed.

Each law is written once, in a private unchecked form; the public helper
checks its arguments and calls it. The engine validates a scenario once and
then calls the unchecked forms.
"""

from __future__ import annotations

import math

from .errors import ParameterError, StateValidityError
from .state import EPS_DEFAULT


def shear_rate(q_p: float, D_pipe: float) -> float:
    """Pipe wall shear rate 32 q / (pi D^3) [1/s]."""
    if D_pipe <= 0:
        raise ParameterError(f"D_pipe must be positive, got {D_pipe}")
    if not math.isfinite(q_p) or q_p < 0:
        raise StateValidityError(f"q_p must be finite and non-negative, got {q_p}")
    return _shear_rate(q_p, D_pipe)


def _shear_rate(q_p: float, D_pipe: float) -> float:
    return 32.0 * q_p / (math.pi * D_pipe ** 3)


def hb_stress(gamma_dot: float, tau_y: float, K_HB: float, n: float) -> float:
    """Herschel-Bulkley shear stress tau_y + K_HB * gamma_dot**n [Pa]."""
    if not math.isfinite(gamma_dot) or gamma_dot < 0:
        raise StateValidityError(
            f"gamma_dot must be finite and non-negative, got {gamma_dot}")
    return _hb_stress(gamma_dot, tau_y, K_HB, n)


def _hb_stress(gamma_dot: float, tau_y: float, K_HB: float, n: float) -> float:
    return tau_y + K_HB * gamma_dot ** n


def hydraulic_resistance(C: float, K_ref: float, C_ref: float, alpha_C: float,
                         eps: float = EPS_DEFAULT) -> float:
    """Consistency-dependent resistance K_ref * ((C + eps)/C_ref)**alpha_C."""
    if C_ref <= 0:
        raise ParameterError(f"C_ref must be positive, got {C_ref}")
    if not math.isfinite(C) or not 0 <= C <= 1:
        raise StateValidityError(f"C must lie in [0, 1], got {C}")
    return _hydraulic_resistance(C, K_ref, C_ref, alpha_C, eps)


def _hydraulic_resistance(C: float, K_ref: float, C_ref: float,
                          alpha_C: float, eps: float) -> float:
    return K_ref * ((C + eps) / C_ref) ** alpha_C


def viscous_dissipation(tau: float, gamma_dot: float) -> float:
    """Volumetric dissipation rate tau * gamma_dot [W/m^3]."""
    if not math.isfinite(tau) or not math.isfinite(gamma_dot):
        raise StateValidityError("tau and gamma_dot must be finite")
    if tau < 0 or gamma_dot < 0:
        raise StateValidityError("tau and gamma_dot must be non-negative")
    return _viscous_dissipation(tau, gamma_dot)


def _viscous_dissipation(tau: float, gamma_dot: float) -> float:
    return tau * gamma_dot
