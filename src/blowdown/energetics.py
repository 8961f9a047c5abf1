"""Instantaneous powers, transport efficiency and the SI companion wattage.

Powers are carried in head units (head x flow, [m * m^3/s]) because every
ratio of interest is scale-invariant in them; `hydraulic_power_si` gives the
dimensionally strict wattage when an absolute number is wanted.
"""

from __future__ import annotations

import math

from .errors import ParameterError, StateValidityError
from .state import EPS_DEFAULT

GRAVITY = 9.81  # [m/s^2]


def hydraulic_power(H0: float, q_p: float) -> float:
    """Hydraulic transport power H0 * q_p [head-units m^3/s]."""
    if H0 < 0 or q_p < 0:
        raise StateValidityError("H0 and q_p must be non-negative")
    return H0 * q_p


def hydraulic_power_si(rho_mix: float, H0: float, q_p: float) -> float:
    """SI-scaled hydraulic power rho_mix * g * H0 * q_p [W]."""
    if rho_mix < 0:
        raise StateValidityError("rho_mix must be non-negative")
    return rho_mix * GRAVITY * hydraulic_power(H0, q_p)


def useful_power(H_static: float, q_p: float) -> float:
    """Useful conveyance power H_static * q_p [head-units m^3/s].

    Static-head-times-flow convention: the losses are then exactly the
    rheological excess head times the flow.
    """
    if H_static < 0 or q_p < 0:
        raise StateValidityError("H_static and q_p must be non-negative")
    return H_static * q_p


def efficiency(P_useful: float, P_h: float,
               eps: float = EPS_DEFAULT) -> float:
    """Clamped instantaneous transport efficiency in [0, 1]."""
    if not math.isfinite(P_useful) or not math.isfinite(P_h):
        raise StateValidityError("powers must be finite")
    return min(max(P_useful / (P_h + eps), 0.0), 1.0)


def electrical_power(P_h: float, eta_pm: float) -> float:
    """Estimated electrical demand P_h / eta_pm [head-units m^3/s]."""
    if eta_pm <= 0:
        raise ParameterError(f"eta_pm must be positive, got {eta_pm}")
    return P_h / eta_pm
