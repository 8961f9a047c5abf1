"""Instantaneous powers, transport efficiency and the SI companion wattage.

Powers are carried in head units (head x flow, [m * m^3/s]) because every
ratio of interest is scale-invariant in them; `hydraulic_power_si` gives the
dimensionally strict wattage when an absolute number is wanted.

Each relation is written once, in a private unchecked form that the checking
public helper calls; the engine validates a scenario once and calls the
unchecked forms directly.
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
    return _head_power(H0, q_p)


def _head_power(head: float, q_p: float) -> float:
    """Head times flow [head-units m^3/s], unchecked."""
    return head * q_p


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
    return _head_power(H_static, q_p)


def efficiency(P_useful: float, P_h: float,
               eps: float = EPS_DEFAULT) -> float:
    """Clamped instantaneous transport efficiency in [0, 1]."""
    if not math.isfinite(P_useful) or not math.isfinite(P_h):
        raise StateValidityError("powers must be finite")
    return _efficiency(P_useful, P_h, eps)


def _efficiency(P_useful: float, P_h: float, eps: float) -> float:
    # min(max(ratio, 0.0), 1.0) with the same NaN and -0.0 semantics.
    ratio = P_useful / (P_h + eps)
    low = 0.0 if ratio < 0.0 else ratio
    return 1.0 if low > 1.0 else low


def electrical_power(P_h: float, eta_pm: float) -> float:
    """Estimated electrical demand P_h / eta_pm [head-units m^3/s]."""
    if eta_pm <= 0:
        raise ParameterError(f"eta_pm must be positive, got {eta_pm}")
    return _electrical_power(P_h, eta_pm)


def _electrical_power(P_h: float, eta_pm: float) -> float:
    return P_h / eta_pm
