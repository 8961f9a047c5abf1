"""Instantaneous powers and transport efficiency.

Powers are carried in head units (head x flow, [m * m^3/s]) because every
ratio of interest is scale-invariant in them. Each relation is one public
function that checks nothing; the parameters and states it reads are
validated once, with the scenario, and the engine's kernel calls these
functions directly.
"""

from __future__ import annotations


def head_power(head: float, q_p: float) -> float:
    """Head times flow [head-units m^3/s].

    The hydraulic transport power is H0 * q_p. The useful conveyance power
    is H_static * q_p, so the losses are exactly the rheological excess head
    times the flow.
    """
    return head * q_p


def efficiency(P_useful: float, P_h: float, eps: float) -> float:
    """Instantaneous transport efficiency P_useful / (P_h + eps) in [0, 1]."""
    # min(max(ratio, 0.0), 1.0) with the same NaN and -0.0 semantics.
    ratio = P_useful / (P_h + eps)
    low = 0.0 if ratio < 0.0 else ratio
    return 1.0 if low > 1.0 else low


def electrical_power(P_h: float, eta_pm: float) -> float:
    """Estimated electrical demand P_h / eta_pm [head-units m^3/s]."""
    return P_h / eta_pm
