"""Static head, pressure-flow law, relaxation/actuator lags, transport flows.

All operations are pure scalar functions so they can be composed freely
inside the integrator right-hand side. Each law is written once; a law whose
public helper checks its arguments has a private unchecked form that the
helper calls, and the engine, which validates a scenario once, calls that
form directly. `fiber_flow` and `liquor_flow` check nothing and serve both.

Unit note: the liquor inventory balance mixes conventions on purpose --
f_in and f_fl are volumetric [m^3/s] and enter multiplied by rho_fl, while
the entrained-liquor transport f_liq is already a mass flow [kg/s].
"""

from __future__ import annotations

import math

from .errors import ParameterError, StateValidityError
from .state import EPS_DEFAULT


def static_head(rho_mix: float, K_static: float) -> float:
    """Static hydraulic head of the slurry column, K_static * rho_mix [m]."""
    if not math.isfinite(rho_mix) or rho_mix < 0:
        raise StateValidityError(f"rho_mix must be non-negative, got {rho_mix}")
    return _static_head(rho_mix, K_static)


def _static_head(rho_mix: float, K_static: float) -> float:
    return K_static * rho_mix


def algebraic_flow(H0: float, H_static: float, C_n: float, n: float,
                   eps: float = EPS_DEFAULT) -> float:
    """Quasi-steady pressure-flow relation.

    Returns (max(H0 - H_static, 0) / (C_n + eps))**(1/n); exactly zero when
    the applied head does not exceed the static column head.
    """
    if n <= 0:
        raise ParameterError(f"n must be positive, got {n}")
    if C_n < 0:
        raise ParameterError(f"C_n must be non-negative, got {C_n}")
    return _algebraic_flow(H0, H_static, C_n, n, eps)


def _algebraic_flow(H0: float, H_static: float, C_n: float, n: float,
                    eps: float) -> float:
    dH = H0 - H_static
    if dH <= 0.0:
        return 0.0
    return (dH / (C_n + eps)) ** (1.0 / n)


def flow_relaxation_rhs(q_p_alg: float, q_p: float, tau_p: float) -> float:
    """First-order hydraulic relaxation (q_p_alg - q_p) / tau_p."""
    if tau_p <= 0:
        raise ParameterError(f"tau_p must be positive, got {tau_p}")
    return _relaxation(q_p_alg, q_p, tau_p)


def actuator_rhs(H0s: float, H0: float, tau_H: float) -> float:
    """First-order pump actuator lag (H0s - H0) / tau_H."""
    if tau_H <= 0:
        raise ParameterError(f"tau_H must be positive, got {tau_H}")
    return _relaxation(H0s, H0, tau_H)


def _relaxation(target: float, value: float, tau: float) -> float:
    """First-order lag (target - value) / tau, unchecked."""
    return (target - value) / tau


def fiber_flow(rho_mix: float, C: float, q_p: float) -> float:
    """Discharged fiber mass transport rho_mix * C * q_p [kg/s]."""
    return rho_mix * C * q_p


def liquor_flow(k_ch: float, gamma_K: float, C: float, rho_mix: float,
                q_p: float) -> float:
    """Entrained-liquor mass transport with channeling and drainability.

    (1 - k_ch) * (1 - gamma_K * C) * rho_mix * (1 - C) * q_p [kg/s].
    k_ch = 1 models full channeling bypass (no entrained-liquor transport).
    """
    return (1.0 - k_ch) * (1.0 - gamma_K * C) * rho_mix * (1.0 - C) * q_p
