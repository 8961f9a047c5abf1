"""Static head, pressure-flow law, first-order relaxation, transport flows.

All operations are pure scalar functions so they can be composed freely
inside the integrator right-hand side. Each law is one public function that
checks nothing; the parameters and states it reads are validated once, with
the scenario, and the engine's kernel calls these functions directly.

Unit note: the liquor inventory balance mixes conventions on purpose --
f_in and f_fl are volumetric [m^3/s] and enter multiplied by rho_fl, while
the entrained-liquor transport f_liq is already a mass flow [kg/s].
"""

from __future__ import annotations


def static_head(rho_mix: float, K_static: float) -> float:
    """Static hydraulic head of the slurry column, K_static * rho_mix [m]."""
    return K_static * rho_mix


def algebraic_flow(H0: float, H_static: float, C_n: float, n: float,
                   eps: float) -> float:
    """Quasi-steady pressure-flow relation.

    Returns (max(H0 - H_static, 0) / (C_n + eps))**(1/n); exactly zero when
    the applied head does not exceed the static column head.
    """
    dH = H0 - H_static
    if dH <= 0.0:
        return 0.0
    return (dH / (C_n + eps)) ** (1.0 / n)


def relaxation(target: float, value: float, tau: float) -> float:
    """First-order lag (target - value) / tau.

    The one law behind the hydraulic flow relaxation (tau_p), the pump
    actuator (tau_H) and the reference conditioner (tau_ref).
    """
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
