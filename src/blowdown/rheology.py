"""Herschel-Bulkley rheology and consistency-dependent hydraulic resistance.

The shear rate is reconstructed from the pipe flow with the Newtonian
wall-shear formula 8v/D (v = q / (pi D^2 / 4)), i.e. gamma_dot = 32 q / (pi D^3).
A Rabinowitsch-Mooney correction is deliberately not applied: dissipation is a
diagnostic here and the simple form keeps it monotone in the flow. Swap
`shear_rate` for a corrected strategy if wall-accurate stresses are needed.

Each law is one public function that checks nothing; the parameters and
states it reads are validated once, with the scenario, and the engine's
kernel calls these functions on its clamped states.
"""

from __future__ import annotations

import math


def shear_rate(q_p: float, D_pipe: float) -> float:
    """Pipe wall shear rate 32 q / (pi D^3) [1/s]."""
    return 32.0 * q_p / (math.pi * D_pipe ** 3)


def hb_stress(gamma_dot: float, tau_y: float, K_HB: float, n: float) -> float:
    """Herschel-Bulkley shear stress tau_y + K_HB * gamma_dot**n [Pa]."""
    return tau_y + K_HB * gamma_dot ** n


def hydraulic_resistance(C: float, K_ref: float, C_ref: float, alpha_C: float,
                         eps: float) -> float:
    """Consistency-dependent resistance K_ref * ((C + eps)/C_ref)**alpha_C."""
    return K_ref * ((C + eps) / C_ref) ** alpha_C


def viscous_dissipation(tau: float, gamma_dot: float) -> float:
    """Volumetric dissipation rate tau * gamma_dot [W/m^3]."""
    return tau * gamma_dot
