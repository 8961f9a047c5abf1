"""Domain types and algebraic mixture reconstructions.

The digester is a lumped two-phase inventory (dry fiber + free liquor).
Everything else in the model -- consistency, phase volumes, mixture density --
is reconstructed algebraically from the two masses, so these laws are pure
functions that the integrator right-hand side can call in any order.

Each law is one public function that checks nothing: the domain types below
validate parameters, states and inputs once, at the boundary, and the
engine's kernel calls the laws on its clamped states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ParameterError, StateValidityError


def _require_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise StateValidityError(f"{name} must be finite, got {value!r}")
    return value


@dataclass
class Parameters:
    """Physical, rheological, hydraulic, controller and numerical constants.

    The reference values are in the shipped `default_scenario.yaml` (read
    them as `default_scenario().parameters`), which marks those with no
    published source "not-in-paper".
    """

    rho_s: float               # dry-fiber density [kg/m^3]
    rho_fl: float              # free-liquor density [kg/m^3]
    w: float                   # solid moisture/void fraction [-]
    n: float                   # Herschel-Bulkley flow index [-]
    K_ref: float               # reference hydraulic resistance
    C_ref: float               # reference consistency [-]
    alpha_C: float             # consistency-resistance exponent [-]
    tau_y: float               # yield stress [Pa]
    K_HB: float                # HB consistency index [Pa s^n]
    D_pipe: float              # blow-line diameter [m]
    K_static: float            # head-per-density coefficient [m m^3/kg]
    tau_p: float               # hydraulic relaxation time [s]
    tau_H: float               # pump actuator time constant [s]
    tau_ref: float             # reference-conditioning time constant [s]
    H0_max: float              # maximum hydraulic head [m]
    q_p_max: float             # maximum discharge flow [m^3/s]
    lambda_q: float            # sliding-manifold gain [1/s]
    k_smc: float               # switching gain [m]
    phi_q: float               # boundary-layer thickness [m^3/s]
    C_max: float               # supervisory consistency limit [-]
    alpha_sig: float           # supervisory sigmoid steepness [-]
    eps: float                 # shared regularization [-]
    eta_pm: float              # combined pump-motor efficiency [-]

    def validate(self) -> "Parameters":
        """Check every declared invariant; raise ParameterError on violation."""
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, (int, float)) or not math.isfinite(float(v)):
                raise ParameterError(f"{f.name} must be a finite number, got {v!r}")
            setattr(self, f.name, float(v))
        if self.rho_s <= 0 or self.rho_fl <= 0:
            raise ParameterError("phase densities must be positive")
        if not 0 <= self.w < 1:
            raise ParameterError(f"w must lie in [0, 1), got {self.w}")
        if not 0 < self.n <= 2:
            raise ParameterError(f"n must lie in (0, 2], got {self.n}")
        if self.eps <= 0:
            raise ParameterError("eps must be positive")
        for name in ("tau_p", "tau_H", "tau_ref"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        if not 0 < self.C_ref < 1:
            raise ParameterError(f"C_ref must lie in (0, 1), got {self.C_ref}")
        if not 0 < self.C_max < 1:
            raise ParameterError(f"C_max must lie in (0, 1), got {self.C_max}")
        if self.phi_q <= 0:
            raise ParameterError("phi_q must be positive")
        if self.k_smc < 0:
            raise ParameterError("k_smc must be non-negative")
        if not 0 < self.eta_pm <= 1:
            raise ParameterError(f"eta_pm must lie in (0, 1], got {self.eta_pm}")
        if self.K_ref < 0 or self.K_static < 0:
            raise ParameterError("resistance/head coefficients must be non-negative")
        if self.H0_max <= 0 or self.q_p_max <= 0:
            raise ParameterError("H0_max and q_p_max must be positive")
        if self.D_pipe <= 0:
            raise ParameterError("D_pipe must be positive")
        if self.alpha_sig <= 0:
            raise ParameterError("alpha_sig must be positive")
        if self.lambda_q < 0:
            raise ParameterError("lambda_q must be non-negative")
        if self.tau_y < 0 or self.K_HB < 0:
            raise ParameterError("tau_y and K_HB must be non-negative")
        return self


@dataclass
class ProcessState:
    """Integrated dynamic state of the plant plus controller memory.

    The controller's filtered reference q_p_cmd and the three cumulative
    energies ride along the plant integration as extra quadrature states.
    """

    M_s: float                 # dry-fiber mass [kg]
    M_fl: float                # free-liquor mass [kg]
    q_p: float = 0.0           # discharge flow [m^3/s]
    xi_eq: float = 0.0         # integral sliding state [m^3]
    H0: float = 0.0            # applied hydraulic head [m]
    q_p_cmd: float = 0.0       # conditioned reference (controller memory) [m^3/s]
    E_h: float = 0.0           # cumulative hydraulic energy [head-units m^3]
    E_useful: float = 0.0      # cumulative useful energy [head-units m^3]
    E_elec: float = 0.0        # cumulative electrical energy [head-units m^3]

    def validate(self, params: Parameters) -> "ProcessState":
        for f in fields(self):
            _require_finite(f.name, getattr(self, f.name))
        if self.M_s < 0 or self.M_fl < 0:
            raise StateValidityError("masses must be non-negative")
        if not 0 <= self.q_p <= params.q_p_max:
            raise StateValidityError(
                f"q_p must lie in [0, {params.q_p_max}], got {self.q_p}")
        if not 0 <= self.H0 <= params.H0_max:
            raise StateValidityError(
                f"H0 must lie in [0, {params.H0_max}], got {self.H0}")
        if not 0 <= self.q_p_cmd <= params.q_p_max:
            raise StateValidityError(
                f"q_p_cmd must lie in [0, {params.q_p_max}], got {self.q_p_cmd}")
        return self

    def as_array(self):
        return [self.M_s, self.M_fl, self.q_p, self.xi_eq, self.H0,
                self.q_p_cmd, self.E_h, self.E_useful, self.E_elec]

    @classmethod
    def from_array(cls, y) -> "ProcessState":
        return cls(*(float(v) for v in y))


@dataclass
class ExogenousInputs:
    """Time-dependent inputs, held piecewise-constant between breakpoints."""

    k_ch: float = 0.0          # channeling factor [-]
    gamma_K: float = 0.0       # drainability coefficient [-]
    f_in: float = 0.0          # inlet dilution flow [m^3/s]
    f_fl: float = 0.0          # free-liquor extraction flow [m^3/s]
    q_p_ref: float = 0.0       # raw discharge-flow reference [m^3/s]

    def validate(self, params: Parameters) -> "ExogenousInputs":
        for f in fields(self):
            v = _require_finite(f.name, getattr(self, f.name))
            if v < 0:
                raise StateValidityError(f"{f.name} must be non-negative")
        if self.k_ch > 1 or self.gamma_K > 1:
            raise StateValidityError("k_ch and gamma_K must lie in [0, 1]")
        if self.q_p_ref > params.q_p_max:
            raise StateValidityError(
                f"q_p_ref must not exceed q_p_max = {params.q_p_max}")
        return self


def consistency(M_s: float, M_fl: float, eps: float) -> float:
    """Mass fraction of dry fiber in the slurry, M_s / (M_s + M_fl + eps).

    The regularizer eps keeps an empty vessel at 0 instead of 0/0; the
    result lies in [0, 1) for non-negative masses.
    """
    return M_s / (M_s + M_fl + eps)


def mixture_density(M_s: float, M_fl: float, rho_s: float, rho_fl: float,
                    eps: float) -> float:
    """Effective slurry density from the phase distribution.

    (M_s + M_fl) / (M_s / rho_s + M_fl / rho_fl + eps) [kg/m^3].
    """
    return (M_s + M_fl) / (M_s / rho_s + M_fl / rho_fl + eps)


def phase_volumes(M_s: float, M_fl: float, rho_s: float, rho_fl: float,
                  w: float):
    """Phase volumes, total volume and total mass.

    Returns (V_s, V_fl, V, M_total). The solid volume includes the
    moisture/void correction 1/(1 - w).
    """
    V_fl = M_fl / rho_fl
    V_s = M_s / (rho_s * (1.0 - w))
    return V_s, V_fl, V_s + V_fl, M_s + M_fl
