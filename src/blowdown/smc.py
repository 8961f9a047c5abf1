"""Sliding-mode discharge-flow control stack.

Supervisory sigmoid protection of the raw flow reference, first-order
reference conditioning, integral sliding manifold, equivalent head plus
boundary-layer switching, head bounding, and Lyapunov/gain diagnostics.

Controller evaluation is a pure function of (state, inputs, parameters);
the only controller memory (xi_eq, q_p_cmd) lives in the integrated state
vector owned by the engine.

Each law is written once. Where the public helper checks its arguments, the
arithmetic lives in a private unchecked form that the helper calls; the
engine validates a scenario once and calls those forms directly. The bounded
head command belongs to `_control_law`, which also returns the raw command
that the engine's anti-windup needs.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .errors import ParameterError
from .hydraulics import _relaxation
from .state import EPS_DEFAULT


def consistency_guard(C: float, C_max: float, alpha_sig: float) -> float:
    """Consistency-limiting sigmoid, 1 at low C, 0.5 at C = C_max, 0 beyond.

    Monotone decreasing in C; the steepness alpha_sig sets how sharply the
    reference is throttled around the supervisory limit.
    """
    if alpha_sig <= 0:
        raise ParameterError(f"alpha_sig must be positive, got {alpha_sig}")
    return _consistency_guard(C, C_max, alpha_sig)


def _consistency_guard(C: float, C_max: float, alpha_sig: float) -> float:
    # Stable logistic evaluation for large |exponent|.
    x = alpha_sig * (C_max - C)
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def protected_reference(sigma_C: float, q_p_ref: float) -> float:
    """Protected discharge reference sigma_C * q_p_ref."""
    return sigma_C * q_p_ref


def reference_conditioner_rhs(q_p_cmd: float, q_p_star: float,
                              tau_ref: float) -> float:
    """First-order lag of the conditioned reference toward the protected one.

    Keeps the commanded flow slowly varying at sliding timescales, which the
    equivalent-control derivation assumes.
    """
    if tau_ref <= 0:
        raise ParameterError(f"tau_ref must be positive, got {tau_ref}")
    return _relaxation(q_p_star, q_p_cmd, tau_ref)


def sliding_surface(e_q: float, xi_eq: float, lambda_q: float) -> float:
    """Integral sliding variable s_q = e_q + lambda_q * xi_eq."""
    return e_q + lambda_q * xi_eq


def saturation(x: float) -> float:
    """Boundary-layer saturation: identity on [-1, 1], sign outside."""
    if x > 1.0:
        return 1.0
    if x < -1.0:
        return -1.0
    return x


def equivalent_head(H_static: float, C_n: float, q_p_cmd: float, n: float,
                    eps: float = EPS_DEFAULT) -> float:
    """Nominal head keeping the flow on the commanded trajectory.

    Exact algebraic inverse of the pressure-flow law: feeding the result back
    through `hydraulics.algebraic_flow` recovers q_p_cmd (both use C_n + eps).
    """
    if q_p_cmd < 0:
        raise ParameterError(f"q_p_cmd must be non-negative, got {q_p_cmd}")
    return _equivalent_head(H_static, C_n, q_p_cmd, n, eps)


def _equivalent_head(H_static: float, C_n: float, q_p_cmd: float, n: float,
                     eps: float) -> float:
    return H_static + (C_n + eps) * q_p_cmd ** n


def control_law(H_eq: float, s_q: float, k_smc: float, phi_q: float,
                H0_max: float) -> float:
    """Complete bounded SMC head command.

    clamp(H_eq - k_smc * sat(s_q / phi_q), 0, H0_max). Lipschitz in s_q with
    constant k_smc / phi_q inside the boundary layer.
    """
    if phi_q <= 0:
        raise ParameterError(f"phi_q must be positive, got {phi_q}")
    if H0_max <= 0:
        raise ParameterError(f"H0_max must be positive, got {H0_max}")
    return _control_law(H_eq, s_q, k_smc, phi_q, H0_max)[1]


def _control_law(H_eq: float, s_q: float, k_smc: float, phi_q: float,
                 H0_max: float) -> Tuple[float, float]:
    """Raw head command and the command bounded to [0, H0_max], unchecked.

    The bound keeps the semantics of min(max(raw, 0.0), H0_max), NaN and
    -0.0 included, without the cost of the builtin calls.
    """
    raw = H_eq - k_smc * saturation(s_q / phi_q)
    low = 0.0 if raw < 0.0 else raw
    return raw, H0_max if low > H0_max else low


def lyapunov_diagnostics(s_q: float, s_q_prev: float,
                         dt: float) -> Tuple[float, float]:
    """Lyapunov value V = 0.5 s_q^2 and its backward-difference derivative.

    Logged for attractivity monitoring only; never used inside the control law.
    """
    if dt <= 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    return _lyapunov_value(s_q), _lyapunov_rate(s_q, s_q_prev, dt)


def _lyapunov_value(s_q: float) -> float:
    return 0.5 * s_q * s_q


def _lyapunov_rate(s_q: float, s_q_prev: float, dt: float) -> float:
    return s_q * (s_q - s_q_prev) / dt


def check_gain_condition(k_smc: float, tau_p: float, delta_max: float) -> bool:
    """Attractivity gain check k_smc > tau_p * delta_max.

    The switching gain must dominate the lumped uncertainty scaled by the
    flow relaxation time for the manifold to stay attractive. delta_max is
    the empirical bound on that uncertainty, see `estimate_delta_max`.
    """
    if k_smc <= 0 or tau_p <= 0 or delta_max < 0:
        raise ParameterError("gains, tau_p must be positive; delta_max >= 0")
    return k_smc > tau_p * delta_max


def estimate_delta_max(t, s_q, k_smc: float, tau_p: float,
                       phi_q: float) -> float:
    """Empirical lumped-uncertainty bound from a logged run.

    Reconstructs Delta = ds_q/dt + (k_smc/tau_p) * sat(s_q/phi_q) with
    centered differences over the log and returns its maximum magnitude.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s_q, dtype=float)
    if t.size < 3:
        raise ParameterError("need at least 3 samples to estimate delta_max")
    dsdt = np.gradient(s, t)
    sat_term = np.clip(s / phi_q, -1.0, 1.0)
    delta = dsdt + (k_smc / tau_p) * sat_term
    return float(np.max(np.abs(delta)))


def manifold_grid(e_range, xi_range, lambda_q: float, steps: int = 41):
    """Rectangular grid of the sliding surface s = e + lambda_q * xi.

    Returns (e_grid, xi_grid, s_grid) as 2-D arrays shaped (steps, steps)
    with e varying along axis 0. The zero contour xi = -e/lambda_q shows up
    as sign changes of s_grid.
    """
    if steps < 2:
        raise ParameterError(f"steps must be >= 2, got {steps}")
    e_lo, e_hi = float(e_range[0]), float(e_range[1])
    x_lo, x_hi = float(xi_range[0]), float(xi_range[1])
    if not (e_hi > e_lo and x_hi > x_lo):
        raise ParameterError("degenerate grid ranges")
    e = np.linspace(e_lo, e_hi, steps)
    xi = np.linspace(x_lo, x_hi, steps)
    e_grid, xi_grid = np.meshgrid(e, xi, indexing="ij")
    return e_grid, xi_grid, sliding_surface(e_grid, xi_grid, lambda_q)
