"""Sliding-mode discharge-flow control stack.

Supervisory sigmoid protection of the raw flow reference, integral sliding
manifold, equivalent head plus boundary-layer switching, head bounding, the
logged Lyapunov value and rate, and the manifold grid the demos draw. The
reference conditioner is the first-order lag `hydraulics.relaxation` with
time constant tau_ref.

Controller evaluation is a pure function of (state, inputs, parameters);
the only controller memory (xi_eq, q_p_cmd) lives in the integrated state
vector owned by the engine.

Each law is one public function that checks nothing; the parameters and
states it reads are validated once, with the scenario, and the engine's
kernel calls these functions directly. `control_law` returns the raw head
command beside the bounded one, because the engine's anti-windup needs it.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .errors import ParameterError


def consistency_guard(C: float, C_max: float, alpha_sig: float) -> float:
    """Consistency-limiting sigmoid, 1 at low C, 0.5 at C = C_max, 0 beyond.

    Monotone decreasing in C; the steepness alpha_sig sets how sharply the
    reference is throttled around the supervisory limit.
    """
    # Stable logistic evaluation for large |exponent|: exp(-|x|) <= 1.
    x = alpha_sig * (C_max - C)
    z = math.exp(-x if x >= 0 else x)
    return 1.0 / (1.0 + z) if x >= 0 else z / (1.0 + z)


def protected_reference(sigma_C: float, q_p_ref: float) -> float:
    """Protected discharge reference sigma_C * q_p_ref."""
    return sigma_C * q_p_ref


def sliding_surface(e_q: float, xi_eq: float, lambda_q: float) -> float:
    """Integral sliding variable s_q = e_q + lambda_q * xi_eq."""
    return e_q + lambda_q * xi_eq


def saturation(x: float) -> float:
    """Boundary-layer saturation: identity on [-1, 1], sign outside."""
    return 1.0 if x > 1.0 else -1.0 if x < -1.0 else x


def equivalent_head(H_static: float, C_n: float, q_p_cmd: float, n: float,
                    eps: float) -> float:
    """Nominal head keeping the flow on the commanded trajectory.

    Exact algebraic inverse of the pressure-flow law: feeding the result back
    through `hydraulics.algebraic_flow` recovers q_p_cmd (both use C_n + eps).
    """
    return H_static + (C_n + eps) * q_p_cmd ** n


def control_law(H_eq: float, s_q: float, k_smc: float, phi_q: float,
                H0_max: float) -> Tuple[float, float]:
    """Raw SMC head command and the command bounded to [0, H0_max].

    raw = H_eq - k_smc * sat(s_q / phi_q), Lipschitz in s_q with constant
    k_smc / phi_q inside the boundary layer. The bound keeps the semantics
    of min(max(raw, 0.0), H0_max), NaN and -0.0 included, without the cost
    of the builtin calls.
    """
    sat = saturation(s_q / phi_q)
    raw = H_eq - k_smc * sat
    low = 0.0 if raw < 0.0 else raw
    return raw, H0_max if low > H0_max else low


def lyapunov_value(s_q: float) -> float:
    """Lyapunov function V = 0.5 s_q^2, logged for attractivity monitoring."""
    return 0.5 * s_q * s_q


def lyapunov_rate(s_q: float, s_q_prev: float, dt: float) -> float:
    """Backward-difference dV/dt = s_q (s_q - s_q_prev) / dt between rows."""
    return s_q * (s_q - s_q_prev) / dt


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
    if not (math.isfinite(e_hi - e_lo) and math.isfinite(x_hi - x_lo)):
        raise ParameterError(f"grid ranges must be finite, got e "
                             f"[{e_lo}, {e_hi}] and xi [{x_lo}, {x_hi}]")
    e = np.linspace(e_lo, e_hi, steps)
    xi = np.linspace(x_lo, x_hi, steps)
    e_grid, xi_grid = np.meshgrid(e, xi, indexing="ij")
    return e_grid, xi_grid, sliding_surface(e_grid, xi_grid, lambda_q)
