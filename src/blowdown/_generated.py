"""The closed-loop kernel and the block filler as `_kernel_writer` writes
them for the shipped laws, with the calls they read and, by interpreter,
the digest of each function the writer read. `engine` compiles them at the
first run whose loaded code has this interpreter's digests, and runs them
while each call is the object it was loaded with; otherwise it runs
`_evaluate`. Written by `python -m blowdown._kernel_writer`; not edited by
hand.
"""

KERNEL = r'''def _kernel(y, p, u, full):
    """`_evaluate` with each law's body written in."""
    y = y if type(y) is list else np.asarray(y, dtype=float).tolist()
    xi_eq = y[3]
    _bounded1_M_s, _bounded1_M_fl, _bounded1_q_p, _bounded1_H0, _bounded1_q_cmd = (y[0], y[1], y[2], y[4], y[5])
    _bounded1_q_p_max, _bounded1_H0_max = (p.q_p_max, p.H0_max)
    M_s, M_fl, q_p, H0, q_cmd = (0.0 if _bounded1_M_s < 0.0 else _bounded1_M_s, 0.0 if _bounded1_M_fl < 0.0 else _bounded1_M_fl, 0.0 if _bounded1_q_p < 0.0 else _bounded1_q_p_max if _bounded1_q_p > _bounded1_q_p_max else _bounded1_q_p, 0.0 if _bounded1_H0 < 0.0 else _bounded1_H0_max if _bounded1_H0 > _bounded1_H0_max else _bounded1_H0, 0.0 if _bounded1_q_cmd < 0.0 else _bounded1_q_p_max if _bounded1_q_cmd > _bounded1_q_p_max else _bounded1_q_cmd)
    q_p_max, H0_max = (p.q_p_max, p.H0_max)
    C = M_s / (M_s + M_fl + p.eps)
    rho_mix = (M_s + M_fl) / (M_s / p.rho_s + M_fl / p.rho_fl + p.eps)
    rho_lo, rho_hi = (p.rho_fl, p.rho_s) if p.rho_fl < p.rho_s else (p.rho_s, p.rho_fl)
    rho_head = rho_lo if rho_mix < rho_lo else rho_mix
    rho_head = rho_hi if rho_head > rho_hi else rho_head
    C_floor = RESISTANCE_FLOOR_CONSISTENCY if C < RESISTANCE_FLOOR_CONSISTENCY else C
    C_n = p.K_ref * ((C_floor + p.eps) / p.C_ref) ** p.alpha_C
    H_static = p.K_static * rho_head
    _consistency_guard1_x = p.alpha_sig * (p.C_max - C)
    _consistency_guard1_z = math.exp(-_consistency_guard1_x if _consistency_guard1_x >= 0 else _consistency_guard1_x)
    sigma_C = 1.0 / (1.0 + _consistency_guard1_z) if _consistency_guard1_x >= 0 else _consistency_guard1_z / (1.0 + _consistency_guard1_z)
    q_star = sigma_C * u.q_p_ref
    d_q_cmd = (q_star - q_cmd) / p.tau_ref
    e_q = q_p - q_cmd
    s_q = e_q + p.lambda_q * xi_eq
    H_eq = H_static + (C_n + p.eps) * q_cmd ** p.n
    _saturation1_x = s_q / p.phi_q
    _control_law1_sat = 1.0 if _saturation1_x > 1.0 else -1.0 if _saturation1_x < -1.0 else _saturation1_x
    _control_law1_raw = H_eq - p.k_smc * _control_law1_sat
    _control_law1_low = 0.0 if _control_law1_raw < 0.0 else _control_law1_raw
    raw_cmd, H0s = (_control_law1_raw, H0_max if _control_law1_low > H0_max else _control_law1_low)
    d_H0 = (H0s - H0) / p.tau_H
    windup = raw_cmd > H0_max and e_q < 0.0 or (raw_cmd < 0.0 and e_q > 0.0)
    d_xi = 0.0 if windup else e_q
    _algebraic_flow1_dH = H0 - H_static
    _algebraic_flow1_dH = 0.0 if _algebraic_flow1_dH <= 0.0 else _algebraic_flow1_dH
    q_alg = (_algebraic_flow1_dH / (C_n + p.eps)) ** (1.0 / p.n)
    q_alg = q_p_max if q_alg > q_p_max else q_alg
    d_q_p = (q_alg - q_p) / p.tau_p
    f_s = rho_mix * C * q_p
    cap = M_s / TRANSPORT_DEPLETION_TIME
    f_s = cap if f_s > cap else f_s
    f_liq = (1.0 - u.k_ch) * (1.0 - u.gamma_K * C) * rho_mix * (1.0 - C) * q_p
    cap = M_fl / TRANSPORT_DEPLETION_TIME
    f_liq = cap if f_liq > cap else f_liq
    f_ex = p.rho_fl * u.f_fl
    f_ex = cap if f_ex > cap else f_ex
    d_M_s = -f_s
    d_M_fl = p.rho_fl * u.f_in - f_ex - f_liq
    P_h = H0 * q_p
    P_useful = H_static * q_p
    P_elec = P_h / p.eta_pm
    if not math.isfinite(C + rho_mix + C_n + H_static + q_alg + H_eq + H0s + d_M_s + d_M_fl + d_q_p + d_H0 + P_h + P_elec + y[0] + y[1] + y[2] + xi_eq + y[4] + y[5]):
        _raise_non_finite((C, rho_mix, C_n, H_static, q_alg, H_eq, H0s, d_M_s, d_M_fl, d_q_p, d_H0, P_h, P_elec), y[:6])
    derivs = (d_M_s, d_M_fl, d_q_p, d_xi, d_H0, d_q_cmd, P_h, P_useful, P_elec)
    if not full:
        return (derivs, None)
    gamma_dot = 32.0 * q_p / (math.pi * p.D_pipe ** 3)
    tau = p.tau_y + p.K_HB * gamma_dot ** p.n
    _phase_volumes1_V_fl = M_fl / p.rho_fl
    _phase_volumes1_V_s = M_s / (p.rho_s * (1.0 - p.w))
    _, _, V, _ = (_phase_volumes1_V_s, _phase_volumes1_V_fl, _phase_volumes1_V_s + _phase_volumes1_V_fl, M_s + M_fl)
    _efficiency1_ratio = P_useful / (P_h + p.eps)
    _efficiency1_low = 0.0 if _efficiency1_ratio < 0.0 else _efficiency1_ratio
    eta_h = 1.0 if _efficiency1_low > 1.0 else _efficiency1_low
    return (derivs, (C, rho_mix, V, C_n, H_static, q_alg, e_q, s_q, sigma_C, H_eq, H0s, f_s, f_liq, gamma_dot, tau, tau * gamma_dot if q_p > 0 else 0.0, P_h, P_useful, P_elec, eta_h, 0.5 * s_q * s_q))
'''

FILL_BLOCK = r'''def _fill_block(table, raw, start, stop, p):
    """Rows `start` to `stop` of `table`, rebuilt from the same rows of
    `raw`: the kernel's statements, written over a block of rows."""
    block = raw[start:stop].T.copy()
    if not np.isfinite(block).all():
        raise FloatingPointError('a raw value is not finite')
    t, y, u = block[0], block[1:10], block[10:15]
    mask = block[15].astype(int)
    xi_eq = y[3]
    _bounded1_M_s, _bounded1_M_fl, _bounded1_q_p, _bounded1_H0, _bounded1_q_cmd = y[0], y[1], y[2], y[4], y[5]
    _bounded1_q_p_max, _bounded1_H0_max = p.q_p_max, p.H0_max
    M_s, M_fl, q_p, H0, q_cmd = np.where((_bounded1_M_s < 0.0), 0.0, _bounded1_M_s), np.where((_bounded1_M_fl < 0.0), 0.0, _bounded1_M_fl), np.where((_bounded1_q_p < 0.0), 0.0, np.where((_bounded1_q_p > _bounded1_q_p_max), _bounded1_q_p_max, _bounded1_q_p)), np.where((_bounded1_H0 < 0.0), 0.0, np.where((_bounded1_H0 > _bounded1_H0_max), _bounded1_H0_max, _bounded1_H0)), np.where((_bounded1_q_cmd < 0.0), 0.0, np.where((_bounded1_q_cmd > _bounded1_q_p_max), _bounded1_q_p_max, _bounded1_q_cmd))
    q_p_max, H0_max = p.q_p_max, p.H0_max
    C = (M_s / ((M_s + M_fl) + p.eps))
    rho_mix = ((M_s + M_fl) / (((M_s / p.rho_s) + (M_fl / p.rho_fl)) + p.eps))
    rho_lo, rho_hi = ((p.rho_fl, p.rho_s) if (p.rho_fl < p.rho_s) else (p.rho_s, p.rho_fl))
    rho_head = np.where((rho_mix < rho_lo), rho_lo, rho_mix)
    rho_head = np.where((rho_head > rho_hi), rho_hi, rho_head)
    C_floor = np.where((C < RESISTANCE_FLOOR_CONSISTENCY), RESISTANCE_FLOOR_CONSISTENCY, C)
    C_n = (p.K_ref * _pow(((C_floor + p.eps) / p.C_ref), p.alpha_C))
    H_static = (p.K_static * rho_head)
    _consistency_guard1_x = (p.alpha_sig * (p.C_max - C))
    _consistency_guard1_z = _exp(np.where((_consistency_guard1_x >= 0), (-_consistency_guard1_x), _consistency_guard1_x))
    sigma_C = np.where((_consistency_guard1_x >= 0), (1.0 / (1.0 + _consistency_guard1_z)), (_consistency_guard1_z / (1.0 + _consistency_guard1_z)))
    q_star = (sigma_C * u[4])
    d_q_cmd = ((q_star - q_cmd) / p.tau_ref)
    e_q = (q_p - q_cmd)
    s_q = (e_q + (p.lambda_q * xi_eq))
    H_eq = (H_static + ((C_n + p.eps) * _pow(q_cmd, p.n)))
    _saturation1_x = (s_q / p.phi_q)
    _control_law1_sat = np.where((_saturation1_x > 1.0), 1.0, np.where((_saturation1_x < (-1.0)), (-1.0), _saturation1_x))
    _control_law1_raw = (H_eq - (p.k_smc * _control_law1_sat))
    _control_law1_low = np.where((_control_law1_raw < 0.0), 0.0, _control_law1_raw)
    raw_cmd, H0s = _control_law1_raw, np.where((_control_law1_low > H0_max), H0_max, _control_law1_low)
    d_H0 = ((H0s - H0) / p.tau_H)
    windup = (((raw_cmd > H0_max) & (e_q < 0.0)) | ((raw_cmd < 0.0) & (e_q > 0.0)))
    d_xi = np.where(windup, 0.0, e_q)
    _algebraic_flow1_dH = (H0 - H_static)
    _algebraic_flow1_dH = np.where((_algebraic_flow1_dH <= 0.0), 0.0, _algebraic_flow1_dH)
    q_alg = _pow((_algebraic_flow1_dH / (C_n + p.eps)), (1.0 / p.n))
    q_alg = np.where((q_alg > q_p_max), q_p_max, q_alg)
    d_q_p = ((q_alg - q_p) / p.tau_p)
    f_s = ((rho_mix * C) * q_p)
    cap = (M_s / TRANSPORT_DEPLETION_TIME)
    f_s = np.where((f_s > cap), cap, f_s)
    f_liq = (((((1.0 - u[0]) * (1.0 - (u[1] * C))) * rho_mix) * (1.0 - C)) * q_p)
    cap = (M_fl / TRANSPORT_DEPLETION_TIME)
    f_liq = np.where((f_liq > cap), cap, f_liq)
    f_ex = (p.rho_fl * u[3])
    f_ex = np.where((f_ex > cap), cap, f_ex)
    d_M_s = (-f_s)
    d_M_fl = (((p.rho_fl * u[2]) - f_ex) - f_liq)
    P_h = (H0 * q_p)
    P_useful = (H_static * q_p)
    P_elec = (P_h / p.eta_pm)
    if not np.isfinite(((((((((((((((((((C + rho_mix) + C_n) + H_static) + q_alg) + H_eq) + H0s) + d_M_s) + d_M_fl) + d_q_p) + d_H0) + P_h) + P_elec) + y[0]) + y[1]) + y[2]) + xi_eq) + y[4]) + y[5])).all(): raise FloatingPointError('not finite on every row')
    derivs = (d_M_s, d_M_fl, d_q_p, d_xi, d_H0, d_q_cmd, P_h, P_useful, P_elec)
    gamma_dot = ((32.0 * q_p) / (math.pi * (p.D_pipe ** 3)))
    tau = (p.tau_y + (p.K_HB * _pow(gamma_dot, p.n)))
    _phase_volumes1_V_fl = (M_fl / p.rho_fl)
    _phase_volumes1_V_s = (M_s / (p.rho_s * (1.0 - p.w)))
    _, _, V, _ = _phase_volumes1_V_s, _phase_volumes1_V_fl, (_phase_volumes1_V_s + _phase_volumes1_V_fl), (M_s + M_fl)
    _efficiency1_ratio = (P_useful / (P_h + p.eps))
    _efficiency1_low = np.where((_efficiency1_ratio < 0.0), 0.0, _efficiency1_ratio)
    eta_h = np.where((_efficiency1_low > 1.0), 1.0, _efficiency1_low)
    q_p_alg = q_alg
    Phi_v = np.where((q_p > 0), (tau * gamma_dot), 0.0)
    V_lyap = ((0.5 * s_q) * s_q)
    m = (((((y[0] != M_s) | ((y[1] != M_fl) << 1)) | ((y[2] != q_p) << 2)) | ((y[4] != H0) << 3)) | ((y[5] != q_cmd) << 4))
    protection_mask = (mask | m)
    t_prev = np.concatenate((
        [table.item(start - 1, 0) if start else math.inf], t[:-1]))
    s_prev = np.concatenate((
        [table.item(start - 1, 14) if start else 0.0], s_q[:-1]))
    dt = np.where((t > t_prev), (t - t_prev), 1.0)
    dVdt = ((s_q * (s_q - s_prev)) / dt)
    dVdt = np.where((t > t_prev), dVdt, 0.0)
    out = table[start:stop]
    out[:, 0] = t
    out[:, 1] = M_s
    out[:, 2] = M_fl
    out[:, 3] = C
    out[:, 4] = rho_mix
    out[:, 5] = V
    out[:, 6] = C_n
    out[:, 7] = H_static
    out[:, 8] = q_p
    out[:, 9] = q_p_alg
    out[:, 10] = u[4]
    out[:, 11] = q_cmd
    out[:, 12] = e_q
    out[:, 13] = y[3]
    out[:, 14] = s_q
    out[:, 15] = sigma_C
    out[:, 16] = H_eq
    out[:, 17] = H0s
    out[:, 18] = H0
    out[:, 19] = f_s
    out[:, 20] = f_liq
    out[:, 21] = u[2]
    out[:, 22] = u[3]
    out[:, 23] = u[0]
    out[:, 24] = u[1]
    out[:, 25] = gamma_dot
    out[:, 26] = tau
    out[:, 27] = Phi_v
    out[:, 28] = P_h
    out[:, 29] = P_useful
    out[:, 30] = P_elec
    out[:, 31] = eta_h
    out[:, 32] = y[6]
    out[:, 33] = y[7]
    out[:, 34] = y[8]
    out[:, 35] = V_lyap
    out[:, 36] = dVdt
    out[:, 37] = protection_mask
'''

#: (module, name) of each call the kernel or the filler reads.
CALLS = (
    ('blowdown.engine', '_bounded'),
    ('blowdown.engine', 'consistency'),
    ('blowdown.engine', 'mixture_density'),
    ('blowdown.engine', 'hydraulic_resistance'),
    ('blowdown.engine', 'static_head'),
    ('blowdown.engine', 'consistency_guard'),
    ('blowdown.engine', 'protected_reference'),
    ('blowdown.engine', 'relaxation'),
    ('blowdown.engine', 'sliding_surface'),
    ('blowdown.engine', 'equivalent_head'),
    ('blowdown.engine', 'control_law'),
    ('blowdown.smc', 'saturation'),
    ('blowdown.engine', 'algebraic_flow'),
    ('blowdown.engine', 'fiber_flow'),
    ('blowdown.engine', 'liquor_flow'),
    ('blowdown.engine', 'head_power'),
    ('blowdown.engine', 'electrical_power'),
    ('blowdown.engine', '_raise_non_finite'),
    ('blowdown.engine', 'shear_rate'),
    ('blowdown.engine', 'hb_stress'),
    ('blowdown.engine', 'phase_volumes'),
    ('blowdown.engine', 'efficiency'),
    ('blowdown.engine', 'viscous_dissipation'),
    ('blowdown.engine', 'lyapunov_value'),
    ('blowdown.engine', 'lyapunov_rate'),
)

#: By interpreter cache tag, `engine._digest` of `engine._evaluate` and of
#: each function of `CALLS`.
DIGESTS = {
    'cpython-311': (
        0xdc088a8d,  # blowdown.engine._evaluate
        0x3be4aaf9,  # blowdown.engine._bounded
        0xf1d5ed54,  # blowdown.engine.consistency
        0x99f7130e,  # blowdown.engine.mixture_density
        0xee50d02b,  # blowdown.engine.hydraulic_resistance
        0xa75f1b71,  # blowdown.engine.static_head
        0x49dc5152,  # blowdown.engine.consistency_guard
        0x23c5b40c,  # blowdown.engine.protected_reference
        0x99fb0c6b,  # blowdown.engine.relaxation
        0x6d909ee0,  # blowdown.engine.sliding_surface
        0x07ae7bc6,  # blowdown.engine.equivalent_head
        0x00fd49e2,  # blowdown.engine.control_law
        0xfc5ba307,  # blowdown.smc.saturation
        0xf7a4160e,  # blowdown.engine.algebraic_flow
        0x0a4ef26a,  # blowdown.engine.fiber_flow
        0xf6ee7798,  # blowdown.engine.liquor_flow
        0xafe6142b,  # blowdown.engine.head_power
        0xc949396b,  # blowdown.engine.electrical_power
        0x1ef57f4d,  # blowdown.engine._raise_non_finite
        0x09a9828e,  # blowdown.engine.shear_rate
        0xea390457,  # blowdown.engine.hb_stress
        0xd2470654,  # blowdown.engine.phase_volumes
        0xda45d4d6,  # blowdown.engine.efficiency
        0xa7d9edc9,  # blowdown.engine.viscous_dissipation
        0xf7e3471c,  # blowdown.engine.lyapunov_value
        0x123c79a0,  # blowdown.engine.lyapunov_rate
    ),
    'cpython-312': (
        0x07f5b030,  # blowdown.engine._evaluate
        0x4a25b170,  # blowdown.engine._bounded
        0xf1d5ed54,  # blowdown.engine.consistency
        0x99f7130e,  # blowdown.engine.mixture_density
        0xee50d02b,  # blowdown.engine.hydraulic_resistance
        0xa75f1b71,  # blowdown.engine.static_head
        0xcbb3ff95,  # blowdown.engine.consistency_guard
        0x23c5b40c,  # blowdown.engine.protected_reference
        0x99fb0c6b,  # blowdown.engine.relaxation
        0x6d909ee0,  # blowdown.engine.sliding_surface
        0x07ae7bc6,  # blowdown.engine.equivalent_head
        0xcad02efe,  # blowdown.engine.control_law
        0x13e74872,  # blowdown.smc.saturation
        0xace78caa,  # blowdown.engine.algebraic_flow
        0x0a4ef26a,  # blowdown.engine.fiber_flow
        0xf6ee7798,  # blowdown.engine.liquor_flow
        0xafe6142b,  # blowdown.engine.head_power
        0xc949396b,  # blowdown.engine.electrical_power
        0x93227a48,  # blowdown.engine._raise_non_finite
        0x79841c6a,  # blowdown.engine.shear_rate
        0xea390457,  # blowdown.engine.hb_stress
        0xd2470654,  # blowdown.engine.phase_volumes
        0x2eebc40c,  # blowdown.engine.efficiency
        0xa7d9edc9,  # blowdown.engine.viscous_dissipation
        0xf7e3471c,  # blowdown.engine.lyapunov_value
        0x123c79a0,  # blowdown.engine.lyapunov_rate
    ),
    'cpython-313': (
        0x53086c64,  # blowdown.engine._evaluate
        0xea66429d,  # blowdown.engine._bounded
        0xcb593348,  # blowdown.engine.consistency
        0xd384e944,  # blowdown.engine.mixture_density
        0x86ec25de,  # blowdown.engine.hydraulic_resistance
        0x037b3459,  # blowdown.engine.static_head
        0xbbc93a9e,  # blowdown.engine.consistency_guard
        0x7f0f2bc7,  # blowdown.engine.protected_reference
        0x08b84ffd,  # blowdown.engine.relaxation
        0x0388ae5a,  # blowdown.engine.sliding_surface
        0x9e3c4dd6,  # blowdown.engine.equivalent_head
        0x47b94d6f,  # blowdown.engine.control_law
        0x3258fe60,  # blowdown.smc.saturation
        0x88b79d55,  # blowdown.engine.algebraic_flow
        0xa0b6d3d9,  # blowdown.engine.fiber_flow
        0xc29834db,  # blowdown.engine.liquor_flow
        0x4221c51b,  # blowdown.engine.head_power
        0x596b6ced,  # blowdown.engine.electrical_power
        0xd6706751,  # blowdown.engine._raise_non_finite
        0x564131ef,  # blowdown.engine.shear_rate
        0x90a878d4,  # blowdown.engine.hb_stress
        0xd51066aa,  # blowdown.engine.phase_volumes
        0x6ced182e,  # blowdown.engine.efficiency
        0xa3125918,  # blowdown.engine.viscous_dissipation
        0xb70c4777,  # blowdown.engine.lyapunov_value
        0x5aaea56a,  # blowdown.engine.lyapunov_rate
    ),
}
