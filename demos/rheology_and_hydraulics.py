"""Explore the open-loop physics: rheology curves and the pressure-flow law.

No integration here -- just the algebraic layer. Shows how the
Herschel-Bulkley stress grows with shear rate, how the hydraulic resistance
steepens with consistency, and how both shape the quasi-steady discharge
flow as a function of applied head.

Run:  python3 demos/rheology_and_hydraulics.py
"""

from pathlib import Path

import numpy as np

from blowdown import default_scenario, hydraulics, rheology

p = default_scenario().parameters

print("Herschel-Bulkley flow curve (tau_y = %.0f Pa, K = %.0f, n = %.2f):"
      % (p.tau_y, p.K_HB, p.n))
for q in (0.0, 0.001, 0.002, 0.003, 0.004):
    gd = rheology.shear_rate(q, p.D_pipe)
    tau = rheology.hb_stress(gd, p.tau_y, p.K_HB, p.n)
    print(f"  q = {q:.3f} m^3/s -> gamma_dot = {gd:6.2f} 1/s, "
          f"tau = {tau:6.1f} Pa, Phi_v = "
          f"{rheology.viscous_dissipation(tau, gd):8.1f} W/m^3")

print("\nhydraulic resistance vs consistency "
      "(K_ref = %.0f at C_ref = %.2f, exponent %.1f):"
      % (p.K_ref, p.C_ref, p.alpha_C))
for C in (0.02, 0.05, 0.0909, 0.10, 0.15, 0.20):
    C_n = rheology.hydraulic_resistance(C, p.K_ref, p.C_ref, p.alpha_C, p.eps)
    print(f"  C = {C:.4f} -> C_n = {C_n:10.1f}")

# The quasi-steady pressure-flow law at the reference operating point:
# no flow at all until the applied head clears the static column head.
rho_mix = 1095.26
H_static = hydraulics.static_head(rho_mix, p.K_static)
C_n = rheology.hydraulic_resistance(0.0909, p.K_ref, p.C_ref, p.alpha_C,
                                   p.eps)
print(f"\nstatic head at rho_mix = {rho_mix:.2f}: {H_static:.4f} m")
print("pressure-flow law (C_n = %.0f):" % C_n)
heads = np.array([0.0, 5.0, H_static, 20.0, 40.0, 80.0, 113.5, 120.0])
for H0 in heads:
    q = hydraulics.algebraic_flow(H0, H_static, C_n, p.n, p.eps)
    print(f"  H0 = {H0:6.1f} m -> q_p_alg = {q:.4e} m^3/s")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the figure")
else:
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
    H = np.linspace(0.0, 120.0, 400)
    for C in (0.05, 0.0909, 0.15):
        Cn = rheology.hydraulic_resistance(C, p.K_ref, p.C_ref, p.alpha_C,
                                           p.eps)
        q = [hydraulics.algebraic_flow(h, H_static, Cn, p.n, p.eps)
             for h in H]
        ax1.plot(H, q, label=f"C = {C:.2f}")
    ax1.set_xlabel("applied head H0 [m]")
    ax1.set_ylabel("q_p_alg [m$^3$/s]")
    ax1.legend()
    gd = np.linspace(0.0, 6.0, 200)
    ax2.plot(gd, [rheology.hb_stress(g, p.tau_y, p.K_HB, p.n) for g in gd])
    ax2.set_xlabel("shear rate [1/s]")
    ax2.set_ylabel("shear stress [Pa]")
    fig.tight_layout()
    target = Path(__file__).with_name("rheology_and_hydraulics.png")
    fig.savefig(target, dpi=120)
    print(f"wrote {target}")
