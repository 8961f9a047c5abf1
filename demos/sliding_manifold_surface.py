"""Visualize the sliding manifold and where the closed loop actually lives.

Builds the (e_q, xi_eq) -> s_q surface grid, overlays the trajectory of the
default scenario on it, and prints the largest |s_q| the run reaches
against the boundary-layer width phi_q.

Run:  python3 demos/sliding_manifold_surface.py
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from blowdown import default_scenario, integrate, smc, write_manifold

scenario = default_scenario()
p = scenario.parameters

e_grid, xi_grid, s_grid = smc.manifold_grid(
    (-1.5e-3, 1.5e-3), (-12.0, 12.0), p.lambda_q, steps=61)
out_csv = Path(__file__).with_name("manifold.csv")
write_manifold(e_grid, xi_grid, s_grid, out_csv)
print(f"wrote {out_csv} ({s_grid.size} grid points)")
print(f"zero contour: xi_eq = -e_q / lambda_q (slope {-1/p.lambda_q:.0f})")

traj = integrate(replace(scenario, t_end=5.0e4))
e = traj.column("e_q")
xi = traj.column("xi_eq")
s = traj.column("s_q")

print(f"\ntrajectory stays within |s_q| <= {np.abs(s).max():.2e} "
      f"(boundary layer {p.phi_q:.0e})")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the figure")
else:
    fig, ax = plt.subplots(figsize=(7, 5))
    contour = ax.contourf(e_grid * 1e3, xi_grid, s_grid * 1e3, levels=21,
                          cmap="RdBu_r")
    fig.colorbar(contour, ax=ax, label="s_q [$10^{-3}$ m$^3$/s]")
    ax.contour(e_grid * 1e3, xi_grid, s_grid, levels=[0.0], colors="k")
    ax.plot(e * 1e3, xi, "k.", ms=2, label="closed-loop trajectory")
    ax.set_xlabel("e_q [$10^{-3}$ m$^3$/s]")
    ax.set_ylabel("xi_eq [m$^3$]")
    ax.legend(loc="upper right")
    fig.tight_layout()
    target = Path(__file__).with_name("sliding_manifold.png")
    fig.savefig(target, dpi=120)
    print(f"wrote {target}")
