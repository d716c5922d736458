"""Dispersion analysis of a diffusion-driven instability.

The kinetics matrix (1, 2; -2, -2) is stable on its own (negative trace,
positive determinant), but with diffusion constants 0.5 and 10 a band of
wavenumbers picks up a positive growth rate.  This script scans the mode
matrix, prints the band and the admissible interval modes, and locates the
critical activator diffusion where the determinant crosses zero.
"""

from pathlib import Path

import numpy as np

from rdcert import (Linearization2, critical_d1, det_m, dispersion_scan, eig2,
                    symmetric_part_max, turing_conditions)
from rdcert.reporting import svg_line_plot

lin = Linearization2(a=1.0, b=2.0, c=-2.0, d=-2.0, d1=0.5, d2=10.0)

conditions = turing_conditions(lin)
print("kinetics alone stable:", conditions.kinetics_stable)
print("diffusion-driven instability:", conditions.turing_unstable)
print(f"unstable band: k in ({conditions.band[0]:.4f}, {conditions.band[1]:.4f})")

# admissible Dirichlet modes on an interval of length 4: k_n = n pi / 4
report = dispersion_scan(lin, L=4.0)
for mode in report.modes[:4]:
    tag = "UNSTABLE" if mode.unstable else "stable"
    print(f"  mode n={mode.n}: k={mode.k:.4f}, Re lambda={mode.rate.real:+.4f}  [{tag}]")

# how much the activator diffusion must grow before det M(1) returns to zero
star = critical_d1(1.0, 2.0, -2.0, -2.0, d2=10.0, k=1.0)
print(f"critical d1 at k=1: {star.d1_star:.6f} (det M(1) = {det_m(lin, 1.0):+.1f} at d1=0.5)")

# eigenvalues in the left half-plane do not make the quadratic form negative:
# the classic defective counterexample
shear = np.array([[-1.0, 3.0], [0.0, -1.0]])
print("shear matrix eigenvalues:", eig2(shear), " numerical abscissa:",
      symmetric_part_max(shear))

plot = Path("out") / "dispersion.svg"
plot.parent.mkdir(exist_ok=True)
svg_line_plot(plot,
              [(report.k, report.lam1.real, "Re lambda_1"),
               (report.k, np.zeros_like(report.k), "zero")],
              title="leading growth rate over wavenumber", xlabel="k",
              ylabel="Re lambda")
print(f"wrote {plot}")
