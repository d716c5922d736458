"""Exponential decay certified along a computed trajectory.

Single equation on (0, pi) with Dirichlet ends: the linear part a0 = 1 pushes
the solution up, diffusion d0 = 2 wins through the Poincare constant
(sigma0 = d0 c(Omega) - a0 = 1 > 0).  A pilot run measures the multiplicative
constant that converts the nonlinearity strength into the comparison
coefficient, the certificate mu(t) = exp(sigma0 t / 2)/g(0) is checked on a
dense grid, and the envelope g(t) <= g(0) exp(-sigma0 t / 2) is verified at
every recorded step.
"""

import math
from pathlib import Path

import numpy as np

from rdcert import (Grid1D, KineticsSpec, ScenarioInputs, SystemSpec, TimeProfile,
                    agmon_aggregate, exponential_decay_scenario, mode_field, simulate,
                    verify_envelope)
from rdcert.reporting import svg_line_plot

L, d0, a0, p = math.pi, 2.0, 1.0, 2.0
grid = Grid1D(L, 128, "dirichlet")
initial = mode_field(grid, 1, 0.1 / math.sqrt(L / 2.0))  # ||u0|| = 0.1
diffusion = (TimeProfile.constant(d0, positive=True),)


def system(c0_strength):
    kin = KineticsSpec(n_components=1, linear=np.array([[a0]]),
                       nonlinearity="saturated_power",
                       c0=TimeProfile.constant(c0_strength), p=p)
    return SystemSpec(grid=grid, kinetics=kin, diffusion=diffusion, initial=initial)


# pilot run: measure the empirical constant before choosing the strength
pilot = simulate(system(0.0), 4.0, dt=2e-3)
aggregate = agmon_aggregate(pilot, p)
print(f"pilot constants: c_hat = {aggregate.c_hat:.4f}, M2_hat = {aggregate.m2_hat:.4f}")

sigma0 = d0 * (math.pi / L) ** 2 - a0
g0 = float(pilot.g[0])
q = (p + 3.0) / 4.0
admissible = 0.5 * sigma0 * g0 ** (-(q - 1.0)) / aggregate.value
c0_strength = 0.5 * admissible  # half of the sufficient bound
print(f"sigma0 = {sigma0:.3f}; choosing c0 = {c0_strength:.4f} "
      f"(admissible up to {admissible:.4f})")

traj = simulate(system(c0_strength), 20.0, dt=2e-3)
inputs = ScenarioInputs(L=L, bc="dirichlet", a0=a0, d0=d0, p=p, g0=float(traj.g[0]),
                        c0=TimeProfile.constant(c0_strength),
                        alpha_factor=agmon_aggregate(traj, p).value)
scenario = exponential_decay_scenario(inputs, horizon=float(traj.times[-1]))

print("hypotheses:", scenario.hypotheses.conditions)
violations = verify_envelope(traj.times, traj.g, scenario.certificate, slack=0.02)
print(f"envelope {scenario.envelope_description}: "
      f"{'verified' if violations.size == 0 else 'VIOLATED'}")
ratio = traj.g * np.asarray(scenario.certificate.mu(traj.times))
print(f"worst g(t) mu(t) = {float(np.max(ratio)):.4f} (certified <= 1)")

envelope = 1.0 / np.asarray(scenario.certificate.mu(traj.times))
plot = Path("out") / "exponential_decay.svg"
plot.parent.mkdir(exist_ok=True)
svg_line_plot(plot,
              [(traj.times, traj.g, "g(t)"), (traj.times, envelope, "1/mu(t)")],
              title="norm vs certified envelope", xlabel="t", ylabel="log10",
              logy=True)
print(f"wrote {plot}")
