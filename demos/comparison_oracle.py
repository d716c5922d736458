"""The scalar comparison equation: integrating-factor solve against the closed form.

g' = -sigma g + alpha g^q majorizes the PDE norm.  It is a Bernoulli equation:
w = g^(1-q) obeys a linear equation, so with constant coefficients it is
solvable in closed form.  comparison_solve uses the same linearity for any
coefficients: two quadratures, Sigma = int sigma and
J = (q-1) g0^(q-1) int alpha exp(-(q-1) Sigma), taken by the cumulative
Simpson rule on a grid doubled until their Richardson error estimate meets
the tolerance, read back as g = g0 exp(-Sigma - log1p(-J)/(q-1)), with finite
blow-up at the first crossing of J = 1.
It must agree with the closed form to high accuracy, including the location
of finite-time blow-up when the nonlinearity wins.

Run: PYTHONPATH=src python demos/comparison_oracle.py
"""

from rdcert import (ScalarProblem, TimeProfile, bernoulli_blowup_time,
                    bernoulli_closed_form, comparison_solve)

# a decaying case: sigma > 0 and g0 below the equilibrium
sigma, alpha, q, g0 = 1.0, 0.5, 1.25, 0.5
problem = ScalarProblem(sigma=TimeProfile.constant(sigma),
                        alpha=TimeProfile.constant(alpha), q=q, g0=g0)
sol = comparison_solve(problem, 6.0, tol=1e-11)
print("decaying case: numeric vs closed form")
for t in (1.0, 4.0, 6.0):
    numeric = sol.value(t)
    exact = bernoulli_closed_form(sigma, alpha, q, g0, t)
    print(f"  t = {t}: {numeric:.12f} vs {exact:.12f} "
          f"(rel {abs(numeric - exact) / exact:.1e})")

equilibrium = (sigma / alpha) ** (1.0 / (q - 1.0))
print(f"equilibrium level (sigma/alpha)^(1/(q-1)) = {equilibrium:.2f}; "
      f"g0 above it escapes in finite time:")

# a blow-up case: negative sigma feeds the superlinear term
sigma, alpha, q, g0 = -0.5, 0.8, 1.5, 0.9
problem = ScalarProblem(sigma=TimeProfile.constant(sigma),
                        alpha=TimeProfile.constant(alpha), q=q, g0=g0)
sol = comparison_solve(problem, 10.0, tol=1e-11)
t_star = bernoulli_blowup_time(sigma, alpha, q, g0)
print(f"  detected blow-up at t = {sol.blowup_time:.9f}, closed form {t_star:.9f} "
      f"(difference {abs(sol.blowup_time - t_star):.1e})")
print(f"  g just before: {sol.value(0.99 * t_star):.3e}; "
      f"value at the detected blow-up reported as {sol.value(sol.blowup_time)}")
