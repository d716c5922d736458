"""rdcert: reaction-diffusion simulation on an interval with decay-certificate
checking, Turing stability analysis and a-priori bound verification."""

from .apriori import (AgmonAggregate, PointwiseViolation, UpperSolution, agmon_aggregate,
                      build_paraboloid, constant_upper_solution, estimate_agmon_constant,
                      find_constant_upper, h2_monitor, verify_pointwise_bound)
from .grid import (Field, Grid1D, NormSet, constant_field, discrete_norms,
                   discrete_poincare_constant, lp_integrals, mode_field, noise_field,
                   norms_from_values, poincare_constant, quadrature_weights, zero_field)
from .inequality import (Certificate, CertificateReport, ComparisonSolution,
                         InvalidCertificateError, ScalarProblem, bernoulli_blowup_time,
                         bernoulli_closed_form, check_certificate, comparison_solve,
                         growth_residual, verify_envelope)
from .profiles import (CouplingBound, KineticsSpec, TimeProfile, as_time_function,
                       coupling_gamma0, effective_c0, eval_profile, eval_reaction,
                       gamma_of_t, profile_derivative, reaction_sup_bound,
                       symmetric_part_max)
from .scenarios import (HypothesisReport, Scenario, ScenarioInputs, ScenarioNotApplicable,
                        bounded_neumann_scenario, comparison_exponent,
                        exponential_decay_scenario, modulated_scenario,
                        power_decay_scenario)
from .solver import (BlowUpError, ConvergenceReport, InconclusiveOrderError,
                     ManufacturedCase, SystemSpec, Trajectory, convergence_orders,
                     energy_inequality_residuals, manufactured_system, simulate)
from .stability import (CriticalDiffusion, DispersionReport, Linearization2, ModeRate,
                        TuringConditions, critical_d1, det_m, dispersion_scan, eig2,
                        instability_band, m_of_k, trace_m, turing_conditions)

__version__ = "0.1.0"
