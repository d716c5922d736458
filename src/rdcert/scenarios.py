"""Constructors for the specific decay/boundedness certificate scenarios.

Each constructor assembles the scalar comparison problem for one regime,
builds the matching certificate family and checks the regime's hypotheses on
a dense grid; all four then end the same way, delegating the growth condition
itself to :func:`rdcert.inequality.check_certificate`.  The verdict of a
scenario (whether it certifies decay, its uniform bound, the text of its
envelope) is derived from its certificate alone, never passed in by a
constructor.  Outcomes are reports, never proofs: every check records its
grid density and tolerance.

The four regimes (selected on the command line as run-theorem 3.1 .. 3.4):

* ``exponential_decay_scenario``: constant coefficients, Dirichlet ends,
  diffusion strong enough that sigma0 = d0 c(Omega) - a0 > 0; exponential
  certificate with rate sigma0/2.
* ``power_decay_scenario``: diffusion decaying like d0/(1+t), Dirichlet;
  power certificate (1+t)**m.
* ``bounded_neumann_scenario``: Neumann ends (no Poincare help), linear part
  destabilizing with integrable strength; bounded decreasing certificate,
  yielding boundedness without decay.
* ``modulated_scenario``: two components with a common time modulation of
  kinetics and diffusion; the sign of d0 c(Omega) - gamma0 selects between a
  power-decay certificate and a bounded one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import poincare_constant
from .inequality import (Certificate, CertificateReport, ScalarProblem, _breaks, _CellSearch,
                         check_certificate)
from .profiles import (ProfileLike, ProfileSum, TimeProfile, _interval, _power, _product, _spread,
                       _table_knots, _values_at, coupling_gamma0)

__all__ = [
    "ScenarioInputs", "HypothesisReport", "Scenario", "ScenarioNotApplicable",
    "comparison_exponent", "comparison_sigma", "exponential_decay_scenario",
    "power_decay_scenario", "bounded_neumann_scenario", "modulated_scenario",
]


class ScenarioNotApplicable(ValueError):
    """The structural preconditions of the requested scenario fail."""


def comparison_exponent(p: float) -> float:
    """Exponent of the comparison inequality induced by a degree-p nonlinearity."""
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    return (p + 3.0) / 4.0


def comparison_sigma(c_omega: float, d: Optional[ProfileLike], gamma0: float,
                     phi: ProfileLike) -> ProfileSum:
    """sigma(t) = c(Omega) d(t) - gamma0 phi(t) of the comparison inequality,
    d the diffusion lower bound and gamma0 phi(t) the linear part's rate;
    ``d = None`` leaves out the diffusion term (Neumann ends)."""
    growth = (-gamma0, (phi,))
    if d is None:
        return ProfileSum((growth,))
    return ProfileSum(((c_omega, (d,)), growth))


@dataclass(frozen=True)
class ScenarioInputs:
    """Everything a scenario constructor may need; each constructor validates
    the subset it uses, and L is checked finite and positive, as in Grid1D.

    ``c0`` is the effective nonlinearity strength of the full reaction
    (modulation folded in: :func:`rdcert.profiles.effective_c0`), any
    ``ProfileLike``, None reading 0; ``alpha_factor`` is the measured aggregate
    that converts it into the comparison coefficient alpha(t) = alpha_factor *
    c0(t), the :class:`ProfileSum` :meth:`alpha` returns.
    """

    L: float
    bc: str = "dirichlet"
    a0: Optional[float] = None
    matrix: Optional[np.ndarray] = None
    d0: Optional[float] = None
    d1: Optional[float] = None
    d2: Optional[float] = None
    gamma0: Optional[float] = None
    k: Optional[float] = None
    m: Optional[float] = None
    nu: Optional[float] = None
    mu0: Optional[float] = None
    mu1: Optional[float] = None
    phi: Optional[TimeProfile] = None
    c0: Optional[ProfileLike] = None
    p: float = 2.0
    g0: Optional[float] = None
    alpha_factor: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.L) and self.L > 0.0):
            raise ValueError("interval length L must be finite and positive")

    def alpha(self) -> ProfileSum:
        factor = self.alpha_factor
        if not math.isfinite(factor):
            raise ScenarioNotApplicable(f"alpha_factor = {factor} is not finite: the "
                                        "measured factor is past the double range")
        c0 = TimeProfile.constant(0.0) if self.c0 is None else self.c0
        return ProfileSum(((factor, (c0,)),))


@dataclass
class HypothesisReport:
    """Named boolean conditions plus diagnostic numbers for one scenario."""

    applicable: bool
    conditions: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    first_failure_t: Optional[float] = None

    @property
    def passed(self) -> bool:
        return self.applicable and all(self.conditions.values())


@dataclass
class Scenario:
    """A constructed certificate scenario, ready for envelope verification.

    What it certifies is read off its certificate alone: decay when the
    envelope 1/mu(t) tends to 0, else a uniform bound when the envelope stays
    bounded.
    """

    name: str
    case: Optional[str]
    problem: ScalarProblem
    certificate: Optional[Certificate]
    hypotheses: HypothesisReport
    certificate_check: Optional[CertificateReport]

    @property
    def ready(self) -> bool:
        """All hypotheses hold and the growth condition passed on the grid."""
        return (self.hypotheses.passed and self.certificate_check is not None
                and self.certificate_check.passed)

    @property
    def certifies_decay(self) -> bool:
        return self.certificate is not None and self.certificate.decays_to_zero_envelope

    @property
    def uniform_bound(self) -> Optional[float]:
        """sup of the envelope when it stays bounded without decaying, else None."""
        if self.certificate is None or self.certifies_decay:
            return None
        bound = self.certificate.uniform_bound
        return bound if math.isfinite(bound) else None

    @property
    def envelope_description(self) -> str:
        cert = self.certificate
        if cert is None:
            return "undecided boundary case"
        bound = self.uniform_bound
        if bound is not None:
            return f"1/mu(t), uniformly <= {bound:.6g}"
        # the scenarios' exponential and power weights start at mu0 = 1/g0
        if cert.family == "exponential":
            return f"g0 * exp({-cert.nu:.6g} * t)"
        return f"g0 * (1 + t)**({-cert.m:g})"

    def envelope(self, t):
        if self.certificate is None:
            raise ScenarioNotApplicable("no certificate was constructed")
        return 1.0 / np.asarray(self.certificate.mu(t), dtype=float)


def _require(inp: ScenarioInputs, names) -> None:
    missing = [n for n in names if getattr(inp, n) is None]
    if missing:
        raise ScenarioNotApplicable(f"missing scenario inputs: {', '.join(missing)}")


def _closed_form_first_bad(alpha: ProfileLike, exponent: float, cap: float, horizon: float,
                           n: int) -> Optional[float]:
    """The first time of the grid np.linspace(0, horizon, n) at which
    (1+t)**exponent alpha(t) > cap, or None: the certificate check's cell
    search for -(1+t)**exponent alpha below -cap, each cell bounded from
    above by the endpoint values of (1+t)**exponent and of alpha's pieces."""
    def weighted(t):  # -(1+t)**exponent alpha(t), the bits of each grid point's own product
        memo = {}
        values = np.asarray(_values_at(alpha, t, memo), dtype=float)
        with np.errstate(over="ignore"):
            product = _power(t, exponent, memo) * values
        return np.negative(product, out=product)

    search = _CellSearch(horizon, n, weighted, -cap)
    memo = {}
    with np.errstate(over="ignore", invalid="ignore"):
        bound = _interval(alpha, search.times, memo)
        if bound is not None:
            _, hi, size = _product(_spread(_power(search.times, exponent, memo)), bound)
            bound = -hi, size
    first = search.first_below(search.lower(bound, _table_knots(alpha)))
    return None if first is None else float(search.time(first[0]))


def _identically_zero(profile: ProfileLike, horizon: float) -> bool:
    """Whether ``profile`` is 0 on all of [0, horizon], decided exactly from
    its pieces' values at 0, at its table knots and at the horizon: between
    two of them each piece is monotone, so it is 0 there iff it is 0 at both
    ends.  A plain callable, which no values bound, counts as nonzero, and
    so do terms that cancel."""
    with np.errstate(over="ignore", invalid="ignore"):
        bound = _interval(profile, _breaks(horizon, profile), {})
    return bound is not None and not np.any(bound[2])


def _bounded_certificate(inp: ScenarioInputs) -> Certificate:
    """The decreasing bounded weight mu0 + mu1 (1+t)**(-nu) of the inputs."""
    _require(inp, ("mu0", "mu1", "nu"))
    if not (inp.mu0 > 0.0 and inp.mu1 > 0.0 and inp.nu > 0.0):
        raise ScenarioNotApplicable("needs mu0, mu1, nu > 0")
    return Certificate.bounded(inp.mu0, inp.mu1, inp.nu)


def _certified_scenario(name: str, problem: ScalarProblem, cert: Certificate,
                        report: CertificateReport, conditions: dict, details: dict,
                        first_failure_t: Optional[float] = None,
                        case: Optional[str] = None) -> Scenario:
    """Assemble the scenario from the check ``report`` of ``cert`` against
    ``problem``.

    ``conditions`` holds the regime's own checks; the initial-value condition
    of the certificate family and the comparison inequality are added here.
    ``first_failure_t`` is the first failing time of a regime check, if any;
    otherwise the certificate check's first violation is reported.
    """
    tol = report.tol
    if cert.family == "bounded":
        # a bounded weight is fitted to g0: mu(0) g0 = 1 up to round-off
        mu_g0 = (cert.mu0 + cert.mu1) * problem.g0
        conditions["initial_value_match"] = abs(mu_g0 - 1.0) <= 1e-9 * max(1.0, mu_g0)
    else:
        conditions["initial_value"] = report.c9_slack >= -tol
    conditions["comparison_inequality"] = report.passed
    if first_failure_t is None:
        first_failure_t = report.first_violation_t
    hyp = HypothesisReport(applicable=True, conditions=conditions, details=details,
                           first_failure_t=first_failure_t)
    return Scenario(name=name, case=case, problem=problem, certificate=cert,
                    hypotheses=hyp, certificate_check=report)


def exponential_decay_scenario(inp: ScenarioInputs, horizon: float,
                               grid_points: int = 10_000,
                               tol: float = 1e-12) -> Scenario:
    """Constant-coefficient Dirichlet regime with exponential decay.

    Requires sigma0 = d0 c(Omega) - a0 > 0.  With the certificate rate
    nu = sigma0/2 the growth residual is the sufficient bound on alpha(t),
    sigma0/2 * g0**-(q-1) * exp((q-1) sigma0 t / 2), minus alpha(t): the
    certificate check, the ``comparison_inequality`` condition, decides
    whether the nonlinearity is small enough.
    The certified envelope is g0 * exp(-sigma0 t / 2).
    """
    if inp.bc != "dirichlet":
        raise ScenarioNotApplicable("exponential decay scenario needs Dirichlet ends")
    _require(inp, ("a0", "d0", "g0"))
    if not (inp.g0 > 0.0):
        raise ScenarioNotApplicable("needs g0 > 0")
    c_omega = poincare_constant(inp)
    sigma0 = inp.d0 * c_omega - inp.a0
    if sigma0 <= 0.0:
        raise ScenarioNotApplicable(
            f"not applicable: d0 c(Omega) = {inp.d0 * c_omega:.6g} does not exceed a0 = {inp.a0:.6g}")
    q = comparison_exponent(inp.p)
    nu = 0.5 * sigma0
    sigma = comparison_sigma(c_omega, TimeProfile.constant(inp.d0), inp.a0,
                             TimeProfile.constant(1.0))
    problem = ScalarProblem(sigma=sigma, alpha=inp.alpha(), q=q, g0=inp.g0)
    cert = Certificate.exponential(1.0 / inp.g0, nu)
    return _certified_scenario(
        "exponential-decay", problem, cert,
        check_certificate(problem, cert, horizon, grid_points, tol),
        conditions={"dirichlet_ends": True, "sigma_margin_positive": True},
        details={"sigma0": sigma0, "nu": nu, "q": q, "poincare": c_omega,
                 "alpha_factor": inp.alpha_factor})


def power_decay_scenario(inp: ScenarioInputs, horizon: float,
                         grid_points: int = 10_000, tol: float = 1e-12) -> Scenario:
    """Dirichlet regime with diffusion decaying like d0/(1+t) and linear decay
    rate -gamma0/(1+t)**k, certified by mu(t) = (1+t)**m / g0.

    Applicability needs k >= 1 and the margin c(Omega) d0 > gamma0 + m; the
    report also notes whether m (q - 1) < 1, in which case the admissible
    nonlinearity strength has to decay in time.
    """
    if inp.bc != "dirichlet":
        raise ScenarioNotApplicable("power decay scenario needs Dirichlet ends")
    _require(inp, ("d0", "gamma0", "k", "m", "g0"))
    if not (inp.g0 > 0.0):
        raise ScenarioNotApplicable("needs g0 > 0")
    c_omega = poincare_constant(inp)
    margin = c_omega * inp.d0 - inp.gamma0 - inp.m
    if margin <= 0.0:
        raise ScenarioNotApplicable(
            f"not applicable: c(Omega) d0 = {c_omega * inp.d0:.6g} must exceed "
            f"gamma0 + m = {inp.gamma0 + inp.m:.6g}")
    q = comparison_exponent(inp.p)
    sigma = comparison_sigma(c_omega, TimeProfile.power_decay(inp.d0, 1.0), inp.gamma0,
                             TimeProfile.power_decay(1.0, inp.k))
    problem = ScalarProblem(sigma=sigma, alpha=inp.alpha(), q=q, g0=inp.g0)
    cert = Certificate.power(1.0 / inp.g0, inp.m)
    return _certified_scenario(
        "power-decay", problem, cert, check_certificate(problem, cert, horizon, grid_points, tol),
        conditions={"dirichlet_ends": True, "k_at_least_one": inp.k >= 1.0,
                    "decay_margin_positive": True},
        details={"margin": margin, "q": q, "poincare": c_omega,
                 "m_q_minus_1": inp.m * (q - 1.0),
                 "c0_must_decay": inp.m * (q - 1.0) < 1.0,
                 "alpha_factor": inp.alpha_factor})


def bounded_neumann_scenario(inp: ScenarioInputs, horizon: float,
                             grid_points: int = 10_000, tol: float = 1e-12) -> Scenario:
    """Neumann regime with a destabilizing linear part of integrable strength,
    certified by the decreasing bounded weight mu(t) = mu0 + mu1 (1+t)**(-nu).

    Under Neumann ends the Poincare constant is zero, so sigma(t) equals the
    (negative) linear rate -gamma0/(1+t)**k.  The conclusion is boundedness
    g(t) <= 1/mu0 for all t, not decay: the envelope 1/mu(t) tends to the
    positive limit 1/mu0.

    Two growth conditions are evaluated: the closed-form sufficient bound

        alpha_factor * (1+t)**(nu+1) * c0(t) <= mu0**(q-1) * (nu mu1/mu0 - gamma0)

    and the exact grid check of the comparison inequality.  Both are decided
    on the same grid by the same cell search (see
    :func:`rdcert.inequality.check_certificate`), and the bound's first
    failing grid time is the scenario's ``first_failure_t``.  A nonzero
    alpha needs nu mu1/mu0 > gamma0; whether alpha is 0 on [0, horizon] is
    decided exactly from its pieces.  The closed-form bound ignores that
    mu(t) > mu0 for small t and can admit strengths the exact condition
    rejects; when that happens the report flags it and the exact check is
    the one that decides.
    """
    if inp.bc != "neumann":
        raise ScenarioNotApplicable("bounded scenario needs Neumann ends")
    _require(inp, ("gamma0", "k", "nu", "mu0", "mu1", "g0"))
    if not (inp.gamma0 > 0.0):
        raise ScenarioNotApplicable("needs gamma0 > 0 (destabilizing linear part)")
    cert = _bounded_certificate(inp)
    q = comparison_exponent(inp.p)
    gamma0, k, nu, mu0, mu1 = inp.gamma0, inp.k, inp.nu, inp.mu0, inp.mu1
    ratio_margin = nu * mu1 / mu0 - gamma0
    alpha = inp.alpha()
    alpha_is_zero = _identically_zero(alpha, horizon)
    if ratio_margin <= 0.0 and not alpha_is_zero:
        raise ScenarioNotApplicable(
            "not applicable: nu mu1 / mu0 must exceed gamma0 for a nonzero nonlinearity")
    sigma = comparison_sigma(0.0, None, gamma0, TimeProfile.power_decay(1.0, k))
    problem = ScalarProblem(sigma=sigma, alpha=alpha, q=q, g0=inp.g0)
    try:
        cap = mu0 ** (q - 1.0) * ratio_margin
    except OverflowError:  # mu0**(q-1) past the double range: the cap reads +-inf
        cap = math.copysign(math.inf, ratio_margin) if ratio_margin else 0.0
    report = check_certificate(problem, cert, horizon, grid_points, tol)
    first_bad = _closed_form_first_bad(alpha, nu + 1.0, cap, horizon, grid_points)
    closed_ok = first_bad is None
    scenario = _certified_scenario(
        "bounded-neumann", problem, cert, report,
        conditions={"neumann_ends": True, "nu_plus_one_le_k": nu + 1.0 <= k,
                    "ratio_margin_positive": ratio_margin > 0.0 or alpha_is_zero,
                    "closed_form_growth_bound": closed_ok},
        details={"q": q, "ratio_margin": ratio_margin, "closed_form_cap": cap,
                 "alpha_factor": inp.alpha_factor},
        first_failure_t=first_bad)
    scenario.hypotheses.details["closed_form_insufficient"] = bool(
        closed_ok and not scenario.certificate_check.passed)
    return scenario


def modulated_scenario(inp: ScenarioInputs, horizon: float,
                       grid_points: int = 10_000, tol: float = 1e-12) -> Scenario:
    """Two-component system with kinetics and diffusion sharing a positive
    modulation phi(t); the case is selected by the sign of
    d0 c(Omega) - gamma0 with d0 = min(d1, d2) and gamma0 the cross-term
    splitting bound of the kinetics matrix.

    Case "decay" (positive sign) requires phi(t) = phi0/(1+t) and rate margin
    phi0 (d0 c(Omega) - gamma0) > m; the certificate is (1+t)**m / g0.  Case
    "bounded" (negative sign) uses the decreasing bounded certificate and
    only claims g <= 1/mu0; the modulation profile is free as long as the
    comparison inequality passes.  An exactly zero sign is reported as
    undecided.
    """
    if inp.bc != "dirichlet":
        raise ScenarioNotApplicable("modulated scenario needs Dirichlet ends")
    _require(inp, ("matrix", "d1", "d2", "phi", "g0"))
    if not (inp.g0 > 0.0):
        raise ScenarioNotApplicable("needs g0 > 0")
    mat = np.asarray(inp.matrix, dtype=float)
    if mat.shape != (2, 2):
        raise ScenarioNotApplicable("needs a 2x2 kinetics matrix")
    a, b = mat[0]
    c, d = mat[1]
    bound = coupling_gamma0(a, b, c, d)
    gamma0 = bound.gamma0
    d0 = min(inp.d1, inp.d2)
    c_omega = poincare_constant(inp)
    sign = d0 * c_omega - gamma0
    q = comparison_exponent(inp.p)
    phi = inp.phi
    base_details = {
        "gamma0": gamma0, "gamma0_is_valid_bound": bound.gamma0 >= bound.form_max - 1e-12,
        "cross_terms_nonneg": bound.cross_nonneg, "form_max": bound.form_max,
        "d0": d0, "poincare": c_omega, "d0_c_omega": d0 * c_omega, "q": q,
        "alpha_factor": inp.alpha_factor,
    }
    # comparison_sigma with d = d0 phi: (d0 c(Omega) - gamma0) phi(t)
    problem = ScalarProblem(sigma=ProfileSum(((sign, (phi,)),)), alpha=inp.alpha(), q=q,
                            g0=inp.g0)

    if sign == 0.0:
        hyp = HypothesisReport(applicable=False,
                               conditions={"case_decided": False},
                               details=dict(base_details, note="d0 c(Omega) equals gamma0"))
        return Scenario(name="modulated-pair", case="undecided", problem=problem,
                        certificate=None, hypotheses=hyp, certificate_check=None)

    conditions = {"gamma0_bound_valid": bool(base_details["gamma0_is_valid_bound"])}
    if sign > 0.0:
        _require(inp, ("m",))
        if not (phi.kind == "power_decay" and phi.exponent == 1.0 and phi.offset == 0.0):
            raise ScenarioNotApplicable(
                "decay case expects modulation phi(t) = phi0/(1+t)")
        phi0 = phi.v0
        rate_margin = phi0 * sign - inp.m
        conditions["rate_margin_positive"] = rate_margin > 0.0
        cert = Certificate.power(1.0 / inp.g0, inp.m)
        return _certified_scenario(
            "modulated-pair", problem, cert,
            check_certificate(problem, cert, horizon, grid_points, tol), conditions,
            dict(base_details, phi0=phi0, rate_margin=rate_margin), case="decay")

    cert = _bounded_certificate(inp)
    return _certified_scenario("modulated-pair", problem, cert,
                               check_certificate(problem, cert, horizon, grid_points, tol),
                               conditions, base_details, case="bounded")
