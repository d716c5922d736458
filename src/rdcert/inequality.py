"""The scalar comparison machinery.

Everything here concerns the scalar differential inequality

    g'(t) <= -sigma(t) g + alpha(t) g**q,    q > 1,  g >= 0,

whose equality version majorizes the L2 norm of the PDE solution.  A decay
certificate is a positive weight mu(t); when

    alpha(t) <= mu(t)**(q-1) * (sigma(t) - mu'(t)/mu(t))   for all t,
    mu(0) * g(0) <= 1,

the envelope g(t) <= 1/mu(t) holds.  This module integrates the comparison
equation (with honest finite-time blow-up detection), evaluates the
constant-coefficient closed form as an independent oracle, checks certificates
on dense time grids, and verifies envelopes along computed trajectories.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Literal, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, minimize_scalar

from .profiles import ProfileLike, TimeLike, TimeProfile, as_time_function

__all__ = [
    "ScalarProblem", "Certificate", "CertificateReport", "ComparisonSolution",
    "InvalidCertificateError", "comparison_solve", "bernoulli_closed_form",
    "bernoulli_blowup_time", "growth_residual", "check_certificate", "verify_envelope",
]


class InvalidCertificateError(ValueError):
    """The candidate weight mu is not positive on the checked horizon."""


@dataclass(frozen=True)
class ScalarProblem:
    """Data of the comparison inequality: sigma may change sign, alpha >= 0."""

    sigma: ProfileLike
    alpha: ProfileLike
    q: float
    g0: float

    def __post_init__(self):
        if not (self.q > 1.0 and math.isfinite(self.q)):
            raise ValueError("exponent q must be finite and > 1")
        if not (math.isfinite(self.g0) and self.g0 >= 0.0):
            raise ValueError("initial value g0 must be finite and >= 0")

    def sigma_fn(self) -> Callable[[TimeLike], TimeLike]:
        return as_time_function(self.sigma)

    def alpha_fn(self) -> Callable[[TimeLike], TimeLike]:
        inner = as_time_function(self.alpha)

        def checked(t):
            val = inner(t)
            # scalar times, as the integrators pass them, skip the array reduction
            negative = val < 0.0 if isinstance(val, float) else np.any(np.asarray(val) < 0.0)
            if negative:
                raise ValueError("alpha(t) must be nonnegative")
            return val
        return checked


@dataclass(frozen=True)
class Certificate:
    """Candidate decay weight mu(t) > 0 from one of the parametric families.

    ============  ==========================================
    exponential   mu0 * exp(nu t)
    power         mu0 * (1 + t)**m
    bounded       mu0 + mu1 * (1 + t)**(-nu)
    custom        tabulated, linearly interpolated
    ============  ==========================================
    """

    family: Literal["exponential", "power", "bounded", "custom"]
    mu0: float = 1.0
    mu1: float = 0.0
    nu: float = 0.0
    m: float = 0.0
    table: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.family not in ("exponential", "power", "bounded", "custom"):
            raise ValueError(f"unknown certificate family {self.family!r}")
        if self.family in ("exponential", "power") and self.mu0 <= 0.0:
            raise ValueError("mu0 must be positive")
        if self.family == "bounded" and (self.mu0 <= 0.0 or self.mu1 <= 0.0 or self.nu <= 0.0):
            raise ValueError("bounded certificates need mu0, mu1, nu > 0")
        if self.family == "custom":
            if self.table is None:
                raise ValueError("custom certificates carry a (t, mu) table")
            object.__setattr__(self, "table", np.asarray(self.table, dtype=float))

    @staticmethod
    def exponential(mu0: float, nu: float) -> "Certificate":
        return Certificate("exponential", mu0=float(mu0), nu=float(nu))

    @staticmethod
    def power(mu0: float, m: float) -> "Certificate":
        return Certificate("power", mu0=float(mu0), m=float(m))

    @staticmethod
    def bounded(mu0: float, mu1: float, nu: float) -> "Certificate":
        return Certificate("bounded", mu0=float(mu0), mu1=float(mu1), nu=float(nu))

    @staticmethod
    def from_table(times, values) -> "Certificate":
        return Certificate("custom",
                           table=np.column_stack([np.asarray(times, float),
                                                  np.asarray(values, float)]))

    def _profile(self) -> TimeProfile:
        if self.family == "exponential":
            return TimeProfile.exponential(self.mu0, self.nu)
        if self.family == "power":
            return TimeProfile.power_growth(self.mu0, self.m)
        if self.family == "bounded":
            return TimeProfile.power_decay(self.mu1, self.nu, offset=self.mu0)
        return TimeProfile.tabulated(self.table[:, 0], self.table[:, 1])

    def mu(self, t: TimeLike) -> TimeLike:
        from .profiles import eval_profile
        return eval_profile(self._profile(), t)

    def mu_log_derivative(self, t: TimeLike) -> TimeLike:
        """mu'(t)/mu(t), analytic for the parametric families."""
        from .profiles import eval_profile, profile_derivative
        prof = self._profile()
        if self.family == "exponential":
            t_arr = np.asarray(t, dtype=float)
            out = np.full(t_arr.shape, self.nu)
            return float(out) if t_arr.ndim == 0 else out
        return profile_derivative(prof, t) / eval_profile(prof, t)

    @property
    def decays_to_zero_envelope(self) -> bool:
        """Whether 1/mu(t) -> 0, i.e. the certificate claims decay and not
        just boundedness."""
        if self.family == "exponential":
            return self.nu > 0.0
        if self.family == "power":
            return self.m > 0.0
        return False

    @property
    def uniform_bound(self) -> float:
        """sup over t >= 0 of the envelope 1/mu(t); inf when mu decays to 0."""
        if self.family == "custom":
            return float(1.0 / np.min(self.table[:, 1]))
        if (self.family == "exponential" and self.nu < 0.0) or \
                (self.family == "power" and self.m < 0.0):
            return math.inf
        return 1.0 / self.mu0  # mu never falls below mu0


# ---------------------------------------------------------------------------
# Comparison equation: one integrating-factor solve with blow-up as an event
# ---------------------------------------------------------------------------

# Cap on log J'.  J' only gets this large within ~exp(-200) time units of the
# blow-up event, so the cap moves no reported time; it keeps J' finite, and
# (J'/atol)**2 in the step-size control's norm too.
_LOG_RATE_CAP = 200.0
# Smallest relative tolerance scipy's RK45 accepts without a warning.
_RTOL_FLOOR = 100.0 * np.finfo(float).eps


@dataclass
class ComparisonSolution:
    """Sampled majorant trajectory; blowup_time is None when g exists on the
    whole horizon."""

    times: np.ndarray
    values: np.ndarray
    blowup_time: Optional[float]
    _dense: Optional[Callable]  # t -> (Sigma, J, 1 - J); None when g0 = 0
    _end: float
    _g0: float
    _q: float

    def value(self, t: float) -> float:
        """Evaluate at one time; returns inf beyond a detected blow-up."""
        if self.blowup_time is not None and t >= self.blowup_time:
            return math.inf
        if not -1e-12 <= t <= self._end + 1e-12:
            raise ValueError(f"time {t} outside the integrated range")
        return float(self._sample(np.array([t], dtype=float))[0])

    def _sample(self, ts: np.ndarray) -> np.ndarray:
        if self._dense is None:
            return np.zeros_like(ts)
        big_sigma, j, _ = self._dense(np.clip(ts, 0.0, self._end))
        with np.errstate(over="ignore", divide="ignore"):
            log_g = (math.log(self._g0) - big_sigma
                     - np.log1p(-np.minimum(j, 1.0)) / (self._q - 1.0))
            return np.exp(log_g)


def comparison_solve(problem: ScalarProblem, horizon: float, tol: float = 1e-10,
                     samples: int = 2001) -> ComparisonSolution:
    """Integrate g' = -sigma(t) g + alpha(t) g**q from g(0) = g0.

    The equation is Bernoulli: w = g**(1-q) obeys a linear equation, which an
    integrating factor solves.  One adaptive Runge-Kutta solve runs on

        Sigma' = sigma(t),   J' = (q-1) g0**(q-1) alpha(t) exp(-(q-1) Sigma),

    from Sigma = J = 0, and g = g0 exp(-Sigma - log1p(-J)/(q-1)).  Both
    components are smooth for every g > 0, the log1p form stays well
    conditioned as q -> 1, and finite blow-up is exactly the terminal event
    J = 1, located to event accuracy.  The step-size control asks for g's
    relative accuracy tol, tightening only as 1 - J shrinks, where J's error
    is amplified.  Values past the double range read inf.  Blow-up is a
    reported outcome, not an error.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    sigma = problem.sigma_fn()
    alpha = problem.alpha_fn()
    q, g0 = problem.q, problem.g0
    if g0 == 0.0:
        ts = np.linspace(0.0, horizon, samples)
        return ComparisonSolution(ts, np.zeros_like(ts), None, None, horizon, g0, q)

    c = q - 1.0
    log_rate0 = math.log(c) + c * math.log(g0)  # log of (q-1) g0**(q-1)

    def rhs(t, y):
        s, a = sigma(t), alpha(t)
        if a == 0.0:  # no exp: it may overflow where the rate is exactly 0
            return [s, 0.0, 0.0]
        rate = math.exp(min(log_rate0 + math.log(a) - c * y[0], _LOG_RATE_CAP))
        return [s, rate, -rate]

    def blowup(t, y):
        return y[1] - 1.0
    blowup.terminal = True
    blowup.direction = 1.0

    # Tolerances in units of g's relative error, d(log g) = dJ/((q-1)(1-J)) - dSigma.
    # The third component, 1 - J, only steers the step size: its relative
    # tolerance (q-1) tol holds J's local error below (q-1)(1-J) tol, so the
    # steps tighten only where 1/(1-J) amplifies that error, on the way to
    # blow-up.  1 - J has double precision only, hence the floor.
    res = solve_ivp(rhs, (0.0, horizon), [0.0, 0.0, 1.0], method="RK45",
                    rtol=[tol, tol, max(tol * c, _RTOL_FLOOR)], atol=[tol, tol * c, 0.0],
                    dense_output=True, events=blowup)
    if not res.success:
        raise RuntimeError(f"comparison integration failed: {res.message}")
    blowup_time = float(res.t_events[0][0]) if res.status == 1 else None
    end = float(res.t[-1])
    ts = np.linspace(0.0, end, samples)
    if blowup_time is not None:
        ts = ts[:-1]  # the blow-up instant itself has no finite value
    sol = ComparisonSolution(ts, np.empty_like(ts), blowup_time, res.sol, end, g0, q)
    sol.values = sol._sample(ts)
    return sol


def bernoulli_closed_form(sigma: float, alpha: float, q: float, g0: float,
                          t: float) -> float:
    """Exact solution of g' = -sigma g + alpha g**q with constant coefficients.

    Through w = g**(1-q) the equation is linear; in the stable form

        w(t) = w0 exp(x) - alpha (q-1) t * expm1(x)/x,   x = (q-1) sigma t,

    which is cancellation-free uniformly in sigma (including sigma = 0).
    Where exp(x) overflows, exp(x) is factored out and w is taken in logs.
    Returns inf at or past the finite blow-up time (w <= 0), and for values
    past the double range.
    """
    if q <= 1.0:
        raise ValueError("q must exceed 1")
    if g0 < 0.0:
        raise ValueError("g0 must be >= 0")
    if g0 == 0.0:
        return 0.0
    if t < 0.0:
        raise ValueError("t must be >= 0")
    x = (q - 1.0) * sigma * t
    try:
        w0 = g0 ** (1.0 - q)
    except OverflowError:
        w0 = math.inf
    if not (sys.float_info.min <= w0 < math.inf):
        return _bernoulli_in_logs((1.0 - q) * math.log(g0), x, alpha, q, t)
    try:
        ramp = 1.0 if x == 0.0 else math.expm1(x) / x
        w = w0 * math.exp(x) - alpha * (q - 1.0) * t * ramp
    except OverflowError:  # x > ~709: w = exp(x) * bracket, taken in logs
        bracket = w0 + alpha * (q - 1.0) * t * math.expm1(-x) / x
        if bracket <= 0.0:
            return math.inf
        return math.exp(-(x + math.log(bracket)) / (q - 1.0))
    if w <= 0.0:
        return math.inf
    try:
        return w ** (-1.0 / (q - 1.0))
    except OverflowError:  # g itself is past the double range
        return math.inf


def _bernoulli_in_logs(log_w0: float, x: float, alpha: float, q: float,
                       t: float) -> float:
    """g(t) of :func:`bernoulli_closed_form` from log w0, for w0 past the
    normal double range: w = exp(log_w0 + x) - a with a = alpha (q-1) t
    expm1(x)/x, so log w = log_w0 + x + log1p(-a exp(-(log_w0 + x)))."""
    log_growth = log_w0 + x
    a = alpha * (q - 1.0) * t
    if a > 0.0:
        if x == 0.0:
            log_ramp = 0.0
        elif x > 700.0:  # expm1(x)/x = exp(x) (1 - exp(-x)) / x
            log_ramp = x + math.log1p(-math.exp(-x)) - math.log(x)
        else:
            log_ramp = math.log(math.expm1(x) / x)
        log_a = math.log(a) + log_ramp
        if log_a >= log_growth:
            return math.inf  # w <= 0: at or past the blow-up time
        log_growth += math.log1p(-math.exp(log_a - log_growth))
    return _exp_or_inf(-log_growth / (q - 1.0))


def bernoulli_blowup_time(sigma: float, alpha: float, q: float, g0: float) -> Optional[float]:
    """Finite blow-up time of the constant-coefficient comparison equation,
    or None when the solution is global.

    t* = -log1p(-w0 sigma / alpha) / ((q-1) sigma), with the sigma -> 0 limit
    w0 / ((q-1) alpha); blow-up happens iff alpha > 0 and sigma < alpha/w0.
    w0 = g0**(1-q) enters only through logs, so it may lie past the double
    range; a blow-up time past it reads inf.
    """
    if q <= 1.0:
        raise ValueError("q must exceed 1")
    if g0 <= 0.0 or alpha <= 0.0:
        return None
    c = q - 1.0
    log_w0 = -c * math.log(g0)
    if sigma == 0.0:
        return _exp_or_inf(log_w0 - math.log(c * alpha))
    x = log_w0 + math.log(abs(sigma)) - math.log(alpha)  # log |w0 sigma / alpha|
    if sigma > 0.0:
        if x >= 0.0:
            return None  # equilibrium shields the solution: no finite escape
        return -math.log1p(-math.exp(x)) / (c * sigma)
    # log1p(exp(x)), without overflow for large x
    return (max(x, 0.0) + math.log1p(math.exp(-abs(x)))) / (-c * sigma)


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Certificate checking
# ---------------------------------------------------------------------------

@dataclass
class CertificateReport:
    """Outcome of the dense-grid certificate check.

    ``passed`` requires the growth-condition residual to stay >= -tol on the
    grid (after local refinement of the worst point) and the initial-value
    slack 1 - mu(0) g(0) to be >= -tol.
    """

    passed: bool
    worst_residual: float
    worst_t: float
    c9_slack: float
    tol: float
    grid_points: int
    horizon: float
    failed_condition: Optional[str]       # "initial_condition" | "residual"
    first_violation_t: Optional[float]
    times: np.ndarray
    residuals: np.ndarray


def growth_residual(problem: ScalarProblem, cert: Certificate, t: TimeLike) -> np.ndarray:
    """r(t) = mu**(q-1) (sigma - mu'/mu) - alpha: the growth condition of the
    certificate holds at t iff r(t) >= 0.  For a large q the power may
    overflow to inf; that is the residual's value, so it is not warned about."""
    t_arr = np.asarray(t, dtype=float)
    mu = np.asarray(cert.mu(t_arr), dtype=float)
    slack = (np.asarray(problem.sigma_fn()(t_arr), dtype=float)
             - np.asarray(cert.mu_log_derivative(t_arr), dtype=float))
    alpha = np.asarray(problem.alpha_fn()(t_arr), dtype=float)
    with np.errstate(over="ignore"):
        return mu ** (problem.q - 1.0) * slack - alpha


def check_certificate(problem: ScalarProblem, cert: Certificate, horizon: float,
                      grid_points: int = 10_000, tol: float = 0.0) -> CertificateReport:
    """Evaluate both certificate conditions on a dense time grid.

    The residual is :func:`growth_residual`; the grid minimum is sharpened
    by bounded scalar minimization between its neighbours, and the first sign
    change is located by bisection so failures carry a meaningful time.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if grid_points < 2:
        raise ValueError("need at least 2 grid points")
    ts = np.linspace(0.0, horizon, grid_points)
    mu_vals = np.asarray(cert.mu(ts), dtype=float)
    if not np.all(np.isfinite(mu_vals)) or np.any(mu_vals <= 0.0):
        raise InvalidCertificateError("mu must be positive and finite on the horizon")

    def residual_at(t):
        return float(growth_residual(problem, cert, t))

    residuals = growth_residual(problem, cert, ts)
    i_min = int(np.argmin(residuals))
    worst_residual = float(residuals[i_min])
    worst_t = float(ts[i_min])
    lo = ts[max(i_min - 1, 0)]
    hi = ts[min(i_min + 1, grid_points - 1)]
    if hi > lo:
        refined = minimize_scalar(residual_at, bounds=(lo, hi),
                                  method="bounded", options={"xatol": 1e-12 * max(horizon, 1.0)})
        if refined.fun < worst_residual:
            worst_residual = float(refined.fun)
            worst_t = float(refined.x)

    c9_slack = 1.0 - float(cert.mu(0.0)) * problem.g0
    initial_ok = c9_slack >= -tol
    residual_ok = worst_residual >= -tol

    failed_condition = None
    first_violation_t = None
    if not initial_ok:
        failed_condition = "initial_condition"
        first_violation_t = 0.0
    elif not residual_ok:
        failed_condition = "residual"
        bad = np.nonzero(residuals < -tol)[0]
        if bad.size:
            j = int(bad[0])
            if j > 0 and residuals[j - 1] >= -tol and residuals[j - 1] != residuals[j]:
                first_violation_t = float(brentq(
                    lambda s: residual_at(s) + tol, ts[j - 1], ts[j], xtol=1e-12))
            else:
                first_violation_t = float(ts[j])
        else:  # only the refined minimum dips below tolerance
            first_violation_t = worst_t

    return CertificateReport(
        passed=bool(initial_ok and residual_ok),
        worst_residual=worst_residual, worst_t=worst_t, c9_slack=c9_slack,
        tol=tol, grid_points=grid_points, horizon=horizon,
        failed_condition=failed_condition, first_violation_t=first_violation_t,
        times=ts, residuals=residuals)


def verify_envelope(times, g, cert: Certificate, slack: float = 0.02) -> np.ndarray:
    """Times at which a recorded norm series escapes the certified envelope,
    i.e. g(t) mu(t) > 1 + slack.  Empty result means the envelope holds."""
    times = np.asarray(times, dtype=float)
    g_arr = np.asarray(g, dtype=float)
    if times.shape != g_arr.shape:
        raise ValueError("times and g must have matching shapes")
    mu_vals = np.asarray(cert.mu(times), dtype=float)
    return times[g_arr * mu_vals > 1.0 + slack]
