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
from dataclasses import dataclass
from typing import Callable, Literal, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, minimize_scalar

from .profiles import ProfileLike, TimeLike, TimeProfile, as_time_function

__all__ = [
    "ScalarProblem", "Certificate", "CertificateReport", "ComparisonSolution",
    "InvalidCertificateError", "comparison_solve", "bernoulli_closed_form",
    "bernoulli_blowup_time", "check_certificate", "verify_envelope",
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
        """sup over t >= 0 of the envelope 1/mu(t)."""
        if self.family == "bounded":
            return 1.0 / self.mu0
        if self.family == "custom":
            return float(1.0 / np.min(self.table[:, 1]))
        return 1.0 / self.mu0  # exponential/power with nonnegative rate


# ---------------------------------------------------------------------------
# Comparison equation: adaptive integration with blow-up detection
# ---------------------------------------------------------------------------

_SWITCH_HI = 1e8  # hand over to the reciprocal-power variable above this level


@dataclass
class ComparisonSolution:
    """Sampled majorant trajectory; blowup_time is None when g exists on the
    whole horizon."""

    times: np.ndarray
    values: np.ndarray
    blowup_time: Optional[float]
    _pieces: list

    def value(self, t: float) -> float:
        """Evaluate at one time; returns inf beyond a detected blow-up."""
        if self.blowup_time is not None and t >= self.blowup_time:
            return math.inf
        for (t0, t1, sol, kind, q) in self._pieces:
            if t0 - 1e-12 <= t <= t1 + 1e-12:
                y = float(sol(np.clip(t, t0, t1))[0])
                if kind == "g":
                    return max(y, 0.0)
                return y ** (-1.0 / (q - 1.0)) if y > 0.0 else math.inf
        raise ValueError(f"time {t} outside the integrated range")

    def _sample(self, ts: np.ndarray) -> np.ndarray:
        out = np.empty_like(ts)
        out.fill(np.nan)
        for (t0, t1, sol, kind, q) in self._pieces:
            mask = (ts >= t0 - 1e-12) & (ts <= t1 + 1e-12) & np.isnan(out)
            if not np.any(mask):
                continue
            y = sol(np.clip(ts[mask], t0, t1))[0]
            if kind == "g":
                out[mask] = np.maximum(y, 0.0)
            else:
                out[mask] = np.where(y > 0.0, y, np.nan) ** (-1.0 / (q - 1.0))
                out[mask] = np.where(y > 0.0, out[mask], np.inf)
        return out


def comparison_solve(problem: ScalarProblem, horizon: float, tol: float = 1e-10,
                     samples: int = 2001) -> ComparisonSolution:
    """Integrate g' = -sigma(t) g + alpha(t) g**q from g(0) = g0.

    Embedded adaptive Runge-Kutta on the g equation; once g exceeds a large
    threshold the integration switches to w = g**(1-q) (linear dynamics, with
    blow-up exactly at the w = 0 crossing) so finite blow-up times are located
    to event accuracy rather than by overflow.  The state is clamped at the
    absorbing value 0.  Blow-up is a reported outcome, not an error.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    sigma = problem.sigma_fn()
    alpha = problem.alpha_fn()
    q = problem.q
    if problem.g0 == 0.0:
        ts = np.linspace(0.0, horizon, samples)
        return ComparisonSolution(ts, np.zeros_like(ts), None, [])

    def rhs_g(t, y):
        g = max(y[0], 0.0)
        return [-sigma(t) * y[0] + alpha(t) * g ** q]

    def rhs_w(t, y):
        return [(q - 1.0) * (sigma(t) * y[0] - alpha(t))]

    def hit_hi(t, y):
        return y[0] - _SWITCH_HI
    hit_hi.terminal = True
    hit_hi.direction = 1.0

    w_resume_level = (0.1 * _SWITCH_HI) ** (1.0 - q)

    def w_zero(t, y):
        return y[0]
    w_zero.terminal = True
    w_zero.direction = -1.0

    def w_resume(t, y):
        return y[0] - w_resume_level
    w_resume.terminal = True
    w_resume.direction = 1.0

    pieces = []
    blowup_time = None
    t0, y0, mode = 0.0, float(problem.g0), "g"
    for _ in range(64):  # alternating segments; far more than ever needed
        if mode == "g":
            res = solve_ivp(rhs_g, (t0, horizon), [y0], method="RK45",
                            rtol=tol, atol=tol * 1e-6, dense_output=True,
                            events=[hit_hi])
            if not res.success:
                raise RuntimeError(f"comparison integration failed: {res.message}")
            pieces.append((t0, res.t[-1], res.sol, "g", q))
            if res.status == 1:  # crossed the switch level: continue in w
                t0 = float(res.t_events[0][0])
                y0 = _SWITCH_HI ** (1.0 - q)
                mode = "w"
                continue
            break
        res = solve_ivp(rhs_w, (t0, horizon), [y0], method="RK45",
                        rtol=min(tol, 1e-10), atol=1e-14, dense_output=True,
                        events=[w_zero, w_resume])
        if not res.success:
            raise RuntimeError(f"comparison integration failed: {res.message}")
        pieces.append((t0, res.t[-1], res.sol, "w", q))
        if res.status == 1 and res.t_events[0].size:  # w hit zero: finite blow-up
            blowup_time = float(res.t_events[0][0])
            break
        if res.status == 1 and res.t_events[1].size:  # back below the level
            t0 = float(res.t_events[1][0])
            y0 = 0.1 * _SWITCH_HI
            mode = "g"
            continue
        break

    end = blowup_time if blowup_time is not None else horizon
    ts = np.linspace(0.0, end, samples)
    if blowup_time is not None:
        ts = ts[:-1]  # the blow-up instant itself has no finite value
    sol = ComparisonSolution(ts, np.empty_like(ts), blowup_time, pieces)
    sol.values = sol._sample(ts)
    return sol


def bernoulli_closed_form(sigma: float, alpha: float, q: float, g0: float,
                          t: float) -> float:
    """Exact solution of g' = -sigma g + alpha g**q with constant coefficients.

    Through w = g**(1-q) the equation is linear; in the stable form

        w(t) = w0 exp(x) - alpha (q-1) t * expm1(x)/x,   x = (q-1) sigma t,

    which is cancellation-free uniformly in sigma (including sigma = 0).
    Returns inf at or past the finite blow-up time (w <= 0).
    """
    if q <= 1.0:
        raise ValueError("q must exceed 1")
    if g0 < 0.0:
        raise ValueError("g0 must be >= 0")
    if g0 == 0.0:
        return 0.0
    if t < 0.0:
        raise ValueError("t must be >= 0")
    w0 = g0 ** (1.0 - q)
    x = (q - 1.0) * sigma * t
    ramp = 1.0 if x == 0.0 else math.expm1(x) / x
    w = w0 * math.exp(x) - alpha * (q - 1.0) * t * ramp
    if w <= 0.0:
        return math.inf
    return w ** (-1.0 / (q - 1.0))


def bernoulli_blowup_time(sigma: float, alpha: float, q: float, g0: float) -> Optional[float]:
    """Finite blow-up time of the constant-coefficient comparison equation,
    or None when the solution is global.

    t* = -log1p(-w0 sigma / alpha) / ((q-1) sigma), with the sigma -> 0 limit
    w0 / ((q-1) alpha); blow-up happens iff alpha > 0 and sigma < alpha/w0.
    """
    if q <= 1.0:
        raise ValueError("q must exceed 1")
    if g0 <= 0.0 or alpha <= 0.0:
        return None
    w0 = g0 ** (1.0 - q)
    arg = w0 * sigma / alpha
    if arg >= 1.0:
        return None  # equilibrium shields the solution: no finite escape
    if sigma == 0.0:
        return w0 / ((q - 1.0) * alpha)
    return -math.log1p(-arg) / ((q - 1.0) * sigma)


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


def check_certificate(problem: ScalarProblem, cert: Certificate, horizon: float,
                      grid_points: int = 10_000, tol: float = 0.0) -> CertificateReport:
    """Evaluate both certificate conditions on a dense time grid.

    The residual is r(t) = mu**(q-1) (sigma - mu'/mu) - alpha; the grid
    minimum is sharpened by bounded scalar minimization between its
    neighbours, and the first sign change is located by bisection so failures
    carry a meaningful time.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if grid_points < 2:
        raise ValueError("need at least 2 grid points")
    ts = np.linspace(0.0, horizon, grid_points)
    mu_vals = np.asarray(cert.mu(ts), dtype=float)
    if not np.all(np.isfinite(mu_vals)) or np.any(mu_vals <= 0.0):
        raise InvalidCertificateError("mu must be positive and finite on the horizon")
    sigma = problem.sigma_fn()
    alpha = problem.alpha_fn()
    q = problem.q

    def residual_at(t):
        t_arr = np.asarray(t, dtype=float)
        mu = np.asarray(cert.mu(t_arr), dtype=float)
        return mu ** (q - 1.0) * (np.asarray(sigma(t_arr), dtype=float)
                                  - np.asarray(cert.mu_log_derivative(t_arr), dtype=float)) \
            - np.asarray(alpha(t_arr), dtype=float)

    residuals = residual_at(ts)
    i_min = int(np.argmin(residuals))
    worst_residual = float(residuals[i_min])
    worst_t = float(ts[i_min])
    lo = ts[max(i_min - 1, 0)]
    hi = ts[min(i_min + 1, grid_points - 1)]
    if hi > lo:
        refined = minimize_scalar(lambda s: float(residual_at(s)), bounds=(lo, hi),
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
                    lambda s: float(residual_at(s)) + tol, ts[j - 1], ts[j], xtol=1e-12))
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
