"""The scalar comparison machinery.

Everything here concerns the scalar differential inequality

    g'(t) <= -sigma(t) g + alpha(t) g**q,    q > 1,  g >= 0,

whose equality version majorizes the L2 norm of the PDE solution; sigma
and alpha may take either sign.  A decay certificate is a positive weight
mu(t); when

    alpha(t) <= mu(t)**(q-1) * (sigma(t) - mu'(t)/mu(t))   for all t,
    mu(0) * g(0) <= 1,

the envelope g(t) <= 1/mu(t) holds.  This module solves the comparison
equation by its two quadratures (with finite-time blow-up detection, one
rule placing the escape), evaluates the constant-coefficient closed form as
an independent oracle, decides certificates on time grids, taking each
parametric family's mu**(q-1) and mu'/mu from its own formula and
evaluating the residual densely only on the grid cells whose interval bounds
could decide the verdict, and verifies envelopes along computed
trajectories.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Literal, NamedTuple, Optional

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .profiles import (_BLOCK, ProfileLike, TimeLike, TimeProfile, _blocks, _check_times,
                       _derivative, _finite, _grid_block, _interval, _power, _product, _spread,
                       _table_knots, _values_at, as_time_function)

__all__ = [
    "ScalarProblem", "Certificate", "CertificateReport", "ComparisonSolution",
    "InvalidCertificateError", "comparison_solve", "bernoulli_closed_form",
    "bernoulli_blowup_time", "growth_residual", "check_certificate", "verify_envelope",
]


class InvalidCertificateError(ValueError):
    """The candidate weight mu is not positive on the checked horizon."""


@dataclass(frozen=True)
class ScalarProblem:
    """Data of the comparison inequality: sigma and alpha may change sign."""

    sigma: ProfileLike
    alpha: ProfileLike
    q: float
    g0: float

    def __post_init__(self):
        for name in ("sigma", "alpha"):
            if not callable(getattr(self, name)):  # profiles are callables of t
                raise TypeError(f"{name} must be a profile or a callable of t, "
                                f"not {getattr(self, name)!r}")
        if not (self.q > 1.0 and math.isfinite(self.q)):
            raise ValueError("exponent q must be finite and > 1")
        if not (math.isfinite(self.g0) and self.g0 >= 0.0):
            raise ValueError("initial value g0 must be finite and >= 0")

    def sigma_fn(self) -> Callable[[TimeLike], TimeLike]:
        return as_time_function(self.sigma)

    def alpha_fn(self) -> Callable[[TimeLike], TimeLike]:
        return as_time_function(self.alpha)


def _into(ufunc, x):
    """ufunc(x), written into x when x is an array; a 0-d time gives numpy scalars."""
    return ufunc(x, out=x) if isinstance(x, np.ndarray) else ufunc(x)


def _require_valid(mu: np.ndarray) -> None:
    """Raise :class:`InvalidCertificateError` unless every mu is positive and finite."""
    with np.errstate(over="ignore"):
        finite = _finite(mu)
    if not (finite and mu.min() > 0.0):
        raise InvalidCertificateError("mu must be positive and finite on the horizon")


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
    _weight: TimeProfile = field(init=False, repr=False, compare=False)  # mu, formed once

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
            weight = TimeProfile.tabulated(self.table[:, 0], self.table[:, 1])
        elif self.family == "exponential":
            weight = TimeProfile.exponential(self.mu0, self.nu)
        elif self.family == "power":
            weight = TimeProfile.power_growth(self.mu0, self.m)
        else:
            weight = TimeProfile.power_decay(self.mu1, self.nu, offset=self.mu0)
        object.__setattr__(self, "_weight", weight)

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

    def mu(self, t: TimeLike) -> TimeLike:
        return self._weight(t)

    def _growth_terms(self, t: np.ndarray, c: float, memo: dict):
        """mu**c and mu'/mu at the checked float array t, each family's
        from its own formula, reading the powers of t in ``memo`` (see
        :func:`rdcert.profiles._power`):

        ===========  =============================  ===================================
        family       mu**c                          mu'/mu
        ===========  =============================  ===================================
        exponential  exp(c (log mu0 + nu t))        nu
        power        exp(c (log mu0 + m log1p t))   m (1 + t)**-1
        bounded      exp(c log mu)                  -nu mu1 (1 + t)**-nu (1 + t)**-1 / mu
        custom       mu**c                          the table's slope / mu
        ===========  =============================  ===================================

        Both are new values (a numpy scalar for a 0-d t) or mu'/mu the
        float nu.  Taken in logs, one log and one exp are cheaper than
        numpy's power, and past the double range it reads inf or 0 rather
        than inf * 0.  Whether mu is positive and finite is not checked here
        (see :func:`check_certificate`)."""
        profile = self._weight
        if self.family == "custom":
            mu = np.asarray(_values_at(profile, t, memo), dtype=float)
            return mu ** c, _derivative(profile, t, memo) / mu
        if self.family == "bounded":
            mu = _values_at(profile, t, memo)  # a new array, reading (1 + t)**-nu
            log_derivative = _power(t, -self.nu, memo) * (-self.nu * self.mu1)
            log_derivative *= _power(t, -1.0, memo)
            log_derivative /= mu
            log_mu = _into(np.log, mu)
        else:
            if self.family == "exponential":
                log_mu = self.nu * t
                log_derivative = self.nu
            else:
                log_mu = np.log1p(t)
                log_mu *= self.m
                log_derivative = _power(t, -1.0, memo) * self.m
            log_mu += math.log(self.mu0)
        log_mu *= c
        return _into(np.exp, log_mu), log_derivative

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
# Comparison equation: two cumulative quadratures, blow-up where J = 1
# ---------------------------------------------------------------------------

# Intervals of the first grid (at least 4 a segment), and the most the
# doubling may reach.
_FIRST_INTERVALS = 64
_MAX_INTERVALS = 1 << 20


@dataclass
class ComparisonSolution:
    """The majorant g on [0, end]; blowup_time is None when g exists on the
    whole horizon, and end is then the horizon."""

    blowup_time: Optional[float]
    _dense: Optional[Callable]  # t -> (Sigma, J); None when g0 = 0 or g blows up at 0
    _end: float
    _g0: float
    _q: float

    def value(self, t: TimeLike) -> TimeLike:
        """g at a float time t, or at each time of an array t (an array of
        t's shape), each with the bits of its own one-time call: inf at a
        t > 0 at or past a detected blow-up, g0 at t = 0 even when the
        blow-up time underflows to 0, and a ValueError for a time outside
        [0, end] before the blow-up."""
        ts = np.array(t, dtype=float, ndmin=1)
        blown = (np.zeros(ts.shape, dtype=bool) if self.blowup_time is None
                 else (ts > 0.0) & (ts >= self.blowup_time))
        inside = (ts >= -1e-12) & (ts <= self._end + 1e-12) | blown
        if not inside.all():
            bad = t if np.ndim(t) == 0 else float(ts[np.argmin(inside)])
            raise ValueError(f"time {bad} outside the integrated range")
        if self._dense is None:
            g = np.full(ts.shape, self._g0)
        else:
            big_sigma, j = self._dense(np.clip(ts, 0.0, self._end))
            with np.errstate(over="ignore", divide="ignore"):
                g = np.exp(math.log(self._g0) - big_sigma
                           - np.log1p(-np.minimum(j, 1.0)) / (self._q - 1.0))
        g[blown] = math.inf
        return float(g[0]) if np.ndim(t) == 0 else g.reshape(np.shape(t))


@dataclass
class _Quadrature:
    """Sigma and J, with their integrands sigma and J', at the nodes t of
    one level of the doubling in :func:`comparison_solve`, whose segments
    have m intervals each."""

    t: np.ndarray
    sigma: np.ndarray       # Sigma' at the nodes
    rate: np.ndarray        # J' at the nodes
    big_sigma: np.ndarray
    j: np.ndarray
    escape: Optional[int]   # the first node with J >= 1
    m: int

    def __call__(self, ts: np.ndarray):
        """(Sigma, J) at the times ts in [0, t[-1]], or in [0, t[escape]],
        from the cubic Hermite interpolants of the node values and their
        slopes; no node past the escape is read."""
        last = len(self.t) - 2 if self.escape is None else self.escape - 1
        i = np.clip(np.searchsorted(self.t, ts, side="right") - 1, 0, last)
        h = self.t[i + 1] - self.t[i]
        u = (ts - self.t[i]) / h
        v = 1.0 - u
        # the cubic Hermite basis, with the slopes' weights scaled by h
        weights = ((1.0 + 2.0 * u) * v * v, h * u * v * v, u * u * (3.0 - 2.0 * u), -h * u * u * v)
        big_sigma = _hermite(self.big_sigma, self.sigma, i, weights)
        j = _hermite(self.j, self.rate, i, weights)
        return big_sigma, j

    def settled(self) -> bool:
        """Whether the escape is read from this grid: J and J' are finite at
        the escape node, which lies in the second half of its segment, so
        the doubling refined the time before it; or its time underflows."""
        e = self.escape
        k = (e - 1) % self.m + 1  # the escape node's place in its segment
        return (self.t[e] < sys.float_info.min
                or (2 * k > self.m and math.isfinite(self.j[e]) and math.isfinite(self.rate[e])))

    def blowup_time(self) -> float:
        """The root of the interpolant's J = 1 between the escape node and
        the node before it; a time below the normal double range reads 0."""
        i = self.escape - 1
        lo, hi = float(self.t[i]), float(self.t[i + 1])
        if hi < sys.float_info.min:
            return 0.0
        h = hi - lo
        j0, j1 = float(self.j[i]), float(self.j[i + 1])
        d0, d1 = h * float(self.rate[i]), h * float(self.rate[i + 1])

        def excess(u):  # J - 1 at lo + u h
            v = 1.0 - u
            return (j0 * (1.0 + 2.0 * u) + d0 * u) * v * v + (j1 * (3.0 - 2.0 * u) - d1 * v) * u * u - 1.0
        root = min(lo + brentq(excess, 0.0, 1.0, xtol=1e-15) * h, hi)
        return root if root >= sys.float_info.min else 0.0


def _hermite(values, slopes, i, weights):
    w00, w10, w01, w11 = weights
    return values[i] * w00 + slopes[i] * w10 + values[i + 1] * w01 + slopes[i + 1] * w11


def _breaks(end: float, *profiles: ProfileLike) -> np.ndarray:
    """0, the knots of the profiles' tables inside (0, end), and end: between
    two of them each profile is smooth, as far as can be seen, and a table
    is linear."""
    knots = np.concatenate([_table_knots(profile) for profile in profiles])
    return np.unique(np.concatenate([[0.0], knots[(knots > 0.0) & (knots < end)], [end]]))


def _nodes(breaks: np.ndarray, m: int, offsets: np.ndarray) -> np.ndarray:
    """The times breaks[s] + k (breaks[s+1] - breaks[s]) / m of each segment
    s and each k of ``offsets``."""
    steps = np.diff(breaks) / m
    return (breaks[:-1, None] + offsets[None, :] * steps[:, None]).ravel()


def _cumulative_simpson(f: np.ndarray, steps: np.ndarray, m: int):
    """The integral of f from 0 to each node of a grid of segments, each of
    m intervals (m even and at least 4) of its own length in ``steps``, and
    the Simpson panel integrals over each pair of intervals.  An even node
    sums whole panels; an odd node adds the integral over its panel's first
    interval of the cubic through the panel's three values and the node
    before it (after it, in a segment's first panel), which keeps every
    node's error at h**4."""
    h = np.repeat(steps, m // 2)  # each panel's interval
    left, mid, right = f[:-2:2], f[1::2], f[2::2]
    panels = (left + 4.0 * mid + right) * (h / 3.0)
    first = 13.0 * (left + mid) - right
    first[1:] -= f[1:-2:2]
    first[::m // 2] = 9.0 * f[:-1:m] + 19.0 * f[1::m] - 5.0 * f[2::m] + f[3::m]
    out = np.empty_like(f)
    out[0] = 0.0
    np.cumsum(panels, out=out[2::2])
    out[1::2] = out[:-2:2] + first * (h / 24.0)
    return out, panels


def _coefficient(name: str, fn, t: np.ndarray) -> np.ndarray:
    """fn(t) as a float array, checked finite: the first node where it is
    not raises a ValueError that names the coefficient and that time."""
    val = np.asarray(fn(t), dtype=float)
    finite = np.isfinite(val)
    if not finite.all():
        raise ValueError(f"{name}(t) is not finite at t = {float(t[np.argmin(finite)])!r}")
    return val


def _interleave(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """The node values of a grid whose old nodes gained the new midpoints."""
    out = np.empty(len(old) + len(new))
    out[::2] = old
    out[1::2] = new
    return out


def _quadrature(problem: ScalarProblem, c: float, log_rate0: float, end: float,
                tol: float, intervals: int) -> _Quadrature:
    """Sigma and J on [0, end], the grid doubled until the Richardson
    estimate of g's relative error is at most tol (see :func:`_estimate`).
    The grid's segments end at the knots of the coefficients' tables, where
    a slope may jump; the first grid has about ``intervals`` in all, an even
    number and at least 4 a segment.  Each doubling evaluates sigma and
    alpha at the new midpoints only.  Past an escape J' and J may leave the
    double range and read inf or nan."""
    sigma, alpha = problem.sigma_fn(), problem.alpha_fn()
    breaks = _breaks(end, problem.sigma, problem.alpha)
    m = max(4, 2 * -(-intervals // (2 * (len(breaks) - 1))))
    t = np.append(_nodes(breaks, m, np.arange(m)), end)
    s = _coefficient("sigma", sigma, t)
    a = _coefficient("alpha", alpha, t)
    previous = None
    while True:
        steps = np.diff(breaks) / m
        big_sigma, sigma_panels = _cumulative_simpson(s, steps, m)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # J' = sign(alpha) exp(log|alpha| - (q-1) Sigma + log((q-1) g0**(q-1))),
            # 0 where alpha = 0
            rate = np.log(np.abs(a))
            rate += big_sigma * -c
            rate += log_rate0
            np.copysign(np.exp(rate, out=rate), a, out=rate)
            j, rate_panels = _cumulative_simpson(rate, steps, m)
            escape = int(np.argmax(j >= 1.0))
            level = _Quadrature(t, s, rate, big_sigma, j,
                                escape if j[escape] >= 1.0 else None, m)
            if previous is not None and _estimate(previous, sigma_panels, rate_panels,
                                                  level, c) <= tol:
                return level
        if len(j) > _MAX_INTERVALS:
            raise RuntimeError(f"comparison quadrature did not reach the relative "
                               f"accuracy {tol:g} with {len(j) - 1} intervals")
        previous = sigma_panels, rate_panels
        mid = _nodes(breaks, 2 * m, np.arange(1, 2 * m, 2))
        m *= 2
        t = _interleave(t, mid)
        s = _interleave(s, _coefficient("sigma", sigma, mid))
        a = _interleave(a, _coefficient("alpha", alpha, mid))


def _estimate(previous, sigma_panels: np.ndarray, rate_panels: np.ndarray,
              level: _Quadrature, c: float) -> float:
    """Richardson estimate of g's relative error, |dSigma| + |dJ| / ((q-1)(1-J)),
    from the panels of this level and of the one before it.

    Each coarse panel's error is its two halves' sum minus itself, over 15
    (Simpson's h**4); the sum of their sizes bounds each node's error.  Both
    sums grow and 1 - J shrinks with t, so the largest estimate is the one
    at the last node it covers.  It leaves out the coarse panel that holds
    the escape, where 1 / (1 - J) grows without bound."""
    coarse_sigma, coarse_rate = previous
    kept = len(coarse_sigma)
    if level.escape is not None:
        kept = min(kept, (level.escape - 1) // 4)
        if kept == 0:
            return 0.0
    d_sigma = np.abs(sigma_panels[:2 * kept:2] + sigma_panels[1:2 * kept:2]
                     - coarse_sigma[:kept]).sum()
    d_j = np.abs(rate_panels[:2 * kept:2] + rate_panels[1:2 * kept:2]
                 - coarse_rate[:kept]).sum()
    return float(d_sigma + d_j / (c * (1.0 - level.j[4 * kept]))) / 15.0


def comparison_solve(problem: ScalarProblem, horizon: float,
                     tol: float = 1e-10) -> ComparisonSolution:
    """Integrate g' = -sigma(t) g + alpha(t) g**q from g(0) = g0.

    The equation is Bernoulli: w = g**(1-q) obeys a linear equation, which an
    integrating factor solves.  Its solution is two quadratures,

        Sigma = int_0^t sigma,   J = (q-1) g0**(q-1) int_0^t alpha exp(-(q-1) Sigma),

    and g = g0 exp(-Sigma - log1p(-J)/(q-1)), which stays well conditioned
    as q -> 1.  Both are taken by the cumulative Simpson rule at every node of
    a grid, uniform between the knots of the coefficients' tables, whose
    intervals are doubled until the Richardson estimate of g's relative
    error, |dSigma| + |dJ| / ((q-1)(1-J)), is at most tol.  sigma and alpha
    may take either sign; J' takes alpha's, and falls where alpha < 0.
    Finite blow-up is the first crossing of J = 1, the root of J's cubic
    Hermite interpolant (J' is the integrand) between the two nodes around
    it; the same interpolants give g between the nodes, evaluated only at
    the times a caller passes to :meth:`ComparisonSolution.value`.  One rule
    places the escape: where it lies in the first half of its segment, or
    J or J' is past the double range at its node, it is solved again on
    [0, the node after it], so the grid resolves the time before it; where
    that range finds no escape, or would not shrink, the range is solved
    again from a first grid twice as fine.  Each pass so shortens the range
    or refines the grid.  A blow-up time below the normal double range
    reads 0, and g(0) = g0 still.  Values past the double range read inf.
    Blow-up is a reported outcome, not an error; a sigma or alpha that is
    not finite at a node is a ValueError naming that time.  The grid cannot
    see the kinks of a plain callable, where the rule converges only as
    h**2.  A grid past 2**20 intervals is a RuntimeError; so is a J that
    leaves the double range with no escape before it, as it may where
    alpha < 0 and |J| would pass e**709.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be finite and positive")
    q, g0 = problem.q, problem.g0
    if g0 == 0.0:
        return ComparisonSolution(None, None, horizon, g0, q)

    c = q - 1.0
    log_rate0 = math.log(c) + c * math.log(g0)  # log of (q-1) g0**(q-1)
    level, end, intervals = None, horizon, _FIRST_INTERVALS
    while True:
        again = _quadrature(problem, c, log_rate0, end, tol, intervals)
        if level is not None and end < level.t[-1] and again.escape is None:
            # the shorter range holds no escape, so the escape was the coarser
            # grid's: solve its range again from a grid twice as fine
            end, intervals = float(level.t[-1]), 2 * (len(level.t) - 1)
            continue
        level = again
        if level.escape is None or level.settled():
            break
        # solve again up to the node after the escape, or, where that is the
        # last node, on the same range from a grid twice as fine
        end = float(level.t[min(level.escape + 1, len(level.t) - 1)])
        intervals = _FIRST_INTERVALS if end < level.t[-1] else 2 * (len(level.t) - 1)
    blowup_time = None if level.escape is None else level.blowup_time()
    end = horizon if blowup_time is None else blowup_time
    return ComparisonSolution(blowup_time, None if end == 0.0 else level, end, g0, q)


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
    """Outcome of the certificate check on the grid
    ``np.linspace(0, horizon, grid_points)``.

    ``passed`` requires the growth-condition residual to stay >= -tol at
    every grid point (and at the local refinement of the worst one) and the
    initial-value slack 1 - mu(0) g(0) to be >= -tol.  The verdict is the
    grid's, decided from the residual at the cell endpoints and inside the
    cells whose bounds could decide it (see :func:`check_certificate`):
    the verdict of every grid point evaluated.  ``evaluated_points`` counts
    the grid points at which the residual was evaluated, cell endpoints
    included and the refinement's calls not.  The report holds the verdict
    and where it was decided, not the residuals: ``growth_residual(problem,
    cert, report.times)`` gives them.
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
    evaluated_points: int

    @property
    def times(self) -> np.ndarray:
        """The grid, ``np.linspace(0, horizon, grid_points)``, formed on each read."""
        return np.linspace(0.0, self.horizon, self.grid_points)


def growth_residual(problem: ScalarProblem, cert: Certificate, t: TimeLike) -> np.ndarray:
    """r(t) = mu**(q-1) (sigma - mu'/mu) - alpha: the growth condition of the
    certificate holds at t iff r(t) >= 0.  A 1-D t is evaluated in blocks of
    _BLOCK times into one new array, so that each block's temporaries stay
    in cache; the values are those of one whole-array evaluation.  For
    a large q the power may overflow to inf, and inf * 0 reads nan; those
    are the residual's values, so they are not warned about."""
    t = np.asarray(t, dtype=float)
    _check_times(t)
    if t.ndim != 1:
        return _residual(problem, cert, t)
    out = np.empty(len(t))
    for block in _blocks(len(t)):
        out[block] = _residual(problem, cert, t[block])
    return out


def _residual(problem: ScalarProblem, cert: Certificate, t: np.ndarray) -> np.ndarray:
    """:func:`growth_residual` at the float array t of checked times:
    mu**(q-1) and mu'/mu (see :meth:`Certificate._growth_terms`), sigma and
    alpha are evaluated in that order, all sharing one memo of the powers of
    t (see :func:`rdcert.profiles._power`), so each (1 + t)**e and
    exp(rate t) is computed once.  A profile that does not vary stays one
    number."""
    memo = {}
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 in mu' past the range: nan
        r, log_derivative = cert._growth_terms(t, problem.q - 1.0, memo)
    # sigma - mu'/mu, into mu'/mu when that is a new array; sigma's own array
    # is then free for alpha's, so a block touches fewer fresh pages
    slack = np.asarray(_values_at(problem.sigma, t, memo), dtype=float)
    if isinstance(log_derivative, np.ndarray):
        slack = np.subtract(slack, log_derivative, out=log_derivative)
    else:
        slack = slack - log_derivative
    alpha = np.asarray(_values_at(problem.alpha, t, memo), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 and inf - inf: nan
        r *= slack  # r is a new value, so the rest goes in place
        r -= alpha
    return r


@np.errstate(over="ignore", invalid="ignore")  # past the double range: inf, inf * 0: nan
def _residual_bound(problem: ScalarProblem, cert: Certificate, t: np.ndarray):
    """(lower bound, size) of r on each cell between consecutive times of
    the checked array t, by interval arithmetic on its pieces' values at t
    (see :func:`rdcert.profiles._interval`): mu**(q-1) and mu'/mu are
    monotone for every family, and a table weight's are between its knots.
    None where sigma or alpha holds a plain callable."""
    memo = {}
    sigma, alpha = _interval(problem.sigma, t, memo), _interval(problem.alpha, t, memo)
    if sigma is None or alpha is None:
        return None
    weight, log_derivative = (_spread(v) for v in cert._growth_terms(t, problem.q - 1.0, memo))
    slack = (sigma[0] - log_derivative[1], sigma[1] - log_derivative[0],
             sigma[2] + log_derivative[2])
    lo, _, size = _product(weight, slack)
    return lo - alpha[1], size + alpha[2]


# Grid intervals a cell: cell k of the certificate check spans the grid
# points k _CELL to (k + 1) _CELL (the last cell ends at the last point), so
# neighbouring cells share an endpoint; _RUN cells are evaluated at a time.
_CELL = 1024
_RUN = _BLOCK // _CELL
# A cell is passed over only when its bound clears the threshold by _MARGIN
# times the sum of the magnitudes of the bound's terms.  A computed value
# strays from the bound of the computed endpoint values by a few ulps of
# those magnitudes, and by most where an exp reads an argument near 709 with
# a few ulps of error: about 3 * 709 * 2**-53 = 2.4e-13 relative.
_MARGIN = 1e-10


class _Run(NamedTuple):
    """One dense evaluation of consecutive cells, reduced."""

    stop: int                 # the cell after the run
    argmin: int               # the grid index of its first smallest value, a NaN winning
    low: float
    first: Optional[tuple]    # (index, value, value before or None at 0) of its first value below


class _CellSearch:
    """A quantity on the grid ``np.linspace(0, horizon, n)``, evaluated at
    every cell endpoint and densely only on the cells asked for.

    ``evaluate`` maps a float array of grid times to the quantity there (an
    array); ``below`` is the threshold of :meth:`first_below`.  Given a lower
    bound of the quantity on each cell (see :meth:`lower`), a cell whose
    bound exceeds the smallest value found cannot hold the grid minimum, nor
    a tie for it, and a cell whose bound is not below the threshold holds no
    point below it.  Each run of cells is evaluated in one call, so a point
    has the bits of the whole grid's dense pass."""

    def __init__(self, horizon: float, n: int, evaluate, below: float):
        self.horizon, self.n, self.evaluate, self.below = horizon, n, evaluate, below
        self.ends = np.append(np.arange(0, n - 1, _CELL), n - 1)
        self.times = np.append(_grid_block(0.0, horizon, n, slice(0, n - 1, _CELL)), horizon)
        self.values = evaluate(self.times)
        self.runs = {}                                  # first cell -> _Run
        self.run_of = np.full(len(self.ends) - 1, -1)  # the first cell of each cell's run
        self.evaluated = len(self.ends)                 # grid points evaluated

    def time(self, i: int) -> float:
        """The grid's point i, bit for bit."""
        return _grid_block(0.0, self.horizon, self.n, slice(i, i + 1))[0]

    def lower(self, bound, knots: np.ndarray) -> np.ndarray:
        """Each cell's lower bound: ``bound`` = (lo, size) lowered by
        _MARGIN size and by the cell's endpoint values, or -inf, which marks
        a cell to evaluate densely, where ``bound`` is None, where it or an
        endpoint value is not finite, or where the closed cell holds one of
        ``knots`` past 0 (a table weight's slope at a knot is the mean of
        its two sides, so a knot at an endpoint counts)."""
        if bound is None:
            return np.full(len(self.ends) - 1, -math.inf)
        lo, size = bound
        v = self.values
        with np.errstate(over="ignore", invalid="ignore"):
            lower = np.minimum(lo - _MARGIN * size, np.minimum(v[:-1], v[1:]))
        knots = np.sort(knots[knots > 0.0])
        kinked = (np.searchsorted(knots, self.times[1:], "right")
                  > np.searchsorted(knots, self.times[:-1], "left"))
        return np.where(np.isfinite(lower) & ~kinked, lower, -math.inf)

    def evaluate_cells(self, cells: np.ndarray) -> None:
        """Evaluate densely each cell of the boolean mask ``cells`` not
        evaluated yet, in runs of at most _RUN consecutive cells."""
        todo = np.flatnonzero(cells & (self.run_of < 0))
        if not todo.size:
            return
        gaps = np.flatnonzero(np.diff(todo) != 1)
        for first, last in zip(todo[np.append(0, gaps + 1)].tolist(),
                               todo[np.append(gaps, -1)].tolist()):
            for start in range(first, last + 1, _RUN):
                self._run(start, min(start + _RUN, last + 1))

    def _run(self, start: int, stop: int) -> None:
        a, b = int(self.ends[start]), int(self.ends[stop])
        values = self.evaluate(_grid_block(0.0, self.horizon, self.n, slice(a, b + 1)))
        i = int(values.argmin())
        low = float(values[i])
        first = None
        if not low >= self.below:
            bad = values < self.below
            j = int(bad.argmax())
            if bad[j]:
                # j = 0 past the grid's point 0 is never read: the cell ending
                # at the run's first point holds that value and comes first
                first = a + j, float(values[j]), float(values[j - 1]) if j else None
        self.runs[start] = _Run(stop, a + i, low, first)
        self.run_of[start:stop] = start
        self.evaluated += b - a - (stop - start)

    def minimum(self) -> tuple:
        """(index, value) of the first smallest value evaluated, a NaN
        winning, as ``np.argmin`` picks them."""
        i = int(self.values.argmin())
        found = [(int(self.ends[i]), float(self.values[i]))]
        found += [(run.argmin, run.low) for run in self.runs.values()]
        nans = [f for f in found if f[1] != f[1]]
        return min(nans) if nans else min(found, key=lambda f: (f[1], f[0]))

    def first_below(self, lower: np.ndarray) -> Optional[tuple]:
        """(index, value, value before or None at index 0) of the first grid
        point below the threshold, or None: the cells whose ``lower`` bound
        is below it are evaluated in order until one holds such a point."""
        candidates = np.flatnonzero(lower < self.below)
        k = 0
        while k < len(candidates):
            c = int(candidates[k])
            if self.run_of[c] < 0:
                ahead = candidates[k:k + _RUN]
                fresh = (ahead == c + np.arange(len(ahead))) & (self.run_of[ahead] < 0)
                self._run(c, c + (len(ahead) if fresh.all() else int(fresh.argmin())))
            run = self.runs[int(self.run_of[c])]
            if run.first is not None:
                return run.first
            k = int(np.searchsorted(candidates, run.stop))
        return None


def check_certificate(problem: ScalarProblem, cert: Certificate, horizon: float,
                      grid_points: int = 10_000, tol: float = 0.0) -> CertificateReport:
    """Decide both certificate conditions on the grid
    ``np.linspace(0, horizon, grid_points)``.

    First, mu must be positive and finite on all of [0, horizon], else
    :class:`InvalidCertificateError` is raised before sigma or alpha is
    evaluated.  Each parametric weight is monotone and a table weight is
    linear between its knots, so mu's values at 0, at the horizon and at
    the table's knots between them decide that exactly.  Then the verdict
    reads the residual of :func:`growth_residual` on the grid: its minimum,
    sharpened by bounded scalar minimization between the minimum's
    neighbours, and its first point below -tol, from which bisection locates
    the first sign change, so a failure carries a meaningful time.

    The grid is cut into cells of _CELL intervals.  The residual is
    evaluated at every cell endpoint, and each cell gets a lower bound by
    interval arithmetic on the endpoint values of r's monotone pieces (see
    :func:`_residual_bound`).  Only the cells that could hold the grid
    minimum, and those in order that could hold a point below -tol until the
    first is found, are evaluated densely; so is every cell that no bound
    covers: a table knot inside it, a value or bound that is not finite, or
    a plain-callable sigma or alpha, which leaves every cell without one.
    The verdict, the worst residual and time, the first violation and the
    errors are those of one whole-grid evaluation, bit for bit, and no
    residual array is kept.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError("horizon must be finite and positive")
    if grid_points < 2:
        raise ValueError("need at least 2 grid points")
    weight = cert._weight
    _require_valid(np.asarray(_values_at(weight, _breaks(horizon, weight), {}), dtype=float))
    knots = np.concatenate([_table_knots(p) for p in (problem.sigma, problem.alpha, weight)])
    try:
        search = _CellSearch(horizon, grid_points, partial(_residual, problem, cert), -tol)
        lower = search.lower(_residual_bound(problem, cert, search.times), knots)
        search.evaluate_cells(lower == -math.inf)
        i_min, worst_residual = search.minimum()
        search.evaluate_cells(lower <= worst_residual)  # a NaN minimum needs no more
        i_min, worst_residual = search.minimum()
        first_bad = None if worst_residual >= -tol else search.first_below(lower)
    except Exception:
        # the whole grid's evaluation raises what every point's check would:
        # sigma's errors before alpha's, wherever on the grid each arises
        _residual(problem, cert, _grid_block(0.0, horizon, grid_points, slice(0, grid_points)))
        raise

    def residual_at(t):
        return float(growth_residual(problem, cert, t))

    worst_t = float(search.time(i_min))
    lo = search.time(max(i_min - 1, 0))
    hi = search.time(min(i_min + 1, grid_points - 1))
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
        if first_bad is not None:
            j, r_j, before = first_bad
            if before is not None and before >= -tol and before != r_j:
                first_violation_t = float(brentq(
                    lambda s: residual_at(s) + tol, search.time(j - 1), search.time(j),
                    xtol=1e-12))
            else:
                first_violation_t = float(search.time(j))
        else:  # only the refined minimum dips below tolerance
            first_violation_t = worst_t

    return CertificateReport(
        passed=bool(initial_ok and residual_ok),
        worst_residual=worst_residual, worst_t=worst_t, c9_slack=c9_slack,
        tol=tol, grid_points=grid_points, horizon=horizon,
        failed_condition=failed_condition, first_violation_t=first_violation_t,
        evaluated_points=search.evaluated)


def verify_envelope(times, g, cert: Certificate, slack: float = 0.02) -> np.ndarray:
    """Times at which a recorded norm series escapes the certified envelope,
    i.e. g(t) mu(t) > 1 + slack.  Empty result means the envelope holds."""
    times = np.asarray(times, dtype=float)
    g_arr = np.asarray(g, dtype=float)
    if times.shape != g_arr.shape:
        raise ValueError("times and g must have matching shapes")
    mu_vals = np.asarray(cert.mu(times), dtype=float)
    return times[g_arr * mu_vals > 1.0 + slack]
