"""Time-dependent scalar coefficients and reaction kinetics.

Every coefficient that varies in time (diffusion lower bound, linear decay
rate, nonlinearity strength, global modulation) is a :class:`TimeProfile`.
The reaction term has the split form ``F(u, t) = phi(t) * (A u + B(u))``
with one constant linear part ``A`` and an optional saturated power-law
nonlinearity ``B``; it does not depend on the position x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Literal, NamedTuple, Optional, Union

import numpy as np

ProfileKind = Literal["constant", "power_decay", "power_growth", "exponential", "tabulated"]
TimeLike = Union[float, np.ndarray]
ProfileLike = Union["TimeProfile", Callable[[TimeLike], TimeLike]]

_PARAMETRIC_KINDS = ("constant", "power_decay", "power_growth", "exponential")


@dataclass(frozen=True)
class TimeProfile:
    """Parametric scalar function of time, defined for t >= 0.

    Value at time t by kind:

    ==============  =========================================
    constant        v0 + offset
    power_decay     v0 * (1 + t)**(-exponent) + offset
    power_growth    v0 * (1 + t)**exponent + offset
    exponential     v0 * exp(rate * t) + offset
    tabulated       linear interpolation of (t, value) rows
    ==============  =========================================

    Tabulated profiles are only defined on [0, t_max] and refuse evaluation
    outside.  Profiles declared ``positive`` raise if they ever evaluate to a
    value <= 0 (used for diffusion bounds and certificate weights).
    """

    kind: ProfileKind = "constant"
    v0: float = 0.0
    exponent: float = 0.0
    rate: float = 0.0
    offset: float = 0.0
    table: Optional[np.ndarray] = None
    positive: bool = False

    def __post_init__(self):
        if self.kind not in _PARAMETRIC_KINDS and self.kind != "tabulated":
            raise ValueError(f"unknown profile kind {self.kind!r}")
        for name in ("v0", "exponent", "rate", "offset"):
            if not math.isfinite(float(getattr(self, name))):
                raise ValueError(f"profile parameter {name!r} must be finite")
        if self.kind == "tabulated":
            if self.table is None:
                raise ValueError("tabulated profile requires a table")
            table = np.asarray(self.table, dtype=float)
            if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 2:
                raise ValueError("profile table must have shape (m, 2) with m >= 2")
            if not np.all(np.isfinite(table)):
                raise ValueError("profile table entries must be finite")
            if table[0, 0] > 0.0:
                raise ValueError("profile table must start at t = 0")
            if np.any(np.diff(table[:, 0]) <= 0.0):
                raise ValueError("profile table times must be strictly increasing")
            object.__setattr__(self, "table", table)
        elif self.table is not None:
            raise ValueError("only tabulated profiles carry a table")

    @staticmethod
    def constant(v0: float, positive: bool = False) -> "TimeProfile":
        return TimeProfile("constant", v0=float(v0), positive=positive)

    @staticmethod
    def power_decay(v0: float, exponent: float, offset: float = 0.0,
                    positive: bool = False) -> "TimeProfile":
        return TimeProfile("power_decay", v0=float(v0), exponent=float(exponent),
                           offset=float(offset), positive=positive)

    @staticmethod
    def power_growth(v0: float, exponent: float, offset: float = 0.0,
                     positive: bool = False) -> "TimeProfile":
        return TimeProfile("power_growth", v0=float(v0), exponent=float(exponent),
                           offset=float(offset), positive=positive)

    @staticmethod
    def exponential(v0: float, rate: float, offset: float = 0.0,
                    positive: bool = False) -> "TimeProfile":
        return TimeProfile("exponential", v0=float(v0), rate=float(rate),
                           offset=float(offset), positive=positive)

    @staticmethod
    def tabulated(times, values, positive: bool = False) -> "TimeProfile":
        table = np.column_stack([np.asarray(times, float), np.asarray(values, float)])
        return TimeProfile("tabulated", table=table, positive=positive)

    def scaled(self, factor: float) -> "TimeProfile":
        """Profile evaluating to factor * value(t); every kind is closed under scaling."""
        if not math.isfinite(factor):
            raise ValueError("scale factor must be finite")
        positive = self.positive and factor > 0.0
        if self.kind == "tabulated":
            table = self.table.copy()
            table[:, 1] *= factor
            return replace(self, table=table, positive=positive)
        return replace(self, v0=factor * self.v0, offset=factor * self.offset,
                       positive=positive)

    @property
    def t_max(self) -> float:
        return float(self.table[-1, 0]) if self.kind == "tabulated" else math.inf

    def __call__(self, t: TimeLike) -> TimeLike:
        return eval_profile(self, t)


def eval_profile(profile: TimeProfile, t: TimeLike) -> TimeLike:
    """Evaluate ``profile`` at a scalar or array time t >= 0."""
    if isinstance(t, (float, int)):  # fast scalar path (np.float64 subclasses float)
        if not math.isfinite(t):
            raise ValueError("evaluation time must be finite")
        if t < 0.0:
            raise ValueError("profiles are defined for t >= 0")
        kind = profile.kind
        if kind == "constant":
            out = profile.v0 + profile.offset
        elif kind == "power_decay":
            out = profile.v0 * (1.0 + t) ** (-profile.exponent) + profile.offset
        elif kind == "power_growth":
            out = profile.v0 * (1.0 + t) ** profile.exponent + profile.offset
        elif kind == "exponential":
            out = profile.v0 * math.exp(profile.rate * t) + profile.offset
        else:
            t_top = profile.table[-1, 0]
            if t > t_top:
                raise ValueError(f"tabulated profile queried outside [0, {t_top:g}]")
            out = float(np.interp(t, profile.table[:, 0], profile.table[:, 1])) + profile.offset
        if profile.positive and out <= 0.0:
            raise ValueError("profile declared positive evaluated to a value <= 0")
        return float(out)
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("evaluation time must be finite")
    if np.any(t_arr < 0.0):
        raise ValueError("profiles are defined for t >= 0")
    kind = profile.kind
    if kind == "constant":
        val = np.full(t_arr.shape, profile.v0 + profile.offset)
    elif kind == "power_decay":
        val = profile.v0 * (1.0 + t_arr) ** (-profile.exponent) + profile.offset
    elif kind == "power_growth":
        val = profile.v0 * (1.0 + t_arr) ** profile.exponent + profile.offset
    elif kind == "exponential":
        val = profile.v0 * np.exp(profile.rate * t_arr) + profile.offset
    else:
        t_top = profile.table[-1, 0]
        if np.any(t_arr > t_top):
            raise ValueError(f"tabulated profile queried outside [0, {t_top:g}]")
        val = np.interp(t_arr, profile.table[:, 0], profile.table[:, 1]) + profile.offset
    if profile.positive and np.any(val <= 0.0):
        raise ValueError("profile declared positive evaluated to a value <= 0")
    return float(val) if scalar else val


def profile_derivative(profile: TimeProfile, t: TimeLike) -> TimeLike:
    """d/dt of a profile; analytic for parametric kinds, refined differences for tables."""
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    kind = profile.kind
    if kind == "constant":
        val = np.zeros(t_arr.shape)
    elif kind == "power_decay":
        val = -profile.exponent * profile.v0 * (1.0 + t_arr) ** (-profile.exponent - 1.0)
    elif kind == "power_growth":
        val = profile.exponent * profile.v0 * (1.0 + t_arr) ** (profile.exponent - 1.0)
    elif kind == "exponential":
        val = profile.rate * profile.v0 * np.exp(profile.rate * t_arr)
    else:
        val = np.vectorize(lambda s: _table_derivative(profile, s))(t_arr)
    return float(val) if scalar else np.asarray(val, dtype=float)


def _table_derivative(profile: TimeProfile, t: float) -> float:
    # Centered differences, halving the step until the estimate stabilizes.
    t_top = profile.table[-1, 0]
    probe = replace(profile, positive=False)
    h = max(t_top / 1024.0, 1e-8)
    prev = None
    est = 0.0
    for _ in range(48):
        lo = max(t - h, 0.0)
        hi = min(t + h, t_top)
        if hi <= lo:
            break
        est = (eval_profile(probe, hi) - eval_profile(probe, lo)) / (hi - lo)
        if prev is not None and abs(est - prev) <= 1e-9 * max(1.0, abs(est)):
            break
        prev = est
        h *= 0.5
        if h < 1e-13 * max(t_top, 1.0):
            break
    return float(est)


def as_time_function(profile: ProfileLike) -> Callable[[TimeLike], TimeLike]:
    """Adapt a TimeProfile or a plain callable to a vectorized function of t."""
    if isinstance(profile, TimeProfile):
        return lambda t: eval_profile(profile, t)
    if callable(profile):
        def wrapped(t):
            t_arr = np.asarray(t, dtype=float)
            try:
                out = np.asarray(profile(t_arr), dtype=float)
                if out.shape != t_arr.shape:
                    raise ValueError
            except (TypeError, ValueError):
                out = np.asarray([profile(float(s)) for s in np.atleast_1d(t_arr)], dtype=float)
                out = out.reshape(t_arr.shape)
            return float(out) if t_arr.ndim == 0 else out
        return wrapped
    raise TypeError(f"cannot interpret {profile!r} as a function of time")


@dataclass(frozen=True)
class KineticsSpec:
    """Reaction term F(u, t) = phi(t) * (A u + B(u)).

    ``linear`` is the constant (n, n) matrix A, stored as a finite float
    array; None stands for the zero matrix.  The only built-in nonlinearity is

        B_i(u) = -c0(t) * u_i * |u|**(p-1) / (1 + |u|**(p-1))

    which vanishes at u = 0 and satisfies |B(u)| <= c0(t) * |u|**p for all u.
    ``modulation`` multiplies the whole reaction; configurations that modulate
    the diffusion as well declare matching diffusion profiles separately.
    """

    n_components: int = 1
    linear: Optional[np.ndarray] = None
    nonlinearity: Literal["none", "saturated_power"] = "none"
    c0: TimeProfile = TimeProfile.constant(0.0)
    p: float = 2.0
    modulation: TimeProfile = TimeProfile.constant(1.0)

    def __post_init__(self):
        if self.n_components not in (1, 2):
            raise ValueError("kinetics support 1 or 2 components")
        if self.nonlinearity not in ("none", "saturated_power"):
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        if not (self.p > 1.0):
            raise ValueError("growth exponent p must exceed 1")
        n, given = self.n_components, self.linear
        if callable(given):
            raise ValueError("linear part must be a constant matrix, not a function")
        mat = np.zeros((n, n)) if given is None else np.asarray(given, dtype=float)
        if mat.shape != (n, n):
            raise ValueError(f"linear part must be {n}x{n}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("linear part must be finite")
        object.__setattr__(self, "linear", mat)


def eval_reaction(kin: KineticsSpec, u, x=None, t: float = 0.0) -> np.ndarray:
    """Evaluate F(u, t) at one point (u shape (n,)) or a batch (n, N).

    The split-form reaction does not depend on the position: ``x`` is
    accepted for callers that pass the nodes and is not used.  Exactly zero
    at u = 0.
    """
    u_arr = np.asarray(u, dtype=float)
    if u_arr.ndim not in (1, 2) or u_arr.shape[0] != kin.n_components:
        raise ValueError(f"state must have {kin.n_components} leading components")
    if not np.all(np.isfinite(u_arr)):
        raise ValueError("state must be finite")
    c0 = reaction_c0(kin, t)
    phi = eval_profile(kin.modulation, t)
    with np.errstate(divide="ignore", over="ignore"):
        return reaction_kernel(kin, u_arr, c0, phi)


def reaction_c0(kin: KineticsSpec, t: TimeLike) -> TimeLike:
    """c0(t) as the reaction uses it: checked nonnegative, and 0 without a
    nonlinearity (the profile is then never evaluated)."""
    if kin.nonlinearity != "saturated_power":
        return np.zeros(np.shape(t)) if np.ndim(t) else 0.0
    c0 = eval_profile(kin.c0, t)
    if np.any(np.asarray(c0) < 0.0):
        raise ValueError("c0 profile must be nonnegative")
    return c0


def reaction_coefficients(kin: KineticsSpec, times: np.ndarray) -> np.ndarray:
    """The reaction's c0(t) and phi(t) at each time, shape (len(times), 2)."""
    return np.column_stack([reaction_c0(kin, times), eval_profile(kin.modulation, times)])


def coefficient_table(fn, times: np.ndarray):
    """``fn(times)`` and None, or, when fn rejects some time, its values on the
    times before the first rejected one and the error raised at that time.

    A caller that walks the times in order raises that error only when it
    reaches the time, so it fails the way a time-by-time evaluation would.
    """
    try:
        return fn(times), None
    except ValueError as exc:
        error = exc
    for i in range(len(times)):
        try:
            fn(times[i:i + 1])
        except ValueError as exc:
            return fn(times[:i]), exc
    raise error


def _saturation(kin: KineticsSpec, u: np.ndarray, c0) -> np.ndarray:
    """c0 s / (1 + s) with s = |u|**(p-1), taken as c0 / (1 + 1/s): exactly 0
    at u = 0 (1/s = inf) and c0 where s overflows (1/s = 0).  Warns of a
    division by zero at u = 0, and of an overflow where 1/s passes the
    double range, unless the caller silences both."""
    inv_s = u * u  # |u|^2 as a new row, so the steps below work in place
    if len(u) > 1:
        inv_s = inv_s.sum(axis=0, keepdims=True)
    inv_s **= 0.5 * (1.0 - kin.p)
    inv_s += 1.0
    return np.divide(c0, inv_s, out=inv_s)


def reaction_kernel(kin: KineticsSpec, u: np.ndarray, c0: float, phi: float) -> np.ndarray:
    """F(u, t) from a finite float state and the coefficients c0(t) and
    phi(t) already evaluated; no input checks.  Callers silence numpy's
    division-by-zero and overflow warnings, which u = 0 and states near it
    raise on the way to an exact 0."""
    out = np.dot(kin.linear, u)
    if kin.nonlinearity == "saturated_power":
        out -= u * _saturation(kin, u, c0)
    out *= phi
    return out


def gamma_of_t(kin: KineticsSpec, t: TimeLike) -> TimeLike:
    """Tightest gamma(t) with (F_linear(u), u) <= -gamma(t) |u|^2 for all u,
    at a scalar or array time t: -phi(t) * lambda_max((A + A^T)/2).
    Negative values mean the linear part is destabilizing.
    """
    phi = eval_profile(kin.modulation, t)
    if np.any(np.asarray(phi) <= 0.0):
        raise ValueError("modulation must be positive")
    return -phi * symmetric_part_max(kin.linear)


def symmetric_part_max(m) -> float:
    """Largest eigenvalue of (m + m^T)/2, the numerical abscissa of m: the
    best constant w with (m u, u) <= w |u|^2.  May exceed the spectral
    abscissa for non-normal matrices, in which case negative eigenvalues do
    not give a negative quadratic form."""
    mat = np.asarray(m, dtype=float)
    sym = 0.5 * (mat + mat.T)
    return float(np.linalg.eigvalsh(sym)[-1])


class CouplingBound(NamedTuple):
    gamma0: float        # max(a, d) + (b + c)/2
    cross_nonneg: bool   # b + c >= 0, the regime where gamma0 bounds the form
    form_max: float      # exact max of the quadratic form over the unit circle


def coupling_gamma0(a: float, b: float, c: float, d: float) -> CouplingBound:
    """Bound a*u1^2 + (b+c)*u1*u2 + d*u2^2 <= gamma0 * |u|^2 by splitting the cross term.

    The split uses u1*u2 <= (u1^2 + u2^2)/2, which only gives an upper bound
    when b + c >= 0; the exact maximum of the form is reported alongside so
    callers can see when the split value is not a valid bound.
    """
    half = 0.5 * (b + c)
    gamma0 = max(a + half, d + half)
    mid = 0.5 * (a + d)
    rad = math.hypot(0.5 * (a - d), half)
    return CouplingBound(float(gamma0), bool(b + c >= 0.0), float(mid + rad))


def effective_c0(kin: KineticsSpec) -> Callable[[TimeLike], TimeLike]:
    """c0 of the full reaction, phi(t) * c0(t) as the reaction uses it:
    modulation folds into the nonlinearity bound, and without a nonlinearity
    it is 0."""
    def fn(t):
        return eval_profile(kin.modulation, t) * reaction_c0(kin, t)
    return fn


def reaction_sup_bound(kin: KineticsSpec, u_max: float, horizon: float,
                       u_samples: int = 2001, t_samples: int = 65,
                       directions: int = 64, safety: float = 0.05) -> float:
    """Sampled upper bound for sup |F(u, t)| over |u| <= u_max, t in [0, horizon].

    The result is inflated by ``safety`` to absorb the sampling gap.  A u and
    the saturation term of the sample states are computed once; each sample
    time then only combines them with its c0 and phi.
    """
    ts = np.linspace(0.0, horizon, t_samples)
    if kin.n_components == 1:
        points = np.linspace(-u_max, u_max, u_samples)[None, :]
    else:
        radii = np.linspace(0.0, u_max, max(u_samples // directions, 32))
        angles = np.linspace(0.0, 2.0 * np.pi, directions, endpoint=False)
        points = np.concatenate(
            [np.stack([radii * np.cos(a), radii * np.sin(a)]) for a in angles], axis=1)
    if not np.all(np.isfinite(points)):
        raise ValueError("state must be finite")
    # the coefficients of the first rejected time are never used: its error
    # is the one a time-by-time evaluation would raise first
    coeffs, error = coefficient_table(partial(reaction_coefficients, kin), ts)
    if error is not None:
        raise error
    linear = np.dot(kin.linear, points)
    damped = np.zeros_like(points)  # B(u) / c0
    if kin.nonlinearity == "saturated_power":
        with np.errstate(divide="ignore", over="ignore"):
            damped = points * _saturation(kin, points, 1.0)
    worst = 0.0
    for c0, phi in coeffs.tolist():
        f = linear - c0 * damped
        worst = max(worst, abs(phi) * math.sqrt(float(np.max(np.sum(f * f, axis=0)))))
    return worst * (1.0 + safety)
