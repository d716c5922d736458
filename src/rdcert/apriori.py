"""A-priori pointwise bounds and empirical constants measured along trajectories.

Upper solutions give pointwise control: a downward paraboloid for Dirichlet
problems whose reaction is bounded by M1, a constant level for Neumann
problems whose reaction turns nonpositive above it.  Trajectory
post-processing supplies the two empirical constants every certificate needs:
the running maximum of the discrete H2 norm and the multiplicative-inequality
constant sup ||u||_inf / (||u||^(1/4) ||u||_H2^(3/4)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .grid import Field
from .profiles import KineticsSpec, TimeProfile, eval_profile, reaction_coefficients
from .solver import Trajectory

__all__ = [
    "UpperSolution", "PointwiseViolation", "build_paraboloid",
    "constant_upper_solution", "find_constant_upper", "verify_pointwise_bound",
    "h2_monitor", "estimate_agmon_constant", "agmon_aggregate", "AgmonAggregate",
]

# The paraboloid condition involves the Laplacian of -a|x|^2, which is -2a per
# space dimension; this package is one-dimensional throughout.
_DIMENSION = 1

_LOG_MAX = math.log(np.finfo(float).max)

# Evenly spaced times at which a constant barrier's sign condition is checked
# and a paraboloid's diffusion infimum taken, and find_constant_upper's
# geometric candidate levels.
_SIGN_TIMES = 33
_DIFFUSION_TIMES = 513
_CANDIDATE_LEVELS = 64


@dataclass(frozen=True)
class UpperSolution:
    """Pointwise barrier: v(x) = -a x^2 + b (paraboloid) or constant levels."""

    kind: str  # "paraboloid" | "constant"
    a_us: float = 0.0
    b_us: float = 0.0
    levels: Optional[np.ndarray] = None
    note: str = ""

    def __post_init__(self):
        if self.kind == "paraboloid":
            if self.a_us <= 0.0 or self.b_us <= 0.0:
                raise ValueError("paraboloid coefficients must be positive")
        elif self.kind == "constant":
            if self.levels is None:
                raise ValueError("constant upper solutions need levels")
            object.__setattr__(self, "levels", np.atleast_1d(np.asarray(self.levels, float)))
        else:
            raise ValueError(f"unknown upper solution kind {self.kind!r}")

    @property
    def radius(self) -> float:
        """Radius of the ball on which the paraboloid is nonnegative."""
        if self.kind != "paraboloid":
            raise ValueError("radius only applies to paraboloids")
        return math.sqrt(self.b_us / self.a_us)

    def bound_at(self, x: np.ndarray, n_components: int) -> np.ndarray:
        """Upper bound per component, shape (n_components, len(x))."""
        if self.kind == "paraboloid":
            v = -self.a_us * np.asarray(x, float) ** 2 + self.b_us
            return np.repeat(v[None, :], n_components, axis=0)
        return np.repeat(self.levels[:, None], len(x), axis=1)


class PointwiseViolation(NamedTuple):
    t: float
    x: float
    component: int
    value: float
    bound: float


def build_paraboloid(m1: float, diffusion: Sequence[TimeProfile], L: float,
                     u0: Field, horizon: float) -> UpperSolution:
    """Certified paraboloid barrier v(x) = -a x^2 + b for a Dirichlet problem
    whose reaction magnitude never exceeds ``m1``.

    Chooses a = m1 / (2 * inf_t min_i d_i(t)) so the barrier's diffusion
    deficit dominates the reaction for every component at 513 sampled times,
    then b large enough that the zero set of v contains (0, L) and v dominates
    the initial data.  Fails when the diffusion infimum vanishes over the
    horizon (nothing to push the barrier down against).
    """
    if m1 < 0.0:
        raise ValueError("reaction bound m1 must be >= 0")
    ts = np.linspace(0.0, horizon, _DIFFUSION_TIMES)
    d_inf = min(float(np.min(np.asarray(eval_profile(p, ts), dtype=float)))
                for p in diffusion)
    if d_inf <= 0.0:
        raise ValueError("diffusion infimum over the horizon is not positive; "
                         "no paraboloid barrier exists")
    a = m1 / (2.0 * _DIMENSION * d_inf) if m1 > 0.0 else 1e-12
    xs = u0.grid.x
    b_init = float(np.max(u0.values + a * xs[None, :] ** 2))
    b = max(a * L * L, b_init)
    if b <= 0.0:
        b = a * L * L  # nonpositive initial data: containment alone decides
    note = (f"barrier slope a = m1/(2*{_DIMENSION}*inf d) with the factor 2 per "
            f"space dimension; d_inf = {d_inf:.6g} over [0, {horizon:g}]")
    return UpperSolution(kind="paraboloid", a_us=a, b_us=b, note=note)


def constant_upper_solution(kin: KineticsSpec, levels, u_max: float,
                            horizon: float) -> UpperSolution:
    """Constant barrier levels for a Neumann problem whose sign condition
    holds: F_i(u) <= 0 whenever u_i >= level_i and |u_j| <= u_max for the
    other components, at 33 evenly spaced times on [0, horizon] (below -level_i
    the condition is the same, as F is odd).  Decided in closed form, see
    :func:`_check_sign_condition`; raises when it fails.
    """
    levels_arr = np.atleast_1d(np.asarray(levels, dtype=float))
    if levels_arr.shape[0] != kin.n_components:
        raise ValueError("one level per component is required")
    if np.any(levels_arr <= 0.0):
        raise ValueError("levels must be positive")
    _check_sign_condition(kin, levels_arr, u_max, horizon)
    return UpperSolution(kind="constant", levels=levels_arr,
                         note=f"sign condition decided in closed form at {_SIGN_TIMES} "
                              f"times on [0, {horizon:g}], |u| <= {u_max:g}")


def _check_sign_condition(kin: KineticsSpec, levels: np.ndarray, u_max: float,
                          horizon: float) -> None:
    """Raise unless, at each of the checked times and for each component i,

        l_i (A_ii - c0 s(l_i)) + u_max sum_{j != i} |A_ij| <= 0,

    with s(r) = r^(p-1) / (1 + r^(p-1)) (s = 0 without the nonlinearity).

    F_i(u) = phi (u_i (A_ii - c0 s(|u|)) + sum_{j != i} A_ij u_j) with
    phi > 0, c0 >= 0 and s increasing.  For u_i >= l_i, |u| >= l_i, so when
    A_ii - c0 s(l_i) <= 0 (else the condition fails) the first term is at
    most l_i (A_ii - c0 s(l_i)), and the sum is at most u_max sum |A_ij|:
    the condition implies the sign condition.  With one component the sum
    is empty and u (A - c0 s(u)) <= 0 for every u >= l exactly when it
    holds at l, so the condition is exact; with two it is sufficient."""
    ts, bound = _sign_bounds(kin, levels, u_max, horizon)
    failing = ~(bound <= 0.0)
    if failing.any():
        i, k = np.argwhere(failing)[0]
        raise ValueError(f"sign condition fails: F_{i} can be positive for "
                         f"u_{i} >= {levels[i]:g} at t = {ts[k]:g} "
                         f"(bound {bound[i, k]:.3g} > 0)")


def _sign_bounds(kin: KineticsSpec, levels: np.ndarray, u_max: float,
                 horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """The checked times and the left side of :func:`_check_sign_condition`
    at each, one row per level (component i's level, or, with one
    component, each candidate level) and one column per time.  Raises when
    phi is not positive at a checked time or a profile rejects one."""
    ts = np.linspace(0.0, horizon, _SIGN_TIMES)
    c0, phi = reaction_coefficients(kin, ts).T
    if np.any(phi <= 0.0):
        raise ValueError("modulation must be positive")
    a = kin.linear
    diag = np.diag(a)
    coupling = u_max * np.abs(a - np.diag(diag)).sum(axis=1)
    if kin.nonlinearity == "saturated_power":
        with np.errstate(over="ignore"):
            sat = 1.0 / (1.0 + levels ** (1.0 - kin.p))
    else:
        sat = np.zeros(len(levels))
    return ts, levels[:, None] * (diag[:, None] - c0 * sat[:, None]) + coupling[:, None]


def find_constant_upper(kin: KineticsSpec, u_max: float, horizon: float,
                        min_level: float = 0.0) -> Optional[UpperSolution]:
    """The smallest of 64 geometric levels up to u_max whose
    constant barrier passes the sign condition (single equation only), or
    None when none does, phi is not positive at a checked time or a profile
    rejects one.  Every level's bound is formed in one array.

    ``min_level`` lets callers force the barrier above the initial data,
    which the comparison argument needs in addition to the sign condition.
    """
    if kin.n_components != 1:
        raise ValueError("automatic level search only supports single equations")
    lo = max(u_max / _CANDIDATE_LEVELS, min_level, 1e-12)
    if lo > u_max:
        return None
    levels = np.geomspace(lo, u_max, _CANDIDATE_LEVELS)
    try:
        bound = _sign_bounds(kin, levels, u_max, horizon)[1]
    except ValueError:
        return None
    passing = np.flatnonzero((bound <= 0.0).all(axis=1))
    if not passing.size:
        return None
    return constant_upper_solution(kin, [levels[passing[0]]], u_max, horizon)


def verify_pointwise_bound(traj: Trajectory, us: UpperSolution) -> list:
    """All recorded (t, x, component) points where the trajectory escapes the
    barrier by more than 1e-9 max(1, max |v|), above v or below -v."""
    vals = traj.states
    xs = traj.grid.x
    bound = us.bound_at(xs, vals.shape[1])
    tol = 1e-9 * max(1.0, float(np.max(np.abs(bound))))
    outside = (vals > bound + tol) | (vals < -bound - tol)
    # nonzero walks snapshots, then components, then nodes: the order of a
    # snapshot-by-snapshot scan
    i, comp, j = np.nonzero(outside)
    return [PointwiseViolation(*row) for row in zip(
        traj.snapshot_times[i].tolist(), xs[j].tolist(), comp.tolist(),
        vals[i, comp, j].tolist(), bound[comp, j].tolist())]


def h2_monitor(traj: Trajectory) -> tuple[float, float]:
    """Largest recorded discrete H2 norm and the time it was attained."""
    i = int(np.argmax(traj.h2))
    return float(traj.h2[i]), float(traj.times[i])


def estimate_agmon_constant(traj: Trajectory) -> float:
    """Empirical constant of ||u||_inf <= c ||u||^(1/4) ||u||_H2^(3/4):
    the largest recorded ratio.  Scale-invariant (the homogeneity degrees sum
    to one) and nondecreasing as more of the trajectory is included."""
    mask = (traj.l2 > 0.0) & (traj.h2 > 0.0)
    if not np.any(mask):
        raise ValueError("trajectory is identically zero; the ratio is undefined")
    ratios = traj.sup[mask] / (traj.l2[mask] ** 0.25 * traj.h2[mask] ** 0.75)
    return float(np.max(ratios))


class AgmonAggregate(NamedTuple):
    value: float    # c_hat**(p-1) * m2_hat**(3(p-1)/4), multiplies c0(t) in alpha
    c_hat: float
    m2_hat: float
    t_at_max_h2: float


def agmon_aggregate(traj: Trajectory, p: float) -> AgmonAggregate:
    """The measured factor turning the nonlinearity strength c0(t) into the
    comparison coefficient alpha(t).  Marked empirical in every report that
    uses it: both ingredients are maxima over the recorded trajectory, not
    proved constants.  A factor past the double range is inf."""
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    c_hat = estimate_agmon_constant(traj)
    m2_hat, t_at = h2_monitor(traj)
    try:
        value = c_hat ** (p - 1.0) * m2_hat ** (0.75 * (p - 1.0))
    except OverflowError:  # a power past the double range: the product in logs
        log_value = (p - 1.0) * (math.log(c_hat) + 0.75 * math.log(m2_hat))
        value = math.exp(log_value) if log_value <= _LOG_MAX else math.inf
    return AgmonAggregate(value=float(value), c_hat=c_hat, m2_hat=m2_hat, t_at_max_h2=t_at)
