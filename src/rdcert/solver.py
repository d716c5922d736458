"""IMEX time integration of the semilinear parabolic system.

Diffusion is treated implicitly (Crank-Nicolson with the coefficient at the
step midpoint); the reaction and any manufactured forcing are explicit, with an
optional predictor-corrector stage for second order in time.  A simulation
records the norm time series that the decay certificates are checked against.

Every step, in :func:`simulate` and :func:`step_imex` alike, runs from a step
plan built once per run: the diffusion values at the step midpoints and the
reaction's c0 and phi at both stage times are evaluated as vectorised tables.
With M = I - delta L, delta = (dt/2) D(t + dt/2) and L the three-point
Laplacian, I + delta L = 2I - M, so a stage is M^-1 (2 v + dt f) - v and no
explicit Laplacian is applied.  All components form one block-diagonal
tridiagonal M.  Scaling its rows by the trapezoid weights W = diag(1/2, 1,
..., 1, 1/2) per block under Neumann ends (W = I under Dirichlet ends) makes
W M symmetric and strictly diagonally dominant, so it is factored as L D L^T
by LAPACK ``pttrf`` once per distinct row of midpoint diffusion values (once
per run for constant diffusion), and a stage solves W M x = W rhs by one
``pttrs``.  ``Trajectory.metadata`` counts the steps, the factorizations and
the reaction evaluations of the run.  ``simulate`` computes the norms of a
block of buffered states at a time, squaring each state once, and still
raises errors in step order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs

from .grid import (Field, Grid1D, NormSet, _norm_rows, norms_from_values,
                   quadrature_weights)
from .profiles import (KineticsSpec, TimeProfile, coefficient_table, effective_c0,
                       eval_profile, eval_reaction, gamma_of_t, reaction_coefficients,
                       reaction_kernel)

Scheme = str  # "one_stage" | "two_stage"

# LAPACK's L D L^T factorization of a symmetric positive-definite tridiagonal
# matrix and the solve that uses it
_pttrf, _pttrs = get_lapack_funcs(("pttrf", "pttrs"), (np.empty(0),))


class BlowUpError(RuntimeError):
    """Raised when the discrete solution loses finiteness; carries the time."""

    def __init__(self, time: float, message: str = ""):
        super().__init__(message or f"solution lost finiteness at t = {time:.6g}")
        self.time = float(time)


class InconclusiveOrderError(RuntimeError):
    """Raised when refinement errors do not decrease monotonically."""


@dataclass(frozen=True)
class SystemSpec:
    """Full problem: grid, kinetics, per-component diffusion profiles, initial data."""

    grid: Grid1D
    kinetics: KineticsSpec
    diffusion: Sequence[TimeProfile]
    initial: Field
    forcing: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def __post_init__(self):
        profiles = tuple(self.diffusion)
        if len(profiles) != self.kinetics.n_components:
            raise ValueError("one diffusion profile per component is required")
        object.__setattr__(self, "diffusion", profiles)
        if self.initial.grid != self.grid:
            raise ValueError("initial field lives on a different grid")
        if self.initial.n_components != self.kinetics.n_components:
            raise ValueError("initial field component count mismatch")


@dataclass
class Trajectory:
    """Discrete solution record: per-step norm series plus thinned snapshots."""

    times: np.ndarray
    l2: np.ndarray
    sup: np.ndarray
    h1_semi: np.ndarray
    h2: np.ndarray
    lp1: np.ndarray  # integral of |u|**(p+1), for the energy-inequality check
    snapshot_times: np.ndarray
    snapshots: list
    metadata: dict = field(default_factory=dict)

    @property
    def g(self) -> np.ndarray:
        """L2 norm series, the quantity the comparison inequality bounds."""
        return self.l2

    def norms(self, i: int) -> NormSet:
        return NormSet(l2=float(self.l2[i]), sup=float(self.sup[i]),
                       h1_semi=float(self.h1_semi[i]), h2=float(self.h2[i]))


def apply_laplacian(values: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Three-point Laplacian; Dirichlet uses the implicit zero boundary values,
    Neumann the symmetric reflected stencil 2(u_1 - u_0)/h^2 at the ends."""
    h2 = grid.h * grid.h
    out = np.empty_like(values)
    out[:, 1:-1] = (values[:, :-2] - 2.0 * values[:, 1:-1] + values[:, 2:]) / h2
    if grid.bc == "dirichlet":
        out[:, 0] = (-2.0 * values[:, 0] + values[:, 1]) / h2
        out[:, -1] = (values[:, -2] - 2.0 * values[:, -1]) / h2
    else:
        out[:, 0] = 2.0 * (values[:, 1] - values[:, 0]) / h2
        out[:, -1] = 2.0 * (values[:, -2] - values[:, -1]) / h2
    return out


def _diffusion_table(sys: SystemSpec, times: np.ndarray) -> np.ndarray:
    """Diffusion values of each component at each time, shape (m, len(times))."""
    d = np.array([eval_profile(p, times) for p in sys.diffusion])
    bad = np.any(d <= 0.0, axis=0)
    if bad.any():
        raise ValueError("diffusion coefficient is not positive at "
                         f"t = {times[np.argmax(bad)]:.6g}")
    return d


def _finite(values: np.ndarray) -> bool:
    # a finite sum needs finite terms; only an overflowing sum of finite
    # terms takes the elementwise check
    return math.isfinite(values.sum()) or bool(np.isfinite(values).all())


def _check_info(info: int) -> None:
    if info:
        raise np.linalg.LinAlgError(f"tridiagonal solve failed (info = {info})")


class _StepPlan:
    """Everything the IMEX steps of one run share, built once.

    Step k goes from ``starts[k]`` to ``starts[k] + dt``.  The plan holds the
    diffusion values at the step midpoints and c0, phi at both stage times as
    tables.  All components are solved as one block-diagonal tridiagonal
    system, row-scaled to the symmetric W M and factored as L D L^T once per
    distinct row of midpoint diffusion values.
    """

    def __init__(self, sys: SystemSpec, starts: np.ndarray, dt: float, scheme: Scheme):
        if scheme not in ("one_stage", "two_stage"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.sys = sys
        self.dt = dt
        self.two_stage = scheme == "two_stage"
        self.starts = starts.tolist()
        self.ends = (starts + dt).tolist()
        self.xs = sys.grid.x
        d_mid, self.mid_error = coefficient_table(partial(_diffusion_table, sys),
                                                  starts + 0.5 * dt)
        # (dt/2) D(t + dt/2) per step and component: the Crank-Nicolson weight
        self.delta = (0.5 * dt) * d_mid.T
        # step k keeps the factor of step k - 1 when its weights are the same
        same = np.zeros(len(self.delta), dtype=bool)
        same[1:] = np.all(self.delta[1:] == self.delta[:-1], axis=1)
        self.refactor = (~same).tolist()
        react = partial(reaction_coefficients, sys.kinetics)
        start_coeffs, self.start_error = coefficient_table(react, starts)
        self.start_coeffs = start_coeffs.tolist()
        if self.two_stage:
            end_coeffs, self.end_error = coefficient_table(react, starts + dt)
            self.end_coeffs = end_coeffs.tolist()
        # one block of -W L per component, per unit weight: the row weights
        # W, the off-diagonal, whose last entry is the zero coupling to the
        # next block, and the diagonal value of -L
        h2 = sys.grid.h * sys.grid.h
        self.row_weights = quadrature_weights(sys.grid) / sys.grid.h
        self.unit_off = np.full(sys.grid.n, -1.0 / h2)
        self.unit_off[-1] = 0.0
        self.unit_centre = 2.0 / h2
        self.neumann = sys.grid.bc == "neumann"
        self.factor = None
        self.factorizations = 0
        self.reaction_evals = 0

    def _factor(self, delta: np.ndarray) -> None:
        """Factor W M = W (I - delta L), the block of component i weighted by
        delta_i: diagonal w (1 + 2 delta/h^2), off-diagonal -delta/h^2.  It is
        symmetric and strictly diagonally dominant for delta > 0."""
        *factor, info = _pttrf(((self.unit_centre * delta + 1.0)[:, None]
                                * self.row_weights).ravel(),
                               (self.unit_off * delta[:, None]).ravel()[:-1],
                               True, True)
        _check_info(info)
        self.factor = factor
        self.factorizations += 1

    def _stage(self, values: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """M^-1 rhs - values, with rhs = 2 values + dt f: the Crank-Nicolson
        stage (I - delta L)^-1 ((I + delta L) values + dt f), since
        I + delta L = 2I - M.  Solves W M x = W rhs.  Overwrites rhs."""
        if self.neumann:
            # W rhs: halve the first and last column of every block (n >= 3)
            rhs[:, ::rhs.shape[1] - 1] *= 0.5
        x, info = _pttrs(*self.factor, rhs.reshape(-1), overwrite_b=True)
        _check_info(info)
        out = x.reshape(values.shape)
        out -= values
        return out

    def _explicit(self, values: np.ndarray, t: float, coeffs: list) -> np.ndarray:
        sys = self.sys
        c0, phi = coeffs
        self.reaction_evals += 1
        out = reaction_kernel(sys.kinetics, values, c0, phi)
        if sys.forcing is not None:
            out = out + np.asarray(sys.forcing(self.xs, t), dtype=float)
        return out

    def advance(self, values: np.ndarray, k: int) -> np.ndarray:
        """The state after step k from ``values``, as a new array.

        Raises :class:`BlowUpError` when a stage loses finiteness, and the
        error of a coefficient table when the step reaches its first
        rejected time.  Call it with numpy's divide, overflow and invalid
        warnings silenced.
        """
        if k >= len(self.delta):
            raise self.mid_error
        if k >= len(self.start_coeffs):
            raise self.start_error
        f0 = self._explicit(values, self.starts[k], self.start_coeffs[k])
        if self.refactor[k]:
            self._factor(self.delta[k])
        twice = values + values
        out = self._stage(values, twice + self.dt * f0)
        if not _finite(out):
            raise BlowUpError(self.ends[k])
        if self.two_stage:
            if k >= len(self.end_coeffs):
                raise self.end_error
            f1 = self._explicit(out, self.ends[k], self.end_coeffs[k])
            out = self._stage(values, twice + (0.5 * self.dt) * (f0 + f1))
            if not _finite(out):
                raise BlowUpError(self.ends[k])
        return out


def step_imex(state: Field, t: float, dt: float, sys: SystemSpec,
              scheme: Scheme = "two_stage") -> Field:
    """One IMEX step from time t; returns a new field, the input is untouched."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if state.grid != sys.grid:
        raise ValueError("state lives on a different grid")
    plan = _StepPlan(sys, np.array([float(t)]), dt, scheme)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return Field._trusted(sys.grid, plan.advance(state.values, 0))


# States wait, at most this many bytes of them and at least one, before their
# norms are computed together.
_NORM_BLOCK_BYTES = 64 * 1024


def simulate(sys: SystemSpec, T: float, dt: Optional[float] = None,
             record_every: Optional[int] = None, scheme: Scheme = "two_stage",
             seed: Optional[int] = None) -> Trajectory:
    """Advance the system to time T, recording norms every step.

    ``T`` is rounded to a whole number of steps of size ``dt`` (default
    min(1e-3, h)).  Snapshots of the full field are kept every
    ``record_every`` steps (default about 2000 over the run) plus the final
    state.  Blow-up raises :class:`BlowUpError` carrying the failure time;
    non-finite values are never recorded.  Norms are computed a block of
    steps at a time; errors are still raised in step order.
    """
    if T <= 0.0:
        raise ValueError("final time T must be positive")
    grid = sys.grid
    if dt is None:
        dt = min(1e-3, grid.h)
    if dt <= 0.0 or dt > T * (1.0 + 1e-12):
        raise ValueError("need 0 < dt <= T")
    n_steps = max(1, int(round(T / dt)))
    if record_every is None:
        record_every = max(1, n_steps // 2000)
    elif record_every < 1:
        raise ValueError("record_every must be at least 1")
    weights = quadrature_weights(grid)
    lp_exp = sys.kinetics.p + 1.0

    times = dt * np.arange(n_steps + 1)
    plan = _StepPlan(sys, times[:-1], dt, scheme)
    series = np.empty((5, n_steps + 1))  # l2, sup, h1_semi, h2, lp1
    snapshot_times = [0.0]
    snapshots = [Field._trusted(grid, sys.initial.values.copy())]

    block_len = max(1, _NORM_BLOCK_BYTES // sys.initial.values.nbytes)
    pending = []  # states of steps done, done + 1, ... whose norms are not in `series`
    done = 0

    def flush():
        nonlocal done
        # a lone state is viewed, not copied
        states = np.stack(pending) if len(pending) > 1 else pending[0][None]
        first = done
        done += len(pending)
        pending.clear()
        rows = series[:, first:done]
        with np.errstate(over="ignore", invalid="ignore"):
            rows[:] = _norm_rows(states, grid, weights, lp_exp).T
        finite = np.isfinite(rows).all(axis=0)
        if not finite.all():
            # finite state whose squared norms overflow: treat as blow-up,
            # non-finite values are never recorded
            raise BlowUpError(float(times[first + int(np.argmin(finite))]))

    values = sys.initial.values
    pending.append(values)
    try:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for step in range(1, n_steps + 1):
                if len(pending) == block_len:
                    flush()
                values = plan.advance(values, step - 1)
                pending.append(values)
                if step % record_every == 0 or step == n_steps:
                    snapshot_times.append(float(times[step]))
                    # each step returns a new finite array that nothing writes
                    # to again
                    snapshots.append(Field._trusted(grid, values))
        flush()
    except Exception:
        # the buffered states come before the failing step: if the norms of
        # one of them overflow, that is the first failure in step order
        if pending:
            try:
                flush()
            except BlowUpError as earlier:
                raise earlier from None
        raise

    metadata = {"dt": dt, "scheme": scheme, "seed": seed,
                "record_every": record_every, "T": float(times[-1]), "steps": n_steps,
                "factorizations": plan.factorizations,
                "reaction_evals": plan.reaction_evals}
    l2, sup, h1, h2, lp1 = series
    return Trajectory(times=times, l2=l2, sup=sup, h1_semi=h1, h2=h2, lp1=lp1,
                      snapshot_times=np.asarray(snapshot_times), snapshots=snapshots,
                      metadata=metadata)


def dissipation_rates(sys: SystemSpec, times: np.ndarray):
    """min_i d_i(t) and gamma(t) (see :func:`rdcert.profiles.gamma_of_t`) at
    each of ``times``: the rates of the system's energy estimate."""
    return (_diffusion_table(sys, times).min(axis=0),
            gamma_of_t(sys.kinetics, times))


def energy_inequality_residuals(traj: Trajectory, sys: SystemSpec) -> np.ndarray:
    """Residuals of the discrete energy inequality between consecutive steps.

    Checks (g_{i+1}^2 - g_i^2) / (2 dt) <= -d(t) ||grad u||^2 - gamma(t) g^2
    + c0(t) * integral |u|^{p+1}, with the right side averaged over the two
    endpoints.  Positive entries measure violation; along a consistent
    trajectory they stay within O(dt + h^2) of zero.
    """
    times = traj.times
    dt = float(times[1] - times[0])
    d_min, gammas = dissipation_rates(sys, times)
    c0_eff = np.asarray(effective_c0(sys.kinetics)(times), dtype=float)

    rhs = (-d_min * traj.h1_semi ** 2 - gammas * traj.l2 ** 2 + c0_eff * traj.lp1)
    lhs = (traj.l2[1:] ** 2 - traj.l2[:-1] ** 2) / (2.0 * dt)
    return lhs - 0.5 * (rhs[1:] + rhs[:-1])


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form solution with its derivatives, for order verification.

    All three callables map (x array, t) to values of shape (n_components, n).
    """

    solution: Callable[[np.ndarray, float], np.ndarray]
    time_derivative: Callable[[np.ndarray, float], np.ndarray]
    laplacian: Callable[[np.ndarray, float], np.ndarray]


def manufactured_system(grid: Grid1D, kinetics: KineticsSpec,
                        diffusion: Sequence[TimeProfile],
                        case: ManufacturedCase) -> SystemSpec:
    """System whose exact solution is ``case.solution``: the induced forcing
    f = u*_t - D(t) (u*)_xx - F(u*) is appended to the reaction."""
    profiles = tuple(diffusion)

    def forcing(xs, t):
        exact = np.atleast_2d(np.asarray(case.solution(xs, t), dtype=float))
        d_vals = np.array([eval_profile(p, t) for p in profiles])
        lap = np.atleast_2d(np.asarray(case.laplacian(xs, t), dtype=float))
        dudt = np.atleast_2d(np.asarray(case.time_derivative(xs, t), dtype=float))
        return dudt - d_vals[:, None] * lap - eval_reaction(kinetics, exact, xs, t)

    initial = Field(grid, np.atleast_2d(np.asarray(case.solution(grid.x, 0.0), dtype=float)))
    return SystemSpec(grid=grid, kinetics=kinetics, diffusion=profiles,
                      initial=initial, forcing=forcing)


def _final_error(sys: SystemSpec, case: ManufacturedCase, T: float, dt: float,
                 scheme: Scheme) -> float:
    traj = simulate(sys, T, dt=dt, record_every=10 ** 9, scheme=scheme)
    exact = np.atleast_2d(np.asarray(case.solution(sys.grid.x, traj.metadata["T"]), dtype=float))
    diff = traj.snapshots[-1].values - exact
    return norms_from_values(diff, sys.grid).l2


@dataclass(frozen=True)
class ConvergenceReport:
    p_space: float
    p_time: float
    space_h: tuple
    space_errors: tuple
    time_dts: tuple
    time_errors: tuple
    space_label: str  # "measured" or "exact"
    time_label: str


def _fit_order(steps, errors, what: str):
    errors = np.asarray(errors, dtype=float)
    scale = max(float(np.max(errors)), 0.0)
    if scale < 1e-12:
        return math.inf, "exact"
    if np.any(np.diff(errors) >= 0.0):
        raise InconclusiveOrderError(
            f"{what} errors do not decrease monotonically: {errors.tolist()}")
    slope = np.polyfit(np.log(np.asarray(steps, dtype=float)), np.log(errors), 1)[0]
    return float(slope), "measured"


def convergence_orders(case: ManufacturedCase, kinetics: KineticsSpec,
                       diffusion: Sequence[TimeProfile], L: float = 1.0,
                       bc: str = "dirichlet", T: float = 1.0,
                       space_ns: Sequence[int] = (64, 128, 256),
                       space_dt: float = 2e-4,
                       time_n: int = 2001,
                       time_dts: Sequence[float] = (0.2, 0.1, 0.05),
                       scheme: Scheme = "two_stage") -> ConvergenceReport:
    """Observed spatial and temporal orders against a manufactured solution.

    Spatial study: refine the grid at a small fixed dt.  Temporal study:
    refine dt on one fine grid.  Errors at round-off level short-circuit to
    the label "exact"; non-monotone errors raise
    :class:`InconclusiveOrderError`.
    """
    space_errors = []
    space_h = []
    for n in space_ns:
        g = Grid1D(L, int(n), bc)
        sys = manufactured_system(g, kinetics, diffusion, case)
        space_errors.append(_final_error(sys, case, T, space_dt, scheme))
        space_h.append(g.h)
    p_space, space_label = _fit_order(space_h, space_errors, "spatial")

    g = Grid1D(L, time_n, bc)
    sys = manufactured_system(g, kinetics, diffusion, case)
    time_errors = [_final_error(sys, case, T, dt, scheme) for dt in time_dts]
    p_time, time_label = _fit_order(time_dts, time_errors, "temporal")

    return ConvergenceReport(p_space=p_space, p_time=p_time,
                             space_h=tuple(space_h), space_errors=tuple(space_errors),
                             time_dts=tuple(time_dts), time_errors=tuple(time_errors),
                             space_label=space_label, time_label=time_label)
