"""IMEX time integration of the semilinear parabolic system.

Diffusion is treated implicitly (Crank-Nicolson with the coefficient at the
step midpoint); the reaction and any manufactured forcing are explicit, with an
optional predictor-corrector stage for second order in time.  A simulation
records the norm time series that the decay certificates are checked against.

Every step of :func:`simulate` runs from a step plan built once per run: the
diffusion values at the step midpoints and the reaction's c0 and phi at both
stage times are evaluated as vectorised tables.  A step runs between two
times of the run's grid ``times = dt * arange(steps + 1)``: its end is the
next step's start, the same double, and every stage time and every
:class:`BlowUpError` time is a time of that grid.  With M = I - delta L,
delta = (dt/2) D(t + dt/2) and L the three-point Laplacian,
I + delta L = 2I - M, so a stage is M^-1 (2 v + dt f) - v and no explicit
Laplacian is applied.  The plan folds each stage's scalars (the 2
of 2 v, dt or dt/2, phi) into per-step tables of the reaction's linear part
and saturation numerator, so that one reaction-kernel call gives a stage's
right-hand side less the forcing; the second stage reuses half the first
one's.  The plan keeps (dt/2) f of the latest time, so the forcing is
called once per time of the run, not once per stage.  The plan decides once
per run which stage work is live.  With A = 0 the linear part is a scalar
that scales the state, not a matrix product.  Without a reaction (A = 0 and
no nonlinearity) the second stage reads only half the first stage's
right-hand side, v + (dt/2) f, so a two-stage step calls no kernel, skips
the first solve and makes one solve, as a one-stage step does; with a
reaction it makes two.  All components form one block-diagonal
tridiagonal M.  Scaling its rows by the trapezoid weights
W = diag(1/2, 1, ..., 1, 1/2) per block under Neumann ends (W = I under
Dirichlet ends) makes W M symmetric and strictly diagonally dominant, so it
is factored as L D L^T by LAPACK ``pttrf`` once per distinct row of midpoint
diffusion values (once per run for constant diffusion), and a solve of
W M x = W rhs is one ``pttrs``.  ``Trajectory.metadata`` counts the steps,
the solves, the factorizations and the reaction evaluations of the run (one
per stage, a skipped kernel included).  ``simulate`` computes the norms of a
block of buffered states at a time (see :mod:`rdcert.grid`: one BLAS dot
per sum over a state's nodes), squaring each state once, and still raises
errors in step order.

A run allocates its state-sized arrays once, as LAPACK routines take
caller-supplied workspace: the plan's workspace serves every step and every
norm flush, and ``simulate`` writes each state straight into one of two
alternating blocks of states.  The operations and their order are those of a
step with fresh arrays, so the numbers are the same bit for bit.  The forcing
of :func:`manufactured_system` keeps its reaction workspace in the same way
and returns a fresh array from every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs

from .grid import (Field, Grid1D, _carve, _norm_rows, _norm_shapes, _scratch_len,
                   norms_from_values, quadrature_weights)
from .profiles import (KineticsSpec, TimeProfile, _check_state, _finite, _reaction_into,
                       coefficient_table, effective_c0, eval_profile, gamma_of_t,
                       reaction_coefficients, reaction_kernel)

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
    """Discrete solution record: per-step norm series plus thinned snapshots.

    The snapshots are one array ``states`` of shape (k, n_components, grid.n),
    row i being the state at ``snapshot_times[i]``.
    """

    times: np.ndarray
    l2: np.ndarray
    sup: np.ndarray
    h1_semi: np.ndarray
    h2: np.ndarray
    lp1: np.ndarray  # integral of |u|**(p+1), for the energy-inequality check
    snapshot_times: np.ndarray
    grid: Grid1D
    states: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def snapshots(self) -> tuple:
        """One :class:`Field` per row of ``states``, each a view of its row."""
        return tuple(Field._trusted(self.grid, row) for row in self.states)

    @property
    def g(self) -> np.ndarray:
        """L2 norm series, the quantity the comparison inequality bounds."""
        return self.l2


def _diffusion_table(sys: SystemSpec, times: np.ndarray) -> np.ndarray:
    """Diffusion values of each component at each time, shape (m, len(times))."""
    d = np.array([eval_profile(p, times) for p in sys.diffusion])
    bad = np.any(d <= 0.0, axis=0)
    if bad.any():
        raise ValueError("diffusion coefficient is not positive at "
                         f"t = {times[np.argmax(bad)]:.6g}")
    return d


def _check_info(info: int) -> None:
    if info:
        raise np.linalg.LinAlgError(f"tridiagonal solve failed (info = {info})")


def _stage_tables(kin: KineticsSpec, times: np.ndarray, weight: float, identity: float):
    """One stage's reaction coefficients at each of ``times`` with the
    stage's scalars folded in: lin = identity I + weight phi A and num =
    weight phi c0, a list of k floats, for the times before the first one
    the kinetics reject, and the error of that time (None if there is none);
    see :func:`rdcert.profiles.coefficient_table`.  lin has shape (k, m, m),
    or, when A = 0, is a list of k floats, identity + weight phi 0, each the
    value of every diagonal entry of the matrix (nan where weight phi is
    not finite, as there)."""
    coeffs, error = coefficient_table(partial(reaction_coefficients, kin), times)
    c0, phi = coeffs.T
    scale = weight * phi
    if kin.linear.any():
        lin = scale[:, None, None] * kin.linear
        if identity:
            lin += identity * np.eye(kin.n_components)
    else:
        lin = (scale * 0.0 + identity).tolist()
    return lin, (scale * c0).tolist(), error


class _StepPlan:
    """Everything the IMEX steps of one run share, built once.

    Step k goes from ``times[k]`` to ``times[k + 1]``, two times of the run's
    grid, and advances the state by the run's ``dt``.  The plan holds
    per-step tables: the diagonal 1 + 2 delta/h^2 of M and the weight delta
    = (dt/2) D at the step midpoint times[k] + dt/2, and each stage's
    reaction coefficients at its time with the stage's scalars folded in
    (see :func:`_stage_tables`), so that one
    :func:`rdcert.profiles.reaction_kernel` call gives a stage's explicit
    part.  With v the state, phi, c0 at the step start t and phi', c0' at
    its end t', and g(t) = (dt/2) f(t) with f the forcing, stage 1 solves
    M x = rhs1 for

        rhs1 = (2I + dt phi A) v - v (dt phi c0) / (1 + |v|**(1-p)) + 2 g(t)

    and x1 = x - v; stage 2 solves M x = rhs2 for

        rhs2 = (dt/2) phi' A x1 - x1 ((dt/2) phi' c0') / (1 + |x1|**(1-p))
               + rhs1 / 2 + v + g(t')

    and x2 = x - v.  Which stage work runs is decided once per run:

    - one stage: the kernel, g(t) and one solve, for x1;
    - two stages with a reaction (A != 0 or the nonlinearity): both
      kernels, g(t) and g(t'), and two solves;
    - two stages without a reaction (A = 0, no nonlinearity, phi finite at
      every stage time): no kernel is called, as stage 1's kernel gives 2 v,
      the stage-2 coefficients vanish at every step and nothing reads x1.  The step
      forms rhs1 / 2 = v + g(t), which is 0.5 (2 v + dt f(t)) bit for bit as
      the scalings are powers of two, checks it is finite (before the
      forcing is called at t'), and solves once, for x2, with
      rhs2 = ((v + g(t)) + v) + g(t').

    The plan keeps g of the latest time it was asked for, so the forcing is
    called once per time of the run: the end of one step is the start of
    the next.  With A = 0 the linear coefficient is a scalar, 2 for stage 1
    and 0 for stage 2, which scales the state.  All components are solved as one
    block-diagonal tridiagonal system, row-scaled to the symmetric W M and
    factored as L D L^T once per distinct row of midpoint diffusion values.

    The plan also owns the run's workspace, so that no step allocates a
    state-sized array: the factor's two arrays, the buffer of g, and one
    flat ``scratch`` array holding both right-hand sides, rhs1 / 2, 2 g(t)
    and the reaction's saturation row and product.  ``scratch`` is also
    large enough for the norms of ``norm_states`` states (see
    :func:`rdcert.grid._norm_rows`), which a caller may compute in it
    between steps.
    """

    def __init__(self, sys: SystemSpec, times: np.ndarray, dt: float, scheme: Scheme,
                 norm_states: int):
        if scheme not in ("one_stage", "two_stage"):
            raise ValueError(f"unknown scheme {scheme!r}")
        kin = sys.kinetics
        self.kinetics = kin
        self.forcing = sys.forcing
        self.half_dt = 0.5 * dt
        self.two_stage = scheme == "two_stage"
        self.times = times.tolist()
        starts, ends = times[:-1], times[1:]
        self.xs = sys.grid.x
        h2 = sys.grid.h * sys.grid.h
        # the tables take the step's silenced warnings: a weight or a
        # coefficient past the double range reads inf, as in the step
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            d_mid, self.mid_error = coefficient_table(partial(_diffusion_table, sys),
                                                      starts + 0.5 * dt)
            # (dt/2) D(t + dt/2) per step and component: the Crank-Nicolson weight
            delta = (0.5 * dt) * d_mid.T
            # one (m, 1) column per step, to scale the rows of every block
            self.delta = delta[:, :, None]
            self.centre = (2.0 / h2 * delta + 1.0)[:, :, None]
            self.lin0, self.num0, self.start_error = _stage_tables(kin, starts, dt, 2.0)
            if self.two_stage:
                self.lin1, self.num1, self.end_error = _stage_tables(kin, ends, 0.5 * dt, 0.0)
        # no kernel output is needed when the kinetics have no reaction
        # and both tables hold the bare scalings, 2 and 0 (a phi past the
        # double range makes them nan, which the kernels carry into the
        # state); a phi that only vanishes at the step ends would still
        # leave stage 1 its dt phi A v
        self.reaction_free = (self.two_stage and kin.nonlinearity == "none"
                              and not kin.linear.any() and np.isfinite(self.lin0).all()
                              and not np.any(self.lin1))
        # step k keeps the factor of step k - 1 when its weights are the same
        same = np.zeros(len(delta), dtype=bool)
        same[1:] = np.all(delta[1:] == delta[:-1], axis=1)
        self.refactor = (~same).tolist()
        # one block of -W L per component, per unit weight: the row weights
        # W and the off-diagonal, whose last entry is the zero coupling to
        # the next block
        self.row_weights = quadrature_weights(sys.grid) / sys.grid.h
        self.unit_off = np.full(sys.grid.n, -1.0 / h2)
        self.unit_off[-1] = 0.0
        self.neumann = sys.grid.bc == "neumann"
        shape = sys.initial.values.shape
        self.diag, self.off = np.empty(shape), np.empty(shape)
        self.diag_flat, self.off_flat = self.diag.reshape(-1), self.off.reshape(-1)[:-1]
        # g lives from one step into the next, past the norm flushes that
        # share `scratch`
        self.forced, self.forced_at = np.empty(shape), -1
        step_shapes = (shape,) * 5 + ((1, shape[1]),)
        norm_shapes = _norm_shapes((norm_states,) + shape, sys.grid)
        self.scratch = np.empty(max(_scratch_len(step_shapes), _scratch_len(norm_shapes)))
        (self.rhs, self.rhs2, self.half, self.work, self.prod,
         self.row) = _carve(self.scratch, step_shapes)
        # each right-hand side with the flat view pttrs solves in place and
        # its end columns, which W halves under Neumann ends (n >= 3)
        self.stage1, self.stage2 = ((rhs, rhs.reshape(-1), rhs[:, ::shape[1] - 1])
                                    for rhs in (self.rhs, self.rhs2))
        self.factor = None
        self.factorizations = 0
        self.solves = 0
        self.reaction_evals = 0

    def _half_forcing(self, i: int) -> np.ndarray:
        """g = (dt/2) f at the run's time ``times[i]``, in the plan's buffer:
        the forcing is called only when the latest call was at another time,
        and what it returns is read, never written."""
        if i != self.forced_at:
            np.multiply(self.half_dt, self.forcing(self.xs, self.times[i]), out=self.forced)
            self.forced_at = i
        return self.forced

    def _solve(self, stage, values: np.ndarray, k: int, dest: np.ndarray) -> np.ndarray:
        """x - v written into ``dest`` for W M x = W rhs, with ``stage`` the
        right-hand side rhs and its two views; rhs is overwritten.  Raises
        :class:`BlowUpError` when x - v is not finite."""
        rhs, flat, ends = stage
        if self.neumann:
            ends *= 0.5
        _check_info(_pttrs(*self.factor, flat, overwrite_b=True)[1])
        self.solves += 1
        out = np.subtract(rhs, values, out=dest)
        if not _finite(out):
            raise BlowUpError(self.times[k + 1])
        return out

    def advance(self, values: np.ndarray, k: int, dest: np.ndarray) -> np.ndarray:
        """Write the state after step k from ``values`` into ``dest``, an
        array of the state's shape in C order that shares no memory with
        ``values`` or the plan's workspace, and return ``dest``.

        Raises :class:`BlowUpError` when a stage loses finiteness, and the
        error of a coefficient table when the step reaches its first
        rejected time.  Call it with numpy's divide, overflow and invalid
        warnings silenced.
        """
        if k >= len(self.centre):
            raise self.mid_error
        if k >= len(self.num0):
            raise self.start_error
        kin, forced, rhs, rhs2 = self.kinetics, self.forcing is not None, self.rhs, self.rhs2
        self.reaction_evals += 1
        if self.reaction_free:
            # rhs1 / 2 + v = (v + g(t)) + v, kept in rhs2; a non-finite rhs1
            # fails the step before the forcing is called at its end, as a
            # non-finite x1 would
            if forced:
                np.add(values, self._half_forcing(k), out=rhs2)
                if not _finite(rhs2):
                    raise BlowUpError(self.times[k + 1])
                rhs2 += values
            else:
                np.add(values, values, out=rhs2)
        else:
            reaction_kernel(kin, self.lin0[k], values, self.num0[k], rhs, self.row, self.prod)
            if forced:
                # dt f(t) = 2 g(t) exactly
                rhs += np.multiply(self._half_forcing(k), 2.0, out=self.work)
        if self.refactor[k]:
            # W M: diagonal w (1 + 2 delta/h^2), off-diagonal -delta/h^2 in
            # the block of a component with weight delta; symmetric and
            # strictly diagonally dominant for delta > 0
            np.multiply(self.centre[k], self.row_weights, out=self.diag)
            np.multiply(self.unit_off, self.delta[k], out=self.off)
            *self.factor, info = _pttrf(self.diag_flat, self.off_flat, True, True)
            _check_info(info)
            self.factorizations += 1
        if not self.two_stage:
            return self._solve(self.stage1, values, k, dest)
        if not self.reaction_free:
            half = np.multiply(rhs, 0.5, out=self.half)
            # the first stage x1, kept in rhs
            x1 = self._solve(self.stage1, values, k, rhs)
        if k >= len(self.num1):
            raise self.end_error
        self.reaction_evals += 1
        if not self.reaction_free:
            reaction_kernel(kin, self.lin1[k], x1, self.num1[k], rhs2, self.row, self.prod)
            rhs2 += half
            rhs2 += values
        if forced:
            rhs2 += self._half_forcing(k + 1)
        return self._solve(self.stage2, values, k, dest)


# States wait, at most this many bytes of them and at least one, before their
# norms are computed together.
_NORM_BLOCK_BYTES = 64 * 1024


def simulate(sys: SystemSpec, T: float, dt: Optional[float] = None,
             record_every: Optional[int] = None, scheme: Scheme = "two_stage",
             seed: Optional[int] = None) -> Trajectory:
    """Advance the system to time T, recording norms every step.

    ``T`` is rounded to a whole number of steps of size ``dt`` (default
    min(1e-3, h)).  The full field is kept at step 0, at every
    ``record_every``-th step (default about 2000 over the run) and at the
    last step, in ``Trajectory.states``: one array of shape
    (k, n_components, grid.n) allocated before the first step.  Blow-up
    raises :class:`BlowUpError` carrying the failure time; non-finite values
    are never recorded.  Norms are computed a block of steps at a time;
    errors are still raised in step order.

    Each step writes its state straight into one of two blocks of states,
    which alternate: the step after a block's norms reads that block's last
    state and writes into the other.  A kept state is copied into its row of
    ``states``.
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
    initial = sys.initial.values
    block_len = max(1, _NORM_BLOCK_BYTES // initial.nbytes)
    plan = _StepPlan(sys, times, dt, scheme, block_len)
    series = np.empty((5, n_steps + 1))  # l2, sup, h1_semi, h2, lp1
    kept = np.unique(np.append(np.arange(0, n_steps + 1, record_every), n_steps))
    states = np.empty((len(kept),) + initial.shape)
    states[0] = initial
    row = 1  # the next row of `states` to write

    block, spare = np.empty((2, block_len) + initial.shape)
    block[0] = initial
    count = 1  # states in `block` whose norms are not in `series`
    done = 0   # states whose norms are in `series`

    def flush():
        nonlocal count, done
        first, pending = done, block[:count]
        done += count
        count = 0
        rows = series[:, first:done]
        with np.errstate(over="ignore", invalid="ignore"):
            rows[:] = _norm_rows(pending, grid, weights, lp_exp, plan.scratch).T
        finite = np.isfinite(rows).all(axis=0)
        if not finite.all():
            # finite state whose squared norms overflow: treat as blow-up,
            # non-finite values are never recorded
            raise BlowUpError(float(times[first + int(np.argmin(finite))]))

    values = block[0]
    try:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for step in range(1, n_steps + 1):
                if count == block_len:
                    flush()
                    block, spare = spare, block
                values = plan.advance(values, step - 1, block[count])
                count += 1
                if step % record_every == 0 or step == n_steps:
                    # the block is written again two blocks later
                    states[row] = values
                    row += 1
        flush()
    except Exception:
        # the buffered states come before the failing step: if the norms of
        # one of them overflow, that is the first failure in step order
        if count:
            try:
                flush()
            except BlowUpError as earlier:
                raise earlier from None
        raise

    metadata = {"dt": dt, "scheme": scheme, "seed": seed,
                "record_every": record_every, "T": float(times[-1]), "steps": n_steps,
                "solves": plan.solves, "factorizations": plan.factorizations,
                "reaction_evals": plan.reaction_evals}
    l2, sup, h1, h2, lp1 = series
    return Trajectory(times=times, l2=l2, sup=sup, h1_semi=h1, h2=h2, lp1=lp1,
                      snapshot_times=times[kept], grid=grid, states=states,
                      metadata=metadata)


def energy_inequality_residuals(traj: Trajectory, sys: SystemSpec) -> np.ndarray:
    """Residuals of the discrete energy inequality between consecutive steps.

    Checks (g_{i+1}^2 - g_i^2) / (2 dt) <= -d(t) ||grad u||^2 - gamma(t) g^2
    + c0(t) * integral |u|^{p+1}, with d(t) = min_i d_i(t), gamma(t) from
    :func:`rdcert.profiles.gamma_of_t` and the right side averaged over the
    two endpoints.  Positive entries measure violation; along a consistent
    trajectory they stay within O(dt + h^2) of zero.
    """
    times = traj.times
    dt = float(times[1] - times[0])
    d_min = _diffusion_table(sys, times).min(axis=0)
    gammas = gamma_of_t(sys.kinetics, times)
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
    f = u*_t - D(t) (u*)_xx - F(u*) is appended to the reaction.

    The forcing computes F(u*) as :func:`rdcert.profiles.eval_reaction` does,
    input checks included, in arrays it keeps from call to call while the
    shape of u* stays the same.  When the reaction vanishes identically
    (A = 0, no nonlinearity) it checks u* and leaves F(u*) out.  Every call
    returns a fresh array; :func:`simulate` calls it once per time of the
    run."""
    profiles = tuple(diffusion)
    zero_reaction = kinetics.nonlinearity == "none" and not kinetics.linear.any()
    work = []  # F(u*), the saturation row and the product

    def forcing(xs, t):
        exact = np.atleast_2d(np.asarray(case.solution(xs, t), dtype=float))
        d_vals = np.array([eval_profile(p, t) for p in profiles])
        lap = np.atleast_2d(np.asarray(case.laplacian(xs, t), dtype=float))
        dudt = np.atleast_2d(np.asarray(case.time_derivative(xs, t), dtype=float))
        f = d_vals[:, None] * lap
        np.subtract(dudt, f, out=f)
        if zero_reaction:
            _check_state(kinetics, exact)
        else:
            if not work or work[0].shape != exact.shape:
                work[:] = (np.empty(exact.shape), np.empty((1,) + exact.shape[1:]),
                           np.empty(exact.shape))
            f -= _reaction_into(kinetics, exact, t, *work)
        return f

    initial = Field(grid, np.atleast_2d(np.asarray(case.solution(grid.x, 0.0), dtype=float)))
    return SystemSpec(grid=grid, kinetics=kinetics, diffusion=profiles,
                      initial=initial, forcing=forcing)


def _final_error(sys: SystemSpec, case: ManufacturedCase, T: float, dt: float,
                 scheme: Scheme) -> float:
    traj = simulate(sys, T, dt=dt, record_every=10 ** 9, scheme=scheme)
    exact = np.atleast_2d(np.asarray(case.solution(sys.grid.x, traj.metadata["T"]), dtype=float))
    diff = traj.states[-1] - exact
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
    """Slope of log error against log step over the levels as listed; the
    errors must fall as the step shrinks, whatever order the levels are in."""
    steps = np.asarray(steps, dtype=float)
    errors = np.asarray(errors, dtype=float)
    scale = max(float(np.max(errors)), 0.0)
    if scale < 1e-12:
        return math.inf, "exact"
    if np.any(np.diff(errors[np.argsort(-steps, kind="stable")]) >= 0.0):
        raise InconclusiveOrderError(
            f"{what} errors do not decrease monotonically: {errors.tolist()}")
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
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
    refine dt on one fine grid.  Each study needs at least two levels.
    Errors at round-off level short-circuit to the label "exact";
    non-monotone errors raise :class:`InconclusiveOrderError`.
    """
    if len(space_ns) < 2 or len(time_dts) < 2:
        raise ValueError("space_ns and time_dts need at least two refinement levels each")
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
