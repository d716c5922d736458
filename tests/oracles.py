"""Reference implementations that only the tests use.

Each one is a second way to compute something rdcert computes: a single IMEX
step driven from the solver's step plan, the explicit three-point Laplacian,
and a measured growth rate of one linearized mode.  pytest does not collect
this file; the tests import it as ``oracles``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from rdcert.grid import Field, Grid1D
from rdcert.profiles import KineticsSpec, TimeProfile
from rdcert.solver import Scheme, SystemSpec, _StepPlan, simulate
from rdcert.stability import Linearization2, eig2, m_of_k


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


def step_imex(state: Field, t: float, dt: float, sys: SystemSpec,
              scheme: Scheme = "two_stage", end: Optional[float] = None) -> Field:
    """One IMEX step of size dt from time t to ``end``, t + dt by default (a
    run takes both times from its grid dt * arange(steps + 1)); returns a
    new field, the input is untouched."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if state.grid != sys.grid:
        raise ValueError("state lives on a different grid")
    times = np.array([t, t + dt if end is None else end], dtype=float)
    plan = _StepPlan(sys, times, dt, scheme, norm_states=0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return Field._trusted(sys.grid, plan.advance(state.values, 0,
                                                     np.empty(state.values.shape)))


@dataclass(frozen=True)
class GrowthRateResult:
    measured: Optional[float]
    predicted: float
    mode: int
    k: float
    window: tuple[float, float]
    degenerate: bool
    oscillatory: bool  # leading eigenvalue is complex; the fit is unreliable

    @property
    def relative_gap(self) -> float:
        if self.measured is None:
            return math.inf
        scale = max(abs(self.predicted), 1e-12)
        return abs(self.measured - self.predicted) / scale


def _leading_eigenvector(m: np.ndarray, lam: complex) -> np.ndarray:
    rows = [np.array([m[0, 0] - lam.real, m[0, 1]]),
            np.array([m[1, 0], m[1, 1] - lam.real])]
    # (M - lam I) p = 0: build p from the numerically larger row
    cand1 = np.array([-rows[0][1], rows[0][0]])
    cand2 = np.array([-rows[1][1], rows[1][0]])
    p = cand1 if np.linalg.norm(rows[0]) >= np.linalg.norm(rows[1]) else cand2
    norm = np.linalg.norm(p)
    if norm == 0.0:  # defective or diagonal: fall back to a coordinate direction
        p = np.array([1.0, 0.0])
        norm = 1.0
    return p / norm


def growth_rate_experiment(lin: Linearization2, L: float, mode: int,
                           n_nodes: int = 400, dt: float = 1e-3,
                           horizon: float = 5.0, amplitude: float = 1e-3,
                           fit_window: tuple[float, float] = (0.5, 1.0),
                           scheme: str = "two_stage") -> GrowthRateResult:
    """Simulate the linearized pair seeded with one sin(k_n x) eigenmode and
    fit the log-norm slope against the predicted Re lambda_1(k_n).

    A zero seed gives a zero trajectory and is reported as degenerate instead
    of a rate.
    """
    if mode < 1:
        raise ValueError("mode number must be >= 1")
    k = mode * math.pi / L
    m_k = m_of_k(lin, k)
    lam1 = eig2(m_k)[0]
    oscillatory = abs(lam1.imag) > 1e-12
    grid = Grid1D(L, n_nodes, "dirichlet")
    direction = _leading_eigenvector(m_k, lam1)
    values = amplitude * direction[:, None] * np.sin(k * grid.x)[None, :]
    kin = KineticsSpec(n_components=2, linear=lin.matrix)
    sys = SystemSpec(grid=grid, kinetics=kin,
                     diffusion=(TimeProfile.constant(lin.d1, positive=True),
                                TimeProfile.constant(lin.d2, positive=True)),
                     initial=Field(grid, values))
    traj = simulate(sys, horizon, dt=dt, scheme=scheme)
    lo = fit_window[0] * traj.times[-1]
    hi = fit_window[1] * traj.times[-1]
    sel = (traj.times >= lo) & (traj.times <= hi)
    window = (float(lo), float(hi))
    if amplitude == 0.0 or np.any(traj.g[sel] <= 0.0) or sel.sum() < 2:
        return GrowthRateResult(measured=None, predicted=lam1.real, mode=mode, k=k,
                                window=window, degenerate=True, oscillatory=oscillatory)
    slope = float(np.polyfit(traj.times[sel], np.log(traj.g[sel]), 1)[0])
    return GrowthRateResult(measured=slope, predicted=lam1.real, mode=mode, k=k,
                            window=window, degenerate=False, oscillatory=oscillatory)
