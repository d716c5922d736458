"""fine-grid: manufactured-solution runs on 10^4-scale grids.

Each job builds ``manufactured_system`` for the exact solution
u_i(x, t) = a_i (1 + t) S(x), with S = sin(k x) under Dirichlet ends and
cos(k x) under Neumann ends (k = m pi / L), runs ``simulate`` and evaluates
``energy_inequality_residuals``.  The job's latency is its time to a solution
of stated accuracy: the result must match the error the scheme is known to
make, and the energy residuals must match their values on the exact
solution to O(h^2) (the dt part of the usual O(dt + h^2) bound vanishes for a
solution linear in t).

Why these oracles hold.  S is an exact eigenvector of the three-point
Laplacian with eigenvalue lambda_h = (4/h^2) sin^2(k h/2), and the kinetics
are zero, so the error amplitude e_i obeys e' = -mu e + s a_i (1 + t) with
mu = D_i lambda_h and s = D_i (k^2 - lambda_h).  Its forcing is linear in t,
which the Crank-Nicolson step integrates exactly, so the discrete error is
the particular solution plus a transient damped by R = (1 - z/2)/(1 + z/2)
per step (z = mu dt).  Halving h divides that error by 4: the pair of jobs
(N, refined N) of one cycle slot gives the observed spatial order 2.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

NAME = "fine-grid"
TAIL_PERCENTILE = 90

T_FINAL = 0.05
# (boundary condition, components, coarse N, coarse steps).  The refined job
# of each pair has h/2 and half the steps, so both cost about the same.
SLOTS = (("dirichlet", 1, 12_000, 60), ("neumann", 1, 12_000, 60),
         ("dirichlet", 2, 10_000, 40), ("neumann", 2, 10_000, 40))
ERROR_RTOL = 1e-2         # measured error against the predicted discrete error
ORDER_TOL = 0.02          # |observed spatial order - 2|
ENERGY_FACTOR = 20.0      # residual deviation <= factor (k h)^2 max |exact residual|


@dataclass(frozen=True)
class Job:
    id: str
    bc: str
    n: int
    steps: int
    L: float
    mode: int
    diffusion: tuple
    amps: tuple
    pair: str
    refined: bool

    @property
    def kind(self):
        return f"{self.bc}-{len(self.amps)}-{'refined' if self.refined else 'coarse'}"

    @property
    def k(self):
        return self.mode * math.pi / self.L

    @property
    def h(self):
        return self.L / (self.n + 1) if self.bc == "dirichlet" else self.L / (self.n - 1)

    @property
    def x(self):
        if self.bc == "dirichlet":
            return np.linspace(self.h, self.L - self.h, self.n)
        return np.linspace(0.0, self.L, self.n)


def weights(job: Job) -> np.ndarray:
    w = np.full(job.n, job.h)
    if job.bc == "neumann":
        w[0] *= 0.5
        w[-1] *= 0.5
    return w


def shape_of(job: Job) -> np.ndarray:
    return np.sin(job.k * job.x) if job.bc == "dirichlet" else np.cos(job.k * job.x)


def predicted_error(job: Job) -> float:
    """L2 error of the discrete solution at T_FINAL, from the mode recurrence."""
    h, k = job.h, job.k
    lam_h = 4.0 / (h * h) * math.sin(0.5 * k * h) ** 2
    dt = T_FINAL / job.steps
    shape = shape_of(job)
    norm_s = math.sqrt(float((shape * shape) @ weights(job)))
    total = 0.0
    for d, a in zip(job.diffusion, job.amps):
        mu, s = d * lam_h, d * (k * k - lam_h)
        z = mu * dt
        damping = ((1.0 - 0.5 * z) / (1.0 + 0.5 * z)) ** job.steps
        particular = lambda t: s * a * ((1.0 + t) / mu - 1.0 / (mu * mu))  # noqa: E731
        total += (particular(T_FINAL) - particular(0.0) * damping) ** 2
    return math.sqrt(total) * norm_s


def exact_energy_residuals(job: Job, times: np.ndarray) -> np.ndarray:
    """energy_inequality_residuals evaluated on the exact solution."""
    shape = shape_of(job)
    norm_sq = float((shape * shape) @ weights(job))
    if job.bc == "dirichlet":
        edges = np.concatenate([shape[:1], np.diff(shape), -shape[-1:]])
    else:
        edges = np.diff(shape)
    grad_sq = float(edges @ edges) / job.h
    amp_sq = sum(a * a for a in job.amps)
    d_min = min(job.diffusion)
    lhs = amp_sq * norm_sq * (1.0 + 0.5 * (times[1:] + times[:-1]))
    rhs = -d_min * amp_sq * grad_sq * (1.0 + times) ** 2
    return lhs - 0.5 * (rhs[1:] + rhs[:-1])


class Workload:
    name = NAME
    tail_percentile = TAIL_PERCENTILE
    cycle_length = 2 * len(SLOTS)

    def __init__(self, seed: int, work_dir: str, scale: float = 1.0):
        import rdcert
        self.rd = rdcert
        self.rng = random.Random(seed)
        self.scale = scale
        self.queue = []
        self.cycles = 0
        self.coarse_error = {}
        self.inputs = "; ".join(
            f"{bc} {comps}-component N {max(64, int(n * scale))} x {steps} steps "
            f"and refined x {steps // 2}" for bc, comps, n, steps in SLOTS)

    def _fill(self):
        for bc, comps, n, steps in SLOTS:
            pair = f"c{self.cycles}-{bc}-{comps}"
            common = dict(
                bc=bc, L=self.rng.uniform(0.8, 1.2), mode=self.rng.choice((6, 7, 8)),
                diffusion=tuple(self.rng.uniform(0.5, 1.5) for _ in range(comps)),
                amps=tuple(self.rng.uniform(0.5, 2.0) for _ in range(comps)), pair=pair)
            # scale shrinks the grid only: fewer steps would leave the start-up
            # transient undamped and hide the spatial order
            n = max(64, int(n * self.scale))
            fine_n = 2 * n + 1 if bc == "dirichlet" else 2 * n - 1
            self.queue.append(Job(id=pair + "/coarse", n=n, steps=steps, refined=False,
                                  **common))
            self.queue.append(Job(id=pair + "/refined", n=fine_n, steps=steps // 2,
                                  refined=True, **common))
        self.cycles += 1

    def next_job(self) -> Job:
        if not self.queue:
            self._fill()
        return self.queue.pop(0)

    def run(self, job: Job):
        rd = self.rd
        grid = rd.Grid1D(job.L, job.n, job.bc)
        shape = np.sin(job.k * grid.x) if job.bc == "dirichlet" else np.cos(job.k * grid.x)
        profile = np.asarray(job.amps)[:, None] * shape[None, :]
        k2 = job.k * job.k
        case = rd.ManufacturedCase(
            solution=lambda x, t: (1.0 + t) * profile,
            time_derivative=lambda x, t: profile,
            laplacian=lambda x, t: (-k2 * (1.0 + t)) * profile)
        comps = len(job.amps)
        kinetics = rd.KineticsSpec(n_components=comps, linear=np.zeros((comps, comps)))
        diffusion = tuple(rd.TimeProfile.constant(d, positive=True) for d in job.diffusion)
        system = rd.manufactured_system(grid, kinetics, diffusion, case)
        traj = rd.simulate(system, T_FINAL, dt=T_FINAL / job.steps, record_every=job.steps)
        residuals = rd.energy_inequality_residuals(traj, system)
        return traj, residuals

    def check(self, job: Job, outcome) -> list:
        traj, residuals = outcome
        problems = []
        t_end = float(traj.snapshot_times[-1])
        if not math.isclose(t_end, T_FINAL, rel_tol=1e-12):
            problems.append(f"final time {t_end!r}, expected {T_FINAL!r}")
        exact = (1.0 + T_FINAL) * np.asarray(job.amps)[:, None] * shape_of(job)[None, :]
        diff = traj.snapshots[-1].values - exact
        error = math.sqrt(float(np.sum(diff * diff, axis=0) @ weights(job)))
        expected = predicted_error(job)
        if not math.isclose(error, expected, rel_tol=ERROR_RTOL):
            problems.append(f"manufactured error {error:.6e}, known value {expected:.6e}")
        if job.refined:
            coarse = self.coarse_error.pop(job.pair, None)
            if coarse is None:
                problems.append("coarse partner missing")
            else:
                order = math.log(coarse / error) / math.log(2.0)
                if abs(order - 2.0) > ORDER_TOL:
                    problems.append(f"observed spatial order {order:.4f}, known value 2")
        else:
            self.coarse_error[job.pair] = error
        exact = exact_energy_residuals(job, traj.times)
        deviation = float(np.max(np.abs(residuals - exact)))
        bound = ENERGY_FACTOR * (job.k * job.h) ** 2 * float(np.max(np.abs(exact)))
        if not deviation <= bound:
            problems.append(f"energy residual deviation {deviation:.3e} exceeds {bound:.3e}")
        return problems
