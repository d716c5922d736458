"""scalar-certify: certificate, comparison and stability jobs with no PDE.

Each job is one request to the scalar layers: a scenario constructor with a
dense certificate check (about 10^6 grid points), one ``comparison_solve``,
or one dispersion analysis (``dispersion_scan``, ``turing_conditions`` and
``critical_d1`` for every admissible mode).  Inputs are drawn from --seed in
a fixed cycle of job kinds.  Every answer is checked against an oracle that
shares no code with the layer it checks:

* scenarios: the certificate residual mu^(q-1) (sigma - mu'/mu) - alpha in
  closed form on an independent grid decides whether the check must pass;
* comparison_solve: the constant-coefficient closed form and blow-up time of
  the Bernoulli equation, or g0 exp(-int sigma) when alpha = 0;
* dispersion: the instability band against the sign of det M(k) written out
  from the matrix entries, and det M(k_n) = 0 at each critical d1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

NAME = "scalar-certify"
TAIL_PERCENTILE = 90

# Sizes per job kind, chosen so that every kind costs about the same (about
# 0.08 s at the defining commit): the latency distribution is then one lump and
# its median and tail do not jump between kinds from one seed to the next.
GRID_POINTS = {"scenario-exp": 1_250_000, "scenario-pow": 1_000_000,
               "scenario-neu": 800_000, "scenario-mod": 1_250_000,
               "scenario-na": 1_000_000}
DISPERSION_SAMPLES = 1_100_000
COMPARISON_HORIZON = {"comparison-decay": 15.0, "comparison-blowup": 30.0,
                      "comparison-sign": 20.0}
ORACLE_POINTS = 20_001
COMPARISON_RTOL = 1e-6
COMPARISON_ATOL = 1e-14   # 100 times the absolute tolerance comparison_solve uses
DET_RTOL = 1e-9

# Job kinds per cycle.  "scenario-na" asks for the exponential regime with
# Neumann ends, which the constructor must refuse.
CYCLE = ("scenario-exp", "comparison-decay", "scenario-pow", "comparison-blowup",
         "scenario-neu", "dispersion", "scenario-mod", "comparison-sign",
         "scenario-na", "dispersion")


@dataclass(frozen=True)
class Job:
    id: str
    kind: str
    params: dict = field(hash=False)


def _q(p):
    return (p + 3.0) / 4.0


# -- scenario oracle ---------------------------------------------------------

def _power_profile(v0, exponent, t):
    return v0 * (1.0 + t) ** (-exponent)


def residual_min(params) -> float:
    """Minimum over an independent grid of the certificate residual."""
    p = params
    t = np.linspace(0.0, p["horizon"], ORACLE_POINTS)
    q = _q(p["inputs"]["p"])
    if p["c0_exponent"] == 0.0:
        alpha = p["alpha_factor"] * p["c0"] * np.ones_like(t)
    else:
        alpha = p["alpha_factor"] * _power_profile(p["c0"], p["c0_exponent"], t)
    family = p["family"]
    if family == "exponential":
        mu = np.exp(p["nu"] * t) / p["inputs"]["g0"]
        log_d = np.full_like(t, p["nu"])
    elif family == "power":
        mu = (1.0 + t) ** p["m"] / p["inputs"]["g0"]
        log_d = p["m"] / (1.0 + t)
    else:
        decay = (1.0 + t) ** (-p["nu"])
        mu = p["mu0"] + p["mu1"] * decay
        log_d = -p["nu"] * p["mu1"] * decay / (1.0 + t) / mu
    sigma = p["sigma"](t)
    return float(np.min(mu ** (q - 1.0) * (sigma - log_d) - alpha))


def scenario_params(kind, rng):
    c_omega = lambda L: (math.pi / L) ** 2  # noqa: E731
    factor = rng.uniform(1.0, 3.0)
    if kind in ("scenario-exp", "scenario-na"):
        L, d0, a0 = math.pi * rng.uniform(0.9, 1.1), rng.uniform(1.5, 2.5), rng.uniform(0.5, 1.0)
        sigma0 = d0 * c_omega(L) - a0
        return {"constructor": "exponential_decay_scenario", "horizon": 20.0,
                "inputs": dict(L=L, bc="neumann" if kind == "scenario-na" else "dirichlet",
                               a0=a0, d0=d0, p=2.0, g0=rng.uniform(0.05, 0.2)),
                "c0": rng.uniform(0.01, 0.1), "c0_exponent": 0.0, "alpha_factor": factor,
                "family": "exponential", "nu": 0.5 * sigma0,
                "sigma": lambda t: np.full_like(t, sigma0)}
    if kind == "scenario-pow":
        L, d0, gamma0, m = (rng.uniform(0.9, 1.1), rng.uniform(1.5, 2.5),
                            rng.uniform(0.1, 0.4), rng.uniform(1.0, 2.0))
        cd = c_omega(L) * d0
        return {"constructor": "power_decay_scenario", "horizon": 50.0,
                "inputs": dict(L=L, bc="dirichlet", d0=d0, gamma0=gamma0, k=1.0, m=m, p=2.0,
                               g0=rng.uniform(0.2, 0.5)),
                "c0": rng.uniform(0.2, 0.8), "c0_exponent": 1.0, "alpha_factor": factor,
                "family": "power", "m": m,
                "sigma": lambda t: cd / (1.0 + t) - gamma0 / (1.0 + t)}
    if kind == "scenario-neu":
        gamma0, g0 = rng.uniform(0.05, 0.15), rng.uniform(0.3, 0.7)
        mu0 = mu1 = 0.5 / g0
        return {"constructor": "bounded_neumann_scenario", "horizon": 50.0,
                "inputs": dict(L=1.0, bc="neumann", gamma0=gamma0, k=2.0, nu=1.0,
                               mu0=mu0, mu1=mu1, p=2.0, g0=g0),
                "c0": rng.uniform(0.1, 0.3), "c0_exponent": 2.0, "alpha_factor": factor,
                "family": "bounded", "nu": 1.0, "mu0": mu0, "mu1": mu1,
                "sigma": lambda t: -gamma0 * (1.0 + t) ** -2.0}
    # scenario-mod: the Turing pair of demos/configs/theorem34_*.cfg, decay
    # case on L ~ 2 or bounded case on L ~ 4, one of each per two cycles.
    decay = rng.random() < 0.5
    L = rng.uniform(1.8, 2.2) if decay else rng.uniform(3.6, 4.4)
    g0 = rng.uniform(0.05, 0.2)
    sign = 0.5 * c_omega(L) - 1.0    # min(d1, d2) c(Omega) - gamma0, gamma0 = 1
    if decay:
        phi0, exponent = 10.0 * rng.uniform(0.8, 1.2), 1.0
        extra = dict(m=1.0)
        oracle = {"family": "power", "m": 1.0}
        c0 = rng.uniform(0.005, 0.02)
    else:
        phi0, exponent = 0.35, 2.0
        extra = dict(nu=1.0, mu0=0.5 / g0, mu1=0.5 / g0)
        oracle = {"family": "bounded", "nu": 1.0, "mu0": 0.5 / g0, "mu1": 0.5 / g0}
        c0 = rng.uniform(0.02, 0.08)
    return dict(oracle, constructor="modulated_scenario", horizon=50.0,
                inputs=dict(L=L, bc="dirichlet", matrix=[[1.0, 2.0], [-2.0, -2.0]],
                            d1=0.5, d2=10.0, phi=(phi0, exponent), p=2.0,
                            g0=g0, **extra),
                c0=c0, c0_exponent=0.0, alpha_factor=factor,
                sigma=lambda t: sign * _power_profile(phi0, exponent, t))


# -- comparison oracle -------------------------------------------------------

def comparison_params(kind, rng):
    q = rng.uniform(1.2, 1.6)
    if kind == "comparison-decay":
        return {"sigma": rng.uniform(0.5, 2.0), "alpha": rng.uniform(0.1, 0.5), "q": q,
                "g0": rng.uniform(0.2, 0.8), "horizon": COMPARISON_HORIZON[kind]}
    if kind == "comparison-blowup":
        return {"sigma": rng.uniform(-0.3, 0.3), "alpha": rng.uniform(0.5, 2.0), "q": q,
                "g0": rng.uniform(1.0, 3.0), "horizon": COMPARISON_HORIZON[kind]}
    # sign-changing sigma(t) = s0 cos(w t) with alpha = 0: g = g0 exp(-s0 sin(w t) / w)
    return {"s0": rng.uniform(0.5, 1.5), "w": rng.uniform(0.5, 2.0), "alpha": 0.0, "q": q,
            "g0": rng.uniform(0.5, 1.5), "horizon": COMPARISON_HORIZON[kind]}


def dispersion_params(rng):
    return {"a": rng.uniform(0.8, 1.2), "b": rng.uniform(1.5, 2.5),
            "c": rng.uniform(-2.5, -1.5), "d": rng.uniform(-2.5, -1.5),
            "d1": rng.uniform(0.3, 0.7), "d2": rng.uniform(8.0, 12.0),
            "L": rng.uniform(3.0, 5.0)}


def det_formula(p, k, d1=None):
    k2 = np.asarray(k, dtype=float) ** 2
    d1 = p["d1"] if d1 is None else d1
    return (p["a"] - d1 * k2) * (p["d"] - p["d2"] * k2) - p["b"] * p["c"]


class Workload:
    name = NAME
    tail_percentile = TAIL_PERCENTILE
    cycle_length = len(CYCLE)

    def __init__(self, seed: int, work_dir: str, scale: float = 1.0):
        import rdcert
        self.rd = rdcert
        self.rng = random.Random(seed)
        self.grid_points = {k: max(100, int(v * scale)) for k, v in GRID_POINTS.items()}
        self.samples = max(100, int(DISPERSION_SAMPLES * scale))
        self.position = 0
        self.inputs = (f"certificate grid points {self.grid_points}, dispersion samples "
                       f"{self.samples}, comparison horizons {COMPARISON_HORIZON}")

    def next_job(self) -> Job:
        kind = CYCLE[self.position % len(CYCLE)]
        job_id = f"{self.position}-{kind}"
        self.position += 1
        if kind.startswith("scenario"):
            return Job(job_id, kind, scenario_params(kind, self.rng))
        if kind.startswith("comparison"):
            return Job(job_id, kind, comparison_params(kind, self.rng))
        return Job(job_id, kind, dispersion_params(self.rng))

    # -- timed part --------------------------------------------------------

    def run(self, job: Job):
        rd = self.rd
        p = job.params
        if job.kind.startswith("scenario"):
            inputs = dict(p["inputs"])
            if "phi" in inputs:
                inputs["phi"] = rd.TimeProfile.power_decay(*inputs["phi"])
            if "matrix" in inputs:
                inputs["matrix"] = np.asarray(inputs["matrix"])
            c0 = (rd.TimeProfile.constant(p["c0"]) if p["c0_exponent"] == 0.0
                  else rd.TimeProfile.power_decay(p["c0"], p["c0_exponent"]))
            scenario_inputs = rd.ScenarioInputs(c0=c0, alpha_factor=p["alpha_factor"], **inputs)
            try:
                return getattr(rd, p["constructor"])(scenario_inputs, horizon=p["horizon"],
                                                 grid_points=self.grid_points[job.kind])
            except rd.ScenarioNotApplicable as exc:
                return exc
        if job.kind.startswith("comparison"):
            if job.kind == "comparison-sign":
                s0, w = p["s0"], p["w"]
                sigma = lambda t: s0 * np.cos(w * np.asarray(t, dtype=float))  # noqa: E731
            else:
                sigma = rd.TimeProfile.constant(p["sigma"])
            problem = rd.ScalarProblem(sigma=sigma, alpha=rd.TimeProfile.constant(p["alpha"]),
                                       q=p["q"], g0=p["g0"])
            return rd.comparison_solve(problem, p["horizon"])
        lin = rd.Linearization2(a=p["a"], b=p["b"], c=p["c"], d=p["d"], d1=p["d1"], d2=p["d2"])
        report = rd.dispersion_scan(lin, samples=self.samples, L=p["L"])
        conditions = rd.turing_conditions(lin)
        critical = []
        for mode in report.modes:
            try:
                critical.append((mode.k, rd.critical_d1(p["a"], p["b"], p["c"], p["d"],
                                                        p["d2"], mode.k)))
            except ValueError:  # det M(k) independent of d1 at this k
                critical.append((mode.k, None))
        return report, conditions, critical

    # -- oracles -----------------------------------------------------------

    def check(self, job: Job, outcome) -> list:
        if job.kind.startswith("scenario"):
            return self._check_scenario(job, outcome)
        if job.kind.startswith("comparison"):
            return self._check_comparison(job, outcome)
        return self._check_dispersion(job, outcome)

    def _check_scenario(self, job, outcome):
        if job.kind == "scenario-na":
            if isinstance(outcome, self.rd.ScenarioNotApplicable):
                return []
            return [f"expected ScenarioNotApplicable, got {type(outcome).__name__}"]
        if isinstance(outcome, Exception):
            return [f"scenario not applicable: {outcome}"]
        check = outcome.certificate_check
        problems = []
        if check.grid_points != self.grid_points[job.kind]:
            problems.append(f"checked {check.grid_points} points, "
                            f"asked {self.grid_points[job.kind]}")
        expected = residual_min(job.params) >= 0.0
        if check.passed != expected:
            problems.append(f"certificate check passed={check.passed}, oracle {expected}")
        if outcome.hypotheses.conditions.get("comparison_inequality") != check.passed:
            problems.append("hypotheses disagree with the certificate check")
        return problems

    def _check_comparison(self, job, sol):
        rd, p = self.rd, job.params
        if job.kind == "comparison-sign":
            def closed(t):
                return p["g0"] * math.exp(-p["s0"] * math.sin(p["w"] * t) / p["w"])
            t_star = None
        else:
            def closed(t):
                return rd.bernoulli_closed_form(p["sigma"], p["alpha"], p["q"], p["g0"], t)
            t_star = rd.bernoulli_blowup_time(p["sigma"], p["alpha"], p["q"], p["g0"])
        problems = []
        if (sol.blowup_time is None) != (t_star is None):
            return [f"blow-up time {sol.blowup_time!r}, closed form {t_star!r}"]
        if t_star is not None and not math.isclose(sol.blowup_time, t_star,
                                                   rel_tol=COMPARISON_RTOL):
            problems.append(f"blow-up time {sol.blowup_time!r}, closed form {t_star!r}")
        end = 0.9 * t_star if t_star is not None else p["horizon"]
        for t in np.linspace(0.0, end, 17):
            got, want = sol.value(float(t)), closed(float(t))
            if not math.isclose(got, want, rel_tol=COMPARISON_RTOL, abs_tol=COMPARISON_ATOL):
                problems.append(f"g({t:.4g}) = {got!r}, closed form {want!r}")
                break
        return problems

    def _check_dispersion(self, job, outcome):
        p = job.params
        report, conditions, critical = outcome
        problems = []
        det = det_formula(p, report.k)
        scale = abs(p["a"] * p["d"]) + abs(p["b"] * p["c"]) + p["d1"] * p["d2"] * report.k ** 4
        if np.any(np.abs(report.det - det) > DET_RTOL * scale):
            problems.append("det M(k) differs from the closed form")
        clear = np.abs(det) > DET_RTOL * scale
        if report.band is None:
            inside = np.zeros_like(det, dtype=bool)
        else:
            inside = (report.k > report.band[0]) & (report.k < report.band[1])
        if np.any(((det < 0.0) != inside) & clear):
            problems.append(f"instability band {report.band} disagrees with sign(det M)")
        if conditions.band != report.band:
            problems.append("turing_conditions and dispersion_scan report different bands")
        stable = p["a"] + p["d"] < 0.0 and p["a"] * p["d"] - p["b"] * p["c"] > 0.0
        if conditions.kinetics_stable != stable:
            problems.append("kinetics stability flag is wrong")
        for k, crit in critical:
            if crit is None:
                continue
            residual = float(det_formula(p, k, crit.d1_star))
            size = (abs(p["a"] * p["d"]) + abs(p["b"] * p["c"])
                    + abs(crit.d1_star) * k * k * (abs(p["d"]) + p["d2"] * k * k))
            if abs(residual) > DET_RTOL * size:
                problems.append(f"det M(k={k:.4g}) = {residual:.3e} at critical d1")
        return problems
