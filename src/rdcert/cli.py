"""Command-line batch surface: simulate, analyze-dispersion, check-certificate,
run-theorem, convergence-test, estimate-constants.

Every command reads one config file and writes its outputs (report.json,
CSV series, simulate's snapshots.npy, optional SVG plots) into --out.  Exit
codes: 0 all checks passed, 1 usage or config error, 2 hypotheses failed or
scenario not applicable, 3 envelope or bound violated.  A solver blow-up is
reported by main, as status blow_up in report.json with exit 0 for simulate
and 3 otherwise.  report.json is byte-reproducible; wall-clock metadata, the
command and its exit code go to run_meta.json, written on every exit once
--out exists.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .apriori import (agmon_aggregate, build_paraboloid, find_constant_upper,
                      verify_pointwise_bound)
from .config import (ConfigError, RunConfig, build_diffusion, build_kinetics,
                     build_system, parse_config, parse_value)
from .grid import discrete_norms, poincare_constant
from .inequality import (Certificate, ScalarProblem, check_certificate, growth_residual,
                         verify_envelope)
from .profiles import (ProfileSum, effective_c0, eval_profile, reaction_sup_bound,
                       symmetric_part_max)
from .reporting import svg_line_plot, write_csv, write_report, write_run_meta
from .scenarios import (ScenarioInputs, ScenarioNotApplicable, bounded_neumann_scenario,
                        comparison_exponent, comparison_sigma, exponential_decay_scenario,
                        modulated_scenario, power_decay_scenario)
from .solver import BlowUpError, convergence_orders, InconclusiveOrderError, \
    ManufacturedCase, simulate
from .stability import Linearization2, dispersion_scan, turing_conditions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESES = 2
EXIT_ENVELOPE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit-code control in main()
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing does not
    change it, and every call returns a new namespace."""
    parser = _Parser(prog="rdcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="config file path")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--plots", action="store_true", help="also write SVG plots")
        cmd.add_argument("--seed", type=int, default=None, help="override [run].seed")
        cmd.add_argument("--grid-points", default=None,
                         help="override the certificate-check grid density")
        cmd.set_defaults(func=func)
        return cmd

    add("simulate", _cmd_simulate, "integrate the system and record norm series")
    add("analyze-dispersion", _cmd_dispersion, "eigenvalues of the mode matrix over k")
    add("check-certificate", _cmd_check_certificate,
        "check a decay certificate against the configured system")
    run_theorem = add("run-theorem", _cmd_run_theorem,
                      "full pipeline: simulate, check hypotheses, verify the envelope")
    run_theorem.add_argument("which", choices=("3.1", "3.2", "3.3", "3.4"),
                             help="scenario id")
    add("convergence-test", _cmd_convergence, "manufactured-solution order verification")
    add("estimate-constants", _cmd_estimate, "measure the empirical constants on a run")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = code = None
    try:
        cfg = parse_config(args.config)
        if args.grid_points is not None:
            cfg.values["theorem"]["grid_points"] = parse_value(
                "theorem", "grid_points", args.grid_points)
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # an existing file, or a path under one
            print(f"usage error: --out {args.out!r}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
        out = Path(args.out)
        code = args.func(cfg, out, args)
    except BlowUpError as exc:  # a reportable outcome, not a crash
        report = {"status": "blow_up", "time_of_failure": exc.time}
        if args.command == "run-theorem":
            report["theorem"] = args.which
        write_report(out / "report.json", report)
        print(f"blow-up at t = {exc.time:.6g}: reported", file=sys.stderr)
        # simulate has no check to fail; the others have no envelope or order to verify
        code = EXIT_OK if args.command == "simulate" else EXIT_ENVELOPE
    except (ValueError, UsageError) as exc:  # ConfigError and the library's input checks
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    finally:
        # every exit once --out exists; exit_code stays null on an uncaught error
        if out is not None:
            write_run_meta(out / "run_meta.json", {"command": args.command,
                                                   "exit_code": code})
    return code


def _run_params(cfg: RunConfig, args):
    T = cfg.require("run", "T")
    dt = cfg.get("run", "dt")
    if dt is not None and not 0.0 < dt <= T:
        raise ConfigError("[run].dt must satisfy 0 < dt <= T")
    seed = args.seed if args.seed is not None else cfg.get("run", "seed")
    return T, dt, cfg.get("run", "record_every"), cfg.get("run", "scheme"), seed


def _configured(cfg: RunConfig, args):
    """(system, run) of the configured run: ``run()`` simulates it; a
    blow-up propagates to main."""
    T, dt, record_every, scheme, seed = _run_params(cfg, args)
    sys_spec = build_system(cfg, seed=seed)
    return sys_spec, functools.partial(simulate, sys_spec, T, dt=dt,
                                       record_every=record_every, scheme=scheme, seed=seed)


def _simulated(cfg: RunConfig, args):
    """(system, trajectory) of the configured run; a blow-up propagates to main."""
    sys_spec, run = _configured(cfg, args)
    return sys_spec, run()


def _write_trajectory_csv(path, traj):
    write_csv(path, ["t", "g", "sup", "h1_semi", "h2"],
              [traj.times, traj.g, traj.sup, traj.h1_semi, traj.h2])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg: RunConfig, out: Path, args) -> int:
    traj = _simulated(cfg, args)[1]
    _write_trajectory_csv(out / "series.csv", traj)
    np.save(out / "snapshots.npy", traj.states)
    write_csv(out / "snapshot_times.csv", ["t"], [traj.snapshot_times])
    write_report(out / "report.json", {
        "status": "completed",
        "final": {"t": traj.times[-1], "g": traj.g[-1], "sup": traj.sup[-1],
                  "h1_semi": traj.h1_semi[-1], "h2": traj.h2[-1]},
        "max_g": float(np.max(traj.g)),
        "metadata": traj.metadata,
    })
    if args.plots:
        svg_line_plot(out / "plots_norms.svg",
                      [(traj.times, traj.g, "g(t)"), (traj.times, traj.sup, "sup")],
                      title="norm series", xlabel="t", ylabel="norm")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze-dispersion
# ---------------------------------------------------------------------------

def _linearization(cfg: RunConfig) -> Linearization2:
    kin = build_kinetics(cfg)
    if kin.n_components != 2:
        raise ConfigError("[kinetics].matrix: dispersion analysis needs a 2x2 matrix")
    d1, d2 = build_diffusion(cfg, 2)
    if d1.kind != "constant":
        raise ConfigError("[diffusion].kind: dispersion analysis needs constant diffusion")
    (a, b), (c, d) = kin.linear
    try:
        return Linearization2(a=a, b=b, c=c, d=d, d1=d1.v0, d2=d2.v0)
    except ValueError as exc:
        raise ConfigError(f"[diffusion]: {exc}") from None


def _cmd_dispersion(cfg: RunConfig, out: Path, args) -> int:
    lin = _linearization(cfg)
    L = cfg.require("domain", "L")
    report = dispersion_scan(lin, k_max=cfg.get("dispersion", "k_max"),
                             samples=cfg.get("dispersion", "samples"), L=L)
    conditions = turing_conditions(lin)
    write_csv(out / "dispersion.csv",
              ["k", "detM", "trM", "reL1", "imL1", "reL2", "imL2"],
              [report.k, report.det, report.trace, report.lam1.real, report.lam1.imag,
               report.lam2.real, report.lam2.imag])
    write_report(out / "report.json", {
        "band": list(report.band) if report.band else None,
        "max_growth_rate": report.max_growth_rate,
        "modes": [{"n": m.n, "k": m.k, "re_rate": m.rate.real, "im_rate": m.rate.imag,
                   "unstable": m.unstable} for m in report.modes],
        "conditions": {
            "trace_negative": conditions.trace_negative,
            "determinant_positive": conditions.determinant_positive,
            "kinetics_stable": conditions.kinetics_stable,
            "trace_negative_on_band": conditions.trace_negative_on_band,
            "turing_unstable": conditions.turing_unstable,
        },
    })
    if args.plots:
        svg_line_plot(out / "plots_dispersion.svg",
                      [(report.k, report.lam1.real, "Re lambda_1"),
                       (report.k, report.lam2.real, "Re lambda_2"),
                       (report.k, np.zeros_like(report.k), "0")],
                      title="dispersion relation", xlabel="k", ylabel="growth rate")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check-certificate
# ---------------------------------------------------------------------------

def _system_sigma(sys_spec) -> ProfileSum:
    """sigma(t) = c(Omega) min_i d_i(t) - lambda_max((A + A^T)/2) phi(t).  The
    configured diffusion profiles differ only in v0, so the smallest v0 gives
    the pointwise minimum."""
    kin = sys_spec.kinetics
    d_min = min(sys_spec.diffusion, key=lambda d: d.v0)
    return comparison_sigma(poincare_constant(sys_spec.grid), d_min,
                            symmetric_part_max(kin.linear), kin.modulation)


def _alpha_factor_from_config(cfg: RunConfig, kin) -> float:
    factor = cfg.get("certificate", "alpha_factor")
    if factor is None:
        if kin.nonlinearity == "none" or eval_profile(kin.c0, 0.0) == 0.0:
            return 0.0
        raise ConfigError("[certificate].alpha_factor is required for a nonzero "
                          "nonlinearity (run estimate-constants to measure it)")
    return factor


def _bounded_weights(cfg: RunConfig, g0: float):
    """(mu0, mu1) of a bounded certificate: as configured, or split by mu_split."""
    mu0 = cfg.get("certificate", "mu0")
    mu1 = cfg.get("certificate", "mu1")
    if mu0 is None or mu1 is None:
        split = cfg.get("certificate", "mu_split")
        if not (0.0 < split < 1.0):
            raise ConfigError("[certificate].mu_split must lie in (0, 1)")
        mu0, mu1 = split / g0, (1.0 - split) / g0
    return mu0, mu1


def _certificate_from_config(cfg: RunConfig, g0: float) -> Certificate:
    family = cfg.require("certificate", "family")
    if family == "bounded":
        nu = cfg.require("certificate", "nu")
        return Certificate.bounded(*_bounded_weights(cfg, g0), nu)
    mu0 = cfg.get("certificate", "mu0")
    mu0 = mu0 if mu0 is not None else 1.0 / g0
    if family == "exponential":
        return Certificate.exponential(mu0, cfg.require("certificate", "nu"))
    return Certificate.power(mu0, cfg.require("certificate", "m"))


def _cmd_check_certificate(cfg: RunConfig, out: Path, args) -> int:
    T, _dt, _re, _sch, seed = _run_params(cfg, args)
    sys_spec = build_system(cfg, seed=seed)
    g0 = discrete_norms(sys_spec.initial).l2
    kin = sys_spec.kinetics
    factor = _alpha_factor_from_config(cfg, kin)
    problem = ScalarProblem(sigma=_system_sigma(sys_spec),
                            alpha=ProfileSum(((factor, (effective_c0(kin),)),)),
                            q=comparison_exponent(kin.p), g0=g0)
    cert = _certificate_from_config(cfg, g0 if g0 > 0 else 1.0)
    report = check_certificate(problem, cert, horizon=T,
                               grid_points=cfg.get("theorem", "grid_points"),
                               tol=cfg.get("theorem", "tol"))
    times = report.times
    residuals = growth_residual(problem, cert, times)
    write_csv(out / "residuals.csv", ["t", "c8_residual"], [times, residuals])
    write_report(out / "report.json", {
        **_check_payload(report), "worst_t": report.worst_t,
        "certificate": _certificate_payload(cert), "alpha_factor": factor})
    if args.plots:
        svg_line_plot(out / "plots_residual.svg", [(times, residuals, "residual")],
                      title="growth-condition residual", xlabel="t", ylabel="residual")
    return EXIT_OK if report.passed else EXIT_HYPOTHESES


def _certificate_payload(cert: Certificate) -> dict:
    return {"family": cert.family, "mu0": cert.mu0, "mu1": cert.mu1,
            "nu": cert.nu, "m": cert.m}


def _check_payload(report) -> dict:
    """The certificate-check fields that check-certificate and run-theorem share."""
    return {"pass": report.passed, "worst_residual": report.worst_residual,
            "c9_slack": report.c9_slack, "grid_points": report.grid_points,
            "horizon": report.horizon, "failed_condition": report.failed_condition,
            "first_violation_t": report.first_violation_t}


# ---------------------------------------------------------------------------
# run-theorem
# ---------------------------------------------------------------------------

def _require_power_modulation(mod, what: str):
    if mod.kind != "power_decay" or mod.offset != 0.0:
        raise ConfigError(f"[modulation]: {what} expects kind = power_decay with "
                          "zero offset")
    return mod.v0, mod.exponent


def _scenario_inputs(which: str, cfg: RunConfig, sys_spec, g0: float,
                     alpha_factor: float) -> ScenarioInputs:
    """Scenario ``which``'s inputs, read from the built system plus the
    [certificate] keys, which every scenario gets: its constructor requires
    the ones its case needs."""
    kin = sys_spec.kinetics
    mod = kin.modulation
    d_min = min(sys_spec.diffusion, key=lambda d: d.v0)  # as in _system_sigma
    lam = symmetric_part_max(kin.linear)
    mu0, mu1 = _bounded_weights(cfg, g0)
    common = dict(L=sys_spec.grid.L, bc=sys_spec.grid.bc, p=kin.p, g0=g0,
                  c0=effective_c0(kin), alpha_factor=alpha_factor,
                  m=cfg.get("certificate", "m"), nu=cfg.get("certificate", "nu"),
                  mu0=mu0, mu1=mu1)

    if which == "3.1":
        if mod.kind != "constant":
            raise ConfigError("[modulation]: the exponential scenario expects "
                              "constant coefficients")
        if d_min.kind != "constant":
            raise ConfigError("[diffusion].kind: this scenario needs constant diffusion")
        return ScenarioInputs(a0=eval_profile(mod, 0.0) * lam,
                              d0=eval_profile(d_min, 0.0), **common)

    if which == "3.2":
        if d_min.kind != "power_decay" or d_min.exponent != 1.0 or d_min.offset != 0.0:
            raise ConfigError("[diffusion]: the power-decay scenario expects "
                              "kind = power_decay with exponent = 1")
        if mod.kind == "constant":  # phi0 (1+t)**0: a rate that does not decay
            phi0, k = eval_profile(mod, 0.0), 0.0
        else:
            phi0, k = _require_power_modulation(mod, "the power-decay scenario")
        return ScenarioInputs(d0=d_min.v0, gamma0=phi0 * lam, k=k, **common)

    if which == "3.3":
        phi0, k = _require_power_modulation(mod, "the bounded scenario")
        return ScenarioInputs(gamma0=phi0 * lam, k=k, **common)

    # 3.4: modulated two-component system, diffusion phi(t) * (d1, d2)
    if kin.n_components != 2:
        raise ConfigError("[kinetics].matrix: scenario 3.4 needs a 2x2 matrix")
    if (d_min.kind, d_min.exponent, d_min.rate, d_min.offset, mod.offset) \
            != (mod.kind, mod.exponent, mod.rate, 0.0, 0.0):
        raise ConfigError("[diffusion]: scenario 3.4 expects diffusion profiles "
                          "phi(t) * d_i with the same kind/exponent/rate as [modulation]")
    d1, d2 = (d.v0 / mod.v0 for d in sys_spec.diffusion)
    if not (math.isfinite(d1) and math.isfinite(d2)):
        raise ConfigError("[diffusion].v0 / [modulation].v0 is past the double range")
    return ScenarioInputs(matrix=np.asarray(kin.linear), d1=d1, d2=d2, phi=mod, **common)


_SCENARIO_BUILDERS = {
    "3.1": exponential_decay_scenario,
    "3.2": power_decay_scenario,
    "3.3": bounded_neumann_scenario,
    "3.4": modulated_scenario,
}


def _pointwise_bounds(sys_spec, traj, horizon: float) -> dict:
    kin = sys_spec.kinetics
    sup_max = float(np.max(traj.sup))
    if sup_max == 0.0:
        return {"kind": None, "note": "skipped: zero trajectory", "violations": 0}
    try:
        if sys_spec.grid.bc == "dirichlet":
            m1 = reaction_sup_bound(kin, 1.05 * sup_max, horizon)
            us = build_paraboloid(m1, sys_spec.diffusion, sys_spec.grid.L,
                                  sys_spec.initial, horizon)
            violations = verify_pointwise_bound(traj, us)
            return {"kind": "paraboloid", "a": us.a_us, "b": us.b_us,
                    "reaction_bound": m1, "violations": len(violations),
                    "note": us.note}
        if kin.n_components == 1:
            us = find_constant_upper(kin, max(4.0 * sup_max, 1.0), horizon,
                                     min_level=1.0001 * sup_max)
            if us is None:
                return {"kind": None,
                        "note": "no constant barrier found up to the search cap"}
            violations = verify_pointwise_bound(traj, us)
            return {"kind": "constant", "levels": list(us.levels),
                    "violations": len(violations), "note": us.note}
        return {"kind": None, "note": "skipped: constant barriers are searched "
                                      "for single equations only"}
    except ValueError as exc:
        return {"kind": None, "note": f"barrier construction failed: {exc}"}


def _cmd_run_theorem(cfg: RunConfig, out: Path, args) -> int:
    which = args.which
    sys_spec, run = _configured(cfg, args)
    # the first row of the run's series, known before a step is taken
    g0 = discrete_norms(sys_spec.initial).l2
    if g0 == 0.0:
        write_report(out / "report.json", {
            "theorem": which, "status": "not_applicable",
            "reason": "zero initial data: the scenarios assume g(0) > 0"})
        return EXIT_HYPOTHESES
    traj = run()

    factor = cfg.get("certificate", "alpha_factor")
    constants = {"source": "config" if factor is not None else "estimated"}
    if factor is None:
        agg = agmon_aggregate(traj, sys_spec.kinetics.p)
        factor = agg.value
        constants.update({"c_hat": agg.c_hat, "m2_hat": agg.m2_hat,
                          "t_at_max_h2": agg.t_at_max_h2})
    constants["alpha_factor"] = factor

    try:
        inputs = _scenario_inputs(which, cfg, sys_spec, g0, factor)
        scenario = _SCENARIO_BUILDERS[which](
            inputs, horizon=float(traj.times[-1]),
            grid_points=cfg.get("theorem", "grid_points"),
            tol=cfg.get("theorem", "tol"))
    except ScenarioNotApplicable as exc:
        write_report(out / "report.json", {
            "theorem": which, "status": "not_applicable", "reason": str(exc),
            "constants": constants})
        print(f"scenario {which} not applicable: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESES

    slack = cfg.get("theorem", "envelope_slack")
    envelope_violations = np.array([])
    worst_ratio = envelope = None
    if scenario.certificate is not None:
        mu_vals = np.asarray(scenario.certificate.mu(traj.times), dtype=float)
        worst_ratio = float(np.max(traj.g * mu_vals))
        envelope = 1.0 / mu_vals
        envelope_violations = verify_envelope(traj.times, traj.g,
                                              scenario.certificate, slack=slack)
    pointwise = _pointwise_bounds(sys_spec, traj, float(traj.times[-1]))

    check = scenario.certificate_check
    payload = {
        "theorem": which,
        "scenario": scenario.name,
        "case": scenario.case,
        "status": "completed",
        "hypotheses": scenario.hypotheses.conditions,
        "hypotheses_passed": scenario.hypotheses.passed,
        "hypothesis_details": scenario.hypotheses.details,
        "first_failure_t": scenario.hypotheses.first_failure_t,
        "certificate": _certificate_payload(scenario.certificate)
        if scenario.certificate else None,
        "certificate_check": None if check is None else _check_payload(check),
        "certifies_decay": scenario.certifies_decay,
        "uniform_bound": scenario.uniform_bound,
        "envelope_description": scenario.envelope_description,
        "envelope_verified": bool(scenario.ready and envelope_violations.size == 0),
        "envelope_slack": slack,
        "worst_ratio": worst_ratio,
        "envelope_violations": int(envelope_violations.size),
        "first_envelope_violation_t": float(envelope_violations[0])
        if envelope_violations.size else None,
        "constants": constants,
        "pointwise_bounds": pointwise,
        "g0": g0,
    }
    write_report(out / "report.json", payload)
    _write_theorem_series(out / "series.csv", traj, scenario, envelope)
    if args.plots and envelope is not None:
        svg_line_plot(out / "plots_envelope.svg",
                      [(traj.times, traj.g, "g(t)"), (traj.times, envelope, "1/mu(t)")],
                      title=f"scenario {which}: norm vs envelope",
                      xlabel="t", ylabel="log10", logy=True)
    if not scenario.ready:
        return EXIT_HYPOTHESES
    if envelope_violations.size:
        return EXIT_ENVELOPE
    return EXIT_OK


def _write_theorem_series(path, traj, scenario, envelope) -> None:
    """series.csv of a run-theorem run; envelope is 1/mu at the run's times,
    None without a certificate."""
    times = traj.times
    problem = scenario.problem
    sigma_t = np.asarray(problem.sigma_fn()(times), dtype=float)
    alpha_t = np.asarray(problem.alpha_fn()(times), dtype=float)
    if envelope is not None:
        residual = growth_residual(problem, scenario.certificate, times)
    else:
        envelope = residual = np.full_like(times, np.nan)
    write_csv(path, ["t", "g", "envelope", "sup", "h2", "sigma_t", "alpha_t",
                     "c8_residual"],
              [times, traj.g, envelope, traj.sup, traj.h2, sigma_t, alpha_t, residual])


# ---------------------------------------------------------------------------
# convergence-test
# ---------------------------------------------------------------------------

def _cmd_convergence(cfg: RunConfig, out: Path, args) -> int:
    sys_probe = build_system(cfg, seed=0)  # validates kinetics/diffusion sections
    kin = sys_probe.kinetics
    if kin.n_components != 1:
        raise ConfigError("[kinetics].matrix: the convergence test uses a "
                          "single-component manufactured solution")
    L = sys_probe.grid.L
    bc = sys_probe.grid.bc
    k = math.pi / L

    if bc == "dirichlet":
        def shape(x):
            return np.sin(k * x)[None, :]
    else:
        def shape(x):
            return np.cos(k * x)[None, :]

    case = ManufacturedCase(
        solution=lambda x, t: math.exp(-t) * shape(x),
        time_derivative=lambda x, t: -math.exp(-t) * shape(x),
        laplacian=lambda x, t: -k * k * math.exp(-t) * shape(x),
    )
    sec = cfg.values["convergence"]
    try:
        space_ns = tuple(int(s) for s in sec["space_ns"].split(","))
        time_dts = tuple(float(s) for s in sec["time_dts"].split(","))
    except ValueError:
        raise ConfigError("[convergence]: space_ns and time_dts are comma lists")
    scheme = cfg.get("run", "scheme")
    try:
        report = convergence_orders(case, kin, sys_probe.diffusion, L=L, bc=bc,
                                    T=min(cfg.require("run", "T"), 2.0),
                                    space_ns=space_ns, space_dt=sec["space_dt"],
                                    time_n=sec["time_n"], time_dts=time_dts,
                                    scheme=scheme)
    except InconclusiveOrderError as exc:
        write_report(out / "report.json", {"status": "inconclusive", "reason": str(exc)})
        print(f"inconclusive refinement: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESES
    time_threshold = 1.9 if scheme == "two_stage" else 0.9
    passed = (report.p_space >= 1.9) and (report.p_time >= time_threshold)
    write_report(out / "report.json", {
        "status": "completed",
        "p_space": report.p_space, "p_time": report.p_time,
        "space_label": report.space_label, "time_label": report.time_label,
        "space_h": list(report.space_h), "space_errors": list(report.space_errors),
        "time_dts": list(report.time_dts), "time_errors": list(report.time_errors),
        "thresholds": {"space": 1.9, "time": time_threshold},
        "pass": passed,
    })
    if args.plots:
        svg_line_plot(out / "plots_convergence.svg",
                      [(np.log10(report.space_h), np.log10(report.space_errors), "space"),
                       (np.log10(report.time_dts), np.log10(report.time_errors), "time")],
                      title="refinement errors", xlabel="log10 step", ylabel="log10 error")
    return EXIT_OK if passed else EXIT_HYPOTHESES


# ---------------------------------------------------------------------------
# estimate-constants
# ---------------------------------------------------------------------------

def _cmd_estimate(cfg: RunConfig, out: Path, args) -> int:
    sys_spec, traj = _simulated(cfg, args)
    payload = {"status": "completed"}
    if float(np.max(traj.g)) == 0.0:
        payload.update({"M2_hat": 0.0, "c_hat": None, "C": None,
                        "note": "zero trajectory: the multiplicative ratio is undefined"})
    else:
        agg = agmon_aggregate(traj, sys_spec.kinetics.p)
        payload.update({"M2_hat": agg.m2_hat, "c_hat": agg.c_hat, "C": agg.value,
                        "t_at_max_h2": agg.t_at_max_h2})
    pointwise = _pointwise_bounds(sys_spec, traj, float(traj.times[-1]))
    payload["pointwise_violations"] = pointwise.get("violations")
    payload["pointwise_bounds"] = pointwise
    write_report(out / "report.json", payload)
    _write_trajectory_csv(out / "series.csv", traj)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
