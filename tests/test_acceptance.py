"""Acceptance battery: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines with runtimes.  The pointwise-barrier criterion is amortized into
the pipeline batteries; its test asserts over the results they registered, so
this module is meant to run in file order (the pytest default).
"""

import math
import time

import numpy as np
import pytest

import rdcert as r

from oracles import growth_rate_experiment

CONST = r.TimeProfile.constant
Q = r.comparison_exponent(2.0)  # all batteries use p = 2

# barrier outcomes registered by the pipeline batteries, consumed by the
# pointwise-bound criterion at the end of the file
_BARRIER_RESULTS = []


def _report(num, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.2f}s, budget {budget:g}s)")


# ---------------------------------------------------------------------------
# battery helpers
# ---------------------------------------------------------------------------

def _mode_amp(L, g0):
    # the discrete L2 norm of amp*sin(pi x/L) equals amp*sqrt(L/2) exactly
    return g0 / math.sqrt(L / 2.0)


def _paraboloid_check(sys_spec, traj, horizon, label):
    sup_max = float(np.max(traj.sup))
    m1 = r.reaction_sup_bound(sys_spec.kinetics, 1.05 * max(sup_max, 1e-9), horizon)
    barrier = r.build_paraboloid(m1, sys_spec.diffusion, sys_spec.grid.L,
                                 sys_spec.initial, horizon)
    violations = r.verify_pointwise_bound(traj, barrier)
    _BARRIER_RESULTS.append((label, "paraboloid", len(violations)))
    return violations


def _constant_barrier_check(sys_spec, traj, horizon, label):
    sup_max = float(np.max(traj.sup))
    barrier = r.find_constant_upper(sys_spec.kinetics, u_max=max(6.0 * sup_max, 2.0),
                                    horizon=horizon, min_level=1.0001 * sup_max)
    assert barrier is not None, f"{label}: no constant barrier found"
    violations = r.verify_pointwise_bound(traj, barrier)
    _BARRIER_RESULTS.append((label, "constant", len(violations)))
    return violations


def _run_exponential_set(L, d0, sigma0, g0, n=96, horizon=20.0, dt=4e-3):
    """Pipeline for one constant-coefficient decay scenario: pilot run fixes
    the admissible nonlinearity strength, the final run is verified."""
    a0 = d0 * (math.pi / L) ** 2 - sigma0
    assert a0 > 0.0, "battery construction: keep the linear part destabilizing"
    grid = r.Grid1D(L, n, "dirichlet")
    initial = r.mode_field(grid, 1, _mode_amp(L, g0))
    diffusion = (CONST(d0, positive=True),)

    def system(c0_value):
        kin = r.KineticsSpec(n_components=1, linear=np.array([[a0]]),
                             nonlinearity="saturated_power", c0=CONST(c0_value), p=2.0)
        return r.SystemSpec(grid=grid, kinetics=kin, diffusion=diffusion, initial=initial)

    pilot = r.simulate(system(0.0), 4.0, dt=dt)
    c_pilot = r.agmon_aggregate(pilot, 2.0).value
    c0_value = 0.5 * (0.5 * sigma0 * g0 ** (-(Q - 1.0)) / c_pilot)

    sys_spec = system(c0_value)
    traj = r.simulate(sys_spec, horizon, dt=dt)
    c_final = r.agmon_aggregate(traj, 2.0).value
    inputs = r.ScenarioInputs(L=L, bc="dirichlet", a0=a0, d0=d0, p=2.0,
                              g0=float(traj.g[0]), c0=CONST(c0_value),
                              alpha_factor=c_final)
    scenario = r.exponential_decay_scenario(inputs, horizon=float(traj.times[-1]))
    return sys_spec, traj, scenario


def _run_power_set(d0, gamma0, k, m, g0, c0_kind="constant", L=1.0, n=96,
                   horizon=50.0, dt=4e-3):
    grid = r.Grid1D(L, n, "dirichlet")
    initial = r.mode_field(grid, 1, _mode_amp(L, g0))
    diffusion = (r.TimeProfile.power_decay(d0, 1.0, positive=True),)
    modulation = r.TimeProfile.power_decay(1.0, k, positive=True)
    linear = None if gamma0 == 0.0 else np.array([[gamma0]])

    def c0_profile(value):
        if c0_kind == "growth":  # admissible in the m (q-1) > 1 regime
            return r.TimeProfile.power_growth(value, m * (Q - 1.0) - 1.0)
        return CONST(value)

    def system(c0_value):
        kin = r.KineticsSpec(n_components=1, linear=linear,
                             nonlinearity="saturated_power", c0=c0_profile(c0_value),
                             p=2.0, modulation=modulation)
        return r.SystemSpec(grid=grid, kinetics=kin, diffusion=diffusion, initial=initial)

    pilot = r.simulate(system(0.0), 5.0, dt=dt)
    c_pilot = r.agmon_aggregate(pilot, 2.0).value
    cap0 = (1.0 / g0) ** (Q - 1.0) * ((math.pi / L) ** 2 * d0 - gamma0 - m)
    c0_value = 0.5 * cap0 / c_pilot

    sys_spec = system(c0_value)
    traj = r.simulate(sys_spec, horizon, dt=dt)
    c_final = r.agmon_aggregate(traj, 2.0).value
    inputs = r.ScenarioInputs(L=L, bc="dirichlet", d0=d0, gamma0=gamma0, k=k, m=m,
                              p=2.0, g0=float(traj.g[0]),
                              c0=r.effective_c0(sys_spec.kinetics),
                              alpha_factor=c_final)
    scenario = r.power_decay_scenario(inputs, horizon=float(traj.times[-1]))
    return sys_spec, traj, scenario


def _run_neumann_set(gamma0, k, nu, split, level, L=1.0, n=64, horizon=50.0, dt=4e-3):
    """Neumann boundedness pipeline with a destabilizing linear part balanced
    by the saturated nonlinearity."""
    grid = r.Grid1D(L, n, "neumann")
    initial = r.constant_field(grid, level)
    diffusion = (CONST(1.0, positive=True),)
    modulation = r.TimeProfile.power_decay(1.0, k, positive=True)

    def system(c0_value):
        kin = r.KineticsSpec(n_components=1, linear=np.array([[gamma0]]),
                             nonlinearity="saturated_power", c0=CONST(c0_value),
                             p=2.0, modulation=modulation)
        return r.SystemSpec(grid=grid, kinetics=kin, diffusion=diffusion, initial=initial)

    pilot = r.simulate(system(0.0), 5.0, dt=dt)
    c_pilot = r.agmon_aggregate(pilot, 2.0).value
    g0 = level * math.sqrt(L)
    mu0, mu1 = split / g0, (1.0 - split) / g0
    mu_at_0 = mu0 + mu1
    exact_cap = mu_at_0 ** (Q - 1.0) * (nu * mu1 / mu_at_0 - gamma0)
    printed_cap = mu0 ** (Q - 1.0) * (nu * mu1 / mu0 - gamma0)
    c0_value = 0.5 * min(exact_cap, printed_cap) / c_pilot

    sys_spec = system(c0_value)
    traj = r.simulate(sys_spec, horizon, dt=dt)
    c_final = r.agmon_aggregate(traj, 2.0).value
    inputs = r.ScenarioInputs(L=L, bc="neumann", gamma0=gamma0, k=k, nu=nu,
                              mu0=mu0, mu1=mu1, p=2.0, g0=float(traj.g[0]),
                              c0=r.effective_c0(sys_spec.kinetics),
                              alpha_factor=c_final)
    scenario = r.bounded_neumann_scenario(inputs, horizon=float(traj.times[-1]))
    return sys_spec, traj, scenario


TURING = dict(matrix=np.array([[1.0, 2.0], [-2.0, -2.0]]), d1=0.5, d2=10.0)


def _run_modulated_set(L, phi_exponent, phi0, g0, m=None, nu=None, split=0.5,
                       n=96, horizon=20.0, dt=4e-3):
    grid = r.Grid1D(L, n, "dirichlet")
    amp = _mode_amp(L, g0) / math.sqrt(2.0)  # two equal-mode components
    initial = r.mode_field(grid, 1, [amp, amp])
    phi = r.TimeProfile.power_decay(phi0, phi_exponent, positive=True)
    diffusion = (r.TimeProfile.power_decay(phi0 * TURING["d1"], phi_exponent, positive=True),
                 r.TimeProfile.power_decay(phi0 * TURING["d2"], phi_exponent, positive=True))

    def system(c0_value):
        kin = r.KineticsSpec(n_components=2, linear=TURING["matrix"],
                             nonlinearity="saturated_power", c0=CONST(c0_value),
                             p=2.0, modulation=phi)
        return r.SystemSpec(grid=grid, kinetics=kin, diffusion=diffusion, initial=initial)

    pilot = r.simulate(system(0.0), 5.0, dt=dt)
    c_pilot = r.agmon_aggregate(pilot, 2.0).value
    gamma0 = r.coupling_gamma0(1.0, 2.0, -2.0, -2.0).gamma0
    sign = min(TURING["d1"], TURING["d2"]) * (math.pi / L) ** 2 - gamma0
    g0_exact = float(r.discrete_norms(initial).l2)
    if sign > 0.0:
        cap0 = (1.0 / g0_exact) ** (Q - 1.0) * (phi0 * sign - m) / phi0
    else:
        mu0, mu1 = split / g0_exact, (1.0 - split) / g0_exact
        mu_at_0 = mu0 + mu1
        cap0 = mu_at_0 ** (Q - 1.0) * (nu * mu1 / mu_at_0 + sign * phi0) / phi0
    assert cap0 > 0.0, "battery construction: margin must be positive"
    c0_value = 0.5 * cap0 / c_pilot

    sys_spec = system(c0_value)
    traj = r.simulate(sys_spec, horizon, dt=dt)
    c_final = r.agmon_aggregate(traj, 2.0).value
    mu0 = mu1 = None
    if sign < 0.0:
        g0_meas = float(traj.g[0])
        mu0, mu1 = split / g0_meas, (1.0 - split) / g0_meas
    inputs = r.ScenarioInputs(L=L, bc="dirichlet", matrix=TURING["matrix"],
                              d1=TURING["d1"], d2=TURING["d2"], phi=phi, m=m, nu=nu,
                              mu0=mu0, mu1=mu1, p=2.0, g0=float(traj.g[0]),
                              c0=r.effective_c0(sys_spec.kinetics),
                              alpha_factor=c_final)
    scenario = r.modulated_scenario(inputs, horizon=float(traj.times[-1]))
    return sys_spec, traj, scenario


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_defective_matrix_abscissa_gap():
    m = np.array([[-1.0, 3.0], [0.0, -1.0]])
    r.eig2(m), r.symmetric_part_max(m)  # warm up
    best = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        eigs = r.eig2(m)
        omega = r.symmetric_part_max(m)
        best = min(best, time.perf_counter() - t0)
    ok = (eigs == (-1.0 + 0.0j, -1.0 + 0.0j)
          and abs(omega - 0.5) <= 1e-12
          and best < 1e-3)
    _report(1, "defective-matrix-abscissa-gap", ok, best, 1e-3)
    assert eigs == (-1.0 + 0.0j, -1.0 + 0.0j)
    assert omega == pytest.approx(0.5, abs=1e-12)
    assert best < 1e-3


def test_criterion_02_comparison_oracle_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    horizon = 8.0
    blow_ups = 0
    worst_rel = 0.0
    worst_tdiff = 0.0
    for _ in range(100):
        sigma = rng.uniform(-1.0, 2.0)
        alpha = rng.uniform(0.0, 1.0)
        q = max(rng.uniform(1.0, 2.0), 1.0 + 1e-6)
        g0 = rng.uniform(1e-6, 1.0)
        t_star = r.bernoulli_blowup_time(sigma, alpha, q, g0)
        prob = r.ScalarProblem(sigma=CONST(sigma), alpha=CONST(alpha), q=q, g0=g0)
        sol = r.comparison_solve(prob, horizon, tol=1e-10)
        if t_star is not None and t_star <= horizon:
            blow_ups += 1
            worst_tdiff = max(worst_tdiff, abs(sol.blowup_time - t_star))
        else:
            assert sol.blowup_time is None or sol.blowup_time > horizon - 1e-9
        end = min(horizon, t_star if t_star is not None else horizon)
        for frac in (0.13, 0.5, 0.9):
            t = frac * end * 0.999
            exact = r.bernoulli_closed_form(sigma, alpha, q, g0, t)
            if math.isfinite(exact) and exact > 1e-280:
                worst_rel = max(worst_rel, abs(sol.value(t) - exact) / exact)
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-8 and worst_tdiff <= 1e-6 and blow_ups >= 10 and elapsed < 5.0
    _report(2, "comparison-vs-closed-form", ok, elapsed, 5.0)
    assert worst_rel <= 1e-8
    assert worst_tdiff <= 1e-6
    assert blow_ups >= 10  # the battery must include finite-time escapes
    assert elapsed < 5.0


def test_criterion_03_discrete_poincare():
    t0 = time.perf_counter()
    ok = True
    for L in (1.0, math.pi, 4.0):
        errors, hs = [], []
        for n in (50, 100, 200, 400):
            g = r.Grid1D(L, n, "dirichlet")
            err = abs(r.discrete_poincare_constant(g) - r.poincare_constant(g))
            ok &= err <= 10.0 * g.h ** 2
            errors.append(err)
            hs.append(g.h)
        order = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
        ok &= order >= 1.9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(3, "discrete-poincare-convergence", ok, elapsed, 1.0)
    assert ok


def test_criterion_04_solver_convergence_orders():
    t0 = time.perf_counter()
    case = r.ManufacturedCase(
        solution=lambda x, t: math.exp(-t) * np.sin(math.pi * x)[None, :],
        time_derivative=lambda x, t: -math.exp(-t) * np.sin(math.pi * x)[None, :],
        laplacian=lambda x, t: -math.pi ** 2 * math.exp(-t) * np.sin(math.pi * x)[None, :],
    )
    kin = r.KineticsSpec(n_components=1)
    diffusion = (CONST(1.0, positive=True),)
    report = r.convergence_orders(case, kin, diffusion, T=1.0,
                                  space_ns=(32, 64, 128), space_dt=2e-4,
                                  time_n=2001, time_dts=(0.2, 0.1, 0.05, 0.025))
    elapsed = time.perf_counter() - t0
    ok = report.p_space >= 1.9 and report.p_time >= 1.9 and elapsed < 30.0
    _report(4, "manufactured-solution-orders", ok, elapsed, 30.0)
    assert report.p_space >= 1.9
    assert report.p_time >= 1.9
    assert elapsed < 30.0


EXPONENTIAL_BATTERY = [
    # (L, d0, sigma0, g0)
    (math.pi, 2.0, 1.0, 0.1),
    (math.pi, 1.5, 0.5, 0.5),
    (1.0, 0.5, 2.0, 0.2),
    (1.0, 0.2, 0.8, 1.0),
    (2.0, 1.0, 1.2, 0.3),
    (2.0, 2.0, 2.5, 0.05),
    (4.0, 4.0, 1.0, 0.4),
    (3.0, 3.0, 1.5, 0.15),
    (math.pi, 1.0, 0.6, 0.8),
    (1.5, 1.0, 1.8, 0.25),
]


def test_criterion_05_exponential_decay_battery():
    t0 = time.perf_counter()
    assert len(EXPONENTIAL_BATTERY) >= 10
    for params in EXPONENTIAL_BATTERY:
        L, d0, sigma0, g0 = params
        sys_spec, traj, scenario = _run_exponential_set(L, d0, sigma0, g0)
        assert scenario.hypotheses.passed, (params, scenario.hypotheses.conditions)
        assert scenario.ready
        violations = r.verify_envelope(traj.times, traj.g, scenario.certificate,
                                       slack=0.02)
        assert violations.size == 0, (params, violations[:3])
        assert _paraboloid_check(sys_spec, traj, float(traj.times[-1]),
                                 f"exp{params}") == []
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _report(5, "exponential-decay-battery", True and ok, elapsed, 120.0)
    assert elapsed < 120.0


POWER_BATTERY = [
    # (d0, gamma0, k, m, g0, c0_kind)
    (1.0, 0.2, 1.0, 2.0, 0.3, "constant"),
    (1.0, 0.0, 1.0, 0.5, 1.0, "constant"),
    (1.0, 0.2, 2.0, 1.0, 0.5, "constant"),
    (1.0, 0.2, 1.0, 4.5, 0.2, "growth"),
]


def test_criterion_06_power_decay_battery():
    t0 = time.perf_counter()
    for params in POWER_BATTERY:
        d0, gamma0, k, m, g0, c0_kind = params
        sys_spec, traj, scenario = _run_power_set(d0, gamma0, k, m, g0, c0_kind)
        assert scenario.hypotheses.passed, (params, scenario.hypotheses.conditions)
        assert scenario.ready
        violations = r.verify_envelope(traj.times, traj.g, scenario.certificate,
                                       slack=0.02)
        assert violations.size == 0, (params, violations[:3])
        # the envelope is the claimed power decay g0 (1+t)^-m
        envelope = float(traj.g[0]) * (1.0 + traj.times) ** (-m)
        assert np.all(traj.g <= envelope * 1.02)
        assert _paraboloid_check(sys_spec, traj, float(traj.times[-1]),
                                 f"pow{params}") == []
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _report(6, "power-decay-battery", ok, elapsed, 120.0)
    assert elapsed < 120.0


NEUMANN_BATTERY = [
    # (gamma0, k, nu, split, level)
    (0.1, 2.0, 1.0, 0.5, 0.5),
    (0.3, 3.0, 1.5, 0.5, 0.4),
    (0.05, 2.0, 1.0, 0.6, 0.6),
]


def test_criterion_07_neumann_boundedness_battery():
    t0 = time.perf_counter()
    for params in NEUMANN_BATTERY:
        gamma0, k, nu, split, level = params
        sys_spec, traj, scenario = _run_neumann_set(gamma0, k, nu, split, level)
        assert scenario.hypotheses.passed, (params, scenario.hypotheses.conditions)
        assert scenario.ready
        assert not scenario.certifies_decay
        violations = r.verify_envelope(traj.times, traj.g, scenario.certificate,
                                       slack=0.02)
        assert violations.size == 0, (params, violations[:3])
        bound = scenario.uniform_bound
        assert np.all(traj.g <= bound * 1.02)
        # boundedness without decay: the norm never sinks to a tenth of the
        # envelope's positive limit when the nonlinearity is balanced
        assert float(np.min(traj.g)) >= 0.1 * bound, params
        assert _constant_barrier_check(sys_spec, traj, float(traj.times[-1]),
                                       f"neu{params}") == []
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(7, "neumann-boundedness-battery", ok, elapsed, 60.0)
    assert elapsed < 60.0


def test_criterion_08_turing_dispersion_consistency():
    t0 = time.perf_counter()
    lin = r.Linearization2(1.0, 2.0, -2.0, -2.0, 0.5, 10.0)
    conditions = r.turing_conditions(lin)
    band = r.instability_band(lin)
    lo = math.sqrt((9.0 - math.sqrt(41.0)) / 10.0)
    hi = math.sqrt((9.0 + math.sqrt(41.0)) / 10.0)
    star = r.critical_d1(1.0, 2.0, -2.0, -2.0, d2=10.0, k=1.0).d1_star
    det1 = float(r.det_m(lin, 1.0))
    elapsed = time.perf_counter() - t0
    ok = (conditions.kinetics_stable and conditions.turing_unstable
          and abs(band[0] ** 2 - lo ** 2) <= 1e-10
          and abs(band[1] ** 2 - hi ** 2) <= 1e-10
          and abs(star - 2.0 / 3.0) <= 1e-12
          and det1 == -2.0 and elapsed < 1.0)
    _report(8, "turing-dispersion-consistency", ok, elapsed, 1.0)
    assert conditions.trace_negative and conditions.determinant_positive
    assert conditions.turing_unstable
    assert band[0] ** 2 == pytest.approx(lo ** 2, abs=1e-10)
    assert band[1] ** 2 == pytest.approx(hi ** 2, abs=1e-10)
    assert star == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert det1 == -2.0
    assert elapsed < 1.0


def test_criterion_09_linearized_growth_rate_match():
    t0 = time.perf_counter()
    lin = r.Linearization2(1.0, 2.0, -2.0, -2.0, 0.5, 10.0)
    unstable = growth_rate_experiment(lin, 4.0, 1, n_nodes=256, dt=2e-3, horizon=4.0)
    stable = growth_rate_experiment(lin, 4.0, 2, n_nodes=256, dt=2e-3, horizon=4.0)
    elapsed = time.perf_counter() - t0
    ok = (unstable.predicted > 0.0 > stable.predicted
          and unstable.relative_gap <= 0.02 and stable.relative_gap <= 0.02
          and elapsed < 60.0)
    _report(9, "linearized-growth-rate-match", ok, elapsed, 60.0)
    assert unstable.predicted > 0.0
    assert stable.predicted < 0.0
    assert unstable.relative_gap <= 0.02
    assert stable.relative_gap <= 0.02
    assert elapsed < 60.0


def test_criterion_10_modulated_case_selection():
    t0 = time.perf_counter()
    # L = 2: decay regime with the power envelope verified
    sys2, traj2, sc2 = _run_modulated_set(L=2.0, phi_exponent=1.0, phi0=10.0,
                                          g0=0.2, m=1.0, horizon=20.0)
    assert sc2.case == "decay"
    assert sc2.hypotheses.passed and sc2.ready
    assert r.verify_envelope(traj2.times, traj2.g, sc2.certificate, slack=0.02).size == 0
    assert _paraboloid_check(sys2, traj2, float(traj2.times[-1]), "mod-L2") == []

    # L = 4: boundedness regime with the uniform bound verified
    sys4, traj4, sc4 = _run_modulated_set(L=4.0, phi_exponent=2.0, phi0=0.35,
                                          g0=0.5, nu=1.0, horizon=50.0)
    assert sc4.case == "bounded"
    assert sc4.hypotheses.passed and sc4.ready
    assert r.verify_envelope(traj4.times, traj4.g, sc4.certificate, slack=0.02).size == 0
    assert float(np.max(traj4.g)) <= sc4.uniform_bound * 1.02
    assert _paraboloid_check(sys4, traj4, float(traj4.times[-1]), "mod-L4") == []

    # stability cross-check: at L = 2 no admissible mode sits in the band,
    # at L = 4 the first mode does
    scan2 = r.dispersion_scan(r.Linearization2(1.0, 2.0, -2.0, -2.0, 0.5, 10.0), L=2.0)
    assert all(not mode.unstable for mode in scan2.modes)
    scan4 = r.dispersion_scan(r.Linearization2(1.0, 2.0, -2.0, -2.0, 0.5, 10.0), L=4.0)
    assert scan4.modes[0].unstable
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _report(10, "modulated-case-selection", ok, elapsed, 120.0)
    assert elapsed < 120.0


def test_criterion_11_pointwise_bounds_hold():
    t0 = time.perf_counter()
    assert _BARRIER_RESULTS, "pipeline batteries must run before this criterion"
    bad = [(label, kind, count) for label, kind, count in _BARRIER_RESULTS if count]
    kinds = {kind for _, kind, _ in _BARRIER_RESULTS}
    elapsed = time.perf_counter() - t0
    ok = not bad and {"paraboloid", "constant"} <= kinds
    _report(11, "pointwise-barriers-hold", ok, elapsed, 1.0)
    assert not bad, bad
    assert {"paraboloid", "constant"} <= kinds
    assert len(_BARRIER_RESULTS) >= 15


def test_criterion_12_certificate_falsification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    horizon = 10.0
    checked = 0
    for i in range(10):
        sigma0 = rng.uniform(0.5, 2.0)
        g0 = rng.uniform(0.1, 1.0)
        nu = 0.5 * sigma0
        # corrupted initial weight: mu(0) g(0) = 10
        bad_start = r.Certificate.exponential(10.0 / g0, nu)
        prob = r.ScalarProblem(sigma=CONST(sigma0), alpha=CONST(0.0), q=1.25, g0=g0)
        rep = r.check_certificate(prob, bad_start, horizon)
        assert not rep.passed
        assert rep.failed_condition == "initial_condition"
        assert rep.first_violation_t == 0.0
        checked += 1
    for i in range(10):
        sigma0 = rng.uniform(0.5, 2.0)
        g0 = rng.uniform(0.1, 1.0)
        cert = r.Certificate.exponential(1.0 / g0, 0.5 * sigma0)
        # alpha above the admissible cap from some time onward
        cap0 = (1.0 / g0) ** 0.25 * 0.5 * sigma0
        alpha = r.TimeProfile.power_growth(rng.uniform(1.5, 4.0) * cap0, 0.05)
        prob = r.ScalarProblem(sigma=CONST(sigma0), alpha=alpha, q=1.25, g0=g0)
        rep = r.check_certificate(prob, cert, horizon)
        assert not rep.passed
        assert rep.failed_condition == "residual"
        assert rep.first_violation_t is not None
        assert 0.0 <= rep.first_violation_t <= horizon
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 20 and elapsed < 5.0
    _report(12, "certificate-falsification", ok, elapsed, 5.0)
    assert checked == 20
    assert elapsed < 5.0
