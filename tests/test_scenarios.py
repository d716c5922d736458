import math

import numpy as np
import pytest

from rdcert.inequality import _CELL
from rdcert.profiles import _BLOCK, ProfileSum, TimeProfile
from rdcert.scenarios import (ScenarioInputs, ScenarioNotApplicable,
                              bounded_neumann_scenario, comparison_exponent,
                              comparison_sigma, exponential_decay_scenario,
                              modulated_scenario, power_decay_scenario)
from rdcert.stability import Linearization2, instability_band

TURING_MATRIX = np.array([[1.0, 2.0], [-2.0, -2.0]])


def test_comparison_exponent():
    assert comparison_exponent(2.0) == pytest.approx(1.25)
    assert comparison_exponent(5.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        comparison_exponent(1.0)


@pytest.mark.parametrize("L", [0.0, -math.pi, math.inf])
def test_interval_length_must_be_finite_and_positive(L):
    # unchecked, L = 0 divides by zero in the Poincare constant, L = -pi
    # gives the constant 1 and certifies decay, and L = inf gives 0
    with pytest.raises(ValueError, match="interval length L must be finite and positive"):
        ScenarioInputs(L=L, bc="dirichlet", a0=0.5, d0=1.0, p=2.0, g0=0.1)


class TestProblemData:
    """sigma and alpha of every scenario are profile sums."""

    TIMES = np.linspace(0.0, 30.0, 3001)

    def test_comparison_sigma_formula(self):
        d, phi = TimeProfile.power_decay(2.0, 1.0), TimeProfile.power_decay(0.5, 2.0)
        c_omega = (math.pi / 1.5) ** 2
        sigma = comparison_sigma(c_omega, d, 0.3, phi)(self.TIMES)
        expected = c_omega * d(self.TIMES) - 0.3 * phi(self.TIMES)
        assert sigma.tobytes() == expected.tobytes()
        without_d = comparison_sigma(0.0, None, 0.3, phi)(self.TIMES)
        assert without_d.tobytes() == (-0.3 * phi(self.TIMES)).tobytes()

    def test_scenario_sigmas(self):
        c0 = TimeProfile.constant(0.01)
        exp = exponential_decay_scenario(
            ScenarioInputs(L=math.pi, a0=0.5, d0=2.0, g0=0.1, c0=c0, alpha_factor=1.0), 5.0)
        assert np.all(exp.problem.sigma(self.TIMES) == 1.5)
        neu = bounded_neumann_scenario(
            ScenarioInputs(L=1.0, bc="neumann", gamma0=0.1, k=2.0, nu=1.0, mu0=1.0, mu1=1.0,
                           g0=0.5, c0=c0, alpha_factor=1.0), 5.0)
        assert neu.problem.sigma(self.TIMES).tobytes() == \
            (-0.1 * (1.0 + self.TIMES) ** -2.0).tobytes()
        for scenario in (exp, neu):
            assert isinstance(scenario.problem.sigma, ProfileSum)
            assert isinstance(scenario.problem.alpha, ProfileSum)

    def test_alpha_is_factor_times_c0(self):
        c0 = TimeProfile.power_decay(0.4, 1.0)
        inputs = ScenarioInputs(L=1.0, c0=c0, alpha_factor=2.5)
        assert inputs.alpha()(self.TIMES).tobytes() == (2.5 * c0(self.TIMES)).tobytes()
        assert ScenarioInputs(L=1.0, c0=lambda t: 0.4 / (1.0 + t),
                              alpha_factor=2.5).alpha()(1.0) == 2.5 * 0.2
        assert ScenarioInputs(L=1.0, alpha_factor=2.5).alpha()(self.TIMES).tolist() == \
            [0.0] * len(self.TIMES)
        with pytest.raises(ScenarioNotApplicable, match="not finite"):
            ScenarioInputs(L=1.0, c0=c0, alpha_factor=math.inf).alpha()


def neumann_inputs(**kw):
    base = dict(L=1.0, bc="neumann", gamma0=0.1, k=2.0, nu=1.0, mu0=0.5, mu1=0.5,
                g0=1.0, p=2.0)
    base.update(kw)
    return ScenarioInputs(**base)


class TestClosedFormCap:
    """bounded_neumann_scenario checks its closed-form bound
    (1+t)**(nu+1) alpha(t) <= cap on the certificate check's blocks of
    _BLOCK points."""

    N = 3 * _BLOCK + 7
    CAP = 0.5 ** 0.25 * 0.9  # mu0**(q-1) (nu mu1/mu0 - gamma0) of neumann_inputs

    def scenario(self, c0, horizon=1.0):
        return bounded_neumann_scenario(neumann_inputs(c0=c0, alpha_factor=1.0),
                                        horizon=horizon, grid_points=self.N)

    def test_first_failure_past_block_zero(self):
        # the weighted alpha (1+t)**2 alpha(t) is cap t / level: it rises
        # through the cap between ts[2B + 100] and ts[2B + 101]
        ts = np.linspace(0.0, 1.0, self.N)
        level = 0.5 * (ts[2 * _BLOCK + 100] + ts[2 * _BLOCK + 101])

        def c0(t):
            return self.CAP * np.asarray(t, dtype=float) / level * (1.0 + t) ** -2.0
        sc = self.scenario(c0)
        weighted = (1.0 + ts) ** 2.0 * c0(ts)
        first = np.flatnonzero(weighted > sc.hypotheses.details["closed_form_cap"])[0]
        assert first == 2 * _BLOCK + 101
        assert not sc.hypotheses.conditions["closed_form_growth_bound"]
        assert sc.hypotheses.first_failure_t == ts[first]

    @pytest.mark.parametrize("shape", ["table", "bump"])
    def test_first_failure_between_cell_endpoints(self, shape):
        # (1+t)**2 alpha rises above the cap and falls back inside one cell,
        # with both of that cell's endpoints below it: a table spike at
        # t = 2.5 in the cell [2, 3], or 3.2 ((1+t)**-3 - (1+t)**-4), whose
        # weighted form (1+t)**-1 - (1+t)**-2 peaks at t = 1 in the cell [0, 2]
        if shape == "table":
            n, horizon = 8 * _CELL + 1, 8.0
            c0 = TimeProfile.tabulated([0.0, 2.4, 2.5, 2.6, 8.0], [0.0, 0.0, 0.1, 0.0, 0.0])
            cell = (2.0, 3.0)
        else:
            n, horizon = 4 * _CELL + 1, 8.0
            c0 = ProfileSum(((3.2, (TimeProfile.power_decay(1.0, 3.0),)),
                             (-3.2, (TimeProfile.power_decay(1.0, 4.0),))))
            cell = (0.0, 2.0)
        sc = bounded_neumann_scenario(neumann_inputs(c0=c0, alpha_factor=1.0),
                                      horizon=horizon, grid_points=n)
        ts = np.linspace(0.0, horizon, n)
        weighted = (1.0 + ts) ** 2.0 * c0(ts)
        bad = np.flatnonzero(weighted > self.CAP)
        ends = np.isin(ts, cell)
        assert bad.size and not np.any(weighted[ends] > self.CAP)
        assert cell[0] < ts[bad[0]] < cell[1]
        assert not sc.hypotheses.conditions["closed_form_growth_bound"]
        assert sc.hypotheses.first_failure_t == ts[bad[0]]

    def test_passing_grid(self):
        sc = self.scenario(TimeProfile.power_decay(0.2, 2.0))
        assert sc.hypotheses.conditions["closed_form_growth_bound"]
        assert sc.hypotheses.first_failure_t is None and sc.ready

    def test_error_in_a_later_block_is_raised(self):
        # the bound fails in block 0, and alpha raises in block 2 as on the whole
        # grid; the scenario's 1001-point probe of alpha falls between the bad times
        def c0(t):
            t = np.asarray(t, dtype=float)
            if np.any((t > 0.9003) & (t < 0.9007)):
                raise ValueError("c0 undefined on (0.9003, 0.9007)")
            return np.full(t.shape, 10.0)
        with pytest.raises(ValueError, match="undefined on"):
            self.scenario(c0)

    @pytest.mark.parametrize("seed", range(12))
    def test_cap_fields_match_the_written_out_bound(self, seed):
        self.assert_cap_fields_match(seed)

    @pytest.mark.parametrize("seed", range(12))
    def test_cap_fields_match_on_many_cells(self, seed):
        # the same inputs on grids of many cells of the check's search, with a
        # ragged tail
        self.assert_cap_fields_match(seed, n=int(np.random.default_rng(seed).integers(
            20 * _CELL, 200 * _CELL)))

    def assert_cap_fields_match(self, seed, n=None):
        # random inputs against all(ts (1+t)**(nu+1) alpha <= cap) written out on
        # np.linspace, and the cap itself
        rng = np.random.default_rng(seed)
        nu, mu0, mu1 = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
        gamma0 = rng.uniform(0.05, 0.95) * nu * mu1 / mu0  # ratio margin > 0
        p, factor, horizon = rng.uniform(1.5, 4.0), rng.uniform(0.5, 3.0), rng.uniform(1.0, 30.0)
        drawn = int(rng.choice([2, 1001, _BLOCK + 1, 2 * _BLOCK + 3]))
        n = drawn if n is None else n
        c0 = [TimeProfile.power_decay(rng.uniform(0.05, 1.0), rng.uniform(0.5, 3.0)),
              TimeProfile.constant(rng.uniform(0.0, 0.5)),
              TimeProfile.tabulated(np.linspace(0.0, horizon, 5), rng.uniform(0.0, 1.0, 5))
              ][seed % 3]
        inp = neumann_inputs(gamma0=gamma0, k=nu + 1.0 + rng.uniform(0.0, 1.0), nu=nu,
                             mu0=mu0, mu1=mu1, g0=1.0 / (mu0 + mu1), p=p, c0=c0,
                             alpha_factor=factor)
        sc = bounded_neumann_scenario(inp, horizon=horizon, grid_points=n)
        q = comparison_exponent(p)
        cap = mu0 ** (q - 1.0) * (nu * mu1 / mu0 - gamma0)
        ts = np.linspace(0.0, horizon, n)
        bad = np.flatnonzero((1.0 + ts) ** (nu + 1.0) * (factor * c0(ts)) > cap)
        details, conditions = sc.hypotheses.details, sc.hypotheses.conditions
        assert details["closed_form_cap"] == cap
        assert conditions["closed_form_growth_bound"] == (bad.size == 0)
        first = ts[bad[0]] if bad.size else sc.certificate_check.first_violation_t
        assert sc.hypotheses.first_failure_t == first
        assert details["closed_form_insufficient"] == (bad.size == 0
                                                       and not sc.certificate_check.passed)


class TestExponentialDecay:
    def test_rate_and_initial_weight(self):
        # L = pi gives Poincare constant 1; d0 = 2, a0 = 1 -> sigma0 = 1
        inp = ScenarioInputs(L=math.pi, bc="dirichlet", a0=1.0, d0=2.0, g0=0.5)
        sc = exponential_decay_scenario(inp, horizon=10.0)
        assert sc.hypotheses.details["sigma0"] == pytest.approx(1.0)
        assert sc.certificate.nu == 0.5 * sc.hypotheses.details["sigma0"]
        assert sc.certificate.mu0 * inp.g0 == 1.0
        assert sc.certifies_decay

    def test_zero_nonlinearity_passes(self):
        inp = ScenarioInputs(L=1.0, bc="dirichlet", a0=1.0, d0=1.0, g0=1.0)
        sc = exponential_decay_scenario(inp, horizon=20.0)
        assert sc.hypotheses.passed
        assert sc.ready
        assert sc.envelope(0.0) == pytest.approx(1.0)

    def test_not_applicable_when_diffusion_too_weak(self):
        with pytest.raises(ScenarioNotApplicable):
            exponential_decay_scenario(
                ScenarioInputs(L=math.pi, bc="dirichlet", a0=3.0, d0=1.0, g0=1.0),
                horizon=5.0)

    def test_needs_dirichlet(self):
        with pytest.raises(ScenarioNotApplicable):
            exponential_decay_scenario(
                ScenarioInputs(L=1.0, bc="neumann", a0=0.1, d0=1.0, g0=1.0), horizon=5.0)

    def test_nonlinearity_cap_binds(self):
        # c0 at half the admissible level passes, at double it fails
        inp_ok = ScenarioInputs(L=math.pi, bc="dirichlet", a0=1.0, d0=2.0, g0=1.0,
                                c0=TimeProfile.constant(0.25), alpha_factor=1.0)
        sc_ok = exponential_decay_scenario(inp_ok, horizon=10.0)
        assert sc_ok.hypotheses.conditions["comparison_inequality"]
        assert sc_ok.ready
        inp_bad = ScenarioInputs(L=math.pi, bc="dirichlet", a0=1.0, d0=2.0, g0=1.0,
                                 c0=TimeProfile.constant(1.0), alpha_factor=1.0)
        sc_bad = exponential_decay_scenario(inp_bad, horizon=10.0)
        assert not sc_bad.hypotheses.conditions["comparison_inequality"]
        assert sc_bad.hypotheses.first_failure_t == 0.0
        assert not sc_bad.ready

    def test_hypotheses_imply_grid_check(self):
        # with nu = sigma0/2 the certificate check is the closed-form growth
        # bound c0 <= sigma0/2 g0**-(q-1) exp((q-1) sigma0 t/2): a constant c0
        # passes below the bound's value at t = 0 and fails above it
        rng = np.random.default_rng(2)
        for _ in range(20):
            d0 = rng.uniform(0.5, 3.0)
            L = rng.uniform(1.0, 4.0)
            sigma0_target = rng.uniform(0.2, 2.0)
            a0 = d0 * (math.pi / L) ** 2 - sigma0_target
            g0 = rng.uniform(0.05, 1.0)
            q = comparison_exponent(2.0)
            cap0 = 0.5 * sigma0_target * g0 ** (-(q - 1.0))
            share = rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 0.9) + 1.0
            inp = ScenarioInputs(L=L, bc="dirichlet", a0=a0, d0=d0, g0=g0,
                                 c0=TimeProfile.constant(share * cap0),
                                 alpha_factor=1.0)
            sc = exponential_decay_scenario(inp, horizon=15.0)
            small = sc.hypotheses.conditions["comparison_inequality"]
            assert small == sc.certificate_check.passed == (share < 1.0)
            assert sc.hypotheses.first_failure_t == (None if small else 0.0)


class TestPowerDecay:
    def test_trivial_positive_margin(self):
        # c(Omega) d0 = 1, gamma0 = 0, m = 0.5: right side positive for all t
        inp = ScenarioInputs(L=math.pi, bc="dirichlet", d0=1.0, gamma0=0.0, k=1.0,
                             m=0.5, g0=1.0)
        sc = power_decay_scenario(inp, horizon=50.0)
        assert sc.hypotheses.passed and sc.ready
        assert sc.certificate.m == 0.5

    def test_envelope_description_regimes(self):
        # m (q-1) < 1: admissible nonlinearity strength must decay
        inp = ScenarioInputs(L=1.0, bc="dirichlet", d0=1.0, gamma0=0.2, k=1.0,
                             m=2.0, g0=1.0)
        sc = power_decay_scenario(inp, horizon=30.0)
        assert sc.hypotheses.details["m_q_minus_1"] == pytest.approx(0.5)
        assert sc.hypotheses.details["c0_must_decay"]
        # m (q-1) > 1: growth of c0 is admissible
        inp2 = ScenarioInputs(L=1.0, bc="dirichlet", d0=1.0, gamma0=0.2, k=1.0,
                              m=4.5, g0=1.0)
        sc2 = power_decay_scenario(inp2, horizon=30.0)
        assert not sc2.hypotheses.details["c0_must_decay"]

    @pytest.mark.parametrize("m, decay, bound, text", [
        (2.0, True, None, "g0 * (1 + t)**(-2)"),
        (0.0, False, 1.0, "1/mu(t), uniformly <= 1"),
        (-0.5, False, None, "g0 * (1 + t)**(0.5)"),
    ])
    def test_verdict_follows_the_certificate(self, m, decay, bound, text):
        # only m > 0 lets the envelope g0 (1+t)**(-m) decay
        inp = ScenarioInputs(L=1.0, bc="dirichlet", d0=1.0, gamma0=0.2, k=1.0,
                             m=m, g0=1.0)
        sc = power_decay_scenario(inp, horizon=10.0)
        assert sc.certifies_decay is decay
        assert sc.uniform_bound == bound
        assert sc.envelope_description == text

    def test_growing_c0_admissible_in_fast_regime(self):
        inp = ScenarioInputs(L=1.0, bc="dirichlet", d0=1.0, gamma0=0.2, k=1.0, m=4.5,
                             g0=1.0, c0=TimeProfile.power_growth(0.05, 0.1),
                             alpha_factor=1.0)
        sc = power_decay_scenario(inp, horizon=50.0)
        assert sc.ready

    def test_not_applicable_when_margin_fails(self):
        with pytest.raises(ScenarioNotApplicable):
            power_decay_scenario(
                ScenarioInputs(L=math.pi, bc="dirichlet", d0=1.0, gamma0=0.6, k=1.0,
                               m=0.5, g0=1.0), horizon=10.0)


class TestBoundedNeumann:
    def base_inputs(self, **kw):
        base = dict(L=1.0, bc="neumann", gamma0=0.1, k=2.0, nu=1.0, mu0=0.5, mu1=0.5,
                    g0=1.0, p=2.0)
        base.update(kw)
        return ScenarioInputs(**base)

    def test_initial_weight_matches(self):
        sc = bounded_neumann_scenario(self.base_inputs(), horizon=50.0)
        assert sc.hypotheses.conditions["initial_value_match"]
        assert sc.uniform_bound == pytest.approx(2.0)
        assert not sc.certifies_decay

    def test_closed_form_cap_value(self):
        # mu0^(q-1) (nu mu1/mu0 - gamma0) = 0.5^0.25 * 0.9
        sc = bounded_neumann_scenario(self.base_inputs(), horizon=50.0)
        assert sc.hypotheses.details["closed_form_cap"] == \
            pytest.approx(0.5 ** 0.25 * 0.9, rel=1e-12)

    @pytest.mark.parametrize("gamma0, cap", [(0.1, math.inf), (10.0, -math.inf)])
    def test_closed_form_cap_past_the_double_range(self, gamma0, cap):
        # q = (1e4 + 3)/4, so mu0**(q - 1) = 2**2499.75 has no double value: the
        # cap reads inf with the sign of nu mu1/mu0 - gamma0 (here 4.9 or -5)
        inp = self.base_inputs(gamma0=gamma0, p=1e4, mu0=2.0, mu1=10.0)
        sc = bounded_neumann_scenario(inp, horizon=1.0)
        assert sc.hypotheses.details["closed_form_cap"] == cap
        assert sc.hypotheses.conditions["closed_form_growth_bound"] == (cap > 0.0)

    def test_zero_nonlinearity_passes(self):
        sc = bounded_neumann_scenario(self.base_inputs(), horizon=50.0)
        assert sc.hypotheses.passed and sc.ready

    def test_closed_form_bound_can_be_insufficient(self):
        # weighted strength below the closed-form cap but above the exact one:
        # the printed bound admits it, the dense grid check rejects it
        cap = 0.5 ** 0.25 * 0.9          # about 0.757
        exact_cap = 1.0 * 0.5 - 0.1      # mu(0)=1: nu mu1/mu(0) - gamma0 = 0.4
        level = 0.5 * (cap + exact_cap)  # between the two

        def alpha(ts):
            return level * (1.0 + np.asarray(ts, dtype=float)) ** (-2.0)

        inp = self.base_inputs(c0=alpha, alpha_factor=1.0)
        sc = bounded_neumann_scenario(inp, horizon=50.0)
        assert sc.hypotheses.conditions["closed_form_growth_bound"]
        assert not sc.certificate_check.passed
        assert sc.hypotheses.details["closed_form_insufficient"]
        assert not sc.ready

    def test_strength_below_exact_cap_passes(self):
        def alpha(ts):
            return 0.2 * (1.0 + np.asarray(ts, dtype=float)) ** (-2.0)
        sc = bounded_neumann_scenario(self.base_inputs(c0=alpha, alpha_factor=1.0),
                                      horizon=50.0)
        assert sc.ready

    def test_needs_neumann(self):
        with pytest.raises(ScenarioNotApplicable):
            bounded_neumann_scenario(self.base_inputs(bc="dirichlet"), horizon=5.0)

    def test_alpha_nonzero_only_between_probe_points(self):
        # c0 is 1 only near t = 0.01, between the points of a 1001-point probe
        # of [0, 50]: alpha is not 0, so the negative ratio margin
        # nu mu1/mu0 - gamma0 = -0.4 makes the scenario not applicable
        c0 = TimeProfile.tabulated([0.0, 0.01, 0.02, 50.0], [0.0, 1.0, 0.0, 0.0])
        assert not np.any(c0(np.linspace(0.0, 50.0, 1001)))
        for c0 in (c0, TimeProfile.constant(0.001)):
            inp = ScenarioInputs(L=1.0, bc="neumann", gamma0=0.5, k=2.0, nu=1.0, mu0=1.0,
                                 mu1=0.1, p=2.0, g0=1.0 / 1.1, c0=c0, alpha_factor=1.0)
            with pytest.raises(ScenarioNotApplicable, match="nonzero nonlinearity"):
                bounded_neumann_scenario(inp, horizon=50.0, grid_points=10_000)

    def test_zero_alpha_needs_no_ratio_margin(self):
        # alpha = 0 on [0, 5]: a table that is 0 at its knots up to the horizon,
        # and the factor 0
        for c0, factor in ((TimeProfile.tabulated([0.0, 5.0, 6.0], [0.0, 0.0, 1.0]), 1.0),
                           (TimeProfile.constant(0.1), 0.0)):
            sc = bounded_neumann_scenario(self.base_inputs(gamma0=2.0, c0=c0, alpha_factor=factor),
                                          horizon=5.0)
            assert sc.hypotheses.conditions["ratio_margin_positive"]

    def test_ratio_margin_required_for_nonzero_alpha(self):
        inp = self.base_inputs(gamma0=2.0, c0=TimeProfile.constant(0.1), alpha_factor=1.0)
        with pytest.raises(ScenarioNotApplicable):
            bounded_neumann_scenario(inp, horizon=5.0)


class TestModulated:
    def decay_inputs(self, L=2.0, phi0=10.0, m=1.0, **kw):
        base = dict(L=L, bc="dirichlet", matrix=TURING_MATRIX, d1=0.5, d2=10.0,
                    phi=TimeProfile.power_decay(phi0, 1.0, positive=True), m=m,
                    g0=0.2, p=2.0)
        base.update(kw)
        return ScenarioInputs(**base)

    def test_case_selection_by_length(self):
        sc2 = modulated_scenario(self.decay_inputs(L=2.0), horizon=20.0)
        assert sc2.case == "decay"
        assert sc2.hypotheses.details["gamma0"] == pytest.approx(1.0)
        assert sc2.hypotheses.details["d0_c_omega"] == pytest.approx(0.5 * (math.pi / 2.0) ** 2)
        sc4 = modulated_scenario(
            self.decay_inputs(L=4.0, phi=TimeProfile.power_decay(0.35, 2.0, positive=True),
                              mu0=1.0, mu1=1.0, nu=1.0, g0=0.5),
            horizon=50.0)
        assert sc4.case == "bounded"
        assert sc4.uniform_bound == pytest.approx(1.0)

    def test_decay_rate_margin(self):
        sc = modulated_scenario(self.decay_inputs(phi0=10.0, m=1.0), horizon=20.0)
        s = sc.hypotheses.details["d0_c_omega"] - 1.0
        assert sc.hypotheses.details["rate_margin"] == pytest.approx(10.0 * s - 1.0)
        assert sc.hypotheses.conditions["rate_margin_positive"]
        assert sc.ready

    def test_case_selection_invariant_under_phi_scaling(self):
        for phi0 in (0.1, 1.0, 40.0):
            sc = modulated_scenario(self.decay_inputs(phi0=phi0, m=1e-3), horizon=20.0)
            assert sc.case == "decay"

    def test_rate_margin_can_fail(self):
        sc = modulated_scenario(self.decay_inputs(phi0=1.0, m=1.0), horizon=20.0)
        assert not sc.hypotheses.conditions["rate_margin_positive"]
        assert not sc.ready

    def test_bounded_case_comparison_check(self):
        sc = modulated_scenario(
            self.decay_inputs(L=4.0, phi=TimeProfile.power_decay(0.35, 2.0, positive=True),
                              mu0=1.0, mu1=1.0, nu=1.0, g0=0.5),
            horizon=50.0)
        assert sc.hypotheses.passed and sc.ready
        assert not sc.certifies_decay

    def test_bounded_case_rejects_slow_modulation(self):
        # phi ~ 1/(1+t) decays too slowly against the bounded weight: the
        # comparison condition must fail at large times
        sc = modulated_scenario(
            self.decay_inputs(L=4.0, phi=TimeProfile.power_decay(0.35, 1.0, positive=True),
                              mu0=1.0, mu1=1.0, nu=1.0, g0=0.5),
            horizon=200.0)
        assert sc.case == "bounded"
        assert not sc.certificate_check.passed
        assert not sc.ready

    def test_no_admissible_mode_in_band_at_l2(self):
        # decay case coexists with linear stability of every admissible mode
        band = instability_band(Linearization2(1.0, 2.0, -2.0, -2.0, 0.5, 10.0))
        k1 = math.pi / 2.0
        assert not (band[0] < k1 < band[1])
        # while L = 4 places its first mode inside the band
        assert band[0] < math.pi / 4.0 < band[1]

    def test_initial_value_exact(self):
        sc = modulated_scenario(self.decay_inputs(), horizon=10.0)
        assert sc.certificate.mu0 * 0.2 == 1.0

    def test_undecided_boundary_case(self):
        # d1 = d2 = 1/c(Omega) makes d0 c(Omega) equal gamma0 = 1 to the bit
        d0 = 1.0 / (math.pi / 2.0) ** 2
        inp = self.decay_inputs(L=2.0, d1=d0, d2=d0)
        sc = modulated_scenario(inp, horizon=10.0)
        assert sc.case == "undecided"
        assert not sc.hypotheses.applicable
        assert not sc.ready
