import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

import rdcert.inequality
from rdcert.inequality import (_CELL, _MARGIN, Certificate, InvalidCertificateError, ScalarProblem,
                               _residual, _residual_bound,
                               bernoulli_blowup_time, bernoulli_closed_form,
                               check_certificate, comparison_solve, growth_residual,
                               verify_envelope)
from rdcert.profiles import _BLOCK, ProfileSum, TimeProfile, _table_knots, profile_derivative

CONST = TimeProfile.constant


def log_derivative(cert, t):
    """mu'(t)/mu(t) as the certificate check forms it: nu for the exponential
    family, the profile's derivative over mu for the others."""
    if cert.family == "exponential":
        t_arr = np.asarray(t, dtype=float)
        return float(cert.nu) if t_arr.ndim == 0 else np.full(t_arr.shape, cert.nu)
    return profile_derivative(cert._weight, t) / cert.mu(t)


class TestBernoulliClosedForm:
    def test_reduces_to_linear_decay(self):
        for t in (0.0, 0.5, 2.0, 7.0):
            assert bernoulli_closed_form(0.8, 0.0, 1.5, 0.3, t) == \
                pytest.approx(0.3 * math.exp(-0.8 * t), rel=1e-14)

    def test_equilibrium_is_fixed_point(self):
        sigma, alpha, q = 1.2, 0.4, 1.75
        g_star = (sigma / alpha) ** (1.0 / (q - 1.0))
        for t in (0.1, 1.0, 10.0):
            assert bernoulli_closed_form(sigma, alpha, q, g_star, t) == \
                pytest.approx(g_star, rel=1e-12)

    def test_frozen_quadrature_values(self):
        # sigma = 1, alpha = 0.5, q = 5/4, g0 = 0.5: values frozen from a
        # 25-digit Taylor-series integration of the ODE (independent of both
        # code paths under test)
        assert bernoulli_closed_form(1.0, 0.5, 1.25, 0.5, 1.0) == \
            pytest.approx(0.27180144695763649, rel=1e-13)
        assert bernoulli_closed_form(1.0, 0.5, 1.25, 0.5, 4.0) == \
            pytest.approx(0.031511779929032203, rel=1e-13)

    def test_zero_initial_value(self):
        assert bernoulli_closed_form(1.0, 0.5, 1.25, 0.0, 3.0) == 0.0

    def test_sigma_zero_separable(self):
        # w(t) = w0 - alpha (q-1) t, g = w^(-1/(q-1))
        alpha, q, g0, t = 0.3, 1.5, 0.4, 1.2
        w = g0 ** (1.0 - q) - alpha * (q - 1.0) * t
        assert bernoulli_closed_form(0.0, alpha, q, g0, t) == \
            pytest.approx(w ** (-1.0 / (q - 1.0)), rel=1e-13)

    def test_overflowing_exponent_is_not_an_error(self):
        # (q-1) sigma t = 750: exp(x) overflows where g itself underflows to 0
        assert bernoulli_closed_form(10.0, 0.1, 1.25, 1.0, 300.0) == 0.0
        # large q: the same overflow with a g far from 0, and a blow-up past it
        assert bernoulli_closed_form(1.0, 0.0, 101.0, 0.5, 7.5) == \
            pytest.approx(0.5 * math.exp(-7.5), rel=1e-12)
        assert math.isinf(bernoulli_closed_form(10.0, 5.0, 1.25, 20.0, 300.0))
        # g = exp(750) itself is past the double range
        assert math.isinf(bernoulli_closed_form(-30.0, 0.0, 1.5, 1.0, 25.0))

    def test_inf_at_and_past_blowup(self):
        tstar = bernoulli_blowup_time(-0.5, 0.8, 1.5, 0.9)
        assert math.isinf(bernoulli_closed_form(-0.5, 0.8, 1.5, 0.9, tstar * 1.01))
        assert math.isfinite(bernoulli_closed_form(-0.5, 0.8, 1.5, 0.9, tstar * 0.99))


class TestBlowupTime:
    def test_none_without_nonlinearity(self):
        assert bernoulli_blowup_time(-1.0, 0.0, 1.5, 1.0) is None

    def test_none_below_equilibrium(self):
        sigma, alpha, q = 1.0, 0.5, 1.25
        g_star = (sigma / alpha) ** (1.0 / (q - 1.0))
        assert bernoulli_blowup_time(sigma, alpha, q, 0.9 * g_star) is None
        assert bernoulli_blowup_time(sigma, alpha, q, 1.1 * g_star) is not None

    def test_sigma_zero_limit_consistency(self):
        base = bernoulli_blowup_time(0.0, 0.7, 1.4, 0.8)
        near = bernoulli_blowup_time(1e-9, 0.7, 1.4, 0.8)
        assert near == pytest.approx(base, rel=1e-6)

    def test_past_the_double_range_of_w(self):
        # w0 = g0**(1-q) = 1e30000: t* = log1p(w0 |sigma| / alpha) / ((q-1) |sigma|)
        assert bernoulli_blowup_time(-1.0, 0.1, 101.0, 1e-300) == \
            pytest.approx(30001.0 * math.log(10.0) / 100.0, rel=1e-12)

    def test_defines_root_of_w(self):
        sigma, alpha, q, g0 = -0.3, 0.6, 1.8, 0.5
        tstar = bernoulli_blowup_time(sigma, alpha, q, g0)
        w0 = g0 ** (1.0 - q)
        w = alpha / sigma + (w0 - alpha / sigma) * math.exp((q - 1.0) * sigma * tstar)
        assert w == pytest.approx(0.0, abs=1e-12)


class TestComparisonSolve:
    def test_linear_decay(self):
        prob = ScalarProblem(sigma=CONST(1.0), alpha=CONST(0.0), q=1.25, g0=1.0)
        sol = comparison_solve(prob, 5.0, tol=1e-11)
        assert sol.blowup_time is None
        for t in (0.7, 3.0, 5.0):
            assert sol.value(t) == pytest.approx(math.exp(-t), rel=1e-9)

    def test_zero_initial_stays_zero(self):
        prob = ScalarProblem(sigma=CONST(-3.0), alpha=CONST(1.0), q=1.5, g0=0.0)
        sol = comparison_solve(prob, 4.0)
        assert np.all(sol.value(np.linspace(0.0, 4.0, 2001)) == 0.0)
        assert sol.blowup_time is None

    def test_matches_closed_form(self):
        prob = ScalarProblem(sigma=CONST(1.0), alpha=CONST(0.5), q=1.25, g0=0.5)
        sol = comparison_solve(prob, 6.0, tol=1e-11)
        for t in np.linspace(0.2, 6.0, 14):
            cf = bernoulli_closed_form(1.0, 0.5, 1.25, 0.5, float(t))
            assert sol.value(float(t)) == pytest.approx(cf, rel=1e-8)

    def test_blowup_detection_matches_closed_form(self):
        cases = [(-0.5, 0.8, 1.5, 0.9), (0.2, 0.9, 1.3, 0.95), (-1.0, 0.2, 1.9, 0.4)]
        for sigma, alpha, q, g0 in cases:
            tstar = bernoulli_blowup_time(sigma, alpha, q, g0)
            prob = ScalarProblem(sigma=CONST(sigma), alpha=CONST(alpha), q=q, g0=g0)
            sol = comparison_solve(prob, tstar * 2.0, tol=1e-11)
            assert sol.blowup_time == pytest.approx(tstar, abs=1e-7)
            assert math.isinf(sol.value(tstar * 1.5))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(log_g0=st.floats(0.0, 300.0), q=st.floats(1.2, 3.0), sigma=st.floats(-2.0, 2.0),
           alpha=st.floats(0.1, 10.0))
    @example(log_g0=100.0, q=2.0, sigma=0.0, alpha=1.0)   # J'(0) = 1e100
    @example(log_g0=300.0, q=2.0, sigma=0.0, alpha=1.0)   # J'(0) = 1e300
    @example(log_g0=86.0, q=3.0, sigma=1.0, alpha=1.0)    # log J'(0) = 396.7
    @example(log_g0=43.0, q=3.0, sigma=1.0, alpha=1.0)    # log J'(0) = 198.7
    def test_huge_initial_value_blows_up_at_the_closed_form_time(self, log_g0, q, sigma, alpha):
        # a huge J'(0) puts the escape in the first intervals of the first
        # grid, so it is solved again on ever shorter horizons until it lies
        # in the second half of the grid
        g0 = 10.0 ** log_g0
        tstar = bernoulli_blowup_time(sigma, alpha, q, g0)
        assume(tstar is not None and sys.float_info.min <= tstar < 5.0)
        prob = ScalarProblem(sigma=CONST(sigma), alpha=CONST(alpha), q=q, g0=g0)
        sol = comparison_solve(prob, 5.0)
        assert sol.blowup_time == pytest.approx(tstar, rel=1e-6)
        half = 0.5 * sol.blowup_time
        assert sol.value(half) == pytest.approx(
            bernoulli_closed_form(sigma, alpha, q, g0, half), rel=1e-6)

    def test_blowup_time_underflowing_to_zero_keeps_g0_at_zero(self):
        # the escape near 1e-600 reads 0.0, yet g(0) is g0
        sol = comparison_solve(ScalarProblem(sigma=CONST(0.5), alpha=CONST(2.0), q=3.0,
                                             g0=1e300), 1.0)
        assert sol.blowup_time == 0.0
        assert sol.value(0.0) == pytest.approx(1e300, rel=1e-12)
        assert sol.value(1e-300) == math.inf

    @pytest.mark.parametrize("q, g0, rel", [
        (2.0, 1e300, 1e-13),  # the escape at 1.4e-150, where J' is about 1.4e150
        (3.0, 1e305, 1e-12),  # at 1e-305: J' is past the double range at every node > 0
        (4.0, 1e300, None),   # at 8e-451, which underflows to 0
    ])
    def test_rate_rising_past_exp_200_before_the_escape(self, q, g0, rel):
        # alpha = t near 0, so J'(0) = 0 and J = (q-1) g0**(q-1) t**2 / 2
        # (sigma's factor is 1 to 1e-149): the escape at
        # sqrt(2 / ((q-1) g0**(q-1))), and g = (3/4)**(-1/(q-1)) g0 at half of it
        c = q - 1.0
        prob = ScalarProblem(sigma=CONST(-5.0), q=q, g0=g0,
                             alpha=TimeProfile.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 1.0]))
        sol = comparison_solve(prob, 2.0)
        if rel is None:
            assert sol.blowup_time == 0.0
            assert sol.value(0.0) == g0
            return
        tstar = math.exp(0.5 * (math.log(2.0 / c) - c * math.log(g0)))
        assert sol.blowup_time == pytest.approx(tstar, rel=rel)
        assert sol.value(0.5 * sol.blowup_time) == pytest.approx(0.75 ** (-1.0 / c) * g0, rel=rel)

    @pytest.mark.parametrize("s", [-3000.0, -1e4, -1e5])
    def test_late_escape_after_a_steep_knot(self, s):
        # sigma is 0 up to t = 0.5, ramps to s over 1e-8 and stays there; alpha
        # = 1, q = 2.  So J = g0 (0.5 + R + e**k (e**(lam (t - b)) - 1) / lam)
        # past the ramp's end b, with lam = -s, k = lam delta / 2 and R the
        # ramp's integral of exp(k (u/delta)**2): the escape lies in the
        # second half of [0, 1], a few 1/lam past the knot
        g0, delta = 1e-3, 1e-8
        b, lam = 0.5 + delta, -s
        k = lam * delta / 2.0
        ramp = delta * sum(k ** n / (math.factorial(n) * (2 * n + 1)) for n in range(8))
        tstar = b + math.log1p(lam * (1.0 / g0 - 0.5 - ramp) * math.exp(-k)) / lam
        prob = ScalarProblem(sigma=TimeProfile.tabulated([0.0, 0.5, b, 1.0], [0.0, 0.0, s, s]),
                             alpha=CONST(1.0), q=2.0, g0=g0)
        assert comparison_solve(prob, 1.0).blowup_time == pytest.approx(tstar, abs=1e-10)

    def test_monotone_in_alpha(self):
        # pointwise larger alpha gives a pointwise larger solution
        prob_lo = ScalarProblem(sigma=CONST(0.5), alpha=CONST(0.1), q=1.5, g0=0.8)
        prob_hi = ScalarProblem(sigma=CONST(0.5), alpha=CONST(0.3), q=1.5, g0=0.8)
        lo = comparison_solve(prob_lo, 8.0)
        hi = comparison_solve(prob_hi, 8.0)
        for t in np.linspace(0.0, 8.0, 17):
            assert hi.value(float(t)) >= lo.value(float(t)) - 1e-12

    def test_time_dependent_coefficients(self):
        # integrating factor solution for alpha = 0, sigma(t) = 1/(1+t)
        prob = ScalarProblem(sigma=TimeProfile.power_decay(1.0, 1.0),
                             alpha=CONST(0.0), q=1.25, g0=2.0)
        sol = comparison_solve(prob, 9.0, tol=1e-11)
        for t in (1.0, 4.0, 9.0):
            assert sol.value(t) == pytest.approx(2.0 / (1.0 + t), rel=1e-9)

    def test_values_stay_nonnegative(self):
        prob = ScalarProblem(sigma=CONST(4.0), alpha=CONST(0.0), q=1.5, g0=1.0)
        sol = comparison_solve(prob, 20.0)
        assert np.all(sol.value(np.linspace(0.0, 20.0, 2001)) >= 0.0)

    def test_growth_without_blowup_stays_exact(self):
        # alpha = 0 with sigma < 0: pure exponential growth far past g = 1e14
        prob = ScalarProblem(sigma=CONST(-3.0), alpha=CONST(0.0), q=1.5, g0=1.0)
        sol = comparison_solve(prob, 25.0)
        assert sol.blowup_time is None
        for t in (5.0, 10.0, 15.0, 20.0, 25.0):
            assert sol.value(t) == pytest.approx(math.exp(3.0 * t), rel=1e-9)

    def test_random_constant_coefficients_match_closed_form(self):
        # seeded property test over regimes hand-picked cases miss: q near 1,
        # sigma = 0, alpha = 0, (q-1) sigma T > 709, growth past g = 1e14 and
        # finite escapes; then, after those 56 draws, alpha < 0 (J falls, and
        # no escape may be reported), with sigma < 0 and (q-1)|sigma| T from
        # 50 to 600 in half of them, so J' reaches e**600 while |J| stays in
        # the double range (past it, see the xfail test below)
        rng = np.random.default_rng(11)
        regimes = ("generic", "q_near_one", "sigma_zero", "alpha_zero",
                   "strong_decay", "strong_growth", "blow_up")
        cases = ([regimes[i % len(regimes)] for i in range(56)]
                 + ["negative_alpha", "negative_alpha_growth"] * 8)
        blow_ups = 0
        for regime in cases:
            sigma, alpha, horizon = rng.uniform(-1.5, 2.5), rng.uniform(0.0, 1.0), 10.0
            q, g0 = 1.0 + 10.0 ** rng.uniform(-1.5, 0.3), 10.0 ** rng.uniform(-3.0, 0.5)
            if regime == "q_near_one":
                q = 1.0 + 10.0 ** rng.uniform(-6.0, -2.0)
            elif regime == "sigma_zero":
                sigma = 0.0
            elif regime == "alpha_zero":
                alpha = 0.0
            elif regime == "strong_decay":
                q, sigma = 1.0 + rng.uniform(1.0, 3.0), rng.uniform(40.0, 80.0)
                horizon = rng.uniform(1.05, 2.0) * 709.0 / ((q - 1.0) * sigma)
            elif regime == "strong_growth":
                q, sigma = 1.0 + rng.uniform(0.2, 0.6), -rng.uniform(2.0, 5.0)
                alpha, horizon = 10.0 ** rng.uniform(-30.0, -20.0), 25.0
            elif regime == "blow_up":
                sigma, alpha = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)
                g0 = rng.uniform(1.0, 3.0)
            elif regime == "negative_alpha":
                alpha = -alpha
            elif regime == "negative_alpha_growth":  # g tends to (|sigma|/|alpha|)**(1/(q-1))
                q, sigma, alpha = 1.0 + rng.uniform(1.0, 3.0), -rng.uniform(5.0, 20.0), -alpha
            prob = ScalarProblem(sigma=CONST(sigma), alpha=CONST(alpha), q=q, g0=g0)
            sol = comparison_solve(prob, horizon)
            tstar = bernoulli_blowup_time(sigma, alpha, q, g0)
            if tstar is not None and tstar <= horizon:
                assert sol.blowup_time == pytest.approx(tstar, abs=1e-7)
                blow_ups += 1
                end = 0.9 * tstar
            else:
                assert sol.blowup_time is None  # no escape within the horizon
                end = horizon
            growth = 0.0
            for t in np.linspace(0.0, end, 11)[1:]:
                exact = bernoulli_closed_form(sigma, alpha, q, g0, float(t))
                growth = max(growth, exact)
                if math.isfinite(exact) and exact > 1e-280:
                    assert sol.value(float(t)) == pytest.approx(exact, rel=1e-8)
            if regime == "strong_growth":
                assert growth > 1e14
        assert blow_ups >= 6  # the battery must include finite-time escapes

    @pytest.mark.parametrize("sigma, alpha, g0", [(-60.0, -5.0, 1.0), (-40.0, -1.0, 0.5)])
    def test_negative_alpha_escape_of_a_coarse_grid_is_not_reported(self, sigma, alpha, g0):
        # J' < 0 grows by e**(|sigma| h) an interval of the first grid, where
        # node 3's cubic reads J >= 1; the range up to node 4 holds no escape,
        # so the horizon is solved again from a finer grid, which finds none
        sol = comparison_solve(ScalarProblem(sigma=CONST(sigma), alpha=CONST(alpha),
                                             q=2.0, g0=g0), 10.0)
        assert sol.blowup_time is None
        for t in (0.1, 1.0, 10.0):
            assert sol.value(t) == pytest.approx(
                bernoulli_closed_form(sigma, alpha, 2.0, g0, t), rel=1e-8)

    @pytest.mark.xfail(raises=RuntimeError, strict=True,
                       reason="J' and J leave the double range where alpha < 0 and |J| "
                              "passes e**709; J needs a running log scale")
    def test_negative_alpha_with_j_past_the_double_range(self):
        # log|J(10)| is about 996, while g tends to (|sigma|/|alpha|)**(1/(q-1))
        sigma, alpha, q, g0 = -50.0, -1.0, 3.0, 1.0
        sol = comparison_solve(ScalarProblem(sigma=CONST(sigma), alpha=CONST(alpha),
                                             q=q, g0=g0), 10.0)
        assert sol.blowup_time is None
        assert sol.value(10.0) == pytest.approx(
            bernoulli_closed_form(sigma, alpha, q, g0, 10.0), rel=1e-8)

    @pytest.mark.parametrize("alpha_after", [0.0, -1.0])
    def test_escape_next_to_the_last_node_ends(self, monkeypatch, alpha_after):
        # a plain callable's jump at 0.99, which the grid cannot see, makes J'
        # overflow at the second-to-last node of the first grid, and alpha
        # jumps at the horizon: the range cannot shrink there, so the grid is
        # refined instead, and each solve is counted so that a loop fails.
        # g(0.99) = g0 / (1 - 0.99 g0), and the closed form from there gives
        # the escape; the jump lies inside an interval of the final grid
        # (about 1.2e-4 long), which places the escape to within it
        quadrature, solves = rdcert.inequality._quadrature, []

        def counted(*args):
            solves.append(args)
            assert len(solves) < 100, "the escape search does not end"
            return quadrature(*args)
        monkeypatch.setattr(rdcert.inequality, "_quadrature", counted)
        g0 = 1e-3
        prob = ScalarProblem(sigma=lambda t: np.where(t < 0.99, 0.0, -1e7),
                             alpha=lambda t: np.where(t < 1.0, 1.0, alpha_after), q=2.0, g0=g0)
        tstar = 0.99 + bernoulli_blowup_time(-1e7, 1.0, 2.0, g0 / (1.0 - 0.99 * g0))
        assert comparison_solve(prob, 1.0).blowup_time == pytest.approx(tstar, abs=1e-4)

    @pytest.mark.parametrize("sigma, alpha, q, g0, t, expected", [
        # g0**(1-q) underflows: a pure decay g0 exp(-sigma t)
        (2.0, 0.0, 40.0, 1e10, 2.5, 1e10 * math.exp(-5.0)),
        # g0**(1-q) overflows; alpha's share of w is below one part in 1e29000
        (1.0, 0.1, 101.0, 1e-300, 1.0, 1e-300 * math.exp(-1.0)),
        (-1.0, 0.1, 101.0, 1e-300, 1.0, 1e-300 * math.e),
        # w0 = 1e-390 is gone long before t = 2.5: past the blow-up time
        (2.0, 1.0, 40.0, 1e10, 2.5, math.inf),
    ])
    def test_closed_form_outside_the_double_range_of_w(self, sigma, alpha, q, g0, t,
                                                        expected):
        got = bernoulli_closed_form(sigma, alpha, q, g0, t)
        if math.isinf(expected):
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-10)
        # the blow-up time agrees: at or before t exactly when g(t) is inf
        tstar = bernoulli_blowup_time(sigma, alpha, q, g0)
        assert (tstar is not None and tstar <= t) == math.isinf(expected)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["sigma", "alpha"])
    def test_a_coefficient_that_is_not_finite_is_named_with_its_time(self, field, bad):
        # finite up to t = 0.3; raised before any numpy RuntimeWarning, which
        # fails the suite
        kwargs = dict(sigma=CONST(1.0), alpha=CONST(0.1), q=1.25, g0=0.5)
        kwargs[field] = lambda t: np.where(t < 0.3, 0.5, bad)
        with pytest.raises(ValueError, match=f"^{field}\\(t\\) is not finite at t = ") as caught:
            comparison_solve(ScalarProblem(**kwargs), 1.0)
        t = float(str(caught.value).rsplit(" ", 1)[1])
        assert 0.3 <= t < 0.3 + 1.0 / 64  # the first node past 0.3 of the first grid

    def test_tabulated_alpha_matches_the_segmentwise_closed_form(self):
        # a piecewise-linear alpha, the shape certificate alphas take, with
        # knots off any dyadic grid.  With a constant sigma, J is a sum over
        # the segments of int (a + b s) exp(-lam s) ds, lam = (q-1) sigma
        rng = np.random.default_rng(7)
        sigma, q, g0, horizon = 0.7, 1.5, 0.9, 6.0
        knots = np.concatenate([[0.0], np.sort(rng.uniform(0.0, horizon, 40)), [horizon]])
        values = rng.uniform(0.0, 0.6, knots.size)
        prob = ScalarProblem(sigma=CONST(sigma), alpha=TimeProfile.tabulated(knots, values),
                             q=q, g0=g0)
        sol = comparison_solve(prob, horizon)
        assert sol.blowup_time is None
        c = q - 1.0
        lam = c * sigma

        def antiderivative(s, a, b):  # of (a + b s) exp(-lam s)
            return -math.exp(-lam * s) * ((a + b * s) / lam + b / lam ** 2)

        def exact(t):
            total = 0.0
            for s0, s1, v0, v1 in zip(knots[:-1], knots[1:], values[:-1], values[1:]):
                if s0 >= t:
                    break
                b = (v1 - v0) / (s1 - s0)
                a = v0 - b * s0
                total += antiderivative(min(s1, t), a, b) - antiderivative(s0, a, b)
            j = c * g0 ** c * total
            return g0 * math.exp(-sigma * t) * (1.0 - j) ** (-1.0 / c)
        probes = np.concatenate([np.linspace(0.0, horizon, 53)[1:], knots[1:-1]])
        worst = max(abs(sol.value(float(t)) / exact(float(t)) - 1.0) for t in probes)
        assert worst <= 1e-8


class TestComparisonValueOnArrays:
    """value at an array of times gives each time the bits of its own
    one-time call, inf past a blow-up included."""

    @pytest.mark.parametrize("sigma, alpha, q, g0, horizon", [
        (1.0, 0.5, 1.25, 0.5, 5.0),       # decays
        (-1.0, 1.0, 2.0, 1.0, 3.0),       # blows up at log 2
        (-3.0, 1.0, 1.5, 0.0, 4.0),       # g0 = 0 stays 0
        (0.5, 2.0, 3.0, 1e300, 1.0),      # the blow-up time underflows to 0
    ], ids=["decay", "blow-up", "zero", "underflowing-blow-up"])
    def test_matches_one_time_calls(self, sigma, alpha, q, g0, horizon):
        sol = comparison_solve(ScalarProblem(sigma=CONST(sigma), alpha=CONST(alpha), q=q,
                                             g0=g0), horizon)
        ts = np.concatenate([np.linspace(0.0, horizon, 2001), [-1e-13, horizon + 1e-13]])
        if sol.blowup_time is not None:
            ts = np.concatenate([ts, [sol.blowup_time, np.nextafter(sol.blowup_time, 0.0)]])
        got = sol.value(ts)
        assert got.tobytes() == np.array([sol.value(float(t)) for t in ts]).tobytes()
        assert sol.value(ts[:2000].reshape(40, 50)).tobytes() == got[:2000].tobytes()
        assert np.isinf(got).any() == (sol.blowup_time is not None)
        with pytest.raises(ValueError, match="outside the integrated range"):
            sol.value(np.array([0.0, 0.5 * horizon, -1.0]))


class TestCertificateFamilies:
    @pytest.mark.parametrize("cert", [
        Certificate.exponential(2.0, 0.7),
        Certificate.power(0.5, 1.3),
        Certificate.bounded(0.4, 0.6, 1.2),
        Certificate.from_table(np.linspace(0.0, 10.0, 201),
                               1.0 + 0.3 * np.sin(np.linspace(0.0, 10.0, 201))),
    ])
    def test_log_derivative_matches_finite_differences(self, cert):
        # a table is taken at its knots nearest 0.3, 1.7 and 6.0: 0.3 and 1.7
        # lie one ulp below a knot, where the exact slope is the left
        # segment's, while a centred difference across the kink measures the
        # mean of both sides, the derivative at the knot itself
        times = (0.3, 1.7, 6.0) if cert.table is None else cert.table[[6, 34, 120], 0]
        for t in times:
            h = 1e-6
            fd = (cert.mu(t + h) - cert.mu(t - h)) / (2.0 * h) / cert.mu(t)
            assert log_derivative(cert, t) == pytest.approx(fd, rel=2e-4, abs=1e-7)

    def test_bounded_family_values(self):
        cert = Certificate.bounded(0.5, 0.5, 1.0)
        assert cert.mu(0.0) == pytest.approx(1.0)
        assert cert.mu(1e9) == pytest.approx(0.5, rel=1e-6)
        assert cert.uniform_bound == pytest.approx(2.0)
        assert not cert.decays_to_zero_envelope

    def test_decaying_families_flag(self):
        assert Certificate.exponential(1.0, 0.5).decays_to_zero_envelope
        assert Certificate.power(1.0, 2.0).decays_to_zero_envelope

    def test_validation(self):
        with pytest.raises(ValueError):
            Certificate.exponential(0.0, 1.0)
        with pytest.raises(ValueError):
            Certificate.bounded(1.0, -1.0, 1.0)


@pytest.mark.parametrize("field", ["sigma", "alpha"])
@pytest.mark.parametrize("value", [1.0, None, "1.0"])
def test_problem_rejects_a_coefficient_that_is_not_a_function_of_time(field, value):
    # at construction, not at the first evaluation deep inside a solve
    kwargs = dict(sigma=CONST(1.0), alpha=CONST(0.1), q=1.25, g0=0.5)
    kwargs[field] = value
    with pytest.raises(TypeError, match=f"^{field} must be a profile or a callable of t"):
        ScalarProblem(**kwargs)
    kwargs[field] = lambda t: 0.5 + 0.0 * t  # a plain callable is accepted
    assert comparison_solve(ScalarProblem(**kwargs), 1.0).blowup_time is None


@pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0])
def test_horizon_must_be_finite_and_positive(horizon):
    # raised before any numpy or scipy RuntimeWarning, which fails the suite
    prob = ScalarProblem(sigma=CONST(1.0), alpha=CONST(0.1), q=1.25, g0=0.5)
    with pytest.raises(ValueError, match="horizon must be finite and positive"):
        check_certificate(prob, Certificate.exponential(1.0, 0.5), horizon)
    with pytest.raises(ValueError, match="horizon must be finite and positive"):
        comparison_solve(prob, horizon)


class TestCheckCertificate:
    def test_alpha_zero_sign_check_passes(self):
        prob = ScalarProblem(sigma=CONST(1.0), alpha=CONST(0.0), q=1.25, g0=1.0)
        cert = Certificate.exponential(1.0, 0.5)
        rep = check_certificate(prob, cert, horizon=10.0)
        assert rep.passed
        assert rep.c9_slack == pytest.approx(0.0, abs=1e-15)
        assert rep.worst_residual > 0.0
        assert rep.failed_condition is None

    def test_large_alpha_fails_at_origin(self):
        prob = ScalarProblem(sigma=CONST(1.0), alpha=CONST(10.0), q=1.25, g0=1.0)
        cert = Certificate.exponential(1.0, 0.5)
        rep = check_certificate(prob, cert, horizon=5.0)
        assert not rep.passed
        assert rep.failed_condition == "residual"
        assert rep.first_violation_t == 0.0
        assert rep.worst_residual < 0.0

    def test_initial_condition_violation(self):
        prob = ScalarProblem(sigma=CONST(1.0), alpha=CONST(0.0), q=1.25, g0=1.0)
        cert = Certificate.exponential(10.0, 0.5)  # mu(0) g0 = 10 > 1
        rep = check_certificate(prob, cert, horizon=5.0)
        assert not rep.passed
        assert rep.failed_condition == "initial_condition"
        assert rep.first_violation_t == 0.0
        assert rep.c9_slack == pytest.approx(-9.0)

    def test_interior_violation_located(self):
        # residual sign change in the interior: rising alpha overtakes the cap
        prob = ScalarProblem(sigma=CONST(1.0), alpha=TimeProfile.power_growth(0.05, 2.0),
                             q=1.25, g0=1.0)
        cert = Certificate.power(1.0, 0.5)
        rep = check_certificate(prob, cert, horizon=40.0)
        assert not rep.passed
        assert rep.failed_condition == "residual"
        assert 0.0 < rep.first_violation_t < 40.0
        t = rep.first_violation_t

        def residual(s):
            mu = cert.mu(s)
            return mu ** 0.25 * (1.0 - log_derivative(cert, s)) - 0.05 * (1.0 + s) ** 2
        assert residual(t) == pytest.approx(0.0, abs=1e-6)

    def test_non_positive_mu_rejected(self):
        prob = ScalarProblem(sigma=CONST(1.0), alpha=CONST(0.0), q=1.25, g0=1.0)
        bad = Certificate.from_table([0.0, 1.0, 2.0], [1.0, -0.5, 1.0])
        with pytest.raises(InvalidCertificateError):
            check_certificate(prob, bad, horizon=2.0)

    def test_comparison_principle_randomized(self):
        # whenever the check passes, the comparison solution obeys the envelope
        rng = np.random.default_rng(23)
        horizon = 8.0
        ts_dense = np.linspace(0.0, horizon, 801)
        checked = 0
        for _ in range(40):
            family = rng.choice(["exponential", "power", "bounded"])
            if family == "exponential":
                cert = Certificate.exponential(rng.uniform(0.5, 3.0), rng.uniform(0.1, 1.0))
                sigma0 = cert.nu + rng.uniform(0.05, 1.5)
                sigma = CONST(sigma0)
            elif family == "power":
                cert = Certificate.power(rng.uniform(0.5, 3.0), rng.uniform(0.3, 2.0))
                sigma0 = cert.m + rng.uniform(0.05, 1.0)
                sigma = TimeProfile.power_decay(sigma0, 1.0)
            else:
                cert = Certificate.bounded(rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0),
                                           rng.uniform(0.5, 2.0))
                sigma = CONST(0.0)
            q = rng.uniform(1.05, 2.0)
            mu_d = np.asarray(cert.mu(ts_dense), dtype=float)
            cap = mu_d ** (q - 1.0) * (np.asarray(sigma(ts_dense), dtype=float)
                                       - np.asarray(log_derivative(cert, ts_dense), dtype=float))
            theta = rng.uniform(0.2, 0.9)
            alpha = TimeProfile.tabulated(ts_dense, np.maximum(theta * cap, 0.0))
            g0 = 1.0 / float(cert.mu(0.0))
            prob = ScalarProblem(sigma=sigma, alpha=alpha, q=q, g0=g0)
            rep = check_certificate(prob, cert, horizon, grid_points=2001)
            if not rep.passed:
                continue
            checked += 1
            sol = comparison_solve(prob, horizon, tol=1e-10)
            ts = np.linspace(0.0, horizon, 2001)
            ratio = sol.value(ts) * np.asarray(cert.mu(ts), dtype=float)
            assert float(np.max(ratio)) <= 1.0 + 1e-6
        assert checked >= 20  # the battery must actually exercise passing cases

    def test_passing_decay_certificate_envelope_shrinks(self):
        cert = Certificate.exponential(1.0, 0.5)
        assert 1.0 / cert.mu(20.0) < 1e-4


def growth_terms(cert, q, ts):
    """mu**(q-1) and mu'/mu at the array ts, written out in the operation
    order of the check: in logs for the parametric weights, with (1 + t)**-nu
    and (1 + t)**-1 as factors of the bounded weight's mu'."""
    c = q - 1.0
    if cert.family == "exponential":
        return np.exp((cert.nu * ts + math.log(cert.mu0)) * c), cert.nu
    if cert.family == "power":
        return (np.exp((np.log1p(ts) * cert.m + math.log(cert.mu0)) * c),
                (1.0 + ts) ** -1.0 * cert.m)
    mu = np.asarray(cert.mu(ts), dtype=float)
    if cert.family == "bounded":
        return (np.exp(np.log(mu) * c),
                (1.0 + ts) ** -cert.nu * (-cert.nu * cert.mu1) * (1.0 + ts) ** -1.0 / mu)
    return mu ** c, profile_derivative(cert._weight, ts) / mu


def whole_grid_check(problem, cert, horizon, n, tol):
    """The verdict of check_certificate from one whole-array evaluation of
    r = mu**(q-1) (sigma - mu'/mu) - alpha, refined the same way:
    (residuals, worst_residual, worst_t, first_violation_t)."""
    ts = np.linspace(0.0, horizon, n)
    weight, log_d = growth_terms(cert, problem.q, ts)
    slack = np.asarray(problem.sigma_fn()(ts), dtype=float) - log_d
    residuals = weight * slack - np.asarray(problem.alpha_fn()(ts), dtype=float)

    def at(t):
        return float(growth_residual(problem, cert, t))
    i = int(np.argmin(residuals))
    worst, worst_t = float(residuals[i]), float(ts[i])
    refined = minimize_scalar(at, bounds=(ts[max(i - 1, 0)], ts[min(i + 1, n - 1)]),
                              method="bounded", options={"xatol": 1e-12 * max(horizon, 1.0)})
    if refined.fun < worst:
        worst, worst_t = float(refined.fun), float(refined.x)
    first = None
    if not worst >= -tol:  # a NaN worst residual fails too
        bad = np.flatnonzero(residuals < -tol)
        if not bad.size:
            first = worst_t
        elif bad[0] > 0 and residuals[bad[0] - 1] != residuals[bad[0]]:
            j = bad[0]
            first = float(brentq(lambda s: at(s) + tol, ts[j - 1], ts[j], xtol=1e-12))
        else:
            first = float(ts[bad[0]])
    return residuals, worst, worst_t, first


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_closed_form_weights_match_the_power_of_mu(data):
    # each family's mu**(q-1) and mu'/mu from its own formula, against the
    # residual written out from mu, its derivative and one power of mu
    draw = data.draw
    family = draw(st.sampled_from(["exponential", "power", "bounded"]))
    mu0 = draw(st.floats(0.1, 10.0))
    if family == "exponential":
        cert = Certificate.exponential(mu0, draw(st.floats(-1.0, 1.0)))
    elif family == "power":
        cert = Certificate.power(mu0, draw(st.floats(-3.0, 3.0)))
    else:
        cert = Certificate.bounded(mu0, draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 3.0)))
    q = draw(st.floats(1.05, 3.0))
    sigma = TimeProfile.power_decay(draw(st.floats(-2.0, 2.0)), 1.0,
                                    offset=draw(st.floats(-1.0, 3.0)))
    alpha = TimeProfile.power_decay(draw(st.floats(0.0, 2.0)), 2.0)
    ts = np.linspace(0.0, draw(st.floats(0.5, 8.0)), 257)
    mu = np.asarray(cert.mu(ts), dtype=float)
    weight = mu ** (q - 1.0)
    log_d = profile_derivative(cert._weight, ts) / mu
    want = weight * (sigma(ts) - log_d) - alpha(ts)
    size = weight * (np.abs(sigma(ts)) + np.abs(log_d)) + alpha(ts)
    problem = ScalarProblem(sigma=sigma, alpha=alpha, q=q, g0=1.0)
    got = growth_residual(problem, cert, ts)
    assert np.all(np.abs(got - want) <= 1e-14 * size)
    # a scalar time takes numpy scalars through the same formulas
    i = draw(st.integers(0, len(ts) - 1))
    assert abs(float(growth_residual(problem, cert, float(ts[i]))) - want[i]) <= 1e-14 * size[i]


# blocks of the dense pass, then cells of the check's search (5 cells and a
# ragged tail of 37 points)
BLOCKED_SIZES = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7,
                 _CELL - 1, _CELL, _CELL + 1, 5 * _CELL + 37]
BLOCKED_IDS = ["B-1", "B", "B+1", "3B+7", "C-1", "C", "C+1", "5C+37"]


def spike(horizon, n, index, height):
    """A tabulated alpha that is 0 except for a hat of the given height on the
    grid point ts[index] of an n-point grid on [0, horizon]."""
    ts = np.linspace(0.0, horizon, n)
    return TimeProfile.tabulated([0.0, ts[index - 1], ts[index], ts[index + 1], horizon],
                                 [0.0, 0.0, height, 0.0, 0.0])


class TestBlockedCheck:
    """check_certificate evaluates the grid in blocks of _BLOCK points; its
    report must equal the whole-array formula bit for bit."""

    FAMILIES = {
        # residual 0.5 e^(t/8) - c e^(t/2) turns negative at t = 8 (block 2 of 3B+7)
        "exponential": (Certificate.exponential(1.0, 0.5), CONST(1.0),
                        TimeProfile.exponential(0.5 * math.exp(-3.0), 0.5), 10.0),
        "power": (Certificate.power(1.0, 0.5), CONST(1.0),
                  TimeProfile.power_growth(0.05, 2.0), 40.0),
        "bounded": (Certificate.bounded(0.5, 0.5, 1.0), TimeProfile.power_decay(-0.1, 2.0),
                    TimeProfile.power_decay(0.2, 2.0), 50.0),
    }

    def assert_matches(self, problem, cert, horizon, n, tol=1e-12):
        rep = check_certificate(problem, cert, horizon, grid_points=n, tol=tol)
        residuals, worst, worst_t, first = whole_grid_check(problem, cert, horizon, n, tol)
        # the verdict is streamed; growth_residual on the report's times
        # gives the whole-grid residuals
        assert np.array_equal([rep.worst_residual], [worst], equal_nan=True)
        assert rep.worst_t == worst_t
        assert rep.first_violation_t == first
        assert rep.passed == (worst >= -tol)
        assert growth_residual(problem, cert, rep.times).tobytes() == residuals.tobytes()
        return rep

    @pytest.mark.parametrize("n", [2] + BLOCKED_SIZES, ids=["2"] + BLOCKED_IDS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_whole_grid(self, family, n):
        cert, sigma, alpha, horizon = self.FAMILIES[family]
        g0 = 1.0 / float(cert.mu(0.0))
        rep = self.assert_matches(ScalarProblem(sigma=sigma, alpha=alpha, q=1.25, g0=g0),
                                  cert, horizon, n)
        if family == "exponential":
            assert not rep.passed
            assert rep.first_violation_t == pytest.approx(8.0, rel=1e-9)
            if n > 2 * _BLOCK:
                assert rep.first_violation_t > rep.times[2 * _BLOCK]

    @pytest.mark.parametrize("edge", [_BLOCK - 1, _BLOCK, 2 * _BLOCK],
                             ids=["last-of-block-0", "first-of-block-1", "first-of-block-2"])
    @pytest.mark.parametrize("dip", [0.25, -1.0], ids=["passing", "failing"])
    def test_minimum_on_a_block_edge(self, edge, dip):
        # r = 0.5 e^(t/8) - spike: the spike takes r down to dip at ts[edge],
        # below r(0) = 0.5, so ts[edge] is the grid minimum
        n, horizon = 3 * _BLOCK + 7, 10.0
        height = 0.5 * math.exp(np.linspace(0.0, horizon, n)[edge] / 8.0) - dip
        cert = Certificate.exponential(1.0, 0.5)
        problem = ScalarProblem(sigma=CONST(1.0), alpha=spike(horizon, n, edge, height),
                                q=1.25, g0=1.0)
        rep = self.assert_matches(problem, cert, horizon, n)
        assert int(np.argmin(growth_residual(problem, cert, rep.times))) == edge
        assert rep.passed == (dip > 0.0)
        if not rep.passed:
            assert rep.times[edge - 1] < rep.first_violation_t < rep.times[edge]

    @pytest.mark.parametrize("n", [2] + BLOCKED_SIZES, ids=["2"] + BLOCKED_IDS)
    def test_violation_at_point_0(self, n):
        # r = 0.5 e^(t/8) - 0.75 (1+t)**-2 starts at -0.25 and turns positive
        problem = ScalarProblem(sigma=CONST(1.0), alpha=TimeProfile.power_decay(0.75, 2.0),
                                q=1.25, g0=1.0)
        rep = self.assert_matches(problem, Certificate.exponential(1.0, 0.5), 10.0, n)
        assert rep.first_violation_t == 0.0 and not rep.passed

    @pytest.mark.parametrize("dip", [0.25, -1.0], ids=["passing", "failing"])
    def test_minimum_tied_across_blocks_takes_the_first(self, dip):
        # mu = 1 and sigma = 1, so r = 1 - alpha: two equal spikes of alpha, in
        # blocks 0 and 2, give two equal grid minima; np.argmin takes the first
        n, horizon = 3 * _BLOCK + 7, 10.0
        ts = np.linspace(0.0, horizon, n)
        first, second = _BLOCK - 5, 2 * _BLOCK + 3
        knots = [0.0]
        for i in (first, second):
            knots += [ts[i - 1], ts[i], ts[i + 1]]
        alpha = TimeProfile.tabulated(knots + [horizon], [0.0, 0.0, 1.0 - dip, 0.0,
                                                          0.0, 1.0 - dip, 0.0, 0.0])
        problem = ScalarProblem(sigma=CONST(1.0), alpha=alpha, q=1.25, g0=1.0)
        cert = Certificate.exponential(1.0, 0.0)
        rep = self.assert_matches(problem, cert, horizon, n)
        residuals = growth_residual(problem, cert, rep.times)
        assert residuals[first] == residuals[second] == rep.worst_residual == dip
        assert rep.worst_t == ts[first]

    @pytest.mark.parametrize("violation", ["none", "block-0", "same-block"])
    def test_nan_residual_in_a_later_block(self, violation):
        # alpha is NaN at one point of block 2: that NaN is the grid minimum,
        # as in np.argmin, and the verdict fails; a violation, from t = 0 or
        # inside the NaN's own block, still gives the first violation time
        n, horizon = 3 * _BLOCK + 7, 10.0
        ts = np.linspace(0.0, horizon, n)
        spot = ts[2 * _BLOCK + 11]

        def alpha(t):
            t = np.asarray(t, dtype=float)
            base = (0.6 if violation == "block-0" else 0.1) / (1.0 + t) ** 2
            if violation == "same-block":  # r < 0 on ts[2B + 5] .. ts[2B + 20]
                base = np.where((t >= ts[2 * _BLOCK + 5]) & (t <= ts[2 * _BLOCK + 20]), 10.0, base)
            return np.where(t == spot, np.nan, base)
        problem = ScalarProblem(sigma=CONST(1.0), alpha=alpha, q=1.25, g0=1.0)
        rep = self.assert_matches(problem, Certificate.exponential(1.0, 0.5), horizon, n)
        assert math.isnan(rep.worst_residual) and rep.worst_t == spot and not rep.passed
        first = {"none": spot, "block-0": 0.0}.get(violation)
        if first is None:
            assert ts[2 * _BLOCK + 4] < rep.first_violation_t <= ts[2 * _BLOCK + 5]
        else:
            assert rep.first_violation_t == first

    def test_table_weight_invalid_only_mid_grid(self):
        # the table's mu dips below 0 only inside block 1; alpha < 0 fails in
        # block 0, and the weight's error still comes first
        n, horizon = 3 * _BLOCK + 7, 3.0
        ts = np.linspace(0.0, horizon, n)
        a, b = ts[_BLOCK + 100], ts[_BLOCK + 200]
        cert = Certificate.from_table([0.0, a, 0.5 * (a + b), b, horizon],
                                      [1.0, 1.0, -0.5, 1.0, 1.0])
        for alpha in (CONST(0.1), CONST(-1.0)):
            problem = ScalarProblem(sigma=CONST(1.0), alpha=alpha, q=1.25, g0=1.0)
            with pytest.raises(InvalidCertificateError):
                check_certificate(problem, cert, horizon, n)

    def test_table_weight_invalid_only_between_grid_points(self):
        # mu is 1 at every grid point and -1 at the knot 0.15, between the
        # grid points 0.1 and 0.2: mu at the table's knots decides it before
        # sigma or alpha is read
        calls = []

        def coefficient(t):
            calls.append(t)
            return np.ones_like(np.asarray(t, dtype=float))
        cert = Certificate.from_table([0.0, 0.14, 0.15, 0.16, 1.0], [1.0, 1.0, -1.0, 1.0, 1.0])
        problem = ScalarProblem(sigma=coefficient, alpha=coefficient, q=1.25, g0=1.0)
        assert np.all(cert.mu(np.linspace(0.0, 1.0, 11)) == 1.0)
        with pytest.raises(InvalidCertificateError):
            check_certificate(problem, cert, 1.0, grid_points=11)
        assert calls == []

    def test_invalid_mu_in_a_later_block_outranks_alpha_in_block_0(self):
        # mu = (1+t)**775 overflows past t = 1.5, in block 2: that is raised
        # before block 0's residual, with its alpha < 0, is formed
        n, horizon = 3 * _BLOCK + 7, 2.0
        problem = ScalarProblem(sigma=CONST(1.0), alpha=CONST(-1.0), q=1.25, g0=1.0)
        with np.errstate(over="ignore"):
            with pytest.raises(InvalidCertificateError):
                check_certificate(problem, Certificate.power(1.0, 775.0), horizon, n)

    @staticmethod
    def shared_powers_case(data, family):
        """A problem whose sigma and alpha are ProfileSums of factors that
        share exponents and rates with each other and with the certificate
        of ``family``, so the check's blocks read each (1 + t)**e and
        exp(rate t) several times: (problem, cert, horizon, tol)."""
        draw = data.draw
        horizon = draw(st.floats(1.0, 20.0))
        e = draw(st.sampled_from([1.0, 2.0]) | st.floats(0.25, 2.5))
        rate = draw(st.floats(-0.3, 0.3))
        knots = np.linspace(0.0, horizon, draw(st.integers(2, 6)))
        if family == "exponential":
            cert = Certificate.exponential(draw(st.floats(0.5, 2.0)), rate)
        elif family == "power":  # mu reads (1 + t)**e, mu' (1 + t)**(e - 1)
            cert = Certificate.power(draw(st.floats(0.5, 2.0)), e)
        elif family == "bounded":  # mu reads (1 + t)**-e, mu' (1 + t)**(-e - 1)
            cert = Certificate.bounded(draw(st.floats(0.2, 1.0)), draw(st.floats(0.2, 1.0)), e)
        else:
            cert = Certificate.from_table(knots, [draw(st.floats(0.5, 2.0)) for _ in knots])

        def value():
            return draw(st.floats(0.1, 2.0))
        pool = [TimeProfile.power_decay(value(), 1.0), TimeProfile.power_decay(value(), 2.0),
                TimeProfile.power_decay(value(), e), TimeProfile.power_decay(value(), e + 1.0),
                TimeProfile.power_growth(value(), e), TimeProfile.power_growth(value(), e - 1.0),
                TimeProfile.exponential(value(), rate), lambda t: 2.0 + np.cos(t),
                TimeProfile.tabulated(knots, [value() for _ in knots])]

        def terms(weights):
            return tuple((draw(weights), tuple(pool[i] for i in draw(
                st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=2))))
                for _ in range(draw(st.integers(1, 3))))
        # a constant term (no factors) lifts sigma, so that many residuals
        # change sign inside the horizon rather than at t = 0
        sigma = ProfileSum(terms(st.floats(-2.0, 2.0)) + ((draw(st.floats(0.0, 4.0)), ()),))
        alpha = ProfileSum(terms(st.floats(0.0, 0.5)))
        g0 = 0.5 / float(cert.mu(0.0))  # the initial condition holds
        problem = ScalarProblem(sigma=sigma, alpha=alpha, q=draw(st.floats(1.1, 3.0)), g0=g0)
        return problem, cert, horizon, draw(st.sampled_from([0.0, 1e-12]))

    def assert_shared_powers_match(self, data, family, n):
        problem, cert, horizon, tol = self.shared_powers_case(data, family)
        rep = self.assert_matches(problem, cert, horizon, n, tol)
        assert rep.times.tobytes() == np.linspace(0.0, horizon, n).tobytes()

    @pytest.mark.parametrize("n", BLOCKED_SIZES, ids=BLOCKED_IDS)
    @pytest.mark.parametrize("family", ["exponential", "power", "bounded"])
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_shared_powers_match_whole_grid(self, family, n, data):
        self.assert_shared_powers_match(data, family, n)

    # one example each: a table weight's mu'/mu takes refined differences
    # point by point, about 25 us a point
    @pytest.mark.parametrize("n", BLOCKED_SIZES, ids=BLOCKED_IDS)
    @settings(max_examples=1, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_shared_powers_match_whole_grid_custom(self, n, data):
        self.assert_shared_powers_match(data, "custom", n)

    @pytest.mark.parametrize("n", BLOCKED_SIZES, ids=BLOCKED_IDS)
    @pytest.mark.parametrize("family", ["exponential", "power", "bounded", "custom"])
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_growth_residual_blocks_match_one_evaluation(self, family, n, data):
        # on unsorted times that are no linspace, growth_residual's blocks
        # give the residuals of one whole-array evaluation bit for bit
        problem, cert, horizon, _ = self.shared_powers_case(data, family)
        times = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(
            0.0, horizon, n)
        whole = _residual(problem, cert, times)
        assert growth_residual(problem, cert, times).tobytes() == whole.tobytes()

    def test_stores_only_the_residuals(self):
        # beyond its input, growth_residual takes the residuals' 8 bytes a
        # point, plus cache-sized block temporaries
        n = 1_000_000
        problem = ScalarProblem(sigma=CONST(1.0), alpha=TimeProfile.power_decay(0.1, 1.0),
                                q=1.25, g0=1.0)
        times = np.linspace(0.0, 10.0, n)
        tracemalloc.start()
        try:
            residuals = growth_residual(problem, Certificate.power(1.0, 0.5), times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(residuals) == n and residuals.min() >= 0.0
        assert peak / n < 13.0

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_check_keeps_no_grid_sized_array(self, family):
        # the verdict comes from per-block reductions: the check's peak stays
        # well under one 8 MB array of the 2^20-point grid
        cert, sigma, alpha, horizon = self.FAMILIES[family]
        problem = ScalarProblem(sigma=sigma, alpha=alpha, q=1.25, g0=1.0 / float(cert.mu(0.0)))
        tracemalloc.start()
        try:
            check_certificate(problem, cert, horizon, 1 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestVerifyEnvelope:
    def test_zero_trajectory_never_violates(self):
        cert = Certificate.exponential(1.0, 1.0)
        times = np.linspace(0.0, 5.0, 100)
        assert verify_envelope(times, np.zeros_like(times), cert).size == 0

    def test_corrupted_certificate_flags_origin(self):
        cert = Certificate.exponential(10.0, 0.5)  # mu(0) g(0) = 10
        times = np.linspace(0.0, 2.0, 50)
        g = np.exp(-times)
        viol = verify_envelope(times, g, cert, slack=0.02)
        assert viol.size > 0
        assert viol[0] == 0.0

    def test_exact_boundary_tolerated_by_slack(self):
        cert = Certificate.exponential(1.0, 1.0)
        times = np.linspace(0.0, 3.0, 60)
        g = np.exp(-times)  # g * mu = 1 exactly
        assert verify_envelope(times, g, cert, slack=0.02).size == 0
        assert verify_envelope(times, 1.05 * g, cert, slack=0.02).size == 60


class TestCellSearch:
    """check_certificate evaluates the residual at the endpoints of cells of
    _CELL intervals and densely only on the cells whose interval bounds could
    decide the verdict; its report must equal the whole-grid evaluation."""

    @staticmethod
    def draw_case(data):
        """(problem, cert, horizon, n, tol) of one of five kinds: random
        weights, sigmas and alphas; a residual flat on every cell (all grid
        points tie); a spike of alpha on a cell endpoint, the grid minimum; a
        weight whose power overflows past the double range where sigma
        equals mu'/mu, so r = inf * 0 - alpha is NaN there; and a bump
        (1+t)**-a - (1+t)**-b, a < b, in sigma or alpha on a few wide
        cells, so that r dips inside cells whose endpoints pass."""
        draw = data.draw
        kind = draw(st.sampled_from(["random", "flat", "edge", "overflow", "bump"]))
        horizon = draw(st.floats(0.5, 40.0))
        n = draw(st.sampled_from([2, 3, _CELL - 1, _CELL, _CELL + 1, 4 * _CELL + 37])
                 | st.integers(2, 6 * _CELL))
        q = draw(st.floats(1.05, 3.0))
        tol = draw(st.sampled_from([0.0, 1e-12]))
        family = draw(st.sampled_from(["exponential", "power", "bounded"]))
        if kind == "overflow":
            # mu stays finite on [0, horizon]; mu**(q-1), with q - 1 >= 1.5, passes 1e308
            q = draw(st.floats(2.5, 3.0))
            log_mu_end = draw(st.floats(300.0, 700.0))
            if family == "power":
                m = log_mu_end / math.log1p(horizon)
                cert, sigma = Certificate.power(1.0, m), TimeProfile.power_decay(m, 1.0)
            else:
                nu = log_mu_end / horizon
                cert, sigma = Certificate.exponential(1.0, nu), CONST(nu)
            alpha = CONST(draw(st.floats(-0.5, 0.5)))
            return ScalarProblem(sigma=sigma, alpha=alpha, q=q, g0=0.5), cert, horizon, n, tol
        if kind == "flat":
            # nu = 0 or m = 0: mu is constant and mu'/mu is 0, so r is one value
            mu0 = draw(st.floats(0.5, 2.0))
            cert = Certificate.exponential(mu0, 0.0) if family != "power" else Certificate.power(mu0, 0.0)
            level = st.just(0.0) | st.floats(-1.0, 1.0)  # 0 and 0: r = 0, a bound of size 0
            problem = ScalarProblem(sigma=CONST(draw(level)), alpha=CONST(draw(level)),
                                    q=q, g0=0.5 / mu0)
            return problem, cert, horizon, n, tol

        def value():
            return draw(st.floats(0.1, 2.0))
        knots = np.linspace(0.0, horizon, draw(st.integers(2, 6)))
        pool = [CONST(value()), TimeProfile.power_decay(value(), draw(st.floats(0.25, 3.0))),
                TimeProfile.power_growth(value(), draw(st.floats(0.25, 2.0))),
                TimeProfile.exponential(value(), draw(st.floats(-0.3, 0.3))),
                TimeProfile.tabulated(knots, [value() for _ in knots])]
        if kind == "bump":
            n = draw(st.integers(2 * _CELL + 1, 6 * _CELL))
            a = draw(st.floats(0.5, 1.5))
            bump = ((1.0, (TimeProfile.power_decay(1.0, a),)),
                    (-1.0, (TimeProfile.power_decay(1.0, a + draw(st.floats(0.5, 2.0))),)))
            k = draw(st.floats(0.5, 8.0))
            growth = ProfileSum(((draw(st.floats(0.0, 1e-3)), (pool[2],)),))
            sigma = ProfileSum(((draw(st.floats(0.0, 2.0)), ()),) + tuple(
                (-k * w, fs) for w, fs in bump) + ((draw(st.floats(-1.0, 1.0)), (pool[1],)),))
            alpha = growth
            if draw(st.booleans()):  # the bump in alpha instead
                sigma, alpha = ProfileSum(sigma.terms[:1] + sigma.terms[3:]), ProfileSum(
                    tuple((k * w, fs) for w, fs in bump) + growth.terms)
        if family == "exponential":
            cert = Certificate.exponential(draw(st.floats(0.5, 2.0)), draw(st.floats(-0.3, 0.3)))
        elif family == "power":
            cert = Certificate.power(draw(st.floats(0.5, 2.0)), draw(st.floats(-2.0, 2.0)))
        else:
            cert = Certificate.bounded(draw(st.floats(0.2, 1.0)), draw(st.floats(0.2, 1.0)),
                                       draw(st.floats(0.25, 2.5)))
        if kind == "bump":
            return ScalarProblem(sigma=sigma, alpha=alpha, q=q, g0=0.5 / float(cert.mu(0.0))), \
                cert, horizon, n, tol
        # weights of either sign, and a constant term that lifts sigma, so that
        # many residuals change sign inside the horizon
        sigma = ProfileSum(tuple(
            (draw(st.floats(-2.0, 2.0)), tuple(pool[i] for i in draw(
                st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=2))))
            for _ in range(draw(st.integers(1, 3)))) + ((draw(st.floats(0.0, 4.0)), ()),))
        alpha = draw(st.sampled_from(pool[1:]) | st.just(pool[0]))
        if kind == "edge" and n > _CELL + 1:
            # a hat of alpha on a cell endpoint takes r far below its other values
            index = _CELL * draw(st.integers(1, (n - 2) // _CELL))
            alpha = ProfileSum(((1.0, (alpha,)), (1.0, (spike(horizon, n, index, 100.0),))))
        g0 = 0.5 / float(cert.mu(0.0))  # the initial condition holds
        return ScalarProblem(sigma=sigma, alpha=alpha, q=q, g0=g0), cert, horizon, n, tol

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_whole_grid(self, data):
        problem, cert, horizon, n, tol = self.draw_case(data)
        rep = check_certificate(problem, cert, horizon, grid_points=n, tol=tol)
        with np.errstate(over="ignore", invalid="ignore"):  # the written-out overflow
            _, worst, worst_t, first = whole_grid_check(problem, cert, horizon, n, tol)
        assert np.array_equal([rep.worst_residual], [worst], equal_nan=True)
        assert rep.worst_t == worst_t
        assert rep.first_violation_t == first
        assert rep.passed == (worst >= -tol)
        assert 2 <= rep.evaluated_points <= n

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_residual_bound_holds_on_every_cell(self, data):
        # on each cell of finite bound and no table knot, every grid point's
        # residual is at least the bound less its margin
        problem, cert, horizon, n, _ = self.draw_case(data)
        ends = np.append(np.arange(0, n - 1, _CELL), n - 1)
        ts = np.linspace(0.0, horizon, n)
        bound = _residual_bound(problem, cert, ts[ends])
        knots = np.concatenate([_table_knots(p) for p in (problem.sigma, problem.alpha)])
        residuals = growth_residual(problem, cert, ts)
        for c, (a, b) in enumerate(zip(ends[:-1], ends[1:])):
            lower = bound[0][c] - _MARGIN * bound[1][c]
            if math.isfinite(lower) and not np.any((knots >= ts[a]) & (knots <= ts[b])):
                assert np.all(residuals[a:b + 1] >= lower)

    @pytest.mark.parametrize("bump", ["sigma", "alpha"])
    def test_dip_between_passing_endpoints(self, bump):
        # f = (1+t)**-1 - (1+t)**-2 rises from 0 to 1/4 at t = 1 and falls, so
        # with mu = 1 the residual 0.24 - f - 2e-6 (1+t)**6 (or, with f moved
        # into alpha, the same r) dips to about -0.01 inside cell 0 of [0, 2],
        # whose endpoints pass, before the grid minimum -0.12 at t = 6: only
        # the cell's bound, from the two terms of f, sends the search into it
        growth = TimeProfile.power_growth(2e-6, 6.0)
        f = ((1.0, (TimeProfile.power_decay(1.0, 1.0),)), (-1.0, (TimeProfile.power_decay(1.0, 2.0),)))
        if bump == "sigma":
            sigma = ProfileSum(((0.24, ()),) + tuple((-w, fs) for w, fs in f))
            alpha = ProfileSum(((1.0, (growth,)),))
        else:
            sigma, alpha = CONST(0.24), ProfileSum(f + ((1.0, (growth,)),))
        n, horizon = 3 * _CELL + 1, 6.0
        problem = ScalarProblem(sigma=sigma, alpha=alpha, q=1.25, g0=1.0)
        rep = TestBlockedCheck().assert_matches(problem, Certificate.exponential(1.0, 0.0),
                                                horizon, n)
        residuals = growth_residual(problem, Certificate.exponential(1.0, 0.0), rep.times)
        assert residuals[0] > 0.0 and residuals[_CELL] > 0.0
        assert 0.0 < rep.first_violation_t < 1.0 and rep.worst_t == horizon
        assert rep.evaluated_points == 4 + 2 * (_CELL - 1)

    def test_plain_callable_evaluates_every_point(self):
        # no bound covers a plain callable: every cell is evaluated
        n = 3 * _CELL + 5
        problem = ScalarProblem(sigma=lambda t: 1.0 + 0.0 * np.asarray(t), alpha=CONST(0.1),
                                q=1.25, g0=1.0)
        rep = check_certificate(problem, Certificate.exponential(1.0, 0.5), 10.0, n)
        assert rep.passed and rep.evaluated_points == n

    @pytest.mark.parametrize("alpha, passed", [(CONST(0.1), True),
                                               (TimeProfile.power_decay(0.75, 2.0), False)],
                             ids=["passing", "failing-at-0"])
    def test_evaluated_points_by_hand(self, alpha, passed):
        # r = 0.5 e^(t/8) - alpha(t) rises on [0, 10], so its minimum is at t = 0
        # and the first point below 0, if any, too: the 4 endpoints of the 3
        # cells and the 1023 points inside cell 0
        problem = ScalarProblem(sigma=CONST(1.0), alpha=alpha, q=1.25, g0=1.0)
        rep = check_certificate(problem, Certificate.exponential(1.0, 0.5), 10.0, 3 * _CELL + 1)
        assert rep.passed == passed and rep.worst_t == 0.0
        assert rep.evaluated_points == 4 + (_CELL - 1)

    def test_spike_between_endpoints_is_found(self):
        # a table knot inside a cell leaves it without a bound: the spike at the
        # middle of a cell is the grid minimum although no endpoint sees it
        n, horizon = 8 * _CELL + 1, 8.0
        index = 3 * _CELL + _CELL // 2
        problem = ScalarProblem(sigma=CONST(1.0), alpha=spike(horizon, n, index, 10.0),
                                q=1.25, g0=1.0)
        rep = TestBlockedCheck().assert_matches(problem, Certificate.exponential(1.0, 0.5),
                                                horizon, n)
        assert not rep.passed and rep.worst_t == rep.times[index]
        assert rep.evaluated_points < n // 2
