import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdcert.apriori import (agmon_aggregate, build_paraboloid, constant_upper_solution,
                            estimate_agmon_constant, find_constant_upper, h2_monitor,
                            verify_pointwise_bound)
from rdcert.grid import Field, Grid1D, mode_field, zero_field
from rdcert.profiles import KineticsSpec, TimeProfile, eval_reaction
from rdcert.solver import SystemSpec, simulate

CONST_D = TimeProfile.constant(1.0, positive=True)


def make_traj(sys, T=1.0, dt=1e-3, **kw):
    return simulate(sys, T, dt=dt, **kw)


def diffusion_traj(n=128, L=1.0, amp=1.0, T=1.0, bc="dirichlet"):
    g = Grid1D(L, n, bc)
    sys = SystemSpec(grid=g, kinetics=KineticsSpec(n_components=1),
                     diffusion=(CONST_D,), initial=mode_field(g, 1, amp))
    return sys, make_traj(sys, T=T)


class TestBuildParaboloid:
    def test_reference_coefficients(self):
        # m1 = 2, d = 1, L = 1, u0 = 0: slope 1, level 1, both conditions hold
        g = Grid1D(1.0, 64)
        us = build_paraboloid(2.0, (CONST_D,), 1.0, zero_field(g, 1), horizon=5.0)
        assert us.a_us == pytest.approx(1.0)
        assert us.b_us == pytest.approx(1.0)
        assert us.radius >= 1.0
        # -2 a d + m1 <= 0
        assert -2.0 * us.a_us * 1.0 + 2.0 <= 1e-12

    def test_initial_peak_raises_level(self):
        g = Grid1D(1.0, 101)
        peak = Field(g, 5.0 * np.exp(-200.0 * (g.x - 0.5) ** 2))
        us = build_paraboloid(2.0, (CONST_D,), 1.0, peak, horizon=5.0)
        assert us.b_us >= 5.0 + us.a_us * 0.25 - 1e-9
        bound = us.bound_at(g.x, 1)
        assert np.all(peak.values <= bound + 1e-12)

    def test_decaying_diffusion_uses_infimum(self):
        g = Grid1D(1.0, 64)
        d = TimeProfile.power_decay(1.0, 1.0, positive=True)  # inf over [0,3] is 1/4
        us = build_paraboloid(2.0, (d,), 1.0, zero_field(g, 1), horizon=3.0)
        assert us.a_us == pytest.approx(4.0)

    def test_vanishing_diffusion_rejected(self):
        g = Grid1D(1.0, 64)
        dying = TimeProfile.tabulated([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            build_paraboloid(2.0, (dying,), 1.0, zero_field(g, 1), horizon=1.0)

    def test_zero_reaction_bound(self):
        g = Grid1D(1.0, 64)
        us = build_paraboloid(0.0, (CONST_D,), 1.0, zero_field(g, 1), horizon=1.0)
        assert us.a_us > 0.0  # tiny but positive so the radius is defined
        assert us.radius >= 1.0


class TestVerifyPointwise:
    def test_zero_trajectory_clean(self):
        g = Grid1D(1.0, 32)
        sys = SystemSpec(grid=g, kinetics=KineticsSpec(n_components=1),
                         diffusion=(CONST_D,), initial=zero_field(g, 1))
        traj = make_traj(sys, T=0.1)
        us = build_paraboloid(1.0, (CONST_D,), 1.0, sys.initial, horizon=0.1)
        assert verify_pointwise_bound(traj, us) == []

    def test_pure_diffusion_respects_barrier(self):
        sys, traj = diffusion_traj(amp=0.5)
        us = build_paraboloid(0.0, sys.diffusion, 1.0, sys.initial, horizon=1.0)
        assert verify_pointwise_bound(traj, us) == []

    def test_corrupted_barrier_flags_initial_time(self):
        from rdcert.apriori import UpperSolution
        sys, traj = diffusion_traj(amp=1.0)
        low = UpperSolution(kind="paraboloid", a_us=0.1, b_us=0.5)  # below the peak
        violations = verify_pointwise_bound(traj, low)
        assert violations
        assert violations[0].t == 0.0
        assert violations[0].value > violations[0].bound

    def test_constant_barrier_checks_both_sides(self):
        from rdcert.apriori import UpperSolution
        g = Grid1D(1.0, 32, "neumann")
        sys = SystemSpec(grid=g, kinetics=KineticsSpec(n_components=1),
                         diffusion=(CONST_D,),
                         initial=Field(g, -np.ones_like(g.x)))
        traj = make_traj(sys, T=0.05)
        tight = UpperSolution(kind="constant", levels=[0.5])
        violations = verify_pointwise_bound(traj, tight)
        assert violations and violations[0].value == -1.0


    def test_matches_snapshot_by_snapshot_scan(self):
        from rdcert.apriori import PointwiseViolation, UpperSolution
        g = Grid1D(1.0, 40)
        kin = KineticsSpec(n_components=2, linear=np.array([[0.5, 1.0], [-1.0, 0.4]]))
        slow = TimeProfile.constant(0.02, positive=True)
        sys = SystemSpec(grid=g, kinetics=kin, diffusion=(slow, slow),
                         initial=mode_field(g, 2, [1.0, -0.9]))
        traj = make_traj(sys, T=0.2, dt=0.01)
        us = UpperSolution(kind="paraboloid", a_us=0.5, b_us=0.7)
        bound = us.bound_at(g.x, 2)
        tol = 1e-9
        expected = []
        for t, vals in zip(traj.snapshot_times, traj.states):
            for comp, j in zip(*np.nonzero((vals > bound + tol) | (vals < -bound - tol))):
                expected.append(PointwiseViolation(
                    t=float(t), x=float(g.x[j]), component=int(comp),
                    value=float(vals[comp, j]), bound=float(bound[comp, j])))
        got = verify_pointwise_bound(traj, us)
        # both components escape, above and below, at several times
        assert len({(v.component, v.value > 0.0) for v in expected}) == 4
        assert len({v.t for v in expected}) > 5
        assert got == expected
        assert [type(f) for f in got[0]] == [float, float, int, float, float]


class TestMonitors:
    def test_h2_monitor_diffusion_peaks_at_start(self):
        # diffusion only smooths: the H2 norm is largest at t = 0
        sys, traj = diffusion_traj(n=200, L=2.0, amp=0.3)
        m2, t_at = h2_monitor(traj)
        assert t_at == 0.0
        assert m2 == pytest.approx(0.92735766352080915, rel=2e-4)

    def test_h2_dominates_l2(self):
        _, traj = diffusion_traj()
        m2, _ = h2_monitor(traj)
        assert m2 >= float(np.max(traj.l2))

    def test_agmon_constant_of_sine(self):
        # sup/(l2^(1/4) h2^(3/4)) of sin(x) on (0, pi)
        sys, traj = diffusion_traj(n=400, L=math.pi, amp=1.0, T=0.01)
        c_hat = estimate_agmon_constant(traj)
        assert c_hat == pytest.approx(0.52846909040633747, rel=5e-4)

    def test_agmon_scale_invariance_exact(self):
        g = Grid1D(1.0, 64)
        def run(amp):
            sys = SystemSpec(grid=g, kinetics=KineticsSpec(n_components=1),
                             diffusion=(CONST_D,), initial=mode_field(g, 1, amp))
            return estimate_agmon_constant(make_traj(sys, T=0.05))
        assert run(1.0) == run(16.0)  # homogeneity degrees 1/4 + 3/4 cancel exactly

    def test_agmon_monotone_under_extension(self):
        g = Grid1D(1.0, 64)
        kin = KineticsSpec(n_components=1, linear=np.array([[1.0]]))
        sys = SystemSpec(grid=g, kinetics=kin, diffusion=(CONST_D,),
                         initial=mode_field(g, 1, 0.5))
        short = make_traj(sys, T=0.5)
        long = make_traj(sys, T=1.0)
        assert estimate_agmon_constant(long) >= estimate_agmon_constant(short) - 1e-15

    def test_zero_trajectory_undefined(self):
        g = Grid1D(1.0, 32)
        sys = SystemSpec(grid=g, kinetics=KineticsSpec(n_components=1),
                         diffusion=(CONST_D,), initial=zero_field(g, 1))
        with pytest.raises(ValueError):
            estimate_agmon_constant(make_traj(sys, T=0.1))

    def test_aggregate_combines_both_constants(self):
        _, traj = diffusion_traj()
        agg = agmon_aggregate(traj, p=2.0)
        assert agg.value == pytest.approx(agg.c_hat * agg.m2_hat ** 0.75)

    def test_holder_interpolation_chain_discrete(self):
        # integral of |u|^(p+1) <= c_hat^(p-1) h2^(3(p-1)/4) g^((p+7)/4) at all steps
        g = Grid1D(1.0, 96)
        kin = KineticsSpec(n_components=1, linear=np.array([[1.5]]),
                           nonlinearity="saturated_power",
                           c0=TimeProfile.constant(0.5), p=2.0)
        sys = SystemSpec(grid=g, kinetics=kin, diffusion=(CONST_D,),
                         initial=mode_field(g, 1, 0.7))
        traj = make_traj(sys, T=1.0)
        c_hat = estimate_agmon_constant(traj)
        p = 2.0
        cap = c_hat ** (p - 1.0) * traj.h2 ** (0.75 * (p - 1.0)) * traj.g ** ((p + 7.0) / 4.0)
        assert np.all(traj.lp1 <= cap * (1.0 + 1e-12))


def scanned_constant_upper(kin, u_max, horizon, min_level=0.0, candidates=64):
    """The level search as a scan: the first geometric candidate level that
    constant_upper_solution accepts, each one checked on its own."""
    lo = max(u_max / candidates, min_level, 1e-12)
    if lo > u_max:
        return None
    for level in np.geomspace(lo, u_max, candidates):
        try:
            return constant_upper_solution(kin, [level], u_max, horizon)
        except ValueError:
            continue
    return None


class TestConstantUpper:
    def saturated_kinetics(self, gamma0=0.1, c0=0.2, k=2.0):
        return KineticsSpec(n_components=1, linear=np.array([[gamma0]]),
                            nonlinearity="saturated_power",
                            c0=TimeProfile.constant(c0), p=2.0,
                            modulation=TimeProfile.power_decay(1.0, k, positive=True))

    def test_analytic_level_accepted(self):
        # F(u) = phi (gamma0 u - c0 u^2/(1+u)) <= 0 iff u >= gamma0/(c0-gamma0)
        kin = self.saturated_kinetics()
        level = 0.1 / (0.2 - 0.1)  # = 1
        us = constant_upper_solution(kin, [level * 1.001], u_max=50.0, horizon=20.0)
        assert us.levels[0] == pytest.approx(1.001)

    def test_too_small_level_rejected(self):
        kin = self.saturated_kinetics()
        with pytest.raises(ValueError):
            constant_upper_solution(kin, [0.5], u_max=50.0, horizon=20.0)

    def test_automatic_search(self):
        kin = self.saturated_kinetics()
        us = find_constant_upper(kin, u_max=8.0, horizon=20.0)
        assert us is not None
        assert us.levels[0] >= 1.0 - 1e-6

    def test_search_fails_without_dissipation(self):
        kin = KineticsSpec(n_components=1, linear=np.array([[0.5]]))
        assert find_constant_upper(kin, u_max=10.0, horizon=5.0) is None

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), saturated=st.booleans(),
           c0_kind=st.sampled_from(["constant", "power_decay", "power_growth", "exponential",
                                    "tabulated"]),
           modulation=st.sampled_from(["decaying", "negative", "short_table"]),
           a=st.floats(-3.0, 1.0), p=st.floats(1.2, 4.0), c0=st.floats(-0.5, 3.0),
           u_max=st.floats(0.1, 10.0), min_level=st.floats(0.0, 12.0),
           horizon=st.floats(0.5, 6.0))
    def test_search_matches_a_scan_of_the_levels(self, data, saturated, c0_kind, modulation,
                                                 a, p, c0, u_max, min_level, horizon):
        # the same level and note as checking each candidate in turn, or None
        # for both: no level passes, min_level is above u_max, c0 < 0 or
        # phi <= 0 at a checked time, or a table ends before the horizon
        if c0_kind == "constant":
            c0_profile = TimeProfile.constant(c0)
        elif c0_kind == "tabulated":
            t_max = data.draw(st.floats(0.25, 8.0), label="t_max")
            c0_profile = TimeProfile.tabulated([0.0, t_max], [c0, 2.0 * c0 + 0.1])
        else:
            rate = data.draw(st.floats(-1.0, 1.0), label="rate")
            c0_profile = (TimeProfile.exponential(c0, rate) if c0_kind == "exponential"
                          else getattr(TimeProfile, c0_kind)(c0, abs(rate)))
        phi = {"decaying": TimeProfile.power_decay(1.0, 1.0),
               "negative": TimeProfile.power_decay(2.0, 1.0, offset=-1.0),
               "short_table": TimeProfile.tabulated([0.0, 3.0], [1.0, 0.5])}[modulation]
        kin = KineticsSpec(n_components=1, linear=np.array([[a]]),
                           nonlinearity="saturated_power" if saturated else "none",
                           c0=c0_profile, p=p, modulation=phi)
        got = find_constant_upper(kin, u_max, horizon, min_level)
        expected = scanned_constant_upper(kin, u_max, horizon, min_level)
        if expected is None:
            assert got is None
        else:
            assert got.kind == expected.kind == "constant"
            assert got.levels.tobytes() == expected.levels.tobytes()
            assert got.note == expected.note

    def test_barrier_holds_along_neumann_run(self):
        kin = self.saturated_kinetics()
        g = Grid1D(1.0, 64, "neumann")
        sys = SystemSpec(grid=g, kinetics=kin,
                         diffusion=(CONST_D,),
                         initial=Field(g, 0.5 + 0.1 * np.cos(np.pi * g.x)))
        traj = make_traj(sys, T=5.0, dt=1e-3)
        us = constant_upper_solution(kin, [1.5], u_max=50.0, horizon=5.0)
        assert verify_pointwise_bound(traj, us) == []

    def test_threshold_is_decided_exactly(self):
        # F(u) = phi u (0.1 - 0.2 u/(1+u)) is positive on [l, 1) for l < 1,
        # a band that 4096 random states on [l, 50] at 33 times all miss for
        # l = 1 - 1e-5; the closed form rejects every level below 1
        kin = self.saturated_kinetics()
        assert constant_upper_solution(kin, [1.0], u_max=50.0, horizon=20.0).levels[0] == 1.0
        level = 1.0 - 1e-5
        assert eval_reaction(kin, np.array([level]), t=0.0)[0] > 0.0
        with pytest.raises(ValueError, match=r"^sign condition fails: F_0 can be positive for "
                                             r"u_0 >= 0\.99999 at t = 0 \(bound .* > 0\)$"):
            constant_upper_solution(kin, [level], u_max=50.0, horizon=20.0)

    def test_note_names_the_closed_form(self):
        us = constant_upper_solution(self.saturated_kinetics(), [2.0], u_max=50.0, horizon=20.0)
        assert us.note == ("sign condition decided in closed form at 33 times on [0, 20], "
                           "|u| <= 50")

    def test_modulation_must_be_positive(self):
        kin = KineticsSpec(n_components=1, linear=np.array([[-1.0]]),
                           modulation=TimeProfile.constant(-1.0))
        with pytest.raises(ValueError, match="^modulation must be positive$"):
            constant_upper_solution(kin, [1.0], u_max=5.0, horizon=1.0)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), m=st.sampled_from([1, 2]), saturated=st.booleans(),
           p=st.floats(1.2, 4.0), c0=st.floats(0.0, 3.0), u_max=st.floats(0.1, 10.0))
    def test_accepted_levels_hold_and_one_component_is_exact(self, data, m, saturated, p, c0,
                                                             u_max):
        # every accepted level keeps F_i <= 0 on a grid of states with
        # u_i >= l_i and |u_j| <= u_max; with one component, a rejected
        # level has F > 0 at u = l at some checked time
        a = np.array(data.draw(st.lists(st.floats(-3.0, 1.0), min_size=m * m,
                                        max_size=m * m), label="a")).reshape(m, m)
        levels = np.array(data.draw(st.lists(st.floats(0.05, 5.0), min_size=m, max_size=m),
                                    label="levels"))
        kin = KineticsSpec(n_components=m, linear=a,
                           nonlinearity="saturated_power" if saturated else "none",
                           c0=TimeProfile.power_decay(c0, 0.5), p=p,
                           modulation=TimeProfile.power_decay(1.0, 1.0, positive=True))
        horizon = 4.0
        times = np.linspace(0.0, horizon, 33)
        try:
            constant_upper_solution(kin, levels, u_max, horizon)
            accepted = True
        except ValueError:
            accepted = False
        scale = 1e-12 * (1.0 + np.abs(a).sum() + c0) * (max(u_max, levels.max()) + 1.0)
        if accepted:
            for i in range(m):
                own = np.linspace(levels[i], max(u_max, levels[i]) * 1.5, 41)
                other = np.linspace(-u_max, u_max, 21)
                u = np.empty((m, own.size * (other.size if m == 2 else 1)))
                if m == 2:
                    u[i] = np.repeat(own, other.size)
                    u[1 - i] = np.tile(other, own.size)
                else:
                    u[0] = own
                for t in times[::8]:
                    assert np.all(eval_reaction(kin, u, t=float(t))[i] <= scale)
                    assert np.all(eval_reaction(kin, -u, t=float(t))[i] >= -scale)
        elif m == 1:
            worst = max(eval_reaction(kin, levels, t=float(t))[0] for t in times)
            assert worst >= -scale
