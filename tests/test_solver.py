import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from rdcert.grid import (Grid1D, constant_field, discrete_norms, lp_integral, mode_field,
                         noise_field, zero_field)
from rdcert.profiles import KineticsSpec, TimeProfile, eval_profile, eval_reaction
from rdcert.solver import (BlowUpError, InconclusiveOrderError, ManufacturedCase,
                           SystemSpec, apply_laplacian, convergence_orders,
                           energy_inequality_residuals, manufactured_system, simulate,
                           step_imex)

CONST_D = TimeProfile.constant(1.0, positive=True)


def stepwise_run(sys, T, dt, scheme="two_stage"):
    """simulate's norm series and final state rebuilt one step at a time from
    step_imex, discrete_norms and lp_integral.  A failure is returned, not
    raised: the first error of a step, or BlowUpError at t_i when the norms
    of the finite state at step i overflow."""
    n_steps = int(round(T / dt))
    state, rows = sys.initial, []
    for i in range(n_steps + 1):
        try:
            if i:
                state = step_imex(state, dt * (i - 1), dt, sys, scheme)
        except (BlowUpError, ValueError) as exc:
            return exc
        with np.errstate(over="ignore", invalid="ignore"):
            ns = discrete_norms(state)
            row = (ns.l2, ns.sup, ns.h1_semi, ns.h2, lp_integral(state, sys.kinetics.p + 1.0))
        if not np.all(np.isfinite(row)):
            return BlowUpError(dt * i)
        rows.append(row)
    return np.array(rows).T, state.values


class StageTimes:
    """Zero forcing that records the stage times a run reaches."""

    def __init__(self):
        self.times = []

    def __call__(self, xs, t):
        self.times.append(float(t))
        return np.zeros(len(xs))


def diffusion_system(n=256, L=1.0, d=1.0, ic_mode=1, amp=1.0, bc="dirichlet"):
    g = Grid1D(L, n, bc)
    kin = KineticsSpec(n_components=1)
    return SystemSpec(grid=g, kinetics=kin,
                      diffusion=(TimeProfile.constant(d, positive=True),),
                      initial=mode_field(g, ic_mode, amp))


class TestLaplacian:
    def test_dirichlet_eigenmode(self):
        g = Grid1D(1.0, 101, "dirichlet")
        vals = np.sin(np.pi * g.x)[None, :]
        lam_h = 2.0 * (1.0 - math.cos(math.pi * g.h)) / g.h ** 2
        assert apply_laplacian(vals, g) == pytest.approx(-lam_h * vals, abs=1e-9)

    def test_neumann_constant_in_kernel(self):
        g = Grid1D(2.0, 31, "neumann")
        vals = np.full((1, 31), 1.7)
        assert np.max(np.abs(apply_laplacian(vals, g))) == 0.0


class TestStepAndSimulate:
    def test_zero_fixed_point_exact(self):
        g = Grid1D(1.0, 64)
        kin = KineticsSpec(n_components=1, linear=np.array([[2.0]]),
                           nonlinearity="saturated_power", c0=TimeProfile.constant(1.0))
        sys = SystemSpec(grid=g, kinetics=kin, diffusion=(CONST_D,),
                         initial=zero_field(g, 1))
        traj = simulate(sys, 0.1, dt=1e-3)
        assert float(np.max(traj.sup)) == 0.0

    def test_pure_diffusion_eigenmode_rate(self):
        sys = diffusion_system(n=256, d=1.0)
        traj = simulate(sys, 1.0, dt=1e-3)
        rate = -math.log(traj.g[-1] / traj.g[0]) / traj.times[-1]
        assert rate == pytest.approx(math.pi ** 2, rel=0.01)

    def test_neumann_constant_steady(self):
        g = Grid1D(1.0, 51, "neumann")
        sys = SystemSpec(grid=g, kinetics=KineticsSpec(n_components=1),
                         diffusion=(CONST_D,), initial=constant_field(g, 1.0))
        traj = simulate(sys, 0.5, dt=1e-3)
        assert traj.sup[-1] == pytest.approx(1.0, abs=1e-13)
        assert traj.g[-1] == pytest.approx(1.0, abs=1e-13)

    def test_step_imex_is_pure(self):
        sys = diffusion_system(n=32)
        before = sys.initial.values.copy()
        out1 = step_imex(sys.initial, 0.0, 1e-3, sys)
        out2 = step_imex(sys.initial, 0.0, 1e-3, sys)
        assert np.array_equal(sys.initial.values, before)
        assert np.array_equal(out1.values, out2.values)

    def test_determinism_with_seeded_noise(self):
        g = Grid1D(1.0, 64)
        kin = KineticsSpec(n_components=1, linear=np.array([[0.5]]))
        def run(seed):
            sys = SystemSpec(grid=g, kinetics=kin, diffusion=(CONST_D,),
                             initial=noise_field(g, 1, 0.01, seed=seed))
            return simulate(sys, 0.2, dt=1e-3, seed=seed)
        a, b, c = run(1), run(1), run(2)
        assert np.array_equal(a.g, b.g)
        assert np.array_equal(a.snapshots[-1].values, b.snapshots[-1].values)
        assert not np.array_equal(a.g, c.g)

    def test_blow_up_reports_time(self):
        g = Grid1D(1.0, 32)
        kin = KineticsSpec(n_components=1, linear=np.array([[2000.0]]))
        sys = SystemSpec(grid=g, kinetics=kin, diffusion=(CONST_D,),
                         initial=mode_field(g, 1, 1.0))
        with pytest.raises(BlowUpError) as exc:
            simulate(sys, 2.0, dt=1e-3)
        assert 0.0 < exc.value.time < 2.0
        # the first failure is a finite state whose squared norms overflow, and
        # the first non-finite state comes later; the earlier one is reported
        ref = stepwise_run(sys, 2.0, 1e-3)
        assert isinstance(ref, BlowUpError) and ref.time == exc.value.time
        with pytest.raises(BlowUpError) as later:
            state = sys.initial
            for i in range(2000):
                state = step_imex(state, 1e-3 * i, 1e-3, sys)
        assert later.value.time > exc.value.time

    def test_series_and_snapshot_bookkeeping(self):
        sys = diffusion_system(n=32)
        traj = simulate(sys, 0.1, dt=1e-3, record_every=20)
        assert len(traj.times) == 101
        assert np.all(np.diff(traj.times) > 0)
        assert traj.snapshot_times[0] == 0.0
        assert traj.snapshot_times[-1] == pytest.approx(0.1)
        assert len(traj.snapshots) == len(traj.snapshot_times)
        assert traj.metadata["dt"] == 1e-3
        assert np.all(np.isfinite(traj.g))

    def test_argument_validation(self):
        sys = diffusion_system(n=32)
        with pytest.raises(ValueError):
            simulate(sys, 0.0)
        with pytest.raises(ValueError):
            simulate(sys, 0.1, dt=0.2)
        with pytest.raises(ValueError):
            step_imex(sys.initial, 0.0, -1e-3, sys)
        for bad in (0, -2):
            with pytest.raises(ValueError, match="record_every"):
                simulate(sys, 0.1, dt=1e-3, record_every=bad)

    def test_two_stage_more_accurate_than_one_stage(self):
        # forced linear problem where the reaction carries the time dependence
        g = Grid1D(1.0, 401)
        kin = KineticsSpec(n_components=1, linear=np.array([[1.0]]))
        sys = SystemSpec(grid=g, kinetics=kin, diffusion=(CONST_D,),
                         initial=mode_field(g, 1, 1.0))
        ref = simulate(sys, 0.5, dt=1e-4).g[-1]
        coarse_two = simulate(sys, 0.5, dt=2e-2, scheme="two_stage").g[-1]
        coarse_one = simulate(sys, 0.5, dt=2e-2, scheme="one_stage").g[-1]
        assert abs(coarse_two - ref) < abs(coarse_one - ref)

    @pytest.mark.parametrize("scheme", ["one_stage", "two_stage"])
    @pytest.mark.parametrize("bc,m,zero_linear", [("dirichlet", 1, False),
                                                  ("neumann", 1, False),
                                                  ("dirichlet", 2, False),
                                                  ("neumann", 2, False),
                                                  ("dirichlet", 2, True)])
    def test_simulate_matches_step_imex(self, bc, m, zero_linear, scheme):
        # 150 steps span several norm blocks of the run
        g = Grid1D(1.0, 64, bc)
        matrix = np.array([[0.6]]) if m == 1 else np.array([[0.3, 1.1], [-0.9, 0.2]])
        linear = None if zero_linear else matrix
        kin = KineticsSpec(n_components=m, linear=linear, nonlinearity="saturated_power",
                           c0=TimeProfile.power_decay(0.8, 0.5), p=2.5,
                           modulation=TimeProfile.power_decay(1.0, 1.5, offset=0.3))
        diffusion = tuple(TimeProfile.power_decay(0.5 + 0.4 * i, 1.0, positive=True)
                          for i in range(m))
        sys = SystemSpec(grid=g, kinetics=kin, diffusion=diffusion,
                         initial=noise_field(g, m, 0.8, seed=5))
        traj = simulate(sys, 0.3, dt=0.002, scheme=scheme)
        series, final = stepwise_run(sys, 0.3, 0.002, scheme)
        got = np.array([traj.l2, traj.sup, traj.h1_semi, traj.h2, traj.lp1])
        np.testing.assert_allclose(got, series, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(traj.snapshots[-1].values, final, rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("scheme", ["one_stage", "two_stage"])
    @pytest.mark.parametrize("case", ["diffusion_not_positive", "diffusion_declared_positive",
                                      "diffusion_table_ends", "c0_negative",
                                      "modulation_table_ends", "blow_up_first"])
    def test_failure_matches_stepwise_run(self, case, scheme):
        g = Grid1D(1.0, 32)
        table = TimeProfile.tabulated([0.0, 0.5], [1.0, 1.0], positive=True)
        falling = dict(v0=1.0, exponent=1.0, offset=-0.5)  # <= 0 from t = 1 on
        diffusion, c0, linear = CONST_D, TimeProfile.constant(0.5), None
        modulation = TimeProfile.constant(1.0)
        if case == "diffusion_not_positive":
            diffusion = TimeProfile.power_decay(**falling)
        elif case == "diffusion_declared_positive":
            diffusion = TimeProfile.power_decay(**falling, positive=True)
        elif case == "diffusion_table_ends":
            diffusion = table
        elif case == "c0_negative":
            c0 = TimeProfile.power_decay(**falling)
        elif case == "modulation_table_ends":
            modulation = table
        elif case == "blow_up_first":
            # |u|**3 overflows before t = 0.8 with either scheme
            diffusion = TimeProfile.tabulated([0.0, 1.2], [1.0, 1.0], positive=True)
            linear = np.array([[2000.0]])
        kin = KineticsSpec(n_components=1, linear=linear, nonlinearity="saturated_power",
                           c0=c0, modulation=modulation)

        def run(runner):
            stages = StageTimes()
            sys = SystemSpec(grid=g, kinetics=kin, diffusion=(diffusion,),
                             initial=mode_field(g, 1, 1.0), forcing=stages)
            try:
                return runner(sys), stages.times
            except (BlowUpError, ValueError) as exc:
                return exc, stages.times

        got, got_stages = run(lambda sys: simulate(sys, 1.5, dt=0.01, scheme=scheme))
        ref, ref_stages = run(lambda sys: stepwise_run(sys, 1.5, 0.01, scheme))
        expected = BlowUpError if case == "blow_up_first" else ValueError
        assert type(ref) is expected and type(got) is expected
        assert str(got) == str(ref)
        if expected is ValueError:
            assert got_stages == ref_stages  # raised at the same stage
        else:
            # norms lag the steps by up to a block, so simulate may step past
            # the overflowing state before it reports it
            assert got_stages[:len(ref_stages)] == ref_stages


def crank_nicolson_reference(sys, T, dt, scheme):
    """Every state of a run of the IMEX step in its textbook form: the explicit
    half (I + delta L) u + dt f with the Laplacian applied, then one banded
    solve of (I - delta L) per component, delta = (dt/2) D(t + dt/2)."""
    g = sys.grid
    h2 = g.h * g.h

    def reaction(u, t):
        out = eval_reaction(sys.kinetics, u, g.x, t)
        if sys.forcing is not None:
            out = out + sys.forcing(g.x, t)
        return out

    def solve(rhs, delta):
        out = np.empty_like(rhs)
        for i, d in enumerate(delta):
            bands = np.empty((3, g.n))
            bands[0], bands[1], bands[2] = -d / h2, 1.0 + 2.0 * d / h2, -d / h2
            if g.bc == "neumann":
                bands[0, 1] = bands[2, -2] = -2.0 * d / h2
            out[i] = solve_banded((1, 1), bands, rhs[i])
        return out

    states = [sys.initial.values]
    for k in range(int(round(T / dt))):
        u, t = states[-1], k * dt
        delta = np.array([0.5 * dt * eval_profile(p, t + 0.5 * dt) for p in sys.diffusion])
        base = u + delta[:, None] * apply_laplacian(u, g)
        f0 = reaction(u, t)
        nxt = solve(base + dt * f0, delta)
        if scheme == "two_stage":
            nxt = solve(base + 0.5 * dt * (f0 + reaction(nxt, t + dt)), delta)
        states.append(nxt)
    return states


def pinned_system(bc, m, diffusion, n=48):
    g = Grid1D(2.0, n, bc)
    matrix = np.array([[0.6]]) if m == 1 else np.array([[0.3, 1.1], [-0.9, 0.2]])
    kin = KineticsSpec(n_components=m, linear=matrix, nonlinearity="saturated_power",
                       c0=TimeProfile.power_decay(0.8, 0.5), p=2.5,
                       modulation=TimeProfile.power_decay(1.0, 1.5, offset=0.3))
    if diffusion == "constant":
        profiles = tuple(TimeProfile.constant(0.4 + 0.3 * i, positive=True) for i in range(m))
    else:
        profiles = tuple(TimeProfile.power_decay(0.4 + 0.3 * i, 1.0, positive=True)
                         for i in range(m))
    return SystemSpec(grid=g, kinetics=kin, diffusion=profiles,
                      initial=noise_field(g, m, 0.8, seed=9))


class TestStepFormula:
    """simulate's stage M^-1 (2 v + dt f) - v, solved as the row-scaled
    symmetric block-diagonal system W M x = W (2 v + dt f), against the
    textbook Crank-Nicolson step."""

    @staticmethod
    def assert_pinned(sys, T, dt, scheme, offset_rtol=None):
        """Every state within 1e-12 of the reference relative to its size.
        With ``offset_rtol``, a constant offset per component is held to that
        bound instead and only the rest of the deviation to 1e-12."""
        traj = simulate(sys, T, dt=dt, record_every=1, scheme=scheme)
        states = crank_nicolson_reference(sys, T, dt, scheme)
        assert len(traj.snapshots) == len(states)
        for snap, ref in zip(traj.snapshots, states):
            dev = snap.values - ref
            size = np.max(np.abs(ref))
            if offset_rtol is not None:
                offset = dev.mean(axis=1, keepdims=True)
                assert np.max(np.abs(offset)) <= offset_rtol * size
                dev = dev - offset
            # the largest deviation relative to the state's size
            assert np.max(np.abs(dev)) <= 1e-12 * size

    @pytest.mark.parametrize("scheme", ["one_stage", "two_stage"])
    @pytest.mark.parametrize("diffusion", ["constant", "power_decay"])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_matches_textbook_step(self, bc, m, diffusion, scheme):
        self.assert_pinned(pinned_system(bc, m, diffusion), 0.2, 0.004, scheme)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_smallest_grids(self, n, bc, m):
        # Grid1D takes at least 3 nodes; at n = 3 a Neumann block is two
        # half-weighted end rows around one interior row
        self.assert_pinned(pinned_system(bc, m, "power_decay", n=n), 0.2, 0.004, "two_stage")

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_stiff_ratio(self, bc, m):
        ratio, dt = 1e6, 0.004
        sys = pinned_system(bc, m, "constant")
        d = ratio * sys.grid.h ** 2 / dt  # dt D / h^2 = ratio
        stiff = tuple(TimeProfile.constant(d * (1.0 + i), positive=True) for i in range(m))
        # Under Neumann ends the constants are an eigenvector of M with
        # eigenvalue 1 while ||M|| is about 2 ratio, so M's condition number
        # is about 2 ratio: any double-precision solve, the textbook one
        # included, leaves a constant offset of a few ratio eps (about 1e-10
        # here).  The rest of the deviation still holds to 1e-12.
        offset = 8.0 * ratio * np.finfo(float).eps if bc == "neumann" else None
        self.assert_pinned(dataclasses.replace(sys, diffusion=stiff), 0.2, dt, "two_stage",
                           offset_rtol=offset)

    @pytest.mark.parametrize("n", [3, 48])
    def test_neumann_components_with_different_diffusions(self, n):
        # the blocks meet at a zero off-diagonal entry between the
        # half-weighted last row of one component and first row of the next
        sys = pinned_system("neumann", 2, "constant", n=n)
        diffusion = (TimeProfile.power_decay(0.02, 1.0, positive=True),
                     TimeProfile.constant(30.0, positive=True))
        self.assert_pinned(dataclasses.replace(sys, diffusion=diffusion), 0.2, 0.004,
                           "two_stage")

    def test_manufactured_forcing(self):
        g = Grid1D(1.0, 40)
        kin = KineticsSpec(n_components=1, linear=np.array([[0.5]]),
                           nonlinearity="saturated_power", c0=TimeProfile.constant(0.7))
        sys = manufactured_system(g, kin, (TimeProfile.power_decay(0.6, 1.0, positive=True),),
                                  decaying_sine_case())
        self.assert_pinned(sys, 0.2, 0.004, "two_stage")


class TestStepCounters:
    """Trajectory.metadata counts the steps, the factorizations of the
    implicit matrix and the reaction evaluations of a run."""

    def run(self, diffusion, scheme, n_steps=40, m=2):
        sys = pinned_system("dirichlet", m, diffusion)
        return simulate(sys, n_steps * 0.005, dt=0.005, scheme=scheme).metadata

    def test_constant_diffusion_factors_once(self):
        meta = self.run("constant", "two_stage")
        assert (meta["steps"], meta["factorizations"], meta["reaction_evals"]) == (40, 1, 80)

    def test_decaying_diffusion_factors_every_step(self):
        meta = self.run("power_decay", "two_stage")
        assert (meta["steps"], meta["factorizations"], meta["reaction_evals"]) == (40, 40, 80)

    def test_one_stage_evaluates_once_per_step(self):
        meta = self.run("power_decay", "one_stage", m=1)
        assert (meta["steps"], meta["factorizations"], meta["reaction_evals"]) == (40, 40, 40)

    def test_one_changing_component_refactors(self):
        g = Grid1D(1.0, 16)
        sys = SystemSpec(grid=g, kinetics=KineticsSpec(n_components=2),
                         diffusion=(CONST_D, TimeProfile.tabulated([0.0, 0.1, 0.3],
                                                                   [1.0, 1.0, 2.0])),
                         initial=noise_field(g, 2, 1.0, seed=1))
        # midpoints 0.01, 0.03, ..., 0.19: the table is flat before t = 0.1
        meta = simulate(sys, 0.2, dt=0.02, scheme="one_stage").metadata
        assert (meta["steps"], meta["factorizations"], meta["reaction_evals"]) == (10, 6, 10)


class TestEnergyInequality:
    def test_residuals_small_on_nonlinear_run(self):
        g = Grid1D(math.pi, 128)
        kin = KineticsSpec(n_components=1, linear=np.array([[1.0]]),
                           nonlinearity="saturated_power",
                           c0=TimeProfile.constant(0.3), p=2.0)
        sys = SystemSpec(grid=g, kinetics=kin,
                         diffusion=(TimeProfile.constant(2.0, positive=True),),
                         initial=mode_field(g, 1, 0.5))
        dt = 1e-3
        traj = simulate(sys, 2.0, dt=dt)
        res = energy_inequality_residuals(traj, sys)
        scale = max(1.0, float(np.max(traj.g)) ** 2)
        assert float(np.max(res)) <= 20.0 * (dt + g.h ** 2) * scale

    def test_residuals_small_with_time_dependent_coefficients(self):
        g = Grid1D(1.0, 128)
        kin = KineticsSpec(n_components=1, linear=np.array([[0.4]]),
                           nonlinearity="saturated_power",
                           c0=TimeProfile.constant(0.5), p=2.0,
                           modulation=TimeProfile.power_decay(1.0, 1.0))
        sys = SystemSpec(grid=g, kinetics=kin,
                         diffusion=(TimeProfile.power_decay(1.0, 1.0, positive=True),),
                         initial=mode_field(g, 1, 0.4))
        dt = 1e-3
        traj = simulate(sys, 3.0, dt=dt)
        res = energy_inequality_residuals(traj, sys)
        assert float(np.max(res)) <= 20.0 * (dt + g.h ** 2)


def decaying_sine_case(L=1.0):
    k = math.pi / L
    return ManufacturedCase(
        solution=lambda x, t: math.exp(-t) * np.sin(k * x)[None, :],
        time_derivative=lambda x, t: -math.exp(-t) * np.sin(k * x)[None, :],
        laplacian=lambda x, t: -k * k * math.exp(-t) * np.sin(k * x)[None, :],
    )


def steady_parabola_case(L=1.0):
    return ManufacturedCase(
        solution=lambda x, t: (x * (L - x))[None, :],
        time_derivative=lambda x, t: np.zeros((1, len(x))),
        laplacian=lambda x, t: np.full((1, len(x)), -2.0),
    )


class TestManufactured:
    def test_forcing_keeps_exact_steady_state(self):
        # centered differences are exact on quadratics, so the errors sit at round-off
        case = steady_parabola_case()
        kin = KineticsSpec(n_components=1, linear=np.array([[1.0]]))
        report = convergence_orders(case, kin, (CONST_D,), T=0.5,
                                    space_ns=(16, 32), space_dt=1e-2,
                                    time_n=41, time_dts=(0.1, 0.05))
        assert report.space_label == "exact"
        assert report.time_label == "exact"
        assert math.isinf(report.p_space)

    def test_spatial_second_order(self):
        case = decaying_sine_case()
        kin = KineticsSpec(n_components=1)
        report = convergence_orders(case, kin, (CONST_D,), T=0.5,
                                    space_ns=(32, 64, 128), space_dt=5e-4,
                                    time_n=801, time_dts=(0.1, 0.05))
        assert report.p_space == pytest.approx(2.0, abs=0.15)

    def test_non_monotone_errors_raise(self):
        with pytest.raises(InconclusiveOrderError):
            from rdcert.solver import _fit_order
            _fit_order([0.1, 0.05, 0.025], [1.0, 2.0, 0.5], "test")

    def test_manufactured_initial_matches_solution(self):
        g = Grid1D(1.0, 33)
        case = decaying_sine_case()
        sys = manufactured_system(g, KineticsSpec(n_components=1), (CONST_D,), case)
        assert sys.initial.values == pytest.approx(case.solution(g.x, 0.0))
