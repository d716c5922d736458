import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import get_lapack_funcs, solve_banded

from rdcert.grid import (Field, Grid1D, constant_field, discrete_norms, lp_integrals, mode_field,
                         noise_field, norms_batch, quadrature_weights, zero_field)
import rdcert.solver
from rdcert.profiles import KineticsSpec, TimeProfile, eval_profile, eval_reaction, reaction_kernel
from rdcert.solver import (_NORM_BLOCK_BYTES, BlowUpError, InconclusiveOrderError,
                           ManufacturedCase, SystemSpec, convergence_orders,
                           energy_inequality_residuals, manufactured_system, simulate)

from oracles import apply_laplacian, step_imex

CONST_D = TimeProfile.constant(1.0, positive=True)


def stepwise_run(sys, T, dt, scheme="two_stage"):
    """simulate's norm series and final state rebuilt one step at a time from
    step_imex, discrete_norms and lp_integrals.  A failure is returned, not
    raised: the first error of a step, or BlowUpError at t_i when the norms
    of the finite state at step i overflow.  Each step runs between two
    times of the run's grid t_i = dt i, and calls the forcing at both of
    them (see one_call_per_time)."""
    n_steps = int(round(T / dt))
    times = dt * np.arange(n_steps + 1)
    state, rows = sys.initial, []
    for i in range(n_steps + 1):
        try:
            if i:
                state = step_imex(state, times[i - 1], dt, sys, scheme, end=times[i])
        except (BlowUpError, ValueError) as exc:
            return exc
        with np.errstate(over="ignore", invalid="ignore"):
            ns = discrete_norms(state)
            lp = lp_integrals(state.values[None], state.grid, sys.kinetics.p + 1.0)[0]
            row = (ns.l2, ns.sup, ns.h1_semi, ns.h2, lp)
        if not np.all(np.isfinite(row)):
            return BlowUpError(times[i])
        rows.append(row)
    return np.array(rows).T, state.values


def one_call_per_time(stages):
    """The stage times of stepwise_run, each step alone, as a run that calls
    the forcing once per time sees them: without the repeat of a step's end
    as the next step's start."""
    return [t for i, t in enumerate(stages) if i == 0 or t != stages[i - 1]]


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
        assert np.array_equal(a.states, b.states)
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

    @pytest.mark.parametrize("record_every", [1, 3, 7, 20, 100, 10 ** 9])
    def test_series_and_snapshot_bookkeeping(self, record_every):
        sys = diffusion_system(n=32)
        n = 100
        traj = simulate(sys, 0.1, dt=1e-3, record_every=record_every)
        assert len(traj.times) == n + 1
        assert np.all(np.diff(traj.times) > 0)
        # step 0, every record_every-th step and the last step, as listed
        # one kept state at a time
        expected = [0.0] + [float(traj.times[s]) for s in range(1, n + 1)
                            if s % record_every == 0 or s == n]
        assert traj.snapshot_times.tolist() == expected
        assert traj.snapshot_times[-1] == pytest.approx(0.1)
        assert traj.states.shape == (len(expected), 1, 32)
        assert traj.grid == sys.grid
        assert np.array_equal(traj.states[0], sys.initial.values)
        snaps = traj.snapshots
        assert len(snaps) == len(expected)
        for i, snap in enumerate(snaps):
            assert snap.grid == sys.grid
            assert np.shares_memory(snap.values, traj.states[i])
            assert snap.values.shape == (1, 32)
        assert traj.metadata["dt"] == 1e-3
        assert traj.metadata["record_every"] == record_every
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
        ref_stages = one_call_per_time(ref_stages)
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
        out = eval_reaction(sys.kinetics, u, t)
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
        assert len(traj.states) == len(states)
        for got, ref in zip(traj.states, states):
            dev = got - ref
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

    @pytest.mark.parametrize("scheme", ["one_stage", "two_stage"])
    def test_manufactured_forcing_without_reaction(self, scheme):
        # zero kinetics: the forcing leaves F(u*) out and the second stage
        # calls no reaction kernel
        sys = manufactured_system(Grid1D(1.0, 40), KineticsSpec(n_components=1),
                                  (TimeProfile.power_decay(0.6, 1.0, positive=True),),
                                  decaying_sine_case())
        self.assert_pinned(sys, 0.2, 0.004, scheme)


def block_len(sys):
    """States per norm block of a run of sys, as simulate sizes its blocks."""
    return max(1, _NORM_BLOCK_BYTES // sys.initial.values.nbytes)


def workspace_system(bc, m, n, forcing=None, diffusion=None):
    g = Grid1D(1.0, n, bc)
    matrix = np.array([[0.6]]) if m == 1 else np.array([[0.3, 1.1], [-0.9, 0.2]])
    kin = KineticsSpec(n_components=m, linear=matrix, nonlinearity="saturated_power",
                       c0=TimeProfile.power_decay(0.8, 0.5), p=2.5,
                       modulation=TimeProfile.power_decay(1.0, 1.5, offset=0.3))
    if diffusion is None:
        diffusion = tuple(TimeProfile.power_decay(0.5 + 0.4 * i, 1.0, positive=True)
                          for i in range(m))
    return SystemSpec(grid=g, kinetics=kin, diffusion=diffusion,
                      initial=noise_field(g, m, 0.8, seed=n + m), forcing=forcing)


class TestWorkspace:
    """simulate writes its states into two alternating blocks and works in
    one per-run workspace; every number it records equals, bit for bit, the
    same step taken alone by step_imex and the norms of that state alone."""

    DT = 1e-3

    @pytest.mark.parametrize("scheme", ["one_stage", "two_stage"])
    @pytest.mark.parametrize("bc,m", [("dirichlet", 1), ("neumann", 1), ("dirichlet", 2),
                                      ("neumann", 2)])
    @pytest.mark.parametrize("n", [128, 20_001])
    @pytest.mark.parametrize("steps", ["B-1", "B", "B+1", "2B+1"])
    def test_matches_chained_steps_bit_for_bit(self, n, bc, m, scheme, steps):
        sys = workspace_system(bc, m, n)
        B = block_len(sys)
        assert (B > 1) == (n == 128)
        n_steps = max(1, {"B-1": B - 1, "B": B, "B+1": B + 1, "2B+1": 2 * B + 1}[steps])
        traj = simulate(sys, n_steps * self.DT, dt=self.DT, record_every=1, scheme=scheme)
        assert len(traj.states) == n_steps + 1
        got = np.array([traj.l2, traj.sup, traj.h1_semi, traj.h2, traj.lp1]).T
        state = sys.initial
        for i in range(n_steps + 1):
            if i:
                state = step_imex(state, traj.times[i - 1], self.DT, sys, scheme,
                                  end=traj.times[i])
            states = state.values[None]
            row = np.append(norms_batch(states, sys.grid)[0],
                            lp_integrals(states, sys.grid, sys.kinetics.p + 1.0))
            assert traj.snapshot_times[i] == traj.times[i]
            assert traj.states[i].tobytes() == state.values.tobytes(), i
            assert got[i].tobytes() == row.tobytes(), i

    @pytest.mark.parametrize("scheme", ["one_stage", "two_stage"])
    @pytest.mark.parametrize("n", [128, 20_001])
    @pytest.mark.parametrize("failure", ["blow_up", "table_ends"])
    def test_failure_after_a_block_swap_keeps_step_order(self, n, scheme, failure):
        # the blocks swap before steps B and 2B; step 2B writes into the
        # block that held the initial state
        B = block_len(workspace_system("dirichlet", 1, n))
        fail_step = 2 * B
        stages = StageTimes()
        diffusion = None
        if failure == "blow_up":
            # infinite from the last stage time of step 2B on
            last = (fail_step - 1 if scheme == "one_stage" else fail_step) * self.DT

            def forcing(xs, t):
                stages(xs, t)
                return np.full(len(xs), np.inf if t > last - 0.5 * self.DT else 0.0)
        else:
            forcing = stages
            # step 2B is the first whose midpoint, (2B - 0.5) dt, is past the table
            diffusion = (TimeProfile.tabulated([0.0, (fail_step - 1) * self.DT], [1.0, 1.0],
                                               positive=True),)
        sys = workspace_system("dirichlet", 1, n, forcing=forcing, diffusion=diffusion)
        T = (fail_step + 3) * self.DT
        with pytest.raises((BlowUpError, ValueError)) as got:
            simulate(sys, T, dt=self.DT, scheme=scheme)
        got_stages, stages.times = stages.times, []
        ref = stepwise_run(sys, T, self.DT, scheme)
        assert type(got.value) is type(ref)
        assert str(got.value) == str(ref)
        assert got_stages == one_call_per_time(stages.times)
        if failure == "blow_up":
            assert got.value.time == ref.time == fail_step * self.DT
        else:
            assert "queried outside" in str(ref)


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

    @pytest.mark.parametrize("scheme", ["one_stage", "two_stage"])
    def test_zero_reaction_skips_the_second_kernel(self, monkeypatch, scheme):
        # a one-stage step's kernel gives 2 v; a two-stage step forms
        # rhs1 / 2 = v without it, and the second stage's would give 0: no
        # call, against one per stage with a reaction.  The counter still
        # counts a reaction evaluation per stage
        kernel_calls = []

        def counting(*args):
            kernel_calls.append(1)
            return reaction_kernel(*args)
        monkeypatch.setattr(rdcert.solver, "reaction_kernel", counting)
        sys = dataclasses.replace(pinned_system("dirichlet", 2, "constant"),
                                  kinetics=KineticsSpec(n_components=2))
        meta = simulate(sys, 40 * 0.005, dt=0.005, scheme=scheme).metadata
        assert len(kernel_calls) == (0 if scheme == "two_stage" else 40)
        assert meta["reaction_evals"] == (80 if scheme == "two_stage" else 40)
        kernel_calls.clear()
        self.run("constant", scheme)
        assert len(kernel_calls) == (80 if scheme == "two_stage" else 40)

    @pytest.mark.parametrize("scheme,reaction,per_step", [
        ("two_stage", True, 2), ("two_stage", False, 1), ("one_stage", True, 1),
        ("one_stage", False, 1)])
    def test_solves_per_step(self, scheme, reaction, per_step):
        # a reaction-free two-stage step skips the first solve, which only
        # the stage-2 kernel would read
        sys = pinned_system("neumann", 2, "power_decay")
        if not reaction:
            sys = dataclasses.replace(sys, kinetics=KineticsSpec(n_components=2))
        meta = simulate(sys, 40 * 0.005, dt=0.005, scheme=scheme).metadata
        assert (meta["steps"], meta["solves"]) == (40, 40 * per_step)

    def test_one_changing_component_refactors(self):
        g = Grid1D(1.0, 16)
        sys = SystemSpec(grid=g, kinetics=KineticsSpec(n_components=2),
                         diffusion=(CONST_D, TimeProfile.tabulated([0.0, 0.1, 0.3],
                                                                   [1.0, 1.0, 2.0])),
                         initial=noise_field(g, 2, 1.0, seed=1))
        # midpoints 0.01, 0.03, ..., 0.19: the table is flat before t = 0.1
        meta = simulate(sys, 0.2, dt=0.02, scheme="one_stage").metadata
        assert (meta["steps"], meta["factorizations"], meta["reaction_evals"]) == (10, 6, 10)


_pttrf, _pttrs = get_lapack_funcs(("pttrf", "pttrs"), (np.empty(0),))


def two_solve_states(sys, n_steps, dt, linear=None):
    """Every state of a reaction-free two-stage run taken the long way, with
    both solves: stage 1 solves for x1 and checks it, and stage 2 solves
    for rhs1 / 2 + v + (dt/2) f(t'), with t and t' = t_{k+1} the step's
    times on the run's grid.  Stage 1's linear part is the matrix 2I, or
    ``linear[k]`` at step k when given; the tables and the factor are formed
    as the plan forms them."""
    g = sys.grid
    h2 = g.h * g.h
    times = dt * np.arange(n_steps + 1)
    starts, ends = times[:-1].tolist(), times[1:].tolist()
    delta = (0.5 * dt) * np.array([eval_profile(p, times[:-1] + 0.5 * dt)
                                   for p in sys.diffusion]).T
    centre = 2.0 / h2 * delta + 1.0
    row_weights = quadrature_weights(g) / g.h
    unit_off = np.full(g.n, -1.0 / h2)
    unit_off[-1] = 0.0
    two = 2.0 * np.eye(sys.kinetics.n_components)
    states = [sys.initial.values]
    for k in range(n_steps):
        v = states[-1]
        diag = centre[k][:, None] * row_weights
        off = unit_off * delta[k][:, None]
        d, e, info = _pttrf(diag.reshape(-1), off.reshape(-1)[:-1])
        assert info == 0

        def solve(rhs):
            if g.bc == "neumann":
                rhs[:, ::g.n - 1] *= 0.5
            x, info = _pttrs(d, e, rhs.reshape(-1))
            assert info == 0
            return x.reshape(v.shape) - v
        rhs = np.dot(two if linear is None else linear[k], v)
        if sys.forcing is not None:
            rhs += dt * sys.forcing(g.x, starts[k])
        half = rhs * 0.5
        assert np.isfinite(solve(rhs)).all()
        rhs2 = half + v
        if sys.forcing is not None:
            rhs2 += 0.5 * dt * sys.forcing(g.x, ends[k])
        states.append(solve(rhs2))
    return np.array(states)


def sine_case(m):
    """u* = (1 + t) sin(3 x + i) for component i: a manufactured solution."""
    def solution(x, t):
        return (1.0 + t) * np.array([np.sin(3.0 * x + i) for i in range(m)])

    def time_derivative(x, t):
        return np.array([np.sin(3.0 * x + i) for i in range(m)])

    def laplacian(x, t):
        return -9.0 * solution(x, t)
    return ManufacturedCase(solution, time_derivative, laplacian)


class TestReactionFreeStep:
    """A two-stage step without a reaction calls no kernel and skips its
    first solve: only rhs1 / 2 = v + (dt/2) f reaches the second stage.
    Its states equal, bit for bit, the step that solves twice (up to the
    sign of exact zeros with two components, where 2I v was a matrix
    product), and its failures keep their time and stage order."""

    @staticmethod
    def system(bc, m, n, decay, forcing):
        g = Grid1D(1.0, n, bc)
        kin = KineticsSpec(n_components=m)
        diffusion = tuple(TimeProfile.power_decay(0.4 + 0.3 * i, 1.0, positive=True) if decay
                          else TimeProfile.constant(0.4 + 0.3 * i, positive=True)
                          for i in range(m))
        if forcing == "manufactured":
            return manufactured_system(g, kin, diffusion, sine_case(m))
        plain = (lambda xs, t: (1.0 + t) * np.cos(2.0 * xs)) if forcing == "plain" else None
        return SystemSpec(grid=g, kinetics=kin, diffusion=diffusion,
                          initial=noise_field(g, m, 0.8, seed=n + m), forcing=plain)

    @staticmethod
    def assert_matches_two_solves(sys, n_steps, dt):
        traj = simulate(sys, n_steps * dt, dt=dt, record_every=1)
        assert traj.metadata["solves"] == n_steps
        got, ref = traj.states, two_solve_states(sys, n_steps, dt)
        if sys.kinetics.n_components == 2:
            # 0 v_j in 2I v carries the sign of v_j into an exact zero
            got, ref = got + 0.0, ref + 0.0
        assert got.tobytes() == ref.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(3, 64), bc=st.sampled_from(["dirichlet", "neumann"]),
           m=st.sampled_from([1, 2]), decay=st.booleans(),
           forcing=st.sampled_from([None, "plain", "manufactured"]),
           dt=st.floats(1e-3, 0.1), steps=st.integers(1, 12))
    def test_matches_the_two_solve_step(self, n, bc, m, decay, forcing, dt, steps):
        self.assert_matches_two_solves(self.system(bc, m, n, decay, forcing), steps, dt)

    def test_matches_the_two_solve_step_on_a_fine_grid(self):
        self.assert_matches_two_solves(self.system("neumann", 2, 20_001, True, "manufactured"),
                                       3, 1e-3)

    @pytest.mark.parametrize("stage", [1, 2])
    def test_infinite_forcing_keeps_time_and_stage_order(self, stage):
        # the forcing is infinite at one time of the run: t_0, which stage 1
        # of the first step reads, or t_2B, which stage 2 of step 2B reads
        # first, after a block swap.  A non-finite rhs1 fails the step before
        # the forcing is called at its end, as a non-finite x1 did
        dt = TestWorkspace.DT
        sys = self.system("dirichlet", 1, 128, True, None)
        B = block_len(sys)
        bad = 0 if stage == 1 else 2 * B
        stages = StageTimes()

        def forcing(xs, t):
            stages(xs, t)
            return np.full(len(xs), np.inf if t == bad * dt else 0.0)
        sys = dataclasses.replace(sys, forcing=forcing)
        T = (2 * B + 3) * dt
        with pytest.raises(BlowUpError) as got:
            simulate(sys, T, dt=dt)
        got_stages, stages.times = stages.times, []
        ref = stepwise_run(sys, T, dt)
        assert isinstance(ref, BlowUpError)
        assert got.value.time == ref.time == max(bad, 1) * dt
        assert got_stages == one_call_per_time(stages.times)
        # one call per time, up to the infinite one
        assert got_stages == [i * dt for i in range(bad + 1)]

    @pytest.mark.parametrize("modulation", [
        TimeProfile.tabulated([0.0, 1e-3, 1.0], [0.75, 0.0, 0.0]),
        TimeProfile.exponential(0.75, -1e6)])
    def test_a_linear_part_read_only_at_the_start_is_kept(self, modulation):
        # A != 0 with phi(0) = 0.75 and phi = 0 at every later time (a
        # table that switches off, or exp(-r t) underflowing at r dt = 1000):
        # the stage-2 coefficients vanish at every step, yet step 0's first
        # stage reads (2I + dt phi(0) A) v, and so the run solves twice a step
        dt, n_steps = 1e-3, 4
        linear = np.array([[-1.5, 0.5], [0.25, -2.0]])
        sys = self.system("neumann", 2, 32, False, None)
        sys = dataclasses.replace(sys, kinetics=KineticsSpec(n_components=2, linear=linear,
                                                             modulation=modulation))
        traj = simulate(sys, n_steps * dt, dt=dt, record_every=1)
        assert traj.metadata["solves"] == 2 * n_steps
        two = 2.0 * np.eye(2)
        ref = two_solve_states(sys, n_steps, dt, [two + dt * 0.75 * linear] + [two] * 3)
        assert (traj.states + 0.0).tobytes() == (ref + 0.0).tobytes()
        # the step without that term lands elsewhere
        assert not np.allclose(traj.states[1], two_solve_states(sys, 1, dt)[1], rtol=1e-6)

    @pytest.mark.parametrize("reaction", [False, True])
    def test_forcing_is_called_once_per_time_and_only_read(self, reaction):
        # the end of one step is the start of the next: a two-stage run of
        # n steps calls the forcing at its n + 1 times, in order, and leaves
        # every array the forcing returned as it was
        sys = self.system("neumann", 2, 64, True, None)
        if reaction:
            sys = dataclasses.replace(sys, kinetics=pinned_system("neumann", 2, "constant",
                                                                  n=64).kinetics)
        times, returned, kept = [], [], []

        def forcing(xs, t):
            f = np.cos(2.0 * xs + t) * np.array([[1.0], [0.5]])
            times.append(t)
            returned.append(f)
            kept.append(f.copy())
            return f
        n_steps, dt = 2 * block_len(sys) + 3, 1e-3
        traj = simulate(dataclasses.replace(sys, forcing=forcing), n_steps * dt, dt=dt)
        assert times == traj.times.tolist() and len(times) == n_steps + 1
        assert all(f.tobytes() == g.tobytes() for f, g in zip(returned, kept))
        assert traj.metadata["solves"] == (2 if reaction else 1) * n_steps


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

    def test_monotonicity_follows_the_step_not_the_listing(self):
        from rdcert.solver import _fit_order
        steps, errors = [0.2, 0.1, 0.05, 0.025], [1.6e-3, 4e-4, 1e-4, 2.5e-5]
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
            p, label = _fit_order([steps[i] for i in order], [errors[i] for i in order], "t")
            assert label == "measured"
            assert p == pytest.approx(2.0, rel=1e-12)
        with pytest.raises(InconclusiveOrderError, match=r"\[0.0016, 0.0004, 0.0001, 2.5e-05\]"):
            # ascending steps whose errors also fall: not a convergent refinement
            _fit_order(steps[::-1], errors, "t")

    def test_ascending_time_dts_give_the_same_order(self):
        case = decaying_sine_case()
        kin = KineticsSpec(n_components=1)
        common = dict(T=0.5, space_ns=(16, 32), space_dt=1e-2, time_n=401)
        down = convergence_orders(case, kin, (CONST_D,), time_dts=(0.25, 0.125, 0.0625),
                                  **common)
        up = convergence_orders(case, kin, (CONST_D,), time_dts=(0.0625, 0.125, 0.25),
                                **common)
        # each level's error does not depend on the listing, only the fit's
        # rounding does; the report keeps the levels as listed
        assert up.time_dts == (0.0625, 0.125, 0.25)
        assert up.time_errors == down.time_errors[::-1]
        assert up.time_label == down.time_label == "measured"
        assert up.p_time == pytest.approx(down.p_time, rel=1e-12)
        assert down.p_time == pytest.approx(2.0, abs=0.15)

    def test_manufactured_initial_matches_solution(self):
        g = Grid1D(1.0, 33)
        case = decaying_sine_case()
        sys = manufactured_system(g, KineticsSpec(n_components=1), (CONST_D,), case)
        assert sys.initial.values == pytest.approx(case.solution(g.x, 0.0))

    @pytest.mark.parametrize("space_ns,time_dts", [((32,), (0.1, 0.05)), ((16, 32), (0.2,)),
                                                   ((), (0.1, 0.05))])
    def test_fewer_than_two_levels_rejected(self, space_ns, time_dts):
        # a line through one point has no slope to measure
        with pytest.raises(ValueError, match="at least two refinement levels"):
            convergence_orders(decaying_sine_case(), KineticsSpec(n_components=1), (CONST_D,),
                               T=0.5, space_ns=space_ns, space_dt=1e-2, time_n=41,
                               time_dts=time_dts)


def two_component_case():
    """A two-component manufactured solution that vanishes at x = 0, where
    the saturation takes its exact-zero branch."""
    def solution(x, t):
        return (1.0 + t) * np.array([np.sin(np.pi * x), x * (1.0 - x)])

    def time_derivative(x, t):
        return np.array([np.sin(np.pi * x), x * (1.0 - x)])

    def laplacian(x, t):
        return (1.0 + t) * np.array([-np.pi ** 2 * np.sin(np.pi * x), np.full(len(x), -2.0)])
    return ManufacturedCase(solution, time_derivative, laplacian)


class TestManufacturedForcing:
    """The forcing keeps its reaction workspace from call to call and is,
    bit for bit, u*_t - D(t) (u*)_xx - F(u*) written out with eval_reaction."""

    DIFFUSION = (TimeProfile.power_decay(0.4, 1.0, positive=True),
                 TimeProfile.constant(0.7, positive=True))

    def system(self, case, n=101):
        kin = pinned_system("neumann", 2, "constant").kinetics  # saturated and modulated
        return manufactured_system(Grid1D(1.0, n, "neumann"), kin, self.DIFFUSION, case)

    def expected(self, sys, case, xs, t):
        d = np.array([eval_profile(p, t) for p in self.DIFFUSION])
        return (case.time_derivative(xs, t) - d[:, None] * case.laplacian(xs, t)
                - eval_reaction(sys.kinetics, case.solution(xs, t), t))

    def test_matches_formula_bit_for_bit(self):
        case = two_component_case()
        sys = self.system(case)
        assert sys.kinetics.nonlinearity == "saturated_power"
        other_xs = np.linspace(0.0, 1.0, 37)
        # other_xs changes the shape of u*, so the workspace is renewed, and
        # renewed again on the call after it
        for t, xs in [(0.0, sys.grid.x), (0.05, sys.grid.x), (0.4, sys.grid.x),
                      (1.7, sys.grid.x), (0.4, other_xs), (0.9, sys.grid.x)]:
            got = sys.forcing(xs, t)
            assert got.shape == (2, len(xs))
            assert got.tobytes() == self.expected(sys, case, xs, t).tobytes(), t

    def test_calls_return_fresh_arrays(self):
        sys = self.system(two_component_case())
        first = sys.forcing(sys.grid.x, 0.3)
        kept = first.copy()
        second = sys.forcing(sys.grid.x, 0.3)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes() == second.tobytes()

    @pytest.mark.parametrize("kinetics", ["saturated", "zero"])
    def test_a_run_evaluates_the_case_once_per_time(self, kinetics):
        # the forcing keeps no value from call to call: a repeated call
        # evaluates the case again.  The step plan keeps the latest value,
        # so a two-stage run, with or without a reaction, evaluates it once
        # at each time of its grid
        case = two_component_case()
        calls = []

        def counted(fn):
            def wrapped(x, t):
                calls.append(t)
                return fn(x, t)
            return wrapped
        counting = ManufacturedCase(counted(case.solution), counted(case.time_derivative),
                                    counted(case.laplacian))
        kin = (self.system(case).kinetics if kinetics == "saturated"
               else KineticsSpec(n_components=2))
        sys = manufactured_system(Grid1D(1.0, 101, "neumann"), kin, self.DIFFUSION, counting)
        xs = sys.grid.x
        calls.clear()
        first = sys.forcing(xs, 0.3)
        second = sys.forcing(xs, 0.3)
        assert calls == [0.3] * 6
        assert first.tobytes() == second.tobytes()
        assert not np.shares_memory(first, second)
        calls.clear()
        traj = simulate(sys, 12 * 0.01, dt=0.01)
        assert calls == [t for t in traj.times.tolist() for _ in range(3)]

    def test_finite_state_whose_sum_overflows_is_accepted(self):
        # the finiteness check sums squares first; an overflowing sum of finite
        # entries must not pass for a non-finite state
        case = ManufacturedCase(solution=lambda x, t: np.full((2, len(x)), 1e306),
                                time_derivative=lambda x, t: np.zeros((2, len(x))),
                                laplacian=lambda x, t: np.zeros((2, len(x))))
        sys = self.system(case, n=201)
        xs = sys.grid.x
        with np.errstate(over="ignore"):
            assert not math.isfinite(case.solution(xs, 0.5).sum())
        got = sys.forcing(xs, 0.5)
        assert np.isfinite(got).all()
        assert got.tobytes() == self.expected(sys, case, xs, 0.5).tobytes()

    def broken_system(self, corrupt, kinetics="saturated"):
        """The system of two_component_case whose solution passes through
        ``corrupt`` after t = 0, so that the initial field is valid; with
        ``kinetics = "zero"`` the reaction vanishes identically."""
        case = two_component_case()

        def solution(x, t):
            u = case.solution(x, t)
            return corrupt(u) if t > 0.0 else u
        sys = self.system(dataclasses.replace(case, solution=solution))
        if kinetics == "zero":
            sys = manufactured_system(sys.grid, KineticsSpec(n_components=2), self.DIFFUSION,
                                      dataclasses.replace(case, solution=solution))
        return sys

    def test_zero_reaction_is_left_out(self):
        # A = 0 and no nonlinearity: F(u*) = 0 is not computed, and the
        # result equals the formula up to the sign of zero entries
        case = two_component_case()
        sys = manufactured_system(Grid1D(1.0, 101, "neumann"), KineticsSpec(n_components=2),
                                  self.DIFFUSION, case)
        xs = sys.grid.x
        for t in (0.0, 0.4, 1.7):
            assert np.array_equal(sys.forcing(xs, t), self.expected(sys, case, xs, t))

    def test_wrong_component_count_rejected(self):
        sys = self.broken_system(lambda u: u[:1])
        with pytest.raises(ValueError, match="^state must have 2 leading components$"):
            sys.forcing(sys.grid.x, 0.2)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_state_rejected(self, bad):
        def corrupt(u):
            u[1, 7] = bad
            return u
        sys = self.broken_system(corrupt)
        with pytest.raises(ValueError, match="^state must be finite$"):
            sys.forcing(sys.grid.x, 0.2)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_zero_reaction_keeps_the_state_checks(self, bad):
        def corrupt(u):
            u[1, 7] = bad
            return u
        sys = self.broken_system(corrupt, kinetics="zero")
        with pytest.raises(ValueError, match="^state must be finite$"):
            sys.forcing(sys.grid.x, 0.2)
        sys = self.broken_system(lambda u: u[:1], kinetics="zero")
        with pytest.raises(ValueError, match="^state must have 2 leading components$"):
            sys.forcing(sys.grid.x, 0.2)


class TestModeOracle:
    """simulate against the closed form of a discrete sine (Dirichlet) or
    cosine (Neumann) mode.  Such a mode is an eigenvector of the three-point
    Laplacian with lambda_k = -(4/h^2) sin^2(k pi h / (2L)); with a diagonal
    linear part a, no nonlinearity and delta = (dt/2) D(t + dt/2), one stage
    multiplies its amplitude by r1 = (1 + delta lambda + dt a) / (1 - delta
    lambda) and a two-stage step by (1 + delta lambda + (dt a/2)(1 + r1)) /
    (1 - delta lambda)."""

    @staticmethod
    def mode(grid, k):
        """Mode k at the nodes and its eigenvalue, from the node indices."""
        j = np.arange(grid.n)
        if grid.bc == "dirichlet":  # x_j = (j + 1) h, L = (n + 1) h
            angle = k * math.pi / (grid.n + 1)
            values = np.sin(angle * (j + 1))
        else:  # x_j = j h, L = (n - 1) h
            angle = k * math.pi / (grid.n - 1)
            values = np.cos(angle * j)
        return values, -4.0 / grid.h ** 2 * math.sin(0.5 * angle) ** 2

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(3, 64), bc=st.sampled_from(["dirichlet", "neumann"]),
           m=st.sampled_from([1, 2]), decay=st.booleans(),
           scheme=st.sampled_from(["one_stage", "two_stage"]),
           dt=st.floats(1e-3, 0.1), steps=st.integers(1, 12))
    def test_amplitudes_follow_the_mode_factors(self, data, n, bc, m, decay, scheme, dt, steps):
        grid = Grid1D(data.draw(st.floats(0.5, 4.0), label="L"), n, bc)
        first = 1 if bc == "dirichlet" else 0
        k = data.draw(st.sampled_from([first, n - 1 + first]) | st.integers(first, n - 1 + first),
                      label="k")
        a = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m), label="a"))
        # dt D(0) / h^2 from 1e-2 to 1e6, per component
        ratios = data.draw(st.lists(st.floats(-2.0, 6.0), min_size=m, max_size=m), label="log10")
        exponent = data.draw(st.floats(0.5, 2.0), label="exponent") if decay else 0.0
        d0 = [10.0 ** r * grid.h ** 2 / dt for r in ratios]
        diffusion = tuple(TimeProfile.power_decay(d, exponent, positive=True) if decay
                          else TimeProfile.constant(d, positive=True) for d in d0)
        amps = np.array(data.draw(st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m),
                                  label="amps"))
        shape, lam = self.mode(grid, k)
        sys = SystemSpec(grid=grid, kinetics=KineticsSpec(n_components=m, linear=np.diag(a)),
                         diffusion=diffusion, initial=Field(grid, amps[:, None] * shape))
        traj = simulate(sys, steps * dt, dt=dt, record_every=1, scheme=scheme)

        coeffs = [amps]
        delta_max = 0.0
        for i in range(len(traj.times) - 1):
            mid = traj.times[i] + 0.5 * dt
            delta = 0.5 * dt * np.array([eval_profile(p, mid) for p in diffusion])
            delta_max = max(delta_max, float(delta.max()))
            r1 = (1.0 + delta * lam + dt * a) / (1.0 - delta * lam)
            if scheme == "two_stage":
                r1 = (1.0 + delta * lam + 0.5 * dt * a * (1.0 + r1)) / (1.0 - delta * lam)
            coeffs.append(coeffs[-1] * r1)
        coeffs = np.array(coeffs)
        # every stage solves with M = I - delta L, whose eigenvalues lie in
        # [1, 1 + 4 delta / h^2]: each step adds an error of a few condition
        # numbers times eps, relative to the largest amplitude (at most 6 in
        # 1500 random draws of this test)
        cond = 1.0 + 4.0 * delta_max / grid.h ** 2
        tol = 32.0 * len(coeffs) * cond * np.finfo(float).eps * np.max(np.abs(coeffs))
        exact = coeffs[:, :, None] * shape
        assert np.max(np.abs(traj.states - exact)) <= tol
        mode_norm = math.sqrt(float(np.sum(quadrature_weights(grid) * shape ** 2)))
        g_exact = mode_norm * np.sqrt(np.sum(coeffs ** 2, axis=1))
        assert np.max(np.abs(traj.g - g_exact)) <= 2.0 * math.sqrt(grid.L) * tol
