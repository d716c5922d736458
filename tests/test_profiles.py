import math
from dataclasses import replace

import numpy as np
import pytest

from rdcert.profiles import (_BLOCK, KineticsSpec, ProfileSum, TimeProfile, _blocks,
                             _grid_block, as_time_function, coupling_gamma0, effective_c0,
                             eval_profile, eval_reaction, gamma_of_t, profile_derivative,
                             reaction_sup_bound, symmetric_part_max)


class TestTimeProfile:
    def test_power_decay_at_zero(self):
        assert eval_profile(TimeProfile.power_decay(1.0, 1.0), 0.0) == 1.0

    def test_exponential_value(self):
        val = eval_profile(TimeProfile.exponential(2.0, 0.5), 2.0)
        assert val == pytest.approx(2.0 * math.e, rel=1e-15)

    def test_power_decay_named_diffusion(self):
        # d(t) = d0/(1+t) with d0 = 0.5 at t = 3
        assert eval_profile(TimeProfile.power_decay(0.5, 1.0), 3.0) == pytest.approx(0.125)

    def test_constant_and_offset(self):
        assert eval_profile(TimeProfile.constant(2.5), 7.0) == 2.5
        bounded = TimeProfile.power_decay(0.5, 1.0, offset=0.25)
        assert eval_profile(bounded, 0.0) == pytest.approx(0.75)
        assert eval_profile(bounded, 1e9) == pytest.approx(0.25, rel=1e-6)

    def test_vectorized_matches_scalar(self):
        prof = TimeProfile.exponential(1.3, -0.7, offset=0.1)
        ts = np.linspace(0.0, 5.0, 11)
        vec = eval_profile(prof, ts)
        assert vec == pytest.approx([eval_profile(prof, float(t)) for t in ts])

    def test_tabulated_interpolates_and_rejects_outside(self):
        prof = TimeProfile.tabulated([0.0, 1.0, 2.0], [1.0, 3.0, 3.0])
        assert eval_profile(prof, 0.5) == pytest.approx(2.0)
        assert prof.t_max == 2.0
        with pytest.raises(ValueError):
            eval_profile(prof, 2.5)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            eval_profile(TimeProfile.constant(1.0), -0.1)

    def test_non_finite_parameters_rejected(self):
        with pytest.raises(ValueError):
            TimeProfile.constant(math.nan)
        with pytest.raises(ValueError):
            TimeProfile.exponential(1.0, math.inf)

    def test_positive_flag_enforced(self):
        prof = TimeProfile.exponential(1.0, -1.0, offset=-0.5, positive=True)
        assert eval_profile(prof, 0.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            eval_profile(prof, 10.0)  # decays through zero

    def test_table_validation(self):
        with pytest.raises(ValueError):
            TimeProfile.tabulated([0.0, 0.0], [1.0, 1.0])  # not increasing
        with pytest.raises(ValueError):
            TimeProfile.tabulated([1.0, 2.0], [1.0, 1.0])  # does not start at 0


class TestProfileDerivative:
    @pytest.mark.parametrize("prof", [
        TimeProfile.constant(3.0),
        TimeProfile.power_decay(0.5, 1.5, offset=0.2),
        TimeProfile.power_growth(2.0, 0.8),
        TimeProfile.exponential(1.1, -0.4, offset=0.05),
    ])
    def test_matches_finite_differences(self, prof):
        for t in (0.0, 0.7, 3.2):
            h = 1e-6
            lo, hi = max(t - h, 0.0), t + h
            fd = (eval_profile(prof, hi) - eval_profile(prof, lo)) / (hi - lo)
            assert profile_derivative(prof, t) == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_tabulated_derivative_recovers_slope(self):
        prof = TimeProfile.tabulated([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])
        assert profile_derivative(prof, 0.4) == pytest.approx(2.0, rel=1e-6)
        assert profile_derivative(prof, 1.6) == pytest.approx(-1.0, rel=1e-6)

    @pytest.mark.parametrize("offset", [0.0, 7.0])
    def test_tabulated_derivative_is_the_exact_slope(self, offset):
        # segment slopes 2, -0.5 and 0.5; an offset moves no slope
        table = np.array([[0.0, 1.0], [1.0, 3.0], [3.0, 2.0], [4.0, 2.5]])
        prof = TimeProfile("tabulated", table=table, offset=offset)
        cases = {0.5: 2.0, 2.0: -0.5, 3.75: 0.5,  # inside a segment: its slope
                 1.0: 0.75, 3.0: 0.0,             # interior knots: the mean of both sides
                 0.0: 2.0, 4.0: 0.5}              # the ends: the one-sided slope
        for t, slope in cases.items():
            assert profile_derivative(prof, t) == slope
        times = np.array(list(cases))
        assert profile_derivative(prof, times).tolist() == list(cases.values())
        for past in (4.0 + 1e-12, np.array([1.0, 4.5])):
            with pytest.raises(ValueError) as value_error:
                eval_profile(prof, past)
            with pytest.raises(ValueError, match=r"^tabulated profile queried outside \[0, 4\]$"):
                profile_derivative(prof, past)
            assert str(value_error.value) == "tabulated profile queried outside [0, 4]"
        with pytest.raises(ValueError, match="^profiles are defined for t >= 0$"):
            profile_derivative(prof, -0.5)

    def test_tabulated_derivative_at_zero_is_one_sided_when_zero_is_a_knot(self):
        # a table may start before t = 0; its knot at 0 still has one side
        prof = TimeProfile.tabulated([-1.0, 0.0, 2.0], [0.0, 1.0, 5.0])
        assert profile_derivative(prof, 0.0) == 2.0
        assert profile_derivative(prof, 1.0) == 2.0


class TestKineticsSpec:
    def test_linear_part_is_a_constant_matrix(self):
        np.testing.assert_array_equal(KineticsSpec(n_components=2).linear, np.zeros((2, 2)))
        assert KineticsSpec(n_components=1, linear=[[2]]).linear.dtype == float
        with pytest.raises(ValueError, match="constant matrix"):
            KineticsSpec(n_components=1, linear=lambda x, t: np.array([[1.0]]))
        with pytest.raises(ValueError, match="2x2"):
            KineticsSpec(n_components=2, linear=np.eye(1))


class TestEvalReaction:
    def test_zero_state_maps_to_zero_exactly(self):
        kinetics = [
            KineticsSpec(n_components=1),
            KineticsSpec(n_components=1, linear=np.array([[3.0]])),
            KineticsSpec(n_components=2, linear=np.array([[1.0, 2.0], [-2.0, -2.0]]),
                         nonlinearity="saturated_power", c0=TimeProfile.constant(1.0)),
        ]
        for kin in kinetics:
            out = eval_reaction(kin, np.zeros(kin.n_components), 1.7)
            assert np.all(out == 0.0)

    def test_linear_diagonal(self):
        kin = KineticsSpec(n_components=2, linear=np.array([[-1.0, 0.0], [0.0, -1.0]]))
        out = eval_reaction(kin, np.array([2.0, 3.0]))
        assert out == pytest.approx([-2.0, -3.0])

    def test_saturated_value_and_bound(self):
        kin = KineticsSpec(n_components=1, nonlinearity="saturated_power",
                           c0=TimeProfile.constant(1.0), p=2.0)
        out = eval_reaction(kin, np.array([1.0]))
        assert out[0] == pytest.approx(-0.5)
        assert abs(out[0]) <= 1.0 * 1.0 ** 2

    def test_batch_matches_pointwise(self):
        kin = KineticsSpec(n_components=2, linear=np.array([[0.3, -1.0], [2.0, -0.7]]),
                           nonlinearity="saturated_power", c0=TimeProfile.constant(0.4),
                           p=2.5, modulation=TimeProfile.constant(1.3))
        rng = np.random.default_rng(3)
        u = rng.normal(size=(2, 17))
        batch = eval_reaction(kin, u, 0.9)
        for j in range(17):
            assert batch[:, j] == pytest.approx(eval_reaction(kin, u[:, j], 0.9))

    def test_non_finite_state_rejected(self):
        kin = KineticsSpec(n_components=1)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="^state must be finite$"):
                eval_reaction(kin, np.array([bad]))
            with pytest.raises(ValueError, match="^state must be finite$"):
                eval_reaction(kin, np.array([[1e308, 1e308, bad]]))

    def test_finite_state_whose_sum_overflows_accepted(self):
        # the finiteness check sums squares first and warns of nothing
        kin = KineticsSpec(n_components=1, linear=np.array([[-1e-300]]))
        out = eval_reaction(kin, np.full((1, 4), 1e308))
        assert out.tolist() == [[-1e8] * 4]

    def test_saturated_growth_bound_randomized(self):
        # |B(u)| <= c0(t) |u|^p for every state, time and exponent
        rng = np.random.default_rng(11)
        for p in (1.5, 2.0, 3.0):
            kin = KineticsSpec(n_components=2, nonlinearity="saturated_power",
                               c0=TimeProfile.power_decay(0.8, 1.0, offset=0.2), p=p)
            for t in rng.uniform(0.0, 10.0, 8):
                u = rng.normal(scale=rng.uniform(0.01, 50.0), size=(2, 64))
                b = eval_reaction(kin, u, float(t))
                mag_b = np.sqrt(np.sum(b * b, axis=0))
                mag_u = np.sqrt(np.sum(u * u, axis=0))
                cap = eval_profile(kin.c0, float(t)) * mag_u ** p
                assert np.all(mag_b <= cap * (1.0 + 1e-12))

    def test_modulation_homogeneity_exact(self):
        base = TimeProfile.exponential(0.9, -0.3)
        kin1 = KineticsSpec(n_components=1, linear=np.array([[1.4]]),
                            nonlinearity="saturated_power", c0=TimeProfile.constant(0.7),
                            modulation=base)
        kin2 = KineticsSpec(n_components=1, linear=np.array([[1.4]]),
                            nonlinearity="saturated_power", c0=TimeProfile.constant(0.7),
                            modulation=TimeProfile.exponential(1.8, -0.3))
        u = np.array([[0.3, -1.2, 4.5]])
        f1 = eval_reaction(kin1, u, 0.8)
        f2 = eval_reaction(kin2, u, 0.8)
        assert np.array_equal(f2, 2.0 * f1)

    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_the_formula_bit_for_bit(self, m):
        # phi (A u - u c0 / (1 + |u|^(1-p))), in the order of operations the
        # reaction has always used: the kernel's (A, c0) output times phi
        linear = np.array([[0.7]]) if m == 1 else np.array([[0.3, -1.1], [0.9, -0.2]])
        kin = KineticsSpec(n_components=m, linear=linear, nonlinearity="saturated_power",
                           c0=TimeProfile.power_decay(0.8, 0.5), p=2.5,
                           modulation=TimeProfile.exponential(1.3, -0.4, offset=0.2))
        rng = np.random.default_rng(5)
        u = rng.normal(scale=3.0, size=(m, 41))
        u[:, 7] = 0.0  # the saturation's exact-zero branch
        for t in (0.0, 0.35, 2.9):
            c0, phi = eval_profile(kin.c0, t), eval_profile(kin.modulation, t)
            if m == 1:
                row = u * u
            else:
                row = np.add.reduce(u * u, axis=0, keepdims=True)
            with np.errstate(divide="ignore"):
                row **= 0.5 * (1.0 - kin.p)
            row += 1.0
            expected = np.dot(linear, u)
            expected -= u * (c0 / row)
            expected *= phi
            assert eval_reaction(kin, u, t).tobytes() == expected.tobytes(), t


def per_time_sup_bound(kin, u_max, horizon, u_samples=2001, t_samples=65, safety=0.05):
    """reaction_sup_bound of one component written out with one pass over
    the samples per sample time."""
    ts = np.linspace(0.0, horizon, t_samples)
    points = np.linspace(-u_max, u_max, u_samples)[None, :]
    linear = np.dot(kin.linear, points)
    with np.errstate(divide="ignore"):
        sat = 1.0 / ((points * points) ** (0.5 * (1.0 - kin.p)) + 1.0)
    damped = points * sat
    worst = 0.0
    for c0, phi in zip(eval_profile(kin.c0, ts).tolist(),
                       eval_profile(kin.modulation, ts).tolist()):
        f = linear - c0 * damped
        worst = max(worst, abs(phi) * math.sqrt(float(np.max(np.sum(f * f, axis=0)))))
    return worst * (1.0 + safety)


class TestReactionSupBound:
    """The bound combines A u and the saturation term once per distinct c0
    and equals the per-time loop bit for bit."""

    @pytest.mark.parametrize("c0", [
        TimeProfile.constant(0.3),
        # repeated values: flat pieces and a value that comes back
        TimeProfile.tabulated([0.0, 1.0, 2.0, 3.0, 4.0], [0.5, 0.5, 0.9, 0.5, 0.5]),
        TimeProfile.power_decay(0.8, 1.5),
    ], ids=["constant", "tabulated", "power_decay"])
    def test_matches_per_time_loop(self, c0):
        kin = KineticsSpec(n_components=1, linear=np.array([[-0.6]]),
                           nonlinearity="saturated_power", c0=c0, p=2.5,
                           modulation=TimeProfile.power_decay(1.4, 0.7, offset=0.1))
        got = reaction_sup_bound(kin, 3.0, 4.0)
        assert got.hex() == per_time_sup_bound(kin, 3.0, 4.0).hex()


class TestGamma:
    def test_diagonal(self):
        kin = KineticsSpec(n_components=2, linear=np.array([[-1.0, 0.0], [0.0, -1.0]]))
        assert gamma_of_t(kin, 0.0) == pytest.approx(1.0)

    def test_shear_matrix_dense_sampling_oracle(self):
        # max of -u1^2 - u2^2 + 3 u1 u2 over the unit circle
        kin = KineticsSpec(n_components=2, linear=np.array([[-1.0, 3.0], [0.0, -1.0]]))
        theta = np.linspace(0.0, 2.0 * np.pi, 200_001)
        u1, u2 = np.cos(theta), np.sin(theta)
        form_max = np.max(-u1 ** 2 - u2 ** 2 + 3.0 * u1 * u2)
        assert gamma_of_t(kin, 0.0) == pytest.approx(-form_max, abs=1e-8)
        assert gamma_of_t(kin, 0.0) == pytest.approx(-0.5, abs=1e-12)

    def test_two_by_two_eigen_oracle(self):
        kin = KineticsSpec(n_components=2, linear=np.array([[1.0, 2.0], [-2.0, -2.0]]))
        assert gamma_of_t(kin, 0.0) == pytest.approx(-1.0, abs=1e-14)

    def test_attained_on_unit_circle(self):
        # (A u, u) <= -gamma |u|^2 with equality for some unit vector
        rng = np.random.default_rng(5)
        for _ in range(20):
            mat = rng.normal(size=(2, 2))
            kin = KineticsSpec(n_components=2, linear=mat)
            gamma = gamma_of_t(kin, 0.0)
            theta = np.linspace(0.0, 2.0 * np.pi, 100_001)
            u = np.stack([np.cos(theta), np.sin(theta)])
            form = np.sum(u * (mat @ u), axis=0)
            assert np.max(form) <= -gamma + 1e-9
            assert np.max(form) == pytest.approx(-gamma, abs=1e-7)

    def test_modulated(self):
        kin = KineticsSpec(n_components=1, linear=np.array([[2.0]]),
                           modulation=TimeProfile.power_decay(1.0, 1.0))
        assert gamma_of_t(kin, 3.0) == pytest.approx(-0.5)
        ts = np.array([0.0, 3.0, 7.5])
        assert gamma_of_t(kin, ts) == pytest.approx([-2.0, -0.5, -2.0 / 8.5])


class TestCouplingGamma0:
    def test_turing_example(self):
        out = coupling_gamma0(1.0, 2.0, -2.0, -2.0)
        assert out.gamma0 == pytest.approx(1.0)
        assert out.cross_nonneg

    def test_decoupled_stable(self):
        assert coupling_gamma0(-1.0, 0.0, 0.0, -1.0).gamma0 == pytest.approx(-1.0)

    def test_symmetric_case_matches_eigenvalue(self):
        out = coupling_gamma0(0.0, 1.0, 1.0, 0.0)
        assert out.gamma0 == pytest.approx(1.0)
        assert out.form_max == pytest.approx(1.0)

    def test_valid_bound_when_cross_nonneg(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, d = rng.normal(size=2)
            b = rng.uniform(0.0, 3.0)
            c = rng.uniform(-b, 3.0)  # keeps b + c >= 0
            out = coupling_gamma0(a, b, c, float(d))
            assert out.cross_nonneg
            assert out.gamma0 >= out.form_max - 1e-12
            sym = symmetric_part_max(np.array([[a, b], [c, d]]))
            assert out.form_max == pytest.approx(sym, abs=1e-12)

    def test_split_can_fail_for_negative_cross(self):
        out = coupling_gamma0(0.0, 1.0, -3.0, 0.0)
        assert not out.cross_nonneg
        assert out.gamma0 < out.form_max  # the printed formula underestimates here


class TestHelpers:
    def test_effective_c0_folds_modulation(self):
        kin = KineticsSpec(n_components=1, nonlinearity="saturated_power",
                           c0=TimeProfile.constant(0.4),
                           modulation=TimeProfile.power_decay(2.0, 1.0))
        assert effective_c0(kin)(1.0) == pytest.approx(0.4)
        assert effective_c0(kin) == ProfileSum(((1.0, (kin.modulation, kin.c0)),))
        # the reaction never uses c0 without a nonlinearity
        assert effective_c0(replace(kin, nonlinearity="none"))(1.0) == 0.0

    def test_reaction_sup_bound_linear(self):
        kin = KineticsSpec(n_components=1, linear=np.array([[2.0]]))
        bound = reaction_sup_bound(kin, u_max=3.0, horizon=1.0)
        assert bound == pytest.approx(1.05 * 6.0, rel=1e-6)

    @pytest.mark.parametrize("m, linear", [(1, None), (1, [[0.7]]),
                                           (2, [[0.3, 1.1], [-0.9, 0.2]])])
    def test_reaction_sup_bound_matches_time_by_time_scan(self, m, linear):
        kin = KineticsSpec(n_components=m, linear=linear, nonlinearity="saturated_power",
                           c0=TimeProfile.power_decay(1.3, 0.7), p=2.6,
                           modulation=TimeProfile.exponential(0.8, -0.4, offset=0.2))
        u_max, horizon = 2.5, 3.0
        # the sample states and times reaction_sup_bound documents
        ts = np.linspace(0.0, horizon, 65)
        if m == 1:
            points = np.linspace(-u_max, u_max, 2001)[None, :]
        else:
            radii = np.linspace(0.0, u_max, 32)
            angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
            points = np.concatenate([np.stack([radii * np.cos(a), radii * np.sin(a)])
                                     for a in angles], axis=1)
        worst = max(float(np.max(np.linalg.norm(eval_reaction(kin, points, float(t)),
                                                axis=0)))
                    for t in ts)
        bound = reaction_sup_bound(kin, u_max, horizon)
        assert bound == pytest.approx(1.05 * worst, rel=1e-14)

    def test_reaction_sup_bound_raises_at_first_rejected_time(self):
        # c0 turns negative from t = 1, the modulation table ends at t = 0.5:
        # a time-by-time scan meets the modulation's error first
        kin = KineticsSpec(n_components=1, nonlinearity="saturated_power",
                           c0=TimeProfile.power_decay(1.0, 1.0, offset=-0.5),
                           modulation=TimeProfile.tabulated([0.0, 0.5], [1.0, 1.0]))
        with pytest.raises(ValueError, match="tabulated profile queried outside"):
            reaction_sup_bound(kin, 1.0, 2.0)

    def test_kinetics_validation(self):
        with pytest.raises(ValueError):
            KineticsSpec(n_components=3)
        with pytest.raises(ValueError):
            KineticsSpec(n_components=1, p=1.0)
        with pytest.raises(ValueError):
            KineticsSpec(n_components=2, linear=np.ones((1, 1)))


@pytest.mark.parametrize("n", [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
@pytest.mark.parametrize("horizon", [1.0, 10.0, 0.1, math.pi, 7.3e5, 3e-7, 0.0, 5e-324])
def test_grid_block_is_linspace_bit_for_bit(n, horizon):
    # a grid from 0, and one from its own first step, as the dispersion
    # scan's wavenumbers k_max / n .. k_max are
    for first in (0.0, horizon / n):
        whole = np.linspace(first, horizon, n)
        pieces = [_grid_block(first, horizon, n, block) for block in _blocks(n)]
        assert [len(p) for p in pieces] == [len(whole[b]) for b in _blocks(n)]
        assert np.concatenate(pieces).tobytes() == whole.tobytes()
        assert pieces[-1][-1] == horizon
        store = np.full(n, np.nan)
        for block in _blocks(n):
            assert _grid_block(first, horizon, n, block, out=store[block]).base is store
        assert store.tobytes() == whole.tobytes()


# one profile of each kind, with values of both signs, zero weights and offsets
SUM_FACTORS = [
    TimeProfile.constant(0.7),
    TimeProfile.power_decay(2.0, 1.0),
    TimeProfile.power_decay(1.0, 2.5, offset=-0.25),
    TimeProfile.power_growth(-0.5, 0.5),
    TimeProfile.exponential(1.5, -0.3, offset=0.1),
    TimeProfile.tabulated([0.0, 2.0, 50.0], [1.0, -1.0, 3.0]),
]


class TestProfileSum:
    TIMES = np.concatenate([[0.0], np.linspace(0.0, 50.0, 997)[1:], [50.0]])

    @staticmethod
    def closed_form(t):
        """The sum of test_matches_the_written_formula, written out."""
        f = [eval_profile(p, t) for p in SUM_FACTORS]
        return 3.0 * f[1] + (-0.2) * f[0] * f[2] + 0.0 * f[3] + 1.25 * f[4] * f[5] * f[1]

    def make(self):
        p = SUM_FACTORS
        return ProfileSum(((3.0, (p[1],)), (-0.2, (p[0], p[2])), (0.0, (p[3],)),
                           (1.25, (p[4], p[5], p[1]))))

    def test_matches_the_written_formula(self):
        total = self.make()
        values = total(self.TIMES)
        assert values.tobytes() == self.closed_form(self.TIMES).tobytes()
        for t in self.TIMES[::50]:
            assert total(float(t)) == self.closed_form(float(t))       # scalar arithmetic
            assert total(np.asarray(t)) == self.closed_form(np.asarray(t))  # 0-d arrays

    def test_single_profile_is_eval_profile(self):
        for p in SUM_FACTORS:
            assert ProfileSum(((1.0, (p,)),))(self.TIMES).tobytes() == \
                eval_profile(p, self.TIMES).tobytes()

    def test_nested_sums_and_callables(self):
        inner = ProfileSum(((2.0, (SUM_FACTORS[1],)),))
        outer = ProfileSum(((0.5, (inner, lambda t: np.asarray(t) + 1.0)), (1.0, ())))
        twice = 2.0 * eval_profile(SUM_FACTORS[1], self.TIMES)
        expected = 0.5 * twice * (self.TIMES + 1.0) + 1.0
        assert outer(self.TIMES).tobytes() == expected.tobytes()
        assert outer(3.0) == 0.5 * (2.0 * 2.0 / 4.0) * 4.0 + 1.0

    def test_shapes_and_the_empty_sum(self):
        assert ProfileSum()(2.0) == 0.0
        assert isinstance(ProfileSum()(2.0), float)
        zeros = ProfileSum()(self.TIMES)
        assert zeros.shape == self.TIMES.shape and not zeros.any()
        const = ProfileSum(((2.0, (SUM_FACTORS[0],)),))
        assert const(np.zeros((2, 3))).shape == (2, 3)
        assert isinstance(const(np.asarray(1.0)), float)

    def test_does_not_write_into_a_callable_result(self):
        kept = np.linspace(1.0, 2.0, 5)
        total = ProfileSum(((2.0, (lambda t: kept,)), (1.0, (lambda t: kept,))))
        assert total(np.linspace(0.0, 1.0, 5)).tolist() == (3.0 * kept).tolist()
        assert kept.tolist() == np.linspace(1.0, 2.0, 5).tolist()

    @pytest.mark.parametrize("t, message", [
        (-1.0, "t >= 0"), (math.nan, "finite"), (np.array([0.0, -1.0]), "t >= 0"),
        (np.array([math.inf, -1.0]), "finite"), (np.array([60.0]), "outside"),
    ])
    def test_time_checks(self, t, message):
        with pytest.raises(ValueError, match=message):
            self.make()(t)

    def test_positive_factors_stay_checked(self):
        total = ProfileSum(((1.0, (TimeProfile.power_decay(1.0, 1.0, offset=-0.5,
                                                           positive=True),)),))
        assert total(0.5) > 0.0
        with pytest.raises(ValueError, match="positive"):
            total(np.linspace(0.0, 2.0, 5))

    def test_weights_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ProfileSum(((math.inf, (SUM_FACTORS[0],)),))

    def test_is_its_own_time_function(self):
        total = self.make()
        assert as_time_function(total) is total

    def test_overflow_reads_inf_without_a_warning(self):
        big = ProfileSum(((1e300, (TimeProfile.constant(1e300),)),
                          (1e300, (TimeProfile.exponential(1.0, 1.0),))))
        assert np.all(big(np.array([0.0, 1000.0])) == math.inf)
