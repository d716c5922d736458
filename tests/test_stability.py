import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rdcert.profiles import _BLOCK, symmetric_part_max
from rdcert.stability import (Linearization2, ModeRate, critical_d1, det_m, dispersion_scan,
                              eig2, instability_band, m_of_k, trace_m, turing_conditions)

from oracles import growth_rate_experiment

TURING = Linearization2(a=1.0, b=2.0, c=-2.0, d=-2.0, d1=0.5, d2=10.0)


class TestEig2:
    def test_defective_shear(self):
        lam1, lam2 = eig2(np.array([[-1.0, 3.0], [0.0, -1.0]]))
        assert lam1 == -1.0 and lam2 == -1.0

    def test_identity(self):
        assert eig2(np.eye(2)) == (1.0 + 0.0j, 1.0 + 0.0j)

    def test_rotation(self):
        lam1, lam2 = eig2(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert lam1 == pytest.approx(1.0j)
        assert lam2 == pytest.approx(-1.0j)

    def test_matches_numpy_on_random_draws(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            m = rng.normal(size=(2, 2)) * rng.uniform(0.1, 10.0)
            ours = eig2(m)
            ref = sorted(np.linalg.eigvals(m), key=lambda z: (-z.real, -z.imag))
            scale = max(1.0, float(np.max(np.abs(m))))
            assert ours[0] == pytest.approx(ref[0], abs=1e-9 * scale)
            assert ours[1] == pytest.approx(ref[1], abs=1e-9 * scale)


def scalar_eig2(m):
    """eig2 as a scalar formula with branches: the cancellation-free root,
    then det / root, sorted; a complex pair +imag first."""
    mat = np.asarray(m, dtype=float)
    if mat.shape != (2, 2) or not np.all(np.isfinite(mat)):
        raise ValueError("need a finite 2x2 matrix")
    tr = mat[0, 0] + mat[1, 1]
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        r1 = 0.5 * (tr + root) if tr >= 0.0 else 0.5 * (tr - root)
        r2 = det / r1 if r1 != 0.0 else 0.0
        lo, hi = sorted((r1, r2))
        return complex(hi), complex(lo)
    half_im = 0.5 * math.sqrt(-disc)
    return complex(0.5 * tr, half_im), complex(0.5 * tr, -half_im)


def eig2_matrices(seed=31, per_scale=200):
    """Seeded finite 2x2 matrices at unit scale and near 1e150 and 1e-150:
    random draws (real and complex pairs), tr^2 = 4 det exactly (a = d with
    b c = 0, or a scalar matrix), and small integers that tie roots and
    zero the cancellation-free root."""
    rng = np.random.default_rng(seed)
    mats = []
    for scale in (1.0, 1e150, 1e-150):
        for _ in range(per_scale):
            mats.append(rng.normal(size=(2, 2)) * scale)
            a, b = rng.normal(size=2) * scale
            mats.append(np.array([[a, b], [0.0, a]]))
            mats.append(np.array([[a, 0.0], [b, a]]))
            mats.append(np.array([[a, 0.0], [0.0, a]]))
            mats.append(np.array([[a, b], [-b, a]]))  # a complex pair
            mats.append(rng.integers(-2, 3, size=(2, 2)).astype(float) * scale)
    return mats


class TestEig2Oracle:
    """eig2, the one-matrix case of the vectorised root routine, equals the
    scalar formula bit for bit, signed zeros included."""

    def test_bit_for_bit(self):
        kinds = set()
        for m in eig2_matrices():
            tr, det = m[0, 0] + m[1, 1], m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            disc = tr * tr - 4.0 * det
            kinds.add("double" if disc == 0.0 else "real" if disc > 0.0 else "complex")
            got, want = eig2(m), scalar_eig2(m)
            assert [type(z) for z in got] == [complex, complex]
            assert [(z.real.hex(), z.imag.hex()) for z in got] == \
                [(z.real.hex(), z.imag.hex()) for z in want], m
        assert kinds == {"double", "real", "complex"}


class TestNumericalAbscissa:
    def test_shear_dense_sampling(self):
        m = np.array([[-1.0, 3.0], [0.0, -1.0]])
        theta = np.linspace(0.0, 2.0 * np.pi, 400_001)
        u = np.stack([np.cos(theta), np.sin(theta)])
        sampled = float(np.max(np.sum(u * (m @ u), axis=0)))
        assert symmetric_part_max(m) == pytest.approx(sampled, abs=1e-9)
        assert symmetric_part_max(m) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_diagonal(self):
        assert symmetric_part_max(np.diag([-2.0, -1.0])) == pytest.approx(-1.0)

    def test_dominates_spectral_abscissa(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            m = rng.normal(size=(2, 2)) * rng.uniform(0.1, 5.0)
            spectral = max(z.real for z in eig2(m))
            assert symmetric_part_max(m) >= spectral - 1e-10

    def test_strict_gap_for_shear(self):
        # spectrum in the open left half-plane, quadratic form not negative
        m = np.array([[-1.0, 3.0], [0.0, -1.0]])
        assert max(z.real for z in eig2(m)) == -1.0
        assert symmetric_part_max(m) > 0.0


class TestModeMatrix:
    def test_at_zero_wavenumber(self):
        assert np.array_equal(m_of_k(TURING, 0.0), TURING.matrix)

    def test_direct_substitution(self):
        assert m_of_k(TURING, 1.0) == pytest.approx(np.array([[0.5, 2.0], [-2.0, -12.0]]))

    def test_vanishing_diffusion_limit(self):
        lin = Linearization2(1.0, 2.0, -2.0, -2.0, 1e-14, 1e-14)
        assert m_of_k(lin, 3.0) == pytest.approx(lin.matrix, abs=1e-10)

    def test_vieta_along_scan(self):
        report = dispersion_scan(TURING, k_max=3.0, samples=200)
        prod = report.lam1 * report.lam2
        s = report.lam1 + report.lam2
        assert np.allclose(prod.real, report.det, atol=1e-9)
        assert np.allclose(prod.imag, 0.0, atol=1e-9)
        assert np.allclose(s.real, report.trace, atol=1e-9)

    def test_closed_form_det_matches_matrix(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            lin = Linearization2(*rng.normal(size=4), *rng.uniform(0.05, 5.0, size=2))
            k = rng.uniform(0.0, 4.0)
            assert det_m(lin, k) == pytest.approx(float(np.linalg.det(m_of_k(lin, k))),
                                                  rel=1e-9, abs=1e-9)
            assert trace_m(lin, k) == pytest.approx(float(np.trace(m_of_k(lin, k))))


class TestBandAndConditions:
    def test_turing_band_closed_form(self):
        band = instability_band(TURING)
        lo = math.sqrt((9.0 - math.sqrt(41.0)) / 10.0)
        hi = math.sqrt((9.0 + math.sqrt(41.0)) / 10.0)
        assert band == pytest.approx((lo, hi), abs=1e-12)

    def test_band_against_polynomial_roots_oracle(self):
        band = instability_band(TURING)
        roots = np.roots([TURING.d1 * TURING.d2,
                          -(TURING.a * TURING.d2 + TURING.d * TURING.d1),
                          TURING.a * TURING.d - TURING.b * TURING.c])
        expected = np.sort(np.sqrt(roots.real))
        assert band == pytest.approx(tuple(expected), abs=1e-10)

    def test_negative_diagonal_has_no_band(self):
        lin = Linearization2(-1.0, 0.0, 0.0, -1.0, 0.3, 7.0)
        assert instability_band(lin) is None
        assert np.all(det_m(lin, np.linspace(0.0, 10.0, 200)) > 0.0)

    @pytest.mark.parametrize("matrix_scale, diffusion_scale",
                             [(1.0, 1e-170), (1.0, 1e-160), (1.0, 1e160), (1.0, 1e300),
                              (1e200, 1.0)])
    def test_band_when_the_quadratic_leaves_the_double_range(self, matrix_scale,
                                                             diffusion_scale):
        # d1 d2 (or ad - bc) underflows, turns subnormal or overflows; the band
        # edges scale as sqrt(matrix_scale / diffusion_scale)
        lin = Linearization2(*(matrix_scale * v for v in (TURING.a, TURING.b, TURING.c,
                                                          TURING.d)),
                             TURING.d1 * diffusion_scale, TURING.d2 * diffusion_scale)
        unit = math.sqrt(matrix_scale) / math.sqrt(diffusion_scale)
        lo, hi = instability_band(TURING)
        assert instability_band(lin) == pytest.approx((lo * unit, hi * unit), rel=1e-14)

    def test_band_rejects_diffusions_too_far_apart(self):
        # d1 d2 stays subnormal whatever scale the two diffusions share
        lin = Linearization2(TURING.a, TURING.b, TURING.c, TURING.d, 1.0, 1e-310)
        with pytest.raises(ValueError, match="d1 / d2 is past the double range"):
            instability_band(lin)

    def test_no_band_at_the_top_of_the_double_range(self):
        # d1 = d2 = 1e308: in exact arithmetic disc = -7e616 < 0, so no band;
        # the scan's M(k) is past the double range and is rejected, not scanned
        lin = Linearization2(1.0, 2.0, -2.0, -2.0, 1e308, 1e308)
        assert instability_band(lin) is None
        with pytest.raises(ValueError, match="leaves the double range"):
            dispersion_scan(lin, L=4.0)

    def test_turing_conditions_unstable_example(self):
        rep = turing_conditions(TURING)
        assert rep.trace_negative and rep.determinant_positive
        assert rep.kinetics_stable
        assert rep.band is not None
        assert rep.trace_negative_on_band
        assert rep.turing_unstable

    def test_turing_conditions_stable_kinetics_no_band(self):
        rep = turing_conditions(Linearization2(-1.0, 0.0, 0.0, -1.0, 1.0, 2.0))
        assert rep.trace_negative and rep.determinant_positive
        assert rep.band is None and not rep.turing_unstable

    def test_turing_conditions_failing_trace(self):
        rep = turing_conditions(Linearization2(2.0, 0.0, 0.0, -1.0, 1.0, 2.0))
        assert not rep.trace_negative
        assert not rep.kinetics_stable

    def test_det_negative_inside_band_only(self):
        band = instability_band(TURING)
        inside = np.linspace(band[0] * 1.01, band[1] * 0.99, 50)
        outside = np.concatenate([np.linspace(1e-3, band[0] * 0.99, 50),
                                  np.linspace(band[1] * 1.01, 4.0, 50)])
        assert np.all(det_m(TURING, inside) < 0.0)
        assert np.all(det_m(TURING, outside) > 0.0)

    def test_mode_band_consistency(self):
        report = dispersion_scan(TURING, L=4.0)
        band = report.band
        for mode in report.modes:
            inside = band[0] < mode.k < band[1]
            assert mode.unstable == inside

    def test_huge_k_max_rejected_for_too_few_samples(self):
        # floor(1e9 * 4 / pi) modes, far more than 400 samples resolve
        with pytest.raises(ValueError, match="more than the 400 samples"):
            dispersion_scan(TURING, k_max=1e9, samples=400, L=4.0)

    def test_as_many_modes_as_samples_allowed(self):
        assert len(dispersion_scan(TURING, k_max=400.5, samples=400, L=math.pi).modes) == 400
        with pytest.raises(ValueError, match="more than the 400 samples"):
            dispersion_scan(TURING, k_max=401.5, samples=400, L=math.pi)

    @pytest.mark.parametrize("L", [0.0, -4.0, math.inf, math.nan])
    def test_interval_length_must_be_finite_and_positive(self, L):
        with pytest.raises(ValueError, match="interval length"):
            dispersion_scan(TURING, L=L)


def complex_sqrt_pair(tr, det):
    """Both eigenvalues (tr +- sqrt(tr^2 - 4 det))/2 with a complex sqrt,
    swapped so that the first has the larger real part."""
    root = np.sqrt((tr * tr - 4.0 * det).astype(complex))
    lam_a, lam_b = 0.5 * (tr + root), 0.5 * (tr - root)
    swap = lam_a.real < lam_b.real
    return np.where(swap, lam_b, lam_a), np.where(swap, lam_a, lam_b)


class TestDispersionKernel:
    """dispersion_scan's real-arithmetic eigenvalues, block by block, against
    the complex-sqrt formula."""

    N = 3 * _BLOCK + 7

    def scan(self, lin, k_max):
        report = dispersion_scan(lin, k_max=k_max, samples=self.N)
        assert report.det.tobytes() == det_m(lin, report.k).tobytes()
        assert report.trace.tobytes() == trace_m(lin, report.k).tobytes()
        lam1, lam2 = complex_sqrt_pair(report.trace, report.det)
        assert report.lam1.tobytes() == lam1.tobytes()
        assert report.lam2.tobytes() == lam2.tobytes()
        for imag in (report.lam1.imag, report.lam2.imag):
            assert not np.any(np.signbit(imag) & (imag == 0.0))  # no -0.0
        return report, report.trace ** 2 - 4.0 * report.det

    def test_real_band(self):
        _, disc = self.scan(Linearization2(a=1.0, b=2.0, c=1.0, d=-2.0, d1=0.5, d2=10.0), 5.0)
        assert np.all(disc > 0.0)

    def test_complex_band(self):
        report, disc = self.scan(Linearization2(a=-1.0, b=2.0, c=-2.0, d=-1.0, d1=1.0, d2=1.0),
                                 5.0)
        assert np.all(disc < 0.0)
        assert np.all(report.lam1.imag > 0.0) and np.all(report.lam2.imag < 0.0)

    def test_zero_discriminant(self):
        # tr = -2 k^2 and det = (k^2)^2 in floating point, so disc is exactly 0
        report, disc = self.scan(Linearization2(a=0.0, b=0.0, c=0.0, d=0.0, d1=1.0, d2=1.0),
                                 5.0)
        assert np.all(disc == 0.0)
        assert np.all(report.lam1 == report.lam2)

    def test_scan_stores_only_k_det_and_trace(self):
        # 24 bytes a sample and cache-sized block temporaries; the eigenvalues
        # (32 bytes a sample) are formed on first read
        n = 200_000
        tracemalloc.start()
        try:
            report = dispersion_scan(TURING, k_max=5.0, samples=n)
            scan_peak = tracemalloc.get_traced_memory()[1]
            lam1 = report.lam1
        finally:
            tracemalloc.stop()
        assert scan_peak / n < 40.0
        assert lam1.tobytes() == complex_sqrt_pair(report.trace, report.det)[0].tobytes()
        assert report.lam1 is lam1  # derived once
        assert report.max_growth_rate == float(np.max(lam1.real))

    @pytest.mark.parametrize("n", [2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1_100_000])
    def test_scan_grid_is_linspace_in_one_store(self, n):
        # k, det and trace are the rows of one (3, n) array, k formed block by
        # block into its row, bit for bit np.linspace's grid
        k_max = 7.3
        report = dispersion_scan(TURING, k_max=k_max, samples=n)
        assert report.k.tobytes() == np.linspace(k_max / n, k_max, n).tobytes()
        store = report.k.base
        assert store is not None and store.shape == (3, n)
        assert report.det.base is store and report.trace.base is store
        assert report.det.tobytes() == det_m(TURING, report.k).tobytes()
        assert report.trace.tobytes() == trace_m(TURING, report.k).tobytes()

    def test_regime_change_inside_a_block(self):
        _, disc = self.scan(TURING, 0.65)
        change = np.flatnonzero(np.diff(np.sign(disc)))
        assert change.size == 1 and 0 < change[0] % _BLOCK < _BLOCK - 1
        assert disc[0] < 0.0 < disc[-1]


def scalar_mode_rates(lin, k_max, L):
    """The admissible modes listed one eig2 call at a time."""
    modes, n = [], 1
    while n * math.pi / L <= k_max:
        kn = n * math.pi / L
        lam = eig2(m_of_k(lin, kn))[0]
        modes.append(ModeRate(n=n, k=kn, rate=lam, unstable=lam.real > 0.0))
        n += 1
    return tuple(modes)


class TestModeRates:
    """dispersion_scan lists the admissible modes in one vectorised pass; every
    field keeps the Python type and value of the mode-by-mode eig2 loop."""

    @pytest.mark.parametrize("lin, k_max, L, kind", [
        (Linearization2(a=1.0, b=2.0, c=1.0, d=-2.0, d1=0.5, d2=10.0), 5.0, 7.3, "real"),
        (Linearization2(a=-1.0, b=2.0, c=-2.0, d=-1.0, d1=1.0, d2=1.0), 5.0, 7.3, "complex"),
        # tr^2 = 4 det exactly: a double real root a - d1 k^2
        (Linearization2(a=1.0, b=0.0, c=0.0, d=1.0, d1=1.0, d2=1.0), 5.0, 7.3, "double"),
        (TURING, 20.0, 20.0, "mixed"),
        (TURING, 400.5, math.pi, "real"),
    ], ids=["real-band", "complex-band", "zero-discriminant", "turing", "as-many-as-samples"])
    def test_matches_scalar_loop(self, lin, k_max, L, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            modes = dispersion_scan(lin, k_max=k_max, samples=400, L=L).modes
        expected = scalar_mode_rates(lin, k_max, L)
        assert len(modes) == len(expected) > 0
        for got, want in zip(modes, expected):
            assert [type(v) for v in got] == [int, float, complex, bool]
            assert repr(got) == repr(want)
        imag = np.array([m.rate.imag for m in modes])
        if kind == "real":
            assert np.all(imag == 0.0)
        elif kind == "complex":
            assert np.all(imag > 0.0)
        elif kind == "double":
            assert [m.rate for m in modes] == [complex(lin.a - lin.d1 * m.k * m.k)
                                               for m in modes]
        else:
            assert np.any(imag > 0.0) and np.any(imag == 0.0)

    def test_no_admissible_mode(self):
        assert dispersion_scan(TURING, k_max=0.5, L=4.0).modes == ()

    def test_nan_k_max_rejected(self):
        with pytest.raises(ValueError, match="k_max must be positive"):
            dispersion_scan(TURING, k_max=math.nan, L=4.0)


class TestCriticalD1:
    def test_turing_example_value(self):
        out = critical_d1(1.0, 2.0, -2.0, -2.0, d2=10.0, k=1.0)
        assert out.d1_star == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert out.det_slope > 0.0  # detM increases in d1 here: unstable side is below

    def test_determinant_vanishes_at_star(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a, b, c, d = rng.normal(size=4)
            d2 = rng.uniform(0.1, 10.0)
            k = rng.uniform(0.2, 3.0)
            denom = k * k * (d2 * k * k - d)
            if abs(denom) < 1e-6:
                continue
            star = critical_d1(a, b, c, d, d2, k).d1_star
            if star <= 0.0:
                continue
            lin = Linearization2(a, b, c, d, star, d2)
            scale = max(1.0, abs(a * d - b * c))
            assert abs(float(det_m(lin, k))) <= 1e-12 * scale * 10

    def test_bisection_oracle(self):
        # locate the root of detM(k) in d1 by bisection and compare
        def det_of_d1(d1):
            return float(det_m(Linearization2(1.0, 2.0, -2.0, -2.0, d1, 10.0), 1.0))
        lo, hi = 1e-6, 10.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if det_of_d1(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        star = critical_d1(1.0, 2.0, -2.0, -2.0, 10.0, 1.0).d1_star
        assert star == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_unstable_side(self):
        assert float(det_m(TURING, 1.0)) == -2.0  # d1 = 0.5 < 2/3

    def test_degenerate_direction_raises(self):
        # d2 k^2 = d makes det independent of d1
        with pytest.raises(ValueError):
            critical_d1(1.0, 2.0, -2.0, 4.0, d2=1.0, k=2.0)


class TestGrowthRateExperiment:
    def test_zero_amplitude_degenerate(self):
        res = growth_rate_experiment(TURING, 4.0, 1, n_nodes=64, dt=1e-2,
                                     horizon=0.5, amplitude=0.0)
        assert res.degenerate
        assert res.measured is None
        assert math.isinf(res.relative_gap)

    def test_stable_mode_matches_prediction(self):
        res = growth_rate_experiment(TURING, 4.0, 2, n_nodes=200, dt=2e-3, horizon=4.0)
        assert not res.degenerate
        assert res.predicted < 0.0
        assert res.relative_gap < 0.02

    def test_unstable_mode_matches_prediction(self):
        res = growth_rate_experiment(TURING, 4.0, 1, n_nodes=200, dt=2e-3, horizon=4.0)
        assert res.predicted > 0.0
        assert res.measured > 0.0
        assert res.relative_gap < 0.02

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            growth_rate_experiment(TURING, 4.0, 0)

    def test_noise_seeded_growth_matches_fastest_mode(self):
        # random perturbations organize onto the fastest admissible mode
        from rdcert.grid import Grid1D, noise_field
        from rdcert.profiles import KineticsSpec, TimeProfile
        from rdcert.solver import SystemSpec, simulate

        L = 4.0
        grid = Grid1D(L, 200, "dirichlet")
        kin = KineticsSpec(n_components=2, linear=TURING.matrix)
        sys = SystemSpec(grid=grid, kinetics=kin,
                         diffusion=(TimeProfile.constant(0.5, positive=True),
                                    TimeProfile.constant(10.0, positive=True)),
                         initial=noise_field(grid, 2, 1e-4, seed=6))
        traj = simulate(sys, 8.0, dt=2e-3)
        sel = traj.times >= 4.0  # after the stable modes have died
        slope = float(np.polyfit(traj.times[sel], np.log(traj.g[sel]), 1)[0])
        predicted = max(m.rate.real for m in dispersion_scan(TURING, L=L).modes)
        assert slope == pytest.approx(predicted, rel=0.05)
