import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rdcert.grid import (Field, Grid1D, constant_field, discrete_norms,
                         discrete_poincare_constant, lp_integrals, mode_field,
                         noise_field, norms_batch, norms_from_values, poincare_constant,
                         quadrature_weights, zero_field)


class TestGrid1D:
    def test_dirichlet_layout(self):
        g = Grid1D(1.0, 9, "dirichlet")
        assert g.h == pytest.approx(0.1)
        assert g.x[0] == pytest.approx(0.1)
        assert g.x[-1] == pytest.approx(0.9)
        assert np.all(np.diff(g.x) > 0)

    def test_neumann_layout_includes_endpoints(self):
        g = Grid1D(2.0, 11, "neumann")
        assert g.h == pytest.approx(0.2)
        assert g.x[0] == 0.0
        assert g.x[-1] == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 10)
        with pytest.raises(ValueError):
            Grid1D(1.0, 2)
        with pytest.raises(ValueError):
            Grid1D(1.0, 10, "periodic")

    def test_weights_sum(self):
        gn = Grid1D(3.0, 31, "neumann")
        assert np.sum(quadrature_weights(gn)) == pytest.approx(3.0)


class TestField:
    def test_shape_coercion_and_validation(self):
        g = Grid1D(1.0, 8)
        f = Field(g, np.zeros(8))
        assert f.values.shape == (1, 8)
        with pytest.raises(ValueError):
            Field(g, np.zeros(7))
        with pytest.raises(ValueError):
            Field(g, np.full(8, np.nan))

    def test_mode_field_neumann_constant(self):
        g = Grid1D(1.0, 16, "neumann")
        f = mode_field(g, 0, 0.7)
        assert np.all(f.values == 0.7)

    def test_noise_field_reproducible(self):
        g = Grid1D(1.0, 32)
        a = noise_field(g, 2, 0.1, seed=4)
        b = noise_field(g, 2, 0.1, seed=4)
        c = noise_field(g, 2, 0.1, seed=5)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)
        assert np.max(np.abs(a.values)) <= 0.1


class TestNorms:
    def test_constant_neumann(self):
        g = Grid1D(1.0, 41, "neumann")
        ns = discrete_norms(constant_field(g, 1.0))
        assert ns.l2 == pytest.approx(1.0)
        assert ns.sup == 1.0
        assert ns.h1_semi == pytest.approx(0.0, abs=1e-14)

    def test_zero_field(self):
        ns = discrete_norms(zero_field(Grid1D(2.0, 15), 2))
        assert (ns.l2, ns.sup, ns.h1_semi, ns.h2) == (0.0, 0.0, 0.0, 0.0)

    def test_sine_l2(self):
        # integral of sin^2(pi x) over (0, 1) is 1/2; the uniform-weight sum is
        # exact for this mode, so the tolerance is round-off and not O(h^2)
        g = Grid1D(1.0, 50, "dirichlet")
        ns = discrete_norms(mode_field(g, 1, 1.0))
        assert ns.l2 == pytest.approx(math.sqrt(0.5), abs=1e-13)

    def test_sine_h2_against_analytic(self):
        # eps*sin(pi x/L): h2 -> eps sqrt(L/2) sqrt(1 + (pi/L)^2 + (pi/L)^4)
        g = Grid1D(2.0, 400, "dirichlet")
        ns = discrete_norms(mode_field(g, 1, 0.3))
        assert ns.h2 == pytest.approx(0.92735766352080915, rel=2e-4)

    def test_l2_dominated_by_sup(self):
        rng = np.random.default_rng(0)
        for bc in ("dirichlet", "neumann"):
            g = Grid1D(2.5, 37, bc)
            f = Field(g, rng.normal(size=(2, 37)))
            ns = discrete_norms(f)
            assert ns.l2 <= math.sqrt(g.L) * ns.sup + 1e-12

    def test_lp_integral_matches_l2(self):
        g = Grid1D(1.0, 64, "dirichlet")
        f = mode_field(g, 1, 1.3)
        assert lp_integrals(f.values[None], g, 2.0)[0] == \
            pytest.approx(discrete_norms(f).l2 ** 2, rel=1e-13)

    def test_lp_integral_constant(self):
        g = Grid1D(2.0, 21, "neumann")
        values = constant_field(g, 0.5).values
        assert lp_integrals(values[None], g, 3.0)[0] == pytest.approx(0.5 ** 3 * 2.0)

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("bc,n", [("dirichlet", 17), ("neumann", 17), ("neumann", 3)])
    def test_batch_matches_single_states(self, bc, n, k):
        # Neumann with n = 3 takes the short second-difference stencil
        g = Grid1D(1.3, n, bc)
        states = np.random.default_rng(7).normal(size=(k, 2, n))
        batch = norms_batch(states, g)
        lp = lp_integrals(states, g, 3.0)
        assert batch.shape == (k, 4) and lp.shape == (k,)
        for j in range(k):
            single = norms_from_values(states[j], g)
            assert tuple(batch[j]) == (single.l2, single.sup, single.h1_semi, single.h2)
            assert lp[j] == lp_integrals(states[j][None], g, 3.0)[0]
            *expected, lp_expected = written_out_norms(states[j], g, 3.0)
            assert batch[j] == pytest.approx(expected, rel=1e-13)
            assert lp[j] == pytest.approx(lp_expected, rel=1e-13)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), k=st.integers(1, 5), m=st.sampled_from([1, 2]),
           n=st.integers(3, 64), bc=st.sampled_from(["dirichlet", "neumann"]),
           exponent=st.sampled_from([2.5, 3.0, 3.5]), L=st.floats(0.5, 3.0))
    def test_norm_rows_property(self, data, k, m, n, bc, exponent, L):
        # magnitudes stay away from the subnormal range, where |u|^p keeps
        # too few digits for a relative comparison
        entries = st.just(0.0) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
        states = data.draw(arrays(float, (k, m, n), elements=entries))
        g = Grid1D(L, n, bc)
        batch = norms_batch(states, g)
        lp = lp_integrals(states, g, exponent)
        # the l2, sup, h1 and h2 columns keep their operations and order
        assert batch.tobytes() == unfused_norm_columns(states, g).tobytes()
        for j in range(k):
            alone = states[j:j + 1]
            assert norms_batch(alone, g).tobytes() == batch[j:j + 1].tobytes()
            assert lp_integrals(alone, g, exponent).tobytes() == lp[j:j + 1].tobytes()
            *expected, lp_expected = written_out_norms(states[j], g, exponent)
            assert batch[j] == pytest.approx(expected, rel=1e-13, abs=0.0)
            assert lp[j] == pytest.approx(lp_expected, rel=1e-13, abs=0.0)


    @pytest.mark.parametrize("n", [12_000, 24_001])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_large_batch_rows_are_the_single_state_norms(self, bc, m, n):
        # sizes past 8192 nodes, where an einsum reduction sums the rows of
        # a batch otherwise than a state alone
        g = Grid1D(1.0, n, bc)
        states = np.random.default_rng(n + m).normal(size=(2, m, n))
        batch = norms_batch(states, g)
        for exponent in (3.0, 2.5):
            lp = lp_integrals(states, g, exponent)
            for j in range(2):
                alone = states[j:j + 1]
                assert norms_batch(alone, g).tobytes() == batch[j:j + 1].tobytes()
                assert lp_integrals(alone, g, exponent).tobytes() == lp[j:j + 1].tobytes()

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_fine_grid_columns_match_the_written_out_norms(self, bc, m):
        # rough states: the second differences of a smooth state cancel to
        # a few digits in any operation order
        g = Grid1D(1.0, 20_001, bc)
        states = np.random.default_rng(m).normal(size=(2, m, g.n))
        batch = norms_batch(states, g)
        lp = lp_integrals(states, g, 3.0)
        for j in range(2):
            *expected, lp_expected = written_out_norms(states[j], g, 3.0)
            assert batch[j] == pytest.approx(expected, rel=1e-13, abs=0.0)
            assert lp[j] == pytest.approx(lp_expected, rel=1e-13, abs=0.0)


def written_out_norms(u, g, exponent):
    """l2, sup, h1_semi, h2 and the integral of |u|**exponent of one state
    (m, n), written out node by node."""
    m, n = u.shape
    w = quadrature_weights(g)
    sq = np.sum(u * u, axis=0)
    l2sq = float(sq @ w)
    pad = [np.zeros((m, 1))] if g.bc == "dirichlet" else []
    edges = np.diff(np.concatenate(pad + [u] + pad, axis=1), axis=1)
    h1sq = float(np.sum(edges ** 2)) / g.h
    d2 = np.empty_like(u)
    for i in range(n):
        if 0 < i < n - 1:
            d2[:, i] = u[:, i - 1] - 2.0 * u[:, i] + u[:, i + 1]
        elif g.bc == "dirichlet":
            inner = 1 if i == 0 else n - 2
            d2[:, i] = u[:, inner] - 2.0 * u[:, i]
        elif n >= 4:
            s = 1 if i == 0 else -1
            d2[:, i] = (2.0 * u[:, i] - 5.0 * u[:, i + s] + 4.0 * u[:, i + 2 * s]
                        - u[:, i + 3 * s])
        else:
            d2[:, i] = u[:, 0] - 2.0 * u[:, 1] + u[:, 2]
    d2 /= g.h ** 2
    h2sq = l2sq + h1sq + float(np.sum(d2 * d2, axis=0) @ w)
    return (math.sqrt(l2sq), math.sqrt(float(np.max(sq))), math.sqrt(h1sq), math.sqrt(h2sq),
            float(np.sqrt(sq) ** exponent @ w))


def unfused_norm_columns(states, g):
    """The columns of norms_batch for states (k, m, n) from fresh arrays,
    with the operations of the norms routine in their order: pointwise sums
    over the components of products, then one dot per state over the
    nodes; the second differences as differences of the edge differences,
    scaled by h / h^4 after their sum."""
    n = g.n
    w = quadrature_weights(g)
    h2 = g.h * g.h
    sq = np.sum(states * states, axis=1)
    l2sq = np.array([np.dot(row, w) for row in sq])
    if g.bc == "dirichlet":
        edges = np.concatenate([states[..., :1], states[..., 1:] - states[..., :-1],
                                -states[..., -1:]], axis=-1)
    else:
        edges = states[..., 1:] - states[..., :-1]
    h1sq = np.array([np.dot(e.ravel(), e.ravel()) for e in edges]) / g.h
    inner = edges[..., 1:] - edges[..., :-1]
    d2sq = np.array([np.dot(d.ravel(), d.ravel()) for d in inner])
    if g.bc == "neumann":
        v = states
        if n >= 4:
            first = 2.0 * v[..., 0] - 5.0 * v[..., 1] + 4.0 * v[..., 2] - v[..., 3]
            last = 2.0 * v[..., -1] - 5.0 * v[..., -2] + 4.0 * v[..., -3] - v[..., -4]
        else:
            first = last = inner[..., 0]
        d2sq = d2sq + 0.5 * np.sum(first * first + last * last, axis=-1)
    h2sq = l2sq + h1sq + d2sq * (g.h / (h2 * h2))
    return np.sqrt(np.column_stack([l2sq, np.max(sq, axis=-1), h1sq, h2sq]))


class TestPoincare:
    def test_unit_value_at_l_pi(self):
        assert poincare_constant(Grid1D(math.pi, 10)) == pytest.approx(1.0)

    def test_l_one(self):
        assert poincare_constant(Grid1D(1.0, 10)) == pytest.approx(math.pi ** 2)

    def test_neumann_zero(self):
        assert poincare_constant(Grid1D(5.0, 10, "neumann")) == 0.0
        assert discrete_poincare_constant(Grid1D(5.0, 10, "neumann")) == 0.0

    def test_discrete_value_below_continuum(self):
        for n in (50, 100, 200):
            g = Grid1D(1.0, n)
            assert discrete_poincare_constant(g) < poincare_constant(g)

    def test_discrete_convergence_second_order(self):
        L = 1.0
        errors = []
        hs = []
        for n in (50, 100, 200):
            g = Grid1D(L, n)
            errors.append(abs(discrete_poincare_constant(g) - poincare_constant(g)))
            hs.append(g.h)
        order = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        assert order >= 1.9
        for h, err in zip(hs, errors):
            assert err <= 10.0 * h * h

    def test_discrete_inequality_random_fields(self):
        # c_h ||u||^2 <= ||grad u||^2 for every Dirichlet field
        rng = np.random.default_rng(9)
        g = Grid1D(1.7, 83, "dirichlet")
        ch = discrete_poincare_constant(g)
        for _ in range(50):
            ns = discrete_norms(Field(g, rng.normal(size=(1, 83))))
            assert ch * ns.l2 ** 2 <= ns.h1_semi ** 2 * (1.0 + 1e-12)

    def test_eigenmode_attains_discrete_constant(self):
        g = Grid1D(3.0, 121, "dirichlet")
        ns = discrete_norms(mode_field(g, 1, 1.0))
        ratio = ns.h1_semi ** 2 / ns.l2 ** 2
        assert ratio == pytest.approx(discrete_poincare_constant(g), rel=1e-12)
