import numpy as np
import pytest

from glset import Coordinate, KernelField, Norm2, UserFunctional, sample
from glset.calculus import GRADIENT_FLOOR, hill_tail_index
from glset.expressions import ExpressionFunctional


class TestHGradient:
    # the H-gradient is Functional.gradient, coefficient rows w.r.t. {v_k}
    def test_linear(self, iid3, rng):
        xi = rng.standard_normal((1, 3))
        assert np.allclose(Coordinate(1).gradient(xi), [[1.0, 0.0, 0.0]])

    def test_norm2(self, rng):
        xi = rng.standard_normal((1, 4))
        assert np.allclose(Norm2().gradient(xi), 2 * xi, rtol=1e-14)


class TestIbpCoordinatewise:
    def test_partix_identity(self, iid3):
        # E[D_k phi] = E[xi_k phi] for smooth bounded phi, every k
        phi = ExpressionFunctional("exp(-norm2())")
        n = 10 ** 6
        batch = sample(iid3, n, seed=37)
        pv = phi.value(batch)
        grad = phi.gradient(batch)
        for k in range(1, 4):
            lhs = grad[:, k - 1]
            rhs = batch[:, k - 1] * pv
            diff = lhs - rhs
            se = diff.std() / np.sqrt(n)
            assert abs(diff.mean()) < 4.0 * se


def kernel_div(G, xi):
    """``(values, excluded)`` of the kernel divergence of G over a batch."""
    g = G.gradient(xi)
    return KernelField(G).divergence(xi, g, np.sum(g * g, axis=1))


class TestKernelDivergence:
    def test_coordinate_closed_form(self, rng):
        xi = rng.standard_normal((100, 3))
        val, excluded = kernel_div(Coordinate(1), xi)
        assert not excluded.any()
        assert np.allclose(val, -xi[:, 0], rtol=1e-12)

    def test_norm2_closed_form_d5(self, rng):
        xi = rng.standard_normal((100, 5))
        S = np.sum(xi * xi, axis=1)
        val, excluded = kernel_div(Norm2(), xi)
        assert not excluded.any()
        assert np.allclose(val, 3.0 / (2.0 * S) - 0.5, rtol=1e-12)

    def test_norm2_constant_in_d2(self, rng):
        # degenerate case: the composite formula collapses to -1/2 while the
        # integrability hypothesis fails; kept as a negative-test fixture
        xi = rng.standard_normal((100, 2))
        val, _ = kernel_div(Norm2(), xi)
        assert np.allclose(val, -0.5, rtol=1e-12)

    def test_expression_matches_builtin(self, rng):
        xi = rng.standard_normal((50, 4))
        built, _ = kernel_div(Norm2(), xi)
        expr, _ = kernel_div(ExpressionFunctional("norm2()"), xi)
        assert np.allclose(built, expr, rtol=1e-12)

    def test_floor_exclusion_counted(self):
        # g = 2 xi is 0 at the origin, so that row is excluded and carries 0;
        # at ones(3) the closed value (d - 2)/(2|xi|^2) - 1/2 is 1/6 - 1/2
        xi = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        val, excluded = kernel_div(Norm2(), xi)
        assert excluded.tolist() == [True, False]
        assert val[0] == 0.0
        assert val[1] == pytest.approx(1.0 / 6.0 - 0.5)

    def test_floor_is_on_the_gradient_norm(self):
        # |g| just below and just above the fixed floor
        s = np.array([(0.5 * GRADIENT_FLOOR) ** 2, (2.0 * GRADIENT_FLOOR) ** 2])
        assert KernelField.excluded(s).tolist() == [True, False]

    def test_fd_fallback_agrees(self, rng):
        analytic = Norm2()
        callback = UserFunctional(eval=lambda xi: np.sum(xi ** 2, axis=1))
        xi = rng.standard_normal((20, 3))
        va, _ = kernel_div(analytic, xi)
        vb, _ = kernel_div(callback, xi)
        assert np.allclose(va, vb, rtol=1e-3, atol=1e-4)


class TestHillTailIndex:
    # alpha = k / sum_i log(g_(k+1) / g_(i)) over the k + 1 smallest norms g
    def test_fewer_than_three_norms_is_inf(self):
        assert hill_tail_index(np.array([0.1, 0.2])) == np.inf

    def test_zero_norm_is_zero(self):
        assert hill_tail_index(np.array([0.3, 0.0, 0.1, 0.2])) == 0.0

    def test_equal_norms_are_inf(self):
        assert hill_tail_index(np.full(50, 0.5)) == np.inf

    def test_geometric_sample_closed_form(self):
        # g_i = c q^(k - i), i = 0..k: sum_i log(g_k / g_i) = log(1/q) k (k + 1) / 2
        k, q = 40, 0.9
        g = 0.5 * q ** np.arange(k, -1, -1.0)
        expected = 2.0 / ((k + 1) * np.log(1.0 / q))
        assert hill_tail_index(g[::-1]) == pytest.approx(expected, rel=1e-12)
