import numpy as np
import pytest

from glset import (Constant, ConstantField, Coordinate, DensityJob, IdentityField,
                   KernelField, Norm2, UserFunctional, VectorField, divergence_mu,
                   estimate_density, hypothesis_diagnostics, sample)
from glset.calculus import GRADIENT_FLOOR
from glset.density import VARIANCE_UNRELIABLE
from glset.expressions import ExpressionFunctional


class TestHGradient:
    # the H-gradient is Functional.gradient, coefficient rows w.r.t. {v_k}
    def test_linear(self, iid3, rng):
        xi = rng.standard_normal((1, 3))
        assert np.allclose(Coordinate(1).gradient(xi), [[1.0, 0.0, 0.0]])

    def test_norm2(self, rng):
        xi = rng.standard_normal((1, 4))
        assert np.allclose(Norm2().gradient(xi), 2 * xi, rtol=1e-14)


class GradNorm2Field(VectorField):
    """``D_H norm2 = 2 xi`` with the finite-difference Jacobian diagonal."""

    def components(self, xi):
        return 2.0 * xi


class TestDivergenceMu:
    def test_constant_field_gives_minus_vhat(self, rng):
        # div_mu(v_1) = -xi_1 by the definition of the Gaussian divergence
        xi = rng.standard_normal((10, 3))
        field = ConstantField([1.0, 0.0, 0.0])
        assert np.allclose(divergence_mu(field, xi), -xi[:, 0], rtol=1e-14)

    def test_identity_field(self, rng):
        xi = rng.standard_normal((10, 3))
        expected = 3.0 - np.sum(xi * xi, axis=1)
        assert np.allclose(divergence_mu(IdentityField(), xi), expected, rtol=1e-12)

    def test_zero_field(self, rng):
        xi = rng.standard_normal((5, 3))
        assert np.all(divergence_mu(ConstantField(np.zeros(3)), xi) == 0.0)

    def test_single_point_returns_scalar(self):
        out = divergence_mu(IdentityField(), np.array([1.0, 1.0]))
        assert out == pytest.approx(0.0)

    @pytest.mark.parametrize("field", [
        ConstantField([0.3, -1.0, 0.7]),
        IdentityField(),
        GradNorm2Field(),
    ], ids=["constant", "identity", "grad-norm2"])
    def test_zero_mean_property(self, iid3, field):
        # the divergence of a polynomial-growth field integrates to zero
        n = 10 ** 6
        batch = sample(iid3, n, seed=31)
        div = divergence_mu(field, batch)
        se = div.std() / np.sqrt(n)
        assert abs(div.mean()) < 4.0 * se


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


class TestHypothesisDiagnostics:
    def test_unit_gradient_all_moments_one(self, iid3):
        rep = hypothesis_diagnostics(Coordinate(1), iid3, 10 ** 5, seed=41)
        assert rep.inv_moments[4].estimate == pytest.approx(1.0)
        assert not rep.inv_moments[4].diverging
        assert not rep.variance_unreliable
        assert rep.hill_alpha == np.inf

    def test_chi5_inverse_second_moment(self, iid5):
        # E |grad|^-2 = E[1/(4S)] = 1/12 for S ~ chi-square(5)
        rep = hypothesis_diagnostics(Norm2(), iid5, 10 ** 6, seed=43)
        diag = rep.inv_moments[2]
        assert not diag.diverging
        assert diag.estimate == pytest.approx(1.0 / 12.0, abs=4 * max(diag.stderr, 1e-4))
        assert rep.hill_alpha == pytest.approx(5.0, abs=0.6)
        assert not rep.variance_unreliable

    def test_chi2_d2_diverges(self):
        from glset import build_model

        m = build_model(("iid_gaussian", 2))
        rep = hypothesis_diagnostics(Norm2(), m, 10 ** 6, seed=47)
        assert rep.inv_moments[2].diverging
        assert rep.inv_moments[4].diverging
        assert rep.variance_unreliable
        assert rep.hill_alpha == pytest.approx(2.0, abs=0.4)
        assert "diverging" in rep.summary()

    def test_d3_flags_fourth_but_not_second(self):
        from glset import build_model

        m = build_model(("iid_gaussian", 3))
        rep = hypothesis_diagnostics(Norm2(), m, 5 * 10 ** 5, seed=53)
        assert not rep.inv_moments[2].diverging
        assert rep.inv_moments[4].diverging
        assert rep.pos_moments[2] == pytest.approx(4.0 * 3.0, rel=0.02)

    @pytest.mark.parametrize("n", [20_000, 50_000, 100_000])
    def test_density_pass_and_diagnostics_agree_on_variance(self, iid5, n):
        # both tail indices take the same number of order statistics, so the
        # density curve's flag and the report's verdict are one verdict
        verdicts = []
        for seed in range(30):
            job = DensityJob(model=iid5, G=Norm2(), phi=Constant(1.0), r_grid=(1.0,),
                             n=n, seed=seed, estimator="divergence")
            flagged = VARIANCE_UNRELIABLE in estimate_density(job)["divergence"].flags
            report = hypothesis_diagnostics(Norm2(), iid5, n, seed)
            verdicts.append((flagged, report.variance_unreliable))
        assert [seed for seed, (a, b) in enumerate(verdicts) if a != b] == []
