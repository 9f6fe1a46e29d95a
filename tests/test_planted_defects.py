"""Planted defects: each test breaks one piece of the program and asserts
that a named check catches it.

The check is a nonzero closed form of the integration-by-parts identity.
For G = norm2 on iid d = 5, phi = xi_1 and k = 1 the sublevel side is

    E[(D_1 phi - xi_1 phi) 1{G < r}] = E[(1 - xi_1^2) 1{G < r}] = F_5(r) - F_7(r),

with F_d the chi-square(d) CDF, and the surface side ``int phi D_1 G dsigma_r``
has the same value.  An identity that reads 0 = 0 by symmetry cannot see a
defect that scales one side; this one can.  Over seeds 1-8 at n = 10^6 the
clean sides lie within 2 s.e. of the closed form, a 5 % scale on
``Norm2.hvp`` moves the surface side by -5.1 to -9.1 s.e. and a dropped
Hessian term by more than -160 s.e.
"""

import pytest
from scipy import stats

from glset import Coordinate, Norm2, ProductWithPartial, ibp_residuals

R = 3.0
N = 10 ** 6
SEED = 1
CLOSED_FORM = float(stats.chi2.cdf(R, 5) - stats.chi2.cdf(R, 7))


def closed_form_misses(model):
    """The sides of the (xi_1, k = 1) identity at level R that lie more than
    4 s.e. from the closed form."""
    [rec] = ibp_residuals(model, Norm2(), Coordinate(1), 1, (R,), N, SEED)
    out = []
    for side, value, se in (("lhs", rec.lhs, rec.lhs_stderr),
                            ("rhs", rec.rhs, rec.rhs_stderr)):
        if not abs(value - CLOSED_FORM) <= 4.0 * se:
            out.append(f"{side} {value:.6g}: {(value - CLOSED_FORM) / se:+.1f} s.e. "
                       f"from {CLOSED_FORM:.6g}")
    return out


def test_closed_form_value():
    assert CLOSED_FORM == pytest.approx(0.18502, abs=1e-5)


def test_ibp_sides_match_closed_form(iid5):
    assert closed_form_misses(iid5) == []


def test_scaled_hessian_vector_product_is_caught(iid5, monkeypatch):
    hvp = Norm2.hvp
    monkeypatch.setattr(Norm2, "hvp", lambda self, xi, u: 1.05 * hvp(self, xi, u))
    assert [m[:3] for m in closed_form_misses(iid5)] == ["rhs"]


def test_dropped_hessian_term_is_caught(iid5, monkeypatch):
    def gradient(self, xi):
        # the product rule without its (D^2 G) e_k term
        return self.phi.gradient(xi) * self.G.gradient(xi)[:, [self.k - 1]]

    monkeypatch.setattr(ProductWithPartial, "gradient", gradient)
    assert [m[:3] for m in closed_form_misses(iid5)] == ["rhs"]
