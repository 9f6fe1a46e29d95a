import numpy as np
import pytest

from glset import (BmEndpoint, Constant, Coordinate, Linear, Norm2, Product,
                   RadialClamp, SublevelBump, UserFunctional, build_model)
from glset.expressions import ExpressionFunctional
from glset import functionals
from glset.functionals import Functional, chunk_scope, fd_gradient, rowsum
from glset.surface import _Partial


ANALYTIC = [
    Coordinate(2),
    Linear([0.5, -1.5, 2.0]),
    Norm2(),
    ExpressionFunctional("exp(-norm2())"),
    ExpressionFunctional("sin(xi(1))*cos(xi(2)) + xi(3)^3"),
    Product(Norm2(), ExpressionFunctional("exp(-norm2())")),
]


@pytest.mark.parametrize("f", ANALYTIC, ids=lambda f: f.name)
def test_analytic_gradient_matches_finite_differences(f, rng):
    # 100 random points, relative tolerance 1e-6 against central differences
    xi = rng.standard_normal((100, 3))
    analytic = f.gradient(xi)
    numeric = fd_gradient(f.value, xi, 1e-5)
    scale = np.maximum(np.abs(analytic), 1.0)
    assert np.all(np.abs(analytic - numeric) / scale <= 1e-6)


def test_linear_functional_gradient_constant(rng):
    f = Coordinate(1)
    xi = rng.standard_normal((4, 3))
    assert np.array_equal(f.gradient(xi), np.tile([1.0, 0.0, 0.0], (4, 1)))


def test_norm2_gradient_is_twice_point(rng):
    xi = rng.standard_normal((6, 4))
    assert np.allclose(Norm2().gradient(xi), 2 * xi, rtol=1e-15)


def test_axis_derivative_shortcuts_keep_the_generic_bits(rng, monkeypatch):
    # Norm2 answers an axis jvp and a one-axis hess without the (n, d) array
    # of the generic path, and RadialClamp keeps xi . u under the class in
    # the chunk memo: neither moves a bit
    xi = rng.standard_normal((500, 5)) * 10.0 ** rng.uniform(-3.0, 3.0, (500, 5))
    v = rng.standard_normal((500, 5))
    f, twice = Norm2(), lambda w: 2.0 * w
    for j in range(5):
        assert f.jvp(xi, j).tobytes() == Functional.jvp(f, xi, j).tobytes()
        assert f.hess(xi, j, v).tobytes() == Functional._bilinear(twice, xi, j, v).tobytes()
        assert f.hess(xi, v, j).tobytes() == Functional._bilinear(twice, xi, v, j).tobytes()
        assert f.hess(xi, j, 1).tobytes() == Functional._bilinear(twice, xi, j, 1).tobytes()

    pts = rng.standard_normal((500, 5))
    clamps = [RadialClamp(m) for m in (1.0, 1.5, 2.0)]
    generic = [c._scale(pts) * rowsum(pts * v) for c in clamps]
    dots = []
    monkeypatch.setattr(functionals, "_dot",
                        lambda a, u: dots.append(u) or functionals.rowsum(a * u))
    with chunk_scope(pts):
        kept = [c.jvp(pts, v) for c in clamps]
    assert len(dots) == 1  # one row sum for every clamp of the chunk
    assert [k.tobytes() for k in kept] == [g.tobytes() for g in generic]


def test_kl_coordinate_functional_gradient():
    # the ambient k-th coefficient of a KL point is sqrt(lambda_k) xi_k, so
    # its whitened gradient is sqrt(lambda_k) e_k
    m = build_model(("kl_brownian", 3))
    k = 2
    f = Linear(np.sqrt(m.spectrum) * np.eye(3)[k - 1])
    xi = np.random.default_rng(1).standard_normal((10, 3))
    g = f.gradient(xi)
    expected = np.zeros((10, 3))
    expected[:, k - 1] = np.sqrt(m.spectrum[k - 1])
    assert np.allclose(g, expected, rtol=1e-12)
    numeric = fd_gradient(f.value, xi, 1e-5)
    assert np.allclose(g, numeric, atol=1e-8)


def test_user_functional_fd_fallback(rng):
    f = UserFunctional(eval=lambda xi: np.sum(xi ** 2, axis=1), name="norm2-cb")
    assert not f.analytic_gradient
    xi = rng.standard_normal((20, 3))
    assert np.allclose(f.gradient(xi), 2 * xi, atol=1e-7)
    assert np.allclose(f.laplacian(xi), 6.0, atol=1e-4)


HESS = [
    Constant(2.5),
    Linear([0.5, -1.5, 2.0]),
    Norm2(),
    ExpressionFunctional("xi(1)^2*xi(2) + sin(xi(3))"),
    ExpressionFunctional("exp(-norm2())"),
    ExpressionFunctional("xi(1)*xi(2)^2"),
]


@pytest.mark.parametrize("f", HESS, ids=lambda f: f.name)
def test_hvp_matches_finite_differences(f, rng):
    # the analytic bilinear form u^T H v against the FD fallback of the value
    # alone, along arrays and axes, and e_j^T H e_k symmetric
    xi = rng.standard_normal((10, 3))
    u, w = rng.standard_normal((2, 10, 3))
    fd = UserFunctional(eval=f.value)
    pairs = [(u, u), (u, w), (w, 2), *((j, u) for j in range(3)),
             *((j, k) for j in range(3) for k in range(3))]
    for a, b in pairs:
        assert np.allclose(f.hess(xi, a, b), fd.hess(xi, a, b), rtol=1e-4, atol=1e-5)
    entries = np.array([[f.hess(xi, j, k) for k in range(3)] for j in range(3)])
    assert np.allclose(entries, np.swapaxes(entries, 0, 1), rtol=1e-12, atol=0.0)


def fd_hess_misses(functionals):
    """Names of the functionals whose finite-difference ``hess`` on a chunk of
    16384 x 5 points (standard normal x 1.5) is more than
    ``1e-4 max(max|want|, 1)`` from the analytic form (the unit floor covers
    a zero Hessian, whose FD form is rounding), or is not exactly 0 on the
    rows where the direction is 0.  It is asked what the engine asks, along
    the gradient and along a random direction u: ``u^T H u``, and
    ``((D^2 f) u)_k`` for every axis k, held together as the vector
    ``(D^2 f) u`` against ``max|(D^2 f) u|``."""
    rng = np.random.default_rng(11)
    xi = 1.5 * rng.standard_normal((16384, 5))
    random_u = rng.standard_normal((16384, 5))

    def close(want, got):
        scale = max(float(np.max(np.abs(want))), 1.0)
        return np.max(np.abs(got - want)) <= 1e-4 * scale and np.all(got[::7] == 0.0)

    misses = []
    for f in functionals:
        fd = UserFunctional(eval=f.value)
        for u in (random_u, f.gradient(xi)):
            u[::7] = 0.0
            quad = f.hess(xi, u, u), fd.hess(xi, u, u)
            product = [np.column_stack([g.hess(xi, k, u) for k in range(5)]) for g in (f, fd)]
            if not (close(*quad) and close(*product)):
                misses.append(f.name)
                break
    return misses


def test_fd_hvp_is_accurate_on_a_chunk():
    # worst cases: u^T H u within 1.2e-6 of max|u^T H u| (norm2), the entries
    # of (D^2 f) u within 4.8e-6 of max|(D^2 f) u| (norm2), and 2.5e-5
    # absolute where the Hessian is 0 (linear)
    assert fd_hess_misses(HESS) == []


def test_product_with_partial_is_phi_times_dkg(rng):
    # the ibp weight phi D_k G: the bits of phi D_k G and of
    # phi e_k^T (D^2 G) u + D_k G (grad phi . u) written out by hand
    phi = ExpressionFunctional("exp(-norm2())")
    G = ExpressionFunctional("xi(1)^2*xi(2) + sin(xi(3))")
    xi = rng.standard_normal((50, 3))
    u = rng.standard_normal((50, 3))
    for k in (1, 2, 3):
        f = Product(phi, _Partial(G, k))
        dkg = G.jvp(xi, k - 1)
        assert f.value(xi).tobytes() == (phi.value(xi) * dkg).tobytes()
        by_hand = phi.value(xi) * G.hess(xi, k - 1, u) + dkg * phi.jvp(xi, u)
        assert f.jvp(xi, u).tobytes() == by_hand.tobytes()
    f = Product(phi, _Partial(Norm2(), 2))
    assert np.allclose(f.value(xi), phi.value(xi) * 2 * xi[:, 1], rtol=1e-14)
    numeric = fd_gradient(f.value, xi, 1e-5)
    assert np.allclose(f.gradient(xi), numeric, atol=1e-7)


def _value_only(f):
    return UserFunctional(eval=f.value, name=f"fd({f.name})")


GAUSS = ExpressionFunctional("exp(-norm2())")
JVP = [
    Constant(2.5),
    Linear([0.5, -1.5, 2.0]),
    Coordinate(2),
    Norm2(),
    BmEndpoint(build_model(("kl_brownian", 3))),
    RadialClamp(1.0),
    SublevelBump(Norm2(), c=3.0, delta=1.0),
    Product(GAUSS, RadialClamp(1.0)),
    Product(GAUSS, _Partial(Norm2(), 2)),  # its FD-G twin is checked below
    HESS[3],  # an expression with a mixed Hessian
    _value_only(ExpressionFunctional("sin(xi(1))*cos(xi(2)) + xi(3)^3")),
    ExpressionFunctional("sin(xi(1))*cos(xi(2)) + xi(3)^3"),
]


@pytest.mark.parametrize("f", JVP, ids=lambda f: f.name)
def test_jvp_is_the_gradient_along_u(f, rng):
    # an override matches the default to 1e-12 relative; a class without one
    # gives the default's bits; along the axis j every class gives the bits
    # of the gradient's column j
    xi = 1.5 * rng.standard_normal((200, 3))
    u = rng.standard_normal((200, 3))
    got = f.jvp(xi, u)
    want = rowsum(f.gradient(xi) * u)
    assert got.shape == (200,)
    for j in range(3):
        assert f.jvp(xi, j).tobytes() == f.gradient(xi)[:, j].tobytes()
    if "jvp" in vars(type(f)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    else:
        assert type(f).jvp is Functional.jvp
        assert got.tobytes() == want.tobytes()


def test_finite_difference_product_with_partial_jvp(rng):
    # the cross term of an ibp weight with a value-only G, against analytic G
    xi = rng.standard_normal((200, 3))
    u = 2.0 * xi  # the direction the pass uses: the gradient of norm2
    for k in (1, 2, 3):
        exact = Product(GAUSS, _Partial(Norm2(), k)).jvp(xi, u)
        fd = Product(GAUSS, _Partial(_value_only(Norm2()), k)).jvp(xi, u)
        assert np.max(np.abs(fd - exact)) <= 1e-5 * np.max(np.abs(exact))


def test_bm_endpoint_is_linear(kl8, rng):
    f = BmEndpoint(kl8)
    xi = rng.standard_normal((7, 8))
    assert np.allclose(f.value(xi), xi @ f.weights, rtol=1e-14)
    assert f.analytic_gradient


def test_radial_clamp_support(rng):
    f = RadialClamp(2.0)
    xi = rng.standard_normal((1000, 3))
    r = np.linalg.norm(xi, axis=1)
    v = f.value(xi)
    assert np.all(v[r <= 2.0] == 1.0)
    assert np.all(v[r >= 4.0] == 0.0)
    on_ramp = (r > 2.1) & (r < 3.9)
    numeric = fd_gradient(f.value, xi, 1e-6)
    assert np.allclose(f.gradient(xi)[on_ramp], numeric[on_ramp], atol=1e-5)


def test_sublevel_bump_vanishes_above_cut(rng):
    G = Norm2()
    f = SublevelBump(G, c=2.0, delta=0.5)
    xi = rng.standard_normal((500, 3))
    g = G.value(xi)
    v = f.value(xi)
    assert np.all(v[g >= 2.0] == 0.0)
    assert np.all(v[g <= 1.5] == 1.0)
