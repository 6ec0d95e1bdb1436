"""Matrix geodesics, Legendre transforms, convexity certificates."""

import numpy as np
import pytest

from pklab import cli
from pklab import fibration as fib
from pklab import geodesics as geo
from pklab import kns


def rand_pd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + 0.5 * np.eye(n)


def test_theta_tt_trivial_cases():
    a = np.diag([2.0, 5.0])
    def const(t):
        return a, np.zeros((2, 2)), np.zeros((2, 2))

    assert np.max(np.abs(geo.theta_tt(const, 0.3))) == 0.0
    lam = np.diag([0.5, -1.0])

    def expo(t):
        e = np.diag(np.exp(np.diag(lam) * t))
        return e, lam @ e, lam @ lam @ e

    assert np.max(np.abs(geo.theta_tt(expo, 0.7))) < 1e-12


def test_linear_path_curves():
    rng = np.random.default_rng(0)
    a0, a1 = rand_pd(rng, 3), rand_pd(rng, 3)
    lin = geo.linear_hermitian_path(a0, a1)
    assert np.max(np.abs(geo.theta_tt(lin, 0.5))) > 1e-3


def test_geodesic_commuting_midpoint():
    path = geo.hermitian_geodesic(np.eye(2), np.diag([4.0, 1.0]))
    assert np.allclose(path(0.5)[0], np.diag([2.0, 1.0]), atol=1e-13)


def test_geodesic_residual_sweep():
    rng = np.random.default_rng(1)
    for _ in range(15):
        n = int(rng.integers(1, 6))
        path = geo.hermitian_geodesic(rand_pd(rng, n), rand_pd(rng, n))
        for t in np.linspace(0, 1, 11):
            assert np.max(np.abs(geo.theta_tt(path, t))) < 1e-8


def test_geodesic_rejects_bad_input():
    with pytest.raises(ValueError):
        geo.hermitian_geodesic(np.eye(2), -np.eye(2))
    with pytest.raises(ValueError):
        geo.hermitian_geodesic(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))


def test_ma_determinant_cases():
    # phi = |z|^2 + |tau|^2: unit Hessian reference.
    assert geo.ma_determinant(fib.product_model(), 0.3,
                              np.array([0.2 + 0.1j])) == pytest.approx(1.0)
    rng = np.random.default_rng(2)
    a0, a1 = rand_pd(rng, 2), rand_pd(rng, 2)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    geod = fib.hermitian_quadratic_model(geo.hermitian_geodesic(a0, a1), 2)
    lin = fib.hermitian_quadratic_model(geo.linear_hermitian_path(a0, a1), 2)
    assert abs(geo.ma_determinant(geod, 0.4 + 0.7j, z)) < 1e-10
    assert abs(geo.ma_determinant(lin, 0.4 + 0.7j, z)) > 1e-3


def test_ma_equivalence_with_theta_tt():
    # Both degeneracy detectors agree in both truth directions.
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        a0, a1 = rand_pd(rng, n), rand_pd(rng, n)
        for path in (geo.hermitian_geodesic(a0, a1),
                     geo.linear_hermitian_path(a0, a1)):
            theta = max(np.max(np.abs(geo.theta_tt(path, t)))
                        for t in (0.25, 0.5, 0.75))
            pot = fib.hermitian_quadratic_model(path, n)
            ma = max(abs(geo.ma_determinant(
                pot, complex(t, rng.uniform(-1, 1)),
                rng.standard_normal(n) + 1j * rng.standard_normal(n)))
                for t in (0.25, 0.5, 0.75) for _ in range(3))
            assert (theta < 1e-10) == (ma < 1e-8)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ma_scale_bounds_the_linear_path_and_is_invariant(n):
    # floor <= |det| / s <= 1 along the linear path, with equality at n = 1,
    # and the ratio is unchanged by scaling and by a congruence of the path.
    rng = np.random.default_rng(30 + n)
    a0, a1 = rand_pd(rng, n), rand_pd(rng, n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
    z = np.arange(1, n + 1) + 0.5j
    # The potential of g A g^H at z' = g^{-T} z equals that of A at z.
    cases = [(a0, a1, z), (2.5 * a0, 2.5 * a1, z),
             (g @ a0 @ g.conj().T, g @ a1 @ g.conj().T, np.linalg.solve(g.T, z))]
    ratios = []
    tau = 0.37 + 0.2j
    for b0, b1, z in cases:
        path = geo.linear_hermitian_path(b0, b1)
        model = fib.hermitian_quadratic_model(path, n)
        scale, floor = geo.ma_scale(path(tau.real)[0], b1 - b0, z)
        ratio = abs(geo.ma_determinant(model, tau, z)) / scale
        assert floor * (1 - 1e-12) <= ratio <= 1 + 1e-12
        if n == 1:
            assert ratio == pytest.approx(1.0, rel=1e-12)
        ratios.append((ratio, floor))
    for ratio, floor in ratios[1:]:
        assert ratio == pytest.approx(ratios[0][0], rel=1e-9)
        assert floor == pytest.approx(ratios[0][1], rel=1e-9)


def test_linear_path_swapped_for_the_geodesic_fails_the_falsifiers(monkeypatch):
    config = cli.SuiteConfig(suite="geodesics", n=2, samples=20, seed=7)
    status = {r.name: r.status for r in cli.run_suite(config).checks}
    assert status["ma-along-linear"] == status["ma-dual-linear"] == "pass"
    monkeypatch.setattr(geo, "linear_hermitian_path", geo.hermitian_geodesic)
    status = {r.name: r.status for r in cli.run_suite(config).checks}
    assert status["ma-along-linear"] == status["ma-dual-linear"] == "fail"


@pytest.mark.parametrize("seed", [1, 2, 9, 14, 17])
def test_falsifiers_pass_at_the_seeds_the_absolute_witness_failed(seed):
    report = cli.run_suite(cli.SuiteConfig(suite="geodesics", n=2, samples=20, seed=seed))
    assert report.passed


def test_complex_legendre():
    assert np.allclose(geo.complex_legendre(np.eye(3)), np.eye(3))
    assert geo.complex_legendre(np.diag([2.0]))[0, 0] == pytest.approx(0.5)
    rng = np.random.default_rng(3)
    a = rand_pd(rng, 4)
    assert np.max(np.abs(geo.complex_legendre(geo.complex_legendre(a)) - a)) < 1e-12


def test_complex_legendre_preserves_degeneracy():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a0, a1 = rand_pd(rng, 2), rand_pd(rng, 2)
        dual = geo.hermitian_geodesic(geo.complex_legendre(a0),
                                      geo.complex_legendre(a1))
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert abs(geo.ma_determinant(fib.hermitian_quadratic_model(dual, 2),
                                      0.3 + 0.4j, z)) < 1e-10


def test_real_legendre_closed_forms():
    g = geo.ConvexGrid.from_function(lambda x: x**2, -5, 5, 512)
    d = geo.real_legendre(g)
    assert np.max(np.abs(d.values - d.xs**2 / 4)) < 2e-3
    for a in (0.5, 3.0):
        ga = geo.ConvexGrid.from_function(lambda x: a * x**2, -5, 5, 512)
        da = geo.real_legendre(ga)
        assert np.max(np.abs(da.values - da.xs**2 / (4 * a))) < 2e-3 * max(1, 1 / a)


def test_real_legendre_involution():
    g = geo.ConvexGrid.from_function(lambda x: np.cosh(x), -3, 3, 512)
    dd = geo.real_legendre(geo.real_legendre(g), size=512)
    back = np.interp(dd.xs, g.xs, g.values)
    assert np.max(np.abs(back - dd.values)[10:-10]) < 2e-3


def test_convexity_error():
    with pytest.raises(geo.ConvexityError):
        geo.ConvexGrid.from_function(lambda x: -x**2, -1, 1, 64)


def test_convex_geodesic_quadratics():
    p0 = geo.ConvexGrid.from_function(lambda x: x**2, -5, 5, 512)
    p1 = geo.ConvexGrid.from_function(lambda x: 4 * x**2, -5, 5, 512)
    same = geo.convex_geodesic(p0, p0, 0.7)
    assert np.max(np.abs(same.values - same.xs**2)) < 2e-3
    for t in (0.25, 0.5, 0.75):
        gd = geo.convex_geodesic(p0, p1, t)
        b = t / 4.0 + (1 - t)
        assert np.max(np.abs(gd.values - gd.xs**2 / b)) < 2e-3


def test_dual_linearity_and_control():
    p0 = geo.ConvexGrid.from_function(lambda x: x**2, -5, 5, 512)
    p1 = geo.ConvexGrid.from_function(lambda x: 4 * x**2, -5, 5, 512)
    d_geo = geo.dual_path_second_derivative(p0, p1,
                                            lambda t: geo.convex_geodesic(p0, p1, t))
    d_lin = geo.dual_path_second_derivative(
        p0, p1,
        lambda t: geo.ConvexGrid(xs=p0.xs, values=(1 - t) * p0.values + t * p1.values))
    assert d_lin > 10.0 * d_geo


def test_ma_grid_residual_order_two():
    f_geo = lambda t, xs: xs**2 / (t / 4.0 + (1 - t))
    f_lin = lambda t, xs: ((1 - t) + 4.0 * t) * xs**2
    coarse = geo.ma_grid_residual(f_geo, (0.2, 0.8), (-2, 2), nt=129, nx=129)
    fine = geo.ma_grid_residual(f_geo, (0.2, 0.8), (-2, 2), nt=257, nx=257)
    assert 3.3 < coarse / fine < 4.7
    assert geo.ma_grid_residual(f_lin, (0.2, 0.8), (-2, 2), nt=129, nx=129) \
        > 10.0 * coarse


def test_gradient_image_probe():
    quad = geo.ConvexGrid.from_function(lambda x: x**2, -8, 8, 512)
    rep = geo.gradient_image_probe(quad, pairs=50, seed=1)
    assert rep.members == 50
    quart = geo.ConvexGrid.from_function(lambda x: x**4 + x**2, -3, 3, 401)
    rep4 = geo.gradient_image_probe(quart, pairs=100, seed=2)
    assert rep4.members == 100 and rep4.inconclusive == 0


def test_minkowski_sum_of_images():
    # Endpoint arithmetic: the gradient image of a sum of quadratics is the
    # sum of the images (intervals here).
    f = geo.ConvexGrid.from_function(lambda x: x**2, -4, 4, 512)
    g = geo.ConvexGrid.from_function(lambda x: 2 * x**2 + x, -4, 4, 512)
    s = geo.ConvexGrid(xs=f.xs, values=f.values + g.values)
    rf = geo.gradient_image_probe(f, pairs=1).image_interval
    rg = geo.gradient_image_probe(g, pairs=1).image_interval
    rs = geo.gradient_image_probe(s, pairs=1).image_interval
    assert rs[0] == pytest.approx(rf[0] + rg[0], abs=1e-6)
    assert rs[1] == pytest.approx(rf[1] + rg[1], abs=1e-6)


def test_bm_hessian_closed_forms():
    one = geo.ConeBasis(basis=[np.eye(1)], point=np.array([2.0]))
    assert geo.bm_hessian(one)[0, 0] == pytest.approx(0.25)
    idn = geo.ConeBasis(basis=[np.eye(3)], point=np.array([2.0]))
    assert geo.bm_hessian(idn)[0, 0] == pytest.approx(3.0 / 4.0)


def test_bm_hessian_positive_on_cone():
    rng = np.random.default_rng(5)
    for n in (2, 3):
        basis = kns.sym_basis(n)
        for _ in range(20):
            g = rng.standard_normal((n, n))
            a = g @ g.T + 0.3 * np.eye(n)
            point = np.array([a[i, j] for i in range(n) for j in range(i, n)])
            h = geo.bm_hessian(geo.ConeBasis(basis=basis, point=point))
            assert np.linalg.eigvalsh(h).min() > 0


def test_bm_hessian_outside_cone():
    cone = geo.ConeBasis(basis=[np.eye(2)], point=np.array([-1.0]))
    with pytest.raises(geo.ConeError):
        geo.bm_hessian(cone)


def test_mabuchi_profile():
    h0 = np.array([[2.0, 0.3], [0.3, 1.0]])
    h1 = np.array([[1.0, -0.2], [-0.2, 3.0]])
    rep = geo.mabuchi_profile(h0, h1, np.linspace(0.05, 0.95, 19), volume=2.0)
    assert rep.min_rho >= -1e-10
    assert rep.log_convexity_margin >= -1e-8
    assert np.allclose(rep.second_derivative, 2.0 * rep.rho)
    # Cross-check rho against the log-determinant Hessian quadratic form.
    t0 = rep.ts[3]
    ht = (1 - t0) * h0 + t0 * h1
    m = np.linalg.solve(ht, h1 - h0)
    assert rep.rho[3] == pytest.approx(float(np.trace(m @ m)), rel=1e-12)
    degenerate = geo.mabuchi_profile(h0, h0, np.linspace(0, 1, 5))
    assert degenerate.degenerate
    assert degenerate.min_rho == 0.0
    assert degenerate.log_convexity_margin is None


def bm_hessian_loop(cone):
    """bm_hessian before stacking: one solve per basis matrix and one trace
    per (j, k) entry at a single point."""
    a = sum(c * b for c, b in zip(cone.point, cone.basis))
    solved = [np.linalg.solve(a, b) for b in cone.basis]
    size = len(cone.basis)
    h = np.empty((size, size))
    for j in range(size):
        for k in range(j, size):
            h[j, k] = h[k, j] = float(np.trace(solved[j] @ solved[k]).real)
    return h


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_bm_hessian_matches_the_point_loop(n):
    rng = np.random.default_rng(30 + n)
    g = rng.standard_normal((7, n, n))
    a = g @ g.swapaxes(-1, -2) + 0.3 * np.eye(n)
    rows, cols = np.triu_indices(n)
    cone = geo.ConeBasis(basis=kns.sym_basis(n), point=a[:, rows, cols])
    assert np.array_equal(cone.matrix(), a)
    stacked = geo.bm_hessian(cone)
    assert stacked.shape == (7, len(rows), len(rows))
    for i in range(7):
        one = bm_hessian_loop(geo.ConeBasis(basis=cone.basis, point=cone.point[i]))
        assert np.max(np.abs(stacked[i] - one)) <= 1e-13 * np.max(np.abs(one))


def test_stacked_mabuchi_profile_matches_the_time_loop():
    rng = np.random.default_rng(33)
    h0, h1 = (x @ x.T + 0.4 * np.eye(3) for x in rng.standard_normal((2, 3, 3)))
    ts = np.linspace(0.05, 0.95, 19)
    rep = geo.mabuchi_profile(h0, h1, ts)
    for i, t in enumerate(ts):
        m = np.linalg.solve((1.0 - t) * h0 + t * h1, h1 - h0)
        assert rep.rho[i] == float(np.trace(m @ m).real)
    assert np.array_equal(rep.ts, ts)
