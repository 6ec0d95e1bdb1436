"""Canonical metric, curvature tensor, bounds, trace inequality."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pklab import _fd, kns
from pklab import wpcurv as wp


def test_metric_at_origin():
    rep = wp.df_metric(kns.BsdPoint(phi=np.zeros((1, 1))))
    assert rep.gram[0, 0] == pytest.approx(1.0)
    assert not rep.degenerate


def test_metric_closed_form_disc():
    # Hand derivation: G(t) = (1 - |t|^2)^{-2} on the scalar chart.
    _, gram_at = wp.metric_field(1)
    for t in (0.5, 0.3 - 0.4j, 0.1j):
        g = gram_at(np.array([t], dtype=complex))[0, 0].real
        assert g == pytest.approx((1.0 - abs(t) ** 2) ** -2, rel=1e-12)


def test_degenerate_degrees():
    rep0 = wp.df_metric(kns.BsdPoint(phi=np.zeros((1, 1))), normalization=0)
    assert rep0.degenerate
    rep2 = wp.df_metric(kns.BsdPoint(phi=np.zeros((1, 1))), normalization=2)
    assert rep2.degenerate  # top degree at n = 1 also carries no field


def test_degree_ratio_constant_n2():
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(3):
        bp = kns.random_bsd_point(2, rng, 0.5)
        rep = wp.df_metric(bp, normalization=2)
        assert not rep.degenerate
        assert rep.ratio_spread < 1e-8
        ratios.append(rep.ratio_to_degree1)
    assert np.ptp(ratios) < 1e-8  # same constant at every basepoint


def test_curvature_frozen_disc_value():
    # Poincare-type metric: R_1111 = -2 G^2, holomorphic sectional -2.
    tensor = wp.curvature_fd(kns.BsdPoint(phi=np.zeros((1, 1))))
    assert tensor.entries[0, 0, 0, 0].real == pytest.approx(-2.0, abs=1e-6)
    off = wp.curvature_fd(kns.BsdPoint(phi=np.array([[0.4 - 0.2j]])))
    _, gram_at = wp.metric_field(1)
    g = gram_at(np.array([0.4 - 0.2j]))[0, 0].real
    assert off.entries[0, 0, 0, 0].real / g**2 == pytest.approx(-2.0, abs=1e-6)


def test_structural_sectional_values_at_origin():
    # Oracle: -2 tr((S^H S)^2) / tr(S^H S)^2 for the direction matrix S.
    tensor = wp.curvature_fd(kns.BsdPoint(phi=np.zeros((2, 2))))
    _, gram_at = wp.metric_field(2)
    g = gram_at(np.zeros(3, dtype=complex))
    basis = kns.sym_basis(2)
    rng = np.random.default_rng(2)
    for _ in range(6):
        raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        xi = raw / np.sqrt(np.real(wp.df_inner(g, raw, raw)))
        s = sum(c * b for c, b in zip(xi, basis))
        ss = s.conj().T @ s
        expected = -2.0 * np.trace(ss @ ss).real / np.trace(ss).real ** 2
        assert tensor.pair(xi, xi).real == pytest.approx(expected, abs=1e-6)


def metric_gradient(bp, step=1e-3):
    """d_l G_{j kbar} as [l, j, k] from the full Richardson stencil of
    `metric_field` along every coordinate."""
    _, gram_at = wp.metric_field(bp.n)
    points = _fd.gradient_points(kns.coords_from_sym(bp.phi), step)
    return _fd.xy_combine(gram_at(points), False, step)


def kahler_closedness_residual(bp, step=1e-3):
    """max |d_l G_{j kbar} - d_j G_{l kbar}| over every coordinate triple:
    the full-stencil oracle of the directional `metric-closedness` record."""
    return _fd.closedness_defect(metric_gradient(bp, step))


def test_kahler_symmetries_and_closedness():
    rng = np.random.default_rng(21)
    bp = kns.random_bsd_point(2, rng, 0.5)
    tensor = wp.curvature_fd(bp)
    assert tensor.kahler_symmetry_defect() < 1e-6
    assert kahler_closedness_residual(bp) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_directional_closedness_meets_the_full_stencil(n):
    # The directional record and the full-stencil residual both stay under
    # the kahler-closedness bound, and each directional derivative of a row
    # is the full-stencil gradient contracted with its two directions.
    rng = np.random.default_rng(110 + n)
    nsym = kns.sym_dim(n)
    bp = kns.random_bsd_point(n, rng, 0.5)
    pairs = rng.standard_normal((wp.CLOSEDNESS_PAIRS, 2, nsym)) + 1j * rng.standard_normal(
        (wp.CLOSEDNESS_PAIRS, 2, nsym))
    assert kahler_closedness_residual(bp) < 1e-6
    assert wp.metric_closedness(bp, pairs) < 1e-6
    field_, _ = wp.metric_field(n)
    w = _fd.xy_points(np.zeros(1, dtype=complex), 0)[..., None]
    x, z = pairs[:, 0], pairs[:, 1]
    rows = wp.metric_rows(field_, kns.coords_from_sym(bp.phi) + w * z, x)
    want = np.einsum("ljk,pl,pj->pk", metric_gradient(bp), z, x)
    assert np.max(np.abs(_fd.xy_combine(rows, False) - want)) < 1e-8 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_metric_rows_equal_the_rows_of_metric_field(n):
    field_, gram_at = wp.metric_field(n)
    rng = np.random.default_rng(120 + n)
    nsym = kns.sym_dim(n)
    coords = np.stack([kns.coords_from_sym(kns.random_bsd_point(n, rng, 0.8).phi)
                       for _ in range(6)]).reshape(2, 3, nsym)
    xi = rng.standard_normal((3, nsym)) + 1j * rng.standard_normal((3, nsym))
    rows = wp.metric_rows(field_, coords, xi)
    want = np.einsum("...j,...jk->...k", xi, gram_at(coords))
    assert rows.shape == (2, 3, nsym)
    assert np.max(np.abs(rows - want)) < 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(field_.metric_row1(coords[0], xi) - want[0])) < 1e-13 * np.max(
        np.abs(want))


@pytest.mark.parametrize("n", [1, 2])
def test_formula_cross_validation(n):
    rng = np.random.default_rng(4)
    for bp in [kns.BsdPoint(phi=np.zeros((n, n))), kns.random_bsd_point(n, rng, 0.5)]:
        alg = wp.curvature_formula_terms(bp)
        assert np.max(np.abs(alg - wp.curvature_fd(bp).entries)) < 1e-4


def test_first_two_terms_dominate():
    # The projected-variation term only makes curvature more negative.
    bp = kns.BsdPoint(phi=np.array([[0.35 + 0.1j]]))
    full = wp.curvature_formula_terms(bp)[0, 0, 0, 0].real
    fd = wp.curvature_fd(bp).entries[0, 0, 0, 0].real
    assert full <= 0
    assert fd <= 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_burns_bounds(n):
    rng = np.random.default_rng(170 + n)
    nsym = kns.sym_dim(n)
    pairs = rng.standard_normal((wp.CLOSEDNESS_PAIRS, 2, nsym)) + 1j * rng.standard_normal(
        (wp.CLOSEDNESS_PAIRS, 2, nsym))
    rep = wp.burns_bounds(n, samples=30, seed=11,
                          closedness=(kns.random_bsd_point(n, rng, 0.5), pairs))
    bound = -2.0 / n
    assert rep.max_hsc <= bound + 1e-3
    assert rep.max_bisectional <= 1e-6
    assert rep.max_paired_bisectional_excess <= 1e-3
    assert rep.max_ricci <= bound + 1e-3
    assert rep.max_metric_error <= 1e-10
    assert rep.max_pairing_error <= 1e-6
    assert rep.max_einstein_defect <= 1e-9
    assert rep.max_sharpness_defect <= 1e-12
    assert rep.max_ascent_hsc <= bound + 1e-12
    assert rep.metric_closedness < 1e-6


def test_orthogonal_directions_degenerate_pairing():
    # With G-orthogonal directions the paired bound's right side vanishes.
    tensor = wp.curvature_fd(kns.BsdPoint(phi=np.zeros((2, 2))))
    _, gram_at = wp.metric_field(2)
    g = gram_at(np.zeros(3, dtype=complex))
    xi = np.array([1.0, 0, 0], dtype=complex)
    eta = np.array([0, 0, 1.0], dtype=complex)
    assert abs(wp.df_inner(g, eta, xi)) < 1e-12
    assert tensor.pair(xi, eta).real <= 1e-6


def test_trace_inequality_frozen_cases():
    assert wp.trace_inequality(np.eye(3)) == (pytest.approx(3.0), pytest.approx(3.0))
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    lhs, rhs = wp.trace_inequality(e11)
    assert lhs == pytest.approx(1.0)
    assert rhs == pytest.approx(0.5)


def test_trace_inequality_random_and_equality():
    rng = np.random.default_rng(5)
    for n in range(1, 7):
        for _ in range(50):
            kappa = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            lhs, rhs = wp.trace_inequality(kappa)
            assert lhs >= rhs - 1e-9 * max(1.0, lhs)
            # Eigenvalue oracle (power-mean inequality).
            lam = np.linalg.eigvalsh(kappa.conj().T @ kappa)
            assert lhs == pytest.approx(float(np.sum(lam**2)), rel=1e-10)
        q = np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))[0]
        lhs, rhs = wp.trace_inequality(1.7 * q)
        assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_metric_matches_metric_field(n):
    _, gram_at = wp.metric_field(n)
    rng = np.random.default_rng(40 + n)
    for bp in [kns.BsdPoint(phi=np.zeros((n, n))), kns.random_bsd_point(n, rng, 0.75),
               kns.random_bsd_point(n, rng, 0.75)]:
        g = gram_at(kns.coords_from_sym(bp.phi))
        assert np.max(np.abs(wp.ClosedFormCurvature(bp.phi).metric() - g)) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_tensor_matches_curvature_fd(n):
    bp = kns.random_bsd_point(n, np.random.default_rng(50 + n), 0.75)
    closed = wp.ClosedFormCurvature(bp.phi)
    fd = wp.curvature_fd(bp)
    assert np.max(np.abs(closed.tensor().entries - fd.entries)) < 1e-7
    assert closed.tensor().kahler_symmetry_defect() < 1e-13
    rng = np.random.default_rng(n)
    nsym = kns.sym_dim(n)
    for _ in range(3):
        xi = rng.standard_normal(nsym) + 1j * rng.standard_normal(nsym)
        eta = rng.standard_normal(nsym) + 1j * rng.standard_normal(nsym)
        assert closed.pair(xi, eta) == pytest.approx(closed.tensor().pair(xi, eta),
                                                     abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_directional_oracle_matches_full_tensor(n):
    # The one-line oracle reads rows of the metric on a 17-point stencil; the
    # contracted difference tensor reads 1 + 16 nsym^2 full Gram matrices,
    # and the closed form none.  All three agree on stacked lines.
    bp = kns.random_bsd_point(n, np.random.default_rng(60 + n), 0.75)
    fd = wp.curvature_fd(bp)
    field_, gram_at = wp.metric_field(n)
    coords = kns.coords_from_sym(bp.phi)
    g = gram_at(coords)
    rng = np.random.default_rng(n)
    nsym = kns.sym_dim(n)
    raw = rng.standard_normal((2, 3, nsym)) + 1j * rng.standard_normal((2, 3, nsym))
    xi, eta = raw / np.sqrt(wp.df_inner(g, raw, raw).real)[..., None]
    along = wp.curvature_fd_along(field_, coords, g, xi[:, None], eta)
    closed = wp.ClosedFormCurvature(bp.phi)
    assert along.shape == (3, 3)
    for i, j in np.ndindex(3, 3):
        assert along[i, j] == pytest.approx(fd.pair(xi[i], eta[j]), abs=1e-7)
        assert along[i, j] == pytest.approx(closed.pair(xi[i], eta[j]), abs=1e-8)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_hsc_ascent_reaches_the_bound_from_below(n):
    rng = np.random.default_rng(70 + n)
    closed = wp.ClosedFormCurvature(kns.random_bsd_point(n, rng, 0.75).phi)
    nsym = kns.sym_dim(n)
    starts = rng.standard_normal((3, nsym)) + 1j * rng.standard_normal((3, nsym))
    best = np.max(wp.hsc_ascent(closed, starts)[0])
    assert max(closed.hsc(x) for x in starts) < best <= -2.0 / n + 1e-12
    assert best > -2.0 / n - 1e-6


_entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def _point_and_direction(draw):
    n = draw(st.integers(1, 4))
    parts = draw(hnp.arrays(np.float64, (2, n, n), elements=_entries))
    phi = 0.5 * (parts[0] + 1j * parts[1])
    phi = phi + phi.T
    rho = kns.spectral_radius_phibar(phi) ** 0.5
    if rho > 1e-6:
        phi *= draw(st.floats(0.0, 0.95)) / rho
    xi = draw(hnp.arrays(np.float64, (2, kns.sym_dim(n)), elements=_entries))
    xi = xi[0] + 1j * xi[1]
    assume(np.max(np.abs(xi)) > 1e-3)
    return wp.ClosedFormCurvature(kns.BsdPoint(phi=phi).phi), xi


def solved_direction(closed, xi):
    """The G-steepest ascent direction of hsc at xi by a solve with conj(G)
    (the Wirtinger gradient tr(M S_j) of README, numerical conventions)."""
    bx, bxb = wp._halves(closed.b, xi)
    p = bx @ bxb
    w = bx @ closed.b.conj()
    tr_p = np.trace(p).real
    m = tr_p * (p @ w) - np.trace(p @ p).real * w
    grad = -4.0 * np.einsum("ab,jba->j", m, closed.basis) / tr_p ** 3
    return np.linalg.solve(closed.metric().conj(), grad)


def spectrum(closed, xi):
    return np.linalg.svd(closed.transport(xi), compute_uv=False) ** 2


@st.composite
def _ascent_case(draw):
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    closed = wp.ClosedFormCurvature(kns.random_bsd_point(n, rng, draw(st.floats(0.0, 0.9))).phi)
    nsym = kns.sym_dim(n)
    return closed, rng.standard_normal(nsym) + 1j * rng.standard_normal(nsym)


@settings(max_examples=60, deadline=None)
@given(_ascent_case())
def test_closed_form_step_equals_the_solved_direction(case):
    # Along C = BD, D the solved direction, the full matrices
    # P(r) = (A + rC) conj(A + rC) have the spectrum lam (1 + r v)^2 of the
    # spectral step, and its slope sum lam v^2 is tr(C conj(C)).
    closed, xi = case
    n = closed.phi.shape[-1]
    a = closed.b @ kns.sym_from_coords(xi, n)
    c = closed.b @ kns.sym_from_coords(solved_direction(closed, xi), n)
    lam = spectrum(closed, xi)
    value, v = wp._spectral_step(lam)
    tr_p = np.sum(lam)
    assert value == pytest.approx(closed.hsc(xi), abs=1e-12)
    # Relative to the scale (|A| / tr(P))^2 of C conj(C): at n = 1 the
    # gradient vanishes and both sides are rounding.
    assert abs(np.trace(c @ c.conj()).real - np.sum(lam * v * v)) <= 1e-12 * (
        np.max(np.abs(a)) / tr_p) ** 2
    for r in tr_p * 2.0 ** -np.arange(-2, 8):
        p_r = (a + r * c) @ (a + r * c).conj()
        want = np.sort(np.linalg.eigvals(p_r).real)
        got = np.sort(wp._spectrum_along(lam, v, np.asarray(r)))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(p_r)), r


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_rung_polynomials_equal_hsc_at_the_rungs(n):
    rng = np.random.default_rng(130 + n)
    closed = wp.ClosedFormCurvature(kns.random_bsd_point(n, rng, 0.75).phi)
    nsym = kns.sym_dim(n)
    g = closed.metric()
    for _ in range(3):
        xi = rng.standard_normal(nsym) + 1j * rng.standard_normal(nsym)
        d = solved_direction(closed, xi)
        lam = spectrum(closed, xi)
        rungs = 2.0 ** -np.arange(-6, 41)
        along = wp._spectrum_along(lam, wp._spectral_step(lam)[1], rungs)
        trace = np.sum(along, axis=-1)
        hsc = -2.0 * np.sum(along * along, axis=-1) / trace ** 2
        moved = xi + rungs[:, None] * d
        assert np.max(np.abs(hsc - closed.hsc(moved))) < 1e-12
        norms = wp.df_inner(g, moved, moved).real
        assert np.max(np.abs(trace / norms - 1.0)) < 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_transport_to_the_origin_keeps_metric_curvature_and_spectrum(n):
    # Homogeneity: the metric and the curvature at Phi, read at xi and eta,
    # are those of the origin read at the transported Z and W; and
    # sigma(Z)^2, the ascent's starting spectrum, is the spectrum of
    # P = BX conj(BX).
    rng = np.random.default_rng(150 + n)
    closed = wp.ClosedFormCurvature(kns.random_bsd_point(n, rng, 0.9).phi)
    origin = wp.ClosedFormCurvature(np.zeros((n, n)))
    nsym = kns.sym_dim(n)
    basis = kns.coords_from_sym(closed.transport(np.eye(nsym)))     # images of e_j
    g = closed.metric()
    moved = wp.df_inner(origin.metric(), basis[:, None], basis[None, :])
    assert np.max(np.abs(g - moved)) <= 1e-12 * np.max(np.abs(g))
    raw = rng.standard_normal((2, 4, nsym)) + 1j * rng.standard_normal((2, 4, nsym))
    xi, eta = raw
    z, w = kns.coords_from_sym(closed.transport(raw))
    pairs = closed.pair(xi[:, None], eta[None, :])
    assert np.max(np.abs(pairs - origin.pair(z[:, None], w[None, :]))) <= 1e-12 * np.max(
        np.abs(pairs))
    assert np.max(np.abs(closed.hsc(xi) - origin.hsc(z))) <= 1e-12
    for x in xi:
        bx, bxb = wp._halves(closed.b, x)
        want = np.sort(np.linalg.eigvals(bx @ bxb).real)
        assert np.max(np.abs(np.sort(spectrum(closed, x)) - want)) <= 1e-12 * want[-1]


def test_trace_pairing_equals_the_einsum_it_replaces():
    rng = np.random.default_rng(160)
    for x_shape, y_shape in [((3, 2, 2), (4, 2, 2)), ((2, 5, 3, 3), (2, 5, 3, 3)),
                             ((2, 1, 1, 4, 4), (1, 3, 6, 4, 4)), ((7, 1, 1), (7, 2, 1, 1))]:
        x, y = (rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in (x_shape, y_shape))
        want = np.einsum("...jab,...kba->...jk", x, y)
        got = wp._trace_pairing(x, y)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@settings(max_examples=80, deadline=None)
@given(_point_and_direction())
def test_closed_form_sectional_bound(case):
    closed, xi = case
    n = closed.phi.shape[-1]
    g = closed.metric()
    unit = xi / np.sqrt(wp.df_inner(g, xi, xi).real)
    assert closed.pair(unit, unit).real <= -2.0 / n + 1e-10
    assert closed.hsc(xi) <= -2.0 / n + 1e-12


@settings(max_examples=80, deadline=None)
@given(_point_and_direction())
def test_closed_form_kahler_einstein(case):
    closed, xi = case
    n = closed.phi.shape[-1]
    g = closed.metric()
    onb = np.linalg.inv(np.linalg.cholesky(g.T)).conj().T
    ric = sum(closed.pair(xi, onb[:, a]) for a in range(onb.shape[1]))
    norm2 = wp.df_inner(g, xi, xi).real
    assert abs(ric + (n + 1) * norm2) <= 1e-9 * max(1.0, norm2)


@settings(max_examples=80, deadline=None)
@given(_point_and_direction())
def test_sharp_direction_attains_the_bound(case):
    closed, _ = case
    n = closed.phi.shape[-1]
    assert closed.hsc(closed.sharp_direction()) == pytest.approx(-2.0 / n, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_gram_at_equals_per_point_calls(n):
    _, gram_at = wp.metric_field(n)
    rng = np.random.default_rng(100 + n)
    coords = np.stack([kns.coords_from_sym(kns.random_bsd_point(n, rng, 0.8).phi)
                       for _ in range(6)]).reshape(2, 3, -1)
    stacked = gram_at(coords)
    assert stacked.shape == (2, 3, kns.sym_dim(n), kns.sym_dim(n))
    for idx in np.ndindex(2, 3):
        single = gram_at(coords[idx])
        assert np.max(np.abs(stacked[idx] - single)) <= 1e-15 * np.max(np.abs(single))


def trace_inequality_records_loop(seed, samples):
    """The per-sample loops of the trace-inequality suite before stacking:
    (worst gap, witness kappa, worst equality defect)."""
    rng = np.random.default_rng([seed, 5])
    worst_gap, witness = -np.inf, None
    for n in range(1, 7):
        for _ in range(max(1, samples)):
            kappa = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            lhs, rhs = wp.trace_inequality(kappa)
            gap = (rhs - lhs) / max(1.0, lhs)
            if gap > worst_gap:
                worst_gap, witness = gap, kappa
    worst_eq = 0.0
    for n in range(1, 7):
        for _ in range(max(50, samples // 10)):
            q = np.linalg.qr(rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))[0]
            lhs, rhs = wp.trace_inequality(rng.uniform(0.2, 3.0) * q)
            worst_eq = max(worst_eq, abs(lhs - rhs) / max(1.0, lhs))
    return worst_gap, witness, worst_eq


@pytest.mark.parametrize("seed", [0, 7])
def test_stacked_trace_inequality_suite_matches_the_sample_loop(seed, monkeypatch):
    from pklab import cli

    # A failing tolerance makes the suite report its witness.
    monkeypatch.setitem(cli.DEFAULT_TOLERANCES, "trace-inequality", -1.0)
    cfg = cli.SuiteConfig(suite="trace-inequality", seed=seed, samples=20)
    gap, eq = cli.suite_trace_inequality(cfg, cli.Tolerances(cfg))
    want_gap, want_kappa, want_eq = trace_inequality_records_loop(seed, 20)
    assert (gap.value, eq.value) == (want_gap, want_eq)
    assert gap.witness == {"kappa": [[str(x) for x in row] for row in want_kappa.tolist()]}
    stack = np.random.default_rng(seed).standard_normal((5, 2, 3, 3))
    stack = stack[:, 0] + 1j * stack[:, 1]
    lhs, rhs = wp.trace_inequality(stack)
    assert [(a, b) for a, b in zip(lhs, rhs)] == [wp.trace_inequality(k) for k in stack]
