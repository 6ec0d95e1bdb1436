"""Fibration toolkit tests: lifts, curvatures, spectral identities, models."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pklab import cli
from pklab import fibration as fib
from pklab import geodesics as geo

import _symbolic as sym

ELLIPTIC32 = fib.elliptic_model(grid=32)
PERTURBED32 = fib.perturbed_torus_model(eps=0.05, grid=32)
PERTURBED64 = fib.perturbed_torus_model(eps=0.05, grid=64)


def test_product_model_fields():
    # No base-fiber mixing: zero lifts and variation tensors; the geodesic
    # curvature equals the base weight (a fiber constant).
    model = fib.product_model(base_weight=1.0)
    state = fib.fiber_state(model, 0.4 + 0.2j)
    assert np.max(np.abs(state.lifts)) == 0.0
    assert np.max(np.abs(state.ks)) == 0.0
    assert np.allclose(state.c, 1.0)
    flat = fib.product_model(base_weight=0.0)
    assert np.max(np.abs(fib.fiber_state(flat, 0.1).c)) < 1e-14


def test_elliptic_closed_form_fields():
    # Frozen closed forms: fiber coefficient 1/s, lift -(Im z)/s fiber
    # component, constant variation tensor i/(2 s).
    s = 1.7
    state = fib.fiber_state(ELLIPTIC32, 1j * s)
    y = state.points[0].imag
    assert np.max(np.abs(state.ff[0, 0] - 1.0 / s)) < 1e-12
    assert np.max(np.abs(state.lifts[0] - (-y / s))) < 1e-12
    assert np.max(np.abs(state.ks[0, 0] - 1j / (2 * s))) < 1e-12
    assert np.max(np.abs(state.c)) < 1e-13


def test_hermitian_path_model_geodesic_curvature():
    # Quadratic fiber potential: c is the direction-curvature quadratic form,
    # so it vanishes precisely along matrix geodesics.
    rng = np.random.default_rng(3)
    g0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a0 = g0 @ g0.conj().T + 0.5 * np.eye(2)
    a1 = g1 @ g1.conj().T + 0.5 * np.eye(2)
    geod = fib.hermitian_quadratic_model(geo.hermitian_geodesic(a0, a1), 2)
    lin = fib.hermitian_quadratic_model(geo.linear_hermitian_path(a0, a1), 2)
    for t in (0.2, 0.5, 0.8):
        assert np.max(np.abs(fib.fiber_state(geod, t).c)) < 1e-10
    assert np.max(np.abs(fib.fiber_state(lin, 0.5).c)) > 1e-3


def test_pk_equivalence_both_directions():
    cases = [
        (ELLIPTIC32, True), (fib.theta_weight_model(grid=16), True),
        (fib.vertical_model(), True),
        (fib.cross_term_model(), False), (PERTURBED32, False),
        (fib.product_model(), False),
    ]
    for model, expect in cases:
        ts = [0.25 + 1.1j, 1j] if model.proper else [0.3 + 0.4j, 0.8 - 0.1j]
        rep = fib.pk_residual(model, ts)
        if expect:
            assert rep.max_top_power < 1e-12 and rep.max_c < 1e-12, model.name
        else:
            # Both criteria reject together: the equivalence.
            assert rep.max_top_power > 1e-3 and rep.max_c > 1e-3, model.name


@pytest.mark.parametrize("grid", [16, 64])
def test_stacked_pk_residual_equals_the_per_t_loop(grid):
    # The per-t loop that `pk_residual` stacks, over the suite's models and
    # base points (complex and real), plus a three-point sample.
    def per_t(model, t_samples):
        worst_top = worst_c = 0.0
        for i, t in enumerate(t_samples):
            state = fib.fiber_state(model, t, seed=fib.PK_SEED + i)
            h = np.moveaxis(fib.form_matrix(state.bb, state.bf, state.ff), (0, 1), (-2, -1))
            worst_top = max(worst_top, float(np.max(fib.top_power_norm(h, model.n))))
            worst_c = max(worst_c, float(np.max(np.abs(state.c))))
        return fib.PkReport(name=model.name, max_top_power=worst_top, max_c=worst_c)

    for model, _ in cli._pk_suite_models(grid):
        for ts in ([0.25 + 1.1j, 1j], [0.3 + 0.9j, 0.3 + 1.2j, 1j]) if model.proper else \
                ([0.3, 0.62], [0.3, 0.45, 0.62]):
            assert fib.pk_residual(model, ts) == per_t(model, ts), (model.name, ts)


def test_pk_residual_checks_hermiticity_per_base_point(monkeypatch):
    # A complex c at the second base point only is refused.
    model = fib.cross_term_model()
    second = model.second

    def skewed(tv, pts):
        bb, bf, ff = second(tv, pts)
        return bb + 1e-3j * (np.real(tv) > 0.5), bf, ff

    with pytest.raises(ValueError, match="Hermiticity"):
        fib.pk_residual(dataclasses.replace(model, second=skewed), [0.3, 0.62])
    fib.pk_residual(dataclasses.replace(model, second=skewed), [0.3, 0.4])


def test_cross_term_witness_value():
    # c = 1 + lam |z|^2 / (1 + lam |t|^2) at t = 1: comfortably above 0.05.
    model = fib.cross_term_model(lam=0.2)
    pts = np.array([[0.9 + 0.2j]])
    assert abs(fib.evaluate_fields(model, 1.0 + 0j, pts).c[0]) > 0.05


def test_corrected_form_closed_for_fiber_constant_c():
    model = fib.product_model(base_weight=1.0)
    assert fib.dform_residual(model, 0.4 + 0.2j, np.array([0.1 + 0.3j])) < 1e-8
    # Quartic base weight: c = 4 |t|^2 is still a fiber constant.
    t, tb, zs, zbs = sym.symbols(1)
    quartic = sym.model(zs[0] * zbs[0] + (t * tb) ** 2, "quartic")
    assert fib.dform_residual(quartic, 0.7 - 0.1j, np.array([0.2j])) < 1e-7


def test_wp_metric_scaling_law():
    values = {}
    for s in (0.5, 1.0, 2.0, 4.0):
        values[s] = fib.wp_fiber_metric(fib.fiber_state(ELLIPTIC32, 1j * s))[0, 0].real
    consts = [values[s] * s * s for s in values]
    assert np.ptp(consts) / abs(np.mean(consts)) < 1e-10
    assert values[1.0] / values[2.0] == pytest.approx(4.0, rel=1e-10)


def test_wp_metric_requires_properness():
    with pytest.raises(fib.PropernessError):
        fib.wp_fiber_metric(fib.fiber_state(fib.cross_term_model(), 0.5))


def test_wp_metric_zero_for_product():
    state = fib.fiber_state(fib.product_model(), 0.6 + 0.4j)
    assert abs(fib.wp_fiber_metric(state)[0, 0]) < 1e-14


def test_schumacher_product_all_terms_vanish():
    rep = fib.schumacher_residual(fib.fiber_state(fib.product_model(base_weight=1.0),
                                                  0.4 + 0.2j))
    assert np.max(np.abs(rep.lhs)) < 1e-10
    assert np.max(np.abs(rep.inner)) < 1e-14
    assert np.max(np.abs(rep.box_c)) < 1e-10
    assert rep.residual < 1e-10


def test_schumacher_flat_family():
    rep = fib.schumacher_residual(fib.fiber_state(ELLIPTIC32, 0.2 + 1.1j))
    assert rep.residual < 1e-8
    # All three terms have the frozen flat-family values.
    s = 1.1
    assert np.max(np.abs(rep.inner - 1.0 / (4 * s * s))) < 1e-12
    assert np.max(np.abs(rep.box_c)) < 1e-10


def test_schumacher_perturbed_three_terms():
    rep = fib.schumacher_residual(fib.fiber_state(PERTURBED64, 0.3 + 1.2j))
    assert rep.residual < 1e-6
    # The Laplacian term must be a genuine player here.
    assert np.max(np.abs(rep.box_c)) > 1.0
    assert np.max(np.abs(rep.inner)) > 1.0


def test_schumacher_residual_calls_each_jet_once_per_state():
    # fiber_state calls second and third, schumacher_residual metric_t, each
    # once and at the state's base point.
    calls = []

    def counted(kind):
        jet = getattr(PERTURBED64, kind)

        def call(t, pts):
            calls.append((kind, t))
            return jet(t, pts)

        return call

    model = dataclasses.replace(PERTURBED64, **{kind: counted(kind)
                                                for kind in ("second", "third", "metric_t")})
    fib.schumacher_residual(fib.fiber_state(model, 0.3 + 1.2j))
    assert sorted(calls) == [("metric_t", 0.3 + 1.2j), ("second", 0.3 + 1.2j),
                             ("third", 0.3 + 1.2j)]


# t-step of the Richardson-extrapolated base stencils of log det(ff), the
# oracle of the closed-form psi derivatives.  The second difference amplifies
# rounding by 1/h^2 and the extrapolated stencil leaves an O(h^4) truncation.
T_STEP = 5e-4


def _psi_by_t_stencil(state):
    """psi_{t tbar} and psi_{t bbar} of psi = log det(ff) at the state's t by
    Richardson t-stencils: the real/imag 5-point Laplacian of psi and
    `_fd.xy_combine` of the analytic fiber gradient tr(ff^-1 d_bbar ff)."""
    from pklab import _fd

    model, pts = state.model, state.points

    def log_det_jets(t):
        _, _, ff = model.second(t, pts)
        _, fff = model.third(t, pts)
        grad = np.einsum("ms...,smb...->b...", fib._invert_ff(ff), fff)
        return np.log(fib._det_ff(ff).real + 0j), grad

    psi0, _ = log_det_jets(state.t)
    psi, grad = zip(*(log_det_jets(p[0])
                      for p in _fd.xy_points(np.array([state.t]), 0, T_STEP)))

    def laplacian(v, h):
        return 0.25 * ((v[0] - 2 * psi0 + v[1]) / h**2 + (v[2] - 2 * psi0 + v[3]) / h**2)

    psi_ttb = (4.0 * laplacian(psi[4:], T_STEP / 2) - laplacian(psi[:4], T_STEP)) / 3.0
    return psi_ttb, _fd.xy_combine(np.stack(grad), False, T_STEP)


@pytest.mark.parametrize("eps", [0.02, 0.05])
def test_closed_form_psi_matches_the_t_stencil(eps):
    state = fib.fiber_state(fib.perturbed_torus_model(eps=eps, grid=64), 0.3 + 1.2j)
    psi_ttb, psi_tb, grad = fib._psi_base_derivatives(state)
    want_ttb, want_tb = _psi_by_t_stencil(state)
    assert np.max(np.abs(psi_ttb - want_ttb)) < 1e-6
    assert np.max(np.abs(psi_tb - want_tb)) < 1e-7
    want_grad = np.einsum("ca...,acb...->b...", state.ff_inv, state.fff)
    assert np.array_equal(grad, want_grad)


def test_schumacher_nyquist_guard():
    coarse = fib.perturbed_torus_model(eps=0.05, grid=8)
    with pytest.raises(fib.GridResolutionError):
        fib.schumacher_residual(fib.fiber_state(coarse, 0.3 + 1.2j))


def test_pushforward_and_average_positivity():
    # The perturbed model needs the full grid to clear the resolution guard.
    for model, t in ((ELLIPTIC32, 0.5 + 0.9j), (PERTURBED64, 0.3 + 1.2j)):
        state = fib.fiber_state(model, t)
        rep = fib.schumacher_residual(state)
        lhs, rhs, res = fib.fs_pushforward_check(state, rep)
        assert res < 1e-6 * max(1.0, abs(lhs))
        avg_lhs, avg_rhs = fib.average_horizontal_positivity(state, rep)
        assert avg_rhs >= 0.0
        assert abs(avg_lhs - avg_rhs) < 1e-6 * max(1.0, abs(avg_rhs))
        # The state and report the pushforward check read give the same
        # averages as a state and report built fresh.
        fresh = fib.fiber_state(model, t)
        assert fib.average_horizontal_positivity(
            fresh, fib.schumacher_residual(fresh)) == (avg_lhs, avg_rhs)


def test_bochner_identity_and_pairing():
    state = fib.fiber_state(ELLIPTIC32, 1j)
    rng = np.random.default_rng(6)
    xg = state.spectral.points_grid[0]
    for _ in range(5):
        c = rng.standard_normal(3)
        phi = (c[0] * np.cos(2 * np.pi * xg.real) + c[1] * np.sin(2 * np.pi * xg.imag)
               + c[2] * np.cos(2 * np.pi * (xg.real + xg.imag)))
        kphi = fib.kappa_phi(state, phi)
        nk, nb, tag = fib.bkn_identity_check(state, phi, kphi)
        assert tag == "ricci-flat-fiber"
        assert abs(nk - nb) < 1e-10 * max(1.0, nk)
        assert abs(fib.kappa_phi_pairing(state, kphi)) < 1e-10
    const = np.ones(state.spectral.shape)
    nk, nb, _ = fib.bkn_identity_check(state, const, fib.kappa_phi(state, const))
    assert nk == pytest.approx(0.0, abs=1e-12)
    assert nb == pytest.approx(0.0, abs=1e-12)


def test_bochner_requires_flat_fiber():
    with pytest.raises(fib.CaseNotCoveredError):
        state = fib.fiber_state(PERTURBED32, 1j)
        phi = np.ones((32, 32))
        fib.bkn_identity_check(state, phi, fib.kappa_phi(state, phi))


def test_bracket_checks():
    for model, t in ((ELLIPTIC32, 0.4 + 1.3j), (PERTURBED32, 0.3 + 1.2j),
                     (fib.cross_term_model(), 0.7 + 0.2j)):
        z = np.array([0.23 + 0.11j])
        rep = fib.bracket_mixed_check(model, t, z)
        assert rep.verticality_residual < 1e-9
        assert rep.contraction_residual < 1e-8


def test_variation_tensor_dbar_closed():
    assert fib.dbar_closedness_residual(fib.fiber_state(PERTURBED32, 0.3 + 1.2j)) < 1e-8


def test_variation_tensor_symmetry():
    # Lowering the vector index against the fiber metric yields a tensor
    # symmetric in its two conjugate slots (closedness in disguise); for
    # one-dimensional fibers the lowered tensor is a scalar, so instead
    # compare the pairing against its simplified trace form.
    state = fib.fiber_state(PERTURBED32, 0.3 + 1.2j)
    pair = state.kappa_pair()
    simplified = np.einsum("ab...,ba...->...", state.ks, state.ks.conj())
    assert np.max(np.abs(pair - simplified)) < 1e-10


def test_elliptic_family_slice():
    slc = fib.elliptic_family(2j)
    assert slc.fiber_coefficient == pytest.approx(0.5)
    assert slc.map_coefficients[0] == pytest.approx(0.75)
    assert slc.map_coefficients[1] == pytest.approx(0.25)
    assert slc.agreement < 1e-12
    assert slc.type_residual < 1e-12
    assert slc.top_power < 1e-12
    ident = fib.elliptic_family(1j)
    assert ident.map_coefficients[0] == pytest.approx(1.0)
    assert abs(ident.map_coefficients[1]) < 1e-15
    with pytest.raises(ValueError):
        fib.elliptic_family(1.0 - 0.5j)


def test_elliptic_family_makes_one_jet_call_per_slice(monkeypatch):
    # The four fiber points of a slice are one stack; the potential form at
    # zeta0 is its first entry, equal to a jet call at that point alone.
    calls = []
    model = fib.elliptic_model()

    def counted(t, pts):
        calls.append(np.shape(pts))
        return model.second(t, pts)

    monkeypatch.setattr(fib, "elliptic_model",
                        lambda grid=64: dataclasses.replace(model, second=counted))
    slc = fib.elliptic_family(0.3 + 1.7j)
    assert calls == [(1, 4)]
    alone = fib.form_matrix(*model.second(0.3 + 1.7j, np.array([[0.37 + 0.41j]])))[:, :, 0]
    assert np.array_equal(slc.potential_form, alone)


def _elliptic_slice_by_point(t):
    """The per-slice `elliptic_family` that `elliptic_slices` stacks: the
    model and the seeded fiber points built per slice, one jet call on them."""
    t = complex(t)
    d = t - np.conj(t)
    a = (1j - np.conj(t)) / d
    b = (t - 1j) / d
    a_t, a_tb = -a / d, (1j - t) / d**2
    b_t, b_tb = (1j - np.conj(t)) / d**2, (t - 1j) / d**2

    def pullback_at(zeta):
        p = a_t * zeta + b_t * np.conj(zeta)
        q = a_tb * zeta + b_tb * np.conj(zeta)
        h = np.array([
            [p * np.conj(p) - q * np.conj(q), p * np.conj(a) - b * np.conj(q)],
            [a * np.conj(p) - q * np.conj(b), a * np.conj(a) - b * np.conj(b)],
        ])
        return h, abs(p * np.conj(b) - a * np.conj(q))

    rng = np.random.default_rng(2)
    zetas = [0.37 + 0.41j] + list(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    h_pot = np.moveaxis(fib.form_matrix(*fib.elliptic_model().second(t, np.array([zetas]))),
                        -1, 0)
    h_pull, type_parts = zip(*map(pullback_at, zetas))
    return fib.EllipticSlice(t=t, map_coefficients=(a, b), potential_form=h_pot[0],
                             pullback_form=h_pull[0],
                             agreement=float(np.max(np.abs(h_pot - np.stack(h_pull)))),
                             type_residual=max(type_parts),
                             fiber_coefficient=float(h_pot[0, 1, 1].real),
                             top_power=float(np.max(np.abs(np.linalg.det(np.stack(h_pull))))))


def test_stacked_elliptic_slices_equal_the_per_slice_loop():
    # The suite's draws at one seed: its stacked slices and c against the
    # per-slice loop they replaced.
    rng = np.random.default_rng([3, 6])
    ts, pts = [], []
    for _ in range(10):
        ts.append(rng.uniform(-1.5, 1.5) + 1j * rng.uniform(0.3, 3.0))
        pts.append(rng.standard_normal((1, 8)) + 1j * rng.standard_normal((1, 8)))
    model = fib.elliptic_model()
    c = fib.evaluate_fields(model, np.array(ts)[:, None], np.stack(pts, axis=1)).c
    for i, (t, slc) in enumerate(zip(ts, fib.elliptic_slices(ts))):
        one = _elliptic_slice_by_point(t)
        for f in dataclasses.fields(one):
            assert np.array_equal(getattr(slc, f.name), getattr(one, f.name)), f.name
        assert np.array_equal(c[i], fib.evaluate_fields(model, t, pts[i]).c)


# Every family, with parameters off their defaults where the family has any.
JET_CASES = [
    ("product", {}), ("product", {"base_weight": 0.0}), ("product", {"base_weight": 2.5}),
    ("vertical", {}),
    ("cross", {}), ("cross", {"lam": 0.123}), ("cross", {"lam": -0.7}),
    ("elliptic", {}), ("theta-weight", {}),
    ("perturbed-torus", {}), ("perturbed-torus", {"eps": 0.05}),
    ("perturbed-torus", {"eps": 0.3}), ("perturbed-torus", {"eps": -0.11}),
]


def test_jet_cases_cover_every_family():
    assert {family for family, _ in JET_CASES} == set(fib.MODEL_FAMILIES)


@pytest.mark.parametrize("case", range(len(JET_CASES)))
def test_closed_form_jets_match_sympy(case):
    family, params = JET_CASES[case]
    hand = fib.MODEL_FAMILIES[family](**params)
    second, third, metric_t = sym.compile_jets(sym.family_potential(family, **params))
    rng = np.random.default_rng([13, case])
    for _ in range(6):
        t = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 3.0))
        pts = 1.5 * (rng.standard_normal((1, 9)) + 1j * rng.standard_normal((1, 9)))
        got = hand.second(t, pts) + hand.third(t, pts) + hand.metric_t(t, pts)
        want = second(t, pts) + third(t, pts) + metric_t(t, pts)
        for name, g, w in zip(("bb", "bf", "ff", "bff", "fff", "ff_t", "ff_ttb", "ff_tb"),
                              got, want):
            assert g.shape == w.shape and g.dtype == w.dtype, name
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), (name, t)


@st.composite
def _stacked_base_points(draw):
    case = draw(st.integers(0, len(JET_CASES) - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 6))
    ts = rng.uniform(-1.5, 1.5, count) + 1j * rng.uniform(0.3, 3.0, count)
    pts = 1.5 * (rng.standard_normal((1, count)) + 1j * rng.standard_normal((1, count)))
    return case, ts, pts


@settings(max_examples=60, deadline=None)
@given(_stacked_base_points())
def test_stacked_t_jets_equal_per_t_calls(case):
    # One base point per fiber point, in one call, against one call per t,
    # exactly, with t a one-element stack and with t a Python scalar (the
    # jets read a scalar t as a one-element stack, so both go through
    # numpy's array arithmetic).
    index, ts, pts = case
    family, params = JET_CASES[index]
    model = fib.MODEL_FAMILIES[family](**params)
    def jets(tv, p):
        return model.second(tv, p) + model.third(tv, p) + model.metric_t(tv, p)

    stacked = jets(ts, pts)
    for i, t in enumerate(ts):
        one = pts[:, i:i + 1]
        single = jets(ts[i:i + 1], one)
        scalar = jets(complex(t), one)
        for got, want, same in zip(stacked, single, scalar):
            assert got.shape[:-1] == want.shape[:-1] == same.shape[:-1]
            assert np.array_equal(got[..., i:i + 1], want), (family, params)
            assert np.array_equal(want, same), (family, params)


@pytest.mark.parametrize("path_of", [geo.hermitian_geodesic, geo.linear_hermitian_path])
def test_hermitian_path_metric_t_matches_t_stencils(path_of):
    # ff = A(Re tau): its tau-derivatives against Richardson stencils of ff in tau.
    from pklab import _fd

    a0 = np.array([[2.0, 0.4 + 0.1j], [0.4 - 0.1j, 1.0]])
    a1 = np.array([[1.0, -0.3j], [0.3j, 2.5]])
    model = fib.hermitian_quadratic_model(path_of(a0, a1), 2)
    t, h = 0.45, 1e-3
    pts = np.array([[0.3 + 0.1j, -0.2j], [0.5, 0.1 - 0.4j]])
    ff_t, ff_ttb, ff_tb = model.metric_t(t, pts)
    stencil = _fd.xy_points(np.array([t + 0j]), 0, h)[:, 0]
    ff = np.stack([model.second(p, pts)[2] for p in stencil])
    assert np.max(np.abs(ff_t - _fd.xy_combine(ff, False, h))) < 1e-9
    ff0 = model.second(t, pts)[2]
    lap = [0.25 * (v[0] + v[1] + v[2] + v[3] - 4 * ff0) / step**2
           for v, step in ((ff[:4], h), (ff[4:], h / 2))]
    assert np.max(np.abs(ff_ttb - (4 * lap[1] - lap[0]) / 3)) < 1e-6
    assert ff_tb.shape == (2, 2, 2, 2) and not ff_tb.any()
    stacked = model.metric_t(np.array([t, 0.62]), pts)
    for got, want in zip(stacked, (ff_t, ff_ttb, ff_tb)):
        assert np.array_equal(got[..., :1], want[..., :1])


def test_hermitian_path_jets_evaluate_the_path_once_per_distinct_t():
    a0 = np.array([[2.0, 0.4 + 0.1j], [0.4 - 0.1j, 1.0]])
    a1 = np.array([[1.0, -0.3j], [0.3j, 2.5]])
    path = geo.linear_hermitian_path(a0, a1)
    calls = []

    def logged(x):
        calls.append(x)
        return path(x)

    model = fib.hermitian_quadratic_model(logged, 2)
    ts = np.array([0.3, 0.62, 0.3, 0.62, 0.45])
    pts = np.arange(10).reshape(2, 5) * (0.1 + 0.2j)
    stacked = model.second(ts, pts)
    assert sorted(calls) == [0.3, 0.45, 0.62]
    for i, t in enumerate(ts):
        for got, want in zip(stacked, model.second(t, pts[:, i:i + 1])):
            assert np.array_equal(got[..., i:i + 1], want)


def test_schumacher_makes_one_jet_call_per_kind_in_the_bracket_check(monkeypatch):
    calls = {"second": 0, "third": 0}
    check = fib.bracket_mixed_check

    def counted_check(model, t, zeta):
        def counted(kind):
            jet = getattr(model, kind)

            def call(tv, pts):
                calls[kind] += 1
                return jet(tv, pts)

            return call

        return check(dataclasses.replace(model, second=counted("second"),
                                         third=counted("third")), t, zeta)

    monkeypatch.setattr(fib, "bracket_mixed_check", counted_check)
    assert cli.run_suite(cli.SuiteConfig(suite="schumacher")).passed
    assert calls == {"second": 1, "third": 1}


def test_bracket_check_equals_the_per_point_stencils():
    # The per-point stencils of the scalar-t lift and c it replaced.
    from pklab import _fd

    model, t, zeta = PERTURBED32, 0.3 + 1.2j, np.array([0.23 + 0.11j])
    z0 = np.concatenate([[t], zeta])

    def comps(z):
        u = fib.evaluate_fields(model, complex(z[0]), z[1:].reshape(-1, 1)).lifts
        return np.concatenate([[1.0 + 0j], -u[:, 0]])

    def c_fn(z):
        return complex(fib.evaluate_fields(model, complex(z[0]), z[1:].reshape(-1, 1)).c[0])

    def wirtinger(f, idx, bar):
        values = np.stack([f(p) for p in _fd.xy_points(z0, idx, fib.FD_STEP)])
        return _fd.xy_combine(values, bar, fib.FD_STEP)

    v0 = comps(z0)
    part01 = sum(v0[b] * wirtinger(lambda z: comps(z).conj(), b, False) for b in range(2))
    part10 = sum(-v0[b].conj() * wirtinger(comps, b, True) for b in range(2))
    h = fib.form_matrix(*model.second(t, zeta.reshape(-1, 1)))[:, :, 0]
    lhs10 = h[0, 1] * part10[0] + h[1, 1] * part10[1]
    lhs01 = -(h[1, 0] * part01[0] + h[1, 1] * part01[1])
    contraction = max(abs(lhs10 - wirtinger(c_fn, 1, True)),
                      abs(lhs01 - wirtinger(c_fn, 1, False)))
    rep = fib.bracket_mixed_check(model, t, zeta)
    assert rep.verticality_residual == max(abs(part01[0]), abs(part10[0]))
    assert rep.contraction_residual == contraction


def test_positivity_error():
    _, _, zs, zbs = sym.symbols(1)
    bad = sym.model(-zs[0] * zbs[0], "bad")
    with pytest.raises(fib.PositivityError):
        fib.fiber_state(bad, 0.1)
    with pytest.raises(fib.PositivityError):
        fib.check_positivity(bad, 0.1)
    fib.check_positivity(PERTURBED32, 0.3 + 1.2j)


def test_one_dimensional_fiber_inverse_and_determinant():
    # The 1 x 1 path (reciprocal, the entry itself) against the stacked
    # LAPACK path it bypasses.
    rng = np.random.default_rng(12)
    ff = (rng.uniform(0.1, 2.0, (1, 1, 50)) + 1j * rng.uniform(-1.0, 1.0, (1, 1, 50)))
    moved = np.moveaxis(ff, (0, 1), (-2, -1))
    inverse = np.moveaxis(np.linalg.inv(moved), (-2, -1), (0, 1))
    assert np.max(np.abs(fib._invert_ff(ff) - inverse)) <= 1e-15 * np.max(np.abs(inverse))
    assert np.array_equal(fib._det_ff(ff), ff[0, 0])
    assert np.max(np.abs(fib._det_ff(ff) - np.linalg.det(moved))) <= 1e-15 * np.max(np.abs(ff))
    ff[0, 0, 7] = -0.5 + 3.0j
    with pytest.raises(fib.PositivityError):
        fib._invert_ff(ff)


def test_spectral_fiber_quadrature_and_derivatives():
    fiber = fib.SpectralFiber(np.array([[1.0], [1j]]), 32)
    assert fiber.covolume == pytest.approx(1.0)
    x = fiber.points_grid[0].real
    y = fiber.points_grid[0].imag
    f = np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)
    # d/dz = (d/dx - i d/dy)/2 reproduced spectrally.
    expect = 0.5 * (-2 * np.pi * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
                    - 1j * 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))
    assert np.max(np.abs(fiber.d_z(f, 0) - expect)) < 1e-10
    assert abs(fiber.integrate_lebesgue(f)) < 1e-12
    assert fiber.integrate_lebesgue(np.ones_like(f)).real == pytest.approx(1.0)


def _torus_trig_polynomial(tau, size):
    """A trig polynomial on C/(Z + tau Z) and its exact Wirtinger derivatives.

    With z = a + b tau, f = cos(2 pi a) sin(4 pi b) + sin(2 pi (a + b)).
    Returns the fiber, f and its d_z, d_zbar, d_z d_zbar and d_zbar d_zbar."""
    fiber = fib.SpectralFiber(np.array([[1.0], [tau]]), size)
    z = fiber.points_grid[0]
    b = z.imag / tau.imag
    a = z.real - tau.real * b
    # a and b are real-affine in (z, zbar): their Wirtinger derivatives.
    b_z, b_zb = 1.0 / (2j * tau.imag), -1.0 / (2j * tau.imag)
    a_z, a_zb = 0.5 - tau.real * b_z, 0.5 - tau.real * b_zb
    k = 2.0 * np.pi
    f = np.cos(k * a) * np.sin(2 * k * b) + np.sin(k * (a + b))
    f_a = -k * np.sin(k * a) * np.sin(2 * k * b) + k * np.cos(k * (a + b))
    f_b = 2 * k * np.cos(k * a) * np.cos(2 * k * b) + k * np.cos(k * (a + b))
    f_aa = -k * k * np.cos(k * a) * np.sin(2 * k * b) - k * k * np.sin(k * (a + b))
    f_ab = -2 * k * k * np.sin(k * a) * np.cos(2 * k * b) - k * k * np.sin(k * (a + b))
    f_bb = -4 * k * k * np.cos(k * a) * np.sin(2 * k * b) - k * k * np.sin(k * (a + b))

    def second(u, v):        # D_u D_v f for affine (a, b) with derivatives u, v
        return f_aa * u[0] * v[0] + f_ab * (u[0] * v[1] + u[1] * v[0]) + f_bb * u[1] * v[1]

    z_, zb_ = (a_z, b_z), (a_zb, b_zb)
    return (fiber, f, f_a * a_z + f_b * b_z, f_a * a_zb + f_b * b_zb,
            second(z_, zb_), second(zb_, zb_))


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j, -0.45 + 0.8j])
def test_fourier_multipliers_match_exact_derivatives(tau):
    fiber, f, f_z, f_zb, f_zzb, f_zbzb = _torus_trig_polynomial(tau, 32)
    scale = np.max(np.abs(f_zbzb))
    assert np.max(np.abs(fiber.d_z(f, 0) - f_z)) < 1e-12 * scale
    assert np.max(np.abs(fiber.d_zbar(f, 0) - f_zb)) < 1e-12 * scale
    mixed = fiber.second(f, fiber.symbol_z, fiber.symbol_zbar)
    bars = fiber.second(f, fiber.symbol_zbar, fiber.symbol_zbar)
    assert mixed.shape == bars.shape == (1, 1) + f.shape
    assert np.max(np.abs(mixed[0, 0] - f_zzb)) < 1e-12 * scale
    assert np.max(np.abs(bars[0, 0] - f_zbzb)) < 1e-12 * scale
    # The fused second derivatives against the nested first derivatives,
    # and a stack of functions against each function.
    nested = fiber.d_z(fiber.d_zbar(f, 0), 0)
    assert np.max(np.abs(mixed[0, 0] - nested)) < 1e-12 * scale
    assert np.max(np.abs(bars[0, 0] - fiber.d_zbar(fiber.d_zbar(f, 0), 0))) < 1e-12 * scale
    stack = np.stack([f, 2.0 * f_z, f.conj()])
    assert np.array_equal(fiber.d_zbar(stack, 0)[1], fiber.d_zbar(2.0 * f_z, 0))
    fused = fiber.second(stack, fiber.symbol_z, fiber.symbol_zbar)
    assert fused.shape == (1, 1, 3) + f.shape
    for i in range(3):
        assert np.array_equal(fused[0, 0, i], fiber.second(stack[i], fiber.symbol_z,
                                                           fiber.symbol_zbar)[0, 0])


def test_stacked_bochner_checks_equal_each_potential():
    state = fib.fiber_state(ELLIPTIC32, 1j)
    xg = state.spectral.points_grid[0]
    c = np.random.default_rng(8).standard_normal((4, 2))[:, :, None, None]
    phi = c[:, 0] * np.cos(2 * np.pi * xg.real) + c[:, 1] * np.sin(2 * np.pi * (xg.real + xg.imag))
    kphi = fib.kappa_phi(state, phi)
    nk, nb, _ = fib.bkn_identity_check(state, phi, kphi)
    pair = fib.kappa_phi_pairing(state, kphi)
    assert nk.shape == nb.shape == pair.shape == (4,)
    for i in range(4):
        one_kphi = fib.kappa_phi(state, phi[i])
        one_k, one_b, _ = fib.bkn_identity_check(state, phi[i], one_kphi)
        assert one_k == nk[i] and one_b == nb[i]
        assert fib.kappa_phi_pairing(state, one_kphi) == pair[i]


def test_elliptic_family_transforms_the_bochner_stack_twice(monkeypatch):
    # One fftn of the ten potentials for their variation tensors and one for
    # their Laplacians; a pair of first derivatives per Wirtinger derivative
    # took 120.
    from pklab import cli

    calls = []
    fftn = np.fft.fftn

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return fftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fftn", counted)
    assert cli.run_suite(cli.SuiteConfig(suite="elliptic-family", n=2, samples=20)).passed
    assert calls == [(10, 64, 64)] * 2
