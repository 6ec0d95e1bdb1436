"""Projectivized bundle forms: flat models, falsifiers, fiber restriction."""

import numpy as np
import pytest

from pklab import projbundle as pb


def rand_pd(rng, r):
    g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    return g @ g.conj().T + 0.5 * np.eye(r)


def test_flat_trivial_fubini_study():
    model = pb.constant_model(np.eye(2))
    w = 0.7 - 0.3j
    omega = pb.pk_form(model, 0.2, np.array([1.0, w]))
    assert omega[1, 1].real == pytest.approx(1.0 / (1.0 + abs(w) ** 2) ** 2)
    assert abs(omega[0, 0]) < 1e-14 and abs(omega[0, 1]) < 1e-14
    assert pb.pk_top_power(pb.pk_form(model, 0.2, np.array([1.0, w]))) < 1e-14


def test_twisted_family_is_projectively_flat():
    rng = np.random.default_rng(0)
    model = pb.twisted_model(np.eye(2))
    for _ in range(20):
        t = rng.standard_normal() + 1j * rng.standard_normal()
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v[0] = 1.0
        assert pb.projective_flatness_residual(model, t) < 1e-12
        omega = pb.pk_form(model, t, v)
        assert pb.pk_top_power(omega) < 1e-10
        assert pb.fiber_positivity_margin(omega) > 0


def test_twisted_curvature_is_identity_times_form():
    # Weight |t|^2 has curvature equal to the metric itself (coefficient one).
    model = pb.twisted_model(np.eye(3), weight=1.0)
    h, _, _ = model.jets(0.37 + 0.21j)
    assert np.max(np.abs(pb.chern_curvature(model, 0.37 + 0.21j) - h)) < 1e-12
    assert pb.ricci(model, 0.37 + 0.21j).real == pytest.approx(3.0)


def test_split_model_falsifies():
    model = pb.split_twist_model([1.0, 2.0])
    assert pb.projective_flatness_residual(model, 0.5) > 0.1
    assert pb.pk_top_power(pb.pk_form(model, 0.5, np.array([1.0, 1.0]))) > 1e-3
    model3 = pb.split_twist_model([1.0, 2.0, 0.5])
    assert pb.projective_flatness_residual(model3, 0.5) > 0.1
    assert pb.pk_top_power(pb.pk_form(model3, 0.5, np.ones(3, dtype=complex))) > 1e-3


def test_scaled_constant_is_flat():
    rng = np.random.default_rng(1)
    model = pb.twisted_model(rand_pd(rng, 3), weight=0.6)
    assert pb.projective_flatness_residual(model, 0.8 - 0.1j) < 1e-12


def test_rank_one_always_flat():
    model = pb.twisted_model(np.eye(1), weight=2.0)
    assert pb.projective_flatness_residual(model, 0.7 + 0.4j) == 0.0


def test_fiber_fs_all_charts():
    rng = np.random.default_rng(2)
    h0 = rand_pd(rng, 3)
    for chart in range(3):
        model = pb.BundleMetricModel(r=3, jets=pb.constant_model(h0).jets,
                                     chart=chart)
        assert pb.fiber_fs_check(model, 0.1, samples=10) < 1e-10
        # Top power vanishes in every chart of a flat model.
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v[chart] = 1.0
        assert pb.pk_top_power(pb.pk_form(model, 0.1, v)) < 1e-12


def test_fiber_fs_projectively_flat_family():
    model = pb.twisted_model(np.eye(2))
    assert pb.fiber_fs_check(model, 0.3, samples=10) < 1e-10


def test_ricci_matches_log_determinant():
    from pklab import _fd

    model = pb.split_twist_model([1.0, 2.0])

    def logdet(z):
        return np.log(np.linalg.det(model.jets(z[..., 0])[0])).real

    hess = _fd.hermitian_hessian(logdet, np.array([0.5 + 0j]), step=1e-4)
    assert pb.ricci(model, 0.5).real == pytest.approx(-hess[0, 0].real, abs=1e-6)


def test_d_closedness():
    rng = np.random.default_rng(3)
    for model in (pb.twisted_model(rand_pd(rng, 2), 0.7),
                  pb.split_twist_model([1.0, 2.0])):
        res = pb.d_closedness_residual(model, 0.3 + 0.1j, np.array([1.0, 0.4 - 0.2j]))
        assert res < 1e-6


def test_form_is_hermitian():
    rng = np.random.default_rng(4)
    model = pb.split_twist_model([1.0, 2.0, 0.5])
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    v[0] = 1.0
    omega = pb.pk_form(model, 0.4 + 0.3j, v)
    assert np.max(np.abs(omega - omega.conj().T)) < 1e-12


def test_chart_exclusion():
    model = pb.constant_model(np.eye(2))
    with pytest.raises(pb.ChartError):
        pb.pk_form(model, 0.1, np.array([0.0, 1.0]))


def pk_form_loop(model, t, v):
    """pk_form at one fiber point before stacking, entry by entry."""
    v = np.asarray(v, dtype=complex) / v[model.chart]
    h, dh, _ = model.jets(t)
    hinv = np.linalg.inv(h)
    w = h @ v.conj()
    big = complex(v @ w)
    L = h / big - np.outer(w, w.conj()) / big**2
    rmat = pb.chern_curvature(model, t)
    ric = complex(np.trace(hinv @ rmat))
    b = np.einsum("b,ga,bg->a", v, hinv, dh)
    idx = [a for a in range(model.r) if a != model.chart]
    omega = np.empty((1 + len(idx), 1 + len(idx)), dtype=complex)
    omega[0, 0] = (-np.einsum("ab,a,b->", rmat, v, v.conj()) / big + ric / model.r
                   + np.einsum("ab,a,b->", L, b, b.conj()))
    for col, nu in enumerate(idx):
        omega[0, 1 + col] = np.einsum("a,a->", L[:, nu], b)
        omega[1 + col, 0] = np.conj(omega[0, 1 + col])
    for row, mu in enumerate(idx):
        for col, nu in enumerate(idx):
            omega[1 + row, 1 + col] = L[mu, nu]
    return omega


@pytest.mark.parametrize("model", [pb.twisted_model(rand_pd(np.random.default_rng(1), 3), 0.8),
                                   pb.split_twist_model((1.0, 2.0, 0.5)),
                                   pb.constant_model(np.eye(2))])
def test_stacked_forms_match_the_point_loop(model):
    rng = np.random.default_rng(71)
    v = rng.standard_normal((5, model.r)) + 1j * rng.standard_normal((5, model.r))
    v[:, model.chart] = 1.0
    t = 0.4 - 0.7j
    omega = pb.pk_form(model, t, v)
    top = pb.pk_top_power(omega)
    margin = pb.fiber_positivity_margin(omega)
    reference = pb.fubini_study_reference(model.metric(t), v, model.chart)
    for i in range(5):
        one = pk_form_loop(model, t, v[i])
        assert np.max(np.abs(omega[i] - one)) <= 1e-14 * np.max(np.abs(one))
        assert top[i] == pytest.approx(pb.pk_top_power(one), rel=1e-12, abs=1e-15)
        assert margin[i] == pytest.approx(pb.fiber_positivity_margin(one), rel=1e-12)
        assert np.max(np.abs(reference[i] - pb.fubini_study_reference(
            model.metric(t), v[i], model.chart))) < 1e-15


def test_projbundle_suite_forms_each_point_once(monkeypatch):
    from pklab import cli

    built = []
    pk_form = pb.pk_form

    def logged(model, t, v):
        ts = np.broadcast_to(t, np.shape(v)[:-1]).ravel()
        built.extend((model.name, complex(tt), tuple(np.round(row, 14)))
                     for tt, row in zip(ts, np.reshape(v, (-1, model.r))))
        return pk_form(model, t, v)

    monkeypatch.setattr(pb, "pk_form", logged)
    assert cli.run_suite(cli.SuiteConfig(suite="projbundle", n=2, samples=20)).passed
    assert built and len(built) == len(set(built))


@pytest.mark.parametrize("model", [pb.twisted_model(rand_pd(np.random.default_rng(2), 3), 0.8),
                                   pb.split_twist_model((1.0, 2.0, 0.5)),
                                   pb.constant_model(np.eye(2))])
def test_forms_over_a_stack_of_base_points_equal_one_call_per_point(model):
    rng = np.random.default_rng(72)
    ts = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = rng.standard_normal((6, model.r)) + 1j * rng.standard_normal((6, model.r))
    v[:, model.chart] = 1.0
    stacked = pb.pk_form(model, ts, v)
    curvature = pb.chern_curvature(model, ts)
    for i in range(6):
        assert np.array_equal(stacked[i], pb.pk_form(model, ts[i:i + 1], v[i:i + 1])[0])
        assert np.array_equal(curvature[i], pb.chern_curvature(model, ts[i:i + 1])[0])
        one = pk_form_loop(model, complex(ts[i]), v[i])
        assert np.max(np.abs(stacked[i] - one)) <= 1e-14 * np.max(np.abs(one))


def test_closedness_residual_makes_one_form_call(monkeypatch):
    calls = []
    pk_form = pb.pk_form

    def counted(model, t, v):
        calls.append(np.shape(v))
        return pk_form(model, t, v)

    monkeypatch.setattr(pb, "pk_form", counted)
    model = pb.split_twist_model((1.0, 2.0, 0.5))
    assert pb.d_closedness_residual(model, 0.3 + 0.1j, np.array([1.0, 0.4, 0.4])) < 1e-6
    assert calls == [(8, 3, 3)]


@pytest.mark.parametrize("model", [pb.twisted_model(rand_pd(np.random.default_rng(5), 3), 0.8),
                                   pb.split_twist_model((1.0, 2.0, 0.5)),
                                   pb.constant_model(4.0 * np.eye(2))])
def test_normalized_model_keeps_the_form_and_scales_the_residual(model):
    # The scaling is a power of two: pk_form reads the same bits, and the
    # residual is that of the model over the power of two of max|h|.
    t = np.array([0.3 + 0.1j, -0.7j, 1.1])
    v = np.ones((3, model.r), dtype=complex)
    v[:, 1:] += 0.4 - 0.2j
    normalized = pb.normalized_model(model)
    assert np.array_equal(pb.pk_form(normalized, t, v), pb.pk_form(model, t, v))
    h = normalized.jets(t)[0]
    assert np.all((0.5 <= np.abs(h).max(axis=(-2, -1))) & (np.abs(h).max(axis=(-2, -1)) < 1.0))
    for point in t:
        scale = np.abs(model.jets(point)[0]).max() / np.abs(normalized.jets(point)[0]).max()
        assert np.log2(scale) == round(np.log2(scale))
        assert (pb.projective_flatness_residual(normalized, point) * scale
                == pb.projective_flatness_residual(model, point))


@pytest.mark.parametrize("weight", [-3000.0, -100.0, 2000.0, 3500.0])
def test_flat_form_at_the_float_range_ends(weight):
    # h = exp(-w |t|^2) I is 1e-304 to 1e260 here; H^2 would underflow or
    # overflow, but the form is read in the normalized metric.
    model = pb.twisted_model(np.eye(2), weight=weight)
    omega = pb.pk_form(model, 0.4 + 0.2j, np.array([1.0, 0.3 - 0.5j]))
    assert np.all(np.isfinite(omega)) and pb.pk_top_power(omega) < 1e-10
    assert pb.fiber_positivity_margin(omega) > 0.1


@pytest.mark.parametrize("weights", [(2500.0, 1.0), (1.0, -80.0, 0.5), (120.0, 1.0)])
def test_near_degenerate_metric_refused(weights):
    with pytest.raises(ValueError, match="det"):
        pb.split_twist_model(weights).metric(0.4 + 0.2j)


SPLIT_FAMILIES = [lambda w: (w, 1.0), lambda w: (w, 1.0, 0.5), lambda w: (w, w, 1.0),
                  lambda w: (w, 1.0, 1.0, 1.0), lambda w: (w, 0.0, -w), lambda w: (1.0, -w, 0.5)]


@pytest.mark.parametrize("family", SPLIT_FAMILIES)
def test_refused_metrics_have_an_unresolvable_form(family):
    # The spread bound refuses no metric whose non-flat form the suite's
    # top-power detector still resolves: every refused split metric has a
    # top power under 1e-8 at the suite's point.
    refused = 0
    for w in np.arange(2.0, 300.0, 0.5):
        model = pb.split_twist_model(family(w))
        try:
            model.metric(0.4 + 0.2j)
        except ValueError:
            refused += 1
            with np.errstate(all="ignore"):
                omega = pb.pk_form(model, 0.4 + 0.2j, np.ones(model.r))
            assert not pb.pk_top_power(omega) >= 1e-8, family(w)
    assert refused > 0


@pytest.mark.parametrize("weights", [(100.0, 1.0), (110.0, 1.0), (1.0, -40.0, 0.5)])
def test_metric_with_a_resolvable_top_power_accepted(weights):
    # det(h) / |h|^r of 2.5e-9, 3.4e-10 and 8e-8: above MIN_METRIC_SPREAD, and
    # the top power of the non-flat form stays above the 1e-8 threshold.
    model = pb.split_twist_model(weights)
    h = model.metric(0.4 + 0.2j)
    eig = np.linalg.eigvalsh(h)
    assert np.prod(eig / eig.max()) < 1e-7
    assert pb.pk_top_power(pb.pk_form(model, 0.4 + 0.2j, np.ones(model.r))) > 1e-8


def test_metric_with_overflowing_jets_refused():
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
        pb.twisted_model(np.eye(2), weight=-3500.0).metric(0.4 + 0.2j)
