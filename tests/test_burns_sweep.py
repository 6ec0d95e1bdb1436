"""The batched `burns_bounds` sweep against the sequential loops it replaced.

`sequential_burns_bounds` is the per-basepoint, per-sample loop with scalar
pairings, a Python sum for each Ricci trace, one `curvature_fd_along` call
per oracle line, a `metric_closedness` call of its own and one halving
Armijo search per ascent, whose direction solves the metric.  The batched sweep must reproduce its draws, its records
and its witness, and every lockstep ascent must take the steps of its
sequential ascent.  `full_ladder_ascent` is the lockstep loop that evaluated
every Armijo rung of every search; the on-demand rungs must reproduce its
values and steps bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from pklab import kns
from pklab import wpcurv as wp


def closedness_input(n, seed):
    """A (basepoint, pairs) input of the metric-closedness record."""
    rng = np.random.default_rng(seed)
    nsym = kns.sym_dim(n)
    point = kns.random_bsd_point(n, rng, 0.5)
    return point, rng.standard_normal((wp.CLOSEDNESS_PAIRS, 2, nsym)) + 1j * rng.standard_normal(
        (wp.CLOSEDNESS_PAIRS, 2, nsym))


def unit_vector(g, raw):
    return raw / np.sqrt(wp.df_inner(g, raw, raw).real)[..., None]


def ascent_direction(curv, g, xi):
    """The G-steepest ascent direction of hsc at xi, by a solve with conj(G)."""
    bx, bxb = wp._halves(curv.b, xi)
    p = bx @ bxb
    w = bx @ curv.b.conj()
    tr_p = np.trace(p).real
    m = tr_p * (p @ w) - np.trace(p @ p).real * w
    grad = -4.0 * np.einsum("ab,jba->j", m, curv.basis) / tr_p ** 3
    return np.linalg.solve(g.conj(), grad), grad


def sequential_ascent(curv, xi):
    """One ascent, one rung per hsc evaluation: (final hsc, steps taken)."""
    g = curv.metric()
    value = curv.hsc(xi)
    t = 1.0
    steps = 0
    for _ in range(wp.ASCENT_ITERATIONS):
        direction, grad = ascent_direction(curv, g, xi)
        slope = 2.0 * np.real(np.vdot(grad, direction))
        if slope <= 1e-14:
            break
        while t > 1e-12 and curv.hsc(xi + t * direction) < value + 0.25 * t * slope:
            t /= 2.0
        if t <= 1e-12:
            break
        xi = unit_vector(g, xi + t * direction)
        value = curv.hsc(xi)
        t = 2.0 * t
        steps += 1
    return float(value), steps


def full_ladder_ascent(curv, starts):
    """`wp.hsc_ascent` with the whole rung ladder of every search evaluated
    at once, as one (rungs, starts, n) stack per iteration."""
    lam = np.linalg.svd(curv.transport(starts), compute_uv=False) ** 2
    shape = lam.shape[:-1]
    lam = lam.reshape(-1, lam.shape[-1])
    halves = 0.5 ** np.arange(2 + int(np.log2(2.0 ** wp.ASCENT_ITERATIONS / 1e-12)))
    t, steps, running = np.ones(len(lam)), np.zeros(len(lam), dtype=int), np.ones(len(lam), bool)
    for _ in range(wp.ASCENT_ITERATIONS):
        value, v = wp._spectral_step(lam)
        slope = 2.0 * np.sum(lam * v * v, axis=-1)
        running &= slope > 1e-14
        if not running.any():
            break
        r = halves[:, None] * t
        moved = wp._spectrum_along(lam, v, r)
        rise = -2.0 * np.sum(moved * moved, axis=-1) / np.sum(moved, axis=-1) ** 2
        passed = ~(rise < value + 0.25 * r * slope) & running & (r > 1e-12)
        found = passed.any(axis=0)
        accepted = np.where(found, t * halves[passed.argmax(axis=0)], 0.0)
        running &= found
        moved = wp._spectrum_along(lam, v, accepted)
        lam = np.where(found[:, None], moved / np.sum(moved, axis=-1, keepdims=True), lam)
        t = np.where(found, 2.0 * accepted, t)
        steps += found
    else:
        value = wp._spectral_step(lam)[0]
    return value.reshape(shape), steps.reshape(shape)


def sequential_burns_bounds(n, samples, seed, closedness, radius=0.75, step=wp.LINE_STEP):
    nsym = kns.sym_dim(n)
    rng = np.random.default_rng(seed)
    ascent_rng = np.random.default_rng([seed, 1])
    n_base = max(1, samples // 10)
    per_base = -(-samples // n_base)
    field_, gram_at = wp.metric_field(n, degree=1)

    max_hsc = max_bis = max_paired = max_ric = max_ascent = -np.inf
    max_metric = max_pairing = max_einstein = max_sharp = 0.0
    witness: dict = {}
    done = 0
    for base in range(n_base):
        if done >= samples:
            break
        bp = kns.random_bsd_point(n, rng, radius)
        tensor = wp.ClosedFormCurvature(bp.phi)
        g = tensor.metric()
        coords = kns.coords_from_sym(bp.phi)
        higgs = gram_at(coords)
        max_metric = max(max_metric, float(np.max(np.abs(g - higgs))))
        max_sharp = max(max_sharp, abs(tensor.hsc(tensor.sharp_direction()) + 2.0 / n))
        starts = (ascent_rng.standard_normal((wp.ASCENT_STARTS, nsym))
                  + 1j * ascent_rng.standard_normal((wp.ASCENT_STARTS, nsym)))
        max_ascent = max([max_ascent] + [sequential_ascent(tensor, x)[0] for x in starts])
        onb = np.linalg.inv(np.linalg.cholesky(g.T)).conj().T
        for k in range(per_base):
            if done >= samples:
                break
            xi = unit_vector(g, rng.standard_normal(nsym) + 1j * rng.standard_normal(nsym))
            eta = unit_vector(g, rng.standard_normal(nsym) + 1j * rng.standard_normal(nsym))
            hsc = tensor.pair(xi, xi).real
            bis = tensor.pair(xi, eta).real
            paired_excess = bis + (2.0 / n) * abs(wp.df_inner(g, eta, xi)) ** 2
            ric = sum(tensor.pair(xi, onb[:, a]).real for a in range(nsym))
            if hsc > max_hsc:
                max_hsc = hsc
                witness = {"basepoint": bp.phi.tolist(), "xi": xi.tolist()}
            max_bis = max(max_bis, bis)
            max_paired = max(max_paired, paired_excess)
            max_ric = max(max_ric, ric)
            max_einstein = max(max_einstein, abs(ric + (n + 1)))
            if k == 0 and base < wp.ORACLE_BASEPOINTS:
                for direction in (xi, eta):
                    oracle = wp.curvature_fd_along(field_, coords, higgs, xi, direction, step)
                    max_pairing = max(max_pairing, abs(tensor.pair(xi, direction) - oracle))
            done += 1
    return wp.BoundsReport(n=n, samples=done, max_hsc=float(max_hsc),
                           max_bisectional=float(max_bis),
                           max_paired_bisectional_excess=float(max_paired),
                           max_ricci=float(max_ric), worst_hsc_witness=witness,
                           max_metric_error=float(max_metric),
                           max_pairing_error=float(max_pairing),
                           max_einstein_defect=float(max_einstein),
                           max_sharpness_defect=float(max_sharp),
                           max_ascent_hsc=float(max_ascent),
                           metric_closedness=wp.metric_closedness(*closedness))


RECORDS = ["max_hsc", "max_bisectional", "max_paired_bisectional_excess", "max_ricci",
           "max_metric_error", "max_pairing_error", "max_einstein_defect",
           "max_sharpness_defect", "max_ascent_hsc", "metric_closedness"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("samples", [1, 7, 40, 45])
def test_batched_sweep_matches_the_sequential_loop(n, samples):
    for seed in range(10):
        closedness = closedness_input(n, seed)
        batched = wp.burns_bounds(n, samples=samples, seed=seed, closedness=closedness)
        reference = sequential_burns_bounds(n, samples=samples, seed=seed, closedness=closedness)
        assert (batched.n, batched.samples) == (reference.n, reference.samples) == (n, samples)
        for name in RECORDS:
            assert getattr(batched, name) == pytest.approx(getattr(reference, name),
                                                           abs=1e-10), (seed, name)
        got, want = batched.worst_hsc_witness, reference.worst_hsc_witness
        assert got["basepoint"] == want["basepoint"]
        assert np.max(np.abs(np.array(got["xi"]) - np.array(want["xi"]))) < 1e-10


@pytest.mark.parametrize("bases", [1, 2, 4, 64])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_lockstep_ascents_take_the_sequential_steps(n, bases):
    # The lockstep ascent evaluates every rung of a search at once from the
    # closed-form step, on stacks of 1 to 64 basepoints whose ascents stop at
    # different times; the sequential one halves one rung at a time along a
    # direction solved from the metric.  Both must take the same steps.
    rng = np.random.default_rng(90 + n)
    nsym = kns.sym_dim(n)
    phi = np.stack([kns.random_bsd_point(n, rng, 0.75).phi for _ in range(bases)])
    starts = (rng.standard_normal((bases, wp.ASCENT_STARTS, nsym))
              + 1j * rng.standard_normal((bases, wp.ASCENT_STARTS, nsym)))
    curv = wp.ClosedFormCurvature(phi[:, None])
    values, steps = wp.hsc_ascent(curv, starts)
    assert values.shape == steps.shape == (bases, wp.ASCENT_STARTS)
    for base in range(bases):
        single = wp.ClosedFormCurvature(phi[base])
        for s in range(wp.ASCENT_STARTS):
            value, count = sequential_ascent(single, starts[base, s])
            assert steps[base, s] == count
            assert values[base, s] == pytest.approx(value, abs=1e-12)
    # At n = 1 every direction has hsc = -2, so no ascent moves.
    assert steps.min() > 0 if n > 1 else steps.max() == 0


def test_closed_form_curvature_broadcasts_over_basepoints():
    rng = np.random.default_rng(95)
    n, nsym = 3, kns.sym_dim(3)
    phi = np.stack([kns.random_bsd_point(n, rng, 0.75).phi for _ in range(5)])
    xi = rng.standard_normal((5, nsym)) + 1j * rng.standard_normal((5, nsym))
    eta = rng.standard_normal((5, 2, nsym)) + 1j * rng.standard_normal((5, 2, nsym))
    stacked = wp.ClosedFormCurvature(phi[:, None])
    pairs = stacked.pair(xi[:, None], eta)
    metric, hsc, sharp = stacked.metric(), stacked.hsc(xi[:, None]), stacked.sharp_direction()
    assert pairs.shape == (5, 2) and hsc.shape == (5, 1) and sharp.shape == (5, 1, nsym)
    for i in range(5):
        single = wp.ClosedFormCurvature(phi[i])
        assert np.max(np.abs(metric[i, 0] - single.metric())) < 1e-14
        assert hsc[i, 0] == pytest.approx(single.hsc(xi[i]), abs=1e-14)
        assert np.max(np.abs(sharp[i, 0] - single.sharp_direction())) < 1e-14
        for k in range(2):
            assert pairs[i, k] == pytest.approx(single.pair(xi[i], eta[i, k]), abs=1e-13)


def test_pairing_stack_in_blocks_matches_one_block(monkeypatch):
    # A one-byte budget runs one basepoint per block, evaluates the pairing
    # stack one sample per block and the oracle one line per call.
    closedness = closedness_input(3, 4)
    whole = wp.burns_bounds(3, samples=23, seed=4, closedness=closedness)
    monkeypatch.setattr(wp, "GRAM_BLOCK_BYTES", 1)
    blocked = wp.burns_bounds(3, samples=23, seed=4, closedness=closedness)
    for name in RECORDS:
        assert getattr(blocked, name) == pytest.approx(getattr(whole, name), abs=1e-12), name
    assert blocked.worst_hsc_witness == whole.worst_hsc_witness


def seeded_ascents(n, bases, seed, scale=1.0):
    """A curvature stack of `bases` basepoints and ASCENT_STARTS starts each,
    the starts multiplied by `scale`."""
    rng = np.random.default_rng(seed)
    nsym = kns.sym_dim(n)
    phi = np.stack([kns.random_bsd_point(n, rng, 0.75).phi for _ in range(bases)])
    starts = scale * (rng.standard_normal((bases, wp.ASCENT_STARTS, nsym))
                      + 1j * rng.standard_normal((bases, wp.ASCENT_STARTS, nsym)))
    return wp.ClosedFormCurvature(phi[:, None]), starts


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_rungs_on_demand_reproduce_the_full_ladder(n, scale):
    # Evaluating rungs RUNG_CHUNK at a time, from the top, until every open
    # search has passed, changes no value and no step: equal bit for bit.
    for bases, seed in ((1, 200 + n), (4, 210 + n), (40, 220 + n)):
        curv, starts = seeded_ascents(n, bases, seed, scale)
        values, steps = wp.hsc_ascent(curv, starts)
        want_values, want_steps = full_ladder_ascent(curv, starts)
        assert np.array_equal(values, want_values) and np.array_equal(steps, want_steps)


def test_small_starts_search_past_the_first_chunk(monkeypatch):
    # Starts of length 1e-3 make the first trial steps 1e6 times too long,
    # so their searches read rungs beyond the first RUNG_CHUNK; the lockstep
    # ascent must still take the steps of the sequential one.
    n, bases = 3, 4
    curv, starts = seeded_ascents(n, bases, 230, 1e-3)
    calls = []
    spectrum_along = wp._spectrum_along

    def counted(lam, v, r):
        calls.append(np.ndim(r))
        return spectrum_along(lam, v, r)

    monkeypatch.setattr(wp, "_spectrum_along", counted)
    values, steps = wp.hsc_ascent(curv, starts)
    # One accepted step (r of one axis) per iteration; more rung passes
    # (r of two axes) than iterations means some search went past a chunk.
    assert calls.count(2) > calls.count(1)
    for base in range(bases):
        single = wp.ClosedFormCurvature(curv.phi[base, 0])
        for s in range(wp.ASCENT_STARTS):
            value, count = sequential_ascent(single, starts[base, s])
            assert steps[base, s] == count
            assert values[base, s] == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_closedness_in_the_oracle_pass_equals_metric_closedness(n):
    # burns_bounds evaluates the closedness rows with the line oracle's, in
    # one metric_rows call; the record equals metric_closedness bit for bit,
    # and no other record depends on the closedness input.
    point, pairs = closedness_input(n, 240 + n)
    fused = wp.burns_bounds(n, samples=23, seed=n, closedness=(point, pairs))
    assert fused.metric_closedness == wp.metric_closedness(point, pairs)
    other = wp.burns_bounds(n, samples=23, seed=n, closedness=closedness_input(n, 250 + n))
    assert other.metric_closedness != fused.metric_closedness
    assert dataclasses.replace(other, metric_closedness=fused.metric_closedness) == fused
