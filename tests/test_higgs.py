"""Degree-k bundle structure: mixing field, connection split, curvature.

The five finite-difference checks read one stencil state per base point
(`HiggsField.stencil`) and take the type-preserving derivatives from frame
changes alone (`higgs._covariant`, `higgs._connection_form`).  They are
compared here with per-point nested loops of the same formulas, exactly,
and with the projector loops sum_b pi_b D(pi_b .) they replaced, to
rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pklab import cli
from pklab import higgs as hg
from pklab import _fd, kns, wedge
from pklab import symplin as sl


def field_for(n, k):
    sp = sl.standard_symplectic(n)
    j0 = sl.standard_complex_structure(n)
    frame = sl.unitary_frame(sp, j0)
    return sp, j0, frame, hg.HiggsField(sp, j0, frame, k)


def test_wedge_utilities():
    assert wedge.basis(4, 2) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    comp = wedge.compound_matrix(m, 2)
    assert comp.shape == (1, 1)
    assert comp[0, 0] == pytest.approx(np.linalg.det(m))
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    # Multiplicativity of the compound and additivity of the derivation.
    assert np.allclose(wedge.compound_matrix(a @ b, 2),
                       wedge.compound_matrix(a, 2) @ wedge.compound_matrix(b, 2))
    da = wedge.derivation_matrix(a, 2)
    db = wedge.derivation_matrix(b, 2)
    assert np.allclose(wedge.derivation_matrix(a + b, 2), da + db)
    # Derivation of a commutator matches the commutator of derivations.
    comm = a @ b - b @ a
    assert np.allclose(wedge.derivation_matrix(comm, 2), da @ db - db @ da)


def test_unit_mixing_field_at_origin():
    _, _, _, field_ = field_for(1, 1)
    frame = field_.frame_at(np.zeros(1, dtype=complex))
    # theta sends the (1,0) frame covector to its conjugate: one off-diagonal 1.
    assert np.allclose(frame.theta[0], [[0, 0], [1, 0]])
    assert np.allclose(frame.gram, np.eye(2))


def test_degree_zero_trivial():
    _, _, _, field_ = field_for(1, 0)
    frame = field_.frame_at(np.zeros(1, dtype=complex))
    assert frame.dim == 1
    assert np.max(np.abs(frame.theta[0])) == 0.0
    assert hg.adjoint_check(frame) == 0.0


def test_block_structure_n2_k2():
    # Degree 2 blocks: (2,0) -> (1,1) -> (0,2), annihilating (0,2).
    _, _, _, field_ = field_for(2, 2)
    rng = np.random.default_rng(4)
    coords = kns.coords_from_sym(kns.random_bsd_point(2, rng, 0.4).phi)
    frame = field_.frame_at(coords)
    assert set(frame.proj) == {(2, 0), (1, 1), (0, 2)}
    assert hg.type_block_residual(frame) < 1e-10
    for t in frame.theta:
        assert np.max(np.abs(t @ frame.proj[(0, 2)])) < 1e-12


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_algebraic_identities(n, k):
    _, _, _, field_ = field_for(n, k)
    rng = np.random.default_rng(9)
    for bp in [kns.BsdPoint(phi=np.zeros((n, n))), kns.random_bsd_point(n, rng, 0.5)]:
        frame = field_.frame_at(kns.coords_from_sym(bp.phi))
        assert hg.theta_square_residual(frame) < 1e-10
        assert hg.adjoint_check(frame) < 1e-10
        assert hg.type_block_residual(frame) < 1e-10


def test_adjoint_check_n3():
    _, _, _, field_ = field_for(3, 1)
    rng = np.random.default_rng(12)
    coords = kns.coords_from_sym(kns.random_bsd_point(3, rng, 0.5).phi)
    assert hg.adjoint_check(field_.frame_at(coords)) < 1e-10


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2)])
def test_connection_split(n, k):
    _, _, _, field_ = field_for(n, k)
    rng = np.random.default_rng(3)
    for bp in [kns.BsdPoint(phi=np.zeros((n, n))), kns.random_bsd_point(n, rng, 0.45)]:
        rep = hg.connection_split_check(field_.stencil(kns.coords_from_sym(bp.phi)))
        assert rep.residual < 1e-6


def test_connection_split_near_boundary():
    _, _, _, field_ = field_for(2, 1)
    rng = np.random.default_rng(23)
    bp = kns.random_bsd_point(2, rng, 0.9)
    rep = hg.connection_split_check(field_.stencil(kns.coords_from_sym(bp.phi)))
    assert rep.residual < 1e-5


def test_curvature_operator_frozen_value():
    # Independent derivation (twice: projected-derivative commutator and the
    # line-bundle weight 2(1 - |t|^2)) gives diag(+1, -1) on (dz, dzbar).
    _, _, _, field_ = field_for(1, 1)
    zero = np.zeros(1, dtype=complex)
    theta_fd = hg.curvature_operator(field_.stencil(zero))
    assert theta_fd.shape == (1, 1, 2, 2)
    assert np.allclose(theta_fd[0, 0], np.diag([1.0, -1.0]), atol=1e-8)
    frame = field_.frame_at(zero)
    assert np.allclose(hg.curvature_algebraic(frame)[0, 0], np.diag([1.0, -1.0]))


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2)])
def test_curvature_matches_algebra(n, k):
    _, _, _, field_ = field_for(n, k)
    rng = np.random.default_rng(31)
    coords = kns.coords_from_sym(kns.random_bsd_point(n, rng, 0.5).phi)
    frame = field_.frame_at(coords)
    fd = hg.curvature_operator(field_.stencil(coords))
    alg = hg.curvature_algebraic(frame)
    assert fd.shape == alg.shape == (field_.nsym, field_.nsym, frame.dim, frame.dim)
    assert np.max(np.abs(fd - alg)) < 1e-5


def test_degree_zero_curvature_zero():
    _, _, _, field_ = field_for(1, 0)
    zero = np.zeros(1, dtype=complex)
    assert np.max(np.abs(hg.curvature_operator(field_.stencil(zero)))) < 1e-12


@pytest.mark.parametrize("n,k", [(1, 1), (2, 2)])
def test_flatness_and_holomorphy(n, k):
    _, _, _, field_ = field_for(n, k)
    rng = np.random.default_rng(8)
    st = field_.stencil(kns.coords_from_sym(kns.random_bsd_point(n, rng, 0.4).phi))
    assert hg.flatness_check(st).residual < 1e-5
    assert hg.chern_compatibility_check(st) < 1e-5
    assert hg.theta_holomorphy_check(st) < 1e-5


def test_degree_out_of_range():
    sp = sl.standard_symplectic(1)
    j0 = sl.standard_complex_structure(1)
    frame = sl.unitary_frame(sp, j0)
    with pytest.raises(ValueError):
        hg.HiggsField(sp, j0, frame, 3)


def test_boundary_guard():
    _, _, _, field_ = field_for(1, 1)
    with pytest.raises(kns.BoundaryProximityError):
        field_.frame_at(np.array([1.0 + 0j]))


# ---------------------------------------------------------------------------
# Per-point oracles: nested loops, one stencil point per field call, with a
# point memo.  `PointField` differentiates the type projectors,
# sum_b pi_b D(pi_b .); `FramePointField` uses the frame-only formulas of the
# batched checks.
# ---------------------------------------------------------------------------

def _wirtinger(f, z, idx, bar, step=1e-3):
    """Central x/y differences with one Richardson step, point by point."""

    def shifted(delta):
        w = np.array(z, dtype=complex)
        w[idx] += delta
        return np.asarray(f(w))

    def estimate(h):
        dx = (shifted(h) - shifted(-h)) / (2.0 * h)
        dy = (shifted(1j * h) - shifted(-1j * h)) / (2.0 * h)
        return 0.5 * (dx + 1j * dy) if bar else 0.5 * (dx - 1j * dy)

    coarse, fine = estimate(step), estimate(step / 2.0)
    return (4.0 * fine - coarse) / 3.0


class PointField:
    """A HiggsField read one point at a time through a per-point memo."""

    def __init__(self, field_):
        self.field = field_
        self.nsym = field_.nsym
        self.memo = {}

    def _value(self, kind, c):
        key = (kind, np.asarray(c, dtype=complex).tobytes())
        if key not in self.memo:
            self.memo[key] = getattr(self.field, kind)(c)
        return self.memo[key]

    def projectors(self, c):
        return list(self._value("projectors", c))

    def frame_change(self, c):
        return self._value("frame_change", c)

    def theta(self, c):
        return self._value("theta", c)

    def theta_bar(self, c):
        return self._value("theta_bar", c)

    def gram(self, c):
        return self._value("gram", c)

    def inverse(self, c):
        return np.linalg.inv(self.frame_change(c))

    def covariant(self, c0, j, bar, section):
        total = np.zeros_like(np.asarray(section(c0)))
        for b, p0 in enumerate(self.projectors(c0)):
            total = total + p0 @ _wirtinger(
                lambda c, _b=b: self.projectors(c)[_b] @ section(c), c0, j, bar)
        return total

    def connection_form(self, c0, j, bar):
        out = np.zeros_like(self.frame_change(c0))
        for b, p0 in enumerate(self.projectors(c0)):
            out += p0 @ _wirtinger(lambda c, _b=b: self.projectors(c)[_b], c0, j, bar)
        return out


class FramePointField(PointField):
    """The frame-only formulas, one point at a time: W bd(W^{-1} DV) and
    -W off(W^{-1} DW) W^{-1}."""

    def inverse(self, c):
        return self._value("frame_inverse", c)

    def covariant(self, c0, j, bar, section):
        dv = _wirtinger(section, c0, j, bar)
        return self.frame_change(c0) @ np.where(self.field.same, self.inverse(c0) @ dv, 0.0)

    def connection_form(self, c0, j, bar):
        dw = _wirtinger(self.frame_change, c0, j, bar)
        winv = self.inverse(c0)
        return -(self.frame_change(c0) @ np.where(self.field.same, 0.0, winv @ dw) @ winv)


def split_loop(pf, coords):
    holo = anti = 0.0
    for j in range(pf.nsym):
        for bar, mixing in ((False, pf.theta(coords)), (True, pf.theta_bar(coords))):
            plain = _wirtinger(pf.frame_change, coords, j, bar)
            proj = pf.covariant(coords, j, bar, pf.frame_change)
            value = float(np.max(np.abs(plain - proj - mixing[j] @ pf.frame_change(coords))))
            if bar:
                anti = max(anti, value)
            else:
                holo = max(holo, value)
    return holo, anti


def curvature_loop(pf, coords, j, kbar):
    def d_holo(c):
        return pf.covariant(c, j, False, pf.frame_change)

    def d_anti(c):
        return pf.covariant(c, kbar, True, pf.frame_change)

    first = pf.covariant(coords, j, False, d_anti)
    second = pf.covariant(coords, kbar, True, d_holo)
    return (first - second) @ pf.inverse(coords)


def flatness_loop(pf, coords):
    def a_holo(c, j):
        return pf.connection_form(c, j, False) + pf.theta(c)[j]

    def a_anti(c, j):
        return pf.connection_form(c, j, True) + pf.theta_bar(c)[j]

    def a_d_anti(c, j):
        return pf.connection_form(c, j, True)

    mixed = holo = dbar2 = 0.0
    for j in range(pf.nsym):
        for kk in range(pf.nsym):
            da = _wirtinger(lambda c: a_anti(c, kk), coords, j, False)
            db = _wirtinger(lambda c: a_holo(c, j), coords, kk, True)
            comm = a_holo(coords, j) @ a_anti(coords, kk) - a_anti(coords, kk) @ a_holo(coords, j)
            mixed = max(mixed, float(np.max(np.abs(da - db + comm))))
            if kk > j:
                da2 = _wirtinger(lambda c: a_holo(c, kk), coords, j, False)
                db2 = _wirtinger(lambda c: a_holo(c, j), coords, kk, False)
                comm2 = a_holo(coords, j) @ a_holo(coords, kk) - a_holo(coords, kk) @ a_holo(coords, j)
                holo = max(holo, float(np.max(np.abs(da2 - db2 + comm2))))
                da3 = _wirtinger(lambda c: a_d_anti(c, kk), coords, j, True)
                db3 = _wirtinger(lambda c: a_d_anti(c, j), coords, kk, True)
                comm3 = (a_d_anti(coords, j) @ a_d_anti(coords, kk)
                         - a_d_anti(coords, kk) @ a_d_anti(coords, j))
                dbar2 = max(dbar2, float(np.max(np.abs(da3 - db3 + comm3))))
    return mixed, holo, dbar2


def chern_loop(pf, coords):
    def pairings(c):
        wk = pf.frame_change(c)
        return wk.conj().T @ pf.gram(c) @ wk

    gram0, wk0 = pf.gram(coords), pf.frame_change(coords)
    worst = 0.0
    for j in range(pf.nsym):
        dpair = _wirtinger(pairings, coords, j, False)
        du = pf.covariant(coords, j, False, pf.frame_change)
        dv = pf.covariant(coords, j, True, pf.frame_change)
        expected = dv.conj().T @ gram0 @ wk0 + wk0.conj().T @ gram0 @ du
        worst = max(worst, float(np.max(np.abs(dpair - expected))))
    return worst


def holomorphy_loop(pf, coords):
    worst = 0.0
    for kk in range(pf.nsym):
        a_bar = pf.connection_form(coords, kk, True)
        for j in range(pf.nsym):
            dtheta = _wirtinger(lambda c: pf.theta(c)[j], coords, kk, True)
            theta_j = pf.theta(coords)[j]
            worst = max(worst, float(np.max(np.abs(dtheta + a_bar @ theta_j - theta_j @ a_bar))))
    return worst


def _checks(st):
    """The five checks of a stencil state, as loop-comparable values."""
    split = hg.connection_split_check(st)
    flat = hg.flatness_check(st)
    return ((split.holo_residual, split.antiholo_residual), hg.curvature_operator(st),
            (flat.mixed_residual, flat.holo_residual, flat.dbar_square_residual),
            hg.chern_compatibility_check(st), hg.theta_holomorphy_check(st))


def _loops(pf, coords):
    nsym = pf.nsym
    curv = np.array([[curvature_loop(pf, coords, j, kb) for kb in range(nsym)]
                     for j in range(nsym)])
    return (split_loop(pf, coords), curv, flatness_loop(pf, coords), chern_loop(pf, coords),
            holomorphy_loop(pf, coords))


ALL_DEGREES = [(n, k) for n in (1, 2) for k in range(2 * n + 1)]


@pytest.mark.parametrize("n,k", ALL_DEGREES)
def test_batched_checks_equal_per_point_loops(n, k):
    _, _, _, field_ = field_for(n, k)
    bp = kns.random_bsd_point(n, np.random.default_rng([n, k]), 0.45)
    coords = kns.coords_from_sym(bp.phi)
    st = field_.stencil(coords)
    batched, loops = _checks(st), _loops(FramePointField(field_), coords)
    assert batched[0] == loops[0]
    assert np.array_equal(batched[1], loops[1])
    assert batched[2:] == loops[2:]
    frame_k = field_.frame_at(coords)
    for name in ("phi", "theta", "gram", "frame_change"):
        assert np.array_equal(getattr(st.frame, name), getattr(frame_k, name))
    assert all(np.array_equal(st.frame.proj[pq], frame_k.proj[pq]) for pq in field_.types)


@pytest.mark.parametrize("n,k", ALL_DEGREES)
def test_frame_only_checks_equal_the_projector_loops(n, k):
    # The projector loops sum_b pi_b D(pi_b .) are the oracle of the
    # frame-only formulas: the two agree to rounding, well inside the
    # checks' 1e-5 threshold.
    _, _, _, field_ = field_for(n, k)
    bp = kns.random_bsd_point(n, np.random.default_rng([n, k, 1]), 0.45)
    coords = kns.coords_from_sym(bp.phi)
    batched, loops = _checks(field_.stencil(coords)), _loops(PointField(field_), coords)
    for value, oracle in zip(batched, loops):
        assert np.max(np.abs(np.subtract(value, oracle))) <= 1e-10


def test_higgs_suite_evaluates_each_stencil_point_once(monkeypatch):
    # The suite builds one stencil state per (degree, base point); every
    # point of its nested stencil reaches `frame_change` once, and
    # `projectors` only the base point, reusing the wedge power it is handed.
    points = {"projectors": 0, "frame_change": 0}
    for name in points:
        method = getattr(hg.HiggsField, name)

        def counted(self, coords, *args, _name=name, _method=method):
            points[_name] += int(np.prod(np.shape(coords)[:-1]))
            return _method(self, coords, *args)

        monkeypatch.setattr(hg.HiggsField, name, counted)
    report = cli.run_suite(cli.SuiteConfig(suite="higgs", n=2))
    assert report.passed
    nsym = 3
    per_state = 1 + 8 * nsym + (8 * nsym) ** 2
    assert per_state == 601
    states = 3 * 2    # degrees 0..2 at two base points
    assert points["projectors"] == states
    assert points["frame_change"] == states * per_state


def test_inner_differences_in_blocks_equal_one_block(monkeypatch):
    _, _, _, field_ = field_for(2, 2)
    coords = kns.coords_from_sym(kns.random_bsd_point(2, np.random.default_rng(5), 0.5).phi)
    whole = field_.stencil(coords)
    monkeypatch.setattr(hg, "STENCIL_BLOCK_BYTES", 1)
    blocked = field_.stencil(coords)
    for a, b in zip(whole.dwk[1], blocked.dwk[1]):
        assert np.array_equal(a, b)


@st.composite
def _interior_stack(draw):
    n = draw(st.integers(1, 2))
    k = draw(st.integers(0, 2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.integers(1, 4))
    coords = np.stack([kns.coords_from_sym(kns.random_bsd_point(n, rng, 0.8).phi)
                       for _ in range(count)])
    return n, k, coords.reshape((count // 2, 2, -1) if count % 2 == 0 else (count, -1))


@settings(max_examples=40, deadline=None)
@given(_interior_stack())
def test_batched_fields_equal_per_point_values(case):
    n, k, coords = case
    _, _, _, field_ = field_for(n, k)
    projs = field_.projectors(coords)
    frames = field_.frame_change(coords)
    thetas = field_.theta(coords)
    lead = coords.shape[:-1]
    dim = frames.shape[-1]
    assert projs.shape == lead + (len(field_.types), dim, dim)
    assert thetas.shape == lead + (field_.nsym, dim, dim)
    for idx in np.ndindex(*lead):
        assert np.array_equal(projs[idx], field_.projectors(coords[idx]))
        assert np.array_equal(frames[idx], field_.frame_change(coords[idx]))
        assert np.array_equal(thetas[idx], field_.theta(coords[idx]))
    assert np.allclose(projs.sum(axis=-3), np.eye(dim), atol=1e-10)
    assert np.allclose(projs @ projs, projs, atol=1e-10)
    inverses = field_.frame_inverse(coords)
    assert np.allclose(inverses @ frames, np.eye(dim), atol=1e-10)
    for idx in np.ndindex(*lead):
        assert np.array_equal(inverses[idx], field_.frame_inverse(coords[idx]))


def test_wrong_conjugate_field_fails_the_suite(monkeypatch):
    # The batched oracles must still see a mixing-field conjugate of the
    # wrong sign: the split and flatness identities read theta_bar.
    record = "connection-identities-k1"
    config = cli.SuiteConfig(suite="higgs", n=1)
    status = {r.name: r.status for r in cli.run_suite(config).checks}
    assert status[record] == "pass"
    theta_bar = hg.HiggsField.theta_bar
    monkeypatch.setattr(hg.HiggsField, "theta_bar",
                        lambda self, coords, theta=None: -theta_bar(self, coords, theta))
    status = {r.name: r.status for r in cli.run_suite(config).checks}
    assert status[record] == "fail"


def _off_blocks(st, level, dv):
    """`higgs._covariant` with the complement mask: W off(W^{-1} DV)."""
    w, winv = st.wk[level][..., None, :, :], st.winv[level][..., None, :, :]
    return w @ np.where(st.field.same, 0.0, winv @ dv)


@pytest.mark.parametrize("mutation", [lambda st, level, dv: dv, _off_blocks],
                         ids=["plain-difference", "off-blocks"])
def test_wrong_covariant_derivative_fails_the_suite(monkeypatch, mutation):
    # Dropping the type mask (grad W = DW) or keeping the off-type blocks
    # instead of the type-preserving ones must fail the split identity.
    record = "connection-identities-k1"
    config = cli.SuiteConfig(suite="higgs", n=2)
    status = {r.name: r.status for r in cli.run_suite(config).checks}
    assert status[record] == "pass"
    monkeypatch.setattr(hg, "_covariant", mutation)
    status = {r.name: r.status for r in cli.run_suite(config).checks}
    assert status[record] == "fail"


# ---------------------------------------------------------------------------
# Closed forms against their oracles: the Gram data against the route
# through the real structure, the exact first variation against differences.
# ---------------------------------------------------------------------------

@st.composite
def _structure_and_point(draw):
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sp = sl.standard_symplectic(n)
    j = sl.random_compatible_structure(sp, rng) if draw(st.booleans()) else \
        sl.standard_complex_structure(n)
    bp = kns.random_bsd_point(n, rng, draw(st.floats(0.0, 0.99)))
    return hg.HiggsField(sp, j, sl.unitary_frame(sp, j), 1), kns.coords_from_sym(bp.phi)


@settings(max_examples=60, deadline=None)
@given(_structure_and_point())
def test_gram1_closed_form_equals_the_structure_route(case):
    field_, coords = case
    gram = field_.gram1(coords)
    oracle = sl.dual_metric_gram(field_.space, field_.structure(coords), field_.covectors)
    assert np.max(np.abs(gram - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    assert np.max(np.abs(gram - gram.conj().T)) <= 1e-12 * np.max(np.abs(gram))
    assert np.linalg.eigvalsh(0.5 * (gram + gram.conj().T)).min() > 0
    stacked = field_.gram1(np.stack([coords, coords]))
    assert np.array_equal(stacked[1], gram)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dtheta_matches_differences_of_theta(n):
    rng = np.random.default_rng(90 + n)
    coords = kns.coords_from_sym(kns.random_bsd_point(n, rng, 0.6).phi)
    for k in range(2 * n + 1):
        _, _, _, field_ = field_for(n, k)
        exact = field_.dtheta(coords)
        fd = _fd.xy_combine(field_.theta(_fd.gradient_points(coords, 1e-3)), False, 1e-3)
        assert exact.shape == fd.shape == (field_.nsym, field_.nsym) + field_.theta(coords).shape[1:]
        assert np.max(np.abs(exact - fd)) <= 1e-9 * max(1.0, np.max(np.abs(exact)))


def _dense_theta_and_dtheta(field_, coords):
    """The dense forms the rank-two `theta_x` replaced: theta_mu = Q dF_mu F^{-1}
    with Q = I - F sel F^{-1} (sel the projection onto the first n slots), and
    d_mu theta_nu by the chain d_mu F^{-1} = -F^{-1} dF_mu F^{-1},
    d_mu Q = -(dF_mu sel F^{-1} + F sel d_mu F^{-1}); degree 1, one point."""
    n = field_.n
    f = kns.graph_frame(field_.phi(coords))
    finv = np.linalg.inv(f)
    sel = np.diag(np.r_[np.ones(n), np.zeros(n)])
    q = np.eye(2 * n) - f @ sel @ finv
    df = np.zeros((field_.nsym, 2 * n, 2 * n), dtype=complex)
    df[:, n:, :n] = kns.sym_basis(n)
    dfinv = -finv @ df @ finv                                   # [mu]
    dq = -(df @ sel @ finv + f @ sel @ dfinv)                   # [mu]
    dtheta = dq[:, None] @ df @ finv + q @ df @ dfinv[:, None]
    return q @ df @ finv, dtheta


@settings(max_examples=60, deadline=None)
@given(_structure_and_point())
def test_rank_two_theta_and_closed_form_dtheta_equal_the_dense_forms(case):
    field_, coords = case
    theta, dtheta = _dense_theta_and_dtheta(field_, coords)
    got = field_.dtheta(coords)
    assert np.max(np.abs(field_.theta1(coords) - theta)) <= 1e-12 * np.max(np.abs(theta))
    assert np.max(np.abs(got - dtheta)) <= 1e-12 * np.max(np.abs(dtheta))
    assert np.array_equal(got, got.swapaxes(0, 1))


@settings(max_examples=30, deadline=None)
@given(_structure_and_point())
def test_metric_adjoint_equals_a_solve_on_every_degree(case):
    # Both are backward stable, so they differ by rounding times cond(h).
    field_, coords = case
    for k in range(2 * field_.n + 1):
        fk = hg.HiggsField(field_.space, field_.J, field_.frame, k)
        h, theta = fk.gram(coords), fk.theta(coords)
        want = np.linalg.solve(h, theta.conj().swapaxes(-1, -2) @ h)
        err = np.max(np.abs(hg.metric_adjoint(h, fk.gram_inverse(h), theta) - want))
        assert err <= 1e-13 * np.linalg.cond(h) * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# The closed-form inverses (`graph_inverse`, `gram_inverse`) against dense
# LAPACK inverses, and hand mutations of F^{-1} that the suite must catch.
# ---------------------------------------------------------------------------

@st.composite
def _chart_point(draw):
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return n, kns.coords_from_sym(kns.random_bsd_point(n, rng, draw(st.floats(0.0, 0.99))).phi)


def _close(got, want, cond):
    return np.max(np.abs(got - want)) <= 1e-12 * cond * np.max(np.abs(want))


@settings(max_examples=60, deadline=None)
@given(_chart_point())
def test_chart_equals_the_dense_inverse_of_the_graph_frame(case):
    n, coords = case
    field_ = field_for(n, 1)[-1]
    f = kns.graph_frame(field_.phi(coords))
    want = np.linalg.inv(f)
    finv, q = field_.chart(coords)
    assert _close(finv, want, np.linalg.cond(f))
    assert _close(q, np.eye(2 * n) - f[:, :n] @ want[:n, :], np.linalg.cond(f))


@settings(max_examples=40, deadline=None)
@given(_chart_point())
def test_closed_form_inverses_equal_dense_inverses_on_every_degree(case):
    # Every degree up to n = 3; degrees 1 and 2 above, where the compounds
    # of the top degrees outgrow the test.
    n, coords = case
    for k in range(2 * n + 1) if n <= 3 else (1, 2):
        field_ = field_for(n, k)[-1]
        h, wk = field_.gram(coords), field_.frame_change(coords)
        assert _close(field_.gram_inverse(h), np.linalg.inv(h), np.linalg.cond(h))
        want = np.linalg.inv(wk)
        assert _close(field_.frame_inverse(coords), want, np.linalg.cond(wk))
        assert _close(field_.projectors(coords), wk @ field_._type_diags @ want,
                      np.linalg.cond(wk))


_graph_inverse = hg.graph_inverse     # the mutations below replace hg.graph_inverse


def _flipped_block(phi):
    """F^{-1} with its lower-left block negated."""
    finv = _graph_inverse(phi)
    n = phi.shape[-1]
    finv[..., n:, :n] *= -1
    return finv


def _conjugate_block(phi):
    """F^{-1} with conj(A)^{-1} in place of A^{-1} in its lower-right block."""
    finv = _graph_inverse(phi)
    n = phi.shape[-1]
    finv[..., n:, n:] = finv[..., :n, :n]
    return finv


@pytest.mark.parametrize("mutation", [_flipped_block, _conjugate_block],
                         ids=["flipped-off-diagonal-sign", "conjugate-inverse"])
def test_wrong_graph_inverse_fails_the_suite(monkeypatch, mutation):
    config = cli.SuiteConfig(suite="higgs", n=2)
    records = ("gram-structure-route", "connection-identities-k1")
    status = {r.name: r.status for r in cli.run_suite(config).checks}
    assert [status[r] for r in records] == ["pass", "pass"]
    monkeypatch.setattr(hg, "graph_inverse", mutation)
    status = {r.name: r.status for r in cli.run_suite(config).checks}
    assert [status[r] for r in records] == ["fail", "fail"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_degree_one_fields_are_not_copied(n, monkeypatch):
    # At k = 1 theta and dtheta are the fresh degree-1 stacks themselves;
    # wedge.derivation_matrix (which copies at k = 1) is not called.
    field1 = field_for(n, 1)[-1]
    coords = kns.coords_from_sym(kns.random_bsd_point(n, np.random.default_rng(60 + n), 0.6).phi)
    want_theta, want_dtheta = field1.theta(coords), field1.dtheta(coords)

    def refuse(m, k):
        raise AssertionError("derivation_matrix called at degree 1")

    monkeypatch.setattr(wedge, "derivation_matrix", refuse)
    assert np.array_equal(field1.theta(coords), field1.theta1(coords))
    assert np.array_equal(field1.theta(coords), want_theta)
    assert np.array_equal(field1.dtheta(coords), want_dtheta)
