"""Chart tests: both tensor constructions, round trips, motion, holomorphy."""

import numpy as np
import pytest

from pklab import kns
from pklab import symplin as sl


def workspace(n):
    sp = sl.standard_symplectic(n)
    j0 = sl.standard_complex_structure(n)
    return sp, j0, sl.unitary_frame(sp, j0)


def test_same_structure_maps_to_zero():
    _, j0, frame = workspace(2)
    assert np.max(np.abs(kns.kns_tensor(j0, j0, frame).phi)) < 1e-14


def test_scalar_chart_value_and_frozen_structure():
    # For coordinate 0.5 the reconstructed structure is [[0, -1/3], [3, 0]]:
    # with the metric stretch w = 1 + s, h = 1 - s the matrix is
    # [[0, -h/w], [w/h, 0]] (hand derivation, frozen).
    sp, j0, frame = workspace(1)
    pt = kns.BsdPoint(phi=np.array([[0.5]]))
    j1 = kns.structure_from_bsd(j0, frame, pt)
    assert np.allclose(j1.J, [[0.0, -1.0 / 3.0], [3.0, 0.0]], atol=1e-12)
    assert sl.compatibility_report(sp, j1).compatible
    assert abs(kns.kns_tensor(j0, j1, frame).phi[0, 0] - 0.5) < 1e-12
    assert abs(kns.kns_tensor_by_projection(j0, j1, frame)[0, 0] - 0.5) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_roundtrip_and_projection_oracle(n):
    sp, j0, frame = workspace(n)
    rng = np.random.default_rng(17)
    for _ in range(20):
        jp = sl.random_compatible_structure(sp, rng)
        pt = kns.kns_tensor(j0, jp, frame)
        # Membership (symmetry + spectral radius) is enforced by the type.
        assert np.max(np.abs(pt.phi - pt.phi.T)) < 1e-10
        assert pt.radius < 1.0
        proj = kns.kns_tensor_by_projection(j0, jp, frame)
        assert np.max(np.abs(proj - pt.phi)) < 1e-10
        back = kns.structure_from_bsd(j0, frame, pt)
        assert np.max(np.abs(back.J - jp.J)) < 1e-10


def test_point_zero_reconstructs_reference():
    _, j0, frame = workspace(2)
    back = kns.structure_from_bsd(j0, frame, kns.BsdPoint(phi=np.zeros((2, 2))))
    assert np.max(np.abs(back.J - j0.J)) < 1e-13


def test_near_boundary_roundtrip():
    sp, j0, frame = workspace(2)
    rng = np.random.default_rng(7)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    phi = 0.5 * (g + g.T)
    phi *= 0.999 / np.sqrt(kns.spectral_radius_phibar(phi))
    pt = kns.BsdPoint(phi=phi)
    jb = kns.structure_from_bsd(j0, frame, pt)
    assert sl.compatibility_report(sp, jb).compatible
    assert np.max(np.abs(kns.kns_tensor(j0, jb, frame).phi - phi)) < 1e-10


def test_invalid_points_rejected():
    with pytest.raises(kns.DomainError):
        kns.BsdPoint(phi=np.array([[0.0, 1.0], [0.0, 0.0]]))   # not symmetric
    with pytest.raises(kns.DomainError):
        kns.BsdPoint(phi=np.array([[1.0]]))                     # radius 1


def test_berndtsson_values():
    assert np.max(np.abs(kns.berndtsson_tensor(
        kns.RealLinearMap(linear_part=np.eye(2), antilinear_part=np.zeros((2, 2)))))) == 0
    t = kns.RealLinearMap(linear_part=np.eye(1), antilinear_part=0.3 * np.eye(1))
    assert kns.berndtsson_tensor(t)[0, 0] == pytest.approx(0.3)
    conj_map = kns.RealLinearMap(linear_part=np.zeros((1, 1)),
                                 antilinear_part=np.eye(1))
    with pytest.raises(kns.AdmissibilityError):
        kns.berndtsson_tensor(conj_map)


def test_berndtsson_tensor_invariance():
    # Phi(T S) and Phi(T) are the same tensor: matrices are conjugate by S.
    rng = np.random.default_rng(2)
    n = 3
    for _ in range(10):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
        t1 = kns.RealLinearMap(linear_part=a, antilinear_part=b)
        ts = kns.RealLinearMap(linear_part=a @ s, antilinear_part=b @ s.conj())
        lhs = kns.berndtsson_tensor(ts)
        rhs = np.linalg.solve(s, kns.berndtsson_tensor(t1) @ s.conj())
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_motion_scalar_example():
    pt = kns.BsdPoint(phi=np.array([[0.5]]))
    assert kns.holomorphic_motion(pt, np.array([1.0]))[0] == pytest.approx(1.5)
    assert kns.inverse_motion(pt, np.array([1.5]))[0] == pytest.approx(1.0)


def test_motion_identity_at_zero():
    pt = kns.BsdPoint(phi=np.zeros((2, 2)))
    z = np.array([0.3 + 0.4j, -0.1j])
    assert np.allclose(kns.holomorphic_motion(pt, z), z)
    assert kns.motion_form_residual(pt, z) < 1e-11


def test_motion_form_type_random():
    rng = np.random.default_rng(5)
    pt = kns.random_bsd_point(2, rng, 0.6)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    zeta = kns.holomorphic_motion(pt, z)
    assert np.max(np.abs(kns.inverse_motion(pt, zeta) - z)) < 1e-12
    assert kns.motion_form_residual(pt, zeta) < 1e-10


def test_holomorphy_probe_identity_chart():
    sp, j0, frame = workspace(1)
    r = kns.holomorphy_probe(sp, j0, frame, kns.BsdPoint(phi=np.zeros((1, 1))),
                             np.array([[1.0]]))
    assert r < 1e-10


def test_holomorphy_probe_scalar_transition():
    sp, j0, frame = workspace(1)
    r = kns.holomorphy_probe(sp, j0, frame, kns.BsdPoint(phi=np.array([[0.3]])),
                             np.array([[1.0]]), step=1e-3)
    assert r < 1e-6


def test_holomorphy_probe_zero_direction_and_boundary():
    sp, j0, frame = workspace(1)
    base = kns.BsdPoint(phi=np.array([[0.3]]))
    assert kns.holomorphy_probe(sp, j0, frame, base, np.zeros((1, 1))) == 0.0
    near = kns.BsdPoint(phi=np.array([[1.0 - 5e-7]]))
    with pytest.raises(kns.BoundaryProximityError):
        kns.holomorphy_probe(sp, j0, frame, near, np.array([[1.0]]), step=1e-3)


def test_structure_convention_transpose_relation():
    # The two tangent-space conventions for the induced rotation are
    # intertwined by the transpose: (A J)^T = J^T A^T, so right action on
    # covector matrices corresponds to left action on vector matrices.
    rng = np.random.default_rng(1)
    sp, j0, frame = workspace(2)
    jp = sl.random_compatible_structure(sp, rng)
    a_v = 0.01 * (jp.J - j0.J)        # a tangent-like perturbation on V
    a_vstar = a_v.T
    lhs = (a_vstar @ j0.covector_action()).T
    rhs = j0.J @ a_v
    assert np.max(np.abs(lhs - rhs)) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 4])
def test_sym_from_coords_is_the_basis_sum_and_inverts_coords_from_sym(n):
    # The one index table `sym_entry` places coordinate j where sym_basis S_j
    # is non-zero; on stacks, sym_from_coords and coords_from_sym invert each other.
    rng = np.random.default_rng(70 + n)
    nsym = kns.sym_dim(n)
    coords = rng.standard_normal((3, 2, nsym)) + 1j * rng.standard_normal((3, 2, nsym))
    phi = kns.sym_from_coords(coords, n)
    basis = np.stack(kns.sym_basis(n))
    assert np.array_equal(phi, np.einsum("...j,jab->...ab", coords, basis))
    assert np.array_equal(kns.coords_from_sym(phi), coords)


def test_sym_entry_is_one_shared_read_only_table():
    entry = kns.sym_entry(3)
    assert kns.sym_entry(3) is entry
    assert not entry.flags.writeable
    with pytest.raises(ValueError):
        entry[0, 0] = 1
    # sym_from_coords indexes with the shared table but hands out a fresh,
    # writable matrix each call.
    coords = np.arange(6, dtype=complex)
    phi = kns.sym_from_coords(coords, 3)
    again = kns.sym_from_coords(coords, 3)
    assert phi.flags.writeable and not np.shares_memory(phi, again)
    assert not np.shares_memory(phi, coords)
    phi[0, 0] = 99.0
    assert again[0, 0] == 0.0 and coords[0] == 0.0
    assert np.array_equal(kns.sym_entry(3), [[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def motion_form_residual_loop(point, zeta, step=1e-4):
    """motion_form_residual before its stencil was stacked: one z(t, zeta)
    evaluation, with its own domain check, per stencil point, and one
    pairing per (a, b)."""
    n = point.n
    nsym = kns.sym_dim(n)
    x0 = np.concatenate([kns.coords_from_sym(point.phi), np.asarray(zeta, dtype=complex)])
    dim = x0.size
    real0 = np.concatenate([x0.real, x0.imag])

    def z_real(xr):
        zc = xr[:dim] + 1j * xr[dim:]
        z = kns.inverse_motion(kns.BsdPoint(phi=kns.sym_from_coords(zc[:nsym], n)), zc[nsym:])
        return np.concatenate([z.real, z.imag])

    jac = np.empty((2 * n, 2 * dim))
    for a in range(2 * dim):
        e = np.zeros(2 * dim)
        e[a] = step
        jac[:, a] = (z_real(real0 - 2 * e) - 8.0 * z_real(real0 - e)
                     + 8.0 * z_real(real0 + e) - z_real(real0 + 2 * e)) / (12.0 * step)
    omega = jac.T @ kns._standard_sym_matrix(n) @ jac
    sel = np.concatenate([np.arange(nsym), dim + np.arange(nsym)])
    omega[np.ix_(sel, sel)] += kns._standard_sym_matrix(nsym)
    omega_inv = np.linalg.inv(omega)
    holo = [np.eye(2 * dim)[s] + 1j * np.eye(2 * dim)[dim + s] for s in range(dim)]
    return max(abs(holo[a] @ omega_inv @ holo[b]) for a in range(dim) for b in range(a, dim))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_motion_stencil_matches_the_point_loop(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(3):
        pt = kns.random_bsd_point(n, rng, 0.6)
        zeta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        new, old = kns.motion_form_residual(pt, zeta), motion_form_residual_loop(pt, zeta)
        # Both are the rounding of a difference quotient: 1/(12 h) = 833.
        assert new < 1e-10 and old < 1e-10
        assert abs(new - old) < 1e-10
    phis = np.stack([kns.random_bsd_point(n, rng, 0.6).phi for _ in range(4)])
    zetas = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    stacked = kns._inverse_motion(phis, zetas)
    for i in range(4):
        one = kns.inverse_motion(kns.BsdPoint(phi=phis[i]), zetas[i])
        assert np.max(np.abs(stacked[i] - one)) <= 1e-14 * np.max(np.abs(one))


def test_motion_stencil_refuses_points_outside_the_domain():
    pt = kns.BsdPoint(phi=np.array([[1.0 - 5e-5]]))
    with pytest.raises(kns.DomainError):
        kns.motion_form_residual(pt, np.array([0.3 + 0.1j]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_chart_maps_equal_the_per_point_maps(n):
    sp, j0, frame = workspace(n)
    rng = np.random.default_rng(40 + n)
    structures = [sl.random_compatible_structure(sp, rng) for _ in range(7)]
    jps = np.stack([j.J for j in structures])
    phi = kns._kns_tensors(j0, jps, frame)
    proj = kns._kns_tensors_by_projection(jps, frame)
    back = kns._structures_from_bsd(frame, phi)
    for i, jp in enumerate(structures):
        point = kns.kns_tensor(j0, jp, frame)
        assert np.array_equal(phi[i], point.phi)
        assert np.array_equal(proj[i], kns.kns_tensor_by_projection(j0, jp, frame))
        assert np.array_equal(back[i], kns.structure_from_bsd(j0, frame, point).J)
    a = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n)) + 3 * np.eye(n)
    b = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    tensors = kns._berndtsson_tensors(a, b)
    for i in range(5):
        one = kns.berndtsson_tensor(kns.RealLinearMap(linear_part=a[i], antilinear_part=b[i]))
        assert np.array_equal(tensors[i], one)


@pytest.mark.parametrize("n", [1, 2])
def test_stacked_motion_and_transition_equal_the_per_point_values(n):
    sp, j0, frame = workspace(n)
    rng = np.random.default_rng(50 + n)
    points = [kns.random_bsd_point(n, rng, 0.6) for _ in range(4)]
    z = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    phis = np.stack([p.phi for p in points])
    zeta = kns._holomorphic_motion(phis, z)
    residuals = kns._motion_form_residuals(phis, zeta)
    for i, p in enumerate(points):
        assert np.array_equal(zeta[i], kns.holomorphic_motion(p, z[i]))
        assert residuals[i] == kns.motion_form_residual(p, zeta[i])
    target = kns.structure_from_bsd(j0, frame, points[0])
    transition = kns.chart_transition(sp, j0, frame, target, sl.unitary_frame(sp, target))
    coords = np.stack([kns.coords_from_sym(p.phi) for p in points[1:]])
    stacked = transition(coords)
    for i, c in enumerate(coords):
        assert np.array_equal(stacked[i], transition(c))
    with pytest.raises(kns.DomainError):
        transition(np.stack([coords[0], 2.0 * np.ones_like(coords[0])]))
