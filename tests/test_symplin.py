"""Symplectic linear algebra substrate tests."""

import numpy as np
import pytest

from pklab import symplin as sl


def test_standard_symplectic_blocks():
    sp = sl.standard_symplectic(1)
    assert sp.form.tolist() == [[0.0, 1.0], [-1.0, 0.0]]
    sp2 = sl.standard_symplectic(2)
    assert np.array_equal(sp2.form[:2, 2:], np.eye(2))
    assert np.max(np.abs(sp2.form + sp2.form.T)) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_standard_symplectic_determinant(n):
    # Permutation-with-signs matrix: determinant exactly one.
    assert np.linalg.det(sl.standard_symplectic(n).form) == pytest.approx(1.0)


def test_standard_symplectic_rejects_zero():
    with pytest.raises(ValueError):
        sl.standard_symplectic(0)


def test_compatibility_standard_pair():
    sp = sl.standard_symplectic(1)
    j0 = sl.standard_complex_structure(1)
    rep = sl.compatibility_report(sp, j0)
    assert rep.compatible
    assert np.allclose(rep.metric, np.eye(2))


def test_compatibility_sign_flip():
    sp = sl.standard_symplectic(1)
    j0 = sl.standard_complex_structure(1)
    rep = sl.compatibility_report(sp, sl.ComplexStructure(J=-j0.J))
    assert not rep.compatible
    assert np.allclose(rep.metric, -np.eye(2))


def test_compatibility_dimension_mismatch():
    sp = sl.standard_symplectic(2)
    with pytest.raises(sl.DimensionMismatchError):
        sl.compatibility_report(sp, sl.standard_complex_structure(1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_conjugates_stay_compatible(n):
    # Eigenvalue oracle on the metric, for symplectic conjugates of J0.
    sp = sl.standard_symplectic(n)
    rng = np.random.default_rng(11)
    for _ in range(25):
        j = sl.random_compatible_structure(sp, rng)
        rep = sl.compatibility_report(sp, j)
        assert rep.compatible
        assert rep.min_eigenvalue > 0
        p = sl.random_symplectic_matrices(sp, rng, 1)[0]
        assert np.max(np.abs(p.T @ sp.form @ p - sp.form)) < 1e-10


def test_type_projectors_standard():
    # dz = e1 + i e2 is an eigenvector: pi10 dz = dz, pi10 conj(dz) = 0.
    j0 = sl.standard_complex_structure(1)
    p10, p01 = sl.type_projectors(j0)
    dz = np.array([1.0, 1j])
    assert np.allclose(p10 @ dz, dz)
    assert np.allclose(p10 @ dz.conj(), 0.0)
    assert np.allclose(p10 + p01, np.eye(2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_type_projectors_idempotent_and_rank(n):
    sp = sl.standard_symplectic(n)
    rng = np.random.default_rng(5)
    j = sl.random_compatible_structure(sp, rng)
    p10, p01 = sl.type_projectors(j)
    assert np.max(np.abs(p10 @ p10 - p10)) < 1e-12
    assert np.max(np.abs(p01 @ p01 - p01)) < 1e-12
    # Singular-value oracle for the rank.
    s = np.linalg.svd(p10, compute_uv=False)
    assert np.sum(s > 0.5) == n


@pytest.mark.parametrize("n", [1, 2, 4])
def test_unitary_frame_reproduces_form(n):
    sp = sl.standard_symplectic(n)
    rng = np.random.default_rng(3)
    for structure in [sl.standard_complex_structure(n),
                      sl.random_compatible_structure(sp, rng)]:
        frame = sl.unitary_frame(sp, structure)
        assert sl.frame_form_residual(sp, frame) < 1e-12
        k = structure.covector_action()
        assert np.max(np.abs(frame.columns @ k.T - 1j * frame.columns)) < 1e-12


def test_hermitian_pairing_positive_on_10():
    # The dual pairing is positive definite on (1,0) covectors and the (1,0)
    # space of one structure meets the (0,1) space of another only in zero.
    n = 2
    sp = sl.standard_symplectic(n)
    rng = np.random.default_rng(8)
    ja = sl.random_compatible_structure(sp, rng)
    jb = sl.random_compatible_structure(sp, rng)
    fa = sl.unitary_frame(sp, ja)
    gram = sl.dual_metric_gram(sp, ja, fa.columns)
    assert np.linalg.eigvalsh(0.5 * (gram + gram.conj().T)).min() > 0.9
    fb = sl.unitary_frame(sp, jb)
    stacked = np.vstack([fa.columns, fb.columns.conj()])  # (1,0) of a, (0,1) of b
    s = np.linalg.svd(stacked, compute_uv=False)
    assert s.min() > 1e-8  # trivial intersection


def test_bad_form_rejected():
    with pytest.raises(ValueError):
        sl.SymplecticSpace(n=1, form=np.array([[0.0, 1.0], [-1.0, 1e-15]]))
    with pytest.raises(sl.DegenerateFormError):
        sl.SymplecticSpace(n=1, form=np.zeros((2, 2)))


def test_bad_structure_rejected():
    with pytest.raises(ValueError):
        sl.ComplexStructure(J=np.eye(2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expm_matches_scipy_on_hamiltonian_matrices(n):
    # scipy is the oracle only: the runtime imports numpy alone.
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng([21, n])
    m = np.eye(2 * n) + 0.2 * rng.standard_normal((2 * n, 2 * n))
    congruent = m.T @ sl.standard_symplectic(n).form @ m
    for space in (sl.standard_symplectic(n),
                  sl.SymplecticSpace(n=n, form=(congruent - congruent.T) / 2.0)):
        w = space.form
        for scale in (0.1, 0.4):
            for _ in range(25):
                s = rng.standard_normal((2 * n, 2 * n))
                x = np.linalg.solve(w, scale * (s + s.T) / 2.0)
                want = scipy_linalg.expm(x)
                got = sl.expm(x)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
                assert np.max(np.abs(got.T @ w @ got - w)) <= 1e-12
        # The production draw: same construction, so the same guarantee.
        p = sl.random_symplectic_matrices(space, rng, 1)[0]
        assert np.max(np.abs(p.T @ w @ p - w)) <= 1e-12


def test_expm_exact_cases():
    assert np.max(np.abs(sl.expm(np.zeros((4, 4))) - np.eye(4))) < 1e-15
    rot = sl.expm(np.array([[0.0, -np.pi / 2], [np.pi / 2, 0.0]]))
    assert np.max(np.abs(rot - [[0.0, -1.0], [1.0, 0.0]])) < 1e-15
    # Large norm: the scaling-and-squaring branch.
    assert sl.expm(np.diag([30.0, -30.0])) == pytest.approx(np.diag([np.exp(30.0),
                                                                      np.exp(-30.0)]),
                                                             rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_structure_draws_equal_the_sample_loop(n):
    # The per-sample draw that `random_compatible_structures` stacks: one
    # (d, d) normal draw, expm, conjugation and polarization per sample.
    space = sl.standard_symplectic(n)
    j0 = sl.standard_complex_structure(n).J

    def one(rng, scale):
        s = rng.standard_normal((2 * n, 2 * n))
        p = sl.expm(np.linalg.solve(space.form, scale * (s + s.T) / 2.0))
        return sl.polarize_structure(p @ j0 @ np.linalg.inv(p))

    for scale in (0.4, 2.5):
        rng = np.random.default_rng([7, n])
        loop = np.stack([one(rng, scale) for _ in range(20)])
        stacked = sl.random_compatible_structures(space, np.random.default_rng([7, n]), 20,
                                                  scale=scale)
        assert np.array_equal(stacked, loop)
    single = sl.random_compatible_structure(space, np.random.default_rng([7, n]))
    assert np.array_equal(single.J, one(np.random.default_rng([7, n]), 0.4))


def test_stacked_expm_squares_each_matrix_as_often_as_alone():
    # Norms on both sides of PADE13_THETA: zero, one and several squarings.
    rng = np.random.default_rng(5)
    scales = np.array([0.1, 1.0, 3.0, 10.0, 0.5, 40.0])
    stack = rng.standard_normal((6, 4, 4)) * scales[:, None, None]
    got = sl.expm(stack)
    for i, m in enumerate(stack):
        assert np.array_equal(got[i], sl.expm(m))
    assert np.array_equal(sl.expm(stack.reshape(2, 3, 4, 4)), got.reshape(2, 3, 4, 4))
