"""Exterior-power bookkeeping: the table-driven derivation and compound
extensions against the index loop and the determinants of gathered minors
they replaced, their defining properties, stacked inputs, the cached real
structure, and the batched metric pairing."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pklab import kns, wedge
from pklab import wpcurv as wp


def derivation_matrix_loop(m, k):
    """The index loop derivation_matrix used before its scatter table."""
    dim = m.shape[0]
    sets = wedge.basis(dim, k)
    idx = wedge.index_map(dim, k)
    out = np.zeros((len(sets), len(sets)), dtype=complex)
    m = np.asarray(m, dtype=complex)
    for col, cs in enumerate(sets):
        for pos in range(k):
            rest = cs[:pos] + cs[pos + 1:]
            for target in range(dim):
                coeff = m[target, cs[pos]]
                if coeff == 0.0:
                    continue
                full, sign = wedge.sort_sign(rest[:pos] + (target,) + rest[pos:])
                if sign != 0:
                    out[idx[full], col] += sign * coeff
    return out


def compound_matrix_by_minors(m, k):
    """The determinants of gathered k x k minors: compound_matrix at every
    degree before its Laplace expansion, and still above half the dimension."""
    sets = wedge.basis(m.shape[-1], k)
    rows = np.array(sets, dtype=int).reshape(len(sets), k)
    m = np.asarray(m, dtype=complex)
    return np.linalg.det(m[..., rows[:, None, :, None], rows[None, :, None, :]])


def gram_loop(field_, coords):
    """The per-entry trace pairing metric_field's gram_at used before batching."""
    theta = field_.theta(coords)
    h = field_.gram(coords)
    hinv = np.linalg.inv(h)
    adjoints = [hinv @ t.conj().T @ h for t in theta]
    nsym = len(theta)
    out = np.empty((nsym, nsym), dtype=complex)
    for j in range(nsym):
        for k in range(nsym):
            out[j, k] = np.trace(theta[j] @ adjoints[k])
    return out


def _random_complex(rng, dim, zero_fraction=0.0):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m[rng.random((dim, dim)) < zero_fraction] = 0.0
    return m


@pytest.mark.parametrize("dim", range(1, 7))
def test_derivation_matrix_equals_loop(dim):
    rng = np.random.default_rng(dim)
    for zero_fraction in (0.0, 0.4):
        m = _random_complex(rng, dim, zero_fraction)
        for k in range(dim + 1):
            assert np.array_equal(wedge.derivation_matrix(m, k),
                                  derivation_matrix_loop(m, k)), (dim, k)


@pytest.mark.parametrize("dim", range(1, 7))
def test_stacked_extensions_equal_each_matrix(dim):
    rng = np.random.default_rng(20 + dim)
    stack = np.stack([_random_complex(rng, dim, 0.2) for _ in range(6)]).reshape(2, 3, dim, dim)
    for k in range(dim + 1):
        for extend in (wedge.compound_matrix, wedge.derivation_matrix):
            out = extend(stack, k)
            size = len(wedge.basis(dim, k))
            assert out.shape == (2, 3, size, size)
            for idx in np.ndindex(2, 3):
                assert np.array_equal(out[idx], extend(stack[idx], k)), (extend, dim, k)


@pytest.mark.parametrize("dim", range(1, 7))
def test_compound_matrix_equals_determinants_of_minors(dim):
    rng = np.random.default_rng(40 + dim)
    stack = np.stack([_random_complex(rng, dim, 0.2) for _ in range(6)]).reshape(2, 3, dim, dim)
    for k in range(dim + 1):
        new, old = wedge.compound_matrix(stack, k), compound_matrix_by_minors(stack, k)
        assert new.shape == old.shape
        assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old)), (dim, k)


@pytest.mark.parametrize("dim, degrees", [(6, range(7)), (16, (1, 2, 3, 15, 16))])
def test_compound_tables_never_outgrow_the_result(monkeypatch, dim, degrees):
    """No Laplace table of a lower degree has more entries than the k-compound
    asked for: the top degree of a 16 x 16 matrix is one determinant, not a
    climb through the 12870 x 12870 minors of degree 8."""
    table = wedge._laplace_table
    for k in degrees:
        def guarded(d, degree, k=k):
            assert comb(d, degree) <= comb(d, k), (d, degree, k)
            return table(d, degree)

        monkeypatch.setattr(wedge, "_laplace_table", guarded)
        rng = np.random.default_rng(dim + k)
        stack = np.stack([_random_complex(rng, dim) for _ in range(2)])
        out = wedge.compound_matrix(stack, k)
        assert out.shape == (2, comb(dim, k), comb(dim, k))
        if k == dim:
            det = np.linalg.det(stack)
            assert np.max(np.abs(out[:, 0, 0] - det)) <= 1e-13 * np.max(np.abs(det))


def test_derivation_matrix_degree_one_is_a_copy():
    m = _random_complex(np.random.default_rng(0), 4)
    d = wedge.derivation_matrix(m, 1)
    assert np.array_equal(d, m)
    d[0, 0] = 99.0
    assert m[0, 0] != 99.0


def test_compound_matrix_above_half_degree_at_subnormal_entries():
    # LAPACK's determinant of a minor with a subnormal LU pivot is NaN; the
    # degree-1 Gram of HiggsField at coordinates of 1e-314 (n = 2) has this
    # pattern, and its degree-3 compound is the Gram of degree 3.
    m = np.eye(4, dtype=complex)
    m[:2, 2:] = 1e-314 * _random_complex(np.random.default_rng(7), 2)   # that Gram's pattern
    m[2:, :2] = m[:2, 2:].conj().T
    for k in (3, 4):
        want = wedge.compound_matrix(np.eye(4, dtype=complex), k)
        assert np.max(np.abs(wedge.compound_matrix(m, k) - want)) <= 1e-300


def test_compound_matrix_degree_one_is_an_exact_copy():
    m = _random_complex(np.random.default_rng(1), 4)
    stack = np.stack([m, 2.0 * m])
    assert np.array_equal(wedge.compound_matrix(stack, 1), stack)
    c = wedge.compound_matrix(m, 1)
    assert np.array_equal(c, m)
    c[0, 0] = 99.0
    assert m[0, 0] != 99.0


_entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def _matrix_pair_and_degree(draw):
    dim = draw(st.integers(1, 5))
    k = draw(st.integers(0, dim))
    parts = draw(hnp.arrays(np.float64, (4, dim, dim), elements=_entries,
                            fill=st.nothing()))
    return parts[0] + 1j * parts[1], parts[2] + 1j * parts[3], k


@settings(max_examples=60, deadline=None)
@given(_matrix_pair_and_degree())
def test_derivation_is_derivative_of_compound(case):
    a, _, k = case
    dim = a.shape[0]
    t = 1e-5
    eye = np.eye(dim)
    central = (wedge.compound_matrix(eye + t * a, k)
               - wedge.compound_matrix(eye - t * a, k)) / (2 * t)
    assert np.max(np.abs(wedge.derivation_matrix(a, k) - central), initial=0.0) < 1e-6


@settings(max_examples=60, deadline=None)
@given(_matrix_pair_and_degree())
def test_compound_matrix_is_multiplicative(case):
    a, b, k = case
    lhs = wedge.compound_matrix(a @ b, k)
    rhs = wedge.compound_matrix(a, k) @ wedge.compound_matrix(b, k)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))
    if k == 1:
        assert np.array_equal(wedge.compound_matrix(a, k), a)


@settings(max_examples=60, deadline=None)
@given(_matrix_pair_and_degree())
def test_compound_of_inverse_is_inverse_of_compound(case):
    a, _, k = case
    a = a + 3.0 * np.eye(len(a))       # diagonally dominant: well conditioned
    lhs = wedge.compound_matrix(np.linalg.inv(a), k)
    rhs = np.linalg.inv(wedge.compound_matrix(a, k))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


@settings(max_examples=60, deadline=None)
@given(_matrix_pair_and_degree())
def test_top_compound_is_the_determinant(case):
    a, _, _ = case
    top = wedge.compound_matrix(a, len(a))
    assert top.shape == (1, 1)
    det = np.linalg.det(a)
    assert abs(top[0, 0] - det) <= 1e-12 * max(1.0, abs(det))


@settings(max_examples=60, deadline=None)
@given(_matrix_pair_and_degree())
def test_derivation_preserves_commutators(case):
    a, b, k = case
    da = wedge.derivation_matrix(a, k)
    db = wedge.derivation_matrix(b, k)
    lhs = wedge.derivation_matrix(a @ b - b @ a, k)
    assert np.allclose(lhs, da @ db - db @ da, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugation_matrix_cached_read_only_involution(n):
    for k in range(2 * n + 1):
        c = wedge.conjugation_matrix(n, k)
        assert c is wedge.conjugation_matrix(n, k)
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0, 0] = 2.0
        assert np.array_equal(c @ c, np.eye(c.shape[0]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gram_at_matches_trace_loop(n):
    field_, gram_at = wp.metric_field(n)
    rng = np.random.default_rng(10 + n)
    for _ in range(3):
        coords = kns.coords_from_sym(kns.random_bsd_point(n, rng, 0.7).phi)
        old = gram_loop(field_, coords)
        new = gram_at(coords)
        assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old))
