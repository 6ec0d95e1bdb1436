"""Exterior-power bookkeeping: the table-driven derivation extension against
the index loop it replaced, its defining properties, stacked inputs, the
cached real structure, and the batched metric pairing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pklab import kns, wedge
from pklab import symplin as sl
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


def test_derivation_matrix_degree_one_is_a_copy():
    m = _random_complex(np.random.default_rng(0), 4)
    d = wedge.derivation_matrix(m, 1)
    assert np.array_equal(d, m)
    d[0, 0] = 99.0
    assert m[0, 0] != 99.0


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
    space = sl.standard_symplectic(n)
    j0 = sl.standard_complex_structure(n)
    frame = sl.unitary_frame(space, j0)
    field_, gram_at = wp.metric_field(space, j0, frame)
    rng = np.random.default_rng(10 + n)
    for _ in range(3):
        coords = kns.coords_from_sym(kns.random_bsd_point(n, rng, 0.7).phi)
        old = gram_loop(field_, coords)
        new = gram_at(coords)
        assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old))
