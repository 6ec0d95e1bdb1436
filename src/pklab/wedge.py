"""Exterior-power bookkeeping on a 2n-dimensional complex coordinate space.

Basis wedges are lexicographically ordered index sets; sign conventions are
fixed once by sorting permutations.  Operators on degree-1 extend either
multiplicatively (compound matrix, for frame changes and Gram matrices) or as
even derivations (for degree-(-1,1) fields).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np


@lru_cache(maxsize=None)
def basis(dim: int, k: int) -> tuple[tuple[int, ...], ...]:
    if k < 0 or k > dim:
        raise ValueError(f"degree {k} out of range for dimension {dim}")
    return tuple(combinations(range(dim), k))


@lru_cache(maxsize=None)
def index_map(dim: int, k: int) -> dict[tuple[int, ...], int]:
    return {s: i for i, s in enumerate(basis(dim, k))}


def sort_sign(indices: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sorted index tuple and permutation sign; sign 0 on repeats."""
    arr = list(indices)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(arr)):
        if arr[i - 1] == arr[i]:
            return tuple(arr), 0
    return tuple(arr), sign


@lru_cache(maxsize=None)
def _laplace_table(dim: int, k: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Gather table of the first-row Laplace expansion of the k-compound.

    For basis sets I, J of degree k and each position p < k,

        C_k[I, J] = sum_p (-1)^p m[I_0, J_p] C_{k-1}[I - I_0, J - J_p].

    Entry p is a pair of (C_k, C_k) flat indices: into m (dim x dim) and
    into C_{k-1}.  The cached arrays are shared and read-only.
    """
    sets = basis(dim, k)
    idx = index_map(dim, k - 1)
    size = len(basis(dim, k - 1))
    first = np.array([s[0] for s in sets])
    rest = np.array([idx[s[1:]] for s in sets])
    table = []
    for p in range(k):
        col = np.array([s[p] for s in sets])
        minor = np.array([idx[s[:p] + s[p + 1:]] for s in sets])
        entries = (first[:, None] * dim + col[None, :], rest[:, None] * size + minor[None, :])
        for a in entries:
            a.setflags(write=False)
        table.append(entries)
    return tuple(table)


def compound_matrix(m: np.ndarray, k: int) -> np.ndarray:
    """k-th multiplicative extension: entries are k x k minors of m.

    m may carry leading axes; each matrix of the stack is extended.  Degree 1
    is m itself (a copy), not a stack of 1 x 1 determinants.  Up to half the
    dimension, every minor is expanded along its first row over the minors of
    one degree less (`_laplace_table`): degree k then costs sum_j j C(dim, j)^2
    products per matrix, no more than the k^2 C(dim, k)^2 entries of its
    gathered minors, and no determinant call.  Above half the dimension the
    lower degrees outgrow the result (at the top degree of a 16 x 16 matrix,
    degree 8 alone has 12870^2 entries), so each k x k minor is gathered and
    taken by one LAPACK determinant, and the top degree is det m.
    """
    dim = m.shape[-1]
    if k < 0 or k > dim:
        raise ValueError(f"degree {k} out of range for dimension {dim}")
    if k == 0:
        return np.ones(m.shape[:-2] + (1, 1), dtype=complex)
    m = np.asarray(m, dtype=complex)
    if k == 1:
        return m.copy()
    if 2 * k > dim:
        rows = np.array(basis(dim, k))
        m = np.where(np.abs(m) < np.finfo(float).tiny, 0.0, m)    # LAPACK: NaN at subnormal pivots
        return np.linalg.det(m[..., rows[:, None, :, None], rows[None, :, None, :]])
    lead = m.shape[:-2]
    flat = m.reshape(lead + (dim * dim,))
    out = m
    for degree in range(2, k + 1):
        prev = out.reshape(lead + (-1,))
        out = 0.0
        for p, (m_idx, prev_idx) in enumerate(_laplace_table(dim, degree)):
            term = np.take(flat, m_idx, axis=-1) * np.take(prev, prev_idx, axis=-1)
            out = out - term if p % 2 else out + term
    return out


@lru_cache(maxsize=None)
def _derivation_table(dim: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Signed scatter table of the derivation extension on degree k.

    Entry e adds sign[e] * m.ravel()[src[e]] to out[row[e], col[e]].  Entries
    are listed in (column, position, target) order, so one unbuffered
    scatter accumulates every output entry in a fixed order.
    """
    sets = basis(dim, k)
    idx = index_map(dim, k)
    rows, cols, srcs, signs = [], [], [], []
    for col, cs in enumerate(sets):
        for pos in range(k):
            rest = cs[:pos] + cs[pos + 1:]
            for target in range(dim):
                full, sign = sort_sign(rest[:pos] + (target,) + rest[pos:])
                if sign != 0:
                    rows.append(idx[full])
                    cols.append(col)
                    srcs.append(target * dim + cs[pos])
                    signs.append(sign)
    return (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
            np.array(srcs, dtype=np.intp), np.array(signs, dtype=complex))


def derivation_matrix(m: np.ndarray, k: int) -> np.ndarray:
    """Even-derivation extension sum_i 1 x .. x m x .. x 1 on degree k.

    m may carry leading axes; each matrix of the stack is extended.
    """
    dim = m.shape[-1]
    size = len(basis(dim, k))
    m = np.asarray(m, dtype=complex)
    if k == 1:
        return m.copy()
    rows, cols, srcs, signs = _derivation_table(dim, k)
    lead = m.shape[:-2]
    # The stack runs along a trailing axis of the scatter, so every output
    # entry sums its table entries in table order, as for a single matrix.
    values = signs[:, None] * m.reshape(-1, dim * dim).T[srcs]
    out = np.zeros((size, size, values.shape[1]), dtype=complex)
    np.add.at(out, (rows, cols), values)
    return np.ascontiguousarray(np.moveaxis(out, -1, 0)).reshape(lead + (size, size))


def type_masks(n: int, k: int) -> dict[tuple[int, int], np.ndarray]:
    """Boolean masks of the (p, q) blocks; indices below n count toward p."""
    sets = basis(2 * n, k)
    out: dict[tuple[int, int], np.ndarray] = {}
    for p in range(max(0, k - n), min(k, n) + 1):
        q = k - p
        mask = np.array([sum(1 for a in s if a < n) == p for s in sets])
        if mask.any():
            out[(p, q)] = mask
    return out


@lru_cache(maxsize=None)
def conjugation_matrix(n: int, k: int) -> np.ndarray:
    """Signed permutation of wedge indices under the swap a <-> a + n.

    Composed with entrywise conjugation of coordinates this is the real
    structure of the exterior power in a conjugation-adapted degree-1 basis.
    The cached result is shared and read-only.
    """
    sets = basis(2 * n, k)
    idx = index_map(2 * n, k)
    out = np.zeros((len(sets), len(sets)))
    for col, cs in enumerate(sets):
        swapped = tuple((a + n) % (2 * n) for a in cs)
        full, sign = sort_sign(swapped)
        out[idx[full], col] = sign
    out.setflags(write=False)
    return out
