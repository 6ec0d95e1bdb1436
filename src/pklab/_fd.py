"""Finite-difference helpers for Wirtinger derivatives of matrix-valued fields.

All fields are real-analytic functions of several complex variables, given as
callables on stacks of points: a field takes complex coordinates of shape
(..., N) and returns its values with the same leading axes, followed by the
value's own shape.  Derivatives are taken coordinate by coordinate with
central differences:

    d/dz   = (d/dx - i d/dy) / 2,      d/dzbar = (d/dx + i d/dy) / 2,

optionally improved by one step of Richardson extrapolation (h and h/2).
A stencil is built in two parts: one function stacks its shifted points
(`xy_points`, `gradient_points`, `hessian_points`) and another forms the
derivative from the field values there (`xy_combine`, `hessian_combine`,
`hessian_gradient`).  The helpers that take a field (`holo_derivative`,
`antiholo_derivative`, `dbar_along`, `hermitian_hessian`, `d_residual_11`)
evaluate it once, on the whole stencil.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Callable

import numpy as np

Field = Callable[[np.ndarray], np.ndarray]

DEFAULT_STEP = 1e-3


def _shift(z: np.ndarray, idx: int, delta: complex) -> np.ndarray:
    w = np.array(z, dtype=complex)
    w[..., idx] += delta
    return w


def xy_points(z: np.ndarray, idx: int, step: float = DEFAULT_STEP,
              richardson: bool = True) -> np.ndarray:
    """Shifted points of the central x/y stencil along coordinate idx.

    Returns z + h, z - h, z + ih, z - ih (h = step), followed by the same
    four at h/2 unless Richardson is disabled, stacked on a new leading
    axis: shape (8, ...) or (4, ...) for z of shape (..., N).
    """
    out = []
    for h in ((step, step / 2.0) if richardson else (step,)):
        for delta in (h, 1j * h):
            out += [_shift(z, idx, delta), _shift(z, idx, -delta)]
    return np.stack(out)


def xy_combine(values: np.ndarray, bar: bool, step: float = DEFAULT_STEP,
               richardson: bool = True) -> np.ndarray:
    """Wirtinger derivative from field values at the `xy_points` stencil.

    values[s] is the field at the s-th stencil point (any trailing shape);
    returns d/dz = (d/dx - i d/dy) / 2, or d/dzbar = (d/dx + i d/dy) / 2
    when bar is set, by central differences with one Richardson step.
    """
    def estimate(v, h):
        dx = (v[0] - v[1]) / (2.0 * abs(h))
        dy = (v[2] - v[3]) / (2.0 * abs(h))
        return 0.5 * (dx + 1j * dy) if bar else 0.5 * (dx - 1j * dy)

    if not richardson:
        return estimate(values, step)
    coarse, fine = estimate(values[:4], step), estimate(values[4:], step / 2.0)
    return (4.0 * fine - coarse) / 3.0


def holo_derivative(f: Field, z: np.ndarray, idx: int, step: float = DEFAULT_STEP,
                    richardson: bool = True) -> np.ndarray:
    """d f / d z^idx by central differences along the x and y directions."""
    values = np.asarray(f(xy_points(z, idx, step, richardson)))
    return xy_combine(values, False, step, richardson)


def antiholo_derivative(f: Field, z: np.ndarray, idx: int, step: float = DEFAULT_STEP,
                        richardson: bool = True) -> np.ndarray:
    """d f / d zbar^idx by central differences."""
    values = np.asarray(f(xy_points(z, idx, step, richardson)))
    return xy_combine(values, True, step, richardson)


def dbar_along(f: Field, z: np.ndarray, direction: np.ndarray, step: float = DEFAULT_STEP,
               richardson: bool = False) -> np.ndarray:
    """d f / d zbar along a complex direction (f restricted to z + w*direction)."""
    z = np.asarray(z, dtype=complex)
    direction = np.asarray(direction, dtype=complex)

    def g(w: np.ndarray) -> np.ndarray:
        return f(z + w[..., :1] * direction)

    return antiholo_derivative(g, np.zeros(1, dtype=complex), 0, step=step, richardson=richardson)


def gradient_points(z: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """`xy_points` along every coordinate: shape (8, ..., N, N) for z (..., N).

    The leading axis is the stencil point and the next-to-last the coordinate,
    so `xy_combine` of field values there is the gradient (..., N, ...), and a
    stencil of stencils is `gradient_points` of these points.
    """
    return np.stack([xy_points(z, j, step) for j in range(z.shape[-1])], axis=-2)


# The real Hessian stencil.  For each h in (step, step/2) it holds the 4N
# axis points x0 +- h e_a (a over the 2N real coordinates, x then y) and the
# mixed points x0 + (+-h e_a) + (+-h e_b) of every pair a < b, 8 N^2 points;
# the base point comes first, shared by both steps.  The axis points of
# coordinate l along x and y are its `xy_points`, so the same values also
# give the holomorphic gradient (`hessian_gradient`).

@lru_cache(maxsize=None)
def _hessian_offsets(dim: int, h: float) -> np.ndarray:
    """The offsets of one step h, built once per (dim, h) and read-only."""
    e = h * np.eye(dim)
    a, b = np.triu_indices(dim, 1)
    mixed = np.stack([e[a] + e[b], e[a] - e[b], -e[a] + e[b], -e[a] - e[b]], axis=1)
    offsets = np.concatenate([e, -e, mixed.reshape(-1, dim)])
    offsets.setflags(write=False)
    return offsets


def hessian_points(z: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Points of the Richardson Hessian stencil at z (..., N): shape
    (1 + 16 N^2, ..., N), the base point first."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    x0 = np.concatenate([z.real, z.imag], axis=-1)
    offsets = np.concatenate([_hessian_offsets(2 * n, h) for h in (step, step / 2.0)])
    x = x0 + offsets.reshape((len(offsets),) + (1,) * (z.ndim - 1) + (2 * n,))
    return np.concatenate([z[None], x[..., :n] + 1j * x[..., n:]])


def _hessian_blocks(values: np.ndarray):
    """N, the base value and, per step, the axis-plus, axis-minus and mixed
    values (the last as (pairs, 4, ...)) of `hessian_points` values."""
    n = isqrt((len(values) - 1) // 16)
    dim = 2 * n
    shape = values.shape[1:]
    return n, values[0], [(v[:dim], v[dim:2 * dim], v[2 * dim:].reshape((-1, 4) + shape))
                          for v in values[1:].reshape((2, -1) + shape)]


def hessian_combine(values: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Mixed complex Hessian d^2 f / (dz^l dzbar^m) from the field values at
    the `hessian_points`: shape (N, N) + the field's shape.

    Uses d_l d_mbar = ((Dxx + Dyy) + i (Dxy - Dyx)) / 4 on the real stencil,
    with one Richardson step.
    """
    n, f0, blocks = _hessian_blocks(values)
    dim = 2 * n
    upper = np.triu_indices(dim, 1)

    def assemble(block, h):
        plus, minus, mixed = block
        rh = np.empty((dim, dim) + f0.shape, dtype=complex)
        rh[np.arange(dim), np.arange(dim)] = (plus - 2.0 * f0 + minus) / h**2
        off = (mixed[:, 0] - mixed[:, 1] - mixed[:, 2] + mixed[:, 3]) / (4.0 * h**2)
        rh[upper] = off
        rh[upper[::-1]] = off
        return 0.25 * ((rh[:n, :n] + rh[n:, n:]) + 1j * (rh[:n, n:] - rh[n:, :n]))

    coarse, fine = assemble(blocks[0], step), assemble(blocks[1], step / 2.0)
    return (4.0 * fine - coarse) / 3.0


def hessian_gradient(values: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Holomorphic gradient d f / d z^l, shape (N,) + the field's shape, from
    the axis points of the `hessian_points` values: per coordinate, the
    same differences as `holo_derivative`."""
    n, _, blocks = _hessian_blocks(values)
    # (h, x/y, +/-, l) is the xy_points order of every coordinate l.
    axis = np.stack([np.stack([plus, minus]) for plus, minus, _ in blocks])
    axis = axis.reshape((2, 2, 2, n) + values.shape[1:]).swapaxes(1, 2)
    return xy_combine(axis.reshape((8, n) + values.shape[1:]), False, step)


def hermitian_hessian(f: Field, z: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Mixed complex Hessian d^2 f / (dz^l dzbar^m), shape (N, N) + f.shape,
    from one evaluation of f on the `hessian_points`."""
    return hessian_combine(np.asarray(f(hessian_points(z, step))), step)


def closedness_defect(grads: np.ndarray) -> float:
    """max over c < a of |grads[c][a, :] - grads[a][c, :]|, for the holomorphic
    gradient grads[c] = d_c coeff of a (1,1)-form's coefficients."""
    upper = np.triu_indices(len(grads), 1)
    return float(np.max(np.abs((grads - grads.swapaxes(0, 1))[upper]), initial=0.0))


def d_residual_11(coeff: Field, z: np.ndarray, step: float = DEFAULT_STEP) -> float:
    """Sup-norm residual of d(omega) for omega = i * sum coeff[a,b] dz^a wedge dzbar^b.

    d-closedness of a real (1,1)-form is equivalent to the symmetry
    d_c coeff[a,b] = d_a coeff[c,b] of holomorphic derivatives (the (1,2) part
    follows by conjugation).  Returns the worst entrywise violation.
    """
    values = np.asarray(coeff(gradient_points(np.asarray(z, dtype=complex), step)))
    return closedness_defect(xy_combine(values, False, step))
