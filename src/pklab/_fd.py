"""Finite-difference helpers for Wirtinger derivatives of matrix-valued fields.

All fields are real-analytic functions of several complex variables, given as
callables of a complex coordinate vector.  Derivatives are taken coordinate by
coordinate with central differences:

    d/dz   = (d/dx - i d/dy) / 2,      d/dzbar = (d/dx + i d/dy) / 2,

optionally improved by one step of Richardson extrapolation (h and h/2).
A stencil is built in two parts: `xy_points` stacks its shifted points and
`xy_combine` forms the derivative from the field values there, so a field
that takes stacked coordinates is evaluated on whole stencils in one call.
"""

from __future__ import annotations

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


def _xy_stencil(f: Field, z: np.ndarray, idx: int, step: float, richardson: bool,
                bar: bool) -> np.ndarray:
    """Wirtinger derivative of f along coordinate idx, evaluating f at one
    stencil point per call."""
    values = np.stack([np.asarray(f(p)) for p in xy_points(z, idx, step, richardson)])
    return xy_combine(values, bar, step, richardson)


def holo_derivative(f: Field, z: np.ndarray, idx: int, step: float = DEFAULT_STEP,
                    richardson: bool = True) -> np.ndarray:
    """d f / d z^idx by central differences along the x and y directions."""
    return _xy_stencil(f, z, idx, step, richardson, bar=False)


def antiholo_derivative(f: Field, z: np.ndarray, idx: int, step: float = DEFAULT_STEP,
                        richardson: bool = True) -> np.ndarray:
    """d f / d zbar^idx by central differences."""
    return _xy_stencil(f, z, idx, step, richardson, bar=True)


def dbar_along(f: Field, z: np.ndarray, direction: np.ndarray, step: float = DEFAULT_STEP,
               richardson: bool = False) -> np.ndarray:
    """d f / d zbar along a complex direction (f restricted to z + w*direction)."""
    direction = np.asarray(direction, dtype=complex)

    def g(w: np.ndarray) -> np.ndarray:
        return f(np.asarray(z, dtype=complex) + w[0] * direction)

    return antiholo_derivative(g, np.zeros(1, dtype=complex), 0, step=step, richardson=richardson)


def _real_coords(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real, z.imag])


def _from_real(x: np.ndarray) -> np.ndarray:
    half = x.size // 2
    return x[:half] + 1j * x[half:]


def _real_hessian(f: Field, z: np.ndarray, h: float) -> np.ndarray:
    """All mixed second partials of f w.r.t. the 2N underlying real coordinates.

    Returns an array of shape (2N, 2N) + f(z).shape.
    """
    x0 = _real_coords(z)
    dim = x0.size
    f0 = np.asarray(f(z))

    def feval(dx):
        return np.asarray(f(_from_real(x0 + dx)))

    out = np.empty((dim, dim) + f0.shape, dtype=complex)
    plus = []
    minus = []
    for a in range(dim):
        e = np.zeros(dim)
        e[a] = h
        plus.append(feval(e))
        minus.append(feval(-e))
    for a in range(dim):
        out[a, a] = (plus[a] - 2.0 * f0 + minus[a]) / h**2
        for b in range(a + 1, dim):
            ea = np.zeros(dim)
            eb = np.zeros(dim)
            ea[a] = h
            eb[b] = h
            mixed = (feval(ea + eb) - feval(ea - eb) - feval(-ea + eb) + feval(-ea - eb)) / (4.0 * h**2)
            out[a, b] = mixed
            out[b, a] = mixed
    return out


def hermitian_hessian(f: Field, z: np.ndarray, step: float = DEFAULT_STEP,
                      richardson: bool = True) -> np.ndarray:
    """Mixed complex Hessian d^2 f / (dz^l dzbar^m), shape (N, N) + f.shape.

    Uses d_l d_mbar = ((Dxx + Dyy) + i (Dxy - Dyx)) / 4 on the real stencil.
    """
    z = np.asarray(z, dtype=complex)
    n = z.size

    def assemble(h):
        rh = _real_hessian(f, z, h)
        out = np.empty((n, n) + rh.shape[2:], dtype=complex)
        for l in range(n):
            for m in range(n):
                xl, yl = l, n + l
                xm, ym = m, n + m
                out[l, m] = 0.25 * ((rh[xl, xm] + rh[yl, ym]) + 1j * (rh[xl, ym] - rh[yl, xm]))
        return out

    if not richardson:
        return assemble(step)
    coarse, fine = assemble(step), assemble(step / 2.0)
    return (4.0 * fine - coarse) / 3.0


def d_residual_11(coeff: Field, z: np.ndarray, step: float = DEFAULT_STEP) -> float:
    """Sup-norm residual of d(omega) for omega = i * sum coeff[a,b] dz^a wedge dzbar^b.

    d-closedness of a real (1,1)-form is equivalent to the symmetry
    d_c coeff[a,b] = d_a coeff[c,b] of holomorphic derivatives (the (1,2) part
    follows by conjugation).  Returns the worst entrywise violation.
    """
    z = np.asarray(z, dtype=complex)
    n = z.size
    grads = [holo_derivative(coeff, z, c, step=step) for c in range(n)]
    worst = 0.0
    for c in range(n):
        for a in range(c + 1, n):
            worst = max(worst, float(np.max(np.abs(grads[c][a, :] - grads[a][c, :]))))
    return worst
