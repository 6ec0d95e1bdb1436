"""Stacked finite-difference stencils against the per-point loops they replaced."""

import numpy as np
import pytest

from pklab import _fd, kns
from pklab import symplin as sl
from pklab import wpcurv as wp


def _real_hessian_loop(f, z, h):
    """All second partials of f in the 2N real coordinates, point by point."""
    x0 = np.concatenate([z.real, z.imag])
    dim = x0.size
    f0 = np.asarray(f(z))

    def feval(dx):
        x = x0 + dx
        return np.asarray(f(x[:dim // 2] + 1j * x[dim // 2:]))

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


def hermitian_hessian_loop(f, z, step=1e-3):
    n = z.size

    def assemble(h):
        rh = _real_hessian_loop(f, z, h)
        out = np.empty((n, n) + rh.shape[2:], dtype=complex)
        for l in range(n):
            for m in range(n):
                xl, yl = l, n + l
                xm, ym = m, n + m
                out[l, m] = 0.25 * ((rh[xl, xm] + rh[yl, ym]) + 1j * (rh[xl, ym] - rh[yl, xm]))
        return out

    coarse, fine = assemble(step), assemble(step / 2.0)
    return (4.0 * fine - coarse) / 3.0


def _fields(n):
    sp = sl.standard_symplectic(n)
    j0 = sl.standard_complex_structure(n)
    _, gram_at = wp.metric_field(sp, j0, sl.unitary_frame(sp, j0))
    rng = np.random.default_rng(n)
    nsym = kns.sym_dim(n)
    mix = rng.standard_normal((3, nsym)) + 1j * rng.standard_normal((3, nsym))

    def analytic(z):
        """A smooth matrix field that is neither holomorphic nor antiholomorphic."""
        u = mix @ z
        return np.outer(u, np.exp(u.conj())) + np.diag(np.abs(u) ** 4)

    return [gram_at, analytic]


@pytest.mark.parametrize("n", [1, 2])
def test_hessian_points_and_combine_equal_the_loop(n):
    z = kns.coords_from_sym(kns.random_bsd_point(n, np.random.default_rng(80 + n), 0.6).phi)
    for f in _fields(n):
        for step in (1e-3, 1e-2):
            oracle = hermitian_hessian_loop(f, z, step)
            assert np.array_equal(_fd.hermitian_hessian(f, z, step), oracle)
            values = np.stack([f(p) for p in _fd.hessian_points(z, step)])
            assert np.array_equal(_fd.hessian_combine(values, step), oracle)
            # The axis points are the gradient's x/y stencil points.
            grads = np.stack([_fd.holo_derivative(f, z, l, step) for l in range(z.size)])
            assert np.array_equal(_fd.hessian_gradient(values, step), grads)


def test_closedness_defect_matches_the_pair_loop():
    rng = np.random.default_rng(3)
    grads = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
    worst = max(float(np.max(np.abs(grads[c][a, :] - grads[a][c, :])))
                for c in range(4) for a in range(c + 1, 4))
    assert _fd.closedness_defect(grads) == worst
    assert _fd.closedness_defect(grads[:1, :1]) == 0.0
