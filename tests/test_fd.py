"""Stacked finite-difference stencils against the per-point loops they replaced.

Every field here takes a stack of points (..., N) and returns its values with
the same leading axes; each stencil helper evaluates it once.
"""

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
        """A smooth matrix field that is neither holomorphic nor antiholomorphic.

        u = mix z is summed along the last axis, in one order for a point and
        for a stack."""
        u = (np.asarray(z)[..., None, :] * mix).sum(axis=-1)
        outer = u[..., :, None] * np.exp(u.conj())[..., None, :]
        return outer + np.abs(u)[..., None] ** 4 * np.eye(3)

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


@pytest.mark.parametrize("n", [1, 3])
def test_cached_hessian_offsets_give_the_points_of_a_fresh_table(n):
    z = np.stack([kns.coords_from_sym(kns.random_bsd_point(n, np.random.default_rng(s), 0.6).phi)
                  for s in (1, 2)])
    for step in (1e-3, 4e-3):
        fresh = np.concatenate([_fd._hessian_offsets.__wrapped__(2 * z.shape[-1], h)
                                for h in (step, step / 2.0)])
        x = np.concatenate([z.real, z.imag], axis=-1) + fresh[:, None]
        want = np.concatenate([z[None], x[..., :z.shape[-1]] + 1j * x[..., z.shape[-1]:]])
        assert np.array_equal(_fd.hessian_points(z, step), want)
        assert np.array_equal(_fd.hessian_points(z, step), want)    # from the cache
        table = _fd._hessian_offsets(2 * z.shape[-1], step)
        assert table is _fd._hessian_offsets(2 * z.shape[-1], step)
        assert not table.flags.writeable


def test_closedness_defect_matches_the_pair_loop():
    rng = np.random.default_rng(3)
    grads = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
    worst = max(float(np.max(np.abs(grads[c][a, :] - grads[a][c, :])))
                for c in range(4) for a in range(c + 1, 4))
    assert _fd.closedness_defect(grads) == worst
    assert _fd.closedness_defect(grads[:1, :1]) == 0.0


def _wirtinger_loop(f, z, idx, bar, step=1e-3, richardson=True):
    """Central x/y differences along coordinate idx, one point per call."""

    def shifted(delta):
        w = np.array(z, dtype=complex)
        w[idx] += delta
        return np.asarray(f(w))

    def estimate(h):
        dx = (shifted(h) - shifted(-h)) / (2.0 * h)
        dy = (shifted(1j * h) - shifted(-1j * h)) / (2.0 * h)
        return 0.5 * (dx + 1j * dy) if bar else 0.5 * (dx - 1j * dy)

    if not richardson:
        return estimate(step)
    return (4.0 * estimate(step / 2.0) - estimate(step)) / 3.0


class _Counted:
    """A field that counts its calls."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, z):
        self.calls += 1
        return self.f(z)


@pytest.mark.parametrize("n", [1, 2])
def test_each_stencil_helper_calls_its_field_once(n):
    z = kns.coords_from_sym(kns.random_bsd_point(n, np.random.default_rng(60 + n), 0.6).phi)
    direction = np.linspace(0.3, 1.0, z.size) + 0.2j
    for f in _fields(n):
        for helper, args in ((_fd.holo_derivative, (z, z.size - 1)),
                             (_fd.antiholo_derivative, (z, 0)),
                             (_fd.dbar_along, (z, direction)),
                             (_fd.hermitian_hessian, (z,)),
                             (_fd.d_residual_11, (z,))):
            counted = _Counted(f)
            helper(counted, *args)
            assert counted.calls == 1, helper.__name__


@pytest.mark.parametrize("n", [1, 2])
def test_first_derivative_helpers_equal_the_point_loops(n):
    z = kns.coords_from_sym(kns.random_bsd_point(n, np.random.default_rng(70 + n), 0.6).phi)
    direction = np.linspace(0.3, 1.0, z.size) + 0.2j
    for f in _fields(n):
        for idx in range(z.size):
            assert np.array_equal(_fd.holo_derivative(f, z, idx),
                                  _wirtinger_loop(f, z, idx, False))
            assert np.array_equal(_fd.antiholo_derivative(f, z, idx, richardson=False),
                                  _wirtinger_loop(f, z, idx, True, richardson=False))
        along = _wirtinger_loop(lambda w: f(z + w[0] * direction), np.zeros(1), 0, True,
                                richardson=False)
        assert np.array_equal(_fd.dbar_along(f, z, direction), along)
        grads = np.stack([_wirtinger_loop(f, z, c, False) for c in range(z.size)])
        assert _fd.d_residual_11(f, z) == _fd.closedness_defect(grads)
