"""Relative Kahler fibration toolkit on analytic models with torus fibers.

Models carry a local potential for the global form through its second and
third mixed Wirtinger derivatives and the base derivatives of its fiber
metric, written out by hand in numpy for each built-in family
(tests/_symbolic.py differentiates the same potentials with sympy as their
oracle).  `fiber_state` is the one place that evaluates the
fiber data at a base point: the torus grid or box samples, the jets, the
inverse and determinant of the fiber metric, the horizontal lifts, the
geodesic curvature and the variation tensors.  Each check reads a
`FiberState` its caller built once and passed in.  On proper models the
fibers are flat tori, so fiber integration, the Laplacian and the
degeneracy diagnostics are spectral.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import _fd, wedge


class PositivityError(ValueError):
    """Fiber metric fails to be positive definite."""


class PropernessError(ValueError):
    """Operation requires a proper (torus-fiber) model."""


class GridResolutionError(ValueError):
    """Fiber grid too coarse for the potential's spectrum."""


class CaseNotCoveredError(ValueError):
    """Identity only certified for flat fiber metrics here."""


# ---------------------------------------------------------------------------
# Model definition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FibrationModel:
    """Analytic relative Kahler model with one-dimensional base.

    ``second(t, pts)`` returns (bb, bf, ff): the mixed base-base (P,),
    base-fiber (n, P) and fiber-fiber (n, n, P) second derivatives of the
    potential at fiber points ``pts`` (complex (n, *P)).  The base point t is
    a scalar or an array broadcast against the point axes P, one base point
    per fiber point.  ``third`` returns (bff, fff) with
    bff[c, b] = d_t d_cbar d_bbar g and fff[a, c, b] = d_a d_cbar d_bbar g.
    ``metric_t`` returns the base derivatives (ff_t, ff_ttb, ff_tb) of the
    fiber metric ff[a, c] = d_a d_cbar g: ff_t[a, c] = d_t ff[a, c] and
    ff_ttb[a, c] = d_t d_tbar ff[a, c] (n, n, P), and ff_tb[a, c, b] =
    d_t d_bbar ff[a, c] (n, n, n, P).
    ``lattice`` maps t to 2n complex generators (rows) of the fiber lattice,
    or None for non-proper models.
    """

    name: str
    n: int
    second: Callable
    third: Callable
    metric_t: Callable
    lattice: Callable | None = None
    grid: int = 64

    @property
    def proper(self) -> bool:
        return self.lattice is not None


def model_from_potential(jets: tuple[Callable, Callable, Callable], name: str, n: int = 1,
                         lattice: Callable | None = None, grid: int = 64) -> FibrationModel:
    """Build a model from the closed-form ``(second, third, metric_t)`` jets
    of its potential.

    Every built-in family goes through here, one call per model.
    """
    second, third, metric_t = jets
    return FibrationModel(name=name, n=n, second=second, third=third, metric_t=metric_t,
                          lattice=lattice, grid=grid)


def _wirtinger(tv, pts):
    """(t, tbar, z, zbar) of an n = 1 model at base points tv and fiber points pts.

    A scalar tv is read as a one-element stack, so a scalar and a stacked
    base point go through the same numpy array arithmetic.
    """
    z = np.asarray(pts, dtype=complex)[0]
    t = np.reshape(tv, (1,) * z.ndim) if np.ndim(tv) == 0 else tv
    return t, np.conj(t), z, np.conj(z)


def _point_shape(tv, pts) -> tuple[int, ...]:
    """The point axes of a jet: those of the fiber points pts (n, *P)
    broadcast with the base points tv."""
    return np.broadcast_shapes(np.shape(tv), np.shape(pts)[1:])


def _full(value, shape) -> np.ndarray:
    return np.broadcast_to(np.asarray(value, dtype=complex), shape).copy()


def _n1_second(shape, bb, bf, ff):
    """Second jets of an n = 1 potential, constants broadcast over the points."""
    return _full(bb, shape), _full(bf, shape)[None], _full(ff, shape)[None, None]


def _n1_third(shape, bff, fff):
    return _full(bff, shape)[None, None], _full(fff, shape)[None, None, None]


def _n1_metric_t(shape, ff_t, ff_ttb, ff_tb):
    return (_full(ff_t, shape)[None, None], _full(ff_ttb, shape)[None, None],
            _full(ff_tb, shape)[None, None, None])


def _split_jets(base_weight: float) -> tuple[Callable, Callable, Callable]:
    """Jets of |z|^2 + w |t|^2."""

    def second(tv, pts):
        return _n1_second(_point_shape(tv, pts), base_weight, 0.0, 1.0)

    def third(tv, pts):
        return _n1_third(_point_shape(tv, pts), 0.0, 0.0)

    def metric_t(tv, pts):
        return _n1_metric_t(_point_shape(tv, pts), 0.0, 0.0, 0.0)

    return second, third, metric_t


def _flat_torus_jets(sign: int) -> tuple[Callable, Callable, Callable]:
    """Jets of -sign i (z + sign zbar)^2 / (t - tbar).

    sign = -1 is the elliptic potential 2 (Im z)^2 / Im t, sign = +1 the
    theta-weight potential 2 (Re z)^2 / Im t.
    """
    c = -sign * 2j

    def second(tv, pts):
        t, tb, z, zb = _wirtinger(tv, pts)
        q = z + sign * zb
        return _n1_second(_point_shape(tv, pts), c * q**2 / (t - tb)**3,
                          -2j * q / (t - tb)**2, 2j / (t - tb))

    def third(tv, pts):
        t, tb, z, _ = _wirtinger(tv, pts)
        return _n1_third(_point_shape(tv, pts), c / (t - tb)**2, 0.0)

    def metric_t(tv, pts):
        # ff = 2i / (t - tbar) does not depend on z.
        t, tb, _, _ = _wirtinger(tv, pts)
        return _n1_metric_t(_point_shape(tv, pts), -2j / (t - tb)**2, -4j / (t - tb)**3, 0.0)

    return second, third, metric_t


def _torus_coordinate(tv, pts):
    """Im t and the Wirtinger jets of a = Re z - Re t Im z / Im t.

    a is affine in (z, zbar), so only its first z-derivatives and its
    t-derivatives appear: returns (s, a_t, a_tbar, a_z, a_zbar, a_ttbar,
    a_tzbar, a).
    """
    t, tb, z, zb = _wirtinger(tv, pts)
    d = t - tb
    w = z - zb
    a = z.real - np.real(t) * z.imag / np.imag(t)
    return (np.imag(t), tb * w / d**2, -t * w / d**2, -tb / d, t / d,
            (t + tb) * w / d**3, -tb / d**2, a)


def _perturbed_torus_jets(eps: float) -> tuple[Callable, Callable, Callable]:
    """Jets of the elliptic potential plus eps s cos(2 pi a), s = Im t.

    Chain rule through the torus coordinate a (`_torus_coordinate`), with
    s_t = 1/(2i) = -s_tbar and every second derivative of a in (z, zbar)
    zero.  The perturbation of the fiber metric is -eps k^2 q cos(k a),
    k = 2 pi, with q = s a_z a_zbar = |t|^2 / (4 s) a function of t alone.
    """
    flat_second, flat_third, flat_metric_t = _flat_torus_jets(-1)
    k = 2.0 * np.pi
    s_t = -0.5j

    def second(tv, pts):
        bb, bf, ff = flat_second(tv, pts)
        s, a_t, a_tb, a_z, a_zb, a_ttb, a_tzb, a = _torus_coordinate(tv, pts)
        cos, sin = np.cos(k * a), np.sin(k * a)
        bb += eps * (-k * sin * (s_t * a_tb - s_t * a_t)
                     - s * (k * k * cos * a_t * a_tb + k * sin * a_ttb))
        bf[0] += eps * (-k * sin * s_t * a_zb
                        - s * (k * k * cos * a_t * a_zb + k * sin * a_tzb))
        ff[0, 0] -= eps * s * k * k * cos * a_z * a_zb
        return bb, bf, ff

    def third(tv, pts):
        bff, fff = flat_third(tv, pts)
        s, a_t, _, a_z, a_zb, _, a_tzb, a = _torus_coordinate(tv, pts)
        cos, sin = np.cos(k * a), np.sin(k * a)
        bff[0, 0] += eps * (-s_t * k * k * cos * a_zb**2
                            + s * (k**3 * sin * a_t * a_zb**2
                                   - 2.0 * k * k * cos * a_tzb * a_zb))
        fff[0, 0, 0] += eps * s * k**3 * sin * a_z * a_zb**2
        return bff, fff

    def metric_t(tv, pts):
        ff_t, ff_ttb, ff_tb = flat_metric_t(tv, pts)
        s, a_t, a_tb, _, a_zb, a_ttb, a_tzb, a = _torus_coordinate(tv, pts)
        x = np.real(_wirtinger(tv, pts)[0])
        # q = (x^2 + s^2) / (4 s) with t = x + i s and d_t = (d_x - i d_s) / 2.
        q = (x * x + s * s) / (4.0 * s)
        q_t = x / (4.0 * s) + 1j * (x * x - s * s) / (8.0 * s * s)
        q_tb = np.conj(q_t)
        q_ttb = (x * x + s * s) / (8.0 * s**3)
        cos, sin = np.cos(k * a), np.sin(k * a)
        scale = -eps * k * k
        ff_t[0, 0] += scale * (q_t * cos - k * q * sin * a_t)
        ff_ttb[0, 0] += scale * (q_ttb * cos - k * sin * (q_t * a_tb + q_tb * a_t)
                                 - k * k * q * cos * a_t * a_tb - k * q * sin * a_ttb)
        ff_tb[0, 0, 0] += scale * (-k * sin * (q_t * a_zb + q * a_tzb)
                                   - k * k * q * cos * a_t * a_zb)
        return ff_t, ff_ttb, ff_tb

    return second, third, metric_t


# ---------------------------------------------------------------------------
# Spectral torus fiber
# ---------------------------------------------------------------------------

class SpectralFiber:
    """Uniform grid on C^n / lattice with exact Fourier differentiation.

    A derivative is a Fourier multiplier: d/dx_r multiplies the coefficient
    of exp(i mu.x) by i mu_r, so d/dz^a and d/dzbar^a multiply it by
    ``symbol_z[a]`` = (i/2)(mu_a - i mu_{n+a}) and ``symbol_zbar[a]`` =
    (i/2)(mu_a + i mu_{n+a}).  Every derivative transforms over the last 2n
    (grid) axes, so a stack of functions is one transform pair.
    """

    def __init__(self, generators: np.ndarray, size: int):
        gens = np.atleast_2d(np.asarray(generators, dtype=complex))
        self.n = gens.shape[1]
        if gens.shape[0] != 2 * self.n:
            raise ValueError("torus needs 2n generators")
        self.size = size
        self.gens = gens
        cols = [np.concatenate([g.real, g.imag]) for g in gens]
        self.L = np.stack(cols, axis=1)
        self.covolume = abs(np.linalg.det(self.L))
        if self.covolume < 1e-12:
            raise ValueError("degenerate lattice")
        axes = np.meshgrid(*([np.arange(size) / size] * (2 * self.n)), indexing="ij")
        frac = np.stack([a for a in axes])                     # (2n, grid)
        xy = np.einsum("rs,s...->r...", self.L, frac)
        self.points_grid = xy[: self.n] + 1j * xy[self.n:]      # (n, grid)
        self.shape = self.points_grid.shape[1:]
        freqs = np.meshgrid(*([np.fft.fftfreq(size, d=1.0 / size)] * (2 * self.n)),
                            indexing="ij")
        k = np.stack(freqs)                                     # (2n, grid)
        mu = 2.0 * np.pi * np.einsum("rs,s...->r...", np.linalg.inv(self.L).T, k)
        self.symbol_z = 0.5j * (mu[:self.n] - 1j * mu[self.n:])      # (n, grid)
        self.symbol_zbar = 0.5j * (mu[:self.n] + 1j * mu[self.n:])
        self._axes = tuple(range(-2 * self.n, 0))

    def _multiply(self, f: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        """The Fourier multiplier `symbol` applied to f (..., grid): one
        fftn and one ifftn over the grid axes, the latter in place."""
        spec = symbol * np.fft.fftn(f, axes=self._axes)
        return np.fft.ifftn(spec, axes=self._axes, out=spec)

    def d_z(self, f: np.ndarray, a: int) -> np.ndarray:
        return self._multiply(f, self.symbol_z[a])

    def d_zbar(self, f: np.ndarray, a: int) -> np.ndarray:
        return self._multiply(f, self.symbol_zbar[a])

    def second(self, f: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """[a, b] = D_a E_b f for the multiplier stacks left = D and right = E
        (each `symbol_z` or `symbol_zbar`): shape (n, n) + f.shape, the
        products of the symbols under one transform pair."""
        n = self.n
        product = (left[:, None] * right[None, :]).reshape(
            (n, n) + (1,) * (np.ndim(f) - 2 * n) + self.shape)
        return self._multiply(f, product)

    def integrate_lebesgue(self, f: np.ndarray) -> complex | np.ndarray:
        """Integral of f (..., grid) against Lebesgue measure, per leading index."""
        return np.mean(f, axis=self._axes) * self.covolume

    def integrate_volume(self, f: np.ndarray, det_ff: np.ndarray) -> complex | np.ndarray:
        """Integral of f (..., grid) against the fiber volume form
        (2^n det g) dLeb, per leading index."""
        return np.mean(f * det_ff, axis=self._axes) * (2.0 ** self.n) * self.covolume

    def nyquist_fraction(self, f: np.ndarray) -> float:
        spec = np.abs(np.fft.fftn(f)) ** 2
        total = float(np.sum(spec))
        if total == 0.0:
            return 0.0
        freqs = np.meshgrid(*([np.abs(np.fft.fftfreq(self.size, d=1.0 / self.size))] *
                              (2 * self.n)), indexing="ij")
        top = np.stack(freqs).max(axis=0) > self.size / 3.0
        return float(np.sum(spec[top]) / total)

    def check_resolution(self, f: np.ndarray, tol: float = 1e-10,
                         floor: float = 1e-12) -> None:
        if float(np.max(np.abs(f))) < floor:
            return   # field is numerically zero; nothing to resolve
        frac = self.nyquist_fraction(f)
        if frac > tol:
            raise GridResolutionError(
                f"fiber grid of {self.size} points per axis too coarse: top-third "
                f"spectral energy fraction {frac:.2e} exceeds {tol:.0e}")


# ---------------------------------------------------------------------------
# Pointwise fiber data
# ---------------------------------------------------------------------------

# Box samples per non-proper fiber, drawn from [-1, 1]^2 in each coordinate.
BOX_SAMPLES = 64


@dataclass(frozen=True)
class FiberState:
    """The fiber data of a model at one base point t (or, from
    `evaluate_fields`, at one base point per fiber point).

    Arrays carry the point axes P last, the 2n grid axes of the torus grid
    or one axis of box samples: ``bb`` (P,), ``bf`` (n, P) and ``ff``
    (n, n, P) are the second jets, ``ff_inv`` and ``det_ff`` the
    inverse and determinant of the fiber metric, ``fff`` (n, n, n, P) its
    fiber derivatives fff[a, c, b] = d_bbar ff[a, c], ``lifts`` (n, P) the fiber
    components u^a with V = d_t - u^a d_a, ``c`` (P,) the geodesic curvature
    and ``ks`` (n, n, P) the tensor A^a_b = ks[a, b] of the fiber-direction
    variation; ``kappa_pair`` gives its pointwise metric pairing.
    ``spectral`` is the torus grid of a proper model, None for box samples
    and for the points `evaluate_fields` is handed.
    """

    model: FibrationModel
    t: complex
    points: np.ndarray
    bb: np.ndarray
    bf: np.ndarray
    ff: np.ndarray
    ff_inv: np.ndarray
    det_ff: np.ndarray
    fff: np.ndarray
    lifts: np.ndarray
    c: np.ndarray
    ks: np.ndarray
    spectral: SpectralFiber | None

    def kappa_pair(self, other_ks: np.ndarray | None = None) -> np.ndarray:
        """Pointwise metric pairing <ks, other_ks> of variation tensors."""
        other = self.ks if other_ks is None else other_ks
        return kappa_pairing(self.ks, other, self.ff, self.ff_inv)


def kappa_pairing(a: np.ndarray, b: np.ndarray, ff: np.ndarray,
                  ff_inv: np.ndarray) -> np.ndarray:
    """<A, B> = A^a_c conj(B^s_g) g_{a sbar} conj(g^{gbar c}) pointwise."""
    return np.einsum("ac...,sg...,as...,gc...->...", a, b.conj(), ff, ff_inv.conj())


def _require_positive(ff: np.ndarray) -> None:
    """Raise PositivityError unless the Hermitian part of every fiber metric
    ff[:, :, ...] is positive definite (for one-dimensional fibers: Re ff)."""
    if len(ff) == 1:
        least = ff[0, 0].real
    else:
        moved = np.moveaxis(ff, (0, 1), (-2, -1))
        least = np.linalg.eigvalsh(0.5 * (moved + np.conj(np.swapaxes(moved, -1, -2))))
    if least.min() <= 0:
        raise PositivityError("fiber metric is not positive definite")


def _invert_ff(ff: np.ndarray) -> np.ndarray:
    _require_positive(ff)
    if len(ff) == 1:
        return 1.0 / ff
    return np.moveaxis(np.linalg.inv(np.moveaxis(ff, (0, 1), (-2, -1))), (-2, -1), (0, 1))


def _det_ff(ff: np.ndarray) -> np.ndarray:
    if len(ff) == 1:
        return ff[0, 0].copy()
    return np.linalg.det(np.moveaxis(ff, (0, 1), (-2, -1)))


def evaluate_fields(model: FibrationModel, t: complex | np.ndarray,
                    pts: np.ndarray) -> FiberState:
    """The fiber data at the given fiber points (``spectral`` None); t is one
    base point, or an array of them broadcast against the point axes of pts."""
    bb, bf, ff = model.second(t, pts)
    ff_inv = _invert_ff(ff)
    # u^a = g_{t bbar} g^{bbar a};  the inverse convention is
    # g^{bbar a} = ff_inv[b, a].
    u = np.einsum("b...,ba...->a...", bf, ff_inv)
    c = bb - np.einsum("a...,a...->...", u, bf.conj())
    bff, fff = model.third(t, pts)
    # d_bbar(ff_inv)[c, a] = -sum ff_inv[c, s] fff[s, m, b] ff_inv[m, a].
    dinv = -np.einsum("cs...,smb...,ma...->cab...", ff_inv, fff, ff_inv)
    ks = -(np.einsum("cb...,ca...->ab...", bff, ff_inv)
           + np.einsum("c...,cab...->ab...", bf, dinv))
    return FiberState(model=model, t=t, points=pts, bb=bb, bf=bf, ff=ff, ff_inv=ff_inv,
                      det_ff=_det_ff(ff), fff=fff, lifts=u, c=c, ks=ks, spectral=None)


def _fiber_points(model: FibrationModel, t: complex,
                  seed: int) -> tuple[SpectralFiber | None, np.ndarray]:
    """The torus grid of a proper model at t (with its spectral fiber), or
    BOX_SAMPLES box points drawn with `seed` otherwise."""
    if model.proper:
        fiber = SpectralFiber(model.lattice(t), model.grid)
        return fiber, fiber.points_grid
    rng = np.random.default_rng(seed)
    return None, (rng.uniform(-1.0, 1.0, (model.n, BOX_SAMPLES))
                  + 1j * rng.uniform(-1.0, 1.0, (model.n, BOX_SAMPLES)))


def check_positivity(model: FibrationModel, t: complex) -> None:
    """Raise PositivityError where `fiber_state(model, t)` would, from the
    fiber metric alone."""
    _require_positive(model.second(t, _fiber_points(model, t, 0)[1])[2])


def fiber_state(model: FibrationModel, t: complex, seed: int = 0) -> FiberState:
    """Evaluate the fiber data at t on the torus grid of a proper model, or
    on BOX_SAMPLES box points drawn with `seed` otherwise."""
    fiber, pts = _fiber_points(model, t, seed)
    state = evaluate_fields(model, t, pts)
    _require_hermitian(state.c)
    return replace(state, spectral=fiber)


def _require_hermitian(c: np.ndarray) -> None:
    """Raise unless the geodesic curvature c at one base point is real."""
    herm = float(np.max(np.abs(c.imag)))
    if herm > 1e-9 * max(1.0, float(np.max(np.abs(c)))):
        raise ValueError(f"geodesic curvature failed Hermiticity ({herm:.2e})")


# ---------------------------------------------------------------------------
# Degeneracy diagnostics
# ---------------------------------------------------------------------------

# Step of the pointwise Wirtinger stencils in the (t, zeta) coordinates.
FD_STEP = 1e-4

# Seed of the box samples at the first base point of pk_residual; the i-th
# base point draws with PK_SEED + i.
PK_SEED = 1


def form_matrix(bb: np.ndarray, bf: np.ndarray, ff: np.ndarray) -> np.ndarray:
    """Full (1+n) x (1+n) coefficient matrix of the form at each point, from
    the second jets ``model.second`` returns."""
    n = bf.shape[0]
    h = np.empty((1 + n, 1 + n) + bb.shape, dtype=complex)
    h[0, 0] = bb
    h[0, 1:] = bf
    h[1:, 0] = bf.conj()
    h[1:, 1:] = np.einsum("ab...->ba...", ff).conj()  # g_{a kbar} = conj(g_{k abar})
    return h


def top_power_norm(h: np.ndarray, fiber_dim: int) -> np.ndarray:
    """Pointwise coefficient norm of the (fiber_dim+1)-st power of a (1,1)-form.

    ``h`` is one coefficient matrix or a stack of them (matrix axes last).
    The coefficients of omega^{k} / k! are the k-minors of the matrix, the
    entries of its `wedge.compound_matrix`; their Euclidean norm is returned.
    """
    minors = wedge.compound_matrix(h, fiber_dim + 1)
    return np.sqrt(np.sum(np.abs(minors) ** 2, axis=(-2, -1)))


@dataclass(frozen=True)
class PkReport:
    name: str
    max_top_power: float
    max_c: float


def pk_residual(model: FibrationModel, t_samples: Sequence[complex]) -> PkReport:
    """Sup over samples of the top-power coefficient norm and of |c|.

    The fiber points of every sample (`fiber_state`'s, the i-th drawn with
    seed PK_SEED + i) are one stack (n, samples, *P) and one
    `evaluate_fields` call; c is checked for Hermiticity per sample."""
    pts = np.stack([_fiber_points(model, t, PK_SEED + i)[1] for i, t in enumerate(t_samples)],
                   axis=1)
    ts = np.reshape(t_samples, (-1,) + (1,) * (pts.ndim - 2))
    state = evaluate_fields(model, ts, pts)
    for c in state.c:
        _require_hermitian(c)
    h = np.moveaxis(form_matrix(state.bb, state.bf, state.ff), (0, 1), (-2, -1))
    return PkReport(name=model.name, max_top_power=float(np.max(top_power_norm(h, model.n))),
                    max_c=float(np.max(np.abs(state.c))))


def dform_residual(model: FibrationModel, t: complex, zeta: np.ndarray) -> float:
    """d-closedness residual of the corrected form (base block minus c)."""
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)

    def coeff(zvec: np.ndarray) -> np.ndarray:
        state = evaluate_fields(model, zvec[..., 0], np.moveaxis(zvec[..., 1:], -1, 0))
        h = form_matrix(state.bb, state.bf, state.ff)
        h[0, 0] = h[0, 0] - state.c
        return np.moveaxis(h, (0, 1), (-2, -1))

    z0 = np.concatenate([[t], zeta])
    return _fd.d_residual_11(coeff, z0, step=FD_STEP)


# ---------------------------------------------------------------------------
# Fiber-integrated quantities
# ---------------------------------------------------------------------------

def _require_proper(state: FiberState) -> None:
    if state.spectral is None:
        raise PropernessError(f"model {state.model.name!r} has no fiber lattice")


def wp_fiber_metric(state: FiberState, inner: np.ndarray | None = None) -> np.ndarray:
    """1x1 fiber integral of the variation-tensor pairing against the volume;
    inner is the pairing grid (`SchumacherReport.inner`) when the caller has
    already formed it."""
    _require_proper(state)
    fiber = state.spectral
    if inner is None:
        inner = state.kappa_pair()
    val = fiber.integrate_volume(inner, state.det_ff)
    return np.array([[val]])


def dbar_closedness_residual(state: FiberState) -> float:
    """Spectral residual of d_bbar ks[a, c] - d_cbar ks[a, b] on the fiber."""
    _require_proper(state)
    fiber = state.spectral
    ks = state.ks
    n = fiber.n
    worst = 0.0
    for a in range(n):
        for b in range(n):
            for cpt in range(b + 1, n):
                diff = fiber.d_zbar(ks[a, cpt], b) - fiber.d_zbar(ks[a, b], cpt)
                worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def _psi_base_derivatives(state: FiberState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Derivatives of psi = log det(g), g = ff, on the fiber grid at t, in
    closed form from one `metric_t` call and the state's ff_inv and fff:

        psi_{t tbar} = tr(g^-1 d_t d_tbar g) - tr(g^-1 d_tbar g g^-1 d_t g)   (grid),
        psi_{t bbar} = tr(g^-1 d_t d_bbar g) - tr(g^-1 d_bbar g g^-1 d_t g)   (n, grid),
        d_bbar psi   = tr(g^-1 d_bbar g)                                      (n, grid),

    with d_tbar g[a, c] = conj(d_t g[c, a]), d_bbar g = fff[..., b] and the
    inverse g^{cbar a} = ff_inv[c, a]."""
    ff_t, ff_ttb, ff_tb = state.model.metric_t(state.t, state.points)
    inv, fff = state.ff_inv, state.fff
    ff_tbar = np.einsum("ca...->ac...", ff_t).conj()
    psi_ttb = (np.einsum("ca...,ac...->...", inv, ff_ttb)
               - np.einsum("ca...,ad...,de...,ec...->...", inv, ff_tbar, inv, ff_t))
    psi_tb = (np.einsum("ca...,acb...->b...", inv, ff_tb)
              - np.einsum("ca...,adb...,de...,ec...->b...", inv, fff, inv, ff_t))
    return psi_ttb, psi_tb, np.einsum("ca...,acb...->b...", inv, fff)


def relative_canonical_curvature(state: FiberState,
                                 psi: tuple[np.ndarray, np.ndarray, np.ndarray],
                                 psi_fb: np.ndarray) -> np.ndarray:
    """Theta(V, Vbar) grid: curvature of the relative canonical metric paired
    with the horizontal lift, from the `_psi_base_derivatives` of log det(ff)
    and the fiber Hessian psi_fb[a, b] = d_a d_bbar psi (n, n, grid)."""
    fiber = state.spectral
    n = fiber.n
    psi_ttb, psi_tb, _ = psi
    u = state.lifts
    # Theta(V, Vbar) = psi_ttb - sum_b psi_{t bbar} conj(u^b)
    #                - sum_a psi_{a tbar} u^a + sum psi_{a bbar} u^a conj(u^b),
    # with psi_{a tbar} = conj(psi_{t abar}) since psi is real.
    theta = psi_ttb.astype(complex)
    for b in range(n):
        theta = theta - psi_tb[b] * u[b].conj() - psi_tb[b].conj() * u[b]
    for a in range(n):
        for b in range(n):
            theta = theta + psi_fb[a, b] * u[a] * u[b].conj()
    return theta


@dataclass(frozen=True)
class SchumacherReport:
    """The three grids of the identity, its residual, and the derivatives of
    psi = log det(ff) they were computed from: the base derivatives
    (`_psi_base_derivatives`) and the fiber Hessian psi_fb[a, b] =
    d_a d_bbar psi."""

    lhs: np.ndarray
    inner: np.ndarray
    box_c: np.ndarray
    residual: float
    psi: tuple[np.ndarray, np.ndarray, np.ndarray]
    psi_fb: np.ndarray


def box_on_function(fiber: SpectralFiber, f_grid: np.ndarray,
                    ff_inv_grid: np.ndarray) -> np.ndarray:
    """dbar-Laplacian on functions: -g^{bbar a} d_a d_bbar f; f_grid may
    carry leading axes."""
    second = fiber.second(f_grid, fiber.symbol_z, fiber.symbol_zbar)   # [a, b]
    return np.einsum("ba...,ab...->...", -ff_inv_grid, second)


def schumacher_residual(state: FiberState) -> SchumacherReport:
    """Grid residual of: canonical curvature = pairing - Laplacian of c."""
    _require_proper(state)
    fiber = state.spectral
    fiber.check_resolution(state.c.real)
    psi = _psi_base_derivatives(state)
    psi_fb = np.stack([fiber.d_z(psi[2], a) for a in range(fiber.n)])
    lhs = relative_canonical_curvature(state, psi, psi_fb)
    inner = state.kappa_pair()
    box_c = box_on_function(fiber, state.c, state.ff_inv)
    residual = float(np.max(np.abs(lhs - inner + box_c)))
    return SchumacherReport(lhs=lhs, inner=inner, box_c=box_c, residual=residual, psi=psi,
                            psi_fb=psi_fb)


def fs_pushforward_check(state: FiberState,
                         report: SchumacherReport) -> tuple[float, float, float]:
    """Fiber-integral identity: metric = pushforward of curvature wedge volume
    plus pushforward of scalar curvature times the squared form (n = 1).

    ``report`` is the `schumacher_residual` of the same state."""
    _require_proper(state)
    if state.model.n != 1:
        raise CaseNotCoveredError("pushforward identity implemented for 1-dim fibers")
    fiber = state.spectral
    g_ff = state.ff[0, 0].real
    g_bf = state.bf[0]
    g_bb = state.bb

    psi_ttb, (psi_tb,), _ = report.psi
    psi_zzb = report.psi_fb[0, 0]

    lhs = wp_fiber_metric(state, report.inner)[0, 0].real

    scalar = -psi_zzb / g_ff
    det_h = g_bb * g_ff - np.abs(g_bf) ** 2
    wedge_term = 2.0 * fiber.integrate_lebesgue(
        psi_ttb * g_ff + psi_zzb * g_bb - psi_tb * g_bf.conj() - psi_tb.conj() * g_bf).real
    scalar_term = 2.0 * fiber.integrate_lebesgue(scalar * det_h).real
    rhs = wedge_term + scalar_term
    return lhs, rhs, abs(lhs - rhs)


def average_horizontal_positivity(state: FiberState,
                                  report: SchumacherReport) -> tuple[float, float]:
    """(integral of the canonical curvature against the volume, metric value);
    ``report`` is the `schumacher_residual` of the same state."""
    fiber = state.spectral
    lhs = fiber.integrate_volume(report.lhs, state.det_ff).real
    rhs = wp_fiber_metric(state, report.inner)[0, 0].real
    return lhs, rhs


# ---------------------------------------------------------------------------
# Flat-fiber Bochner identities
# ---------------------------------------------------------------------------

def _require_flat_fiber(state: FiberState) -> None:
    n = state.model.n
    ff = state.ff.reshape(n, n, -1)
    spread = float(np.max(np.abs(ff - ff[..., :1])))
    if spread > 1e-10 * max(1.0, float(np.max(np.abs(ff)))):
        raise CaseNotCoveredError("identity requires a fiber-flat metric")


def kappa_phi(state: FiberState, phi_grid: np.ndarray) -> np.ndarray:
    """Flat-fiber variation tensor of fiber potentials phi_grid (..., grid):
    shape (n, n, ..., grid)."""
    fiber = state.spectral
    n = fiber.n
    ff_inv0 = state.ff_inv.reshape(n, n, -1)[..., 0]
    phi = np.asarray(phi_grid)
    second_bar = fiber.second(phi, fiber.symbol_zbar, fiber.symbol_zbar)  # [g, b]
    return np.einsum("ga,gb...->ab...", ff_inv0, second_bar)


def bkn_identity_check(state: FiberState, phi_grid: np.ndarray, kphi: np.ndarray
                       ) -> tuple[float | np.ndarray, float | np.ndarray, str]:
    """(norm of the potential's variation tensor, norm of its Laplacian, case tag).

    phi_grid may carry leading axes, and the norms then carry them too;
    kphi is its variation tensor `kappa_phi(state, phi_grid)`.  For flat
    fiber metrics the two norms agree; curved fiber cases are not covered
    and raise.
    """
    _require_proper(state)
    _require_flat_fiber(state)
    fiber = state.spectral
    phi = np.asarray(phi_grid)
    inner = kappa_pairing(kphi, kphi, state.ff, state.ff_inv).real
    det_ff = state.det_ff.real
    norm_k = np.sqrt(fiber.integrate_volume(inner, det_ff).real)
    del inner
    box_phi = box_on_function(fiber, phi, state.ff_inv)
    norm_box = np.sqrt(fiber.integrate_volume(np.abs(box_phi) ** 2, det_ff).real)
    return norm_k, norm_box, "ricci-flat-fiber"


def kappa_phi_pairing(state: FiberState, kphi: np.ndarray) -> complex | np.ndarray:
    """Fiber integral <ks, kappa^phi> of a variation tensor `kappa_phi`
    returns: vanishes for flat fibers (the scalar curvature is constant, so
    the variational pairing against any potential is trivial)."""
    _require_proper(state)
    _require_flat_fiber(state)
    fiber = state.spectral
    pair = state.kappa_pair(kphi)
    return fiber.integrate_volume(pair, state.det_ff)


# ---------------------------------------------------------------------------
# Vector-field bracket oracles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixedBracketReport:
    verticality_residual: float
    contraction_residual: float


def bracket_mixed_check(model: FibrationModel, t: complex,
                        zeta: np.ndarray) -> MixedBracketReport:
    """[V, conj(V)] is vertical and its hook into the form restricted to the
    fiber equals i d(c) restricted to the fiber.

    The lift components V = (1, -u^1..-u^n) and c are evaluated once, on the
    `_fd.gradient_points` of z0 = (t, zeta) and z0 itself; their holomorphic
    and antiholomorphic derivatives read those values."""
    z0 = np.concatenate([[t], np.asarray(zeta, dtype=complex).reshape(-1)])
    dim = z0.size
    pts = np.concatenate([_fd.gradient_points(z0, FD_STEP).reshape(-1, dim), z0[None]])
    state = evaluate_fields(model, pts[:, 0], pts[:, 1:].T)
    comps = np.concatenate([np.ones((1, len(pts)), dtype=complex), -state.lifts]).T
    v0 = comps[-1]
    comps = comps[:-1].reshape(8, dim, dim)            # [point, coordinate B, component A]
    c = state.c[:-1].reshape(8, dim)

    # (0,1) components of [V, conj(V)]: V^B d_B conj(V^A); (1,0) components:
    # -conj(V^B) d_Bbar V^A.
    d_conj = _fd.xy_combine(comps.conj(), False, FD_STEP)
    dbar = _fd.xy_combine(comps, True, FD_STEP)
    part01 = np.zeros(dim, dtype=complex)
    part10 = np.zeros(dim, dtype=complex)
    for bidx in range(dim):
        part01 += v0[bidx] * d_conj[bidx]
        part10 += -v0[bidx].conj() * dbar[bidx]

    vertical = float(max(abs(part01[0]), abs(part10[0])))

    h = form_matrix(state.bb[-1:], state.bf[:, -1:], state.ff[:, :, -1:])[:, :, 0]
    dc, dc_bar = (_fd.xy_combine(c, bar, FD_STEP) for bar in (False, True))

    worst = 0.0
    for beta in range(1, dim):
        # dzetabar^beta component: sum_A H[A, beta] X^A = d_betabar c.
        lhs = sum(h[a, beta] * part10[a] for a in range(dim))
        worst = max(worst, abs(lhs - dc_bar[beta]))
        # dzeta^beta component: -sum_B H[beta, B] X^{Bbar} = d_beta c.
        lhs2 = -sum(h[beta, b] * part01[b] for b in range(dim))
        worst = max(worst, abs(lhs2 - dc[beta]))
    return MixedBracketReport(verticality_residual=vertical,
                              contraction_residual=float(worst))


# ---------------------------------------------------------------------------
# Closed-form elliptic-curve family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EllipticSlice:
    """Both representations of the family form at one (t, zeta).

    ``map_coefficients`` are (A, B) of the marking map z = A zeta + B conj(zeta)
    normalized by 1 -> 1, t -> i.  ``potential_form`` and ``pullback_form`` are
    the 2x2 coefficient matrices (basis dt, dzeta) from the local potential
    and from pulling back the flat reference form; they must agree.
    """

    t: complex
    map_coefficients: tuple[complex, complex]
    potential_form: np.ndarray
    pullback_form: np.ndarray
    agreement: float
    type_residual: float
    fiber_coefficient: float
    top_power: float


def elliptic_family(t: complex) -> EllipticSlice:
    """Closed-form slice of the flat torus family at a base point.

    Raises for points outside the upper half plane.
    """
    return elliptic_slices([complex(t)])[0]


def elliptic_slices(ts: Sequence[complex]) -> list[EllipticSlice]:
    """`elliptic_family` at every base point of ts: the potential forms of all
    slices from one jet call, and the pullback forms by scalar arithmetic.

    Raises for points outside the upper half plane.
    """
    ts = [complex(t) for t in ts]
    if any(t.imag <= 0 for t in ts):
        raise ValueError("base point must have positive imaginary part")
    # zeta0 and three seeded fiber points, the same at every slice.
    rng = np.random.default_rng(2)
    zetas = [0.37 + 0.41j] + list(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    # One point axis: slice i's fiber points are columns 4i .. 4i + 3.
    jets = elliptic_model().second(np.repeat(ts, len(zetas)), np.tile(zetas, len(ts))[None])
    h_pot = np.moveaxis(form_matrix(*jets), (0, 1), (-2, -1)).reshape(len(ts), len(zetas), 2, 2)
    if np.any(h_pot[:, 0, 1, 1].real <= 0):
        raise PositivityError("fiber coefficient must be positive")
    coefficients, h_pull, type_parts = zip(*(_pullback_forms(t, zetas) for t in ts))
    h_pull = np.array(h_pull)
    agreement = np.max(np.abs(h_pot - h_pull), axis=(1, 2, 3))
    top_power = np.max(np.abs(np.linalg.det(h_pull)), axis=1)
    return [EllipticSlice(t=t, map_coefficients=coefficients[i], potential_form=h_pot[i, 0],
                          pullback_form=h_pull[i, 0], agreement=float(agreement[i]),
                          type_residual=type_parts[i],
                          fiber_coefficient=float(h_pot[i, 0, 1, 1].real),
                          top_power=float(top_power[i]))
            for i, t in enumerate(ts)]


def _pullback_forms(t: complex, zetas: list) -> tuple[tuple[complex, complex], list, float]:
    """The marking map coefficients (a, b) at t, the pullback forms at the
    fiber points zetas and the largest (2,0)+(0,2) part among them."""
    d = t - np.conj(t)
    a = (1j - np.conj(t)) / d
    b = (t - 1j) / d
    a_t = -a / d
    a_tb = (1j - t) / d**2
    b_t = (1j - np.conj(t)) / d**2
    b_tb = (t - 1j) / d**2

    # Pull the flat fiber form back through z = a zeta + b conj(zeta); the
    # zeta-value drops out of the fiber block but feeds the base components.
    forms, type_part = [], 0.0
    for zeta in zetas:
        p = a_t * zeta + b_t * np.conj(zeta)
        q = a_tb * zeta + b_tb * np.conj(zeta)
        forms.append([[p * np.conj(p) - q * np.conj(q), p * np.conj(a) - b * np.conj(q)],
                      [a * np.conj(p) - q * np.conj(b), a * np.conj(a) - b * np.conj(b)]])
        type_part = max(type_part, abs(p * np.conj(b) - a * np.conj(q)))
    return (a, b), forms, type_part


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

def _square_lattice(tv) -> np.ndarray:
    return np.array([[1.0], [1j]])


def _marked_lattice(tv) -> np.ndarray:
    return np.array([[1.0], [tv]], dtype=complex)


def product_model(base_weight: float = 1.0, grid: int = 16) -> FibrationModel:
    """g = |z|^2 + w |t|^2: zero lifts and variation; c equals the base weight."""
    return model_from_potential(_split_jets(base_weight), f"product(w={base_weight})",
                                lattice=_square_lattice, grid=grid)


def vertical_model(grid: int = 16) -> FibrationModel:
    """g = |z|^2: degenerate in base directions; the trivial fibration."""
    return model_from_potential(_split_jets(0.0), "vertical", lattice=_square_lattice,
                                grid=grid)


def cross_term_model(lam: float = 0.2, grid: int = 16) -> FibrationModel:
    """g = |z|^2 + |t|^2 + lam |z|^2 |t|^2: not a degenerate form."""

    def second(tv, pts):
        t, tb, z, zb = _wirtinger(tv, pts)
        return _n1_second(_point_shape(tv, pts), lam * z * zb + 1, lam * tb * z,
                          lam * t * tb + 1)

    def third(tv, pts):
        return _n1_third(_point_shape(tv, pts), 0.0, 0.0)

    def metric_t(tv, pts):
        t, tb, _, _ = _wirtinger(tv, pts)
        return _n1_metric_t(_point_shape(tv, pts), lam * tb, lam, 0.0)

    return model_from_potential((second, third, metric_t), f"cross({lam})", lattice=None,
                                grid=grid)


def elliptic_model(grid: int = 64) -> FibrationModel:
    """Flat torus family over the upper half plane.

    Potential 2 (Im z)^2 / Im t, whose complex Hessian is exactly the pullback
    of the flat reference form under the marking map (1 -> 1, t -> i); see
    ``elliptic_family`` for the two-representation agreement check.
    """
    return model_from_potential(_flat_torus_jets(-1), "elliptic",
                                lattice=_marked_lattice, grid=grid)


def theta_weight_model(grid: int = 64) -> FibrationModel:
    """Flat torus family with potential 2 (Re z)^2 / Im t.

    Also a degenerate relative Kahler form with the same fiber restriction as
    the elliptic family; its Re-z profile is the convex geodesic ray whose
    Legendre transform is linear in Im t.
    """
    return model_from_potential(_flat_torus_jets(1), "theta-weight",
                                lattice=_marked_lattice, grid=grid)


def perturbed_torus_model(eps: float = 0.02, grid: int = 64) -> FibrationModel:
    """Flat family plus a trigonometric perturbation in a true torus coordinate.

    Potential 2 (Im z)^2 / Im t + eps Im t cos(2 pi a).  The perturbation
    argument is the first real torus coordinate a = Re z - Re t (Im z / Im t),
    which shifts by integers under both lattice translations at every base
    point, so all derived fields stay periodic.  The geodesic curvature
    becomes a genuine fiber function (the naive cos(2 pi Re z) is not
    deck-invariant and would break periodicity).
    """
    return model_from_potential(_perturbed_torus_jets(eps), f"perturbed-torus({eps})",
                                lattice=_marked_lattice, grid=grid)


MODEL_FAMILIES = {
    "product": product_model,
    "vertical": vertical_model,
    "cross": cross_term_model,
    "elliptic": elliptic_model,
    "theta-weight": theta_weight_model,
    "perturbed-torus": perturbed_torus_model,
}


def _per_distinct_t(jet: Callable, tv: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, ...]:
    """A jet of a scalar base point on base points tv broadcast against the
    fiber points pts (n, *P): one call per distinct value of tv."""
    pts = np.asarray(pts, dtype=complex)
    shape = _point_shape(tv, pts)
    t = np.broadcast_to(tv, shape)
    pts = np.broadcast_to(pts, pts.shape[:1] + shape)
    outs = None
    for value in np.unique(t):
        sel = t == value
        parts = jet(value, pts[:, sel])
        if outs is None:
            outs = tuple(np.empty(part.shape[:-1] + shape, dtype=complex) for part in parts)
        for out, part in zip(outs, parts):
            out[..., sel] = part
    return outs


def hermitian_quadratic_model(path, n: int, name: str = "hermitian-path") -> FibrationModel:
    """Potential z^T A(Re tau) conj(z) for a path of positive matrices.

    The base is the complexified real line; jets follow from the chain rule
    d_tau = (1/2) d_x on functions of the real part.  The path is evaluated
    once per distinct base point.
    """

    def second(tv, pts):
        if np.ndim(tv):
            return _per_distinct_t(second, tv, pts)
        a, da, d2a = path(float(np.real(tv)))
        cols = pts.shape[1]
        bb = 0.25 * np.einsum("jk,j...,k...->...", d2a, pts, pts.conj())
        bf = 0.5 * np.einsum("jb,j...->b...", da, pts)
        ff = np.repeat(np.asarray(a, dtype=complex)[:, :, None], cols, axis=2)
        return bb, bf, ff

    def third(tv, pts):
        # All third jets with two conjugate fiber slots vanish on a pure
        # z-zbar quadratic.
        shape = _point_shape(tv, pts)
        return (np.zeros((n, n) + shape, dtype=complex),
                np.zeros((n, n, n) + shape, dtype=complex))

    def metric_t(tv, pts):
        # ff = A(Re tau) does not depend on z.
        if np.ndim(tv):
            return _per_distinct_t(metric_t, tv, pts)
        _, da, d2a = path(float(np.real(tv)))
        cols = pts.shape[1]
        return (np.repeat(0.5 * np.asarray(da, dtype=complex)[:, :, None], cols, axis=2),
                np.repeat(0.25 * np.asarray(d2a, dtype=complex)[:, :, None], cols, axis=2),
                np.zeros((n, n, n, cols), dtype=complex))

    return FibrationModel(name=name, n=n, second=second, third=third, metric_t=metric_t,
                          lattice=None)
