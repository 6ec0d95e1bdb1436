"""Geodesic structures: Hermitian matrix paths, Legendre duality, convexity.

Positive Hermitian matrices carry the geodesic A0^{1/2} (A0^{-1/2} A1
A0^{-1/2})^t A0^{1/2}, characterized by the vanishing of A'' - A' A^{-1} A'
and equivalently by the degeneracy of the full complex Hessian of the
associated quadratic potential (`fibration.hermitian_quadratic_model`).
Real convex functions carry the dual structure: geodesics are inverse
transforms of linear dual paths, and the log-determinant is strictly convex
on the positive cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fibration import FibrationModel, form_matrix

EIG_CLAMP = 1e-14


class ConvexityError(ValueError):
    pass


class ConeError(ValueError):
    pass


def _check_pd(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    herm = 0.5 * (a + a.conj().T)
    if np.max(np.abs(a - herm)) > 1e-10 * max(1.0, np.max(np.abs(a))):
        raise ValueError(f"{what} must be Hermitian")
    if np.linalg.eigvalsh(herm).min() <= 0:
        raise ValueError(f"{what} must be positive definite")
    return herm


# ---------------------------------------------------------------------------
# Hermitian-form geodesics
# ---------------------------------------------------------------------------

# A Hermitian path is a callable t -> (A, A', A'') of Hermitian matrices on a
# real interval.
PathJets = Callable[[float], tuple[np.ndarray, np.ndarray, np.ndarray]]


def theta_tt(path: PathJets, t: float) -> np.ndarray:
    """A'' - A' A^{-1} A': zero along geodesics, Hermitian always."""
    a, da, d2a = path(t)
    a = _check_pd(a, "path value")
    return d2a - da @ np.linalg.solve(a, da)


def _matrix_power_factors(a0: np.ndarray, a1: np.ndarray):
    a0 = _check_pd(a0, "left endpoint")
    a1 = _check_pd(a1, "right endpoint")
    w0, u0 = np.linalg.eigh(a0)
    w0 = np.clip(w0, EIG_CLAMP, None)
    root = u0 @ np.diag(np.sqrt(w0)) @ u0.conj().T
    root_inv = u0 @ np.diag(1.0 / np.sqrt(w0)) @ u0.conj().T
    mid = root_inv @ a1 @ root_inv
    wm, um = np.linalg.eigh(0.5 * (mid + mid.conj().T))
    wm = np.clip(wm, EIG_CLAMP, None)
    return root, um, np.log(wm)


def hermitian_geodesic(a0: np.ndarray, a1: np.ndarray) -> PathJets:
    """Geodesic A0^{1/2} exp(t log(A0^{-1/2} A1 A0^{-1/2})) A0^{1/2}.

    Eigendecompositions keep the path exactly Hermitian; first and second
    derivatives are returned in closed form.
    """
    root, um, logw = _matrix_power_factors(a0, a1)
    base = root @ um

    def path(t: float):
        et = np.exp(t * logw)
        a = base @ np.diag(et) @ base.conj().T
        da = base @ np.diag(logw * et) @ base.conj().T
        d2a = base @ np.diag(logw**2 * et) @ base.conj().T
        return 0.5 * (a + a.conj().T), 0.5 * (da + da.conj().T), 0.5 * (d2a + d2a.conj().T)

    return path


def linear_hermitian_path(a0: np.ndarray, a1: np.ndarray) -> PathJets:
    """Straight-line interpolation; not a geodesic unless the endpoints commute."""
    a0 = _check_pd(a0, "left endpoint")
    a1 = _check_pd(a1, "right endpoint")
    delta = a1 - a0

    def path(t: float):
        return a0 + t * delta, delta, np.zeros_like(delta)

    return path


def complex_legendre(a: np.ndarray) -> np.ndarray:
    """Fiberwise conjugate of the quadratic potential <A z, z>: the inverse matrix."""
    a = _check_pd(a, "form")
    return np.linalg.inv(a)


def ma_determinant(model: FibrationModel, tau: complex, z: np.ndarray) -> float:
    """Determinant of the full complex Hessian of the model's potential at
    (tau, z), the `form_matrix` of its second jets (real for Hermitian)."""
    z = np.asarray(z, dtype=complex)
    h = form_matrix(*model.second(tau, z[:, None]))[:, :, 0]
    return float(np.real(np.linalg.det(h)))


def ma_scale(a: np.ndarray, delta: np.ndarray, z: np.ndarray) -> tuple[float, float]:
    """Closed-form scale of `ma_determinant` for the potential z^T A conj(z)
    of a Hermitian path, with A = A(Re tau) at the point and delta = A1 - A0.

    With M = A^{-1/2} delta A^{-1/2}, returns (s, floor):
    s = (1/4) det A <z, A z> |M|^2 (operator norm) and
    floor = (sigma_min(M) / |M|)^2.  Along the linear path
    (1 - t) A0 + t A1 the determinant is -(1/4) det A |A^{-1/2} delta conj(z)|^2,
    so floor <= |det| / s <= 1 at every point (README "Numerical
    conventions"); along the geodesic it vanishes.  Both numbers are
    invariant under scaling of A and delta and under congruence
    A -> g A g^H.
    """
    z = np.asarray(z, dtype=complex)
    chol = np.linalg.cholesky(a)
    m = np.linalg.solve(chol, np.linalg.solve(chol, delta).conj().T)   # L^-1 delta L^-H
    sigma = np.abs(np.linalg.eigvalsh(m))
    top = float(np.max(sigma))
    scale = 0.25 * float(np.linalg.det(a).real) * float(np.real(z @ a @ z.conj())) * top**2
    return scale, (float(np.min(sigma)) / top) ** 2


# ---------------------------------------------------------------------------
# Convex grids and the real transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexGrid:
    """Samples of a convex function on a uniform one-dimensional grid."""

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        vs = np.asarray(self.values, dtype=float)
        if xs.ndim != 1 or xs.shape != vs.shape or xs.size < 3:
            raise ValueError("grid needs matching 1-d arrays of length >= 3")
        steps = np.diff(xs)
        if np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
            raise ValueError("grid must be uniform")
        second = vs[:-2] - 2.0 * vs[1:-1] + vs[2:]
        scale = max(1.0, float(np.max(np.abs(vs))))
        if second.min() < -1e-9 * scale:
            raise ConvexityError("sampled second differences are negative")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", vs)

    @classmethod
    def from_function(cls, f: Callable[[np.ndarray], np.ndarray], lo: float,
                      hi: float, size: int) -> "ConvexGrid":
        xs = np.linspace(lo, hi, size)
        return cls(xs=xs, values=np.asarray(f(xs), dtype=float))

    @property
    def step(self) -> float:
        return float(self.xs[1] - self.xs[0])

    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / self.step


def dual_eval(grid: ConvexGrid, ys: np.ndarray) -> np.ndarray:
    """Exact conjugate of the piecewise-linear extension at the query slopes.

    The maximizer index of max_i (x_i y - v_i) is the count of chord slopes
    below y, so a sorted-slope lookup replaces the quadratic sup scan.
    """
    ys = np.asarray(ys, dtype=float)
    idx = np.searchsorted(grid.slopes(), ys)
    return grid.xs[idx] * ys - grid.values[idx]


def real_legendre(grid: ConvexGrid, size: int | None = None) -> ConvexGrid:
    """Discrete conjugate on the gradient-image interval of the input."""
    s = grid.slopes()
    size = size or grid.xs.size
    ys = np.linspace(s[0], s[-1], size)
    return ConvexGrid(xs=ys, values=dual_eval(grid, ys))


def convex_geodesic(phi0: ConvexGrid, phi1: ConvexGrid, t: float,
                    size: int | None = None) -> ConvexGrid:
    """Inverse transform of the linear dual interpolation at time t.

    The output grid covers the slope range of the combined dual, where the
    piecewise-linear back-transform is exact.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    s0, s1 = phi0.slopes(), phi1.slopes()
    lo = max(s0[0], s1[0])
    hi = min(s0[-1], s1[-1])
    if hi <= lo:
        raise ConvexityError("gradient images of the endpoints do not overlap")
    size = size or max(phi0.xs.size, phi1.xs.size)
    ys = np.linspace(lo, hi, size)
    combo = t * dual_eval(phi1, ys) + (1.0 - t) * dual_eval(phi0, ys)
    dual = ConvexGrid(xs=ys, values=combo)
    ds = dual.slopes()
    xs = np.linspace(ds[0], ds[-1], size)
    return ConvexGrid(xs=xs, values=dual_eval(dual, xs))


def dual_path_second_derivative(phi0: ConvexGrid, phi1: ConvexGrid,
                                path: Callable[[float], ConvexGrid],
                                t: float = 0.5, dt: float = 0.125) -> float:
    """Max second t-difference of the dual of a path: zero along geodesics."""
    s0, s1 = phi0.slopes(), phi1.slopes()
    ys = np.linspace(max(s0[0], s1[0]) + 0.05 * abs(s0[0]),
                     min(s0[-1], s1[-1]) - 0.05 * abs(s0[-1]), 101)
    vals = [dual_eval(path(tt), ys) for tt in (t - dt, t, t + dt)]
    second = (vals[0] - 2.0 * vals[1] + vals[2]) / dt**2
    return float(np.max(np.abs(second)))


def ma_grid_residual(f: Callable[[float, np.ndarray], np.ndarray],
                     t_range: tuple[float, float], x_range: tuple[float, float],
                     nt: int = 17, nx: int = 33) -> float:
    """Max discrete Monge-Ampere determinant of a path of convex profiles.

    Central second differences on the (t, x) product grid; for a degenerate
    path the residual decays at second order in the grid step.
    """
    ts = np.linspace(*t_range, nt)
    xs = np.linspace(*x_range, nx)
    vals = np.stack([np.asarray(f(t, xs), dtype=float) for t in ts])
    ht = ts[1] - ts[0]
    hx = xs[1] - xs[0]
    dtt = (vals[2:, 1:-1] - 2 * vals[1:-1, 1:-1] + vals[:-2, 1:-1]) / ht**2
    dxx = (vals[1:-1, 2:] - 2 * vals[1:-1, 1:-1] + vals[1:-1, :-2]) / hx**2
    dtx = (vals[2:, 2:] - vals[2:, :-2] - vals[:-2, 2:] + vals[:-2, :-2]) / (4 * ht * hx)
    return float(np.max(np.abs(dtt * dxx - dtx**2)))


# ---------------------------------------------------------------------------
# Gradient images
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradientImageReport:
    image_interval: tuple[float, float]
    tested_pairs: int
    members: int
    inconclusive: int


def gradient_image_probe(grid: ConvexGrid, pairs: int = 100,
                         seed: int = 0) -> GradientImageReport:
    """Membership of midpoints of gradient-image samples via interior minima.

    y belongs to the image iff x -> phi(x) - x y attains its minimum away from
    the grid boundary; boundary-dominated minima are flagged inconclusive.
    """
    grads = (grid.values[2:] - grid.values[:-2]) / (2.0 * grid.step)
    rng = np.random.default_rng(seed)
    members = 0
    inconclusive = 0
    for _ in range(pairs):
        ya, yb = rng.choice(grads, size=2, replace=True)
        y = 0.5 * (ya + yb)
        idx = int(np.argmin(grid.values - grid.xs * y))
        if 0 < idx < grid.xs.size - 1:
            members += 1
        else:
            inconclusive += 1
    return GradientImageReport(image_interval=(float(grads[0]), float(grads[-1])),
                               tested_pairs=pairs, members=members,
                               inconclusive=inconclusive)


# ---------------------------------------------------------------------------
# Log-determinant convexity on the positive cone
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeBasis:
    """Basis of real symmetric matrices and a coefficient point in the cone;
    point (..., len(basis)) may carry leading axes, a stack of points."""

    basis: Sequence[np.ndarray]
    point: np.ndarray

    def matrix(self) -> np.ndarray:
        return np.einsum("...j,jab->...ab", self.point, np.asarray(self.basis))


def bm_hessian(cone: ConeBasis) -> np.ndarray:
    """Hessian of -log det at the cone point: entries tr(A^{-1} A_j A^{-1} A_k),
    stacked like the point."""
    a = cone.matrix()
    if np.linalg.eigvalsh(0.5 * (a + a.swapaxes(-1, -2))).min() <= 0:
        raise ConeError("point lies outside the positive cone")
    solved = np.linalg.solve(a[..., None, :, :], np.asarray(cone.basis))
    return np.einsum("...jab,...kba->...jk", solved, solved)


@dataclass(frozen=True)
class MabuchiReport:
    ts: np.ndarray
    rho: np.ndarray
    second_derivative: np.ndarray   # volume * rho
    min_rho: float
    degenerate: bool
    log_convexity_margin: float | None


def mabuchi_profile(hess0: np.ndarray, hess1: np.ndarray, t_samples: Sequence[float],
                    volume: float = 1.0) -> MabuchiReport:
    """Convexity profile of the log-determinant energy on the quadratic class.

    For potentials with constant Hessians the profile rho(t) =
    tr((H(t)^{-1} H')^2) is spatially constant, so the energy's second
    derivative is volume * rho; rho is nonnegative and log-convex in t.
    """
    h0 = np.asarray(hess0, dtype=float)
    h1 = np.asarray(hess1, dtype=float)
    for h in (h0, h1):
        if np.linalg.eigvalsh(0.5 * (h + h.T)).min() <= 0:
            raise ConeError("quadratic Hessians must be positive definite")
    ts = np.asarray(list(t_samples), dtype=float)
    delta = h1 - h0
    w = ts[:, None, None]
    m = np.linalg.solve((1.0 - w) * h0 + w * h1, delta)
    rho = np.trace(m @ m, axis1=-2, axis2=-1)
    degenerate = bool(np.max(np.abs(delta)) == 0.0)
    margin = None
    if not degenerate and ts.size >= 3:
        logr = np.log(rho)
        second = logr[:-2] - 2.0 * logr[1:-1] + logr[2:]
        margin = float(second.min())
    return MabuchiReport(ts=ts, rho=rho, second_derivative=volume * rho,
                         min_rho=float(rho.min()), degenerate=degenerate,
                         log_convexity_margin=margin)
