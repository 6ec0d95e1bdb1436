"""Degenerate Kahler forms on projectivized bundles from projectively flat metrics.

A Hermitian bundle metric over a one-dimensional base is given through its
value, first and mixed second base derivatives.  The twisted log-potential
form (fiber log-Hessian plus the trace-normalized base curvature) is
assembled in an affine chart; for projectively flat metrics its top power
vanishes and it restricts to the Fubini-Study form of the fiber inner
product, while metrics with non-scalar curvature are falsifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import _fd
from .fibration import top_power_norm


# The least det(h) / |h|^r (|h| the largest eigenvalue) of a bundle metric.
# The top power of the twisted form is about that spread times the
# curvature contrast.  Over split families of rank 2 to 4 at the projbundle
# suite's point (weights (w, 1), (w, 1, 0.5), (w, w, 1), (w, 1, 1, 1),
# (w, 0, -w), (1, -w, 0.5)), the least spread whose non-flat form still has
# a top power above the 1e-8 degeneracy threshold is 1.9e-10 (weights=113,1;
# weights=100,1: spread 2.5e-9, top power 1.3e-7), so a metric under 1e-10
# has a form the suite's detectors cannot resolve.
MIN_METRIC_SPREAD = 1e-10


class ChartError(ValueError):
    """Point excluded from the affine chart (normalizing coordinate zero)."""


@dataclass(frozen=True)
class BundleMetricModel:
    """jets(t) -> (h, dh, ddh): metric matrix, d_t h and d_t d_tbar h.

    t may be a stack of base points; the jets then carry its axes before
    the matrix axes.
    """

    r: int
    jets: Callable[[complex], tuple[np.ndarray, np.ndarray, np.ndarray]]
    name: str = ""
    chart: int = 0

    def metric(self, t: complex) -> np.ndarray:
        """h at one base point t, once its jets are finite and h is positive
        definite, with eigenvalues in the normal float range and det(h) / |h|^r
        at least MIN_METRIC_SPREAD."""
        jets = [np.asarray(m, dtype=complex) for m in self.jets(t)]
        if not all(np.all(np.isfinite(m)) for m in jets):
            raise ValueError("bundle metric jets must be finite")
        h = jets[0]
        eig = np.linalg.eigvalsh(0.5 * (h + h.conj().T))
        if not eig.min() >= np.finfo(float).tiny:
            raise ValueError("bundle metric must be positive definite in the normal float range")
        spread = np.prod(eig / eig.max())
        if spread < MIN_METRIC_SPREAD:
            raise ValueError(f"bundle metric has det(h) / |h|^r = {spread:.3g}, under "
                             f"{MIN_METRIC_SPREAD:g}, so its fiber form reads as degenerate")
        return h


def _normalized_jets(model: BundleMetricModel, t: complex):
    """model.jets(t) scaled, at each base point, by the power of two that puts
    max|h| in [0.5, 1)."""
    h, dh, ddh = (np.asarray(m, dtype=complex) for m in model.jets(t))
    scale = np.ldexp(1.0, -np.frexp(np.max(np.abs(h), axis=(-2, -1), keepdims=True))[1])
    return h * scale, dh * scale, ddh * scale


def normalized_model(model: BundleMetricModel) -> BundleMetricModel:
    """The model with its jets scaled, at each base point, by the power of two
    that puts max|h| in [0.5, 1).  The scaling is exact, so `pk_form` (which
    is invariant under h -> c h, and reads these jets) is unchanged wherever
    the model's own products neither underflow nor overflow, and no longer
    fails where they do; the curvature and the flatness residual scale with
    max|h|."""
    return replace(model, jets=lambda t: _normalized_jets(model, t))


def chern_curvature(model: BundleMetricModel, t: complex) -> np.ndarray:
    """Lowered curvature matrix R[a, b] = R_{a bbar t tbar}, stacked like t.

    R_{a bbar} = -d_t d_tbar h_{a bbar} + sum h^{sbar tau} d_t h_{a sbar}
    conj(d_t h_{b tau bar}).
    """
    h, dh, ddh = model.jets(t)
    return _lowered_curvature(dh, ddh, np.linalg.inv(h))


def _lowered_curvature(dh: np.ndarray, ddh: np.ndarray, hinv: np.ndarray) -> np.ndarray:
    """`chern_curvature` from the jets and the inverse metric."""
    return -np.asarray(ddh, dtype=complex) + dh @ hinv @ dh.conj().swapaxes(-1, -2)


def ricci(model: BundleMetricModel, t: complex) -> complex:
    """Trace part of the curvature: coefficient of the Ricci form."""
    h, _, _ = model.jets(t)
    return complex(np.trace(np.linalg.solve(h, chern_curvature(model, t))))


def projective_flatness_residual(model: BundleMetricModel, t: complex) -> float:
    """Distance of the curvature from its trace part: zero iff projectively
    flat.  The `chern_curvature` and the `ricci` trace come from one jet
    call, one inverse and one solve."""
    h, dh, ddh = model.jets(t)
    r = _lowered_curvature(dh, ddh, np.linalg.inv(h))
    ric = complex(np.trace(np.linalg.solve(h, r)))
    return float(np.max(np.abs(r - (ric / model.r) * h)))


def _chart_coordinates(model: BundleMetricModel, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.ndim < 1 or v.shape[-1] != model.r:
        raise ValueError("fiber point must have one component per rank")
    if np.min(np.abs(v[..., model.chart])) < 1e-13:
        raise ChartError("normalizing coordinate vanishes at this point")
    return v / v[..., model.chart, None]


def _log_hessian(h: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d^2 log H / dv dvbar, H) for H = h_{a bbar} v^a conj(v^b), stacked
    like the points v (..., r) broadcast with the metrics h (..., r, r)."""
    w = np.einsum("...ab,...b->...a", h, v.conj())
    big_h = np.einsum("...a,...a->...", v, w)[..., None, None]
    return h / big_h - w[..., :, None] * w.conj()[..., None, :] / big_h**2, big_h[..., 0, 0]


def pk_form(model: BundleMetricModel, t: complex, v: np.ndarray) -> np.ndarray:
    """Coefficient matrix of the twisted form at (t, [v]) in the affine chart.

    v (..., r) may be a stack of fiber points, over one base point t or over
    a stack of them broadcast with the points; the matrices are stacked like
    the points.  Basis order: dt first, then the fiber
    differentials skipping the chart coordinate.  The matrix is Hermitian;
    its fiber block is the log-Hessian in the corrected frame and the base
    block carries the curvature pairing plus the trace-part twist.  The
    form is that of the `normalized_model`.
    """
    v = _chart_coordinates(model, v)
    h, dh, ddh = _normalized_jets(model, t)
    hinv = np.linalg.inv(h)
    L, big_h = _log_hessian(h, v)
    rmat = _lowered_curvature(dh, ddh, hinv)
    ric = np.trace(hinv @ rmat, axis1=-2, axis2=-1)
    # delta v^a = dv^a + b^a dt with b^a = v^beta h^{gbar a} d_t h_{beta gbar}.
    b = np.einsum("...b,...ga,...bg->...a", v, hinv, dh)
    fiber_idx = np.array([a for a in range(model.r) if a != model.chart], dtype=int)
    dim = 1 + len(fiber_idx)
    omega = np.empty(v.shape[:-1] + (dim, dim), dtype=complex)
    omega[..., 0, 0] = (-np.einsum("...ab,...a,...b->...", rmat, v, v.conj()) / big_h
                        + ric / model.r
                        + np.einsum("...ab,...a,...b->...", L, b, b.conj()))
    omega[..., 0, 1:] = np.einsum("...an,...a->...n", L[..., :, fiber_idx], b)
    omega[..., 1:, 0] = omega[..., 0, 1:].conj()
    omega[..., 1:, 1:] = L[..., fiber_idx[:, None], fiber_idx]
    return omega


def pk_top_power(omega: np.ndarray) -> float | np.ndarray:
    """Coefficient norm of the top power of a form omega that `pk_form`
    returned, one value per fiber point of its stack."""
    return top_power_norm(omega, omega.shape[-1] - 1)


def fiber_positivity_margin(omega: np.ndarray) -> float | np.ndarray:
    """Smallest eigenvalue of the fiber block of a form omega that `pk_form`
    returned, one value per fiber point of its stack."""
    block = omega[..., 1:, 1:]
    return np.linalg.eigvalsh(0.5 * (block + block.conj().swapaxes(-1, -2))).min(axis=-1)


def fubini_study_reference(h: np.ndarray, v: np.ndarray, chart: int) -> np.ndarray:
    """Fiber form of the constant inner product after diagonalization.

    Factors h = C C^H, rotates into coordinates where the squared length is
    the standard one (|C^T v|^2), applies the standard log-Hessian and pulls
    back through the chart Jacobian; an independent route to the fiber
    restriction.  v (..., r) may be a stack of points.
    """
    r = h.shape[0]
    w_eig, u = np.linalg.eigh(0.5 * (h + h.conj().T))
    c = u @ np.diag(np.sqrt(np.clip(w_eig, 0.0, None)))   # h = C C^H
    vt = v @ c                       # rotated homogeneous coordinates C^T v
    big = np.sum(vt.conj() * vt, axis=-1).real[..., None, None]
    l_std = (np.eye(r) * big - vt.conj()[..., :, None] * vt[..., None, :]) / big**2
    full = c @ l_std @ c.conj().T
    fiber_idx = np.array([a for a in range(r) if a != chart], dtype=int)
    return full[..., fiber_idx[:, None], fiber_idx]


def fiber_fs_check(model: BundleMetricModel, t: complex, samples: int = 20,
                   seed: int = 0) -> float:
    """Sup over sampled chart points of |fiber block - reference form|."""
    rng = np.random.default_rng(seed)
    h = model.metric(t)
    v = np.empty((samples, model.r), dtype=complex)
    for i in range(samples):
        v[i] = rng.standard_normal(model.r) + 1j * rng.standard_normal(model.r)
    v[:, model.chart] = 1.0
    block = pk_form(model, t, v)[:, 1:, 1:]
    return float(np.max(np.abs(block - fubini_study_reference(h, v, model.chart))))


def d_closedness_residual(model: BundleMetricModel, t: complex, v: np.ndarray,
                          step: float = 1e-4) -> float:
    """Exterior-derivative residual of the assembled coefficient field, from
    one `pk_form` call on its whole stencil."""
    v = _chart_coordinates(model, v)
    fiber_idx = [a for a in range(model.r) if a != model.chart]

    def coeff(z: np.ndarray) -> np.ndarray:
        vv = np.ones(z.shape[:-1] + (model.r,), dtype=complex)
        vv[..., fiber_idx] = z[..., 1:]
        return pk_form(model, z[..., 0], vv)

    z0 = np.concatenate([[t], v[fiber_idx]])
    return _fd.d_residual_11(coeff, z0, step=step)


# ---------------------------------------------------------------------------
# Model library
# ---------------------------------------------------------------------------

def constant_model(h0: np.ndarray, name: str = "constant") -> BundleMetricModel:
    h0 = np.asarray(h0, dtype=complex)
    r = h0.shape[0]
    zero = np.zeros_like(h0)

    def jets(t: complex):
        shape = np.shape(t) + h0.shape
        return tuple(np.broadcast_to(m, shape) for m in (h0, zero, zero))

    return BundleMetricModel(r=r, jets=jets, name=name)


def twisted_model(h0: np.ndarray, weight: float = 1.0,
                  name: str | None = None) -> BundleMetricModel:
    """h = exp(-weight |t|^2) h0: projectively flat with scalar curvature twist."""
    h0 = np.asarray(h0, dtype=complex)
    r = h0.shape[0]

    def jets(t: complex):
        t = np.asarray(t)[..., None, None]
        f = np.exp(-weight * abs(t) ** 2)
        h = f * h0
        dh = -weight * np.conj(t) * h
        ddh = weight * (weight * abs(t) ** 2 - 1.0) * h
        return h, dh, ddh

    return BundleMetricModel(r=r, jets=jets, name=name or f"twisted({weight})")


# Built-in bundle families by name; each takes its parameters by keyword
# (`cli.parse_model_spec` parses and checks them).
BUNDLE_FAMILIES = {
    "constant": lambda r=2: constant_model(np.eye(r)),
    "twisted": lambda r=2, weight=1.0: twisted_model(np.eye(r), weight=weight),
    "split": lambda weights=(1.0, 2.0): split_twist_model(weights),
}


def split_twist_model(weights: Sequence[float],
                      name: str | None = None) -> BundleMetricModel:
    """Direct sum of line bundles with distinct twists: not projectively flat."""
    weights = np.asarray(list(weights), dtype=float)
    r = weights.size

    def diag(entries: np.ndarray) -> np.ndarray:
        out = np.zeros(entries.shape + (r,), dtype=complex)
        out[..., np.arange(r), np.arange(r)] = entries
        return out

    def jets(t: complex):
        t = np.asarray(t)[..., None]
        f = np.exp(-weights * abs(t) ** 2)
        return (diag(f), diag(-weights * np.conj(t) * f),
                diag(weights * (weights * abs(t) ** 2 - 1.0) * f))

    return BundleMetricModel(r=r, jets=jets,
                             name=name or f"split{tuple(weights.tolist())}")
