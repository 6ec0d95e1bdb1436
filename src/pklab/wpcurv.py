"""Canonical metric on the bounded domain and its curvature bounds.

The metric is the Hilbert-Schmidt pairing of the degree-(-1,1) field matrices
with respect to the moving Gram data, evaluated on stacks of points; its
curvature tensor is measured by central differences of the metric field (one
stacked evaluation of the whole stencil per tensor) and cross-checked against
the three-term algebraic formula (products of the field matrices plus the
projected first variation, all in closed form).  The same metric is the
invariant Kahler metric of the type-III (Siegel) domain, whose metric and
curvature have closed forms (`ClosedFormCurvature`); the bound sweeps run on
the closed forms and keep the difference quotients as their oracle.
Certified bounds: holomorphic sectional curvature at most -2/n, non-positive
bisectional curvature, Ricci at most -2/n, with unit fiber-volume
normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import _fd
from .higgs import HiggsField
from .kns import BsdPoint, coords_from_sym, random_bsd_point, sym_basis, sym_dim, sym_from_coords
from .symplin import ComplexStructure, SymplecticSpace, UnitaryFrame

# burns_bounds: basepoints whose first sample meets the one-line difference
# oracle (a fixed count, so the oracle's cost does not grow with samples),
# and the seeded starts and step cap of each basepoint's sectional ascent.
ORACLE_BASEPOINTS = 2
ASCENT_STARTS = 3
ASCENT_ITERATIONS = 50
# hsc_ascent: rungs t, t/2, t/4, ... of the Armijo search per stacked call.
ARMIJO_RUNGS = 4
# Bytes of matrices per block of a stacked evaluation: metric_field's field
# matrices, and the direction halves of burns_bounds' pairing stack.
GRAM_BLOCK_BYTES = 1 << 22


class DegenerateMetricError(ValueError):
    """The requested degree carries no metric (the field matrices vanish)."""


@dataclass(frozen=True)
class MetricSample:
    basepoint: BsdPoint
    gram: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=complex)
        if np.max(np.abs(g - g.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(g))):
            raise ValueError("metric sample must be Hermitian")
        if np.linalg.eigvalsh(0.5 * (g + g.conj().T)).min() <= 0:
            raise DegenerateMetricError("metric sample must be positive definite")
        object.__setattr__(self, "gram", g)


@dataclass(frozen=True)
class CurvatureTensor:
    """entries[j, k, l, m] = R_{j kbar l mbar} at the basepoint."""

    entries: np.ndarray
    basepoint: BsdPoint

    def pair(self, xi: np.ndarray, eta: np.ndarray) -> complex:
        """R(xi, conj(xi), eta, conj(eta))."""
        return complex(np.einsum("jklm,j,k,l,m->", self.entries,
                                 xi, xi.conj(), eta, eta.conj()))

    def kahler_symmetry_defect(self) -> float:
        r = self.entries
        swap = np.transpose(r, (2, 1, 0, 3))          # j <-> l
        conj_pair = np.transpose(r, (1, 0, 3, 2)).conj()  # R_{jklm} = conj(R_{kjml})
        return float(max(np.max(np.abs(r - swap)), np.max(np.abs(r - conj_pair))))


@dataclass(frozen=True)
class DfMetricReport:
    degree: int
    gram: np.ndarray
    degenerate: bool
    sample: MetricSample | None
    ratio_to_degree1: float | None
    ratio_spread: float | None


@dataclass(frozen=True)
class BoundsReport:
    n: int
    samples: int
    max_hsc: float
    max_bisectional: float
    max_paired_bisectional_excess: float
    max_ricci: float
    worst_hsc_witness: dict
    hsc_bound: float
    max_metric_error: float        # closed-form metric against metric_field
    max_pairing_error: float       # closed-form pairings against the FD oracle
    max_einstein_defect: float     # |Ric(xi, xi) + (n + 1)| on unit vectors
    max_sharpness_defect: float    # |hsc(L L^T) + 2/n|
    max_ascent_hsc: float          # best hsc found by gradient ascent


def _in_blocks(evaluate, length: int, block: int) -> np.ndarray:
    """evaluate(s) on the slices s of range(length) of `block` items each,
    concatenated along the first axis."""
    return np.concatenate([evaluate(slice(i, i + block)) for i in range(0, length, block)])


def metric_field(space: SymplecticSpace, J: ComplexStructure, frame: UnitaryFrame,
                 degree: int = 1):
    """coords -> Hilbert-Schmidt Gram matrix of the degree-(-1,1) field.

    `gram_at` takes coordinates (..., nsym) and returns (..., nsym, nsym):
    a whole difference stencil is one call, and a stencil that revisits a
    point (the base point, the gradient's points inside the Hessian's) lists
    it once.  A long stack is evaluated in blocks of about GRAM_BLOCK_BYTES
    of field matrices, so its working memory does not grow with its length.
    """
    field_ = HiggsField(space, J, frame, degree)
    nsym = field_.nsym
    block = max(1, GRAM_BLOCK_BYTES // (16 * nsym * comb(2 * field_.n, degree) ** 2))

    def grams(coords: np.ndarray) -> np.ndarray:
        theta = field_.theta(coords)
        h = field_.gram(coords)[..., None, :, :]
        adjoints = np.linalg.inv(h) @ theta.conj().swapaxes(-1, -2) @ h
        # out[j, k] = tr(theta_j adj(theta_k))
        return np.einsum("...jab,...kba->...jk", theta, adjoints)

    def gram_at(coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=complex)
        flat = coords.reshape(-1, nsym)
        out = _in_blocks(lambda s: grams(flat[s]), len(flat), block)
        return out.reshape(coords.shape[:-1] + (nsym, nsym))

    return field_, gram_at


def df_metric(space: SymplecticSpace, J: ComplexStructure, frame: UnitaryFrame,
              basepoint: BsdPoint, normalization: int = 1) -> DfMetricReport:
    """Metric sample at a point, with the constant ratio to the degree-1 metric.

    Degrees 0 and 2n carry a vanishing field and are reported as degenerate.
    """
    coords = coords_from_sym(basepoint.phi)
    _, gram_k = metric_field(space, J, frame, degree=normalization)
    g = gram_k(coords)
    if np.max(np.abs(g)) < 1e-14:
        return DfMetricReport(degree=normalization, gram=g, degenerate=True,
                              sample=None, ratio_to_degree1=None, ratio_spread=None)
    ratio = None
    spread = None
    if normalization != 1:
        _, gram_1 = metric_field(space, J, frame, degree=1)
        g1 = gram_1(coords)
        ratios = g[np.abs(g1) > 1e-12] / g1[np.abs(g1) > 1e-12]
        ratio = float(np.mean(ratios.real))
        spread = float(np.max(np.abs(ratios - ratio)))
    return DfMetricReport(degree=normalization, gram=g, degenerate=False,
                          sample=MetricSample(basepoint=basepoint, gram=g),
                          ratio_to_degree1=ratio, ratio_spread=spread)


def curvature_fd(space: SymplecticSpace, J: ComplexStructure, frame: UnitaryFrame,
                 basepoint: BsdPoint, step: float = 1e-3) -> CurvatureTensor:
    """R_{j kbar l mbar} = -d_l d_mbar G_{j kbar} + G^{p qbar} d_l G_{j qbar} d_mbar G_{p kbar}."""
    coords = coords_from_sym(basepoint.phi)
    field_, gram_at = metric_field(space, J, frame, degree=1)
    field_.guard(coords)
    return CurvatureTensor(entries=_fd_curvature(gram_at, coords, step),
                           basepoint=basepoint)


def _fd_curvature(gram_at, z: np.ndarray, step: float) -> np.ndarray:
    """curvature_fd's formula, with l and m running over the variables z of
    gram_at (the chart coordinates, or one complex line through them).

    One gram_at call on the `_fd.hessian_points` gives the base value, the
    gradient (from the Hessian's axis points) and the Hessian.  gram_at may
    return a stack of metrics (..., j, k) per point; the result is then
    (..., j, k, l, m).
    """
    values = gram_at(_fd.hessian_points(z, step))
    grads = _fd.hessian_gradient(values, step)                  # [l, ..., j, k]
    hess = _fd.hessian_combine(values, step)                    # [l, m, ..., j, k]
    bl = grads @ np.linalg.inv(values[0])
    r = -hess + bl[:, None] @ grads.conj().swapaxes(-1, -2)[None, :]
    return np.moveaxis(r, (0, 1), (-2, -1))


def curvature_fd_along(space: SymplecticSpace, J: ComplexStructure, frame: UnitaryFrame,
                       basepoint: BsdPoint, eta: np.ndarray,
                       step: float = 1e-3) -> np.ndarray:
    """sum_{l,m} R_{j kbar l mbar} eta^l conj(eta^m) by differences along one line.

    The metric is differenced only in the complex variable w of
    w -> G(coords + w eta), so one call evaluates the metric at 17 points at
    any rank, against 1 + 16 nsym^2 for the full `curvature_fd`.
    """
    coords = coords_from_sym(basepoint.phi)
    field_, gram_at = metric_field(space, J, frame, degree=1)
    field_.guard(coords)
    return _fd_along(gram_at, coords, eta, step)


def _fd_along(gram_at, coords: np.ndarray, eta: np.ndarray, step: float) -> np.ndarray:
    """`curvature_fd_along` on lines through coords (..., nsym) along eta
    (..., nsym), broadcast: (..., nsym, nsym), every line's stencil in one
    gram_at call."""
    eta = np.asarray(eta, dtype=complex)

    def along(w):
        return gram_at(coords + w[:, 0].reshape((-1,) + (1,) * eta.ndim) * eta)

    return _fd_curvature(along, np.zeros(1, dtype=complex), step)[..., 0, 0]


@dataclass(frozen=True)
class ClosedFormCurvature:
    """Closed-form canonical metric and curvature on a stack of basepoints.

    phi has shape (..., n, n).  With B = (I - Phi conj(Phi))^{-1}, S_j the
    `kns.sym_basis` and direction matrices X = sum xi_j S_j, Y = sum eta_j S_j:

        G(xi, eta) = tr(B X conj(B) conj(Y)),
        R(xi, xi, eta, eta) = -[tr(BX.BbXb.BY.BbYb) + tr(BX.BbYb.BY.BbXb)],

    with Bb = conj(B), Xb = conj(X).  This is the invariant Kahler metric of
    the type-III domain (Einstein with Ric = -(n+1) G).  Directions are
    (..., nsym) and broadcast against the basepoint stack, so a stack of
    shape (B, 1) pairs each of B basepoints with its own row of directions.
    A pairing costs O(n^3); the rank-4 tensor is built only by `tensor()`.
    """

    phi: np.ndarray
    b: np.ndarray = field(init=False, repr=False)
    basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=complex)
        n = phi.shape[-1]
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "b", np.linalg.inv(np.eye(n) - phi @ phi.conj()))
        object.__setattr__(self, "basis", np.stack(sym_basis(n)))

    def metric(self) -> np.ndarray:
        """G[..., j, k] = tr(B S_j conj(B) S_k), in metric_field's convention;
        a long basepoint stack is evaluated in blocks of about
        GRAM_BLOCK_BYTES of the products B S_j."""
        n, nsym = self.basis.shape[-1], len(self.basis)
        b = self.b.reshape(-1, 1, n, n)
        out = _in_blocks(lambda s: np.einsum("...jab,...kba->...jk", b[s] @ self.basis,
                                             b[s].conj() @ self.basis),
                         len(b), max(1, GRAM_BLOCK_BYTES // (16 * nsym * n * n)))
        return out.reshape(self.b.shape[:-2] + (nsym, nsym))

    def _halves(self, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = sym_from_coords(xi, self.phi.shape[-1])     # X = sum xi_j S_j
        return self.b @ x, self.b.conj() @ x.conj()

    def pair(self, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """R(xi, conj(xi), eta, conj(eta))."""
        return _pairing(*self._halves(xi), *self._halves(eta))

    def hsc(self, xi: np.ndarray) -> np.ndarray:
        """Holomorphic sectional curvature R(xi, xi, xi, xi) / G(xi, xi)^2."""
        bx, bxb = self._halves(xi)
        return _hsc(bx @ bxb)

    def sharp_direction(self) -> np.ndarray:
        """Coordinates of X = L L^T, L the Cholesky factor of I - Phi conj(Phi):
        there B X conj(B X) = I, so hsc = -2/n exactly."""
        lower = np.linalg.cholesky(np.eye(self.phi.shape[-1]) - self.phi @ self.phi.conj())
        return coords_from_sym(lower @ lower.swapaxes(-1, -2))

    def tensor(self) -> CurvatureTensor:
        """The full R_{j kbar l mbar} at a single basepoint, for comparison
        with `curvature_fd`."""
        p = self.b @ self.basis
        q = self.b.conj() @ self.basis
        entries = _pairing(p[:, None, None, None], q[None, :, None, None],
                           p[None, None, :, None], q[None, None, None, :])
        return CurvatureTensor(entries=entries, basepoint=BsdPoint(self.phi))


def _trace(m):
    return np.trace(m, axis1=-2, axis2=-1)


def _hsc(p):
    """-2 tr(P^2) / tr(P)^2 = R(xi, xi, xi, xi) / G(xi, xi)^2 for P = BX conj(BX)."""
    return -2.0 * _trace(p @ p).real / _trace(p).real ** 2


def _pairing(bx, bxb, by, byb):
    """-[tr(bx.bxb.by.byb) + tr(bx.byb.by.bxb)], broadcast over leading axes."""
    return -(_trace(bx @ bxb @ by @ byb) + _trace(bx @ byb @ by @ bxb))


def hsc_ascent(curv: ClosedFormCurvature, starts: np.ndarray,
               g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Holomorphic sectional curvature reached by gradient ascent from each
    start, and the number of steps taken (both of shape starts.shape[:-1]).

    From each start (a row (..., nsym), broadcast against curv's stack):
    steepest ascent for the metric g = curv.metric() (the caller's, shaped
    to broadcast like curv's stack), halving the step until the rise meets
    a quarter of the slope (Armijo), for at most ASCENT_ITERATIONS steps or
    until the slope is rounding.  With P = BX conj(BX) and W = BX conj(B),
    the Wirtinger gradient of hsc = -2 tr(P^2) / tr(P)^2 is
    d/dconj(xi_j) = -4 tr(M S_j) / tr(P)^3, M = tr(P) P W - tr(P^2) W; the
    ascent direction is conj(G)^{-1} of it.

    The ascents run in lockstep, each with its own point, step, value and
    stop flag.  A search evaluates ARMIJO_RUNGS rungs t, t/2, ... of every
    ascent still searching in one call and takes the first rung that
    passes: the step that halving one rung at a time would take.
    """
    g_conj = g.conj()

    def ascent_direction(xi):
        """hsc at xi, the ascent direction and the slope along it."""
        bx, bxb = curv._halves(xi)
        p = bx @ bxb
        w = bx @ curv.b.conj()
        tr_p, tr_pp = _trace(p).real, _trace(p @ p).real
        m = tr_p[..., None, None] * (p @ w) - tr_pp[..., None, None] * w
        grad = -4.0 * np.einsum("...ab,jba->...j", m, curv.basis) / tr_p[..., None] ** 3
        direction = np.linalg.solve(g_conj, grad[..., None])[..., 0]
        slope = 2.0 * (grad.conj()[..., None, :] @ direction[..., None])[..., 0, 0].real
        return -2.0 * tr_pp / tr_p ** 2, direction, slope     # = _hsc(p)

    xi = np.asarray(starts, dtype=complex)
    shape = np.broadcast_shapes(xi.shape[:-1], curv.b.shape[:-2])
    t = np.ones(shape)
    steps = np.zeros(shape, dtype=int)
    running = np.ones(shape, dtype=bool)
    rungs = 0.5 ** np.arange(ARMIJO_RUNGS).reshape((-1,) + (1,) * len(shape))
    for _ in range(ASCENT_ITERATIONS):
        value, direction, slope = ascent_direction(xi)
        running &= slope > 1e-14    # stationary to rounding
        if not running.any():
            break
        accepted = np.zeros(shape)                # 0 where no rung passed
        searching = running.copy()
        top = t
        while searching.any():
            rung = top * rungs
            live = searching & (rung > 1e-12)
            rise = curv.hsc(xi + rung[..., None] * direction)
            passed = live & ~(rise < value + 0.25 * rung * slope)
            found = passed.any(axis=0)
            accepted = np.where(found, top * 0.5 ** np.argmax(passed, axis=0), accepted)
            searching &= ~found & live[-1]
            top = top * 0.5 ** ARMIJO_RUNGS
        moved = accepted > 0
        running &= moved
        xi = np.where(moved[..., None],
                      _unit_vector(g, xi + accepted[..., None] * direction), xi)
        t = np.where(moved, 2.0 * accepted, t)
        steps += moved
    else:       # every step was taken: the value is that of the last point
        value = curv.hsc(xi)
    return value, steps


def kahler_closedness_residual(space: SymplecticSpace, J: ComplexStructure,
                               frame: UnitaryFrame, basepoint: BsdPoint,
                               step: float = 1e-3) -> float:
    """max |d_l G_{j kbar} - d_j G_{l kbar}|: closedness of the metric form."""
    _, gram_at = metric_field(space, J, frame, degree=1)
    points = _fd.gradient_points(coords_from_sym(basepoint.phi), step)
    return _fd.closedness_defect(_fd.xy_combine(gram_at(points), False, step))


def curvature_formula_terms(space: SymplecticSpace, J: ComplexStructure,
                            frame: UnitaryFrame, basepoint: BsdPoint) -> np.ndarray:
    """Three-term algebraic curvature tensor.

    -(adj(th_m) th_j, adj(th_l) th_k) - (th_j adj(th_m), th_k adj(th_l))
    - (P_perp(d_l th_j), P_perp(d_m th_k)), with the Hilbert-Schmidt pairing
    (a, b) = tr(a adj(b)), the metric adjoint, and P_perp the projection
    away from the span of the field matrices.  The first variation d_l th_j
    is the exact `HiggsField.dtheta`.
    """
    coords = coords_from_sym(basepoint.phi)
    field_ = HiggsField(space, J, frame, 1)
    field_.guard(coords)
    theta = field_.theta(coords)
    h = field_.gram(coords)
    hinv = np.linalg.inv(h)

    def adj(m):
        return hinv @ m.conj().swapaxes(-1, -2) @ h

    adj_theta = adj(theta)
    gram = np.einsum("jab,kba->jk", theta, adj_theta)
    dtheta = field_.dtheta(coords)                                # [l, j]
    rhs = np.einsum("ljab,qba->ljq", dtheta, adj_theta)
    coeff = np.linalg.solve(gram.T, rhs[..., None])[..., 0]
    perp = dtheta - np.einsum("ljq,qab->ljab", coeff, theta)
    left = adj_theta[:, None] @ theta[None, :]                    # [m, j]: adj(th_m) th_j
    right = theta[:, None] @ adj_theta[None, :]                   # [j, m]: th_j adj(th_m)
    t1 = np.einsum("mjab,lkba->jklm", left, adj(left))
    t2 = np.einsum("jmab,klba->jklm", right, adj(right))
    t3 = np.einsum("ljab,mkba->jklm", perp, adj(perp))
    return -t1 - t2 - t3


def curvature_formula_check(space: SymplecticSpace, J: ComplexStructure,
                            frame: UnitaryFrame, basepoint: BsdPoint,
                            fd: CurvatureTensor) -> float:
    """Max entrywise deviation between the difference tensor `fd` at
    `basepoint` and the three-term formula."""
    alg = curvature_formula_terms(space, J, frame, basepoint)
    return float(np.max(np.abs(fd.entries - alg)))


def df_inner(g: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """<xi, eta> = sum G[j,k] xi^j conj(eta^k): first index pairs with xi.

    Broadcast over leading axes of g (..., N, N) and xi, eta (..., N)."""
    return (xi[..., None, :] @ (g @ eta.conj()[..., None]))[..., 0, 0]


def _unit_vector(g: np.ndarray, raw: np.ndarray) -> np.ndarray:
    return raw / np.sqrt(df_inner(g, raw, raw).real)[..., None]


def burns_bounds(space: SymplecticSpace, J: ComplexStructure, frame: UnitaryFrame,
                 samples: int, seed: int, radius: float = 0.75,
                 step: float = 1e-3) -> BoundsReport:
    """Seeded sweep of sectional, bisectional and Ricci bounds.

    Basepoints are seeded domain points; directions are unit vectors for the
    metric at each basepoint.  The fiber-volume factor is one in this linear
    model, so the certified bound is -2/n for both the sectional and Ricci
    sides, and the paired bisectional bound is -(2/n) |<eta, xi>|^2.

    Every draw comes first, in per-basepoint order: a basepoint, then the
    (xi, eta) pair of each of its samples; the last basepoint may take fewer
    samples.  Pairings come from `ClosedFormCurvature` on stacks: per
    basepoint, one call pairs every sample's xi with xi and eta and one with
    the G-orthonormal basis of the Ricci trace (in blocks of samples of about
    GRAM_BLOCK_BYTES at large n).  Basepoints run in blocks whose metrics
    take about GRAM_BLOCK_BYTES, so G is held for one block at a time: per
    block, the closed-form metric is compared with one `metric_field` call,
    and each basepoint records the sharpness witness L L^T and a
    `hsc_ascent` from ASCENT_STARTS starts drawn from a second generator, so
    the sweep's own draws are those of the tensor sweep.  The two pairings
    of the first sample meet the one-line difference oracle
    (`curvature_fd_along`) at the first ORACLE_BASEPOINTS basepoints, in
    blocks of lines of about GRAM_BLOCK_BYTES (one call at small n).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = frame.n
    nsym = sym_dim(n)
    rng = np.random.default_rng(seed)
    ascent_rng = np.random.default_rng([seed, 1])
    n_base = max(1, samples // 10)
    per_base = -(-samples // n_base)
    counts = [c for c in (min(per_base, samples - b * per_base) for b in range(n_base))
              if c > 0]
    phis, directions = [], []
    for count in counts:
        phis.append(random_bsd_point(n, rng, radius).phi)
        raw = rng.standard_normal((count, 4, nsym))           # re/im of xi, eta
        directions.append(raw[:, 0::2] + 1j * raw[:, 1::2])   # (xi, eta) per sample
    phi = np.stack(phis)
    owner = np.repeat(np.arange(len(counts)), counts)         # basepoint of each sample
    starts = ascent_rng.standard_normal((len(counts), 2, ASCENT_STARTS, nsym))
    coords = coords_from_sym(phi)
    _, gram_at = metric_field(space, J, frame, degree=1)

    def sample_block(base, g, xi_eta):
        """Columns at the raw (xi, eta) pairs of one basepoint with metric g:
        the G-norms of xi and eta, then R(xi, xi, d, d) for d = xi, eta,
        |G(eta, xi)|^2 and the Ricci trace (d over the rows of onb).  The
        basepoint's G and onb broadcast against the samples: no matrix is
        copied per sample."""
        # G-orthonormal basis for the Ricci trace (Gram in the y^H H x
        # convention is the transpose of the coordinate matrix G): rows of onb.
        onb = np.linalg.inv(np.linalg.cholesky(g.T)).conj()
        norms = np.sqrt(df_inner(g, xi_eta, xi_eta).real)
        xi_b, eta_b = (xi_eta / norms[..., None]).swapaxes(0, 1)
        c = ClosedFormCurvature(phi[base])
        return np.column_stack([norms, c.pair(xi_b[:, None], np.stack([xi_b, eta_b], 1)).real,
                                np.abs(df_inner(g, eta_b, xi_b)) ** 2,
                                c.pair(xi_b[:, None], onb).real.sum(axis=-1)])

    block = max(1, GRAM_BLOCK_BYTES // (16 * (nsym + 2) * n * n))

    def base_block(bases):
        """Rows at the samples of the basepoints `bases`: sample_block's
        columns, then the basepoint's metric error, sharpness defect and best
        ascent.  G exists only for the basepoints of one block."""
        curv = ClosedFormCurvature(phi[bases, None])          # stack (bases, 1)
        g = curv.metric()[:, 0]
        per_base = np.stack([
            np.max(np.abs(g - gram_at(coords[bases])), axis=(-2, -1)),
            np.abs(curv.hsc(curv.sharp_direction()) + 2.0 / n)[:, 0],
            np.max(hsc_ascent(curv, starts[bases, 0] + 1j * starts[bases, 1],
                              g[:, None])[0], axis=-1)], axis=-1)
        rows = []
        for i, base in enumerate(range(len(counts))[bases]):
            d = directions[base]
            cols = _in_blocks(lambda s: sample_block(base, g[i], d[s]), len(d), block)
            rows.append(np.column_stack([cols, np.broadcast_to(per_base[i], (len(d), 3))]))
        return np.concatenate(rows)

    # Basepoints per block: their Gram matrices take about GRAM_BLOCK_BYTES.
    columns = _in_blocks(base_block, len(counts), max(1, GRAM_BLOCK_BYTES // (16 * nsym * nsym)))
    norm_x, norm_y, hsc, bis, inner2, ric, metric_err, sharp, ascent = columns.T
    max_metric, max_sharp, max_ascent = np.max(metric_err), np.max(sharp), np.max(ascent)
    paired_excess = bis + (2.0 / n) * inner2
    worst = int(np.argmax(hsc))
    xi_eta = np.concatenate(directions)
    xi = xi_eta[:, 0] / norm_x[:, None]

    first = (np.cumsum(counts) - counts)[:ORACLE_BASEPOINTS]  # first sample of a basepoint
    origins = np.repeat(coords[:len(first)], 2, axis=0)
    lines = np.stack([xi[first], xi_eta[first, 1] / norm_y[first, None]],
                     axis=1).reshape(-1, nsym)
    # Lines per oracle call: each line's stencil holds 17 Gram matrices.
    line_block = max(1, GRAM_BLOCK_BYTES // (16 * 17 * nsym * nsym))
    along = _in_blocks(lambda s: _fd_along(gram_at, origins[s], lines[s], step),
                       len(lines), line_block).reshape(len(first), 2, nsym, nsym)
    oracle = np.einsum("...jk,...j,...k->...", along, xi[first, None], xi[first, None].conj())
    max_pairing = np.max(np.abs(np.stack([hsc[first], bis[first]], axis=1) - oracle))
    return BoundsReport(n=n, samples=len(owner), max_hsc=float(hsc[worst]),
                        max_bisectional=float(np.max(bis)),
                        max_paired_bisectional_excess=float(np.max(paired_excess)),
                        max_ricci=float(np.max(ric)),
                        worst_hsc_witness={"basepoint": phi[owner[worst]].tolist(),
                                           "xi": xi[worst].tolist()},
                        hsc_bound=-2.0 / n, max_metric_error=float(max_metric),
                        max_pairing_error=float(max_pairing),
                        max_einstein_defect=float(np.max(np.abs(ric + (n + 1)))),
                        max_sharpness_defect=float(max_sharp),
                        max_ascent_hsc=float(max_ascent))


def trace_inequality(kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tr((k* k)^2), (1/n) (tr k* k)^2); the left side always dominates.

    kappa (..., n, n) may carry leading axes; both sides then carry them."""
    kappa = np.asarray(kappa, dtype=complex)
    if kappa.ndim < 2 or kappa.shape[-1] != kappa.shape[-2]:
        raise ValueError("square matrix required")
    n = kappa.shape[-1]
    gram = kappa.conj().swapaxes(-1, -2) @ kappa
    return _trace(gram @ gram).real, _trace(gram).real ** 2 / n
