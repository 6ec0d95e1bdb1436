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
from .higgs import HiggsField, metric_adjoint
from .kns import BsdPoint, coords_from_sym, random_bsd_point, sym_basis, sym_dim, sym_from_coords
from .symplin import ComplexStructure, SymplecticSpace, UnitaryFrame

# burns_bounds: basepoints whose first sample meets the one-line difference
# oracle (a fixed count, so the oracle's cost does not grow with samples),
# and the seeded starts and step cap of each basepoint's sectional ascent.
ORACLE_BASEPOINTS = 2
ASCENT_STARTS = 3
ASCENT_ITERATIONS = 50
# Armijo rungs an ascent iteration evaluates per pass, from the top of the
# ladder: the first passing rung is almost always among the first four.
RUNG_CHUNK = 4
# Direction pairs and difference step of the metric-closedness record; the
# step of the one-line oracle balances its h^4 truncation and h^-2 rounding
# (measured, n = 1..8).
CLOSEDNESS_PAIRS = 4
CLOSEDNESS_STEP = 1e-3
LINE_STEP = 4e-3
# Bytes of matrices per block of a stacked evaluation: metric_field's field
# matrices, metric_rows' products and burns_bounds' pairing stack.
GRAM_BLOCK_BYTES = 1 << 22


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
    metric_closedness: float       # metric_closedness at the `closedness` input


def _in_blocks(evaluate, length: int, block: int) -> np.ndarray:
    """evaluate(s) on the slices s of range(length) of `block` items each,
    concatenated along the first axis."""
    return np.concatenate([evaluate(slice(i, i + block)) for i in range(0, length, block)])


def _trace_pairing(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """out[..., j, k] = tr(x_j y_k) for x (..., J, m, m) and y (..., K, m, m),
    as one product of the flattened x_j with the flattened transposes of y_k."""
    rows = x.reshape(x.shape[:-2] + (-1,))
    return rows @ y.swapaxes(-1, -2).reshape(y.shape[:-2] + (-1,)).swapaxes(-1, -2)


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
        chart = field_.chart(coords)                # one F^{-1} per point
        theta, h = field_.theta(coords, chart), field_.gram(coords, chart[0])[..., None, :, :]
        adjoints = metric_adjoint(h, field_.gram_inverse(h), theta)
        return _trace_pairing(theta, adjoints)      # tr(theta_j adj(theta_k))

    def gram_at(coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=complex)
        flat = coords.reshape(-1, nsym)
        out = _in_blocks(lambda s: grams(flat[s]), len(flat), block)
        return out.reshape(coords.shape[:-1] + (nsym, nsym))

    return field_, gram_at


def metric_rows(field_: HiggsField, coords: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """`HiggsField.metric_row1` at coordinates and directions broadcast
    (..., nsym), in blocks of about GRAM_BLOCK_BYTES of its 2n x 2n products."""
    shape = np.broadcast_shapes(np.shape(coords), np.shape(xi))
    flat_c, flat_x = (np.broadcast_to(a, shape).reshape(-1, shape[-1]) for a in (coords, xi))
    return _in_blocks(lambda s: field_.metric_row1(flat_c[s], flat_x[s]), len(flat_c),
                      max(1, GRAM_BLOCK_BYTES // (128 * (2 * field_.n) ** 2))).reshape(shape)


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
                              ratio_to_degree1=None, ratio_spread=None)
    ratio = None
    spread = None
    if normalization != 1:
        _, gram_1 = metric_field(space, J, frame, degree=1)
        g1 = gram_1(coords)
        ratios = g[np.abs(g1) > 1e-12] / g1[np.abs(g1) > 1e-12]
        ratio = float(np.mean(ratios.real))
        spread = float(np.max(np.abs(ratios - ratio)))
    return DfMetricReport(degree=normalization, gram=g, degenerate=False,
                          ratio_to_degree1=ratio, ratio_spread=spread)


def curvature_fd(space: SymplecticSpace, J: ComplexStructure, frame: UnitaryFrame,
                 basepoint: BsdPoint, step: float = 1e-3) -> CurvatureTensor:
    """R_{j kbar l mbar} = -d_l d_mbar G_{j kbar} + G^{p qbar} d_l G_{j qbar} d_mbar G_{p kbar}.

    One gram_at call on the `_fd.hessian_points` gives the base value, the
    gradient (from the Hessian's axis points) and the Hessian.
    """
    coords = coords_from_sym(basepoint.phi)
    field_, gram_at = metric_field(space, J, frame, degree=1)
    field_.guard(coords)
    values = gram_at(_fd.hessian_points(coords, step))
    grads = _fd.hessian_gradient(values, step)                  # [l, j, k]
    hess = _fd.hessian_combine(values, step)                    # [l, m, j, k]
    bl = grads @ np.linalg.inv(values[0])
    r = -hess + bl[:, None] @ grads.conj().swapaxes(-1, -2)[None, :]
    return CurvatureTensor(entries=np.moveaxis(r, (0, 1), (-2, -1)), basepoint=basepoint)


def curvature_fd_along(field_: HiggsField, coords: np.ndarray, g: np.ndarray, xi: np.ndarray,
                       eta: np.ndarray, step: float = LINE_STEP) -> np.ndarray:
    """R(xi, conj(xi), eta, conj(eta)) = -d_w d_wbar G(xi, xi)(coords + w eta)
    + v G^{-1} v^H, v_q = d_w G(xi, e_q) at w = 0, at coords with the metric g
    there, broadcast against xi and eta: curvature_fd's formula contracted,
    from rows on the one-variable `_fd.hessian_points` (one `metric_rows`)."""
    return _line_pairing(metric_rows(field_, *_line_rows(coords, xi, eta, step)), g, xi, step)


def _line_rows(coords, xi, eta, step):
    """The (coordinates, directions) of `curvature_fd_along`'s rows G(xi, .):
    the one-variable `_fd.hessian_points` of the lines coords + w eta."""
    ndim = len(np.broadcast_shapes(np.shape(coords), np.shape(xi), np.shape(eta)))
    w = _fd.hessian_points(np.zeros(1, dtype=complex), step).reshape((-1,) + (1,) * ndim)
    return coords + w * eta, xi


def _line_pairing(rows, g, xi, step):
    """`curvature_fd_along` from the rows at its `_line_rows`."""
    hess = _fd.hessian_combine(np.sum(rows * np.conj(xi), axis=-1), step)[0, 0]
    v = _fd.hessian_gradient(rows, step)[0]
    return -hess + (v[..., None, :] @ np.linalg.solve(g, v.conj()[..., None]))[..., 0, 0]


def metric_closedness(space: SymplecticSpace, J: ComplexStructure, frame: UnitaryFrame,
                      basepoint: BsdPoint, pairs: np.ndarray,
                      step: float = CLOSEDNESS_STEP) -> float:
    """max |d_Z G(X, .) - d_X G(Z, .)| over the pairs (X, Z) = pairs[p]
    (P, 2, nsym) scaled to unit length: d_l G_{j kbar} = d_j G_{l kbar}
    contracted with X^j Z^l, each derivative `_fd.xy_combine` of rows on the
    `_fd.xy_points` of a line through the basepoint (one `metric_rows`)."""
    rows = metric_rows(HiggsField(space, J, frame, 1),
                       *_closedness_rows(coords_from_sym(basepoint.phi), pairs, step))
    return _closedness(rows, step)


def _closedness_rows(coords, pairs, step):
    """The (coordinates, directions) of `metric_closedness`' rows: G(X, .)
    on the line coords + w Z and G(Z, .) on coords + w X, per unit pair."""
    pairs = pairs / np.linalg.norm(pairs, axis=-1, keepdims=True)
    w = _fd.xy_points(np.zeros(1, dtype=complex), 0, step).reshape(-1, 1, 1, 1)
    return coords + w * pairs[:, ::-1], pairs


def _closedness(rows, step):
    """`metric_closedness` from the rows at its `_closedness_rows`."""
    d = _fd.xy_combine(rows, False, step)                  # [p, 0] = d_Z G(X, .)
    return float(np.max(np.abs(d[:, 0] - d[:, 1])))


def _rows_in_one_pass(field_: HiggsField, *requests) -> list[np.ndarray]:
    """`metric_rows` at every (coords, xi) request (each broadcast), all in
    one call: the rows of each request, shaped like its broadcast."""
    shapes = [np.broadcast_shapes(*map(np.shape, request)) for request in requests]
    flat = [[np.broadcast_to(a, shape).reshape(-1, shape[-1]) for a in request]
            for request, shape in zip(requests, shapes)]
    rows = metric_rows(field_, *(np.concatenate(part) for part in zip(*flat)))
    ends = np.cumsum([len(c) for c, _ in flat])[:-1]
    return [part.reshape(shape) for part, shape in zip(np.split(rows, ends), shapes)]


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
    b: np.ndarray | None = field(default=None, repr=False)     # given, or inverted
    basis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=complex)
        n = phi.shape[-1]
        object.__setattr__(self, "phi", phi)
        if self.b is None:
            object.__setattr__(self, "b", np.linalg.inv(np.eye(n) - phi @ phi.conj()))
        object.__setattr__(self, "basis", np.stack(sym_basis(n)))

    def metric(self) -> np.ndarray:
        """G[..., j, k] = tr(B S_j conj(B) S_k), in metric_field's convention;
        a long basepoint stack is evaluated in blocks of about
        GRAM_BLOCK_BYTES of the products B S_j."""
        n, nsym = self.basis.shape[-1], len(self.basis)
        b = self.b.reshape(-1, 1, n, n)
        out = _in_blocks(lambda s: _trace_pairing(b[s] @ self.basis, b[s].conj() @ self.basis),
                         len(b), max(1, GRAM_BLOCK_BYTES // (16 * nsym * n * n)))
        return out.reshape(self.b.shape[:-2] + (nsym, nsym))

    def pair(self, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """R(xi, conj(xi), eta, conj(eta))."""
        return _pairing(*_halves(self.b, xi), *_halves(self.b, eta))

    def hsc(self, xi: np.ndarray) -> np.ndarray:
        """hsc = R(xi, xi, xi, xi) / G(xi, xi)^2 = -2 tr(P^2) / tr(P)^2, P = BX conj(BX)."""
        p = np.matmul(*_halves(self.b, xi))
        return -2.0 * _trace(p @ p).real / _trace(p).real ** 2

    def transport(self, xi: np.ndarray) -> np.ndarray:
        """Z = K^H X conj(K), K K^H = B (Cholesky): X carried to the origin,
        where G and R read the same on the images (homogeneity), and
        P = BX conj(BX) = K Z conj(Z) K^{-1} has the spectrum sigma(Z)^2."""
        k = np.linalg.cholesky(self.b)
        return k.conj().swapaxes(-1, -2) @ sym_from_coords(xi, self.phi.shape[-1]) @ k.conj()

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


def _halves(b: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(BX, conj(BX)) with X = sum xi_j S_j, for B (..., n, n) and xi
    (..., nsym) broadcast."""
    x = sym_from_coords(xi, b.shape[-1])
    return b @ x, b.conj() @ x.conj()


def _trace(m):
    return np.trace(m, axis1=-2, axis2=-1)


def _pairing(bx, bxb, by, byb):
    """-[tr(bx.bxb.by.byb) + tr(bx.byb.by.bxb)], broadcast over leading axes."""
    return -(_trace(bx @ bxb @ by @ byb) + _trace(bx @ byb @ by @ bxb))


def hsc_ascent(curv: ClosedFormCurvature, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Holomorphic sectional curvature reached by gradient ascent from each
    start, and the number of steps taken (both of shape starts.shape[:-1]).

    From each start (a row (..., nsym), broadcast against curv's stack):
    steepest ascent for the metric G, halving the step until the rise meets
    a quarter of the slope (Armijo), for at most ASCENT_ITERATIONS steps or
    until the slope is rounding.  The ascents run in lockstep on the spectrum
    sigma(Z)^2 of P = A conj(A), A = BX, Z = `curv.transport`: the step
    C = BD is V A, V a real polynomial in P (`_spectral_step`), so hsc and the
    G-norm at a rung r of t, t/2, ... down to 1e-12 are sums over the spectrum
    of P(r) = (I + rV)^2 P (`_spectrum_along`; README, numerical conventions).
    The rungs are evaluated RUNG_CHUNK at a time, from the top, only until
    every search has its first passing rung.
    """
    lam = np.linalg.svd(curv.transport(starts), compute_uv=False) ** 2
    shape = lam.shape[:-1]
    lam = lam.reshape(-1, lam.shape[-1])
    # Rungs r = 2^-k t down to 1e-12 for any t (a power of two, at most 2^50),
    # and a last rung 0 that no search reaches: the step of a failed search.
    halves = np.append(0.5 ** np.arange(2 + int(np.log2(2.0 ** ASCENT_ITERATIONS / 1e-12))), 0.0)
    failed = len(halves) - 1
    t, steps, running = np.ones(len(lam)), np.zeros(len(lam), dtype=int), np.ones(len(lam), bool)
    for _ in range(ASCENT_ITERATIONS):
        value, v = _spectral_step(lam)
        slope = 2.0 * (lam * v * v).sum(-1)     # 2 G(D, D) = 2 tr(C conj(C))
        running &= slope > 1e-14                # stationary to rounding
        if not running.any():
            break
        # The first passing rung of every running search, RUNG_CHUNK rungs
        # at a time from the top, until no pending search can still pass.
        rung, pending = np.full(len(lam), failed), running
        for top in range(0, failed, RUNG_CHUNK):
            r = halves[top:top + RUNG_CHUNK, None] * t
            moved = _spectrum_along(lam, v, r)  # tr P(r) is the G-norm
            rise = -2.0 * (moved * moved).sum(-1) / moved.sum(-1) ** 2
            passed = ~(rise < value + 0.25 * r * slope) & (r > 1e-12) & pending
            hit = passed.any(0)
            rung = np.where(hit, top + passed.argmax(0), rung)
            pending = pending & ~hit
            if not (pending & (r[-1] > 1e-12)).any():
                break
        found = rung < failed
        accepted = t * halves[rung]
        running &= found
        moved = _spectrum_along(lam, v, accepted)
        lam = np.where(found[:, None], moved / moved.sum(-1, keepdims=True), lam)
        t = np.where(found, 2.0 * accepted, t)
        steps += found
    else:       # every step was taken: the value is that of the last point
        value = _spectral_step(lam)[0]
    return value.reshape(shape), steps.reshape(shape)


def _spectral_step(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """hsc = -2 tr(P^2) / tr(P)^2 at P's spectrum lam (..., n), and the
    eigenvalues v of the step's V = -4 (tr(P) P - tr(P^2) I) / tr(P)^3."""
    tr_p, tr_pp = lam.sum(-1, keepdims=True), (lam * lam).sum(-1, keepdims=True)
    return -2.0 * tr_pp[..., 0] / tr_p[..., 0] ** 2, -4.0 * (tr_p * lam - tr_pp) / tr_p ** 3


def _spectrum_along(lam: np.ndarray, v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The spectrum lam (1 + r v)^2 of P(r) = (I + rV)^2 P from those of P and
    V (lam and v, (..., n)), at steps r broadcast against lam.shape[:-1]."""
    return lam * (1.0 + r[..., None] * v) ** 2


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
    h_inv = field_.gram_inverse(h)
    adj_theta = metric_adjoint(h, h_inv, theta)
    gram = _trace_pairing(theta, adj_theta)
    dtheta = field_.dtheta(coords)                                # [l, j]
    rhs = _trace_pairing(dtheta, adj_theta)                       # [l, j, q]
    coeff = np.linalg.solve(gram.T, rhs[..., None])[..., 0]
    perp = dtheta - np.einsum("ljq,qab->ljab", coeff, theta)
    left = adj_theta[:, None] @ theta[None, :]                    # [m, j]: adj(th_m) th_j
    right = theta[:, None] @ adj_theta[None, :]                   # [j, m]: th_j adj(th_m)
    t1 = np.einsum("mjab,lkba->jklm", left, metric_adjoint(h, h_inv, left))
    t2 = np.einsum("jmab,klba->jklm", right, metric_adjoint(h, h_inv, right))
    t3 = np.einsum("ljab,mkba->jklm", perp, metric_adjoint(h, h_inv, perp))
    return -t1 - t2 - t3


def df_inner(g: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """<xi, eta> = sum G[j,k] xi^j conj(eta^k): first index pairs with xi.

    Broadcast over leading axes of g (..., N, N) and xi, eta (..., N)."""
    return (xi[..., None, :] @ (g @ eta.conj()[..., None]))[..., 0, 0]


def burns_bounds(space: SymplecticSpace, J: ComplexStructure, frame: UnitaryFrame,
                 samples: int, seed: int, closedness: tuple[BsdPoint, np.ndarray],
                 radius: float = 0.75, step: float = LINE_STEP) -> BoundsReport:
    """Seeded sweep of sectional, bisectional and Ricci bounds.

    Basepoints are seeded domain points; directions are unit vectors for the
    metric at each basepoint.  The fiber-volume factor is one in this linear
    model, so the certified bound is -2/n for both the sectional and Ricci
    sides, and the paired bisectional bound is -(2/n) |<eta, xi>|^2.

    Every draw comes first, in per-basepoint order: a basepoint, then the
    (xi, eta) pair of each of its samples; the last basepoint may take fewer
    samples.  Per block of basepoints (their metrics take about
    GRAM_BLOCK_BYTES), one `ClosedFormCurvature` serves the closed-form
    metric (against one `metric_field` call), the sharpness witness L L^T,
    a `hsc_ascent` from ASCENT_STARTS starts of a second generator, and one
    pass over the block's samples (indexed by owner) pairing every xi with
    xi, eta and the G-orthonormal basis of the Ricci trace.  The first
    sample's two pairings at the first ORACLE_BASEPOINTS basepoints meet
    `curvature_fd_along`.  `closedness` is the (basepoint, pairs) of the
    report's `metric_closedness` record; its rows and the oracle lines' rows
    are one `metric_rows` call.
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
    offsets = np.concatenate([[0], np.cumsum(counts)])        # first sample of each basepoint
    xi_eta = np.concatenate(directions)
    starts = ascent_rng.standard_normal((len(counts), 2, ASCENT_STARTS, nsym))
    coords = coords_from_sym(phi)
    field_, gram_at = metric_field(space, J, frame, degree=1)
    oracle_grams = []         # metric_field at the first ORACLE_BASEPOINTS basepoints

    def base_block(bases):
        """Rows at the samples of the basepoints `bases`: the G-norms of xi
        and eta, R(xi, xi, d, d) for d = xi, eta, |G(eta, xi)|^2 and the
        Ricci trace (d over a G-orthonormal basis), then the owner's metric error,
        sharpness defect and best ascent."""
        lo, hi, _ = bases.indices(len(counts))
        curv = ClosedFormCurvature(phi[lo:hi, None])          # stack (bases, 1)
        g = curv.metric()[:, 0]
        higgs = gram_at(coords[lo:hi])
        oracle_grams.extend(higgs[:max(0, ORACLE_BASEPOINTS - lo)])
        per_base = np.stack([
            np.max(np.abs(g - higgs), axis=(-2, -1)),
            np.abs(curv.hsc(curv.sharp_direction()) + 2.0 / n)[:, 0],
            np.max(hsc_ascent(curv, starts[lo:hi, 0] + 1j * starts[lo:hi, 1])[0], axis=-1)],
            axis=-1)
        # Ricci trace over G-orthonormal rows Y_d (Gram in the y^H H x convention
        # is G^T): -[tr(BX.BbXb.Q) + tr(BbXb.BX.Qm)] with Q = sum_d BY_d.BbYb_d
        # and its mirror Qm = sum_d BbYb_d.BY_d.
        by, byb = _halves(curv.b, np.linalg.inv(np.linalg.cholesky(g.swapaxes(-1, -2))).conj())
        q, mirror = (np.sum(m, axis=-3, keepdims=True) for m in (by @ byb, byb @ by))
        local = owner[offsets[lo]:offsets[hi]] - lo
        block_xi_eta = xi_eta[offsets[lo]:offsets[hi]]

        def sample_rows(s):
            own, d = local[s], block_xi_eta[s]
            norms = np.sqrt(df_inner(g[own, None], d, d).real)
            xi_b, eta_b = (d / norms[..., None]).swapaxes(0, 1)
            b = curv.b[own]                                       # B of the owners
            bx, bxb = _halves(b, xi_b[:, None])
            hsc_bis = _pairing(bx, bxb, *_halves(b, np.stack([xi_b, eta_b], 1))).real
            ricci = -(_trace(bx @ bxb @ q[own]) + _trace(bxb @ bx @ mirror[own])).real
            return np.column_stack([norms, hsc_bis, np.abs(df_inner(g[own], eta_b, xi_b)) ** 2,
                                    ricci[:, 0], per_base[own]])

        # Samples per block: about eight n x n matrices each.
        return _in_blocks(sample_rows, len(local), max(1, GRAM_BLOCK_BYTES // (16 * 8 * n * n)))

    # Basepoints per block: their Gram matrices take about GRAM_BLOCK_BYTES.
    columns = _in_blocks(base_block, len(counts), max(1, GRAM_BLOCK_BYTES // (16 * nsym * nsym)))
    norm_x, norm_y, hsc, bis, inner2, ric, metric_err, sharp, ascent = columns.T
    max_metric, max_sharp, max_ascent = np.max(metric_err), np.max(sharp), np.max(ascent)
    paired_excess = bis + (2.0 / n) * inner2
    worst = int(np.argmax(hsc))
    xi = xi_eta[:, 0] / norm_x[:, None]

    first = offsets[:len(oracle_grams)]                       # first sample of a basepoint
    lines = np.stack([xi[first], xi_eta[first, 1] / norm_y[first, None]], axis=1)
    point, pairs = closedness
    line_rows, closed_rows = _rows_in_one_pass(
        field_, _line_rows(coords[:len(first), None], xi[first, None], lines, step),
        _closedness_rows(coords_from_sym(point.phi), pairs, CLOSEDNESS_STEP))
    oracle = _line_pairing(line_rows, np.stack(oracle_grams)[:, None], xi[first, None], step)
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
                        max_ascent_hsc=float(max_ascent),
                        metric_closedness=_closedness(closed_rows, CLOSEDNESS_STEP))


def trace_inequality(kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tr((k* k)^2), (1/n) (tr k* k)^2); the left side always dominates.

    kappa (..., n, n) may carry leading axes; both sides then carry them."""
    kappa = np.asarray(kappa, dtype=complex)
    if kappa.ndim < 2 or kappa.shape[-1] != kappa.shape[-2]:
        raise ValueError("square matrix required")
    n = kappa.shape[-1]
    gram = kappa.conj().swapaxes(-1, -2) @ kappa
    return _trace(gram @ gram).real, _trace(gram).real ** 2 / n
