"""Finite-rank flat bundles of exterior covector powers over the bounded domain.

Over the global chart the degree-k trivial bundle splits into type blocks for
the varying structure; the plain coordinate derivative decomposes as the
type-preserving part plus a degree-(-1,1) field and its conjugate.  All
operators are matrices on the fixed wedge basis built from the reference
unitary frame and its conjugates; the moving structure enters through the
graph frame F(t) = [[I, conj(phi)], [phi, I]].  The chart coordinates fix
that frame, so a field takes only the rank; `structure_gram` is the route
through a real structure and an explicit frame, the oracle of `gram1`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _fd, symplin, wedge
from .kns import (BOUNDARY_MARGIN, BoundaryProximityError, graph_frame, spectral_radius_phibar,
                  structure_from_bsd, sym_basis, sym_dim, sym_from_coords)

# The inner frame changes of a `HiggsStencil` are formed in blocks of at most
# this many bytes (8 MiB), so their peak memory does not grow with the
# 64 nsym^2 points of the inner stencil.
STENCIL_BLOCK_BYTES = 1 << 23


@dataclass(frozen=True)
class HiggsFrame:
    """Data of the degree-k bundle at domain points.

    All matrices act on wedge coordinates over the fixed reference basis
    (xi^1..xi^n, conj(xi^1)..conj(xi^n)).  Every field carries the leading
    axes of the coordinates the frame was taken at; the residual functions
    below read a frame at a single point.
    """

    k: int
    phi: np.ndarray
    proj: dict[tuple[int, int], np.ndarray]
    theta: np.ndarray                               # (..., nsym, dim, dim)
    gram: np.ndarray
    gram_inverse: np.ndarray = field(repr=False)
    frame_change: np.ndarray = field(repr=False)   # wedge power of F(t)

    @property
    def dim(self) -> int:
        return self.gram.shape[-1]


def metric_adjoint(gram: np.ndarray, inverse: np.ndarray, m: np.ndarray) -> np.ndarray:
    """adj(m) = h^{-1} m^H h, the adjoint for the Gram matrices h = gram
    (..., d, d), with inverse h^{-1} (`HiggsField.gram_inverse`), of matrices
    m (..., d, d) broadcast against them."""
    return inverse @ m.conj().swapaxes(-1, -2) @ gram


def graph_inverse(phi: np.ndarray) -> np.ndarray:
    """F^{-1} = diag(conj(B), B) graph_frame(-phi) for F = graph_frame(phi),
    B = (I - phi conj(phi))^{-1}: the blocks [[conj(B), -conj(B phi)],
    [-B phi, B]] from one n x n inverse per point."""
    n = phi.shape[-1]
    b = np.linalg.inv(np.eye(n) - phi @ phi.conj())
    finv = graph_frame(-(b @ phi))
    finv[..., :n, :n], finv[..., n:, n:] = b.conj(), b
    return finv


def theta_x(cols: np.ndarray, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """theta_X = Q dF_X F^{-1} = Q[:, n:] X F^{-1}[:n, :] for symmetric X, of
    rank at most that of X: cols are the columns Q[:, n + i] and rows the rows
    F^{-1}[j, :] (`HiggsField.chart`) at the rows i and columns j of X that x
    keeps, all n of them or the support of a sparse X; broadcast."""
    return cols @ x @ rows


def structure_gram(space: symplin.SymplecticSpace, frame: symplin.UnitaryFrame,
                   coords: np.ndarray) -> np.ndarray:
    """`symplin.dual_metric_gram` of the structure `structure_from_bsd(frame,
    phi)` on the rows (xi, conj(xi)) of the reference frame, at the
    coordinates (nsym,) of one point: the oracle route of `HiggsField.gram1`."""
    J = symplin.ComplexStructure(J=structure_from_bsd(frame, sym_from_coords(coords, frame.n)))
    return symplin.dual_metric_gram(space, J, np.vstack([frame.columns, frame.columns.conj()]))


class HiggsField:
    """Field of HiggsFrame data over the global chart coordinates of rank n.

    Every field method takes coordinates of shape (..., nsym) and returns its
    values stacked along the same leading axes, so a whole stencil (or a
    stencil of stencils) is one call.
    """

    def __init__(self, n: int, k: int):
        if k < 0 or k > 2 * n:
            raise ValueError(f"form degree {k} out of range [0, {2 * n}]")
        self.k = k
        self.n = n
        self.nsym = sym_dim(n)
        self._sym = np.stack(sym_basis(n))
        # S_mu = E_ab + E_ba on its rows and columns (a, b) = _support[mu] is
        # the block [[0, 1], [1, 0]], or [[0, 1], [0, 0]] for E_aa.
        a, b = np.triu_indices(n)
        self._support = np.stack([a, b], axis=-1)
        self._block = np.multiply.outer(a != b, [[0.0, 0.0], [1.0, 0.0]]) + [[0, 1], [0, 0]]
        masks = wedge.type_masks(n, k)
        self.types = list(masks)
        self._type_diags = np.stack([np.diag(mask.astype(complex)) for mask in masks.values()])
        # same[a, b]: wedge basis elements a and b have one type, so Y * same
        # keeps the type-preserving blocks of a matrix Y in the frame W.
        label = np.argmax(np.stack(list(masks.values())), axis=0)
        self.same = label[:, None] == label[None, :]
        # The inverse Gram is S h S, S = diag(I, -I) (`gram1`); at degree k S's
        # wedge power is the sign (-1)^q on the (p, q) block.
        sign = (np.repeat([1.0, -1.0], n), sum((-1.0) ** q * m for (_, q), m in masks.items()))
        self._signs1, self._signs = (np.multiply.outer(s, s) for s in sign)

    # -- degree-1 fields ----------------------------------------------------

    def phi(self, coords: np.ndarray) -> np.ndarray:
        return sym_from_coords(coords, self.n)

    def guard(self, coords: np.ndarray) -> None:
        """Refuse coordinates (any point of a stack) at the domain boundary."""
        if spectral_radius_phibar(self.phi(coords)) >= 1.0 - BOUNDARY_MARGIN:
            raise BoundaryProximityError("stencil exits the bounded domain")

    def chart(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """F^{-1} (`graph_inverse`) and Q = I - F[:, :n] F^{-1}[:n, :] =
        F[:, n:] F^{-1}[n:, :] at coordinates (..., nsym): Q projects away from
        the span of the holomorphic frame columns."""
        phi = self.phi(coords)
        finv = graph_inverse(phi)
        return finv, graph_frame(phi)[..., :, self.n:] @ finv[..., self.n:, :]

    def theta1(self, coords: np.ndarray, chart: tuple | None = None) -> np.ndarray:
        """theta_mu = Q (d_mu F) F^{-1} = `theta_x` at X = S_mu (`sym_basis`) read
        on its support (a, b), from `chart(coords)` unless given: a rank-two
        product with no (nsym, 2n, n) intermediate; shape (..., nsym, 2n, 2n)."""
        finv, q = self.chart(coords) if chart is None else chart
        cols = np.moveaxis(q[..., :, self.n + self._support], -3, -2)
        return theta_x(cols, self._block, finv[..., self._support, :])

    def gram1(self, coords: np.ndarray, finv: np.ndarray | None = None) -> np.ndarray:
        """Dual Gram matrix of the degree-1 covectors in closed form: H =
        F^{-H} D F^{-1} = F^{-H} graph_frame(-phi), D = diag(conj(A), A) and
        A = I - phi conj(phi); finv is F^{-1} when the caller has formed it.
        Its inverse F D^{-1} F^H is S H S, S = diag(I, -I) (README).

        It equals `structure_gram` for every reference frame.
        """
        phi = self.phi(coords)
        finv = graph_inverse(phi) if finv is None else finv
        return finv.conj().swapaxes(-1, -2) @ graph_frame(-phi)

    def metric_row1(self, coords: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """The row G(xi, e_q) = tr(theta_xi adj(theta_q)) of the degree-1
        metric at coordinates and directions broadcast (..., nsym): with
        theta_xi = `theta_x` at X = sum xi_j S_j it is tr(K dF_q^H), K = Q^H h
        theta_xi h^{-1} F^{-H}, the block K[n:, :n] read in the `sym_basis`
        pairing."""
        n = self.n
        finv, q = self.chart(coords)
        theta = theta_x(q[..., :, n:], sym_from_coords(xi, n), finv[..., :n, :])
        h = self.gram1(coords, finv)
        k = (q.conj().swapaxes(-1, -2)[..., n:, :] @ h @ theta
             @ (h * self._signs1) @ finv.conj().swapaxes(-1, -2)[..., :n])
        rows, cols = self._support.T
        flat = k.reshape(k.shape[:-2] + (n * n,))
        return (np.take(flat, rows * n + cols, axis=-1)
                + np.take(flat, cols * n + rows, axis=-1) * (rows < cols))

    # -- degree-k assembly ---------------------------------------------------

    def frame_change(self, coords: np.ndarray) -> np.ndarray:
        return wedge.compound_matrix(graph_frame(self.phi(coords)), self.k)

    def frame_inverse(self, coords: np.ndarray) -> np.ndarray:
        """The inverse of `frame_change`: by Cauchy-Binet, the wedge power of
        the inverse graph frame (`graph_inverse`)."""
        return wedge.compound_matrix(graph_inverse(self.phi(coords)), self.k)

    def projectors(self, coords: np.ndarray, wk: np.ndarray | None = None) -> np.ndarray:
        """Type projectors, one per entry of `types`: shape (..., npq, dim, dim).
        wk is `frame_change(coords)` when the caller has already formed it."""
        if wk is None:
            wk = self.frame_change(coords)
        return wk[..., None, :, :] @ self._type_diags @ self.frame_inverse(coords)[..., None, :, :]

    def theta(self, coords: np.ndarray, chart: tuple | None = None) -> np.ndarray:
        return self._lift(self.theta1(coords, chart))

    def _lift(self, m: np.ndarray) -> np.ndarray:
        """The degree-k derivation of fresh degree-1 matrices m: m itself at
        k = 1, without `wedge.derivation_matrix`'s copy."""
        return m if self.k == 1 else wedge.derivation_matrix(m, self.k)

    def dtheta(self, coords: np.ndarray) -> np.ndarray:
        """Exact first variation [mu, nu] = d_mu theta_nu, shape (..., nsym, nsym,
        dim, dim), in closed form: F is affine in the coordinates, so d_mu Q =
        -theta_mu and d_mu theta_nu = -(theta_mu dF_nu + theta_nu dF_mu) F^{-1},
        `theta_x` at X = -(S_mu C S_nu + S_nu C S_mu), C = F^{-1}[:n, n:]."""
        n = self.n
        finv, q = self.chart(coords)
        x = self._sym[:, None] @ finv[..., None, None, :n, n:] @ self._sym    # S_mu C S_nu
        x = -(x + x.swapaxes(-3, -4))
        return self._lift(theta_x(q[..., None, None, :, n:], x, finv[..., None, None, :n, :]))

    def gram(self, coords: np.ndarray, finv: np.ndarray | None = None) -> np.ndarray:
        return wedge.compound_matrix(self.gram1(coords, finv), self.k)

    def gram_inverse(self, gram: np.ndarray) -> np.ndarray:
        """The inverse of `gram` values (..., dim, dim), S h S at every degree,
        but 1 / gram at the top degree, whose 1 x 1 Gram det H = 1 carries
        rounding times cond(H) that only the reciprocal matches exactly."""
        return 1.0 / gram if self.k == 2 * self.n else gram * self._signs

    def theta_bar(self, coords: np.ndarray, theta: np.ndarray | None = None) -> np.ndarray:
        """The conjugate mixing field; theta is `theta(coords)` when the caller
        has already formed it."""
        if theta is None:
            theta = self.theta(coords)
        c = wedge.conjugation_matrix(self.n, self.k)
        return c @ theta.conj() @ c

    def frame_at(self, coords: np.ndarray) -> HiggsFrame:
        self.guard(coords)
        wk = self.frame_change(coords)
        return self._frame(coords, wk, self.projectors(coords, wk), self.theta(coords),
                           self.gram(coords))

    def _frame(self, coords: np.ndarray, wk: np.ndarray, projs: np.ndarray,
               theta: np.ndarray, gram: np.ndarray) -> HiggsFrame:
        """The HiggsFrame of field values already taken at coords."""
        return HiggsFrame(
            k=self.k,
            phi=self.phi(coords),
            proj={pq: projs[..., b, :, :] for b, pq in enumerate(self.types)},
            theta=theta,
            gram=gram,
            gram_inverse=self.gram_inverse(gram),
            frame_change=wk,
        )

    def stencil(self, coords: np.ndarray, step: float = _fd.DEFAULT_STEP) -> HiggsStencil:
        """The field on the nested difference stencil at one base point (nsym,)
        or a stack of them (L, nsym), every point evaluated once and the
        projectors at the base points only.  The checks read one base point:
        `HiggsStencil.at` of a stack."""
        self.guard(coords)
        points = (coords, _fd.gradient_points(coords, step))
        wk = tuple(self.frame_change(p) for p in points)
        theta = tuple(self.theta(p) for p in points)
        gram = tuple(self.gram(p) for p in points)
        return HiggsStencil(
            field=self, step=step, points=points, wk=wk,
            winv=tuple(self.frame_inverse(p) for p in points),
            dwk=(tuple(_fd.xy_combine(wk[1], bar, step) for bar in (False, True)),
                 self._inner_differences(points[1], step)),
            theta=theta,
            theta_bar=tuple(self.theta_bar(p, t) for p, t in zip(points, theta)),
            gram=gram,
            frame=self._frame(coords, wk[0], self.projectors(coords, wk[0]), theta[0],
                              gram[0]))

    def _inner_differences(self, outer: np.ndarray, step: float) -> tuple[np.ndarray, ...]:
        """Holomorphic and antiholomorphic differences of `frame_change` at
        every point of `outer`, along every coordinate: two arrays
        (*outer.shape[:-1], nsym, dim, dim).

        The frame changes of the inner stencil are formed in blocks of outer
        points, each block's stack at most STENCIL_BLOCK_BYTES, and reduced to
        their differences before the next block."""
        flat = outer.reshape(-1, self.nsym)
        dim = len(self.same)
        out = np.empty((2, len(flat), self.nsym, dim, dim), dtype=complex)
        block = max(1, STENCIL_BLOCK_BYTES // (8 * self.nsym * dim * dim * 16))
        for start in range(0, len(flat), block):
            inner = self.frame_change(_fd.gradient_points(flat[start:start + block], step))
            for i, bar in enumerate((False, True)):
                out[i, start:start + block] = _fd.xy_combine(inner, bar, step)
        return tuple(d.reshape(outer.shape[:-1] + d.shape[1:]) for d in out)


# ---------------------------------------------------------------------------
# Batched stencils
#
# A check evaluates the field on whole stencils at once: `_fd.gradient_points`
# of coordinates (*L, nsym) has shape (S, *L, nsym, nsym), its leading axis
# the stencil point and the next-to-last the coordinate, and a stencil of
# stencils is `_fd.gradient_points` of those points.
#
# Every column of the frame W (`HiggsField.frame_change`) has one type, so
# the type projectors are pi_b = W diag_b W^{-1} and pi_b W = W diag_b at
# every point.  For sections V whose columns keep those types (W itself and
# its covariant derivative) and any linear difference operator D,
#
#     sum_b pi_b D(pi_b V) = sum_b W diag_b W^{-1} (DV) diag_b = W bd(W^{-1} DV),
#     sum_b pi_b D pi_b    = -W off(W^{-1} DW) W^{-1}     (D a derivation),
#
# with bd(Y) = Y * same and off(Y) = Y * ~same (`HiggsField.same`).  The
# checks take D as central differences of W on the stencil and never form a
# projector there.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HiggsStencil:
    """The field on the nested stencil at one base point (`HiggsField.stencil`).

    Each tuple is indexed by stencil level: 0 the base point (nsym,) and 1
    its `_fd.gradient_points` (8, nsym, nsym).  ``dwk[level]`` holds the
    holomorphic and antiholomorphic differences, along every coordinate, of
    the frame change at the next level: at level 1 that is the inner stencil
    (8 x 8 nsym x nsym points), which is not kept.  The checks below read
    these values and evaluate nothing else.
    """

    field: HiggsField
    step: float
    points: tuple[np.ndarray, ...]
    wk: tuple[np.ndarray, ...]          # frame change W
    winv: tuple[np.ndarray, ...]        # its inverse
    dwk: tuple[tuple[np.ndarray, np.ndarray], ...]   # (D W, Dbar W) of the next level
    theta: tuple[np.ndarray, ...]
    theta_bar: tuple[np.ndarray, ...]
    gram: tuple[np.ndarray, ...]
    frame: HiggsFrame                   # `HiggsField.frame_at` the base point

    def at(self, i: int) -> HiggsStencil:
        """The stencil of the i-th base point of a stencil taken at a stack of
        base points (L, nsym): views of every array, the base point's axis
        removed (the first at level 0, the second at level 1)."""
        def pick(levels):
            return (levels[0][i], levels[1][:, i])

        f = self.frame
        return HiggsStencil(
            field=self.field, step=self.step, points=pick(self.points), wk=pick(self.wk),
            winv=pick(self.winv),
            dwk=(tuple(d[i] for d in self.dwk[0]), tuple(d[:, i] for d in self.dwk[1])),
            theta=pick(self.theta), theta_bar=pick(self.theta_bar), gram=pick(self.gram),
            frame=HiggsFrame(k=f.k, phi=f.phi[i], proj={pq: p[i] for pq, p in f.proj.items()},
                             theta=f.theta[i], gram=f.gram[i],
                             gram_inverse=f.gram_inverse[i], frame_change=f.frame_change[i]))


def _covariant(st: HiggsStencil, level: int, dv: np.ndarray) -> np.ndarray:
    """sum_b pi_b D(pi_b V) = W bd(W^{-1} DV) at the points of a stencil level,
    for sections V with typed columns and their differences dv (*L, J, ..., d, d)
    along every coordinate J."""
    w, winv = st.wk[level][..., None, :, :], st.winv[level][..., None, :, :]
    return w @ np.where(st.field.same, winv @ dv, 0.0)


def _connection_form(st: HiggsStencil, level: int, dw: np.ndarray) -> np.ndarray:
    """sum_b pi_b D pi_b = -W off(W^{-1} DW) W^{-1}, the connection form of the
    type-preserving part in the constant frame, from the differences dw
    (*L, J, d, d) of the frame at a stencil level."""
    w, winv = st.wk[level][..., None, :, :], st.winv[level][..., None, :, :]
    return -(w @ np.where(st.field.same, 0.0, winv @ dw) @ winv)


# ---------------------------------------------------------------------------
# Structural residual reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitReport:
    holo_residual: float
    antiholo_residual: float

    @property
    def residual(self) -> float:
        return max(self.holo_residual, self.antiholo_residual)


def connection_split_check(st: HiggsStencil) -> SplitReport:
    """Residual of (plain derivative) = (type-projected derivative) + mixing field.

    Sample sections are the wedge powers of the holomorphic graph frame; the
    plain derivative is measured by central differences, the projected one is
    `_covariant` of those differences and the mixing field matrices come from
    the closed form.
    """
    residuals = []
    for mixing, plain in zip((st.theta[0], st.theta_bar[0]), st.dwk[0]):
        projected = _covariant(st, 0, plain)
        residuals.append(float(np.max(np.abs(plain - projected - mixing @ st.wk[0]))))
    return SplitReport(holo_residual=residuals[0], antiholo_residual=residuals[1])


def curvature_operator(st: HiggsStencil) -> np.ndarray:
    """Mixed curvature operators of the type-preserving connection by nested differences.

    Measures the commutator of the projected holomorphic and antiholomorphic
    derivatives on the graph frame sections; first-derivative terms cancel in
    the commutator, leaving the curvature operator applied to the frame.
    Entry [j, kbar] is the operator of the pair (d_j, d_kbar); both orders of
    differentiation read one stencil of stencils.  The covariant derivative
    of the frame keeps the type of each column, so `_covariant` applies at
    both levels.
    """
    inner_holo, inner_anti = (_covariant(st, 1, d) for d in st.dwk[1])
    first = _covariant(st, 0, _fd.xy_combine(inner_anti, False, st.step))    # [j, kbar]
    second = _covariant(st, 0, _fd.xy_combine(inner_holo, True, st.step))    # [kbar, j]
    return (first - second.swapaxes(0, 1)) @ st.winv[0]


def curvature_algebraic(frame: HiggsFrame) -> np.ndarray:
    """-[theta_j, theta_k^*] with the metric adjoint, as entry [j, kbar]."""
    tj = frame.theta[:, None]
    tks = metric_adjoint(frame.gram, frame.gram_inverse, frame.theta)[None, :]
    return -(tj @ tks - tks @ tj)


def adjoint_check(frame: HiggsFrame) -> float:
    """max_j | theta_j^* - conj(theta_j) | mixing metric adjoint and real structure."""
    c = wedge.conjugation_matrix(frame.phi.shape[-1], frame.k)
    return float(np.max(np.abs(metric_adjoint(frame.gram, frame.gram_inverse, frame.theta)
                               - c @ frame.theta.conj() @ c)))


def theta_square_residual(frame: HiggsFrame) -> float:
    """Commutators of the mixing field components; zero is the nilpotency identity."""
    worst = 0.0
    for a, ta in enumerate(frame.theta):
        for tb in frame.theta[a:]:
            worst = max(worst, float(np.max(np.abs(ta @ tb - tb @ ta))))
    return worst


def type_block_residual(frame: HiggsFrame) -> float:
    """theta must send the (p,q) block into (p-1,q+1); projector algebra must close."""
    dim = frame.dim
    total = np.zeros((dim, dim), dtype=complex)
    worst = 0.0
    for pq, p in frame.proj.items():
        total += p
        worst = max(worst, float(np.max(np.abs(p @ p - p))))
        for pq2, p2 in frame.proj.items():
            if pq2 != pq:
                worst = max(worst, float(np.max(np.abs(p @ p2))))
    worst = max(worst, float(np.max(np.abs(total - np.eye(dim)))))
    for t in frame.theta:
        for (p, q), proj in frame.proj.items():
            image = t @ proj
            target = frame.proj.get((p - 1, q + 1))
            expected = target @ image if target is not None else np.zeros_like(image)
            worst = max(worst, float(np.max(np.abs(expected - image))))
    return worst


@dataclass(frozen=True)
class FlatnessReport:
    mixed_residual: float
    holo_residual: float
    dbar_square_residual: float

    @property
    def residual(self) -> float:
        return max(self.mixed_residual, self.holo_residual, self.dbar_square_residual)


def flatness_check(st: HiggsStencil) -> FlatnessReport:
    """Plaquette curvature residuals of the reassembled flat connection.

    The full connection form (type-preserving part measured by differences
    plus the closed-form mixing fields) is differentiated around coordinate
    plaquettes; all components must vanish.  The antiholomorphic part alone
    must also square to zero (integrability of the induced holomorphic
    structure).
    """
    nsym = st.field.nsym

    def forms(level):
        """a_holo, a_anti and a_d_anti along every coordinate, at a stencil level."""
        d_holo, d_anti = (_connection_form(st, level, d) for d in st.dwk[level])
        return d_holo + st.theta[level], d_anti + st.theta_bar[level], d_anti

    def commutators(a, b):
        """[a_j, b_kk] as entry [j, kk]."""
        return a[:, None] @ b[None, :] - b[None, :] @ a[:, None]

    a_holo, a_anti, a_d_anti = forms(0)
    # Differences of the forms at the stencil points: [j, kk] is the
    # derivative along j of the form along kk.
    s_holo, s_anti, s_d_anti = forms(1)
    da = _fd.xy_combine(s_anti, False, st.step)
    db = _fd.xy_combine(s_holo, True, st.step).swapaxes(0, 1)
    mixed = float(np.max(np.abs(da - db + commutators(a_holo, a_anti))))
    if nsym == 1:
        # Single coordinate: the (2,0)/(0,2) planes are empty; report the
        # mixed plaquette and the trivially zero square.
        return FlatnessReport(mixed_residual=mixed, holo_residual=0.0, dbar_square_residual=0.0)
    upper = np.triu_indices(nsym, 1)    # the planes kk > j
    squares = []
    for values, bar, a in ((s_holo, False, a_holo), (s_d_anti, True, a_d_anti)):
        d = _fd.xy_combine(values, bar, st.step)
        squares.append(float(np.max(np.abs(
            (d - d.swapaxes(0, 1) + commutators(a, a))[upper]))))
    return FlatnessReport(mixed_residual=mixed, holo_residual=squares[0],
                          dbar_square_residual=squares[1])


def chern_compatibility_check(st: HiggsStencil) -> float:
    """Residual of d<u,v> = <Du,v> + <u,Dv> on the holomorphic frame sections."""
    wk, wk0, gram0 = st.wk[1], st.wk[0], st.gram[0]
    pairings = wk.conj().swapaxes(-1, -2) @ st.gram[1] @ wk   # [b,a] = <U_a, U_b>
    dpair = _fd.xy_combine(pairings, False, st.step)
    du, dv = (_covariant(st, 0, d) for d in st.dwk[0])
    expected = dv.conj().swapaxes(-1, -2) @ gram0 @ wk0 + wk0.conj().T @ gram0 @ du
    return float(np.max(np.abs(dpair - expected)))


def theta_holomorphy_check(st: HiggsStencil) -> float:
    """Residual of the antiholomorphic covariant derivative of the mixing field."""
    # a_bar[kk, 0] is the antiholomorphic connection form along kk.
    a_bar = _connection_form(st, 0, st.dwk[0][1])[:, None]
    dtheta = _fd.xy_combine(st.theta[1], True, st.step)    # [kk, j]: d_kkbar theta_j
    theta = st.theta[0]
    return float(np.max(np.abs(dtheta + a_bar @ theta - theta @ a_bar)))
