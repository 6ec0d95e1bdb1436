"""Finite-rank flat bundles of exterior covector powers over the bounded domain.

Over the global chart the degree-k trivial bundle splits into type blocks for
the varying structure; the plain coordinate derivative decomposes as the
type-preserving part plus a degree-(-1,1) field and its conjugate.  All
operators are matrices on the fixed wedge basis built from the reference
unitary frame and its conjugates; the moving structure enters through the
graph frame F(t) = [[I, conj(phi)], [phi, I]].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _fd, wedge
from .kns import BsdPoint, sym_basis, sym_dim, sym_from_coords, coords_from_sym, BoundaryProximityError, spectral_radius_phibar, BOUNDARY_MARGIN
from .symplin import ComplexStructure, SymplecticSpace, UnitaryFrame, dual_metric_gram
from .kns import structure_from_bsd

ALGEBRAIC_TOL = 1e-10
FD_TOL = 1e-5


@dataclass(frozen=True)
class HiggsFrame:
    """Pointwise data of the degree-k bundle at one domain point.

    All matrices act on wedge coordinates over the fixed reference basis
    (xi^1..xi^n, conj(xi^1)..conj(xi^n)).
    """

    k: int
    basepoint: BsdPoint
    proj: dict[tuple[int, int], np.ndarray]
    theta: list[np.ndarray]
    gram: np.ndarray
    frame_change: np.ndarray = field(repr=False)   # wedge power of F(t)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def adjoint(self, m: np.ndarray) -> np.ndarray:
        """Metric adjoint with respect to the Gram matrix."""
        return np.linalg.solve(self.gram, m.conj().T @ self.gram)


class HiggsField:
    """Field of HiggsFrame data over the global chart coordinates."""

    def __init__(self, space: SymplecticSpace, J: ComplexStructure, frame: UnitaryFrame, k: int):
        n = frame.n
        if k < 0 or k > 2 * n:
            raise ValueError(f"form degree {k} out of range [0, {2 * n}]")
        self.space = space
        self.J = J
        self.frame = frame
        self.k = k
        self.n = n
        self.nsym = sym_dim(n)
        self._sym = sym_basis(n)
        self._masks = wedge.type_masks(n, k)
        self._eps_rows = np.vstack([frame.columns, frame.columns.conj()])
        # dF_mu = [[0, 0], [S_mu, 0]] in the reference wedge-1 basis.
        self._dF = []
        for s in self._sym:
            d = np.zeros((2 * n, 2 * n), dtype=complex)
            d[n:, :n] = s
            self._dF.append(d)
        self._memo: dict[tuple, object] = {}

    def _cached(self, kind: str, coords: np.ndarray, builder):
        key = (kind, np.asarray(coords, dtype=complex).tobytes())
        hit = self._memo.get(key)
        if hit is None:
            if len(self._memo) > 40000:
                self._memo.clear()
            hit = builder()
            self._memo[key] = hit
        return hit

    # -- degree-1 fields ----------------------------------------------------

    def phi(self, coords: np.ndarray) -> np.ndarray:
        return sym_from_coords(coords, self.n)

    def guard(self, coords: np.ndarray) -> None:
        if spectral_radius_phibar(self.phi(coords)) >= 1.0 - BOUNDARY_MARGIN:
            raise BoundaryProximityError("stencil exits the bounded domain")

    def graph_frame(self, coords: np.ndarray) -> np.ndarray:
        phi = self.phi(coords)
        eye = np.eye(self.n)
        return np.block([[eye, phi.conj()], [phi, eye]])

    def theta1(self, coords: np.ndarray) -> list[np.ndarray]:
        """theta_mu = Q (d_mu F) F^{-1}: images of the holomorphic frame columns,
        with Q = I - F sel F^{-1} and sel the projection onto the first n slots."""

        def build():
            f = self.graph_frame(coords)
            finv = np.linalg.inv(f)
            sel = np.zeros((2 * self.n, 2 * self.n))
            sel[: self.n, : self.n] = np.eye(self.n)
            q = np.eye(2 * self.n) - f @ sel @ finv
            return [q @ d @ finv for d in self._dF]

        return self._cached("theta1", coords, build)

    def structure(self, coords: np.ndarray) -> ComplexStructure:
        return structure_from_bsd(self.J, self.frame, BsdPoint(phi=self.phi(coords)))

    def gram1(self, coords: np.ndarray) -> np.ndarray:
        return self._cached(
            "gram1", coords,
            lambda: dual_metric_gram(self.space, self.structure(coords), self._eps_rows))

    # -- degree-k assembly ---------------------------------------------------

    def frame_change(self, coords: np.ndarray) -> np.ndarray:
        return self._cached(
            "wk", coords,
            lambda: wedge.compound_matrix(self.graph_frame(coords), self.k))

    def projectors(self, coords: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
        def build():
            wk = self.frame_change(coords)
            wk_inv = np.linalg.inv(wk)
            out = {}
            for pq, mask in self._masks.items():
                out[pq] = wk @ np.diag(mask.astype(complex)) @ wk_inv
            return out

        return self._cached("proj", coords, build)

    def theta(self, coords: np.ndarray) -> list[np.ndarray]:
        return self._cached(
            "theta", coords,
            lambda: [wedge.derivation_matrix(t, self.k) for t in self.theta1(coords)])

    def gram(self, coords: np.ndarray) -> np.ndarray:
        return self._cached(
            "gram", coords,
            lambda: wedge.compound_matrix(self.gram1(coords), self.k))

    def theta_bar(self, coords: np.ndarray) -> list[np.ndarray]:
        def build():
            c = wedge.conjugation_matrix(self.n, self.k)
            return [c @ t.conj() @ c for t in self.theta(coords)]

        return self._cached("theta_bar", coords, build)

    def frame_at(self, coords: np.ndarray) -> HiggsFrame:
        self.guard(coords)
        return HiggsFrame(
            k=self.k,
            basepoint=BsdPoint(phi=self.phi(coords)),
            proj=self.projectors(coords),
            theta=self.theta(coords),
            gram=self.gram(coords),
            frame_change=self.frame_change(coords),
        )

    # -- connection measurements by finite differences -----------------------

    def covariant_on_sections(self, coords: np.ndarray, j: int, bar: bool,
                              section_field, step: float) -> np.ndarray:
        """Type-projected derivative sum_pq pi(t0) d_j(pi(t) s(t)) at coords."""
        projs0 = self.projectors(coords)
        deriv = _fd.antiholo_derivative if bar else _fd.holo_derivative
        total = np.zeros_like(np.asarray(section_field(coords)))
        for pq, p0 in projs0.items():
            def wrapped(c, _pq=pq):
                return self.projectors(c)[_pq] @ section_field(c)
            total = total + p0 @ deriv(wrapped, coords, j, step=step)
        return total

    def d_connection_form(self, coords: np.ndarray, j: int, bar: bool, step: float) -> np.ndarray:
        """Connection form of the type-preserving part in the constant frame."""
        out = np.zeros((self.dim_k(), self.dim_k()), dtype=complex)
        deriv = _fd.antiholo_derivative if bar else _fd.holo_derivative
        projs0 = self.projectors(coords)
        for pq, p0 in projs0.items():
            dpi = deriv(lambda c, _pq=pq: self.projectors(c)[_pq], coords, j, step=step)
            out += p0 @ dpi
        return out

    def dim_k(self) -> int:
        return len(wedge.basis(2 * self.n, self.k))


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


def connection_split_check(field_: HiggsField, coords: np.ndarray,
                           step: float = 1e-3) -> SplitReport:
    """Residual of (plain derivative) = (type-projected derivative) + mixing field.

    Sample sections are the wedge powers of the holomorphic graph frame; the
    plain and projected derivatives are measured by central differences while
    the mixing field matrices come from the closed form.
    """
    field_.guard(coords)
    theta = field_.theta(coords)
    theta_bar = field_.theta_bar(coords)

    def sections(c):
        return field_.frame_change(c)

    holo = 0.0
    anti = 0.0
    for j in range(field_.nsym):
        nabla = _fd.holo_derivative(sections, coords, j, step=step)
        dconn = field_.covariant_on_sections(coords, j, False, sections, step)
        holo = max(holo, float(np.max(np.abs(nabla - dconn - theta[j] @ sections(coords)))))
        nabla_b = _fd.antiholo_derivative(sections, coords, j, step=step)
        dconn_b = field_.covariant_on_sections(coords, j, True, sections, step)
        anti = max(anti, float(np.max(np.abs(nabla_b - dconn_b - theta_bar[j] @ sections(coords)))))
    return SplitReport(holo_residual=holo, antiholo_residual=anti)


def curvature_operator(field_: HiggsField, coords: np.ndarray, j: int, kbar: int,
                       step: float = 1e-3) -> np.ndarray:
    """Mixed curvature operator of the type-preserving connection by nested differences.

    Measures the commutator of the projected holomorphic and antiholomorphic
    derivatives on the graph frame sections; first-derivative terms cancel in
    the commutator, leaving the curvature operator applied to the frame.
    """
    field_.guard(coords)

    def sections(c):
        return field_.frame_change(c)

    def d_holo(c):
        return field_.covariant_on_sections(c, j, False, sections, step)

    def d_anti(c):
        return field_.covariant_on_sections(c, kbar, True, sections, step)

    first = field_.covariant_on_sections(coords, j, False, d_anti, step)
    second = field_.covariant_on_sections(coords, kbar, True, d_holo, step)
    return (first - second) @ np.linalg.inv(field_.frame_change(coords))


def curvature_algebraic(frame: HiggsFrame, j: int, kbar: int) -> np.ndarray:
    """-[theta_j, theta_k^*] with the metric adjoint."""
    tj = frame.theta[j]
    tks = frame.adjoint(frame.theta[kbar])
    return -(tj @ tks - tks @ tj)


def adjoint_check(frame: HiggsFrame) -> float:
    """max_j | theta_j^* - conj(theta_j) | mixing metric adjoint and real structure."""
    n2 = int(round((1 + 8 * len(frame.theta)) ** 0.5 - 1)) // 2  # nsym -> n
    c = wedge.conjugation_matrix(n2, frame.k)
    worst = 0.0
    for t in frame.theta:
        tbar = c @ t.conj() @ c
        worst = max(worst, float(np.max(np.abs(frame.adjoint(t) - tbar))))
    return worst


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


def flatness_check(space: SymplecticSpace, J: ComplexStructure, frame: UnitaryFrame,
                   basepoint: BsdPoint, k: int, step: float = 1e-3) -> FlatnessReport:
    """Plaquette curvature residuals of the reassembled flat connection.

    The full connection form (type-preserving part measured by differences
    plus the closed-form mixing fields) is differentiated around coordinate
    plaquettes; all components must vanish.  The antiholomorphic part alone
    must also square to zero (integrability of the induced holomorphic
    structure).
    """
    field_ = HiggsField(space, J, frame, k)
    coords = coords_from_sym(basepoint.phi)
    field_.guard(coords)
    nsym = field_.nsym

    def a_holo(c, j):
        return field_.d_connection_form(c, j, False, step) + field_.theta(c)[j]

    def a_anti(c, j):
        return field_.d_connection_form(c, j, True, step) + field_.theta_bar(c)[j]

    def a_d_anti(c, j):
        return field_.d_connection_form(c, j, True, step)

    mixed = 0.0
    holo = 0.0
    dbar2 = 0.0
    for j in range(nsym):
        for kk in range(nsym):
            da = _fd.holo_derivative(lambda c: a_anti(c, kk), coords, j, step=step)
            db = _fd.antiholo_derivative(lambda c: a_holo(c, j), coords, kk, step=step)
            comm = a_holo(coords, j) @ a_anti(coords, kk) - a_anti(coords, kk) @ a_holo(coords, j)
            mixed = max(mixed, float(np.max(np.abs(da - db + comm))))
            if kk > j:
                da2 = _fd.holo_derivative(lambda c: a_holo(c, kk), coords, j, step=step)
                db2 = _fd.holo_derivative(lambda c: a_holo(c, j), coords, kk, step=step)
                comm2 = a_holo(coords, j) @ a_holo(coords, kk) - a_holo(coords, kk) @ a_holo(coords, j)
                holo = max(holo, float(np.max(np.abs(da2 - db2 + comm2))))
                da3 = _fd.antiholo_derivative(lambda c: a_d_anti(c, kk), coords, j, step=step)
                db3 = _fd.antiholo_derivative(lambda c: a_d_anti(c, j), coords, kk, step=step)
                comm3 = a_d_anti(coords, j) @ a_d_anti(coords, kk) - a_d_anti(coords, kk) @ a_d_anti(coords, j)
                dbar2 = max(dbar2, float(np.max(np.abs(da3 - db3 + comm3))))
    if nsym == 1:
        # Single coordinate: the (2,0)/(0,2) planes are empty; report the
        # mixed plaquette and the trivially zero square.
        holo = 0.0
        dbar2 = 0.0
    return FlatnessReport(mixed_residual=mixed, holo_residual=holo, dbar_square_residual=dbar2)


def chern_compatibility_check(field_: HiggsField, coords: np.ndarray,
                              step: float = 1e-3) -> float:
    """Residual of d<u,v> = <Du,v> + <u,Dv> on the holomorphic frame sections."""
    field_.guard(coords)
    dim = field_.dim_k()

    def pairings(c):
        wk = field_.frame_change(c)
        return wk.conj().T @ field_.gram(c) @ wk   # [b,a] = <U_a, U_b>

    worst = 0.0
    gram0 = field_.gram(coords)
    wk0 = field_.frame_change(coords)
    for j in range(field_.nsym):
        dpair = _fd.holo_derivative(pairings, coords, j, step=step)
        du = field_.covariant_on_sections(coords, j, False, lambda c: field_.frame_change(c), step)
        dv = field_.covariant_on_sections(coords, j, True, lambda c: field_.frame_change(c), step)
        expected = dv.conj().T @ gram0 @ wk0 + wk0.conj().T @ gram0 @ du
        worst = max(worst, float(np.max(np.abs(dpair - expected))))
    return worst


def theta_holomorphy_check(field_: HiggsField, coords: np.ndarray,
                           step: float = 1e-3) -> float:
    """Residual of the antiholomorphic covariant derivative of the mixing field."""
    field_.guard(coords)
    worst = 0.0
    for kk in range(field_.nsym):
        a_bar = field_.d_connection_form(coords, kk, True, step)
        for j in range(field_.nsym):
            dtheta = _fd.antiholo_derivative(lambda c: field_.theta(c)[j], coords, kk, step=step)
            theta_j = field_.theta(coords)[j]
            worst = max(worst, float(np.max(np.abs(dtheta + a_bar @ theta_j - theta_j @ a_bar))))
    return worst
