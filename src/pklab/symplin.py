"""Symplectic/complex linear algebra substrate.

A symplectic vector space (V, omega) is stored through the matrix of omega in
the standard basis; a linear complex structure is a real matrix J on V with
J^2 = -I.  The pair is compatible when g(u, v) = omega(u, J v) is a positive
inner product.  Covectors are stored as complex coordinate rows; the induced
action of J on covectors is u -> u J (equivalently J^T on coordinate columns),
so the type projectors on the complexified dual are (I -+ i J^T) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

J_SQUARE_TOL = 1e-12
FRAME_TOL = 1e-12
SYMMETRY_RTOL = 1e-10
COND_LIMIT = 1e12


class DimensionMismatchError(ValueError):
    pass


class DegenerateFormError(ValueError):
    pass


@dataclass(frozen=True)
class SymplecticSpace:
    """A 2n-dimensional real vector space with a nondegenerate 2-form."""

    n: int
    form: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.form, dtype=float)
        if self.n < 1:
            raise ValueError("fiber rank must be >= 1")
        if w.shape != (2 * self.n, 2 * self.n):
            raise DimensionMismatchError(f"form must be {2*self.n}x{2*self.n}")
        if np.max(np.abs(w + w.T)) > 0.0:
            raise ValueError("form must be exactly antisymmetric")
        if np.linalg.cond(w) > COND_LIMIT:
            raise DegenerateFormError("form is numerically degenerate")
        object.__setattr__(self, "form", w)

    @property
    def dim(self) -> int:
        return 2 * self.n


@dataclass(frozen=True)
class ComplexStructure:
    """A real linear map J with J^2 = -I."""

    J: np.ndarray

    def __post_init__(self):
        j = np.asarray(self.J, dtype=float)
        d = j.shape[0]
        if j.shape != (d, d) or d % 2 != 0:
            raise DimensionMismatchError("J must be square of even dimension")
        _require_square_minus_identity(j)
        object.__setattr__(self, "J", j)

    @property
    def dim(self) -> int:
        return self.J.shape[0]

    def covector_action(self) -> np.ndarray:
        """Matrix of the induced complex structure on covector coordinates."""
        return self.J.T.copy()


def _require_square_minus_identity(j: np.ndarray) -> None:
    """Raise unless J^2 = -I for each real matrix J of a stack (..., d, d).

    Scale-aware: eps * |J|^2 is the rounding floor of J @ J near the domain
    boundary, where the entries of J grow like 1/(1 - rho)."""
    scale = np.maximum(1.0, np.max(np.abs(j), axis=(-2, -1)) ** 2)
    if np.any(np.max(np.abs(j @ j + np.eye(j.shape[-1])), axis=(-2, -1))
              > J_SQUARE_TOL * scale):
        raise ValueError("J^2 = -I violated beyond 1e-12 (relative)")


@dataclass(frozen=True)
class CompatibilityReport:
    compatible: bool
    metric: np.ndarray
    min_eigenvalue: float
    symmetry_defect: float


@dataclass(frozen=True)
class UnitaryFrame:
    """Covectors xi^1..xi^n of type (1,0) with omega = i sum xi^j wedge conj(xi^j).

    ``columns`` has shape (n, 2n): row j holds the coordinates of xi^j.
    """

    columns: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.columns, dtype=complex)
        object.__setattr__(self, "columns", xi)

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    def dual_basis_matrix(self) -> np.ndarray:
        """2n x 2n complex matrix with columns (xi^1..xi^n, conj(xi^1)..conj(xi^n)).

        Covector coordinate columns; this is the change of basis from the
        frame-adapted basis of the complexified dual to the standard one.
        """
        xi = self.columns
        return np.hstack([xi.T, xi.conj().T])


def standard_symplectic(n: int) -> SymplecticSpace:
    """Block form omega(e_j, e_{n+j}) = 1, all other independent pairings zero."""
    if n < 1:
        raise ValueError("n must be >= 1")
    w = np.zeros((2 * n, 2 * n))
    w[:n, n:] = np.eye(n)
    w[n:, :n] = -np.eye(n)
    return SymplecticSpace(n=n, form=w)


def standard_complex_structure(n: int) -> ComplexStructure:
    """J0 e_j = e_{n+j}, J0 e_{n+j} = -e_j; compatible with standard_symplectic(n)."""
    j = np.zeros((2 * n, 2 * n))
    j[n:, :n] = np.eye(n)
    j[:n, n:] = -np.eye(n)
    return ComplexStructure(J=j)


def compatibility_report(space: SymplecticSpace, J: ComplexStructure) -> CompatibilityReport:
    """Metric g(u, v) = omega(u, J v); compatible iff g symmetric and positive."""
    if J.dim != space.dim:
        raise DimensionMismatchError("dimension mismatch between space and J")
    g = space.form @ J.J
    scale = max(np.max(np.abs(g)), 1.0)
    defect = float(np.max(np.abs(g - g.T)))
    sym = 0.5 * (g + g.T)
    min_eig = float(np.linalg.eigvalsh(sym).min())
    compatible = defect <= SYMMETRY_RTOL * scale and min_eig > 1e-10 * scale
    return CompatibilityReport(compatible=compatible, metric=g, min_eigenvalue=min_eig,
                               symmetry_defect=defect)


def metric_matrix(space: SymplecticSpace, J: ComplexStructure) -> np.ndarray:
    """Positive-definite matrix of omega(., J .); raises if the pair is incompatible."""
    report = compatibility_report(space, J)
    if not report.compatible:
        raise ValueError("complex structure is not compatible with the form")
    return 0.5 * (report.metric + report.metric.T)


def type_projectors(J: ComplexStructure) -> tuple[np.ndarray, np.ndarray]:
    """Projectors ((I - i J^T)/2, (I + i J^T)/2) on covector coordinate columns."""
    k = J.covector_action()
    eye = np.eye(J.dim)
    p10 = 0.5 * (eye - 1j * k)
    p01 = 0.5 * (eye + 1j * k)
    return p10, p01


def dual_metric_gram(space: SymplecticSpace, J: ComplexStructure,
                     covectors: np.ndarray) -> np.ndarray:
    """Gram matrix H of the dual Hermitian pairing on the given covector rows.

    The pairing of covector rows is <u, v> = u G^{-1} conj(v)^T with
    G = omega(., J .); H is returned in the convention <x, y> = y^H H x for
    coordinate vectors in the given covector basis, i.e. H[b, a] = <row_a, row_b>.
    """
    g = metric_matrix(space, J)
    rows = np.asarray(covectors, dtype=complex)
    sol = np.linalg.solve(g, rows.conj().T)   # G^{-1} conj(rows)^T
    pair = rows @ sol                         # pair[a, b] = <row_a, row_b>
    return pair.T.copy()


def unitary_frame(space: SymplecticSpace, J: ComplexStructure) -> UnitaryFrame:
    """Orthonormal (1,0)-covector frame reproducing omega = i sum xi wedge conj(xi)."""
    p10, _ = type_projectors(J)
    # Independent (1,0) covectors: dominant left factors of the projector.
    u, s, _ = np.linalg.svd(p10)
    rows = u[:, : space.n].T.copy()
    if s[space.n - 1] < 0.5:
        raise ValueError("type projector is rank-deficient")
    # Gram-Schmidt under the dual Hermitian metric.
    gram = dual_metric_gram(space, J, rows)
    # gram is Hermitian PD; Cholesky of H = L L^H orthonormalizes the rows.
    chol = np.linalg.cholesky(gram)
    rows = np.linalg.solve(chol, rows.conj()).conj()
    frame = UnitaryFrame(columns=rows)
    check_frame(space, J, frame)
    return frame


def frame_form_residual(space: SymplecticSpace, frame: UnitaryFrame) -> float:
    """Max abs deviation of i sum xi^j wedge conj(xi^j) from the form matrix."""
    xi = frame.columns
    recon = 1j * (xi.T @ xi.conj() - xi.conj().T @ xi)
    return float(np.max(np.abs(recon - space.form)))


def check_frame(space: SymplecticSpace, J: ComplexStructure, frame: UnitaryFrame,
                tol: float = FRAME_TOL) -> None:
    """Validate the UnitaryFrame invariants (type purity and form reproduction)."""
    k = J.covector_action()
    type_defect = float(np.max(np.abs(frame.columns @ k.T - 1j * frame.columns)))
    if type_defect > tol:
        raise ValueError(f"frame covectors are not (1,0) for J (defect {type_defect:.2e})")
    residual = frame_form_residual(space, frame)
    if residual > tol:
        raise ValueError(f"frame does not reproduce the form (residual {residual:.2e})")


def random_symplectic_matrices(space: SymplecticSpace, rng: np.random.Generator, count: int,
                               scale: float = 0.4) -> np.ndarray:
    """count random elements of the linear symplectic group of (V, omega),
    shape (count, d, d), from one (count, d, d) normal draw: the stream of
    count single draws.

    Exponentials of random Hamiltonian matrices X = W^{-1} S (S symmetric),
    which satisfy X^T W + W X = 0 for any invertible antisymmetric W.
    """
    d = space.dim
    s = rng.standard_normal((count, d, d))
    s = scale * (s + s.swapaxes(-1, -2)) / 2.0
    x = np.linalg.solve(space.form, s)
    return expm(x)


# Degree-13 Pade coefficients and the 1-norm up to which that approximant is
# accurate to double precision without scaling (Higham 2005, Table 2.3).
PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
          1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
          33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
PADE13_THETA = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the degree-13 Pade step.

    Each matrix of a stack a (..., d, d) is scaled by 2^-s until its 1-norm
    is at most PADE13_THETA, the approximant r = (v - u)^{-1} (v + u) is
    formed from the even powers a^2, a^4, a^6, and r is squared s times, as
    it would be alone.
    """
    a = np.asarray(a, dtype=float)
    norms = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    squarings = np.reshape([math.ceil(math.log2(norm / PADE13_THETA))
                            if norm > PADE13_THETA else 0 for norm in norms.reshape(-1)],
                           norms.shape)
    a = a / (2.0 ** squarings)[..., None, None]
    b = PADE13
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for step in range(int(np.max(squarings, initial=0))):
        more = squarings > step
        r[more] = r[more] @ r[more]
    return r


def random_compatible_structures(space: SymplecticSpace, rng: np.random.Generator, count: int,
                                 scale: float = 0.4) -> np.ndarray:
    """count structures P J0 P^{-1} for random symplectic P (compatible by
    construction), shape (count, d, d), each checked as `ComplexStructure`
    checks one."""
    j0 = standard_complex_structure(space.n)
    if not compatibility_report(space, j0).compatible:
        raise ValueError("random structures require the standard form layout")
    p = random_symplectic_matrices(space, rng, count, scale=scale)
    j = p @ j0.J @ np.linalg.inv(p)
    # Re-polarize so J^2 = -I holds to machine precision after the conjugation.
    j = polarize_structure(j)
    _require_square_minus_identity(j)
    return j


def random_compatible_structure(space: SymplecticSpace, rng: np.random.Generator,
                                scale: float = 0.4) -> ComplexStructure:
    """P J0 P^{-1} for random symplectic P: compatible by construction."""
    return ComplexStructure(J=random_compatible_structures(space, rng, 1, scale)[0])


def polarize_structure(j: np.ndarray) -> np.ndarray:
    """Project near-complex-structure matrices (..., d, d) back onto J^2 = -I.

    Newton iteration j <- (j - j^{-1}) / 2 converges quadratically to the
    nearest matrix square root of -I along the isospectral family.  Each
    matrix of a stack iterates, and keeps its best iterate, as it would alone.
    """
    j = np.asarray(j, dtype=float)
    best = j.copy()
    best_defect = np.full(j.shape[:-2], np.inf)
    active = np.ones(j.shape[:-2], dtype=bool)
    eye = np.eye(j.shape[-1])
    for _ in range(40):
        scale = np.maximum(1.0, np.max(np.abs(j), axis=(-2, -1)) ** 2)
        defect = np.max(np.abs(j @ j + eye), axis=(-2, -1)) / scale
        better = active & (defect < best_defect)
        best[better] = j[better]
        best_defect[better] = defect[better]
        active &= defect >= 1e-15
        if not active.any():
            break
        j = np.where(active[..., None, None], 0.5 * (j - np.linalg.inv(j)), j)
    return best
