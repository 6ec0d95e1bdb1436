"""Charts on the space of compatible complex structures.

A compatible structure J' is measured against a reference J by the tensor
whose matrix in a unitary frame is the chart coordinate: a complex symmetric
n x n matrix Phi with spectral radius of Phi conj(Phi) below one (the type-III
bounded symmetric domain).  Two independent constructions are provided: the
Cayley-type closed form (1 + J J')(1 - J J')^{-1} and a direct projection
solve; their agreement is a core test surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _fd
from .symplin import (
    ComplexStructure,
    SymplecticSpace,
    UnitaryFrame,
    polarize_structure,
    unitary_frame,
)

SYM_TOL = 1e-10
BOUNDARY_MARGIN = 1e-12
# A real-linear map is admissible while its complex-linear part has at most
# this condition number.
ADMISSIBLE_COND = 1e12


class DomainError(ValueError):
    """Input does not define a point of the bounded domain."""


class BoundaryProximityError(ValueError):
    """Requested stencil exits the bounded domain."""


class AdmissibilityError(ValueError):
    """Real-linear map with singular complex-linear part."""


def spectral_radius_phibar(phi: np.ndarray) -> float:
    """Largest spectral radius of phi conj(phi) over a stack (..., n, n)."""
    return float(np.max(np.abs(np.linalg.eigvals(phi @ phi.conj()))))


def _require_domain(phi: np.ndarray) -> None:
    """Raise DomainError unless every matrix of the stack phi (..., n, n) is
    symmetric within SYM_TOL and has spectral radius of phi conj(phi) below
    1 - BOUNDARY_MARGIN."""
    if np.max(np.abs(phi - phi.swapaxes(-1, -2))) > SYM_TOL:
        raise DomainError("phi must be symmetric within 1e-10")
    if spectral_radius_phibar(phi) >= 1.0 - BOUNDARY_MARGIN:
        raise DomainError("spectral radius of phi conj(phi) must stay below 1")


@dataclass(frozen=True)
class BsdPoint:
    """Complex symmetric matrix coordinate on the bounded domain."""

    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=complex)
        if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
            raise DomainError("phi must be a square matrix")
        _require_domain(phi)
        object.__setattr__(self, "phi", phi)

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def radius(self) -> float:
        return spectral_radius_phibar(self.phi) ** 0.5


# ---------------------------------------------------------------------------
# Coordinates on the space of symmetric matrices
# ---------------------------------------------------------------------------

def sym_basis(n: int) -> list[np.ndarray]:
    """Real basis E_aa (a = b) and E_ab + E_ba (a < b), lexicographic."""
    out = []
    for a in range(n):
        for b in range(a, n):
            m = np.zeros((n, n))
            if a == b:
                m[a, a] = 1.0
            else:
                m[a, b] = 1.0
                m[b, a] = 1.0
            out.append(m)
    return out


def sym_dim(n: int) -> int:
    return n * (n + 1) // 2


@lru_cache(maxsize=None)
def sym_entry(n: int) -> np.ndarray:
    """entry[a, b]: the index of the chart coordinate of phi[a, b] = phi[b, a]
    (the `coords_from_sym` layout).  The cached table is shared and read-only."""
    rows, cols = np.triu_indices(n)
    entry = np.empty((n, n), dtype=int)
    entry[rows, cols] = entry[cols, rows] = np.arange(len(rows))
    entry.setflags(write=False)
    return entry


def sym_from_coords(coords: np.ndarray, n: int) -> np.ndarray:
    """Symmetric matrix of chart coordinates; coords may carry leading axes."""
    return np.asarray(coords, dtype=complex)[..., sym_entry(n)]


def coords_from_sym(phi: np.ndarray) -> np.ndarray:
    """Chart coordinates (upper triangle, row by row); phi may carry leading axes."""
    phi = np.asarray(phi, dtype=complex)
    rows, cols = np.triu_indices(phi.shape[-1])
    return phi[..., rows, cols]


def random_bsd_point(n: int, rng: np.random.Generator, radius: float = 0.7) -> BsdPoint:
    """Seeded symmetric matrix rescaled to the requested spectral radius."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    phi = 0.5 * (g + g.T)
    rho = spectral_radius_phibar(phi) ** 0.5
    target = radius * rng.uniform(0.1, 1.0)
    if rho > 0:
        phi = phi * (target / rho)
    return BsdPoint(phi=phi)


# ---------------------------------------------------------------------------
# Chart maps
#
# Every map takes stacks: structure matrices (..., 2n, 2n), chart matrices
# (..., n, n), fiber vectors (..., n), and returns its values stacked along
# the same leading axes.
# ---------------------------------------------------------------------------

def graph_frame(phi: np.ndarray) -> np.ndarray:
    """F = [[I, conj(phi)], [phi, I]] for chart matrices phi (..., n, n).

    Against the reference basis (xi, conj(xi)), column k < n of F holds the
    (1,0) covector xi^k + sum_j phi[j, k] conj(xi^j) of the structure phi
    labels, and column n + k its conjugate.
    """
    n = phi.shape[-1]
    f = np.empty(phi.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    f[..., :n, :n] = f[..., n:, n:] = np.eye(n)
    f[..., :n, n:] = phi.conj()
    f[..., n:, :n] = phi
    return f


def kns_tensor(J: ComplexStructure, jps: np.ndarray, frame: UnitaryFrame) -> np.ndarray:
    """Chart matrices of the Cayley-form tensor of structures J' against J.

    The operator (1 + J J')(1 - J J')^{-1} on covector coordinate columns,
    restricted to the (1,0) covectors of J, lands in the (0,1) covectors;
    its coefficients against the conjugate frame are the chart coordinates.
    Each matrix is checked for a spurious (1,0) part and for membership of
    the domain.
    """
    prod = J.covector_action() @ jps.swapaxes(-1, -2)
    eye = np.eye(J.dim)
    denom = eye - prod
    if np.max(np.linalg.cond(denom)) > 1e14:
        raise DomainError("1 - J J' is singular: structures are not a compatible pair")
    op = np.linalg.solve(denom.swapaxes(-1, -2), (eye + prod).swapaxes(-1, -2)).swapaxes(-1, -2)
    basis = frame.dual_basis_matrix()
    n = frame.n
    coeffs = np.linalg.solve(basis, op @ basis[:, :n])
    purity = np.max(np.abs(coeffs[..., :n, :]), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(coeffs), axis=(-2, -1)))
    if np.any(purity > 1e-9 * scale):
        worst = float(np.max(purity))
        raise DomainError(f"tensor image has a spurious (1,0) part ({worst:.2e})")
    phi = coeffs[..., n:, :]
    _require_domain(phi)
    return phi


def kns_tensor_by_projection(jps: np.ndarray, frame: UnitaryFrame) -> np.ndarray:
    """Independent construction of the chart matrices by a projection solve.

    Decomposes each frame covector xi^k along (1,0)-covectors of J' plus
    (0,1)-covectors of J; minus the second component, expanded in the
    conjugate frame, gives the matrix.  No Cayley algebra is used: the
    (1,0) space of J' comes from its type projector's column space.
    """
    n = frame.n
    p10 = 0.5 * (np.eye(2 * n) - 1j * jps.swapaxes(-1, -2))   # `type_projectors`
    u, s, _ = np.linalg.svd(p10)
    if np.min(s[..., n - 1]) < 0.5:
        raise DomainError("degenerate (1,0) space")
    basis_p = u[..., :n]                      # columns span (1,0) covectors of J'
    basis_bar = frame.dual_basis_matrix()[:, n:]   # (0,1) covectors of J
    stacked = np.concatenate(
        [basis_p, np.broadcast_to(basis_bar, basis_p.shape[:-2] + basis_bar.shape)], axis=-1)
    if np.max(np.linalg.cond(stacked)) > 1e14:
        raise DomainError("(1,0) of J' and (0,1) of J fail to be transverse")
    phi = np.empty(jps.shape[:-2] + (n, n), dtype=complex)
    for k in range(n):
        rhs = np.broadcast_to(frame.columns[k], basis_p.shape[:-1])
        phi[..., k] = -np.linalg.solve(stacked, rhs[..., None])[..., n:, 0]
    return phi


def structure_from_bsd(frame: UnitaryFrame, phi: np.ndarray) -> np.ndarray:
    """Structure matrices whose (1,0) covectors are the first n columns of
    the `graph_frame` of chart matrices phi in the reference basis.

    Each phi must lie in the domain; the matrices are polarized but not
    checked for J^2 = -I (`ComplexStructure` checks one).
    """
    phi = np.asarray(phi, dtype=complex)
    n = frame.n
    if phi.shape[-2:] != (n, n):
        raise DomainError("chart matrices do not match the frame size")
    _require_domain(phi)
    basis = frame.dual_basis_matrix() @ graph_frame(phi)
    eig = np.diag(np.concatenate([1j * np.ones(n), -1j * np.ones(n)]))
    k_new = basis @ eig @ np.linalg.inv(basis)
    imag_norm = float(np.max(np.abs(k_new.imag)))
    if imag_norm > 1e-9:
        raise DomainError(f"reconstructed structure is not real ({imag_norm:.2e})")
    return polarize_structure(k_new.real.swapaxes(-1, -2))


def berndtsson_tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """T1^{-1} T2 for admissible real-linear maps T(z) = T1 z + T2 conj(z),
    from stacks of their linear parts a and antilinear parts b (..., n, n)."""
    if np.max(np.linalg.cond(a)) > ADMISSIBLE_COND:
        raise AdmissibilityError("complex-linear part is singular within tolerance")
    return np.linalg.solve(a, b)


# ---------------------------------------------------------------------------
# Holomorphic motion
# ---------------------------------------------------------------------------

def holomorphic_motion(phi: np.ndarray, z: np.ndarray) -> np.ndarray:
    """zeta = z + phi conj(z), on stacks phi (..., n, n) and z (..., n)."""
    z = np.asarray(z, dtype=complex)
    return z + (np.asarray(phi) @ z.conj()[..., None])[..., 0]


def inverse_motion(phi: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """z = (1 - phi conj(phi))^{-1} (zeta - phi conj(zeta)), on stacks phi
    (..., n, n) and zeta (..., n); the domain is not checked."""
    phi = np.asarray(phi, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    rhs = zeta - (phi @ zeta.conj()[..., None])[..., 0]
    return np.linalg.solve(np.eye(phi.shape[-1]) - phi @ phi.conj(), rhs[..., None])[..., 0]


def _motion_jacobian(phi: np.ndarray, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wirtinger Jacobians (dz/dw, dz/dwbar), each (..., n, nsym + n), of the
    inverse motion z = B (zeta - phi conj(zeta)), B = (1 - phi conj(phi))^{-1},
    in the variables w = (chart coordinates t, zeta).  With phi = sum t_mu S_mu:

        dz/dt_mu = B S_mu (conj(phi) z - conj(zeta)),   dz/dtbar_mu = B phi S_mu z,
        dz/dzeta = B,                                   dz/dzetabar = -B phi.
    """
    n = phi.shape[-1]
    eye = np.eye(n)
    b = np.linalg.inv(eye - phi @ phi.conj())
    z = inverse_motion(phi, zeta)
    basis = np.stack(sym_basis(n))

    def columns(v, unit):
        """[S_mu v for every mu | unit]: shape (..., n, nsym + n)."""
        sv = np.einsum("mab,...b->...am", basis, v)
        return np.concatenate([sv, np.broadcast_to(unit, sv.shape[:-1] + (n,))], axis=-1)

    holo = b @ columns((phi.conj() @ z[..., None])[..., 0] - zeta.conj(), eye)
    anti = b @ phi @ columns(z, -eye)
    return holo, anti


def _standard_sym_matrix(dim: int) -> np.ndarray:
    """Real matrix of i sum dz^a wedge dzbar^a in (Re z, Im z) coordinates."""
    w = np.zeros((2 * dim, 2 * dim))
    w[:dim, dim:] = 2.0 * np.eye(dim)
    w[dim:, :dim] = -2.0 * np.eye(dim)
    return w


def motion_form_residual(phi: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Worst pairing of two holomorphic coordinate differentials under the
    motion form, at each point of stacks phi (..., n, n) and zeta (..., n).

    The pullback of the flat fiber form under the inverse motion, completed by
    a base Kahler term so the total form is symplectic, must pair any two
    (1,0) coordinate differentials to zero; that is the vanishing of the
    (2,0) part ((0,2) follows by conjugation since the form is real).  The
    pullback reads the closed-form Jacobian `_motion_jacobian`.
    """
    phi = np.asarray(phi, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    _require_domain(phi)
    n = phi.shape[-1]
    nsym = sym_dim(n)
    dim = nsym + n
    dz, dzbar = _motion_jacobian(phi, zeta)
    # Real Jacobian in (Re w, Im w): d/du = d/dw + d/dwbar, d/dv = i (d/dw - d/dwbar).
    du, dv = dz + dzbar, 1j * (dz - dzbar)
    jac = np.block([[du.real, dv.real], [du.imag, dv.imag]])

    omega = jac.swapaxes(-1, -2) @ _standard_sym_matrix(n) @ jac
    base_block = _standard_sym_matrix(nsym)
    # Base coordinates sit at real slots [0, nsym) and [dim, dim + nsym).
    sel = np.concatenate([np.arange(nsym), dim + np.arange(nsym)])
    omega[..., sel[:, None], sel] += base_block

    # Row s is the (1,0) coordinate differential of slot s: d x_s + i d y_s.
    holo = np.hstack([np.eye(dim), 1j * np.eye(dim)])
    pairings = holo @ np.linalg.inv(omega) @ holo.T
    rows, cols = np.triu_indices(dim)
    return np.max(np.abs(pairings[..., rows, cols]), axis=-1)


# ---------------------------------------------------------------------------
# Holomorphy probe
# ---------------------------------------------------------------------------

def chart_transition(frame: UnitaryFrame, target_J: ComplexStructure,
                     target_frame: UnitaryFrame):
    """Coordinate expression of the transition into the chart centered at
    target_J, on a stack of chart coordinates (..., nsym)."""
    n = frame.n

    def transition(coords: np.ndarray) -> np.ndarray:
        return kns_tensor(target_J, structure_from_bsd(frame, sym_from_coords(coords, n)),
                          target_frame)

    return transition


def holomorphy_probe(space: SymplecticSpace, frame: UnitaryFrame, base: BsdPoint,
                     direction: np.ndarray, step: float = 1e-3) -> float:
    """Cauchy-Riemann residual of the chart transition at ``base`` along ``direction``.

    The second chart is centered at the structure that ``base`` labels; a zero
    direction returns zero by convention.
    """
    direction = np.asarray(direction, dtype=complex)
    if np.max(np.abs(direction - direction.T)) > SYM_TOL:
        raise ValueError("direction must be a symmetric matrix")
    scale = float(np.max(np.abs(direction)))
    if scale == 0.0:
        return 0.0
    direction = direction / scale

    base_coords = coords_from_sym(base.phi)
    dir_coords = coords_from_sym(direction)

    # All stencil points must stay inside the domain before any chart work:
    # the offsets along the direction are the Richardson `_fd.xy_points`.
    offsets = _fd.xy_points(np.zeros(1, dtype=complex), 0, step)
    probe_phi = sym_from_coords(base_coords + offsets * dir_coords, frame.n)
    if spectral_radius_phibar(probe_phi) >= 1.0 - BOUNDARY_MARGIN:
        raise BoundaryProximityError("finite-difference stencil exits the domain")

    target_J = ComplexStructure(J=structure_from_bsd(frame, base.phi))
    target_frame = unitary_frame(space, target_J)
    transition = chart_transition(frame, target_J, target_frame)

    residual = _fd.dbar_along(transition, base_coords, dir_coords, step=step)
    return float(np.max(np.abs(residual)))
