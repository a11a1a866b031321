"""Schwinger su(2) collective observables and the double-well Bose-Hubbard Hamiltonian.

Every sector operator comes from :func:`ladder`, the band of a monomial; the
observables are the J_z or number diagonal plus the J_+ band, returned as dense
(N+1)x(N+1) Hermitian matrices in the ascending Fock basis of :mod:`modefisher.fock`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
DIRECTION_NORM_TOL = 1e-6


@dataclass(frozen=True)
class Direction:
    """Unit vector picking the rotation generator n_x Jx + n_y Jy + n_z Jz.

    Components within 1e-6 of unit norm are renormalized on construction;
    anything further off is rejected.
    """

    n_x: float
    n_y: float
    n_z: float

    def __post_init__(self):
        norm = math.sqrt(self.n_x ** 2 + self.n_y ** 2 + self.n_z ** 2)
        if abs(norm - 1.0) > DIRECTION_NORM_TOL:
            raise ValueError(f"direction must be a unit vector, got norm {norm:.8g}")
        object.__setattr__(self, "n_x", self.n_x / norm)
        object.__setattr__(self, "n_y", self.n_y / norm)
        object.__setattr__(self, "n_z", self.n_z / norm)

    @classmethod
    def in_plane(cls, phi: float) -> "Direction":
        """n = (cos phi, sin phi, 0), the xy-plane direction at azimuth phi."""
        return cls(math.cos(phi), math.sin(phi), 0.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.n_x, self.n_y, self.n_z])

    @property
    def in_plane_weight(self) -> float:
        """n_x^2 + n_y^2, the prefactor of the diagonal-state Fisher information."""
        return self.n_x ** 2 + self.n_y ** 2


@dataclass(frozen=True)
class CollectiveObservable:
    """A Hermitian (N+1)x(N+1) matrix with a symbolic tag."""

    matrix: np.ndarray
    label: str

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"observable matrix must be square, got {mat.shape}")
        residual = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
        if residual > HERMITICITY_TOL:
            raise ValueError(f"observable is not Hermitian (residual {residual:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def n_particles(self) -> int:
        return self.matrix.shape[0] - 1


LADDER_CHUNK = 16


def ladder(n_particles: int, m: int, n: int, r: int, s: int) -> np.ndarray:
    """Band of (a1^dag)^m a1^n (a2^dag)^r a2^s on the N-particle sector.

    Entry k is the coefficient taking |k, N-k> to |k-n+m, N-k-s+r>, the square
    root of k(k-1)...(k-n+1) (k-n+1)...(k-n+m) times the same product for mode 2
    from N-k; it is zero where an annihilation empties a mode.  The integer
    factors are multiplied in float LADDER_CHUNK at a time and the square roots
    of these partial products multiplied, so a coefficient is finite whenever
    its value fits in a double; past that this raises ValueError.
    """
    if n_particles < 0:
        raise ValueError(f"n_particles must be >= 0, got {n_particles}")
    if min(m, n, r, s) < 0:
        raise ValueError("monomial exponents must be nonnegative")
    k = np.arange(n, n_particles - s + 1, dtype=float)
    rest = n_particles - k
    # one row per integer factor; the leading row of ones keeps reduceat defined without factors
    factors = np.vstack([np.ones_like(k), k - np.arange(n)[:, None],
                         k - n + np.arange(1, m + 1)[:, None], rest - np.arange(s)[:, None],
                         rest - s + np.arange(1, r + 1)[:, None]])
    with np.errstate(over="ignore"):
        chunks = np.multiply.reduceat(factors, np.arange(0, len(factors), LADDER_CHUNK), axis=0)
        coeff = np.sqrt(chunks).prod(axis=0)
    if not np.isfinite(coeff).all():
        raise ValueError(f"ladder coefficient of (a1^dag)^{m} a1^{n} (a2^dag)^{r} a2^{s} "
                         f"at N={n_particles} exceeds double range")
    band = np.zeros(n_particles + 1)
    band[n:n + len(k)] = coeff
    return band


def su2_bands(n_particles: int) -> tuple[np.ndarray, np.ndarray]:
    """The J_z diagonal (2k-N)/2 and the J_+ = a1^dag a2 subdiagonal sqrt((k+1)(N-k))."""
    raising = ladder(n_particles, 1, 0, 0, 1)[:-1]
    return (2 * np.arange(n_particles + 1) - n_particles) / 2.0, raising


def _generator_matrix(n_particles: int, n_x: float, n_y: float, n_z: float) -> np.ndarray:
    """n_x Jx + n_y Jy + n_z Jz: diagonal n_z J_z, subdiagonal (n_x - i n_y) J_+ / 2."""
    jz, raising = su2_bands(n_particles)
    mat = np.diag((n_z * jz).astype(complex))
    k = np.arange(n_particles)
    mat[k + 1, k] = (n_x - 1j * n_y) * (0.5 * raising)
    mat[k, k + 1] = (n_x + 1j * n_y) * (0.5 * raising)
    return mat


def schwinger(n_particles: int):
    """The collective pseudo-spin triple (Jx, Jy, Jz) on the N-particle sector."""
    return tuple(CollectiveObservable(_generator_matrix(n_particles, *axis), label)
                 for axis, label in (((1.0, 0.0, 0.0), "Jx"), ((0.0, 1.0, 0.0), "Jy"),
                                     ((0.0, 0.0, 1.0), "Jz")))


def direction_generator(n_particles: int, n: Direction) -> CollectiveObservable:
    """J_n = n_x Jx + n_y Jy + n_z Jz."""
    mat = _generator_matrix(n_particles, n.n_x, n.n_y, n.n_z)
    return CollectiveObservable(mat, f"Jn({n.n_x:.6g},{n.n_y:.6g},{n.n_z:.6g})")


class Rotation:
    """exp(i theta J_n) = Q e^{i theta Lambda} Q^dag from one eigendecomposition of J_n.

    Rotations and frame changes are both built here; the result is unitary to rounding at any N.
    """

    def __init__(self, n_particles: int, n: Direction):
        self.generator = direction_generator(n_particles, n)
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(self.generator.matrix)

    def unitary(self, theta: float) -> np.ndarray:
        phase = np.exp(1j * theta * self.eigenvalues)
        return (self.eigenvectors * phase) @ self.eigenvectors.conj().T


def commutator_residual(n_particles: int) -> float:
    """Max-norm residual of the three su(2) relations [J_a, J_b] = i J_c."""
    jx, jy, jz = (o.matrix for o in schwinger(n_particles))
    residual = 0.0
    for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
        comm = a @ b - b @ a - 1j * c
        if comm.size:
            residual = max(residual, float(np.abs(comm).max()))
    return residual


def bose_hubbard(n_particles: int, eps1: float, eps2: float, u: float, j: float) -> CollectiveObservable:
    """Double-well Bose-Hubbard Hamiltonian with well depths eps1, eps2,
    on-site repulsion u and hopping amplitude j (hopping enters with sign -j).
    """
    if not all(math.isfinite(x) for x in (eps1, eps2, u, j)):
        raise ValueError("couplings must be finite")
    mat = _generator_matrix(n_particles, -2.0 * j, 0.0, 0.0)  # hopping -j (J_+ + J_-)
    k = np.arange(n_particles + 1)
    mat[k, k] = eps1 * k + eps2 * (n_particles - k) + u * (k ** 2 + (n_particles - k) ** 2)
    return CollectiveObservable(mat, f"H_BH({eps1:.6g},{eps2:.6g},{u:.6g},{j:.6g})")
