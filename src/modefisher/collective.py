"""Schwinger su(2) collective observables and the double-well Bose-Hubbard Hamiltonian.

All observables are dense (N+1)x(N+1) Hermitian matrices in the ascending
Fock basis of :mod:`modefisher.fock`; the sector dimension is small enough
that sparsity buys nothing and dense eigensolvers are needed downstream.
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


def _raising_matrix(n_particles: int) -> np.ndarray:
    """J_+ = a1^dag a2, with <k+1|J_+|k> = sqrt((k+1)(N-k))."""
    k = np.arange(n_particles)
    return np.diag(np.sqrt((k + 1.0) * (n_particles - k)), -1).astype(complex)


def schwinger(n_particles: int):
    """The collective pseudo-spin triple (Jx, Jy, Jz) on the N-particle sector."""
    if n_particles < 0:
        raise ValueError(f"n_particles must be >= 0, got {n_particles}")
    jp = _raising_matrix(n_particles)
    jm = jp.conj().T
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    jz = np.diag([(2 * k - n_particles) / 2.0 for k in range(n_particles + 1)]).astype(complex)
    return (
        CollectiveObservable(jx, "Jx"),
        CollectiveObservable(jy, "Jy"),
        CollectiveObservable(jz, "Jz"),
    )


def direction_generator(n_particles: int, n: Direction) -> CollectiveObservable:
    """J_n = n_x Jx + n_y Jy + n_z Jz."""
    jx, jy, jz = schwinger(n_particles)
    mat = n.n_x * jx.matrix + n.n_y * jy.matrix + n.n_z * jz.matrix
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
    big_n = n_particles
    if not all(math.isfinite(x) for x in (eps1, eps2, u, j)):
        raise ValueError("couplings must be finite")
    mat = np.zeros((big_n + 1, big_n + 1), dtype=complex)
    for k in range(big_n + 1):
        mat[k, k] = eps1 * k + eps2 * (big_n - k) + u * (k ** 2 + (big_n - k) ** 2)
    mat -= j * (_raising_matrix(big_n) + _raising_matrix(big_n).conj().T)
    return CollectiveObservable(mat, f"H_BH({eps1:.6g},{eps2:.6g},{u:.6g},{j:.6g})")
