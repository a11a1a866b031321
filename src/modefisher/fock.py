"""Fixed-N two-mode Fock sector: states, monomial operator matrices, expectations.

Basis convention, inherited by every other module: the sector of N bosons in
two modes is spanned by |k, N-k>, k = 0..N ascending, with k the occupation
of mode 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collective import ladder
from .frames import ModeFrame, spatial_frame

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class SectorState:
    """State of N bosons in two modes: pure amplitudes or a density matrix.

    Exactly one of ``amplitudes`` (length N+1) or ``rho`` ((N+1)x(N+1)) is
    set; ``frame`` names the mode frame the Fock indices refer to.
    Construction checks shapes only; numerical invariants (normalization,
    hermiticity, trace, positivity) are checked by :func:`validate_state`.
    """

    n_particles: int
    frame: ModeFrame
    amplitudes: np.ndarray | None = None
    rho: np.ndarray | None = None

    def __post_init__(self):
        if self.n_particles < 0:
            raise ValueError(f"n_particles must be >= 0, got {self.n_particles}")
        if (self.amplitudes is None) == (self.rho is None):
            raise ValueError("exactly one of amplitudes or rho must be given")
        dim = self.n_particles + 1
        if self.amplitudes is not None:
            c = np.array(self.amplitudes, dtype=complex)
            if c.shape != (dim,):
                raise ValueError(f"amplitudes must have shape ({dim},), got {c.shape}")
            c.setflags(write=False)
            object.__setattr__(self, "amplitudes", c)
        else:
            r = np.array(self.rho, dtype=complex)
            if r.shape != (dim, dim):
                raise ValueError(f"rho must have shape ({dim}, {dim}), got {r.shape}")
            r.setflags(write=False)
            object.__setattr__(self, "rho", r)

    @property
    def dim(self) -> int:
        return self.n_particles + 1

    @property
    def is_pure(self) -> bool:
        return self.amplitudes is not None

    def density_matrix(self) -> np.ndarray:
        if self.amplitudes is not None:
            return np.outer(self.amplitudes, self.amplitudes.conj())
        return np.array(self.rho)


def make_fock_state(k: int, n_particles: int, frame: ModeFrame | None = None) -> SectorState:
    """Pure Fock state |k, N-k> (k particles in mode 1)."""
    if not 0 <= k <= n_particles:
        raise ValueError(f"k={k} out of range 0 <= k <= N={n_particles}")
    c = np.zeros(n_particles + 1, dtype=complex)
    c[k] = 1.0
    return SectorState(n_particles, frame or spatial_frame(), amplitudes=c)


def pure_state(amplitudes, frame: ModeFrame | None = None) -> SectorState:
    c = np.asarray(amplitudes, dtype=complex)
    return SectorState(len(c) - 1, frame or spatial_frame(), amplitudes=c)


def diagonal_state(p, frame: ModeFrame | None = None) -> SectorState:
    """Mixture sum_k p_k |k, N-k><k, N-k|."""
    p = np.asarray(p, dtype=float)
    return SectorState(len(p) - 1, frame or spatial_frame(), rho=np.diag(p).astype(complex))


def density_state(rho, frame: ModeFrame | None = None) -> SectorState:
    rho = np.asarray(rho, dtype=complex)
    return SectorState(rho.shape[0] - 1, frame or spatial_frame(), rho=rho)


def validate_state(state: SectorState, tol: float = DEFAULT_TOL) -> list[str]:
    """Names of violated SectorState invariants; empty when the state is valid."""
    violations = []
    if state.amplitudes is not None:
        norm = float(np.sum(np.abs(state.amplitudes) ** 2))
        if abs(norm - 1.0) > tol:
            violations.append("normalization")
        return violations
    rho = state.rho
    if np.abs(rho - rho.conj().T).max() > tol:
        violations.append("hermiticity")
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        violations.append("trace")
    herm = 0.5 * (rho + rho.conj().T)
    if np.linalg.eigvalsh(herm).min() < -tol:
        violations.append("positivity")
    return violations


@dataclass(frozen=True)
class MonomialOp:
    """Normally ordered local product (a1^dag)^m a1^n (a2^dag)^r a2^s."""

    m: int
    n: int
    r: int
    s: int

    def __post_init__(self):
        if min(self.m, self.n, self.r, self.s) < 0:
            raise ValueError("monomial exponents must be nonnegative")

    @property
    def conserves_number(self) -> bool:
        return self.m - self.n == self.s - self.r

    def adjoint(self) -> "MonomialOp":
        return MonomialOp(self.n, self.m, self.s, self.r)


def monomial_matrix(op: MonomialOp, n_particles: int) -> np.ndarray:
    """Matrix of (a1^dag)^m a1^n (a2^dag)^r a2^s on the N-particle sector: its ladder band.

    Non-number-conserving monomials (m - n != s - r) leave the sector and
    map to the zero matrix.
    """
    # a1^(N+1) has an all-zero band: a number-changing monomial places nothing
    m, n, r, s = (op.m, op.n, op.r, op.s) if op.conserves_number else (0, n_particles + 1, 0, 0)
    band = ladder(n_particles, m, n, r, s)
    k = np.flatnonzero(band)
    mat = np.zeros((n_particles + 1, n_particles + 1), dtype=complex)
    mat[k + m - n, k] = band[k]
    return mat


def expectation(state: SectorState, matrix, frame: ModeFrame | None = None) -> complex:
    """Tr[rho M] (or <psi|M|psi>); ``frame``, when given, must match the state's."""
    mat = np.asarray(matrix, dtype=complex)
    dim = state.dim
    if mat.shape != (dim, dim):
        raise ValueError(f"matrix shape {mat.shape} does not match sector dimension {dim}")
    if frame is not None and not state.frame.matches(frame):
        raise ValueError("matrix frame does not match the state's frame")
    if state.amplitudes is not None:
        c = state.amplitudes
        return complex(c.conj() @ mat @ c)
    return complex(np.trace(state.rho @ mat))
