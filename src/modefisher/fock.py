"""Fixed-N two-mode Fock sector: states, monomial operator matrices, expectations.

Basis convention, inherited by every other module: the sector of N bosons in
two modes is spanned by |k, N-k>, k = 0..N ascending, with k the occupation
of mode 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collective import frozen, ladder
from .frames import ModeFrame, spatial_frame

DEFAULT_TOL = 1e-10
# relative gap under which two coherences count as tied when the witness is picked
WITNESS_TIE_TOL = 1e-12


@dataclass(frozen=True)
class SectorState:
    """State of N bosons in two modes: pure amplitudes or a density matrix.

    Exactly one of ``amplitudes`` (length N+1) or ``rho`` ((N+1)x(N+1)) is
    set; ``frame`` names the mode frame the Fock indices refer to.  The array is
    stored read-only: a caller's writable array is copied, and one handed over read-only
    and owning its data is kept (see :func:`~modefisher.collective.frozen`).
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
            c = frozen(self.amplitudes, complex)
            if c.shape != (dim,):
                raise ValueError(f"amplitudes must have shape ({dim},), got {c.shape}")
            object.__setattr__(self, "amplitudes", c)
        else:
            r = frozen(self.rho, complex)
            if r.shape != (dim, dim):
                raise ValueError(f"rho must have shape ({dim}, {dim}), got {r.shape}")
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


def check_tolerance(tol: float) -> None:
    """Raise ValueError unless `tol` is finite and > 0: NaN passes any state, 0 fails rounding."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol!r}")


def validate_state(state: SectorState, tol: float = DEFAULT_TOL) -> list[str]:
    """Names of violated SectorState invariants; empty when the state is valid.

    A NaN or infinite entry is reported as "finiteness" alone: NaN fails every `> tol`
    test, so the other checks would pass it.  A pure state's norm is one `vdot`, and its
    entries are scanned only when the norm is not finite: finite entries whose norm
    overflows violate normalization.  rho is positive when its Hermitian part plus tol I has
    a Cholesky factor, i.e. its smallest eigenvalue exceeds -tol; no eigenvalue is computed.
    """
    check_tolerance(tol)
    if state.amplitudes is not None:
        c = state.amplitudes
        norm = np.vdot(c, c).real
        if not math.isfinite(norm):
            return ["normalization"] if np.isfinite(c).all() else ["finiteness"]
        return ["normalization"] if abs(norm - 1.0) > tol else []
    rho = state.rho
    if not np.isfinite(rho).all():
        return ["finiteness"]
    violations = []
    if np.abs(rho - rho.conj().T).max() > tol:
        violations.append("hermiticity")
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        violations.append("trace")
    shifted = 0.5 * (rho + rho.conj().T)
    shifted[np.diag_indices(state.dim)] += tol
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        violations.append("positivity")
    return violations


def check_state(state: SectorState, tol: float) -> None:
    """Raise ValueError("invalid state: a, b") for the violations :func:`validate_state` lists."""
    violations = validate_state(state, tol)
    if violations:
        raise ValueError(f"invalid state: {', '.join(violations)}")


def largest_coherence(state: SectorState) -> tuple[float, tuple[int, int] | None]:
    """(max |rho_rc| over r != c, witness pick) in the state's own Fock basis.

    The pick is the first (row, col), row > col, in row-major order within
    WITNESS_TIE_TOL of the largest: coherences equal in exact arithmetic differ
    in their last bits, and this takes the one an exact argmax would; None for
    N = 0.  A pure state forms no rho: |rho_rc| = |c_r| |c_c|, so row r's largest
    coherence is |c_r| times the largest |c_c|, c < r, and the whole pick is O(N).
    """
    if state.dim == 1:
        return 0.0, None
    if state.is_pure:
        a = np.abs(state.amplitudes)
        rows = a[1:] * np.maximum.accumulate(a[:-1])
        largest = float(rows.max())
        cut = (1.0 - WITNESS_TIE_TOL) * largest
        row = int(np.argmax(rows >= cut)) + 1
        return largest, (row, int(np.argmax(a[row] * a[:row] >= cut)))
    off = np.abs(state.rho)
    np.fill_diagonal(off, 0.0)
    largest = float(off.max())
    off *= np.tri(state.dim, k=-1, dtype=bool)  # keep the lower triangle
    first = np.flatnonzero(off >= (1.0 - WITNESS_TIE_TOL) * off.max())[0]
    return largest, divmod(int(first), state.dim)


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


def expectation(state: SectorState, matrix) -> complex:
    """Tr[rho M] (or <psi|M|psi>), with M given in the state's own Fock basis."""
    mat = np.asarray(matrix, dtype=complex)
    dim = state.dim
    if mat.shape != (dim, dim):
        raise ValueError(f"matrix shape {mat.shape} does not match sector dimension {dim}")
    if state.amplitudes is not None:
        c = state.amplitudes
        return complex(c.conj() @ mat @ c)
    return complex(np.trace(state.rho @ mat))
