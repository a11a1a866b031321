"""Two-mode frame changes as the spin-N/2 image of the 2x2 mode mixing.

A ``ModeFrame`` is a 2x2 unitary mixing U of the two mode operators.  Row i
of U gives the new mode b_i as a combination of (a_1, a_2),

    b_i = sum_j U[i, j] a_j ,   so   a_j^dag = sum_i U[i, j] b_i^dag.

The change-of-basis unitary V maps spatial-frame amplitudes to amplitudes
over the new frame's Fock basis.  It is the image of U on the N-particle
sector: with U = e^{ia} (cos b - i sin b n.sigma), V = Gamma(U) =
e^{iaN} exp(-2ib J_n), and Gamma(U1) Gamma(U2) = Gamma(U1 U2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collective import Direction, Rotation

UNITARITY_TOL = 1e-12


def _as_frozen_complex(a, shape):
    arr = np.array(a, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ModeFrame:
    """A 2x2 unitary mixing of the two modes, defining an algebraic bipartition."""

    mixing: np.ndarray
    label: str = "custom"
    phi: float | None = None

    def __post_init__(self):
        u = _as_frozen_complex(self.mixing, (2, 2))
        residual = np.abs(u.conj().T @ u - np.eye(2)).max()
        if residual > UNITARITY_TOL:
            raise ValueError(f"mode mixing is not unitary (residual {residual:.3e})")
        object.__setattr__(self, "mixing", u)

    def matches(self, other: "ModeFrame", tol: float = 1e-10) -> bool:
        return bool(np.abs(self.mixing - other.mixing).max() <= tol)

    @property
    def is_spatial(self) -> bool:
        return bool(np.abs(self.mixing - np.eye(2)).max() <= UNITARITY_TOL)


def spatial_frame() -> ModeFrame:
    """The identity frame: modes are the two wells themselves."""
    return ModeFrame(np.eye(2, dtype=complex), label="spatial")


def bogolubov_frame(phi: float) -> ModeFrame:
    """Frame with b_1 = (a_1 + e^{-i phi} a_2)/sqrt(2), b_2 = (a_1 - e^{-i phi} a_2)/sqrt(2).

    phi = 0 is the symmetric/antisymmetric ("energy") mode pair.
    """
    w = np.exp(-1j * phi)
    u = np.array([[1.0, w], [1.0, -w]], dtype=complex) / math.sqrt(2.0)
    return ModeFrame(u, label="bogolubov", phi=float(phi))


def custom_frame(mixing) -> ModeFrame:
    """Frame from an arbitrary 2x2 unitary mixing matrix."""
    return ModeFrame(np.asarray(mixing, dtype=complex), label="custom")


def _spin_image(n_particles: int, u: np.ndarray) -> np.ndarray:
    """Gamma(U) = e^{iaN} exp(-2ib J_n) for U = e^{ia}(cos b - i sin b n.sigma)."""
    a = 0.5 * float(np.angle(np.linalg.det(u)))
    w = np.exp(-1j * a) * u
    # (i/2) tr(sigma_k W) = sin(b) n_k for W = cos b - i sin b n.sigma in SU(2)
    sin_b_n = np.array([0.5j * (w[1, 0] + w[0, 1]),
                        0.5 * (w[1, 0] - w[0, 1]),
                        0.5j * (w[0, 0] - w[1, 1])]).real
    sin_b = float(np.linalg.norm(sin_b_n))
    b = math.atan2(sin_b, 0.5 * float(np.trace(w).real))
    n = Direction(*(sin_b_n / sin_b)) if sin_b > 0.0 else Direction(0.0, 0.0, 1.0)
    return np.exp(1j * a * n_particles) * Rotation(n_particles, n).unitary(-2.0 * b)


def frame_change_unitary(n_particles: int, frame: ModeFrame) -> np.ndarray:
    """(N+1)x(N+1) unitary V whose column k expands |k, N-k> over the frame's Fock basis.

    V = Gamma(U) is the spin-N/2 image of the frame's mixing U; it is
    unitary to rounding at any N.
    """
    return _spin_image(n_particles, frame.mixing)


def fock_expansion_coefficients(k: int, n_particles: int, frame: ModeFrame) -> np.ndarray:
    """Amplitudes of the spatial Fock state |k, N-k> over the frame's Fock basis."""
    if not 0 <= k <= n_particles:
        raise ValueError(f"k={k} out of range 0 <= k <= N={n_particles}")
    return frame_change_unitary(n_particles, frame)[:, k].copy()


def transform_state(state, frame: ModeFrame):
    """Re-express a SectorState in a new mode frame; norm and trace are preserved.

    The change is Gamma(U_new U_old^dag); a frame with a bitwise-equal mixing keeps the data.
    """
    from .fock import SectorState

    if np.array_equal(frame.mixing, state.frame.mixing):
        return SectorState(state.n_particles, frame, amplitudes=state.amplitudes, rho=state.rho)
    v = _spin_image(state.n_particles, frame.mixing @ state.frame.mixing.conj().T)
    if state.amplitudes is not None:
        return SectorState(state.n_particles, frame, amplitudes=v @ state.amplitudes)
    return SectorState(state.n_particles, frame, rho=v @ state.rho @ v.conj().T)
