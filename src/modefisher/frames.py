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

from .collective import Direction, Rotation, frozen, propagate, uses_propagator

UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class ModeFrame:
    """A 2x2 unitary mixing of the two modes, defining an algebraic bipartition."""

    mixing: np.ndarray
    label: str = "custom"
    phi: float | None = None

    def __post_init__(self):
        u = frozen(self.mixing, complex)
        if u.shape != (2, 2):
            raise ValueError(f"expected array of shape (2, 2), got {u.shape}")
        if not np.isfinite(u).all():  # NaN passes the unitarity test below
            raise ValueError("mode mixing must be finite")
        residual = np.abs(u.conj().T @ u - np.eye(2)).max()
        if residual > UNITARITY_TOL:
            raise ValueError(f"mode mixing is not unitary (residual {residual:.3e})")
        object.__setattr__(self, "mixing", u)

    @property
    def is_spatial(self) -> bool:
        return bool(np.abs(self.mixing - np.eye(2)).max() <= UNITARITY_TOL)


def spatial_frame() -> ModeFrame:
    """The identity frame: modes are the two wells themselves."""
    return ModeFrame(np.eye(2, dtype=complex), label="spatial")


def bogolubov_frame(phi: float) -> ModeFrame:
    """Frame with b_1 = (a_1 + e^{-i phi} a_2)/sqrt(2), b_2 = (a_1 - e^{-i phi} a_2)/sqrt(2).

    phi = 0 is the symmetric/antisymmetric ("energy") mode pair.  A non-finite phi raises.
    """
    if not math.isfinite(phi):
        raise ValueError(f"bogolubov phi must be finite, got {phi!r}")
    w = np.exp(-1j * phi)
    u = np.array([[1.0, w], [1.0, -w]], dtype=complex) / math.sqrt(2.0)
    return ModeFrame(u, label="bogolubov", phi=float(phi))


def custom_frame(mixing) -> ModeFrame:
    """Frame from an arbitrary 2x2 unitary mixing matrix."""
    return ModeFrame(np.asarray(mixing, dtype=complex), label="custom")


def _spin_parameters(u: np.ndarray) -> tuple[float, float, Direction]:
    """(a, b, n) with U = e^{ia}(cos b - i sin b n.sigma), so Gamma(U) = e^{iaN} exp(-2ib J_n)."""
    a = 0.5 * float(np.angle(np.linalg.det(u)))
    w = np.exp(-1j * a) * u
    # (i/2) tr(sigma_k W) = sin(b) n_k for W = cos b - i sin b n.sigma in SU(2)
    sin_b_n = np.array([0.5j * (w[1, 0] + w[0, 1]),
                        0.5 * (w[1, 0] - w[0, 1]),
                        0.5j * (w[0, 0] - w[1, 1])]).real
    sin_b = float(np.linalg.norm(sin_b_n))
    b = math.atan2(sin_b, 0.5 * float(np.trace(w).real))
    n = Direction(*(sin_b_n / sin_b)) if sin_b > 0.0 else Direction(0.0, 0.0, 1.0)
    return a, b, n


def _spin_image(n_particles: int, u: np.ndarray) -> np.ndarray:
    """Gamma(U) as a dense matrix, from one eigendecomposition of J_n."""
    a, b, n = _spin_parameters(u)
    return np.exp(1j * a * n_particles) * Rotation(n_particles, n).unitary(-2.0 * b)


def _spin_image_times(n_particles: int, u: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Gamma(U) c: dense below PROPAGATOR_MIN_N, else matrix-free in O(N) memory."""
    if not uses_propagator(n_particles):
        return _spin_image(n_particles, u) @ c
    a, b, n = _spin_parameters(u)
    return np.exp(1j * a * n_particles) * propagate(n_particles, n, c, -2.0 * b)


def frame_change_unitary(n_particles: int, frame: ModeFrame) -> np.ndarray:
    """(N+1)x(N+1) unitary V whose column k expands |k, N-k> over the frame's Fock basis.

    V = Gamma(U) is the spin-N/2 image of the frame's mixing U; it is
    unitary to rounding at any N.
    """
    return _spin_image(n_particles, frame.mixing)


def fock_expansion_coefficients(k: int, n_particles: int, frame: ModeFrame) -> np.ndarray:
    """Amplitudes of the spatial Fock state |k, N-k> over the frame's Fock basis."""
    from .fock import make_fock_state

    return transform_state(make_fock_state(k, n_particles), frame).amplitudes


def transform_state(state, frame: ModeFrame):
    """Re-express a SectorState in a new mode frame; norm and trace are preserved.

    The change is Gamma(U_new U_old^dag); a frame with a bitwise-equal mixing keeps the data.
    Pure states from PROPAGATOR_MIN_N on are moved without forming Gamma(U).
    """
    from .fock import SectorState

    if np.array_equal(frame.mixing, state.frame.mixing):
        return SectorState(state.n_particles, frame, amplitudes=state.amplitudes, rho=state.rho)
    change = frame.mixing @ state.frame.mixing.conj().T
    if state.amplitudes is not None:
        return SectorState(state.n_particles, frame,
                           amplitudes=_spin_image_times(state.n_particles, change, state.amplitudes))
    v = _spin_image(state.n_particles, change)
    return SectorState(state.n_particles, frame, rho=v @ state.rho @ v.conj().T)
