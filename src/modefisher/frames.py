"""Two-mode frame changes as the spin-N/2 image of the 2x2 mode mixing.

A ``ModeFrame`` is a 2x2 unitary mixing U of the two mode operators.  Row i
of U gives the new mode b_i as a combination of (a_1, a_2),

    b_i = sum_j U[i, j] a_j ,   so   a_j^dag = sum_i U[i, j] b_i^dag.

The change-of-basis unitary V maps spatial-frame amplitudes to amplitudes
over the new frame's Fock basis.  It is the image of U on the N-particle
sector, V = Gamma(U), and Gamma(U1) Gamma(U2) = Gamma(U1 U2).  :func:`move_state`, the one
move of a state by a 2x2 unitary (a frame change or a rotation), passes it on as it is:
:func:`~modefisher.collective.apply_u2` moves a pure state without forming V at any N;
:func:`~modefisher.collective.u2_image` forms V with one real product.  Both read U's
determinant phase and Euler angles in :func:`~modefisher.collective._euler_phases`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collective import UNITARITY_TOL, apply_u2, frozen, u2_image


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


def frame_change_unitary(n_particles: int, frame: ModeFrame) -> np.ndarray:
    """(N+1)x(N+1) unitary V whose column k expands |k, N-k> over the frame's Fock basis.

    V = Gamma(U) is the spin-N/2 image of the frame's mixing U, formed in O(N^3) time and
    O(N^2) memory; it is unitary to rounding at any N.
    """
    return u2_image(frame.mixing, n_particles)


def fock_expansion_coefficients(k: int, n_particles: int, frame: ModeFrame) -> np.ndarray:
    """Amplitudes of the spatial Fock state |k, N-k> over the frame's Fock basis."""
    from .fock import make_fock_state

    return transform_state(make_fock_state(k, n_particles), frame).amplitudes


def move_state(state, u, frame: ModeFrame):
    """The state moved by Gamma(U), U a 2x2 unitary, labelled `frame`: a pure state by
    `apply_u2`, a density matrix as V rho V^dag with V = `u2_image(U, N)`.  The new array is
    handed over read-only, so the SectorState keeps it without a copy."""
    if state.is_pure:
        c = apply_u2(u, state.amplitudes)
        c.setflags(write=False)
        return type(state)(state.n_particles, frame, amplitudes=c)
    v = u2_image(u, state.n_particles)
    rho = v @ state.rho @ v.conj().T
    rho.setflags(write=False)
    return type(state)(state.n_particles, frame, rho=rho)


def transform_state(state, frame: ModeFrame):
    """Re-express a SectorState in a new mode frame; norm and trace are preserved.

    The change is Gamma(U_new U_old^dag), by :func:`move_state`; a frame with a bitwise-equal
    mixing keeps the data.
    """
    if np.array_equal(frame.mixing, state.frame.mixing):
        return type(state)(state.n_particles, frame, amplitudes=state.amplitudes, rho=state.rho)
    return move_state(state, frame.mixing @ state.frame.mixing.conj().T, frame)
