"""Independent references for checking modefisher's answers.

Everything here is written from the physics, not from the library: J_n acts
on |k, N-k> through its two bands, <k+1|J_+|k> = sqrt((k+1)(N-k)) and
<k|J_z|k> = k - N/2, so each reference costs O(N) and reaches N = 10^5.
The claims checked are the paper's:

- twin-Fock and every Fock state: F = (n_x^2 + n_y^2) (N + 2 k (N - k));
- pure states: F = 4 Var(J_n); mixed states: 0 <= F <= 4 Var(J_n), and F is
  convex, so F(sum_r w_r psi_r) <= sum_r w_r 4 Var_r(J_n);
- Fock-diagonal mixtures: the spectral sum restricted to the band of J_n;
- a rotation exp(i theta J_n) turns the mean spin vector by -theta about n;
- separability is decided in the state's own frame, and the QFI is invariant
  under a frame change.
"""
from __future__ import annotations

import math

import numpy as np


def jn_apply(psi: np.ndarray, n: np.ndarray) -> np.ndarray:
    """J_n psi for a direction n = (n_x, n_y, n_z), from the bands of J_+ and J_z."""
    big_n = len(psi) - 1
    k = np.arange(big_n + 1)
    band = np.sqrt((k[:-1] + 1.0) * (big_n - k[:-1]))
    raised = np.zeros(big_n + 1, dtype=complex)
    lowered = np.zeros(big_n + 1, dtype=complex)
    raised[1:] = band * psi[:-1]
    lowered[:-1] = band * psi[1:]
    jx = 0.5 * (raised + lowered)
    jy = -0.5j * (raised - lowered)
    jz = (k - 0.5 * big_n) * psi
    return n[0] * jx + n[1] * jy + n[2] * jz


def spin_vector(psi: np.ndarray) -> np.ndarray:
    """(<Jx>, <Jy>, <Jz>) of a normalized pure state."""
    return np.array([np.vdot(psi, jn_apply(psi, axis)).real for axis in np.eye(3)])


def four_var(psi: np.ndarray, n: np.ndarray) -> float:
    """4 Var(J_n) of a normalized pure state: its QFI under J_n."""
    jpsi = jn_apply(psi, n)
    mean = np.vdot(psi, jpsi).real
    return 4.0 * (np.vdot(jpsi, jpsi).real - mean ** 2)


def four_var_mixture(weights, vectors, n: np.ndarray) -> float:
    """4 Var(J_n) of sum_r w_r |psi_r><psi_r| with normalized psi_r."""
    mean = mean_sq = 0.0
    for w, psi in zip(weights, vectors):
        jpsi = jn_apply(psi, n)
        mean += w * np.vdot(psi, jpsi).real
        mean_sq += w * np.vdot(jpsi, jpsi).real
    return 4.0 * (mean_sq - mean ** 2)


def fock_qfi(k: int, big_n: int, n: np.ndarray) -> float:
    """QFI of |k, N-k> under J_n; N^2/2 + N for the twin-Fock state k = N/2."""
    return (n[0] ** 2 + n[1] ** 2) * (big_n + 2.0 * k * (big_n - k))


def diagonal_qfi(p: np.ndarray, n: np.ndarray) -> float:
    """Spectral QFI sum of sum_k p_k |k><k|: only the band pairs (k, k+1) couple."""
    big_n = len(p) - 1
    k = np.arange(big_n)
    lo, hi = p[:-1], p[1:]
    total = lo + hi
    safe = np.where(total > 0.0, total, 1.0)
    pair = np.where(total > 0.0, (lo - hi) ** 2 / safe, 0.0)
    return float((n[0] ** 2 + n[1] ** 2) * np.sum(pair * (k + 1.0) * (big_n - k)))


def rotate_vector(v: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation of v by angle about the unit vector axis."""
    c, s = math.cos(angle), math.sin(angle)
    return v * c + np.cross(axis, v) * s + axis * np.dot(axis, v) * (1.0 - c)


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)


def hermiticity_resid(mat: np.ndarray) -> float:
    return float(np.abs(mat - mat.conj().T).max()) if mat.size else 0.0


def unitarity_resid(mat: np.ndarray) -> float:
    return float(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max())


def std_band(trials: int) -> tuple[float, float]:
    """Band for empirical std / CCRB at a given trial count.

    The sample std of T draws has relative spread s = 1/sqrt(2(T-1)), and the
    Cramer-Rao bound holds from below, so the lower edge is 1 - 6s.  The upper
    edge, 3 (1 + 6s), also admits the finite-shot loss of efficiency next to a
    fringe zero of p_m(theta), where the estimator's std reaches 1.6-1.9 times
    the CCRB for N = 4 at 2000 shots.  The band holds for any valid random
    stream, not for one seed's values.
    """
    spread = 6.0 / math.sqrt(2.0 * max(trials - 1, 1))
    return max(0.0, 1.0 - spread), 3.0 * (1.0 + spread)


def mean_tolerance(trials: int, std: float, ccrb: float) -> float:
    """Six-sigma band for |mean estimate - theta| over `trials` trials."""
    return 6.0 * max(std, ccrb) / math.sqrt(trials)
