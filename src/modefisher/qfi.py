"""Quantum Fisher information: pure-state route, spectral and closed-form oracles, bounds.

Three routes.  ``qfi_pure`` gives F = 4 Var(J_n) of a pure state in O(N) from
the two bands of J_n, without a dense matrix; ``qfi_state`` sends pure states
there and density matrices to the spectral sum.  The two oracles are kept
deliberately separate from it and from each other: ``qfi_spectral`` evaluates
the standard eigendecomposition sum for any density matrix, while
``qfi_diagonal_closed_form`` evaluates the explicit formula valid for states
diagonal in the Fock basis.  Tests and the acceptance suite cross-check each
route against the others.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collective import CollectiveObservable, Direction, direction_generator
from .fock import DEFAULT_TOL, SectorState, check_state, check_tolerance, expectation

CLASSIFY_TOL = 1e-8

CLASS_ZERO = "zero"
CLASS_SHOT_NOISE = "at-or-below-shot-noise"
CLASS_SUB_SHOT_NOISE = "sub-shot-noise"
CLASS_HEISENBERG = "heisenberg-saturating"


@dataclass(frozen=True)
class QfiReport:
    """A Fisher value with its phase-uncertainty bound and classification."""

    fisher: float
    phase_bound: float
    n_particles: int
    classification: str
    heisenberg_fraction: float


def _observable_matrix(observable) -> np.ndarray:
    if isinstance(observable, CollectiveObservable):
        return observable.matrix
    return np.asarray(observable, dtype=complex)


def qfi_spectral(state: SectorState, observable, tol: float = DEFAULT_TOL) -> float:
    """F = 2 sum_{i,j} (l_i - l_j)^2 / (l_i + l_j) |<i|A|j>|^2 over eig(rho).

    The l are clipped at 0 (rounding leaves a rank-deficient rho's null eigenvalues
    near +-1e-17), and exactly the 0/0 pairs, l_i + l_j = 0, are dropped, as in
    :func:`qfi_diagonal_closed_form`.  No threshold is needed: for l >= 0 each weight
    is at most l_i + l_j, so no pair can blow up.  A pure state gives 4 Var(A).
    """
    a = _observable_matrix(observable)
    if a.shape != (state.dim, state.dim):
        raise ValueError(f"observable shape {a.shape} does not match sector dimension {state.dim}")
    check_state(state, tol)
    rho = state.density_matrix()
    lam, vec = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    lam = np.maximum(lam, 0.0)
    a_eig = vec.conj().T @ a @ vec
    li, lj = lam[:, None], lam[None, :]
    pair_sum = li + lj
    weight = np.divide((li - lj) ** 2, pair_sum, out=np.zeros_like(pair_sum), where=pair_sum > 0.0)
    return float(2.0 * np.sum(weight * np.abs(a_eig) ** 2))


def qfi_pure(state: SectorState, n: Direction, tol: float = DEFAULT_TOL) -> float:
    """F = 4 ||J_n c - <J_n> c||^2 of a pure state, in O(N) from the bands of J_n.

    The residual form avoids the cancellation of <J_n^2> - <J_n>^2 at large N.
    <J_n> is taken per unit norm, so a state whose norm is off within ``tol``
    gets the value of the spectral sum, 4 |c|^2 Var(J_n).  Raises ValueError
    on a density matrix; use :func:`qfi_spectral` there.
    """
    if not state.is_pure:
        raise ValueError("qfi_pure needs a pure state; a density matrix takes qfi_spectral")
    check_state(state, tol)
    c = state.amplitudes
    jc = direction_generator(state.n_particles, n).apply(c)
    norm_sq = np.vdot(c, c).real
    # a zero vector passes only a tolerance >= 1; its spectral sum is 0, and so is this
    mean = np.vdot(c, jc).real / norm_sq if norm_sq > 0.0 else 0.0
    residual = jc - mean * c
    return float(4.0 * np.vdot(residual, residual).real)


def qfi_state(state: SectorState, n: Direction, tol: float = DEFAULT_TOL) -> float:
    """F under J_n: :func:`qfi_pure` for a pure state, :func:`qfi_spectral` for a density matrix."""
    if state.is_pure:
        return qfi_pure(state, n, tol)
    return qfi_spectral(state, direction_generator(state.n_particles, n), tol=tol)


def qfi_diagonal_closed_form(p, n_particles: int, n: Direction, tol: float = DEFAULT_TOL) -> float:
    """Fisher information of the mixture sum_k p_k |k, N-k><k, N-k| under J_n.

    F = (n_x^2 + n_y^2) [N + 2 sum_k p_k k(N-k)
                           - 4 sum_k p_k p_{k+1}/(p_k + p_{k+1}) (k+1)(N-k)],
    with 0/0 terms (consecutive zero probabilities) contributing 0.
    """
    check_tolerance(tol)
    big_n = n_particles
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if p.shape != (big_n + 1,):
        raise ValueError(f"probability vector must have length {big_n + 1}, got {p.shape}")
    if p.min() < -tol:
        raise ValueError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > tol:
        raise ValueError(f"probabilities must sum to 1, got {p.sum():.12g}")
    k = np.arange(big_n + 1)
    mean_term = 2.0 * float(np.sum(p * k * (big_n - k)))
    denom = p[:-1] + p[1:]
    ratio = np.divide(p[:-1] * p[1:], denom, out=np.zeros(big_n), where=denom > 0.0)
    coherence_term = float(np.sum(ratio * (k[:-1] + 1) * (big_n - k[:-1])))
    return n.in_plane_weight * (big_n + mean_term - 4.0 * coherence_term)


def qfi_pure_fock(k: int, n_particles: int, n: Direction) -> float:
    """Fisher information of the pure Fock state |k, N-k> under J_n."""
    if not 0 <= k <= n_particles:
        raise ValueError(f"k={k} out of range 0 <= k <= N={n_particles}")
    return n.in_plane_weight * (n_particles + 2.0 * k * (n_particles - k))


def variance_bound(state: SectorState, observable) -> tuple[float, float, float]:
    """(F, 4 Var(A), gap): F <= 4 Var(A), with equality for pure states."""
    a = _observable_matrix(observable)
    fisher = qfi_spectral(state, a)
    mean = expectation(state, a).real
    mean_sq = expectation(state, a @ a).real
    four_var = 4.0 * (mean_sq - mean ** 2)
    return fisher, four_var, four_var - fisher


def classify(fisher: float, n_particles: int) -> QfiReport:
    """Phase bound and shot-noise/Heisenberg class of F; against N^2, CLASSIFY_TOL is relative."""
    if math.isnan(fisher):
        raise ValueError("Fisher information is NaN")
    if fisher < -CLASSIFY_TOL:
        raise ValueError(f"Fisher information must be nonnegative, got {fisher:.6g}")
    fisher = max(fisher, 0.0)
    n_sq = float(n_particles) ** 2
    n_sq_tol = CLASSIFY_TOL * max(n_sq, 1.0)
    if fisher > n_sq + n_sq_tol:
        raise ValueError(f"Fisher information {fisher:.6g} exceeds the N^2 = {n_sq:.6g} bound")
    if fisher <= CLASSIFY_TOL:
        label = CLASS_ZERO
        phase_bound = math.inf
    else:
        phase_bound = 1.0 / math.sqrt(fisher)
        if fisher >= n_sq - n_sq_tol:
            label = CLASS_HEISENBERG
        elif fisher > n_particles + CLASSIFY_TOL:
            label = CLASS_SUB_SHOT_NOISE
        else:
            label = CLASS_SHOT_NOISE
    fraction = fisher / n_sq if n_particles > 0 else math.nan
    return QfiReport(fisher, phase_bound, n_particles, label, fraction)
