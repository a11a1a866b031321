"""Interferometer model and Monte-Carlo phase estimation.

The readout is number counting in the frame of the input state: after the
rotation exp(i theta J_n) the outcome m = 0..N is drawn with probability
p_m(theta) = <m, N-m| U rho U^dag |m, N-m>.  Phase estimates maximize the
multinomial log-likelihood over a grid refined by golden-section search.

Sampling uses numpy's Philox counter-based generator keyed by
(seed, trial_index), so runs are reproducible shot for shot and trials are
independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collective import Direction, Rotation
from .fock import SectorState, validate_state
from .qfi import qfi_spectral

DEFAULT_WINDOW = (0.0, math.pi / 2)
GRID_POINTS = 512
REFINE_TOL = 1e-8
FLAT_LIKELIHOOD_TOL = 1e-12
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class NonIdentifiableError(ValueError):
    """The outcome distribution does not depend on theta over the window."""


@dataclass(frozen=True)
class EstimationRun:
    """Results of a Monte-Carlo maximum-likelihood phase-estimation experiment."""

    theta_true: float
    direction: Direction
    trials: int
    shots_per_trial: int
    estimates: np.ndarray
    empirical_std: float
    qcrb: float
    ccrb: float
    seed: int
    fisher: float
    classical_fisher: float

    def __post_init__(self):
        est = np.array(self.estimates, dtype=float)
        est.setflags(write=False)
        object.__setattr__(self, "estimates", est)


class _RotationModel:
    """Cached eigendecomposition of J_n for repeated rotations of one state."""

    def __init__(self, state: SectorState, n: Direction):
        violations = validate_state(state)
        if violations:
            raise ValueError(f"invalid state: {', '.join(violations)}")
        self.state = state
        self.rotation = Rotation(state.n_particles, n)
        self._psi_eig = None
        if state.amplitudes is not None:
            self._psi_eig = self.rotation.eigenvectors.conj().T @ state.amplitudes

    def rotated(self, theta: float) -> SectorState:
        if self._psi_eig is not None:
            phase = np.exp(1j * theta * self.rotation.eigenvalues)
            c = self.rotation.eigenvectors @ (phase * self._psi_eig)
            return SectorState(self.state.n_particles, self.state.frame, amplitudes=c)
        u = self.rotation.unitary(theta)
        return SectorState(self.state.n_particles, self.state.frame,
                           rho=u @ self.state.rho @ u.conj().T)

    def probabilities(self, theta: float) -> np.ndarray:
        rotated = self.rotated(theta)
        if rotated.amplitudes is not None:
            p = np.abs(rotated.amplitudes) ** 2
        else:
            p = np.diag(rotated.rho).real.copy()
        np.clip(p, 0.0, None, out=p)
        return p


def rotate(state: SectorState, n: Direction, theta: float) -> SectorState:
    """Apply exp(i theta J_n) through the eigendecomposition of J_n."""
    return _RotationModel(state, n).rotated(theta)


def measurement_probabilities(state: SectorState, n: Direction, theta: float) -> np.ndarray:
    """Number-counting outcome distribution p_m(theta), m = 0..N."""
    return _RotationModel(state, n).probabilities(theta)


def classical_fisher(state: SectorState, n: Direction, theta: float,
                     dtheta: float = 1e-5) -> float:
    """Fisher information of the number-counting readout, by central differences.

    Outcomes with p_m <= 1e-12 are dropped from the sum.
    """
    if dtheta <= 0:
        raise ValueError(f"dtheta must be positive, got {dtheta}")
    model = _RotationModel(state, n)
    p0 = model.probabilities(theta)
    dp = (model.probabilities(theta + dtheta) - model.probabilities(theta - dtheta)) / (2.0 * dtheta)
    keep = p0 > 1e-12
    return float(np.sum(dp[keep] ** 2 / p0[keep]))


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def monte_carlo_estimate(state: SectorState, n: Direction, theta_true: float,
                         trials: int, shots: int, seed: int,
                         window: tuple[float, float] = DEFAULT_WINDOW,
                         grid_points: int = GRID_POINTS,
                         refine_tol: float = REFINE_TOL) -> EstimationRun:
    """Run `trials` independent maximum-likelihood estimations of theta_true.

    Each trial draws `shots` outcomes from p(theta_true) by inverse-CDF
    sampling and maximizes the log-likelihood over a `grid_points` grid on
    `window`, refined by golden-section search to `refine_tol`.
    """
    if trials < 1 or shots < 1:
        raise ValueError("trials and shots must both be >= 1")
    lo, hi = window
    if not lo < hi:
        raise ValueError(f"estimation window must be an interval, got {window}")
    model = _RotationModel(state, n)
    grid = np.linspace(lo, hi, grid_points)
    prob_grid = np.array([model.probabilities(t) for t in grid])
    spread = float((prob_grid.max(axis=0) - prob_grid.min(axis=0)).max())
    if spread < FLAT_LIKELIHOOD_TOL:
        raise NonIdentifiableError(
            "outcome probabilities are flat over the estimation window; "
            "theta is not identifiable for this configuration"
        )
    log_grid = np.log(np.clip(prob_grid, 1e-300, None))

    p_true = model.probabilities(theta_true)
    p_true = p_true / p_true.sum()
    cdf = np.cumsum(p_true)
    cdf[-1] = 1.0

    def loglik_factory(counts):
        def loglik(theta):
            p = np.clip(model.probabilities(theta), 1e-300, None)
            return float(counts @ np.log(p))
        return loglik

    estimates = np.empty(trials)
    for trial in range(trials):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))
        draws = np.searchsorted(cdf, rng.random(shots), side="right")
        counts = np.bincount(draws, minlength=state.dim).astype(float)
        scores = log_grid @ counts
        best = int(np.argmax(scores))
        bracket_lo = grid[max(best - 1, 0)]
        bracket_hi = grid[min(best + 1, grid_points - 1)]
        estimates[trial] = _golden_max(loglik_factory(counts), bracket_lo, bracket_hi, refine_tol)

    empirical_std = float(np.std(estimates, ddof=1)) if trials > 1 else 0.0
    fisher = qfi_spectral(state, model.rotation.generator)
    fisher_cl = classical_fisher(state, n, theta_true)
    qcrb = 1.0 / math.sqrt(shots * fisher) if fisher > 0 else math.inf
    ccrb = 1.0 / math.sqrt(shots * fisher_cl) if fisher_cl > 0 else math.inf
    return EstimationRun(theta_true, n, trials, shots, estimates, empirical_std, qcrb, ccrb, seed,
                         fisher, fisher_cl)
