"""Interferometer model and Monte-Carlo phase estimation.

The readout is number counting in the frame of the input state: after the
rotation exp(i theta J_n) the outcome m = 0..N is drawn with probability
p_m(theta) = <m, N-m| U rho U^dag |m, N-m>.  Phase estimates maximize the
multinomial log-likelihood over a grid on (0, pi/2), refined by golden-section
search for all trials together; one rotation model per estimate gives them all.

Sampling uses numpy's Philox counter-based generator keyed by
(seed, trial_index), so runs are reproducible shot for shot and trials are
independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collective import Direction, Rotation
from .fock import DEFAULT_TOL, SectorState, validate_state
from .qfi import qfi_pure, qfi_spectral

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

    def __init__(self, state: SectorState, n: Direction, tol: float = DEFAULT_TOL):
        violations = validate_state(state, tol)
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

    def probabilities(self, theta) -> np.ndarray:
        """p_m at every angle of `theta` (shape theta.shape + (N+1,)); mixed states loop."""
        theta = np.asarray(theta, dtype=float)
        if self._psi_eig is not None:
            # exp in place: at most two (angles, N+1) complex arrays live at once
            amp = np.multiply.outer(theta, 1j * self.rotation.eigenvalues)
            amp = np.exp(amp, out=amp) * self._psi_eig
            amp = amp @ self.rotation.eigenvectors.T
            p = np.abs(amp) ** 2
        else:
            p = np.array([np.diag(self.rotated(t).rho).real for t in theta.ravel()])
            p = p.reshape(theta.shape + (self.state.dim,))
        np.clip(p, 0.0, None, out=p)
        return p

    def log_likelihood(self, theta: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """sum_m counts[i, m] log p_m(theta[i]) for each row i."""
        log_p = np.log(np.clip(self.probabilities(theta), 1e-300, None))
        return np.einsum("im,im->i", counts, log_p)

    def classical_fisher(self, theta: float) -> float:
        """sum_m (dp_m/dtheta)^2 / p_m over p_m > 1e-12, dp_m/dtheta = -2 Im (J_n rho(theta))_mm."""
        rho = self.rotated(theta).density_matrix()
        p = np.diag(rho).real
        dp = -2.0 * np.einsum("mj,jm->m", self.rotation.generator.matrix, rho).imag
        keep = p > 1e-12
        return float(np.sum(dp[keep] ** 2 / p[keep]))


def rotate(state: SectorState, n: Direction, theta: float, tol: float = DEFAULT_TOL) -> SectorState:
    """Apply exp(i theta J_n) through the eigendecomposition of J_n."""
    return _RotationModel(state, n, tol).rotated(theta)


def measurement_probabilities(state: SectorState, n: Direction, theta) -> np.ndarray:
    """Number-counting outcome distribution p_m(theta), m = 0..N; one row per angle of an array."""
    return _RotationModel(state, n).probabilities(theta)


def classical_fisher(state: SectorState, n: Direction, theta: float,
                     tol: float = DEFAULT_TOL) -> float:
    """Fisher information of the number-counting readout, from the exact derivative of p_m."""
    return _RotationModel(state, n, tol).classical_fisher(theta)


def _golden_max(model: _RotationModel, counts: np.ndarray, a: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """Golden-section maximum of each row's log-likelihood on [a_i, b_i] (updated in place).

    All rows step together; a row stops once its bracket is narrower than REFINE_TOL.
    """
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = model.log_likelihood(c, counts), model.log_likelihood(d, counts)
    active = np.flatnonzero(b - a > REFINE_TOL)
    while active.size:
        left = fc[active] > fd[active]  # the maximum lies in [a, d]
        lt, rt = active[left], active[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = b[lt] - _GOLDEN * (b[lt] - a[lt])
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = a[rt] + _GOLDEN * (b[rt] - a[rt])
        f = model.log_likelihood(np.where(left, c[active], d[active]), counts[active])
        fc[lt], fd[rt] = f[left], f[~left]
        active = active[b[active] - a[active] > REFINE_TOL]
    return 0.5 * (a + b)


def monte_carlo_estimate(state: SectorState, n: Direction, theta_true: float,
                         trials: int, shots: int, seed: int,
                         tol: float = DEFAULT_TOL) -> EstimationRun:
    """Run `trials` independent maximum-likelihood estimations of theta_true.

    Each trial draws `shots` outcomes from p(theta_true) by inverse-CDF
    sampling and maximizes the log-likelihood on a GRID_POINTS grid over
    DEFAULT_WINDOW; all trials are then refined together to REFINE_TOL.
    """
    if trials < 1 or shots < 1:
        raise ValueError("trials and shots must both be >= 1")
    model = _RotationModel(state, n, tol)
    grid = np.linspace(*DEFAULT_WINDOW, GRID_POINTS)
    prob_grid = model.probabilities(grid)
    spread = float((prob_grid.max(axis=0) - prob_grid.min(axis=0)).max())
    if spread < FLAT_LIKELIHOOD_TOL:
        raise NonIdentifiableError(
            "outcome probabilities are flat over the estimation window; "
            "theta is not identifiable for this configuration"
        )
    log_grid = np.log(np.clip(prob_grid, 1e-300, None, out=prob_grid), out=prob_grid)

    p_true = model.probabilities(theta_true)
    p_true = p_true / p_true.sum()
    cdf = np.cumsum(p_true)
    cdf[-1] = 1.0

    counts = np.empty((trials, state.dim))
    best = np.empty(trials, dtype=int)
    for trial in range(trials):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))
        draws = np.searchsorted(cdf, rng.random(shots), side="right")
        counts[trial] = np.bincount(draws, minlength=state.dim)
        best[trial] = np.argmax(log_grid @ counts[trial])
    estimates = _golden_max(model, counts, grid[np.maximum(best - 1, 0)],
                            grid[np.minimum(best + 1, GRID_POINTS - 1)])

    empirical_std = float(np.std(estimates, ddof=1)) if trials > 1 else 0.0
    fisher = (qfi_pure(state, n, tol) if state.is_pure
              else qfi_spectral(state, model.rotation.generator, tol=tol))
    fisher_cl = model.classical_fisher(theta_true)
    qcrb = 1.0 / math.sqrt(shots * fisher) if fisher > 0 else math.inf
    ccrb = 1.0 / math.sqrt(shots * fisher_cl) if fisher_cl > 0 else math.inf
    return EstimationRun(theta_true, n, trials, shots, estimates, empirical_std, qcrb, ccrb, seed,
                         fisher, fisher_cl)
