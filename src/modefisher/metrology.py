"""Interferometer model and Monte-Carlo phase estimation.

The readout is number counting in the frame of the input state: after the
rotation exp(i theta J_n) the outcome m = 0..N is drawn with probability
p_m(theta) = <m, N-m| U rho U^dag |m, N-m>.  Phase estimates maximize the
multinomial log-likelihood over a grid on (0, pi/2), refined by golden-section
search for all trials together; one rotation model per estimate gives them all.

The model has two paths.  Density matrices and pure states below
``collective.PROPAGATOR_MIN_N`` (250) rotate through J_n's dense eigenbasis, which
``collective.Rotation`` builds from the real eigenbasis of J_x, cached per N; one
product of the counts with the log-probabilities gives every trial's best grid
point.  A pure state at one angle (`rotate`, `classical_fisher`,
`measurement_probabilities` at a scalar angle, an estimate's true-angle state) is
rotated through the real eigenbasis without forming J_n's, in 0.06-0.09 ms at
N = 100 and 0.11-0.16 ms at N = 249.  Pure states from PROPAGATOR_MIN_N on use the
matrix-free propagator, stream the grid block by block and refine each trial from
its best grid point.  An estimate of 3 trials x 10^4 shots (one BLAS thread, 2-core
Xeon, a noisy host) takes 15-21 ms dense and 18-23 ms propagated at N = 200, 26 and
18-31 ms at N = 250 and about 3 s propagated at N = 10^4.

Each trial's counts are one multinomial draw of `shots` outcomes from numpy's
Philox counter-based generator keyed by (seed, trial_index), so runs are
reproducible from the seed, trials are independent, and sampling costs O(N) time
and memory per trial whatever the number of shots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collective import Direction, Propagator, Rotation, uses_propagator
from .fock import DEFAULT_TOL, SectorState, validate_state
from .qfi import qfi_pure, qfi_spectral

DEFAULT_WINDOW = (0.0, math.pi / 2)
GRID_POINTS = 512
# grid points per propagated step: a block costs about 1.6 GRID_BLOCK + 35 banded products
# and one matrix product; 16 gave the least time per point at N = 10^4
GRID_BLOCK = 16
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
    """exp(i theta J_n) for repeated rotations of one state.

    Two paths.  Density matrices and pure states below PROPAGATOR_MIN_N use J_n's dense
    eigenbasis; pure states from PROPAGATOR_MIN_N on use the matrix-free
    :class:`~modefisher.collective.Propagator`, which forms no (N+1)^2 array.  On the dense
    path a pure state at one angle is rotated in O(N^2) without forming the eigenbasis; an
    array of angles forms it once and reuses the state's coefficients in it.
    """

    def __init__(self, state: SectorState, n: Direction, tol: float = DEFAULT_TOL):
        violations = validate_state(state, tol)
        if violations:
            raise ValueError(f"invalid state: {', '.join(violations)}")
        self.state = state
        self.rotation = self.propagator = self._psi_eig = None
        if state.is_pure and uses_propagator(state.n_particles):
            self.propagator = Propagator(state.n_particles, n)
            self.generator = self.propagator.generator
        else:
            self.rotation = Rotation(state.n_particles, n)
            self.generator = self.rotation.generator

    def amplitudes(self, theta) -> np.ndarray:
        """exp(i theta J_n) c at every angle of `theta` (pure states): theta.shape + (N+1,)."""
        theta = _angles(theta)
        if self.propagator is not None:
            return self.propagator.apply(self.state.amplitudes,
                                         self.propagator.coefficients(theta))
        if theta.ndim == 0:
            return self.rotation.apply(self.state.amplitudes, theta)
        if self._psi_eig is None:
            self._psi_eig = self.rotation.eigenvectors.conj().T @ self.state.amplitudes
        # exp in place: at most two (angles, N+1) complex arrays live at once
        amp = np.multiply.outer(theta, 1j * self.rotation.eigenvalues)
        amp = np.exp(amp, out=amp) * self._psi_eig
        return amp @ self.rotation.eigenvectors.T

    def rotated(self, theta: float) -> SectorState:
        if self.state.is_pure:
            return SectorState(self.state.n_particles, self.state.frame,
                               amplitudes=self.amplitudes(theta))
        u = self.rotation.unitary(_angles(theta))
        return SectorState(self.state.n_particles, self.state.frame,
                           rho=u @ self.state.rho @ u.conj().T)

    def probabilities(self, theta) -> np.ndarray:
        """p_m at every angle of `theta` (shape theta.shape + (N+1,)); mixed states loop."""
        theta = np.asarray(theta, dtype=float)
        if self.state.is_pure:
            p = np.abs(self.amplitudes(theta)) ** 2
        else:
            p = np.array([np.diag(self.rotated(t).rho).real for t in theta.ravel()])
            p = p.reshape(theta.shape + (self.state.dim,))
        np.clip(p, 0.0, None, out=p)
        return p

    def grid_blocks(self, grid: np.ndarray):
        """(first index, p, amplitudes) over consecutive blocks of an evenly spaced grid.

        The propagated path steps GRID_BLOCK points at a time from the last amplitudes,
        with one set of coefficients for every block; the dense path and mixed states give
        the whole grid as one block, without amplitudes.
        """
        if self.propagator is None:
            yield 0, self.probabilities(grid), None
            return
        amp = self.amplitudes(grid[:1])
        yield 0, np.abs(amp) ** 2, amp
        steps = self.propagator.coefficients((grid[1] - grid[0]) * np.arange(1, GRID_BLOCK + 1))
        for start in range(1, len(grid), GRID_BLOCK):
            amp = self.propagator.apply(amp[-1], steps[:len(grid) - start])
            yield start, np.abs(amp) ** 2, amp

    def log_likelihood(self, theta: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """sum_m counts[i, m] log p_m(theta[i]) for each row i."""
        return _log_likelihood(self.probabilities(theta), counts)

    def classical_fisher(self, theta: float, amplitudes: np.ndarray | None = None) -> float:
        """sum_m (dp_m/dtheta)^2 / p_m over p_m > 1e-12, from the exact derivative of p_m.

        A pure state c(theta) (`amplitudes`, when already computed) gives
        dp_m/dtheta = -2 Im(conj(c_m) (J_n c)_m), which forms no rho and takes J_n c from
        the bands in O(N); a density matrix gives -2 Im (J_n rho(theta))_mm.
        """
        if self.state.is_pure:
            c = self.amplitudes(theta) if amplitudes is None else amplitudes
            p = (c * c.conj()).real
            dp = -2.0 * (c.conj() * self.generator.apply(c)).imag
        else:
            rho = self.rotated(theta).rho
            p = np.diag(rho).real
            dp = -2.0 * np.einsum("mj,jm->m", self.generator.matrix, rho).imag
        keep = p > 1e-12
        return float(np.sum(dp[keep] ** 2 / p[keep]))


def _angles(theta) -> np.ndarray:
    """`theta` as a float array; non-finite angles raise on the dense path as on the propagator's."""
    theta = np.asarray(theta, dtype=float)
    if not np.isfinite(theta).all():
        raise ValueError("rotation angles must be finite")
    return theta


def _log_likelihood(p: np.ndarray, counts: np.ndarray) -> np.ndarray:
    return np.einsum("im,im->i", counts, np.log(np.clip(p, 1e-300, None)))


def rotate(state: SectorState, n: Direction, theta: float, tol: float = DEFAULT_TOL) -> SectorState:
    """Apply exp(i theta J_n): dense below PROPAGATOR_MIN_N or for rho, matrix-free above."""
    return _RotationModel(state, n, tol).rotated(theta)


def measurement_probabilities(state: SectorState, n: Direction, theta) -> np.ndarray:
    """Number-counting outcome distribution p_m(theta), m = 0..N; one row per angle of an array."""
    return _RotationModel(state, n).probabilities(theta)


def classical_fisher(state: SectorState, n: Direction, theta: float,
                     tol: float = DEFAULT_TOL) -> float:
    """Fisher information of the number-counting readout, from the exact derivative of p_m."""
    return _RotationModel(state, n, tol).classical_fisher(theta)


def _golden_max(loglik, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Golden-section maximum of each row's log-likelihood on [a_i, b_i] (updated in place).

    `loglik(theta, rows)` gives the log-likelihoods of trials `rows` at angles `theta`.
    All rows step together; a row stops once its bracket is narrower than REFINE_TOL.
    """
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    every = np.arange(len(a))
    fc, fd = loglik(c, every), loglik(d, every)
    active = np.flatnonzero(b - a > REFINE_TOL)
    while active.size:
        left = fc[active] > fd[active]  # the maximum lies in [a, d]
        lt, rt = active[left], active[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = b[lt] - _GOLDEN * (b[lt] - a[lt])
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = a[rt] + _GOLDEN * (b[rt] - a[rt])
        f = loglik(np.where(left, c[active], d[active]), active)
        fc[lt], fd[rt] = f[left], f[~left]
        active = active[b[active] - a[active] > REFINE_TOL]
    return 0.5 * (a + b)


def _estimation_grid(n_particles: int) -> np.ndarray:
    """max(GRID_POINTS, N//2 + 1) points over DEFAULT_WINDOW: spacing at most pi/N, below the
    likelihood's fringe period of about 2 pi/N, so a bracket cannot hold a side fringe."""
    return np.linspace(*DEFAULT_WINDOW, max(GRID_POINTS, n_particles // 2 + 1))


def _grid_maxima(model: _RotationModel, grid: np.ndarray, counts: np.ndarray):
    """Each trial's grid index of largest log-likelihood: one product over the dense path's
    single block, streamed block by block on the propagated path.

    Also returns the amplitudes at those indices on the propagated path (else None), and
    raises NonIdentifiableError when no p_m moves over the grid.
    """
    trials = len(counts)
    best, best_ll = np.zeros(trials, dtype=int), np.full(trials, -np.inf)
    anchors = np.empty(counts.shape, dtype=complex) if model.propagator is not None else None
    p_max, p_min = np.full(counts.shape[1], -np.inf), np.full(counts.shape[1], np.inf)
    for start, p, amp in model.grid_blocks(grid):
        np.maximum(p_max, p.max(axis=0), out=p_max)
        np.minimum(p_min, p.min(axis=0), out=p_min)
        log_p = np.log(np.clip(p, 1e-300, None, out=p), out=p)
        if amp is None:  # the dense path's one block is the whole grid
            best = np.argmax(counts @ log_p.T, axis=1)  # the first maximum wins
            continue
        for trial in range(trials):
            ll = log_p @ counts[trial]
            i = int(np.argmax(ll))
            if ll[i] > best_ll[trial]:  # the first maximum wins, as in one argmax
                best[trial], best_ll[trial] = start + i, ll[i]
                if anchors is not None:
                    anchors[trial] = amp[i]
    if float((p_max - p_min).max()) < FLAT_LIKELIHOOD_TOL:
        raise NonIdentifiableError(
            "outcome probabilities are flat over the estimation window; "
            "theta is not identifiable for this configuration"
        )
    return best, anchors


def _draw_counts(p: np.ndarray, trials: int, shots: int, seed: int) -> np.ndarray:
    """(trials, N+1) outcome counts: row t is one multinomial draw of `shots` outcomes from p.

    Row t is what a fresh Generator(Philox(key=[seed, t])) draws, so it depends on neither
    the other rows nor the number of trials.  One Philox is reset to that state per trial,
    which skips the entropy read a new one makes.
    """
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng, fresh = np.random.Generator(bitgen), bitgen.state
    counts = np.empty((trials, len(p)))
    for trial in range(trials):
        fresh["state"]["key"][1] = trial
        bitgen.state = fresh  # counter 0 and an empty buffer, as a new Philox has
        counts[trial] = rng.multinomial(shots, p)
    return counts


def monte_carlo_estimate(state: SectorState, n: Direction, theta_true: float,
                         trials: int, shots: int, seed: int,
                         tol: float = DEFAULT_TOL) -> EstimationRun:
    """Run `trials` independent maximum-likelihood estimations of theta_true.

    Each trial draws its counts of `shots` outcomes from p(theta_true) with one
    multinomial call, which costs O(N) per trial whatever `shots` is, and
    maximizes the log-likelihood on a grid over DEFAULT_WINDOW of
    max(GRID_POINTS, N//2 + 1) points, so that the spacing stays below the
    likelihood's fringe period of about 2 pi/N; all trials are then refined
    together to REFINE_TOL.  On the propagated path each refinement rotates
    from its trial's best grid point.
    """
    if trials < 1 or shots < 1:
        raise ValueError("trials and shots must both be >= 1")
    if shots > np.iinfo(np.int64).max:  # multinomial counts are 64-bit integers
        raise ValueError("shots must be below 2**63")
    if not 0 <= seed < 2 ** 64:  # the seed is one 64-bit word of the Philox key
        raise ValueError("seed must be in [0, 2**64)")
    model = _RotationModel(state, n, tol)
    psi_true = model.amplitudes(theta_true) if state.is_pure else None
    p_true = model.probabilities(theta_true) if psi_true is None else np.abs(psi_true) ** 2
    counts = _draw_counts(p_true / p_true.sum(), trials, shots, seed)

    grid = _estimation_grid(state.n_particles)
    best, anchors = _grid_maxima(model, grid, counts)
    if anchors is None:
        def loglik(theta, rows):
            return model.log_likelihood(theta, counts[rows])
    else:
        def loglik(theta, rows):
            coef = model.propagator.coefficients(theta - grid[best[rows]])
            amp = model.propagator.apply(anchors[rows], coef)
            return _log_likelihood(np.abs(amp) ** 2, counts[rows])
    estimates = _golden_max(loglik, grid[np.maximum(best - 1, 0)],
                            grid[np.minimum(best + 1, len(grid) - 1)])

    empirical_std = float(np.std(estimates, ddof=1)) if trials > 1 else 0.0
    fisher = (qfi_pure(state, n, tol) if state.is_pure
              else qfi_spectral(state, model.generator, tol=tol))
    fisher_cl = model.classical_fisher(theta_true, psi_true)
    qcrb = 1.0 / math.sqrt(shots * fisher) if fisher > 0 else math.inf
    ccrb = 1.0 / math.sqrt(shots * fisher_cl) if fisher_cl > 0 else math.inf
    return EstimationRun(theta_true, n, trials, shots, estimates, empirical_std, qcrb, ccrb, seed,
                         fisher, fisher_cl)
