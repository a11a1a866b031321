"""Interferometer model and Monte-Carlo phase estimation.

The readout is number counting in the frame of the input state: after the
rotation exp(i theta J_n) the outcome m = 0..N is drawn with probability
p_m(theta) = <m, N-m| U rho U^dag |m, N-m>.  Phase estimates maximize the
multinomial log-likelihood over a grid on [0, pi/2], refined for all trials
together: golden section narrows each trial's bracket to pi/(20 N), and safeguarded
Newton steps on the likelihood's exact first and second derivatives finish it.  One
rotation model per estimate gives them all.  Each trial ends where its log-likelihood l
stops resolving, judged against l's rounding r = _RESOLUTION sum_m n_m (|log p_m| + 1/p_m):
once the Newton step predicts a gain |l''| s^2 / 2 <= r, or l's second-order model changes
by at most r over the whole bracket.  So an estimate is resolved to about
sqrt(2 r / |l''|), and the rounding of p, which changes with the BLAS thread count or with
the trials that share a batch, moves it far less than that.

The model has two paths.  Density matrices and pure states below
``collective.PROPAGATOR_MIN_N`` (250) take the dense path, through the real eigenbasis V
of J_x, cached per N; pure states from it on the propagated path.  On both, a pure state
at one angle (`classical_fisher`, `measurement_probabilities` at a scalar angle, an
estimate's true-angle state) is rotated by ``collective.apply_u2``, the image of the 2x2
matrix exp(i theta n.sigma/2), and `rotate` moves a state by that matrix through
``frames.move_state``, as a frame change does.  Every other dense call
reads p off one trigonometric polynomial: J_n's eigenvalues are k - N/2, so p_m(theta)
has degree N in e^{i theta}, and p(theta) = T(theta) @ W with W built once per model from
J_n's eigenbasis Q, ``collective.eigenbasis``, the image of the 2x2 matrix that takes z to
n.  The estimation grid, whose table T depends on N alone and is cached per N below
PROPAGATOR_MIN_N, `measurement_probabilities` at an array of angles and a density
matrix's F_cl are then one real matrix product each, and so is each refinement step,
which stacks the tables of p, p' and p''.  One product of the counts with the
log-probabilities gives every trial's best grid point.  On the propagated path the
matrix-free propagator about n rotates arrays of angles: it streams the grid block by
block and refines each trial from its best grid point, with p'' from J_n c and J_n^2 c.
A pure state's p', in its F_cl on either path and in the propagated refinement, is read
off the probability current between neighbouring Fock states in O(N), once c(theta) is
known.

Costs, for R trials: sampling O(N) per trial whatever the number of shots.  Dense path:
W in O(N^3) once per model (Q, then two FFTs for a pure state or Q^dag rho Q); the
grid one (G x 2(N+1)) @ (2(N+1) x (N+1)) product for G = max(512, N/2 + 1) points; a
refinement step one (3R x 2(N+1)) product.  Propagated path: one angle takes about
beta N/2 + 30 banded O(N) products (beta <= |theta| mod 2 pi), a grid block of GRID_BLOCK
points about 1.6 GRID_BLOCK + 35, and a refinement step rotates each trial by less than a
grid spacing.
A refinement makes 3-4 likelihood calls per estimate at N = 4 to 40, 5-7 at N = 100-150,
8-11 at N = 400 and 10-13 at N = 1000 (twin-Fock about axes in the plane).  A trial whose
maximum sits on a window edge ends on the edge itself: the refinement's first step
evaluates the edge where l' points toward it, and an edge that beats the best point, with
l' pointing out of the window, is the estimate.
Twin-Fock N = 2 and 4 about x at theta = 0.02 and pi/2 - 0.02 take at most 4 calls.

An estimate raises NonIdentifiableError when p moves over the grid by less than the
log-likelihood's rounding resolves: sum_m (p_max,m - p_min,m)^2 / pbar_m <=
_RESOLUTION (N + 1 + max_m |log pbar_m|), with pbar_m the mean of p_m over the grid.  Times
the shots, the two sides are the change of l over the window and its rounding, so the
shots cancel.

Each trial's counts are one multinomial draw of `shots` outcomes from numpy's
Philox counter-based generator keyed by (seed, trial_index), so runs are
reproducible from the seed and trials are independent.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .collective import (Direction, Propagator, apply_u2, eigenbasis, frozen, su2_bands,
                         su2_rotation, uses_propagator)
from .fock import DEFAULT_TOL, SectorState, check_state
from .frames import move_state
from .qfi import qfi_state

DEFAULT_WINDOW = (0.0, math.pi / 2)
GRID_POINTS = 512
# grid points per propagated step: a block costs about 1.6 GRID_BLOCK + 35 banded products
# and one matrix product; 16 gave the least time per point at N = 10^4
GRID_BLOCK = 16
# log-likelihoods clip p_m at this absolute floor, so an outcome of p_m = 0 adds a finite
# log on the grid and in the refinement
PROBABILITY_FLOOR = 1e-300
# the rounding of a rotated amplitude, relative to N+1 (absolute, as amplitudes have unit
# norm): where |c_m| <= AMPLITUDE_ROUNDING (N+1), c_m is zero to rounding, and a pure
# state's F_cl takes the m-th term's limit at a zero of c_m(theta).  A density matrix's
# series holds p_m to the same absolute rounding, which its F_cl uses alike
AMPLITUDE_ROUNDING = 8 * np.finfo(float).eps
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_CGOLD = 1.0 - _GOLDEN  # a golden step moves this fraction of the larger segment
_RESOLUTION = 16 * np.finfo(float).eps  # relative rounding of a log-likelihood


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
        object.__setattr__(self, "estimates", frozen(self.estimates, float))


class _RotationModel:
    """exp(i theta J_n) for repeated rotations of one state about `n`, on the module
    docstring's two paths, chosen once on construction: `propagated` for a pure state from
    PROPAGATOR_MIN_N on.  One angle takes :func:`~modefisher.collective.apply_u2`; on the
    propagated path arrays of angles take the matrix-free
    :class:`~modefisher.collective.Propagator` about n, built by the first of them.  Any
    other call evaluates :attr:`fourier`, the coefficients of p(theta) in the powers of
    e^{i theta}, built once per model from J_n's eigenbasis Q that nothing keeps, in O(N^3).

    The public entry points check the state, and the model trusts its input.
    """

    def __init__(self, state: SectorState, n: Direction):
        self.state, self.n = state, n
        self.propagated = state.is_pure and uses_propagator(state.n_particles)

    @functools.cached_property
    def propagator(self) -> Propagator:
        """exp(i theta J_n) about n, built on first read (propagated path only)."""
        return Propagator(self.state.n_particles, self.n)

    def amplitudes(self, theta) -> np.ndarray:
        """exp(i theta J_n) c (pure states): at one angle by `apply_u2`, at every angle of an
        array `theta` (shape theta.shape + (N+1,)) by the propagator (propagated path)."""
        theta = _angles(theta)
        if getattr(theta, "ndim", 0):  # a float or a 0-d array is one angle
            return self.propagator.apply(self.state.amplitudes,
                                         self.propagator.coefficients(theta))
        return apply_u2(su2_rotation(self.n, theta), self.state.amplitudes)

    @functools.cached_property
    def fourier(self) -> np.ndarray:
        """W, shape (2(N+1), N+1), with p(theta) = T(theta) @ W for T(theta) the real view of
        (1, z, ..., z^N), z = e^{i theta}; built on first read (dense path only).

        J_n's eigenvalues are k - N/2, so p_m(theta) = Re sum_d w_d C_md z^d with w_0 = 1,
        w_d = 2 for d > 0 and C_md = sum_k Q_m,k+d r_k+d,k Q*_mk, r = Q^dag rho Q; W holds
        the real view of w_d conj(C_md).  A pure state's C_m. is the autocorrelation of the
        row A_m. = Q_m. * (Q^dag c), taken with two FFTs: O(N^2 log N).  A density matrix sums
        each diagonal of r: O(N^3).  Q is :func:`~modefisher.collective.eigenbasis`, one
        O(N^3) product with V, read once for either kind of state.
        """
        dim, q = self.state.dim, eigenbasis(self.state.n_particles, self.n)
        if self.state.is_pure:
            a = q * (self.state.amplitudes.conj() @ q).conj()  # Q^dag c without forming Q^dag
            size = 1 << (2 * dim - 2).bit_length()  # at least 2N + 1: no lag wraps around
            f = np.fft.fft(a, size, axis=1)
            coef = np.fft.rfft(f.real ** 2 + f.imag ** 2, axis=1)[:, :dim] / size
        else:
            q_conj = q.conj()
            r = q_conj.T @ self.state.rho @ q
            coef = np.empty((dim, dim), dtype=complex)
            for d in range(dim):  # conj(C_md) = sum_k Q*_m,k+d r_k,k+d Q_mk
                coef[:, d] = np.einsum("mk,k,mk->m", q_conj[:, d:], np.diagonal(r, d),
                                       q[:, :dim - d])
        coef[:, 1:] *= 2.0
        return np.ascontiguousarray(coef.view(float).T)

    def series(self, theta: np.ndarray, order: int = 0) -> np.ndarray:
        """p and its first `order` theta-derivatives at every finite angle of `theta`, stacked
        on a leading axis (shape (order + 1,) + theta.shape + (N+1,)): one complex exp per
        angle and one real product of the stacked tables T, T', ... with W."""
        return _powers(np.asarray(theta), self.state.dim, order).view(float) @ self.fourier

    def probabilities(self, theta) -> np.ndarray:
        """p_m at every angle of `theta` (shape theta.shape + (N+1,)).

        A pure state at one angle, or on the propagated path, is rotated; every other call
        evaluates the series :attr:`fourier`.
        """
        if self.propagated or (self.state.is_pure and np.ndim(theta) == 0):
            return np.abs(self.amplitudes(theta)) ** 2
        p = self.series(_angles(theta))[0]
        np.clip(p, 0.0, None, out=p)
        return p

    def grid_blocks(self, grid: np.ndarray):
        """(first index, p, amplitudes) over consecutive blocks of the estimation grid,
        `grid` = `_estimation_grid(N)`.

        The propagated path steps GRID_BLOCK points at a time from the last amplitudes,
        with one set of coefficients for every block; the dense path and mixed states give
        the whole grid as one block, without amplitudes: one product of the grid's table T,
        which depends on N alone, with W, equal to `probabilities(grid)`.
        """
        if not self.propagated:
            p = _grid_table(self.state.n_particles) @ self.fourier
            np.clip(p, 0.0, None, out=p)
            yield 0, p, None
            return
        amp = self.amplitudes(grid[:1])
        yield 0, np.abs(amp) ** 2, amp
        steps = self.propagator.coefficients((grid[1] - grid[0]) * np.arange(1, GRID_BLOCK + 1))
        for start in range(1, len(grid), GRID_BLOCK):
            amp = self.propagator.apply(amp[-1], steps[:len(grid) - start])
            yield start, np.abs(amp) ** 2, amp

    def classical_fisher(self, theta: float, amplitudes: np.ndarray | None = None) -> float:
        """sum_m (dp_m/dtheta)^2 / p_m, from the exact derivative of p_m.

        J_n = n_z J_z + (h J_+ + h.c.) with h = (n_x - i n_y)/2.  A pure state c(theta)
        (`amplitudes`, when already computed) gives F_cl in O(N) from c and the J_+ band r,
        on both paths, by :func:`_pure_fisher`: p' from the probability current between
        neighbouring Fock states, and at a zero of c_m (|c_m| <= AMPLITUDE_ROUNDING (N+1))
        the term's limit 4 |(J_n c)_m|^2.  A density matrix differentiates the series
        :attr:`fourier` twice.  A zero of p_m >= 0 is a double zero: p ~ p'' t^2/2 and
        p' ~ p'' t there, and the term's limit is 2 p''_m.  The term takes it where p_m is
        zero to the series' rounding r = AMPLITUDE_ROUNDING (N+1), or within r of the floor
        p'^2/(2 p'') of its parabola, where the two forms agree to r/p_m.  A minimum of p_m
        above r, as a small eigenvalue of rho gives, keeps p'^2/p.  h = 0 (n = ±z) leaves
        every p_m constant, so F_cl is exactly 0 there, and nothing is built.
        """
        theta = _angles(theta, one=True)
        half = 0.5 * complex(self.n.n_x, -self.n.n_y)
        if half == 0:
            return 0.0
        if self.state.is_pure:
            c = self.amplitudes(theta) if amplitudes is None else amplitudes
            return _pure_fisher(half * su2_bands(self.state.n_particles)[1], c)
        p, dp, ddp = self.series(theta, order=2)
        rounding = AMPLITUDE_ROUNDING * self.state.dim
        zero = (p <= rounding) | ((ddp > 0.0)
                                  & (np.abs(2.0 * ddp * p - dp ** 2) <= 2.0 * ddp * rounding))
        return float((dp[~zero] ** 2 / p[~zero]).sum() + 2.0 * ddp[zero].sum())


def _pure_fisher(lower: np.ndarray, c: np.ndarray) -> float:
    """F_cl = sum_m (p'_m)^2 / p_m of amplitudes c (N+1,) rotated about n, in O(N), where
    `lower` = h r is J_n's band below the diagonal: h = (n_x - i n_y)/2, r the J_+ band.

    dc/dtheta = i J_n c, and J_n's diagonal adds nothing to p_m = |c_m|^2, so p' obeys a
    continuity equation: with the current g_k = Im(h r_k c_k conj(c_k+1)) between
    neighbouring Fock states, p'_m = 2 (g_m - g_m-1), g_-1 = g_N = 0.  Where
    |c_m| <= AMPLITUDE_ROUNDING (N+1), c_m is zero to rounding and the term takes its limit
    at a zero of c_m(theta), 4 |(J_n c)_m|^2 with c_m = 0:
    4 |h r_m-1 c_m-1 + conj(h) r_m c_m+1|^2.
    """
    p, half_slope = (c * c.conj()).real, _half_slope(lower, c)
    floor = (AMPLITUDE_ROUNDING * len(c)) ** 2
    if p.min() > floor:
        return 4.0 * float(half_slope @ (half_slope / p))
    keep = p > floor
    jc = np.zeros(len(c), dtype=complex)  # J_n c without its diagonal
    jc[1:] = lower * c[:-1]
    jc[:-1] += lower.conj() * c[1:]
    jc = jc[~keep]
    half_slope = half_slope[keep]
    return 4.0 * float(half_slope @ (half_slope / p[keep])
                       + (jc.real ** 2 + jc.imag ** 2).sum())


def _half_slope(lower: np.ndarray, c: np.ndarray) -> np.ndarray:
    """p'/2 = g_m - g_m-1 for amplitudes c of shape (..., N+1), each row on its own (see
    :func:`_pure_fisher`): O(N) a row, and sum_m p'_m = 0."""
    current = (lower * c[..., :-1] * c[..., 1:].conj()).imag
    half_slope = np.zeros(c.shape)
    half_slope[..., :-1] = current
    half_slope[..., 1:] -= current
    return half_slope


def _angles(theta, one: bool = False):
    """A float `theta` as it is, anything else as a float array; non-finite angles raise on
    the dense path as on the propagator's, and with `one` so does anything but one angle."""
    if isinstance(theta, float):
        finite = math.isfinite(theta)
    else:
        theta = np.asarray(theta, dtype=float)
        if one and theta.ndim:
            raise ValueError(f"theta must be one angle, not an array of shape {theta.shape}")
        finite = np.isfinite(theta).all()
    if not finite:
        raise ValueError("rotation angles must be finite")
    return theta


def _powers(theta: np.ndarray, dim: int, order: int = 0) -> np.ndarray:
    """The tables T, T', ... at every angle of `theta`, stacked on a leading axis: (1, z, ...,
    z^(dim-1)), z = e^{i theta}, and its first `order` theta-derivatives, complex, of shape
    (order + 1,) + theta.shape + (dim,)."""
    powers = np.empty((order + 1,) + theta.shape + (dim,), dtype=complex)
    powers[0, ..., 0] = 1.0
    powers[0, ..., 1:] = np.exp(1j * theta)[..., None]
    np.cumprod(powers[0], axis=-1, out=powers[0])
    for k in range(1, order + 1):  # d z^d / d theta = i d z^d
        np.multiply(powers[k - 1], 1j * np.arange(dim), out=powers[k])
    return powers


def _build_grid_table(n_particles: int) -> np.ndarray:
    """The real view of T over `_estimation_grid(N)`, shape (points, 2(N+1)), read-only."""
    table = _powers(_estimation_grid(n_particles), n_particles + 1)[0].view(float)
    table.setflags(write=False)
    return table


# below PROPAGATOR_MIN_N the grid has 512 points, so an entry is 512 x 2(N+1) doubles, at
# most 2 MB (N = 249), and the cache holds at most 8 MB
_cached_grid_table = functools.lru_cache(maxsize=4)(_build_grid_table)


def _grid_table(n_particles: int) -> np.ndarray:
    """T over the estimation grid: cached below PROPAGATOR_MIN_N, built per call from it on,
    where only density matrices take the dense path."""
    return (_build_grid_table if uses_propagator(n_particles) else _cached_grid_table)(n_particles)


def _pure_series(generator, c: np.ndarray) -> np.ndarray:
    """p = |c|^2 and its first two theta-derivatives, shape (3,) + c.shape, for amplitudes
    c(theta) = exp(i theta J_n) c_0 of shape (..., N+1).

    p' comes from the probability current, as a pure state's F_cl takes it
    (:func:`_half_slope` with J_n's lower band).  dc/dtheta = i J_n c gives
    p'' = 2 (|J_n c|^2 - Re(conj(c) J_n^2 c)): two banded products, O(N) a vector.
    """
    jc = generator.apply(c)
    return np.stack([(c * c.conj()).real, 2.0 * _half_slope(generator.lower, c),
                     2.0 * ((jc * jc.conj()).real - (c.conj() * generator.apply(jc)).real)])


def _log_likelihood(p: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """l, l', l'' and r (shape (4, R)) of the counts (R, N+1), from p, p' and p'' (shape
    (3, R, N+1)).

    l = sum_m n_m log p_m, l' = sum_m n_m p'_m / p_m and
    l'' = sum_m n_m (p''_m / p_m - (p'_m / p_m)^2), with p_m clipped at PROBABILITY_FLOOR as on
    the grid.  r = _RESOLUTION sum_m n_m (|log p_m| + 1/p_m) is the rounding of l: each log
    rounds relative to itself, and p_m rounds by about eps absolute (amplitudes have unit
    norm), which moves log p_m by eps/p_m.  It is the per-trial form of the rounding that
    `_grid_maxima` judges flatness by; `_refine_max` ends a row where l stops resolving.
    Unobserved outcomes add nothing.  Where an observed p_m is near that floor the ratios can
    overflow: l' and l'' are then not finite, and the refinement takes no Newton step there.
    """
    prob = np.clip(p[0], PROBABILITY_FLOOR, None)
    terms = np.zeros((4,) + p.shape[1:])
    np.log(prob, out=terms[0])
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(p[1:], prob, out=terms[1:3], where=counts > 0)
        terms[2] -= terms[1] ** 2
        terms[3] = np.abs(terms[0]) + 1.0 / prob
        f = np.einsum("im,kim->ki", counts, terms)
    f[3] *= _RESOLUTION
    return f


def rotate(state: SectorState, n: Direction, theta: float, tol: float = DEFAULT_TOL) -> SectorState:
    """Apply exp(i theta J_n), the image of exp(i theta n.sigma/2), by `frames.move_state`."""
    check_state(state, tol)
    return move_state(state, su2_rotation(n, _angles(theta, one=True)), state.frame)


def measurement_probabilities(state: SectorState, n: Direction, theta,
                              tol: float = DEFAULT_TOL) -> np.ndarray:
    """Number-counting outcome distribution p_m(theta), m = 0..N; one row per angle of an array."""
    check_state(state, tol)
    return _RotationModel(state, n).probabilities(theta)


def classical_fisher(state: SectorState, n: Direction, theta: float,
                     tol: float = DEFAULT_TOL) -> float:
    """Fisher information of the number-counting readout, sum_m (dp_m/dtheta)^2 / p_m, from
    the exact derivative of p_m.

    For a pure state every outcome counts: at a zero of c_m(theta) the term takes its limit
    4 |(J_n c)_m|^2, so a Fock state at theta = 0 gets F_cl = F.  For a density matrix an
    outcome at a zero of p_m, to rounding, takes its limit 2 p''_m.  See
    `_RotationModel.classical_fisher`.
    """
    check_state(state, tol)
    return _RotationModel(state, n).classical_fisher(theta)


def _refine_max(loglik, a: np.ndarray, b: np.ndarray, switch: float) -> np.ndarray:
    """Each row's maximum of the log-likelihood on [a_i, b_i], within DEFAULT_WINDOW: golden
    section until the bracket is narrower than `switch`, then safeguarded Newton steps, and the
    window's edge itself where the maximum sits on it.

    `loglik(theta, rows)` gives l, l', l'' and r, the rounding of l (shape (4, len(rows))), of
    trials `rows` at angles `theta`.  The refinement holds its live rows only: for each, its
    trial index, a bracket [a, b], x, its best point so far, l, l', l'' and r at x, and its
    last step.  Each step evaluates one point u per row; golden section's comparison of x and
    u then keeps [a, right] when the left of the two is better, else [left, b], and the better
    becomes x.  The first u is the window edge for a bracket that ends on that edge with l' at
    x pointing toward it (keyed on the sign of l', so a row with l'' >= 0 is pulled too).
    Otherwise u is the Newton point x + s, s = -l'/l'', when the bracket is narrower than
    `switch`, l'' < 0, the point lies strictly inside (a, b) and the step is at most half the
    previous one; else u is a golden-section step into the larger of [a, x] and [x, b], so the
    bracket always shrinks.

    A row ends at x where l stops resolving: once the Newton step predicts a gain
    |l''| s^2 / 2 <= r, once the second-order model of l about x changes by at most r over the
    whole bracket, |l'| w + |l''| w^2 / 2 <= r with w the larger distance from x to either
    end, or once u equals x in floating point (which ends a row whose l'' is not finite).  So
    an estimate is resolved to about sqrt(2 r / |l''|), and rounding in p or in the order of a
    batch's rows moves it by less.  A row also ends in the step that evaluates its edge, if the
    edge beats x with l' there pointing out of the window (or l' = 0 and l'' < 0): its estimate
    is then the edge exactly.  All rows step together, so the slowest row sets the number of
    calls (see the module docstring).  A row whose maximum sits on an edge ends after two: its
    golden pair and the edge.
    """
    trials = len(a)
    rows = np.arange(trials)
    low, high = DEFAULT_WINDOW
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f = loglik(np.concatenate([c, d]), np.concatenate([rows, rows]))
    left = f[0, :trials] > f[0, trials:]  # the maximum lies in [a, d]
    a, b = np.where(left, a, c), np.where(left, d, b)
    x, fx = np.where(left, c, d), np.where(left, f[:, :trials], f[:, trials:])
    step = b - a
    # a bracket that ends on a window edge, with l' at x toward it, steps to the edge first
    pull = np.where(fx[1] < 0, a == low, (fx[1] > 0) & (b == high))
    pull = pull if pull.any() else None
    estimates = np.empty(trials)
    while True:
        slope, curve, rounding = fx[1:]
        width = np.maximum(b - x, x - a)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = -slope / curve
            resolved = 0.5 * np.abs(curve) * newton ** 2 <= rounding  # the Newton step's gain
            flat = np.abs(slope) * width + 0.5 * np.abs(curve) * width ** 2 <= rounding
        u = x + newton
        take = ((b - a < switch) & (-np.inf < curve) & (curve < 0.0) & (a < u) & (u < b)
                & (np.abs(newton) <= 0.5 * np.abs(step)))
        golden = np.where(b - x > x - a, x + _CGOLD * (b - x), x - _CGOLD * (x - a))
        u = np.where(take, u, golden)
        done = (take & resolved) | flat | (u == x)
        estimates[rows[done]] = x[done]
        if pull is not None:  # the first step
            u = np.where(pull, np.where(slope < 0, low, high), u)
        live = ~done
        a, b, x, fx, u, rows = (v[..., live] for v in (a, b, x, fx, u, rows))
        if not rows.size:
            return estimates
        step = u - x
        fu = loglik(u, rows)
        u_left = u < x
        keep_left = np.where(u_left, fu[0], fx[0]) > np.where(u_left, fx[0], fu[0])
        a, b = np.where(keep_left, a, np.minimum(u, x)), np.where(keep_left, np.maximum(u, x), b)
        moved = keep_left == u_left
        x, fx = np.where(moved, u, x), np.where(moved, fu, fx)
        if pull is not None:
            # an edge that beats x, with l' there pointing out of the window (or l' = 0 and
            # l'' < 0), is the maximum
            outward = np.where(u == low, -fu[1], fu[1])
            edge = pull[live] & moved & ((outward > 0) | ((outward == 0) & (fu[2] < 0)))
            estimates[rows[edge]] = x[edge]
            a, b, x, fx, step, rows = (v[..., ~edge] for v in (a, b, x, fx, step, rows))
            pull = None


def _estimation_grid(n_particles: int) -> np.ndarray:
    """max(GRID_POINTS, N//2 + 1) points over DEFAULT_WINDOW: spacing at most pi/N, below the
    likelihood's fringe period of about 2 pi/N, so a bracket cannot hold a side fringe."""
    return np.linspace(*DEFAULT_WINDOW, max(GRID_POINTS, n_particles // 2 + 1))


def _grid_maxima(model: _RotationModel, grid: np.ndarray, counts: np.ndarray):
    """Each trial's grid index of largest log-likelihood, from one product of the counts with
    the log-probabilities per block: the dense path's single block, or the propagated path's
    blocks in turn, where a later block wins only with a strictly larger value, so the first
    maximum wins as in one argmax.

    Also returns the amplitudes at those indices on the propagated path (else None).  It
    raises NonIdentifiableError when p moves over the grid by less than the log-likelihood's
    rounding resolves: sum_m (p_max,m - p_min,m)^2 / pbar_m <=
    _RESOLUTION (N + 1 + max_m |log pbar_m|), with pbar_m the mean of p_m over the grid
    (outcomes with pbar_m = 0 dropped).  Times the shots, the left side is the scale of a
    trial's change in l over the window (the chi-square distance between the extremes of p).
    The right side bounds l's rounding: l = sum_m n_m log p_m rounds by about
    eps sum_m n_m (|log p_m| + delta_m / p_m), with delta_m ~ eps the absolute rounding of
    p_m, and n_m ~ shots pbar_m.  So the shots cancel.  Below it the maximum's place is set
    by rounding, not by the counts; a weakly sensitive state with few shots is still
    estimated.
    """
    trials = np.arange(len(counts))
    best, best_ll = np.zeros(len(counts), dtype=int), np.full(len(counts), -np.inf)
    anchors = np.empty(counts.shape, dtype=complex) if model.propagated else None
    p_max, p_min = np.full(counts.shape[1], -np.inf), np.full(counts.shape[1], np.inf)
    p_sum = np.zeros(counts.shape[1])
    for start, p, amp in model.grid_blocks(grid):
        np.maximum(p_max, p.max(axis=0), out=p_max)
        np.minimum(p_min, p.min(axis=0), out=p_min)
        p_sum += p.sum(axis=0)
        ll = counts @ np.log(np.clip(p, PROBABILITY_FLOOR, None, out=p), out=p).T
        i = np.argmax(ll, axis=1)
        wins = ll[trials, i] > best_ll
        best[wins], best_ll[wins] = start + i[wins], ll[trials, i][wins]
        if anchors is not None:
            anchors[wins] = amp[i[wins]]
    seen = p_sum > 0
    p_mean = p_sum[seen] / len(grid)
    spread = ((p_max - p_min)[seen] ** 2 / p_mean).sum()
    if spread <= _RESOLUTION * (counts.shape[1] + np.abs(np.log(p_mean)).max()):
        raise NonIdentifiableError(
            "outcome probabilities move less over the estimation window than the "
            "log-likelihood resolves; theta is not identifiable for this configuration"
        )
    return best, anchors


def _draw_counts(p: np.ndarray, trials: int, shots: int, seed: int) -> np.ndarray:
    """(trials, N+1) outcome counts: row t is one multinomial draw of `shots` outcomes from p.

    Row t is what a fresh Generator(Philox(key=[seed, t])) draws, so it depends on neither
    the other rows nor the number of trials.  One Philox is reset to that state per trial,
    which skips the entropy read a new one makes; the state is given as plain Python ints,
    which the setter converts faster than the arrays `bitgen.state` returns.
    """
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    # counter 0 and an empty buffer, as a new Philox has
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [seed, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    counts = np.empty((trials, len(p)))
    for trial in range(trials):
        fresh["state"]["key"][1] = trial
        bitgen.state = fresh
        counts[trial] = rng.multinomial(shots, p)
    return counts


def _cramer_rao(shots: int, fisher: float) -> float:
    """The Cramer-Rao bound 1/sqrt(shots F) on the phase; infinite when F is not positive."""
    return 1.0 / math.sqrt(shots * fisher) if fisher > 0 else math.inf


class PhaseEstimator:
    """Monte-Carlo maximum-likelihood estimation of the phase of one state rotated about n.

    It holds what the state and n fix: one rotation model and the quantum Fisher information
    F.  Estimates at many angles, shot and trial counts (a `modefisher sweep`) share them, so
    the model's W is built and a density matrix decomposed once.
    """

    def __init__(self, state: SectorState, n: Direction, tol: float = DEFAULT_TOL):
        # F checks the state; for rho, the spectral sum's eigh is its one eigendecomposition
        self.fisher = qfi_state(state, n, tol)
        self.model = _RotationModel(state, n)

    def classical_fisher(self, theta: float) -> float:
        """F_cl of the number-counting readout at theta, from the exact derivative of p_m."""
        return self.model.classical_fisher(theta)

    def estimate(self, theta_true: float, trials: int, shots: int, seed: int) -> EstimationRun:
        """`trials` independent estimates of theta_true from `shots` outcomes each; see
        :func:`monte_carlo_estimate`."""
        if trials < 1 or shots < 1:
            raise ValueError("trials and shots must both be >= 1")
        if shots > np.iinfo(np.int64).max:  # multinomial counts are 64-bit integers
            raise ValueError("shots must be below 2**63")
        if not 0 <= seed < 2 ** 64:  # the seed is one 64-bit word of the Philox key
            raise ValueError("seed must be in [0, 2**64)")
        if not DEFAULT_WINDOW[0] <= _angles(theta_true, one=True) <= DEFAULT_WINDOW[1]:
            raise ValueError(f"theta_true {theta_true} is outside the estimation window [0, pi/2]")
        model, n_particles = self.model, self.model.state.n_particles
        psi_true = model.amplitudes(theta_true) if model.state.is_pure else None
        p_true = model.probabilities(theta_true) if psi_true is None else np.abs(psi_true) ** 2
        counts = _draw_counts(p_true / p_true.sum(), trials, shots, seed)

        grid = _estimation_grid(n_particles)
        best, anchors = _grid_maxima(model, grid, counts)
        if anchors is None:
            def loglik(theta, rows):
                return _log_likelihood(model.series(theta, order=2), counts[rows])
        else:
            def loglik(theta, rows):
                coef = model.propagator.coefficients(theta - grid[best[rows]])
                amp = model.propagator.apply(anchors[rows], coef)
                return _log_likelihood(_pure_series(model.propagator.generator, amp),
                                       counts[rows])
        # Newton takes over once a bracket is narrower than pi/(20 N), a fortieth of the fringe
        # period: golden section has then left one hump of the likelihood in it.  From
        # pi/(4 N), Newton climbed another hump in 2 of the sweep test's 576 configurations
        # run with 40 trials.
        estimates = _refine_max(loglik, grid[np.maximum(best - 1, 0)],
                                grid[np.minimum(best + 1, len(grid) - 1)],
                                math.pi / (20 * n_particles))

        empirical_std = float(np.std(estimates, ddof=1)) if trials > 1 else 0.0
        fisher_cl = model.classical_fisher(theta_true, psi_true)
        return EstimationRun(theta_true, model.n, trials, shots, estimates, empirical_std,
                             _cramer_rao(shots, self.fisher), _cramer_rao(shots, fisher_cl),
                             seed, self.fisher, fisher_cl)


def monte_carlo_estimate(state: SectorState, n: Direction, theta_true: float,
                         trials: int, shots: int, seed: int,
                         tol: float = DEFAULT_TOL) -> EstimationRun:
    """Run `trials` independent maximum-likelihood estimations of theta_true.

    Each trial draws its `shots` outcomes from p(theta_true) in O(N) whatever `shots` is, and
    maximizes the log-likelihood on a grid of max(GRID_POINTS, N//2 + 1) points over
    DEFAULT_WINDOW, refined as the module docstring describes: each trial ends where its
    log-likelihood stops resolving against its rounding r, so it is resolved to about
    sqrt(2 r / |l''|) (see `_refine_max`).  A density matrix is eigendecomposed once, by the
    spectral Fisher information.  Raises ValueError unless theta_true is one angle in the window
    (one outside would be estimated as its alias inside), and NonIdentifiableError when p moves
    less over the window than the log-likelihood resolves (see `_grid_maxima`).
    """
    return PhaseEstimator(state, n, tol).estimate(theta_true, trials, shots, seed)
