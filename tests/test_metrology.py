import cmath
import math
import tracemalloc

import numpy as np
import pytest

from modefisher import (Direction, NonIdentifiableError, bogolubov_frame, classical_fisher,
                        density_state, diagonal_state, direction_generator, make_fock_state,
                        measurement_probabilities, monte_carlo_estimate,
                        pure_state, qfi_spectral, rotate, transform_state, validate_state)
from modefisher import collective, fock, frames, metrology, qfi
from modefisher.collective import ladder
from modefisher.fock import DEFAULT_TOL
from modefisher.metrology import DEFAULT_WINDOW, GRID_POINTS

# the reference golden sections' tolerance, and the scale of the bounds that compare the
# refinement with them: the refinement itself ends where the log-likelihood stops resolving
REFINE_TOL = 1e-8


def _scalar_golden_max(f, a, b, tol):
    """Reference golden-section search for the maximum of f on [a, b], one trial at a time."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _golden_max(f, a, b):
    """Golden section on [a_i, b_i] for every row i in lock-step, to REFINE_TOL: the
    refinement estimates ran before Newton steps finished it.  `f(theta, rows)` gives the
    log-likelihoods of trials `rows` at angles `theta`."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    every = np.arange(len(a))
    fc, fd = f(c, every), f(d, every)
    active = np.flatnonzero(b - a > REFINE_TOL)
    while active.size:
        left = fc[active] > fd[active]  # the maximum lies in [a, d]
        lt, rt = active[left], active[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = b[lt] - g * (b[lt] - a[lt])
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = a[rt] + g * (b[rt] - a[rt])
        values = f(np.where(left, c[active], d[active]), active)
        fc[lt], fd[rt] = values[left], values[~left]
        active = active[b[active] - a[active] > REFINE_TOL]
    return 0.5 * (a + b)


def _fresh_draw(p, shots, seed, trial):
    """One trial's counts as a new generator keyed by (seed, trial) draws them."""
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).multinomial(shots, p)


class TestRotate:
    def test_jz_phases_on_fock_states(self):
        theta = 0.7
        for big_n, k in ((3, 1), (5, 5)):
            rotated = rotate(make_fock_state(k, big_n), Direction(0, 0, 1), theta)
            expected_phase = np.exp(1j * theta * (2 * k - big_n) / 2)
            assert rotated.amplitudes[k] == pytest.approx(expected_phase, abs=1e-10)
            rho = rotated.density_matrix()
            target = np.zeros((big_n + 1, big_n + 1))
            target[k, k] = 1.0
            assert np.abs(rho - target).max() <= 1e-10

    def test_theta_zero_identity(self):
        state = pure_state(np.array([0.6, 0.8j, 0.0]))
        rotated = rotate(state, Direction(0, 1, 0), 0.0)
        assert np.abs(rotated.amplitudes - state.amplitudes).max() <= 1e-12

    def test_pi_about_x_swaps_poles(self):
        big_n = 4
        rotated = rotate(make_fock_state(big_n, big_n), Direction(1, 0, 0), math.pi)
        probs = np.abs(rotated.amplitudes) ** 2
        assert probs[0] == pytest.approx(1.0, abs=1e-10)

    def test_composition(self):
        state = make_fock_state(1, 3)
        n = Direction(0.6, 0.0, 0.8)
        one = rotate(rotate(state, n, 0.4), n, 0.9)
        two = rotate(state, n, 1.3)
        assert np.abs(one.amplitudes - two.amplitudes).max() <= 1e-10

    def test_unitarity_preserved(self):
        state = make_fock_state(2, 5)
        rotated = rotate(state, Direction(0, 1, 0), 1.7)
        assert np.sum(np.abs(rotated.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-10)


class TestMeasurementProbabilities:
    def test_theta_zero_delta(self):
        p = measurement_probabilities(make_fock_state(2, 4), Direction(1, 0, 0), 0.0)
        assert np.allclose(p, [0, 0, 1, 0, 0], atol=1e-12)

    def test_z_rotation_leaves_diagonal_states_alone(self):
        rng = np.random.default_rng(4)
        state = diagonal_state(rng.dirichlet(np.ones(5)))
        p0 = measurement_probabilities(state, Direction(0, 0, 1), 0.0)
        p1 = measurement_probabilities(state, Direction(0, 0, 1), 1.1)
        assert np.abs(p0 - p1).max() <= 1e-12

    def test_normalized(self):
        p = measurement_probabilities(make_fock_state(1, 2), Direction(1, 0, 0), math.pi / 2)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)
        assert p.min() >= 0.0

    def test_tolerance_reaches_validation(self):
        # a norm off by 1e-8 passes tol = 1e-6 here as it does in rotate and classical_fisher
        rng = np.random.default_rng(14)
        c = rng.normal(size=5) + 1j * rng.normal(size=5)
        state, n = pure_state(c * math.sqrt(1.0 + 1e-8) / np.linalg.norm(c)), Direction(1, 0, 0)
        for theta in (0.3, np.array([0.3, 1.1])):
            with pytest.raises(ValueError, match="invalid state: normalization"):
                measurement_probabilities(state, n, theta)
        p = measurement_probabilities(state, n, 0.3, tol=1e-6)
        assert np.array_equal(p, np.abs(rotate(state, n, 0.3, tol=1e-6).amplitudes) ** 2)
        assert measurement_probabilities(state, n, np.array([0.3, 1.1]), tol=1e-6).shape == (2, 5)


class TestClassicalFisher:
    def test_z_direction_vanishes(self):
        state = diagonal_state([0.3, 0.3, 0.4])
        assert classical_fisher(state, Direction(0, 0, 1), 0.5) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("nz", [1.0, -1.0])
    def test_z_direction_is_exactly_zero(self, nz):
        # h = 0: dense and propagated pure states, a density matrix, and a Fock state, whose
        # every other p_m is 0
        rng = np.random.default_rng(40)
        states = [diagonal_state(rng.dirichlet(np.ones(31))), make_fock_state(7, 30)]
        for big_n in (30, collective.PROPAGATOR_MIN_N + 50):
            c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
            states.append(pure_state(c / np.linalg.norm(c)))
        for state in states:
            for theta in (0.0, 0.7):
                assert classical_fisher(state, Direction(0, 0, nz), theta) == 0.0

    def test_single_particle_fringe_saturates(self):
        state = make_fock_state(0, 1)
        f_cl = classical_fisher(state, Direction(1, 0, 0), 0.4)
        assert f_cl == pytest.approx(1.0, abs=1e-12)

    def test_data_processing_inequality(self):
        # F_cl <= F for 100 Fock and random pure states on both paths, a quarter of them at
        # theta = 0, where a Fock state's every other p_m is 0 (and F_cl = F)
        rng = np.random.default_rng(12)
        for case in range(100):
            big_n = int(rng.integers(0, 300))
            if case % 2:
                state = make_fock_state(int(rng.integers(0, big_n + 1)), big_n)
            else:
                c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
                state = pure_state(c / np.linalg.norm(c))
            v3 = rng.normal(size=3)
            n = Direction(*(v3 / np.linalg.norm(v3)))
            theta = float(rng.uniform(-math.pi, math.pi)) if case % 4 < 2 else 0.0
            f_q = qfi.qfi_state(state, n)
            assert classical_fisher(state, n, theta) <= f_q * (1 + 1e-10), (big_n, theta)

    @pytest.mark.parametrize("theta", [1e-3, 0.3, 0.7, math.pi / 2 - 1e-3, 0.0, math.pi / 2])
    def test_twin_fock_n2_is_exact(self, theta):
        # p_1 = cos^2 theta, p_0 = p_2 = sin^2 theta / 2: F_cl = 4 at every theta, the zeros
        # of p_0 and p_2 (theta = 0) and of p_1 (theta = pi/2) included
        f_cl = classical_fisher(make_fock_state(1, 2), Direction(1, 0, 0), theta)
        assert f_cl == pytest.approx(4.0, abs=1e-12)

    def test_mixed_state_matches_pure_route(self):
        rng = np.random.default_rng(8)
        c = rng.normal(size=5) + 1j * rng.normal(size=5)
        pure = pure_state(c / np.linalg.norm(c))
        n = Direction(0.6, 0.0, 0.8)
        mixed = density_state(pure.density_matrix())
        assert classical_fisher(mixed, n, 0.9) == pytest.approx(classical_fisher(pure, n, 0.9),
                                                               rel=1e-10)


    @pytest.mark.parametrize("big_n", [4, 20, 100, 300])
    def test_fock_state_reaches_qfi_at_every_angle(self, big_n):
        # about x, p_m of |k> moves as fast as its QFI allows: F_cl = F = N + 2k(N - k) at
        # every theta, at theta = 0 too, where every p_m but p_k is 0
        n = Direction(1, 0, 0)
        for k in (0, big_n // 3, big_n // 2):
            state, fisher = make_fock_state(k, big_n), big_n + 2 * k * (big_n - k)
            for theta in (0.0, 1e-9, 1e-7, 1e-6, 1e-4, 1e-2, 0.3, -0.2):
                assert classical_fisher(state, n, theta) == pytest.approx(fisher, rel=1e-12)
        # |c_k+1| ~ 1e-12 N: rounding of the rotated amplitudes, about 1e-16, shows
        state = make_fock_state(big_n // 2, big_n)
        fisher = big_n + 2 * (big_n // 2) * (big_n - big_n // 2)
        assert classical_fisher(state, n, 1e-12) == pytest.approx(fisher, rel=1e-8)

    @pytest.mark.parametrize("offset", [0.0, 1e-9, -1e-9, 1e-7, -1e-7, 1e-6, -1e-6])
    def test_twin_fock_at_its_fringe_zero(self, offset):
        # p_2 = P_2(cos theta)^2 of twin-Fock N = 4 about x vanishes at cos theta = 1/sqrt(3);
        # F_cl = N^2/2 + N there as everywhere
        theta = math.acos(1.0 / math.sqrt(3.0)) + offset
        f_cl = classical_fisher(make_fock_state(2, 4), Direction(1, 0, 0), theta)
        assert f_cl == pytest.approx(12.0, rel=1e-12)

    @pytest.mark.parametrize("big_n", [4, 20, 60])
    def test_density_matrix_at_zeros_of_p(self, big_n):
        # rho = |k><k| about x: at a double zero of p_m the term takes its limit 2 p''_m, so
        # F_cl = F = N + 2k(N - k) at theta = 0, where every p_m but p_k is 0, and at 1e-8
        n = Direction(1, 0, 0)
        for k in (0, big_n // 3, big_n // 2):
            rho = density_state(make_fock_state(k, big_n).density_matrix())
            for theta in (0.0, 1e-8):
                assert classical_fisher(rho, n, theta) == pytest.approx(
                    big_n + 2 * k * (big_n - k), rel=1e-12), (k, theta)
        # twin-Fock N = 4 at the zero of p_2, and at 1e-5, where p_1 = p_3 = 1.5e-10 sit on
        # their parabolas' floors to rounding: (p')^2/p would lose 8.3e-8 (relative) there
        rho = density_state(make_fock_state(2, 4).density_matrix())
        assert classical_fisher(rho, n, math.acos(1.0 / math.sqrt(3.0))) == pytest.approx(
            12.0, rel=1e-12)
        assert classical_fisher(rho, n, 1e-5) == pytest.approx(12.0, rel=1e-9)

    @pytest.mark.parametrize("weight", [1e-13, 1e-11])
    def test_density_matrix_at_a_small_eigenvalue(self, weight):
        # rho = (1 - w)|2><2| + w|1><1| at N = 4 about x: p_1 has a minimum w > 0 at theta = 0,
        # not a zero, so its term is (p'_1)^2 / p_1 = 0 there.  Only the double zeros of p_0 and
        # p_3 count: F_cl = 6 (1 - w) + 4 w, where a pure |2> has 12
        fock = [make_fock_state(k, 4).density_matrix() for k in (1, 2)]
        rho = density_state((1.0 - weight) * fock[1] + weight * fock[0])
        assert classical_fisher(rho, Direction(1, 0, 0), 0.0) == pytest.approx(
            6.0 * (1.0 - weight) + 4.0 * weight, rel=1e-12)


class TestMonteCarloEstimate:
    def test_deterministic_given_seed(self):
        state = make_fock_state(1, 2)
        n = Direction(1, 0, 0)
        a = monte_carlo_estimate(state, n, 0.4, 6, 500, 123)
        b = monte_carlo_estimate(state, n, 0.4, 6, 500, 123)
        assert (a.estimates == b.estimates).all()
        c = monte_carlo_estimate(state, n, 0.4, 6, 500, 124)
        assert not (a.estimates == c.estimates).all()

    def test_non_identifiable_configuration(self):
        state = diagonal_state([0.5, 0.5])
        with pytest.raises(NonIdentifiableError):
            monte_carlo_estimate(state, Direction(0, 0, 1), 0.3, 3, 50, 1)

    @pytest.mark.parametrize("big_n", [1, 2, 3, 4])
    def test_near_pole_direction_is_not_identifiable(self, big_n):
        # about n within 1e-9 of +z, p of a random pure state moves by about 1e-9 over the
        # window, so l's change over it stays below l's rounding, and its estimates would be
        # rounding noise
        rng = np.random.default_rng(big_n + 30)
        for _ in range(5):
            c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
            v3 = np.array([*(1e-9 * rng.normal(size=2)), 1.0])
            with pytest.raises(NonIdentifiableError):
                monte_carlo_estimate(pure_state(c / np.linalg.norm(c)),
                                     Direction(*(v3 / np.linalg.norm(v3))), 0.6, 20, 2000, 1)

    @pytest.mark.parametrize("shots", [10, 100, 10 ** 5])
    def test_flatness_is_judged_against_rounding(self, shots):
        # Flatness compares the change of l over the window with l's rounding, and both scale
        # with the shots.  rho = diag(0.525, 0.475) about x moves p_0 by only 0.025 over the
        # window, sum_m (p_max - p_min)^2 / pbar = 2.5e-3, yet it is estimated at any count.
        # A twin-Fock state about n 1e-9 off +z moves p by about 1e-18 and raises at any count.
        run = monte_carlo_estimate(diagonal_state([0.525, 0.475]), Direction(1, 0, 0), 0.6, 5,
                                   shots, 1)
        assert np.all((run.estimates >= 0.0) & (run.estimates <= math.pi / 2))
        v3 = np.array([1e-9, 0.0, 1.0])
        with pytest.raises(NonIdentifiableError):
            monte_carlo_estimate(make_fock_state(2, 4), Direction(*(v3 / np.linalg.norm(v3))),
                                 0.6, 5, shots, 1)

    def test_bounds_ordering(self):
        run = monte_carlo_estimate(make_fock_state(1, 2), Direction(1, 0, 0),
                                   0.35, 20, 2000, 7)
        assert run.qcrb <= run.ccrb + 1e-12
        assert run.fisher == pytest.approx(4.0, abs=1e-9)
        assert run.qcrb == pytest.approx(1.0 / math.sqrt(2000 * run.fisher), rel=1e-15)
        assert run.ccrb == pytest.approx(1.0 / math.sqrt(2000 * run.classical_fisher), rel=1e-15)
        assert run.empirical_std >= 0.0
        assert len(run.estimates) == 20

    def test_estimates_concentrate_near_truth(self):
        run = monte_carlo_estimate(make_fock_state(1, 2), Direction(1, 0, 0),
                                   0.35, 30, 4000, 3)
        assert abs(float(np.mean(run.estimates)) - 0.35) < 0.02

    def test_one_rotation_model_per_estimate(self, monkeypatch):
        built = []

        class CountingModel(metrology._RotationModel):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(metrology, "_RotationModel", CountingModel)
        monte_carlo_estimate(make_fock_state(1, 2), Direction(1, 0, 0), 0.4, 3, 100, 1)
        assert len(built) == 1

    def test_counts_are_fresh_generator_draws(self):
        # the reset state is plain Python ints: the key's ends 0 and 2**64 - 1 included
        p, shots = np.array([0.1, 0.25, 0.3, 0.25, 0.1]), 10_000
        for seed in (42, 0, 2 ** 63, 2 ** 64 - 1):
            counts = metrology._draw_counts(p, 7, shots, seed)
            for trial, row in enumerate(counts):
                assert (row == _fresh_draw(p, shots, seed, trial)).all(), (seed, trial)
            assert (counts.sum(axis=1) == shots).all()
            assert (metrology._draw_counts(p, 3, shots, seed) == counts[:3]).all()

    def test_sampling_memory_does_not_grow_with_shots(self):
        # one uniform and one outcome index per shot would take 160 MB at 10^7 shots
        tracemalloc.start()
        try:
            run = monte_carlo_estimate(make_fock_state(2, 4), Direction(1, 0, 0), 0.5, 2,
                                       10 ** 7, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        assert np.all(np.abs(run.estimates - 0.5) < 1e-2)

    def test_rejects_bad_counts(self):
        for trials, shots in ((0, 10), (1, 0), (1, 2 ** 63)):
            with pytest.raises(ValueError):
                monte_carlo_estimate(make_fock_state(1, 2), Direction(1, 0, 0), 0.3, trials,
                                     shots, 1)

    def test_rejects_seed_outside_the_philox_key(self):
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError, match="seed"):
                monte_carlo_estimate(make_fock_state(1, 2), Direction(1, 0, 0), 0.3, 2, 10, seed)
        run = monte_carlo_estimate(make_fock_state(1, 2), Direction(1, 0, 0), 0.3, 2, 10,
                                   2 ** 64 - 1)
        assert len(run.estimates) == 2

    def test_dense_grid_maxima_match_per_trial_loop(self):
        # one product gives every trial's grid maximum; a row of ties keeps the first index
        state, n = make_fock_state(2, 4), Direction(1, 0, 0)
        model = metrology._RotationModel(state, n)
        grid = metrology._estimation_grid(4)
        counts = np.random.default_rng(8).integers(0, 50, size=(30, 5)).astype(float)
        counts[0] = 0.0
        best, anchors = metrology._grid_maxima(model, grid, counts)
        log_p = np.log(np.clip(model.probabilities(grid), 1e-300, None))
        assert anchors is None and best[0] == 0
        for trial, row in enumerate(counts):
            ll = log_p @ row  # the per-trial loop the product replaced
            near_top = np.flatnonzero(ll >= ll.max() - 1e-13 * abs(ll.max()))
            assert best[trial] == near_top[0]

    @pytest.mark.parametrize("theta_true", [0.02, math.pi / 2 - 0.02])
    def test_matches_scalar_golden_section(self, theta_true):
        # near a window edge some grid maxima sit on the edge, so their brackets are one
        # grid step wide; those rows end on the edge itself, where golden section ends within
        # REFINE_TOL of it, and l there is no lower than at golden section's end
        state, n = make_fock_state(1, 2), Direction(1, 0, 0)
        trials, shots, seed = 12, 2000, 5
        run = monte_carlo_estimate(state, n, theta_true, trials, shots, seed)
        grid = np.linspace(*DEFAULT_WINDOW, GRID_POINTS)
        log_grid = np.log(np.clip(measurement_probabilities(state, n, grid), 1e-300, None))
        p_true = measurement_probabilities(state, n, theta_true)
        p_true = p_true / p_true.sum()
        at_edge = 0
        for trial, estimate in enumerate(run.estimates):
            counts = _fresh_draw(p_true, shots, seed, trial).astype(float)
            best = int(np.argmax(log_grid @ counts))
            at_edge += best in (0, GRID_POINTS - 1)

            def loglik(theta, counts=counts):
                p = np.clip(measurement_probabilities(state, n, theta), 1e-300, None)
                return float(counts @ np.log(p))

            lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, GRID_POINTS - 1)]
            golden = _scalar_golden_max(loglik, lo, hi, REFINE_TOL)
            if best in (0, GRID_POINTS - 1):
                p = np.clip(measurement_probabilities(state, n, golden), 1e-300, None)
                rounding = 4 * np.finfo(float).eps * (abs(loglik(golden)) + (counts / p).sum())
                assert estimate == grid[best]
                assert loglik(estimate) >= loglik(golden) - rounding
            else:
                assert abs(estimate - golden) <= 2 * REFINE_TOL
        assert 0 < at_edge < trials


def _eigh_unitary(big_n, n, theta):
    """exp(i theta J_n) from the complex `eigh` of the dense J_n: the independent oracle."""
    lam, vec = np.linalg.eigh(direction_generator(big_n, n).matrix)
    return (vec * np.exp(1j * theta * lam)) @ vec.conj().T


def _per_angle(state, n, theta):
    """p and dp/dtheta at one angle from the formed unitary and the dense J_n: the per-angle
    route the trigonometric series replaced."""
    u = _eigh_unitary(state.n_particles, n, theta)
    rho = u @ state.density_matrix() @ u.conj().T
    jn = direction_generator(state.n_particles, n).matrix
    dp = -2.0 * np.einsum("mj,jm->m", jn, rho).imag
    return np.diag(rho).real, dp


class TestTrigonometricSeries:
    """On the dense path p(theta) = T(theta) @ W, from the powers of e^{i theta}."""

    @pytest.mark.parametrize("big_n", [0, 1, 2, 7, 60, 249])
    def test_pure_state_matches_unitary(self, big_n):
        rng = np.random.default_rng(big_n)
        c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
        state = pure_state(c / np.linalg.norm(c))
        angles = np.array([[0.0, 0.4, 1.3], [-8.0, 8.0, -2.0]])
        for n in (Direction(0.48, 0.64, 0.6), Direction(1, 0, 0)):
            p = measurement_probabilities(state, n, angles)
            assert p.shape == angles.shape + (big_n + 1,)
            for theta, row in zip(angles.ravel(), p.reshape(-1, big_n + 1)):
                oracle = np.abs(_eigh_unitary(big_n, n, theta) @ state.amplitudes) ** 2
                assert np.abs(row - oracle).max() <= 1e-14

    @pytest.mark.parametrize("kind", ["full-rank", "rank-3", "diagonal"])
    @pytest.mark.parametrize("big_n", [1, 6, 40, 200])
    def test_density_matrix_matches_per_angle_route(self, kind, big_n):
        rng = np.random.default_rng(big_n)
        if kind == "diagonal":
            rho = np.diag(rng.dirichlet(np.ones(big_n + 1)))
        else:
            rank = big_n + 1 if kind == "full-rank" else 3
            a = rng.normal(size=(big_n + 1, rank)) + 1j * rng.normal(size=(big_n + 1, rank))
            rho = a @ a.conj().T
        state, n = density_state(rho / np.trace(rho).real), Direction(0.48, 0.64, 0.6)
        angles = np.array([0.0, 0.7, -8.0, 8.0])
        p = measurement_probabilities(state, n, angles)
        for theta, row in zip(angles, p):
            p_ref, dp_ref = _per_angle(state, n, theta)
            assert np.abs(row - p_ref).max() <= 1e-14
            keep = p_ref > 1e-12
            assert classical_fisher(state, n, theta) == pytest.approx(
                np.sum(dp_ref[keep] ** 2 / p_ref[keep]), rel=1e-12)

    def test_mixed_estimate_decomposes_rho_once(self, monkeypatch):
        # the positivity check computes no eigenvalue: the spectral sum's eigh is the one
        calls = []

        def counting(solver):
            def call(*args, **kwargs):
                calls.append(solver.__name__)
                return solver(*args, **kwargs)
            return call

        state, n = density_state(np.diag([0.1, 0.2, 0.3, 0.4])), Direction(1, 0, 0)
        collective.eigenbasis(3, n)  # caches the real eigenbasis of J_x at N = 3
        for solver in (np.linalg.eigh, np.linalg.eigvalsh):
            monkeypatch.setattr(np.linalg, solver.__name__, counting(solver))
        run = monte_carlo_estimate(state, n, 0.6, 3, 500, 2)
        assert calls == ["eigh"]
        assert run.fisher == pytest.approx(qfi_spectral(state, direction_generator(3, n)))

    @pytest.mark.parametrize("rho", [
        np.diag([1.2, -0.2]),  # positivity
        np.diag([0.6, 0.6]),  # trace
        [[0.5, 0.0], [1.0, 0.5]],  # hermiticity: the lower triangle alone is not positive
        [[0.5, 0.0], [1.0, -0.5]],  # hermiticity, trace and positivity
        [[0.5, math.nan], [0.0, 0.5]],  # finiteness
    ])
    def test_invalid_mixed_state_message(self, rho):
        # the estimate names the violations `validate_state` finds, in its order
        state = density_state(rho)
        expected = f"invalid state: {', '.join(validate_state(state))}"
        with pytest.raises(ValueError) as caught:
            monte_carlo_estimate(state, Direction(1, 0, 0), 0.3, 2, 10, 1)
        assert str(caught.value) == expected

    def test_mixed_estimate_forms_no_unitary(self, monkeypatch):
        def no_unitary(u, n_particles):
            raise AssertionError("a per-angle unitary was formed")

        # a density matrix's rotation forms its unitary in `frames.move_state`
        monkeypatch.setattr(frames, "u2_image", no_unitary)
        state = diagonal_state(np.random.default_rng(3).dirichlet(np.ones(31)))
        run = monte_carlo_estimate(state, Direction(1, 0, 0), 0.6, 5, 2000, 9)
        assert run.classical_fisher > 0.0
        assert np.all(np.abs(run.estimates - 0.6) < 0.2)


def _record_rotations(monkeypatch):
    """The name of every `eigenbasis` call the rotation model makes, and every `u2_image` call
    a move of a state (`frames.move_state`, which `rotate` takes) makes, from here on: each
    forms an (N+1)^2 array."""
    made = []
    for module, name in ((metrology, "eigenbasis"), (frames, "u2_image")):
        def recording(*args, name=name, original=getattr(module, name)):
            made.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, recording)
    return made


class TestPropagatedPath:
    """Pure states from PROPAGATOR_MIN_N on rotate matrix-free; they match the dense route."""

    @staticmethod
    def _state(big_n, seed):
        rng = np.random.default_rng(seed)
        c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
        return pure_state(c / np.linalg.norm(c)), Direction(0.48, 0.64, 0.6)

    @pytest.mark.parametrize("big_n", [1, 6, 60])
    def test_model_matches_dense_route(self, big_n, monkeypatch):
        state, n = self._state(big_n, big_n)
        angles = np.array([0.0, 0.4, 1.3, -2.0, 8.0])
        monkeypatch.setattr(collective, "PROPAGATOR_MIN_N", big_n + 1)
        dense = metrology._RotationModel(state, n)
        assert not dense.propagated
        p_dense, f_dense = dense.probabilities(angles), dense.classical_fisher(0.7)
        c_dense = rotate(state, n, 1.1).amplitudes
        monkeypatch.setattr(collective, "PROPAGATOR_MIN_N", big_n)
        made = _record_rotations(monkeypatch)
        model = metrology._RotationModel(state, n)
        assert np.abs(model.probabilities(angles) - p_dense).max() <= 1e-12
        assert model.classical_fisher(0.7) == pytest.approx(f_dense, rel=1e-10)
        assert np.abs(rotate(state, n, 1.1).amplitudes - c_dense).max() <= 1e-12
        assert made == [] and "fourier" not in vars(model)

    def test_estimate_matches_dense_route(self, monkeypatch):
        # 512 grid points in blocks of GRID_BLOCK, refinements rotated from the best points
        state, n = make_fock_state(20, 40), Direction(1, 0, 0)
        args = (0.6, 5, 2000, 11)
        monkeypatch.setattr(collective, "PROPAGATOR_MIN_N", 41)
        dense = monte_carlo_estimate(state, n, *args)
        monkeypatch.setattr(collective, "PROPAGATOR_MIN_N", 40)
        propagated = monte_carlo_estimate(state, n, *args)
        assert np.abs(propagated.estimates - dense.estimates).max() <= 2 * REFINE_TOL
        assert propagated.classical_fisher == pytest.approx(dense.classical_fisher, rel=1e-12)
        assert propagated.fisher == dense.fisher

    def test_grid_maxima_match_per_trial_loop(self, monkeypatch):
        # one product per block for every trial; a later block wins only with a larger value
        monkeypatch.setattr(collective, "PROPAGATOR_MIN_N", 6)
        state, n = self._state(6, 3)
        model = metrology._RotationModel(state, n)
        grid = metrology._estimation_grid(6)
        counts = np.random.default_rng(9).integers(0, 50, size=(30, 7)).astype(float)
        counts[0] = 0.0
        best, anchors = metrology._grid_maxima(model, grid, counts)
        amplitudes = model.amplitudes(grid)
        log_p = np.log(np.clip(np.abs(amplitudes) ** 2, 1e-300, None))
        assert best[0] == 0
        for trial, row in enumerate(counts):
            ll = log_p @ row
            assert best[trial] in np.flatnonzero(ll >= ll.max() - 1e-12 * abs(ll.max()))
            assert np.abs(anchors[trial] - amplitudes[best[trial]]).max() <= 1e-12

    def test_non_identifiable_on_propagated_path(self, monkeypatch):
        # a Fock state under J_z only picks up phases: p_m is flat in theta
        monkeypatch.setattr(collective, "PROPAGATOR_MIN_N", 1)
        with pytest.raises(NonIdentifiableError):
            monte_carlo_estimate(make_fock_state(3, 8), Direction(0, 0, 1), 0.3, 2, 50, 1)


def test_one_angle_forms_no_eigenbasis(monkeypatch):
    # one angle on the dense path rotates the state through V in O(N^2) and forms no dense
    # image: J_n's eigenbasis, an (N+1)^2 complex array of 1 MB at N = 249, is never formed
    big_n = collective.PROPAGATOR_MIN_N - 1
    made = _record_rotations(monkeypatch)
    state, n = make_fock_state(big_n // 3, big_n), Direction(0.48, 0.64, 0.6)
    rotate(state, n, 0.3)  # caches V
    for call in (rotate, measurement_probabilities, classical_fisher):
        tracemalloc.start()
        try:
            call(state, n, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (big_n + 1) ** 2 * 16, (call.__name__, peak)
    assert made == []


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("state", [
    make_fock_state(80, collective.PROPAGATOR_MIN_N - 10),
    make_fock_state(86, collective.PROPAGATOR_MIN_N + 10),
    diagonal_state([0.2, 0.3, 0.5]),
], ids=["dense", "propagated", "mixed"])
def test_non_finite_angles_rejected_on_every_path(state, theta):
    n = Direction(0.6, 0.0, 0.8)
    calls = [lambda: rotate(state, n, theta),
             lambda: measurement_probabilities(state, n, [0.3, theta]),
             lambda: classical_fisher(state, n, theta),
             lambda: monte_carlo_estimate(state, n, theta, 2, 100, 1)]
    for call in calls:
        with pytest.raises(ValueError, match="rotation angles must be finite"):
            call()


@pytest.mark.parametrize("call", [
    lambda state, n, theta: rotate(state, n, theta),
    lambda state, n, theta: classical_fisher(state, n, theta),
    lambda state, n, theta: metrology.PhaseEstimator(state, n).classical_fisher(theta),
    lambda state, n, theta: monte_carlo_estimate(state, n, theta, 2, 100, 1),
], ids=["rotate", "classical_fisher", "estimator_classical_fisher", "estimate"])
@pytest.mark.parametrize("state", [
    make_fock_state(80, collective.PROPAGATOR_MIN_N - 10),
    make_fock_state(86, collective.PROPAGATOR_MIN_N + 10),
    diagonal_state([0.2, 0.3, 0.5]),
], ids=["dense", "propagated", "mixed"])
def test_one_angle_calls_reject_an_array_of_angles(state, call):
    # an array would reach the many-angle paths, where a density matrix's F_cl sums F_cl over
    # the angles and reports it as one value
    for theta in ([0.1, 0.2], np.array([0.3, 0.4]), [0.3]):
        with pytest.raises(ValueError, match="theta must be one angle"):
            call(state, Direction(0.6, 0.0, 0.8), theta)


@pytest.mark.parametrize("state", [
    make_fock_state(2, 4),
    make_fock_state(86, collective.PROPAGATOR_MIN_N + 10),
    diagonal_state([0.2, 0.3, 0.5]),
], ids=["dense", "propagated", "mixed"])
def test_estimate_rejects_angles_outside_the_window(state):
    # every estimate lies in [0, pi/2]: twin-Fock N = 4 about x at theta = 2.0, 3.0 and -0.3
    # gave means of pi - 2, 0.14 and 0.30, reported next to the CRBs at theta
    n = Direction(1, 0, 0)
    for theta in (2.0, 3.0, -0.3, -1e-300, DEFAULT_WINDOW[1] + 1e-15):
        with pytest.raises(ValueError, match=r"estimation window \[0, pi/2\]"):
            monte_carlo_estimate(state, n, theta, 2, 100, 1)
    for theta in DEFAULT_WINDOW:  # the edges are in the window
        assert monte_carlo_estimate(state, n, theta, 2, 100, 1).theta_true == theta


def test_fine_grid_avoids_fringe_lock(monkeypatch):
    # At N = 2000 the likelihood's fringes are about 2 pi/N = 3e-3 apart, under two steps
    # of a 512-point grid: golden section then climbs a side fringe inside the bracket.
    state, n, theta = make_fock_state(1000, 2000), Direction(1, 0, 0), 0.3856
    fine = monte_carlo_estimate(state, n, theta, 1, 1000, 3)
    assert abs(fine.estimates[0] - theta) < 5 * fine.ccrb
    monkeypatch.setattr(metrology, "_estimation_grid",
                        lambda n_particles: np.linspace(*DEFAULT_WINDOW, GRID_POINTS))
    coarse = monte_carlo_estimate(state, n, theta, 1, 1000, 3)
    assert abs(coarse.estimates[0] - theta) > 100 * coarse.ccrb


def _sweep_state(kind, big_n):
    rng = np.random.default_rng(big_n)
    if kind == "twin-fock":
        return make_fock_state(big_n // 2, big_n), Direction(1, 0, 0)
    if kind == "random-pure":
        c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
        return pure_state(c / np.linalg.norm(c)), Direction(0.48, 0.64, 0.6)
    if kind == "diagonal":
        return diagonal_state(rng.dirichlet(np.ones(big_n + 1))), Direction(1, 0, 0)
    a = rng.normal(size=(big_n + 1, 3)) + 1j * rng.normal(size=(big_n + 1, 3))
    rho = a @ a.conj().T
    return density_state(rho / np.trace(rho).real), Direction(0.48, 0.64, 0.6)


def _record_refinements(monkeypatch):
    """The arguments of the latest `_refine_max` call, kept in the returned dict."""
    seen, refine_max = {}, metrology._refine_max

    def recording_refine_max(loglik, a, b, switch):
        seen.update(loglik=loglik, a=a.copy(), b=b.copy(), switch=switch)
        return refine_max(loglik, a, b, switch)

    monkeypatch.setattr(metrology, "_refine_max", recording_refine_max)
    return seen


def _within_resolution(estimates, reference, loglik):
    """Whether each estimate lies within sqrt(2 r / |l''|) of its reference: the distance
    from the maximum over which l stays within its rounding r."""
    f = loglik(reference, np.arange(len(reference)))
    moved = np.abs(estimates - reference)
    return (moved == 0) | (moved <= np.sqrt(2.0 * f[3] / np.abs(f[2])))


@pytest.mark.parametrize("kind, path", [
    ("twin-fock", "dense"), ("twin-fock", "propagated"), ("random-pure", "dense"),
    ("random-pure", "propagated"), ("diagonal", "dense"), ("rank-3", "dense"),
])
def test_refinement_ends_no_lower_than_golden_section(kind, path, monkeypatch):
    # Golden section from the same bracket, on the same log-likelihood, is the reference.  The
    # refinement ends where l stops resolving, so it may end below golden section's l by up to
    # the rounding r that the log-likelihood reports.
    # theta = arccos(1/sqrt(3)) is a zero of p_2 for twin-Fock at N = 4.
    seen, model_class = _record_refinements(monkeypatch), metrology._RotationModel

    def shared_model(state, *args, **kwargs):  # a density matrix's W costs O(N^3): one per state
        if seen.get("state") is not state:
            seen.update(state=state, model=model_class(state, *args, **kwargs))
        return seen["model"]

    monkeypatch.setattr(metrology, "_RotationModel", shared_model)
    trials = 4
    rows = np.arange(trials)
    for big_n in (1, 2, 4, 7, 40, 150, 249, 400):
        state, n = _sweep_state(kind, big_n)
        monkeypatch.setattr(collective, "PROPAGATOR_MIN_N",
                            big_n if path == "propagated" else big_n + 1)
        for theta in (0.02, math.acos(1 / math.sqrt(3)), math.pi / 2 - 0.02):
            for shots in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5):
                run = monte_carlo_estimate(state, n, theta, trials, shots, 7)
                loglik = seen["loglik"]
                golden = _golden_max(lambda t, r: loglik(t, r)[0], seen["a"], seen["b"])
                new, ref = loglik(run.estimates, rows), loglik(golden, rows)
                assert (new[0] >= ref[0] - new[3]).all(), (big_n, theta, shots)


@pytest.mark.parametrize("big_n, n", [(249, Direction(1, 0, 0)),
                                      (1000, Direction(0.48, 0.64, 0.6))])
def test_refinement_ends_no_lower_than_golden_section_between_close_humps(big_n, n,
                                                                          monkeypatch):
    # Fock |N/3> at theta = 0.02: trial 19's bracket holds two humps of l, 1.04 (N = 249) and
    # 0.83 (N = 1000) apart.  Golden section from the bracket's golden pair finds the higher;
    # a refinement that started at the best grid point instead climbed the lower one
    seen = _record_refinements(monkeypatch)
    run = monte_carlo_estimate(make_fock_state(big_n // 3, big_n), n, 0.02, 20, 2000, 5)
    loglik, rows = seen["loglik"], np.arange(20)
    golden = _golden_max(lambda t, r: loglik(t, r)[0], seen["a"], seen["b"])
    new, ref = loglik(run.estimates, rows), loglik(golden, rows)
    assert (new[0] >= ref[0] - new[3]).all()


@pytest.mark.parametrize("kind", ["twin-fock", "random-pure"])
def test_estimates_stay_within_resolution_when_w_rounds_differently(kind, monkeypatch):
    # W perturbed by 4e-16 (relative) moves p in its last bits, so an estimate may move only
    # within what the log-likelihood resolves
    seen = _record_refinements(monkeypatch)
    fourier = metrology._RotationModel.fourier.func

    def perturbed_fourier(model):
        w = fourier(model)
        return w * (1.0 + 4e-16 * np.random.default_rng(0).choice([-1.0, 1.0], size=w.shape))

    for big_n in (1, 2, 4, 7, 20, 40, 100):
        state, n = _sweep_state(kind, big_n)
        for theta in (0.02, 0.6, math.pi / 2 - 0.02):
            run = monte_carlo_estimate(state, n, theta, 20, 2000, 7)
            loglik = seen["loglik"]
            with monkeypatch.context() as patch:
                patch.setattr(metrology._RotationModel, "fourier", property(perturbed_fourier))
                perturbed = monte_carlo_estimate(state, n, theta, 20, 2000, 7)
            assert _within_resolution(perturbed.estimates, run.estimates, loglik).all(), \
                (big_n, theta)


@pytest.mark.parametrize("kind, path", [
    ("twin-fock", "dense"), ("twin-fock", "propagated"), ("random-pure", "dense"),
    ("random-pure", "propagated"), ("diagonal", "dense"), ("rank-3", "dense"),
])
def test_rows_refined_alone_match_their_batch(kind, path, monkeypatch):
    # numpy's products round a row differently by its place in a batch, so a row refined
    # alone sees l change in its last bits only
    refine_max = metrology._refine_max
    seen = _record_refinements(monkeypatch)
    for big_n in (4, 40, 150):
        state, n = _sweep_state(kind, big_n)
        monkeypatch.setattr(collective, "PROPAGATOR_MIN_N",
                            big_n if path == "propagated" else big_n + 1)
        for theta in (0.3, math.acos(1 / math.sqrt(3))):
            run = monte_carlo_estimate(state, n, theta, 40, 2000, 7)
            loglik, a, b, switch = seen["loglik"], seen["a"], seen["b"], seen["switch"]
            alone = np.array([
                refine_max(lambda t, rows, i=i: loglik(t, rows + i), a[i:i + 1], b[i:i + 1],
                           switch)[0]
                for i in range(len(a))])
            assert _within_resolution(alone, run.estimates, loglik).all(), (big_n, theta)


def test_refinement_pulls_rows_to_the_window_edge():
    # l = s (theta - c) + k (theta - c)^2 per row, rounded by r = _RESOLUTION |l|.  The pull
    # is keyed on the sign of l', so a row whose slope points out of the window ends exactly
    # on the edge whatever l'' is:
    # linear (l'' = 0), convex (l'' > 0), concave with its peak outside, or stationary on the
    # edge.  A peak just inside is found past the edge's one evaluation, and an interior one
    # as before.
    low, high = DEFAULT_WINDOW
    slope, center, curve = np.array([
        (-1.0, 0.0, 0.0), (0.0, 0.05, 1.0), (0.0, -0.01, -1.0), (0.0, 0.0, -1.0),
        (1.0, high, 0.0), (0.0, high + 0.01, -1.0), (0.0, 0.002, -1.0), (0.0, 0.3, -1.0)]).T
    calls = []

    def loglik(theta, rows):
        calls.append(len(rows))
        d = theta - center[rows]
        value = slope[rows] * d + curve[rows] * d * d
        return np.array([value, slope[rows] + 2.0 * curve[rows] * d, 2.0 * curve[rows] + 0.0 * d,
                         metrology._RESOLUTION * np.abs(value)])

    step = math.pi / 1022  # a spacing of the 512-point grid
    a = np.array([low] * 4 + [high - step] * 2 + [low, 0.3 - 0.5 * step])
    estimates = metrology._refine_max(loglik, a, a + step, math.pi / 80)
    assert np.array_equal(estimates[:6], [low] * 4 + [high] * 2)
    assert np.abs(estimates[6:] - [0.002, 0.3]).max() <= REFINE_TOL
    assert len(calls) <= 3


@pytest.mark.parametrize("theta", [0.02, math.pi / 2 - 0.02])
@pytest.mark.parametrize("big_n", [2, 4])
def test_window_edge_estimates_take_four_calls(big_n, theta, monkeypatch):
    # twin-Fock about x is even about both edges, so many trials have their maximum on one:
    # those rows end exactly on it, in the first call, which evaluates the edge with their
    # golden pair, and the estimate takes at most 4 likelihood calls, where golden section's
    # pace took 27
    seen, refine_max = {"rows": []}, metrology._refine_max

    def counting_refine_max(loglik, a, b, switch):
        def counted(angles, rows):
            seen["rows"].append(rows.copy())
            return loglik(angles, rows)

        seen.update(loglik=loglik)
        return refine_max(counted, a, b, switch)

    monkeypatch.setattr(metrology, "_refine_max", counting_refine_max)
    run = monte_carlo_estimate(make_fock_state(big_n // 2, big_n), Direction(1, 0, 0), theta,
                               40, 2000, 3)
    assert len(seen["rows"]) <= 4
    rows = np.flatnonzero(np.isin(run.estimates, DEFAULT_WINDOW))
    assert rows.size and np.isfinite(run.estimates).all()
    assert not any(np.isin(rows, later).any() for later in seen["rows"][1:])
    # l' there points out of the window, or vanishes with l'' < 0
    f = seen["loglik"](run.estimates[rows], rows)
    outward = np.where(run.estimates[rows] == DEFAULT_WINDOW[0], -f[1], f[1])
    assert ((outward > 0) | ((outward == 0) & (f[2] < 0))).all()


@pytest.mark.parametrize("theta", [0.003, math.pi / 2 - 0.003])
def test_window_edge_where_an_observed_outcome_is_impossible(theta):
    # Fock |1, 3> about x: at either edge p_m = 0 for every m but one, so where a bracket ends
    # on the edge its l' there reaches about 1e284 and squares past the double range; the
    # Newton gain read from it is then infinite, not a RuntimeWarning (an error under pytest)
    run = monte_carlo_estimate(make_fock_state(1, 4), Direction(1, 0, 0), theta, 40, 10 ** 5, 0)
    assert ((DEFAULT_WINDOW[0] <= run.estimates) & (run.estimates <= DEFAULT_WINDOW[1])).all()


# Single-angle pure-state calls against a test-local copy of the Euler formula of
# `collective.apply_u2`, and against the former `Rotation.apply` as the documented golden
# change; the norm against its former sum of |c_k|^2 after a finiteness scan.

def _reference_validate_pure(state, tol):
    """The pure-state branch of `validate_state` before its norm became one `vdot`."""
    if not np.isfinite(state.amplitudes).all():
        return ["finiteness"]
    with np.errstate(over="ignore"):  # the former check warned where the norm overflows
        norm = float(np.sum(np.abs(state.amplitudes) ** 2))
    return ["normalization"] if abs(norm - 1.0) > tol else []


def _reference_v(big_n):
    """V with J_x = V diag(k - N/2) V^T and the mode-swap parity imposed."""
    v = np.linalg.eigh(np.diag(0.5 * ladder(big_n, 1, 0, 0, 1)[:-1], -1))[1]
    parity = (-1.0) ** (big_n - np.arange(big_n + 1))
    return 0.5 * (v + parity * v[::-1])


def _reference_real_times(m, x):
    return (m @ x.view(float).reshape(-1, 2)).view(complex).ravel()


def _reference_apply(v, n, c, theta):
    """The former `Rotation.apply`: k, Lambda, P and the phases of n built per call, and four
    products of V through 1-D complex vectors."""
    k = np.arange(len(v))
    eigenvalues = k - (len(v) - 1) / 2.0
    beta = math.atan2(math.hypot(n.n_x, n.n_y), n.n_z)
    phi = math.atan2(n.n_y, n.n_x)
    angle = beta * eigenvalues
    tilt = np.cos(angle) - 1j * np.sin(angle)
    outer = np.exp(-1j * phi * k) * np.array([1.0, -1.0j, -1.0, 1.0j])[k % 4]
    x = outer.conj() * np.asarray(c, dtype=complex)
    x = _reference_real_times(v, _reference_real_times(v.T, x) * tilt.conj())
    x *= np.exp(1j * np.asarray(theta, dtype=float) * eigenvalues)
    return outer * _reference_real_times(v, _reference_real_times(v.T, x) * tilt)


def _su2_matrix(n, theta):
    """u = exp(i theta n.sigma/2) = cos(theta/2) + i sin(theta/2) n.sigma, as
    [[u_00, -conj(u_10)], [u_10, conj(u_00)]] from its first column."""
    cos, sin = math.cos(0.5 * theta), math.sin(0.5 * theta)
    u00, u10 = complex(cos, sin * n.n_z), complex(-sin * n.n_y, sin * n.n_x)
    return np.array([[u00, -u10.conjugate()], [u10, u00.conjugate()]])


def _reference_euler(v, n, c, theta):
    """exp(i theta J_n) c as `apply_u2` gives it for u = cos(theta/2) + i sin(theta/2) n.sigma,
    with Lambda built per call: the determinant's phase chi (0 here), the ZXZ Euler angles from
    the phases of u_00 and i u_10 and one atan2, then two products of V through 1-D complex
    vectors."""
    big_n = len(v) - 1
    jz = np.arange(big_n + 1) - big_n / 2.0
    (u00, u01), (u10, u11) = _su2_matrix(n, theta).tolist()
    chi = 0.5 * cmath.phase(u00 * u11 - u01 * u10)
    a, b = math.atan2(u00.imag, u00.real) - chi, math.atan2(u10.real, -u10.imag) - chi
    beta = 2.0 * math.atan2(abs(u10), abs(u00))
    phases = np.multiply.outer((1j * (a + b), -1j * beta, 1j * (a - b)), jz)
    phases[2] += 1j * chi * big_n
    right, tilt, left = np.exp(phases)
    x = _reference_real_times(v.T, right * np.asarray(c, dtype=complex)) * tilt
    return left * _reference_real_times(v, x)


def _reference_fisher(n, c):
    """A pure state's F_cl from its rotated amplitudes c, as `metrology._pure_fisher` gives
    it: p'_m = 2 (g_m - g_m-1) from the current g_k = Im(h r_k c_k conj(c_k+1)), with
    h = (n_x - i n_y)/2 and r the J_+ band, and 4 |(J_n c)_m|^2 where |c_m| <= 8 eps (N+1)."""
    h = 0.5 * complex(n.n_x, -n.n_y)
    if h == 0:
        return 0.0
    lower = h * ladder(len(c) - 1, 1, 0, 0, 1)[:-1]
    current = (lower * c[:-1] * c[1:].conj()).imag
    half_slope = np.diff(np.concatenate([[0.0], current, [0.0]]))
    p = (c * c.conj()).real
    keep = p > (8 * np.finfo(float).eps * len(c)) ** 2
    if keep.all():
        return 4.0 * float(half_slope @ (half_slope / p))
    jc = np.concatenate([[0.0], lower * c[:-1]]) + np.concatenate([lower.conj() * c[1:], [0.0]])
    jc = jc[~keep]
    return 4.0 * float(half_slope[keep] @ (half_slope[keep] / p[keep])
                       + (jc.real ** 2 + jc.imag ** 2).sum())


def _former_fisher(n, c):
    """F_cl as it was computed before the probability current: p' = -2 Im(conj(c) J_n c)
    from J_n's bands, over p_m > 1e-12."""
    generator = direction_generator(len(c) - 1, n)
    if not generator.lower.any():
        return 0.0
    jc = generator.apply(c)
    prob, dp = (c * c.conj()).real, -2.0 * (c.conj() * jc).imag
    keep = prob > 1e-12
    return float(np.sum(dp[keep] ** 2 / prob[keep]))


def _reference_single_angle(v, state, n, theta, apply=_reference_euler):
    """(rotated amplitudes, p, F_cl) at one angle, with the rotation `apply`."""
    assert not _reference_validate_pure(state, DEFAULT_TOL)
    c = apply(v, n, state.amplitudes, theta)
    p = np.abs(c) ** 2
    np.clip(p, 0.0, None, out=p)
    return c, p, _reference_fisher(n, c)


def _single_angle_cases(big_n):
    """(state, n, theta): a random pure and a Fock state, the poles, two directions a hair
    off them and four random ones, at seven angles."""
    rng = np.random.default_rng(big_n + 40)
    near = [np.array([1e-9, 0.0, 1.0]), np.array([-3e-10, 7e-10, -1.0])]
    directions = [Direction(0, 0, 1), Direction(0, 0, -1)]
    directions += [Direction(*(u / np.linalg.norm(u))) for u in near + list(rng.normal(size=(4, 3)))]
    for fock_k in (None, big_n // 3):
        if fock_k is None:
            c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
            state = pure_state(c / np.linalg.norm(c))
        else:
            state = make_fock_state(fock_k, big_n)
        for n in directions:
            for theta in (0.7, math.pi, -math.pi, 7.5, -13.1, np.float64(-2.2), 2):
                yield state, n, theta


@pytest.mark.parametrize("big_n", [0, 1, 2, 7, 40, collective.PROPAGATOR_MIN_N - 1])
def test_single_angle_calls_match_reference_bit_for_bit(big_n):
    v = _reference_v(big_n)
    for state, n, theta in _single_angle_cases(big_n):
        c, p, f = _reference_single_angle(v, state, n, theta)
        assert np.array_equal(rotate(state, n, theta).amplitudes, c), (n, theta)
        assert np.array_equal(measurement_probabilities(state, n, theta), p), (n, theta)
        assert classical_fisher(state, n, theta) == f, (n, theta)


@pytest.mark.parametrize("big_n", [0, 1, 2, 7, 40, collective.PROPAGATOR_MIN_N - 1])
def test_single_angle_calls_within_golden_bound_of_former_apply(big_n):
    # the golden change from four products of V to two: amplitudes and p move by at most
    # 1e-15 (N+1), about twice the largest change seen (6e-16 (N+1) at N = 100); F_cl by
    # 1e-13 relative, plus 1e-15 where it is rounding noise about 0 (below 1e-27 here)
    v, bound = _reference_v(big_n), 1e-15 * (big_n + 1)
    for state, n, theta in _single_angle_cases(big_n):
        c, p, f = _reference_single_angle(v, state, n, theta, apply=_reference_apply)
        assert np.abs(rotate(state, n, theta).amplitudes - c).max() <= bound, (n, theta)
        assert np.abs(measurement_probabilities(state, n, theta) - p).max() <= bound, (n, theta)
        assert abs(classical_fisher(state, n, theta) - f) <= 1e-13 * f + 1e-15, (n, theta)


@pytest.mark.parametrize("big_n", [0, 1, 2, 7, 40, collective.PROPAGATOR_MIN_N - 1,
                                   collective.PROPAGATOR_MIN_N, 300])
def test_pure_fisher_within_golden_bound_of_former_formula(big_n):
    # the golden change from J_n c to the probability current.  Where no p_m is at or below
    # the former cut of 1e-12, F_cl moves by at most 1e-13 relative, plus 1e-15 where it is
    # rounding noise about 0 (directions a hair off the poles).  Elsewhere the former sum
    # dropped terms the new one keeps: F_cl can only grow, and stays below F.
    for state, n, theta in _single_angle_cases(big_n):
        c = rotate(state, n, theta).amplitudes
        new, old = classical_fisher(state, n, theta), _former_fisher(n, c)
        assert new >= old - 1e-13 * old - 1e-15, (n, theta)
        assert new <= qfi.qfi_state(state, n) * (1 + 1e-10) + 1e-15, (n, theta)
        if (np.abs(c) ** 2).min() > 1e-12:
            assert abs(new - old) <= 1e-13 * old + 1e-15, (n, theta)


@pytest.mark.parametrize("big_n", [1, 2, 7, 40, collective.PROPAGATOR_MIN_N + 50])
def test_pure_slope_is_a_continuity_equation(big_n):
    # the current between neighbouring Fock states moves probability without making any:
    # sum_m p'_m = 0; and p' is the derivative -2 Im(conj(c) J_n c), on either path
    rng = np.random.default_rng(big_n)
    c0 = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
    state = pure_state(c0 / np.linalg.norm(c0))
    for v3 in rng.normal(size=(4, 3)):
        n = Direction(*(v3 / np.linalg.norm(v3)))
        model = metrology._RotationModel(state, n)
        c = model.amplitudes(0.8)
        lower = 0.5 * complex(n.n_x, -n.n_y) * collective.su2_bands(big_n)[1]
        half_slope = metrology._half_slope(lower, c)
        assert abs(half_slope.sum()) <= 4 * np.finfo(float).eps * np.abs(half_slope).sum()
        former = -2.0 * (c.conj() * direction_generator(big_n, n).apply(c)).imag
        assert np.abs(2.0 * half_slope - former).max() <= 1e-13 * np.abs(former).max()


@pytest.mark.parametrize("big_n", [1, 7, collective.PROPAGATOR_MIN_N + 50])
def test_pure_series_slope_is_the_current_on_rows(big_n):
    # the propagated refinement's p' is 2 (g_m - g_m-1) row by row, as a pure state's F_cl
    # takes it, and the derivative -2 Im(conj(c) J_n c)
    rng = np.random.default_rng(big_n + 3)
    c = rng.normal(size=(6, big_n + 1)) + 1j * rng.normal(size=(6, big_n + 1))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    for v3 in rng.normal(size=(3, 3)):
        n = Direction(*(v3 / np.linalg.norm(v3)))
        generator = direction_generator(big_n, n)
        rows = metrology._pure_series(generator, c)
        assert rows.shape == (3,) + c.shape
        former = -2.0 * (c.conj() * generator.apply(c)).imag
        assert np.abs(rows[1] - former).max() <= 1e-13 * np.abs(former).max()
        for row, amplitudes in zip(rows[1], c):
            assert np.array_equal(row, 2.0 * metrology._half_slope(generator.lower, amplitudes))


@pytest.mark.parametrize("state", [make_fock_state(13, 40), diagonal_state(np.full(41, 1 / 41))],
                         ids=["pure", "rho"])
def test_series_builds_one_rotation_and_keeps_none(state, monkeypatch):
    # W reads J_n's eigenbasis once; the model holds no handle on it afterwards
    made = _record_rotations(monkeypatch)
    model = metrology._RotationModel(state, Direction(0.48, 0.64, 0.6))
    for _ in range(2):
        model.probabilities(np.array([0.3, 0.9]))
        model.classical_fisher(0.7)
    assert made == ["eigenbasis"]
    square = (state.dim, state.dim)
    assert not any(np.shape(value) == square for value in vars(model).values())


@pytest.mark.parametrize("amplitudes", [
    [math.nan, 0.6, 0.8], [0.6, math.inf, 0.8], [complex(0.6, -math.inf), 0.8, 0.0],
    [1e200, 0.6, 0.8], [1e200, math.nan, 0.0], [0.6, 0.8, 0.1], [0.0, 0.0, 0.0],
    [1e-200, 0.0, 0.0], [0.6, 0.8j, 0.0],
], ids=["nan", "inf", "imag_inf", "overflow", "overflow_nan", "unnormalized", "zero", "tiny",
        "valid"])
def test_pure_validation_labels_match_reference(amplitudes):
    state = pure_state(amplitudes)
    for tol in (DEFAULT_TOL, 1e-6, 2.0):
        assert validate_state(state, tol) == _reference_validate_pure(state, tol), tol


def _count_generator_builds(monkeypatch):
    """The argument tuples of every `direction_generator` call from here on."""
    built = []
    original = collective.direction_generator

    def counting(*args):
        built.append(args)
        return original(*args)

    for module in (collective, qfi):
        monkeypatch.setattr(module, "direction_generator", counting)
    return built


def test_rotate_and_probabilities_build_no_generator(monkeypatch):
    # on the dense path nothing reads J_n: F_cl takes h and the J_+ band, not J_n c
    built = _count_generator_builds(monkeypatch)
    state, n = make_fock_state(13, 40), Direction(0.48, 0.64, 0.6)
    rotate(state, n, 0.7)
    measurement_probabilities(state, n, 0.7)
    classical_fisher(state, n, 0.7)
    assert built == []


def test_propagated_model_hands_its_generator_to_the_propagator(monkeypatch):
    built = _count_generator_builds(monkeypatch)
    state, n = make_fock_state(100, collective.PROPAGATOR_MIN_N), Direction(0.48, 0.64, 0.6)
    model = metrology._RotationModel(state, n)
    assert model.propagated and built == []  # the path is chosen; nothing is built yet
    # one angle takes `apply_u2`, which propagates about x: it builds J_x, never J_n
    model.classical_fisher(0.7)
    model.classical_fisher(1.1)
    assert built == [(state.n_particles, Direction(1.0, 0.0, 0.0))] * 2
    built.clear()
    model.probabilities(np.array([0.7, 1.1]))  # the first array of angles builds J_n's propagator
    assert built == [(state.n_particles, n)]
    reference = direction_generator(state.n_particles, n)
    assert np.array_equal(model.propagator.generator.lower, reference.lower)
    assert np.array_equal(model.propagator.generator.diagonal, reference.diagonal)
    built.clear()
    model.probabilities(np.array([0.3]))  # later arrays reuse it
    model.amplitudes(np.array([0.2, 0.9]))
    assert built == []


@pytest.mark.parametrize("big_n", [collective.PROPAGATOR_MIN_N, 1000])
def test_one_angle_calls_build_no_model_propagator(big_n, monkeypatch):
    # the rotation model's propagators; `apply_u2` builds its own about x in `collective`
    built, original = [], metrology.Propagator
    monkeypatch.setattr(metrology, "Propagator",
                        lambda *args: built.append(args) or original(*args))
    state, n = make_fock_state(big_n // 3, big_n), Direction(0.48, 0.64, 0.6)
    measurement_probabilities(state, n, 0.7)
    classical_fisher(state, n, 0.7)
    assert built == []
    # an estimate rotates its true-angle state at one angle, and the grid and the refinement
    # by the one propagator it builds
    monte_carlo_estimate(state, n, 0.7, 3, 1000, 5)
    assert built == [(big_n, n)]


@pytest.mark.parametrize("state", [make_fock_state(13, 40), diagonal_state(np.full(41, 1 / 41))],
                         ids=["pure", "rho"])
def test_dense_model_builds_no_generator(state, monkeypatch):
    built = _count_generator_builds(monkeypatch)
    model = metrology._RotationModel(state, Direction(0.48, 0.64, 0.6))
    for theta in (0.7, 1.1, 0.7):
        model.classical_fisher(theta)
    assert built == []


@pytest.mark.parametrize("state", [make_fock_state(2, 4), diagonal_state([0.1, 0.2, 0.3, 0.4])],
                         ids=["pure", "rho"])
def test_estimate_checks_the_state_once(state, monkeypatch):
    checked = []
    original = fock.validate_state

    def counting(*args, **kwargs):
        checked.append(args[0])
        return original(*args, **kwargs)

    for module in (fock, qfi, metrology):  # every module that may hold the name
        if hasattr(module, "validate_state"):
            monkeypatch.setattr(module, "validate_state", counting)
    monte_carlo_estimate(state, Direction(1, 0, 0), 0.6, 3, 500, 2)
    assert checked == [state]


@pytest.mark.parametrize("big_n, trials, shots", [(4, 200, 10_000), (20, 50, 2000),
                                                  (100, 20, 1000)])
def test_estimate_budgets_match_reference_rotation(big_n, trials, shots, monkeypatch):
    # the benchmark's three budgets: the true-angle state and F_cl come from `apply_u2`.  With
    # the test-local Euler formula in its place every output is the same bit for bit; with
    # the former `Rotation.apply` the estimates are, and F_cl moves within the golden bound.
    state, n, theta = make_fock_state(big_n // 2, big_n), Direction.in_plane(2.1), 0.8
    run = monte_carlo_estimate(state, n, theta, trials, shots, 5)
    v = _reference_v(big_n)
    for reference_apply in (_reference_euler, _reference_apply):
        calls = []

        def patched(u, c, reference_apply=reference_apply):
            calls.append(u)
            return reference_apply(v, n, c, theta)

        with monkeypatch.context() as patch:
            patch.setattr(metrology, "apply_u2", patched)
            reference = monte_carlo_estimate(state, n, theta, trials, shots, 5)
        # one call, for the true-angle state, which F_cl reuses
        assert len(calls) == 1, reference_apply.__name__
        assert np.array_equal(calls[0], _su2_matrix(n, theta)), reference_apply.__name__
        assert np.array_equal(run.estimates, reference.estimates)
        for field in ("empirical_std", "qcrb", "fisher"):
            assert getattr(run, field) == getattr(reference, field), field
        for field in ("ccrb", "classical_fisher"):
            if reference_apply is _reference_euler:
                assert getattr(run, field) == getattr(reference, field), field
            else:
                assert getattr(run, field) == pytest.approx(getattr(reference, field),
                                                            rel=1e-13), field


def _sample_states(big_n, rng):
    """A random pure state, a Fock state, a random density matrix and a diagonal one."""
    c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
    a = rng.normal(size=(big_n + 1, 3)) + 1j * rng.normal(size=(big_n + 1, 3))
    rho = a @ a.conj().T
    return [pure_state(c / np.linalg.norm(c)), make_fock_state(big_n // 3, big_n),
            density_state(rho / np.trace(rho).real),
            diagonal_state(rng.dirichlet(np.ones(big_n + 1)))]


@pytest.mark.parametrize("big_n", [0, 1, 2, 7, 40, collective.PROPAGATOR_MIN_N - 1])
def test_dense_grid_block_is_probabilities_on_the_grid(big_n):
    # one product of the cached table with W, the same bit for bit as the series at the grid
    rng = np.random.default_rng(big_n + 7)
    grid = metrology._estimation_grid(big_n)
    for state in _sample_states(big_n, rng):
        model = metrology._RotationModel(state, Direction(0.48, 0.64, 0.6))
        (start, p, amplitudes), = model.grid_blocks(grid)
        assert start == 0 and amplitudes is None
        assert np.array_equal(p, model.probabilities(grid))


def test_grid_table_cached_below_propagator_min_n_read_only():
    metrology._cached_grid_table.cache_clear()
    tables = []
    for state, n in ((make_fock_state(20, 40), Direction(1, 0, 0)),
                     (diagonal_state(np.full(41, 1 / 41)), Direction(0.48, 0.64, 0.6))):
        model = metrology._RotationModel(state, n)
        list(model.grid_blocks(metrology._estimation_grid(40)))
        tables.append(metrology._grid_table(40))
    assert tables[0] is tables[1]  # every model at one N reads the same array
    assert not tables[0].flags.writeable
    assert tables[0].shape == (GRID_POINTS, 2 * 41)
    info = metrology._cached_grid_table.cache_info()
    assert info.currsize == 1 and info.maxsize == 4
    # from PROPAGATOR_MIN_N on, only density matrices take the dense path: built per call
    big_n = collective.PROPAGATOR_MIN_N
    state = diagonal_state(np.random.default_rng(2).dirichlet(np.ones(big_n + 1)))
    model = metrology._RotationModel(state, Direction(1, 0, 0))
    grid = metrology._estimation_grid(big_n)
    (_, p, _), = model.grid_blocks(grid)
    assert np.array_equal(p, model.probabilities(grid))
    assert metrology._grid_table(big_n) is not metrology._grid_table(big_n)
    assert metrology._cached_grid_table.cache_info().currsize == 1


# A pure state's W reads A = Q diag(Q^dag c) off the formed eigenbasis Q; before, the former
# `Rotation.projections` gave A up to one unit phase per row without forming Q.  Against a
# test-local copy of that route, as the documented golden change.

def _former_projections(big_n, n, c):
    """The former `Rotation.projections`: the polar and azimuthal angles of n, P = diag((-i)^k)
    and J_x = V Lambda V^T give A up to the row phases diag(e^{-ik phi}) P, from two products
    of V with a column and one with a block."""
    v, k = _reference_v(big_n), np.arange(big_n + 1)
    beta, phi = math.atan2(math.hypot(n.n_x, n.n_y), n.n_z), math.atan2(n.n_y, n.n_x)
    angle = beta * (k - big_n / 2)
    tilt = (np.cos(angle) - 1j * np.sin(angle))[:, None]
    outer = np.exp(-1j * phi * k) * np.array([1.0, -1.0j, -1.0, 1.0j])[k % 4]
    x = (outer.conj() * np.asarray(c, dtype=complex))[:, None].view(float)
    y = (v @ ((v.T @ x).view(complex) * tilt.conj()).view(float)).view(complex)
    return (v @ np.multiply(v.T, tilt * y.T, order="C").view(float)).view(complex)


def _former_fourier(model):
    """A pure state's W with A from `_former_projections`: the autocorrelation of each row of A
    by two FFTs, as `fourier` takes it."""
    state = model.state
    a = _former_projections(state.n_particles, model.n, state.amplitudes)
    size = 1 << (2 * state.dim - 2).bit_length()
    f = np.fft.fft(a, size, axis=1)
    coef = np.fft.rfft(f.real ** 2 + f.imag ** 2, axis=1)[:, :state.dim] / size
    coef[:, 1:] *= 2.0
    return np.ascontiguousarray(coef.view(float).T)


@pytest.mark.parametrize("big_n", [1, 2, 7, 40, 100, collective.PROPAGATOR_MIN_N - 1])
def test_projections_match_q_route(big_n, monkeypatch):
    # equal up to one unit phase per row, so p(theta) agrees to rounding
    rng = np.random.default_rng(big_n + 11)
    tilted = np.array([1e-9, 0.0, 1.0])
    directions = [Direction(0, 0, 1), Direction(0, 0, -1),
                  Direction(*(tilted / np.linalg.norm(tilted)))]
    directions += [Direction(*(u / np.linalg.norm(u))) for u in rng.normal(size=(2, 3))]
    angles = rng.uniform(-4.0, 4.0, size=6)
    for state in _sample_states(big_n, rng)[:2]:
        for n in directions:
            q = collective.eigenbasis(big_n, n)
            a_q = q * (q.conj().T @ state.amplitudes)
            a = _former_projections(big_n, n, state.amplitudes)
            assert np.abs(np.abs(a) - np.abs(a_q)).max() <= 1e-14
            p_q = measurement_probabilities(state, n, angles)
            with monkeypatch.context() as patch:
                patch.setattr(metrology._RotationModel, "fourier", property(_former_fourier))
                p = measurement_probabilities(state, n, angles)
            assert np.abs(p - p_q).max() <= 1e-14, n


@pytest.mark.parametrize("big_n, trials, shots", [(4, 200, 10_000), (20, 50, 2000),
                                                  (100, 20, 1000)])
def test_estimate_budgets_within_refine_tol_of_q_route(big_n, trials, shots, monkeypatch):
    # W changes at rounding level only, so each estimate moves by at most REFINE_TOL; F and
    # F_cl do not read W
    state = make_fock_state(big_n // 2, big_n)
    for n, theta, seed in ((Direction.in_plane(2.1), 0.8, 5), (Direction.in_plane(0.4), 0.5, 6)):
        run = monte_carlo_estimate(state, n, theta, trials, shots, seed)
        with monkeypatch.context() as patch:
            patch.setattr(metrology._RotationModel, "fourier", property(_former_fourier))
            reference = monte_carlo_estimate(state, n, theta, trials, shots, seed)
        assert np.abs(run.estimates - reference.estimates).max() <= REFINE_TOL
        assert run.fisher == reference.fisher
        assert run.classical_fisher == reference.classical_fisher


def test_moved_state_keeps_its_new_array(monkeypatch):
    # `rotate` and `transform_state` hand their new amplitudes or rho over read-only, and every
    # SectorState they build keeps the array it is given rather than copying it
    kept = []

    def recording(values, dtype, original=fock.frozen):
        out = original(values, dtype)
        kept.append(out is values)
        return out

    monkeypatch.setattr(fock, "frozen", recording)
    n, frame = Direction(0.48, 0.64, 0.6), bogolubov_frame(0.4)
    states = (make_fock_state(13, 40), make_fock_state(100, collective.PROPAGATOR_MIN_N + 50),
              diagonal_state(np.full(5, 0.2)))
    for state in states:
        for move in (lambda s: rotate(s, n, 0.3), lambda s: transform_state(s, frame)):
            kept.clear()
            moved = move(state)
            array = moved.amplitudes if state.is_pure else moved.rho
            assert kept and all(kept), (state.n_particles, kept)
            assert array.base is None and not array.flags.writeable


# From PROPAGATOR_MIN_N on, a pure state at one angle is rotated by `apply_u2`, which
# propagates about x, where the model's propagator about n rotated it before.  Against a
# test-local copy of that route, as the documented golden change.

def _former_propagated(state, n, theta):
    """exp(i theta J_n) c as the rotation model's propagator gave it at one angle."""
    propagator = collective.Propagator(state.n_particles, n)
    return propagator.apply(state.amplitudes, propagator.coefficients(theta))


@pytest.mark.parametrize("big_n", [collective.PROPAGATOR_MIN_N, 300, 1000])
def test_one_angle_calls_read_one_rotation_from_the_crossover_on(big_n):
    # p at a scalar angle is |rotate(...)|^2 and F_cl reads the same c(theta), bit for bit.
    # Against the former route the amplitudes and p move by at most N eps (the largest moves
    # over these cases are 0.23 and 0.022 N eps), and F_cl by at most 1e-12 F (1.0e-14 F)
    rng = np.random.default_rng(big_n + 17)
    bound = big_n * np.finfo(float).eps
    c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
    v = rng.normal(size=3)
    directions = [Direction(1, 0, 0), Direction(0.48, 0.64, 0.6), Direction(0.6, 0.0, 0.8),
                  Direction(*(v / np.linalg.norm(v)))]
    for state in (pure_state(c / np.linalg.norm(c)), make_fock_state(big_n // 3, big_n)):
        for n in directions:
            lower = 0.5 * complex(n.n_x, -n.n_y) * collective.su2_bands(big_n)[1]
            fisher = qfi.qfi_state(state, n)
            for theta in (0.3, 0.9, -2.0, math.pi, 7.5):
                amplitudes = rotate(state, n, theta).amplitudes
                p = measurement_probabilities(state, n, theta)
                f_cl = classical_fisher(state, n, theta)
                assert np.array_equal(p, np.abs(amplitudes) ** 2), (n, theta)
                assert f_cl == metrology._pure_fisher(lower, amplitudes), (n, theta)
                former = _former_propagated(state, n, theta)
                assert np.abs(amplitudes - former).max() <= bound, (n, theta)
                assert np.abs(p - np.abs(former) ** 2).max() <= bound, (n, theta)
                assert abs(f_cl - metrology._pure_fisher(lower, former)) <= 1e-12 * fisher
