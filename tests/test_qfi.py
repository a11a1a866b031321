import math

import numpy as np
import pytest

from modefisher import collective
from modefisher import (Direction, classify, custom_frame, density_state,
                        diagonal_state, direction_generator, frame_change_unitary,
                        make_fock_state, pure_state, qfi_diagonal_closed_form, qfi_pure,
                        qfi_pure_fock, qfi_spectral, schwinger, transform_state,
                        variance_bound)
from modefisher.qfi import (CLASS_HEISENBERG, CLASS_SHOT_NOISE,
                            CLASS_SUB_SHOT_NOISE, CLASS_ZERO)
from tests.test_frames import random_unitary_2x2


def test_qfi_pure_runs_no_eigensolver(monkeypatch):
    # the sector cache holds the bands of J_n and builds J_x's eigenbasis only when read
    collective._cached_sector.cache_clear()
    calls = []
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda *args, name=name, **kwargs: calls.append(name))
    for big_n in (0, 7, collective.PROPAGATOR_MIN_N - 1):
        assert qfi_pure(make_fock_state(big_n // 3, big_n), Direction(0.6, 0.0, 0.8)) == \
            pytest.approx(qfi_pure_fock(big_n // 3, big_n, Direction(0.6, 0.0, 0.8)), rel=1e-12)
    assert calls == []


class TestQfiSpectral:
    def test_pure_fock_in_plane(self):
        for big_n, k in ((4, 1), (6, 3), (9, 0)):
            state = make_fock_state(k, big_n)
            g = direction_generator(big_n, Direction.in_plane(0.9))
            assert qfi_spectral(state, g) == pytest.approx(
                big_n + 2 * k * (big_n - k), abs=1e-8)

    def test_maximally_mixed_is_zero(self):
        rho = density_state(np.eye(3) / 3)
        for n in (Direction(1, 0, 0), Direction(0, 0, 1), Direction(0.6, 0.0, 0.8)):
            assert qfi_spectral(rho, direction_generator(2, n)) == pytest.approx(0.0, abs=1e-10)

    def test_polar_mixture_by_hand(self):
        # rho = (|2,0><2,0| + |0,2><0,2|)/2 under Jx: the spectral sum gives 2
        rho = diagonal_state([0.5, 0.0, 0.5])
        g = direction_generator(2, Direction(1, 0, 0))
        assert qfi_spectral(rho, g) == pytest.approx(2.0, abs=1e-10)

    def test_invalid_state_rejected(self):
        bad = density_state(np.diag([0.7, 0.7]))
        with pytest.raises(ValueError, match="invalid state"):
            qfi_spectral(bad, direction_generator(1, Direction(1, 0, 0)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            qfi_spectral(make_fock_state(0, 1), np.eye(5))

    def test_one_eigendecomposition_of_rho(self, monkeypatch):
        # the positivity check computes no eigenvalue: the spectral sum's eigh is the one, and
        # a non-positive rho is rejected before it
        calls = []

        def counting(solver):
            def call(*args, **kwargs):
                calls.append(solver.__name__)
                return solver(*args, **kwargs)
            return call

        for solver in (np.linalg.eigh, np.linalg.eigvalsh):
            monkeypatch.setattr(np.linalg, solver.__name__, counting(solver))
        rng = np.random.default_rng(5)
        a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        rho = a @ a.conj().T
        g = direction_generator(6, Direction(0.6, 0.0, 0.8))
        assert qfi_spectral(density_state(rho / np.trace(rho)), g) > 0.0
        assert calls == ["eigh"]
        calls.clear()
        with pytest.raises(ValueError, match="^invalid state: positivity$"):
            qfi_spectral(density_state(np.diag([1.2, -0.2])),
                         direction_generator(1, Direction(1, 0, 0)))
        assert calls == []


class TestQfiPure:
    @pytest.mark.parametrize("big_n", [0, 1, 2, 5, 30, 150, 200])
    def test_matches_spectral_oracle(self, big_n):
        # rho = c c^dag has N null eigenvalues; eigh returns about half of them negative
        rng = np.random.default_rng(100 + big_n)
        for _ in range(5):
            c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
            c /= np.linalg.norm(c)
            v = rng.normal(size=3)  # n_z != 0 almost surely
            n = Direction(*(v / np.linalg.norm(v)))
            spectral = qfi_spectral(density_state(np.outer(c, c.conj())),
                                    direction_generator(big_n, n))
            assert qfi_pure(pure_state(c), n) == pytest.approx(spectral, rel=1e-13, abs=1e-12)

    @pytest.mark.parametrize("big_n", [2, 1000, 100_000])
    def test_twin_fock(self, big_n):
        f = qfi_pure(make_fock_state(big_n // 2, big_n), Direction.in_plane(0.4))
        assert f == pytest.approx(big_n ** 2 / 2 + big_n, rel=1e-12)

    def test_off_norm_state_follows_tol_and_the_spectral_sum(self):
        rng = np.random.default_rng(5)
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        c *= math.sqrt(1.0 + 1e-6) / np.linalg.norm(c)
        n = Direction(0.0, 0.6, 0.8)
        with pytest.raises(ValueError, match="normalization"):
            qfi_pure(pure_state(c), n)
        spectral = qfi_spectral(pure_state(c), direction_generator(8, n), tol=1e-5)
        assert qfi_pure(pure_state(c), n, tol=1e-5) == pytest.approx(spectral, rel=1e-10)

    def test_zero_vector_under_huge_tol_matches_spectral_sum(self):
        zero = pure_state(np.zeros(4))
        n = Direction(1, 0, 0)
        assert qfi_pure(zero, n, tol=10.0) == qfi_spectral(
            zero, direction_generator(3, n), tol=10.0) == 0.0

    def test_mixed_state_rejected(self):
        with pytest.raises(ValueError, match="pure"):
            qfi_pure(diagonal_state([0.5, 0.5]), Direction(1, 0, 0))


class TestClosedForm:
    def test_twin_fock(self):
        for big_n in (2, 4, 10):
            p = np.zeros(big_n + 1)
            p[big_n // 2] = 1.0
            f = qfi_diagonal_closed_form(p, big_n, Direction.in_plane(1.2))
            assert f == pytest.approx(big_n ** 2 / 2 + big_n)

    def test_z_direction_vanishes(self):
        p = np.array([0.2, 0.3, 0.5])
        assert qfi_diagonal_closed_form(p, 2, Direction(0, 0, 1)) == 0.0

    def test_uniform_mixture_n2(self):
        p = np.full(3, 1 / 3)
        f = qfi_diagonal_closed_form(p, 2, Direction(1, 0, 0))
        assert f == pytest.approx(0.0, abs=1e-12)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError, match="sum"):
            qfi_diagonal_closed_form([0.4, 0.4], 1, Direction(1, 0, 0))
        with pytest.raises(ValueError, match="nonnegative"):
            qfi_diagonal_closed_form([1.2, -0.2], 1, Direction(1, 0, 0))
        for p in ([math.nan, 0.5, 0.5], [0.5, 0.5, math.nan]):  # NaN fails no comparison
            with pytest.raises(ValueError, match="finite"):
                qfi_diagonal_closed_form(p, 2, Direction(1, 0, 0))

    def test_zero_probability_pairs_contribute_zero(self):
        p = np.array([0.5, 0.0, 0.0, 0.5])
        f = qfi_diagonal_closed_form(p, 3, Direction(1, 0, 0))
        assert math.isfinite(f)

    def test_consecutive_zero_probabilities_hand_value(self):
        # N + 2 sum p_k k(N-k) - 4 sum p_k p_{k+1}/(p_k + p_{k+1}) (k+1)(N-k)
        # = 4 + 2 * 0.75 - 4 * (0.125 * 4) = 3.5; the 0/0 pair (2, 3) adds nothing
        p = np.array([0.25, 0.25, 0.0, 0.0, 0.5])
        assert qfi_diagonal_closed_form(p, 4, Direction(1, 0, 0)) == pytest.approx(3.5, abs=1e-14)

    def test_matches_per_k_loop(self):
        def loop_reference(p, big_n):
            k_all = np.arange(big_n + 1)
            total = big_n + 2.0 * float(np.sum(p * k_all * (big_n - k_all)))
            for k in range(big_n):
                if p[k] + p[k + 1] > 0.0:
                    total -= 4.0 * p[k] * p[k + 1] / (p[k] + p[k + 1]) * (k + 1) * (big_n - k)
            return total

        rng = np.random.default_rng(31)
        for big_n in (1, 7, 40):
            p = rng.random(big_n + 1) * (rng.random(big_n + 1) < 0.6)
            p[0] = 1.0
            p /= p.sum()
            f = qfi_diagonal_closed_form(p, big_n, Direction(1, 0, 0))
            assert f == pytest.approx(loop_reference(p, big_n), rel=1e-12, abs=1e-12)

    def test_matches_spectral_oracle(self):
        rng = np.random.default_rng(42)
        for big_n in range(2, 21, 3):
            for _ in range(20):
                p = rng.dirichlet(np.ones(big_n + 1))
                v = rng.normal(size=3)
                n = Direction(*(v / np.linalg.norm(v)))
                closed = qfi_diagonal_closed_form(p, big_n, n)
                spectral = qfi_spectral(diagonal_state(p), direction_generator(big_n, n))
                assert abs(closed - spectral) <= 1e-8 * max(1.0, closed)

    @pytest.mark.parametrize("big_n", [400, 600, 1000])
    def test_gaussian_diagonal_matches_spectral_oracle(self, big_n):
        # p's tails fall far below 1e-12, and the spectral sum keeps their pairs
        k = np.arange(big_n + 1)
        p = np.exp(-(k - big_n / 2) ** 2 / (2 * big_n))
        p /= p.sum()
        n = Direction(1, 0, 0)
        closed = qfi_diagonal_closed_form(p, big_n, n)
        spectral = qfi_spectral(diagonal_state(p), direction_generator(big_n, n))
        assert spectral == pytest.approx(closed, rel=1e-12)


class TestQfiPureFock:
    def test_values(self):
        assert qfi_pure_fock(1, 4, Direction(1, 0, 0)) == pytest.approx(10.0)
        assert qfi_pure_fock(0, 10, Direction(0, 1, 0)) == pytest.approx(10.0)
        assert qfi_pure_fock(2, 4, Direction(0, 0, 1)) == 0.0

    def test_range(self):
        with pytest.raises(ValueError):
            qfi_pure_fock(5, 4, Direction(1, 0, 0))

    def test_maximized_at_half_filling(self):
        n = Direction.in_plane(0.3)
        for big_n in (3, 8, 15):
            values = [qfi_pure_fock(k, big_n, n) for k in range(big_n + 1)]
            assert int(np.argmax(values)) == big_n // 2


class TestVarianceBound:
    def test_pure_state_saturates(self):
        state = make_fock_state(2, 4)
        jx = schwinger(4)[0]
        f, four_var, gap = variance_bound(state, jx)
        assert abs(gap) <= 1e-8
        assert f == pytest.approx(four_var, abs=1e-8)

    def test_mixed_state_strict(self):
        rho = density_state(np.eye(3) / 3)
        f, four_var, gap = variance_bound(rho, schwinger(2)[0])
        assert f == pytest.approx(0.0, abs=1e-10)
        assert four_var > 0.1

    def test_jz_eigenstate(self):
        state = make_fock_state(0, 5)
        jz = schwinger(5)[2]
        f, four_var, _ = variance_bound(state, jz)
        assert f == pytest.approx(0.0, abs=1e-10)
        assert four_var == pytest.approx(0.0, abs=1e-10)

    def test_gap_nonnegative_on_random_mixtures(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            big_n = int(rng.integers(1, 9))
            a = rng.normal(size=(big_n + 1, big_n + 1)) + 1j * rng.normal(size=(big_n + 1, big_n + 1))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            _, _, gap = variance_bound(density_state(rho), schwinger(big_n)[1])
            assert gap >= -1e-8


class TestClassify:
    def test_sub_shot_noise(self):
        rep = classify(12.0, 4)
        assert rep.classification == CLASS_SUB_SHOT_NOISE
        assert rep.heisenberg_fraction == pytest.approx(0.75)
        assert rep.phase_bound == pytest.approx(1 / math.sqrt(12), abs=1e-5)

    def test_shot_noise_boundary(self):
        rep = classify(10.0, 10)
        assert rep.classification == CLASS_SHOT_NOISE
        assert rep.phase_bound == pytest.approx(1 / math.sqrt(10))

    def test_zero(self):
        rep = classify(0.0, 3)
        assert rep.classification == CLASS_ZERO
        assert rep.phase_bound == math.inf

    def test_heisenberg(self):
        assert classify(16.0, 4).classification == CLASS_HEISENBERG

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify(-1.0, 4)

    def test_nan_rejected(self):
        # NaN fails every comparison, so it would fall through to at-or-below-shot-noise
        with pytest.raises(ValueError, match="NaN"):
            classify(math.nan, 4)

    def test_exceeds_n_squared_rejected(self):
        with pytest.raises(ValueError, match="N\\^2"):
            classify(17.1, 4)

    def test_n_squared_comparisons_are_relative(self):
        assert classify(1e8 * (1 + 1e-15), 10_000).classification == CLASS_HEISENBERG
        with pytest.raises(ValueError, match="N\\^2"):
            classify(1e8 * (1 + 1e-6), 10_000)


class TestFrameInvariance:
    def test_random_triples(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            big_n = int(rng.integers(1, 12))
            k = int(rng.integers(0, big_n + 1))
            state = make_fock_state(k, big_n)
            v3 = rng.normal(size=3)
            g = direction_generator(big_n, Direction(*(v3 / np.linalg.norm(v3))))
            frame = custom_frame(random_unitary_2x2(rng))
            v = frame_change_unitary(big_n, frame)
            f0 = qfi_spectral(state, g)
            f1 = qfi_spectral(transform_state(state, frame), v @ g.matrix @ v.conj().T)
            assert abs(f0 - f1) <= 1e-8 * max(1.0, f0)


def test_fisher_never_exceeds_n_squared():
    rng = np.random.default_rng(13)
    for _ in range(30):
        big_n = int(rng.integers(1, 10))
        a = rng.normal(size=(big_n + 1, big_n + 1)) + 1j * rng.normal(size=(big_n + 1, big_n + 1))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        v3 = rng.normal(size=3)
        g = direction_generator(big_n, Direction(*(v3 / np.linalg.norm(v3))))
        f = qfi_spectral(density_state(rho), g)
        assert f <= big_n ** 2 + 1e-8
