import math
import tracemalloc

import numpy as np
import pytest

from modefisher import (Direction, MonomialOp, bogolubov_frame, density_state,
                        diagonal_state, direction_generator, expectation,
                        factorization_residual, is_separable,
                        make_fock_state, monomial_matrix, pure_state, rotate,
                        spatial_frame, spin_squeezing_witness, transform_state,
                        witness_monomials)
from modefisher.collective import su2_bands
from modefisher.separability import WITNESS_TIE_TOL, largest_coherence

SQ2 = math.sqrt(2)


def random_pure(rng, big_n):
    c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
    return pure_state(c / np.linalg.norm(c))


def dense_pick(state):
    """The largest coherence and its witness pick, read from the formed rho."""
    rho = state.density_matrix()
    off = np.abs(rho - np.diag(np.diag(rho)))
    lower = np.tril(off, k=-1)
    first = np.flatnonzero(lower >= (1.0 - WITNESS_TIE_TOL) * lower.max())[0]
    return off.max(), tuple(int(i) for i in np.unravel_index(first, lower.shape))


def random_density(rng, big_n):
    a = rng.normal(size=(big_n + 1, big_n + 1)) + 1j * rng.normal(size=(big_n + 1, big_n + 1))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return density_state(rho)


class TestIsSeparable:
    def test_diagonal_mixture_is_separable(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(6))
        verdict = is_separable(diagonal_state(p), spatial_frame())
        assert verdict.separable
        assert verdict.max_offdiagonal <= 1e-12

    def test_twin_fock_entangled_in_energy_frame(self):
        for phi in (0.0, 0.7, 3.0):
            verdict = is_separable(make_fock_state(2, 4), bogolubov_frame(phi))
            assert not verdict.separable

    def test_cat_superposition_entangled(self):
        psi = np.array([1 / SQ2, 0.0, 1 / SQ2])
        verdict = is_separable(pure_state(psi), spatial_frame())
        assert not verdict.separable
        assert verdict.max_offdiagonal == pytest.approx(0.5)

    def test_witness_details_on_entangled(self):
        psi = np.array([1 / SQ2, 1 / SQ2])
        verdict = is_separable(pure_state(psi), spatial_frame())
        assert verdict.witness_details is not None
        w = verdict.witness_details
        # Certificate residual equals rho_{n m} sqrt(m! n! (N-m)! (N-n)!)
        assert abs(w.residual) > 1e-10

    @pytest.mark.parametrize("big_n", [60, 200])
    def test_fock_state_separable_in_its_own_frame(self, big_n):
        frame = bogolubov_frame(0.4)
        state = make_fock_state(big_n // 3, big_n, frame)
        assert is_separable(state, frame).separable
        # through the spatial frame and back: two images of 2x2 mixings
        round_trip = transform_state(transform_state(state, spatial_frame()), frame)
        assert is_separable(round_trip, bogolubov_frame(0.4)).separable

    @pytest.mark.parametrize("big_n", [4, 60, 170])
    def test_witness_finite_in_double_range(self, big_n):
        verdict = is_separable(make_fock_state(big_n // 3, big_n), bogolubov_frame(0.4))
        assert not verdict.separable
        assert 0.0 < abs(verdict.witness_details.residual) < math.inf

    @pytest.mark.parametrize("big_n, rank", [(4, 1), (60, 1), (200, 1), (1000, 1), (4, 3), (60, 3)])
    def test_witness_log_residual_matches_factorial_oracle(self, big_n, rank):
        c = transform_state(make_fock_state(big_n // 3, big_n), bogolubov_frame(0.4)).amplitudes
        state = pure_state(c)
        if rank > 1:  # a mixture with the Fock states |0> and |N>, which move no coherence
            rho = 0.8 * np.outer(c, c.conj())
            rho[0, 0] += 0.1
            rho[big_n, big_n] += 0.1
            state = density_state(rho)
        w = is_separable(state, spatial_frame()).witness_details
        row, col = w.op.n, w.op.m
        coherence = state.rho[row, col] if rank > 1 else c[row] * c[col].conj()
        exact = math.prod(math.factorial(j) for j in (row, col, big_n - row, big_n - col))
        oracle = math.log10(exact) / 2 + math.log10(abs(coherence))
        assert w.log10_abs_residual == pytest.approx(oracle, rel=1e-12)
        assert w.residual_phase == pytest.approx(np.angle(coherence), abs=1e-15)
        if big_n <= 60:  # the chunked product's value fits in a double
            assert w.log10_abs_residual == pytest.approx(math.log10(abs(w.residual)), rel=1e-13)
            assert w.residual_phase == pytest.approx(np.angle(w.residual), abs=1e-13)

    def test_witness_past_double_range_raises(self):
        verdict = is_separable(make_fock_state(66, 200), bogolubov_frame(0.4))
        assert not verdict.separable
        with pytest.raises(ValueError, match="double range"):
            verdict.witness_details.residual

    @pytest.mark.parametrize("separable", [True, False])
    def test_pure_verdict_at_n2000_forms_no_square_array(self, separable):
        # one (N+1)^2 complex array is 64 MB at N = 2000
        big_n, frame = 2000, bogolubov_frame(0.4)
        state = make_fock_state(big_n // 3, big_n, frame if separable else spatial_frame())
        if separable:
            state = transform_state(state, spatial_frame())
        tracemalloc.start()
        try:
            verdict = is_separable(state, frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.separable == separable
        assert peak < 16e6

    @pytest.mark.parametrize("k, big_n", [(1, 4), (3, 9)])
    def test_tied_coherences_give_one_witness(self, k, big_n):
        # four |c_j| are equal in exact arithmetic, so six coherences tie; frames one and
        # more doubles of phi apart round them differently, and the first tie still wins
        phis = [0.4]
        while len(phis) < 40:
            phis.append(float(np.nextafter(phis[-1], 1.0)))
        ops = {is_separable(make_fock_state(k, big_n), bogolubov_frame(phi)).witness_details.op
               for phi in phis}
        assert ops == {MonomialOp(0, 1, big_n, big_n - 1)}  # the coherence rho_10

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError, match="invalid"):
            is_separable(density_state(np.diag([0.2, 0.2])), spatial_frame())


class TestLargestCoherence:
    def test_pure_pick_matches_dense_pick(self):
        rng = np.random.default_rng(31)
        states = []
        for big_n in range(1, 40):
            states.append(random_pure(rng, big_n))
            c = random_pure(rng, big_n).amplitudes.copy()
            c[rng.random(big_n + 1) < 0.7] = 0.0
            c[big_n // 2] = 1.0
            states.append(pure_state(c / np.linalg.norm(c)))
        # the tied cases of test_tied_coherences_give_one_witness, moved into their frames
        phi = 0.4
        for _ in range(40):
            for k, big_n in ((1, 4), (3, 9)):
                states.append(transform_state(make_fock_state(k, big_n), bogolubov_frame(phi)))
            phi = float(np.nextafter(phi, 1.0))
        for state in states:
            largest, pick = largest_coherence(state)
            dense_largest, dense = dense_pick(state)
            assert largest == pytest.approx(dense_largest, rel=1e-15)
            if dense_largest > 0.0:  # a Fock vector has no coherence to pick
                assert pick == dense

    def test_density_matches_dense_pick(self):
        rng = np.random.default_rng(32)
        for big_n in range(1, 9):
            state = random_density(rng, big_n)
            assert largest_coherence(state) == dense_pick(state)

    def test_vacuum_has_no_coherence(self):
        assert largest_coherence(make_fock_state(0, 0)) == (0.0, None)


class TestFactorizationResidual:
    def test_band_matches_dense_expectation(self):
        rng = np.random.default_rng(33)
        for big_n in range(1, 8):
            for state in (random_pure(rng, big_n), random_density(rng, big_n)):
                for op in witness_monomials(big_n):
                    dense = expectation(state, monomial_matrix(op, big_n))
                    assert factorization_residual(state, op) == pytest.approx(
                        dense, rel=1e-12, abs=0.0)

    def test_diagonal_states_have_zero_residuals(self):
        rng = np.random.default_rng(6)
        for big_n in (2, 4, 7):
            state = diagonal_state(rng.dirichlet(np.ones(big_n + 1)))
            for op in witness_monomials(big_n):
                assert abs(factorization_residual(state, op)) <= 1e-12

    def test_single_particle_coherence(self):
        # (|1,0> + |0,1>)/sqrt(2) with a1 a2^dag gives 1/2
        psi = pure_state(np.array([1 / SQ2, 1 / SQ2]))
        val = factorization_residual(psi, MonomialOp(0, 1, 1, 0))
        assert val == pytest.approx(0.5)

    def test_proof_monomial_extracts_single_coherence(self):
        # with (m, n, N-m, N-n) the residual is rho_{n m} sqrt(m! n! (N-m)! (N-n)!)
        big_n, m, n = 4, 1, 3
        rho = np.diag([0.2, 0.2, 0.2, 0.2, 0.2]).astype(complex)
        rho[n, m] = 0.05 - 0.02j
        rho[m, n] = 0.05 + 0.02j
        state = density_state(rho)
        op = MonomialOp(m, n, big_n - m, big_n - n)
        expected = rho[n, m] * math.sqrt(
            math.factorial(m) * math.factorial(n)
            * math.factorial(big_n - m) * math.factorial(big_n - n))
        assert factorization_residual(state, op) == pytest.approx(expected)

    def test_same_frame_fock_witness_beyond_factorial_170(self):
        # the coefficient sqrt(100! 99!) is about 1e157; a Fock state has no coherence
        frame = bogolubov_frame(0.4)
        for k in (98, 99, 100):
            val = factorization_residual(make_fock_state(k, 100, frame), MonomialOp(99, 100, 1, 0))
            assert val == 0.0

    def test_rejects_non_witness_pattern(self):
        with pytest.raises(ValueError, match="witness family"):
            factorization_residual(make_fock_state(1, 2), MonomialOp(1, 1, 0, 0))


class TestWitnessEquivalence:
    def test_residuals_zero_iff_diagonal(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            big_n = int(rng.integers(1, 7))
            if rng.random() < 0.5:
                state = diagonal_state(rng.dirichlet(np.ones(big_n + 1)))
            else:
                state = random_density(rng, big_n)
            rho = state.density_matrix()
            diagonal = np.abs(rho - np.diag(np.diag(rho))).max() <= 1e-10
            all_zero = all(abs(factorization_residual(state, op)) <= 1e-10
                           for op in witness_monomials(big_n))
            assert all_zero == diagonal
            assert is_separable(state, spatial_frame()).separable == diagonal


class TestBipartitionRelativity:
    def test_fock_states(self):
        for big_n in range(1, 9):
            for k in range(big_n + 1):
                state = make_fock_state(k, big_n)
                assert is_separable(state, spatial_frame()).separable
                for phi in np.linspace(0, 2 * math.pi, 8, endpoint=False):
                    assert not is_separable(state, bogolubov_frame(phi)).separable


class TestRotationLocality:
    def test_z_rotations_preserve_separability(self):
        rng = np.random.default_rng(21)
        for big_n in (2, 5):
            state = diagonal_state(rng.dirichlet(np.ones(big_n + 1)))
            rotated = rotate(state, Direction(0, 0, 1), 0.9)
            assert is_separable(rotated, spatial_frame()).separable

    def test_x_rotation_entangles_twin_fock(self):
        rotated = rotate(make_fock_state(2, 4), Direction(1, 0, 0), 0.8)
        assert not is_separable(rotated, spatial_frame()).separable


class TestSpinSqueezingWitness:
    def test_twin_fock(self):
        w = spin_squeezing_witness(make_fock_state(3, 6))
        assert w.lhs == pytest.approx(0.0, abs=1e-10)
        assert w.rhs == pytest.approx(0.0, abs=1e-10)
        assert not w.violated

    def test_coherent_spin_state_equality(self):
        self._check_coherent_spin_state_equality(6)

    @pytest.mark.parametrize("big_n", [100, 200, 1000, 10_000])
    def test_coherent_spin_state_equality_large_n(self, big_n):
        self._check_coherent_spin_state_equality(big_n)

    @staticmethod
    def _check_coherent_spin_state_equality(big_n):
        # (b1^dag)^N |0>/sqrt(N!) expressed spatially: lhs = N^2/4 = rhs
        state = transform_state(make_fock_state(big_n, big_n, bogolubov_frame(0.0)),
                                spatial_frame())
        w = spin_squeezing_witness(state)
        assert w.lhs == pytest.approx(big_n ** 2 / 4, rel=1e-9)
        assert w.rhs == pytest.approx(big_n ** 2 / 4, rel=1e-9)
        assert not w.violated
        # |0> turned about generic axes sits on the equality too.  Rounding leaves lhs up to
        # 2e-11 N^2/4 below rhs at N = 10^4; (0.8, 0, 0.6) ends near the pole, where both
        # sides are a tenth of N^2/4
        for n, theta in ((Direction(1, 0, 0), 0.7), (Direction(0.48, 0.64, 0.6), 0.9),
                         (Direction(0.36, 0.48, 0.8), 1.1), (Direction(0.6, 0.8, 0), 0.3),
                         (Direction(0.8, 0, 0.6), 0.4)):
            w = spin_squeezing_witness(rotate(make_fock_state(0, big_n), n, theta))
            assert w.lhs == pytest.approx(w.rhs, rel=1e-9)
            assert not w.violated

    def test_coherent_states_at_n10k_within_their_rounding(self):
        # the rounding of these coherent states leaves rhs above lhs by up to 1.1e-11 N^2/4,
        # past tol = 1e-12 but within the sums' rounding, 16 eps (3N + 2) N^2/4 = 1.1e-10 N^2/4
        big_n = 10_000
        for n, theta in ((Direction(0.6, 0.8, 0), 0.7), (Direction(0.36, 0.48, 0.8), 1.1),
                         (Direction(0, 1, 0), 0.3), (Direction(1, 0, 0), 2.0)):
            w = spin_squeezing_witness(rotate(make_fock_state(0, big_n), n, theta), tol=1e-12)
            assert w.lhs == pytest.approx(w.rhs, rel=1e-9)
            assert not w.violated

    @pytest.mark.parametrize("big_n, ratio", [(20, 0.2), (100, 0.065), (1000, 0.013)])
    def test_twisted_and_turned_state_is_squeezed(self, big_n, ratio):
        # exp(-i mu Jz^2 / 2), mu = 2 N^(-2/3), twists the coherent state along x; turning it
        # about x brings its narrowest axis, from the y-z covariance, onto z
        jz, _ = su2_bands(big_n)
        c = rotate(make_fock_state(0, big_n), Direction(0, 1, 0), math.pi / 2).amplitudes
        c = c * np.exp(-1j * big_n ** (-2 / 3) * jz ** 2)
        y, z = direction_generator(big_n, Direction(0, 1, 0)).apply(c), jz * c
        cov = [[np.vdot(u, v).real - np.vdot(c, u).real * np.vdot(c, v).real for v in (y, z)]
               for u in (y, z)]
        turn = 0.5 * (math.atan2(cov[0][1], (cov[1][1] - cov[0][0]) / 2) + math.pi)
        w = spin_squeezing_witness(rotate(pure_state(c), Direction(1, 0, 0), -turn))
        assert w.violated
        assert w.lhs < ratio * w.rhs

    def test_polar_state(self):
        w = spin_squeezing_witness(make_fock_state(0, 5))
        assert w.lhs == pytest.approx(0.0, abs=1e-10)
        assert w.rhs == pytest.approx(0.0, abs=1e-10)
        assert not w.violated

    def test_caveat_is_attached(self):
        w = spin_squeezing_witness(make_fock_state(1, 2))
        assert "identical" in w.caveat

    @pytest.mark.parametrize("big_n", [1, 2, 7, 30, 60])
    def test_pure_state_matches_dense_route(self, big_n):
        # a pure state is read from its amplitudes; the same state as rho is read from rho
        rng = np.random.default_rng(50 + big_n)
        for frame in (spatial_frame(), bogolubov_frame(0.4)):
            c = random_pure(rng, big_n).amplitudes
            w = spin_squeezing_witness(pure_state(c, frame))
            dense = spin_squeezing_witness(density_state(np.outer(c, c.conj()), frame))
            scale = 1e-12 * big_n ** 2
            assert w.lhs == pytest.approx(dense.lhs, rel=1e-12, abs=scale)
            assert w.rhs == pytest.approx(dense.rhs, rel=1e-12, abs=scale)
            assert w.violated == dense.violated

    def test_pure_state_at_n2000_forms_no_square_array(self):
        # one (N+1)^2 complex array is 64 MB at N = 2000
        state = make_fock_state(2000 // 3, 2000, bogolubov_frame(0.4))
        tracemalloc.start()
        try:
            w = spin_squeezing_witness(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert w.lhs > 0.0
