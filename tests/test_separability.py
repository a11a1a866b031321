import math

import numpy as np
import pytest

from modefisher import (Direction, MonomialOp, bogolubov_frame, density_state,
                        diagonal_state, factorization_residual, is_separable,
                        make_fock_state, pure_state, rotate,
                        spatial_frame, spin_squeezing_witness, transform_state,
                        witness_monomials)

SQ2 = math.sqrt(2)


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

    def test_witness_past_double_range_raises(self):
        with pytest.raises(ValueError, match="double range"):
            is_separable(make_fock_state(66, 200), bogolubov_frame(0.4))

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError, match="invalid"):
            is_separable(density_state(np.diag([0.2, 0.2])), spatial_frame())


class TestFactorizationResidual:
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
        # (b1^dag)^N |0>/sqrt(N!) expressed spatially: lhs = N^2/4 = rhs
        big_n = 6
        state = transform_state(make_fock_state(big_n, big_n, bogolubov_frame(0.0)),
                                spatial_frame())
        w = spin_squeezing_witness(state)
        assert w.lhs == pytest.approx(big_n ** 2 / 4, abs=1e-8)
        assert w.rhs == pytest.approx(big_n ** 2 / 4, abs=1e-8)
        assert not w.violated

    def test_polar_state(self):
        w = spin_squeezing_witness(make_fock_state(0, 5))
        assert w.lhs == pytest.approx(0.0, abs=1e-10)
        assert w.rhs == pytest.approx(0.0, abs=1e-10)
        assert not w.violated

    def test_caveat_is_attached(self):
        w = spin_squeezing_witness(make_fock_state(1, 2))
        assert "identical" in w.caveat
