import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modefisher import (MonomialOp, density_state, diagonal_state, expectation,
                        make_fock_state, monomial_matrix, pure_state,
                        validate_state)


class TestMakeFockState:
    def test_basis_vector(self):
        s = make_fock_state(2, 4)
        assert np.allclose(s.amplitudes, [0, 0, 1, 0, 0])

    def test_single_particle_mode2(self):
        s = make_fock_state(0, 1)
        assert np.allclose(s.amplitudes, [1, 0])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="0 <= k <= N"):
            make_fock_state(5, 4)


class TestMonomialMatrix:
    def test_number_operator(self):
        m = monomial_matrix(MonomialOp(1, 1, 0, 0), 2)
        assert np.allclose(m, np.diag([0, 1, 2]))

    def test_hop_down(self):
        # a1 a2^dag moves |k,N-k> to |k-1,N-k+1> with weight sqrt(k (N-k+1))
        m = monomial_matrix(MonomialOp(0, 1, 1, 0), 2)
        expected = np.zeros((3, 3))
        expected[0, 1] = math.sqrt(1 * 2)
        expected[1, 2] = math.sqrt(2 * 1)
        assert np.allclose(m, expected)

    def test_non_conserving_is_zero(self):
        m = monomial_matrix(MonomialOp(2, 1, 0, 0), 3)
        assert np.count_nonzero(m) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 12), *[st.integers(0, 3)] * 4)
    def test_adjoint_symmetry(self, big_n, m, n, r, s):
        a = monomial_matrix(MonomialOp(m, n, r, s), big_n)
        b = monomial_matrix(MonomialOp(n, m, s, r), big_n)
        assert np.allclose(a.conj().T, b)

    def test_exact_integer_coefficients(self):
        # every nonzero entry is the square root of an integer product of occupations
        for big_n, m, n, r, s in itertools.product((7, 30), *[range(4)] * 4):
            if m - n != s - r:
                continue
            mat = monomial_matrix(MonomialOp(m, n, r, s), big_n)
            for k in range(big_n + 1):
                base1, base2 = k - n, big_n - k - s
                if base1 < 0 or base2 < 0:
                    assert not mat[:, k].any()
                    continue
                sq = (math.prod(range(base1 + 1, k + 1)) * math.prod(range(base1 + 1, base1 + m + 1))
                      * math.prod(range(base2 + 1, big_n - k + 1))
                      * math.prod(range(base2 + 1, base2 + r + 1)))
                expected = math.sqrt(sq)
                assert abs(mat[base1 + m, k] - expected) <= 2 * math.ulp(expected)

    def test_coefficient_beyond_factorial_170_is_finite(self):
        # <99, 1| (a1^dag)^99 a1^100 a2^dag |100, 0> = sqrt(100! 99!), about 1e157
        mat = monomial_matrix(MonomialOp(99, 100, 1, 0), 100)
        exact = math.isqrt(math.factorial(100) * math.factorial(99))
        assert mat[99, 100] == pytest.approx(exact, rel=1e-13)
        assert np.count_nonzero(mat) == 1

    def test_coefficient_past_double_range_raises(self):
        # sqrt(200! 200!) = 200! > 1.8e308
        with pytest.raises(ValueError, match="double range"):
            monomial_matrix(MonomialOp(0, 200, 200, 0), 200)


class TestExpectation:
    def test_factorized_number_product(self):
        s = make_fock_state(1, 3)  # |1,2>
        m = monomial_matrix(MonomialOp(1, 1, 1, 1), 3)  # a1^dag a1 a2^dag a2
        assert expectation(s, m) == pytest.approx(2.0)

    def test_identity(self):
        s = make_fock_state(3, 5)
        assert expectation(s, np.eye(6)) == pytest.approx(1.0)

    def test_maximally_mixed_number(self):
        rho = density_state(np.eye(3) / 3)
        assert expectation(rho, np.diag([0.0, 1.0, 2.0])).real == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            expectation(make_fock_state(0, 2), np.eye(2))

    def test_frame_mismatch(self):
        from modefisher import bogolubov_frame
        with pytest.raises(ValueError, match="frame"):
            expectation(make_fock_state(0, 2), np.eye(3), frame=bogolubov_frame(0.0))

    def test_fock_expectations_factorize(self):
        # <k,N-k|A1 A2|k,N-k> = <k|A1|k> <N-k|A2|N-k> for number-conserving pairs
        for big_n in range(0, 13, 3):
            for k in range(big_n + 1):
                s = make_fock_state(k, big_n)
                for m in range(4):
                    for s_exp in range(4):
                        op = MonomialOp(m, m, s_exp, s_exp)
                        val = expectation(s, monomial_matrix(op, big_n)).real
                        lhs = math.perm(k, m)
                        rhs = math.perm(big_n - k, s_exp)
                        assert val == pytest.approx(lhs * rhs)

    def test_diagonal_state_kills_unbalanced_monomials(self):
        # expectation of (a1^dag)^m a1^n with m < n vanishes on Fock-diagonal states
        rng = np.random.default_rng(3)
        for big_n in (2, 5, 8):
            p = rng.random(big_n + 1)
            rho = diagonal_state(p / p.sum())
            for m in range(3):
                for n in range(m + 1, 4):
                    val = expectation(rho, monomial_matrix(MonomialOp(m, n, n - m, 0), big_n))
                    assert abs(val) < 1e-12


class TestValidateState:
    def test_valid_fock(self):
        assert validate_state(make_fock_state(2, 4)) == []

    def test_bad_trace(self):
        rho = density_state(np.diag([0.4, 0.5]))
        assert validate_state(rho) == ["trace"]

    def test_negative_eigenvalue(self):
        rho = density_state(np.diag([1.01, -0.01]))
        assert "positivity" in validate_state(rho)

    def test_unnormalized_pure(self):
        s = pure_state([1.0, 1.0])
        assert validate_state(s) == ["normalization"]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10), st.integers(0, 10))
    def test_fock_states_always_valid(self, big_n, k):
        if k <= big_n:
            assert validate_state(make_fock_state(k, big_n)) == []
