import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modefisher import (Direction, MonomialOp, PhaseEstimator, SectorState, classical_fisher,
                        density_state, diagonal_state, direction_generator, expectation,
                        is_separable, make_fock_state, measurement_probabilities,
                        monomial_matrix, monte_carlo_estimate, pure_state,
                        qfi_diagonal_closed_form, qfi_pure, qfi_spectral, rotate,
                        spatial_frame, spin_squeezing_witness, validate_state)
from modefisher.fock import check_state
from modefisher.qfi import qfi_state


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries(self, bad):
        # NaN fails every `> tol` test, so only an explicit check catches it
        assert validate_state(pure_state([bad, 0.6, 0.8])) == ["finiteness"]
        assert validate_state(diagonal_state([bad, 0.5, 0.5])) == ["finiteness"]
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[0, 1] = complex(0.0, bad)
        assert validate_state(density_state(rho)) == ["finiteness"]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10), st.integers(0, 10))
    def test_fock_states_always_valid(self, big_n, k):
        if k <= big_n:
            assert validate_state(make_fock_state(k, big_n)) == []

    @pytest.mark.parametrize("big_n", [3, 11, 100, 300])
    def test_positivity_agrees_with_eigvalsh(self, big_n):
        # random rho of rank 1, 3 and full, and each with one eigenvalue moved to -f tol
        rng = np.random.default_rng(big_n)
        dim = big_n + 1
        for rank, tol in itertools.product((1, 3, dim), (1e-5, 1e-10, 1e-14)):
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q = np.linalg.qr(z)[0]
            lam = np.zeros(dim)
            lam[:rank] = rng.dirichlet(np.ones(rank))
            spectra = [lam]
            for f in (0.5, 0.9, 1.1, 2.0):
                moved = lam.copy()
                moved[0], moved[-1] = moved[0] + f * tol, -f * tol
                spectra.append(moved)
            for spectrum in spectra:
                rho = (q * spectrum) @ q.conj().T
                reference = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -tol
                assert reference == (spectrum.min() < -tol)
                assert ("positivity" in validate_state(density_state(rho), tol)) == reference

    def test_density_check_runs_no_eigensolver(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name,
                                lambda *args, name=name, **kwargs: calls.append(name))
        rng = np.random.default_rng(8)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        check_state(density_state(a @ a.conj().T / np.trace(a @ a.conj().T)), 1e-10)
        with pytest.raises(ValueError, match="^invalid state: positivity$"):
            check_state(density_state(np.diag([1.2, -0.2])), 1e-10)
        assert calls == []


_ALONG_X = Direction(1, 0, 0)

# every public call that takes a state, applied to a state of N = 1; a tolerance given after
# the state is passed on, else each call uses its default
_STATE_CALLS = {
    "qfi_pure": lambda s, *tol: qfi_pure(s, _ALONG_X, *tol),
    "qfi_state": lambda s, *tol: qfi_state(s, _ALONG_X, *tol),
    "qfi_spectral": lambda s, *tol: qfi_spectral(s, direction_generator(1, _ALONG_X), *tol),
    "is_separable": lambda s, *tol: is_separable(s, spatial_frame(), *tol),
    "spin_squeezing_witness": spin_squeezing_witness,
    "rotate": lambda s, *tol: rotate(s, _ALONG_X, 0.3, *tol),
    "measurement_probabilities":
        lambda s, *tol: measurement_probabilities(s, _ALONG_X, 0.3, *tol),
    "classical_fisher": lambda s, *tol: classical_fisher(s, _ALONG_X, 0.3, *tol),
    "monte_carlo_estimate":
        lambda s, *tol: monte_carlo_estimate(s, _ALONG_X, 0.3, 2, 10, 1, *tol),
    "PhaseEstimator": lambda s, *tol: PhaseEstimator(s, _ALONG_X, *tol),
}
_INVALID_STATES = {
    "nan": lambda: pure_state([math.nan, 1.0]),
    "norm_25": lambda: pure_state([3.0, 4.0]),
    "non_positive_rho": lambda: density_state(np.diag([1.2, -0.2])),
}


# qfi_pure rejects a density matrix before checking it
@pytest.mark.parametrize("call, state", [
    pair for pair in itertools.product(_STATE_CALLS, _INVALID_STATES)
    if pair != ("qfi_pure", "non_positive_rho")])
def test_every_state_call_rejects_an_invalid_state(call, state):
    with pytest.raises(ValueError, match="^invalid state: "):
        _STATE_CALLS[call](_INVALID_STATES[state]())


# every public call that takes a tolerance
_TOL_CALLS = {
    **_STATE_CALLS,
    "validate_state": validate_state,
    "check_state": check_state,
    "qfi_diagonal_closed_form": lambda s, tol: qfi_diagonal_closed_form([0.5, 0.5], 1,
                                                                        _ALONG_X, tol),
}


# a NaN tolerance passed the norm-25 state (qfi_pure gave 1.96), and zero rejects states
# normalised to rounding
@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, 0.0])
@pytest.mark.parametrize("call", _TOL_CALLS)
def test_every_tolerance_call_rejects_a_bad_tolerance(call, tol):
    with pytest.raises(ValueError, match=r"^tolerance must be finite and > 0, got "):
        _TOL_CALLS[call](pure_state([3.0, 4.0]), tol)


class TestSectorStateArrays:
    def test_caller_array_is_copied(self):
        # a later edit of the caller's writable array does not reach the state
        c = np.array([0.6, 0.8j, 0.0])
        state = pure_state(c)
        c[0] = 5.0
        assert state.amplitudes[0] == 0.6 and not state.amplitudes.flags.writeable
        rho = np.diag([0.5, 0.5]).astype(complex)
        mixed = density_state(rho)
        rho[0, 1] = 1.0
        assert mixed.rho[0, 1] == 0.0 and not mixed.rho.flags.writeable

    def test_handed_over_array_is_kept(self):
        c = np.array([0.6, 0.8j, 0.0])
        c.setflags(write=False)
        assert pure_state(c).amplitudes is c
        view = np.array([0.6, 0.8j, 0.0, 0.0])[:3]  # read-only, but a view: copied
        view.setflags(write=False)
        assert pure_state(view).amplitudes is not view


class TestSectorStateShapes:
    @pytest.mark.parametrize("arrays", [{}, {"amplitudes": [1, 0, 0], "rho": np.eye(3)}],
                             ids=["neither", "both"])
    def test_exactly_one_of_amplitudes_or_rho(self, arrays):
        with pytest.raises(ValueError, match="exactly one of amplitudes or rho"):
            SectorState(2, spatial_frame(), **arrays)

    def test_shape_must_match_n(self):
        with pytest.raises(ValueError, match=r"amplitudes must have shape \(3,\), got \(2,\)"):
            SectorState(2, spatial_frame(), amplitudes=[1, 0])
        with pytest.raises(ValueError, match=r"rho must have shape \(2, 2\), got \(3, 3\)"):
            SectorState(1, spatial_frame(), rho=np.eye(3))
