import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modefisher import (Direction, bogolubov_frame, collective, custom_frame, density_state,
                        direction_generator, fock_expansion_coefficients, frames,
                        frame_change_unitary, make_fock_state, pure_state, schwinger,
                        spatial_frame, transform_state)

SQ2 = math.sqrt(2)


def random_unitary_2x2(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestBogolubovFrame:
    def test_phi_zero_matches_symmetric_antisymmetric_pair(self):
        f = bogolubov_frame(0.0)
        assert np.allclose(f.mixing, np.array([[1, 1], [1, -1]]) / SQ2)

    def test_phi_pi(self):
        f = bogolubov_frame(math.pi)
        assert np.allclose(f.mixing, np.array([[1, -1], [1, 1]]) / SQ2)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-10, 10))
    def test_unitarity(self, phi):
        f = bogolubov_frame(phi)
        residual = np.abs(f.mixing.conj().T @ f.mixing - np.eye(2)).max()
        assert residual <= 1e-15

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            custom_frame(np.array([[1, 1], [1, 1]]) / SQ2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"shape \(2, 2\), got \(3, 3\)"):
            custom_frame(np.eye(3))

    def test_caller_mixing_is_copied(self):
        u = np.eye(2, dtype=complex)
        frame = custom_frame(u)
        u[0, 0] = 5.0
        assert frame.mixing[0, 0] == 1.0 and not frame.mixing.flags.writeable

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_phi(self, phi):
        with pytest.raises(ValueError, match="finite"):
            bogolubov_frame(phi)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, math.inf)])
    def test_rejects_non_finite_mixing(self, entry):
        # a NaN mixing passes the unitarity test, since NaN > tol is false
        with pytest.raises(ValueError, match="finite"):
            custom_frame([[entry, 0.0], [0.0, 1.0]])


class TestFrameChangeUnitary:
    def test_spatial_is_identity(self):
        assert np.allclose(frame_change_unitary(5, spatial_frame()), np.eye(6))

    def test_single_particle(self):
        # a1^dag = (b1^dag + b2^dag)/sqrt(2), a2^dag = (b1^dag - b2^dag)/sqrt(2)
        v = frame_change_unitary(1, bogolubov_frame(0.0))
        assert np.allclose(v[:, 1], [1 / SQ2, 1 / SQ2])
        assert np.allclose(v[:, 0], [-1 / SQ2, 1 / SQ2])

    def test_twin_fock_column(self):
        # a1^dag a2^dag |0> = (b1^dag^2 - b2^dag^2)|0>/2
        v = frame_change_unitary(2, bogolubov_frame(0.0))
        assert np.allclose(v[:, 1], [-1 / SQ2, 0.0, 1 / SQ2])

    def test_binomial_column_n3(self):
        # a2^dag^3 expands through (b1^dag - b2^dag)^3
        v = frame_change_unitary(3, bogolubov_frame(0.0))
        expected = np.array([-1.0, math.sqrt(3), -math.sqrt(3), 1.0]) / math.sqrt(8)
        assert np.allclose(v[:, 0], expected)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 20), st.floats(-7, 7))
    def test_unitary(self, big_n, phi):
        v = frame_change_unitary(big_n, bogolubov_frame(phi))
        assert np.abs(v.conj().T @ v - np.eye(big_n + 1)).max() <= 1e-10

    def test_random_frames_unitary(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = custom_frame(random_unitary_2x2(rng))
            v = frame_change_unitary(9, f)
            assert np.abs(v.conj().T @ v - np.eye(10)).max() <= 1e-10

    @pytest.mark.parametrize("big_n", [60, 200, 1000])
    def test_unitary_at_large_n(self, big_n):
        custom = custom_frame(random_unitary_2x2(np.random.default_rng(big_n)))
        for frame in (bogolubov_frame(0.4), custom):
            v = frame_change_unitary(big_n, frame)
            assert np.abs(v.conj().T @ v - np.eye(big_n + 1)).max() <= 1e-12

    def test_homomorphism(self):
        # V(U1) V(U2) = V(U1 U2), phases included
        rng = np.random.default_rng(13)
        near_identity = np.array([[1.0, 1e-10], [-1e-10, 1.0]], dtype=complex)
        special = [np.diag(np.exp([0.3j, -1.1j])), near_identity, -np.eye(2, dtype=complex)]
        for big_n in (0, 1, 4, 11):
            for u1 in special + [random_unitary_2x2(rng) for _ in range(4)]:
                u2 = random_unitary_2x2(rng)
                v12 = frame_change_unitary(big_n, custom_frame(u1 @ u2))
                v1 = frame_change_unitary(big_n, custom_frame(u1))
                v2 = frame_change_unitary(big_n, custom_frame(u2))
                assert np.abs(v1 @ v2 - v12).max() <= 1e-12


class TestFockExpansionCoefficients:
    def test_single_particle(self):
        c = fock_expansion_coefficients(1, 1, bogolubov_frame(0.0))
        assert np.allclose(c, [1 / SQ2, 1 / SQ2])

    def test_spatial_basis_vector(self):
        c = fock_expansion_coefficients(3, 6, spatial_frame())
        expected = np.zeros(7)
        expected[3] = 1
        assert np.allclose(c, expected)

    def test_spatial_frame_gives_the_unit_vector_exactly(self):
        # the state is already in the spatial frame: no basis change rounds it
        expected = np.zeros(41)
        expected[13] = 1.0
        assert np.array_equal(fock_expansion_coefficients(13, 40, spatial_frame()), expected)

    def test_normalized(self):
        for phi in (0.0, 0.4, 2.2):
            c = fock_expansion_coefficients(2, 7, bogolubov_frame(phi))
            assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_range_check(self):
        with pytest.raises(ValueError):
            fock_expansion_coefficients(5, 4, bogolubov_frame(0.0))


class TestTransformState:
    def test_twin_fock_maps_to_b_coherence(self):
        # |1,1> = (|2,0>_b - |0,2>_b)/sqrt(2) up to a global phase
        moved = transform_state(make_fock_state(1, 2), bogolubov_frame(0.0))
        target = np.zeros(3, complex)
        target[2] = 1 / SQ2
        target[0] = -1 / SQ2
        rho_a = moved.density_matrix()
        rho_b = np.outer(target, target.conj())
        assert np.abs(rho_a - rho_b).max() <= 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        frame = custom_frame(random_unitary_2x2(rng))
        for k in range(4):
            s = make_fock_state(k, 3)
            back = transform_state(transform_state(s, frame), spatial_frame())
            assert np.abs(back.amplitudes - s.amplitudes).max() <= 1e-10

    def test_maximally_mixed_is_invariant(self):
        rho = density_state(np.eye(5) / 5)
        moved = transform_state(rho, bogolubov_frame(1.1))
        assert np.abs(moved.rho - np.eye(5) / 5).max() <= 1e-10

    def test_same_frame_keeps_data(self):
        rng = np.random.default_rng(4)
        frame = custom_frame(random_unitary_2x2(rng))
        pure = make_fock_state(2, 5, frame)
        assert np.array_equal(transform_state(pure, custom_frame(frame.mixing)).amplitudes,
                              pure.amplitudes)
        mixed = density_state(np.eye(4) / 4, frame)
        assert np.array_equal(transform_state(mixed, frame).rho, mixed.rho)

    def test_trace_preserved(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        moved = transform_state(density_state(rho), bogolubov_frame(0.6))
        assert np.trace(moved.rho).real == pytest.approx(1.0, abs=1e-10)


class TestFrameCovariance:
    @pytest.mark.parametrize("big_n", [1, 2, 7, 18, 30])
    def test_schwinger_triple_rotates_as_expected(self, big_n):
        # in the phi=0 frame: Jx -> Jz form, Jy -> -Jy form, Jz -> Jx form
        jx, jy, jz = (o.matrix for o in schwinger(big_n))
        v = frame_change_unitary(big_n, bogolubov_frame(0.0))
        assert np.abs(v @ jx @ v.conj().T - jz).max() <= 1e-10
        assert np.abs(v @ jy @ v.conj().T + jy).max() <= 1e-10
        assert np.abs(v @ jz @ v.conj().T - jx).max() <= 1e-10

    @pytest.mark.parametrize("phi", [0.0, 0.8, 2.4, 5.0])
    def test_in_plane_generator_diagonal_in_its_frame(self, phi):
        big_n = 9
        g = direction_generator(big_n, Direction.in_plane(phi)).matrix
        v = frame_change_unitary(big_n, bogolubov_frame(phi))
        g_b = v @ g @ v.conj().T
        off = g_b - np.diag(np.diag(g_b))
        assert np.abs(off).max() <= 1e-10

    def test_exp_jx_diagonal_in_energy_frame(self):
        big_n = 6
        jx = schwinger(big_n)[0].matrix
        lam, vec = np.linalg.eigh(jx)
        u = (vec * np.exp(0.7j * lam)) @ vec.conj().T
        v = frame_change_unitary(big_n, bogolubov_frame(0.0))
        u_b = v @ u @ v.conj().T
        off = u_b - np.diag(np.diag(u_b))
        assert np.abs(off).max() <= 1e-10


def test_fock_states_never_diagonal_in_bogolubov_frames():
    for big_n in range(1, 9):
        for phi in np.linspace(0, 2 * math.pi, 8, endpoint=False):
            for k in range(big_n + 1):
                rho = transform_state(make_fock_state(k, big_n),
                                      bogolubov_frame(phi)).density_matrix()
                off = rho - np.diag(np.diag(rho))
                assert np.abs(off).max() > 1e-6


class TestPropagatedPath:
    """Pure states change frames through apply_u2 at every N, without forming Gamma(U)."""

    @pytest.mark.parametrize("big_n", [1, 40, 200])
    def test_matches_dense_route(self, big_n, monkeypatch):
        rng = np.random.default_rng(big_n)
        old, new = (custom_frame(random_unitary_2x2(rng)) for _ in range(2))
        c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
        state = pure_state(c / np.linalg.norm(c), old)
        k = big_n // 3
        monkeypatch.setattr(collective, "PROPAGATOR_MIN_N", big_n + 1)
        dense_state = transform_state(state, new).amplitudes
        dense_fock = fock_expansion_coefficients(k, big_n, new)
        # the formed image's columns take the same Euler phases and products of V as a vector,
        # but scaled in another order, and BLAS may sum a matrix product in another order
        column = frame_change_unitary(big_n, new)[:, k]
        assert np.abs(dense_fock - column).max() <= 4 * np.finfo(float).eps
        monkeypatch.setattr(collective, "PROPAGATOR_MIN_N", big_n)
        assert np.abs(transform_state(state, new).amplitudes - dense_state).max() <= 1e-12
        assert np.abs(fock_expansion_coefficients(k, big_n, new) - dense_fock).max() <= 1e-12

    def test_from_the_crossover_on_no_eigendecomposition(self, monkeypatch):
        big_n = collective.PROPAGATOR_MIN_N

        def no_dense(sector):
            raise AssertionError("J_x's eigenbasis read")

        monkeypatch.setattr(collective._Sector, "jx_eigenvectors", property(no_dense))
        state = make_fock_state(big_n // 3, big_n)
        moved = transform_state(state, bogolubov_frame(0.4))
        assert np.sum(np.abs(moved.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)
        back = transform_state(moved, spatial_frame())
        assert np.abs(back.amplitudes - state.amplitudes).max() <= 1e-12
        column = fock_expansion_coefficients(big_n // 3, big_n, bogolubov_frame(0.4))
        assert np.abs(column - moved.amplitudes).max() <= 1e-12

    @pytest.mark.parametrize("big_n", [249, 1000])
    def test_pure_frame_change_allocates_no_square_array(self, big_n):
        # Gamma(U) at N = 249 is 1 MB; below PROPAGATOR_MIN_N the cached V is read, not made
        state = make_fock_state(big_n // 3, big_n)
        frame = bogolubov_frame(0.4)
        transform_state(state, frame)
        tracemalloc.start()
        try:
            transform_state(state, frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (big_n + 1) ** 2 // 2


class TestNearlyUnitaryMixing:
    """A mixing that ModeFrame accepts, off unitarity by just under UNITARITY_TOL."""

    @staticmethod
    def _near(rng, scale=0.9):
        """A random unitary q, and q moved so that U^dag U is about `scale` UNITARITY_TOL
        from 1."""
        q = random_unitary_2x2(rng)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u = q + scale * frames.UNITARITY_TOL / np.abs(q.conj().T @ x + x.conj().T @ q).max() * x
        residual = np.abs(u.conj().T @ u - np.eye(2)).max()
        assert 0.5 * frames.UNITARITY_TOL < residual <= frames.UNITARITY_TOL
        return u, q

    def _frames(self):
        u, q = self._near(np.random.default_rng(17))
        return custom_frame(u), custom_frame(q)

    @pytest.mark.parametrize("big_n", [40, 300])
    def test_moves_pure_states(self, big_n):
        near, exact = self._frames()
        rng = np.random.default_rng(big_n)
        c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
        state = pure_state(c / np.linalg.norm(c))
        moved = transform_state(state, near).amplitudes
        assert np.linalg.norm(moved) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(moved - transform_state(state, exact).amplitudes).max() <= 1e-9

    def test_moves_a_density_matrix(self):
        near, exact = self._frames()
        rng = np.random.default_rng(3)
        a = rng.normal(size=(41, 41)) + 1j * rng.normal(size=(41, 41))
        rho = a @ a.conj().T
        state = density_state(rho / np.trace(rho).real)
        moved = transform_state(state, near).rho
        assert np.trace(moved).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(moved - transform_state(state, exact).rho).max() <= 1e-9

    def test_changes_between_two_near_frames(self):
        # U_new U_old^dag of two mixings that ModeFrame accepts is up to about 3e-12 from
        # unitary: a 1e-12 bound on it rejected about 60 of 200 such changes.  A round trip
        # is the image of a product 1e-12 from the identity
        rng = np.random.default_rng(19)
        for _ in range(200):
            one, two = (custom_frame(self._near(rng, 0.98)[0]) for _ in range(2))
            rho = np.diag([0.1, 0.2, 0.3, 0.4])
            for state in (make_fock_state(1, 3, one), density_state(rho, one)):
                back = transform_state(transform_state(state, two), one)
                assert np.abs(back.density_matrix() - state.density_matrix()).max() <= 1e-10
