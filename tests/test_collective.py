import math

import numpy as np
import pytest

from modefisher import (Direction, MonomialOp, bogolubov_frame,
                        bose_hubbard, commutator_residual, direction_generator,
                        frame_change_unitary, monomial_matrix, schwinger)
from modefisher.collective import apply_generator, ladder


class TestDirection:
    def test_renormalizes_close_vectors(self):
        d = Direction(1.0 + 5e-7, 0.0, 0.0)
        assert d.n_x == pytest.approx(1.0)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            Direction(0.0, 0.0, 2.0)

    def test_in_plane(self):
        d = Direction.in_plane(0.7)
        assert d.n_z == 0.0
        assert d.in_plane_weight == pytest.approx(1.0)


class TestSchwinger:
    def test_jz_eigenvalues(self):
        _, _, jz = schwinger(2)
        assert np.allclose(jz.matrix, np.diag([-1.0, 0.0, 1.0]))

    def test_jx_entries(self):
        jx, _, _ = schwinger(2)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = expected[1, 2] = expected[2, 1] = math.sqrt(2) / 2
        assert np.allclose(jx.matrix, expected)

    def test_vacuum_sector(self):
        for obs in schwinger(0):
            assert obs.matrix.shape == (1, 1)
            assert obs.matrix[0, 0] == 0

    @pytest.mark.parametrize("big_n", [0, 1, 2, 5, 20, 50])
    def test_su2_relations(self, big_n):
        assert commutator_residual(big_n) <= 1e-12

    @pytest.mark.parametrize("big_n", [0, 1, 2, 7, 25, 50])
    def test_casimir(self, big_n):
        jx, jy, jz = (o.matrix for o in schwinger(big_n))
        casimir = jx @ jx + jy @ jy + jz @ jz
        expected = (big_n / 2) * (big_n / 2 + 1) * np.eye(big_n + 1)
        assert np.abs(casimir - expected).max() <= 1e-10


class TestLadder:
    def test_raising_band_is_sqrt_of_integer_product(self):
        for big_n in [*range(0, 2001, 7), 2000]:
            k = np.arange(big_n)
            band = ladder(big_n, 1, 0, 0, 1)
            assert np.array_equal(band[:-1], np.sqrt((k + 1.0) * (big_n - k)))
            assert band[-1] == 0.0

    @pytest.mark.parametrize("build", [
        lambda n: schwinger(n),
        lambda n: direction_generator(n, Direction(0.6, 0.0, 0.8)),
        lambda n: bose_hubbard(n, 0.1, 0.2, 0.3, 0.4),
        lambda n: frame_change_unitary(n, bogolubov_frame(0.4)),
        lambda n: monomial_matrix(MonomialOp(1, 1, 0, 0), n),
        lambda n: monomial_matrix(MonomialOp(2, 1, 0, 0), n),
    ], ids=["schwinger", "direction_generator", "bose_hubbard", "frame_change_unitary",
            "monomial_matrix", "monomial_matrix_number_changing"])
    def test_negative_n_rejected(self, build):
        with pytest.raises(ValueError, match="n_particles must be >= 0"):
            build(-1)


class TestDirectionGenerator:
    def test_z_reduces_to_jz(self):
        g = direction_generator(2, Direction(0, 0, 1))
        assert np.allclose(g.matrix, np.diag([-1.0, 0.0, 1.0]))

    def test_x_reduces_to_jx(self):
        jx, _, _ = schwinger(4)
        g = direction_generator(4, Direction(1, 0, 0))
        assert np.allclose(g.matrix, jx.matrix)

    def test_in_plane_matrix_elements(self):
        # for n = (cos phi, sin phi, 0) the generator is
        # (e^{-i phi} a1^dag a2 + e^{i phi} a1 a2^dag)/2
        phi = 1.3
        g = direction_generator(1, Direction.in_plane(phi))
        assert g.matrix[1, 0] == pytest.approx(np.exp(-1j * phi) / 2)
        assert g.matrix[0, 1] == pytest.approx(np.exp(1j * phi) / 2)

    @pytest.mark.parametrize("big_n", [0, 1, 2, 9, 150])
    def test_apply_generator_matches_matrix(self, big_n):
        rng = np.random.default_rng(big_n)
        for _ in range(5):
            v = rng.normal(size=3)
            n = Direction(*(v / np.linalg.norm(v)))
            c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
            dense = direction_generator(big_n, n).matrix @ c
            assert np.abs(apply_generator(big_n, n, c) - dense).max() <= 1e-12 * max(1, big_n)

    def test_apply_generator_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="shape"):
            apply_generator(3, Direction(1, 0, 0), np.ones(3))


class TestBoseHubbard:
    def test_n1_matrix(self):
        eps1, eps2, u, j = 0.3, -0.2, 0.9, 1.7
        h = bose_hubbard(1, eps1, eps2, u, j)
        expected = np.array([[eps2 + u, -j], [-j, eps1 + u]])
        assert np.allclose(h.matrix, expected)

    def test_zero_hopping_is_diagonal(self):
        h = bose_hubbard(6, 0.4, 0.1, 0.2, 0.0)
        off = h.matrix - np.diag(np.diag(h.matrix))
        assert np.abs(off).max() == 0.0

    def test_pure_hopping_is_minus_2j_jx(self):
        jx, _, _ = schwinger(5)
        h = bose_hubbard(5, 0.0, 0.0, 0.0, 0.8)
        assert np.allclose(h.matrix, -2 * 0.8 * jx.matrix)

    @pytest.mark.parametrize("big_n", [1, 4, 17, 30])
    def test_equal_wells_diagonal_in_energy_frame(self, big_n):
        h = bose_hubbard(big_n, 0.7, 0.7, 0.0, 1.1)
        v = frame_change_unitary(big_n, bogolubov_frame(0.0))
        h_b = v @ h.matrix @ v.conj().T
        off = h_b - np.diag(np.diag(h_b))
        assert np.abs(off).max() <= 1e-10

    def test_rejects_non_finite_couplings(self):
        with pytest.raises(ValueError, match="finite"):
            bose_hubbard(3, math.nan, 0.0, 0.0, 0.0)


def test_exp_jz_is_diagonal():
    # locality of exp(i theta Jz): a product of one phase per mode
    _, _, jz = schwinger(7)
    u = np.diag(np.exp(1j * 0.9 * np.diag(jz.matrix)))
    assert np.allclose(u @ u.conj().T, np.eye(8))
    full = np.zeros((8, 8), complex)
    lam, vec = np.linalg.eigh(jz.matrix)
    full = (vec * np.exp(1j * 0.9 * lam)) @ vec.conj().T
    off = full - np.diag(np.diag(full))
    assert np.abs(off).max() <= 1e-12
    assert np.allclose(np.abs(np.diag(full)), 1.0)
