import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from modefisher import (CollectiveObservable, Direction, MonomialOp, bogolubov_frame,
                        bose_hubbard, collective, commutator_residual, custom_frame,
                        direction_generator, frame_change_unitary, monomial_matrix, schwinger)
from modefisher.collective import (Propagator, _bessel_j, apply_u2, eigenbasis, ladder,
                                   propagate, u2_image)


class TestDirection:
    def test_renormalizes_close_vectors(self):
        d = Direction(1.0 + 5e-7, 0.0, 0.0)
        assert d.n_x == pytest.approx(1.0)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            Direction(0.0, 0.0, 2.0)
        with pytest.raises(ValueError, match="unit"):
            Direction(1e300, 0.0, 0.0)  # its square overflows

    def test_in_plane(self):
        d = Direction.in_plane(0.7)
        assert d.n_z == 0.0
        assert d.in_plane_weight == pytest.approx(1.0)

    @pytest.mark.parametrize("components", [(math.nan, 0.0, 0.0), (0.0, math.nan, 1.0),
                                            (math.inf, 0.0, 0.0), (0.0, 0.0, -math.inf)])
    def test_rejects_non_finite(self, components):
        # NaN fails every comparison, so a NaN norm would pass the unit-norm test
        with pytest.raises(ValueError, match="finite"):
            Direction(*components)
        with pytest.raises(ValueError, match="finite"):
            Direction.in_plane(math.nan)


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
        # the sector builds the J_+ band directly: the same bits as the ladder's
        for big_n in [*range(0, 2001, 7), 2000, 10 ** 4, 10 ** 5]:
            k = np.arange(big_n)
            band = ladder(big_n, 1, 0, 0, 1)
            assert np.array_equal(band[:-1], np.sqrt((k + 1.0) * (big_n - k)))
            assert np.array_equal(collective._sector(big_n).raising, band[:-1])
            assert band[-1] == 0.0

    def test_su2_bands_cached_below_propagator_min_n_read_only(self):
        cached = collective._cached_sector
        cached.cache_clear()
        for big_n in (collective.PROPAGATOR_MIN_N, collective.PROPAGATOR_MIN_N + 50):
            jz, raising = collective.su2_bands(big_n)
            assert not jz.flags.writeable and not raising.flags.writeable
        assert cached.cache_info().currsize == 0
        jz, raising = collective.su2_bands(10)
        assert collective.su2_bands(10)[1] is raising
        assert cached.cache_info().currsize == 1 and cached.cache_info().hits == 1
        assert np.array_equal(raising, ladder(10, 1, 0, 0, 1)[:-1])
        assert np.array_equal(jz, np.arange(11) - 5.0)
        for band in (jz, raising):
            with pytest.raises(ValueError):
                band[0] = 1.0

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
            g = direction_generator(big_n, Direction(*(v / np.linalg.norm(v))))
            c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
            assert np.abs(g.apply(c) - g.matrix @ c).max() <= 1e-12 * max(1, big_n)

    def test_apply_generator_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="shape"):
            direction_generator(3, Direction(1, 0, 0)).apply(np.ones(3))


class TestBandedObservable:
    def test_generator_allocates_o_n_until_matrix_is_read(self):
        # the dense (N+1)^2 complex matrix at N = 10^4 is 1.6 GB; the bands are 0.24 MB
        big_n = 10_000
        tracemalloc.start()
        try:
            g = direction_generator(big_n, Direction(0.48, 0.64, 0.6))
            g.apply(np.ones(big_n + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        assert "matrix" not in vars(g)

    @pytest.mark.parametrize("build", [
        lambda n: direction_generator(n, Direction(0.6, 0.0, 0.8)),
        lambda n: schwinger(n)[1],
        lambda n: bose_hubbard(n, 0.1, -0.2, 0.3, 0.4),
    ], ids=["direction_generator", "schwinger", "bose_hubbard"])
    @pytest.mark.parametrize("big_n", [0, 1, 6])
    def test_matrix_places_the_read_only_bands(self, build, big_n):
        obs = build(big_n)
        assert obs.n_particles == big_n
        assert obs.diagonal.dtype == float and obs.lower.dtype == complex
        assert obs.diagonal.shape == (big_n + 1,) and obs.lower.shape == (big_n,)
        placed = (np.diag(obs.diagonal) + np.diag(obs.lower, -1)
                  + np.diag(obs.lower.conj(), 1))
        assert np.array_equal(obs.matrix, placed)
        assert obs.matrix is obs.matrix  # built once
        for array in (obs.diagonal, obs.lower, obs.matrix):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_bose_hubbard_bands(self):
        h = bose_hubbard(3, 0.3, -0.2, 0.9, 1.7)
        k = np.arange(4)
        assert np.array_equal(h.diagonal, 0.3 * k - 0.2 * (3 - k) + 0.9 * (k ** 2 + (3 - k) ** 2))
        assert np.array_equal(h.lower, -1.7 * np.sqrt((k[:-1] + 1.0) * (3 - k[:-1])))

    def test_bands_are_copied(self):
        diagonal, lower = np.zeros(3), np.ones(2, dtype=complex)
        obs = CollectiveObservable(diagonal, lower)
        lower[0] = 5.0
        assert obs.lower[0] == 1.0 and lower.flags.writeable

    def test_handed_over_bands_are_kept(self):
        # an array that owns its data, is read-only and has the band's dtype is not copied
        diagonal, lower = np.zeros(3), np.ones(2, dtype=complex)
        for band in (diagonal, lower):
            band.setflags(write=False)
        obs = CollectiveObservable(diagonal, lower)
        assert obs.diagonal is diagonal and obs.lower is lower
        # a read-only view, another dtype or a writable array is copied
        view = np.zeros(4)[:3]
        view.setflags(write=False)
        for given in (view, np.zeros(3, dtype=np.float32), np.zeros(3)):
            kept = CollectiveObservable(given, lower).diagonal
            assert kept is not given and kept.dtype == float and not kept.flags.writeable
        jn = direction_generator(6, Direction(0.48, 0.64, 0.6))
        for band in (jn.diagonal, jn.lower):
            assert band.base is None and not band.flags.writeable

    @pytest.mark.parametrize("diagonal, lower", [
        (np.zeros(3), np.zeros(3)), (np.zeros(0), np.zeros(0)), (np.zeros((2, 2)), np.zeros(1)),
        (np.zeros(3, dtype=complex), np.zeros(2)),
    ], ids=["long_lower", "empty", "square", "complex_diagonal"])
    def test_rejects_malformed_bands(self, diagonal, lower):
        with pytest.raises(ValueError):
            CollectiveObservable(diagonal, lower)


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


def _random_state_and_direction(rng, big_n):
    c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
    v = rng.normal(size=3)
    v[2] = math.copysign(max(abs(v[2]), 0.2), v[2])  # n_z != 0: the diagonal band is live
    return c / np.linalg.norm(c), Direction(*(v / np.linalg.norm(v)))


PROPAGATOR_ANGLES = [0.0, 1e-9, 0.3, -2.0, 3.1, 7.5, -20.0]


class TestPropagator:
    @pytest.mark.parametrize("big_n", [0, 1, 2, 5, 30, 200, 1000])
    def test_matches_dense_rotation(self, big_n):
        rng = np.random.default_rng(big_n)
        c, n = _random_state_and_direction(rng, big_n)
        q, eigenvalues = eigenbasis(big_n, n), np.arange(big_n + 1) - big_n / 2
        in_eigenbasis = q.conj().T @ c
        many = propagate(big_n, n, c, PROPAGATOR_ANGLES)
        for theta, row in zip(PROPAGATOR_ANGLES, many):
            # Q e^{i theta Lambda} Q^dag c, without forming the unitary
            dense = q @ (np.exp(1j * theta * eigenvalues) * in_eigenbasis)
            one = propagate(big_n, n, c, theta)
            assert np.abs(one - dense).max() <= 1e-12
            assert np.abs(row - dense).max() <= 1e-12
            assert abs(np.linalg.norm(one) - 1.0) <= 1e-13

    def test_rows_take_their_own_angles(self):
        rng = np.random.default_rng(3)
        big_n = 40
        _, n = _random_state_and_direction(rng, big_n)
        rows = rng.normal(size=(4, big_n + 1)) + 1j * rng.normal(size=(4, big_n + 1))
        angles = np.array([0.0, 0.5, -4.0, 9.0])
        out = propagate(big_n, n, rows, angles)
        q, eigenvalues = eigenbasis(big_n, n), np.arange(big_n + 1) - big_n / 2
        for row, theta, got in zip(rows, angles, out):
            dense = q @ (np.exp(1j * theta * eigenvalues) * (q.conj().T @ row))
            assert np.abs(got - dense).max() <= 1e-12

    def test_coefficients_reused_across_vectors(self):
        big_n, n = 25, Direction(0.0, 1.0, 0.0)
        propagator = Propagator(big_n, n)
        coef = propagator.coefficients(np.array([0.2, 0.4]))
        c = np.zeros(big_n + 1, dtype=complex)
        c[3] = 1.0
        first = propagator.apply(c, coef)
        second = propagator.apply(first[0], coef[:1])
        assert np.abs(second[0] - first[1]).max() <= 1e-13

    def test_full_turn_is_parity(self):
        # exp(2 pi i J_n) = (-1)^N: the reduction mod 2 pi carries the sign
        for big_n in (3, 4):
            c = np.linspace(1.0, 2.0, big_n + 1).astype(complex)
            out = propagate(big_n, Direction(1.0, 0.0, 0.0), c, 2.0 * math.pi)
            assert np.abs(out - (-1) ** big_n * c).max() <= 1e-13

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_non_finite_angle_rejected(self, theta):
        with pytest.raises(ValueError, match="finite"):
            propagate(300, Direction(1.0, 0.0, 0.0), np.ones(301), theta)

    @pytest.mark.parametrize("x", [0.0, 3e-9, 0.05, -0.7, 2.5, -9.0])
    def test_bessel_matches_power_series(self, x):
        # the series summed in exact rationals, so its cancellation costs nothing
        j = _bessel_j(np.array([x]))[0]
        half = Fraction(x) / 2
        for k, value in enumerate(j):
            series = sum((-1) ** m * half ** (2 * m + k) / (math.factorial(m) * math.factorial(m + k))
                         for m in range(60))
            assert value == pytest.approx(float(series), abs=2e-16)

    @pytest.mark.parametrize("x", [40.0, -700.0, 5000.0])
    def test_bessel_large_argument(self, x):
        j = _bessel_j(np.array([x]))[0]
        # J_0^2 + 2 sum J_k^2 = 1 is independent of the normalization the recurrence uses
        assert j[0] ** 2 + 2.0 * np.sum(j[1:] ** 2) == pytest.approx(1.0, abs=1e-13)
        assert len(j) < abs(x) + 12.0 * abs(x) ** (1.0 / 3.0) + 30
        wider = _bessel_j(np.array([x, 1.2 * x]))[0]  # the second row needs more orders
        assert np.abs(wider[len(j):]).max() < 1e-17 <= abs(j[-1])


def _su2(n, theta):
    """exp(i theta n.sigma/2) = cos(theta/2) + i sin(theta/2) n.sigma."""
    n_sigma = np.array([[n.n_z, n.n_x - 1j * n.n_y], [n.n_x + 1j * n.n_y, -n.n_z]])
    return math.cos(0.5 * theta) * np.eye(2) + 1j * math.sin(0.5 * theta) * n_sigma


def _rotation_directions(rng, count):
    """The poles and the x axis both ways, two in-plane ones, one a hair off +z, and
    `count` random ones."""
    near_pole = np.array([-8e-4, 1.2e-2, 1.0])
    dirs = [Direction(0.0, 0.0, 1.0), Direction(0.0, 0.0, -1.0), Direction(1.0, 0.0, 0.0),
            Direction(-1.0, 0.0, 0.0), Direction.in_plane(0.7), Direction.in_plane(-2.9),
            Direction(*(near_pole / np.linalg.norm(near_pole)))]
    for _ in range(count):
        v = rng.normal(size=3)
        dirs.append(Direction(*(v / np.linalg.norm(v))))
    return dirs


def _eigh_unitary(big_n, n, theta):
    """exp(i theta J_n) from the complex `eigh` of the dense J_n: the independent oracle."""
    lam, vec = np.linalg.eigh(direction_generator(big_n, n).matrix)
    return (vec * np.exp(1j * theta * lam)) @ vec.conj().T


class TestRotation:
    """J_n's eigenbasis and exp(i theta J_n) as images of 2x2 unitaries, against the dense
    J_n."""

    @pytest.mark.parametrize("big_n", [0, 1, 2, 7, 60, 249, 1000])
    def test_eigenpairs(self, big_n):
        rng = np.random.default_rng(big_n)
        eigenvalues = np.arange(big_n + 1) - big_n / 2
        for n in _rotation_directions(rng, 8 if big_n < 1000 else 2):
            q = eigenbasis(big_n, n)
            residual = np.abs(direction_generator(big_n, n).matrix @ q - q * eigenvalues)
            assert residual.max() <= 1e-16 * (big_n + 1) ** 2, n

    @pytest.mark.parametrize("big_n", [1, 7, 60, 249])
    def test_unitary_matches_complex_eigh(self, big_n):
        rng = np.random.default_rng(big_n + 1)
        for n in _rotation_directions(rng, 3):
            for theta in (0.3, -2.0, 7.5):
                got = u2_image(_su2(n, theta), big_n)
                assert np.abs(got - _eigh_unitary(big_n, n, theta)).max() <= 1e-12, (n, theta)

    @pytest.mark.parametrize("big_n", [0, 1, 2, 7, 60, 249, 250])
    def test_apply_matches_unitary(self, big_n):
        # apply_u2 of exp(i theta n.sigma/2)
        rng = np.random.default_rng(big_n + 3)
        for n in _rotation_directions(rng, 3):
            c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
            c /= np.linalg.norm(c)
            for theta in (0.0, 0.3, -2.0, 7.5):
                got = apply_u2(_su2(n, theta), c)
                oracle = _eigh_unitary(big_n, n, theta) @ c
                assert np.abs(got - oracle).max() <= 1e-12, (n, theta)

    @pytest.mark.parametrize("big_n", [0, 1, 7, 200, 2000])
    def test_frame_change_unitary_to_rounding(self, big_n):
        rng = np.random.default_rng(big_n + 2)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        frames = [custom_frame(np.linalg.qr(z)[0])]
        if big_n < 2000:
            frames += [bogolubov_frame(0.4), custom_frame([[0.6, 0.8j], [0.8j, 0.6]])]
        for frame in frames:
            v = frame_change_unitary(big_n, frame)
            assert np.abs(v.conj().T @ v - np.eye(big_n + 1)).max() <= 1e-14

    def test_cache_holds_small_n_only_read_only(self):
        cached = collective._cached_sector
        cached.cache_clear()
        eigenbasis(collective.PROPAGATOR_MIN_N, Direction(1.0, 0.0, 0.0))
        assert cached.cache_info().currsize == 0
        eigenbasis(10, Direction(1.0, 0.0, 0.0))
        eigenbasis(10, Direction(0.0, 0.6, 0.8))
        assert cached.cache_info().currsize == 1 and cached.cache_info().hits == 1
        sector = cached(10)
        assert cached.cache_info().maxsize == 8
        for array in (sector.jx_eigenvectors, sector.k, sector.jz, sector.raising):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0


SU2_SIZES = [0, 1, 2, 7, 40, 249]


def _random_u2(rng):
    """A random 2x2 unitary, det != 1."""
    return np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]


class TestApplySu2:
    """Gamma(U) c from the determinant phase and Euler angles of a 2x2 unitary U, with two real
    products of V, and Gamma(U) formed from the same angles with one."""

    @pytest.mark.parametrize("big_n", SU2_SIZES)
    def test_homomorphism(self, big_n):
        # Gamma(u1) Gamma(u2) c = Gamma(u1 u2) c for random U(2) matrices, poles included
        rng = np.random.default_rng(big_n + 5)
        c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
        c /= np.linalg.norm(c)
        mats = [_su2(Direction(0.0, 0.0, 1.0), 0.9), _su2(Direction(0.0, 0.0, -1.0), -2.5)]
        mats += [_random_u2(rng) for _ in range(4)]
        for u1, u2 in zip(mats, mats[1:] + mats[:1]):
            both = apply_u2(u1 @ u2, c)
            twice = apply_u2(u1, apply_u2(u2, c))
            assert np.abs(twice - both).max() <= 1e-15 * (big_n + 1)

    @pytest.mark.parametrize("big_n", SU2_SIZES)
    def test_full_turn_is_parity(self, big_n):
        # exp(2 pi i J_n) = (-1)^N: u = -1 gives beta = 0 and alpha + gamma = -2 pi
        rng = np.random.default_rng(big_n + 6)
        c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
        c /= np.linalg.norm(c)
        for n in _rotation_directions(rng, 2):
            for u in (_su2(n, 2.0 * math.pi), -np.eye(2)):
                got = apply_u2(u, c)
                assert np.abs(got - (-1) ** big_n * c).max() <= 1e-15 * (big_n + 1), n

    @pytest.mark.parametrize("u, oracle", [
        # a1^dag -> a1^dag, a2^dag -> -a2^dag: |k, N-k> -> (-1)^(N-k) |k, N-k>
        (np.diag([1.0, -1.0]), lambda big_n: np.diag((-1.0) ** (big_n - np.arange(big_n + 1)))),
        # diag(1, -1) times exp(i theta sigma_y/2) with cos(theta/2) = 0.6
        ([[0.6, 0.8], [0.8, -0.6]],
         lambda big_n: (-1.0) ** (big_n - np.arange(big_n + 1))[:, None]
         * _eigh_unitary(big_n, Direction(0.0, 1.0, 0.0), 2.0 * math.atan2(0.8, 0.6))),
        # Gamma(e^{i chi} 1) = e^{i chi N} 1
        (np.exp(0.3j) * np.eye(2), lambda big_n: np.exp(0.3j * big_n) * np.eye(big_n + 1)),
    ], ids=["det_minus_one", "reflection", "phase"])
    def test_accepts_u2(self, u, oracle):
        # U = e^{i chi} u with u in SU(2) and chi = arg(det U)/2: Gamma(U) = e^{i chi N} Gamma(u)
        rng = np.random.default_rng(12)
        for big_n in SU2_SIZES + [300]:
            expected = oracle(big_n)
            if big_n < collective.PROPAGATOR_MIN_N:
                assert np.abs(u2_image(u, big_n) - expected).max() <= 1e-12, big_n
            c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
            c /= np.linalg.norm(c)
            assert np.abs(apply_u2(u, c) - expected @ c).max() <= 1e-12, big_n

    @pytest.mark.parametrize("big_n", SU2_SIZES + [300])
    def test_block_matches_vector_route(self, big_n):
        # Gamma(u)'s columns are the images of the Fock states: from the same Euler phases and
        # products of V below PROPAGATOR_MIN_N, against the propagated vector route from it on
        u = _random_u2(np.random.default_rng(10))
        image = u2_image(u, big_n)
        assert image.shape == (big_n + 1, big_n + 1)
        dense = big_n < collective.PROPAGATOR_MIN_N
        bound = 4 * np.finfo(float).eps if dense else 1e-12
        for j in range(big_n + 1) if dense else (0, big_n // 3, big_n // 2, big_n):
            fock = np.zeros(big_n + 1, dtype=complex)
            fock[j] = 1.0
            assert np.abs(image[:, j] - apply_u2(u, fock)).max() <= bound, j

    @pytest.mark.parametrize("big_n", SU2_SIZES)
    def test_dense_homomorphism(self, big_n):
        # Gamma(u1) Gamma(u2) = Gamma(u1 u2) on the formed images, poles included
        rng = np.random.default_rng(big_n + 8)
        mats = [_su2(Direction(0.0, 0.0, 1.0), 0.9), _su2(Direction(0.0, 0.0, -1.0), -2.5),
                -np.eye(2)]
        mats += [_random_u2(rng) for _ in range(3)]
        for u1, u2 in zip(mats, mats[1:] + mats[:1]):
            both = u2_image(u1 @ u2, big_n)
            product = u2_image(u1, big_n) @ u2_image(u2, big_n)
            assert np.abs(product - both).max() <= 1e-15 * (big_n + 1) ** 2

    def test_result_owns_its_data(self):
        # a vector, one on the propagated route, and formed images
        u = _su2(Direction(0.48, 0.64, 0.6), 0.7)
        for size in (5, 251):
            out = apply_u2(u, np.ones(size, dtype=complex) / math.sqrt(size))
            assert out.base is None and out.flags.writeable and out.shape == (size,), size
        for big_n in (0, 4):  # a complex view of a new real array, apart from the cached V
            out = u2_image(u, big_n)
            assert out.flags.writeable, big_n
            assert not np.shares_memory(out, collective._sector(big_n).jx_eigenvectors), big_n

    @pytest.mark.parametrize("u", [
        2.0 * np.eye(2),  # scaled
        [[0.6, -0.7], [0.7, 0.6]],  # a first column off unit norm
        [[math.nan, 0.0], [0.0, 1.0]],
        [[math.inf, 0.0], [0.0, 1.0]],
        [[1.0, 1.0], [0.0, 1.0]],  # a unit first column and det 1, but not unitary
        [1.0, 0.0],  # the first column alone
    ], ids=["scaled", "column_norm", "nan", "inf", "shear", "column"])
    def test_rejects_non_su2(self, u):
        with pytest.raises(ValueError, match="2x2 unitary"):
            apply_u2(u, np.ones(3))
        with pytest.raises(ValueError, match="2x2 unitary"):
            u2_image(u, 2)

    @pytest.mark.parametrize("u, c", [
        (np.eye(3), np.ones(3)), (np.ones(3), np.ones(3)), (np.eye(2), np.ones(())),
        (np.eye(2), np.ones((2, 3, 2))), (np.eye(2), np.ones(0)),
        (np.eye(2), np.ones((0, 3))), (np.eye(2), np.ones((3, 0))), (np.eye(2), np.ones((3, 2))),
    ], ids=["u_3x3", "u_length_3", "c_scalar", "c_3d", "c_empty", "c_no_rows",
            "c_no_columns", "c_block"])
    def test_rejects_malformed_shapes(self, u, c):
        # c is one vector of N+1 amplitudes; a dense image is `u2_image`'s
        with pytest.raises(ValueError):
            apply_u2(u, c)

    def test_image_rejects_negative_n(self):
        with pytest.raises(ValueError, match="n_particles"):
            u2_image(np.eye(2), -1)


class TestPropagatorGenerator:
    """The propagator builds J_n from its axis: it takes no bands."""

    @pytest.mark.parametrize("big_n", [0, 1, 250])
    def test_accepts_every_direction_generator(self, big_n):
        rng = np.random.default_rng(big_n + 9)
        axes = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)]
        directions = [Direction(*axis) for axis in axes]
        directions += [Direction(*(v / np.linalg.norm(v))) for v in rng.normal(size=(4, 3))]
        for n in directions:
            propagator, reference = Propagator(big_n, n), direction_generator(big_n, n)
            assert propagator.n_particles == big_n
            for band in ("diagonal", "lower"):
                got, want = getattr(propagator.generator, band), getattr(reference, band)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, band)
