"""Acceptance suite: one test per criterion, each prints a PASS line when green."""
import math
import time

import numpy as np
import pytest

from modefisher import (Direction, bogolubov_frame, bose_hubbard,
                        commutator_residual, custom_frame, density_state,
                        diagonal_state, direction_generator, factorization_residual,
                        frame_change_unitary, is_separable, make_fock_state, pure_state,
                        monte_carlo_estimate, qfi_diagonal_closed_form, qfi_spectral,
                        rotate, schwinger, spatial_frame, transform_state, variance_bound,
                        witness_monomials)
from modefisher.qfi import qfi_state
from tests.test_frames import random_unitary_2x2


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_01_twin_fock_qfi():
    """F = N^2/2 + N for |N/2,N/2> under Jx, both routes, N = 2..100."""
    start = time.monotonic()
    n = Direction(1, 0, 0)
    for big_n in range(2, 101, 2):
        expected = big_n ** 2 / 2 + big_n
        state = make_fock_state(big_n // 2, big_n)
        spectral = qfi_spectral(state, direction_generator(big_n, n))
        p = np.zeros(big_n + 1)
        p[big_n // 2] = 1.0
        closed = qfi_diagonal_closed_form(p, big_n, n)
        assert abs(spectral - expected) <= 1e-9 * expected
        assert abs(closed - expected) <= 1e-9 * expected
    assert time.monotonic() - start < 5.0
    _report("1 twin-Fock QFI")


def test_02_pure_fock_qfi():
    """F = N + 2k(N-k) and the pure-state variance equality, all k, N <= 60."""
    rng = np.random.default_rng(2)
    for big_n in range(1, 61):
        phi = rng.uniform(0, 2 * math.pi)
        g = direction_generator(big_n, Direction.in_plane(phi))
        for k in range(big_n + 1):
            state = make_fock_state(k, big_n)
            expected = big_n + 2 * k * (big_n - k)
            fisher, four_var, gap = variance_bound(state, g)
            assert abs(fisher - expected) <= 1e-8 * max(1.0, expected)
            assert abs(gap) <= 1e-8 * max(1.0, expected)
    _report("2 pure Fock QFI")


def test_03_closed_form_oracle_equivalence():
    """100 random diagonal mixtures per N in 2..40, random unit directions."""
    rng = np.random.default_rng(3)
    for big_n in range(2, 41):
        for _ in range(100):
            p = rng.dirichlet(np.ones(big_n + 1))
            v = rng.normal(size=3)
            n = Direction(*(v / np.linalg.norm(v)))
            closed = qfi_diagonal_closed_form(p, big_n, n)
            spectral = qfi_spectral(diagonal_state(p), direction_generator(big_n, n))
            assert abs(closed - spectral) <= 1e-8 * max(1.0, closed)
        p = rng.dirichlet(np.ones(big_n + 1))
        assert qfi_diagonal_closed_form(p, big_n, Direction(0, 0, 1)) == 0.0
    _report("3 closed-form/oracle equivalence")


def test_04_su2_and_casimir():
    for big_n in range(0, 51):
        assert commutator_residual(big_n) <= 1e-12
        jx, jy, jz = (o.matrix for o in schwinger(big_n))
        casimir = jx @ jx + jy @ jy + jz @ jz
        expected = (big_n / 2) * (big_n / 2 + 1) * np.eye(big_n + 1)
        assert np.abs(casimir - expected).max() <= 1e-10
    _report("4 su(2) and Casimir")


def test_05_separability_characterization():
    """Diagonality verdict agrees with witness-monomial certificate, 500 random states."""
    rng = np.random.default_rng(5)
    disagreements = 0
    for _ in range(500):
        big_n = int(rng.integers(1, 9))
        kind = rng.integers(0, 3)
        if kind == 0:
            state = diagonal_state(rng.dirichlet(np.ones(big_n + 1)))
        elif kind == 1:
            c = rng.normal(size=big_n + 1) + 1j * rng.normal(size=big_n + 1)
            c /= np.linalg.norm(c)
            state = density_state(np.outer(c, c.conj()))
        else:
            a = rng.normal(size=(big_n + 1, big_n + 1)) + 1j * rng.normal(size=(big_n + 1, big_n + 1))
            rho = a @ a.conj().T
            state = density_state(rho / np.trace(rho).real)
        verdict = is_separable(state, spatial_frame(), tol=1e-10)
        witnesses_zero = all(abs(factorization_residual(state, op)) <= 1e-10
                             for op in witness_monomials(big_n))
        if verdict.separable != witnesses_zero:
            disagreements += 1
    assert disagreements == 0
    _report("5 separability characterization")


def test_06_bipartition_relativity():
    for big_n in range(1, 13):
        for k in range(big_n + 1):
            state = make_fock_state(k, big_n)
            assert is_separable(state, spatial_frame()).separable
            for phi in np.linspace(0, 2 * math.pi, 16, endpoint=False):
                assert not is_separable(state, bogolubov_frame(phi)).separable
    # |1,1> at phi=0 maps to (|2,0>_b - |0,2>_b)/sqrt(2)
    moved = transform_state(make_fock_state(1, 2), bogolubov_frame(0.0))
    target = np.array([-1.0, 0.0, 1.0]) / math.sqrt(2)
    distance = np.abs(moved.density_matrix() - np.outer(target, target)).max()
    assert distance <= 1e-10
    _report("6 bipartition relativity")


def test_07_frame_invariance_of_qfi():
    rng = np.random.default_rng(7)
    for case in range(52):  # cases 50 and 51: a Fock state and a mixed state at N = 200
        big_n = int(rng.integers(1, 21)) if case < 50 else 200
        if case == 50 or (case < 50 and rng.random() < 0.5):
            state = make_fock_state(int(rng.integers(0, big_n + 1)), big_n)
        else:
            a = rng.normal(size=(big_n + 1, big_n + 1)) + 1j * rng.normal(size=(big_n + 1, big_n + 1))
            rho = a @ a.conj().T
            state = density_state(rho / np.trace(rho).real)
        v3 = rng.normal(size=3)
        g = direction_generator(big_n, Direction(*(v3 / np.linalg.norm(v3))))
        frame = custom_frame(random_unitary_2x2(rng))
        v = frame_change_unitary(big_n, frame)
        before = qfi_spectral(state, g)
        after = qfi_spectral(transform_state(state, frame), v @ g.matrix @ v.conj().T)
        assert abs(before - after) <= 1e-8 * max(1.0, before)
    _report("7 frame invariance of QFI")


def test_08_locality_of_exponentials():
    theta = 0.9
    for big_n in (1, 4, 9, 14):
        _, _, jz = schwinger(big_n)
        lam, vec = np.linalg.eigh(jz.matrix)
        u = (vec * np.exp(1j * theta * lam)) @ vec.conj().T
        assert np.abs(u - np.diag(np.diag(u))).max() <= 1e-10
        for phi in (0.0, 0.8, 2.9):
            g = direction_generator(big_n, Direction.in_plane(phi)).matrix
            lam, vec = np.linalg.eigh(g)
            u = (vec * np.exp(1j * theta * lam)) @ vec.conj().T
            v = frame_change_unitary(big_n, bogolubov_frame(phi))
            u_b = v @ u @ v.conj().T
            assert np.abs(u_b - np.diag(np.diag(u_b))).max() <= 1e-10
    _report("8 locality of exponentials")


def test_09_metrology_property_suite():
    start = time.monotonic()
    state = make_fock_state(2, 4)
    n = Direction(1, 0, 0)
    trials, shots, seed, theta = 200, 10_000, 42, 0.3
    run = monte_carlo_estimate(state, n, theta, trials, shots, seed)
    fisher = qfi_spectral(state, direction_generator(4, n))
    fisher_cl = 1.0 / (shots * run.ccrb ** 2)
    assert fisher_cl <= fisher + 1e-6
    assert run.empirical_std >= run.qcrb * (1 - 3 / math.sqrt(trials))
    assert 0.8 * run.ccrb <= run.empirical_std <= 1.5 * run.ccrb
    assert time.monotonic() - start < 60.0
    _report("9 metrology property suite")


def test_10_bose_hubbard_structure():
    for big_n in range(0, 31):
        h0 = bose_hubbard(big_n, 0.4, -0.3, 0.2, 0.0).matrix
        assert np.abs(h0 - np.diag(np.diag(h0))).max() == 0.0
        h1 = bose_hubbard(big_n, 0.7, 0.7, 0.0, 1.3).matrix
        v = frame_change_unitary(big_n, bogolubov_frame(0.0))
        h_b = v @ h1 @ v.conj().T
        assert np.abs(h_b - np.diag(np.diag(h_b))).max() <= 1e-10
    _report("10 Bose-Hubbard structure")


# The paper's claims checked matrix-free at condensate scale, N = 10^4: every move goes
# through `apply_u2`, which propagates there, and each round trip rounds by about N eps, so
# the bounds are stated multiples of N eps.
LARGE_N = 10 ** 4
PAULI = (np.array([[0, 1], [1, 0]], dtype=complex), np.array([[0, -1j], [1j, 0]]),
         np.array([[1, 0], [0, -1]], dtype=complex))


def _rotation_image(u):
    """R(U)_ab = tr(sigma_a U sigma_b U^dag)/2: Gamma(U) J_b Gamma(U)^dag = sum_a R_ab J_a."""
    return np.array([[0.5 * np.trace(a @ u @ b @ u.conj().T).real for b in PAULI]
                     for a in PAULI])


def test_rotation_image_matches_dense_conjugation():
    """The convention of R(U), pinned against the dense frame unitary for N <= 20."""
    rng = np.random.default_rng(11)
    mixings = [random_unitary_2x2(rng) for _ in range(3)] + [bogolubov_frame(0.4).mixing]
    for big_n in (1, 2, 7, 20):
        j = [o.matrix for o in schwinger(big_n)]
        for u in mixings:
            v, r = frame_change_unitary(big_n, custom_frame(u)), _rotation_image(u)
            for b in range(3):
                image = sum(r[a, b] * j[a] for a in range(3))
                assert np.abs(v @ j[b] @ v.conj().T - image).max() <= 1e-12


def test_11_fock_state_separable_only_in_its_own_frame_at_large_n():
    rng = np.random.default_rng(12)
    frame = custom_frame(random_unitary_2x2(rng))
    state = make_fock_state(LARGE_N // 3, LARGE_N, frame)
    own = is_separable(state, frame)
    assert own.separable and own.max_offdiagonal == 0.0
    assert not is_separable(state, spatial_frame()).separable
    _report("11 Fock state separable only in its own frame, N = 10^4")


def test_12_locality_of_exponentials_at_large_n():
    """Spatial |k> moved into the phi = 0.4 frame, rotated there about the image R(U) z of
    J_z, and moved back is e^{i theta (k - N/2)} |k>: to 2 N eps (0.41 N eps seen)."""
    k, theta, frame = LARGE_N // 3, 0.9, bogolubov_frame(0.4)
    moved = transform_state(make_fock_state(k, LARGE_N), frame)
    axis = Direction(*_rotation_image(frame.mixing)[:, 2])
    back = transform_state(rotate(moved, axis, theta), spatial_frame())
    expected = np.zeros(LARGE_N + 1, dtype=complex)
    expected[k] = np.exp(1j * theta * (k - LARGE_N / 2))
    bound = 2 * LARGE_N * np.finfo(float).eps
    assert np.abs(back.amplitudes - expected).max() <= bound
    _report("12 locality of exponentials, N = 10^4")


def test_13_frame_invariance_of_qfi_at_large_n():
    """F(c, n) = F(Gamma(U) c, R(U) n) for a random state, frame and axis: relative to
    N eps / 4 (0.0014 N eps here; 0.013 N eps at most over three other seeds)."""
    rng = np.random.default_rng(13)
    c = rng.normal(size=LARGE_N + 1) + 1j * rng.normal(size=LARGE_N + 1)
    state = pure_state(c / np.linalg.norm(c))
    v3 = rng.normal(size=3)
    n = Direction(*(v3 / np.linalg.norm(v3)))
    frame = custom_frame(random_unitary_2x2(rng))
    before = qfi_state(state, n)
    after = qfi_state(transform_state(state, frame),
                      Direction(*(_rotation_image(frame.mixing) @ n.as_array())))
    assert abs(after - before) <= 0.25 * LARGE_N * np.finfo(float).eps * before
    _report("13 frame invariance of QFI, N = 10^4")
