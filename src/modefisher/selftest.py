"""The invariant checks that ``modefisher selftest`` runs, each against its own bound."""
from __future__ import annotations

import itertools
import math

import numpy as np

from .collective import (Direction, bose_hubbard, commutator_residual, direction_generator,
                         propagate, schwinger, su2_rotation, u2_image)
from .fock import density_state, diagonal_state, make_fock_state, pure_state
from .frames import (bogolubov_frame, custom_frame, frame_change_unitary, spatial_frame,
                     transform_state)
from .qfi import qfi_diagonal_closed_form, qfi_spectral
from .separability import is_separable


def checks():
    """Condensed invariant suite; yields (name, passed) pairs.

    Its generic inputs come from the sequence j times the golden ratio mod 1, j = 1, 2, ...:
    numbers in (0, 1), all distinct, drawn without numpy.random, which would add about 6 MB.
    """
    draws = itertools.count(1)
    golden = (1 + math.sqrt(5)) / 2

    def generic(size):
        return np.array([next(draws) * golden % 1.0 for _ in range(size)])

    def complex_vector(size):  # moduli 0.5-1.5, phases spread over the circle
        return (0.5 + generic(size)) * np.exp(2j * math.pi * generic(size))

    yield "su2-commutators", all(commutator_residual(n) <= 1e-12 for n in (0, 1, 5, 20))

    ok = True
    for big_n in (1, 5, 20, 50):
        jx, jy, jz = (o.matrix for o in schwinger(big_n))
        casimir = jx @ jx + jy @ jy + jz @ jz
        expected = (big_n / 2) * (big_n / 2 + 1) * np.eye(big_n + 1)
        ok = ok and np.abs(casimir - expected).max() <= 1e-10
    yield "casimir", ok

    ok = True
    for big_n in (2, 5, 10):
        for _ in range(10):
            p = generic(big_n + 1)
            p /= p.sum()
            n = Direction.in_plane(2 * math.pi * generic(1)[0])
            closed = qfi_diagonal_closed_form(p, big_n, n)
            spectral = qfi_spectral(diagonal_state(p), direction_generator(big_n, n))
            ok = ok and abs(closed - spectral) <= 1e-8 * max(1.0, closed)
    yield "closed-form-vs-spectral", ok

    # a generic complex pure state and rank-3 rho about a generic axis, moved into a frame
    # with det U != 1: real or twin-Fock inputs would hide a dropped phase or a conjugated move
    ok = True
    axis = generic(3) - 0.5
    n = Direction(*(axis / np.linalg.norm(axis)))
    frame = custom_frame(np.linalg.qr(complex_vector(4).reshape(2, 2))[0])
    for big_n in (2, 5, 8):
        c, x = complex_vector(big_n + 1), complex_vector(3 * (big_n + 1)).reshape(big_n + 1, 3)
        generator, v = direction_generator(big_n, n), frame_change_unitary(big_n, frame)
        for state in (pure_state(c / np.linalg.norm(c)),
                      density_state(x @ x.conj().T / np.vdot(x, x).real)):
            f0 = qfi_spectral(state, generator)
            f1 = qfi_spectral(transform_state(state, frame), v @ generator.matrix @ v.conj().T)
            ok = ok and abs(f0 - f1) <= 1e-8 * max(1.0, f0)
    yield "frame-invariance", ok

    ok = True
    for big_n in (1, 4, 9):
        for phi in (0.0, 1.1):
            frame = bogolubov_frame(phi)
            v = frame_change_unitary(big_n, frame)
            u = u2_image(su2_rotation(Direction.in_plane(phi), 0.7), big_n)
            u_b = v @ u @ v.conj().T
            ok = ok and np.abs(u_b - np.diag(np.diag(u_b))).max() <= 1e-10
    yield "exponential-locality", ok

    ok = True
    for big_n in (1, 3, 6):
        state = make_fock_state(big_n // 2, big_n)
        ok = ok and is_separable(state, spatial_frame()).separable
        ok = ok and not is_separable(state, bogolubov_frame(0.3)).separable
    yield "bipartition-relativity", ok

    ok = True
    for big_n in (2, 10):
        h = bose_hubbard(big_n, 1.0, 1.0, 0.0, 0.7)
        v = frame_change_unitary(big_n, bogolubov_frame(0.0))
        h_b = v @ h.matrix @ v.conj().T
        ok = ok and np.abs(h_b - np.diag(np.diag(h_b))).max() <= 1e-10
    yield "bose-hubbard-diagonal-frame", ok

    # N = 100 rather than 200 keeps the selftest's peak memory near the other checks'
    v = frame_change_unitary(100, bogolubov_frame(0.4))
    yield "frame-unitarity", np.abs(v.conj().T @ v - np.eye(101)).max() <= 1e-12

    # the matrix-free path that serves large N, against the dense one; |theta| > 2 pi
    ok = True
    for big_n in (1, 7, 40):
        c = complex_vector(big_n + 1)
        c /= np.linalg.norm(c)
        for n in (Direction(1.0, 0.0, 0.0), Direction(0.6, 0.0, 0.8)):
            dense = u2_image(su2_rotation(n, 6.5), big_n) @ c
            ok = ok and np.abs(propagate(big_n, n, c, 6.5) - dense).max() <= 1e-12
    yield "propagator-vs-dense", ok
