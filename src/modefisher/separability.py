"""Mode separability with respect to an algebraic bipartition.

For N identical bosons in two modes, a state is separable with respect to
the bipartition induced by a mode frame iff its density matrix is diagonal
in that frame's Fock basis.  The diagonality test is therefore the decision
procedure; nonzero expectations of witness monomials
(a1^dag)^m a1^n (a2^dag)^r a2^s with m < n, s < r, m + r = n + s provide
independent certificates of entanglement.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .collective import su2_bands
from .fock import DEFAULT_TOL, MonomialOp, SectorState, expectation, monomial_matrix, validate_state
from .frames import ModeFrame, spatial_frame, transform_state

SPIN_SQUEEZING_CAVEAT = (
    "witness derived for distinguishable particles; for identical bosons a "
    "violation does not reliably certify mode entanglement"
)


@dataclass(frozen=True)
class WitnessRecord:
    """The monomial and residual that certified entanglement."""

    op: MonomialOp
    residual: complex


@dataclass(frozen=True)
class SeparabilityVerdict:
    separable: bool
    frame: ModeFrame
    max_offdiagonal: float
    witness_details: WitnessRecord | None = None


def is_separable(state: SectorState, frame: ModeFrame, tol: float = DEFAULT_TOL) -> SeparabilityVerdict:
    """Separable iff every off-diagonal element vanishes in the frame's Fock basis.

    When entangled, the largest coherence is also certified through the
    corresponding witness monomial, evaluated in the frame basis.
    """
    violations = validate_state(state, tol if tol > 0 else DEFAULT_TOL)
    if violations:
        raise ValueError(f"invalid state: {', '.join(violations)}")
    moved = transform_state(state, frame)
    rho = moved.density_matrix()
    big_n = state.n_particles
    off = np.abs(rho - np.diag(np.diag(rho)))
    max_off = float(off.max()) if off.size else 0.0
    if max_off <= tol:
        return SeparabilityVerdict(True, frame, max_off)
    lower = np.tril(off, k=-1)
    row, col = (int(i) for i in np.unravel_index(int(np.argmax(lower)), lower.shape))
    # coherence rho_{row,col}, row > col, is picked out by the proof's monomial
    op = MonomialOp(col, row, big_n - col, big_n - row)
    residual = expectation(moved, monomial_matrix(op, big_n))
    return SeparabilityVerdict(False, frame, max_off, WitnessRecord(op, residual))


def factorization_residual(state: SectorState, op: MonomialOp) -> complex:
    """Tr[rho A1 A2] for a witness monomial; nonzero certifies entanglement.

    The witness family is m < n, s < r, m + r = n + s: every state separable
    with respect to the state's own frame has vanishing expectation of these
    monomials.
    """
    if not (op.m < op.n and op.s < op.r and op.m + op.r == op.n + op.s):
        raise ValueError(
            "monomial outside the witness family (need m < n, s < r, m + r = n + s)"
        )
    return expectation(state, monomial_matrix(op, state.n_particles))


def witness_monomials(n_particles: int) -> Iterator[MonomialOp]:
    """All witness-family monomials that act nontrivially on the sector.

    The annihilation degree is capped at n + s <= N; anything larger kills
    every sector state.
    """
    for n in range(1, n_particles + 1):
        for m in range(n):
            d = n - m
            for s in range(n_particles - n + 1):
                yield MonomialOp(m, n, s + d, s)


@dataclass(frozen=True)
class SpinSqueezingWitness:
    lhs: float  # N (Delta Jz)^2
    rhs: float  # <Jx>^2 + <Jy>^2
    violated: bool
    caveat: str = SPIN_SQUEEZING_CAVEAT


def spin_squeezing_witness(state: SectorState, tol: float = DEFAULT_TOL) -> SpinSqueezingWitness:
    """Check N (Delta Jz)^2 >= <Jx>^2 + <Jy>^2 on the spatial modes.

    The result carries a caveat flag: the inequality is an entanglement
    witness for distinguishable particles only.
    """
    rho = transform_state(state, spatial_frame()).density_matrix()
    p = np.diag(rho).real
    jz, raising = su2_bands(state.n_particles)
    lhs = state.n_particles * (p @ jz ** 2 - (p @ jz) ** 2)
    # <J_+> = <Jx> + i <Jy> = sum_k J_+[k+1, k] rho[k, k+1]
    rhs = abs(raising @ np.diag(rho, 1)) ** 2
    return SpinSqueezingWitness(lhs, rhs, lhs < rhs - tol)
