"""Mode separability with respect to an algebraic bipartition.

For N identical bosons in two modes, a state is separable with respect to
the bipartition induced by a mode frame iff its density matrix is diagonal
in that frame's Fock basis.  The verdict therefore reads only the state's
largest coherence in that basis.  Witness monomials
(a1^dag)^m a1^n (a2^dag)^r a2^s with m < n, s < r, m + r = n + s provide
independent certificates of entanglement; each has one ladder band, so its
expectation is read from that band and the state's matching coherences.  The
witness an entangled verdict names, for its coherence rho_{row,col}, has a single
nonzero band entry sqrt(row! col! (N-row)! (N-col)!), so its residual is also read
in the log domain, at any N.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .collective import ladder, su2_bands
# the verdict's coherence pick lives in fock, which `modefisher qfi` loads without this module
from .fock import (DEFAULT_TOL, WITNESS_TIE_TOL, MonomialOp, SectorState, check_state,
                   largest_coherence)
from .frames import ModeFrame, spatial_frame, transform_state

SPIN_SQUEEZING_CAVEAT = (
    "witness derived for distinguishable particles; for identical bosons a "
    "violation does not reliably certify mode entanglement"
)


@dataclass(frozen=True)
class WitnessRecord:
    """The monomial that certifies entanglement, and the state it is read in.

    For the coherence rho_{row,col}, row > col, the monomial is
    (a1^dag)^col a1^row (a2^dag)^(N-col) a2^(N-row), whose one nonzero band entry is
    sqrt(row! col! (N-row)! (N-col)!); the residual is that coefficient times
    rho_{row,col}.  `residual` is the chunked ladder product's value, evaluated when
    read, so a verdict never fails on a witness coefficient outside double range;
    reading the residual then raises ValueError.  `log10_abs_residual` (the
    factorials through math.lgamma) and `residual_phase` hold at any N.
    """

    op: MonomialOp
    state: SectorState = field(compare=False, repr=False)

    @property
    def residual(self) -> complex:
        return factorization_residual(self.state, self.op)

    @property
    def log10_abs_residual(self) -> float:
        row, col, big_n = self.op.n, self.op.m, self.state.n_particles
        log_coefficient = sum(math.lgamma(j + 1) for j in (row, col, big_n - row, big_n - col))
        return log_coefficient / (2 * math.log(10)) + math.log10(abs(self._coherence()))

    @property
    def residual_phase(self) -> float:
        return cmath.phase(self._coherence())

    def _coherence(self) -> complex:
        """rho_{row,col}; a pure state's c_row conj(c_col), without forming rho."""
        row, col = self.op.n, self.op.m
        if self.state.is_pure:
            c = self.state.amplitudes
            return complex(c[row] * c[col].conj())
        return complex(self.state.rho[row, col])


@dataclass(frozen=True)
class SeparabilityVerdict:
    separable: bool
    frame: ModeFrame
    max_offdiagonal: float
    witness_details: WitnessRecord | None = None


def is_separable(state: SectorState, frame: ModeFrame, tol: float = DEFAULT_TOL) -> SeparabilityVerdict:
    """Separable iff every off-diagonal element vanishes in the frame's Fock basis.

    When entangled, the verdict names the witness monomial of the largest
    coherence, in the frame basis; its residual is evaluated when read.
    """
    check_state(state, tol)
    moved = transform_state(state, frame)
    max_off, pick = largest_coherence(moved)
    if max_off <= tol or pick is None:
        return SeparabilityVerdict(True, frame, max_off)
    row, col = pick
    big_n = state.n_particles
    # coherence rho_{row,col}, row > col, is picked out by the proof's monomial
    op = MonomialOp(col, row, big_n - col, big_n - row)
    return SeparabilityVerdict(False, frame, max_off, WitnessRecord(op, moved))


def factorization_residual(state: SectorState, op: MonomialOp) -> complex:
    """Tr[rho A1 A2] for a witness monomial; nonzero certifies entanglement.

    The witness family is m < n, s < r, m + r = n + s: every state separable
    with respect to the state's own frame has vanishing expectation of these
    monomials.  The monomial's ladder band takes |k> to |k - d>, d = n - m, so
    Tr[rho M] = sum_k band_k rho_{k,k-d}, O(N) for a pure state.
    """
    if not (op.m < op.n and op.s < op.r and op.m + op.r == op.n + op.s):
        raise ValueError(
            "monomial outside the witness family (need m < n, s < r, m + r = n + s)"
        )
    big_n, d = state.n_particles, op.n - op.m
    k = np.arange(op.n, big_n - op.s + 1)
    band = ladder(big_n, op.m, op.n, op.r, op.s)[k]
    if state.is_pure:
        c = state.amplitudes
        # np.dot rounds like `fock.expectation`; an elementwise complex product may fuse
        # its multiply-adds and differ from it in the last bit
        return complex(np.dot(c[k - d].conj() * band, c[k]))
    return complex(np.sum(state.rho[k, k - d] * band))


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

    It is violated when lhs < rhs by more than (``tol`` + delta (3N + 2)) N^2/4, with N^2/4
    the largest value either side takes and delta = 16 eps the relative rounding of one of
    its sums, the state's own included (the rounding metrology takes for a log-likelihood).
    A coherent state sits on the equality, and its rounding scales with N^2/4 even where
    both sides are small, near the poles: lhs = N (A - B^2) takes the difference of two
    sums that reach N^2/4, A = <Jz^2> and B^2 with B = <Jz>, whose square doubles B's
    rounding, so lhs rounds by up to 3 delta N N^2/4; rhs = |<J_+>|^2 rounds by up to
    2 delta N^2/4.  The result carries a caveat flag: the inequality is an entanglement
    witness for distinguishable particles only.  It reads rho's diagonal and first
    superdiagonal, which a pure state gives in O(N) as |c_k|^2 and c_k conj(c_{k+1})
    without forming rho.  The state is checked as in :func:`is_separable`.
    """
    check_state(state, tol)
    moved = transform_state(state, spatial_frame())
    if moved.is_pure:
        c = moved.amplitudes
        p, coherence = (c * c.conj()).real, c[:-1] * c[1:].conj()
    else:
        p, coherence = np.diag(moved.rho).real, np.diag(moved.rho, 1)
    jz, raising = su2_bands(state.n_particles)
    lhs = state.n_particles * (p @ jz ** 2 - (p @ jz) ** 2)
    # <J_+> = <Jx> + i <Jy> = sum_k J_+[k+1, k] rho[k, k+1]
    rhs = abs(raising @ coherence) ** 2
    rounding = 16 * np.finfo(float).eps * (3 * state.n_particles + 2)
    return SpinSqueezingWitness(lhs, rhs, lhs < rhs - (tol + rounding) * state.n_particles ** 2 / 4)
