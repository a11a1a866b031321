"""Mode entanglement and quantum Fisher information for N bosons in two modes."""

from .collective import (CollectiveObservable, Direction, bose_hubbard,
                         commutator_residual, direction_generator, schwinger)
from .fock import (MonomialOp, SectorState, density_state, diagonal_state,
                   expectation, make_fock_state, monomial_matrix, pure_state,
                   validate_state)
from .frames import (ModeFrame, bogolubov_frame, custom_frame,
                     fock_expansion_coefficients, frame_change_unitary,
                     spatial_frame, transform_state)
from .metrology import (EstimationRun, NonIdentifiableError, PhaseEstimator,
                        classical_fisher, measurement_probabilities, monte_carlo_estimate,
                        rotate)
from .qfi import (QfiReport, classify, qfi_diagonal_closed_form, qfi_pure,
                  qfi_pure_fock, qfi_spectral, variance_bound)
from .separability import (SeparabilityVerdict, SpinSqueezingWitness,
                           factorization_residual, is_separable,
                           spin_squeezing_witness, witness_monomials)

__all__ = [
    "CollectiveObservable", "Direction", "EstimationRun", "ModeFrame",
    "MonomialOp", "NonIdentifiableError", "PhaseEstimator", "QfiReport", "SectorState",
    "SeparabilityVerdict", "SpinSqueezingWitness",
    "bogolubov_frame", "bose_hubbard", "classical_fisher", "classify",
    "commutator_residual", "custom_frame", "density_state", "diagonal_state",
    "direction_generator", "expectation", "factorization_residual",
    "fock_expansion_coefficients", "frame_change_unitary", "is_separable",
    "make_fock_state", "measurement_probabilities", "monomial_matrix",
    "monte_carlo_estimate", "pure_state", "qfi_diagonal_closed_form",
    "qfi_pure", "qfi_pure_fock", "qfi_spectral", "rotate",
    "schwinger", "spatial_frame", "spin_squeezing_witness", "transform_state",
    "validate_state", "variance_bound", "witness_monomials",
]

__version__ = "0.1.0"
