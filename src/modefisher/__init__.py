"""Mode entanglement and quantum Fisher information for N bosons in two modes.

``import modefisher`` runs no submodule: each public name is imported from its
submodule on first access (PEP 562), so a caller loads only what it uses.
"""
import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "collective": ("CollectiveObservable", "Direction", "bose_hubbard", "commutator_residual",
                   "direction_generator", "schwinger"),
    "fock": ("MonomialOp", "SectorState", "density_state", "diagonal_state", "expectation",
             "make_fock_state", "monomial_matrix", "pure_state", "validate_state"),
    "frames": ("ModeFrame", "bogolubov_frame", "custom_frame", "fock_expansion_coefficients",
               "frame_change_unitary", "spatial_frame", "transform_state"),
    "metrology": ("EstimationRun", "NonIdentifiableError", "PhaseEstimator", "classical_fisher",
                  "measurement_probabilities", "monte_carlo_estimate", "rotate"),
    "qfi": ("QfiReport", "classify", "qfi_diagonal_closed_form", "qfi_pure", "qfi_pure_fock",
            "qfi_spectral", "variance_bound"),
    "separability": ("SeparabilityVerdict", "SpinSqueezingWitness", "factorization_residual",
                     "is_separable", "spin_squeezing_witness", "witness_monomials"),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
