"""Direct and inverse spectral problems for the periodic second-derivative
operator perturbed by a rank-one non-local potential."""

from .charfn import (
    autocorr_transform,
    autocorr_transform_star,
    char_perturbed,
    char_unperturbed,
    fourier_transform,
    fourier_transform_star,
    secular_function,
)
from .errors import (
    ConvergenceError,
    DegenerateOperatorError,
    InconsistentSpectraError,
    MalformedSpectrumError,
    PoleError,
    SpectralError,
)
from .oracle import (
    jacobi_eigenvalues,
    oracle_eigenvalues,
    scan_char_zeros,
)
from .potential import (
    OperatorSpec,
    PotentialSpec,
    build_potential,
    companions,
    evaluate,
)
from .recovery import (
    AdmissibilityReport,
    SpectralData,
    ThreeSpectra,
    alpha_and_norms,
    check_admissibility,
    invert_three_spectra,
    magnitudes_from_two_spectra,
    synthesize_from_admissible,
    weights_from_char_derivative,
    weights_from_spectrum,
)
from .spectrum import (
    ClassifiedSpectrum,
    Eigenfunction,
    SpectrumClass,
    SpectrumEntry,
    WeightTable,
    classify_spectrum,
    eigenfunctions,
    secular_roots,
    weight_table,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "ClassifiedSpectrum",
    "ConvergenceError",
    "DegenerateOperatorError",
    "Eigenfunction",
    "InconsistentSpectraError",
    "MalformedSpectrumError",
    "OperatorSpec",
    "PoleError",
    "PotentialSpec",
    "SpectralData",
    "SpectralError",
    "SpectrumClass",
    "SpectrumEntry",
    "ThreeSpectra",
    "WeightTable",
    "alpha_and_norms",
    "autocorr_transform",
    "autocorr_transform_star",
    "build_potential",
    "char_perturbed",
    "char_unperturbed",
    "check_admissibility",
    "classify_spectrum",
    "companions",
    "eigenfunctions",
    "evaluate",
    "fourier_transform",
    "fourier_transform_star",
    "invert_three_spectra",
    "jacobi_eigenvalues",
    "magnitudes_from_two_spectra",
    "oracle_eigenvalues",
    "scan_char_zeros",
    "secular_function",
    "secular_roots",
    "synthesize_from_admissible",
    "weight_table",
    "weights_from_char_derivative",
    "weights_from_spectrum",
]
