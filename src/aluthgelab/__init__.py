"""aluthgelab: a finite-dimensional numerical laboratory for
lambda-Aluthge transforms.

The package computes transforms, iterates, spectra, and quasi-hyperbolicity
verdicts for dense complex matrices, constructs true orbits shadowing
bounded pseudo-orbits of hyperbolic operators, and transfers shadowing
across the similarity H = |T|^lam connecting an invertible operator with
its transform.  Seeded matrix ensembles and property suites turn the
classical preservation statements (spectral invariance, normal fixed
points, norm convergence to the spectral radius, quasi-hyperbolicity
preservation, shadowing transfer) into machine-checkable experiments.
"""

from .aluthge import (
    Conjugator,
    IterateTrace,
    aluthge_iterates,
    aluthge_transform,
    conjugator,
    normality_defect,
    scale_homogeneity_check,
    write_trace_csv,
)
from .ensembles import RNG_IDENTIFIER, EnsembleSpec, sample_matrix, trial_seed
from .errors import (
    AluthgeLabError,
    InvalidDeltaError,
    InvalidSpecError,
    LengthMismatchError,
    NoConvergenceError,
    NonFiniteEntryError,
    NotHyperbolicError,
    NotInvertibleError,
    SizeMismatchError,
    UnstableOverflowError,
)
from .linalg_core import (
    SvdParts,
    as_matrix,
    eigenvalues,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    save_matrix,
    svd,
)
from .shadowing import (
    HyperbolicSplitting,
    PseudoOrbit,
    ShadowResult,
    generate_pseudo_orbit,
    hyperbolic_splitting,
    orbit_defects,
    shadow_orbit,
    transfer_shadowing,
    verify_shadowing,
)
from .spectral import (
    MatchResult,
    QuasiHyperbolicVerdict,
    SpectrumReport,
    is_quasi_hyperbolic_spectral,
    multiset_match,
    quasi_hyperbolic_definitional,
    spectrum_report,
)
from .suites import LAMBDA_GRID, SUITE_NAMES, ExperimentReport, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # linalg_core
    "SvdParts",
    "as_matrix",
    "operator_norm",
    "svd",
    "eigenvalues",
    "matrix_to_json",
    "matrix_from_json",
    "load_matrix",
    "save_matrix",
    # aluthge
    "IterateTrace",
    "Conjugator",
    "aluthge_transform",
    "scale_homogeneity_check",
    "normality_defect",
    "aluthge_iterates",
    "write_trace_csv",
    "conjugator",
    # spectral
    "SpectrumReport",
    "MatchResult",
    "QuasiHyperbolicVerdict",
    "spectrum_report",
    "multiset_match",
    "is_quasi_hyperbolic_spectral",
    "quasi_hyperbolic_definitional",
    # shadowing
    "HyperbolicSplitting",
    "PseudoOrbit",
    "ShadowResult",
    "hyperbolic_splitting",
    "generate_pseudo_orbit",
    "orbit_defects",
    "shadow_orbit",
    "transfer_shadowing",
    "verify_shadowing",
    # ensembles
    "EnsembleSpec",
    "sample_matrix",
    "trial_seed",
    "RNG_IDENTIFIER",
    # suites
    "ExperimentReport",
    "SUITE_NAMES",
    "LAMBDA_GRID",
    "run_suite",
    "run_all",
    # errors
    "AluthgeLabError",
    "NonFiniteEntryError",
    "NoConvergenceError",
    "NotInvertibleError",
    "NotHyperbolicError",
    "InvalidDeltaError",
    "SizeMismatchError",
    "LengthMismatchError",
    "InvalidSpecError",
    "UnstableOverflowError",
]
