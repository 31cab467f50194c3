"""The public surface: ``aluthgelab.__all__`` and each layer's ``__all__``.

Removing or adding a public name means editing the list below, and the
removal must be recorded in CHANGES.md.
"""

import importlib

import aluthgelab

PUBLIC_NAMES = [
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

LAYERS = ("linalg_core", "aluthge", "spectral", "shadowing", "ensembles", "suites", "cli")


def test_public_surface_is_pinned():
    assert aluthgelab.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(aluthgelab, name), name
    for layer in LAYERS:
        module = importlib.import_module(f"aluthgelab.{layer}")
        for name in module.__all__:
            assert hasattr(module, name), f"aluthgelab.{layer}.{name}"
