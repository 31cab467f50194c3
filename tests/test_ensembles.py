"""Seeded matrix ensembles: validation, determinism, construction properties."""

import json
from fractions import Fraction

import numpy as np
import pytest

from aluthgelab import (
    EnsembleSpec,
    InvalidSpecError,
    RNG_IDENTIFIER,
    aluthge_transform,
    eigenvalues,
    normality_defect,
    operator_norm,
    sample_matrix,
    spectrum_report,
    trial_seed,
)


def test_rng_identifier():
    assert RNG_IDENTIFIER == "philox4x64"


def test_trial_seed_counter():
    assert trial_seed(100, 0) == 100
    assert trial_seed(100, 7) == 107


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        EnsembleSpec(kind="sparse", dim=4, seed=0)
    with pytest.raises(InvalidSpecError):
        EnsembleSpec(kind="normal", dim=0, seed=0)
    with pytest.raises(InvalidSpecError):
        EnsembleSpec(kind="hyperbolic", dim=4, seed=0)  # gap required
    with pytest.raises(InvalidSpecError):
        EnsembleSpec(kind="hyperbolic", dim=4, seed=0, gap=-0.1)
    with pytest.raises(InvalidSpecError):
        EnsembleSpec(kind="shift", dim=4, seed=0)  # weights required
    with pytest.raises(InvalidSpecError):
        EnsembleSpec(kind="shift", dim=4, seed=0, weights=(1.0, 2.0))  # needs dim-1
    with pytest.raises(InvalidSpecError):
        EnsembleSpec(kind="invertible", dim=4, seed=0, cond_cap=0.5)
    # the Philox stream takes no negative seed; the spec names the seed
    with pytest.raises(InvalidSpecError, match="seed must be a nonnegative integer, got -1"):
        EnsembleSpec(kind="normal", dim=4, seed=-1)
    # real numbers are read by the one real-number gate, which names the field
    with pytest.raises(InvalidSpecError, match="^cond_cap must be a real number, got 'big'$"):
        EnsembleSpec(kind="invertible", dim=4, seed=0, cond_cap="big")
    with pytest.raises(InvalidSpecError, match="^gap must be a real number, got None$"):
        EnsembleSpec(kind="hyperbolic", dim=4, seed=0)
    with pytest.raises(InvalidSpecError, match=r"^each shift weight must be a real number, got b'1'$"):
        EnsembleSpec(kind="shift", dim=3, seed=0, weights=(b"1", 1.0))


@pytest.mark.parametrize(
    "fields",
    [
        {"kind": "invertible", "cond_cap": float("nan")},
        {"kind": "invertible", "cond_cap": "big"},
        {"kind": "hyperbolic", "gap": "x"},
        {"kind": "hyperbolic", "gap": float("inf")},
        {"kind": "invertible", "cond_cap": b"2"},
        {"kind": "invertible", "cond_cap": np.array([2.0])},
        {"kind": "invertible", "cond_cap": 2j},
        {"kind": "invertible", "cond_cap": 10**400},
        {"kind": "hyperbolic", "gap": "0.2"},
        {"kind": "hyperbolic", "gap": b"0.2"},
        {"kind": "hyperbolic", "gap": [0.2]},
        {"kind": "hyperbolic", "gap": np.array([0.2])},
        {"kind": "hyperbolic", "gap": 0.2j},
        {"kind": "hyperbolic", "gap": float("nan")},
        {"kind": "hyperbolic", "gap": 10**400},
    ],
)
def test_spec_rejects_bad_cond_cap_and_gap(fields):
    with pytest.raises(InvalidSpecError):
        EnsembleSpec(dim=3, seed=0, **fields)


@pytest.mark.parametrize(
    "weights",
    [
        ("a", "b"),  # not numbers
        (1j, 2.0),  # not real
        1.0,  # not a sequence
        (float("nan"), 1.0),
        (10**400, 1.0),  # beyond the float range
        np.ones((2, 1)),  # not one weight per entry
        ("0.5", 1.0),
        (b"0.5", 1.0),
        ([0.5], 1.0),
        (np.array([0.5]), 1.0),
        (None, 1.0),
        (float("inf"), 1.0),
    ],
)
def test_spec_rejects_bad_shift_weights(weights):
    with pytest.raises(InvalidSpecError):
        EnsembleSpec(kind="shift", dim=3, seed=0, weights=weights)


def test_spec_takes_shift_weights_of_any_real_sequence():
    for weights in ((1, 2.0), [np.float64(0.5), 2], np.array([0.5, 2.0]), (np.float32(1), 2.0), (Fraction(1, 2), True)):
        spec = EnsembleSpec(kind="shift", dim=3, seed=0, weights=weights)
        assert all(type(w) is float for w in spec.weights)
        np.testing.assert_array_equal(np.diag(sample_matrix(spec), -1), np.asarray(weights, dtype=float))


def test_spec_infinite_cond_cap_is_no_cap():
    spec = EnsembleSpec(kind="invertible", dim=3, seed=0, cond_cap=float("inf"))
    assert sample_matrix(spec).shape == (3, 3)


@pytest.mark.parametrize("kind, extra", [("invertible", {}), ("hyperbolic", {"gap": 0.2})])
def test_an_unreachable_cond_cap_is_refused_by_the_one_acceptance_loop(kind, extra):
    # no 6 x 6 complex Gaussian is that well conditioned: the invertible
    # draw and the hyperbolic similarity give up alike
    spec = EnsembleSpec(kind=kind, dim=6, seed=0, cond_cap=1.01, **extra)
    with pytest.raises(InvalidSpecError, match=r"^could not draw an invertible matrix under cond_cap 1\.01$"):
        sample_matrix(spec)


def test_hyperbolic_gap_that_overflows_the_draw_is_refused():
    # the outside moduli are drawn from [1 + gap, 2 + gap): at 1e308 the
    # draw's entries pass the float range, at 1e300 they stay finite
    with pytest.raises(InvalidSpecError, match="overflows"):
        sample_matrix(EnsembleSpec(kind="hyperbolic", dim=3, seed=0, gap=1e308))
    T = sample_matrix(EnsembleSpec(kind="hyperbolic", dim=3, seed=0, gap=1e300))
    assert np.isfinite(T).all() and np.abs(T).max() > 1e300


def test_spec_reads_integers_by_value():
    for name in ("dim", "seed"):
        for value in (2.5, "3"):
            with pytest.raises(InvalidSpecError, match=f"^{name} must be an integer, got {value!r}$"):
                EnsembleSpec(**{"kind": "normal", "dim": 2, "seed": 3, name: value})
    # numpy integers are integers; the spec stores Python ints
    spec = EnsembleSpec(kind="normal", dim=np.int64(2), seed=np.int64(3))
    assert type(spec.dim) is int and type(spec.seed) is int
    assert spec == EnsembleSpec(kind="normal", dim=2, seed=3)
    np.testing.assert_array_equal(sample_matrix(spec), sample_matrix(EnsembleSpec(kind="normal", dim=2, seed=3)))


def test_spec_with_array_weights_compares_by_value():
    a = EnsembleSpec(kind="shift", dim=3, seed=0, weights=np.array([0.5, 2.0]))
    b = EnsembleSpec(kind="shift", dim=3, seed=0, weights=np.array([0.5, 2.0]))
    assert a == b
    assert a == EnsembleSpec(kind="shift", dim=3, seed=0, weights=(0.5, 2.0))
    assert a != EnsembleSpec(kind="shift", dim=3, seed=0, weights=(0.5, 2.5))


@pytest.mark.parametrize("weights", [[0.5, 2.0], np.array([0.5, 2.0])], ids=["list", "ndarray"])
def test_spec_hashes_by_value(weights):
    spec = EnsembleSpec(kind="shift", dim=3, seed=0, weights=weights)
    assert isinstance(spec.weights, tuple)
    assert hash(spec) == hash(EnsembleSpec(kind="shift", dim=3, seed=0, weights=(0.5, 2.0)))
    assert len({spec, EnsembleSpec(kind="shift", dim=3, seed=0, weights=(0.5, 2.0))}) == 1


def test_spec_json_embeds_parameters():
    spec = EnsembleSpec(kind="hyperbolic", dim=3, seed=42, gap=0.2, cond_cap=1e4)
    obj = spec.to_json()
    assert obj["kind"] == "hyperbolic"
    assert obj["dim"] == 3
    assert obj["seed"] == 42
    assert obj["gap"] == 0.2
    # numbers are stored as Python floats, so any real scalar serializes
    for gap, cond_cap in ((np.float32(0.25), Fraction(10**4)), (Fraction(1, 4), np.float32(1e4)), (np.array(0.25), 10**4)):
        spec = EnsembleSpec(kind="hyperbolic", dim=3, seed=42, gap=gap, cond_cap=cond_cap)
        obj = json.loads(json.dumps(spec.to_json()))
        assert (obj["gap"], obj["cond_cap"]) == (0.25, 1e4)


@pytest.mark.parametrize(
    "spec",
    [
        EnsembleSpec(kind="invertible", dim=5, seed=3),
        EnsembleSpec(kind="normal", dim=4, seed=3),
        EnsembleSpec(kind="unitary", dim=6, seed=3),
        EnsembleSpec(kind="hyperbolic", dim=4, seed=3, gap=0.2),
        EnsembleSpec(kind="shift", dim=5, seed=3, weights=(1.0, 0.5, 2.0, 1.5)),
    ],
)
def test_sampling_deterministic(spec):
    A = sample_matrix(spec)
    B = sample_matrix(spec)
    np.testing.assert_array_equal(A, B)


def test_normal_samples_are_normal():
    for seed in range(5):
        T = sample_matrix(EnsembleSpec(kind="normal", dim=4, seed=seed))
        assert normality_defect(T) <= 1e-10


def test_unitary_samples_are_unitary():
    for seed in range(5):
        U = sample_matrix(EnsembleSpec(kind="unitary", dim=5, seed=seed))
        assert operator_norm(U.conj().T @ U - np.eye(5)) <= 1e-12
        assert not spectrum_report(U).hyperbolic


def test_hyperbolic_samples_respect_gap():
    for seed in range(8):
        spec = EnsembleSpec(kind="hyperbolic", dim=5, seed=seed, gap=0.2, cond_cap=1e4)
        T = sample_matrix(spec)
        moduli = np.abs(eigenvalues(T))
        assert np.all((moduli <= 0.8 + 1e-9) | (moduli >= 1.2 - 1e-9))
        assert spectrum_report(T).hyperbolic


def test_invertible_samples_clear_condition_cap():
    for seed in range(5):
        spec = EnsembleSpec(kind="invertible", dim=6, seed=seed, cond_cap=1e4)
        T = sample_matrix(spec)
        s = np.linalg.svd(T, compute_uv=False)
        assert s[-1] > 6 * np.finfo(float).eps * s[0]
        assert s[0] / s[-1] <= 1e4


def test_shift_sample_structure():
    weights = (1.0, 1.0, 1.0, 1.0)
    T = sample_matrix(EnsembleSpec(kind="shift", dim=5, seed=0, weights=weights))
    np.testing.assert_allclose(np.diag(T, -1), weights, atol=0.0)
    assert np.count_nonzero(T) == 4
    # strictly lower triangular: nilpotent with spectrum {0}
    assert np.max(np.abs(eigenvalues(T))) <= 1e-10
    assert np.max(np.abs(np.linalg.matrix_power(T, 5))) == 0.0


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.9])
def test_shift_transform_keeps_zero_spectrum(lam):
    # non-invertible, non-diagonalizable edge case of spectral invariance
    T = sample_matrix(
        EnsembleSpec(kind="shift", dim=5, seed=1, weights=(0.5, 2.0, 1.0, 1.5))
    )
    D = aluthge_transform(T, lam)
    assert np.max(np.abs(eigenvalues(D))) <= 1e-8
