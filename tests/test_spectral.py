"""Spectrum reports, multiset matching, and both quasi-hyperbolicity routes."""

import itertools
import os
import pathlib
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aluthgelab import (
    EnsembleSpec,
    NonFiniteEntryError,
    SizeMismatchError,
    aluthge_transform,
    is_quasi_hyperbolic_spectral,
    multiset_match,
    quasi_hyperbolic_definitional,
    sample_matrix,
    spectrum_report,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]

ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])
SHEAR = np.array([[2.0, 1.0], [0.0, 0.5]])

# margins of the displayed inequality on diag(2, 1/2), minimized over the
# unit sphere by hand: the minimizer concentrates weight on the slow
# direction, giving 1 - 2 sqrt(8/17) at n = 1 and 1 - 2 sqrt(32/257) at n = 2
MARGIN_N1 = 1.0 - 2.0 * np.sqrt(8.0 / 17.0)
MARGIN_N2 = 1.0 - 2.0 * np.sqrt(32.0 / 257.0)


def _violation(T, n, x):
    """The inequality margin at x, from powers formed independently."""
    Tn = np.linalg.matrix_power(T, n)
    T2n = np.linalg.matrix_power(T, 2 * n)
    return max(np.linalg.norm(T2n @ x), np.linalg.norm(x)) - 2 * np.linalg.norm(Tn @ x)


def test_report_diagonal_oracle():
    rep = spectrum_report(np.diag([2.0, 0.5]))
    assert rep.spectral_radius == pytest.approx(2.0, abs=1e-12)
    assert rep.circle_distance == pytest.approx(0.5, abs=1e-12)
    assert rep.hyperbolic


def test_report_rotation_on_circle():
    rep = spectrum_report(ROTATION)
    assert rep.circle_distance == pytest.approx(0.0, abs=1e-12)
    assert not rep.hyperbolic
    assert multiset_match(rep.eigenvalues, [1j, -1j], 1e-12).matched


@pytest.mark.parametrize("seed,lam", [(0, 0.1), (1, 0.25), (2, 0.5), (3, 0.75), (4, 0.9)])
def test_report_matches_transform_report(seed, lam):
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    rep_t = spectrum_report(T)
    rep_d = spectrum_report(aluthge_transform(T, lam))
    tol = 1e-7 * (1 + rep_t.spectral_radius)
    assert multiset_match(rep_t.eigenvalues, rep_d.eigenvalues, tol).matched
    assert abs(rep_t.circle_distance - rep_d.circle_distance) <= tol


def test_report_json_fields():
    obj = spectrum_report(np.diag([2.0, 0.5])).to_json()
    assert set(obj) == {"eigenvalues", "spectral_radius", "circle_distance", "hyperbolic"}
    assert obj["hyperbolic"] is True
    assert sorted(pair[0] for pair in obj["eigenvalues"]) == [0.5, 2.0]


def test_multiset_permutation():
    result = multiset_match([2.0, 0.5], [0.5, 2.0], 1e-9)
    assert result.matched
    assert result.max_distance == 0.0


def test_multiset_within_tolerance():
    assert multiset_match([2.0], [2.0 + 1e-12], 1e-9).matched


def test_multiset_conjugate_mismatch():
    # pairing 1 with 1 leaves 1j and -1j at distance 2; crossing the pairs
    # puts both at distance sqrt(2), the smallest largest distance
    result = multiset_match([1.0, 1j], [1.0, -1j], 1e-3)
    assert not result.matched
    assert result.max_distance == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_multiset_size_mismatch():
    with pytest.raises(SizeMismatchError):
        multiset_match([1.0], [1.0, 2.0], 1e-9)


@pytest.mark.parametrize("tol", [float("nan"), -1e-12, -np.inf])
def test_multiset_refuses_a_negative_or_nan_tolerance(tol):
    # the real-number gate refuses NaN; the range test refuses a negative tolerance
    kind = "real" if np.isnan(tol) else "nonnegative"
    with pytest.raises(ValueError, match=f"^tol must be a {kind} number, got "):
        multiset_match([1.0], [1.0], tol)


@pytest.mark.parametrize(
    "tol",
    [
        None, "0.1", 1j, b"0.1", [0.1], np.array([0.1]), 10**400,
        # finite values beyond the float range
        Decimal("1e400"), -Decimal("1e400"), np.longdouble("1e4000"), -np.longdouble("1e4000"),
    ],
    ids=[
        "none", "string", "complex", "bytes", "list", "array", "huge",
        "huge decimal", "-huge decimal", "huge longdouble", "-huge longdouble",
    ],
)
def test_multiset_refuses_a_tolerance_that_is_not_a_number(tol):
    with pytest.raises(ValueError, match="^tol must be a real number, got "):
        multiset_match([1.0], [1.0], tol)


def test_multiset_takes_zero_and_infinite_tolerance():
    assert multiset_match([1.0], [1.0], 0.0) == (True, 0.0)
    assert not multiset_match([1.0], [1.5], 0.0).matched
    assert multiset_match([1.0], [1e300], np.inf).matched
    for tol in (np.float32(0.5), np.array(0.5), Fraction(1, 2)):
        assert multiset_match([1.0], [1.5], tol).matched and not multiset_match([1.0], [1.75], tol).matched


def test_multiset_prefers_optimal_pairing():
    # sorted-by-modulus pairing would cross these; the matching must not
    a = [1.0, 1.0 + 1e-12j]
    b = [1.0 + 1e-12j, 1.0]
    result = multiset_match(a, b, 1e-9)
    assert result.matched


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=1, max_value=8),
)
def test_multiset_symmetric_and_reflexive(seed, size):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    b = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    ab = multiset_match(a, b, 0.5)
    ba = multiset_match(b, a, 0.5)
    assert ab.matched == ba.matched
    assert ab.max_distance == pytest.approx(ba.max_distance, abs=1e-12)
    assert multiset_match(a, a, 0.0).matched


def test_multiset_bottleneck_not_min_sum():
    # the min-sum pairing (0 with 0) has largest distance 3; pairing each
    # point with a partner sqrt(5) away is better in the largest distance
    result = multiset_match([-1 + 1j, 1 + 1j, 0], [0, 1 - 2j, -1 + 2j], 2.5)
    assert result.matched
    assert result.max_distance == np.sqrt(5.0)


POINTS = st.one_of(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    # points of a coarse grid, so that distances tie
    st.builds(complex, st.integers(-2, 2), st.integers(-2, 2)),
)


@settings(max_examples=200, deadline=None)
@given(
    pair=st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(*2 * [st.lists(POINTS, min_size=n, max_size=n)])
    ),
    tol=st.floats(min_value=0.0, max_value=20.0),
)
def test_multiset_max_distance_is_brute_force_bottleneck(pair, tol):
    a, b = (np.array(points, dtype=complex) for points in pair)
    cost = np.abs(a[:, None] - b[None, :])
    rows = range(len(a))
    best = min(cost[rows, list(perm)].max() for perm in itertools.permutations(rows))
    result = multiset_match(a, b, tol)
    assert result.max_distance == best
    assert result.matched == (best <= tol)


def test_multiset_large_permuted_perturbed():
    # 1100 points: an augmenting-path search that recursed would pass
    # Python's default recursion limit of 1000
    rng = np.random.default_rng(0)
    a = rng.standard_normal(1100) + 1j * rng.standard_normal(1100)
    noise = rng.standard_normal(1100) + 1j * rng.standard_normal(1100)
    b = a[rng.permutation(1100)] + 1e-10 * noise
    result = multiset_match(a, b, 1e-8)
    assert result.matched
    assert result.max_distance < 1e-9


@pytest.mark.parametrize(
    "a, b",
    [
        ([1.0, np.nan], [1.0, 2.0]),
        ([1.0, 2.0], [np.inf, 2.0]),
        ([complex(0, -np.inf)], [0.0]),
        ([1e308], [-1e308]),  # finite entries, overflowing distance
    ],
)
def test_multiset_non_finite_is_typed(a, b):
    with pytest.raises(NonFiniteEntryError):
        multiset_match(a, b, 1.0)


def test_suites_run_without_scipy():
    # a None entry in sys.modules makes every import of scipy fail
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from aluthgelab import run_all\n"
        "run_all(2, 1)\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_spectral_verdict_diagonal():
    v = is_quasi_hyperbolic_spectral(np.diag([2.0, 0.5]))
    assert v.verdict and v.method == "spectral"
    assert v.margin == pytest.approx(0.5, abs=1e-12)


def test_spectral_verdict_unitary_false():
    v = is_quasi_hyperbolic_spectral(ROTATION)
    assert not v.verdict


# each eigenvalue is held to its own scale, so a large one does not pull
# 0.5 onto the unit circle (beyond 5e7 it once did)
@pytest.mark.parametrize("large", [6e7, 1e9, 1e15])
def test_spectral_verdict_large_eigenvalue_leaves_a_small_one_off_the_circle(large):
    T = np.diag([large, 0.5])
    v = is_quasi_hyperbolic_spectral(T)
    assert v.verdict and v.margin == 0.5
    assert spectrum_report(T).hyperbolic
    definitional = quasi_hyperbolic_definitional(T)
    assert definitional.verdict and definitional.exponent == 2


# within roundoff of the circle at the scale the largest eigenvalue sets
@pytest.mark.parametrize("near", [1.0 + 1e-12, 1.0 + 1e-7])
def test_spectral_verdict_near_circle_beside_a_large_eigenvalue_false(near):
    T = np.diag([near, 1e9])
    assert not is_quasi_hyperbolic_spectral(T).verdict
    assert not spectrum_report(T).hyperbolic


@pytest.mark.parametrize("lam", [0.1, 0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spectral_verdict_preserved_by_transform(seed, lam):
    spec = EnsembleSpec(kind="hyperbolic", dim=4, seed=seed, gap=0.2, cond_cap=1e4)
    T = sample_matrix(spec)
    v_t = is_quasi_hyperbolic_spectral(T)
    v_d = is_quasi_hyperbolic_spectral(aluthge_transform(T, lam))
    assert v_t.verdict == v_d.verdict


def test_definitional_diagonal_falsified_at_one():
    T = np.diag([2.0, 0.5])
    verdict = quasi_hyperbolic_definitional(T, n_max=1, seed=0)
    assert not verdict.verdict
    # the witness is the minimax vector, which here is the global minimizer
    assert verdict.margin == pytest.approx(MARGIN_N1, abs=1e-9)
    # recompute the inequality at the witness: it must be violated
    value = _violation(T, 1, verdict.witness)
    assert value == pytest.approx(verdict.margin, abs=1e-9)
    assert value < 0


def test_definitional_diagonal_holds_at_two():
    verdict = quasi_hyperbolic_definitional(np.diag([2.0, 0.5]), n_max=2, seed=0)
    assert verdict.verdict
    assert verdict.exponent == 2
    assert verdict.margin == pytest.approx(MARGIN_N2, abs=1e-6)
    assert not verdict.budget_exhausted


def test_definitional_unitary_false_every_n():
    # any unit vector witnesses max(1, 1) = 1 < 2
    verdict = quasi_hyperbolic_definitional(ROTATION, n_max=6, seed=1)
    assert not verdict.verdict
    assert verdict.margin == pytest.approx(-1.0, abs=1e-9)
    assert verdict.witness is not None
    assert np.linalg.norm(verdict.witness) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(12))
def test_definitional_unitary_exponent_is_basis_free(seed):
    # every margin of a unitary is -1 up to roundoff: the tie goes to the
    # smallest exponent, in any orthonormal basis
    U = sample_matrix(EnsembleSpec(kind="unitary", dim=4, seed=seed))
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    verdicts = [quasi_hyperbolic_definitional(M) for M in (U, Q @ U @ Q.conj().T)]
    assert [(v.verdict, v.exponent) for v in verdicts] == [(False, 1), (False, 1)]
    for v in verdicts:
        assert v.margin == pytest.approx(-1.0, abs=1e-12)


def test_definitional_budget_exhausted_flag():
    # a huge shear overflows the powers at every exponent, so no exponent
    # is decided and the verdict degrades to true with the flag set
    T = np.array([[1.0, 1e150], [0.0, 1.0]])
    verdict = quasi_hyperbolic_definitional(T, n_max=4, seed=0)
    assert verdict.verdict
    assert verdict.budget_exhausted
    assert verdict.exponent == 1
    assert verdict.margin == 0.0


def test_definitional_reads_n_max_as_an_integer():
    T = np.diag([2.0, 0.5])
    for n_max in (2.5, "3"):
        with pytest.raises(ValueError, match=f"^n_max must be an integer, got {n_max!r}$"):
            quasi_hyperbolic_definitional(T, n_max=n_max)
    assert quasi_hyperbolic_definitional(T, n_max=np.int64(2)) == quasi_hyperbolic_definitional(T, n_max=2)


def test_definitional_agrees_with_spectral_on_gapped_samples():
    for seed in range(8):
        spec = EnsembleSpec(kind="hyperbolic", dim=3, seed=seed, gap=0.3, cond_cap=1e4)
        T = sample_matrix(spec)
        spectral = is_quasi_hyperbolic_spectral(T).verdict
        definitional = quasi_hyperbolic_definitional(T, n_max=20, seed=seed).verdict
        assert spectral and definitional


# quasihyp suite trials (base seed 1, definitional gap 0.3) whose
# violating vectors at exponent - 1 are hard to find by local search
@pytest.mark.parametrize(
    "seed,dim,exponent", [(5, 6, 5), (7, 8, 4), (55, 7, 5), (73, 4, 6)]
)
def test_definitional_exponent_is_exact(seed, dim, exponent):
    spec = EnsembleSpec(kind="hyperbolic", dim=dim, seed=seed, gap=0.3, cond_cap=1e4)
    T = sample_matrix(spec)
    verdict = quasi_hyperbolic_definitional(T)
    assert verdict.verdict and verdict.exponent == exponent
    assert verdict.margin >= 0
    below = quasi_hyperbolic_definitional(T, n_max=exponent - 1)
    assert not below.verdict
    assert np.linalg.norm(below.witness) == pytest.approx(1.0, abs=1e-12)
    value = _violation(T, below.exponent, below.witness)
    assert value == pytest.approx(below.margin, abs=1e-9)
    assert value < 0


def test_definitional_false_verdict_reports_the_worst_witness():
    # every exponent up to 6 fails here, each with its own witness; the
    # reported one is the most negative, so it never rises with n_max
    T = np.random.default_rng(66).standard_normal((3, 3))
    T = 1.05 * T / np.abs(np.linalg.eigvals(T)).max()
    verdicts = [quasi_hyperbolic_definitional(T, n_max=k) for k in range(1, 7)]
    assert not any(v.verdict for v in verdicts)
    margins = [v.margin for v in verdicts]
    assert margins == sorted(margins, reverse=True)
    assert margins[-1] < margins[0]
    for v in verdicts:
        assert _violation(T, v.exponent, v.witness) == pytest.approx(v.margin, abs=1e-9)


def test_definitional_defective_jordan_block():
    verdict = quasi_hyperbolic_definitional(np.array([[2.0, 1.0], [0.0, 2.0]]))
    assert verdict.verdict and verdict.exponent == 2
    assert not verdict.budget_exhausted
    assert not quasi_hyperbolic_definitional(np.array([[2.0, 1.0], [0.0, 2.0]]), n_max=1).verdict


def test_definitional_complex_witness():
    rng = np.random.default_rng(5)
    T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    verdict = quasi_hyperbolic_definitional(T)
    assert verdict.verdict and verdict.exponent == 2
    below = quasi_hyperbolic_definitional(T, n_max=1)
    assert not below.verdict and below.exponent == 1
    value = _violation(T, 1, below.witness)
    assert value == pytest.approx(below.margin, abs=1e-9)
    assert value < 0


def test_definitional_balanced_pencil_on_gaussian_draws():
    # expected values from a 60-digit bisection on the unbalanced pencil;
    # in double precision that pencil claims exponent 10 holds for the
    # first draw and leaves exponent 10 of the second undecided
    T = np.random.default_rng(54).standard_normal((4, 4))
    below = quasi_hyperbolic_definitional(T, n_max=10)
    assert not below.verdict
    value = _violation(T, below.exponent, below.witness)
    assert value == pytest.approx(below.margin, abs=1e-9)
    assert value < 0
    T = np.random.default_rng(14).standard_normal((4, 4))
    verdict = quasi_hyperbolic_definitional(T)
    assert verdict.verdict and verdict.exponent == 10
    assert not verdict.budget_exhausted


@pytest.mark.parametrize("scale", [1e120, 1e300])
def test_definitional_huge_scale_overflows_quietly(scale):
    # the powers pass the overflow limit by T^2, so every exponent is left
    # undecided; finding that must not square an entry (RuntimeWarnings
    # are errors under pytest)
    verdict = quasi_hyperbolic_definitional(scale * SHEAR, n_max=4)
    assert verdict.verdict and verdict.budget_exhausted
    assert verdict.exponent == 1
    assert verdict.margin == 0.0


def test_definitional_tiny_scale_holds_at_one():
    # the powers underflow towards zero, and ||x|| >= 2 ||T x|| everywhere
    verdict = quasi_hyperbolic_definitional(2.0**-1000 * SHEAR, n_max=4)
    assert verdict.verdict and not verdict.budget_exhausted
    assert verdict.exponent == 1
    assert verdict.margin == pytest.approx(1.0, abs=1e-12)


def non_normal_triangular():
    """A strongly non-normal triangular draw with unit-modulus and nearby
    eigenvalues, one of whose exponents stays undecided (budget_exhausted).
    Which one is a roundoff outcome of the BLAS kernel: 17 under OpenBLAS's
    SkylakeX kernel, 15 under its Haswell kernel."""
    rng = np.random.default_rng(360)
    n = int(rng.integers(2, 6))
    scale = 10.0 ** rng.uniform(0, 5)
    upper = np.triu(rng.standard_normal((n, n)) * scale, 1)
    return upper + np.diag(np.exp(2j * np.pi * rng.random(n)) * rng.uniform(0.5, 1.5, n))


def assert_same_verdict(a, b):
    assert (a.verdict, a.method, a.exponent, a.margin, a.budget_exhausted) == (
        b.verdict,
        b.method,
        b.exponent,
        b.margin,
        b.budget_exhausted,
    )
    if a.witness is None:
        assert b.witness is None
    else:
        np.testing.assert_array_equal(a.witness, b.witness)


def test_definitional_stack_equals_one_call_per_member():
    triangular = non_normal_triangular()
    dim = len(triangular)
    jordan = 2.0 * np.eye(dim) + np.diag(np.ones(dim - 1), 1)
    # 1e50 passes the overflow limit at T^4: one decidable exponent, which fails
    huge = np.diag([1e50, 1e-50] + [1.0] * (dim - 2))
    stack = np.stack(
        [sample_matrix(EnsembleSpec(kind="unitary", dim=dim, seed=seed)) for seed in range(2)]
        + [
            jordan,
            np.zeros((dim, dim)),
            triangular,
            huge,
            sample_matrix(EnsembleSpec(kind="hyperbolic", dim=dim, seed=4, gap=0.3, cond_cap=1e4)),
            np.random.default_rng(66).standard_normal((dim, dim)),
        ]
    )
    verdicts = quasi_hyperbolic_definitional(stack, n_max=20)
    assert isinstance(verdicts, list) and len(verdicts) == len(stack)
    for T, verdict in zip(stack, verdicts):
        assert_same_verdict(verdict, quasi_hyperbolic_definitional(T, n_max=20))
    # the stack covers every outcome: held, refuted, undecided by a stuck
    # bracket and undecided past an overflow cut
    assert [v.verdict for v in verdicts[:2]] == [False, False]
    assert verdicts[2].verdict and not verdicts[2].budget_exhausted
    # the stuck exponent depends on the BLAS kernel; the loop above pins it
    # to the member's own call
    assert verdicts[4].budget_exhausted
    assert (verdicts[5].budget_exhausted, verdicts[5].exponent) == (True, 2)


def test_definitional_zero_dim_is_refused():
    # both routes refuse the 0 x 0 operator at the matrix gate, alone or stacked
    for call, T in (
        (quasi_hyperbolic_definitional, np.zeros((0, 0))),
        (is_quasi_hyperbolic_spectral, np.zeros((0, 0))),
        (quasi_hyperbolic_definitional, np.zeros((2, 0, 0))),
    ):
        with pytest.raises(SizeMismatchError, match=r"^expected a nonempty square matrix, got shape \(0, 0\)$"):
            call(T)


def test_definitional_refuses_an_operator_beyond_the_float_range():
    # normal, |mu| = sigma = 1.84e308: its powers pass OVERFLOW_LIMIT at once,
    # so only the gate before the first power can refuse it
    N = 1.3e308 * np.array([[1.0, 1.0], [-1.0, 1.0]])
    for T in (N, np.stack([2.0 * np.eye(2), N])):
        with pytest.raises(NonFiniteEntryError, match="^singular value beyond the float range$"):
            quasi_hyperbolic_definitional(T)
    with pytest.raises(NonFiniteEntryError, match="^eigenvalue beyond the float range$"):
        is_quasi_hyperbolic_spectral(N)
    # sigma = 1.70e308 is in range: not refused, and left undecided past OVERFLOW_LIMIT
    verdict = quasi_hyperbolic_definitional(1.2e308 * np.array([[1.0, 1.0], [-1.0, 1.0]]))
    assert (verdict.verdict, verdict.exponent, verdict.budget_exhausted) == (True, 1, True)


def test_verdict_json_round_trip_fields():
    verdict = quasi_hyperbolic_definitional(np.diag([2.0, 0.5]), n_max=2, seed=0)
    obj = verdict.to_json()
    assert obj["method"] == "definitional"
    assert obj["verdict"] is True
    assert obj["exponent"] == 2
    verdict_false = quasi_hyperbolic_definitional(ROTATION, n_max=2, seed=0)
    obj_false = verdict_false.to_json()
    assert obj_false["verdict"] is False
    assert isinstance(obj_false["witness"], list)
    assert len(obj_false["witness"][0]) == 2
