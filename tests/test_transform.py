"""Aluthge transform, iterates, homogeneity, and the similarity conjugator."""

import functools
import io
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from aluthgelab import (
    EnsembleSpec,
    NonFiniteEntryError,
    NotInvertibleError,
    SizeMismatchError,
    aluthge_iterates,
    aluthge_transform,
    conjugator,
    eigenvalues,
    multiset_match,
    normality_defect,
    operator_norm,
    sample_matrix,
    scale_homogeneity_check,
    write_trace_csv,
)
from aluthgelab import aluthge, linalg_core, suites

T_MONOMIAL = np.array([[0.0, 4.0], [1.0, 0.0]])
LAMBDAS = (0.1, 0.25, 0.5, 0.75, 0.9)
#: The iterates suite's convergence rule, as the suite hands it to ``_iterate``.
SUITE_RULE = functools.partial(suites._converged, suites._SUITES["iterates"].tolerances)


def random_matrix(seed, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_transform_monomial_half():
    # U = [[0,1],[1,0]], |T| = diag(1,4): diag(1,2) @ U @ diag(1,2) = [[0,2],[2,0]]
    D = aluthge_transform(T_MONOMIAL, 0.5)
    np.testing.assert_allclose(D, [[0, 2], [2, 0]], atol=1e-13)


def test_transform_monomial_quarter():
    # diag(1, 4^(1/4)) @ U @ diag(1, 4^(3/4)) = [[0, 2 sqrt 2],[sqrt 2, 0]]
    D = aluthge_transform(T_MONOMIAL, 0.25)
    r2 = np.sqrt(2.0)
    np.testing.assert_allclose(D, [[0, 2 * r2], [r2, 0]], atol=1e-13)


def test_transform_fixes_normal():
    T = np.diag([2.0, 3.0j])
    for lam in LAMBDAS:
        np.testing.assert_allclose(aluthge_transform(T, lam), T, atol=1e-13)


def test_transform_rejects_bad_lambda():
    for lam in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            aluthge_transform(T_MONOMIAL, lam)


@pytest.mark.parametrize(
    "lam",
    [
        None, 0.5j, [0.5], np.array([0.5]), "0.5", b"0.5", np.nan, 10**400,
        # finite values beyond the float range
        Decimal("1e400"), -Decimal("1e400"), np.longdouble("1e4000"), -np.longdouble("1e4000"),
    ],
    ids=[
        "none", "complex", "list", "array", "string", "bytes", "nan", "huge",
        "huge decimal", "-huge decimal", "huge longdouble", "-huge longdouble",
    ],
)
def test_lambda_that_is_not_a_real_number_is_refused(lam):
    with pytest.raises(ValueError, match="^lambda must be a real number"):
        aluthge.check_lambda(lam)
    with pytest.raises(ValueError, match="^lambda must be a real number"):
        aluthge_transform(T_MONOMIAL, lam)
    with pytest.raises(ValueError, match="^lambda must be a real number"):
        conjugator(T_MONOMIAL, lam)


@pytest.mark.parametrize(
    "lam",
    [0.5, np.float32(0.5), np.array(0.5), 1 / 2, Fraction(1, 2)],
    ids=["float", "float32", "0-d", "division", "fraction"],
)
def test_lambda_accepts_every_real_scalar(lam):
    assert aluthge.check_lambda(lam) == 0.5 and type(aluthge.check_lambda(lam)) is float
    np.testing.assert_array_equal(aluthge_transform(T_MONOMIAL, lam), aluthge_transform(T_MONOMIAL, 0.5))


@pytest.mark.parametrize("seed,n,lam", [(s, 2 + s % 11, LAMBDAS[s % 5]) for s in range(12)])
def test_transform_preserves_spectrum(seed, n, lam):
    T = random_matrix(seed, n)
    result = multiset_match(
        eigenvalues(T),
        eigenvalues(aluthge_transform(T, lam)),
        1e-7 * (1 + operator_norm(T)),
    )
    assert result.matched, f"max pairing distance {result.max_distance}"


@pytest.mark.parametrize("seed", range(7))
def test_transform_rank_one_closed_form(seed):
    # D_lam(x y*) = (y*x / ||y||^2) y y* for every lambda; raising the
    # roundoff singular values of a rank-one T to a power misses this by
    # about 0.1 ||T||
    rng = np.random.default_rng(200 + seed)
    n = 2 + seed
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    T = np.outer(x, y.conj())
    exact = (np.vdot(y, x) / np.vdot(y, y)) * np.outer(y, y.conj())
    for lam in LAMBDAS:
        err = operator_norm(aluthge_transform(T, lam) - exact)
        assert err <= 1e-12 * operator_norm(T), (lam, err)


@pytest.mark.parametrize("n", range(1, 13))
def test_transform_matches_polar_construction(n):
    # invertible T: the one-SVD core equals |T|^lam U |T|^(1-lam) built
    # without an SVD, from the Hermitian eigendecomposition T*T = Q diag(w) Q*:
    # |T|^t = Q diag(w^(t/2)) Q* and U = T |T|^(-1)
    T = random_matrix(300 + n, n)
    w, Q = np.linalg.eigh(T.conj().T @ T)

    def modulus_power(t):
        return (Q * w ** (t / 2)) @ Q.conj().T

    U = T @ modulus_power(-1.0)
    for lam in LAMBDAS:
        reference = modulus_power(lam) @ U @ modulus_power(1.0 - lam)
        err = operator_norm(aluthge_transform(T, lam) - reference)
        assert err <= 1e-12 * operator_norm(T), (lam, err)


def test_homogeneity_identity_scaling():
    assert scale_homogeneity_check(T_MONOMIAL, 1.0, 0.5) <= 1e-12


def test_homogeneity_zero():
    assert scale_homogeneity_check(T_MONOMIAL, 0.0, 0.5) == 0.0
    assert operator_norm(aluthge_transform(0.0 * T_MONOMIAL, 0.5)) == 0.0


def test_homogeneity_refuses_an_alpha_that_is_not_a_number():
    with pytest.raises(ValueError, match="^alpha must be a complex number, got None$"):
        scale_homogeneity_check(T_MONOMIAL, None, 0.5)
    # each part is read by the real-number gate, and must be finite
    refused = ("1", "1+2j", b"1", [1.0], np.array([1.0]), 10**400, np.nan, np.inf, complex(np.inf, 0), complex(0, np.nan))
    for alpha in refused:
        with pytest.raises(ValueError, match=f"^alpha must be a complex number, got {re.escape(repr(alpha))}$"):
            scale_homogeneity_check(T_MONOMIAL, alpha, 0.5)
    for alpha in (np.complex64(1), np.array(1 + 0j), Fraction(1), True, 1):
        assert scale_homogeneity_check(T_MONOMIAL, alpha, 0.5) <= 1e-12


def test_homogeneity_refuses_an_alpha_t_beyond_the_float_range():
    # 10 * 1e308 overflows: alpha T is refused as a matrix with an infinite
    # entry, with no RuntimeWarning from forming it
    with pytest.raises(NonFiniteEntryError, match="^matrix contains NaN or infinite entries$"):
        scale_homogeneity_check(10.0 * np.eye(2), 1e308, 0.5)
    with pytest.raises(NonFiniteEntryError, match="^matrix contains NaN or infinite entries$"):
        scale_homogeneity_check(10.0 * np.eye(2), complex(1e308, 1e308), 0.5)


def test_homogeneity_negative_two():
    assert scale_homogeneity_check(T_MONOMIAL, -2.0, 0.5) <= 1e-10
    # the phase of alpha rides with the isometry factor: -2 T maps to -2 D(T)
    D = aluthge_transform(-2.0 * T_MONOMIAL, 0.5)
    np.testing.assert_allclose(D, [[0, -4], [-4, 0]], atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_homogeneity_random_complex(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 7))
    T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    alpha = complex(rng.standard_normal(), rng.standard_normal()) * 3
    lam = float(rng.uniform(0.05, 0.95))
    disc = scale_homogeneity_check(T, alpha, lam)
    assert disc <= 1e-10 * (1 + abs(alpha) * operator_norm(T))


@pytest.mark.parametrize("k", [-990, -500, 500, 990])
@pytest.mark.parametrize("n", range(1, 9))
def test_transform_scale_covariant_at_float_range_edges(n, k):
    # D_lam(2^k T) = 2^k D_lam(T); the power of two is exact, so only the
    # factorization's roundoff separates the two sides
    T = random_matrix(n, n)
    T = T / operator_norm(T)
    for lam in LAMBDAS:
        D = aluthge_transform(T, lam)
        scaled = aluthge_transform(T * 2.0**k, lam) * 2.0**-k
        assert operator_norm(scaled - D) <= 1e-13 * operator_norm(D)


def test_normality_defect_oracles():
    # T*T = diag(1,16), TT* = diag(16,1), difference has norm 15
    assert normality_defect(T_MONOMIAL) == pytest.approx(15.0, abs=1e-12)
    assert normality_defect([[0, 2], [2, 0]]) <= 1e-12
    U = np.linalg.qr(random_matrix(3, 5))[0]
    assert normality_defect(U @ np.diag([1, 2, 3, 4, 5.0]) @ U.conj().T) <= 1e-12


def test_normality_defect_of_an_entry_whose_modulus_overflows():
    # |1.5e308 + 1.5e308j| = 2.1e308 is beyond the float range, so the
    # scaling reads that entry's larger part: the normal D has defect 0,
    # and the other's 2.1e308 is refused, with no RuntimeWarning either way
    D = np.diag([1.5e308 + 1.5e308j, 1.0])
    assert normality_defect(D) == 0.0
    with pytest.raises(NonFiniteEntryError, match="^normality defect beyond the float range$"):
        normality_defect([[1.5e308 + 1.5e308j, 1.0], [0.0, 1.0]])
    # a member scaled that way beside one in range, which keeps its bits
    defect, exponent = aluthge._defect(np.stack([T_MONOMIAL, D]).astype(complex))
    assert defect[1] == 0.0 and exponent.tolist() == [3, 1024]
    assert np.ldexp(defect[0], 2 * exponent[0]) == normality_defect(T_MONOMIAL)


def test_iterates_start_at_input():
    trace = aluthge_iterates(T_MONOMIAL, 0.5, 10)
    np.testing.assert_allclose(trace.iterates[0], T_MONOMIAL, atol=0.0)


def test_iterates_normal_input_stops_immediately():
    T = np.diag([2.0, 3.0j])
    trace = aluthge_iterates(T, 0.5, 50)
    # defect is already at the floor; one confirming step is still taken
    assert len(trace) == 2
    np.testing.assert_allclose(trace.iterates[1], T, atol=1e-13)
    assert all(d <= 1e-12 * operator_norm(T) ** 2 for d in trace.normality_defects)


def test_iterates_monomial_reaches_fixed_point():
    trace = aluthge_iterates(T_MONOMIAL, 0.5, 50)
    np.testing.assert_allclose(trace.iterates[1], [[0, 2], [2, 0]], atol=1e-13)
    # iterate 1 is normal, so exactly one more confirming iterate appears
    assert len(trace) == 3
    np.testing.assert_allclose(trace.iterates[2], trace.iterates[1], atol=1e-12)
    assert trace.spectral_radius == pytest.approx(2.0, abs=1e-12)
    assert trace.operator_norms[0] == pytest.approx(4.0, abs=1e-12)
    assert trace.operator_norms[1] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_iterates_norms_nonincreasing(seed):
    T = random_matrix(40 + seed, 2 + seed % 5)
    trace = aluthge_iterates(T, 0.5, 120)
    norms = np.asarray(trace.operator_norms)
    assert np.all(norms[1:] <= norms[:-1] + 1e-10)
    assert len(trace.operator_norms) == len(trace.normality_defects) == len(trace.iterates)


@pytest.mark.parametrize("seed", range(4))
def test_iterates_diagnostics_match_operator_norm(seed):
    T = random_matrix(80 + seed, 2 + seed)
    trace = aluthge_iterates(T, 0.5, 40)
    for S, norm, defect in zip(trace.iterates, trace.operator_norms, trace.normality_defects):
        assert norm == pytest.approx(operator_norm(S), rel=1e-12)
        commutator = S.conj().T @ S - S @ S.conj().T
        assert defect == pytest.approx(operator_norm(commutator), rel=1e-12)


def test_iterates_diagnostics_keep_their_scale():
    # ||T||^2 underflows here; the trace still reports ||T|| itself
    T = 1e-170 * random_matrix(90, 4)
    trace = aluthge_iterates(T, 0.5, 3)
    assert trace.operator_norms[0] == pytest.approx(operator_norm(T), rel=1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1.0, 1e150])
def test_iterates_early_stop_is_scale_free(scale):
    # at 1e-200 the threshold 1e-12 ||T||^2 underflows to 0, so a stop
    # taken on unscaled values never comes
    U = np.linalg.qr(random_matrix(95, 4))[0]
    normal = U @ np.diag([1.0, 2.0j, -3.0, 0.5]) @ U.conj().T
    assert len(aluthge_iterates(scale * normal, 0.5, 50)) == 2
    trace = aluthge_iterates(scale * T_MONOMIAL, 0.5, 50)
    assert len(trace) == 3
    assert trace.operator_norms[1] == pytest.approx(2.0 * scale, rel=1e-12)
    assert trace.normality_defects[0] == pytest.approx(15.0 * scale**2, rel=1e-12)


def test_iterates_overflowing_defect_is_a_typed_error():
    # ||T||^2 is about 1.6e321, beyond the float range
    T = 1e160 * T_MONOMIAL
    with pytest.raises(NonFiniteEntryError):
        normality_defect(T)
    with pytest.raises(NonFiniteEntryError):
        aluthge_iterates(T, 0.5, 10)
    with pytest.raises(NonFiniteEntryError):
        aluthge_iterates(np.stack([T_MONOMIAL, T]), 0.5, 10)
    # a normal operator at that scale has a representable defect
    assert len(aluthge_iterates(1e160 * np.diag([1.0, 2.0j]), 0.5, 10)) == 2
    # ||T|| = 2e308 overflows, its defect 0 does not: the iterates, which
    # report ||T||, refuse it, and normality_defect reads the defect alone
    with pytest.raises(NonFiniteEntryError):
        aluthge_iterates(1e308 * np.ones((2, 2)), 0.5, 10)
    assert normality_defect(1e308 * np.ones((2, 2))) == 0.0
    # under the suite's rule ||T||^2 overflows to inf: the member meets it
    # at iterate 0, and its rows come back
    rows = aluthge._iterate((1e160 * np.diag([1.0, 2.0j]))[None], 0.5, 10, SUITE_RULE)
    assert [row.tolist() for row in rows[0] + rows[1]] == [[2e160], [0.0]]
    assert rows[2] == [2e160]


def _mixed_stack(n):
    """A normal matrix, a slow draw, a rank-one x y* and the zero matrix."""
    rng = np.random.default_rng(500 + n)
    U = np.linalg.qr(random_matrix(600 + n, n))[0]
    normal = U @ np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n)) @ U.conj().T
    # nearly equal eigenvalues under a full upper triangle converge slowly
    slow = np.triu(random_matrix(700 + n, n), 1)
    slow += np.exp(2j * np.pi * rng.random()) * np.diag(1 - 1e-2 * np.arange(n))
    x, y = random_matrix(800 + n, max(n, 2))[:2, :n]
    return np.stack([normal, slow, np.outer(x, y.conj()), np.zeros((n, n))])


@pytest.mark.parametrize("n", range(1, 9))
def test_iterate_stack_equals_one_call_per_member(n):
    stack = _mixed_stack(n)
    traces = aluthge_iterates(stack, 0.5, 40)
    assert isinstance(traces, list) and len(traces) == len(stack)
    for T, trace in zip(stack, traces):
        alone = aluthge_iterates(T, 0.5, 40)
        assert np.array_equal(trace.iterates[0], T)  # input order
        assert len(trace) == len(alone)
        assert np.array_equal(trace.operator_norms, alone.operator_norms)
        assert np.array_equal(trace.normality_defects, alone.normality_defects)
        assert all(np.array_equal(a, b) for a, b in zip(trace.iterates, alone.iterates))
        assert trace.spectral_radius == alone.spectral_radius
    # members stop on their own: the normal one and the zero matrix at once,
    # the slow draw at the budget
    assert len(traces[0]) == 2
    assert len(traces[3]) == 2
    if n > 1:
        assert len(traces[1]) == 41
        assert len(traces[2]) == 3  # x y* is normal after one step


def test_iterate_stack_of_one_equals_the_matrix_call():
    T = random_matrix(97, 5)
    (member,) = aluthge_iterates(T[None], 0.5, 60)
    alone = aluthge_iterates(T, 0.5, 60)
    assert np.array_equal(member.operator_norms, alone.operator_norms)
    assert np.array_equal(member.normality_defects, alone.normality_defects)
    assert all(np.array_equal(a, b) for a, b in zip(member.iterates, alone.iterates))
    assert member.spectral_radius == alone.spectral_radius


def test_iterate_stack_is_validated_at_its_boundary(monkeypatch):
    with pytest.raises(SizeMismatchError):
        aluthge_iterates([np.eye(2), np.eye(3)], 0.5, 5)
    with pytest.raises(SizeMismatchError):
        aluthge_iterates(np.zeros((3, 2, 4)), 0.5, 5)
    stack = _mixed_stack(3)
    stack[2, 1, 0] = np.nan
    with pytest.raises(NonFiniteEntryError):
        aluthge_iterates(stack, 0.5, 5)

    from aluthgelab import aluthge, linalg_core

    calls = []
    validate = linalg_core.as_matrix

    def counted(a):
        calls.append(1)
        return validate(a)

    monkeypatch.setattr(aluthge, "as_matrix", counted)
    monkeypatch.setattr(linalg_core, "as_matrix", counted)
    traces = aluthge_iterates(_mixed_stack(4), 0.5, 40)
    assert sum(len(trace) for trace in traces) > 40  # many steps ...
    assert len(calls) == 4  # ... one validation per member


def test_iterates_rejects_bad_budget():
    with pytest.raises(ValueError):
        aluthge_iterates(T_MONOMIAL, 0.5, 0)
    for n_max in (2.5, "3"):
        with pytest.raises(ValueError, match=f"^n_max must be an integer, got {n_max!r}$"):
            aluthge_iterates(T_MONOMIAL, 0.5, n_max)
    trace = aluthge_iterates(T_MONOMIAL, 0.5, np.int64(50))
    assert len(trace) == len(aluthge_iterates(T_MONOMIAL, 0.5, 50))


def _old_iterate_loop(stack, lam, n_max):
    """The iterate loop as it was before the norms came off the SVDs:
    ``(iterates, defects)`` per member, norm and defect of every iterate
    from two ``eigvalsh`` of its scaled S*S and S*S - SS*."""

    def norm_and_defect(S):
        peak = np.abs(S).max(axis=(-2, -1), initial=0.0)
        exponent = np.maximum(np.frexp(peak)[1], -1000)
        A = S * np.ldexp(1.0, -exponent)[..., None, None]
        Ah = A.conj().swapaxes(-1, -2)
        gram = Ah @ A
        largest = lambda H: np.abs(np.linalg.eigvalsh(H)).max(axis=-1, initial=0.0)  # noqa: E731
        return np.sqrt(largest(gram)), largest(gram - A @ Ah), exponent

    norm, defect, start = norm_and_defect(stack)
    threshold = aluthge.EARLY_STOP_FACTOR * norm**2
    iterates = [[M] for M in stack]
    defects = [[np.ldexp(d, 2 * e)] for d, e in zip(defect, start)]
    live = np.arange(len(stack))
    at_floor = (defect < threshold) | (norm == 0)
    S = stack
    for _ in range(n_max):
        S = aluthge._transform(linalg_core._svd(S), lam)
        norm, defect, exponent = norm_and_defect(S)
        for i, M, d, e in zip(live, S, defect, exponent):
            iterates[i].append(M)
            defects[i].append(np.ldexp(d, 2 * e))
        going = ~at_floor
        if not going.any():
            break
        at_floor = np.ldexp(defect, 2 * (exponent - start)) < threshold
        if not going.all():
            live, S, at_floor = live[going], S[going], at_floor[going]
            start, threshold = start[going], threshold[going]
    return iterates, defects


def _suite_stacks(seed):
    """The iterates suite's stacks at 100 trials from ``seed``, one per dim."""
    return [
        np.stack([
            sample_matrix(EnsembleSpec(kind=trial.kind, dim=trial.dim, seed=trial.seed, cond_cap=unit.spec["cond_cap"]))
            for trial in unit.group
        ])
        for unit in suites._units(["iterates"], 100, seed)
    ]


ITERATE_CASES = [
    *(pytest.param(stack, 500, id=f"seed{seed}-dim{len(stack[0])}") for seed in (1, 33) for stack in _suite_stacks(seed)),
    pytest.param(np.stack([random_matrix(900 + i, 64) for i in range(2)]), 6, id="n64"),
]


@pytest.mark.parametrize("stack, n_max", ITERATE_CASES)
def test_iterate_core_keeps_the_old_loop_and_reads_norms_off_the_svd(stack, n_max):
    old_iterates, old_defects = _old_iterate_loop(stack, 0.5, n_max)
    traces = aluthge_iterates(stack, 0.5, n_max)
    for trace, iterates, defects in zip(traces, old_iterates, old_defects):
        assert len(trace) == len(iterates) == len(trace.operator_norms) == len(trace.normality_defects)
        assert all(np.array_equal(a, b) for a, b in zip(trace.iterates, iterates))
        assert trace.normality_defects.tolist() == defects
        # each norm is the top singular value of an SVD of its iterate
        exact = np.linalg.norm(np.stack(trace.iterates), 2, axis=(-2, -1))
        assert np.abs(trace.operator_norms - exact).max() <= 1e-14 * exact.max()


def test_iterate_core_without_iterates_equals_the_traces():
    stack = _mixed_stack(5)
    norms, defects, radii, iterates = aluthge._iterate(stack, 0.5, 40)
    assert iterates is None
    for trace, norm, defect, radius in zip(aluthge_iterates(stack, 0.5, 40), norms, defects, radii):
        assert np.array_equal(trace.operator_norms, norm)
        assert np.array_equal(trace.normality_defects, defect)
        assert trace.spectral_radius == radius


def _never(norm, defect, start, radius):
    """A convergence rule that no member meets."""
    return np.zeros(len(norm), dtype=bool)


def _always(norm, defect, start, radius):
    """A convergence rule that every member meets."""
    return np.ones(len(norm), dtype=bool)


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e150])
def test_iterate_core_stops_a_member_once_both_criteria_hold(scale):
    stack = scale * _mixed_stack(4)[:3]  # the normal matrix, the slow draw and x y*
    norms, defects, radii, _ = aluthge._iterate(stack, 0.5, 40)
    # under a rule that never holds every member runs as without one
    rows = aluthge._iterate(stack, 0.5, 40, _never)
    assert all(map(np.array_equal, rows[0], norms)) and all(map(np.array_equal, rows[1], defects))
    assert rows[2] == radii
    # where the rule always holds, every member stops at iterate 0
    rows = aluthge._iterate(stack, 0.5, 40, _always)
    assert [row.tolist() for row in rows[0]] == [[norm[0]] for norm in norms]
    assert [row.tolist() for row in rows[1]] == [[defect[0]] for defect in defects]
    # under the suite's rule each row is a prefix, bit for bit, of the row without it
    rows = aluthge._iterate(stack, 0.5, 40, SUITE_RULE)
    for row, full in zip(rows[0] + rows[1], norms + defects):
        assert 1 <= len(row) <= len(full) and np.array_equal(row, full[: len(row)])


DATA = Path(__file__).parent / "data"
DEFECTIVE = np.array([[0.5, 1, 0], [0, 0.5, 1], [0, 0, 3]])


def _golden_traces():
    """``(file name, trace)`` of each committed golden trace: the defective
    3x3 run to its full budget, an invertible 6x6 that stops early, and
    each member of a (5, 4, 4) stack, whose members stop at different steps."""
    yield "trace_defective3_n200.csv", aluthge_iterates(DEFECTIVE, 0.5, 200)
    yield "trace_invertible6_seed5.csv", aluthge_iterates(sample_matrix(EnsembleSpec("invertible", 6, 5)), 0.5, 500)
    stack = np.stack([sample_matrix(EnsembleSpec("invertible", 4, seed)) for seed in range(40, 45)])
    for seed, trace in zip(range(40, 45), aluthge_iterates(stack, 0.5, 500)):
        yield f"trace_stack_invertible4_seed{seed}.csv", trace


def test_iterate_traces_match_the_golden_files():
    lengths = []
    for name, trace in _golden_traces():
        buf = io.StringIO(newline="")
        write_trace_csv(trace, buf)
        assert buf.getvalue().encode() == (DATA / name).read_bytes(), name
        lengths.append(len(trace))
    assert lengths[0] == 201  # the defective operator runs the whole budget
    assert lengths[1] < 501 and len(set(lengths[2:])) == 5  # early stops


def test_iterates_memory_follows_the_steps_taken():
    # a budget far beyond memory: the normal input stops after one step
    trace = aluthge_iterates(np.eye(2), 0.5, 10**12)
    assert len(trace) == 2
    assert trace.operator_norms.tolist() == [1.0, 1.0]


def test_trace_csv_format(tmp_path):
    trace = aluthge_iterates(T_MONOMIAL, 0.5, 10)
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "step,operator_norm,normality_defect"
    assert len(lines) == len(trace) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(4.0, abs=1e-12)

    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert path.read_text().splitlines()[0] == "step,operator_norm,normality_defect"


def test_conjugator_monomial_oracle():
    conj = conjugator(T_MONOMIAL, 0.5)
    np.testing.assert_allclose(conj.matrix, np.diag([1.0, 2.0]), atol=1e-13)
    assert conj.norm == pytest.approx(2.0, abs=1e-12)
    assert conj.inverse_norm == pytest.approx(1.0, abs=1e-12)
    H = conj.matrix
    similar = H @ T_MONOMIAL @ np.linalg.inv(H)
    np.testing.assert_allclose(similar, [[0, 2], [2, 0]], atol=1e-13)


def test_conjugator_unitary_is_identity():
    theta = 0.7
    T = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    conj = conjugator(T, 0.3)
    np.testing.assert_allclose(conj.matrix, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(aluthge_transform(T, 0.3), T, atol=1e-12)


def test_conjugator_norm_beyond_the_float_range_is_refused():
    # sigma_min^(-0.99) = 1e-320^(-0.99) is about 1e317
    with pytest.raises(NonFiniteEntryError, match="^conjugator norm beyond the float range$"):
        conjugator(1e-320 * np.eye(2), 0.99)
    # at lambda 0.5 it is 1e160, which is representable
    assert conjugator(1e-320 * np.eye(2), 0.5).inverse_norm == pytest.approx(1e160, rel=1e-4)


def test_conjugator_rejects_singular():
    with pytest.raises(NotInvertibleError):
        conjugator(np.diag([0.0, 3.0]), 0.5)


@pytest.mark.parametrize("seed,lam", [(50, 0.1), (51, 0.25), (52, 0.5), (53, 0.75), (54, 0.9)])
def test_conjugator_similarity_bound(seed, lam):
    T = random_matrix(seed, 5)
    conj = conjugator(T, lam)
    H = conj.matrix
    cond = conj.norm * conj.inverse_norm
    err = operator_norm(H @ T @ np.linalg.inv(H) - aluthge_transform(T, lam))
    assert err <= 1e-9 * cond * operator_norm(T)


@pytest.mark.parametrize("seed,n", [(60 + k, n) for k, n in enumerate((2, 4, 8, 16, 32))])
def test_conjugator_similarity_roundoff(seed, n):
    # the roundoff bound of the large-operator benchmark check:
    # ||H T H^-1 - D_lam(T)|| <= 10 n eps ||H|| ||H^-1|| ||T||
    T = random_matrix(seed, n)
    for lam in LAMBDAS:
        conj = conjugator(T, lam)
        H = conj.matrix
        err = operator_norm(H @ T @ np.linalg.inv(H) - aluthge_transform(T, lam))
        bound = 10 * n * np.finfo(float).eps * conj.norm * conj.inverse_norm * operator_norm(T)
        assert err <= bound, (lam, err, bound)


@pytest.mark.parametrize("seed", range(5))
def test_fixed_point_characterization(seed):
    # a defect below the floor forces the transform to fix T
    rng = np.random.default_rng(70 + seed)
    U = np.linalg.qr(random_matrix(70 + seed, 4))[0]
    T = U @ np.diag(rng.standard_normal(4) + 1j * rng.standard_normal(4)) @ U.conj().T
    norm = operator_norm(T)
    assert normality_defect(T) < 1e-12 * norm**2
    for lam in LAMBDAS:
        assert operator_norm(aluthge_transform(T, lam) - T) <= 1e-9 * norm
