"""Core linear algebra: SVD, eigenvalues, JSON wire format, and the
boundary gates."""

import dataclasses
import json

import numpy as np
import pytest

from aluthgelab import (
    EnsembleSpec,
    InvalidSpecError,
    NoConvergenceError,
    NonFiniteEntryError,
    NotInvertibleError,
    SizeMismatchError,
    aluthge_iterates,
    eigenvalues,
    generate_pseudo_orbit,
    hyperbolic_splitting,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    multiset_match,
    normality_defect,
    operator_norm,
    quasi_hyperbolic_definitional,
    run_all,
    run_suite,
    sample_matrix,
    save_matrix,
    shadow_orbit,
    spectrum_report,
    svd,
)
from aluthgelab import linalg_core
from aluthgelab.linalg_core import KAPPA_SVD

EPS = np.finfo(float).eps


def random_matrix(seed, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_svd_identity():
    parts = svd(np.eye(2))
    np.testing.assert_allclose(parts.singular_values, [1.0, 1.0], atol=1e-14)


def test_svd_zero():
    parts = svd(np.zeros((2, 2)))
    np.testing.assert_allclose(parts.singular_values, [0.0, 0.0], atol=0.0)


def test_svd_monomial_oracle():
    # T*T = diag(1, 16), so the singular values are exactly (4, 1)
    parts = svd([[0, 4], [1, 0]])
    np.testing.assert_allclose(parts.singular_values, [4.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("seed,n", [(0, 2), (1, 5), (2, 9), (3, 16)])
def test_svd_reconstruction(seed, n):
    T = random_matrix(seed, n)
    parts = svd(T)
    rebuilt = parts.left @ np.diag(parts.singular_values) @ parts.right.conj().T
    assert operator_norm(rebuilt - T) <= KAPPA_SVD * EPS * operator_norm(T) * n
    s = parts.singular_values
    assert np.all(s[:-1] >= s[1:])
    assert np.all(s >= 0)
    for Q in (parts.left, parts.right):
        assert operator_norm(Q.conj().T @ Q - np.eye(n)) <= 1e-13


def test_svd_rejects_nonfinite():
    with pytest.raises(NonFiniteEntryError):
        svd([[np.nan, 0], [0, 1]])
    with pytest.raises(NonFiniteEntryError):
        svd([[np.inf, 0], [0, 1]])


def test_rejects_nonsquare():
    with pytest.raises(SizeMismatchError):
        svd(np.ones((2, 3)))
    with pytest.raises(SizeMismatchError):
        eigenvalues(np.ones(4))


@pytest.mark.parametrize(
    "bad, error",
    [
        ([[np.nan, 0], [0, 1]], NonFiniteEntryError),
        ([[np.inf, 0], [0, 1]], NonFiniteEntryError),
        (np.ones((2, 3)), SizeMismatchError),
        (np.ones(3), SizeMismatchError),
    ],
)
def test_operator_norm_rejects_invalid_input(bad, error):
    with pytest.raises(error):
        operator_norm(bad)


def test_eigenvalues_oracles():
    assert multiset_match(eigenvalues(np.diag([2.0, 0.5])), [2, 0.5], 1e-12).matched
    # characteristic polynomial x^2 - 4
    assert multiset_match(eigenvalues([[0, 2], [2, 0]]), [2, -2], 1e-12).matched
    # characteristic polynomial x^2 + 1
    assert multiset_match(eigenvalues([[0, -1], [1, 0]]), [1j, -1j], 1e-12).matched


@pytest.mark.parametrize("seed,n", [(10, 3), (11, 6), (12, 12)])
def test_eigenvalues_unitary_conjugation_invariant(seed, n):
    T = random_matrix(seed, n)
    Q = np.linalg.qr(random_matrix(seed + 100, n))[0]
    result = multiset_match(
        eigenvalues(T), eigenvalues(Q @ T @ Q.conj().T), 1e-8 * operator_norm(T)
    )
    assert result.matched


def test_eigenvalues_failure_is_typed(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(NoConvergenceError):
        eigenvalues(np.diag([2.0, 0.5]))


def test_values_only_svd_failure_is_typed(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    for call in (
        lambda: operator_norm(np.diag([2.0, 0.5])),
        lambda: hyperbolic_splitting(np.diag([2.0, 0.5])),
        lambda: sample_matrix(EnsembleSpec(kind="invertible", dim=3, seed=0)),
    ):
        with pytest.raises(NoConvergenceError):
            call()


NONNORMAL = np.array([[2.0, 1.0], [0.0, 0.5]])
SADDLE = np.diag([2.0, 0.5])
SADDLE_ORBIT = generate_pseudo_orbit(SADDLE, 1e-2, 20, 0)


# every public entry point whose own factorization fails: (numpy.linalg
# routine made to fail, the call, the typed error it must raise).  solve
# and inv fail only on a singular matrix; every other routine only when
# its iteration does not converge
LAPACK_FAILURES = {
    "normality_defect-eigvalsh": ("eigvalsh", lambda: normality_defect(NONNORMAL), NoConvergenceError),
    "aluthge_iterates-eigvalsh": ("eigvalsh", lambda: aluthge_iterates(NONNORMAL, 0.5, 3), NoConvergenceError),
    "definitional-svd": ("svd", lambda: quasi_hyperbolic_definitional(NONNORMAL, n_max=3), NoConvergenceError),
    "definitional-eigh": ("eigh", lambda: quasi_hyperbolic_definitional(NONNORMAL, n_max=3), NoConvergenceError),
    # the Cayley solve, then a Newton sign step, of a splitting with both sides
    "splitting-cayley-solve": ("solve", lambda: hyperbolic_splitting(SADDLE), NotInvertibleError),
    "splitting-sign-inv": ("inv", lambda: hyperbolic_splitting(SADDLE), NotInvertibleError),
    # one side only: the solve for the power bounds of T^(-1) P_u
    "splitting-power-solve": ("solve", lambda: hyperbolic_splitting(np.diag([2.0, 3.0])), NotInvertibleError),
    "shadow_orbit-solve": (
        "solve",
        lambda split=hyperbolic_splitting(SADDLE): shadow_orbit(SADDLE, split, SADDLE_ORBIT),
        NotInvertibleError,
    ),
    "unitary-qr": ("qr", lambda: sample_matrix(EnsembleSpec(kind="unitary", dim=3, seed=0)), NoConvergenceError),
    "hyperbolic-inv": (
        "inv",
        lambda: sample_matrix(EnsembleSpec(kind="hyperbolic", dim=3, seed=0, gap=0.2)),
        NotInvertibleError,
    ),
}


@pytest.mark.parametrize("case", LAPACK_FAILURES)
def test_lapack_failures_are_typed(case, monkeypatch):
    routine, call, error = LAPACK_FAILURES[case]

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{routine} failed")

    monkeypatch.setattr(np.linalg, routine, fail)
    with pytest.raises(error, match=f"{routine} failed"):
        call()


def test_matrix_json_round_trip():
    T = np.array([[1 + 2j, 0], [3, -4j]])
    obj = matrix_to_json(T)
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert obj["data"][0] == [1.0, 2.0]
    np.testing.assert_allclose(matrix_from_json(obj), T, atol=0.0)


def test_matrix_json_round_trip_is_bitwise():
    # signed zeros and extreme magnitudes survive the [re, im] pairs
    T = np.array([[complex(-0.0, -0.0), 1e-310 - 2.5e300j], [np.pi, complex(0.1, -0.0)]])
    again = matrix_from_json(json.loads(json.dumps(matrix_to_json(T))))
    assert again.tobytes() == T.tobytes()


def test_matrix_file_round_trip(tmp_path):
    T = np.array([[0, 4], [1, 0]], dtype=complex)
    path = tmp_path / "T.json"
    save_matrix(T, path)
    loaded = load_matrix(path)
    np.testing.assert_allclose(loaded, T, atol=0.0)
    raw = json.loads(path.read_text())
    assert set(raw) == {"rows", "cols", "data"}


def test_matrix_from_json_rejects_malformed():
    with pytest.raises(SizeMismatchError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(SizeMismatchError):
        matrix_from_json({"rows": 1, "cols": 1, "data": [[1, 0, 0]]})
    for bad in ([["a", 0]], [[None, 0]], 5):
        with pytest.raises(SizeMismatchError):
            matrix_from_json({"rows": 1, "cols": 1, "data": bad})
    # rows and cols are read by the integer gate: neither truncated nor overflowed
    with pytest.raises(SizeMismatchError, match="^malformed matrix object: rows must be an integer, got 1.9$"):
        matrix_from_json({"rows": 1.9, "cols": 1.2, "data": [[1, 0]]})
    with pytest.raises(SizeMismatchError, match="^malformed matrix object: rows must be an integer, got inf$"):
        matrix_from_json(json.loads('{"rows": 1e400, "cols": 1, "data": [[1, 0]]}'))
    with pytest.raises(SizeMismatchError, match="^malformed matrix object: cols must be a positive integer, got 0$"):
        matrix_from_json({"rows": 1, "cols": 0, "data": []})


# -- the factorization memo --------------------------------------------


@pytest.fixture
def memo(monkeypatch):
    """An empty factorization memo for one test."""
    monkeypatch.setattr(linalg_core, "_LAST", {})
    return linalg_core._LAST


@pytest.fixture
def calls(monkeypatch):
    """Calls of np.linalg.svd and np.linalg.eigvals, by name, from here on."""
    counts = {"svd": 0, "eigvals": 0}
    for name in counts:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def direct_svd(T):
    """(left, singular values, right) straight from np.linalg.svd."""
    W, s, Vh = np.linalg.svd(T)
    return W, s, Vh.conj().swapaxes(-1, -2)


def fields(parts):
    return parts.left, parts.singular_values, parts.right


def assert_identical(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.shape == b.shape and (a == b).all()


@pytest.mark.parametrize("n", [0, 1, 4, 64])
@pytest.mark.parametrize("stack_first", [False, True])
def test_memo_results_equal_direct_factorizations(n, stack_first, memo, calls):
    T = random_matrix(n + 20, n)
    want = {2: (direct_svd(T), np.linalg.eigvals(T)), 3: (direct_svd(T[None]), np.linalg.eigvals(T[None]))}
    shapes = [T[None], T] if stack_first else [T, T[None]]
    calls.update(svd=0, eigvals=0)
    for A in shapes + shapes:  # a miss, then hits served in both shapes
        want_svd, want_ev = want[A.ndim]
        assert_identical(fields(linalg_core._svd(A)), want_svd)
        assert_identical([linalg_core._eigenvalues(A)], [want_ev])
        if A.ndim == 2:
            assert_identical(fields(svd(A)), want_svd)
            assert_identical([eigenvalues(A)], [want_ev])
    assert calls == {"svd": 1, "eigvals": 1}


def test_memo_arrays_cannot_be_changed_by_a_caller(memo):
    T = random_matrix(30, 4)
    want_svd, want_ev = direct_svd(T), np.linalg.eigvals(T)
    returned = [*fields(svd(T)), eigenvalues(T), *fields(linalg_core._svd(T[None])), linalg_core._eigenvalues(T[None])]
    for array in returned:
        with pytest.raises(ValueError):
            array[...] = 7.0
    assert_identical(fields(svd(T)), want_svd)
    assert_identical([eigenvalues(T)], [want_ev])


def test_memo_keys_signed_zeros_apart(memo):
    positive, negative = np.array([[0.0]], dtype=complex), np.array([[-0.0]], dtype=complex)
    # the left singular vector of [[-0.0]] is -1, of [[0.0]] it is 1
    assert (direct_svd(negative)[0] == -direct_svd(positive)[0]).all()
    for first, second in ((positive, negative), (negative, positive)):
        svd(first), eigenvalues(first)
        assert_identical(fields(svd(second)), direct_svd(second))
        assert eigenvalues(second).tobytes() == np.linalg.eigvals(second).tobytes()


def test_memo_stores_nothing_when_a_factorization_raises(memo, monkeypatch):
    T = random_matrix(31, 3)
    want_svd, want_ev = direct_svd(T), np.linalg.eigvals(T)
    attempts = {"svd": 0, "eigvals": 0}
    for name in attempts:
        real = getattr(np.linalg, name)

        def fails_once(*args, _name=name, _real=real, **kwargs):
            attempts[_name] += 1
            if attempts[_name] == 1:
                raise np.linalg.LinAlgError("did not converge")
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, fails_once)
    with pytest.raises(NoConvergenceError):
        svd(T)
    with pytest.raises(NoConvergenceError):
        eigenvalues(T)
    assert memo == {}
    assert_identical(fields(svd(T)), want_svd)
    assert_identical([eigenvalues(T)], [want_ev])
    assert attempts == {"svd": 2, "eigvals": 2}


def test_memo_is_bypassed_by_stacks_of_more_than_one(memo, calls):
    T = random_matrix(32, 4)
    stack = np.stack([T, random_matrix(33, 4)])
    want_svd, want_ev = direct_svd(stack), np.linalg.eigvals(stack)
    svd(T), eigenvalues(T)
    entries = dict(memo)
    calls.update(svd=0, eigvals=0)
    for _ in range(2):
        assert_identical(fields(linalg_core._svd(stack)), want_svd)
        assert_identical([linalg_core._eigenvalues(stack)], [want_ev])
    assert memo == entries  # the same entries, object for object
    svd(T), eigenvalues(T)  # still served from the memo
    assert calls == {"svd": 2, "eigvals": 2}


def test_memo_keeps_one_entry_per_kind(memo, calls):
    A, B = random_matrix(34, 4), random_matrix(35, 4)
    for M in (A, A, B, A):
        svd(M), eigenvalues(M)
    assert len(memo) == 2
    # A, then B replaces it, then A again: three of each, not two
    assert calls == {"svd": 3, "eigvals": 3}


# the boundary: one integer gate and one record encoder


def test_integer_gate_reads_and_bounds_integers():
    assert linalg_core._integer(np.int64(3), "n", 1) == 3 and type(linalg_core._integer(np.int64(3), "n", 1)) is int
    assert linalg_core._integer(0, "n", 0) == 0
    with pytest.raises(ValueError, match="^n must be a positive integer, got 0$"):
        linalg_core._integer(0, "n", 1)
    with pytest.raises(ValueError, match="^n must be a nonnegative integer, got -1$"):
        linalg_core._integer(np.int64(-1), "n", 0)
    with pytest.raises(ValueError, match="^n must be an integer, got 1.0$"):
        linalg_core._integer(1.0, "n", 0)


_SADDLE = np.diag([2.0, 0.5])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: aluthge_iterates(_SADDLE, 0.5, 0), "n_max must be a positive integer, got 0"),
        (lambda: quasi_hyperbolic_definitional(_SADDLE, n_max=0), "n_max must be a positive integer, got 0"),
        (lambda: generate_pseudo_orbit(_SADDLE, 0.01, -1, 0), "length must be a nonnegative integer, got -1"),
        (lambda: generate_pseudo_orbit(_SADDLE, 0.01, 5, -1), "seed must be a nonnegative integer, got -1"),
        (lambda: run_suite("spectral", 0, 1), "trials must be a positive integer, got 0"),
        (lambda: run_all(3, -1), "seed must be a nonnegative integer, got -1"),
        (lambda: EnsembleSpec(kind="normal", dim=0, seed=0), "dim must be a positive integer, got 0"),
        (lambda: EnsembleSpec(kind="normal", dim=2, seed=-1), "seed must be a nonnegative integer, got -1"),
    ],
    ids=["iterates n_max", "definitional n_max", "orbit length", "orbit seed", "trials", "run seed", "dim", "spec seed"],
)
def test_every_integer_argument_is_bounded_with_one_wording(call, message):
    # EnsembleSpec re-raises the gate's ValueError as InvalidSpecError
    with pytest.raises((ValueError, InvalidSpecError), match=f"^{message}$"):
        call()


@dataclasses.dataclass(frozen=True)
class _Record:
    points: np.ndarray
    pair: tuple
    missing: object
    nested: dict
    count: int


def test_record_encoder_rule():
    record = _Record(np.array([1 + 2j, 3.0]), (1, 2.5), None, {"range": (0.25, 2.25)}, 7)
    obj = linalg_core._record_to_json(record)
    assert obj == {"points": [[1.0, 2.0], [3.0, 0.0]], "pair": [1, 2.5], "missing": None, "nested": {"range": (0.25, 2.25)}, "count": 7}
    # one key per field, in field order; nested values are copies, as asdict makes them
    assert list(obj) == [field.name for field in dataclasses.fields(_Record)]
    assert obj["nested"] is not record.nested
    assert json.loads(json.dumps(obj))["nested"] == {"range": [0.25, 2.25]}


def _pairs(z):
    """A complex vector or matrix as nested ``[re, im]`` pairs."""
    if np.ndim(z) == 1:
        return [[float(v.real), float(v.imag)] for v in z]
    return [_pairs(row) for row in z]


def _payloads():
    """Each record with its payload written field by field."""
    orbit = generate_pseudo_orbit(_SADDLE, 0.01, 5, 3)
    shadow = shadow_orbit(_SADDLE, hyperbolic_splitting(_SADDLE), orbit)
    report = spectrum_report([[0.5, 1.0], [0.0, 2.0]])
    held = quasi_hyperbolic_definitional(_SADDLE)
    failed = quasi_hyperbolic_definitional(np.eye(2))
    suite = run_suite("spectral", 6, 1)
    yield orbit, {"points": _pairs(orbit.points), "delta": orbit.delta, "bound": orbit.bound}
    yield shadow, {
        "shadow_points": _pairs(shadow.shadow_points),
        "epsilon": shadow.epsilon,
        "orbit_residual": shadow.orbit_residual,
        "constant_bound": shadow.constant_bound,
    }
    yield report, {
        "eigenvalues": _pairs(report.eigenvalues),
        "spectral_radius": report.spectral_radius,
        "circle_distance": report.circle_distance,
        "hyperbolic": report.hyperbolic,
    }
    for verdict, witness in ((held, None), (failed, _pairs(failed.witness))):
        yield verdict, {
            "verdict": verdict.verdict,
            "method": verdict.method,
            "exponent": verdict.exponent,
            "witness": witness,
            "margin": verdict.margin,
            "budget_exhausted": verdict.budget_exhausted,
        }
    for weights in ((1, 2.0), [np.float64(0.5), 2], np.array([0.5, 2.0])):
        spec = EnsembleSpec(kind="shift", dim=3, seed=1, weights=weights)
        yield spec, {"kind": "shift", "dim": 3, "seed": 1, "gap": None, "cond_cap": 1e4, "weights": list(weights)}
    yield suite, {
        "suite": "spectral",
        "spec": suite.spec,
        "trials": 6,
        "passes": suite.passes,
        "failures": suite.failures,
        "tolerances": suite.tolerances,
        "wall_time": suite.wall_time,
        "rng": suite.rng,
    }


def test_every_record_payload_is_its_field_list():
    payloads = list(_payloads())
    assert len(payloads) == 9
    assert payloads[3][1]["witness"] is None and payloads[4][1]["verdict"] is False
    for record, expected in payloads:
        obj = record.to_json()
        assert obj == expected, type(record).__name__
        assert list(obj) == list(expected)
        json.dumps(obj)  # serializable as it is
    # ndarray weights are written as floats, not as [re, im] pairs
    assert payloads[7][0].to_json()["weights"] == [0.5, 2.0]
