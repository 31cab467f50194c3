"""Hyperbolic splittings, pseudo-orbits, constructive shadowing, transfer."""

import dataclasses
import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from aluthgelab import (
    EnsembleSpec,
    InvalidDeltaError,
    LengthMismatchError,
    NoConvergenceError,
    NonFiniteEntryError,
    NotHyperbolicError,
    NotInvertibleError,
    PseudoOrbit,
    ShadowResult,
    SizeMismatchError,
    UnstableOverflowError,
    aluthge_transform,
    generate_pseudo_orbit,
    hyperbolic_splitting,
    operator_norm,
    orbit_defects,
    sample_matrix,
    shadow_orbit,
    transfer_shadowing,
    verify_shadowing,
)
from aluthgelab import shadowing
from aluthgelab.linalg_core import _complex_from_json
from aluthgelab.shadowing import MEASUREMENT_HORIZON

SADDLE = np.diag([2.0, 0.5])
ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])


def hyperbolic_sample(seed, dim=4, gap=0.2):
    return sample_matrix(
        EnsembleSpec(kind="hyperbolic", dim=dim, seed=seed, gap=gap, cond_cap=1e4)
    )


def constant_orbit(value, delta, length, dim=1):
    points = np.full((length + 1, dim), value, dtype=complex)
    return PseudoOrbit(points=points, delta=delta, bound=abs(value))


def exact_orbit(T, x0, length):
    """The true orbit x_k = T^k x0, k = 0..length: a 0-pseudo-orbit."""
    points = [np.asarray(x0, dtype=complex)]
    for _ in range(length):
        points.append(T @ points[-1])
    points = np.array(points)
    return PseudoOrbit(points=points, delta=0.0, bound=float(np.linalg.norm(points, axis=1).max()))


def test_splitting_saddle_oracle():
    split = hyperbolic_splitting(SADDLE)
    np.testing.assert_allclose(split.unstable_projector, np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(split.stable_projector, np.diag([0.0, 1.0]), atol=1e-12)
    assert split.stable_rate == pytest.approx(0.5, abs=1e-12)
    assert split.unstable_rate == pytest.approx(2.0, abs=1e-12)
    assert split.stable_bound == pytest.approx(1.0, abs=1e-9)
    assert split.unstable_bound == pytest.approx(1.0, abs=1e-9)
    # C = Ks/(1 - rs) + Ku ru/(ru - 1) = 2 + 2
    assert split.constant_bound == pytest.approx(4.0, abs=1e-8)


# a large unstable eigenvalue does not pull 0.5 onto the unit circle
@pytest.mark.parametrize("large", [6e7, 1e9, 1e15])
def test_splitting_saddle_with_a_large_unstable_eigenvalue(large):
    T = np.diag([large, 0.5])
    split = hyperbolic_splitting(T)
    np.testing.assert_array_equal(split.stable_projector, np.diag([0.0, 1.0]))
    assert (split.stable_rate, split.unstable_rate) == (0.5, large)
    # C = Ks/(1 - rs) + Ku ru/(ru - 1), about 2 + 1
    assert split.constant_bound == pytest.approx(2.0 + large / (large - 1.0), rel=1e-12)
    delta = 1e-2
    orbit = generate_pseudo_orbit(T, delta=delta, length=200, seed=3)
    result = shadow_orbit(T, split, orbit)
    assert verify_shadowing(T, orbit, result, split.constant_bound * delta + 1e-9)


def test_splitting_fully_contracting():
    split = hyperbolic_splitting(np.diag([0.5, 1.0 / 3.0]))
    np.testing.assert_allclose(split.stable_projector, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(split.unstable_projector, np.zeros((2, 2)), atol=1e-12)
    assert split.stable_rate == pytest.approx(0.5, abs=1e-12)
    # empty unstable side contributes nothing to the constant
    assert split.constant_bound == pytest.approx(2.0, abs=1e-8)


def test_splitting_rejects_spectrum_on_circle():
    with pytest.raises(NotHyperbolicError):
        hyperbolic_splitting(ROTATION)


# within roundoff of the circle at the scale the largest eigenvalue sets
@pytest.mark.parametrize("near", [1.0 + 1e-12, 1.0 + 1e-7])
def test_splitting_rejects_spectrum_near_circle_beside_a_large_eigenvalue(near):
    with pytest.raises(NotHyperbolicError, match="of the unit circle"):
        hyperbolic_splitting(np.diag([near, 1e9]))


def test_splitting_rejects_singular():
    with pytest.raises(NotHyperbolicError):
        hyperbolic_splitting(np.diag([0.0, 3.0]))


def test_splitting_near_defective_is_all_unstable():
    # eigenvalues 2 and 2 + 1e-7 with almost parallel eigenvectors: no
    # eigenbasis is needed, the whole space is unstable
    T = np.array([[2.0, 100.0], [0.0, 2.0 + 1e-7]])
    split = hyperbolic_splitting(T)
    np.testing.assert_array_equal(split.unstable_projector, np.eye(2))
    np.testing.assert_array_equal(split.stable_projector, np.zeros((2, 2)))
    assert split.unstable_rate == pytest.approx(2.0, rel=1e-12)


def test_splitting_triangular_oracle():
    # for [[a, b], [0, d]] with |a| < 1 < |d| the stable projector is
    # [[1, b/(a - d)], [0, 0]]
    a, b, d = 0.5, 100.0, 2.0
    split = hyperbolic_splitting(np.array([[a, b], [0.0, d]]))
    np.testing.assert_allclose(split.stable_projector, [[1.0, b / (a - d)], [0.0, 0.0]], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(split.unstable_projector, [[0.0, -b / (a - d)], [0.0, 1.0]], rtol=1e-12, atol=1e-12)
    assert (split.stable_rate, split.unstable_rate) == (a, d)


DEFECTIVE = {
    "jordan_unstable": [[2.0, 1.0], [0.0, 2.0]],
    "jordan_stable": [[0.5, 1.0], [0.0, 0.5]],
    "mixed": [[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.0, 0.0, 3.0]],
}


@pytest.mark.parametrize("name", DEFECTIVE)
def test_splitting_defective_operators_split_and_shadow(name):
    T = np.array(DEFECTIVE[name])
    split = hyperbolic_splitting(T)
    Ps = split.stable_projector
    size = 1.0 + operator_norm(Ps)
    assert operator_norm(Ps @ Ps - Ps) <= 1e-13 * size**2
    assert operator_norm(T @ Ps - Ps @ T) <= 1e-13 * size * operator_norm(T)
    stable_count = int(np.count_nonzero(np.abs(np.diag(T)) < 1.0))
    assert np.trace(Ps) == pytest.approx(stable_count, abs=1e-12)
    delta = 1e-2
    orbit = generate_pseudo_orbit(T, delta=delta, length=200, seed=3)
    result = shadow_orbit(T, split, orbit)
    assert verify_shadowing(T, orbit, result, split.constant_bound * delta + 1e-9)


def test_splitting_sign_iteration_cap_is_typed(monkeypatch):
    # one Newton step cannot reach the sign of the Cayley transform
    monkeypatch.setattr(shadowing, "_SIGN_NEWTON_STEPS", 1)
    with pytest.raises(NoConvergenceError, match="sign iteration"):
        hyperbolic_splitting(np.array(DEFECTIVE["mixed"]))


@pytest.mark.parametrize("scale", [2.0**-1030, 2.0**-1023, 2.0**-660, 2.0**660])
def test_splitting_extreme_scales(scale):
    # a one-sided diagonal at a power-of-two scale: the normalized
    # propagators have norm 1, so K = 1 and C = 1 exactly; at 2^-1030 the
    # entries are subnormal and 1/rho_s overflows, and at 2^-1023 an
    # unstable recursion would divide by them
    T = scale * (np.diag([1.0, 0.5]) if scale < 1.0 else np.diag([1.0, 2.0]))
    split = hyperbolic_splitting(T)
    assert split.stable_bound + split.unstable_bound == 1.0
    assert split.constant_bound == 1.0
    delta = 1e-2
    orbit = generate_pseudo_orbit(T, delta=delta, length=200, seed=4)
    result = shadow_orbit(T, split, orbit)
    assert verify_shadowing(T, orbit, result, split.constant_bound * delta + 1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_splitting_projector_algebra(seed):
    T = hyperbolic_sample(seed)
    split = hyperbolic_splitting(T)
    Ps, Pu = split.stable_projector, split.unstable_projector
    slack = 1e-9 * operator_norm(Ps)
    assert operator_norm(Ps + Pu - np.eye(4)) <= slack
    assert operator_norm(Ps @ Ps - Ps) <= slack
    assert operator_norm(Pu @ Pu - Pu) <= slack
    assert operator_norm(Ps @ Pu) <= slack
    assert operator_norm(T @ Ps - Ps @ T) <= slack * operator_norm(T)
    assert split.stable_rate < 1.0 < split.unstable_rate


def mixed_stack(dim, count, seed):
    """Stable-only, unstable-only, two-sided and defective operators of
    one dim, in turn."""
    rng = np.random.default_rng([seed, dim])
    members = []
    for i in range(count):
        if i % 4 == 3:  # one Jordan block per side
            moduli = np.where(np.arange(dim) < dim // 2, 0.6, 1.7)
            members.append(np.diag(moduli) + np.diag(np.ones(dim - 1), 1))
            continue
        stable = [np.ones(dim, bool), np.zeros(dim, bool), np.arange(dim) % 2 == 0][i % 4]
        moduli = np.where(stable, rng.uniform(0.3, 0.8, dim), rng.uniform(1.25, 3.0, dim))
        ev = moduli * np.exp(2j * np.pi * rng.random(dim))
        V = np.eye(dim) + 0.3 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        members.append(V @ np.diag(ev) @ np.linalg.inv(V))
    return np.stack(members)


def assert_same_splitting(a, b):
    np.testing.assert_array_equal(a.stable_projector, b.stable_projector)
    np.testing.assert_array_equal(a.unstable_projector, b.unstable_projector)
    assert (a.stable_rate, a.unstable_rate, a.stable_bound, a.unstable_bound) == (
        b.stable_rate,
        b.unstable_rate,
        b.stable_bound,
        b.unstable_bound,
    )


@pytest.mark.parametrize("dim", range(1, 9))
def test_splitting_stack_equals_one_call_per_member(dim):
    stack = mixed_stack(dim, 9, seed=0)
    splittings = hyperbolic_splitting(stack)
    assert isinstance(splittings, list) and len(splittings) == len(stack)
    for T, split in zip(stack, splittings):
        assert_same_splitting(split, hyperbolic_splitting(T))


def test_splitting_stack_members_take_their_own_newton_steps(monkeypatch):
    # the defective 3x3 needs more sign steps than the triangular 3x3: in
    # one stack each must stop where it stops alone
    steps = []
    real_inv = np.linalg.inv

    def counted(X):
        steps.append(len(X))
        return real_inv(X)

    triangular = np.array([[0.5, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    stack = np.stack([np.array(DEFECTIVE["mixed"]), triangular])
    monkeypatch.setattr(np.linalg, "inv", counted)
    alone = []
    for T in stack:
        steps.clear()
        hyperbolic_splitting(T)
        alone.append(len(steps))
    steps.clear()
    splittings = hyperbolic_splitting(stack)
    assert alone[0] != alone[1]
    assert steps == [2] * min(alone) + [1] * (max(alone) - min(alone))
    for T, split in zip(stack, splittings):
        assert_same_splitting(split, hyperbolic_splitting(T))


@pytest.mark.parametrize(
    "refused, error",
    [(np.diag([0.0, 3.0]), NotHyperbolicError), (ROTATION, NotHyperbolicError)],
    ids=["singular", "on_circle"],
)
def test_splitting_stack_with_a_refused_member_raises(refused, error):
    with pytest.raises(error):
        hyperbolic_splitting(np.stack([SADDLE, refused, np.diag([0.5, 0.25])]))


def test_splitting_stack_sign_cap_is_typed(monkeypatch):
    monkeypatch.setattr(shadowing, "_SIGN_NEWTON_STEPS", 1)
    with pytest.raises(NoConvergenceError, match="sign iteration"):
        hyperbolic_splitting(np.stack([SADDLE, np.array(DEFECTIVE["mixed"])[:2, :2]]))


@pytest.mark.parametrize("dim", range(1, 9))
def test_shadow_stack_equals_shadow_orbit(dim):
    # the stacked core behind the suites against the public single call
    stack = mixed_stack(dim, 8, seed=1)
    splittings = hyperbolic_splitting(stack)
    orbits = [generate_pseudo_orbit(T, delta=1e-2, length=200, seed=i) for i, T in enumerate(stack)]
    x = np.stack([orbit.points for orbit in orbits])
    y, epsilon, residual = shadowing._shadow(stack.astype(complex), splittings, x)
    for i, (T, split, orbit) in enumerate(zip(stack, splittings, orbits)):
        alone = shadow_orbit(T, split, orbit)
        np.testing.assert_array_equal(y[i], alone.shadow_points)
        assert (epsilon[i], residual[i]) == (alone.epsilon, alone.orbit_residual)


def two_scan_corrected(T, splittings, x):
    """Shadow points from one prefix scan per side, each behind a guard
    that skips a side no member has, the unstable one on the reversed
    view: the reference the one stacked scan of shadowing._corrected must
    reproduce bit for bit, overflow messages included."""
    Ps = np.stack([split.stable_projector for split in splittings])
    Pu = np.stack([split.unstable_projector for split in splittings])
    s = np.zeros(x.shape, dtype=complex)
    u = np.zeros(x.shape, dtype=complex)
    has_s, has_u = Ps.any(), Pu.any(axis=(-2, -1))
    with np.errstate(over="ignore", invalid="ignore"):
        e = shadowing._steps(T, x)
        if has_s:
            s[:, 1:] = e @ Ps.swapaxes(-1, -2)
        if has_u.any():
            backward = np.zeros(T.shape, dtype=complex)
            backward[has_u] = np.linalg.solve(T[has_u], Pu[has_u])
            u[:, :-1] = e @ backward.swapaxes(-1, -2)
        if has_s:
            shadowing._scan(s, T @ Ps)
        if has_u.any():
            shadowing._scan(u[:, ::-1], backward)
        stable = np.flatnonzero((~(np.linalg.norm(s, axis=-1) <= shadowing.BACKSUB_OVERFLOW_LIMIT)).any(axis=0))
        unstable = np.flatnonzero((~(np.linalg.norm(u, axis=-1) <= shadowing.BACKSUB_OVERFLOW_LIMIT)).any(axis=0))
    if unstable.size:
        raise UnstableOverflowError(f"unstable back-substitution overflow at step {unstable[-1]}")
    if stable.size:
        raise UnstableOverflowError(f"stable correction overflow at step {stable[0]}")
    return x - s + u


def scan_inputs(stack, length):
    splittings = hyperbolic_splitting(stack)
    x = np.stack([generate_pseudo_orbit(T, delta=1e-2, length=length, seed=i).points for i, T in enumerate(stack)])
    return stack.astype(complex), splittings, x


# every member kind of mixed_stack, then stacks where no member has an
# unstable side, or no member a stable one
SCAN_STACKS = {"mixed": slice(None), "stable only": slice(0, None, 4), "unstable only": slice(1, None, 4)}


@pytest.mark.parametrize("length", [0, 1, 200, 5000])
@pytest.mark.parametrize("dim", [2, 5])
@pytest.mark.parametrize("members", SCAN_STACKS)
def test_one_stacked_scan_equals_one_scan_per_side(members, dim, length, monkeypatch):
    T, splittings, x = scan_inputs(mixed_stack(dim, 8, seed=dim)[SCAN_STACKS[members]], length)
    has_u = np.array([split.unstable_projector.any() for split in splittings])
    calls = {"_scan": 0, "solve": []}

    def scan(z, A, real=shadowing._scan):
        calls["_scan"] += 1
        real(z, A)

    def lapack(routine, *args, real=shadowing._lapack):
        if routine == "solve":
            calls["solve"].append(args[0].copy())
        return real(routine, *args)

    monkeypatch.setattr(shadowing, "_scan", scan)
    monkeypatch.setattr(shadowing, "_lapack", lapack)
    y = shadowing._corrected(T, splittings, x)
    monkeypatch.undo()
    expected = two_scan_corrected(T, splittings, x)
    assert (y.shape, y.dtype) == (expected.shape, expected.dtype)
    assert y.tobytes() == expected.tobytes()
    assert calls["_scan"] == 1
    # T^(-1) P_u is solved for exactly the members with an unstable side
    solved = np.concatenate(calls["solve"]) if calls["solve"] else T[:0]
    assert solved.tobytes() == T[has_u].tobytes()


def overflow_message(function, *args):
    with pytest.raises(UnstableOverflowError) as info:
        function(*args)
    return str(info.value)


@pytest.mark.parametrize(
    "side, operators, splitting_of",
    [
        # tenfold and twentyfold growth along the axis the foreign
        # splitting sums backward: the two back-substitutions cross the
        # limit at different steps, and the stack names the last of them
        ("unstable", [np.diag([0.1, 0.5]), np.diag([0.05, 0.5]), SADDLE], SADDLE),
        # and forward: the stack names the first stable step
        ("stable", [np.diag([10.0, 0.5]), np.diag([20.0, 0.5]), SADDLE[::-1, ::-1]], np.diag([0.5, 2.0])),
    ],
)
def test_one_stacked_scan_names_the_overflow_steps_of_one_scan_per_side(side, operators, splitting_of):
    split = hyperbolic_splitting(splitting_of)
    T, _, x = scan_inputs(np.stack(operators), 200)
    message = overflow_message(shadowing._corrected, T, [split] * len(T), x)
    assert message == overflow_message(two_scan_corrected, T, [split] * len(T), x)
    # each overflowing member alone, and the one whose step the stack names
    alone = {overflow_message(shadowing._corrected, T[i : i + 1], [split], x[i : i + 1]) for i in range(2)}
    assert len(alone) == 2 and all(text.startswith(side) for text in alone)
    step = lambda text: int(text.rsplit(" ", 1)[1])
    assert message == (max if side == "unstable" else min)(alone, key=step)


def test_one_stacked_scan_keeps_an_empty_unstable_side_out_of_overflowing_defects():
    # T x_k overflows for these points, so every defect is infinite; the
    # operator has no unstable side, so only its stable correction may
    # overflow, at the first step it is nonzero
    T = np.array([[[0.9, 50.0], [0.0, 0.8]]], dtype=complex)
    splittings = hyperbolic_splitting(T)
    x = np.full((1, 6, 2), 1e307, dtype=complex)
    message = overflow_message(shadowing._corrected, T, splittings, x)
    assert message == overflow_message(two_scan_corrected, T, splittings, x)
    assert message == "stable correction overflow at step 1"


def per_power_bounds(T, split):
    """K_s and K_u from one operator_norm per power of the normalized
    propagators T P_s / rho_s and rho_u T^(-1) P_u: the reference loop the
    splitting's batched measurement must reproduce bit for bit."""
    Ks = Ku = 0.0
    Ps, Pu = split.stable_projector, split.unstable_projector
    if split.stable_rate > 0.0:
        propagator, power = T @ Ps / split.stable_rate, Ps.copy()
        Ks = operator_norm(power)
        for _ in range(MEASUREMENT_HORIZON):
            power = propagator @ power
            Ks = max(Ks, operator_norm(power))
    if split.unstable_rate < np.inf:
        propagator, power = split.unstable_rate * np.linalg.solve(T, Pu), Pu.copy()
        Ku = operator_norm(power)
        for _ in range(MEASUREMENT_HORIZON):
            power = propagator @ power
            Ku = max(Ku, operator_norm(power))
    return Ks, Ku


SPLITTING_SIDES = [
    (side, dim)
    for side in ("stable", "unstable", "mixed")
    for dim in range(1, 9)
    if not (side == "mixed" and dim == 1)
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("side, dim", SPLITTING_SIDES)
def test_splitting_constants_match_per_power_loop(side, dim, seed):
    rng = np.random.default_rng([seed, dim])
    stable = {"stable": True, "unstable": False, "mixed": np.arange(dim) % 2 == 0}[side]
    moduli = np.where(stable, rng.uniform(0.3, 0.8, dim), rng.uniform(1.25, 3.0, dim))
    ev = moduli * np.exp(2j * np.pi * rng.random(dim))
    V = np.eye(dim) + 0.3 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    T = V @ np.diag(ev) @ np.linalg.inv(V)
    split = hyperbolic_splitting(T)
    Ks, Ku = per_power_bounds(T, split)
    assert (split.stable_bound, split.unstable_bound) == (Ks, Ku)
    assert (Ks > 0.0, Ku > 0.0) == (side != "unstable", side != "stable")
    C = 0.0
    if Ks:
        C += Ks / (1.0 - split.stable_rate)
    if Ku:
        C += Ku * split.unstable_rate / (split.unstable_rate - 1.0)
    assert split.constant_bound == C


def every_power_svd(powers):
    """The largest 2-norm of each row of a power stack from one SVD of
    every power: what the pruned measurement must reproduce bit for bit."""
    return np.linalg.svd(powers, compute_uv=False)[..., 0].max(axis=-1)


PRUNING_FIXTURES = {
    "rank_one_sides": SADDLE,
    "diag": np.diag([0.3, 2.5, 0.7, 1.6]),
    "jordan_near_circle": np.array([[0.99, 1.0], [0.0, 0.99]]),
    "strong_shear": np.array([[0.9, 50.0], [0.0, 0.8]]),
    "subnormal": 2.0**-1030 * np.array(DEFECTIVE["mixed"]),
    "huge": 1e200 * np.array(DEFECTIVE["mixed"]),
    "gap_0.2": np.stack([hyperbolic_sample(seed, dim=5, gap=0.2) for seed in range(12)]),
    "gap_0.05": np.stack([hyperbolic_sample(seed, dim=7, gap=0.05) for seed in range(12)]),
}


@pytest.mark.parametrize("name", PRUNING_FIXTURES)
def test_splitting_constants_equal_every_power_svd(name, monkeypatch):
    T = PRUNING_FIXTURES[name]
    pruned = hyperbolic_splitting(T)
    monkeypatch.setattr(shadowing, "_largest_norms", every_power_svd)
    reference = hyperbolic_splitting(T)
    if isinstance(pruned, list):
        pairs = list(zip(pruned, reference))
    else:
        pairs = [(pruned, reference)]
    for a, b in pairs:
        assert (a.stable_bound, a.unstable_bound) == (b.stable_bound, b.unstable_bound)
        assert a.constant_bound == b.constant_bound


def test_splitting_factors_only_the_powers_that_can_hold_the_maximum(monkeypatch):
    factored = []
    real_svd = np.linalg.svd

    def counted(A, *args, **kwargs):
        if np.ndim(A) == 3:  # the power norms; the singular-value test is 3-d too
            factored.append(len(A))
        return real_svd(A, *args, **kwargs)

    T = np.stack([hyperbolic_sample(seed, dim=5, gap=0.2) for seed in range(12)])
    monkeypatch.setattr(np.linalg, "svd", counted)
    hyperbolic_splitting(T)
    sides = sum(len(np.unique(np.abs(np.linalg.eigvals(M)) < 1)) for M in T)
    # the singular-value test factors the 12 operators; the power norms
    # factor fewer than every power of every side
    assert factored[0] == len(T)
    assert 0 < factored[1] < sides * (MEASUREMENT_HORIZON + 1)


@pytest.mark.parametrize("seed", range(4))
def test_splitting_power_norm_bounds(seed):
    T = hyperbolic_sample(seed, dim=3)
    split = hyperbolic_splitting(T)
    Ps, Pu = split.stable_projector, split.unstable_projector
    Tinv = np.linalg.inv(T)
    fwd, bwd = Ps.copy(), Pu.copy()
    for m in range(1, 30):
        fwd = T @ fwd
        bwd = Tinv @ bwd
        assert operator_norm(fwd) <= split.stable_bound * split.stable_rate**m * (1 + 1e-9)
        assert operator_norm(bwd) <= split.unstable_bound * split.unstable_rate**-m * (1 + 1e-9)


def test_ball_orbit_radius_and_defects():
    orbit = generate_pseudo_orbit(SADDLE, delta=0.03, length=50, seed=5)
    # ||T|| = 2, so every point sits in the ball of radius 0.01
    assert orbit.bound == pytest.approx(0.01, abs=1e-15)
    norms = np.linalg.norm(orbit.points, axis=1)
    assert np.all(norms <= 0.01 + 1e-15)
    defects = orbit_defects(SADDLE, orbit)
    assert np.all(defects <= 0.03 + 1e-15)
    assert orbit.delta == 0.03


def test_orbit_rejects_negative_delta():
    with pytest.raises(InvalidDeltaError):
        generate_pseudo_orbit(SADDLE, delta=-0.01, length=10, seed=0)


@pytest.mark.parametrize("delta", [np.nan, np.inf])
def test_orbit_rejects_non_finite_delta(delta):
    with pytest.raises(InvalidDeltaError):
        generate_pseudo_orbit(SADDLE, delta=delta, length=10, seed=0)


@pytest.mark.parametrize(
    "delta",
    [
        None, "0.1", 0.1j, [0.1], np.array([0.1]), np.complex128(0.1), 10**400, b"0.1",
        # finite values beyond the float range
        Decimal("1e400"), -Decimal("1e400"), np.longdouble("1e4000"), -np.longdouble("1e4000"),
    ],
    ids=[
        "none", "string", "complex", "list", "array", "numpy complex", "huge", "bytes",
        "huge decimal", "-huge decimal", "huge longdouble", "-huge longdouble",
    ],
)
def test_orbit_rejects_a_delta_that_is_not_a_number(delta):
    with pytest.raises(InvalidDeltaError, match="^delta must be a finite nonnegative number"):
        generate_pseudo_orbit(SADDLE, delta=delta, length=10, seed=0)


@pytest.mark.parametrize("delta", [np.float32(0.25), np.array(0.25), 1, 0, Fraction(1, 4)])
def test_orbit_takes_every_real_nonnegative_delta(delta):
    orbit = generate_pseudo_orbit(SADDLE, delta=delta, length=10, seed=0)
    reference = generate_pseudo_orbit(SADDLE, delta=float(delta), length=10, seed=0)
    np.testing.assert_array_equal(orbit.points, reference.points)
    assert (orbit.delta, orbit.bound) == (reference.delta, reference.bound)
    assert type(orbit.delta) is float


def test_orbit_rejects_bad_length_and_mode():
    with pytest.raises(ValueError, match="^length must be a nonnegative integer, got -1$"):
        generate_pseudo_orbit(SADDLE, delta=0.01, length=-1, seed=0)
    with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got -1$"):
        generate_pseudo_orbit(SADDLE, delta=0.01, length=10, seed=-1)
    with pytest.raises(ValueError, match="^length must be an integer, got 2.5$"):
        generate_pseudo_orbit(SADDLE, delta=0.01, length=2.5, seed=0)
    with pytest.raises(ValueError, match="^seed must be an integer, got 1.5$"):
        generate_pseudo_orbit(SADDLE, delta=0.01, length=10, seed=1.5)
    # ball mode is the only mode: there is no knob to select another
    with pytest.raises(TypeError):
        generate_pseudo_orbit(SADDLE, delta=0.01, length=10, seed=0, mode="ball")


def test_orbit_deterministic_and_scale_free():
    a = generate_pseudo_orbit(SADDLE, delta=0.01, length=25, seed=9)
    b = generate_pseudo_orbit(SADDLE, delta=0.01, length=25, seed=9)
    np.testing.assert_array_equal(a.points, b.points)
    halved = generate_pseudo_orbit(SADDLE, delta=0.005, length=25, seed=9)
    np.testing.assert_allclose(halved.points, 0.5 * a.points, atol=1e-18)


def test_orbit_of_zero_dim_operator_is_refused():
    with pytest.raises(SizeMismatchError, match=r"^expected a nonempty square matrix, got shape \(0, 0\)$"):
        generate_pseudo_orbit(np.zeros((0, 0)), 0.1, 3, 1)


def test_orbit_json_round_trip():
    orbit = generate_pseudo_orbit(SADDLE, delta=0.01, length=5, seed=1)
    again = json.loads(json.dumps(orbit.to_json()))
    np.testing.assert_allclose(_complex_from_json(again["points"], ndim=2), orbit.points, atol=0.0)
    assert again["delta"] == orbit.delta
    assert again["bound"] == orbit.bound


def test_shadow_scalar_stable_geometric_series():
    # constant pseudo-orbit at 0.02 for a = 1/2 has defect 0.01 everywhere;
    # the shadow is the true orbit decaying from 0.02, and the gap tends to
    # delta/(1 - a) = 0.02
    a = 0.5
    T = np.array([[a]])
    orbit = constant_orbit(0.02, delta=0.01, length=80)
    split = hyperbolic_splitting(T)
    result = shadow_orbit(T, split, orbit)
    assert result.epsilon == pytest.approx(0.01 / (1 - a), abs=1e-12)
    assert result.orbit_residual <= 1e-15
    # a true orbit of the scalar map: each step multiplies by a
    pts = result.shadow_points[:, 0]
    np.testing.assert_allclose(pts[1:], a * pts[:-1], atol=1e-15)


def test_shadow_scalar_unstable_geometric_series():
    # constant pseudo-orbit at c for a = 2 has defect c; epsilon = c/(a-1)
    c = 0.01
    T = np.array([[2.0]])
    orbit = constant_orbit(c, delta=c, length=80)
    split = hyperbolic_splitting(T)
    result = shadow_orbit(T, split, orbit)
    assert result.epsilon == pytest.approx(c / (2.0 - 1.0), abs=1e-12)
    assert result.orbit_residual <= 1e-14


def test_shadow_exact_orbit_unchanged():
    T = np.diag([0.5, 1.0 / 3.0])
    orbit = exact_orbit(T, [0.6 - 0.2j, -0.3 + 0.7j], 20)
    result = shadow_orbit(T, hyperbolic_splitting(T), orbit)
    assert result.epsilon <= 1e-14
    np.testing.assert_allclose(result.shadow_points, orbit.points, atol=1e-14)


@pytest.mark.parametrize("seed", range(8))
def test_shadow_hyperbolic_samples_within_constant(seed):
    T = hyperbolic_sample(seed, dim=3)
    delta = 1e-2
    orbit = generate_pseudo_orbit(T, delta=delta, length=200, seed=seed + 100)
    split = hyperbolic_splitting(T)
    result = shadow_orbit(T, split, orbit)
    assert result.constant_bound == pytest.approx(split.constant_bound)
    assert result.epsilon <= result.constant_bound * delta + 1e-9
    assert result.orbit_residual <= 1e-9 * (1 + operator_norm(T)) * orbit.bound
    assert verify_shadowing(T, orbit, result, result.constant_bound * delta + 1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_shadow_linear_response(seed):
    # ball draws are scale-free, so halving delta halves epsilon exactly
    T = hyperbolic_sample(seed, dim=4)
    split = hyperbolic_splitting(T)
    eps = {}
    for delta in (1e-2, 5e-3):
        orbit = generate_pseudo_orbit(T, delta=delta, length=150, seed=seed)
        eps[delta] = shadow_orbit(T, split, orbit).epsilon
    assert eps[1e-2] / eps[5e-3] == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("length, step", [(200, 47), (1000, 847), (5000, 4847)])
def test_shadow_with_foreign_splitting_overflows(length, step):
    # the splitting of diag(2, 0.5) inverts the first axis, where
    # T = diag(0.1, 0.5) contracts: the back-substitution grows tenfold a
    # step and first passes the limit 153 steps before the end; at 5000
    # steps the doubled propagator powers themselves overflow to inf
    split = hyperbolic_splitting(SADDLE)
    T = np.diag([0.1, 0.5])
    orbit = generate_pseudo_orbit(T, delta=1e-2, length=length, seed=0)
    with pytest.raises(UnstableOverflowError, match=f"overflow at step {step}$"):
        shadow_orbit(T, split, orbit)


def test_shadow_with_foreign_splitting_overflows_on_the_stable_side():
    # the splitting of diag(0.5, 2) sums the first axis forward as stable,
    # where T = diag(10, 0.5) grows tenfold a step: the stable correction
    # first passes the limit at step 154, as a per-step recursion does
    split = hyperbolic_splitting(np.diag([0.5, 2.0]))
    T = np.diag([10.0, 0.5])
    orbit = generate_pseudo_orbit(T, delta=1e-2, length=200, seed=0)
    with pytest.raises(UnstableOverflowError, match="stable correction overflow at step 154$"):
        shadow_orbit(T, split, orbit)


def test_shadow_non_finite_correction_is_an_overflow():
    # T^(-1) P_u = diag((1 + 1j) 1e300, 0) for this foreign splitting: the
    # last step's complex product is inf - inf, a NaN, not a large number
    split = hyperbolic_splitting(SADDLE)
    T = np.diag([0.5e-300 * (1 - 1j), 0.5])
    orbit = generate_pseudo_orbit(T, delta=1e12, length=10, seed=0)
    with pytest.raises(UnstableOverflowError, match="overflow at step 9$"):
        shadow_orbit(T, split, orbit)


def test_shadow_singular_operator_with_foreign_splitting_is_typed():
    # the splitting of diag(2, 0.5) needs T^(-1) P_u, but T = diag(0, 0.5)
    # is singular: the solve must not leak numpy's LinAlgError, alone or
    # as one member of a stack
    split = hyperbolic_splitting(SADDLE)
    T = np.diag([0.0, 0.5])
    orbit = generate_pseudo_orbit(T, delta=1e-2, length=20, seed=0)
    with pytest.raises(NotInvertibleError):
        shadow_orbit(T, split, orbit)
    stack = np.stack([SADDLE, T]).astype(complex)
    with pytest.raises(NotInvertibleError):
        shadowing._shadow(stack, [split, split], np.stack([orbit.points, orbit.points]))


def sequential_shadow(T, split, orbit):
    """Shadow points from the per-step recursions s_{k+1} = (T P_s) s_k +
    P_s e_k and u_k = (T^(-1) P_u)(e_k + u_{k+1}): the reference the
    doubling scan in shadow_orbit must reproduce up to roundoff."""
    x = orbit.points
    e = x[1:] - x[:-1] @ T.T
    Ps, Pu = split.stable_projector, split.unstable_projector
    forward = T @ Ps
    backward = np.linalg.solve(T, Pu)
    s = np.zeros(x.shape, dtype=complex)
    for k in range(len(e)):
        s[k + 1] = forward @ s[k] + Ps @ e[k]
    u = np.zeros(x.shape, dtype=complex)
    for k in reversed(range(len(e))):
        u[k] = backward @ (e[k] + u[k + 1])
    return x - s + u


@pytest.mark.parametrize("length", [0, 1, 2, 3, 4, 5, 200, 256, 257])
@pytest.mark.parametrize("dim", range(1, 9))
def test_shadow_matches_sequential_recursion(dim, length):
    # lengths around the powers of two are where the doubling rounds end
    T = hyperbolic_sample(dim, dim=dim)
    split = hyperbolic_splitting(T)
    orbit = generate_pseudo_orbit(T, delta=1e-2, length=length, seed=dim + length)
    y = sequential_shadow(T, split, orbit)
    result = shadow_orbit(T, split, orbit)
    scale = np.linalg.norm(orbit.points, axis=1).max()
    assert np.linalg.norm(result.shadow_points - y, axis=1).max() <= 1e-10 * scale
    epsilon = np.linalg.norm(y - orbit.points, axis=1).max()
    assert result.epsilon == pytest.approx(epsilon, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("T", [[[0.5, 100.0], [0.0, 2.0]], DEFECTIVE["mixed"]], ids=["triangular", "mixed"])
def test_shadow_long_orbit_residual_is_roundoff(T):
    # 5000 steps take 13 doubling rounds; the shadow must still be a true
    # orbit to a few ulps of T y_k
    T = np.array(T)
    orbit = generate_pseudo_orbit(T, delta=1e-2, length=5000, seed=0)
    result = shadow_orbit(T, hyperbolic_splitting(T), orbit)
    size = np.linalg.norm(result.shadow_points, axis=1).max()
    assert result.orbit_residual <= 16 * np.finfo(float).eps * operator_norm(T) * size


@pytest.mark.parametrize("length", [0, 1])
def test_shadow_short_orbits(length):
    T = hyperbolic_sample(0, dim=3)
    delta = 1e-2
    orbit = generate_pseudo_orbit(T, delta=delta, length=length, seed=5)
    result = shadow_orbit(T, hyperbolic_splitting(T), orbit)
    assert len(result) == length + 1
    claim = result.constant_bound * delta + 1e-9
    assert result.epsilon <= claim
    assert verify_shadowing(T, orbit, result, claim)
    if length == 0:
        # nothing to correct: the single point is its own orbit
        assert (result.epsilon, result.orbit_residual) == (0.0, 0.0)
        np.testing.assert_array_equal(result.shadow_points, orbit.points)
    moved = ShadowResult(
        shadow_points=result.shadow_points + 1.0,
        epsilon=result.epsilon,
        orbit_residual=result.orbit_residual,
        constant_bound=result.constant_bound,
    )
    assert not verify_shadowing(T, orbit, moved, claim)


def test_shadow_result_json_round_trip():
    T = np.array([[2.0]])
    orbit = constant_orbit(0.01, delta=0.01, length=10)
    result = shadow_orbit(T, hyperbolic_splitting(T), orbit)
    again = json.loads(json.dumps(result.to_json()))
    np.testing.assert_allclose(_complex_from_json(again["shadow_points"], ndim=2), result.shadow_points, atol=0.0)
    assert again["epsilon"] == result.epsilon
    assert again["orbit_residual"] == result.orbit_residual
    assert again["constant_bound"] == result.constant_bound


def test_verify_rejects_perturbed_shadow():
    T = hyperbolic_sample(0, dim=3)
    orbit = generate_pseudo_orbit(T, delta=1e-2, length=60, seed=1)
    result = shadow_orbit(T, hyperbolic_splitting(T), orbit)
    claim = result.constant_bound * 1e-2 + 1e-9
    assert verify_shadowing(T, orbit, result, claim)
    broken_points = result.shadow_points.copy()
    broken_points[30] += 10 * claim
    broken = ShadowResult(
        shadow_points=broken_points,
        epsilon=result.epsilon,
        orbit_residual=result.orbit_residual,
        constant_bound=result.constant_bound,
    )
    assert not verify_shadowing(T, orbit, broken, claim)


def test_verify_tolerance_scales_with_the_shadow():
    # eigenvalues 1 -+ 3e-8 with ||P_s|| = 1.7e7: the shadow is 1e7 times
    # the pseudo-orbit's radius, and so is the roundoff in its residual
    T = np.array([[1.0 - 3e-8, 1.0], [0.0, 1.0 + 3e-8]])
    split = hyperbolic_splitting(T)
    orbit = generate_pseudo_orbit(T, delta=1e-2, length=200, seed=3)
    result = shadow_orbit(T, split, orbit)
    claim = split.constant_bound * 1e-2 + 1e-9
    assert result.orbit_residual > 1e-9 * (1 + operator_norm(T)) * orbit.bound
    assert verify_shadowing(T, orbit, result, claim)
    broken_points = result.shadow_points.copy()
    broken_points[100] += result.epsilon
    broken = ShadowResult(
        shadow_points=broken_points,
        epsilon=result.epsilon,
        orbit_residual=result.orbit_residual,
        constant_bound=result.constant_bound,
    )
    assert not verify_shadowing(T, orbit, broken, claim)


def test_verify_exact_orbit_zero_claim():
    T = np.diag([0.5, 1.0 / 3.0])
    orbit = exact_orbit(T, [-0.4 + 0.5j, 0.8 + 0.1j], 15)
    result = shadow_orbit(T, hyperbolic_splitting(T), orbit)
    assert verify_shadowing(T, orbit, result, 0.0)


def test_verify_length_mismatch():
    T = np.array([[2.0]])
    orbit = constant_orbit(0.01, delta=0.01, length=10)
    result = shadow_orbit(T, hyperbolic_splitting(T), orbit)
    short = constant_orbit(0.01, delta=0.01, length=5)
    with pytest.raises(LengthMismatchError):
        verify_shadowing(T, short, result, 1.0)


def test_transfer_monomial_forward():
    # H = diag(1,2), ||H|| ||H^-1|| = 2; C for [[0,4],[1,0]] is 4
    T = np.array([[0.0, 4.0], [1.0, 0.0]])
    D = aluthge_transform(T, 0.5)
    delta = 1e-2
    orbit = generate_pseudo_orbit(D, delta=delta, length=120, seed=11)
    result = transfer_shadowing(T, 0.5, orbit)
    assert result.constant_bound == pytest.approx(8.0, abs=1e-8)
    assert result.epsilon <= result.constant_bound * delta + 1e-9
    # the transferred shadow must be a true orbit of the transform
    assert verify_shadowing(D, orbit, result, result.constant_bound * delta + 1e-9)


def test_transfer_monomial_reverse():
    T = np.array([[0.0, 4.0], [1.0, 0.0]])
    delta = 1e-2
    orbit = generate_pseudo_orbit(T, delta=delta, length=120, seed=12)
    result = transfer_shadowing(T, 0.5, orbit, reverse=True)
    assert result.epsilon <= result.constant_bound * delta + 1e-9
    assert verify_shadowing(T, orbit, result, result.constant_bound * delta + 1e-9)


def test_transfer_scalar_modulus_is_identity_conjugation():
    # T = 2 rotation: |T| = 2 I, H = sqrt(2) I, transform equals T itself
    T = 2.0 * ROTATION
    np.testing.assert_allclose(aluthge_transform(T, 0.5), T, atol=1e-12)
    delta = 1e-2
    orbit = generate_pseudo_orbit(T, delta=delta, length=100, seed=13)
    transferred = transfer_shadowing(T, 0.5, orbit)
    direct = shadow_orbit(T, hyperbolic_splitting(T), orbit)
    np.testing.assert_allclose(
        transferred.shadow_points, direct.shadow_points, atol=1e-11
    )
    assert transferred.constant_bound == pytest.approx(direct.constant_bound, rel=1e-9)


@pytest.mark.parametrize("length", [0, 1])
@pytest.mark.parametrize("reverse", [False, True])
def test_transfer_short_orbits(length, reverse):
    T = np.array([[0.0, 4.0], [1.0, 0.0]])
    target = T if reverse else aluthge_transform(T, 0.5)
    delta = 1e-2
    orbit = generate_pseudo_orbit(target, delta=delta, length=length, seed=6)
    result = transfer_shadowing(T, 0.5, orbit, reverse=reverse)
    assert len(result) == length + 1
    assert verify_shadowing(target, orbit, result, result.constant_bound * delta + 1e-9)
    if length == 0:
        # no step to check; the point only makes the round trip H^-1 H
        assert result.orbit_residual == 0.0
        assert result.epsilon <= 1e-15


@pytest.mark.parametrize("reverse", [2, 1, np.int64(1), None, "yes", 0.0, [1]])
def test_transfer_refuses_a_reverse_that_is_not_a_bool(reverse, monkeypatch):
    # refused at the boundary, before the SVD and the conjugacy are formed
    monkeypatch.setattr(shadowing, "_svd", None)
    with pytest.raises(ValueError, match=r"^reverse must be a bool, got "):
        transfer_shadowing(SADDLE, 0.5, constant_orbit(0.01, 0.01, 5, dim=2), reverse=reverse)


@pytest.mark.parametrize("reverse", [np.True_, np.False_])
def test_transfer_reads_a_numpy_bool_as_a_bool(reverse):
    orbit = generate_pseudo_orbit(SADDLE, delta=1e-2, length=20, seed=3)
    expected = transfer_shadowing(SADDLE, 0.5, orbit, reverse=bool(reverse))
    result = transfer_shadowing(SADDLE, 0.5, orbit, reverse=reverse)
    np.testing.assert_array_equal(result.shadow_points, expected.shadow_points)
    assert result.to_json() == expected.to_json()


def test_transfer_rejects_singular_and_nonhyperbolic():
    with pytest.raises(NotInvertibleError):
        transfer_shadowing(np.diag([0.0, 3.0]), 0.5, constant_orbit(0.01, 0.01, 5, dim=2))
    with pytest.raises(NotHyperbolicError):
        transfer_shadowing(ROTATION, 0.5, constant_orbit(0.01, 0.01, 5, dim=2))


def test_transfer_refuses_a_conjugator_norm_beyond_the_float_range():
    # ||H^(-1)|| = sigma_min^(-0.99) = 1e-320^(-0.99) is about 1e317
    with pytest.raises(NonFiniteEntryError, match="^conjugator norm beyond the float range$"):
        transfer_shadowing(1e-320 * np.diag([1.0, 3.0]), 0.99, constant_orbit(0.01, 0.01, 5, dim=2))


def _on_points(function, points):
    """``function`` called on SADDLE with an orbit of ``points``; a check
    compares them with a well-formed shadow, and with them as the shadow."""
    orbit = PseudoOrbit(points=points, delta=0.01, bound=0.01)
    good = constant_orbit(0.0, 0.01, len(points) - 1, dim=2)
    shadow = ShadowResult(shadow_points=points, epsilon=0.0, orbit_residual=0.0, constant_bound=1.0)
    calls = {
        "shadow_orbit": lambda: shadow_orbit(SADDLE, hyperbolic_splitting(SADDLE), orbit),
        "transfer_shadowing": lambda: transfer_shadowing(SADDLE, 0.5, orbit),
        "transfer_shadowing_reverse": lambda: transfer_shadowing(SADDLE, 0.5, orbit, reverse=True),
        "verify_orbit": lambda: verify_shadowing(SADDLE, orbit, ShadowResult(good.points, 0.0, 0.0, 1.0), 1.0),
        "verify_shadow": lambda: verify_shadowing(SADDLE, good, shadow, 1.0),
        "orbit_defects": lambda: orbit_defects(SADDLE, orbit),
    }
    return calls[function]()


POINT_TAKERS = ["shadow_orbit", "transfer_shadowing", "transfer_shadowing_reverse", "verify_orbit", "verify_shadow", "orbit_defects"]


@pytest.mark.parametrize("function", POINT_TAKERS)
def test_points_of_another_dim_are_refused(function):
    with pytest.raises(SizeMismatchError, match=r"^expected (orbit|shadow) points of shape \(N \+ 1, 2\), got shape \(6, 3\)$"):
        _on_points(function, np.zeros((6, 3), dtype=complex))


@pytest.mark.parametrize("function", POINT_TAKERS)
def test_points_of_one_axis_are_refused(function):
    with pytest.raises(SizeMismatchError, match=r"got shape \(6,\)$"):
        _on_points(function, np.zeros(6, dtype=complex))


@pytest.mark.parametrize("function", POINT_TAKERS)
def test_points_that_are_not_finite_are_refused(function):
    points = np.zeros((6, 2), dtype=complex)
    points[2, 1] = np.nan
    with pytest.raises(NonFiniteEntryError, match="^(orbit|shadow) points contain NaN or infinite entries$"):
        _on_points(function, points)


@pytest.mark.parametrize("function", ["verify_shadow", "orbit_defects"])
def test_points_whose_steps_overflow_are_refused(function):
    # finite points whose first coordinate SADDLE doubles past the float range
    with pytest.raises(NonFiniteEntryError, match="^(orbit defect|orbit residual) beyond the float range$"):
        _on_points(function, np.full((4, 2), 1e308, dtype=complex))


def test_a_distance_in_range_is_measured_not_refused():
    # the orbit's steps overflow, but the check reads only its distance
    # to the shadow, 1.41e308, within the float range and above the claim
    assert not _on_points("verify_orbit", np.full((4, 2), 1e308, dtype=complex))


def test_a_shadow_whose_residual_overflows_is_refused():
    orbit = PseudoOrbit(points=np.full((4, 2), 1e308, dtype=complex), delta=0.01, bound=1e308)
    shadow = ShadowResult(shadow_points=orbit.points, epsilon=0.0, orbit_residual=0.0, constant_bound=1.0)
    with pytest.raises(NonFiniteEntryError, match="^orbit residual beyond the float range$"):
        verify_shadowing(SADDLE, orbit, shadow, 1.0)


def test_norms_whose_squares_overflow_are_measured():
    # 1e200 squared is beyond the float range; the norms themselves are not
    T = np.diag([2.0, 0.5])
    orbit = PseudoOrbit(points=np.full((4, 2), 1e200, dtype=complex), delta=0.01, bound=0.01)
    np.testing.assert_allclose(orbit_defects(T, orbit), np.full(3, np.hypot(1.0, 0.5) * 1e200), rtol=1e-15)
    # a true orbit 1.118e200 away from its pseudo-orbit
    y = np.array([[2.0**k, 0.5**k] for k in range(4)], dtype=complex) * 1e200
    x = PseudoOrbit(points=y + np.array([1e200, 0.5e200]), delta=0.01, bound=0.01)
    shadow = ShadowResult(shadow_points=y, epsilon=0.0, orbit_residual=0.0, constant_bound=1.0)
    assert verify_shadowing(T, x, shadow, 1.12e200)
    assert not verify_shadowing(T, x, shadow, 1.11e200)


def test_points_well_formed_pass_every_boundary():
    for function in POINT_TAKERS:
        _on_points(function, np.zeros((6, 2), dtype=complex))


def test_shadow_refuses_a_splitting_of_another_size():
    split = hyperbolic_splitting(np.diag([2.0, 0.5, 3.0]))
    with pytest.raises(SizeMismatchError, match=r"^splitting of size \(3, 3\) does not fit an operator of size 2$"):
        shadow_orbit(SADDLE, split, constant_orbit(0.0, 0.01, 5, dim=2))


def _saddle_shadow():
    orbit = generate_pseudo_orbit(SADDLE, delta=0.01, length=5, seed=0)
    return orbit, shadow_orbit(SADDLE, hyperbolic_splitting(SADDLE), orbit)


@pytest.mark.parametrize(
    "claim",
    [None, "1", np.nan, 1 + 0j, np.complex128(1), 10**400, b"1", [1.0], np.array([1.0])],
    ids=["None", "str", "nan", "complex", "numpy complex", "huge", "bytes", "list", "array"],
)
def test_verify_refuses_a_claim_that_is_not_a_real_number(claim):
    orbit, result = _saddle_shadow()
    with pytest.raises(ValueError, match="^eps_claim must be a real number, got "):
        verify_shadowing(SADDLE, orbit, result, claim)


def test_verify_refuses_an_orbit_whose_bound_is_nan():
    orbit, result = _saddle_shadow()
    with pytest.raises(ValueError, match="^orbit bound must be a real number, got nan$"):
        verify_shadowing(SADDLE, dataclasses.replace(orbit, bound=np.nan), result, 1.0)


def test_verify_takes_every_real_claim():
    orbit, result = _saddle_shadow()
    for claim in (1, 1.0, np.float32(1.0), np.array(1.0), True, np.inf, Fraction(1)):
        assert verify_shadowing(SADDLE, orbit, result, claim)
    # a negative claim answers False; an infinite orbit bound is taken
    assert not verify_shadowing(SADDLE, orbit, result, -1.0)
    assert not verify_shadowing(SADDLE, orbit, result, -np.inf)
    assert verify_shadowing(SADDLE, dataclasses.replace(orbit, bound=np.inf), result, 1.0)
