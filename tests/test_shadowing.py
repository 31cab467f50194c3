"""Hyperbolic splittings, pseudo-orbits, constructive shadowing, transfer."""

import numpy as np
import pytest

from aluthgelab import (
    EnsembleSpec,
    IllConditionedEigenbasisError,
    InvalidDeltaError,
    LengthMismatchError,
    NoConvergenceError,
    NotHyperbolicError,
    NotInvertibleError,
    PseudoOrbit,
    ShadowResult,
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


def test_splitting_rejects_singular():
    with pytest.raises(NotHyperbolicError):
        hyperbolic_splitting(np.diag([0.0, 3.0]))


def test_splitting_rejects_ill_conditioned_eigenbasis():
    # nearly defective: eigenvalues 2 and 2 + 1e-7 with almost parallel
    # eigenvectors, invertible and far from the unit circle
    T = np.array([[2.0, 100.0], [0.0, 2.0 + 1e-7]])
    with pytest.raises(IllConditionedEigenbasisError):
        hyperbolic_splitting(T)


@pytest.mark.parametrize("seed", range(6))
def test_splitting_projector_algebra(seed):
    T = hyperbolic_sample(seed)
    split = hyperbolic_splitting(T)
    Ps, Pu = split.stable_projector, split.unstable_projector
    slack = 1e-9 * split.eigenbasis_condition
    assert operator_norm(Ps + Pu - np.eye(4)) <= slack
    assert operator_norm(Ps @ Ps - Ps) <= slack
    assert operator_norm(Pu @ Pu - Pu) <= slack
    assert operator_norm(Ps @ Pu) <= slack
    assert operator_norm(T @ Ps - Ps @ T) <= slack * operator_norm(T)
    assert split.stable_rate < 1.0 < split.unstable_rate


def per_power_bounds(T, split):
    """K_s and K_u from one operator_norm per power: the reference loop
    the splitting's batched measurement must reproduce bit for bit."""
    Ks = Ku = 0.0
    Ps, Pu = split.stable_projector, split.unstable_projector
    if split.stable_rate > 0.0:
        propagator, power = T @ Ps, Ps.copy()
        Ks = operator_norm(power)
        for m in range(1, MEASUREMENT_HORIZON + 1):
            power = propagator @ power
            Ks = max(Ks, operator_norm(power) / split.stable_rate**m)
    if split.unstable_rate < np.inf:
        propagator, power = np.linalg.solve(T, Pu), Pu.copy()
        Ku = operator_norm(power)
        for m in range(1, MEASUREMENT_HORIZON + 1):
            power = propagator @ power
            Ku = max(Ku, operator_norm(power) * split.unstable_rate**m)
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
    assert not orbit.unbounded_risk


def test_noisy_orbit_zero_delta_is_exact():
    T = np.diag([0.5, 1.0 / 3.0])
    orbit = generate_pseudo_orbit(T, delta=0.0, length=30, seed=2, mode="noisy")
    assert np.max(orbit_defects(T, orbit)) <= 1e-15
    assert not orbit.unbounded_risk


def test_noisy_orbit_flags_expanding_map():
    orbit = generate_pseudo_orbit(SADDLE, delta=0.01, length=10, seed=3, mode="noisy")
    assert orbit.unbounded_risk
    assert np.max(orbit_defects(SADDLE, orbit)) <= 0.01 + 1e-15


def test_noisy_orbit_eigenvalue_failure_is_typed(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(NoConvergenceError):
        generate_pseudo_orbit(SADDLE, delta=0.01, length=10, seed=3, mode="noisy")


def test_noisy_orbit_contracting_stays_bounded():
    # scalar a = 1/2: geometric accumulation keeps points within  x0 + 2 delta
    delta = 0.05
    orbit = generate_pseudo_orbit(np.array([[0.5]]), delta=delta, length=200, seed=4, mode="noisy")
    norms = np.linalg.norm(orbit.points, axis=1)
    assert norms.max() <= 1.0 + 2 * delta + 1e-12
    assert orbit.bound >= norms.max() - 1e-15


def test_orbit_rejects_negative_delta():
    with pytest.raises(InvalidDeltaError):
        generate_pseudo_orbit(SADDLE, delta=-0.01, length=10, seed=0)


@pytest.mark.parametrize("delta", [np.nan, np.inf])
def test_orbit_rejects_non_finite_delta(delta):
    with pytest.raises(InvalidDeltaError):
        generate_pseudo_orbit(SADDLE, delta=delta, length=10, seed=0)


def test_orbit_rejects_bad_length_and_mode():
    with pytest.raises(ValueError):
        generate_pseudo_orbit(SADDLE, delta=0.01, length=-1, seed=0)
    with pytest.raises(ValueError):
        generate_pseudo_orbit(SADDLE, delta=0.01, length=10, seed=0, mode="wild")


def test_orbit_deterministic_and_scale_free():
    a = generate_pseudo_orbit(SADDLE, delta=0.01, length=25, seed=9)
    b = generate_pseudo_orbit(SADDLE, delta=0.01, length=25, seed=9)
    np.testing.assert_array_equal(a.points, b.points)
    halved = generate_pseudo_orbit(SADDLE, delta=0.005, length=25, seed=9)
    np.testing.assert_allclose(halved.points, 0.5 * a.points, atol=1e-18)


def test_orbit_json_round_trip():
    orbit = generate_pseudo_orbit(SADDLE, delta=0.01, length=5, seed=1)
    again = PseudoOrbit.from_json(orbit.to_json())
    np.testing.assert_allclose(again.points, orbit.points, atol=0.0)
    assert again.delta == orbit.delta
    assert again.bound == orbit.bound


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
    orbit = generate_pseudo_orbit(T, delta=0.0, length=20, seed=7, mode="noisy")
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


def test_shadow_with_foreign_splitting_overflows():
    # the splitting of diag(2, 0.5) inverts the first axis, where
    # T = diag(0.1, 0.5) contracts: the back-substitution grows tenfold a step
    split = hyperbolic_splitting(SADDLE)
    T = np.diag([0.1, 0.5])
    orbit = generate_pseudo_orbit(T, delta=1e-2, length=200, seed=0)
    with pytest.raises(UnstableOverflowError, match="overflow at step 47"):
        shadow_orbit(T, split, orbit)


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
    again = ShadowResult.from_json(result.to_json())
    np.testing.assert_allclose(again.shadow_points, result.shadow_points, atol=0.0)
    assert again.epsilon == result.epsilon
    assert again.constant_bound == result.constant_bound


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


def test_verify_exact_orbit_zero_claim():
    T = np.diag([0.5, 1.0 / 3.0])
    orbit = generate_pseudo_orbit(T, delta=0.0, length=15, seed=2, mode="noisy")
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


def test_transfer_rejects_singular_and_nonhyperbolic():
    with pytest.raises(NotInvertibleError):
        transfer_shadowing(np.diag([0.0, 3.0]), 0.5, constant_orbit(0.01, 0.01, 5, dim=2))
    with pytest.raises(NotHyperbolicError):
        transfer_shadowing(ROTATION, 0.5, constant_orbit(0.01, 0.01, 5, dim=2))
