"""Hyperbolic splittings, bounded pseudo-orbits, constructive shadowing,
and conjugacy transfer of shadowing between an operator and its
lambda-Aluthge transform.

A hyperbolic operator splits the space into spectral stable and unstable
subspaces.  Given a finite delta-pseudo-orbit x_0..x_N with defects
e_k = x_{k+1} - T x_k, the correction

    c_k = - sum_{j<k} (T restricted to stable)^(k-1-j) P_s e_j
          + sum_{j>=k} (T restricted to unstable)^(k-1-j) P_u e_j

turns it into the true orbit y_k = x_k + c_k (the sums telescope against
the defects exactly; only roundoff remains).  Both sums are evaluated by
linear recursions driven by the projected propagators T P_s and
T^(-1) P_u, which keeps every intermediate inside its invariant subspace:
iterating the raw operator instead would amplify roundoff along the
complementary directions exponentially.

The achieved distance obeys max_k ||c_k|| <= C * delta with

    C = K_s / (1 - rho_s) + K_u * rho_u / (rho_u - 1),

where the rates and constants are measured from projected power norms up
to a finite horizon.  Conjugating by H = |T|^lam transfers this bound to
the transform at the cost of the factor ||H|| * ||H^(-1)||.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aluthge import conjugacy
from .errors import (
    IllConditionedEigenbasisError,
    InvalidDeltaError,
    LengthMismatchError,
    NoConvergenceError,
    NotHyperbolicError,
    UnstableOverflowError,
)
from .linalg_core import as_matrix, eigenvalues, operator_norm, rank_tolerance
from .spectral import _hyperbolicity

__all__ = [
    "HyperbolicSplitting",
    "PseudoOrbit",
    "ShadowResult",
    "hyperbolic_splitting",
    "generate_pseudo_orbit",
    "orbit_defects",
    "shadow_orbit",
    "transfer_shadowing",
    "verify_shadowing",
]

#: Power-norm measurement horizon for the contraction/expansion constants.
MEASUREMENT_HORIZON = 50

#: Eigenvector matrices with condition number above this are rejected.
EIGENBASIS_CONDITION_LIMIT = 1e8

#: A recomputed shadow residual must stay below
#: RESIDUAL_TOL_FACTOR * (1 + ||T||) * orbit.bound.
RESIDUAL_TOL_FACTOR = 1e-9

#: Back-substitution along the unstable subspace aborts above this norm.
BACKSUB_OVERFLOW_LIMIT = 1e150


@dataclass(frozen=True)
class HyperbolicSplitting:
    """Spectral splitting of a hyperbolic operator.

    ``stable_projector`` P_s sums the eigenprojections with |lambda| < 1,
    ``unstable_projector`` P_u those with |lambda| > 1 (P_u = I - P_s).
    ``stable_rate`` rho_s < 1 and ``unstable_rate`` rho_u > 1 bound the
    eigenvalue moduli on each side; ``stable_bound`` K_s and
    ``unstable_bound`` K_u are measured so that over the horizon

        ||(T P_s)^m P_s|| <= K_s rho_s^m,
        ||(T^(-1) P_u)^m P_u|| <= K_u rho_u^(-m).

    An empty side has projector 0, bound 0, and rate 0 (stable) or
    infinity (unstable).
    """

    stable_projector: np.ndarray
    unstable_projector: np.ndarray
    stable_rate: float
    unstable_rate: float
    stable_bound: float
    unstable_bound: float
    eigenbasis_condition: float

    @property
    def constant_bound(self) -> float:
        """Shadowing constant C = K_s/(1 - rho_s) + K_u rho_u/(rho_u - 1)."""
        stable = self.stable_bound / (1.0 - self.stable_rate) if self.stable_bound else 0.0
        unstable = 0.0
        if self.unstable_bound:
            unstable = self.unstable_bound * self.unstable_rate / (self.unstable_rate - 1.0)
        return stable + unstable


def hyperbolic_splitting(T) -> HyperbolicSplitting:
    """Spectral projectors, rates, and measured constants for hyperbolic T.

    Raises
    ------
    NotHyperbolicError
        If T is numerically singular or has an eigenvalue within the
        hyperbolicity tolerance of the unit circle.
    IllConditionedEigenbasisError
        If the eigenvector matrix condition number exceeds
        EIGENBASIS_CONDITION_LIMIT; the splitting would be unreliable.
    """
    T = as_matrix(T)
    n = T.shape[0]
    sing = np.linalg.svd(T, compute_uv=False)
    if sing.size and sing[-1] <= rank_tolerance(sing, n):
        raise NotHyperbolicError(
            "operator is numerically singular; hyperbolic operators are invertible"
        )
    try:
        ev, V = np.linalg.eig(T)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc
    _, circle, hyperbolic = _hyperbolicity(ev)
    if not hyperbolic:
        raise NotHyperbolicError(f"spectrum within {circle:.3e} of the unit circle")
    V = V / np.linalg.norm(V, axis=0)
    condition = float(np.linalg.cond(V))
    if condition > EIGENBASIS_CONDITION_LIMIT:
        raise IllConditionedEigenbasisError(
            f"eigenbasis condition {condition:.3e} exceeds {EIGENBASIS_CONDITION_LIMIT:g}"
        )
    identity = np.eye(n, dtype=complex)
    stable = np.abs(ev) < 1.0
    if stable.all():
        Ps = identity.copy()
    elif not stable.any():
        Ps = np.zeros((n, n), dtype=complex)
    else:
        Ps = V[:, stable] @ np.linalg.inv(V)[stable, :]
    Pu = identity - Ps
    rho_s = float(np.abs(ev[stable]).max()) if stable.any() else 0.0
    rho_u = float(np.abs(ev[~stable]).min()) if (~stable).any() else np.inf
    Ks = Ku = 0.0
    if stable.any():
        propagator = T @ Ps
        power = Ps.copy()
        Ks = operator_norm(power)
        for m in range(1, MEASUREMENT_HORIZON + 1):
            power = propagator @ power
            Ks = max(Ks, operator_norm(power) / rho_s**m)
    if (~stable).any():
        propagator = np.linalg.solve(T, Pu)
        power = Pu.copy()
        Ku = operator_norm(power)
        for m in range(1, MEASUREMENT_HORIZON + 1):
            power = propagator @ power
            Ku = max(Ku, operator_norm(power) * rho_u**m)
    return HyperbolicSplitting(
        stable_projector=Ps,
        unstable_projector=Pu,
        stable_rate=rho_s,
        unstable_rate=rho_u,
        stable_bound=Ks,
        unstable_bound=Ku,
        eigenbasis_condition=condition,
    )


def _points_to_json(points: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in points]


def _points_from_json(rows: list) -> np.ndarray:
    return np.array(
        [[complex(re, im) for re, im in row] for row in rows], dtype=complex
    )


@dataclass(frozen=True)
class PseudoOrbit:
    """Finite point sequence x_0..x_N with defect bound delta.

    ``bound`` is the radius of a ball containing every point.
    ``unbounded_risk`` marks noisy-mode orbits of expanding operators,
    which leave every bounded set as the length grows; it is advisory and
    not serialized.
    """

    points: np.ndarray
    delta: float
    bound: float
    unbounded_risk: bool = field(default=False, compare=False)

    def __len__(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "points": _points_to_json(self.points),
            "delta": self.delta,
            "bound": self.bound,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PseudoOrbit":
        return cls(
            points=_points_from_json(obj["points"]),
            delta=float(obj["delta"]),
            bound=float(obj["bound"]),
        )


@dataclass(frozen=True)
class ShadowResult:
    """Shadow orbit y_0..y_N with achieved closeness and residual.

    ``epsilon`` = max_k ||y_k - x_k||; ``orbit_residual`` =
    max_k ||y_{k+1} - T y_k||; ``constant_bound`` is the theoretical
    epsilon/delta ratio C the construction guarantees.
    """

    shadow_points: np.ndarray
    epsilon: float
    orbit_residual: float
    constant_bound: float

    def __len__(self) -> int:
        return len(self.shadow_points)

    def to_json(self) -> dict:
        return {
            "shadow_points": _points_to_json(self.shadow_points),
            "epsilon": self.epsilon,
            "orbit_residual": self.orbit_residual,
            "constant_bound": self.constant_bound,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ShadowResult":
        return cls(
            shadow_points=_points_from_json(obj["shadow_points"]),
            epsilon=float(obj["epsilon"]),
            orbit_residual=float(obj["orbit_residual"]),
            constant_bound=float(obj["constant_bound"]),
        )


def _ball_points(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    """Uniform draws from the complex ball of the given radius."""
    g = rng.standard_normal((count, 2 * dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = rng.random((count, 1)) ** (1.0 / (2 * dim))
    scaled = g * (r * radius)
    return scaled[:, :dim] + 1j * scaled[:, dim:]


def generate_pseudo_orbit(
    T, delta: float, length: int, seed: int, mode: str = "ball"
) -> PseudoOrbit:
    """Seeded delta-pseudo-orbit with N = ``length`` steps (N + 1 points).

    Ball mode (default) samples every point uniformly in the ball of
    radius rho = delta / (1 + ||T||) around the origin, so each defect is
    at most rho + ||T|| rho = delta and the orbit is bounded by rho no
    matter how long it runs.  Noisy mode starts from a uniform draw in the
    unit ball and applies x_{k+1} = T x_k + e_k with ||e_k|| <= delta; for
    an expanding operator such orbits leave every bounded set, so the
    result is flagged with ``unbounded_risk``.

    The draws are scale-free: two calls differing only in delta return
    orbits that are exact scalar multiples of each other in ball mode.

    Raises
    ------
    InvalidDeltaError
        If delta is negative, NaN or infinite.
    """
    T = as_matrix(T)
    if not 0.0 <= delta < np.inf:
        raise InvalidDeltaError(f"delta must be finite and nonnegative, got {delta}")
    if length < 0:
        raise ValueError(f"length must be nonnegative, got {length}")
    if mode not in ("ball", "noisy"):
        raise ValueError(f"mode must be 'ball' or 'noisy', got {mode!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    d = T.shape[0]
    norm = operator_norm(T)
    if mode == "ball":
        rho = delta / (1.0 + norm)
        points = _ball_points(rng, length + 1, d, 1.0) * rho
        return PseudoOrbit(points=points, delta=float(delta), bound=float(rho))
    start = _ball_points(rng, 1, d, 1.0)[0]
    noise = _ball_points(rng, length, d, 1.0) * delta
    points = np.empty((length + 1, d), dtype=complex)
    points[0] = start
    for k in range(length):
        points[k + 1] = T @ points[k] + noise[k]
    radius = float(np.linalg.norm(points, axis=1).max())
    expanding = bool(np.abs(eigenvalues(T)).max() > 1.0)
    return PseudoOrbit(
        points=points,
        delta=float(delta),
        bound=radius,
        unbounded_risk=expanding,
    )


def orbit_defects(T, orbit: PseudoOrbit) -> np.ndarray:
    """Defect norms ||x_{k+1} - T x_k|| for k = 0..N-1."""
    T = as_matrix(T)
    x = orbit.points
    return np.linalg.norm(x[1:] - x[:-1] @ T.T, axis=1)


def shadow_orbit(T, splitting: HyperbolicSplitting, orbit: PseudoOrbit) -> ShadowResult:
    """True orbit within C * delta of the pseudo-orbit.

    Evaluates the stable correction by the forward recursion
    s_{k+1} = (T P_s) s_k + P_s e_k and the unstable one by the backward
    recursion u_k = (T^(-1) P_u)(e_k + u_{k+1}), truncating the series at
    the available defects; returns y_k = x_k + (u_k - s_k) together with
    the achieved epsilon, the recomputed residual, and the constant C.

    Raises
    ------
    UnstableOverflowError
        If the backward recursion overflows; the splitting then does not
        belong to this operator.
    """
    T = as_matrix(T)
    x = orbit.points
    steps = len(x) - 1
    constant = splitting.constant_bound
    if steps < 1:
        return ShadowResult(
            shadow_points=x.copy(), epsilon=0.0, orbit_residual=0.0, constant_bound=constant
        )
    d = T.shape[0]
    e = x[1:] - x[:-1] @ T.T
    Ps, Pu = splitting.stable_projector, splitting.unstable_projector
    forward = T @ Ps
    backward = np.linalg.solve(T, Pu)
    s = np.zeros((steps + 1, d), dtype=complex)
    for k in range(steps):
        s[k + 1] = forward @ s[k] + Ps @ e[k]
    u = np.zeros((steps + 1, d), dtype=complex)
    for k in range(steps - 1, -1, -1):
        u[k] = backward @ (e[k] + u[k + 1])
        if np.linalg.norm(u[k]) > BACKSUB_OVERFLOW_LIMIT:
            raise UnstableOverflowError(
                f"unstable back-substitution overflow at step {k}"
            )
    y = x - s + u
    epsilon = float(np.linalg.norm(y - x, axis=1).max())
    residual = float(np.linalg.norm(y[1:] - y[:-1] @ T.T, axis=1).max())
    return ShadowResult(
        shadow_points=y, epsilon=epsilon, orbit_residual=residual, constant_bound=constant
    )


def transfer_shadowing(
    T, lam: float, orbit_for_transform: PseudoOrbit, reverse: bool = False
) -> ShadowResult:
    """Shadow a pseudo-orbit of the lambda-Aluthge transform through the
    conjugacy H = |T|^lam.

    Forward direction (default): the orbit belongs to D_lam(T).  It is
    pulled back through H^(-1), which inflates the defect bound by at most
    ||H^(-1)|| (and the pushforward costs ||H|| more), shadowed under T,
    and mapped back.  The reported constant_bound is therefore
    ||H|| * ||H^(-1)|| * C_T.

    Reverse direction: the orbit belongs to T itself and the roles swap,
    with the shadowing performed under D_lam(T) and the constant taken
    from its splitting.  Together the two directions realize the
    equivalence of the bounded shadowing property across the conjugacy.

    Raises
    ------
    NotInvertibleError
        If T is numerically singular (no conjugacy exists).
    NotHyperbolicError
        Propagated from the splitting of the shadowing operator.
    """
    T = as_matrix(T)
    transform, conj, H_inv = conjugacy(T, lam)
    factor = conj.norm * conj.inverse_norm
    x = orbit_for_transform.points
    if not reverse:
        base, target = T, transform
        pull_matrix, push_matrix = H_inv, conj.matrix
        pull_norm = conj.inverse_norm
    else:
        base, target = transform, T
        pull_matrix, push_matrix = conj.matrix, H_inv
        pull_norm = conj.norm
    pulled = x @ pull_matrix.T
    pulled_delta = pull_norm * orbit_for_transform.delta
    pulled_bound = pull_norm * orbit_for_transform.bound
    splitting = hyperbolic_splitting(base)
    inner = shadow_orbit(
        base,
        splitting,
        PseudoOrbit(points=pulled, delta=float(pulled_delta), bound=float(pulled_bound)),
    )
    y = inner.shadow_points @ push_matrix.T
    epsilon = float(np.linalg.norm(y - x, axis=1).max()) if len(x) else 0.0
    residual = (
        float(np.linalg.norm(y[1:] - y[:-1] @ target.T, axis=1).max()) if len(x) > 1 else 0.0
    )
    return ShadowResult(
        shadow_points=y,
        epsilon=epsilon,
        orbit_residual=residual,
        constant_bound=factor * splitting.constant_bound,
    )


def verify_shadowing(T, orbit: PseudoOrbit, shadow: ShadowResult, eps_claim: float) -> bool:
    """Check a claimed shadow independently.

    Recomputes both diagnostics from the points: the shadow must be a true
    orbit of T up to the tolerance
    RESIDUAL_TOL_FACTOR * (1 + ||T||) * orbit.bound, and must stay within
    ``eps_claim`` of the pseudo-orbit.

    Raises
    ------
    LengthMismatchError
        If the two point sequences have different length.
    """
    T = as_matrix(T)
    x, y = orbit.points, shadow.shadow_points
    if len(x) != len(y):
        raise LengthMismatchError(f"orbit has {len(x)} points, shadow has {len(y)}")
    residual = float(np.linalg.norm(y[1:] - y[:-1] @ T.T, axis=1).max()) if len(y) > 1 else 0.0
    epsilon = float(np.linalg.norm(y - x, axis=1).max()) if len(x) else 0.0
    tolerance = RESIDUAL_TOL_FACTOR * (1.0 + operator_norm(T)) * orbit.bound
    return bool(residual <= tolerance and epsilon <= eps_claim)
