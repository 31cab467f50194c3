"""Hyperbolic splittings, bounded pseudo-orbits, constructive shadowing,
and conjugacy transfer of shadowing between an operator and its
lambda-Aluthge transform.

A hyperbolic operator splits the space into spectral stable and unstable
subspaces, P_s = (I - sign((T - I)^(-1) (T + I)))/2.  Given a finite
delta-pseudo-orbit x_0..x_N with defects e_k = x_{k+1} - T x_k, the correction

    c_k = - sum_{j<k} (T restricted to stable)^(k-1-j) P_s e_j
          + sum_{j>=k} (T restricted to unstable)^(k-1-j) P_u e_j

turns it into the true orbit y_k = x_k + c_k (the sums telescope against
the defects exactly; only roundoff remains).  Both sums are linear
recursions driven by the projected propagators T P_s and T^(-1) P_u, which
keeps every intermediate inside its invariant subspace: iterating the raw
operator instead would amplify roundoff along the complementary directions
exponentially.  A linear recursion is a prefix scan, and both run as one
scan over the two sides stacked, the unstable one reversed, by doubling:
round r adds A^(2^r) z_(k - 2^r) to every z_k at once and then squares A,
which takes ceil(log2 (N + 1)) batched products for N + 1 points.  The
squared powers of a propagator that does not belong to T can overflow;
both sides are checked once, after the scan.  An empty side (projector 0)
has no terms, so its correction stays 0.

The splitting, the shadow and its check also run over a stack of
operators of one size, with every factorization and product batched over
the stack: :func:`hyperbolic_splitting` takes a (k, n, n) stack and
returns one splitting per member, and :func:`shadow_orbit` and
:func:`verify_shadowing` are the stack-of-one callers of the same private
array-level core.  :func:`transfer_shadowing` is the stack-of-one caller
of the transfer core, which the transfer suite calls once per direction:
it is the one place that picks, for a direction, the operator shadowed
under, the pull and push operators and the constant
||H|| ||H^(-1)|| C.  The public functions refuse points of the wrong
shape, or not finite, and a splitting of the wrong size, with typed
errors; the suites' own orbits are not checked again.

The achieved distance obeys max_k ||c_k|| <= C * delta with

    C = K_s / (1 - rho_s) + K_u * rho_u / (rho_u - 1),

where the rates and constants are measured from normalized power norms
up to a finite horizon.  Conjugating by H = |T|^lam transfers this bound to
the transform at the cost of the factor ||H|| * ||H^(-1)||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aluthge import _conjugacy, _scaled, check_lambda
from .ensembles import _stream
from .errors import (
    InvalidDeltaError,
    LengthMismatchError,
    NoConvergenceError,
    NonFiniteEntryError,
    NotHyperbolicError,
    SizeMismatchError,
    UnstableOverflowError,
)
from .linalg_core import (
    _as_stack,
    _eigenvalues,
    _integer,
    _lapack,
    _norms,
    _real,
    _record_to_json,
    _singular_values,
    _svd,
    _within_range,
    as_matrix,
    rank_tolerance,
)
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

#: Newton steps allowed for the matrix sign function of the Cayley transform.
_SIGN_NEWTON_STEPS = 100

#: A recomputed shadow residual must stay below
#: RESIDUAL_TOL_FACTOR * (1 + ||T||) * max(orbit.bound, max_k ||y_k||).
RESIDUAL_TOL_FACTOR = 1e-9

#: Slack added to C * delta when a shadow's epsilon is checked, so that a
#: roundoff-level epsilon on an exact orbit still verifies.
EPSILON_SLACK = 1e-9

#: A shadow correction, stable or unstable, aborts above this norm.
BACKSUB_OVERFLOW_LIMIT = 1e150


@dataclass(frozen=True)
class HyperbolicSplitting:
    """Spectral splitting of a hyperbolic operator.

    ``stable_projector`` P_s sums the eigenprojections with |lambda| < 1,
    ``unstable_projector`` P_u those with |lambda| > 1 (P_u = I - P_s).
    ``stable_rate`` rho_s < 1 and ``unstable_rate`` rho_u > 1 bound the
    eigenvalue moduli on each side; ``stable_bound`` K_s and
    ``unstable_bound`` K_u are the largest power norms over the horizon

        K_s = max_m ||(T P_s / rho_s)^m P_s||,
        K_u = max_m ||(rho_u T^(-1) P_u)^m P_u||.

    An empty side has projector 0, bound 0, and rate 0 (stable) or
    infinity (unstable).
    """

    stable_projector: np.ndarray
    unstable_projector: np.ndarray
    stable_rate: float
    unstable_rate: float
    stable_bound: float
    unstable_bound: float

    @property
    def constant_bound(self) -> float:
        """Shadowing constant C = K_s/(1 - rho_s) + K_u rho_u/(rho_u - 1)."""
        stable = self.stable_bound / (1.0 - self.stable_rate) if self.stable_bound else 0.0
        unstable = 0.0
        if self.unstable_bound:
            unstable = self.unstable_bound * self.unstable_rate / (self.unstable_rate - 1.0)
        return stable + unstable


def hyperbolic_splitting(T) -> HyperbolicSplitting | list[HyperbolicSplitting]:
    """Spectral projectors, rates, and measured constants for hyperbolic T.

    ``T`` may also be a stack of k matrices of one size, shape (k, n, n).
    Every factorization is then one batched call over the stack (the
    singular values, the eigenvalues, the Cayley solve, each Newton sign
    step and one SVD for the power norms of every member on both sides),
    and one :class:`HyperbolicSplitting` per member is returned, in input
    order, equal to the splitting of that member alone.  A member that is
    refused makes the whole call raise.

    The power norms are measured on the normalized propagators formed from
    T scaled by a power of two, which is exact: subnormal or huge operators
    neither overflow 1/rho nor lose digits, and at every other scale the
    constants are those of the unscaled propagators, bit for bit.

    Raises
    ------
    NotHyperbolicError
        If T is numerically singular or has an eigenvalue mu on the unit
        circle: ||mu| - 1| at most HYPERBOLICITY_TOL_FACTOR * (1 + |mu|)
        + n * eps * spectral radius (see :mod:`aluthgelab.spectral`).
    NoConvergenceError
        If the eigenvalue or the matrix sign iteration does not converge.
    NonFiniteEntryError
        If an entry is not finite, or a singular value or eigenvalue is beyond the float range.
    NotInvertibleError
        If the Cayley solve, a Newton sign step or the solve for T^(-1) P_u
        meets a matrix that is singular in floating point.
    SizeMismatchError
        If a member is not square or has no rows, or the members differ in size.
    """
    stack, single = _as_stack(T)
    splittings = _splittings(stack)
    return splittings[0] if single else splittings


def _splittings(stack: np.ndarray, sing: np.ndarray | None = None) -> list[HyperbolicSplitting]:
    """The splitting of each member of a complex (k, n, n) stack, which is
    not validated again; see :func:`hyperbolic_splitting`.  ``sing`` holds
    the stack's singular values, if the caller has taken them already."""
    n = stack.shape[-1]
    if sing is None:
        sing = _singular_values(stack)
    if (sing[:, -1] <= rank_tolerance(sing, n)).any():
        raise NotHyperbolicError(
            "operator is numerically singular; hyperbolic operators are invertible"
        )
    ev = _eigenvalues(stack)
    for member in ev:
        _, circle, hyperbolic = _hyperbolicity(member)
        if not hyperbolic:
            raise NotHyperbolicError(f"spectrum within {circle:.3e} of the unit circle")
    moduli = np.abs(ev)
    stable = moduli < 1.0
    has_s, has_u = stable.any(axis=-1), (~stable).any(axis=-1)
    identity = np.eye(n, dtype=complex)
    Ps = np.zeros(stack.shape, dtype=complex)
    Ps[~has_u] = identity  # one empty side: exactly I or 0
    both = has_s & has_u
    if both.any():  # the Cayley map sends the open unit disc to the left half-plane
        C = stack[both]
        Ps[both] = (identity - _matrix_sign(_lapack("solve", C - identity, C + identity))) / 2
    Pu = identity - Ps
    rho_s = np.where(stable, moduli, 0.0).max(axis=-1)
    rho_u = np.where(stable, np.inf, moduli).min(axis=-1)
    Ks, Ku = _power_bounds(stack, Ps, Pu, rho_s, rho_u)
    return [HyperbolicSplitting(*fields) for fields in zip(Ps, Pu, rho_s.tolist(), rho_u.tolist(), Ks, Ku)]


def _matrix_sign(X: np.ndarray) -> np.ndarray:
    """sign(X) of each member of a stack by determinant-scaled Newton,
    X <- (mu X + (mu X)^(-1))/2 with mu = |det X|^(-1/n), stopped by the
    quadratic convergence test of Higham, Functions of Matrices (2008),
    ch. 5.  A member leaves the batch at the step where its own test
    passes, so it takes the steps it would take alone."""
    n = X.shape[-1]
    sign = np.empty_like(X)
    live = np.arange(len(X))  # members still iterating
    for _ in range(_SIGN_NEWTON_STEPS):
        X_inv = _lapack("inv", X)
        mu = np.exp(-np.linalg.slogdet(X)[1] / n)[:, None, None]
        previous, X = X, (mu * X + X_inv / mu) / 2
        step = _norm1(X - previous)
        done = step <= np.sqrt(n * np.finfo(float).eps * _norm1(X) / _norm1(X_inv))
        sign[live[done]] = X[done]
        live, X = live[~done], X[~done]
        if not live.size:
            return sign
    raise NoConvergenceError(f"matrix sign iteration did not converge in {_SIGN_NEWTON_STEPS} steps")


def _norm1(X: np.ndarray) -> np.ndarray:
    """Largest absolute column sum of each member of a stack."""
    return np.linalg.norm(X, 1, axis=(-2, -1))


def _power_bounds(T, Ps, Pu, rho_s, rho_u) -> tuple[list, list]:
    """K_s and K_u of each member of a stack: the largest 2-norm of
    propagator^m @ projector over m = 0..MEASUREMENT_HORIZON, for the
    normalized propagators T P_s / rho_s and rho_u T^(-1) P_u, read from
    one batched SVD over the powers of every nonempty side that can hold
    its maximum (:func:`_largest_norms`); 0 for an empty side.

    The propagators are formed from T 2^-e, with 2^e the binade of its
    largest entry (floored so that 2^-e stays finite; see
    :func:`aluthgelab.aluthge._scaled`), and rates scaled alike.
    """
    has_s, has_u = rho_s > 0.0, rho_u < np.inf
    Ts, exponent = _scaled(T)
    scale = np.ldexp(1.0, -exponent)
    propagators = np.concatenate([
        Ts[has_s] @ Ps[has_s] / (rho_s * scale)[has_s, None, None],
        (rho_u * scale)[has_u, None, None] * _lapack("solve", Ts[has_u], Pu[has_u]),
    ])
    powers = np.empty((len(propagators), MEASUREMENT_HORIZON + 1) + T.shape[1:], dtype=complex)
    powers[:, 0] = np.concatenate([Ps[has_s], Pu[has_u]])
    for m in range(MEASUREMENT_HORIZON):
        np.matmul(propagators, powers[:, m], out=powers[:, m + 1])
    Ks, Ku = np.zeros(len(T)), np.zeros(len(T))
    if len(propagators):
        Ks[has_s], Ku[has_u] = np.split(_largest_norms(powers), [int(has_s.sum())])
    return Ks.tolist(), Ku.tolist()


def _largest_norms(powers: np.ndarray) -> np.ndarray:
    """Largest 2-norm over each row of a (k, m, n, n) stack of matrices, as
    one batched gesdd call over the whole stack would give it, bit for bit,
    from the SVDs of only the matrices that can hold the maximum.

    ||M||_2 <= ||M||_F for every matrix M.  A lower bound on a row's
    largest 2-norm is ||B v|| / ||v|| <= ||B||_2, for B the row's matrix
    with the largest Frobenius norm, j its largest column and v = B* B e_j:
    one power step.  In floating point both norms are off by at most about
    n^2 eps relatively, which stays far below 1e-8 at any n whose powers
    fit in memory.  So a matrix with ||M||_F below (1 - 1e-8) times that
    bound has a 2-norm, exact or as gesdd computes it, below the row's
    largest one, and skipping its SVD keeps the maximum's bits.  A
    non-finite bound (overflow, or 0/0) proves nothing and keeps the row.
    """
    # the Frobenius norms as dot products of the real and imaginary parts,
    # which forms no temporary the size of the stack
    parts = powers.reshape(powers.shape[:2] + (-1,)).view(float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        frobenius = np.sqrt(np.einsum("...i,...i->...", parts, parts))
        B = powers[np.arange(len(powers)), frobenius.argmax(axis=-1)]
        j = np.linalg.norm(B, axis=-2).argmax(axis=-1)
        v = B.conj().swapaxes(-1, -2) @ np.take_along_axis(B, j[:, None, None], axis=-1)
        lower = np.linalg.norm(B @ v, axis=(-2, -1)) / np.linalg.norm(v, axis=(-2, -1))
        keep = ~(frobenius < (1.0 - 1e-8) * lower[:, None]) | ~np.isfinite(lower)[:, None]
    norms = np.zeros(keep.shape)
    norms[keep] = _singular_values(powers[keep])[:, 0]
    return norms.max(axis=-1)


def _steps(T: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Step defects x_{k+1} - T x_k of a point sequence, one row per step;
    T and the points may carry a leading stack axis."""
    return points[..., 1:, :] - points[..., :-1, :] @ T.swapaxes(-1, -2)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row.  A row whose squares overflow is scaled
    first, as :func:`aluthgelab.aluthge._scaled` scales a matrix, so only a
    norm beyond the float range reads inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(rows, axis=-1)
        big = np.isinf(norms)
        if big.any():
            A, exponent = _scaled(rows[big][:, None, :])
            norms[big] = np.ldexp(np.linalg.norm(A[:, 0], axis=-1), exponent)
    return norms


def _largest(rows: np.ndarray) -> np.ndarray:
    """Largest row norm, 0 for no rows; one per member of a stack."""
    return _row_norms(rows).max(axis=-1, initial=0.0)


@dataclass(frozen=True)
class PseudoOrbit:
    """Finite point sequence x_0..x_N with defect bound delta.

    ``bound`` is the radius of a ball containing every point; for the
    ball-mode orbits of :func:`generate_pseudo_orbit` it is the radius
    the points were drawn from.
    """

    points: np.ndarray
    delta: float
    bound: float

    def __len__(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return _record_to_json(self)


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
        return _record_to_json(self)


def _unit_orbits(seeds, length: int, dim: int) -> np.ndarray:
    """Points (k, length + 1, dim) drawn uniformly from the complex unit
    ball, one ``ensembles._stream`` per seed."""
    g = np.empty((len(seeds), length + 1, 2 * dim))
    r = np.empty((len(seeds), length + 1, 1))
    for i, seed in enumerate(seeds):
        rng = _stream(seed)
        rng.standard_normal(out=g[i])
        rng.random(out=r[i])
    g /= np.linalg.norm(g, axis=-1, keepdims=True)
    g *= r ** (1.0 / (2 * dim))
    return g[..., :dim] + 1j * g[..., dim:]


def _ball_orbits(unit: np.ndarray, norm: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Points and bounds rho = delta / (1 + ||T||) of the ball-mode
    pseudo-orbits with unit-ball points ``unit`` (k, N + 1, n) of a stack
    of operators with spectral norms ``norm``."""
    rho = delta / (1.0 + norm)
    return unit * rho[:, None, None], rho


def generate_pseudo_orbit(T, delta: float, length: int, seed: int) -> PseudoOrbit:
    """Seeded ball-mode delta-pseudo-orbit with N = ``length`` steps
    (N + 1 points).

    Every point is drawn uniformly from the ball of radius
    rho = delta / (1 + ||T||) around the origin, so each defect is at most
    rho + ||T|| rho = delta and the orbit is bounded by rho no matter how
    long it runs: the bounded pseudo-orbits of the bounded shadowing
    property.

    The points are unit-ball draws from a Philox stream seeded by ``seed``,
    scaled by rho; the stacked suites draw theirs the same way, so a
    suite's orbit of T is this function's, bit for bit.  Two calls
    differing only in delta therefore return orbits that are exact scalar
    multiples of each other.

    Raises
    ------
    InvalidDeltaError
        If delta is not a real number (a string is not), or is negative,
        NaN or infinite.
    ValueError
        If length or seed is not an integer, or is negative.
    NonFiniteEntryError
        If an entry is not finite, or ||T|| is beyond the float range.
    """
    T = as_matrix(T)
    try:
        value = _real(delta, "delta")
    except ValueError:
        value = np.nan  # refused with the negative and infinite deltas
    if not 0.0 <= value < np.inf:
        raise InvalidDeltaError(f"delta must be a finite nonnegative number, got {delta!r}")
    length, seed = _integer(length, "length", 0), _integer(seed, "seed", 0)
    points, rho = _ball_orbits(_unit_orbits([seed], length, T.shape[0]), _norms(T[None]), value)
    return PseudoOrbit(points=points[0], delta=value, bound=float(rho[0]))


def _points(points, n: int, name: str) -> np.ndarray:
    """``points`` as an array, refused unless it holds a sequence of finite
    points of dim n.

    Raises
    ------
    SizeMismatchError
        If ``points`` is not of shape (N + 1, n).
    NonFiniteEntryError
        If a point has a NaN or infinite entry.
    """
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[1] != n:
        raise SizeMismatchError(f"expected {name} of shape (N + 1, {n}), got shape {points.shape}")
    if not np.isfinite(points).all():
        raise NonFiniteEntryError(f"{name} contain NaN or infinite entries")
    return points


def orbit_defects(T, orbit: PseudoOrbit) -> np.ndarray:
    """Defect norms ||x_{k+1} - T x_k|| for k = 0..N-1.

    Raises
    ------
    SizeMismatchError, NonFiniteEntryError
        If T or the orbit's points are refused (see :func:`shadow_orbit`),
        and NonFiniteEntryError if a defect overflows.
    """
    T = as_matrix(T)
    points = _points(orbit.points, len(T), "orbit points")
    with np.errstate(over="ignore", invalid="ignore"):
        return _within_range(_row_norms(_steps(T, points)), "orbit defect")


def _scan(z: np.ndarray, A: np.ndarray) -> None:
    """Set z_k <- sum_{j<=k} A^(k-j) z_j in place by prefix doubling, for
    each member of a stack of sequences z (k, N + 1, n) and matrices A.

    Round r adds A^h z_{k-h} to every z_k with h = 2^r, so after it each
    z_k holds the terms j > k - 2h.
    """
    h, length = 1, z.shape[-2]
    while h < length:
        z[:, h:] += z[:, :-h] @ A.swapaxes(-1, -2)
        h *= 2
        if h < length:  # the square after the last round is never used
            A = A @ A


def _corrected(T: np.ndarray, splittings, x: np.ndarray) -> np.ndarray:
    """Shadow points y = x - s + u of a stack of pseudo-orbits x (k, N + 1, n)
    under operators T (k, n, n) with their splittings.

    Both corrections run in one prefix scan over a (2k, N + 1, n) stack:
    rows :k hold s under T P_s, forward, and rows k: hold u under
    T^(-1) P_u, over the reversed sequence.  An empty side stays 0: only
    the members with an unstable side form T^(-1) P_u and project onto it.

    Raises
    ------
    NotInvertibleError
        As described in :func:`shadow_orbit`, for any member.
    UnstableOverflowError
        As described in :func:`shadow_orbit`; the step is taken over all
        members.
    """
    k = len(T)
    Ps = np.stack([split.stable_projector for split in splittings])
    Pu = np.stack([split.unstable_projector for split in splittings])
    has_u = Pu.any(axis=(-2, -1))
    z = np.zeros((2 * k,) + x.shape[1:], dtype=complex)
    A = np.zeros((2 * k,) + T.shape[1:], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        e = _steps(T, x)
        A[:k] = T @ Ps
        A[k:][has_u] = backward = _lapack("solve", T[has_u], Pu[has_u])
        z[:k, 1:] = e @ Ps.swapaxes(-1, -2)
        z[k:][has_u, 1:] = (e[has_u] @ backward.swapaxes(-1, -2))[:, ::-1]
        del e  # the scan runs in place, so the defects need not stay alive
        _scan(z, A)
        overflow = ~(np.linalg.norm(z, axis=-1) <= BACKSUB_OVERFLOW_LIMIT)
    stable, unstable = np.flatnonzero(overflow[:k].any(axis=0)), np.flatnonzero(overflow[k:, ::-1].any(axis=0))
    if unstable.size:
        raise UnstableOverflowError(
            f"unstable back-substitution overflow at step {unstable[-1]}"
        )
    if stable.size:
        raise UnstableOverflowError(f"stable correction overflow at step {stable[0]}")
    y = np.subtract(x, z[:k], out=z[:k])
    y += z[k:, ::-1]
    return y


def _closeness(T: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """epsilon = max_k ||y_k - x_k|| and the residual max_k ||y_{k+1} - T y_k||
    of each member of a stack, recomputed from the points."""
    return _largest(y - x), _largest(_steps(T, y))


def _verified(norm, bound, y, epsilon, residual, claim, residual_factor) -> np.ndarray:
    """The check of :func:`verify_shadowing` for each member of a stack of
    operators with spectral norms ``norm``: the residual is at most
    residual_factor * (1 + ||T||) * max(bound, max_k ||y_k||) and epsilon
    at most the claim; :func:`verify_shadowing` takes RESIDUAL_TOL_FACTOR."""
    tolerance = residual_factor * (1.0 + norm) * np.maximum(bound, _largest(y))
    return (residual <= tolerance) & (epsilon <= claim)


def _shadow(T, splittings, x):
    """Shadow points y, epsilon and residual of a stack of pseudo-orbits x
    (k, N + 1, n) under operators T (k, n, n) with their splittings."""
    y = _corrected(T, splittings, x)
    return (y, *_closeness(T, x, y))


def _transferred(T, conjugacy, x, reverse: bool, sing=(None, None)):
    """Shadow points y, epsilon, residual and constant ||H|| ||H^(-1)|| C of
    a stack of pseudo-orbits x (k, N + 1, n) shadowed across the
    conjugacies ``(D, H, H_inv, factor)`` of operators T (k, n, n), as
    :func:`aluthgelab.aluthge._conjugacy` returns them.

    Forward, each x is an orbit of D_lam(T): it is pulled back by H^(-1),
    shadowed under T and pushed forward by H.  In reverse, each x is an
    orbit of T, pulled back by H, shadowed under D_lam(T) and pushed
    forward by H^(-1).  The operator shadowed under is split here, from
    its singular values in ``sing``, the pair (of T, of D_lam(T)), where
    the caller has them; C is the constant of that splitting, and epsilon
    and the residual are measured against the operator x belongs to.
    """
    D, H, H_inv, factor = conjugacy
    if reverse:
        base, target, pull, push = D, T, H, H_inv
    else:
        base, target, pull, push = T, D, H_inv, H
    splittings = _splittings(base, sing[reverse])
    y = _corrected(base, splittings, x @ pull.swapaxes(-1, -2)) @ push.swapaxes(-1, -2)
    return (y, *_closeness(target, x, y), factor * [split.constant_bound for split in splittings])


def shadow_orbit(T, splitting: HyperbolicSplitting, orbit: PseudoOrbit) -> ShadowResult:
    """True orbit within C * delta of the pseudo-orbit.

    The stable correction solves s_{k+1} = (T P_s) s_k + P_s e_k and the
    unstable one u_k = (T^(-1) P_u)(e_k + u_{k+1}), truncating the series
    at the available defects; returns y_k = x_k + (u_k - s_k) together
    with the achieved epsilon, the recomputed residual, and the constant C.
    Both linear recursions run as one prefix scan over the two sides
    stacked, by doubling: the unstable one runs forward over the reversed
    sequence, and the scan takes ceil(log2 (N + 1)) batched products with
    squared propagators instead of N matrix-vector steps.

    Raises
    ------
    SizeMismatchError
        If T is not square or has no rows, the orbit's points are not of
        shape (N + 1, n) for T of size n, or the splitting is not of size n.
    NonFiniteEntryError
        If an entry of T or of a point is NaN or infinite.
    NotInvertibleError
        If the splitting has an unstable side and the solve that forms
        T^(-1) P_u finds T singular; the splitting then does not belong to
        this operator.
    UnstableOverflowError
        If either correction overflows; the splitting then does not belong
        to this operator.  Both are checked once, after the scan, and the
        message names the side and the step where its recursion first
        crosses BACKSUB_OVERFLOW_LIMIT (or turns non-finite): the first
        such step for the forward stable recursion, the last one for the
        backward unstable recursion.
    """
    T = as_matrix(T)
    n = len(T)
    if splitting.stable_projector.shape != (n, n) or splitting.unstable_projector.shape != (n, n):
        raise SizeMismatchError(
            f"splitting of size {splitting.stable_projector.shape} does not fit an operator of size {n}"
        )
    y, epsilon, residual = _shadow(T[None], [splitting], _points(orbit.points, n, "orbit points")[None])
    return ShadowResult(
        shadow_points=y[0],
        epsilon=float(epsilon[0]),
        orbit_residual=float(residual[0]),
        constant_bound=splitting.constant_bound,
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
    ValueError
        If lambda is not a real number in (0, 1), or reverse is not a
        Python or numpy bool.
    SizeMismatchError, NonFiniteEntryError
        If T or the orbit's points are refused (see :func:`shadow_orbit`), or a conjugator norm overflows.
    NotInvertibleError
        If T is numerically singular (no conjugacy exists).
    NotHyperbolicError
        Propagated from the splitting of the shadowing operator.
    """
    T = as_matrix(T)
    lam = check_lambda(lam)
    if not isinstance(reverse, (bool, np.bool_)):
        raise ValueError(f"reverse must be a bool, got {reverse!r}")
    x = _points(orbit_for_transform.points, len(T), "orbit points")
    y, epsilon, residual, constant = _transferred(T[None], _conjugacy(_svd(T[None]), lam), x[None], bool(reverse))
    return ShadowResult(
        shadow_points=y[0],
        epsilon=float(epsilon[0]),
        orbit_residual=float(residual[0]),
        constant_bound=float(constant[0]),
    )


def verify_shadowing(T, orbit: PseudoOrbit, shadow: ShadowResult, eps_claim: float) -> bool:
    """Check a claimed shadow independently.

    Recomputes both diagnostics from the points: the shadow must be a true
    orbit of T up to the tolerance
    RESIDUAL_TOL_FACTOR * (1 + ||T||) * max(orbit.bound, max_k ||y_k||),
    and must stay within ``eps_claim`` of the pseudo-orbit.  The residual
    is roundoff in T y_k, so it scales with the shadow, which can be far
    larger than the pseudo-orbit when the projectors are large.

    Raises
    ------
    SizeMismatchError, NonFiniteEntryError
        If T or either point sequence is refused (see :func:`shadow_orbit`),
        and NonFiniteEntryError if the distance or the residual overflows.
    LengthMismatchError
        If the two point sequences have different length.
    ValueError
        If ``eps_claim`` or ``orbit.bound`` is not a real number, or is NaN.
    """
    T = as_matrix(T)[None]
    n = T.shape[-1]
    x, y = _points(orbit.points, n, "orbit points")[None], _points(shadow.shadow_points, n, "shadow points")[None]
    if x.shape[1] != y.shape[1]:
        raise LengthMismatchError(f"orbit has {x.shape[1]} points, shadow has {y.shape[1]}")
    claim, bound = _real(eps_claim, "eps_claim"), _real(orbit.bound, "orbit bound")
    norm = _norms(T)
    # a tolerance that overflows is only looser than every finite residual
    with np.errstate(over="ignore", invalid="ignore"):
        closeness = map(_within_range, _closeness(T, x, y), ("shadow distance", "orbit residual"))
        return bool(_verified(norm, bound, y, *closeness, claim, RESIDUAL_TOL_FACTOR)[0])

