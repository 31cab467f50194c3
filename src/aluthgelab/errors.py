"""Exception types raised by aluthgelab.

Every error raised by this package derives from :class:`AluthgeLabError`,
so callers can catch the whole family with one clause.  Numerical backends
never leak their own exceptions through the public API.
"""


class AluthgeLabError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteEntryError(AluthgeLabError):
    """A matrix contains NaN or infinite entries, or a number derived from
    it (singular value, |eigenvalue|, defect, conjugator norm) overflows."""


class NoConvergenceError(AluthgeLabError):
    """An iterative factorization exhausted its budget without converging."""


class NotInvertibleError(AluthgeLabError):
    """A matrix required to be invertible is numerically singular."""


class NotHyperbolicError(AluthgeLabError):
    """The spectrum touches the unit circle, or the operator is singular,
    so no hyperbolic splitting exists."""


class InvalidDeltaError(AluthgeLabError):
    """A pseudo-orbit defect bound is not a real number, or is negative,
    NaN or infinite."""


class SizeMismatchError(AluthgeLabError):
    """Two collections that must have equal size do not, or a matrix
    that must be square is not."""


class LengthMismatchError(AluthgeLabError):
    """Two point sequences that must have equal length do not."""


class InvalidSpecError(AluthgeLabError):
    """An ensemble specification is inconsistent."""


class UnstableOverflowError(AluthgeLabError):
    """A shadow correction overflowed: the forward sum along the stable
    subspace or the back-substitution along the unstable one."""
