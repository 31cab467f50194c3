"""Known faults planted in the conjugacy path, and which of them the
transfer suite catches at the north-star size (100 trials, seed 1).

Each mutant replaces one private core as the suites see it: the
conjugacy core ``_conjugacy``, which forms D_lam(T), H, H^(-1) and
||H|| ||H^(-1)||, or the transfer core ``_transferred``, which picks the
roles of a direction.  A mutant is caught when the report records a
failure.  A survivor is listed with the open work meant to catch it, so
the list cannot grow without a test changing.
"""

import numpy as np
import pytest

from aluthgelab import aluthge, run_suite, shadowing, suites

TRIALS, SEED = 100, 1


def _conjugacy_with(fault):
    """The conjugacy core with ``fault`` applied to ``(D, H, H_inv, factor)``."""
    real = aluthge._conjugacy
    return lambda parts, lam: fault(real(parts, lam), parts, lam)


def _directions_swapped(T, conjugacy, x, reverse, sing):
    return shadowing._transferred(T, conjugacy, x, not reverse, sing)


# name -> (the name replaced in suites, the replacement)
MUTANTS = {
    "transform at 1 - lambda": (
        "_conjugacy",
        _conjugacy_with(lambda c, parts, lam: (aluthge._transform(parts, 1.0 - lam), *c[1:])),
    ),
    "transform ignores lambda": (
        "_conjugacy",
        _conjugacy_with(lambda c, parts, lam: (aluthge._transform(parts, 0.5), *c[1:])),
    ),
    "inverse formed with exponent +lambda": (
        "_conjugacy",
        _conjugacy_with(lambda c, parts, lam: (c[0], c[1], aluthge._modulus_power(parts, lam), c[3])),
    ),
    "conjugator and inverse swapped": ("_conjugacy", _conjugacy_with(lambda c, *_: (c[0], c[2], c[1], c[3]))),
    "inverse negated": ("_conjugacy", _conjugacy_with(lambda c, *_: (c[0], c[1], -c[2], c[3]))),
    "factor dropped": ("_conjugacy", _conjugacy_with(lambda c, *_: (*c[:3], np.ones_like(c[3])))),
    "factor halved": ("_conjugacy", _conjugacy_with(lambda c, *_: (*c[:3], c[3] / 2))),
    "directions swapped": ("_transferred", _directions_swapped),
}

# passes out of 100 when measured: 20 for both transform faults (the
# lambda = 0.5 trials are unaffected), 0 for both inverse faults
CAUGHT = {
    "transform at 1 - lambda",
    "transform ignores lambda",
    "inverse formed with exponent +lambda",
    "conjugator and inverse swapped",
}

# the suite's ball orbits lie within delta / (1 + ||T||) of the origin,
# far inside the claim ||H|| ||H^(-1)|| C delta, so neither a smaller claim
# nor a shadow near the wrong orbit is seen; pseudo-orbits that reach the
# claim, and orbits away from the origin, are ROADMAP item 2's
# adversarial orbits
_ADVERSARIAL = "ROADMAP item 2: adversarial pseudo-orbits that reach the claim"
SURVIVORS = {
    "factor dropped": _ADVERSARIAL,
    "factor halved": _ADVERSARIAL,
    "directions swapped": _ADVERSARIAL,
    "inverse negated": _ADVERSARIAL,
}


def test_the_unmutated_transfer_suite_passes():
    assert run_suite("transfer", TRIALS, SEED).all_passed


def test_every_mutant_is_caught_or_a_listed_survivor():
    assert not CAUGHT & set(SURVIVORS)
    assert set(MUTANTS) == CAUGHT | set(SURVIVORS)
    assert sorted(SURVIVORS) == ["directions swapped", "factor dropped", "factor halved", "inverse negated"]


@pytest.mark.parametrize("name", MUTANTS)
def test_transfer_suite_catches_exactly_the_caught_mutants(name, monkeypatch):
    entry, replacement = MUTANTS[name]
    monkeypatch.setattr(suites, entry, replacement)
    report = run_suite("transfer", TRIALS, SEED)
    assert report.all_passed == (name in SURVIVORS), report.passes
