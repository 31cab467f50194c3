"""Known faults planted in private cores, and exactly which verify suites
catch each of them at the north-star size (100 trials, seed 1).

Each mutant replaces one private core as the suites see it:
- the conjugacy core ``_conjugacy``, which forms D_lam(T), H, H^(-1) and
  ||H|| ||H^(-1)||, or the transfer core ``_transferred``, which picks the
  roles of a direction; only the transfer suite reads these two;
- the splitting core ``_splittings``, read by the shadowing suite and,
  through ``_transferred``, by the transfer suite;
- the transform core ``_transform``, read by the spectral, fixedpoint and
  quasihyp suites, by ``_conjugacy`` and by every iterate step;
- the shadowing constant ``HyperbolicSplitting.constant_bound``, read by
  the shadowing and transfer suites;
- the definitional core ``_decide`` of the quasihyp suite, the multiset
  match of the spectral suite and the iterate core ``_iterate`` of the
  iterates suite.
A suite catches a mutant when its report records a failure.  A survivor,
caught by no suite, is listed with the open work meant to catch it, so the
list cannot grow without a test changing.
"""

import dataclasses

import numpy as np
import pytest

from aluthgelab import SUITE_NAMES, aluthge, run_suite, shadowing, spectral, suites
from aluthgelab.linalg_core import SvdParts

TRIALS, SEED = 100, 1


def _conjugacy_with(fault):
    """The conjugacy core with ``fault`` applied to ``(D, H, H_inv, factor)``."""
    real = aluthge._conjugacy
    return lambda parts, lam: fault(real(parts, lam), parts, lam)


def _directions_swapped(T, conjugacy, x, reverse, sing):
    return shadowing._transferred(T, conjugacy, x, not reverse, sing)


def _projectors_swapped(stack, sing=None, real=shadowing._splittings):
    """Each splitting with P_s and P_u exchanged."""
    return [
        dataclasses.replace(split, stable_projector=split.unstable_projector, unstable_projector=split.stable_projector)
        for split in real(stack, sing)
    ]


def _factors_swapped(parts, lam, real=aluthge._transform):
    """The transform with the SVD factors W and V exchanged: its polar
    factor is U* = V W* in place of U = W V*."""
    return real(SvdParts(parts.right, parts.singular_values, parts.left), lam)


def _transform_at(lam_of, real=aluthge._transform):
    """The transform core at the lambda ``lam_of`` maps each lambda to."""
    return lambda parts, lam: real(parts, lam_of(lam))


def _constant_scaled(factor, real=shadowing.HyperbolicSplitting.constant_bound):
    """The shadowing constant C of every splitting, times ``factor``."""
    return property(lambda split: factor * real.fget(split))


def _holds_one_exponent_early(stack, n_max, real=spectral._decide):
    """Each definitional hold reported at the exponent below its own."""
    return [
        dataclasses.replace(verdict, exponent=verdict.exponent - 1)
        if verdict.verdict and not verdict.budget_exhausted
        else verdict
        for verdict in real(stack, n_max)
    ]


def _tolerance_ignored(a, b, tol, real=spectral.multiset_match):
    """The multiset match with its tolerance ignored: only spectra equal
    bit for bit, up to order, match."""
    return real(a, b, 0.0)


def _norms_one_step_late(*args, real=aluthge._iterate, **kwargs):
    """Each member's iterate norms read one step late: iterate j reports
    the norm of iterate j - 1, the start norm its own."""
    norms, *rest = real(*args, **kwargs)
    return ([np.concatenate([norm[:1], norm[:-1]]) for norm in norms], *rest)


# name -> (the (module, name) pairs replaced, the replacement, the suites
# that catch it).  Passes out of 100 when measured: 20 in transfer for
# both transform faults in the conjugacy core (the lambda = 0.5 trials are
# unaffected), 0 for both inverse faults; 0 in shadowing and transfer for
# the swapped projectors; 76 in spectral and 20 in transfer for both
# faults in the transform core (the spectral suite's closed form of its
# shift trials misses the 7 at lambda = 0.5 and the 2 others of dim 2,
# whose transform is 0 at every lambda); 33 in spectral (the draws whose
# spectrum is closed under conjugation) and 0 in fixedpoint and transfer
# for U*; 92 in shadowing and transfer for C x 0.1, 100 everywhere for
# C x 0.5; 33 in spectral (the draws whose spectra agree bit for bit) for
# the ignored tolerance; 100 everywhere for the early hold and the late norm
MUTANTS = {
    "transform at 1 - lambda": (
        [(suites, "_conjugacy")],
        _conjugacy_with(lambda c, parts, lam: (aluthge._transform(parts, 1.0 - lam), *c[1:])),
        {"transfer"},
    ),
    "transform ignores lambda": (
        [(suites, "_conjugacy")],
        _conjugacy_with(lambda c, parts, lam: (aluthge._transform(parts, 0.5), *c[1:])),
        {"transfer"},
    ),
    "inverse formed with exponent +lambda": (
        [(suites, "_conjugacy")],
        _conjugacy_with(lambda c, parts, lam: (c[0], c[1], aluthge._modulus_power(parts, lam), c[3])),
        {"transfer"},
    ),
    "conjugator and inverse swapped": (
        [(suites, "_conjugacy")],
        _conjugacy_with(lambda c, *_: (c[0], c[2], c[1], c[3])),
        {"transfer"},
    ),
    "inverse negated": ([(suites, "_conjugacy")], _conjugacy_with(lambda c, *_: (c[0], c[1], -c[2], c[3])), set()),
    "factor dropped": (
        [(suites, "_conjugacy")],
        _conjugacy_with(lambda c, *_: (*c[:3], np.ones_like(c[3]))),
        set(),
    ),
    "factor halved": ([(suites, "_conjugacy")], _conjugacy_with(lambda c, *_: (*c[:3], c[3] / 2)), set()),
    "directions swapped": ([(suites, "_transferred")], _directions_swapped, set()),
    "P_s and P_u swapped": (
        [(suites, "_splittings"), (shadowing, "_splittings")],
        _projectors_swapped,
        {"shadowing", "transfer"},
    ),
    # the iterates and quasihyp suites miss it: D_lam(T*) has the moduli
    # of T's eigenvalues, so neither the norm limit nor a hyperbolicity
    # verdict moves
    "U replaced by U*": (
        [(aluthge, "_transform"), (suites, "_transform")],
        _factors_swapped,
        {"spectral", "fixedpoint", "transfer"},
    ),
    # planted in the core itself.  The iterates suite runs at lambda = 0.5
    # alone, where both faults change nothing; fixedpoint and quasihyp
    # miss them, as the transform at any lambda fixes a normal operator
    # and is similar to an invertible one, so no verdict moves
    "transform core at 1 - lambda": (
        [(aluthge, "_transform"), (suites, "_transform")],
        _transform_at(lambda lam: 1.0 - lam),
        {"spectral", "transfer"},
    ),
    "transform core ignores lambda": (
        [(aluthge, "_transform"), (suites, "_transform")],
        _transform_at(lambda lam: 0.5),
        {"spectral", "transfer"},
    ),
    "C x 0.5": ([(shadowing.HyperbolicSplitting, "constant_bound")], _constant_scaled(0.5), set()),
    "C x 0.1": (
        [(shadowing.HyperbolicSplitting, "constant_bound")],
        _constant_scaled(0.1),
        {"shadowing", "transfer"},
    ),
    "definitional hold one exponent early": ([(suites, "_decide")], _holds_one_exponent_early, set()),
    "multiset_match ignores its tolerance": ([(suites, "multiset_match")], _tolerance_ignored, {"spectral"}),
    "iterate norm read one step late": ([(suites, "_iterate")], _norms_one_step_late, set()),
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
    # the worst epsilon / (C delta) over the shadowing trials lies in
    # (0.28, 0.29]: C x 0.28 fails one trial, C x 0.29 none
    "C x 0.5": _ADVERSARIAL,
    # the suite compares only the verdict with the spectral one
    "definitional hold one exponent early": "ROADMAP item 3: exact checks of the reported exponent",
    # the core stops each trial at the first iterate that meets both
    # criteria; in every trial that converges, the iterate before it
    # already meets the norm one
    "iterate norm read one step late": "ROADMAP item 5: per-trial iterate records the report checks",
}


def _plant(name, monkeypatch):
    where, replacement, _ = MUTANTS[name]
    for module, attr in where:
        monkeypatch.setattr(module, attr, replacement)


def test_the_unmutated_transfer_suite_passes():
    assert run_suite("transfer", TRIALS, SEED).all_passed


def test_every_mutant_is_caught_or_a_listed_survivor():
    assert {name for name, (*_, catchers) in MUTANTS.items() if not catchers} == set(SURVIVORS)
    assert sorted(SURVIVORS) == [
        "C x 0.5",
        "definitional hold one exponent early",
        "directions swapped",
        "factor dropped",
        "factor halved",
        "inverse negated",
        "iterate norm read one step late",
    ]
    assert all(catchers <= set(SUITE_NAMES) for *_, catchers in MUTANTS.values())


@pytest.mark.parametrize("name", MUTANTS)
def test_transfer_suite_catches_exactly_the_caught_mutants(name, monkeypatch):
    _plant(name, monkeypatch)
    report = run_suite("transfer", TRIALS, SEED)
    assert report.all_passed == ("transfer" not in MUTANTS[name][2]), report.passes


@pytest.mark.parametrize("name", MUTANTS)
def test_the_other_suites_catch_exactly_their_listed_mutants(name, monkeypatch):
    _plant(name, monkeypatch)
    others = [run_suite(suite, TRIALS, SEED) for suite in SUITE_NAMES if suite != "transfer"]
    caught = {report.suite for report in others if not report.all_passed}
    assert caught == MUTANTS[name][2] - {"transfer"}, {report.suite: report.passes for report in others}
