"""Micro-benchmarks of single calls, one per layer metric in the ROADMAP list.

Inputs come from seeded ``sample_matrix`` draws.  Each call is warmed up
once, then timed in batches long enough to read the clock reliably; the
reported time per call is the median over the batches.
"""

from __future__ import annotations

import statistics
import time

from aluthgelab import aluthge, ensembles, shadowing, spectral
from aluthgelab.linalg_core import eigenvalues

TRANSFORM_SIZES = (4, 16, 64, 256)
ITERATE_SIZES = (4, 64)
SPLITTING_SIZES = (8, 32)
#: Iterate steps timed beyond the one-step baseline.
ITERATE_EXTRA_STEPS = 10
ORBIT_DIM = 8
ORBIT_LENGTH = 2000
FALSIFIER_DIM = 8
FALSIFIER_N_MAX = 20
SAMPLE_DIM = 8
SAMPLE_DRAWS = 20


def per_call_seconds(fn, quick: bool) -> float:
    """Median seconds per call of ``fn()`` after one warm-up call."""
    batch_target = 0.01 if quick else 0.05
    batches = 3 if quick else 7
    fn()
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    calls = max(1, int(batch_target / max(once, 1e-7)))
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def sample(kind: str, dim: int, seed: int, **extra):
    return ensembles.sample_matrix(ensembles.EnsembleSpec(kind=kind, dim=dim, seed=seed, **extra))


def run_micro(seed: int, quick: bool) -> dict[str, float]:
    metrics: dict[str, float] = {}

    for n in TRANSFORM_SIZES:
        T = sample("invertible", n, seed)
        metrics[f"aluthge.transform_us.n{n}"] = 1e6 * per_call_seconds(
            lambda: aluthge.aluthge_transform(T, 0.5), quick
        )

    for n in ITERATE_SIZES:
        T = sample("invertible", n, seed)
        short = 1
        long = short + ITERATE_EXTRA_STEPS
        steps = len(aluthge.aluthge_iterates(T, 0.5, long)) - len(aluthge.aluthge_iterates(T, 0.5, short))
        t_long = per_call_seconds(lambda: aluthge.aluthge_iterates(T, 0.5, long), quick)
        t_short = per_call_seconds(lambda: aluthge.aluthge_iterates(T, 0.5, short), quick)
        metrics[f"aluthge.iterate_step_us.n{n}"] = 1e6 * (t_long - t_short) / max(steps, 1)

    for n in SPLITTING_SIZES:
        T = sample("hyperbolic", n, seed, gap=0.2)
        metrics[f"shadowing.splitting_ms.n{n}"] = 1e3 * per_call_seconds(
            lambda: shadowing.hyperbolic_splitting(T), quick
        )

    T = sample("hyperbolic", ORBIT_DIM, seed, gap=0.2)
    split = shadowing.hyperbolic_splitting(T)
    orbit = shadowing.generate_pseudo_orbit(T, 1e-2, ORBIT_LENGTH, seed)
    shadow = shadowing.shadow_orbit(T, split, orbit)
    claim = shadow.constant_bound * 1e-2 + 1e-9
    metrics["shadowing.shadow_us_per_step"] = 1e6 * per_call_seconds(
        lambda: shadowing.shadow_orbit(T, split, orbit), quick
    ) / ORBIT_LENGTH
    metrics["shadowing.verify_us_per_step"] = 1e6 * per_call_seconds(
        lambda: shadowing.verify_shadowing(T, orbit, shadow, claim), quick
    ) / ORBIT_LENGTH

    # The falsifier on one quasi-hyperbolic and one unitary operator,
    # as in the quasihyp suite; time per exponent actually searched.
    total_s, exponents = 0.0, 0
    for T in (sample("hyperbolic", FALSIFIER_DIM, seed, gap=0.3), sample("unitary", FALSIFIER_DIM, seed)):
        verdict = spectral.quasi_hyperbolic_definitional(T, n_max=FALSIFIER_N_MAX, seed=seed)
        searched_all = not verdict.verdict or verdict.budget_exhausted
        exponents += FALSIFIER_N_MAX if searched_all else verdict.exponent
        total_s += per_call_seconds(
            lambda: spectral.quasi_hyperbolic_definitional(T, n_max=FALSIFIER_N_MAX, seed=seed), True
        )
    metrics["spectral.falsifier_ms_per_exponent"] = 1e3 * total_s / exponents

    T = sample("invertible", ORBIT_DIM, seed)
    before, after = eigenvalues(T), eigenvalues(aluthge.aluthge_transform(T, 0.5))
    metrics["spectral.multiset_match_us"] = 1e6 * per_call_seconds(
        lambda: spectral.multiset_match(before, after, 1e-7), quick
    )

    for kind, extra in (("invertible", {}), ("hyperbolic", {"gap": 0.2})):
        seeds = range(seed, seed + SAMPLE_DRAWS)
        metrics[f"ensembles.sample_us.{kind}"] = 1e6 * per_call_seconds(
            lambda: [sample(kind, SAMPLE_DIM, s, **extra) for s in seeds], quick
        ) / SAMPLE_DRAWS
    return metrics
