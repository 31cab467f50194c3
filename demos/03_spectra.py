#!/usr/bin/env python3
"""Spectral invariance: T and D_lam(T) share the same eigenvalue multiset.

For invertible T this is a similarity D_lam(T) = H T H^(-1) with H = |T|^lam,
and the conjugator comes with exact norm constants.
"""
import numpy as np

from aluthgelab import (
    aluthge_transform,
    conjugator,
    multiset_match,
    operator_norm,
    spectrum_report,
)


def show(label, T):
    rep = spectrum_report(T)
    print(label)
    print("  eigenvalues     :", np.round(rep.eigenvalues, 6))
    print("  spectral radius :", round(rep.spectral_radius, 6))
    print("  circle distance :", round(rep.circle_distance, 6))
    print("  hyperbolic      :", rep.hyperbolic)
    return rep


rng = np.random.Generator(np.random.Philox(11))
T = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))

rep_T = show("T (random complex 5x5)", T)
for lam in (0.1, 0.5, 0.9):
    D = aluthge_transform(T, lam)
    rep_D = spectrum_report(D)
    match = multiset_match(rep_T.eigenvalues, rep_D.eigenvalues, tol=1e-7 * (1 + operator_norm(T)))
    print(f"lam={lam}: spectra match = {match.matched}, worst pairing distance = {match.max_distance:.3e}")
print()

# the similarity behind the invariance
conj = conjugator(T, lam=0.5)
D = aluthge_transform(T, 0.5)
residual = operator_norm(conj.matrix @ T @ np.linalg.inv(conj.matrix) - D)
print("conjugator H = |T|^(1/2)")
print("  ||H||       =", round(conj.norm, 6))
print("  ||H^(-1)||  =", round(conj.inverse_norm, 6))
print("  ||H T H^(-1) - D(T)|| =", f"{residual:.3e}")
print()

# multiset matching pairs eigenvalues by distance, not by sorted modulus,
# so near-ties in modulus are safe
a = np.array([1.0 + 0.0j, 1.0j])
b = np.array([1.0j, 1.0 + 1e-9j])
print("match {1, i} against {i, 1+1e-9i}:", multiset_match(a, b, tol=1e-8))
print("match {1, i} against {1, -i}   :", multiset_match(a, np.array([1.0, -1.0j]), tol=1e-8))
