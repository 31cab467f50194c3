#!/usr/bin/env python3
"""Quasi-hyperbolicity two ways.

An operator is quasi-hyperbolic when max(||T^{2n} x||, ||x||) >= 2 ||T^n x||
for all n >= 1 and all x.  For matrices this is equivalent to the spectrum
avoiding the unit circle, so there is a spectral route and a definitional
route that decides the inequality itself, exponent by exponent: for each n
it either certifies the inequality for every x or produces a violating
unit vector (a witness).  The two routes must agree.
"""
import numpy as np

from aluthgelab import (
    aluthge_transform,
    is_quasi_hyperbolic_spectral,
    quasi_hyperbolic_definitional,
)

saddle = np.diag([2.0, 0.5])
rotation = np.array([[0.0, -1.0], [1.0, 0.0]])

print("spectral verdicts")
for label, T in (("diag(2, 1/2)", saddle), ("rotation by pi/2", rotation)):
    v = is_quasi_hyperbolic_spectral(T)
    print(f"  {label:18s}: quasi-hyperbolic = {v.verdict}, circle distance = {v.margin:.4f}")
print()

# the definitional decision on the saddle: exponent n = 1 admits a
# violating vector (split mass between the expanding and contracting
# directions), but from n = 2 on the inequality holds for every unit vector
v = quasi_hyperbolic_definitional(saddle, n_max=5)
print("definitional, diag(2, 1/2):")
print("  verdict  :", v.verdict)
print("  exponent :", v.exponent, "(smallest n at which the inequality holds)")
print("  margin   :", round(v.margin, 6))
assert v.verdict and v.exponent == 2

# a unitary is never quasi-hyperbolic: every vector violates every exponent
v = quasi_hyperbolic_definitional(rotation, n_max=3)
print("definitional, rotation:")
print("  verdict  :", v.verdict)
print("  exponent :", v.exponent)
print("  margin   :", round(v.margin, 6))
print("  witness  :", np.round(v.witness, 6))
x = v.witness
n = v.exponent
Tn = np.linalg.matrix_power(rotation, n)
lhs = max(np.linalg.norm(Tn @ (Tn @ x)), np.linalg.norm(x))
print("  check    : max(||T^2n x||, ||x||) - 2||T^n x|| =", round(lhs - 2 * np.linalg.norm(Tn @ x), 6))
print()

# the transform preserves the property: verdicts agree for T and D_lam(T)
for lam in (0.25, 0.5, 0.75):
    D = aluthge_transform(saddle + 0.1 * np.ones((2, 2)), lam)
    a = is_quasi_hyperbolic_spectral(saddle + 0.1 * np.ones((2, 2))).verdict
    b = is_quasi_hyperbolic_spectral(D).verdict
    print(f"lam={lam}: verdict(T) = {a}, verdict(D_lam(T)) = {b}")
