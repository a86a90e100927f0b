"""Half-line oscillator benchmark: the solvable cousin of the singular box.

H = [ -hbar^2 d^2/dx^2 + (3/4) hbar^2 / x^2 + x^2 ] / 2 on x > 0 carries the
same inverse-square wall strength (relative to its kinetic term) as the
singular box, but is exactly solvable: E_k = 2 hbar (k + 1) with
eigenfunctions x^{3/2} L_k^{(1)}(x^2/hbar) exp(-x^2/2 hbar).  That makes it
the calibration case for everything the shooting oracle does near an
inverse-square wall.
"""

import numpy as np

from boxaffine import (HalfHarmonic, boundary_exponent_probe, half_ho_eigenfunction,
                       half_ho_eigenvalue, shooting)

print(f"{'hbar':>6} {'k':>3} {'exact':>14} {'shooting':>16} {'rel err':>12}")
for hbar in (0.5, 1.0, 2.0):
    model = HalfHarmonic(hbar)
    for k, e in enumerate(shooting.spectrum(model, 5, tol=1e-9, grid_size=20001).eigenvalues):
        exact = half_ho_eigenvalue(k, hbar)
        print(f"{hbar:>6} {k:>3} {exact:14.6f} {e:16.10f} {abs(e - exact) / exact:12.2e}")
print()

sh = shooting.spectrum(HalfHarmonic(1.0), 3, tol=1e-9)
print("Shape agreement with the closed form (normalized overlap = cos angle):")
for k in (0, 1, 2):
    shot = shooting.numerov_integrate(sh.model, sh.eigenvalues[k], sh.grid_size)
    ref = half_ho_eigenfunction(k, shot.xs, 1.0)
    cosine = abs(shot.psi @ ref) / np.sqrt((shot.psi @ shot.psi) * (ref @ ref))
    print(f"  k={k}: overlap = {cosine:.12f}")
print()

print("Wall exponent at the origin (expected 3/2 from the (3/4) hbar^2/x^2 term):")
for hbar in (0.5, 1.0, 2.0):
    slope = boundary_exponent_probe(HalfHarmonic(hbar), half_ho_eigenvalue(0, hbar))
    print(f"  hbar={hbar}: fitted slope {slope:.4f}")
print()
print("The x^{3/2} factor keeps the first derivative continuous at the wall,")
print("which is exactly what the inverse-square box walls buy on both sides.")
