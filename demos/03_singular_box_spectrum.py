"""The box with inverse-square walls: an open spectrum, solved two ways.

The potential hbar^2 (2x^2 + b^2)/(b^2 - x^2)^2 replaces the hard walls with
a (3/4) hbar^2 / s^2 barrier at each side, which forces eigenfunctions to
vanish like s^{3/2}.  No closed-form spectrum is known, so the numbers below
are cross-validated: a variational solve in the (b^2-x^2)^{3/2}-weighted
Gegenbauer basis, whose matrices have a closed form, against an independent
Numerov shooting search.
"""

import numpy as np

from boxaffine import (AqBox, BoxGeometry, boundary_exponent_probe, compute_spectrum,
                       convergence_sweep, cq_eigenvalue, eigenvalue_search)

geom = BoxGeometry(b=1.0, hbar=1.0)
model = AqBox(geom)

print("Variational convergence in the basis size N (each row nonincreasing):")
table = convergence_sweep(model, (8, 16, 24, 32, 48), 6)
header = f"{'N':>4}" + "".join(f"{f'E{k}':>16}" for k in range(6))
print(header)
for n, row in zip(table.sizes, table.energies):
    print(f"{n:>4}" + "".join(f"{e:16.10f}" for e in row))
print(f"last-step relative change: {np.max(table.final_change):.2e}")
print()

spec = compute_spectrum(model, 48, n_diagnostics=6)

print("Cross-validation against the shooting oracle:")
print(f"{'k':>3} {'variational':>16} {'shooting':>16} {'rel delta':>12} {'parity':>7} {'nodes':>6}")
for k in range(6):
    e_rr = spec.eigenvalues[k]
    e_sh = eigenvalue_search(model, k, tol=1e-9, grid_size=40001)
    lv = spec.levels[k]
    print(f"{k:>3} {e_rr:16.10f} {e_sh:16.10f} {abs(e_sh - e_rr) / e_rr:12.2e} "
          f"{lv.parity:>7} {lv.node_count:>6}")
print()

print("Wall behavior (fitted log-slope of |psi| over s in [1e-4, 1e-2]):")
e0 = eigenvalue_search(model, 0, tol=1e-9, grid_size=40001)
print(f"  variational level 0: {spec.levels[0].boundary_exponent:.4f}")
print(f"  shooting    level 0: {boundary_exponent_probe(model, e0):.4f}")
print("  -> psi ~ (b^2 - x^2)^{3/2} * (smooth), so TWO derivatives stay")
print("     continuous through the walls and the delta obstruction of the")
print("     flat box never appears.")
print()

print("For scale: the flat box with the same geometry has")
for n in (1, 2, 3):
    print(f"  flat E_{n - 1} = {cq_eigenvalue(n, geom):14.10f}   "
          f"singular-wall E_{n - 1} = {spec.eigenvalues[n - 1]:14.10f}")
print("(the inverse-square walls push every level up, as they must).")
