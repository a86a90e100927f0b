"""Flat Dirichlet box: both numerical routes against the closed form.

E_n = hbar^2 n^2 pi^2 / 4 b^2 is known exactly, which makes this model the
calibration target: the weighted-polynomial variational solver should hit it
to ~1e-12 and the Numerov shooting oracle to ~1e-8, with mode counting
confirming that only half of the cos/sin family survives the walls.
"""

import numpy as np

from boxaffine import (BoxGeometry, CqBox, classify_trig_modes, compute_spectrum, cq_eigenvalue,
                       shooting)

geom = BoxGeometry(b=1.0, hbar=1.0)
model = CqBox(geom)

print("Mode family bookkeeping (which trig candidates vanish at both walls):")
accepted, rejected = classify_trig_modes(6)
for a, r in zip(accepted, rejected):
    print(f"  n={a.n}: accepted {a.kind:<7}  rejected {r.kind}")
print()

spec = compute_spectrum(model, 32, n_diagnostics=8)
sh = shooting.spectrum(model, 8, tol=1e-9, grid_size=20001)

print(f"{'n':>3} {'exact':>16} {'variational':>16} {'shooting':>16} {'rel err (var)':>14} {'rel err (sh)':>14}")
for n in range(1, 9):
    exact = cq_eigenvalue(n, geom)
    e_rr = spec.eigenvalues[n - 1]
    e_sh = sh.eigenvalues[n - 1]
    print(f"{n:>3} {exact:16.10f} {e_rr:16.10f} {e_sh:16.10f} "
          f"{abs(e_rr - exact) / exact:14.2e} {abs(e_sh - exact) / exact:14.2e}")

print()
print("Level diagnostics from the variational side:")
for lv in spec.levels[:4]:
    print(f"  level {lv.index}: parity {lv.parity:<5} nodes {lv.node_count} "
          f"wall exponent {lv.boundary_exponent:.4f} residual {lv.residual_norm:.1e}")
print()
print("The wall exponent ~1 says the modes vanish linearly at the walls, the")
print("behavior whose zero extension produces the delta obstruction of demo 01.")
