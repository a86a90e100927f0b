"""Tour of the model potentials and their wall asymptotics.

Four variants share one geometry vocabulary: the flat box (zero potential,
hard walls), the inverse-square-wall box, the half-line oscillator, and the
exterior 'anti-box' with an optional W/|x| pull toward the walls (evaluation
only -- its exterior spectrum is out of scope).
"""

import numpy as np

from boxaffine import (AntiBox, AqBox, BoxGeometry, CqBox, HalfHarmonic,
                       boundary_asymptotic_ratio, evaluate_potential, singularity_metadata)

geom = BoxGeometry(b=1.0, hbar=1.0)
aq = AqBox(geom)

print("Inverse-square-wall box, V = hbar^2 (2x^2 + b^2)/(b^2 - x^2)^2:")
print(f"{'x':>8} {'V(x)':>14} {'V / wall asymptote':>20}")
for x in (0.0, 0.5, 0.9, 0.99, 0.999):
    ratio = boundary_asymptotic_ratio(x, geom) if x > 0 else 4.0 / 3.0
    print(f"{x:>8} {evaluate_potential(aq, x):14.4f} {ratio:20.6f}")
print("the ratio against (3/4) hbar^2/(b-|x|)^2 tends to 1 at the wall, so the")
print("wall strength matches the half-line oscillator's (3/4) barrier exactly.\n")

print("Declared singular endpoints (location, coefficient, exponent):")
for model in (aq, HalfHarmonic(1.0)):
    print(f"  {type(model).__name__:<13} {singularity_metadata(model)}")
print("  (the half-line coefficient is halved with its kinetic term, so the")
print("   coefficient-to-kinetic ratio, and the s^{3/2} wall behavior, agree)\n")

print("Numerical check of the declared strengths, s^2 * V(b - s) as s -> 0:")
for s in (1e-3, 1e-5, 1e-7):
    val = s * s * evaluate_potential(aq, 1.0 - s)
    print(f"  s = {s:8.0e}: {val:.8f}  (target 0.75)")
print()

print("Half-line oscillator potential (kinetic term carries the same 1/2):")
for x in (0.25, 0.5, 1.0, 2.0):
    print(f"  V({x}) = {evaluate_potential(HalfHarmonic(1.0), x):10.5f}")
print()

print("Anti-box: the same rational potential seen from |x| > b, plus W/|x|:")
print(f"{'x':>6} {'W=0':>12} {'W=1':>12}")
for x in (1.5, 2.0, 3.0, 5.0):
    print(f"{x:>6} {evaluate_potential(AntiBox(geom, 0.0), x):12.6f} "
          f"{evaluate_potential(AntiBox(geom, 1.0), x):12.6f}")
print("far field ~ 2 hbar^2/x^2 -> 0: the exterior region opens toward infinity,")
print("so only potential evaluation is offered here (no bound-state solver).\n")

print("Flat box for contrast (zero inside, walls as boundary conditions):")
print(f"  V(0.3) = {evaluate_potential(CqBox(geom), 0.3)}")
print(f"  V(0.999) = {evaluate_potential(CqBox(geom), 0.999)}")
