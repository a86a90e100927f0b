"""Numerical laboratory for the particle in a box.

Two things live here: (1) weak-derivative diagnostics showing that the
textbook trig eigenfunctions, extended by zero, carry wall deltas in their
second derivative and so fall outside L^2; (2) two independent solvers
(a weighted-polynomial variational method and a Numerov shooting oracle)
for the box with inverse-square walls, the half-line oscillator benchmark,
and the flat Dirichlet box.
"""

from .boxmodes import (BoxGeometry, TrigMode, classify_trig_modes, cq_eigenfunction_extended,
                       cq_eigenvalue)
from .piecewise import (DeltaTerm, Piece, PiecewiseSmooth, WeakDerivative,
                        discrete_second_derivative_norm, flat_ramp, l2_norm_squared,
                        weak_derivative, weak_second_derivative)
from .potentials import (AntiBox, AqBox, CqBox, HalfHarmonic, anti_box_potential,
                         aq_box_potential, boundary_asymptotic_ratio, evaluate_potential,
                         half_ho_eigenfunction, half_ho_eigenvalue, half_ho_potential,
                         singularity_metadata)
from .quadrature import QuadratureRule, gauss_legendre, laguerre_eval
from .ritz import (BasisSpec, GeneralizedEigProblem, SpectrumResult, assemble_matrices,
                   compute_spectrum, convergence_sweep, solve_generalized_symmetric)
from .shooting import (MatchResult, boundary_exponent_probe, eigenvalue_search,
                       numerov_integrate, wavefunction)

__version__ = "0.1.0"

__all__ = [
    "BoxGeometry", "TrigMode", "classify_trig_modes", "cq_eigenfunction_extended",
    "cq_eigenvalue",
    "Piece", "PiecewiseSmooth", "DeltaTerm", "WeakDerivative", "weak_derivative",
    "weak_second_derivative", "l2_norm_squared", "discrete_second_derivative_norm",
    "flat_ramp",
    "CqBox", "AqBox", "HalfHarmonic", "AntiBox",
    "aq_box_potential", "half_ho_potential", "anti_box_potential",
    "boundary_asymptotic_ratio", "singularity_metadata", "evaluate_potential",
    "half_ho_eigenvalue", "half_ho_eigenfunction",
    "QuadratureRule", "gauss_legendre", "laguerre_eval",
    "BasisSpec", "GeneralizedEigProblem", "SpectrumResult", "assemble_matrices",
    "solve_generalized_symmetric", "compute_spectrum", "convergence_sweep",
    "MatchResult", "numerov_integrate", "eigenvalue_search", "boundary_exponent_probe",
    "wavefunction",
]
