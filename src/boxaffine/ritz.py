"""Variational spectral solver for the finite-interval box models.

Trial functions are chi_k(x) = (b^2 - x^2)^w P_k(x/b): w = 3/2 cancels the
inverse-square wall potential exactly (every matrix element becomes a
polynomial integral, so Gauss quadrature is exact), w = 1 handles the flat
Dirichlet box.  The generalized problem H v = lambda S v is solved by LAPACK
(scipy.linalg.eigh), with each eigenvalue refined by one Rayleigh quotient.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.linalg

from .boxmodes import BoxGeometry
from .potentials import DIRICHLET, INVERSE_SQUARE, ModelUnsupported, evaluate_potential
from .quadrature import gauss_legendre, legendre_second_derivative_table, legendre_table
from .shooting import count_nodes

MAX_BASIS = 64


class NotPositiveDefinite(RuntimeError):
    """Overlap matrix is not finite or failed Cholesky factorization."""


class NoConvergence(RuntimeError):
    """Stiffness matrix is not finite, or the LAPACK eigensolve did not converge."""


@dataclass(frozen=True)
class BasisSpec:
    size: int
    weight_exponent: float
    geom: BoxGeometry

    def __post_init__(self):
        if not 1 <= self.size <= MAX_BASIS:
            raise ValueError(f"basis size must be in [1, {MAX_BASIS}]")
        if self.weight_exponent not in (1.0, 1.5):
            raise ValueError("weight exponent must be 1 (Dirichlet) or 3/2 (singular walls)")


def has_basis(model):
    """Whether the model's walls are alike at both ends of a box, as basis_for needs."""
    return model.walls in ((DIRICHLET, DIRICHLET), (INVERSE_SQUARE, INVERSE_SQUARE))


def basis_for(model, n):
    """Basis matched to the model's walls, alike at both ends of the box:
    weight exponent 3/2 at inverse-square walls, 1 at Dirichlet ones."""
    if not has_basis(model):
        raise ModelUnsupported(f"no finite-interval basis for {type(model).__name__}")
    return BasisSpec(n, 1.5 if model.walls[0] == INVERSE_SQUARE else 1.0, model.geom)


@dataclass(frozen=True)
class GeneralizedEigProblem:
    """Symmetric stiffness H and SPD overlap S in the weighted basis."""

    H: np.ndarray
    S: np.ndarray


def _basis_tables(basis, t, with_second=False):
    """chi_k, chi_k' (and optionally chi_k'') sampled at t = x/b, shape (N, nt)."""
    n, w, b = basis.size, basis.weight_exponent, basis.geom.b
    t = np.atleast_1d(np.asarray(t, dtype=float))
    P, dP = legendre_table(n - 1, t)
    om = 1.0 - t * t
    u = (b * b) ** w * om**w
    du = -2.0 * w * b ** (2 * w - 1.0) * t * om ** (w - 1.0)
    chi = u * P
    dchi = du * P + u * dP / b
    if not with_second:
        return chi, dchi
    ddP = legendre_second_derivative_table(n - 1, t)
    d2u = b ** (2 * w - 2.0) * (-2.0 * w * om ** (w - 1.0)
                                + 4.0 * w * (w - 1.0) * t * t * om ** (w - 2.0))
    d2chi = d2u * P + 2.0 * du * dP / b + u * ddP / (b * b)
    return chi, dchi, d2chi


def assemble_matrices(model, basis=None):
    """Stiffness and overlap matrices by exact Gauss quadrature.

    The kinetic term uses the integration-by-parts form
    int [kappa chi_j' chi_k' + V chi_j chi_k]; boundary terms vanish because
    the trial functions (and, for w = 3/2, their first derivatives) are zero
    at the walls.  V * chi_j * chi_k is computed with the weight already
    cancelled against the potential's denominator, so every integrand is a
    polynomial and the 2N + 8 point rule is exact up to rounding.
    """
    default = basis_for(model, 32)  # raises ModelUnsupported off the two boxes
    if basis is None:
        basis = default
    rule = gauss_legendre(2 * basis.size + 8)

    b, hbar = basis.geom.b, basis.geom.hbar
    w = basis.weight_exponent
    t, wq = rule.nodes, rule.weights * b  # x = b t
    chi, dchi = _basis_tables(basis, t)

    H = model.kappa * np.einsum("i,ji,ki->jk", wq, dchi, dchi)
    if model.walls[0] == INVERSE_SQUARE:  # the aq-box potential
        x = b * t
        om = (b * b) * (1.0 - t * t)
        # V * chi_j * chi_k = hbar^2 (2x^2 + b^2) (b^2 - x^2)^{2w-2} P_j P_k * ...
        vfac = hbar**2 * (2.0 * x * x + b * b) * om ** (2.0 * w - 2.0)
        P, _ = legendre_table(basis.size - 1, t)
        H += np.einsum("i,ji,ki->jk", wq * vfac, P, P)
    S = np.einsum("i,ji,ki->jk", wq, chi, chi)

    # the integrands are symmetric in (j, k) and exactly odd over the
    # symmetric interval when j + k is odd; enforce both against BLAS rounding
    H = 0.5 * (H + H.T)
    S = 0.5 * (S + S.T)
    j = np.arange(basis.size)
    odd = (j[:, None] + j[None, :]) % 2 == 1
    H[odd] = 0.0
    S[odd] = 0.0
    return GeneralizedEigProblem(H, S)


def solve_generalized_symmetric(prob):
    """Solve H v = lambda S v; eigenvalues ascending, vectors S-orthonormal.

    LAPACK dsygvd gives the eigenvectors; each eigenvalue is then replaced by
    its Rayleigh quotient v^T H v / v^T S v, whose error is quadratic in the
    eigenvector's.  That restores the relative accuracy the tridiagonal solve
    loses on the graded, ill-conditioned overlap matrices (cond(S) ~ 5e8 at
    N = 64), so basis sweeps stay variationally monotone.  Eigenvector signs
    are fixed (largest-magnitude component positive) for determinism.
    """
    H, S = prob.H, prob.S
    if not np.all(np.isfinite(S)):
        raise NotPositiveDefinite("overlap matrix has non-finite entries")
    if not np.all(np.isfinite(H)):
        raise NoConvergence("stiffness matrix has non-finite entries")
    try:
        _, vecs = scipy.linalg.eigh(H, S, check_finite=False)
    except np.linalg.LinAlgError as exc:
        if "positive definite" in str(exc):
            raise NotPositiveDefinite(str(exc)) from exc
        raise NoConvergence(str(exc)) from exc
    evals = np.einsum("ij,ij->j", vecs, H @ vecs) / np.einsum("ij,ij->j", vecs, S @ vecs)
    order = np.argsort(evals, kind="stable")
    evals, vecs = evals[order], vecs[:, order]
    lead = np.argmax(np.abs(vecs), axis=0)
    vecs *= np.where(vecs[lead, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)
    return evals, vecs


@dataclass(frozen=True)
class LevelDiagnostics:
    index: int
    energy: float
    parity: str
    node_count: int
    boundary_exponent: float
    residual_norm: float
    degenerate: bool = False


@dataclass(frozen=True)
class SpectrumResult:
    """Ascending eigenvalues, basis coefficients, and per-level diagnostics."""

    basis: BasisSpec
    eigenvalues: np.ndarray
    coefficients: np.ndarray  # column k holds level k
    levels: Tuple[LevelDiagnostics, ...]

    def eigenfunction(self, k, x):
        """Level-k trial eigenfunction (zero outside the closed box)."""
        b = self.basis.geom.b
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        out = np.zeros_like(xv)
        inside = np.abs(xv) < b
        if inside.any():
            chi, _ = _basis_tables(self.basis, xv[inside] / b)
            out[inside] = self.coefficients[:, k] @ chi
        return float(out[0]) if scalar else out


def compute_spectrum(model, n_basis=32, n_diagnostics=None):
    """Assemble, solve, and attach diagnostics for the lowest levels.

    Parity comes from the even/odd Legendre coefficient support, node counts
    from sign changes on a 2048-point interior grid (10^-6 b wall margin),
    boundary exponents from the log-log slope of |psi| over
    b - |x| in [1e-4 b, 1e-2 b], and the residual is the worst relative
    pointwise defect of -kappa psi'' + V psi - E psi away from the walls.
    """
    basis = basis_for(model, n_basis)
    prob = assemble_matrices(model, basis)
    evals, vecs = solve_generalized_symmetric(prob)

    if n_diagnostics is None:
        n_diagnostics = min(n_basis, 12)
    b = basis.geom.b
    kappa = model.kappa

    grid = np.linspace(-b * (1.0 - 1e-6), b * (1.0 - 1e-6), 2048)
    chi_g, _, d2chi_g = _basis_tables(basis, grid / b, with_second=True)
    v_grid = evaluate_potential(model, grid)

    s_fit = np.geomspace(1e-4 * b, 1e-2 * b, 40)
    chi_fit, _ = _basis_tables(basis, (b - s_fit) / b)

    interior = np.abs(grid) <= b * (1.0 - 1e-2)

    levels = []
    for k in range(min(n_diagnostics, n_basis)):
        c = vecs[:, k]
        energy = float(evals[k])
        even_w = np.linalg.norm(c[0::2])
        odd_w = np.linalg.norm(c[1::2])
        parity = "even" if even_w >= odd_w else "odd"

        psi = c @ chi_g
        nodes = count_nodes(psi)

        psi_fit = np.abs(c @ chi_fit)
        slope = float(np.polyfit(np.log(s_fit), np.log(psi_fit), 1)[0])

        d2psi = c @ d2chi_g
        defect = -kappa * d2psi + v_grid * psi - energy * psi
        residual = float(np.max(np.abs(defect[interior])) / (abs(energy) * np.max(np.abs(psi))))

        degenerate = bool(
            (k + 1 < evals.size and abs(evals[k + 1] - energy) < 1e-12 * abs(energy))
            or (k > 0 and abs(energy - evals[k - 1]) < 1e-12 * abs(energy))
        )
        levels.append(LevelDiagnostics(k, energy, parity, nodes, slope, residual, degenerate))

    return SpectrumResult(basis, evals, vecs, tuple(levels))


@dataclass(frozen=True)
class ConvergenceTable:
    sizes: Tuple[int, ...]
    energies: np.ndarray  # row per size, column per level
    final_change: np.ndarray  # per-level relative change over the last step


def convergence_sweep(model, sizes, n_levels=6):
    """Per-level eigenvalues across basis sizes; variational, so each column
    is nonincreasing in N."""
    sizes = tuple(int(s) for s in sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending")
    if sizes[0] < n_levels:
        raise ValueError("smallest basis must be >= number of tracked levels")
    rows = []
    for n in sizes:
        basis = basis_for(model, n)
        evals, _ = solve_generalized_symmetric(assemble_matrices(model, basis))
        rows.append(evals[:n_levels])
    energies = np.vstack(rows)
    if len(sizes) >= 2:
        final_change = np.abs(energies[-1] - energies[-2]) / np.abs(energies[-1])
    else:
        final_change = np.full(n_levels, np.nan)
    return ConvergenceTable(sizes, energies, final_change)

