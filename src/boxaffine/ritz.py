"""Variational spectral solver for the finite-interval box models.

Trial functions are chi_n(x) = (1 - t^2)^w C_n(t), t = x/b, with C_n the
Gegenbauer polynomial of order lambda = 2w - 1/2 orthonormal for the weight
(1 - t^2)^{lambda - 1/2} (DLMF 18.3): w = 3/2 cancels the inverse-square wall
potential, w = 1 handles the flat Dirichlet box.  The Gegenbauer equation and
recurrence (DLMF 18.8-18.9) give the pencil H v = lambda S v in closed form;
LAPACK (scipy.linalg.eigh) solves it, and one Rayleigh quotient refines each
eigenvalue.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.linalg

from .boxmodes import BoxGeometry, count_nodes
from .potentials import DIRICHLET, INVERSE_SQUARE, ModelUnsupported

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


# per wall kind, alike at both ends: the weight exponent w, and the c of
# -kappa chi_n'' + V chi_n = (kappa/b^2) (1 - t^2)^{w-1} (n(n + 2 lambda) + c) C_n
_WALL_BASIS = {DIRICHLET: (1.0, 2.0), INVERSE_SQUARE: (1.5, 4.0)}


def has_basis(model):
    """Whether the model's walls are alike at both ends of a box, as basis_for needs."""
    return model.walls in ((DIRICHLET, DIRICHLET), (INVERSE_SQUARE, INVERSE_SQUARE))


def basis_for(model, n):
    """Basis matched to the model's walls, alike at both ends of the box:
    weight exponent 3/2 at inverse-square walls, 1 at Dirichlet ones."""
    if not has_basis(model):
        raise ModelUnsupported(f"no finite-interval basis for {type(model).__name__}")
    return BasisSpec(n, _WALL_BASIS[model.walls[0]][0], model.geom)


@dataclass(frozen=True)
class GeneralizedEigProblem:
    """Symmetric stiffness H and SPD overlap S in the weighted basis."""

    H: np.ndarray
    S: np.ndarray


def _recurrence(basis):
    """lambda, and a_0 = 0, a_1..a_N of t C_k = a_{k+1} C_{k+1} + a_k C_{k-1}."""
    lam = 2.0 * basis.weight_exponent - 0.5
    k = np.arange(basis.size + 1.0)
    return lam, np.sqrt(k * (k + 2 * lam - 1) / (4 * (k + lam) * (k + lam - 1)))


def _sample(basis, t):
    """1 - t^2, and C_0..C_{N-1} at the points t, shape (N, len(t))."""
    lam, a = _recurrence(basis)
    C = np.zeros((basis.size + 1, t.size))  # row k + 1 holds C_k
    C[1] = (math.sqrt(math.pi) * math.gamma(lam + 0.5) / math.gamma(lam + 1.0)) ** -0.5
    for k in range(basis.size - 1):
        C[k + 2] = (t * C[k + 1] - a[k] * C[k]) / a[k + 1]
    return 1.0 - t * t, C[1:]


def _stiffness(model, basis):
    """n(n + 2 lambda) + c for n < N: the diagonal of H, in units of kappa/b."""
    w, c = _WALL_BASIS[model.walls[0]]
    n = np.arange(basis.size)
    return n * (n + 4 * w - 1) + c


def assemble_matrices(model, basis):
    """H = int [kappa chi_m' chi_n' + V chi_m chi_n] dx and S = int chi_m chi_n dx
    in closed form: H is diagonal, and S = b (I - J^2)[:N, :N] since chi_m chi_n
    carries one factor 1 - t^2 beyond the weight, with J the (N+1)-square
    Jacobi matrix so that the block is exact."""
    if basis != basis_for(model, basis.size):  # raises ModelUnsupported off the two boxes
        raise ValueError("basis does not match the model's walls and box")
    n, b = basis.size, basis.geom.b
    a = _recurrence(basis)[1][1:]
    J = np.diag(a, 1) + np.diag(a, -1)
    return GeneralizedEigProblem(np.diag(model.kappa / b * _stiffness(model, basis)),
                                 b * (np.eye(n) - (J @ J)[:n, :n]))


def solve_generalized_symmetric(prob):
    """Solve H v = lambda S v; eigenvalues ascending, vectors S-orthonormal.

    LAPACK dsygvd gives the eigenvectors; each eigenvalue is then replaced by
    its Rayleigh quotient v^T H v / v^T S v, whose error is quadratic in the
    eigenvector's.  That restores the relative accuracy the tridiagonal solve
    loses on the low levels, which are up to 2e5 times smaller than the
    highest at N = 64 (without it they fall ~5e-12 relative below the exact
    values), so basis sweeps stay variationally monotone.  Eigenvector signs
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
            om, C = _sample(self.basis, xv[inside] / b)
            out[inside] = om**self.basis.weight_exponent * (self.coefficients[:, k] @ C)
        return float(out[0]) if scalar else out


def compute_spectrum(model, n_basis, n_diagnostics=None):
    """Assemble, solve, and attach diagnostics for the lowest levels.

    Parity comes from the even/odd Gegenbauer coefficient support, node counts
    from sign changes on a 2048-point interior grid (10^-6 b wall margin),
    boundary exponents from the log-log slope of |psi| over
    b - |x| in [1e-4 b, 1e-2 b], and the residual is the worst relative
    pointwise defect of -kappa psi'' + V psi - E psi away from the walls, which
    is (kappa/b^2) (1 - t^2)^{w-1} sum c_n (mu_n - eps (1 - t^2)) C_n with mu the
    stiffness diagonal and eps = E b^2/kappa: no derivative needs sampling.
    """
    basis = basis_for(model, n_basis)
    prob = assemble_matrices(model, basis)
    evals, vecs = solve_generalized_symmetric(prob)

    if n_diagnostics is None:
        n_diagnostics = min(n_basis, 12)
    count = min(n_diagnostics, n_basis)
    b, w = basis.geom.b, basis.weight_exponent
    scale = model.kappa / (b * b)
    mu = _stiffness(model, basis)

    # the 2048 interior points and the 40 fit points at b - s, sampled at once
    t = np.linspace(-(1.0 - 1e-6), 1.0 - 1e-6, 2048)
    s_fit = np.geomspace(1e-4 * b, 1e-2 * b, 40)
    om, C = _sample(basis, np.concatenate([t, (b - s_fit) / b]))
    om, om_fit, C, C_fit = om[:t.size], om[t.size:], C[:, :t.size], C[:, t.size:]
    interior = np.abs(t) <= 1.0 - 1e-2

    # one row per diagnosed level
    c = vecs[:, :count]
    energies = evals[:count]
    parity_even = np.linalg.norm(c[0::2], axis=0) >= np.linalg.norm(c[1::2], axis=0)
    F = c.T @ C
    psi = om**w * F
    slopes = np.polyfit(np.log(s_fit), np.log(np.abs(c.T @ (om_fit**w * C_fit))).T, 1)[0]
    defect = scale * om ** (w - 1.0) * ((c.T * mu) @ C - (energies / scale)[:, None] * om * F)
    residuals = (np.max(np.abs(defect[:, interior]), axis=1)
                 / (np.abs(energies) * np.max(np.abs(psi), axis=1)))

    levels = []
    for k in range(count):
        energy = float(energies[k])
        degenerate = bool(
            (k + 1 < evals.size and abs(evals[k + 1] - energy) < 1e-12 * abs(energy))
            or (k > 0 and abs(energy - evals[k - 1]) < 1e-12 * abs(energy))
        )
        levels.append(LevelDiagnostics(k, energy, "even" if parity_even[k] else "odd",
                                       count_nodes(psi[k]), float(slopes[k]),
                                       float(residuals[k]), degenerate))

    return SpectrumResult(basis, evals, vecs, tuple(levels))


@dataclass(frozen=True)
class ConvergenceTable:
    sizes: Tuple[int, ...]
    energies: np.ndarray  # row per size, column per level
    final_change: np.ndarray  # per-level relative change over the last step


def convergence_sweep(model, sizes, n_levels):
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

