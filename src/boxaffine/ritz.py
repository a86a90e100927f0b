"""Variational spectral solver for the finite-interval box models.

Trial functions are chi_n(x) = (1 - t^2)^w C_n(t), t = x/b, with C_n the
Gegenbauer polynomial of order lambda = 2w - 1/2 orthonormal for the weight
(1 - t^2)^{lambda - 1/2} (DLMF 18.3): w = 3/2 cancels the inverse-square wall
potential, w = 1 handles the flat Dirichlet box.  The Gegenbauer equation and
recurrence (DLMF 18.8-18.9) give the pencil H v = lambda S v in closed form.
H is diagonal and S couples n only to n +- 2, so the pencil splits into one
symmetric tridiagonal eigenproblem per parity.  numpy.linalg solves these,
and the dense pencil that acceptance criterion 9 checks: Ritz needs no scipy.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .boxmodes import count_nodes
from .potentials import DIRICHLET, INVERSE_SQUARE, ModelUnsupported

MAX_BASIS = 64


class NotPositiveDefinite(RuntimeError):
    """Overlap matrix is not finite or failed Cholesky factorization."""


class NoConvergence(RuntimeError):
    """Stiffness matrix or energies are not finite, or the LAPACK eigensolve
    did not converge."""


# per wall kind, alike at both ends: the weight exponent w, and the c of
# -kappa chi_n'' + V chi_n = (kappa/b^2) (1 - t^2)^{w-1} (n(n + 2 lambda) + c) C_n
_WALL_BASIS = {DIRICHLET: (1.0, 2.0), INVERSE_SQUARE: (1.5, 4.0)}


def has_basis(model):
    """Whether the model's walls are alike at both ends of a box, as the
    weighted basis needs."""
    return model.walls in ((DIRICHLET, DIRICHLET), (INVERSE_SQUARE, INVERSE_SQUARE))


def _basis(model, n):
    """The weight exponent w and the constant c of the basis matched to the
    model's walls, alike at both ends of the box: w = 3/2 at inverse-square
    walls, 1 at Dirichlet ones; for n basis functions."""
    if not has_basis(model):
        raise ModelUnsupported(f"no finite-interval basis for {type(model).__name__}")
    if not 1 <= n <= MAX_BASIS:
        raise ValueError(f"basis size must be in [1, {MAX_BASIS}]")
    return _WALL_BASIS[model.walls[0]]


@dataclass(frozen=True)
class GeneralizedEigProblem:
    """Symmetric stiffness H and SPD overlap S in the weighted basis."""

    H: np.ndarray
    S: np.ndarray


def _recurrence(w, n):
    """lambda, and a_0 = 0, a_1..a_n of t C_k = a_{k+1} C_{k+1} + a_k C_{k-1}."""
    lam = 2.0 * w - 0.5
    k = np.arange(n + 1.0)
    return lam, np.sqrt(k * (k + 2 * lam - 1) / (4 * (k + lam) * (k + lam - 1)))


def _sample(w, n, t):
    """1 - t^2, and C_0..C_{n-1} at the points t, shape (n, len(t))."""
    lam, a = _recurrence(w, n)
    C = np.zeros((n + 1, t.size))  # row k + 1 holds C_k
    C[1] = (math.sqrt(math.pi) * math.gamma(lam + 0.5) / math.gamma(lam + 1.0)) ** -0.5
    for k in range(n - 1):
        C[k + 2] = (t * C[k + 1] - a[k] * C[k]) / a[k + 1]
    return 1.0 - t * t, C[1:]


def _stiffness(w, c, n):
    """j(j + 2 lambda) + c for j < n: the diagonal of H, in units of kappa/b."""
    j = np.arange(n)
    return j * (j + 4 * w - 1) + c


def assemble_matrices(model, n):
    """H = int [kappa chi_j' chi_k' + V chi_j chi_k] dx and S = int chi_j chi_k dx
    over the model's first n basis functions, in closed form: H is diagonal,
    and S = b (I - J^2)[:n, :n] since chi_j chi_k carries one factor 1 - t^2
    beyond the weight, with J the (n+1)-square Jacobi matrix so that the
    block is exact."""
    w, c = _basis(model, n)
    b = model.geom.b
    a = _recurrence(w, n)[1][1:]
    J = np.diag(a, 1) + np.diag(a, -1)
    return GeneralizedEigProblem(np.diag(model.kappa / b * _stiffness(w, c, n)),
                                 b * (np.eye(n) - (J @ J)[:n, :n]))


def _fix_signs(vecs):
    """Flip each column so that its largest-magnitude component is positive,
    for determinism; in place."""
    lead = np.argmax(np.abs(vecs), axis=0)
    vecs *= np.where(vecs[lead, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)


def solve_generalized_symmetric(prob):
    """Solve a dense H v = lambda S v; eigenvalues ascending, vectors
    S-orthonormal.  Acceptance criterion 9 checks it on random pencils; the
    Ritz solve itself runs on the parity blocks (``_parity_solve``).

    With S = L L^T (numpy.linalg's Cholesky; Golub and Van Loan 8.7), the
    eigenvectors y of L^-1 H L^-T give v = L^-T y.  Each eigenvalue is then
    replaced by its Rayleigh quotient v^T H v / v^T S v, whose error is
    quadratic in the eigenvector's.  That restores the relative accuracy the
    solve loses on eigenvalues much smaller than the largest (on the Ritz
    pencil at N = 64 the low levels fell ~5e-12 relative below the exact
    values without it).  Each vector's largest-magnitude entry is positive.
    """
    H, S = prob.H, prob.S
    if not np.all(np.isfinite(S)):
        raise NotPositiveDefinite("overlap matrix has non-finite entries")
    if not np.all(np.isfinite(H)):
        raise NoConvergence("stiffness matrix has non-finite entries")
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(S))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    try:
        vecs = L_inv.T @ np.linalg.eigh(L_inv @ H @ L_inv.T)[1]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    evals = np.einsum("ij,ij->j", vecs, H @ vecs) / np.einsum("ij,ij->j", vecs, S @ vecs)
    order = np.argsort(evals, kind="stable")
    evals, vecs = evals[order], vecs[:, order]
    _fix_signs(vecs)
    return evals, vecs


def _parity_solve(model, n, vectors):
    """The pencil of ``assemble_matrices`` solved on its two parity blocks.

    Returns the energies ascending, each level's parity p (0 even, 1 odd),
    and with ``vectors`` the S-orthonormal coefficients, column k for level
    k (else None).  H = (kappa/b) diag(h_n) couples no two indices and
    S = b (I - J^2) couples n only to n +- 2, so the indices n = p (mod 2)
    form a block.  With D = diag(h_n^{-1/2}) over them,
    T_p = D (I - J^2)_p D is symmetric tridiagonal, with diagonal
    (1 - a_n^2 - a_{n+1}^2) / h_n and off-diagonal
    -a_{n+1} a_{n+2} / sqrt(h_n h_{n+2}).  Its eigenpairs (mu, y), |y| = 1,
    give E = (kappa/b^2) / mu and v = D y / sqrt(b mu), zero in the other
    parity's rows.  The low levels are the largest mu, which LAPACK
    (numpy.linalg.eigh) resolves to full relative accuracy.
    """
    w, c = _basis(model, n)
    b = model.geom.b
    a = _recurrence(w, n)[1]
    h = _stiffness(w, c, n)
    diag = (1.0 - a[:-1] ** 2 - a[1:] ** 2) / h
    off = -a[1:-2] * a[2:-1] / np.sqrt(h[:-2] * h[2:])
    energies, parities, columns = [], [], []
    for p in (0, 1):
        d, e = diag[p::2], off[p::2]
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        try:
            mu, y = np.linalg.eigh(T) if vectors else (np.linalg.eigvalsh(T), None)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(str(exc)) from exc
        energies.append(model.kappa / b / b / mu)
        parities.append(np.full(mu.size, p))
        if vectors:
            v = np.zeros((n, mu.size))
            v[p::2] = y / np.sqrt(h[p::2])[:, None] / np.sqrt(b * mu)
            columns.append(v)
    energies = np.concatenate(energies)
    order = np.argsort(energies, kind="stable")
    evals = energies[order]
    vecs = np.hstack(columns)[:, order] if vectors else None
    if not (np.all(np.isfinite(evals)) and (vecs is None or np.all(np.isfinite(vecs)))):
        raise NoConvergence("energies or eigenvectors are not finite")
    if vectors:
        _fix_signs(vecs)
    return evals, np.concatenate(parities)[order], vecs


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
    """Ascending eigenvalues, basis coefficients, and per-level diagnostics,
    from the first ``basis`` functions of the model's weighted basis."""

    model: object
    basis: int
    eigenvalues: np.ndarray
    coefficients: np.ndarray  # column k holds level k
    levels: Tuple[LevelDiagnostics, ...]

    def eigenfunction(self, k, x):
        """Level-k trial eigenfunction (zero outside the closed box)."""
        w = _basis(self.model, self.basis)[0]
        b = self.model.geom.b
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        out = np.zeros_like(xv)
        inside = np.abs(xv) < b
        if inside.any():
            om, C = _sample(w, self.basis, xv[inside] / b)
            out[inside] = om**w * (self.coefficients[:, k] @ C)
        return float(out[0]) if scalar else out


def compute_spectrum(model, n_basis, n_diagnostics=None):
    """Solve on the parity blocks and attach diagnostics for the lowest levels.

    Parity is the block a level comes from, node counts
    from sign changes on a 2048-point interior grid (10^-6 b wall margin),
    boundary exponents from the log-log slope of |psi| over
    b - |x| in [1e-4 b, 1e-2 b], and the residual is the worst relative
    pointwise defect of -kappa psi'' + V psi - E psi away from the walls, which
    is (kappa/b^2) (1 - t^2)^{w-1} sum v_n (mu_n - eps (1 - t^2)) C_n with v the
    level's coefficients, mu the stiffness diagonal and eps = E b^2/kappa: no
    derivative needs sampling.
    """
    evals, parities, vecs = _parity_solve(model, n_basis, vectors=True)

    if n_diagnostics is None:
        n_diagnostics = min(n_basis, 12)
    count = min(n_diagnostics, n_basis)
    w, c = _basis(model, n_basis)
    b = model.geom.b
    scale = model.kappa / (b * b)
    mu = _stiffness(w, c, n_basis)

    # the 2048 interior points and the 40 fit points at b - s, sampled at once
    t = np.linspace(-(1.0 - 1e-6), 1.0 - 1e-6, 2048)
    s_fit = np.geomspace(1e-4 * b, 1e-2 * b, 40)
    om, C = _sample(w, n_basis, np.concatenate([t, (b - s_fit) / b]))
    om, om_fit, C, C_fit = om[:t.size], om[t.size:], C[:, :t.size], C[:, t.size:]
    interior = np.abs(t) <= 1.0 - 1e-2

    # one row per diagnosed level.  The basis enters only through three
    # products, so C (about 1 MB at n = 64) is dropped before the per-level
    # arrays are formed: a call's heap then peaks well below twice its
    # largest array, and glibc's malloc keeps the freed heap for the next
    # call instead of handing it back and faulting it in again
    v = vecs[:, :count]
    energies = evals[:count]
    fit = v.T @ (om_fit**w * C_fit)
    F, G = v.T @ C, (v.T * mu) @ C
    del C, C_fit
    psi = om**w * F
    slopes = np.polyfit(np.log(s_fit), np.log(np.abs(fit)).T, 1)[0]
    defect = scale * om ** (w - 1.0) * (G - (energies / scale)[:, None] * om * F)
    residuals = (np.max(np.abs(defect[:, interior]), axis=1)
                 / (np.abs(energies) * np.max(np.abs(psi), axis=1)))

    levels = []
    for k in range(count):
        energy = float(energies[k])
        degenerate = bool(
            (k + 1 < evals.size and abs(evals[k + 1] - energy) < 1e-12 * abs(energy))
            or (k > 0 and abs(energy - evals[k - 1]) < 1e-12 * abs(energy))
        )
        levels.append(LevelDiagnostics(k, energy, "odd" if parities[k] else "even",
                                       count_nodes(psi[k]), float(slopes[k]),
                                       float(residuals[k]), degenerate))

    return SpectrumResult(model, n_basis, evals, vecs, tuple(levels))


@dataclass(frozen=True)
class ConvergenceTable:
    sizes: Tuple[int, ...]
    energies: np.ndarray  # row per size, column per level
    final_change: np.ndarray  # per-level relative change over the last step


def convergence_sweep(model, sizes, n_levels):
    """Per-level eigenvalues across basis sizes; variational, so each column
    is nonincreasing in N."""
    sizes = tuple(int(s) for s in sizes)
    if not sizes:
        raise ValueError("sizes must not be empty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending")
    if sizes[0] < n_levels:
        raise ValueError("smallest basis must be >= number of tracked levels")
    rows = []
    for n in sizes:
        evals, _, _ = _parity_solve(model, n, vectors=False)
        rows.append(evals[:n_levels])
    energies = np.vstack(rows)
    if len(sizes) >= 2:
        final_change = np.abs(energies[-1] - energies[-2]) / np.abs(energies[-1])
    else:
        final_change = np.full(n_levels, np.nan)
    return ConvergenceTable(sizes, energies, final_change)

