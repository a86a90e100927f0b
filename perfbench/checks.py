"""Output checks for the benchmark workloads.

Every check compares the program's output with a computation made apart
from it (a closed form, the other solver, the same model at another scale)
or with a property the method must have.  Nothing is compared with a stored
copy of earlier output.

A level check returns one of three outcomes:
  OK           every check on the level holds;
  KNOWN_FAULT  the only miss is a shooting energy off its reference by more
               than the relative agreement threshold but by no more than the
               absolute ``--tol`` the search was given: the absolute-width
               fault of ``shooting.eigenvalue_search`` at small energy scales;
  WRONG        anything else.
"""

import math

import numpy as np

OK, KNOWN_FAULT, WRONG = "ok", "known-fault", "wrong"

AGREEMENT = 1e-5       # cross-method and closed-form agreement (the CLI's own threshold)
SCALING = 1e-8         # E * b^2 / hbar^2 across (b, hbar), criterion 7's bound
RITZ_CLOSED_FORM = 1e-8  # converged flat-box Ritz levels against n^2 pi^2 hbar^2 / 4b^2
MONOTONE_RISE = 1e-12  # converged levels rise by ~2e-14 from rounding alone
RESIDUAL = 1e-9        # generalized-eigenproblem residual, criterion 9's bound
ORTHONORMAL = 1e-9     # max |V^T S V - I|
EXPONENT = 0.01        # wall exponent 3/2 (inverse-square) or 1 (hard wall)

EXIT_OK, EXIT_DISAGREE = 0, 3


def cq_energy(n, b, hbar):
    """Flat-box level n >= 1: n^2 pi^2 hbar^2 / (4 b^2), with 2m = 1."""
    return n * n * math.pi ** 2 * hbar * hbar / (4.0 * b * b)


def half_ho_energy(k, hbar):
    """Half-line oscillator level k: 2 hbar (k + 1)."""
    return 2.0 * hbar * (k + 1)


def wall_exponent(model):
    return 1.0 if model == "cq-box" else 1.5


def rel(a, b):
    return abs(a - b) / abs(b)


def _energy_outcome(energy, reference, tol):
    if rel(energy, reference) <= AGREEMENT:
        return OK
    if abs(energy - reference) <= tol:
        return KNOWN_FAULT
    return WRONG


def ritz_energy_ok(model, k, energy, b, hbar, reference_scaled):
    """A Ritz level against the closed form (cq-box) or, times b^2 / hbar^2,
    against the same level of another aq-box case (the scaling law)."""
    if model == "cq-box":
        return rel(energy, cq_energy(k + 1, b, hbar)) <= RITZ_CLOSED_FORM
    return (reference_scaled is not None
            and rel(energy * b * b / (hbar * hbar), reference_scaled[k]) <= SCALING)


def structure_ok(model, k, level):
    """Node count k, alternating parity (none on the half line), wall exponent."""
    parity = None if model == "half-ho" else ("even" if k % 2 == 0 else "odd")
    return (level.get("node_count") == k and level.get("parity") == parity
            and abs(level["boundary_exponent"] - wall_exponent(model)) <= EXPONENT)


def spectrum_levels(case, report, partner_scaled=None):
    """Per-level outcomes of one ``spectrum`` report.

    case: the inputs (model, b, hbar, levels, tol).  For aq-box, which has no
    closed form, ``partner_scaled`` holds the Ritz energies of another case
    at the same basis size, times b^2 / hbar^2: the scaling law says they
    match this case's scaled Ritz energies.
    """
    levels = report["levels"]
    if len(levels) != case.levels:
        return [WRONG] * case.levels
    outcomes = []
    base = 1 if case.model == "cq-box" else 0
    for k, level in enumerate(levels):
        if level["index"] != base + k or not structure_ok(case.model, k, level):
            outcomes.append(WRONG)
            continue
        if case.model == "half-ho":
            outcomes.append(_energy_outcome(level["energy"], half_ho_energy(k, case.hbar), case.tol))
            continue
        e_rr, e_sh = level["energy_rayleigh_ritz"], level["energy_shooting"]
        if not ritz_energy_ok(case.model, k, e_rr, case.b, case.hbar, partner_scaled):
            outcomes.append(WRONG)
            continue
        reference = cq_energy(k + 1, case.b, case.hbar) if case.model == "cq-box" else e_rr
        outcomes.append(_energy_outcome(e_sh, reference, case.tol))
    return outcomes


def expected_exit(case, outcomes):
    """The CLI exits 3 exactly when a --method both comparison misses 1e-5."""
    if case.model == "half-ho":
        return EXIT_OK
    return EXIT_OK if all(o == OK for o in outcomes) else EXIT_DISAGREE


def sweep_levels(model, b, hbar, sizes, energies, reference_scaled=None):
    """Per-level outcomes of one Ritz convergence sweep (rows: sizes, columns: levels).

    Each column must be nonincreasing in N up to rounding (the Ritz bound is
    variational).  The last row must match the closed form (cq-box) or, after
    scaling by b^2 / hbar^2, ``reference_scaled`` (aq-box).
    """
    energies = np.asarray(energies, dtype=float)
    if energies.shape[0] != len(sizes) or any(m <= n for n, m in zip(sizes, sizes[1:])):
        return [WRONG] * energies.shape[1]
    rise = np.max(np.diff(energies, axis=0) / np.abs(energies[1:]), axis=0)
    return [OK if rise[k] <= MONOTONE_RISE
            and ritz_energy_ok(model, k, energies[-1, k], b, hbar, reference_scaled) else WRONG
            for k in range(energies.shape[1])]


def eigenpair_levels(model, b, hbar, H, S, eigenvalues, vectors, diagnostics,
                     reference_scaled=None):
    """Per-level outcomes of one Ritz spectrum with diagnostics.

    Each eigenpair must solve H v = lambda S v to a small relative residual,
    the eigenvectors must be S-orthonormal, each level's diagnostics must show
    k nodes, alternating parity and the wall exponent, and the energy must
    match the closed form (cq-box) or the scaled reference (aq-box).
    """
    n = len(diagnostics)
    V = np.asarray(vectors, dtype=float)[:, :n]
    lam = np.asarray(eigenvalues, dtype=float)[:n]
    gram = V.T @ S @ V - np.eye(n)
    h_norm, s_norm = np.linalg.norm(H), np.linalg.norm(S)
    outcomes = []
    for k, diag in enumerate(diagnostics):
        residual = (np.linalg.norm(H @ V[:, k] - lam[k] * (S @ V[:, k]))
                    / (h_norm + abs(lam[k]) * s_norm))
        orthonormal = np.max(np.abs(gram[k])) <= ORTHONORMAL
        level = {"node_count": diag.node_count, "parity": diag.parity,
                 "boundary_exponent": diag.boundary_exponent}
        good = (residual <= RESIDUAL and orthonormal and diag.energy == lam[k]
                and ritz_energy_ok(model, k, lam[k], b, hbar, reference_scaled)
                and structure_ok(model, k, level))
        outcomes.append(OK if good else WRONG)
    return outcomes
