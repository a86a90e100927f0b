"""Built-in acceptance suite.

Each numbered criterion is a standalone callable returning a CriterionResult.
Its check returns (ok, detail), and the ``_criterion`` wrapper times the whole
call, fails it at or past its runtime bound, where it has one, and shows the
runtime against that bound.  `run_all` executes them in order and, given a
stream, prints one PASS/FAIL line apiece.  The CLI `validate` subcommand and
the pytest acceptance module both run exactly these checks, at the tolerances
stated here.
"""

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import ritz, shooting
from .boxmodes import BoxGeometry, classify_trig_modes, cq_eigenfunction_extended, cq_eigenvalue
from .piecewise import (discrete_second_derivative_norm, flat_ramp, l2_norm_squared,
                        weak_second_derivative)
from .potentials import AqBox, CqBox, HalfHarmonic, boundary_asymptotic_ratio, half_ho_eigenvalue
from .quadrature import gauss_legendre


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    runtime_s: float


def _criterion(name, runtime_bound=None):
    """Decorator: the check returns (ok, detail); the criterion returns its
    CriterionResult, timed over the whole call and failed at or past
    ``runtime_bound`` seconds."""
    def wrap(check):
        @functools.wraps(check)
        def criterion():
            t0 = time.perf_counter()
            ok, detail = check()
            dt = time.perf_counter() - t0
            if runtime_bound is not None:
                ok = ok and dt < runtime_bound
                detail += f", runtime {dt:.2f}s (<{runtime_bound:g}s)"
            return CriterionResult(name, ok, detail, dt)
        return criterion
    return wrap


@_criterion("1 CQ spectrum reproduction", runtime_bound=1.0)
def criterion_1_cq_spectrum():
    """Closed-form box levels from both solvers."""
    geom = BoxGeometry(1.0, 1.0)
    model = CqBox(geom)
    spec = ritz.compute_spectrum(model, 32, n_diagnostics=8)
    rr_err = max(abs(spec.eigenvalues[n - 1] - cq_eigenvalue(n, geom)) / cq_eigenvalue(n, geom)
                 for n in range(1, 9))
    sh = shooting.spectrum(model, 8, tol=1e-8, grid_size=20001)
    sh_err = max(abs(sh.eigenvalues[n - 1] - cq_eigenvalue(n, geom)) / cq_eigenvalue(n, geom)
                 for n in range(1, 9))
    return (rr_err <= 1e-8 and sh_err <= 1e-6,
            f"rayleigh-ritz rel err {rr_err:.2e} (<=1e-8), shooting rel err {sh_err:.2e} (<=1e-6)")


@_criterion("2 toy delta")
def criterion_2_toy_delta():
    """The kink function's second derivative is one unit delta, not in L2."""
    w2 = weak_second_derivative(flat_ramp())
    deltas = w2.delta_terms
    smooth_max = float(np.max(np.abs(w2.smooth_part(np.linspace(-0.9, 0.9, 501)))))
    norm = l2_norm_squared(w2)
    ok = (len(deltas) == 1 and abs(deltas[0].location) == 0.0
          and abs(deltas[0].coefficient - 1.0) <= 1e-12
          and not w2.delta_prime_terms
          and smooth_max == 0.0 and math.isinf(norm))
    return ok, (f"{len(deltas)} delta(s) at {[d.location for d in deltas]}, "
                f"coefficient {deltas[0].coefficient!r}, smooth max {smooth_max}, L2 {norm}")


@_criterion("3 obstruction scaling", runtime_bound=1.0)
def criterion_3_obstruction_scaling():
    """Mesh second-derivative norm of the ground mode diverges like 1/h."""
    phi1 = cq_eigenfunction_extended(1, BoxGeometry(1.0, 1.0))
    hs = np.array([2.0 ** -k for k in range(6, 13)])
    vals = np.array([discrete_second_derivative_norm(phi1, h) for h in hs])
    slope = float(np.polyfit(np.log(hs), np.log(vals), 1)[0])
    return -1.1 <= slope <= -0.9, f"log-log slope {slope:.4f} (in [-1.1,-0.9])"


@_criterion("4 mode counting")
def criterion_4_mode_counting():
    """Exactly half of the 2M trig candidates vanish at both walls, and they
    are the cosines of odd n and the sines of even n."""
    ok = True
    for m in range(1, 17):
        accepted, rejected = classify_trig_modes(m)
        ok &= len(accepted) == m and len(rejected) == m
        ok &= all((mode.kind == "cosine") == (mode.n % 2 == 1) for mode in accepted)
    return ok, "M accepted of 2M candidates for M = 1..16"


@_criterion("5 half-harmonic validation", runtime_bound=5.0)
def criterion_5_half_harmonic():
    """Half-line oscillator: closed-form levels and wall exponent 3/2."""
    worst = 0.0
    exponents = []
    for hbar in (0.5, 1.0, 2.0):
        model = HalfHarmonic(hbar)
        for k, e in enumerate(shooting.spectrum(model, 5, tol=1e-8, grid_size=20001).eigenvalues):
            exact = half_ho_eigenvalue(k, hbar)
            worst = max(worst, abs(e - exact) / exact)
        exponents.append(shooting.boundary_exponent_probe(model, half_ho_eigenvalue(0, hbar)))
    return (worst <= 1e-6 and all(abs(s - 1.5) <= 0.01 for s in exponents),
            f"max rel err {worst:.2e} (<=1e-6), exponents {[f'{s:.3f}' for s in exponents]} "
            f"(1.5 +- 0.01)")


@_criterion("6 AQ box cross-method", runtime_bound=30.0)
def criterion_6_aq_box_cross_method():
    """The open eigenproblem: two independent methods agree to 1e-6."""
    model = AqBox(BoxGeometry(1.0, 1.0))
    sweep = ritz.convergence_sweep(model, (8, 16, 24, 32, 48), 6)
    monotone = bool(np.all(np.diff(sweep.energies, axis=0) <= 1e-12))
    final_change = float(np.max(sweep.final_change))
    spec = ritz.compute_spectrum(model, 48, n_diagnostics=6)
    worst = 0.0
    structure_ok = True
    for k, e_sh in enumerate(shooting.spectrum(model, 6, tol=1e-9, grid_size=40001).eigenvalues):
        worst = max(worst, abs(e_sh - spec.eigenvalues[k]) / spec.eigenvalues[k])
        diag = spec.levels[k]
        structure_ok &= diag.parity == ("even" if k % 2 == 0 else "odd")
        structure_ok &= diag.node_count == k
        # the node count alone is read, so no exponent probe (ShootingSpectrum.level)
        structure_ok &= shooting.numerov_integrate(model, e_sh, 40001).node_count == k
    return (worst <= 1e-6 and monotone and final_change <= 1e-8 and structure_ok,
            f"max rel delta {worst:.2e} (<=1e-6), monotone {monotone}, final change "
            f"{final_change:.2e} (<=1e-8), parity/nodes {structure_ok}")


@_criterion("7 scaling law")
def criterion_7_scaling_law():
    """E_n(b, hbar) * b^2 / hbar^2 is invariant."""
    ref = ritz.compute_spectrum(AqBox(BoxGeometry(1.0, 1.0)), 48, n_diagnostics=4)
    worst = 0.0
    for b, hbar in ((2.0, 1.0), (1.0, 2.0), (0.5, 3.0)):
        spec = ritz.compute_spectrum(AqBox(BoxGeometry(b, hbar)), 48, n_diagnostics=4)
        scaled = spec.eigenvalues[:4] * b * b / hbar**2
        worst = max(worst, float(np.max(np.abs(scaled - ref.eigenvalues[:4]) / ref.eigenvalues[:4])))
    return worst <= 1e-8, f"max rel deviation {worst:.2e} (<=1e-8) for n<=3"


@_criterion("8 boundary asymptotics")
def criterion_8_boundary_asymptotics():
    """Wall asymptote of the potential and the 3/2 exponent from both solvers."""
    worst_ratio = 0.0
    for b in (1.0, 2.0):
        geom = BoxGeometry(b, 1.0)
        for sgn in (-1.0, 1.0):
            x = sgn * (b - 1e-4 * b)
            worst_ratio = max(worst_ratio, abs(boundary_asymptotic_ratio(x, geom) - 1.0))
    model = AqBox(BoxGeometry(1.0, 1.0))
    spec = ritz.compute_spectrum(model, 48, n_diagnostics=1)
    rr_exp = spec.levels[0].boundary_exponent
    e0 = shooting.spectrum(model, 1, tol=1e-9).eigenvalues[0]
    # the exponent alone is read, so no final shot (ShootingSpectrum.level)
    sh_exp = shooting.boundary_exponent_probe(model, e0)
    return (worst_ratio <= 5e-5 and abs(rr_exp - 1.5) <= 0.01 and abs(sh_exp - 1.5) <= 0.01,
            f"|ratio-1| {worst_ratio:.2e} (<=5e-5) at b-|x|=1e-4 b; exponents "
            f"rayleigh-ritz {rr_exp:.4f}, shooting {sh_exp:.4f} (1.5 +- 0.01)")


@_criterion("9 numerical infrastructure")
def criterion_9_infrastructure():
    """Quadrature exactness and generalized eigensolver residuals."""
    rng = np.random.default_rng(20260809)
    quad_ok = True
    worst_quad = 0.0
    for n in range(2, 17):
        rule = gauss_legendre(n)
        coeffs = rng.uniform(-1.0, 1.0, 2 * n)  # degree 2n-1
        exact = sum(c * ((1.0 - (-1.0) ** (j + 1)) / (j + 1)) for j, c in enumerate(coeffs))
        got = rule.integrate(lambda t: np.polyval(coeffs[::-1], t))
        worst_quad = max(worst_quad, abs(got - exact))
        quad_ok &= abs(got - exact) <= 1e-12

    eig_ok = True
    worst_res = 0.0
    for n in (4, 8, 16, 32):
        a = rng.standard_normal((n, n))
        h = 0.5 * (a + a.T)
        c = rng.standard_normal((n, n))
        s = c @ c.T + n * np.eye(n)
        evals, vecs = ritz.solve_generalized_symmetric(ritz.GeneralizedEigProblem(h, s))
        for i in range(n):
            res = (np.linalg.norm(h @ vecs[:, i] - evals[i] * (s @ vecs[:, i]))
                   / (np.linalg.norm(h) + abs(evals[i]) * np.linalg.norm(s)))
            worst_res = max(worst_res, float(res))
        eig_ok &= worst_res <= 1e-9
    return (quad_ok and eig_ok,
            f"quadrature worst abs err {worst_quad:.2e} (<=1e-12), eigensolver worst rel "
            f"residual {worst_res:.2e} (<=1e-9)")


ALL_CRITERIA = (
    criterion_1_cq_spectrum,
    criterion_2_toy_delta,
    criterion_3_obstruction_scaling,
    criterion_4_mode_counting,
    criterion_5_half_harmonic,
    criterion_6_aq_box_cross_method,
    criterion_7_scaling_law,
    criterion_8_boundary_asymptotics,
    criterion_9_infrastructure,
)


def run_all(stream=None):
    """Run criteria 1-9 in order; one result per criterion, and one line per
    criterion on ``stream`` when it is given."""
    results = []
    shooting._lapack()  # the one-time LAPACK import, outside criterion 1's timer
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        if stream is not None:
            stream.write(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}\n")
            stream.flush()
    return results
