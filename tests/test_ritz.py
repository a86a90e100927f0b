import math

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq
from scipy.special import eval_gegenbauer, pro_cv

from boxaffine.boxmodes import BoxGeometry, cq_eigenvalue
from boxaffine.potentials import AqBox, CqBox, HalfHarmonic, ModelUnsupported, evaluate_potential
from boxaffine.quadrature import gauss_legendre
from boxaffine.ritz import (GeneralizedEigProblem, NoConvergence, NotPositiveDefinite, _sample,
                            assemble_matrices, compute_spectrum, convergence_sweep,
                            solve_generalized_symmetric)

GEOM = BoxGeometry(1.0, 1.0)
AQ = AqBox(GEOM)
CQ = CqBox(GEOM)


def random_problem(rng, n):
    a = rng.standard_normal((n, n))
    h = 0.5 * (a + a.T)
    c = rng.standard_normal((n, n))
    s = c @ c.T + n * np.eye(n)
    return GeneralizedEigProblem(h, s)


class TestAssembly:
    def test_dirichlet_rayleigh_quotient(self):
        # chi_0 = 1 - x^2: hand integration gives (8/3) / (16/15) = 2.5
        prob = assemble_matrices(CQ, 1)
        assert prob.H[0, 0] / prob.S[0, 0] == pytest.approx(2.5, rel=1e-14)

    def test_parity_block_structure(self):
        for model in (CQ, AQ):
            prob = assemble_matrices(model, 12)
            j = np.arange(12)
            odd = (j[:, None] + j[None, :]) % 2 == 1
            assert np.all(prob.H[odd] == 0.0)
            assert np.all(prob.S[odd] == 0.0)

    def test_symmetry_and_spd(self):
        for model in (CQ, AQ):
            prob = assemble_matrices(model, 16)
            assert np.array_equal(prob.H, prob.H.T)
            assert np.array_equal(prob.S, prob.S.T)
            assert np.all(np.linalg.eigvalsh(prob.S) > 0)

    def test_singular_wall_quotient_is_upper_bound(self):
        prob = assemble_matrices(AQ, 1)
        e0 = compute_spectrum(AQ, 32).eigenvalues[0]
        assert prob.H[0, 0] / prob.S[0, 0] >= e0

    def test_unsupported_models(self):
        # the weighted basis needs alike walls at both ends of a box
        for solve in (assemble_matrices, compute_spectrum,
                      lambda model, n: convergence_sweep(model, (n,), 4)):
            with pytest.raises(ModelUnsupported):
                solve(HalfHarmonic(1.0), 8)

    def test_basis_validation(self):
        for model in (CQ, AQ):
            for n in (0, 65):
                for solve in (assemble_matrices, compute_spectrum,
                              lambda model, n: convergence_sweep(model, (n,), 0)):
                    with pytest.raises(ValueError, match="basis size"):
                        solve(model, n)


class TestGegenbauer:
    """The sampled basis polynomials: C_n of order lambda = 2w - 1/2,
    orthonormal for the weight (1 - t^2)^{lambda - 1/2}."""

    def test_orthonormal_under_quadrature(self):
        # the weight is (1 - t^2)^2 or (1 - t^2), so the integrands are
        # polynomials of degree <= 2 * 63 + 4, exact under 70 points
        rule = gauss_legendre(70)
        t, wq = rule.nodes, rule.weights
        for w in (1.0, 1.5):
            _, C = _sample(w, 64, t)
            gram = np.einsum("i,ji,ki->jk", wq * (1.0 - t * t) ** (2 * w - 1), C, C)
            assert np.max(np.abs(gram - np.eye(64))) <= 1e-12

    def test_matches_scipy_gegenbauer(self):
        # C_n^(lambda) / sqrt(h_n), h_n = 2^{1-2 lambda} pi Gamma(n + 2 lambda)
        # / ((n + lambda) Gamma(lambda)^2 n!)  (DLMF 18.3)
        t = np.linspace(-1.0, 1.0, 41)
        for w in (1.0, 1.5):
            lam = 2 * w - 0.5
            _, C = _sample(w, 64, t)
            for n in (0, 1, 2, 7, 31, 63):
                h = (2.0 ** (1 - 2 * lam) * math.pi * math.gamma(n + 2 * lam)
                     / ((n + lam) * math.gamma(lam) ** 2 * math.factorial(n)))
                expected = eval_gegenbauer(n, lam, t) / math.sqrt(h)
                scale = np.max(np.abs(expected))
                assert np.max(np.abs(C[n] - expected)) <= 1e-12 * scale


class TestGeneralizedEigensolver:
    def test_diagonal_case_sorted(self):
        evals, _ = solve_generalized_symmetric(
            GeneralizedEigProblem(np.diag([3.0, 1.0]), np.eye(2)))
        assert evals == pytest.approx([1.0, 3.0], abs=1e-14)

    def test_two_by_two(self):
        evals, _ = solve_generalized_symmetric(
            GeneralizedEigProblem(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2)))
        assert evals == pytest.approx([1.0, 3.0], abs=1e-13)

    @pytest.mark.parametrize("n", [2, 6, 16, 32])
    def test_residuals_and_scipy_agreement(self, n):
        rng = np.random.default_rng(900 + n)
        prob = random_problem(rng, n)
        evals, vecs = solve_generalized_symmetric(prob)
        assert np.all(np.diff(evals) >= -1e-12)
        reference = scipy.linalg.eigh(prob.H, prob.S, eigvals_only=True)
        assert evals == pytest.approx(reference, rel=1e-10, abs=1e-10)
        norm_h, norm_s = np.linalg.norm(prob.H), np.linalg.norm(prob.S)
        for i in range(n):
            res = np.linalg.norm(prob.H @ vecs[:, i] - evals[i] * (prob.S @ vecs[:, i]))
            assert res <= 1e-9 * (norm_h + abs(evals[i]) * norm_s)

    def test_s_orthonormality(self):
        rng = np.random.default_rng(17)
        prob = random_problem(rng, 12)
        _, vecs = solve_generalized_symmetric(prob)
        gram = vecs.T @ prob.S @ vecs
        assert np.max(np.abs(gram - np.eye(12))) <= 1e-10

    def test_not_positive_definite(self):
        bad = GeneralizedEigProblem(np.eye(3), np.diag([1.0, -1.0, 1.0]))
        with pytest.raises(NotPositiveDefinite):
            solve_generalized_symmetric(bad)

    def test_semidefinite_overlap_is_not_positive_definite(self):
        # finite, so it passes the guard; its Cholesky factorization fails
        with pytest.raises(NotPositiveDefinite):
            solve_generalized_symmetric(GeneralizedEigProblem(np.eye(3), np.diag([1.0, 0.0, 1.0])))

    def test_eigensolve_failure_is_no_convergence(self, monkeypatch):
        # the class comes from the call that failed, not from the message:
        # this one names positive definiteness, yet the eigensolve raised it
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NoConvergence):
            solve_generalized_symmetric(random_problem(np.random.default_rng(1), 4))

    def test_non_finite_overlap_is_not_positive_definite(self):
        s = np.eye(3)
        s[1, 1] = np.nan
        with pytest.raises(NotPositiveDefinite):
            solve_generalized_symmetric(GeneralizedEigProblem(np.eye(3), s))
        s[1, 1] = np.inf
        with pytest.raises(NotPositiveDefinite):
            solve_generalized_symmetric(GeneralizedEigProblem(np.eye(3), s))

    def test_non_finite_stiffness_is_no_convergence(self):
        h = np.eye(3)
        h[0, 2] = h[2, 0] = np.nan
        with pytest.raises(NoConvergence):
            solve_generalized_symmetric(GeneralizedEigProblem(h, np.eye(3)))

    def test_inputs_left_unmodified(self):
        rng = np.random.default_rng(5)
        prob = random_problem(rng, 8)
        h, s = prob.H.copy(), prob.S.copy()
        solve_generalized_symmetric(prob)
        assert np.array_equal(prob.H, h) and np.array_equal(prob.S, s)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        prob = random_problem(rng, 10)
        e1, v1 = solve_generalized_symmetric(prob)
        e2, v2 = solve_generalized_symmetric(prob)
        assert np.array_equal(e1, e2) and np.array_equal(v1, v2)


class TestSpectrum:
    def test_flat_box_levels(self):
        spec = compute_spectrum(CQ, 32, n_diagnostics=6)
        for n in range(1, 7):
            exact = cq_eigenvalue(n, GEOM)
            assert abs(spec.eigenvalues[n - 1] - exact) / exact <= 1e-8

    def test_flat_box_example_n24(self):
        spec = compute_spectrum(CQ, 24)
        assert abs(spec.eigenvalues[0] - math.pi**2 / 4) / (math.pi**2 / 4) <= 1e-8

    def test_parity_alternation_and_nodes(self):
        spec = compute_spectrum(AQ, 48, n_diagnostics=9)
        for k in range(9):
            assert spec.levels[k].parity == ("even" if k % 2 == 0 else "odd")
            assert spec.levels[k].node_count == k
            assert not spec.levels[k].degenerate

    def test_boundary_exponents(self):
        aq = compute_spectrum(AQ, 48, n_diagnostics=2)
        assert aq.levels[0].boundary_exponent == pytest.approx(1.5, abs=0.01)
        cq = compute_spectrum(CQ, 32, n_diagnostics=2)
        assert cq.levels[0].boundary_exponent == pytest.approx(1.0, abs=0.01)

    def test_eigenfunction_residual(self):
        spec = compute_spectrum(AQ, 48, n_diagnostics=4)
        for lv in spec.levels:
            assert lv.residual_norm <= 1e-6

    def test_pointwise_residual_recomputed(self):
        # independent finite-difference check away from the walls
        spec = compute_spectrum(AQ, 48, n_diagnostics=1)
        e0 = spec.eigenvalues[0]
        xs = np.linspace(-0.9, 0.9, 601)
        h = 1e-5
        psi = spec.eigenfunction(0, xs)
        d2 = (spec.eigenfunction(0, xs + h) - 2 * psi + spec.eigenfunction(0, xs - h)) / h**2
        resid = -d2 + evaluate_potential(AQ, xs) * psi - e0 * psi
        assert np.max(np.abs(resid)) / (e0 * np.max(np.abs(psi))) < 1e-5

    def test_eigenfunction_zero_outside(self):
        spec = compute_spectrum(AQ, 16, n_diagnostics=1)
        assert spec.eigenfunction(0, 1.5) == 0.0
        assert spec.eigenfunction(0, -1.0) == 0.0

    def test_scaling_law(self):
        ref = compute_spectrum(AQ, 40)
        for b, hbar in ((2.0, 1.0), (1.0, 2.0), (0.5, 3.0)):
            spec = compute_spectrum(AqBox(BoxGeometry(b, hbar)), 40)
            scaled = spec.eigenvalues[:4] * b * b / hbar**2
            assert scaled == pytest.approx(ref.eigenvalues[:4], rel=1e-8)

    def test_s_orthonormal_coefficients(self):
        spec = compute_spectrum(AQ, 24)
        prob = assemble_matrices(AQ, spec.basis)
        gram = spec.coefficients.T @ prob.S @ spec.coefficients
        assert np.max(np.abs(gram - np.eye(24))) <= 1e-10

    def test_determinism(self):
        s1 = compute_spectrum(AQ, 24)
        s2 = compute_spectrum(AQ, 24)
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.coefficients, s2.coefficients)


@pytest.fixture(scope="module")
def spheroidal_c():
    """c_k for k = 0..11, the root of lambda_{2,k+2}(c) = c^2 + 2 (prolate
    spheroidal characteristic values, DLMF 30.3): the aq-box levels are
    E_k = c_k^2 hbar^2 / b^2, computed here by neither solver."""
    def root(k):
        return brentq(lambda c: pro_cv(2, k + 2, c) - c * c - 2.0, 1e-3, math.pi * (k + 3),
                      xtol=1e-15, rtol=4 * np.finfo(float).eps)
    return np.array([root(k) for k in range(12)])


@pytest.mark.parametrize("b, hbar", [(1.0, 1.0), (1e-40, 1.0), (1e3, 1e-3), (1.0, 1e12),
                                     (1e45, 1.0)])
def test_levels_against_independent_references(spheroidal_c, b, hbar):
    geom = BoxGeometry(b, hbar)
    aq = compute_spectrum(AqBox(geom), 48).eigenvalues[:12]
    ref = spheroidal_c**2 * hbar**2 / b**2
    rel = (aq - ref) / ref
    assert np.max(np.abs(rel)) <= 2e-14
    assert np.min(rel) >= -1e-14  # the variational bound, up to rounding
    cq = compute_spectrum(CqBox(geom), 48).eigenvalues[:12]
    exact = np.array([cq_eigenvalue(n, geom) for n in range(1, 13)])
    assert np.max(np.abs(cq - exact) / exact) <= 1e-14


SCALES = [(1.0, 1.0), (1e-40, 1.0), (1e3, 1e-3), (1.0, 1e12), (1e45, 1.0), (3.7, 20.0),
          (1.0, 1e-20)]


@pytest.mark.parametrize("b, hbar", SCALES)
@pytest.mark.parametrize("cls", [AqBox, CqBox], ids=["aq-box", "cq-box"])
def test_parity_blocks_solve_the_dense_pencil(cls, b, hbar):
    # the block eigenpairs against scipy.linalg.eigh of the assembled pencil
    # (with the Rayleigh quotient of solve_generalized_symmetric, which keeps
    # the low levels to full relative accuracy).  The blocks resolve their
    # eigenvalues mu = (kappa/b^2)/E to eps * max mu, so level k to
    # eps * E_k / E_0 relative: levels 0-11 to rounding, the top of N = 64
    # to ~3e-14
    model = cls(BoxGeometry(b, hbar))
    for n in range(1, 65):
        spec = compute_spectrum(model, n)
        prob = assemble_matrices(model, spec.basis)
        ref, _ = solve_generalized_symmetric(prob)
        energies, vecs = spec.eigenvalues, spec.coefficients
        rel = np.abs(energies - ref) / ref
        assert np.max(rel[:12]) <= 1e-14
        assert np.max(rel / np.maximum(1.0, energies / energies[min(n, 12) - 1])) <= 1e-14
        assert np.max(np.abs(vecs.T @ prob.S @ vecs - np.eye(n))) <= 1e-12
        residual = prob.H @ vecs - (prob.S @ vecs) * energies
        size = (np.abs(prob.H).max() + energies * np.abs(prob.S).max()) * np.abs(vecs).max(axis=0)
        assert np.max(np.abs(residual).max(axis=0) / size) <= 1e-13
        swept = convergence_sweep(model, (n,), min(n, 12)).energies[0]
        assert np.max(np.abs(swept - ref[:12]) / ref[:12]) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 7, 48, 64])
@pytest.mark.parametrize("model", [AQ, CQ], ids=["aq-box", "cq-box"])
def test_each_level_has_its_block_parity(model, n):
    # a level's coefficients vanish exactly in the other parity's rows, its
    # reported parity is that block's, and its eigenfunction has that symmetry
    spec = compute_spectrum(model, n)
    x = np.linspace(0.05, 0.95, 7)
    for k in range(n):
        column = spec.coefficients[:, k]
        even = not np.any(column[1::2])
        assert even != (not np.any(column[0::2]))  # exactly one block carries it
        if k < len(spec.levels):
            assert spec.levels[k].parity == ("even" if even else "odd")
        psi = spec.eigenfunction(k, x)
        mirrored = spec.eigenfunction(k, -x) * (1.0 if even else -1.0)
        assert np.max(np.abs(mirrored - psi)) <= 1e-9 * np.max(np.abs(psi))


class TestConvergenceSweep:
    def test_variational_monotonicity(self):
        table = convergence_sweep(AQ, (8, 12, 16, 24, 32, 48), 6)
        assert np.all(np.diff(table.energies, axis=0) <= 1e-12)

    @pytest.mark.parametrize("model_cls", [AqBox, CqBox])
    @pytest.mark.parametrize("decade", range(-2, 5))
    def test_relative_monotonicity_across_scales(self, model_cls, decade):
        # hbar^2/b^2 = 10^decade, with b and hbar both moved off 1.  The
        # lowest level is up to 2e5 times smaller than the highest at N = 64,
        # so an eigensolver accurate only to eps * |A| lets the low levels
        # rise by up to ~3e-12 relative from one size to the next; a
        # rounding-level rise is ~1e-15.
        hbar = 10.0 ** (decade / 4)
        model = model_cls(BoxGeometry(10.0 ** (-decade / 4), hbar))
        table = convergence_sweep(model, (12, 16, 24, 32, 48, 64), 12)
        rise = np.diff(table.energies, axis=0) / table.energies[1:]
        assert np.max(rise) <= 1e-12

    def test_final_change_small(self):
        table = convergence_sweep(AQ, (8, 16, 32, 48), 6)
        assert np.max(table.final_change) <= 1e-8

    def test_flat_box_bound_is_exact_value(self):
        table = convergence_sweep(CQ, (4, 8, 16), 2)
        e1 = cq_eigenvalue(1, GEOM)
        col = table.energies[:, 0]
        assert np.all(np.diff(col) <= 1e-12)
        assert np.all(col >= e1 - 1e-12)
        assert col[-1] == pytest.approx(e1, rel=1e-10)

    def test_sizes_must_ascend(self):
        for sizes in ((16, 8), ()):
            with pytest.raises(ValueError):
                convergence_sweep(AQ, sizes, 4)

