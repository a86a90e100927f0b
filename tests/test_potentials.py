import math

import numpy as np
import pytest
from scipy import integrate

from boxaffine.boxmodes import BoxGeometry
from boxaffine.potentials import (DIRICHLET, INVERSE_SQUARE, AntiBox, AqBox, CqBox, DomainError,
                                  HalfHarmonic, ModelUnsupported, anti_box_potential,
                                  aq_box_potential, boundary_asymptotic_ratio, evaluate_potential,
                                  half_ho_eigenfunction, half_ho_eigenvalue, half_ho_potential,
                                  singularity_metadata)

GEOM = BoxGeometry(1.0, 1.0)


class TestAqBoxPotential:
    def test_center_value(self):
        assert aq_box_potential(0.0, GEOM) == pytest.approx(1.0, rel=1e-15)

    def test_near_wall_value(self):
        # direct arithmetic: (2 * 0.81 + 1) / 0.19^2
        assert aq_box_potential(0.9, GEOM) == pytest.approx((2 * 0.81 + 1) / 0.19**2, rel=1e-14)
        assert aq_box_potential(0.9, GEOM) == pytest.approx(72.5762, abs=1e-4)

    def test_even(self):
        xs = np.linspace(0.01, 0.98, 37)
        assert np.array_equal(aq_box_potential(xs, GEOM), aq_box_potential(-xs, GEOM))

    def test_positive(self):
        xs = np.linspace(-0.999, 0.999, 301)
        assert np.all(aq_box_potential(xs, GEOM) > 0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            aq_box_potential(1.0, GEOM)
        with pytest.raises(DomainError):
            aq_box_potential(np.array([0.0, 1.5]), GEOM)

    def test_scaling_collapse(self):
        geom = BoxGeometry(2.5, 1.7)
        xs = np.linspace(-0.9, 0.9, 21)
        lhs = aq_box_potential(xs * geom.b, geom)
        rhs = (geom.hbar**2 / geom.b**2) * aq_box_potential(xs, GEOM)
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_declared_singularity_strength(self):
        for b in (1.0, 2.0):
            geom = BoxGeometry(b, 1.0)
            s = 1e-6 * b
            val = (s * s) * aq_box_potential(b - s, geom)
            assert val == pytest.approx(0.75 * geom.hbar**2, rel=1e-6)


class TestHalfHoPotential:
    def test_value_at_one(self):
        assert half_ho_potential(1.0, 1.0) == pytest.approx(0.875, rel=1e-15)

    def test_value_at_half(self):
        assert half_ho_potential(0.5, 1.0) == pytest.approx(1.625, rel=1e-15)

    def test_diverges_at_origin(self):
        assert half_ho_potential(1e-12, 1.0) > 1e20

    def test_domain_error(self):
        with pytest.raises(DomainError):
            half_ho_potential(0.0, 1.0)
        with pytest.raises(DomainError):
            half_ho_potential(-1.0, 1.0)


class TestAntiBoxPotential:
    def test_no_pull(self):
        assert anti_box_potential(2.0, GEOM, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_with_pull(self):
        assert anti_box_potential(2.0, GEOM, 1.0) == pytest.approx(1.5, rel=1e-14)

    def test_far_field_decay(self):
        x = 1e4
        assert anti_box_potential(x, GEOM, 0.0) == pytest.approx(2.0 / x**2, rel=1e-3)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            anti_box_potential(0.5, GEOM, 0.0)
        with pytest.raises(DomainError):
            anti_box_potential(1.0, GEOM, 0.0)


class TestBoundaryAsymptoticRatio:
    def test_center_ratio(self):
        assert boundary_asymptotic_ratio(0.0, GEOM) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_near_wall_series(self):
        # exact ratio = (4/3)(3b^2 - 4bs + 2s^2)/(2b - s)^2 ~ 1 - s/(3b)
        s = 1e-4
        val = boundary_asymptotic_ratio(1.0 - s, GEOM)
        assert val == pytest.approx(1.0 - s / 3.0, abs=1e-8)
        assert abs(val - 1.0) <= 5e-5

    def test_wall_limit(self):
        for s in (1e-5, 1e-7, 1e-9):
            assert boundary_asymptotic_ratio(1.0 - s, GEOM) == pytest.approx(1.0, abs=1e-4)

    def test_asymptotic_bound(self):
        b = 1.0
        for s in np.geomspace(1e-8, 1e-2, 25):
            ratio = boundary_asymptotic_ratio(b - s, GEOM)
            assert abs(ratio - 1.0) <= s / (2 * b)

    def test_outside_box_rejected(self):
        with pytest.raises(DomainError):
            boundary_asymptotic_ratio(1.0, GEOM)


class TestSingularityMetadata:
    def test_aq_box(self):
        meta = singularity_metadata(AqBox(GEOM))
        assert meta == ((-1.0, 0.75, -2), (1.0, 0.75, -2))

    def test_aq_box_wide(self):
        meta = singularity_metadata(AqBox(BoxGeometry(2.0, 1.0)))
        assert meta == ((-2.0, 0.75, -2), (2.0, 0.75, -2))
        # limit oracle: s^2 V -> coefficient
        for loc, coeff, expo in meta:
            s = 1e-7 * abs(loc)
            x = loc - math.copysign(s, loc)
            assert s**2 * aq_box_potential(x, BoxGeometry(2.0, 1.0)) == pytest.approx(coeff, rel=1e-5)

    def test_half_harmonic(self):
        meta = singularity_metadata(HalfHarmonic(1.0))
        assert meta == ((0.0, 0.375, -2),)
        s = 1e-7
        assert s * s * half_ho_potential(s, 1.0) == pytest.approx(0.375, rel=1e-5)

    def test_unsupported(self):
        with pytest.raises(ModelUnsupported):
            singularity_metadata(CqBox(GEOM))
        with pytest.raises(ModelUnsupported):
            singularity_metadata(AntiBox(GEOM, 1.0))


class TestModelPlumbing:
    def test_kinetic_coefficients(self):
        assert CqBox(GEOM).kappa == 1.0
        assert AqBox(BoxGeometry(1.0, 2.0)).kappa == 4.0
        assert HalfHarmonic(2.0).kappa == 2.0

    def test_declared_box_facts(self):
        for model in (CqBox(BoxGeometry(2.0, 3.0)), AqBox(BoxGeometry(2.0, 3.0))):
            assert (model.energy_scale, model.length_scale) == (2.25, 2.0)
            assert model.ends == (-2.0, 2.0) and model.symmetric
        assert CqBox(GEOM).walls == (DIRICHLET, DIRICHLET)
        assert AqBox(GEOM).walls == (INVERSE_SQUARE, INVERSE_SQUARE)

    def test_declared_half_line_facts(self):
        model = HalfHarmonic(4.0)
        assert (model.energy_scale, model.length_scale) == (4.0, 2.0)
        assert model.ends == (0.0, 24.0) and not model.symmetric
        assert model.walls == (INVERSE_SQUARE, DIRICHLET)
        assert AntiBox(GEOM).walls == ()  # evaluated only, never solved

    def test_evaluate_dispatch(self):
        assert evaluate_potential(CqBox(GEOM), 0.3) == 0.0
        assert evaluate_potential(AqBox(GEOM), 0.0) == 1.0
        assert evaluate_potential(HalfHarmonic(1.0), 1.0) == 0.875
        assert evaluate_potential(AntiBox(GEOM, 1.0), 2.0) == 1.5

    def test_positivity_all_variants(self):
        xs_box = np.linspace(-0.99, 0.99, 101)
        assert np.all(aq_box_potential(xs_box, GEOM) > 0)
        xs_half = np.linspace(0.01, 10.0, 101)
        assert np.all(half_ho_potential(xs_half, 1.0) > 0)
        xs_out = np.linspace(1.01, 9.0, 101)
        assert np.all(anti_box_potential(xs_out, GEOM, 0.5) > 0)

    def test_anti_box_validation(self):
        with pytest.raises(ValueError):
            AntiBox(GEOM, -1.0)


class TestHalfHoClosedForms:
    def test_levels(self):
        assert half_ho_eigenvalue(0, 1.0) == 2.0
        assert half_ho_eigenvalue(3, 0.5) == 4.0

    def test_eigenfunction_solves_the_equation(self):
        # quadrature oracle: Rayleigh quotient of the closed form equals E_k,
        # in integration-by-parts form (boundary terms vanish as x^3 and
        # through the Gaussian tail)
        for hbar in (0.5, 1.0):
            for k in (0, 1, 2):
                kappa = 0.5 * hbar**2

                def psi(x):
                    return half_ho_eigenfunction(k, x, hbar)

                def dpsi(x, h=1e-6):
                    return (psi(x + h) - psi(x - h)) / (2 * h)

                def integrand_h(x):
                    return kappa * dpsi(x) ** 2 + half_ho_potential(x, hbar) * psi(x) ** 2

                hi = 10 * math.sqrt(hbar)
                num, _ = integrate.quad(integrand_h, 1e-6, hi, limit=300)
                den, _ = integrate.quad(lambda x: psi(x) ** 2, 1e-6, hi, limit=300)
                assert num / den == pytest.approx(half_ho_eigenvalue(k, hbar), rel=1e-6)

    def test_orthogonality(self):
        val, _ = integrate.quad(lambda x: half_ho_eigenfunction(0, x) * half_ho_eigenfunction(1, x),
                                1e-8, 12.0, limit=200)
        assert abs(val) < 1e-8
