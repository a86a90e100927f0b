import math

import numpy as np
import pytest
from scipy import integrate

from boxaffine.boxmodes import BoxGeometry, cq_eigenfunction_extended
from boxaffine.potentials import (DIRICHLET, INVERSE_SQUARE, AntiBox, AqBox, CqBox, DomainError,
                                  HalfHarmonic, ModelUnsupported, boundary_asymptotic_ratio,
                                  evaluate_potential, half_ho_eigenfunction, half_ho_eigenvalue,
                                  singularity_metadata)
from boxaffine.ritz import compute_spectrum

GEOM = BoxGeometry(1.0, 1.0)
# L_k^{(1)}(t) = sum_i (-1)^i C(k + 1, k - i) t^i / i!
LAGUERRE_1 = {0: lambda t: np.ones_like(t),
              1: lambda t: 2.0 - t,
              2: lambda t: t * t / 2 - 3 * t + 3,
              4: lambda t: t**4 / 24 - 5 * t**3 / 6 + 5 * t * t - 10 * t + 5}


class TestAqBoxPotential:
    def test_center_value(self):
        assert AqBox(GEOM).potential(0.0) == pytest.approx(1.0, rel=1e-15)

    def test_near_wall_value(self):
        # direct arithmetic: (2 * 0.81 + 1) / 0.19^2
        assert AqBox(GEOM).potential(0.9) == pytest.approx((2 * 0.81 + 1) / 0.19**2, rel=1e-14)
        assert AqBox(GEOM).potential(0.9) == pytest.approx(72.5762, abs=1e-4)

    def test_even(self):
        xs = np.linspace(0.01, 0.98, 37)
        assert np.array_equal(AqBox(GEOM).potential(xs), AqBox(GEOM).potential(-xs))

    def test_positive(self):
        xs = np.linspace(-0.999, 0.999, 301)
        assert np.all(AqBox(GEOM).potential(xs) > 0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            AqBox(GEOM).potential(1.0)
        with pytest.raises(DomainError):
            AqBox(GEOM).potential(np.array([0.0, 1.5]))

    def test_scaling_collapse(self):
        geom = BoxGeometry(2.5, 1.7)
        xs = np.linspace(-0.9, 0.9, 21)
        lhs = AqBox(geom).potential(xs * geom.b)
        rhs = (geom.hbar**2 / geom.b**2) * AqBox(GEOM).potential(xs)
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_declared_singularity_strength(self):
        for b in (1.0, 2.0):
            geom = BoxGeometry(b, 1.0)
            s = 1e-6 * b
            val = (s * s) * AqBox(geom).potential(b - s)
            assert val == pytest.approx(0.75 * geom.hbar**2, rel=1e-6)


class TestHalfHoPotential:
    def test_value_at_one(self):
        assert HalfHarmonic(1.0).potential(1.0) == pytest.approx(0.875, rel=1e-15)

    def test_value_at_half(self):
        assert HalfHarmonic(1.0).potential(0.5) == pytest.approx(1.625, rel=1e-15)

    def test_diverges_at_origin(self):
        assert HalfHarmonic(1.0).potential(1e-12) > 1e20

    def test_domain_error(self):
        with pytest.raises(DomainError):
            HalfHarmonic(1.0).potential(0.0)
        with pytest.raises(DomainError):
            HalfHarmonic(1.0).potential(-1.0)


class TestAntiBoxPotential:
    def test_no_pull(self):
        assert AntiBox(GEOM, 0.0).potential(2.0) == pytest.approx(1.0, rel=1e-14)

    def test_with_pull(self):
        assert AntiBox(GEOM, 1.0).potential(2.0) == pytest.approx(1.5, rel=1e-14)

    def test_far_field_decay(self):
        x = 1e4
        assert AntiBox(GEOM, 0.0).potential(x) == pytest.approx(2.0 / x**2, rel=1e-3)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            AntiBox(GEOM, 0.0).potential(0.5)
        with pytest.raises(DomainError):
            AntiBox(GEOM, 0.0).potential(1.0)


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
            assert s**2 * AqBox(BoxGeometry(2.0, 1.0)).potential(x) == pytest.approx(coeff, rel=1e-5)

    def test_half_harmonic(self):
        meta = singularity_metadata(HalfHarmonic(1.0))
        assert meta == ((0.0, 0.375, -2),)
        s = 1e-7
        assert s * s * HalfHarmonic(1.0).potential(s) == pytest.approx(0.375, rel=1e-5)

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
        assert np.all(AqBox(GEOM).potential(xs_box) > 0)
        xs_half = np.linspace(0.01, 10.0, 101)
        assert np.all(HalfHarmonic(1.0).potential(xs_half) > 0)
        xs_out = np.linspace(1.01, 9.0, 101)
        assert np.all(AntiBox(GEOM, 0.5).potential(xs_out) > 0)

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
                    return kappa * dpsi(x) ** 2 + HalfHarmonic(hbar).potential(x) * psi(x) ** 2

                hi = 10 * math.sqrt(hbar)
                num, _ = integrate.quad(integrand_h, 1e-6, hi, limit=300)
                den, _ = integrate.quad(lambda x: psi(x) ** 2, 1e-6, hi, limit=300)
                assert num / den == pytest.approx(half_ho_eigenvalue(k, hbar), rel=1e-6)

    def test_orthogonality(self):
        val, _ = integrate.quad(lambda x: half_ho_eigenfunction(0, x) * half_ho_eigenfunction(1, x),
                                1e-8, 12.0, limit=200)
        assert abs(val) < 1e-8

    @pytest.mark.parametrize("k", sorted(LAGUERRE_1))
    def test_laguerre_factor(self, k):
        # psi = x^{3/2} L_k^{(1)}(t) e^{-t/2}, t = x^2/hbar, and psi / x^{3/2}
        # tends to L_k^{(1)}(0) = k + 1 at the wall
        hbar = 0.5
        x = np.linspace(0.05, 2.5, 50)
        t = x * x / hbar
        closed = x**1.5 * LAGUERRE_1[k](t) * np.exp(-0.5 * t)
        assert half_ho_eigenfunction(k, x, hbar) == pytest.approx(closed, rel=1e-12, abs=1e-13)
        assert half_ho_eigenfunction(k, 1e-6, hbar) / 1e-6**1.5 == pytest.approx(k + 1, rel=1e-9)


# (function, a point inside, a point just outside, whether it extends by zero):
# the six model functions raise outside their domain, the zero-extended modes
# return 0.0 there
POINTWISE = {
    "cq-box": (CqBox(GEOM).potential, 0.3, np.nextafter(1.0, 2.0), False),
    "aq-box": (AqBox(GEOM).potential, 0.3, 1.0, False),
    "half-ho": (HalfHarmonic(1.0).potential, 0.3, 0.0, False),
    "anti-box": (AntiBox(GEOM, 1.0).potential, 1.3, 1.0, False),
    "wall-ratio": (boundary_asymptotic_ratio, 0.3, 1.0, False),
    "half-ho-mode": (lambda x: half_ho_eigenfunction(2, x), 0.3, 0.0, False),
    "cq-mode-extended": (cq_eigenfunction_extended(1, GEOM), 0.3, np.nextafter(2.0, 3.0), True),
    "ritz-mode": (lambda x: compute_spectrum(AqBox(GEOM), 16).eigenfunction(1, x), 0.3, 1.0, True),
}


@pytest.mark.parametrize("name", POINTWISE)
def test_scalar_point_gives_float(name):
    fn, inside, outside, zero_extended = POINTWISE[name]
    value, array = fn(inside), fn(np.array([inside]))
    assert type(value) is float
    assert np.array([value]).tobytes() == array.tobytes()
    outside = float(outside)
    if zero_extended:
        value = fn(outside)
        assert type(value) is float and value == 0.0
    else:
        with pytest.raises(DomainError):
            fn(outside)
