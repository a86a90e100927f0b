import math

import numpy as np
import pytest

from boxaffine.boxmodes import (BoxGeometry, classify_trig_modes, cq_eigenfunction_extended,
                                cq_eigenvalue)
from boxaffine.piecewise import l2_norm_squared, weak_second_derivative
from boxaffine.quadrature import gauss_legendre

GEOM = BoxGeometry(1.0, 1.0)


class TestEigenfunction:
    def test_ground_mode_center_value(self):
        assert cq_eigenfunction_extended(1, GEOM)(0.0) == 1.0

    def test_sine_mode_vanishes_at_wall(self):
        assert cq_eigenfunction_extended(2, GEOM)(1.0) == 0.0

    def test_exactly_zero_outside(self):
        assert cq_eigenfunction_extended(1, GEOM)(1.5) == 0.0
        assert np.all(cq_eigenfunction_extended(3, GEOM)(np.array([-2.0, 1.0, 7.0])) == 0.0)

    @pytest.mark.parametrize("n", range(1, 51))
    def test_dirichlet_walls(self, n):
        assert abs(cq_eigenfunction_extended(n, GEOM)(GEOM.b)) < 1e-14
        assert abs(cq_eigenfunction_extended(n, GEOM)(-GEOM.b)) < 1e-14

    def test_orthogonality(self):
        rule = gauss_legendre(200)
        for m in range(1, 13):
            for n in range(m + 1, 13):
                phi_m, phi_n = cq_eigenfunction_extended(m, GEOM), cq_eigenfunction_extended(n, GEOM)
                val = rule.integrate(lambda x: phi_m(x) * phi_n(x), -GEOM.b, GEOM.b)
                assert abs(val) < 1e-10

    def test_interior_eigen_residual(self):
        xs = np.linspace(-0.999, 0.999, 1000)
        for n in (1, 2, 7):
            k = n * math.pi / 2
            phi = cq_eigenfunction_extended(n, GEOM)(xs)
            d2 = -k * k * phi  # analytic second derivative
            resid = -GEOM.hbar**2 * d2 - cq_eigenvalue(n, GEOM) * phi
            assert np.max(np.abs(resid)) < 1e-10


class TestEigenvalue:
    def test_ground(self):
        assert cq_eigenvalue(1, GEOM) == pytest.approx(math.pi**2 / 4, rel=1e-15)

    def test_second(self):
        assert cq_eigenvalue(2, GEOM) == pytest.approx(math.pi**2, rel=1e-15)

    def test_width_scaling(self):
        assert cq_eigenvalue(1, BoxGeometry(2.0, 1.0)) == pytest.approx(math.pi**2 / 16, rel=1e-15)

    def test_hbar_scaling(self):
        assert cq_eigenvalue(1, BoxGeometry(1.0, 2.0)) == pytest.approx(math.pi**2, rel=1e-15)


class TestNormSquared:
    @pytest.mark.parametrize("n,b,expected", [(1, 1.0, 1.0), (4, 1.0, 1.0), (1, 2.0, 2.0)])
    def test_equals_half_width(self, n, b, expected):
        # the squared L^2 norm over (-b, b) is b for every mode
        geom = BoxGeometry(b, 1.0)
        rule = gauss_legendre(128)
        val = rule.integrate(lambda x: cq_eigenfunction_extended(n, geom)(x) ** 2, -b, b)
        assert val == pytest.approx(expected, rel=1e-12)


class TestModeClassifier:
    def test_two_candidates_per_index(self):
        accepted, rejected = classify_trig_modes(2)
        assert [(m.n, m.kind) for m in accepted] == [(1, "cosine"), (2, "sine")]
        assert [(m.n, m.kind) for m in rejected] == [(1, "sine"), (2, "cosine")]

    def test_single_mode(self):
        accepted, rejected = classify_trig_modes(1)
        assert [(m.n, m.kind) for m in accepted] == [(1, "cosine")]
        assert [(m.n, m.kind) for m in rejected] == [(1, "sine")]

    @pytest.mark.parametrize("m", range(1, 17))
    def test_exactly_half_accepted(self, m):
        accepted, rejected = classify_trig_modes(m)
        assert len(accepted) == m and len(rejected) == m

    def test_accepted_modes_vanish_at_walls(self):
        accepted, rejected = classify_trig_modes(8)
        for mode in accepted:
            k = mode.n * math.pi / 2
            val = math.cos(k) if mode.kind == "cosine" else math.sin(k)
            assert abs(val) < 1e-12
        for mode in rejected:
            k = mode.n * math.pi / 2
            val = math.cos(k) if mode.kind == "cosine" else math.sin(k)
            assert abs(val) > 0.9  # the rejected partner is maximal at the wall


class TestObstructionLink:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_mode_has_two_wall_deltas(self, n):
        w = weak_second_derivative(cq_eigenfunction_extended(n, GEOM))
        assert len(w.delta_terms) == 2
        assert math.isinf(l2_norm_squared(w))


class TestGeometryValidation:
    @pytest.mark.parametrize("b,hbar", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (math.inf, 1.0)])
    def test_rejects_bad_parameters(self, b, hbar):
        with pytest.raises(ValueError):
            BoxGeometry(b, hbar)

    def test_rejects_bad_mode_index(self):
        with pytest.raises(ValueError):
            cq_eigenvalue(0, GEOM)
        with pytest.raises(ValueError):
            cq_eigenfunction_extended(0, GEOM)
