import numpy as np
import pytest

from boxaffine.quadrature import gauss_legendre


def analytic_monomial_integral(k):
    # int_{-1}^{1} t^k dt
    return (1.0 - (-1.0) ** (k + 1)) / (k + 1)


class TestGaussLegendre:
    def test_one_point_is_midpoint_rule(self):
        rule = gauss_legendre(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights.tolist() == [2.0]

    def test_two_point_nodes_and_weights(self):
        rule = gauss_legendre(2)
        assert rule.nodes == pytest.approx([-0.5773502691896257, 0.5773502691896257], abs=1e-13)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-13)

    def test_three_point_integrates_quartic(self):
        assert gauss_legendre(3).integrate(lambda t: t**4) == pytest.approx(0.4, abs=1e-14)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_exact_for_random_polynomials(self, n):
        rng = np.random.default_rng(1000 + n)
        rule = gauss_legendre(n)
        coeffs = rng.uniform(-1.0, 1.0, 2 * n)  # degree 2n - 1
        exact = sum(c * analytic_monomial_integral(k) for k, c in enumerate(coeffs))
        got = rule.integrate(lambda t: np.polyval(coeffs[::-1], t))
        assert got == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 16, 65, 512])
    def test_node_symmetry_and_weight_sum(self, n):
        rule = gauss_legendre(n)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 2.0) < 1e-13

    @pytest.mark.parametrize("n", [0, 513])
    def test_order_bounds(self, n):
        with pytest.raises(ValueError):
            gauss_legendre(n)

    def test_rules_are_cached_and_read_only(self):
        rule = gauss_legendre(40)
        assert gauss_legendre(40) is rule
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0

    def test_mapped_interval(self):
        rule = gauss_legendre(8)
        assert rule.integrate(lambda x: x * x, 0.0, 3.0) == pytest.approx(9.0, rel=1e-14)

