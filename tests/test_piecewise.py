import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import boxaffine
from boxaffine.boxmodes import BoxGeometry, cq_eigenfunction_extended
from boxaffine.piecewise import (Piece, PiecewiseSmooth, QuadratureFailure, WeakDerivative,
                                 _limit_from_piece, discrete_second_derivative_norm, flat_ramp,
                                 l2_norm_squared, weak_derivative, weak_second_derivative)


def single_piece(f, df, d2f, lo=-1.0, hi=1.0):
    return PiecewiseSmooth((Piece(lo, hi, f, df, d2f),))


def step_function():
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    return PiecewiseSmooth((
        Piece(-1.0, 0.0, zero, zero, zero),
        Piece(0.0, 1.0, one, zero, zero),
    ))


class TestOneSidedLimit:
    # pieces carry analytic evaluators, so the limit from inside a piece is
    # its evaluator at the endpoint
    def test_toy_slopes_at_origin(self):
        toy = flat_ramp()
        assert _limit_from_piece(toy.pieces[1], 0.0, 1) == 1.0
        assert _limit_from_piece(toy.pieces[0], 0.0, 1) == 0.0

    def test_trig_derivative_at_wall(self):
        phi1 = cq_eigenfunction_extended(1, BoxGeometry(1.0, 1.0))
        # analytic derivative of cos(pi x / 2) at x = 1
        val = _limit_from_piece(phi1.pieces[1], 1.0, 1)
        assert val == pytest.approx(-math.pi / 2, abs=1e-14)


class TestWeakDerivative:
    def test_toy_first_derivative_has_no_delta(self):
        w = weak_derivative(flat_ramp())
        assert w.delta_terms == ()
        assert w.delta_prime_terms == ()
        assert w.smooth_part(-0.5) == 0.0
        assert w.smooth_part(0.5) == 1.0

    def test_constant_function(self):
        const = single_piece(lambda x: np.full_like(np.asarray(x, float), 3.0),
                             lambda x: np.zeros_like(np.asarray(x, float)),
                             lambda x: np.zeros_like(np.asarray(x, float)))
        w = weak_derivative(const)
        assert w.delta_terms == ()
        assert np.all(w.smooth_part(np.linspace(-0.9, 0.9, 11)) == 0.0)

    def test_step_produces_unit_delta(self):
        w = weak_derivative(step_function())
        assert len(w.delta_terms) == 1
        assert w.delta_terms[0].location == 0.0
        assert w.delta_terms[0].coefficient == pytest.approx(1.0, abs=1e-14)


class TestWeakSecondDerivative:
    def test_toy_second_derivative_is_unit_delta(self):
        w = weak_second_derivative(flat_ramp())
        assert len(w.delta_terms) == 1
        assert w.delta_terms[0].location == 0.0
        assert w.delta_terms[0].coefficient == pytest.approx(1.0, abs=1e-12)
        assert w.delta_prime_terms == ()
        assert np.all(w.smooth_part(np.linspace(-0.95, 0.95, 41)) == 0.0)

    def test_extended_ground_mode_wall_deltas(self):
        # jump rule applied to the analytic one-sided limits: the slope of
        # cos(pi x/2) jumps by +pi/2 at both walls of the zero extension
        phi1 = cq_eigenfunction_extended(1, BoxGeometry(1.0, 1.0))
        w = weak_second_derivative(phi1)
        assert [d.location for d in w.delta_terms] == [-1.0, 1.0]
        for d in w.delta_terms:
            assert d.coefficient == pytest.approx(math.pi / 2, abs=1e-12)
        assert w.delta_prime_terms == ()
        xs = np.linspace(-0.99, 0.99, 101)
        expected = -(math.pi / 2) ** 2 * np.cos(math.pi * xs / 2)
        assert w.smooth_part(xs) == pytest.approx(expected, abs=1e-12)

    def test_smooth_single_piece_has_no_deltas(self):
        g = single_piece(lambda x: np.asarray(x, float) ** 2,
                         lambda x: 2.0 * np.asarray(x, float),
                         lambda x: np.full_like(np.asarray(x, float), 2.0))
        w = weak_second_derivative(g)
        assert w.delta_terms == () and w.delta_prime_terms == ()
        assert np.all(w.smooth_part(np.linspace(-0.9, 0.9, 11)) == 2.0)

    def test_step_gives_delta_prime(self):
        w = weak_second_derivative(step_function())
        assert w.delta_terms == ()
        assert len(w.delta_prime_terms) == 1
        assert w.delta_prime_terms[0].coefficient == pytest.approx(1.0, abs=1e-14)

    def test_jump_consistency_with_one_sided_limits(self):
        for n in (1, 2, 5):
            f = cq_eigenfunction_extended(n, BoxGeometry(1.0, 1.0))
            w = weak_second_derivative(f)
            for d in w.delta_terms:
                idx = [p.hi for p in f.pieces[:-1]].index(d.location)
                left, right = f.pieces[idx], f.pieces[idx + 1]
                # each piece's analytic slope at the shared endpoint
                jump = float(right.df(d.location)) - float(left.df(d.location))
                assert d.coefficient == pytest.approx(jump, abs=1e-12)

    def test_jumps_are_weighed_against_their_pieces(self):
        # the slope jumps by n pi/(2b) at each wall, however small or large
        # that is, so a jump is weighed against the derivative on its pieces
        for b in (1e-50, 1.0, 1e11, 1e50):
            for n in (1, 2, 10**6):
                w = weak_second_derivative(cq_eigenfunction_extended(n, BoxGeometry(b)))
                assert [d.location for d in w.delta_terms] == [-b, b]
                for d in w.delta_terms:
                    assert abs(d.coefficient) == pytest.approx(n * math.pi / (2.0 * b),
                                                               rel=1e-12, abs=0.0)
                assert w.delta_prime_terms == ()
        # and not against its two limits alone: cos(pi x/2) leaves ~6e-17 at
        # the walls, rounding noise beside a function of size 1, not a jump
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        cos = lambda x: np.cos(0.5 * math.pi * np.asarray(x, dtype=float))
        sin = lambda x: -0.5 * math.pi * np.sin(0.5 * math.pi * np.asarray(x, dtype=float))
        d2 = lambda x: -0.25 * math.pi**2 * cos(x)
        pw = PiecewiseSmooth((Piece(-2.0, -1.0, zero, zero, zero), Piece(-1.0, 1.0, cos, sin, d2),
                              Piece(1.0, 2.0, zero, zero, zero)))
        assert _limit_from_piece(pw.pieces[1], 1.0, 0) != 0.0
        w = weak_second_derivative(pw)
        assert w.delta_prime_terms == ()
        assert [d.location for d in w.delta_terms] == [-1.0, 1.0]


class TestL2NormSquared:
    def test_infinite_when_delta_present(self):
        assert l2_norm_squared(weak_second_derivative(flat_ramp())) == math.inf

    def test_delta_prime_also_infinite(self):
        assert l2_norm_squared(weak_second_derivative(step_function())) == math.inf

    def test_first_derivative_of_ground_mode(self):
        # quadrature oracle: int (pi/2)^2 sin^2(pi x/2) over (-1, 1) = pi^2/4,
        # and the extension outside the box adds nothing
        phi1 = cq_eigenfunction_extended(1, BoxGeometry(1.0, 1.0))
        w = weak_derivative(phi1)
        assert l2_norm_squared(w) == pytest.approx(math.pi**2 / 4, rel=1e-10)

    def test_zero_function(self):
        zero = single_piece(lambda x: np.zeros_like(np.asarray(x, float)),
                            lambda x: np.zeros_like(np.asarray(x, float)),
                            lambda x: np.zeros_like(np.asarray(x, float)))
        assert l2_norm_squared(weak_derivative(zero)) == 0.0

    @pytest.mark.parametrize("b", [1e-3, 1.0, 1e3, 1e12, 1e50])
    def test_first_derivative_of_every_mode(self, b):
        # int_{-b}^{b} k^2 (sin or cos)^2(k x) dx = k^2 b; mode 120 has 120
        # half-waves in the box, which no rule below order 256 resolves
        for n in range(1, 121):
            k = n * math.pi / (2.0 * b)
            w = weak_derivative(cq_eigenfunction_extended(n, BoxGeometry(b)))
            assert l2_norm_squared(w) == pytest.approx(k * k * b, rel=1e-9, abs=0.0)

    def test_unresolved_piece_raises(self):
        # sin^2(5000 x) has ~1600 periods on (0, 1), beyond order MAX_ORDER
        fast = single_piece(lambda x: np.sin(5000.0 * x), None, None, lo=0.0, hi=1.0)
        with pytest.raises(QuadratureFailure):
            l2_norm_squared(WeakDerivative(fast))

    def test_classification_matches_delta_content(self):
        for n in (1, 2, 3):
            f = cq_eigenfunction_extended(n, BoxGeometry(1.0, 1.0))
            w1, w2 = weak_derivative(f), weak_second_derivative(f)
            assert w1.is_square_integrable and math.isfinite(l2_norm_squared(w1))
            assert not w2.is_square_integrable and math.isinf(l2_norm_squared(w2))


class TestDiscreteSecondDerivativeNorm:
    def test_divergence_ratio_for_ground_mode(self):
        phi1 = cq_eigenfunction_extended(1, BoxGeometry(1.0, 1.0))
        v1 = discrete_second_derivative_norm(phi1, 2.0**-6)
        v2 = discrete_second_derivative_norm(phi1, 2.0**-7)
        assert v2 / v1 == pytest.approx(2.0, abs=0.1)

    def test_divergence_slope_for_kink(self):
        toy = flat_ramp()
        hs = [2.0**-k for k in range(6, 13)]
        vals = [discrete_second_derivative_norm(toy, h, interior_only=True) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(vals), 1)[0]
        assert -1.1 <= slope <= -0.9

    def test_smooth_recovery_is_second_order(self):
        g = single_piece(lambda x: np.cos(np.pi * np.asarray(x, float) / 2),
                         lambda x: -np.pi / 2 * np.sin(np.pi * np.asarray(x, float) / 2),
                         lambda x: -(np.pi / 2) ** 2 * np.cos(np.pi * np.asarray(x, float) / 2))
        exact = l2_norm_squared(weak_second_derivative(g))
        assert exact == pytest.approx((np.pi / 2) ** 4, rel=1e-9)
        errs = [abs(discrete_second_derivative_norm(g, 2.0**-k, interior_only=True) - exact)
                for k in (5, 7, 9)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:])) / 2.0
        assert np.all((orders > 1.8) & (orders < 2.2))

    def test_zero_function(self):
        zero = single_piece(lambda x: np.zeros_like(np.asarray(x, float)),
                            lambda x: np.zeros_like(np.asarray(x, float)),
                            lambda x: np.zeros_like(np.asarray(x, float)))
        assert discrete_second_derivative_norm(zero, 2.0**-5) == 0.0

    def test_mesh_must_divide_interval(self):
        with pytest.raises(ValueError):
            discrete_second_derivative_norm(flat_ramp(), 0.3)


class TestConstruction:
    def test_pieces_must_tile(self):
        f = lambda x: np.asarray(x, float)
        with pytest.raises(ValueError):
            PiecewiseSmooth((Piece(-1.0, 0.0, f), Piece(0.5, 1.0, f)))

    def test_piece_needs_positive_length(self):
        with pytest.raises(ValueError):
            Piece(1.0, 0.0, lambda x: x)

    def test_zero_extension_outside_ambient(self):
        toy = flat_ramp()
        assert toy(5.0) == 0.0
        assert np.all(toy(np.array([-3.0, 2.0])) == 0.0)

    def test_breakpoints(self):
        phi = cq_eigenfunction_extended(2, BoxGeometry(1.0, 1.0))
        assert [piece.hi for piece in phi.pieces[:-1]] == [-1.0, 1.0]
        assert phi.ambient_interval == (-2.0, 2.0)


def test_package_import_leaves_scipy_integrate_unloaded():
    # l2_norm_squared uses the package's own Gauss-Legendre rules, so neither
    # the import nor a finite norm loads scipy.integrate
    env = dict(os.environ, PYTHONPATH=str(Path(boxaffine.__file__).parents[1]))
    code = ("import sys, boxaffine.cli\n"
            "print('scipy.integrate' in sys.modules)\n"
            "from boxaffine.boxmodes import BoxGeometry, cq_eigenfunction_extended\n"
            "from boxaffine.piecewise import l2_norm_squared, weak_derivative\n"
            "l2_norm_squared(weak_derivative(cq_eigenfunction_extended(1, BoxGeometry(1.0))))\n"
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "False"]
