import functools
import math

import numpy as np
import pytest

from boxaffine.boxmodes import BoxGeometry, cq_eigenvalue
from boxaffine.potentials import (AntiBox, AqBox, CqBox, HalfHarmonic, ModelUnsupported,
                                  evaluate_potential, half_ho_eigenfunction, half_ho_eigenvalue)
from boxaffine.ritz import compute_spectrum
from boxaffine import shooting
from boxaffine.shooting import (BracketFailure, FitFailure, ShootingGrid, _brent, _launch,
                                _numerov, _numerov_t, _onesided_nodes, _setup, _wronskian,
                                boundary_exponent_probe, default_grid, eigenvalue_search,
                                numerov_integrate, wavefunction)

GEOM = BoxGeometry(1.0, 1.0)
CQ = CqBox(GEOM)
AQ = AqBox(GEOM)


class TestNumerovIntegrate:
    def test_flat_box_at_eigenvalue(self):
        grid = default_grid(CQ, 10001)
        res = numerov_integrate(CQ, math.pi**2 / 4, grid)
        assert abs(_wronskian(_setup(CQ, grid), math.pi**2 / 4)) < 1e-6
        assert res.node_count == 0

    def test_flat_box_off_eigenvalue(self):
        grid = default_grid(CQ, 10001)
        assert abs(_wronskian(_setup(CQ, grid), 2.0)) > 0.01

    def test_half_harmonic_at_ground(self):
        model = HalfHarmonic(1.0)
        res = numerov_integrate(model, 2.0)
        assert abs(_wronskian(_setup(model, default_grid(model)), 2.0)) < 1e-6
        assert res.node_count == 0

    def test_anti_box_unsupported(self):
        with pytest.raises(ModelUnsupported):
            numerov_integrate(AntiBox(GEOM), 1.0)

    def test_mismatch_finite(self):
        grid = default_grid(AQ, 2001)
        for e in (0.5, 3.0, 7.7, 30.0):
            assert math.isfinite(_wronskian(_setup(AQ, grid), e))
            assert np.all(np.isfinite(numerov_integrate(AQ, e, grid).psi))


class TestEigenvalueSearch:
    def test_flat_box_ground(self):
        e = eigenvalue_search(CQ, 0, tol=1e-9)
        assert e == pytest.approx(math.pi**2 / 4, abs=2e-8)

    @pytest.mark.parametrize("k", range(4))
    def test_flat_box_levels(self, k):
        grid = default_grid(CQ, 20001)
        e = eigenvalue_search(CQ, k, tol=1e-9, grid=grid)
        exact = cq_eigenvalue(k + 1, GEOM)
        assert abs(e - exact) / exact < 1e-6

    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0, 1e-4])
    def test_half_harmonic_closed_form(self, hbar):
        model = HalfHarmonic(hbar)
        grid = default_grid(model, 20001)
        for k in range(5):
            e = eigenvalue_search(model, k, tol=1e-8, grid=grid)
            exact = half_ho_eigenvalue(k, hbar)
            assert abs(e - exact) / exact < 1e-6

    def test_aq_box_matches_variational(self):
        e0 = eigenvalue_search(AQ, 0, tol=1e-9)
        ref = compute_spectrum(AQ, 48).eigenvalues[0]
        assert abs(e0 - ref) / ref < 1e-6

    def test_aq_box_regression_anchor(self):
        # cross-validated value, frozen from both methods agreeing at 2e-8
        e0 = eigenvalue_search(AQ, 0, tol=1e-9)
        assert e0 == pytest.approx(4.6220818138, abs=1e-6)

    @pytest.mark.parametrize("k", range(6))
    def test_node_law(self, k):
        grid = default_grid(AQ, 20001)
        e = eigenvalue_search(AQ, k, tol=1e-9, grid=grid)
        assert numerov_integrate(AQ, e, grid).node_count == k

    def test_eps_robustness(self):
        energies = []
        for eps in (1e-7, 1e-6, 1e-5, 1e-4):
            grid = ShootingGrid(-1.0 + eps, 1.0 - eps, 20001, eps)
            energies.append(eigenvalue_search(AQ, 0, tol=1e-9, grid=grid))
        energies = np.array(energies)
        spread = (energies.max() - energies.min()) / energies.mean()
        assert spread <= 1e-7

    def test_grid_convergence_order_flat_box(self):
        # regular walls: the launch is exact, so the Numerov order shows
        energies = []
        for size in (1001, 2001, 4001):
            grid = default_grid(CQ, size)
            energies.append(eigenvalue_search(CQ, 7, tol=1e-10, grid=grid))
        d = np.abs(np.diff(energies))
        order = math.log2(d[0] / d[1])
        assert 3.5 <= order <= 4.5

    def test_grid_convergence_singular_wall_layer(self):
        # inverse-square walls cap uniform-grid Numerov at second order;
        # this pins the observed behavior so accuracy budgets stay honest
        energies = []
        for size in (2001, 4001, 8001):
            grid = default_grid(AQ, size)
            energies.append(eigenvalue_search(AQ, 1, tol=1e-10, grid=grid))
        d = np.abs(np.diff(energies))
        order = math.log2(d[0] / d[1])
        assert 1.6 <= order <= 2.6
        # absolute error at production grids still far below the 1e-6 budget
        ref = compute_spectrum(AQ, 48).eigenvalues[1]
        e_fine = eigenvalue_search(AQ, 1, tol=1e-9, grid=default_grid(AQ, 40001))
        assert abs(e_fine - ref) / ref < 1e-7

    def test_bracket_failure(self):
        # level 70 lies at 71^2 pi^2 / 4 ~ 1.24e4, above the 1e4 ceiling
        with pytest.raises(BracketFailure):
            eigenvalue_search(CQ, 70)

    def test_tol_floor(self):
        with pytest.raises(ValueError):
            eigenvalue_search(CQ, 0, tol=1e-12)

    @pytest.mark.parametrize("b, hbar", [(1000.0, 1.0), (1.0, 1e4), (1e-3, 1.0), (1.0, 1e-3)])
    def test_tol_relative_to_energy_scale(self, b, hbar):
        # an absolute width would return bracket midpoints at small scales and
        # could never be met at large ones
        geom = BoxGeometry(b, hbar)
        grid = default_grid(CqBox(geom), 20001)
        for k in range(3):
            e = eigenvalue_search(CqBox(geom), k, tol=1e-8, grid=grid)
            exact = cq_eigenvalue(k + 1, geom)
            assert abs(e - exact) / exact < 1e-6

    @pytest.mark.parametrize("model", [CQ, AQ, HalfHarmonic(1.0)], ids=["cq-box", "aq-box", "half-ho"])
    def test_probe_memo_leaves_energies_unchanged(self, model):
        # node-count probes are shared across the levels of one (model, grid);
        # a level must come out the same whatever the memo already holds
        grid = default_grid(model, 20001)
        for k in (3, 6):
            _setup.cache_clear()
            cold = eigenvalue_search(model, k, tol=1e-9, grid=grid)
            _setup.cache_clear()
            warm = [eigenvalue_search(model, j, tol=1e-9, grid=grid) for j in range(k + 1)][-1]
            assert warm == cold

    def test_sweeps_per_level(self, monkeypatch):
        # a count, not a timing: isolating brackets, shared staircase probes
        # and Brent keep 12 levels to <= 20 kernel calls each (the all-bisection
        # search took ~39 full-grid sweeps per level)
        calls = []

        def counted(T, psi, i0):
            calls.append(T.shape[0])
            return _numerov(T, psi, i0)

        monkeypatch.setattr(shooting, "_numerov", counted)
        grid = default_grid(AQ, 20001)
        _setup.cache_clear()
        for k in range(12):
            eigenvalue_search(AQ, k, tol=1e-8, grid=grid)
        assert len(calls) <= 20 * 12

    def test_two_sided_root_matches_ritz(self):
        # the Wronskian root is the two-sided eigenvalue of the grid; the
        # one-sided staircase alone sits 2e-8 to 2e-7 away from Ritz
        grid = default_grid(AQ, 20001)
        ref = compute_spectrum(AQ, 64, n_diagnostics=12).eigenvalues[:12]
        got = np.array([eigenvalue_search(AQ, k, tol=1e-8, grid=grid) for k in range(12)])
        assert np.max(np.abs(got - ref) / ref) < 5e-9

    def test_staircase_fallback_without_sign_change(self, monkeypatch):
        # no clean Wronskian sign change: the staircase bisection alone
        # narrows the bracket to the width and returns its midpoint
        monkeypatch.setattr(shooting, "_wronskian", lambda setup, E: 1.0)
        _setup.cache_clear()
        grid = default_grid(CQ, 20001)
        for k in range(3):
            e = eigenvalue_search(CQ, k, tol=1e-9, grid=grid)
            exact = cq_eigenvalue(k + 1, GEOM)
            assert abs(e - exact) / exact < 1e-6

    # the scaled levels are invariant: grid, wall offset, search start and
    # width all follow the model's declared scales, so a wrong declaration
    # shows as a scale-dependent level
    @pytest.mark.parametrize("b, hbar", [(1e-3, 1.0), (10.0, 1e2), (1e3, 1e-3), (3.7, 0.2)])
    @pytest.mark.parametrize("cls", [AqBox, CqBox], ids=["aq-box", "cq-box"])
    def test_box_scaling_law(self, cls, b, hbar):
        got = [eigenvalue_search(cls(BoxGeometry(b, hbar)), k, tol=1e-10) * b * b / hbar**2
               for k in range(6)]
        assert got == pytest.approx(_unit_levels(cls(GEOM), 6), rel=1e-10)

    @pytest.mark.parametrize("hbar", [1e-3, 0.37, 1e3])
    def test_half_line_scaling_law(self, hbar):
        got = [eigenvalue_search(HalfHarmonic(hbar), k, tol=1e-10) / hbar for k in range(5)]
        assert got == pytest.approx(_unit_levels(HalfHarmonic(1.0), 5), rel=1e-10)


@functools.lru_cache(maxsize=None)
def _unit_levels(model, count):
    return [eigenvalue_search(model, k, tol=1e-10) for k in range(count)]


class TestBrent:
    def test_root_of_cosine(self):
        root = _brent(math.cos, 1.0, 2.0, math.cos(1.0), math.cos(2.0), 1e-14)
        assert root == pytest.approx(math.pi / 2, abs=1e-14)

    def test_root_at_bracket_end(self):
        assert _brent(lambda x: x - 1.0, 1.0, 3.0, 0.0, 2.0, 1e-12) == 1.0

    def test_step_function_terminates_by_bisection(self):
        calls = []

        def step(x):
            calls.append(x)
            return -1.0 if x < 0.3 else 1.0

        root = _brent(step, 0.0, 1.0, -1.0, 1.0, 1e-10)
        assert abs(root - 0.3) <= 1e-10
        assert len(calls) < 200


class TestBoundaryExponent:
    def test_aq_box_ground(self):
        e0 = eigenvalue_search(AQ, 0, tol=1e-9)
        assert boundary_exponent_probe(AQ, e0) == pytest.approx(1.5, abs=0.01)

    def test_flat_box_ground(self):
        e0 = eigenvalue_search(CQ, 0, tol=1e-9)
        assert boundary_exponent_probe(CQ, e0) == pytest.approx(1.0, abs=0.01)

    def test_half_harmonic_ground(self):
        model = HalfHarmonic(1.0)
        assert boundary_exponent_probe(model, 2.0) == pytest.approx(1.5, abs=0.01)

    def test_fit_failure_on_coarse_grid(self):
        model = HalfHarmonic(1.0)
        with pytest.raises(FitFailure):
            boundary_exponent_probe(model, 2.0, default_grid(model, 1001))

    @pytest.mark.parametrize("model", [CQ, AQ, HalfHarmonic(1.0)], ids=["cq-box", "aq-box", "half-ho"])
    def test_wall_sweep_matches_full_grid_fit(self, model):
        # the probe sweeps only from the wall across the fit window; the slope
        # must be the one fitted on the assembled two-sided solution
        grid = default_grid(model, 40001)
        for k in (0, 1, 5):
            e = eigenvalue_search(model, k, tol=1e-9, grid=default_grid(model, 20001))
            assert boundary_exponent_probe(model, e) == pytest.approx(
                _exponent_reference(model, e, grid), abs=1e-12)


def _exponent_reference(model, E, grid):
    # the full-grid fit: log|psi| of the assembled two-sided solution against
    # log s over the window s in [1e-4, 1e-2] * scale next to the wall
    xs, psi = wavefunction(model, E, grid)
    scale = model.length_scale
    s = xs.copy() if isinstance(model, HalfHarmonic) else (xs[-1] + grid.eps) - xs
    window = (s >= 1e-4 * scale) & (s <= 1e-2 * scale)
    return float(np.polyfit(np.log(s[window]), np.log(np.abs(psi[window])), 1)[0])


class TestWavefunction:
    def test_normalized_and_symmetric(self):
        e0 = eigenvalue_search(AQ, 0, tol=1e-9)
        xs, psi = wavefunction(AQ, e0)
        assert np.max(np.abs(psi)) == pytest.approx(1.0)
        assert psi == pytest.approx(psi[::-1], abs=1e-5)

    def test_odd_level_antisymmetric(self):
        grid = default_grid(AQ, 20001)
        e1 = eigenvalue_search(AQ, 1, tol=1e-9, grid=grid)
        xs, psi = wavefunction(AQ, e1, grid)
        assert psi == pytest.approx(-psi[::-1], abs=1e-4)

    @pytest.mark.parametrize("k", range(4))
    def test_shot_carries_wavefunction_and_parity(self, k):
        grid = default_grid(AQ, 20001)
        e = eigenvalue_search(AQ, k, tol=1e-9, grid=grid)
        shot = numerov_integrate(AQ, e, grid)
        xs, psi = wavefunction(AQ, e, grid)
        assert np.array_equal(shot.xs, xs) and np.array_equal(shot.psi, psi)
        assert shot.node_count == k
        assert shot.parity == ("even" if k % 2 == 0 else "odd")
        assert numerov_integrate(HalfHarmonic(1.0), 2.0).parity is None

    def test_half_harmonic_matches_closed_form(self):
        model = HalfHarmonic(1.0)
        for k in (0, 2):
            e = eigenvalue_search(model, k, tol=1e-9)
            xs, psi = wavefunction(model, e)
            ref = half_ho_eigenfunction(k, xs, 1.0)
            cosine = abs(psi @ ref) / math.sqrt((psi @ psi) * (ref @ ref))
            assert cosine == pytest.approx(1.0, abs=1e-8)


class TestGridValidation:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            ShootingGrid(-1.0, 1.0, 999, 0.0)

    def test_ordering(self):
        with pytest.raises(ValueError):
            ShootingGrid(1.0, -1.0, 2000, 0.0)

    def test_default_grids(self):
        g = default_grid(AQ, 2001)
        assert g.x_min == -1.0 + 1e-6 and g.x_max == 1.0 - 1e-6 and g.eps == 1e-6
        g = default_grid(CQ, 2001)
        assert g.x_min == -1.0 and g.x_max == 1.0 and g.eps == 0.0
        g = default_grid(HalfHarmonic(4.0), 2001)
        assert g.x_max == 24.0
        with pytest.raises(ModelUnsupported):
            default_grid(AntiBox(GEOM), 2001)


def test_kernel_rescaling_keeps_values_finite():
    # constant positive g grows like exp(5x); long enough to exceed 1e100
    # several times over (early entries underflow toward 0, by design)
    n = 40000
    h = 0.02
    T = np.full(n, (h * h / 12.0) * 25.0)
    psi = np.zeros(n)
    psi[1] = h
    _numerov(T, psi, 1)
    assert np.all(np.isfinite(psi))
    assert np.max(np.abs(psi)) < 1e110
    assert np.all(psi >= 0.0)
    # the live window keeps its monotone growth through the rescales
    tail = psi[-2000:]
    assert np.all(np.diff(tail) > 0)


def _numerov_reference(T, psi, i0):
    # the per-step loop of the summed form, kept as the reference that the
    # banded kernel must reproduce to rounding
    n = T.shape[0]
    delta = psi[i0] - psi[i0 - 1]
    for i in range(i0, n - 1):
        delta = (delta + (T[i + 1] + 10.0 * T[i]) * psi[i] + T[i - 1] * psi[i - 1]) / (1.0 - T[i + 1])
        psi[i + 1] = psi[i] + delta
        if (i - i0) % 512 == 511:
            m = abs(psi[i + 1])
            if m > 1e100:
                inv = 1.0 / m
                for j in range(i + 2):
                    psi[j] *= inv
                delta *= inv
    return psi


def _levels(model, count):
    if isinstance(model, CqBox):
        return [cq_eigenvalue(n, GEOM) for n in range(1, count + 1)]
    if isinstance(model, HalfHarmonic):
        return [half_ho_eigenvalue(k, model.hbar) for k in range(count)]
    return list(compute_spectrum(model, 48, n_diagnostics=count).eigenvalues[:count])


@pytest.mark.parametrize("model", [CQ, AQ, HalfHarmonic(1.0)], ids=["cq-box", "aq-box", "half-ho"])
def test_kernel_matches_reference_loop(model):
    # trial energies midway between levels 0..6 (and below level 0), where the
    # search probes; exactly at an eigenvalue the sweep's tail is rounding
    # noise amplified by the growing solution and no two kernels agree there
    levels = [0.0] + _levels(model, 7)
    grid = default_grid(model)
    xs = grid.points
    V = evaluate_potential(model, xs)
    for lo, hi in zip(levels[:-1], levels[1:]):
        T = _numerov_t(model, 0.5 * (lo + hi), grid, V)
        start, i0 = _launch(model.walls[0], xs - xs[0] + grid.eps)
        psi = np.zeros(xs.size)
        psi[:start.size] = start
        ref = _numerov_reference(T, psi.copy(), i0)
        got = _numerov(T, psi, i0)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert _onesided_nodes(got, T) == _onesided_nodes(ref, T)


def test_kernel_matches_reference_loop_through_rescales():
    # the growing solution of the rescaling test, rescaled many times over
    n = 40000
    h = 0.02
    T = np.full(n, (h * h / 12.0) * 25.0)
    psi = np.zeros(n)
    psi[1] = h
    ref = _numerov_reference(T, psi.copy(), 1)
    got = _numerov(T, psi, 1)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_kernel_rejects_unit_step_coefficient():
    # 1 - T_{i+1} is the pivot of each step; an exact zero cannot be divided by
    T = np.zeros(1200)
    T[700] = 1.0
    psi = np.zeros(1200)
    psi[1] = 1e-3
    with pytest.raises(ZeroDivisionError, match="step 699"):
        _numerov(T, psi, 1)
