import ast
import functools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import dtrtrs

from boxaffine.boxmodes import BoxGeometry, cq_eigenvalue
from boxaffine.potentials import (AntiBox, AqBox, CqBox, HalfHarmonic, ModelUnsupported,
                                  evaluate_potential, half_ho_eigenfunction, half_ho_eigenvalue)
from boxaffine.ritz import compute_spectrum
from boxaffine import cli, shooting
from boxaffine.boxmodes import count_nodes
from boxaffine.shooting import (_A0, E_MAX_FACTOR, EPS_FRAC, GRID_SIZE, PROBE_GRID_SIZE,
                                SERIES_FRAC, BracketFailure, _end, _End, _grid, _launch, _newton,
                                _numerov, _numerov_t, _phase, _probe, _setup, _start,
                                _sweep, _turns, boundary_exponent_probe, eigenvalue_search,
                                numerov_integrate, wavefunction)

GEOM = BoxGeometry(1.0, 1.0)
CQ = CqBox(GEOM)
AQ = AqBox(GEOM)
HO = HalfHarmonic(1.0)
MODELS = pytest.mark.parametrize("model", [CQ, AQ, HO], ids=["cq-box", "aq-box", "half-ho"])
SIZES = pytest.mark.parametrize("size", [1000, 1001, 4000, 4001, 20001])


class TestNumerovIntegrate:
    def test_flat_box_at_eigenvalue(self):
        res = numerov_integrate(CQ, math.pi**2 / 4, 10001)
        assert abs(_phase(_setup(CQ, 10001), math.pi**2 / 4)[0] - 1.0) < 1e-6
        assert res.node_count == 0

    def test_flat_box_off_eigenvalue(self):
        assert abs(_phase(_setup(CQ, 10001), 2.0)[0] - 1.0) > 0.01

    def test_half_harmonic_at_ground(self):
        model = HalfHarmonic(1.0)
        res = numerov_integrate(model, 2.0)
        assert abs(_phase(_setup(model, GRID_SIZE), 2.0)[0] - 1.0) < 1e-6
        assert res.node_count == 0

    def test_anti_box_unsupported(self):
        with pytest.raises(ModelUnsupported):
            numerov_integrate(AntiBox(GEOM), 1.0)

    def test_mismatch_finite(self):
        for e in (0.5, 3.0, 7.7, 30.0):
            assert all(map(math.isfinite, _phase(_setup(AQ, 2001), e)))
            assert np.all(np.isfinite(numerov_integrate(AQ, e, 2001).psi))


class TestEigenvalueSearch:
    def test_flat_box_ground(self):
        e = eigenvalue_search(CQ, 0, tol=1e-9)
        assert e == pytest.approx(math.pi**2 / 4, abs=2e-8)

    @pytest.mark.parametrize("k", range(4))
    def test_flat_box_levels(self, k):
        e = eigenvalue_search(CQ, k, tol=1e-9, grid_size=20001)
        exact = cq_eigenvalue(k + 1, GEOM)
        assert abs(e - exact) / exact < 1e-6

    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0, 1e-4])
    def test_half_harmonic_closed_form(self, hbar):
        model = HalfHarmonic(hbar)
        for k in range(5):
            e = eigenvalue_search(model, k, tol=1e-8, grid_size=20001)
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
        e = eigenvalue_search(AQ, k, tol=1e-9, grid_size=20001)
        assert numerov_integrate(AQ, e, 20001).node_count == k

    def test_eps_robustness(self, monkeypatch):
        # the wall offset, in units of the length scale (1 here)
        energies = []
        _setup.cache_clear()
        for eps in (1e-7, 1e-6, 1e-5, 1e-4):
            monkeypatch.setattr(shooting, "EPS_FRAC", eps)
            energies.append(eigenvalue_search(AQ, 0, tol=1e-9, grid_size=20001))
            _setup.cache_clear()
        energies = np.array(energies)
        spread = (energies.max() - energies.min()) / energies.mean()
        assert spread <= 1e-7

    def test_grid_convergence_order_flat_box(self):
        # regular walls: the launch is exact, so the Numerov order shows
        energies = []
        for size in (1001, 2001, 4001):
            energies.append(eigenvalue_search(CQ, 7, tol=1e-10, grid_size=size))
        d = np.abs(np.diff(energies))
        order = math.log2(d[0] / d[1])
        assert 3.5 <= order <= 4.5

    def test_grid_convergence_singular_wall_layer(self):
        # the wall series launch keeps Numerov fourth order at inverse-square
        # walls; planting the leading power alone gave second order here
        for model in (AQ, HalfHarmonic(1.0)):
            energies = []
            for size in (1001, 2001, 4001):
                energies.append(eigenvalue_search(model, 1, tol=1e-10, grid_size=size))
            d = np.abs(np.diff(energies))
            order = math.log2(d[0] / d[1])
            assert 3.5 <= order <= 4.5
        ref = compute_spectrum(AQ, 48).eigenvalues[1]
        e_fine = eigenvalue_search(AQ, 1, tol=1e-10, grid_size=40001)
        assert abs(e_fine - ref) / ref < 1e-12

    def test_accuracy_at_default_grid(self):
        # the CLI's default grid holds levels 0-11 to these bounds at tol 1e-10
        size = GRID_SIZE
        for model, bound in ((AQ, 5e-11), (CQ, 5e-11), (HalfHarmonic(1.0), 3e-10)):
            got = np.array([eigenvalue_search(model, k, tol=1e-10, grid_size=size) for k in range(12)])
            ref = np.array(_levels(model, 12, basis=64))
            assert np.max(np.abs(got - ref) / ref) <= bound

    def test_bracket_failure(self):
        # level 70 lies at 71^2 pi^2 / 4 ~ 1.24e4, above the 1e4 ceiling
        with pytest.raises(BracketFailure):
            eigenvalue_search(CQ, 70)

    def test_levels_up_to_the_ceiling(self):
        # the scan's last probe is the ceiling itself, 1e4 energy units: levels
        # 57-62 (8300-9793 units) lie past its last doubling, 8192, and below
        # the ceiling, and level 63 (10106 units) lies above it
        for k in (57, 62):
            exact = cq_eigenvalue(k + 1, GEOM)
            assert abs(eigenvalue_search(CQ, k) - exact) / exact <= 1e-7
        with pytest.raises(BracketFailure):
            eigenvalue_search(CQ, 63)

    def test_tol_floor(self):
        with pytest.raises(ValueError):
            eigenvalue_search(CQ, 0, tol=1e-12)

    @pytest.mark.parametrize("b, hbar", [(1000.0, 1.0), (1.0, 1e4), (1e-3, 1.0), (1.0, 1e-3)])
    def test_tol_relative_to_energy_scale(self, b, hbar):
        # an absolute width would return bracket midpoints at small scales and
        # could never be met at large ones
        geom = BoxGeometry(b, hbar)
        for k in range(3):
            e = eigenvalue_search(CqBox(geom), k, tol=1e-8, grid_size=20001)
            exact = cq_eigenvalue(k + 1, geom)
            assert abs(e - exact) / exact < 1e-6

    @pytest.mark.parametrize("model", [CQ, AQ, HalfHarmonic(1.0)], ids=["cq-box", "aq-box", "half-ho"])
    def test_probe_memo_leaves_energies_unchanged(self, model):
        # node-count probes are shared across the levels of one (model,
        # grid_size); a level must come out the same whatever the memo holds
        for k in (3, 6):
            _setup.cache_clear()
            cold = eigenvalue_search(model, k, tol=1e-9, grid_size=20001)
            _setup.cache_clear()
            warm = [eigenvalue_search(model, j, tol=1e-9, grid_size=20001) for j in range(k + 1)][-1]
            assert warm == cold

    def test_sweeps_per_level(self, monkeypatch):
        # a count, not a timing: 12 levels at the default grid and tol, with
        # the shared doubling scan and Newton on the counting phase from the
        # three-point start.  Measured kernel calls and grid lengths per
        # level: aq-box 3.25 and 1.63, cq-box 1.83 and 0.92, half-ho 3.00 and
        # 1.50 (two calls a phase)
        calls = []

        def counted(T, psi, i0):
            calls.append(T.shape[0])
            return _numerov(T, psi, i0)

        monkeypatch.setattr(shooting, "_numerov", counted)
        for model, most_calls, most_lengths in ((AQ, 3.35, 1.7), (CQ, 1.95, 0.96), (HO, 3.1, 1.55)):
            _setup.cache_clear()
            calls.clear()
            for k in range(12):
                eigenvalue_search(model, k, tol=1e-8, grid_size=4001)
            assert len(calls) <= most_calls * 12
            assert sum(calls) <= most_lengths * 4001 * 12

    @pytest.mark.parametrize("power", [0.5, 1.0], ids=["linear-in-sqrt-E", "linear-in-E"])
    def test_start_on_a_quadratic_in_sqrt_energy(self, power, monkeypatch):
        # a Theta that the quadratic in sqrt(E) through the scan's last three
        # probes holds exactly: Newton starts on the root, and one value past
        # the scan, whose step is below the width, ends the search
        energies = []

        def theta(setup, E):
            energies.append(E)
            return 0.7 * E**power, 0.7 * power * E ** (power - 1.0)

        monkeypatch.setattr(shooting, "_phase", theta)
        k = 4
        root = ((k + 1) / 0.7) ** (1.0 / power)
        assert eigenvalue_search(CQ, k, tol=1e-8) == pytest.approx(root, abs=1e-8)
        assert energies[:-1] == [2.0**j for j in range(len(energies) - 1)]
        assert len(energies) >= 4 and math.log2(energies[-1]) % 1.0

    def test_two_sided_root_matches_ritz(self):
        # the root of Theta = k + 1 is the two-sided eigenvalue of the grid
        ref = compute_spectrum(AQ, 64, n_diagnostics=12).eigenvalues[:12]
        got = np.array([eigenvalue_search(AQ, k, tol=1e-8, grid_size=20001) for k in range(12)])
        assert np.max(np.abs(got - ref) / ref) < 5e-9

    def test_bisection_fallback_without_derivative(self, monkeypatch):
        # no usable derivative: bisection alone narrows the bracket to the
        # width and returns its midpoint
        phase = shooting._phase
        monkeypatch.setattr(shooting, "_phase", lambda setup, E: (phase(setup, E)[0], 0.0))
        _setup.cache_clear()
        for k in range(3):
            e = eigenvalue_search(CQ, k, tol=1e-9, grid_size=20001)
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


def _two_sided_phase(setup, E):
    # the counting phase from a left and a right sweep, as the half line
    # takes it, written out from its definition: n_L + n_R + (phi_L + phi_R)
    # / pi with phi_L = atan2(psi_L, psi_L'/k) mod pi and phi_R =
    # atan2(psi_R, -psi_R'/k) mod pi at the match point, and its rate from
    # the Wronskian identity, with the mass's Euler-Maclaurin end term and
    # the term from dk/dE; the reference the mirrored form must reproduce.
    # A box's setup holds no right end, so the reference builds its own.
    m, model = setup.match, setup.model
    h = setup.h
    T = _numerov_t(model, E, h, setup.V)
    psi_l = _sweep(_start(setup, setup.left, E), T[:m + 2])
    right = np.ascontiguousarray(T[::-1][:T.size - m + 1])
    eps = EPS_FRAC * model.length_scale
    right_end = _end(model, model.walls[1], ((setup.xs[-1] - setup.xs) + eps)[::-1])
    psi_r = _sweep(_start(setup, right_end, E), right)[::-1]  # psi_r[j] is at xs[m - 1 + j]
    k = math.sqrt(max(abs(E - float(setup.V[m])), model.energy_scale) / model.kappa)
    gap = E - float(setup.V[m])
    dk = (1.0 if gap > 0 else -1.0) / (2 * model.kappa * k) if abs(gap) > model.energy_scale else 0.0

    def slope(psi, i):  # psi'(x_m), with the O(h^4) Numerov difference
        return ((1 - 2 * T[m + 1]) * psi[i + 1] - (1 - 2 * T[m - 1]) * psi[i - 1]) / (2 * h)

    theta = rate = 0.0
    for value, dpsi, nodes, inner in ((psi_l[m], slope(psi_l, m), count_nodes(psi_l[:m + 1]), psi_l[:m]),
                                      (psi_r[1], -slope(psi_r, 1), count_nodes(psi_r[1:]), psi_r[2:])):
        theta += nodes + (math.atan2(value, dpsi / k) % math.pi) / math.pi
        # int psi^2 by the trapezoid rule less h^2/12 (psi^2)', (psi^2)' = 2 psi psi'
        mass = h * (inner @ inner + 0.5 * value**2) - h * h / 6 * value * dpsi
        rate += (mass / (model.kappa * k) + value * dpsi / k * dk / k) / (value**2 + (dpsi / k) ** 2)
    return theta, rate / math.pi


class TestMirroredWronskian:
    # the matching phase of one mirrored sweep against that of two sweeps;
    # odd grids match at the centre (m* = m), even ones at one of the two
    # central points (m* is the other)
    @pytest.mark.parametrize("size", [1000, 1001, 4000, 4001])
    @pytest.mark.parametrize("b, hbar", [(1.0, 1.0), (1e-3, 1.0), (3.7, 20.0)])
    @pytest.mark.parametrize("cls", [AqBox, CqBox], ids=["aq-box", "cq-box"])
    def test_matches_two_sided_reference(self, cls, b, hbar, size):
        model = cls(BoxGeometry(b, hbar))
        _setup.cache_clear()
        setup = _setup(model, size)
        for E in np.geomspace(0.5, 400.0, 60) * model.energy_scale:
            theta, rate = _phase(setup, E)
            ref_theta, ref_rate = _two_sided_phase(setup, E)
            assert abs(theta - ref_theta) <= 1e-9
            assert abs(rate - ref_rate) <= 1e-9 * ref_rate

    @pytest.mark.parametrize("size", [4000, 4001])
    @pytest.mark.parametrize("model", [AQ, CqBox(BoxGeometry(0.3, 2.0))], ids=["aq-box", "cq-box"])
    def test_levels_match_two_sided_search(self, model, size, monkeypatch):
        _setup.cache_clear()
        got = np.array([eigenvalue_search(model, k, tol=1e-10, grid_size=size) for k in range(12)])
        monkeypatch.setattr(shooting, "_phase", _two_sided_phase)
        _setup.cache_clear()
        ref = np.array([eigenvalue_search(model, k, tol=1e-10, grid_size=size) for k in range(12)])
        assert np.max(np.abs(got - ref) / ref) <= 1e-12

    def test_no_energy_swept_twice(self, monkeypatch):
        # every phase is memoised with its derivative, and the levels share the
        # scan's, so a spectrum sweeps each energy once: T = h^2 (V - E) / 12
        # kappa differs between energies
        sweeps = []

        def counted(start, T):
            sweeps.append(T.tobytes())
            return _sweep(start, T)

        monkeypatch.setattr(shooting, "_sweep", counted)
        _setup.cache_clear()
        for k in range(12):
            eigenvalue_search(AQ, k, tol=1e-8, grid_size=4001)
        assert len(sweeps) == len(set(sweeps))


@functools.lru_cache(maxsize=None)
def _probe_energies(model):
    # below level 0, and midway between consecutive levels 0..12
    if model.symmetric:
        levels = compute_spectrum(model, 64, n_diagnostics=13).eigenvalues[:13]
    else:
        levels = np.array([half_ho_eigenvalue(k, model.hbar) for k in range(13)])
    return [0.5 * levels[0], *(0.5 * (levels[:-1] + levels[1:]))]


def _onesided_nodes(psi_l, T):
    # node count of a left sweep over the whole grid, which steps at each
    # eigenvalue; the points right at a singular wall where h^2 g / 12 > 1
    # are dropped, as the recurrence value there has an arbitrary sign
    n = T.size
    tail = 0
    while tail < 3 and T[n - 1 - tail] > 1.0:
        tail += 1
    return count_nodes(psi_l[: n - tail])


def _full_sweep_nodes(setup, E):
    T = _numerov_t(setup.model, E, setup.h, setup.V)
    return _onesided_nodes(_sweep(_start(setup, setup.left, E), T), T)


def _mirrored_nodes(setup, E):
    # the node count over the whole grid of a mirror-symmetric model from a
    # left sweep through the centre: the discrete Sturm counts of the even and
    # odd half problems.  On an odd grid with centre c it is
    # 2 nodes(u[:c+1]) + [u_c (u_{c+1} - u_{c-1}) < 0]; on an even one, with
    # central points p and q = p + 1, 2 nodes(u[:p+1]) + [u_p (u_p + u_q) < 0]
    # + [u_p (u_q - u_p) < 0]
    n = setup.xs.size
    p = (n - 1) // 2
    T = _numerov_t(setup.model, E, setup.h, setup.V[:p + 3])
    u = _sweep(_start(setup, setup.left, E), T)
    count = 2 * count_nodes(u[:p + 1])
    if n % 2:
        return count + int(u[p] * (u[p + 1] - u[p - 1]) < 0)
    return count + int(u[p] * (u[p] + u[p + 1]) < 0) + int(u[p] * (u[p + 1] - u[p]) < 0)


class TestMirroredNodes:
    # floor(Theta), from a box sweep through max(m, m*) + 1 only, is the node
    # count of a left sweep over the whole grid
    @pytest.mark.parametrize("size", [1000, 1001, 4000, 4001, 20001])
    @pytest.mark.parametrize("b, hbar", [(1.0, 1.0), (1e-3, 1.0), (3.7, 20.0)])
    @pytest.mark.parametrize("cls", [AqBox, CqBox], ids=["aq-box", "cq-box"])
    def test_half_sweep_count_matches_full_sweep(self, cls, b, hbar, size):
        model = cls(BoxGeometry(b, hbar))
        _setup.cache_clear()
        setup = _setup(model, size)
        for E in _probe_energies(model):
            assert math.floor(_phase(setup, E)[0]) == _full_sweep_nodes(setup, E)

    @pytest.mark.parametrize("size", [4000, 4001])
    def test_box_probes_sweep_half_the_grid(self, size, monkeypatch):
        lengths = []

        def counted(T, psi, i0):
            lengths.append(T.shape[0])
            return _numerov(T, psi, i0)

        monkeypatch.setattr(shooting, "_numerov", counted)
        for model in (AQ, CQ, HO):
            _setup.cache_clear()
            setup = _setup(model, size)
            lengths.clear()
            for E in np.geomspace(0.5, 400.0, 12) * model.energy_scale:
                _phase(setup, E)
            m = setup.match
            if model.symmetric:
                assert max(lengths) <= max(m, size - 1 - m) + 2
            else:  # the half line sweeps through m + 1 from the left, to m - 1 from the right
                assert lengths == [m + 2, size - m + 1] * 12


class TestCountingPhase:
    @SIZES
    @MODELS
    def test_floor_is_the_sturm_count(self, model, size):
        # at the probe energies of every level and at 320 random energies up
        # to 2000 energy units per case, 4800 in all.  The references are the
        # full-sweep count on the half line and, on a box, the half-problem
        # count: next to an inverse-square wall the full sweep drops the last
        # point, and just above a level on a coarse grid the node that has
        # entered from the wall lies there (aq-box at 1001 points, 1035.4 and
        # 1247.6 energy units, where Theta reads 20.0007 and 22.0006)
        _setup.cache_clear()
        setup = _setup(model, size)
        reference = _mirrored_nodes if model.symmetric else _full_sweep_nodes
        rng = np.random.default_rng(size)
        for E in [*_probe_energies(model), *rng.uniform(0.0, 2000.0, 320) * model.energy_scale]:
            assert math.floor(_phase(setup, E)[0]) == reference(setup, E)

    @SIZES
    @MODELS
    def test_continuous_and_increasing(self, model, size):
        # between neighbours on a fine scan through levels 0-11 Theta rises, and
        # by far less than a turn; a count and an angle that disagree show as a
        # jump of one
        _setup.cache_clear()
        setup = _setup(model, size)
        theta = np.array([_phase(setup, E)[0] for E in np.linspace(0.0, _probe_energies(model)[-1], 401)[1:]])
        steps = np.diff(theta)
        assert np.all(steps > 0.0) and np.max(steps) <= 0.5

    def test_count_and_angle_agree_at_a_node(self):
        # a node at the match point: whatever the sign and size of psi there,
        # including zeros and values whose angle rounds to pi, the branch has
        # made one turn.  psi' < 0 there, so psi_i > 0 has not yet crossed
        for value in (1e-20, 1e-300, 0.0, -0.0, -1e-300, -1e-20):
            psi = np.array([0.0, 1.0, 2.0, 1.0, value, -1.0])
            assert _turns(psi, np.zeros(6), 4, 1.0)[0] == 1.0

    @SIZES
    @MODELS
    def test_derivative_matches_central_difference(self, model, size):
        _setup.cache_clear()
        setup = _setup(model, size)
        for k in range(12):
            E = eigenvalue_search(model, k, tol=1e-10, grid_size=size)
            step = 1e-5 * E
            central = (_phase(setup, E + step)[0] - _phase(setup, E - step)[0]) / (2.0 * step)
            assert abs(_phase(setup, E)[1] / central - 1.0) <= 1e-5

    @pytest.mark.parametrize("size", [1000, 4001, 20001])
    @MODELS
    def test_derivative_matches_central_difference_between_levels(self, model, size):
        # midway between levels, where Newton starts.  Without the term from
        # dk/dE the rate is off by up to 0.5 (aq-box); without the mass's end
        # term by 8e-6 to 6e-5 at 1000 points; measured <= 1.1e-7 (half-ho, 1000)
        _setup.cache_clear()
        setup = _setup(model, size)
        levels = [eigenvalue_search(model, k, tol=1e-10, grid_size=size) for k in range(8)]
        for E in 0.5 * (np.array(levels[:-1]) + levels[1:]):
            step = 1e-5 * E
            central = (_phase(setup, E + step)[0] - _phase(setup, E - step)[0]) / (2.0 * step)
            assert abs(_phase(setup, E)[1] / central - 1.0) <= 1e-6

    @SIZES
    @MODELS
    def test_levels_lie_within_the_width_of_the_root(self, model, size):
        # the reference root of Theta = k + 1 bisects floor(Theta) down to
        # 1e-13 energy units
        _setup.cache_clear()
        setup = _setup(model, size)
        scale = model.energy_scale
        roots = []
        for k in range(12):
            lo, hi = (roots[-1] if roots else 0.0), 1000.0 * scale
            while hi - lo > 1e-13 * scale:
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if math.floor(_phase(setup, mid)[0]) > k else (mid, hi)
            roots.append(hi)
        for tol in (1e-8, 1e-10):
            got = [eigenvalue_search(model, k, tol=tol, grid_size=size) for k in range(12)]
            assert np.max(np.abs(np.subtract(got, roots))) <= tol * scale

    @pytest.mark.parametrize("cls", [AqBox, CqBox], ids=["aq-box", "cq-box"])
    def test_scale_invariant_at_the_energy_scale(self, cls):
        # the first scan probe; on aq-box it sits at or next to V at the match
        # point, where the Pruefer scale k takes its floor
        values = []
        for b, hbar in ((1.0, 1.0), (1e-3, 1.0), (0.119, 0.213), (1000.0, 1.0), (3.7, 20.0), (1e-20, 1e5)):
            model = cls(BoxGeometry(b, hbar))
            values.append(_phase(_setup(model, 4001), model.energy_scale)[0])
        assert max(values) - min(values) <= 1e-9


@functools.lru_cache(maxsize=None)
def _unit_levels(model, count):
    return [eigenvalue_search(model, k, tol=1e-10) for k in range(count)]


class TestNewton:
    # the root finder of eigenvalue_search, on functions with known roots
    def test_root_of_cosine(self):
        root = _newton(lambda x: (-math.cos(x), math.sin(x)), 0.0, 1.0, 2.0,
                       -math.cos(1.0), -math.cos(2.0), 1e-14)
        assert root == pytest.approx(math.pi / 2, abs=1e-14)

    def test_root_at_bracket_end(self):
        f = lambda x: (math.sqrt(x) - 3.0, 0.5 / math.sqrt(x))
        assert _newton(f, 0.0, 1.0, 9.0, -2.0, 0.0, 1e-12) == 9.0

    def test_step_function_terminates_by_bisection(self):
        calls = []

        def step(x):
            calls.append(x)
            return (-1.0 if x < 0.3 else 1.0), 0.0

        root = _newton(step, 0.0, 0.0, 1.0, -1.0, 1.0, 1e-10)
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

    @pytest.mark.parametrize("b, hbar", [(1.0, 1.0), (1e-40, 1e-40), (1e-3, 1.0), (3.7, 20.0),
                                         (1e45, 1e45)])
    def test_fit_window_holds_enough_points(self, b, hbar):
        # the probe's own grid puts at least 20 points in the fit window of
        # every model, at every scale
        for model in (CqBox(BoxGeometry(b, hbar)), AqBox(BoxGeometry(b, hbar)), HalfHarmonic(hbar)):
            assert np.count_nonzero(_probe(model).window) >= 20

    @pytest.mark.parametrize("model", [CQ, AQ, HalfHarmonic(1.0)], ids=["cq-box", "aq-box", "half-ho"])
    def test_wall_sweep_matches_full_grid_fit(self, model):
        # the probe sweeps only from the wall across the fit window; the slope
        # must be the one fitted on a leading-power sweep over the whole grid
        for k in (0, 1, 5):
            e = eigenvalue_search(model, k, tol=1e-9, grid_size=20001)
            assert boundary_exponent_probe(model, e) == pytest.approx(
                _exponent_reference(model, e), abs=1e-12)

    def test_memoised_window_is_bit_identical(self):
        # the window and the potential on it are built once per model; the
        # slopes must equal those of the construction over the full grid,
        # also when probes on different models alternate
        models = (CQ, AQ, HalfHarmonic(0.37))
        for E in (0.7, 2.0, 4.6, 14.4, 48.8):
            for model in models + models[::-1]:
                e = E * model.energy_scale
                got = boundary_exponent_probe(model, e)
                assert got == _probe_full_grid(model, e)


def _exponent_reference(model, E):
    # the full-grid fit: one sweep from the probed wall over the whole probe
    # grid, launched with the leading power alone, and log|psi| fitted
    # against log s over the window s in [1e-4, 1e-2] * scale next to that wall
    left = model.walls == (shooting.INVERSE_SQUARE, shooting.DIRICHLET)
    xs, h, eps = _grid(model, PROBE_GRID_SIZE)
    xs = xs if left else xs[::-1].copy()
    s = np.abs(xs - xs[0]) + eps
    T = _numerov_t(model, E, h, evaluate_potential(model, xs))
    start = _launch(model.walls[0 if left else 1], s)
    psi = np.zeros(xs.size)
    psi[:start.size] = start
    _numerov(T, psi, start.size - 1)
    scale = model.length_scale
    window = (s >= 1e-4 * scale) & (s <= 1e-2 * scale)
    return float(np.polyfit(np.log(s[window]), np.log(np.abs(psi[window])), 1)[0])


def _probe_full_grid(model, E):
    # the probe as it was before its window was memoised: the whole probe
    # grid, its distances and masks built on every call
    scale = model.length_scale
    step = 1 if model.walls == (shooting.INVERSE_SQUARE, shooting.DIRICHLET) else -1
    xs, h, eps = _grid(model, PROBE_GRID_SIZE)
    xs, wall = xs[::step], model.walls[::step][0]
    s = np.abs(xs - (xs[0] - step * eps))
    window = (s >= 1e-4 * scale) & (s <= 1e-2 * scale)
    stop = int(np.flatnonzero(window)[-1]) + 1
    T = _numerov_t(model, E, h, evaluate_potential(model, np.ascontiguousarray(xs[:stop])))
    start = _launch(wall, np.abs(xs - xs[0]) + eps)
    psi = np.zeros(stop)
    psi[:start.size] = start
    _numerov(T, psi, start.size - 1)
    a = np.abs(psi[window[:stop]])
    good = a > 0
    return float(np.polyfit(np.log(s[window][good]), np.log(a[good]), 1)[0])


class TestWallSeries:
    @pytest.mark.parametrize("hbar", [1.0, 1e-3, 37.0])
    def test_half_line_series_is_the_closed_form(self, hbar):
        # at E = 2 hbar (k + 1) the regular wall solution is the eigenfunction
        # x^{3/2} L_k^(1)(x^2/hbar) exp(-x^2/2 hbar), up to a constant factor
        model = HalfHarmonic(hbar)
        setup = _setup(model, 20001)
        x = setup.xs[:setup.left.base.size]
        assert x[-1] < SERIES_FRAC * model.length_scale
        for k in range(12):
            planted = _start(setup, setup.left, half_ho_eigenvalue(k, hbar))
            ratio = planted / half_ho_eigenfunction(k, x, hbar)
            assert np.max(np.abs(ratio / ratio[-1] - 1.0)) <= 1e-13

    def test_declared_aq_box_series(self):
        # sum w_j u^j against u^2 b^2 V / kappa, the latter in exact rational
        # arithmetic at dyadic distances s < SERIES_FRAC * b (b = hbar = 1)
        for s in (2.0**-30, 2.0**-17, 2.0**-10, 3.0 * 2.0**-8, 0.0498046875):
            u = Fraction(s)
            x = 1 - u
            exact = u * u * (2 * x * x + 1) / (1 - x * x) ** 2
            got = math.fsum(w * s**j for j, w in enumerate(AQ.wall_series))
            assert abs(got - float(exact)) <= 2e-16 * float(exact)

    @pytest.mark.parametrize("model", [AQ, HalfHarmonic(1.0)], ids=["aq-box", "half-ho"])
    def test_series_region(self, model):
        # every grid point nearer a wall than SERIES_FRAC * length_scale is
        # planted, and none farther; Dirichlet ends start from (0, h)
        setup = _setup(model, 4001)
        s = setup.xs - setup.xs[0] + EPS_FRAC * model.length_scale
        planted = setup.left.base.size
        assert s[planted - 1] < SERIES_FRAC * model.length_scale <= s[planted]
        if model.walls[1] == shooting.DIRICHLET:
            assert setup.right.powers is None and setup.right.base.size == 2

    @MODELS
    def test_right_end_only_where_read(self, model):
        # a box takes its right branch from the left sweep reflected, so only
        # the half line builds the right end
        setup = _setup(model, 4001)
        if model.symmetric:
            assert setup.right is None
        else:
            assert isinstance(setup.right, _End)


    @pytest.mark.parametrize("model", [AQ, HalfHarmonic(0.37)], ids=["aq-box", "half-ho"])
    def test_start_is_bit_identical_to_a_fresh_solve(self, model):
        # each sweep writes its energy into its wall's one recurrence; system
        # and start values must be the bits of a fresh copy of the E = 0
        # system with the energy added, solved alike, as energies and ends
        # alternate
        setup = _setup(model, 4001)
        recurrence = shooting._recurrence(model.wall_series)
        for E in np.random.default_rng(7).uniform(0.0, E_MAX_FACTOR, 50) * model.energy_scale:
            for end in (setup.left, setup.right):
                if end is None or end.powers is None:
                    continue
                system = recurrence.copy(order="F")
                n = np.arange(2, recurrence.shape[0])  # -w_2 sits at (n, n - 2)
                system[n, n - 2] += E * model.length_scale**2 / model.kappa
                coefficients, _ = dtrtrs(system, _A0, lower=1)
                start = _start(setup, end, E)
                assert np.array_equal(end.recurrence, system)
                assert np.array_equal(start, end.base * (end.powers @ coefficients))


class TestWavefunction:
    def test_normalized_and_symmetric(self):
        e0 = eigenvalue_search(AQ, 0, tol=1e-9)
        xs, psi = wavefunction(AQ, e0)
        assert np.max(np.abs(psi)) == pytest.approx(1.0)
        assert psi == pytest.approx(psi[::-1], abs=1e-5)

    def test_odd_level_antisymmetric(self):
        e1 = eigenvalue_search(AQ, 1, tol=1e-9, grid_size=20001)
        xs, psi = wavefunction(AQ, e1, grid_size=20001)
        assert psi == pytest.approx(-psi[::-1], abs=1e-4)

    @pytest.mark.parametrize("k", range(4))
    def test_shot_carries_wavefunction_and_parity(self, k):
        e = eigenvalue_search(AQ, k, tol=1e-9, grid_size=20001)
        shot = numerov_integrate(AQ, e, 20001)
        xs, psi = wavefunction(AQ, e, 20001)
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


class TestFinalShot:
    # the final shot joins the branches of the counting phase at the match
    # point; odd grids match at the centre, even ones next to it
    @pytest.mark.parametrize("size", [1000, 1001, 4000, 4001])
    @pytest.mark.parametrize("b, hbar", [(1.0, 1.0), (3.7, 20.0)])
    @pytest.mark.parametrize("cls", [AqBox, CqBox, HalfHarmonic], ids=["aq-box", "cq-box", "half-ho"])
    def test_nodes_and_parity_of_levels(self, cls, b, hbar, size):
        model = HalfHarmonic(hbar) if cls is HalfHarmonic else cls(BoxGeometry(b, hbar))
        for k in range(12):
            shot = numerov_integrate(model, eigenvalue_search(model, k, tol=1e-8, grid_size=size), size)
            assert shot.node_count == k
            if model.symmetric:
                even = k % 2 == 0
                assert shot.parity == ("even" if even else "odd")
                # measured <= 1.7e-10 (cq-box) at these grids
                assert np.max(np.abs(shot.psi - (1.0 if even else -1.0) * shot.psi[::-1])) <= 1e-8
            else:
                assert shot.parity is None

    @pytest.mark.parametrize("size", [4000, 4001])
    def test_box_shot_sweeps_half_the_grid(self, size, monkeypatch):
        lengths = []

        def counted(T, psi, i0):
            lengths.append(T.shape[0])
            return _numerov(T, psi, i0)

        monkeypatch.setattr(shooting, "_numerov", counted)
        for model in (AQ, CQ):
            m = _setup(model, size).match
            for E in np.geomspace(0.5, 400.0, 6) * model.energy_scale:
                lengths.clear()
                numerov_integrate(model, E, size)
                assert sum(lengths) <= max(m, size - 1 - m) + 2


class TestSpectrum:
    # one call per spectrum: the energies of a loop over eigenvalue_search,
    # and no final shot or exponent probe, which each caller takes itself
    @MODELS
    @pytest.mark.parametrize("size", [1000, 4001])
    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_energies_are_a_search_loop(self, model, size, tol):
        got = shooting.spectrum(model, 6, tol=tol, grid_size=size)
        _setup.cache_clear()
        ref = [eigenvalue_search(model, k, tol=tol, grid_size=size) for k in range(6)]
        assert got.eigenvalues.tolist() == ref
        assert got.model is model and got.grid_size == size

    def test_no_final_shot_until_a_level_is_read(self, monkeypatch):
        calls = []

        def counted(name):
            original = getattr(shooting, name)

            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return call

        for name in ("eigenvalue_search", "numerov_integrate", "boundary_exponent_probe"):
            monkeypatch.setattr(shooting, name, counted(name))
        shooting.spectrum(AQ, 4)
        assert calls == ["eigenvalue_search"] * 4


class TestGridValidation:
    def test_minimum_size(self):
        # every entry point takes a point count and rejects one below 1000
        e0 = 4.622
        for call in (lambda n: eigenvalue_search(AQ, 0, grid_size=n),
                     lambda n: numerov_integrate(AQ, e0, grid_size=n),
                     lambda n: wavefunction(AQ, e0, grid_size=n)):
            _setup.cache_clear()
            with pytest.raises(ValueError):
                call(999)
            call(1000)

    def test_default_grids(self):
        # an inverse-square wall is offset inward by EPS_FRAC * length_scale,
        # a Dirichlet end is a grid point
        setup = _setup(AQ, 2001)
        assert setup.xs[0] == -1.0 + 1e-6 and setup.xs[-1] == 1.0 - 1e-6
        assert setup.h == (2.0 - 2e-6) / 2000
        setup = _setup(CQ, 2001)
        assert setup.xs[0] == -1.0 and setup.xs[-1] == 1.0 and setup.h == 0.001
        setup = _setup(HalfHarmonic(4.0), 2001)
        assert setup.xs[0] == 2e-6 and setup.xs[-1] == 24.0
        assert setup.h == (24.0 - 2e-6) / 2000
        with pytest.raises(ModelUnsupported):
            _setup(AntiBox(GEOM), 2001)
        assert cli.parse_config(["spectrum"]).grid_size == GRID_SIZE


def test_count_nodes_matches_difference_count():
    # neighbours compared as np.diff of the signs compared them: zeros (of
    # either sign) skipped, NaN counted as a change on both sides
    rng = np.random.default_rng(3)
    values = np.array([-2.0, -1e-300, -0.0, 0.0, 1e-300, 3.0, np.nan])
    for size in (0, 1, 2, 3, 40, 4001):
        for _ in range(50):
            psi = rng.choice(values, size)
            signs = np.sign(psi)
            signs = signs[signs != 0]
            assert count_nodes(psi) == int(np.count_nonzero(np.diff(signs) != 0))


def test_solvers_import_neither_other():
    # the two solvers share no numerics: neither module imports the other.
    # The package loads every module, so this reads the import statements
    src = Path(shooting.__file__).parent
    for module, other in (("ritz", "shooting"), ("shooting", "ritz")):
        tree = ast.parse((src / f"{module}.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported |= {node.module or ""} | {alias.name for alias in node.names}
        assert not any(name.split(".")[-1] == other for name in imported), module


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


def _levels(model, count, basis=48):
    if isinstance(model, CqBox):
        return [cq_eigenvalue(n, GEOM) for n in range(1, count + 1)]
    if isinstance(model, HalfHarmonic):
        return [half_ho_eigenvalue(k, model.hbar) for k in range(count)]
    return list(compute_spectrum(model, basis, n_diagnostics=count).eigenvalues[:count])


@pytest.mark.parametrize("model", [CQ, AQ, HalfHarmonic(1.0)], ids=["cq-box", "aq-box", "half-ho"])
def test_kernel_matches_reference_loop(model):
    # trial energies midway between levels 0..6 (and below level 0), where the
    # search probes; exactly at an eigenvalue the sweep's tail is rounding
    # noise amplified by the growing solution and no two kernels agree there
    levels = [0.0] + _levels(model, 7)
    xs, h, eps = _grid(model, GRID_SIZE)
    V = evaluate_potential(model, xs)
    for lo, hi in zip(levels[:-1], levels[1:]):
        T = _numerov_t(model, 0.5 * (lo + hi), h, V)
        start = _launch(model.walls[0], xs - xs[0] + eps)
        i0 = start.size - 1
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


def test_kernel_workspace_is_bit_identical(monkeypatch):
    # the kernel keeps one band for all sweeps; alternating a 40001-point
    # sweep, a 1001-point half sweep and the exponent probe's window must give
    # each the bits it gets from a freshly built band
    sweeps = []
    for model, size, half in ((AQ, 40001, False), (CQ, 1999, True)):
        setup = _setup(model, size)
        m = setup.match
        stop = max(m, size - 1 - m) + 2 if half else size
        E = 0.5 * sum(_levels(model, 5)[3:5])
        sweeps.append((_numerov_t(model, E, setup.h, setup.V)[:stop], _start(setup, setup.left, E)))
    probe = _probe(AQ)
    sweeps.append((_numerov_t(AQ, 4.6, probe.h, probe.V), probe.start))
    assert [T.size for T, _ in sweeps[:2]] == [40001, 1001]

    def preset(T, start):
        psi = np.zeros(T.size)
        psi[:start.size] = start
        return psi

    fresh = []
    for T, start in sweeps:
        monkeypatch.setattr(shooting, "_band", np.zeros((4, 0), order="F"))
        fresh.append(_numerov(T, preset(T, start), start.size - 1))
        ref = _numerov_reference(T, preset(T, start), start.size - 1)
        assert np.max(np.abs(fresh[-1] - ref)) <= 1e-14 * np.max(np.abs(ref))
    for j in (0, 1, 2, 1, 0, 2, 2, 1, 1, 0):
        T, start = sweeps[j]
        assert np.array_equal(_numerov(T, preset(T, start), start.size - 1), fresh[j])


def test_kernel_rejects_unit_step_coefficient():
    # 1 - T_{i+1} is the pivot of each step; an exact zero cannot be divided by,
    # also after a longer sweep has filled the kernel's band
    for warm in (0, 40000):
        if warm:
            psi = np.zeros(warm)
            psi[1] = 1e-3
            _numerov(np.full(warm, 1e-6), psi, 1)
        T = np.zeros(1200)
        T[700] = 1.0
        psi = np.zeros(1200)
        psi[1] = 1e-3
        with pytest.raises(ZeroDivisionError, match="step 699"):
            _numerov(T, psi, 1)
