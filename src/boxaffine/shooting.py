"""Numerov shooting oracle for the box and half-line models.

Integrates psi'' = (V - E) psi / kappa from both ends with wall-appropriate
launches (Dirichlet for the flat box, leading-power s^{3/2} starts at
inverse-square walls), matches at the potential minimum, and locates
eigenvalues by node-count bracketing plus a Brent root of the Pruefer-
normalised matching Wronskian -- the pole-free form of the log-derivative
mismatch.  Fully independent of the variational solver, which it
cross-checks.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .potentials import (AntiBox, AqBox, CqBox, HalfHarmonic, ModelUnsupported,
                         evaluate_potential, kinetic_coefficient)


class BracketFailure(RuntimeError):
    """Node-count transition not found below the energy ceiling."""


class FitFailure(RuntimeError):
    """Too few grid points inside the boundary-exponent fit window."""


@dataclass(frozen=True)
class ShootingGrid:
    """Uniform grid between the integration ends, with the wall offset used
    to place them."""

    x_min: float
    x_max: float
    size: int
    eps: float

    def __post_init__(self):
        if self.size < 1000:
            raise ValueError("grid needs at least 1000 points")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")

    @property
    def spacing(self):
        return (self.x_max - self.x_min) / (self.size - 1)

    @property
    def points(self):
        return np.linspace(self.x_min, self.x_max, self.size)


@dataclass(frozen=True, eq=False)
class MatchResult:
    """One two-sided shot at a trial energy.

    ``psi`` is the assembled solution on ``xs``, max-normalised.  ``parity``
    is the sign of its mirror overlap, ``None`` on the half line.
    """

    energy: float
    node_count: int
    parity: Optional[str]
    xs: np.ndarray
    psi: np.ndarray


def energy_scale(model):
    """Natural energy unit of the variant (hbar^2/b^2 for boxes, hbar for the
    half-line oscillator)."""
    if isinstance(model, (CqBox, AqBox)):
        return model.geom.hbar**2 / model.geom.b**2
    if isinstance(model, HalfHarmonic):
        return model.hbar
    raise ModelUnsupported(f"no shooting support for {type(model).__name__}")


def length_scale(model):
    if isinstance(model, (CqBox, AqBox)):
        return model.geom.b
    if isinstance(model, HalfHarmonic):
        return math.sqrt(model.hbar)
    raise ModelUnsupported(f"no shooting support for {type(model).__name__}")


EPS_FRAC = 1e-6  # singular-wall offset, in units of the domain scale
E_MAX_FACTOR = 1e4  # eigenvalue_search ceiling, in units of the energy scale


def default_grid(model, size=20001):
    """Integration grid matched to the variant's domain.

    Singular walls are offset by eps = EPS_FRAC * (domain scale); the
    half-line oscillator is truncated at 12 sqrt(hbar), far beyond where the
    Gaussian tail matters.
    """
    if isinstance(model, AntiBox):
        raise ModelUnsupported("AntiBox has no shooting support")
    scale = length_scale(model)
    eps = EPS_FRAC * scale
    if isinstance(model, CqBox):
        b = model.geom.b
        return ShootingGrid(-b, b, size, 0.0)
    if isinstance(model, AqBox):
        b = model.geom.b
        return ShootingGrid(-b + eps, b - eps, size, eps)
    return ShootingGrid(eps, 12.0 * scale, size, eps)


_RESCALE_EVERY = 512  # Numerov steps between overflow checks


def _numerov(T, psi, i0):
    # Numerov in summed (difference) form, T_i = h^2 g_i / 12: the potential
    # kick is accumulated into the first difference at its own scale, which
    # avoids the 1 - T cancellation floor of the textbook three-term form:
    #   delta_i = (delta_{i-1} + (T_{i+1} + 10 T_i) psi_i + T_{i-1} psi_{i-1}) / (1 - T_{i+1})
    #   psi_{i+1} = psi_i + delta_i
    # With the start values fixed, the steps form a lower-triangular system in
    # the interleaved unknowns (delta_i, psi_{i+1}) of bandwidth 3.  LAPACK's
    # banded forward substitution solves it one block of 512 steps at a time;
    # after each full block psi is rescaled once it exceeds 1e100.
    # psi[:i0+1] must be preset; psi is filled in place.
    n = T.shape[0]
    steps = n - 1 - i0
    # lower band storage, ab[r, j] = A[j + r, j]; column 2s holds delta_{i0+s},
    # column 2s+1 holds psi_{i0+s+1}
    ab = np.zeros((4, 2 * steps), order="F")
    ab[0, 0::2] = 1.0 - T[i0 + 1:]
    ab[1, 0::2] = -1.0
    ab[2, 0::2] = -1.0
    ab[0, 1::2] = 1.0
    ab[1, 1:-1:2] = -(T[i0 + 2:] + 10.0 * T[i0 + 1:-1])
    ab[2, 1::2] = -1.0
    ab[3, 1::2] = -T[i0 + 1:]

    delta = psi[i0] - psi[i0 - 1]
    i = i0
    while i < n - 1:
        m = min(_RESCALE_EVERY, n - 1 - i)
        # the block's first rows carry the terms from the preceding steps
        b = np.zeros((2 * m, 1))
        b[0, 0] = delta + (T[i + 1] + 10.0 * T[i]) * psi[i] + T[i - 1] * psi[i - 1]
        b[1, 0] = psi[i]
        if m > 1:
            b[2, 0] = T[i] * psi[i]
        col = 2 * (i - i0)
        x, info = dtbtrs(ab[:, col:col + 2 * m], b, uplo="L", overwrite_b=1)
        if info != 0:
            raise ZeroDivisionError(f"Numerov step {i + info // 2}: h^2 g / 12 is exactly 1")
        psi[i + 1:i + 1 + m] = x[1::2, 0]
        delta = x[-2, 0]
        i += m
        if m == _RESCALE_EVERY:
            mag = abs(psi[i])
            if mag > 1e100:
                inv = 1.0 / mag
                psi[:i + 1] *= inv
                delta *= inv
    return psi


def count_nodes(psi):
    """Sign changes in sampled values, zeros skipped.

    The one sign-change diagnostic both solvers share: shooting brackets
    levels with it and counts the nodes of its final shot, Ritz counts those
    of its sampled eigenfunctions.  The eigenvalues stay each solver's own.
    """
    signs = np.sign(psi)
    signs = signs[signs != 0]
    return int(np.count_nonzero(np.diff(signs) != 0))


def _launch(model, side, s_values):
    """Initial psi values and the recurrence start index for one end.

    Regular walls start from the Dirichlet pair (0, h).  Inverse-square walls
    plant the leading power s^{3/2} on the first three points and start the
    recurrence there, past the region where h^2 g / 12 is large.
    """
    singular = isinstance(model, AqBox) or (isinstance(model, HalfHarmonic) and side == "left")
    if singular:
        return np.power(s_values[:3], 1.5), 2
    h = s_values[1] - s_values[0]
    return np.array([0.0, h]), 1


def _numerov_t(model, E, grid, V):
    """T_i = h^2 g_i / 12 at trial energy E, g = (V - E) / kappa."""
    h = grid.spacing
    return (h * h / 12.0) * ((V - E) / kinetic_coefficient(model))


@dataclass(frozen=True, eq=False)
class _Setup:
    """What every shot on one (model, grid) shares.  ``nodes`` memoises the
    one-sided node count by trial energy, a pure function of (model, grid, E)."""

    model: object
    grid: ShootingGrid
    xs: np.ndarray
    V: np.ndarray
    match: int
    left_start: tuple
    right_start: tuple
    nodes: dict


@functools.lru_cache(maxsize=1)
def _setup(model, grid):
    # one entry: the levels of one spectrum share it, and the first shot on
    # another (model, grid) drops it
    xs = grid.points
    V = evaluate_potential(model, xs)
    xs.flags.writeable = False
    V.flags.writeable = False
    n = xs.size
    m = int(np.argmin(V)) if isinstance(model, HalfHarmonic) else int(np.argmin(np.abs(xs)))
    m = min(max(m, 3), n - 4)
    left = _launch(model, "left", xs - xs[0] + grid.eps)
    if isinstance(model, HalfHarmonic):
        right = (np.array([0.0, grid.spacing]), 1)  # truncated Gaussian tail
    else:
        right = _launch(model, "right", ((xs[-1] - xs) + grid.eps)[::-1])
    return _Setup(model, grid, xs, V, m, left, right, {})


def _sweep_left(setup, T, stop):
    """Left-to-right Numerov sweep over xs[:stop]."""
    start, i0 = setup.left_start
    psi = np.zeros(stop)
    psi[:start.size] = start
    return _numerov(T[:stop], psi, i0)


def _sweep_right(setup, T, stop):
    """Right-to-left Numerov sweep over xs[stop:], returned aligned with them."""
    start, i0 = setup.right_start
    nr = T.size - stop
    psi = np.zeros(nr)
    psi[:start.size] = start
    _numerov(np.ascontiguousarray(T[::-1][:nr]), psi, i0)
    return psi[::-1]


def _onesided_nodes(psi_l, T):
    """Node count of the left sweep alone; it jumps at each eigenvalue."""
    # drop trailing points where h^2 g / 12 > 1 (right at a singular wall):
    # the recurrence value there has an arbitrary sign and would fake a node
    # at every energy
    n = T.size
    tail = 0
    while tail < 3 and T[n - 1 - tail] > 1.0:
        tail += 1
    return count_nodes(psi_l[: n - tail])


def _nodes(setup, E):
    """One-sided node count at E over the whole grid, memoised."""
    count = setup.nodes.get(E)
    if count is None:
        T = _numerov_t(setup.model, E, setup.grid, setup.V)
        count = setup.nodes[E] = _onesided_nodes(_sweep_left(setup, T, T.size), T)
    return count


def _wronskian(setup, E):
    """Matching Wronskian at E, each branch scaled to unit Pruefer amplitude
    sqrt(psi^2 + (psi'/k)^2) at the match point, k = sqrt(|E - V_m| / kappa).

    Divided by k, it is the sine of the angle between the two branches'
    Pruefer phases: bounded, smooth in E, and zero exactly at an eigenvalue,
    wherever the level's nodes sit.  The left branch is swept through m + 1
    and the right one from m - 1, about one grid sweep in all.
    """
    model, grid, m = setup.model, setup.grid, setup.match
    T = _numerov_t(model, E, grid, setup.V)
    psi_l = _sweep_left(setup, T, m + 2)
    psi_r = _sweep_right(setup, T, m - 1)  # psi_r[j] is at xs[m - 1 + j]
    two_h = 2.0 * grid.spacing
    k = math.sqrt(abs(E - float(setup.V[m])) / kinetic_coefficient(model)) or 1.0
    l0, dl = float(psi_l[m]), float(psi_l[m + 1] - psi_l[m - 1]) / two_h
    r0, dr = float(psi_r[1]), float(psi_r[2] - psi_r[0]) / two_h
    amp_l, amp_r = math.hypot(l0, dl / k), math.hypot(r0, dr / k)
    if amp_l == 0.0 or amp_r == 0.0:
        return math.nan
    return ((dl / amp_l) * (r0 / amp_r) - (dr / amp_r) * (l0 / amp_l)) / k


_EPS = float(np.finfo(float).eps)


def _brent(f, a, b, fa, fb, xtol):
    """Root of f between a and b, where fa and fb differ in sign, to xtol.

    Brent's method (Brent 1973, ch. 4): inverse quadratic or secant steps
    while they shrink the bracket fast enough, bisection otherwise.  The
    root always stays between b (the best estimate) and c.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * xtol
        half = 0.5 * (c - b)
        if abs(half) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic through a, b, c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, half)
        fb = f(b)


def _shoot(model, E, grid):
    """Two-sided shot at E.  The left branch is swept through m + 2 and the
    right one from m - 2, so they share the 5-point overlap around the match
    point m that sets their ratio."""
    setup = _setup(model, grid)
    m = setup.match
    T = _numerov_t(model, E, grid, setup.V)
    psi_l = _sweep_left(setup, T, m + 3)
    psi_r = _sweep_right(setup, T, m - 2)  # psi_r[j] is at xs[m - 2 + j]

    # least-squares branch ratio over the 5-point overlap: stays correct
    # (value and sign) when the match value itself passes through zero
    lwin, rwin = psi_l[m - 2:], psi_r[:5]
    denom = float(rwin @ rwin)
    alpha = float(lwin @ rwin) / denom if denom > 0 else 1.0
    assembled = np.concatenate([psi_l[:m], alpha * psi_r[2:]])

    # odd levels have their node at the match point, where both branches pass
    # through ~0 with signs set by the last digits of E; counting across a
    # small gap keeps the genuine sign change and ignores the matching jitter
    gapped = np.concatenate([assembled[: m - 3], assembled[m + 4:]])
    psi = assembled / np.max(np.abs(assembled))
    if isinstance(model, HalfHarmonic):
        parity = None
    else:
        parity = "even" if float(psi @ psi[::-1]) >= 0 else "odd"
    return MatchResult(E, count_nodes(gapped), parity, setup.xs, psi)


def numerov_integrate(model, E, grid=None):
    """Two-sided shot at trial energy E: the node count, parity and
    max-normalised values of the assembled solution."""
    if isinstance(model, AntiBox):
        raise ModelUnsupported("AntiBox has no shooting support")
    if grid is None:
        grid = default_grid(model)
    return _shoot(model, E, grid)


def eigenvalue_search(model, k, tol=1e-8, grid=None):
    """k-th eigenvalue (k interior nodes), to width tol * energy_scale(model).

    ``tol`` is relative to the model's energy unit, hbar^2/b^2 for the boxes
    and hbar for the half-line oscillator, so every scale is resolved alike.
    A doubling scan and bisection of the one-sided node staircase narrow the
    bracket until it holds level k alone: k nodes at its lower end, k + 1 at
    its upper end, lower end > 0.  These probes sweep from the left end only
    and are memoised per (model, grid), so the levels of one spectrum share
    them.  Brent's method then finds the root of the Pruefer-normalised
    two-sided matching Wronskian in the bracket, and returns it.  Where that
    Wronskian has no clean sign change on the bracket, the staircase
    bisection goes on to the width and the bracket midpoint is returned.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if tol < 1e-10:
        raise ValueError("tol must be >= 1e-10")
    if grid is None:
        grid = default_grid(model)
    setup = _setup(model, grid)
    scale = energy_scale(model)
    width = tol * scale
    e_max = E_MAX_FACTOR * scale

    lo, hi = 0.0, scale
    n_lo, n_hi = -1, _nodes(setup, hi)  # lo = 0 lies below every level
    while n_hi <= k:
        lo, n_lo = hi, n_hi
        hi = 2.0 * hi
        if hi > e_max:
            raise BracketFailure(
                f"level {k}: node transition not found below {e_max:.3g} "
                f"(upper side reached the ceiling)")
        n_hi = _nodes(setup, hi)

    floor = 1e-13 * max(hi, scale)  # the staircase stops resolving here

    def bisect(done):
        nonlocal lo, hi, n_lo, n_hi
        while hi - lo > floor and not done():
            mid = 0.5 * (lo + hi)
            n_mid = _nodes(setup, mid)
            if n_mid > k:
                hi, n_hi = mid, n_mid
            else:
                lo, n_lo = mid, n_mid

    def isolated():
        return n_lo == k and n_hi == k + 1 and lo > 0

    bisect(isolated)
    if isolated():
        w_lo, w_hi = _wronskian(setup, lo), _wronskian(setup, hi)
        if math.isfinite(w_lo) and math.isfinite(w_hi) and np.sign(w_lo) != np.sign(w_hi):
            return _brent(functools.partial(_wronskian, setup), lo, hi, w_lo, w_hi, width)
    bisect(lambda: hi - lo <= width)
    return 0.5 * (lo + hi)


def wavefunction(model, E, grid=None):
    """Assembled two-sided solution at E, max-normalized; (xs, psi)."""
    if grid is None:
        grid = default_grid(model)
    shot = _shoot(model, E, grid)
    return shot.xs, shot.psi


def boundary_exponent_probe(model, E, grid=None):
    """Fitted slope of log|psi| vs log s near a wall, at a converged energy.

    Fits the window s in [1e-4, 1e-2] * scale next to the wall (the right
    wall of a box, x = 0 on the half line).  The solution there is the
    branch launched from that wall, so only that branch is swept, from the
    wall across the window; the assembled two-sided solution differs from it
    by a constant factor, which the slope does not see.  Integration runs
    away from the wall, the direction in which the regular branch is stable,
    so the window slope is governed by the equation over two decades of s.
    Expected 3/2 at inverse-square walls, 1 at hard walls.
    """
    if grid is None:
        grid = default_grid(model, size=40001)  # dense enough for >= 20 fit points
    scale = length_scale(model)
    xs = grid.points
    if isinstance(model, HalfHarmonic):
        side = "left"
        s = xs.copy()  # wall at x = 0
        launch_s = xs - xs[0] + grid.eps
    else:
        side = "right"
        wall, xs = xs[-1], xs[::-1]  # right wall first
        s = (wall + grid.eps) - xs
        launch_s = (wall - xs) + grid.eps
    window = (s >= 1e-4 * scale) & (s <= 1e-2 * scale)
    if np.count_nonzero(window) < 20:
        raise FitFailure(f"only {np.count_nonzero(window)} points in the fit window")
    stop = int(np.flatnonzero(window)[-1]) + 1
    T = _numerov_t(model, E, grid, evaluate_potential(model, np.ascontiguousarray(xs[:stop])))
    start, i0 = _launch(model, side, launch_s)
    psi = np.zeros(stop)
    psi[:start.size] = start
    _numerov(T, psi, i0)
    a = np.abs(psi[window[:stop]])
    good = a > 0
    if np.count_nonzero(good) < 20:
        raise FitFailure("wavefunction vanishes inside the fit window")
    return float(np.polyfit(np.log(s[window][good]), np.log(a[good]), 1)[0])
