"""Numerov shooting oracle for the box and half-line models.

Integrates psi'' = (V - E) psi / kappa inward from the ends of the model's
declared interval, launched as each end's wall asks, and matches at the
centre of a mirror-symmetric model or else at the potential minimum.  On a
mirror-symmetric model the branch from the right end is the left one
mirrored, so one left sweep through the centre gives both.  The two
branches' Pruefer angles at the match point, each counted from its own
wall, sum to a continuous counting phase Theta(E) whose floor is the number
of levels below E, and level k is the root of Theta = k + 1 (the Pruefer
counting of SLEIGN2 and of Pryce 1993, ch. 5).  The sweep that gives Theta
also gives dTheta/dE, at every energy and not only at the roots, by the
Wronskian identity with the terms that cancel at a root kept in, so each
level is found by a safeguarded Newton iteration, started from the
quadratic in sqrt(E) through the last three probes of a doubling scan.
The final shot at a level takes the same branches, scales the right one to
the left by their Pruefer vectors at the match point and joins them there;
on a mirror-symmetric model the sign of that scale is the parity.  Fully
independent of the variational solver, which it cross-checks.

A Dirichlet end starts from the pair (0, h).  At an inverse-square wall the
sweep plants the regular Frobenius solution s^{3/2} sum a_n u^n, with s the
distance to the wall and u = s / length_scale (Bender and Orszag 1978,
ch. 3), on every grid point with s < SERIES_FRAC * length_scale and starts
the recurrence at the last of them.  Planting only the leading
power would seed the irregular s^{-1/2} branch with an amplitude of order
h^2 and cut Numerov from fourth to second order at the wall.
"""

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .boxmodes import count_nodes
from .potentials import DIRICHLET, INVERSE_SQUARE, ModelUnsupported, evaluate_potential


class BracketFailure(RuntimeError):
    """Node-count transition not found below the energy ceiling."""


class FitFailure(RuntimeError):
    """The wavefunction vanishes inside the boundary-exponent fit window."""


@dataclass(frozen=True, eq=False)
class MatchResult:
    """One two-sided shot at a trial energy.

    ``psi`` is the assembled solution on ``xs``, max-normalised.  ``parity``
    is the sign of the scale that joins the right branch to the left,
    ``None`` for a model that is not mirror-symmetric (the half line).
    """

    energy: float
    node_count: int
    parity: Optional[str]
    xs: np.ndarray
    psi: np.ndarray


EPS_FRAC = 1e-6  # inverse-square wall offset, in units of the length scale
GRID_SIZE = 4001  # default grid points, of the API and of the CLI's --grid-size
MIN_GRID_SIZE = 1000  # fewest grid points, of the API and of --grid-size
MAX_GRID_SIZE = 10**6  # most grid points, of the API and of --grid-size
TOL = 1e-8  # default search width, of eigenvalue_search and of the CLI's --tol
MIN_TOL = 1e-10  # narrowest search width, of eigenvalue_search and of --tol
PROBE_GRID_SIZE = 40001  # boundary_exponent_probe's grid: ~200 fit points on a box, 33 on half-ho
E_MAX_FACTOR = 1e4  # eigenvalue_search ceiling, in units of the energy scale
SERIES_FRAC = 0.05  # wall series region, in units of the length scale
# Frobenius terms a sweep sums; up to the search ceiling the terms fall below
# rounding within 38 (half-ho at 1e4 hbar)
_SERIES_TERMS = 64
# the right-hand side of the recurrence
_A0 = np.zeros(_SERIES_TERMS)
_A0[0] = 1.0


def _grid(model, size):
    """Points, spacing and wall offset eps of the uniform ``size``-point grid
    over the model's declared ends.

    An inverse-square wall is offset inward by eps = EPS_FRAC * length_scale;
    a Dirichlet end is a grid point.  eps is 0 on a model without an
    inverse-square wall.
    """
    if not model.walls:
        raise ModelUnsupported(f"{type(model).__name__} has no shooting support")
    if not MIN_GRID_SIZE <= size <= MAX_GRID_SIZE:
        raise ValueError(f"grid needs {MIN_GRID_SIZE} to {MAX_GRID_SIZE} points")
    eps = EPS_FRAC * model.length_scale if INVERSE_SQUARE in model.walls else 0.0
    (lo, hi), (lo_wall, hi_wall) = model.ends, model.walls
    lo = lo + eps if lo_wall == INVERSE_SQUARE else lo
    hi = hi - eps if hi_wall == INVERSE_SQUARE else hi
    return np.linspace(lo, hi, size), (hi - lo) / (size - 1), eps


@functools.lru_cache(maxsize=1)
def _lapack():
    """LAPACK's dtbtrs and dtrtrs, loaded on the first sweep from scipy's
    ``linalg/_flapack`` extension alone.

    ``scipy.linalg.lapack`` re-exports these very function objects, but
    importing it runs the whole ``scipy.linalg`` package, about 0.17 s and
    27 MB per process; the extension alone costs about 6 ms and 3 MB.  A run
    that never sweeps (a Ritz-only spectrum, say) pays neither.  The module
    is registered as ``scipy.linalg._flapack``, so a later ``import
    scipy.linalg`` reuses it, and one already imported is reused here.
    """
    name = "scipy.linalg._flapack"
    flapack = sys.modules.get(name)
    if flapack is None:
        # importlib.import_module(name) would import the parent package
        # scipy.linalg first, which is the cost this load avoids
        import scipy
        found = importlib.machinery.PathFinder.find_spec(
            "_flapack", [os.path.join(path, "linalg") for path in scipy.__path__])
        if found is None:
            raise ImportError(f"no linalg/_flapack extension in scipy {scipy.__version__}")
        spec = importlib.util.spec_from_file_location(name, found.origin)
        flapack = importlib.util.module_from_spec(spec)
        sys.modules[name] = flapack
        try:
            spec.loader.exec_module(flapack)
        except BaseException:
            del sys.modules[name]
            raise
    return flapack.dtbtrs, flapack.dtrtrs


_RESCALE_EVERY = 512  # Numerov steps between overflow checks

# The kernel's band, shared by all sweeps and grown on demand.  Its +-1
# entries do not depend on T and are written once, when it grows.
_band = np.zeros((4, 0), order="F")


def _band_for(steps):
    global _band
    if _band.shape[1] < 2 * steps:
        _band = np.zeros((4, 2 * steps), order="F")
        _band[1, 0::2] = -1.0
        _band[2, 0::2] = -1.0
        _band[0, 1::2] = 1.0
        _band[2, 1::2] = -1.0
    return _band[:, :2 * steps]


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
    dtbtrs = _lapack()[0]
    n = T.shape[0]
    steps = n - 1 - i0
    # lower band storage, ab[r, j] = A[j + r, j]; column 2s holds delta_{i0+s},
    # column 2s+1 holds psi_{i0+s+1}.  Only the three T rows are written here,
    # over this sweep's columns: the entry of the last column below its
    # diagonal may hold an earlier, longer sweep's value, but it lies past the
    # system, and LAPACK never reads a band entry past a block's last column.
    ab = _band_for(steps)
    ab[0, 0::2] = 1.0 - T[i0 + 1:]
    ab[1, 1:-1:2] = -(T[i0 + 2:] + 10.0 * T[i0 + 1:-1])
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


def _launch(wall, s_values):
    """Initial psi values at one end, from the distances s of the grid points
    to its wall, nearest first; the recurrence starts at the last of them.

    Dirichlet ends start from the pair (0, h).  Inverse-square walls plant
    the leading power s^{3/2} alone on the first three points, past which
    h^2 g / 12 is no longer large.  Only the exponent probe launches so: its
    fit window lies inside the series region, where planting the series
    would make the 3/2 exponent an input.
    """
    if wall == INVERSE_SQUARE:
        return np.power(s_values[:3], 1.5)
    return np.array([0.0, s_values[1] - s_values[0]])


def _numerov_t(model, E, h, V):
    """T_i = h^2 g_i / 12 at trial energy E, g = (V - E) / kappa, on a grid
    of spacing h."""
    return (h * h / 12.0) * ((V - E) / model.kappa)


@dataclass(frozen=True, eq=False)
class _End:
    """How sweeps from one end start, fixed per (model, grid_size).

    ``base`` holds the start values at a Dirichlet end.  At an inverse-square
    wall it holds s^{3/2} on the planted points, ``powers`` the powers u^n of
    their u = s / length_scale and ``recurrence`` the Frobenius recurrence,
    which each sweep writes its energy into (``_start``); both are None at a
    Dirichlet end.  The recurrence starts at the last start value.
    """

    base: np.ndarray
    powers: Optional[np.ndarray] = None
    recurrence: Optional[np.ndarray] = None


def _end(model, wall, s_values):
    """The launch at one end, from the distances s of the grid points to it,
    nearest first."""
    if wall == INVERSE_SQUARE:
        s = s_values[:np.count_nonzero(s_values < SERIES_FRAC * model.length_scale)]
        powers = (s / model.length_scale)[:, None] ** np.arange(_SERIES_TERMS)
        return _End(np.power(s, 1.5), powers, _recurrence(model.wall_series))
    return _End(_launch(wall, s_values))


def _recurrence(wall_series):
    """The Frobenius recurrence at an inverse-square wall, as a lower-
    triangular system for the coefficients a_n of its regular solution.

    With W(u) = u^2 L^2 (V - E) / kappa = sum w_j u^j and w_0 = 3/4, the
    solution of psi'' = u^{-2} W psi regular at u = 0 is u^{3/2} sum a_n u^n,
    where n (n + 2) a_n = sum_{j=1..n} w_j a_{n-j} and a_0 = 1.  Row n holds
    n (n + 2) on the diagonal and -w_j at column n - j; row 0 fixes a_0.
    E enters only through w_2, on the second subdiagonal, so this holds the
    E = 0 system.
    """
    w = np.zeros(_SERIES_TERMS)
    w[:len(wall_series)] = wall_series
    n = np.arange(_SERIES_TERMS)
    system = np.asfortranarray(-np.tril(w[np.subtract.outer(n, n)]))
    system[n, n] = np.maximum(n * (n + 2), 1)
    return system


@dataclass(frozen=True, eq=False)
class _Setup:
    """What every shot on one (model, grid_size) shares: the grid points xs
    and their spacing h.  ``right`` is None on a mirror-symmetric model,
    whose right branch is the left one reflected.  ``phases`` memoises the
    counting phase and its energy derivative (``_phase``) by trial energy,
    a pure function of (model, grid_size, E)."""

    model: object
    xs: np.ndarray
    h: float
    V: np.ndarray
    match: int
    left: _End
    right: Optional[_End]
    phases: dict


@functools.lru_cache(maxsize=1)
def _setup(model, grid_size):
    # one entry: the levels of one spectrum share it, and the first shot on
    # another (model, grid_size) drops it
    xs, h, eps = _grid(model, grid_size)
    V = evaluate_potential(model, xs)
    xs.flags.writeable = False
    V.flags.writeable = False
    n = xs.size
    # match at the centre of a mirror-symmetric model, else at the V minimum
    m = int(np.argmin(np.abs(xs))) if model.symmetric else int(np.argmin(V))
    m = min(max(m, 3), n - 4)
    left = _end(model, model.walls[0], xs - xs[0] + eps)
    right = None if model.symmetric else _end(model, model.walls[1], ((xs[-1] - xs) + eps)[::-1])
    return _Setup(model, xs, h, V, m, left, right, {})


def _start(setup, end, E):
    """Start values of a sweep from ``end`` at trial energy E: at an
    inverse-square wall, the wall series with its coefficients solved for E
    by forward substitution (LAPACK dtrtrs)."""
    if end.powers is None:
        return end.base
    # E enters only at (n, n - 2), as -w_2: w_2 is the declared term less E L^2 / kappa
    np.fill_diagonal(end.recurrence[2:],
                     E * setup.model.length_scale**2 / setup.model.kappa - setup.model.wall_series[2])
    coefficients, _ = _lapack()[1](end.recurrence, _A0, lower=1)
    return end.base * (end.powers @ coefficients)


def _sweep(start, T):
    """Numerov sweep over T from the start values, both in sweep order."""
    psi = np.zeros(T.size)
    psi[:start.size] = start
    return _numerov(T, psi, start.size - 1)


def _branches(setup, E):
    """The two branches at E, each a (psi, T, i) swept from its own wall and
    held in its own order, with the match point m at its index i; and the
    Pruefer scale k = sqrt(max(|E - V_m|, energy_scale) / kappa).

    On a mirror-symmetric model the right branch is the left one reflected,
    so one left sweep through max(m, m*) + 1, m* = n - 1 - m, about half the
    grid, gives both.  The half line sweeps the left branch through m + 1
    and the right one from m - 1, about one grid sweep in all.
    """
    model, m = setup.model, setup.match
    ms = setup.xs.size - 1 - m
    k = math.sqrt(max(abs(E - float(setup.V[m])), model.energy_scale) / model.kappa)
    if model.symmetric:
        T = _numerov_t(model, E, setup.h, setup.V[:max(m, ms) + 2])
        left = (_sweep(_start(setup, setup.left, E), T), T, m)
        # on an odd grid m* = m, the centre, and the right branch is the left one
        return left, left if ms == m else (left[0], T, ms), k
    T = _numerov_t(model, E, setup.h, setup.V)
    T_left, T_right = T[:m + 2], np.ascontiguousarray(T[::-1][:ms + 2])
    return ((_sweep(_start(setup, setup.left, E), T_left), T_left, m),
            (_sweep(_start(setup, setup.right, E), T_right), T_right, ms), k)


def _pruefer(psi, T, i, hk):
    """Pruefer vector (psi, psi'/k) at index i of a branch, psi' along its
    own sweep.  psi' is the difference
    ((1 - 2 T_{i+1}) psi_{i+1} - (1 - 2 T_{i-1}) psi_{i-1}) / 2h, fourth
    order on a Numerov solution."""
    slope = float((1.0 - 2.0 * T[i + 1]) * psi[i + 1] - (1.0 - 2.0 * T[i - 1]) * psi[i - 1]) / (2.0 * hk)
    return float(psi[i]), slope


def _turns(psi, T, i, hk):
    """Pruefer angle over pi at index i of a branch swept from its own wall:
    its nodes through i plus (atan2(psi, psi'/k) mod pi) / pi.  Also the two
    weights of the angle's rate in E (``_phase``), each over
    A^2 = psi_i^2 + (psi_i'/k)^2: the mass int_wall^i psi^2 / h, summed by
    the trapezoid rule with its Euler-Maclaurin end term,
    sum_{j<i} psi_j^2 + psi_i^2 / 2 - (h k / 6) psi_i psi_i'/k, since
    (psi^2)' = 2 psi psi' and vanishes at the wall; and the tilt
    psi_i psi_i'/k, which carries dk/dE.  The end term lifts the mass from
    second to fourth order, the order of the psi' of ``_pruefer``.
    Any difference of psi_{i-1}, psi_i, psi_{i+1} gives the same roots of
    Theta: the Numerov Wronskian of two branches is constant across i."""
    head = psi[:i]
    value, slope = _pruefer(psi, T, i, hk)
    tilt = value * slope
    amplitude = value * value + slope * slope
    mass = float(head @ head) + 0.5 * value * value - hk / 6.0 * tilt
    # the angle mod pi, taken in [0, pi] from the sign of psi_i that the count
    # sees, so that a count and an angle rounded to a multiple of pi agree
    phi = math.atan2(abs(value), slope if value > 0.0 else -slope) if value else math.pi
    return count_nodes(psi[:i + 1]) + phi / math.pi, mass / amplitude, tilt / amplitude


def _phase(setup, E):
    """Counting phase Theta(E) and dTheta/dE, memoised per (model, grid_size).

    Theta = n_L + n_R + (phi_L + phi_R) / pi is the sum of the two branches'
    Pruefer angles at the match point m, each counted from its own wall
    (``_branches``, ``_turns``): with psi' in x, the right branch's angle is
    atan2(psi, -psi'/k).  It is continuous and increasing in E,
    floor(Theta) is the number of levels below E, and level k is the root
    of Theta = k + 1, where the two Pruefer vectors are parallel whatever
    k.  By the Wronskian identity
    kappa (psi_E psi' - psi psi_E')(m) = int_wall^m psi^2, each angle moves at
    int psi^2 / (kappa k A^2) + tilt k'(E) / k, tilt = psi psi'/k / A^2, from
    the scale k = sqrt(|E - V_m| / kappa) of psi'/k: k'(E) =
    sign(E - V_m) / (2 kappa k), and 0 where k takes its energy-scale floor.
    The tilts and the masses' end terms cancel between the branches at
    every root, so they leave the rate at a level as it is and make it the
    derivative of Theta between the levels too, where Newton starts.
    """
    if E not in setup.phases:
        left, right, k = _branches(setup, E)
        model, h = setup.model, setup.h
        turns_l = _turns(*left, h * k)
        turns_r = turns_l if right is left else _turns(*right, h * k)
        gap = E - float(setup.V[setup.match])
        dk = math.copysign(1.0, gap) / (2.0 * model.kappa * k) if abs(gap) > model.energy_scale else 0.0
        setup.phases[E] = (turns_l[0] + turns_r[0],
                           (h * (turns_l[1] + turns_r[1]) / (model.kappa * k)
                            + (turns_l[2] + turns_r[2]) * dk / k) / math.pi)
    return setup.phases[E]


def _newton(f, target, lo, hi, f_lo, f_hi, width, prev=None):
    """Root of f(E) = target in [lo, hi], where f_lo < target <= f_hi and f
    is increasing and returns (value, derivative).

    Newton steps in sqrt(E) start from the increasing root in the bracket
    of the quadratic in sqrt(E) through prev = (E, f(E)), a point below lo,
    and the two ends (a Muller step; Brent 1973, ch. 4, interpolates the
    inverse instead); without prev, or without such a root, from the linear
    interpolant in sqrt(E) between the ends.  Each value narrows the
    bracket, and a step that would leave it bisects it instead.  The search
    stops once a Newton step is at most width / 2 and returns where that
    step lands, or once the bracket is at most width wide and returns its
    midpoint.
    """
    s_lo, s_hi = math.sqrt(lo), math.sqrt(hi)
    span, rise = s_hi - s_lo, target - f_lo
    secant = (f_hi - f_lo) / span
    step = rise / secant
    if prev is not None:
        s_prev = math.sqrt(prev[0])
        # f_lo + secant t + curve t (t - span), t = sqrt(E) - s_lo, meets prev;
        # with b its linear coefficient, f = target where it rises at
        # t = 2 rise / (b + sqrt(b^2 + 4 curve rise))
        curve = (secant - (f_lo - prev[1]) / (s_lo - s_prev)) / (s_hi - s_prev)
        b = secant - curve * span
        disc = b * b + 4.0 * curve * rise
        if disc > 0.0 and b + math.sqrt(disc) > 0.0:
            root = 2.0 * rise / (b + math.sqrt(disc))
            if root <= span:
                step = root
    E = (s_lo + step) ** 2
    while True:
        value, slope = f(E)
        if value < target:
            lo = E
        else:
            hi = E
        if hi - lo <= width:
            return 0.5 * (lo + hi)
        s = math.sqrt(E)
        new = (s - (value - target) / (2.0 * s * slope)) ** 2 if 0.0 < slope < math.inf else math.nan
        if lo <= new <= hi and abs(new - E) <= 0.5 * width:
            return new
        E = new if lo < new < hi else 0.5 * (lo + hi)


def numerov_integrate(model, E, grid_size=GRID_SIZE):
    """Two-sided shot at trial energy E on a grid of ``grid_size`` points:
    the node count, parity and max-normalised values of the assembled
    solution.

    The shot takes the branches of ``_branches``.  The right branch is
    scaled by the alpha that fits alpha times its Pruefer vector at the match
    point m to the left one's in least squares, and the two are joined at m.
    On a mirror-symmetric model alpha is +-1 up to the search width, and its
    sign is the parity."""
    setup = _setup(model, grid_size)
    (psi_l, T_l, m), (psi_r, T_r, ms), k = _branches(setup, E)
    hk = setup.h * k
    value_l, slope_l = _pruefer(psi_l, T_l, m, hk)
    value_r, slope_r = _pruefer(psi_r, T_r, ms, hk)
    # the right slope is along its own sweep, the negative of psi'/k in x
    alpha = (value_l * value_r - slope_l * slope_r) / (value_r * value_r + slope_r * slope_r)
    assembled = np.concatenate([psi_l[:m], alpha * psi_r[ms::-1]])
    psi = assembled / np.max(np.abs(assembled))
    parity = ("even" if alpha >= 0 else "odd") if model.symmetric else None
    return MatchResult(E, count_nodes(psi), parity, setup.xs, psi)


def eigenvalue_search(model, k, tol=TOL, grid_size=GRID_SIZE):
    """k-th eigenvalue (k interior nodes), to width tol * model.energy_scale,
    on a grid of ``grid_size`` points over the model's declared ends.

    ``tol`` is relative to the model's energy unit, hbar^2/b^2 for the boxes
    and hbar for the half-line oscillator, so every scale is resolved alike.
    Level k is the root of Theta(E) = k + 1, with Theta the continuous
    counting phase of ``_phase``.  A doubling scan from the energy scale
    finds the first point where Theta >= k + 1, its last probe the ceiling
    E_MAX_FACTOR * energy_scale itself; its probes are memoised per
    (model, grid_size), so the levels of one spectrum share them.  Newton
    steps in sqrt(E) on Theta then start from the quadratic in sqrt(E)
    through that point and the two probes before it, or from the linear
    interpolant through that point and the one before it where the scan
    has only those two (``_newton``), bisecting whenever a step would leave
    the bracket that this level's own values of Theta narrow.  The start
    takes only this level's own scan probes, so a level does not depend on
    what the memo holds.
    The search stops once a Newton step is at most half the width and
    returns where that step lands: the step is the distance to the root up
    to a second-order term, so the result lies within the width of it,
    though no bracket of that width is checked.  It also stops once the
    bracket is at most the width and returns its midpoint.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if tol < MIN_TOL:
        raise ValueError(f"tol must be >= {MIN_TOL:g}")
    setup = _setup(model, grid_size)
    scale = model.energy_scale
    e_max = E_MAX_FACTOR * scale
    target = k + 1

    lo, hi, prev = 0.0, scale, None
    theta_lo, theta_hi = 0.0, _phase(setup, hi)[0]  # Theta >= 0, and lo = 0 lies below every level
    while theta_hi < target:
        if hi >= e_max:
            raise BracketFailure(
                f"level {k}: node transition not found below {e_max:.3g} "
                f"(upper side reached the ceiling)")
        prev = (lo, theta_lo) if lo else None  # lo = 0 is no probe
        lo, theta_lo = hi, theta_hi
        hi = min(2.0 * hi, e_max)
        theta_hi = _phase(setup, hi)[0]
    return _newton(functools.partial(_phase, setup), target, lo, hi, theta_lo, theta_hi,
                   tol * scale, prev)


def wavefunction(model, E, grid_size=GRID_SIZE):
    """Assembled two-sided solution at E, max-normalized; (xs, psi)."""
    shot = numerov_integrate(model, E, grid_size)
    return shot.xs, shot.psi


@dataclass(frozen=True, eq=False)
class _Probe:
    """What every exponent probe on one model shares: its grid spacing h, V
    on the points from the probed wall to the end of the fit window, the
    leading-power launch, the window's mask over those points and its
    distances s."""

    h: float
    V: np.ndarray
    start: np.ndarray
    window: np.ndarray
    s: np.ndarray


@functools.lru_cache(maxsize=1)
def _probe(model):
    """The exponent probe of one model, on its own PROBE_GRID_SIZE grid; one
    entry, so the probes of one spectrum share it."""
    xs, h, eps = _grid(model, PROBE_GRID_SIZE)
    scale = model.length_scale
    step = 1 if model.walls == (INVERSE_SQUARE, DIRICHLET) else -1
    xs, wall = xs[::step], model.walls[::step][0]  # from the probed end inward
    s = np.abs(xs - (xs[0] - step * eps))  # distance from the wall
    window = (s >= 1e-4 * scale) & (s <= 1e-2 * scale)
    stop = int(np.flatnonzero(window)[-1]) + 1
    xs = np.ascontiguousarray(xs[:stop])
    start = _launch(wall, np.abs(xs - xs[0]) + eps)
    return _Probe(h, evaluate_potential(model, xs), start, window[:stop], s[window])


def boundary_exponent_probe(model, E):
    """Fitted slope of log|psi| vs log s near a wall, at a converged energy.

    Fits the window s in [1e-4, 1e-2] * length_scale next to the right end,
    or next to the left one where only that end is an inverse-square wall
    (x = 0 on the half line).  The solution there is the branch launched
    from that wall, so only that branch is swept, from the wall across the
    window; the assembled two-sided solution differs from it by a constant
    factor, which the slope does not see.  Integration runs away from the
    wall, the direction in which the regular branch is stable, so the window
    slope is governed by the equation over two decades of s.  The sweep
    starts from the leading power s^{3/2} alone, not the wall series, so the
    exponent is a result.  The probe runs on its own grid of PROBE_GRID_SIZE
    points, and the window and the potential on it are memoised per model.
    Expected 3/2 at inverse-square walls, 1 at hard walls.
    """
    probe = _probe(model)
    psi = _sweep(probe.start, _numerov_t(model, E, probe.h, probe.V))
    a = np.abs(psi[probe.window])
    good = a > 0
    if np.count_nonzero(good) < 20:
        raise FitFailure("wavefunction vanishes inside the fit window")
    return float(np.polyfit(np.log(probe.s[good]), np.log(a[good]), 1)[0])


@dataclass(frozen=True, eq=False)
class ShootingSpectrum:
    """Levels 0, 1, ... of one model on a ``grid_size``-point grid, from one
    ``spectrum`` call.  It holds energies only: a caller that reads a level's
    final shot or wall exponent takes ``numerov_integrate`` or
    ``boundary_exponent_probe`` at that energy itself."""

    model: object
    grid_size: int
    eigenvalues: np.ndarray


def spectrum(model, levels, tol=TOL, grid_size=GRID_SIZE):
    """The model's lowest ``levels`` levels, each by ``eigenvalue_search`` and
    lowest first, so that they share the grid's memoised scan."""
    return ShootingSpectrum(model, grid_size, np.array(
        [eigenvalue_search(model, k, tol=tol, grid_size=grid_size) for k in range(levels)]))
