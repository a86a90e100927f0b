"""Gauss-Legendre rules and orthogonal-polynomial recurrences.

Everything here is plain dense numpy.  Gauss-Legendre rules are built once
per order and cached read-only, so matrix assembly and norm integrals
elsewhere in the package share them.
"""

import functools
from dataclasses import dataclass

import numpy as np


class ConvergenceFailure(RuntimeError):
    """Newton iteration for quadrature nodes failed to converge."""


MAX_ORDER = 512
_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


def legendre_table(nmax, t):
    """Values and first derivatives of P_0..P_nmax at the points t.

    Returns (P, dP), each of shape (nmax+1, len(t)).  The derivative uses the
    recurrence dP_{k+1} = (2k+1) P_k + dP_{k-1}, which stays finite at t = +-1.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    P = np.empty((nmax + 1, t.size))
    dP = np.empty((nmax + 1, t.size))
    P[0] = 1.0
    dP[0] = 0.0
    if nmax >= 1:
        P[1] = t
        dP[1] = 1.0
    for k in range(1, nmax):
        P[k + 1] = ((2 * k + 1) * t * P[k] - k * P[k - 1]) / (k + 1)
        dP[k + 1] = (2 * k + 1) * P[k] + dP[k - 1]
    return P, dP


def legendre_second_derivative_table(nmax, t):
    """Second derivatives of P_0..P_nmax at t, via ddP_{k+1} = (2k+1) dP_k + ddP_{k-1}."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    _, dP = legendre_table(nmax, t)
    ddP = np.empty((nmax + 1, t.size))
    ddP[0] = 0.0
    if nmax >= 1:
        ddP[1] = 0.0
    for k in range(1, nmax):
        ddP[k + 1] = (2 * k + 1) * dP[k] + ddP[k - 1]
    return ddP


def laguerre_eval(alpha, n, t):
    """Generalized Laguerre polynomial L_n^{(alpha)}(t), alpha > -1, t >= 0."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if alpha <= -1:
        raise ValueError("alpha must be > -1")
    t = np.asarray(t, dtype=float)
    p_prev = np.ones_like(t)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = 1.0 + alpha - t
    for k in range(1, n):
        p, p_prev = ((2 * k + 1 + alpha - t) * p - (k + alpha) * p_prev) / (k + 1), p
    p = np.asarray(p, dtype=float)
    return p if p.ndim else float(p)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights on (-1, 1)."""

    nodes: np.ndarray
    weights: np.ndarray

    def mapped(self, lo, hi):
        """Nodes and weights transplanted to the interval (lo, hi)."""
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        return mid + half * self.nodes, half * self.weights

    def integrate(self, f, lo=-1.0, hi=1.0):
        x, w = self.mapped(lo, hi)
        return float(w @ np.asarray(f(x), dtype=float))


def _legendre_and_derivative(n, t):
    # P_n and P'_n at interior points; the derivative uses the standard
    # relation (t^2 - 1) P'_n = n (t P_n - P_{n-1}).
    p_prev = np.ones_like(t)
    p = t.copy()
    for j in range(1, n):
        p, p_prev = ((2 * j + 1) * t * p - j * p_prev) / (j + 1), p
    dp = n * (t * p - p_prev) / (t * t - 1.0)
    return p, dp


@functools.lru_cache(maxsize=None)
def gauss_legendre(n):
    """n-point Gauss-Legendre rule on (-1, 1), cached per order.

    Nodes are Newton-refined roots of P_n starting from Chebyshev angles;
    only one half is computed and mirrored, so the rule is exactly symmetric.
    Exact for polynomials of degree <= 2n - 1.  The returned arrays are
    shared between callers and therefore read-only.
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}]")
    if n == 1:
        return _frozen_rule(np.zeros(1), np.full(1, 2.0))

    k = np.arange(1, n // 2 + 1)
    t = np.cos(np.pi * (k - 0.25) / (n + 0.5))  # positive-half guesses, decreasing
    for _ in range(_NEWTON_MAX_ITER):
        p, dp = _legendre_and_derivative(n, t)
        step = p / dp
        t = t - step
        if np.max(np.abs(step)) < _NEWTON_TOL:
            break
    else:
        raise ConvergenceFailure(f"Newton did not converge for n={n}")

    _, dp = _legendre_and_derivative(n, t)
    w_half = 2.0 / ((1.0 - t * t) * dp * dp)

    pos = t[::-1]  # ascending positive nodes
    wpos = w_half[::-1]
    if n % 2:
        t0 = np.zeros(1)
        _, dp0 = _legendre_and_derivative(n, t0)
        w0 = 2.0 / (dp0 * dp0)
        nodes = np.concatenate([-pos[::-1], t0, pos])
        weights = np.concatenate([wpos[::-1], w0, wpos])
    else:
        nodes = np.concatenate([-pos[::-1], pos])
        weights = np.concatenate([wpos[::-1], wpos])
    return _frozen_rule(nodes, weights)


def _frozen_rule(nodes, weights):
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes, weights)
