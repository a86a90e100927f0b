"""Gauss-Legendre rules.

Everything here is plain dense numpy.  Rules are built once per order and
cached read-only, so every caller shares them.
"""

import functools
from dataclasses import dataclass

import numpy as np


class ConvergenceFailure(RuntimeError):
    """Newton iteration for quadrature nodes failed to converge."""


MAX_ORDER = 512
_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


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
    # P_n and P'_n at interior points, n >= 0; the derivative uses the
    # standard relation (t^2 - 1) P'_n = n (t P_n - P_{n-1}).
    p_prev = np.zeros_like(t)
    p = np.ones_like(t)
    for j in range(n):
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
