"""Gauss-Legendre rules.

numpy builds each rule (``numpy.polynomial.legendre.leggauss``: the nodes
are the eigenvalues of the symmetric Jacobi matrix, after Golub and Welsch,
refined by one Newton step and symmetrised).  Rules are built once per
order and cached read-only, so every caller shares them.
"""

import functools
from dataclasses import dataclass

import numpy as np

MAX_ORDER = 512


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights on (-1, 1)."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, f, lo=-1.0, hi=1.0):
        """The integral of f over (lo, hi); f is called once, on all nodes."""
        half = 0.5 * (hi - lo)
        x = 0.5 * (hi + lo) + half * self.nodes
        return float((half * self.weights) @ np.asarray(f(x), dtype=float))


@functools.lru_cache(maxsize=None)
def gauss_legendre(n):
    """n-point Gauss-Legendre rule on (-1, 1), cached per order.

    Nodes ascend and are symmetric about 0; the weights are positive.
    Exact for polynomials of degree <= 2n - 1.  The returned arrays are
    shared between callers and therefore read-only.
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}]")
    from numpy.polynomial.legendre import leggauss  # deferred: ~3 ms, else loaded by sweeps only
    nodes, weights = leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes, weights)
