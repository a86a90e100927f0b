"""Closed-form spectrum of the flat box on (-b, b) with hard Dirichlet walls.

Modes are the unnormalized trig functions cos(n pi x / 2b) for odd n and
sin(n pi x / 2b) for even n; energies are hbar^2 n^2 pi^2 / 4 b^2.  Only the
modes that vanish at both walls survive the Dirichlet condition, which is half
of the full cos/sin family at each n.  The node counter both solvers use lives
here too, so that neither solver imports the other.
"""

import math
from dataclasses import dataclass

import numpy as np

from .piecewise import Piece, PiecewiseSmooth


@dataclass(frozen=True)
class BoxGeometry:
    """Half-width b and action scale hbar, both strictly positive."""

    b: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not (self.b > 0 and math.isfinite(self.b)):
            raise ValueError("b must be positive and finite")
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ValueError("hbar must be positive and finite")


@dataclass(frozen=True)
class TrigMode:
    n: int
    kind: str  # "cosine" | "sine"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.kind not in ("cosine", "sine"):
            raise ValueError("kind must be 'cosine' or 'sine'")


def cq_eigenvalue(n, geom=BoxGeometry()):
    """E_n = hbar^2 n^2 pi^2 / 4 b^2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return geom.hbar**2 * n**2 * np.pi**2 / (4.0 * geom.b**2)


def classify_trig_modes(M):
    """Split the 2M candidates {cos, sin}(n pi x / 2b), n = 1..M, by the
    Dirichlet condition at both walls.

    Each candidate is evaluated at x = +-b, where its argument is +-n pi / 2,
    and accepted if both values are below 1e-12: the accepted values are
    rounding noise (under 3e-15 for n <= 16), the rejected partner's are +-1.
    Returns (accepted, rejected), each in order of n.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    accepted, rejected = [], []
    for n in range(1, M + 1):
        for kind, trig in (("cosine", math.cos), ("sine", math.sin)):
            wall = n * math.pi / 2
            vanishes = all(abs(trig(arg)) < 1e-12 for arg in (-wall, wall))
            (accepted if vanishes else rejected).append(TrigMode(n, kind))
    return accepted, rejected


def cq_eigenfunction_extended(n, geom=BoxGeometry()):
    """The n-th mode extended by zero, as a PiecewiseSmooth on (-2b, 2b)
    with breakpoints at the walls.

    The zero extension is continuous, but its slope jumps at +-b, so the weak
    second derivative picks up one delta per wall.  The mode is exactly zero
    at both walls: the pieces are half-open, so x = -b is the interior
    piece's, where the rounded cos or sin of n pi / 2 would leave ~1e-16.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    b = geom.b
    k = n * np.pi / (2.0 * b)
    trig, dtrig = (np.cos, lambda u: -np.sin(u)) if n % 2 else (np.sin, np.cos)

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) < b, trig(k * x), 0.0)

    df = lambda x: k * dtrig(k * np.asarray(x, dtype=float))
    d2f = lambda x: -k * k * trig(k * np.asarray(x, dtype=float))

    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return PiecewiseSmooth((
        Piece(-2.0 * b, -b, zero, zero, zero),
        Piece(-b, b, f, df, d2f),
        Piece(b, 2.0 * b, zero, zero, zero),
    ))


def count_nodes(psi):
    """Sign changes in sampled values, zeros skipped.

    The one sign-change diagnostic both solvers share: shooting counts the
    nodes of each branch for its counting phase and those of its final shot,
    Ritz those of its sampled eigenfunctions.  The eigenvalues stay each
    solver's own.
    """
    signs = np.sign(psi)
    signs = signs[signs != 0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))
