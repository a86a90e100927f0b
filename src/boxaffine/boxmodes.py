"""Closed-form spectrum of the flat box on (-b, b) with hard Dirichlet walls.

Modes are the unnormalized trig functions cos(n pi x / 2b) for odd n and
sin(n pi x / 2b) for even n; energies are hbar^2 n^2 pi^2 / 4 b^2.  Only the
modes that vanish at both walls survive the Dirichlet condition, which is half
of the full cos/sin family at each n.
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


def cq_eigenfunction(n, x, geom=BoxGeometry()):
    """Unnormalized n-th box mode, exactly zero for |x| >= b.

    cos(n pi x / 2b) for odd n, sin(n pi x / 2b) for even n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = np.asarray(x, dtype=float)
    arg = n * np.pi * x / (2.0 * geom.b)
    trig = np.cos(arg) if n % 2 else np.sin(arg)
    out = np.where(np.abs(x) < geom.b, trig, 0.0)
    return float(out) if out.ndim == 0 else out


def cq_eigenvalue(n, geom=BoxGeometry()):
    """E_n = hbar^2 n^2 pi^2 / 4 b^2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return geom.hbar**2 * n**2 * np.pi**2 / (4.0 * geom.b**2)


def classify_trig_modes(M):
    """Split the 2M candidates {cos, sin}(n pi x / 2b), n = 1..M, by the
    Dirichlet condition at both walls.

    Returns (accepted, rejected): cosines with odd n and sines with even n
    vanish at x = +-b and are accepted; the other M candidates are not.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    accepted, rejected = [], []
    for n in range(1, M + 1):
        cos_mode, sin_mode = TrigMode(n, "cosine"), TrigMode(n, "sine")
        if n % 2:
            accepted.append(cos_mode)
            rejected.append(sin_mode)
        else:
            accepted.append(sin_mode)
            rejected.append(cos_mode)
    return accepted, rejected


def cq_eigenfunction_extended(n, geom=BoxGeometry()):
    """The n-th mode extended by zero, as a PiecewiseSmooth on (-2b, 2b)
    with breakpoints at the walls.

    The zero extension is continuous, but its slope jumps at +-b, so the weak
    second derivative picks up one delta per wall.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    b = geom.b
    k = n * np.pi / (2.0 * b)

    if n % 2:
        f = lambda x: np.cos(k * np.asarray(x, dtype=float))
        df = lambda x: -k * np.sin(k * np.asarray(x, dtype=float))
        d2f = lambda x: -k * k * np.cos(k * np.asarray(x, dtype=float))
    else:
        f = lambda x: np.sin(k * np.asarray(x, dtype=float))
        df = lambda x: k * np.cos(k * np.asarray(x, dtype=float))
        d2f = lambda x: -k * k * np.sin(k * np.asarray(x, dtype=float))

    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return PiecewiseSmooth((
        Piece(-2.0 * b, -b, zero, zero, zero),
        Piece(-b, b, f, df, d2f),
        Piece(b, 2.0 * b, zero, zero, zero),
    ))
