"""Piecewise-smooth functions on an interval and their weak derivatives.

A function is stored as smooth pieces between breakpoints, each piece carrying
analytic value/derivative evaluators.  Differentiating once turns a jump of the
function into a Dirac delta; differentiating twice turns a jump of the slope
into a delta and a jump of the function into a delta-prime.  A weak derivative
is square-integrable iff it carries no delta terms at all, which is the whole
point of the diagnostics below.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .quadrature import MAX_ORDER, gauss_legendre

JUMP_THRESHOLD = 1e-10  # jumps below this are floating-point noise
QUAD_TOL = 1e-10


class QuadratureFailure(RuntimeError):
    """No Gauss-Legendre order up to MAX_ORDER reached the requested tolerance."""


@dataclass(frozen=True)
class Piece:
    """One smooth piece on the open interval (lo, hi).

    Evaluators map arrays to arrays and must be finite on the closure: one-sided
    limits at a breakpoint are taken by evaluating the adjacent piece there.
    """

    lo: float
    hi: float
    f: Callable
    df: Optional[Callable] = None
    d2f: Optional[Callable] = None

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("piece endpoints must be finite")
        if self.lo >= self.hi:
            raise ValueError("piece must have lo < hi")


@dataclass(frozen=True)
class DeltaTerm:
    """Dirac delta at `location` with the given (nonzero) coefficient."""

    location: float
    coefficient: float


@dataclass(frozen=True)
class PiecewiseSmooth:
    """Smooth pieces tiling an ambient interval exactly, no gaps or overlaps."""

    pieces: Tuple[Piece, ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("need at least one piece")
        for a, b in zip(self.pieces, self.pieces[1:]):
            if a.hi != b.lo:
                raise ValueError("pieces must tile the interval exactly")
        object.__setattr__(self, "pieces", tuple(self.pieces))

    @property
    def ambient_interval(self):
        return (self.pieces[0].lo, self.pieces[-1].hi)

    def __call__(self, x):
        """Vectorized evaluation of f with zero extension outside."""
        x = np.asarray(x, dtype=float)
        # half-open [lo, hi) pieces, last piece closed at hi
        conds = [(x >= p.lo) & (x < p.hi) for p in self.pieces]
        conds[-1] |= x == self.pieces[-1].hi
        out = np.piecewise(x, conds, [p.f for p in self.pieces])
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class WeakDerivative:
    """Smooth part plus the delta content produced by differentiation."""

    smooth_part: PiecewiseSmooth
    delta_terms: Tuple[DeltaTerm, ...] = ()
    delta_prime_terms: Tuple[DeltaTerm, ...] = ()

    @property
    def is_square_integrable(self):
        return not self.delta_terms and not self.delta_prime_terms


def _limit_from_piece(piece, x0, which):
    """Limit at the endpoint x0 from inside the piece: its evaluator at x0."""
    fn = (piece.f, piece.df, piece.d2f)[which]
    if fn is None:
        raise ValueError("piece lacks the requested derivative evaluator")
    return float(fn(np.asarray(x0, dtype=float)))


def _jumps(pw, which):
    """(location, jump) at every interior breakpoint, pruning sub-threshold jumps."""
    out = []
    for left, right in zip(pw.pieces, pw.pieces[1:]):
        x0 = left.hi
        jump = _limit_from_piece(right, x0, which) - _limit_from_piece(left, x0, which)
        if abs(jump) > JUMP_THRESHOLD:
            out.append(DeltaTerm(x0, jump))
    return tuple(out)


def _shifted_pieces(pw, shift):
    """Pieces whose evaluators are the originals shifted down by `shift` orders."""
    pieces = []
    for p in pw.pieces:
        fs = (p.f, p.df, p.d2f)[shift:] + (None,) * shift
        pieces.append(Piece(p.lo, p.hi, fs[0], fs[1], fs[2]))
    return PiecewiseSmooth(tuple(pieces))


def weak_derivative(f):
    """Weak first derivative: piecewise f' plus a delta wherever f jumps."""
    return WeakDerivative(
        smooth_part=_shifted_pieces(f, 1),
        delta_terms=_jumps(f, 0),
    )


def weak_second_derivative(f):
    """Weak second derivative: piecewise f'' plus deltas from f' jumps and
    delta-primes from f jumps."""
    return WeakDerivative(
        smooth_part=_shifted_pieces(f, 2),
        delta_terms=_jumps(f, 1),
        delta_prime_terms=_jumps(f, 0),
    )


def l2_norm_squared(w):
    """Integral of |w|^2 over the ambient interval; +inf as soon as w carries
    any delta content, which always lies at an interior breakpoint.  Each
    piece takes Gauss-Legendre orders 1, 2, 4, ... until two in a row agree."""
    if not w.is_square_integrable:
        return math.inf
    total = 0.0
    for p in w.smooth_part.pieces:
        val = math.nan
        for n in (2**j for j in range(MAX_ORDER.bit_length())):  # 1, 2, 4, ..., MAX_ORDER
            prev, val = val, gauss_legendre(n).integrate(lambda x: p.f(x) ** 2, p.lo, p.hi)
            if abs(val - prev) <= max(QUAD_TOL, QUAD_TOL * abs(val)):
                break
        else:
            raise QuadratureFailure(f"orders up to {MAX_ORDER} disagree on ({p.lo}, {p.hi})")
        total += val
    return total


def discrete_second_derivative_norm(f, h, interior_only=False):
    """h * sum over mesh points of |D2_h f|^2, the mesh version of int |f''|^2.

    D2_h is the symmetric difference quotient applied twice (stencil width 2h),
    evaluated on a mesh aligned with the ambient interval so breakpoints fall
    on mesh points; f is extended by zero outside.  This quantity diverges like
    1/h when f' has a jump, and converges (interior_only quadrature) to the
    smooth second-derivative norm otherwise.
    """
    lo, hi = f.ambient_interval
    length = hi - lo
    n = round(length / h)
    if n < 4 or abs(n * h - length) > 1e-9 * length:
        raise ValueError("h must divide the ambient interval length")
    # mesh plus two phantom points each side for the +-2h stencil
    xs = lo + h * np.arange(-2, n + 3)
    vals = f(xs)
    d2 = (vals[4:] - 2.0 * vals[2:-2] + vals[:-4]) / (4.0 * h * h)
    if interior_only:
        d2 = d2[2:-2]
    return float(h * np.sum(d2 * d2))


def flat_ramp():
    """The kink example on (-1, 1): zero left of the origin, slope one right.

    Its weak second derivative is a single unit delta at 0, the simplest
    function whose second derivative escapes L^2.
    """
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    ident = lambda x: np.asarray(x, dtype=float)
    return PiecewiseSmooth((
        Piece(-1.0, 0.0, zero, zero, zero),
        Piece(0.0, 1.0, ident, one, zero),
    ))
