"""Schrodinger-representation potentials for the four model variants.

The box on (-b, b) comes in two flavors: flat with hard Dirichlet walls
(CqBox), and with the inverse-square wall potential
hbar^2 (2x^2 + b^2)/(b^2 - x^2)^2 (AqBox) whose strength near either wall is
(3/4) hbar^2 / (b - |x|)^2 -- the same strength that forces the s^{3/2}
boundary behavior of the half-line oscillator with the (3/4) hbar^2 / x^2
barrier (HalfHarmonic).  AntiBox is the exterior |x| > b with an added W/|x|
pull toward the walls; it is evaluated but never solved here.

Each solvable model declares, once, what both solvers read: the kinetic
coefficient ``kappa`` of H = -kappa psi'' + V psi, its ``energy_scale`` and
``length_scale``, the ``ends`` of its solvable interval, the kind of wall at
each (``walls``) and whether it is mirror-``symmetric``.  A model with
inverse-square walls also declares ``wall_series``: the Taylor coefficients
w_j of u^2 L^2 V / kappa in u = s / L at those walls, where s is the
distance to the wall and L the length scale.  w_0 = 3/4 at every such wall.
"""

import math
from dataclasses import dataclass

import numpy as np

from .boxmodes import BoxGeometry


class DomainError(ValueError):
    """Evaluation point outside the model's open domain."""


class ModelUnsupported(ValueError):
    """Operation not defined for this model variant."""


# The kind of each end of a model's solvable interval.  An inverse-square
# wall (3/4) kappa / s^2 at distance s forces psi ~ s^{3/2} there.
DIRICHLET = "dirichlet"
INVERSE_SQUARE = "inverse-square"


def _pointwise(x, outside, message, formula):
    """formula(x) as a float for a scalar x and an array otherwise, after
    DomainError(message) if outside(x) holds at any point."""
    x = np.asarray(x, dtype=float)
    if np.any(outside(x)):
        raise DomainError(message)
    out = formula(x)
    return float(out) if out.ndim == 0 else out


def _aq_wall(x, b, hbar):
    """hbar^2 (2x^2 + b^2) / (b^2 - x^2)^2, the inverse-square wall potential."""
    return hbar**2 * (2.0 * x * x + b * b) / (b * b - x * x) ** 2


class _Box:
    """The box (-b, b): kappa = hbar^2 (2m = 1), energies in hbar^2/b^2."""

    symmetric = True

    @property
    def kappa(self):
        return self.geom.hbar**2

    @property
    def energy_scale(self):
        return self.geom.hbar**2 / self.geom.b**2

    @property
    def length_scale(self):
        return self.geom.b

    @property
    def ends(self):
        return (-self.geom.b, self.geom.b)


@dataclass(frozen=True)
class CqBox(_Box):
    geom: BoxGeometry = BoxGeometry()
    walls = (DIRICHLET, DIRICHLET)

    def potential(self, x):
        # zero inside; the walls are boundary conditions, so the closed
        # interval is fine
        return _pointwise(x, lambda x: np.abs(x) > self.geom.b,
                          "CqBox potential defined on |x| <= b", np.zeros_like)


@dataclass(frozen=True)
class AqBox(_Box):
    geom: BoxGeometry = BoxGeometry()
    walls = (INVERSE_SQUARE, INVERSE_SQUARE)
    # (3 - 4u + 2u^2) / (2 - u)^2 = 3/4 + sum_{j>=1} (3j - 5) u^j / 2^{j+2} at
    # either wall; 32 terms give it to rounding for u <= 1/2
    wall_series = (0.75,) + tuple((3 * j - 5) / 2.0 ** (j + 2) for j in range(1, 32))

    def potential(self, x):
        """hbar^2 (2x^2 + b^2) / (b^2 - x^2)^2 on the open box |x| < b."""
        b, hbar = self.geom.b, self.geom.hbar
        return _pointwise(x, lambda x: np.abs(x) >= b, "AqBox potential requires |x| < b",
                          lambda x: _aq_wall(x, b, hbar))


@dataclass(frozen=True)
class HalfHarmonic:
    """The half line, truncated at 12 sqrt(hbar), far beyond where the
    Gaussian tail matters, by a Dirichlet end."""

    hbar: float = 1.0
    walls = (INVERSE_SQUARE, DIRICHLET)
    wall_series = (0.75, 0.0, 0.0, 0.0, 1.0)  # 3/4 + u^4, exactly
    symmetric = False

    def __post_init__(self):
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ValueError("hbar must be positive and finite")

    @property
    def kappa(self):
        return 0.5 * self.hbar**2

    @property
    def energy_scale(self):
        return self.hbar

    @property
    def length_scale(self):
        return math.sqrt(self.hbar)

    @property
    def ends(self):
        return (0.0, 12.0 * self.length_scale)

    def potential(self, x):
        """[(3/4) hbar^2 / x^2 + x^2] / 2 on x > 0 (the kinetic term carries
        the same overall 1/2 for this variant)."""
        return _pointwise(x, lambda x: x <= 0, "HalfHarmonic potential requires x > 0",
                          lambda x: 0.5 * (0.75 * self.hbar**2 / (x * x) + x * x))


@dataclass(frozen=True)
class AntiBox:
    geom: BoxGeometry = BoxGeometry()
    W: float = 0.0
    ends = walls = ()  # evaluated only: no solvable interval

    def __post_init__(self):
        if not (self.W >= 0 and math.isfinite(self.W)):
            raise ValueError("W must be >= 0 and finite")

    def potential(self, x):
        """Exterior-region potential hbar^2 (2x^2 + b^2)/(b^2 - x^2)^2 + W/|x|,
        |x| > b.  Evaluation only; no spectrum solver exists for this variant."""
        b, hbar = self.geom.b, self.geom.hbar
        return _pointwise(x, lambda x: np.abs(x) <= b, "AntiBox potential requires |x| > b",
                          lambda x: _aq_wall(x, b, hbar) + self.W / np.abs(x))


def boundary_asymptotic_ratio(x, geom=BoxGeometry()):
    """The AqBox potential at x divided by its wall asymptote
    (3/4) hbar^2 / (b - |x|)^2; tends to 1 as |x| -> b."""
    b, hbar = geom.b, geom.hbar

    def ratio(x):
        s = b - np.abs(x)
        return _aq_wall(x, b, hbar) / (0.75 * hbar**2 / (s * s))

    return _pointwise(x, lambda x: np.abs(x) >= b, "ratio defined inside the open box, |x| < b",
                      ratio)


def singularity_metadata(model):
    """Inverse-square singular endpoints (location, coefficient, -2), read off
    the declared walls.

    Each wall carries (3/4) kappa: (3/4) hbar^2 at the AqBox walls, (3/8)
    hbar^2 at the half-line origin because of the overall 1/2 in that
    Hamiltonian.  The coefficient-to-kinetic ratio, and with it the s^{3/2}
    boundary exponent, is the same in both.
    """
    ends = tuple((x, 0.75 * model.kappa, -2)
                 for x, wall in zip(model.ends, model.walls) if wall == INVERSE_SQUARE)
    if not ends:
        raise ModelUnsupported(f"no singularity metadata for {type(model).__name__}")
    return ends


def evaluate_potential(model, x):
    """V(x) for any variant (zero inside the flat box)."""
    return model.potential(x)


def half_ho_eigenvalue(k, hbar=1.0):
    """Closed-form level E_k = 2 hbar (k + 1) of the half-line oscillator."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return 2.0 * hbar * (k + 1)


def half_ho_eigenfunction(k, x, hbar=1.0):
    """Unnormalized closed-form eigenfunction
    x^{3/2} L_k^{(1)}(x^2/hbar) exp(-x^2 / 2 hbar) on x > 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    from numpy.polynomial.laguerre import lagval  # deferred: ~3 ms, else loaded by sweeps only

    def mode(x):
        t = x * x / hbar
        # L_k^{(1)} = L_0 + L_1 + ... + L_k, a Laguerre series of k + 1 ones
        return x**1.5 * lagval(t, np.ones(k + 1)) * np.exp(-0.5 * t)

    return _pointwise(x, lambda x: x <= 0, "half_ho_eigenfunction requires x > 0", mode)
