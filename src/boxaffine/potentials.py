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
each (``walls``) and whether it is mirror-``symmetric``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .boxmodes import BoxGeometry
from .quadrature import laguerre_eval


class DomainError(ValueError):
    """Evaluation point outside the model's open domain."""


class ModelUnsupported(ValueError):
    """Operation not defined for this model variant."""


# The kind of each end of a model's solvable interval.  An inverse-square
# wall (3/4) kappa / s^2 at distance s forces psi ~ s^{3/2} there.
DIRICHLET = "dirichlet"
INVERSE_SQUARE = "inverse-square"


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
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) > self.geom.b):
            raise DomainError("CqBox potential defined on |x| <= b")
        out = np.zeros_like(x)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class AqBox(_Box):
    geom: BoxGeometry = BoxGeometry()
    walls = (INVERSE_SQUARE, INVERSE_SQUARE)

    def potential(self, x):
        return aq_box_potential(x, self.geom)


@dataclass(frozen=True)
class HalfHarmonic:
    """The half line, truncated at 12 sqrt(hbar), far beyond where the
    Gaussian tail matters, by a Dirichlet end."""

    hbar: float = 1.0
    walls = (INVERSE_SQUARE, DIRICHLET)
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
        return half_ho_potential(x, self.hbar)


@dataclass(frozen=True)
class AntiBox:
    geom: BoxGeometry = BoxGeometry()
    W: float = 0.0
    ends = walls = ()  # evaluated only: no solvable interval

    def __post_init__(self):
        if not (self.W >= 0 and math.isfinite(self.W)):
            raise ValueError("W must be >= 0 and finite")

    def potential(self, x):
        return anti_box_potential(x, self.geom, self.W)


def aq_box_potential(x, geom=BoxGeometry()):
    """hbar^2 (2x^2 + b^2) / (b^2 - x^2)^2 on the open box |x| < b."""
    b, hbar = geom.b, geom.hbar
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) >= b):
        raise DomainError("aq_box_potential requires |x| < b")
    out = hbar**2 * (2.0 * x * x + b * b) / (b * b - x * x) ** 2
    return float(out) if out.ndim == 0 else out


def half_ho_potential(x, hbar=1.0):
    """[(3/4) hbar^2 / x^2 + x^2] / 2 on x > 0 (the kinetic term carries the
    same overall 1/2 for this variant)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("half_ho_potential requires x > 0")
    out = 0.5 * (0.75 * hbar**2 / (x * x) + x * x)
    return float(out) if out.ndim == 0 else out


def anti_box_potential(x, geom=BoxGeometry(), W=0.0):
    """Exterior-region potential hbar^2 (2x^2 + b^2)/(b^2 - x^2)^2 + W/|x|,
    |x| > b.  Evaluation only; no spectrum solver exists for this variant."""
    b, hbar = geom.b, geom.hbar
    if W < 0:
        raise ValueError("W must be >= 0")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) <= b):
        raise DomainError("anti_box_potential requires |x| > b")
    out = hbar**2 * (2.0 * x * x + b * b) / (b * b - x * x) ** 2 + W / np.abs(x)
    return float(out) if out.ndim == 0 else out


def boundary_asymptotic_ratio(x, geom=BoxGeometry()):
    """aq_box_potential(x) divided by its wall asymptote
    (3/4) hbar^2 / (b - |x|)^2; tends to 1 as |x| -> b."""
    b, hbar = geom.b, geom.hbar
    x = np.asarray(x, dtype=float)
    s = b - np.abs(x)
    if np.any(s <= 0):
        raise DomainError("ratio defined inside the open box, |x| < b")
    reference = 0.75 * hbar**2 / (s * s)
    out = aq_box_potential(x, geom) / reference
    return float(out) if out.ndim == 0 else out


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
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("half_ho_eigenfunction requires x > 0")
    t = x * x / hbar
    out = x**1.5 * laguerre_eval(1.0, k, t) * np.exp(-0.5 * t)
    return float(out) if out.ndim == 0 else out
