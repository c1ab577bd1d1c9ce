"""Spacetime topologies, static worldlines, and image separations.

Besides Minkowski space, two locally flat quotients are supported, each
generated by a discrete isometry acting on the spatial section:

* cylinder:          J0 : (x, y, z) -> (x, y, z + ell)
* twisted cylinder:  J- : (x, y, z) -> (-x, -y, z + ell)

A scalar field on the quotient picks up the weight eta^n on the n-th image
(eta = +1 for an ordinary field, eta = -1 for a twisted field).

Image separations are computed from the explicit isometry action applied to
the second worldline, |x_A - J^n x_B|, which is immune to sign-convention
drift in Delta z = z_A - z_B.  The equivalent closed forms

    L_n^2      = |d_A - d_B|^2 + (Delta z - n ell)^2
    Ltilde_n^2 = |d_A - (-1)^P(n) d_B|^2 + (Delta z - n ell)^2   (P(n) = n mod 2)

(= L^2 + n^2 ell^2 - 2 n ell Delta z, plus 4 d_A . d_B P(n) on the twisted
cylinder, written as sums of squares so that nothing cancels when L_n is
much smaller than n ell) are provided as cross-checks only.

The worldline coordinates of a :class:`WorldlinePair` may be numpy arrays
of broadcast-compatible shapes; :func:`separation_array` and
:func:`image_separation_array` then return one distance per element, and
the scalar functions are those kernels evaluated on floats.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

__all__ = [
    "TopologyKind",
    "Topology",
    "WorldlinePair",
    "parity",
    "separation",
    "separation_array",
    "image_point",
    "image_separation",
    "image_separation_array",
    "cylinder_separation_formula",
    "twisted_separation_formula",
    "effective_ell_twisted",
    "worldlines_from_orientation",
    "self_pair",
]

Vec2 = tuple[float, float]

_TINY = np.finfo(float).tiny


class TopologyKind(enum.Enum):
    MINKOWSKI = "minkowski"
    CYLINDER = "cylinder"
    TWISTED_CYLINDER = "twisted"


@dataclass(frozen=True)
class Topology:
    """Spatial topology descriptor: kind, compactification scale, field weight."""

    kind: TopologyKind
    ell: float | None = None
    eta: int = 1

    def __post_init__(self) -> None:
        if self.eta not in (1, -1):
            raise GeometryError(f"eta must be +1 or -1, got {self.eta!r}")
        if self.kind is TopologyKind.MINKOWSKI:
            if self.ell is not None:
                raise GeometryError("Minkowski space has no compactification scale")
        else:
            if self.ell is None or not math.isfinite(self.ell) or self.ell <= 0.0:
                raise GeometryError(
                    f"{self.kind.value} requires a finite ell > 0, got {self.ell!r}"
                )

    @classmethod
    def minkowski(cls) -> "Topology":
        return cls(TopologyKind.MINKOWSKI)

    @classmethod
    def cylinder(cls, ell: float, eta: int = 1) -> "Topology":
        return cls(TopologyKind.CYLINDER, float(ell), eta)

    @classmethod
    def twisted_cylinder(cls, ell: float, eta: int = 1) -> "Topology":
        return cls(TopologyKind.TWISTED_CYLINDER, float(ell), eta)


@dataclass(frozen=True)
class WorldlinePair:
    """Static worldlines of the two detectors.

    ``d_a`` and ``d_b`` are the transverse-plane positions (the plane the
    twisted identification reflects); ``z_a``, ``z_b`` lie along the
    identified direction.
    """

    d_a: Vec2
    d_b: Vec2
    z_a: float = 0.0
    z_b: float = 0.0

    @property
    def delta_z(self) -> float:
        return self.z_a - self.z_b


def parity(n: int) -> int:
    """P(n): 0 for even n, 1 for odd n."""
    return abs(int(n)) % 2


def _distance(dx, dy, dz):
    """sqrt(dx^2 + dy^2 + dz^2).  Where the sum of squares overflows or falls
    below the smallest normal float, it is rescaled by the largest
    |component| m, as m sqrt(sum (d/m)^2); elsewhere it is used as it is."""
    with np.errstate(over="ignore"):
        sq = dx * dx + dy * dy + dz * dz
        if isinstance(sq, float):
            if _TINY <= sq < math.inf:
                return np.sqrt(sq)
        elif _TINY <= sq.min(initial=math.inf) and sq.max(initial=0.0) < math.inf:
            return np.sqrt(sq)
        m = np.maximum(np.maximum(np.abs(dx), np.abs(dy)), np.abs(dz))
        rescale = ~((sq >= _TINY) & (sq < math.inf)) & (m > 0.0) & (m < math.inf)
        m = np.where(rescale, m, 1.0)
        u, v, w = (np.where(rescale, d / m, 0.0) for d in (dx, dy, dz))
        return np.where(rescale, m * np.sqrt(u * u + v * v + w * w), np.sqrt(sq))


def separation_array(pair: WorldlinePair):
    """Euclidean distance |x_A - x_B| for array-valued worldline coordinates."""
    return _distance(
        pair.d_a[0] - pair.d_b[0], pair.d_a[1] - pair.d_b[1], pair.z_a - pair.z_b
    )


def separation(pair: WorldlinePair) -> float:
    """Euclidean distance L = |x_A - x_B| between the static worldlines."""
    return float(separation_array(pair))


def image_point(
    kind: TopologyKind, ell: float, n: int, d: Vec2, z: float
) -> tuple[Vec2, float]:
    """Apply the n-th power of the generating isometry to a spatial point."""
    if kind is TopologyKind.MINKOWSKI:
        raise GeometryError("Minkowski space has no identification isometry")
    z_im = z + n * ell
    if kind is TopologyKind.CYLINDER or parity(n) == 0:
        return (d[0], d[1]), z_im
    return (-d[0], -d[1]), z_im


def image_separation_array(topology: Topology, pair: WorldlinePair, n: int):
    """Distances |x_A - J^n x_B| for array-valued worldline coordinates."""
    if topology.kind is TopologyKind.MINKOWSKI:
        if n != 0:
            raise GeometryError("Minkowski space has no nontrivial images")
        return separation_array(pair)
    d_im, z_im = image_point(topology.kind, topology.ell, n, pair.d_b, pair.z_b)
    return separation_array(WorldlinePair(pair.d_a, d_im, pair.z_a, z_im))


def image_separation(topology: Topology, pair: WorldlinePair, n: int) -> float:
    """Distance |x_A - J^n x_B| from the explicit isometry action."""
    return float(image_separation_array(topology, pair, n))


def cylinder_separation_formula(pair: WorldlinePair, ell: float, n: int) -> float:
    """Closed form L_n^2 = |d_A - d_B|^2 + (Delta z - n ell)^2 (cross-check)."""
    dx = pair.d_a[0] - pair.d_b[0]
    dy = pair.d_a[1] - pair.d_b[1]
    dz = pair.delta_z - n * ell
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def twisted_separation_formula(pair: WorldlinePair, ell: float, n: int) -> float:
    """Closed form with |d_A + d_B|^2 in place of |d_A - d_B|^2 for odd n (cross-check)."""
    flip = -1.0 if parity(n) else 1.0
    dx = pair.d_a[0] - flip * pair.d_b[0]
    dy = pair.d_a[1] - flip * pair.d_b[1]
    dz = pair.delta_z - n * ell
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def effective_ell_twisted(d_k: float, ell: float, n: int) -> float:
    """Effective scale ell_n with n^2 ell_n^2 = n^2 ell^2 + 4 d_k^2 P(n).

    This is the twisted-cylinder substitution for the single-detector image
    terms: detector k at transverse distance d_k from the rotation axis sees
    its own n-th image at separation |n| ell_n.
    """
    if n == 0:
        raise GeometryError("ell_n is undefined for n = 0")
    if ell <= 0.0:
        raise GeometryError(f"ell must be > 0, got {ell!r}")
    return math.sqrt(ell * ell + 4.0 * d_k * d_k * parity(n) / (n * n))


def worldlines_from_orientation(length: float, theta: float) -> WorldlinePair:
    """Detector A at the spatial origin, B at (L cos(theta), 0, L sin(theta)).

    theta = pi/2 aligns the pair with the identified z-direction.  Only
    meaningful for translation-invariant spacetimes (Minkowski, cylinder);
    for the twisted cylinder absolute positions matter and should be set
    directly on :class:`WorldlinePair`.
    """
    if not (math.isfinite(length) and length > 0.0):
        raise GeometryError(f"separation must be finite and > 0, got {length!r}")
    return WorldlinePair(
        d_a=(0.0, 0.0),
        d_b=(length * math.cos(theta), 0.0),
        z_a=0.0,
        z_b=length * math.sin(theta),
    )


def self_pair(d: Vec2, z: float = 0.0) -> WorldlinePair:
    """Degenerate pair of one worldline with itself (single-detector image sums)."""
    return WorldlinePair(d_a=d, d_b=d, z_a=z, z_b=z)
