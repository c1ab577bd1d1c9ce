"""Spacetime topologies, static worldlines, and image separations.

Besides Minkowski space, two locally flat quotients are supported, each
generated by a discrete isometry acting on the spatial section:

* cylinder:          J0 : (x, y, z) -> (x, y, z + ell)
* twisted cylinder:  J- : (x, y, z) -> (-x, -y, z + ell)

A scalar field on the quotient picks up the weight eta^n on the n-th image
(eta = +1 for an ordinary field, eta = -1 for a twisted field).

The isometries sort the images J^n x_B of detector B into two parity
classes, which :func:`image_classes` returns: even n carry weight 1 and lie
at transverse offset d_A - d_B from detector A; odd n carry weight eta and
lie at d_A - d_B on the cylinder, but across the axis at d_A + d_B on the
twisted cylinder.  So image n lies at

    |x_A - J^n x_B|^2 = |d_A -+ d_B|^2 + (z_A - (z_B + n ell))^2,

a sum of squares, so that nothing cancels when the distance is much
smaller than n ell.  This is the only place that knows how J acts.

The worldline coordinates of a :class:`WorldlinePair` may be floats or
numpy arrays of broadcast-compatible shapes; :func:`separation_array` and
:func:`image_separation_array` then return one distance per element.
:func:`image_separation_array` also takes an array of image numbers n, so
one call gives the separations of many images at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import TopologyKind
from .errors import GeometryError

__all__ = [
    "Topology",
    "WorldlinePair",
    "ImageClass",
    "separation_array",
    "image_classes",
    "image_separation_array",
    "self_pair",
]

Vec2 = tuple[float, float]

_TINY = np.finfo(float).tiny


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


class ImageClass(NamedTuple):
    """The images J^n x_B of one parity of n: the field's weight on them and
    their transverse offset (dx, dy) from detector A."""

    weight: int
    dx: float | np.ndarray
    dy: float | np.ndarray


def image_classes(topology: Topology, pair: WorldlinePair) -> tuple[ImageClass, ImageClass]:
    """The (even n, odd n) image classes of detector B.

    Even images carry weight 1 and sit at d_A - d_B.  Odd images carry
    weight eta; on the cylinder they sit at d_A - d_B too, on the twisted
    cylinder across the axis, at d_A + d_B.
    """
    if topology.kind is TopologyKind.MINKOWSKI:
        raise GeometryError("Minkowski space has no identification isometry")
    (xa, ya), (xb, yb) = pair.d_a, pair.d_b
    even = ImageClass(1, xa - xb, ya - yb)
    if topology.kind is TopologyKind.CYLINDER:
        return even, ImageClass(topology.eta, even.dx, even.dy)
    return even, ImageClass(topology.eta, xa + xb, ya + yb)


def image_separation_array(topology: Topology, pair: WorldlinePair, n):
    """Distances |x_A - J^n x_B| for array-valued worldline coordinates:
    image n lies in class n mod 2, shifted by n ell along z.

    ``n`` is an integer or an integer array that broadcasts against the
    coordinates like one more coordinate: n of shape (K, 1, ..., 1) stacks
    K images on a leading axis, each in the class of its own parity.
    """
    even, odd = image_classes(topology, pair)
    n = np.asarray(n)
    is_odd = n % 2 == 1
    with np.errstate(over="ignore"):  # a shift beyond the float range is inf
        dz = pair.z_a - (pair.z_b + n * topology.ell)
    return _distance(np.where(is_odd, odd.dx, even.dx), np.where(is_odd, odd.dy, even.dy), dz)


def self_pair(d: Vec2, z: float = 0.0) -> WorldlinePair:
    """Degenerate pair of one worldline with itself (single-detector image sums)."""
    return WorldlinePair(d_a=d, d_b=d, z_a=z, z_b=z)
