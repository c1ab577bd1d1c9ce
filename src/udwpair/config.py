"""Sweep configuration: the grid axes, the topology kind, and the flat
``key = value`` keys that the CLI flags and ``--config`` files share.

Everything a run needs to be reproduced is a :class:`SweepConfig`, built
and validated by :func:`config_from_mapping` from the text of each key, so
a value that does not parse or lies out of range is a
:class:`~udwpair.errors.ConfigError` that names its key.

This module imports no numpy, so ``udwpair --help``, ``show-config`` and a
configuration error start without it: :meth:`GridAxis.values` imports
numpy and :meth:`SweepConfig.topology_for` imports :mod:`udwpair.geometry`
when they are called, which only the evaluating commands do.  The sweeps,
tables and writers are in :mod:`udwpair.sweep`.

Besides each key's own range, :meth:`SweepConfig.validate` keeps detector
B within the float range (``|d_a| + L`` finite).  The evaluating runs of
:mod:`udwpair.sweep` check the images they sum on the grid's coordinates.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING

from .errors import ConfigError

if TYPE_CHECKING:
    import numpy as np

    from .geometry import Topology

__all__ = [
    "GRID_POINT_LIMIT",
    "NMAX_LIMIT",
    "OUTPUT_DIR_ENV",
    "GridAxis",
    "SweepConfig",
    "TopologyKind",
    "config_from_mapping",
    "parse_config_file",
    "parse_range",
]

#: Environment variable naming the default output directory.
OUTPUT_DIR_ENV = "UDWPAIR_OUT_DIR"

#: Largest image-sum truncation a sweep accepts.  The image sums run over
#: a list of the 2 nmax image numbers, about 70 MB at this bound; a larger
#: nmax is a ConfigError before anything is allocated.
NMAX_LIMIT = 10**6

#: Largest grid a run accepts, in points (omega x l x theta x ell values):
#: a 1024 x 1024 grid.  A larger grid, which would take hours or fail to
#: allocate its axes, is a ConfigError before anything is allocated.
GRID_POINT_LIMIT = 1 << 20


class TopologyKind(enum.Enum):
    MINKOWSKI = "minkowski"
    CYLINDER = "cylinder"
    TWISTED_CYLINDER = "twisted"


@dataclass(frozen=True)
class GridAxis:
    """Inclusive linear axis start..stop with ``count`` points."""

    start: float
    stop: float
    count: int

    def validate(self, name: str) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError(f"{name}: bounds must be finite")
        if self.count < 1:
            raise ConfigError(f"{name}: empty axis (count = {self.count})")
        if self.start > self.stop:
            raise ConfigError(f"{name}: start {self.start!r} > stop {self.stop!r}")
        if not math.isfinite(self.stop - self.start):
            # the grid would step by inf and start at NaN
            raise ConfigError(
                f"{name}: stop - start overflows from {self.start!r} to {self.stop!r}"
            )
        if self.start < self.stop and self.count < 2:
            raise ConfigError(
                f"{name}: a non-degenerate range needs at least 2 points"
            )

    def values(self) -> np.ndarray:
        import numpy as np

        # near the float range, start + (count - 1) * step may overflow on
        # the way to the last value, which linspace then sets to stop
        with np.errstate(over="ignore"):
            return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepConfig:
    """Everything needed to reproduce a sweep deterministically."""

    topology: TopologyKind = TopologyKind.MINKOWSKI
    ell: tuple[float, ...] = ()
    eta: int = 1
    omega: GridAxis = GridAxis(-3.0, 3.0, 64)
    l: GridAxis = GridAxis(10.0 / 64.0, 10.0, 64)
    theta: GridAxis = GridAxis(0.0, 0.0, 1)
    d_a: float = 0.0
    eps0: float = 0.01
    nmax: int = 10
    oracle: bool = False
    fmt: str = "csv"
    out: str | None = None

    def validate(self) -> "SweepConfig":
        if self.topology is TopologyKind.MINKOWSKI:
            if self.ell:
                raise ConfigError("Minkowski sweeps take no ell values")
        else:
            if not self.ell:
                raise ConfigError(f"{self.topology.value} sweeps need ell values")
            if any(e <= 0 or not math.isfinite(e) for e in self.ell):
                raise ConfigError(f"ell values must be finite and > 0: {self.ell}")
        if self.eta not in (1, -1):
            raise ConfigError(f"eta must be +1 or -1, got {self.eta!r}")
        self.omega.validate("omega")
        self.l.validate("l")
        self.theta.validate("theta")
        points = self.omega.count * self.l.count * self.theta.count * len(self.ell_values())
        if points > GRID_POINT_LIMIT:
            raise ConfigError(
                f"the grid has {points} points (omega x l x theta x ell), more than "
                f"the {GRID_POINT_LIMIT} a run takes"
            )
        if self.l.start <= 0.0:
            raise ConfigError("separations must satisfy L > 0")
        if not (math.isfinite(self.eps0) and self.eps0 > 0.0):
            raise ConfigError(f"eps0 must be > 0, got {self.eps0!r}")
        if self.nmax < 1:
            raise ConfigError(f"nmax must be >= 1, got {self.nmax!r}")
        if self.nmax > NMAX_LIMIT:
            raise ConfigError(f"nmax must be <= {NMAX_LIMIT}, got {self.nmax!r}")
        if self.fmt not in ("csv", "jsonl"):
            raise ConfigError(f"format must be 'csv' or 'jsonl', got {self.fmt!r}")
        if not math.isfinite(self.d_a):
            raise ConfigError(f"d_a must be finite, got {self.d_a!r}")
        if not math.isfinite(abs(self.d_a) + self.l.stop):
            # detector B sits at d_a + L cos(theta), a column of every row
            raise ConfigError(
                f"|d_a| + L must be finite: d_a = {self.d_a!r} and L up to {self.l.stop!r} "
                "place detector B beyond the float range"
            )
        return self

    def topology_for(self, ell: float | None) -> Topology:
        from .geometry import Topology

        if self.topology is TopologyKind.MINKOWSKI:
            return Topology.minkowski()
        return Topology(self.topology, ell, self.eta)

    def ell_values(self) -> tuple[float | None, ...]:
        if self.topology is TopologyKind.MINKOWSKI:
            return (None,)
        return self.ell


def parse_range(text: str, name: str) -> GridAxis:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name}: expected 'start:stop:count', got {text!r}")
    try:
        return GridAxis(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes", "on"):
        return True
    if text.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_topology(text: str) -> TopologyKind:
    names = {t.value: t for t in TopologyKind}
    if text not in names:
        raise ConfigError(f"topology must be one of {sorted(names)}, got {text!r}")
    return names[text]


#: configuration key -> parser of its text (stripped); the SweepConfig
#: field is the key, except ``fmt`` for ``format``
_PARSERS = {
    "topology": _parse_topology,
    "ell": lambda text: tuple(float(x) for x in text.split(",") if x.strip()),
    "eta": int,
    **{axis: partial(parse_range, name=axis) for axis in ("omega", "l", "theta")},
    "d_a": float,
    "eps0": float,
    "nmax": int,
    "oracle": _parse_bool,
    "format": str,
    "out": lambda text: text or None,
}


def config_from_mapping(mapping: dict[str, str]) -> SweepConfig:
    """Build a validated SweepConfig from flat string key/value pairs; a
    value that does not parse is a ConfigError that names its key."""
    updates: dict[str, object] = {}
    for key, raw in mapping.items():
        if key not in _PARSERS:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            updates["fmt" if key == "format" else key] = _PARSERS[key](raw.strip())
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return replace(SweepConfig(), **updates).validate()


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` UTF-8 file with '#' comments; lines end
    at LF, CRLF or CR."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}: not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start} ({exc.reason})"
        ) from None
    mapping: dict[str, str] = {}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping
