"""Parameter sweeps, correlation difference maps, and verification runs.

All sweep inputs and outputs are expressed in units of the switching width
sigma (energy gaps as Omega*sigma, lengths as L/sigma), matching how the
physics depends only on those ratios.  Detector placement follows the
orientation convention

    x_A = (d_a, 0, 0),    x_B = (d_a + L cos(theta), 0, L sin(theta)),

so theta = 0 separates the detectors transverse to the identified direction
and theta = pi/2 along it; ``d_a`` offsets both detectors in the reflected
plane, which matters only for the twisted cylinder (not translation
invariant there).

Sweeps and difference maps evaluate each ell block of the grid in one
batched numpy pass in the calling process (:func:`udwpair.elements.elements_batch`,
:func:`udwpair.entanglement.xstate_measures_batch`); a point that fails
gets the error text of the scalar evaluation in its ``error`` column.  The
quadrature oracle (``verify`` and ``sweep --oracle``) evaluates each
distinct integral of a run once, with the scalar functions of
:mod:`udwpair.wightman`, and hands the value to every point that needs it.

Row order is fixed by the grid index (ell, omega, l, theta outermost to
innermost), and floats are written with 17 significant digits, so identical
configurations produce byte-identical output.  CSV is written in chunks of
``CSV_CHUNK_ROWS`` rows; within a chunk each column is converted to text in
one go, each distinct float formatted once.  Text fields that hold a comma,
a double quote, CR or LF are quoted as RFC 4180 says.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import wightman
from .elements import (
    DetectorParams,
    elements_batch,
    exchange_array,
    flag_coincident_image,
    new_errors,
    nonlocal_array,
)
from .entanglement import xstate_measures_batch
from .errors import ConfigError
from .geometry import (
    Topology,
    TopologyKind,
    WorldlinePair,
    image_separation_array,
    separation_array,
)
from .special import modulus

__all__ = [
    "GridAxis",
    "SweepConfig",
    "VerificationReport",
    "config_from_mapping",
    "parse_config_file",
    "parse_range",
    "run_sweep",
    "run_difference_map",
    "run_verification",
    "rows_to_csv",
    "rows_to_jsonl",
    "write_rows",
]

#: Environment variable naming the default output directory.
OUTPUT_DIR_ENV = "UDWPAIR_OUT_DIR"

VERIFY_TOLERANCE = 1e-6
_VERIFY_IMAGES = (1, -1, 2, -2)


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
        if self.start < self.stop and self.count < 2:
            raise ConfigError(
                f"{name}: a non-degenerate range needs at least 2 points"
            )

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.start])
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
    sigma: float = 1.0
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
        if self.l.start <= 0.0:
            raise ConfigError("separations must satisfy L > 0")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ConfigError(f"sigma must be > 0, got {self.sigma!r}")
        if not (math.isfinite(self.eps0) and self.eps0 > 0.0):
            raise ConfigError(f"eps0 must be > 0, got {self.eps0!r}")
        if self.nmax < 1:
            raise ConfigError(f"nmax must be >= 1, got {self.nmax!r}")
        if self.fmt not in ("csv", "jsonl"):
            raise ConfigError(f"format must be 'csv' or 'jsonl', got {self.fmt!r}")
        if not math.isfinite(self.d_a):
            raise ConfigError(f"d_a must be finite, got {self.d_a!r}")
        return self

    def topology_for(self, ell: float | None) -> Topology:
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


def _parse_bool(text: str, name: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{name}: expected a boolean, got {text!r}")


_TOPOLOGY_NAMES = {t.value: t for t in TopologyKind}


def config_from_mapping(mapping: dict[str, str]) -> SweepConfig:
    """Build a validated SweepConfig from flat string key/value pairs."""
    cfg = SweepConfig()
    updates: dict[str, object] = {}
    for key, raw in mapping.items():
        val = raw.strip()
        if key == "topology":
            if val not in _TOPOLOGY_NAMES:
                raise ConfigError(
                    f"topology must be one of {sorted(_TOPOLOGY_NAMES)}, got {val!r}"
                )
            updates["topology"] = _TOPOLOGY_NAMES[val]
        elif key == "ell":
            try:
                updates["ell"] = tuple(float(x) for x in val.split(",") if x.strip())
            except ValueError as exc:
                raise ConfigError(f"ell: {exc}") from exc
        elif key in ("omega", "l", "theta"):
            updates[key] = parse_range(val, key)
        elif key in ("eta", "nmax"):
            try:
                updates[key] = int(val)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        elif key in ("d_a", "sigma", "eps0"):
            try:
                updates[key] = float(val)
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        elif key == "oracle":
            updates["oracle"] = _parse_bool(val, key)
        elif key == "format":
            updates["fmt"] = val
        elif key == "out":
            updates["out"] = val
        else:
            raise ConfigError(f"unknown configuration key {key!r}")
    return replace(cfg, **updates).validate()


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` file with '#' comments."""
    mapping: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            mapping[key.strip()] = value.strip()
    return mapping


class _Block(NamedTuple):
    """One ell value of the grid: omega axis x (l, theta) points."""

    ell: float | None
    omega: np.ndarray  # Omega*sigma, shape (n_omega,)
    length: np.ndarray  # shape (n_l * n_theta,), l outer, theta inner
    theta: np.ndarray
    pair: WorldlinePair  # coordinates of shape (n_l * n_theta,)
    errors: np.ndarray  # shape (n_omega, n_l * n_theta)

    def gaps(self, config: SweepConfig) -> np.ndarray:
        """Physical gaps Omega as a column, broadcasting against the points."""
        return (self.omega / config.sigma)[:, None]

    def meta_columns(self, config: SweepConfig) -> dict[str, list]:
        n_om = self.omega.size
        n = self.errors.size

        def tiled(values: np.ndarray) -> list:
            return np.tile(values, n_om).tolist()

        return {
            "topology": [config.topology.value] * n,
            "eta": [config.eta] * n,
            "ell": [math.nan if self.ell is None else self.ell] * n,
            "sigma": [config.sigma] * n,
            "eps0": [config.eps0] * n,
            "nmax": [config.nmax] * n,
            "omega": np.repeat(self.omega, self.length.size).tolist(),
            "l": tiled(self.length),
            "theta": tiled(self.theta),
            "d_a": [config.d_a] * n,
            "d_b_x": tiled(self.pair.d_b[0]),
            "z_b": tiled(self.pair.z_b),
            "delta_z": tiled(self.pair.delta_z),
        }


def _blocks(config: SweepConfig) -> Iterator[_Block]:
    lengths = config.l.values()
    thetas = config.theta.values()
    # math, not numpy, trigonometry: the coordinates of the scalar
    # worldlines_from_orientation
    cos = np.array([math.cos(t) for t in thetas])
    sin = np.array([math.sin(t) for t in thetas])
    length = np.repeat(lengths, thetas.size)
    pair = WorldlinePair(
        d_a=(config.d_a, 0.0),
        d_b=(config.d_a + length * np.tile(cos, lengths.size), 0.0),
        z_a=0.0,
        z_b=length * np.tile(sin, lengths.size),
    )
    theta = np.tile(thetas, lengths.size)
    omega = config.omega.values()
    for ell in config.ell_values():
        yield _Block(ell, omega, length, theta, pair, new_errors((omega.size, length.size)))


def _error_text(errors: np.ndarray) -> list[str]:
    return ["" if exc is None else f"{type(exc).__name__}: {exc}" for exc in errors.reshape(-1)]


def _tabulate(config: SweepConfig, evaluate) -> list[dict[str, object]]:
    """Rows of every block, grid order: meta columns, the value columns that
    ``evaluate(block) -> (values, error text)`` returns, then ``error``.

    A failed point gets NaN in its float columns and False in its boolean
    ones.
    """
    columns: dict[str, list] = {}
    for block in _blocks(config):
        values, error = evaluate(block)
        failed = np.array([bool(text) for text in error]).reshape(block.errors.shape)
        for key, col in block.meta_columns(config).items():
            columns.setdefault(key, []).extend(col)
        for key, val in values.items():
            col = np.array(np.broadcast_to(val, failed.shape))
            if col.dtype == bool:
                col &= ~failed
            else:
                col = col.astype(float)
                col[failed] = math.nan
            columns.setdefault(key, []).extend(col.reshape(-1).tolist())
        columns.setdefault("error", []).extend(error)
    keys = list(columns)
    return [dict(zip(keys, vals)) for vals in zip(*columns.values())]


class _Oracle:
    """The quadrature oracle of one run.

    Each distinct integral is evaluated once, with the scalar functions of
    :mod:`udwpair.wightman`, and its value, or the exception it raised, goes
    to every point that needs it: ``oracle_a`` depends on the gap only, the
    quadrature of ``oracle_x`` on the separation only (the gap enters
    through the exact factor ``oracle_x_envelope``), ``oracle_c`` on both.
    A point that already has an error needs no integral; a point whose
    integral raised gets that exception in ``errors``.
    """

    def __init__(self, config: SweepConfig):
        self.sigma = config.sigma
        self.eps0 = config.eps0
        # argument tuple -> value or exception, one dict per integral
        self._a: dict = {}
        self._x: dict = {}
        self._c: dict = {}
        #: integrals the points asked for; ``quadratures`` of them were evaluated
        self.evaluations = 0

    @property
    def quadratures(self) -> int:
        return len(self._a) + len(self._x) + len(self._c)

    def _params(self, omega: float) -> DetectorParams:
        return DetectorParams(omega=omega, sigma=self.sigma, eps0=self.eps0)

    def _lookup(self, memo: dict, errors: np.ndarray, integral, *args) -> np.ndarray:
        """``integral(*args of the point)`` at the points of ``errors``
        without an error, from ``memo`` where it holds the arguments; NaN at
        the other points, and the exception where the integral raised."""
        flat = errors.reshape(-1)
        out = np.full(flat.size, math.nan, dtype=complex)
        keys = zip(*(np.broadcast_to(v, errors.shape).reshape(-1).tolist() for v in args))
        for i, key in enumerate(keys):
            if flat[i] is not None:
                continue
            self.evaluations += 1
            if key not in memo:
                try:
                    memo[key] = integral(*key)
                except Exception as exc:
                    memo[key] = exc
            value = memo[key]
            if isinstance(value, Exception):
                flat[i] = value
            else:
                out[i] = value
        return out.reshape(errors.shape)

    def dev_a(self, errors: np.ndarray, omega, a) -> np.ndarray:
        """|a - oracle_a| at the gaps ``omega``."""
        oracle = self._lookup(
            self._a, errors, lambda om: wightman.oracle_a(self._params(om)), omega
        )
        return np.abs(a - oracle.real)

    def dev_xc(self, errors: np.ndarray, omega, r, x, c) -> tuple[np.ndarray, np.ndarray]:
        """|x - oracle_x| and |c - oracle_c| at the gaps ``omega`` (a column)
        and separations ``r``, the x integral of a point first."""
        quad = self._lookup(
            self._x, errors,
            lambda l: wightman.oracle_x_time_integral(self.sigma, l), r,
        )
        envelope = np.array(
            [wightman.oracle_x_envelope(self._params(om)) for om in omega.ravel().tolist()]
        ).reshape(omega.shape)
        oracle_c = self._lookup(
            self._c, errors,
            lambda om, l: wightman.oracle_c(self._params(om), l), omega, r,
        )
        return modulus(x - envelope * quad), modulus(c - oracle_c)


def _minkowski_deviations(
    config: SweepConfig, block: _Block, oracle: _Oracle, mink
) -> list[np.ndarray]:
    """|closed form - oracle| of the Minkowski a, x and c of the block."""
    gaps = block.gaps(config)
    dev_a = oracle.dev_a(block.errors, gaps, mink.a)
    dev_x, dev_c = oracle.dev_xc(
        block.errors, gaps, separation_array(block.pair), mink.x, mink.c
    )
    return [dev_a, dev_x, dev_c]


def _minkowski_elements(config: SweepConfig, block: _Block):
    return elements_batch(
        block.gaps(config), config.sigma, block.pair, Topology.minkowski(),
        config.nmax, block.errors,
    )


def run_sweep(config: SweepConfig) -> list[dict[str, object]]:
    """Evaluate all matrix elements and measures on the configured grid."""
    config = config.validate()
    oracle = _Oracle(config)

    def evaluate(block: _Block):
        state = elements_batch(
            block.gaps(config), config.sigma, block.pair,
            config.topology_for(block.ell), config.nmax, block.errors,
        )
        m = xstate_measures_batch(state, config.eps0, block.errors)
        values = {
            "a": state.a,
            "b": state.b,
            "x_re": state.x.real,
            "x_im": state.x.imag,
            "x_abs": modulus(state.x),
            "c_re": state.c,
            "c_im": 0.0,
            "c_abs": np.abs(state.c),
            "e": state.e,
            "tail_bound": state.tail_bound,
            "concurrence_leading": m.concurrence_leading,
            "negativity": m.negativity,
            "concurrence": m.concurrence,
            "eof": m.eof,
            "eof_perturbative": m.eof_perturbative,
            "corr": m.corr,
            "harvested": m.harvested,
        }
        if config.oracle:
            devs = _minkowski_deviations(
                config, block, oracle, _minkowski_elements(config, block)
            )
            values.update(zip(("oracle_dev_a", "oracle_dev_x", "oracle_dev_c"), devs))
        return values, _error_text(block.errors)

    return _tabulate(config, evaluate)


def run_difference_map(config: SweepConfig) -> list[dict[str, object]]:
    """Correlation difference corr_M - corr_topology on the configured grid."""
    config = config.validate()
    if config.topology is TopologyKind.MINKOWSKI:
        raise ConfigError("difference maps need a non-Minkowski topology")

    def evaluate(block: _Block):
        gaps = block.gaps(config)
        # the scalar order: both element sets, then the measures of each
        top = elements_batch(
            gaps, config.sigma, block.pair, config.topology_for(block.ell),
            config.nmax, block.errors,
        )
        mink = elements_batch(
            gaps, config.sigma, block.pair, Topology.minkowski(), config.nmax,
            block.errors,
        )
        corr_top = xstate_measures_batch(top, config.eps0, block.errors).corr
        corr_mink = xstate_measures_batch(mink, config.eps0, block.errors).corr
        values = {
            "corr_minkowski": corr_mink,
            "corr_topology": corr_top,
            "corr_diff": corr_mink - corr_top,
        }
        return values, _error_text(block.errors)

    return _tabulate(config, evaluate)


class VerificationReport(NamedTuple):
    rows: list[dict[str, object]]
    passed: bool
    max_deviation: float
    tolerance: float
    #: distinct oracle integrals evaluated, and the evaluations they served
    quadratures: int
    evaluations: int


def run_verification(config: SweepConfig) -> VerificationReport:
    """Compare every closed form against the distributional quadrature oracle.

    Each point checks the Minkowski a, x and c at its separation and, on a
    quotient, x and c at the images n = 1, -1, 2, -2 (``dev_image``, the
    largest of those deviations).  A point whose detector B sits on one of
    these images of A fails before any quadrature.
    """
    config = config.validate()
    oracle = _Oracle(config)

    def evaluate(block: _Block):
        gaps = block.gaps(config)
        mink = _minkowski_elements(config, block)
        images = []
        if config.topology is not TopologyKind.MINKOWSKI:
            topology = config.topology_for(block.ell)
            for n in _VERIFY_IMAGES:
                l_n = image_separation_array(topology, block.pair, n)
                flag_coincident_image(block.errors, topology, block.pair, n, l_n)
                images.append(
                    (l_n, nonlocal_array(config.sigma, gaps, l_n),
                     exchange_array(config.sigma, gaps, l_n))
                )
        dev_a, dev_x, dev_c = _minkowski_deviations(config, block, oracle, mink)
        dev_image = np.zeros(block.errors.shape)
        for l_n, x_n, c_n in images:
            dev_image = np.maximum(
                dev_image, np.maximum(*oracle.dev_xc(block.errors, gaps, l_n, x_n, c_n))
            )
        max_dev = np.maximum.reduce([dev_a, dev_x, dev_c, dev_image])
        values = {
            "dev_a": dev_a,
            "dev_x": dev_x,
            "dev_c": dev_c,
            "dev_image": dev_image,
            "max_dev": max_dev,
            "passed": max_dev < VERIFY_TOLERANCE,
        }
        return values, _error_text(block.errors)

    rows = _tabulate(config, evaluate)
    finite = [r["max_dev"] for r in rows if not math.isnan(r["max_dev"])]
    max_dev = max(finite) if finite else math.nan
    passed = all(r["passed"] for r in rows)
    return VerificationReport(
        rows, passed, max_dev, VERIFY_TOLERANCE, oracle.quadratures, oracle.evaluations
    )


#: Rows per chunk of CSV text: ``write_rows`` writes one chunk at a time.
CSV_CHUNK_ROWS = 1024

_BOOL_TEXT = {True: "true", False: "false"}
_CSV_SPECIAL = (",", '"', "\r", "\n")


def _quoted(text: str) -> str:
    """``text`` as one CSV field: in double quotes, inner quotes doubled,
    when it holds a comma, a quote, CR or LF (RFC 4180); else unchanged."""
    if any(ch in text for ch in _CSV_SPECIAL):
        return '"' + text.replace('"', '""') + '"'
    return text


def _float_text(values: list) -> list[str]:
    """``%.17g`` of each float, formatted once per distinct bit pattern (so
    ``-0.0`` and ``0.0`` keep their own texts)."""
    bits = np.array(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(
        list(map("%.17g".__mod__, distinct.view(np.float64).tolist())), dtype=object
    )
    return texts[inverse].tolist()


def _column_text(values: list) -> list[str]:
    """CSV text of one column: floats with 17 significant digits, bools as
    ``true``/``false``, anything else as ``str``, quoted where needed."""
    kinds = set(map(type, values))
    if len(kinds) > 1:
        # a column that mixes types converts the cells of each type on their own
        out = [""] * len(values)
        for kind in kinds:
            index = [i for i, v in enumerate(values) if type(v) is kind]
            for i, text in zip(index, _column_text([values[i] for i in index])):
                out[i] = text
        return out
    (kind,) = kinds
    if issubclass(kind, float):
        return _float_text(values)
    if kind is bool:
        return list(map(_BOOL_TEXT.__getitem__, values))
    texts = list(map(str, values))
    quoted = {text: _quoted(text) for text in set(texts)}
    return list(map(quoted.__getitem__, texts))


def _csv_chunks(rows: Iterable[dict[str, object]]) -> Iterator[str]:
    """The CSV text of ``rows``: the header line, then one string per
    ``CSV_CHUNK_ROWS`` rows, each column of a chunk converted in one go."""
    rows = iter(rows)
    chunk = list(islice(rows, CSV_CHUNK_ROWS))
    if not chunk:
        return
    header = list(chunk[0])
    yield ",".join(map(_quoted, header)) + "\n"
    while chunk:
        columns = [_column_text(list(map(itemgetter(key), chunk))) for key in header]
        yield "\n".join(map(",".join, zip(*columns))) + "\n"
        chunk = list(islice(rows, CSV_CHUNK_ROWS))


def rows_to_csv(rows: Iterable[dict[str, object]]) -> str:
    return "".join(_csv_chunks(rows))


def rows_to_jsonl(rows: Iterable[dict[str, object]]) -> str:
    import json

    out = []
    for row in rows:
        clean = {
            k: (None if isinstance(v, float) and math.isnan(v) else v)
            for k, v in row.items()
        }
        out.append(json.dumps(clean, allow_nan=False))
    return "\n".join(out) + ("\n" if out else "")


def write_rows(rows: list[dict[str, object]], fmt: str, stream) -> None:
    if fmt == "csv":
        for chunk in _csv_chunks(rows):
            stream.write(chunk)
    elif fmt == "jsonl":
        stream.write(rows_to_jsonl(rows))
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
