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
gets in ``error`` the text that ``elements_for``/``xstate_measures`` raise.  The
quadrature oracle (``verify`` and ``sweep --oracle``) evaluates each
distinct integral of a run once and hands the value to every point that
needs it; the integrals one lookup lacks are evaluated in one batch call
(:func:`udwpair.wightman.oracle_c_batch`, for instance).

Results are a :class:`Table` of numpy columns, rows in grid order (ell,
omega, l, theta outermost to innermost).  The writers convert each column
of ``CSV_CHUNK_ROWS`` rows to text in one go, by dtype, each distinct value
once: CSV floats with 17 significant digits (so identical configurations
give identical bytes) and text quoted as RFC 4180 says where it holds a
comma, a double quote, CR or LF; JSONL as ``json.dumps`` of each row.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterator, NamedTuple

import numpy as np

from . import wightman
from .elements import elements_batch, image_terms, modulus, new_errors
from .entanglement import xstate_measures_batch
from .errors import ConfigError
from .geometry import (
    Topology,
    TopologyKind,
    WorldlinePair,
    separation_array,
)

__all__ = [
    "GridAxis",
    "SweepConfig",
    "Table",
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

#: The switching width of every sweep, written to the ``sigma`` column:
#: inputs and outputs are in units of sigma, the units of the kernels.
SIGMA = 1.0

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
        if self.l.start <= 0.0:
            raise ConfigError("separations must satisfy L > 0")
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


#: Rows per chunk that the writers write and the row view converts at once
CSV_CHUNK_ROWS = 1024


@dataclass(frozen=True, eq=False)
class Table:
    """Result columns in grid order: ``columns`` maps each column name to a
    1-D numpy array, all of one length (``error`` holds text).

    It reads as a sequence of rows too: ``len``, integer indexing and
    iteration give each row as a dict of Python values.
    """

    columns: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __getitem__(self, index: int) -> dict[str, object]:
        i = range(len(self))[index]
        return {key: col.item(i) for key, col in self.columns.items()}

    def __iter__(self) -> Iterator[dict[str, object]]:
        keys = list(self.columns)
        for chunk in self.chunks():
            for values in zip(*(col.tolist() for col in chunk)):
                yield dict(zip(keys, values))

    def chunks(self) -> Iterator[list[np.ndarray]]:
        """The columns in slices of ``CSV_CHUNK_ROWS`` rows."""
        for start in range(0, len(self), CSV_CHUNK_ROWS):
            yield [col[start:start + CSV_CHUNK_ROWS] for col in self.columns.values()]


class _Block(NamedTuple):
    """One ell value of the grid: omega axis x (l, theta) points."""

    ell: float | None
    omega: np.ndarray  # Omega*sigma, shape (n_omega,)
    length: np.ndarray  # shape (n_l * n_theta,), l outer, theta inner
    theta: np.ndarray
    pair: WorldlinePair  # coordinates of shape (n_l * n_theta,)
    errors: np.ndarray  # shape (n_omega, n_l * n_theta)

    def gaps(self) -> np.ndarray:
        """The gaps as a column, broadcasting against the points."""
        return self.omega[:, None]

    def meta_columns(self, config: SweepConfig) -> dict[str, np.ndarray]:
        n_om = self.omega.size
        n = self.errors.size
        return {
            "topology": np.full(n, config.topology.value, dtype=object),
            "eta": np.full(n, config.eta),
            "ell": np.full(n, math.nan if self.ell is None else self.ell, dtype=float),
            "sigma": np.full(n, SIGMA, dtype=float),
            "eps0": np.full(n, config.eps0, dtype=float),
            "nmax": np.full(n, config.nmax),
            "omega": np.repeat(self.omega, self.length.size),
            "l": np.tile(self.length, n_om),
            "theta": np.tile(self.theta, n_om),
            "d_a": np.full(n, config.d_a, dtype=float),
            "d_b_x": np.tile(self.pair.d_b[0], n_om),
            "z_b": np.tile(self.pair.z_b, n_om),
            "delta_z": np.tile(self.pair.delta_z, n_om),
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


def _tabulate(config: SweepConfig, evaluate) -> Table:
    """The table of every block, grid order: meta columns, the value columns
    that ``evaluate(block)`` returns, then ``error``, the text of the
    exception that a point recorded in ``block.errors`` ("" for none).

    A failed point gets NaN in its float columns and False in its boolean
    ones.
    """
    parts: dict[str, list[np.ndarray]] = {}
    for block in _blocks(config):
        values = evaluate(block)
        errors = block.errors.reshape(-1)
        failed = np.not_equal(errors, None)
        ok = ~failed.reshape(block.errors.shape)
        columns = block.meta_columns(config)
        for key, val in values.items():
            col = val & ok if np.asarray(val).dtype == bool else np.where(ok, val, math.nan)
            columns[key] = col.reshape(-1)
        columns["error"] = np.full(errors.size, "", dtype=object)
        columns["error"][failed] = [f"{type(exc).__name__}: {exc}" for exc in errors[failed]]
        for key, col in columns.items():
            parts.setdefault(key, []).append(col)
    return Table({key: np.concatenate(cols) for key, cols in parts.items()})


def _per_row(batch, *args) -> list:
    """Per row, the value or the exception of ``batch(*args)``, which
    returns values and per-row errors; every row gets the exception of a
    call that raises."""
    try:
        values, errors = batch(*args)
    except Exception as exc:
        return [exc] * len(args[0])
    return [v if e is None else e for v, e in zip(values.tolist(), errors)]


def _deviation(closed, oracle) -> np.ndarray:
    """|closed - oracle| / max(1, |closed|): absolute where the closed form
    is at most 1, relative where it is larger (x at tiny separations)."""
    return modulus(closed - oracle) / np.maximum(1.0, modulus(closed))


class _Oracle:
    """The quadrature oracle of one run.

    Each distinct integral is evaluated once and its value, or the
    exception it raised, goes to every point that needs it: the self term
    ``oracle_a`` depends on the gap only, the quadrature of ``oracle_x`` on
    the separation only (the gap enters through the exact factor
    ``oracle_x_envelope``), ``oracle_c`` on both.  The keys a lookup lacks
    are integrated in one call of the batch function of their kind:
    :func:`udwpair.wightman.oracle_a_batch`,
    :func:`udwpair.wightman.oracle_x_time_integral_batch` or
    :func:`udwpair.wightman.oracle_c_batch`.  A point that already has an
    error needs no integral; a point whose integral raised gets that
    exception in ``errors``.
    """

    def __init__(self):
        # argument tuple -> value or exception, one dict per integral
        self._a: dict = {}
        self._x: dict = {}
        self._c: dict = {}
        #: integrals the points asked for; ``quadratures`` of them were evaluated
        self.evaluations = 0

    @property
    def quadratures(self) -> int:
        return len(self._a) + len(self._x) + len(self._c)

    def _lookup(self, memo: dict, errors: np.ndarray, batch, *args) -> np.ndarray:
        """The integral at the arguments ``args`` (broadcast against
        ``errors``) of each point without an error; NaN at the other points,
        and the exception where the integral raised.  The distinct argument
        tuples that ``memo`` lacks are integrated in one call
        ``batch(*columns)``."""
        flat = errors.reshape(-1)
        out = np.full(flat.size, math.nan, dtype=complex)
        todo = np.flatnonzero(np.equal(flat, None))
        self.evaluations += todo.size
        points = np.stack(
            [np.broadcast_to(v, errors.shape).reshape(-1)[todo] for v in args], axis=1
        )
        # keys as first seen: a gap of -0.0 and one of 0.0 are one integral
        _, first, inverse = np.unique(points, axis=0, return_index=True, return_inverse=True)
        keys = [tuple(key) for key in points[first].tolist()]
        missing = [key for key in keys if key not in memo]
        if missing:
            memo.update(zip(missing, _per_row(batch, *map(list, zip(*missing)))))
        found = [memo[key] for key in keys]
        failed = [isinstance(v, Exception) for v in found]
        out[todo] = np.array(
            [math.nan if bad else v for v, bad in zip(found, failed)], dtype=complex
        )[inverse]
        for j in np.flatnonzero(failed):
            flat[todo[inverse == j]] = found[j]
        return out.reshape(errors.shape)

    def dev_a(self, errors: np.ndarray, omega, a) -> np.ndarray:
        """|a - oracle_a| / max(1, |a|) at the gaps ``omega``."""
        oracle = self._lookup(self._a, errors, wightman.oracle_a_batch, omega)
        return _deviation(a, oracle.real)

    def dev_xc(self, errors: np.ndarray, omega, r, x, c) -> tuple[np.ndarray, np.ndarray]:
        """|x - oracle_x| / max(1, |x|) and |c - oracle_c| / max(1, |c|) at
        the gaps ``omega`` (a column) and separations ``r``, the x integral
        of a point first."""
        quad = self._lookup(self._x, errors, wightman.oracle_x_time_integral_batch, r)
        envelope = np.array(
            [wightman.oracle_x_envelope(om) for om in omega.ravel().tolist()]
        ).reshape(omega.shape)
        oracle_c = self._lookup(self._c, errors, wightman.oracle_c_batch, omega, r)
        return _deviation(x, envelope * quad), _deviation(c, oracle_c)


def _minkowski_deviations(block: _Block, oracle: _Oracle, mink) -> list[np.ndarray]:
    """|closed form - oracle| of the Minkowski a, x and c of the block."""
    gaps = block.gaps()
    dev_a = oracle.dev_a(block.errors, gaps, mink.a)
    dev_x, dev_c = oracle.dev_xc(
        block.errors, gaps, separation_array(block.pair), mink.x, mink.c
    )
    return [dev_a, dev_x, dev_c]


def _minkowski_elements(config: SweepConfig, block: _Block):
    return elements_batch(
        block.gaps(), block.pair, Topology.minkowski(), config.nmax, block.errors
    )


def run_sweep(config: SweepConfig) -> Table:
    """Evaluate all matrix elements and measures on the configured grid."""
    config = config.validate()
    oracle = _Oracle()

    def evaluate(block: _Block):
        state = elements_batch(
            block.gaps(), block.pair, config.topology_for(block.ell), config.nmax, block.errors
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
            devs = _minkowski_deviations(block, oracle, _minkowski_elements(config, block))
            values.update(zip(("oracle_dev_a", "oracle_dev_x", "oracle_dev_c"), devs))
        return values

    return _tabulate(config, evaluate)


def run_difference_map(config: SweepConfig) -> Table:
    """Correlation difference corr_M - corr_topology on the configured grid."""
    config = config.validate()
    if config.topology is TopologyKind.MINKOWSKI:
        raise ConfigError("difference maps need a non-Minkowski topology")

    def evaluate(block: _Block):
        gaps = block.gaps()
        # one-point call order: both element sets, then the measures of each
        top = elements_batch(
            gaps, block.pair, config.topology_for(block.ell), config.nmax, block.errors
        )
        mink = elements_batch(gaps, block.pair, Topology.minkowski(), config.nmax, block.errors)
        corr_top = xstate_measures_batch(top, config.eps0, block.errors).corr
        corr_mink = xstate_measures_batch(mink, config.eps0, block.errors).corr
        return {
            "corr_minkowski": corr_mink,
            "corr_topology": corr_top,
            "corr_diff": corr_mink - corr_top,
        }

    return _tabulate(config, evaluate)


class VerificationReport(NamedTuple):
    rows: Table
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
    largest of those deviations).  Each deviation is |closed form - oracle|
    / max(1, |closed form|) and must stay below ``VERIFY_TOLERANCE``.  A
    point whose detector B sits on one of these images of A fails before
    any quadrature.
    """
    config = config.validate()
    oracle = _Oracle()

    def evaluate(block: _Block):
        gaps = block.gaps()
        mink = _minkowski_elements(config, block)
        images = ()
        if config.topology is not TopologyKind.MINKOWSKI:
            topology = config.topology_for(block.ell)
            images = image_terms(gaps, block.pair, topology, _VERIFY_IMAGES, block.errors)
        dev_a, dev_x, dev_c = _minkowski_deviations(block, oracle, mink)
        dev_image = np.zeros(block.errors.shape)
        for l_n, x_n, c_n in zip(*images):
            dev_image = np.maximum(
                dev_image, np.maximum(*oracle.dev_xc(block.errors, gaps, l_n, x_n, c_n))
            )
        max_dev = np.maximum.reduce([dev_a, dev_x, dev_c, dev_image])
        return {
            "dev_a": dev_a,
            "dev_x": dev_x,
            "dev_c": dev_c,
            "dev_image": dev_image,
            "max_dev": max_dev,
            "passed": max_dev < VERIFY_TOLERANCE,
        }

    rows = _tabulate(config, evaluate)
    max_dev = float(np.fmax.reduce(rows.columns["max_dev"]))  # NaN only if all are
    passed = bool(rows.columns["passed"].all())
    return VerificationReport(
        rows, passed, max_dev, VERIFY_TOLERANCE, oracle.quadratures, oracle.evaluations
    )


def _quoted(text: str) -> str:
    """``text`` as one CSV field: in double quotes, inner quotes doubled,
    when it holds a comma, a quote, CR or LF (RFC 4180); else unchanged."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_float(value: float) -> str:
    """``value`` as ``json.dumps(value, allow_nan=False)`` writes it, NaN as null."""
    if math.isnan(value):
        return "null"
    return repr(value) if math.isfinite(value) else json.dumps(value, allow_nan=False)


#: (float format, format of any other value) of a CSV and of a JSON cell
_CSV_CELL = ("%.17g".__mod__, lambda value: _quoted(str(value)))
_JSON_CELL = (_json_float, json.dumps)


def _float_text(values: np.ndarray, fmt) -> list[str]:
    """``fmt`` of each float, applied once per distinct bit pattern (so
    ``-0.0`` and ``0.0`` keep their own texts)."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(fmt, distinct.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def _column_text(values: np.ndarray, cell) -> list[str]:
    """Text of each cell of one column, by its dtype: float64 through
    ``cell[0]``, bool as ``true``/``false``, anything else through
    ``cell[1]``, once per distinct value."""
    if values.dtype == np.float64:
        return _float_text(values, cell[0])
    if values.dtype == bool:
        return np.where(values, "true", "false").tolist()
    cells = values.tolist()
    texts = {value: cell[1](value) for value in set(cells)}
    return list(map(texts.__getitem__, cells))


def _csv_chunks(table: Table) -> Iterator[str]:
    """The CSV text of ``table``: the header line, then one string per
    ``CSV_CHUNK_ROWS`` rows, each column of a chunk converted in one go.
    A table without rows has no text."""
    if not len(table):
        return
    yield ",".join(map(_quoted, table.columns)) + "\n"
    for chunk in table.chunks():
        columns = [_column_text(col, _CSV_CELL) for col in chunk]
        yield "\n".join(map(",".join, zip(*columns))) + "\n"


def _jsonl_chunks(table: Table) -> Iterator[str]:
    """One JSON object per row, as ``json.dumps(row, allow_nan=False)``
    writes it with NaN as null, one string per ``CSV_CHUNK_ROWS`` rows."""
    keys = (json.dumps(key).replace("%", "%%") + ": %s" for key in table.columns)
    line = "{" + ", ".join(keys) + "}"
    for chunk in table.chunks():
        columns = [_column_text(col, _JSON_CELL) for col in chunk]
        yield "\n".join(map(line.__mod__, zip(*columns))) + "\n"


def rows_to_csv(table: Table) -> str:
    return "".join(_csv_chunks(table))


def rows_to_jsonl(table: Table) -> str:
    return "".join(_jsonl_chunks(table))


_CHUNKS = {"csv": _csv_chunks, "jsonl": _jsonl_chunks}


def write_rows(table: Table, fmt: str, stream) -> None:
    """Write ``table`` as ``fmt`` (csv or jsonl) to ``stream``, one chunk
    of rows per write."""
    if fmt not in _CHUNKS:
        raise ConfigError(f"unknown output format {fmt!r}")
    for chunk in _CHUNKS[fmt](table):
        stream.write(chunk)
