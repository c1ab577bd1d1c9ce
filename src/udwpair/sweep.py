"""Parameter sweeps, correlation difference maps, and verification runs.

A run is described by a :class:`~udwpair.config.SweepConfig`, from the
configuration layer (:mod:`udwpair.config`: the config types and the key
parsers), which imports no numpy.  Importing this module loads numpy and
the evaluation modules.

All sweep inputs and outputs are expressed in units of the switching width
sigma (energy gaps as Omega*sigma, lengths as L/sigma), matching how the
physics depends only on those ratios.  Detector placement follows the
orientation convention

    x_A = (d_a, 0, 0),    x_B = (d_a + L cos(theta), 0, L sin(theta)),

so theta = 0 separates the detectors transverse to the identified direction
and theta = pi/2 along it; ``d_a`` offsets both detectors in the reflected
plane, which matters only for the twisted cylinder (not translation
invariant there).

A run cuts each ell block of the grid into slabs of at most
``SLAB_POINTS`` points, whole omega rows or a range of one row's (l,
theta) points, and evaluates each slab in one batched numpy pass in the
calling process (:func:`udwpair.elements.elements_batch`,
:func:`udwpair.entanglement.xstate_measures_batch`); a point that fails
gets in ``error`` the text that ``elements_for``/``xstate_measures`` raise.
Every point's values are independent of the slab it lies in, and an ell
block's image sums warn about their truncation once, after its last slab.
The quadrature oracle (``verify`` and ``sweep --oracle``) is one
:func:`udwpair.wightman.oracle_batch` call per slab, on all its points;
nothing is kept across slabs.  In ``sweep --oracle`` a point whose oracle
fails keeps its closed-form and measure values: its ``oracle_dev_*``
columns are NaN and its ``error`` names the oracle's exception.

:func:`sweep_slabs`, :func:`difference_map_slabs` and
:func:`verification_slabs` validate the configuration at the call, with
the images they sum on the grid's coordinates, and evaluate each slab as
it is asked for, so a writer that takes their slabs
holds one slab at a time; :func:`run_sweep`, :func:`run_difference_map`
and :func:`run_verification` join the same slabs into one table.

Results are a :class:`Table` of numpy columns, rows in grid order (ell,
omega, l, theta outermost to innermost).  The writers take a table or
slabs, cut each into chunks of at most ``CSV_CHUNK_ROWS`` rows (a chunk
never joins two slabs), and convert each column of a chunk to text in one
go, by dtype, each distinct value once: CSV floats with 17 significant
digits (so identical configurations give identical bytes) and text quoted
as RFC 4180 says where it holds a comma, a double quote, CR or LF; JSONL
as ``json.dumps`` of each row.

CSV floats are exactly ``"%.17g"`` (:func:`_g17`), JSONL floats exactly
``float.__repr__`` as ``json.dumps`` writes them, with NaN as ``null``
(:func:`_repr_floats`; an infinity raises, as in ``json.dumps(row,
allow_nan=False)``).  Both take their digits in numpy from a double-double
product with a power of ten, and leave the values they cannot settle to
Python.  The float columns of a chunk are deduplicated together, so each
distinct value of the chunk is formatted once.  A column that holds one
value (one bit pattern, for floats) in every row of a chunk is formatted
once and joined once: both writers build a chunk through one row assembly
(:func:`_joined_rows`), which joins each run of adjacent such texts, with
the CSV comma or the JSONL key texts between them, once for the whole
chunk, and then each row from the texts of the other columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cache
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import wightman
from .config import SweepConfig, TopologyKind
from .elements import (
    TruncationTally,
    elements_batch,
    image_terms,
    modulus,
    new_errors,
    veltkamp_split,
)
from .entanglement import xstate_measures_batch
from .errors import ConfigError
from .geometry import (
    Topology,
    WorldlinePair,
    image_separation_array,
    self_pair,
    separation_array,
)

__all__ = [
    "Table",
    "VerificationReport",
    "VerificationSlabs",
    "run_sweep",
    "run_difference_map",
    "run_verification",
    "sweep_slabs",
    "difference_map_slabs",
    "verification_slabs",
    "rows_to_csv",
    "rows_to_jsonl",
    "write_rows",
]

#: The switching width of every sweep, written to the ``sigma`` column:
#: inputs and outputs are in units of sigma, the units of the kernels.
SIGMA = 1.0

VERIFY_TOLERANCE = 1e-6
_VERIFY_IMAGES = (1, -1, 2, -2)


#: Rows per chunk that the writers write and the row view converts at once
CSV_CHUNK_ROWS = 1024

#: Most points of a slab, the unit of the grid that a run evaluates and
#: writes at once: it bounds a run's memory.  Smaller slabs cost numpy call
#: overhead: a 128 x 128 Minkowski CLI sweep took 119 ms of CPU in one
#: slab, 124 ms in slabs of 4096 points and 147 ms in slabs of 1024
#: (medians of 12, Python 3.11 on a 2-core VM)
SLAB_POINTS = 4096


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
        for chunk in _rechunked([self]):
            for values in zip(*(col.tolist() for col in chunk.columns.values())):
                yield dict(zip(keys, values))


def _concat(tables: list[Table]) -> Table:
    """The rows of ``tables`` (of the same columns) one after another."""
    if len(tables) == 1:
        return tables[0]
    keys = tables[0].columns
    return Table({key: np.concatenate([t.columns[key] for t in tables]) for key in keys})


def _rechunked(tables: Iterable[Table]) -> Iterator[Table]:
    """The rows of ``tables``, one after another, in views of at most
    ``CSV_CHUNK_ROWS`` rows of one table."""
    for table in tables:
        for start in range(0, len(table), CSV_CHUNK_ROWS):
            stop = start + CSV_CHUNK_ROWS
            yield Table({k: col[start:stop] for k, col in table.columns.items()})


class _Slab(NamedTuple):
    """Points of one ell block of the grid: omega x (l, theta) points,
    whole omega rows or a range of one row's (l, theta) points."""

    ell: float | None
    omega: np.ndarray  # Omega*sigma, shape (n_omega,)
    length: np.ndarray  # shape (n_points,), l outer, theta inner
    theta: np.ndarray
    pair: WorldlinePair  # coordinates of shape (n_points,)
    errors: np.ndarray  # shape (n_omega, n_points)
    truncation: TruncationTally  # of the image sums of the whole ell block

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


def _points(config: SweepConfig, n: int, selves: bool) -> tuple:
    """(length, theta, pair) of the (l, theta) points of the grid, l outer
    and theta inner, once the images that a run sums up to image ``n`` are
    known to lie within the float range: detector B's and, where ``selves``
    holds, each detector's own.  Otherwise a ConfigError names the image
    that leaves it, before any row blames an infinite separation."""
    lengths = config.l.values()
    thetas = config.theta.values()
    # math, not numpy, trigonometry: bit for bit the coordinates of the
    # scalar worldlines_from_orientation that the tests take as reference
    cos = np.array([math.cos(t) for t in thetas])
    sin = np.array([math.sin(t) for t in thetas])
    length = np.repeat(lengths, thetas.size)
    pair = WorldlinePair(
        d_a=(config.d_a, 0.0),
        d_b=(config.d_a + length * np.tile(cos, lengths.size), 0.0),
        z_a=0.0,
        z_b=length * np.tile(sin, lengths.size),
    )
    if config.topology is not TopologyKind.MINKOWSKI:
        _check_images(config, pair, n, selves)
    return length, np.tile(thetas, lengths.size), pair


def _check_images(config: SweepConfig, pair: WorldlinePair, n: int, selves: bool) -> None:
    """The checks of :func:`_points`, by the distances that the image sums
    form (:func:`udwpair.geometry.image_separation_array`).  The distance
    |dz - m ell| of an image is convex in m, so the farthest image of each
    parity class summed lies at m = +-n or +-(n - 1)."""
    pairs = {("A", "detector B's"): pair}
    if selves:
        pairs["A", "its own"] = self_pair(pair.d_a, pair.z_a)
        pairs["B", "its own"] = self_pair(pair.d_b, pair.z_b)
    with np.errstate(over="ignore"):
        for ell in config.ell:
            topology = config.topology_for(ell)
            for (seen_from, whose), images in pairs.items():
                for m in (n, -n, n - 1, 1 - n):
                    if not np.isfinite(image_separation_array(topology, images, m)).all():
                        raise ConfigError(
                            f"ell = {ell!r}, d_a = {config.d_a!r} and L up to "
                            f"{config.l.stop!r}: the distance from detector {seen_from} "
                            f"to {whose} image n = {m} lies beyond the float range"
                        )


def _slabs(config: SweepConfig, points: tuple) -> Iterator[_Slab]:
    """The slabs of the grid in grid order: each ell block in slabs of at
    most ``SLAB_POINTS`` points, either ``SLAB_POINTS // cols`` whole omega
    rows or a range of ``cols`` (l, theta) points of one row, where
    ``cols`` is the smaller of a row's points and ``SLAB_POINTS``.  The
    slabs of a block share one tally of the image sums' truncation, which
    warns once the block's last slab has been evaluated."""
    length, theta, pair = points
    omega = config.omega.values()
    cols = min(length.size, SLAB_POINTS)
    rows = SLAB_POINTS // cols
    for ell in config.ell_values():
        truncation = TruncationTally()
        for start in range(0, omega.size, rows):
            gaps = omega[start:start + rows]
            for lo in range(0, length.size, cols):
                cut = slice(lo, lo + cols)
                part = replace(pair, d_b=(pair.d_b[0][cut], pair.d_b[1]), z_b=pair.z_b[cut])
                errors = new_errors((gaps.size, part.z_b.size))
                yield _Slab(ell, gaps, length[cut], theta[cut], part, errors, truncation)
        truncation.warn(config.nmax)


def _tabulate(config: SweepConfig, points: tuple, evaluate) -> Iterator[Table]:
    """The table of each slab, grid order: meta columns, the value columns
    that ``evaluate(slab)`` returns, then ``error``, the text of the
    exception that a point recorded in ``slab.errors`` ("" for none), or in
    the errors that ``evaluate`` returns under ``"error"`` if it does.

    A point with an error in ``slab.errors`` gets NaN in its float columns
    and False in its boolean ones.
    """
    for slab in _slabs(config, points):
        yield _table(config, slab, evaluate(slab))


def _table(config: SweepConfig, slab: _Slab, values: dict) -> Table:
    # a function of its own, so that ``values`` is freed before the table
    # is written
    ok = np.equal(slab.errors, None)
    errors = values.pop("error", slab.errors).reshape(-1)
    failed = np.not_equal(errors, None)
    columns = slab.meta_columns(config)
    for key, val in values.items():
        col = val & ok if np.asarray(val).dtype == bool else np.where(ok, val, math.nan)
        columns[key] = col.reshape(-1)
    columns["error"] = np.full(errors.size, "", dtype=object)
    columns["error"][failed] = [f"{type(exc).__name__}: {exc}" for exc in errors[failed]]
    return Table(columns)


#: The floor of the x deviations' denominator: the smallest normal float,
#: for x subnormal (|Omega sigma| of about 26.6 to 27.3) or -0 (beyond).
_X_FLOOR = np.finfo(float).tiny


def _deviation(closed, oracle, floor: float = 1.0) -> np.ndarray:
    """|closed - oracle| / max(floor, |closed|): with the default floor,
    absolute where the closed form is at most 1 and relative where it is
    larger; with ``_X_FLOOR``, relative wherever |closed| is normal."""
    return modulus(closed - oracle) / np.maximum(floor, modulus(closed))


def _oracle_deviations(slab: _Slab, errors: np.ndarray, mink, images=()) -> tuple:
    """The deviations from :func:`udwpair.wightman.oracle_batch` (which
    records its errors in ``errors``) of the Minkowski a, x and c of the
    slab and, per image (l_n, x_n, c_n) of ``images``, of x_n and c_n:
    dev_a and a list of (dev_x, dev_c), the Minkowski term's first.  Those
    of x are relative to |x| (at least the smallest normal float), the
    others to max(1, |v|)."""
    terms = [(separation_array(slab.pair), mink.x, mink.c), *zip(*images)]
    oracle_a, integrals = wightman.oracle_batch(slab.gaps(), [r for r, _, _ in terms], errors)
    devs = [
        (_deviation(x, oracle_x, _X_FLOOR), _deviation(c, oracle_c))
        for (_, x, c), (oracle_x, oracle_c) in zip(terms, integrals)
    ]
    return _deviation(mink.a, oracle_a), devs


def _minkowski_elements(config: SweepConfig, slab: _Slab, errors: np.ndarray):
    return elements_batch(slab.gaps(), slab.pair, Topology.minkowski(), config.nmax, errors)


def _topology_elements(config: SweepConfig, slab: _Slab):
    return elements_batch(
        slab.gaps(), slab.pair, config.topology_for(slab.ell), config.nmax, slab.errors,
        slab.truncation,
    )


def sweep_slabs(config: SweepConfig) -> Iterator[Table]:
    """The rows of :func:`run_sweep`, one slab at a time: the configuration
    is validated at the call, and each slab evaluated as it is asked for."""
    config = config.validate()
    points = _points(config, config.nmax, True)

    def evaluate(slab: _Slab):
        state = _topology_elements(config, slab)
        m = xstate_measures_batch(state, config.eps0, slab.errors)
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
            # a failure of the oracle fails the row's deviations, and the
            # row shows it, but its closed forms and measures stand
            errors = slab.errors.copy()
            mink = state
            if config.topology is not TopologyKind.MINKOWSKI:
                mink = _minkowski_elements(config, slab, errors)
            dev_a, ((dev_x, dev_c),) = _oracle_deviations(slab, errors, mink)
            values.update(
                oracle_dev_a=dev_a, oracle_dev_x=dev_x, oracle_dev_c=dev_c, error=errors
            )
        return values

    return _tabulate(config, points, evaluate)


def run_sweep(config: SweepConfig) -> Table:
    """Evaluate all matrix elements and measures on the configured grid."""
    return _concat(list(sweep_slabs(config)))


def difference_map_slabs(config: SweepConfig) -> Iterator[Table]:
    """The rows of :func:`run_difference_map`, one slab at a time: the
    configuration is validated at the call, and each slab evaluated as it
    is asked for."""
    config = config.validate()
    if config.topology is TopologyKind.MINKOWSKI:
        raise ConfigError("difference maps need a non-Minkowski topology")
    points = _points(config, config.nmax, True)

    def evaluate(slab: _Slab):
        # one-point call order: both element sets, then the measures of each
        top = _topology_elements(config, slab)
        mink = _minkowski_elements(config, slab, slab.errors)
        corr_top = xstate_measures_batch(top, config.eps0, slab.errors).corr
        corr_mink = xstate_measures_batch(mink, config.eps0, slab.errors).corr
        # no difference where a point failed, whose correlations may be inf
        return {
            "corr_minkowski": corr_mink,
            "corr_topology": corr_top,
            "corr_diff": np.where(np.equal(slab.errors, None), corr_mink, math.nan) - corr_top,
        }

    return _tabulate(config, points, evaluate)


def run_difference_map(config: SweepConfig) -> Table:
    """Correlation difference corr_M - corr_topology on the configured grid."""
    return _concat(list(difference_map_slabs(config)))


class VerificationReport(NamedTuple):
    rows: Table
    passed: bool
    max_deviation: float
    tolerance: float
    #: rows with an error, and the exception type of the first ("" for none)
    error_rows: int = 0
    first_error: str = ""


class VerificationSlabs:
    """The rows of :func:`run_verification`, one slab at a time, and the
    summary of the slabs iterated so far: ``passed`` (every row so far),
    ``max_deviation`` (the largest ``max_dev`` that is not NaN; NaN while
    there is none), ``error_rows`` and ``first_error`` (the exception type
    of the first row with an error)."""

    tolerance = VERIFY_TOLERANCE

    def __init__(self, slabs: Iterator[Table]):
        self._slabs = slabs
        self.passed = True
        self.max_deviation = math.nan
        self.error_rows = 0
        self.first_error = ""

    def __iter__(self) -> Iterator[Table]:
        for slab in self._slabs:
            columns = slab.columns
            self.passed = self.passed and bool(columns["passed"].all())
            largest = np.fmax.reduce(columns["max_dev"])  # NaN only if all are
            self.max_deviation = float(np.fmax(self.max_deviation, largest))
            failed = np.flatnonzero(columns["error"] != "")
            if failed.size and not self.error_rows:
                self.first_error = columns["error"][failed[0]].partition(":")[0]
            self.error_rows += failed.size
            yield slab

    def report(self, rows: Table) -> VerificationReport:
        """The report of the run whose rows are ``rows``, once they have
        all been iterated."""
        return VerificationReport(
            rows, self.passed, self.max_deviation, self.tolerance, self.error_rows,
            self.first_error,
        )


def verification_slabs(config: SweepConfig) -> VerificationSlabs:
    """The rows of :func:`run_verification`, one slab at a time, with their
    running summary: the configuration is validated at the call, and each
    slab evaluated as it is asked for."""
    config = config.validate()
    # verify sums no detector's own images
    points = _points(config, max(map(abs, _VERIFY_IMAGES)), False)

    def evaluate(slab: _Slab):
        gaps = slab.gaps()
        mink = _minkowski_elements(config, slab, slab.errors)
        images = ()
        if config.topology is not TopologyKind.MINKOWSKI:
            topology = config.topology_for(slab.ell)
            images = image_terms(gaps, slab.pair, topology, _VERIFY_IMAGES, slab.errors)
        dev_a, ((dev_x, dev_c), *image_devs) = _oracle_deviations(
            slab, slab.errors, mink, images
        )
        dev_image = np.zeros(slab.errors.shape)
        for dev_x_n, dev_c_n in image_devs:
            dev_image = np.maximum(dev_image, np.maximum(dev_x_n, dev_c_n))
        max_dev = np.maximum.reduce([dev_a, dev_x, dev_c, dev_image])
        return {
            "dev_a": dev_a,
            "dev_x": dev_x,
            "dev_c": dev_c,
            "dev_image": dev_image,
            "max_dev": max_dev,
            "passed": max_dev < VERIFY_TOLERANCE,
        }

    return VerificationSlabs(_tabulate(config, points, evaluate))


def run_verification(config: SweepConfig) -> VerificationReport:
    """Compare every closed form against the distributional quadrature oracle.

    Each point checks the Minkowski a, x and c at its separation and, on a
    quotient, x and c at the images n = 1, -1, 2, -2 (``dev_image``, the
    largest of those deviations).  Each deviation of x is |x - oracle| /
    |x|, each other one |closed form - oracle| / max(1, |closed form|),
    and each must stay below ``VERIFY_TOLERANCE``.  A
    point whose detector B sits on one of these images of A fails before
    any quadrature.
    """
    slabs = verification_slabs(config)
    return slabs.report(_concat(list(slabs)))


def _quoted(text: str) -> str:
    """``text`` as one CSV field: in double quotes, inner quotes doubled,
    when it holds a comma, a quote, CR or LF (RFC 4180); else unchanged."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


#: |v| outside (_G17_MIN, _G17_MAX) is formatted by Python's ``"%.17g"``
_G17_MIN, _G17_MAX = 1e-280, 1e280
#: a scaled value whose fraction lies this close to 1/2 may be a tie, and
#: is formatted by Python's ``"%.17g"``, which rounds ties to even
_G17_TIE = 1e-6
#: the decimal exponents of the tables: those of (_G17_MIN, _G17_MAX),
#: and one more each way
_K_MIN, _K_MAX = -281, 281
_ZERO, _POINT, _MINUS, _NEWLINE = np.frombuffer(b"0.-\n", np.uint8)


def _ascii(texts, width: int) -> np.ndarray:
    """The texts as rows of ``width`` bytes, NUL-padded."""
    rows = b"".join(t.encode().ljust(width, b"\0") for t in texts)
    return np.frombuffer(rows, np.uint8).reshape(-1, width)


@cache
def _g17_tables():
    """The tables of ``_g17``, built at its first call.  Per decimal
    exponent k in [_K_MIN, _K_MAX]: 10**(16 - k) as a double-double (the
    high part split in halves, each part correctly rounded), the text
    ``%.17g`` writes before the digits ("0.000" for k = -4) and after them
    ("e+XX").  Then the four ASCII digits of each of 0..9999 as one
    uint32."""
    exponents = range(_K_MIN, _K_MAX + 1)
    hi, lo = [], []
    for k in exponents:
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        high = num / den  # int division rounds correctly
        p, q = high.as_integer_ratio()
        hi.append(high)
        lo.append((num * q - p * den) / (den * q))
    fixed = range(-4, 17)
    prefix = _ascii(["0." + "0" * (-k - 1) if k < 0 and k in fixed else "" for k in exponents], 5)
    suffix = _ascii(["" if k in fixed else "e%+03d" % k for k in exponents], 5)
    digits = np.arange(10**4, dtype=np.uint16)[:, None] // np.uint16([1000, 100, 10, 1]) % 10
    pow10 = (*veltkamp_split(np.array(hi)), np.array(lo))
    digits = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    return pow10, prefix, suffix, digits


def _scaled(x, k, pow10):
    """x 10**(16 - k) as its integer part and fraction, from a double-double
    product: within about 1e-14 for x 10**(16 - k) < 2e17."""
    hi_hi, hi_lo, lo = pow10
    i = k - _K_MIN
    b_hi, b_lo = hi_hi[i], hi_lo[i]
    a_hi, a_lo = veltkamp_split(x)
    p = x * (b_hi + b_lo)
    # x * hi - p exactly (Dekker's two-product)
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    whole = np.floor(p)
    rest = (p - whole) + (err + x * lo[i])
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _decimal(values: np.ndarray, fast: np.ndarray, pow10):
    """The values at the indices ``fast`` (of magnitude in (_G17_MIN,
    _G17_MAX)) as y = |v| 10**(16 - k) with k = floor(log10 |v|): the
    indices, |v|, k, and y's integer part in [1e16, 1e17) and fraction.
    k is corrected by one where y falls outside [1e16, 1e17); a value whose
    y still does is dropped."""
    x = np.abs(values[fast])
    k = np.floor(np.log10(x)).astype(np.int64)
    whole, frac = _scaled(x, k, pow10)
    # log10 may miss k by one next to a power of ten
    step = (whole >= 10**17).astype(np.int64) - (whole < 10**16)
    redo = np.flatnonzero(step)
    k[redo] += step[redo]
    whole[redo], frac[redo] = _scaled(x[redo], k[redo], pow10)
    ok = (whole >= 10**16) & (whole < 10**17)
    return fast[ok], x[ok], k[ok], whole[ok], frac[ok]


def _layout(signs: np.ndarray, k: np.ndarray, n: np.ndarray, fixed: range, suffix,
            point_zero: bool) -> str:
    """The texts of the values (-1)**sign n 10**(k - 16), for n in [1e16,
    1e17], each followed by a newline: the digits of n up to its last
    nonzero one, in fixed notation for k in ``fixed`` and else with the
    ``suffix`` of k.  With ``point_zero``, fixed notation writes ".0" where
    no fraction digit remains."""
    _, prefix, _, digits = _g17_tables()
    top = n == 10**17  # rounded up into the next decade
    n[top] = 10**16
    k = k + top
    high, low = np.divmod(n, 10**8)
    groups = [high // 10**8, high // 10**4 % 10**4, high % 10**4, low // 10**4, low % 10**4]
    digit = digits[np.stack(groups, axis=1)].view(np.uint8)[:, 3:]
    nd = 17 - np.argmax(digit[:, ::-1] != _ZERO, axis=1)
    # the digit the point follows; negative where "0.000" holds the point
    in_fixed = (k >= fixed.start) & (k < fixed.stop)
    point = np.where(in_fixed, k, 0)
    # digits written: integer digits stay, and so does a zero after the
    # point where that is asked for
    ends = np.maximum(nd, point + 1 + (point_zero & in_fixed & (k >= 0)))
    # one row of bytes per value, NUL where nothing is written: the sign,
    # "0.000", each digit followed by a slot for the point, "e+XXX", a
    # newline
    row = np.zeros((n.size, 46), np.uint8)
    row[:, 0] = signs * _MINUS
    row[:, 1:6] = prefix[k - _K_MIN]
    row[:, 6:40:2] = digit * (np.arange(17) < ends[:, None])
    dotted = np.flatnonzero((point >= 0) & (ends > point + 1))
    row[dotted, 7 + 2 * point[dotted]] = _POINT
    row[:, 40:45] = suffix[k - _K_MIN]
    row[:, 45] = _NEWLINE
    data = row.tobytes()
    del row  # a third of the peak of the float text
    return data.translate(None, b"\0").decode("ascii")


def _texts(values: np.ndarray, fast: np.ndarray, text: str, fmt) -> np.ndarray:
    """An object array of the texts of ``values``: those at the indices
    ``fast`` from the lines of ``text``, in order, the others ``fmt(v)``."""
    texts = np.empty(values.size, dtype=object)
    texts[fast] = np.array(text.split("\n")[:-1], dtype=object)
    slow = np.ones(values.size, dtype=bool)
    slow[fast] = False
    texts[slow] = np.array(list(map(fmt, values[slow].tolist())), dtype=object)
    return texts


def _g17(values: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` of each float64 v of ``values``, as an object array.

    For 1e-280 < |v| < 1e280, y = |v| 10**(16 - k) with k = floor(log10 |v|)
    is formed as a double-double (:func:`_decimal`), and y is rounded to
    the 17 digits.  Zeros, non-finite values, extreme magnitudes and any y
    whose fraction lies near 1/2 (a possible tie) go through Python's
    ``"%.17g"``.  The writer passes the distinct floats of one chunk of
    ``CSV_CHUNK_ROWS`` rows, which bounds the temporaries (46 bytes of
    text per value and a few arrays of the values' size).
    """
    pow10, _, suffix, _ = _g17_tables()
    mag = np.abs(values)
    fast = np.flatnonzero((mag > _G17_MIN) & (mag < _G17_MAX))
    fast, _, k, whole, frac = _decimal(values, fast, pow10)
    ok = np.abs(frac - 0.5) > _G17_TIE
    fast = fast[ok]
    n = whole[ok] + (frac[ok] > 0.5)
    text = _layout(np.signbit(values[fast]), k[ok], n, range(-4, 17), suffix, False)
    return _texts(values, fast, text, "%.17g".__mod__)


#: the units of rounding y in [1e16, 1e17) to d = 1, ..., 14 significant
#: digits, 10**(17 - d)
_SHORT_UNITS = 10 ** np.arange(16, 2, -1, dtype=np.int64)
#: a rounding whose distance from y lies this close, relative, to half an
#: ulp of the value may or may not round-trip, and goes through
#: ``float.__repr__``
_REPR_EDGE = 1e-6
_MANTISSA = (1 << 52) - 1


@cache
def _repr_suffix():
    """The text ``repr`` writes after the digits, per decimal exponent k in
    [_K_MIN, _K_MAX]: none for -4 <= k <= 15, else "e+XX"; built at the
    first call of ``_repr_floats``."""
    return _ascii(["" if -4 <= k <= 15 else "e%+03d" % k for k in range(_K_MIN, _K_MAX + 1)], 5)


def _rounding(whole, frac, half, unit):
    """y = whole + frac rounded to the nearest multiple of ``unit`` (arrays
    that broadcast): that multiple, whether it round-trips (lies within
    ``half`` of y), whether that is certain (its distance not within
    _REPR_EDGE of ``half``), and whether y is surely no tie (not within
    _G17_TIE of one)."""
    rem = whole % unit
    # the exact int64 offset from the midpoint first: as a float, rem +
    # frac loses the fraction once rem reaches 2**53
    mid = (rem - unit // 2) + frac
    step = unit * (mid > 0) - rem  # the rounding minus whole
    distance = np.abs(step - frac)
    return (
        whole + step,
        distance < half,
        np.abs(distance - half) > _REPR_EDGE * half,
        np.abs(mid) > _G17_TIE,
    )


def _shortest(x, whole, frac) -> tuple[np.ndarray, np.ndarray]:
    """The rounding of each y = whole + frac = x 10**(16 - k) to the fewest
    digits that round-trips, as a multiple of a power of ten in [1e16,
    1e17], and whether it is certain: each rounding tried must be clear of
    the half ulp by _REPR_EDGE, up to the shortest that round-trips, and
    that one clear of a tie by _G17_TIE."""
    half = np.spacing(x) / x * (whole + frac) * 0.5
    n = whole + (frac > 0.5)  # 17 digits, unless 16 or 15 round-trip
    ok = np.abs(frac - 0.5) > _G17_TIE
    for unit in (10, 100):
        rounded, fits, sure, no_tie = _rounding(whole, frac, half, unit)
        n = np.where(fits, rounded, n)
        ok = np.where(fits, no_tie, ok) & sure
    short = np.flatnonzero(fits)
    rounded, fits, sure, no_tie = _rounding(
        whole[short, None], frac[short, None], half[short, None], _SHORT_UNITS
    )
    at = fits.any(axis=1)
    fewest = np.where(at, np.argmax(fits, axis=1), _SHORT_UNITS.size - 1)
    rows = np.arange(short.size)
    n[short] = np.where(at, rounded[rows, fewest], n[short])
    decided = sure | (np.arange(_SHORT_UNITS.size) > fewest[:, None])
    ok[short] = np.where(at, no_tie[rows, fewest], ok[short]) & decided.all(axis=1)
    return n, ok


def _repr_floats(values: np.ndarray) -> np.ndarray:
    """``float.__repr__`` of each float64 of ``values``, as an object array.

    With y = |v| 10**(16 - k) as in :func:`_g17`, the shortest text is the
    rounding of y to the fewest digits d that round-trips: one whose
    distance from y is below half an ulp of v on the same scale, (ulp(v)/v)
    y/2.  A shorter rounding that round-trips implies that the longer ones
    do, so d = 16 and d = 15 are tested on every value and d < 15 only
    where 15 digits round-trip (:func:`_shortest`).  Zeros, non-finite
    values, magnitudes outside (1e-280, 1e280), powers of two (whose
    rounding interval is asymmetric), a distance within _REPR_EDGE of the
    half ulp and a rounding within _G17_TIE of a tie go through
    ``float.__repr__``.  The text is in fixed notation for -4 <= k <= 15,
    else "d.ddde+XX".
    """
    mag = np.abs(values)
    power_of_two = (values.view(np.int64) & _MANTISSA) == 0
    fast = np.flatnonzero((mag > _G17_MIN) & (mag < _G17_MAX) & ~power_of_two)
    fast, x, k, whole, frac = _decimal(values, fast, _g17_tables()[0])
    n, ok = _shortest(x, whole, frac)
    fast = fast[ok]
    text = _layout(np.signbit(values[fast]), k[ok], n[ok], range(-4, 16), _repr_suffix(), True)
    return _texts(values, fast, text, float.__repr__)


def _json_floats(values: np.ndarray) -> np.ndarray:
    """Each float of ``values`` as ``json.dumps(value, allow_nan=False)``
    writes it (and raises on an infinity), NaN as null."""
    texts = _repr_floats(values)
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        value = values.item(i)
        texts[i] = "null" if math.isnan(value) else json.dumps(value, allow_nan=False)
    return texts


#: (float format, format of any other value) of a CSV and of a JSON cell;
#: the float format maps an array of floats to an array of their texts
_CSV_CELL = (_g17, lambda value: _quoted(str(value)))
_JSON_CELL = (_json_floats, json.dumps)


def _float_text(columns: list[np.ndarray], fmt) -> list[str | list[str]]:
    """Text of equal-length float64 columns: a single ``str`` for a column
    whose cells all share one bit pattern, else a list of each cell's text.
    One call of ``fmt`` on the distinct bit patterns of one key per single
    column and every cell of the others (so ``-0.0``, ``0.0`` and each NaN
    payload keep their own texts)."""
    bits = np.stack(columns).view(np.int64)
    single = (bits == bits[:, :1]).all(axis=1)
    keys = np.concatenate([bits[single, 0], bits[~single].reshape(-1)])
    distinct, inverse = np.unique(keys, return_inverse=True)
    texts = fmt(distinct.view(np.float64))[inverse]
    n_single = int(single.sum())
    singles = iter(texts[:n_single].tolist())
    others = iter(texts[n_single:].reshape(-1, bits.shape[1]).tolist())
    return [next(singles) if s else next(others) for s in single.tolist()]


def _column_text(values: np.ndarray, fmt) -> str | list[str]:
    """Text of a column that is not float64, as ``_float_text`` gives it:
    bool as ``true``/``false``, anything else through ``fmt``, once per
    distinct value."""
    if values.dtype == bool:
        if values.all() or not values.any():
            return "true" if values[0] else "false"
        return np.where(values, "true", "false").tolist()
    cells = values.tolist()
    texts = {value: fmt(value) for value in set(cells)}
    if len(texts) == 1:
        return texts.popitem()[1]
    return list(map(texts.__getitem__, cells))


def _chunk_text(chunk: Table, cell) -> list[str | list[str]]:
    """Text of each column of one chunk, a ``str`` where the column holds
    one value: the float64 columns together through ``cell[0]``, the others
    through ``cell[1]``."""
    columns = chunk.columns.values()
    floats = [col for col in columns if col.dtype == np.float64]
    float_texts = iter(_float_text(floats, cell[0]) if floats else ())
    return [
        next(float_texts) if col.dtype == np.float64 else _column_text(col, cell[1])
        for col in columns
    ]


def _joined_rows(parts: list[str | list[str]], sep: str, n: int) -> str:
    """The text of ``n`` rows, each the texts of ``parts`` joined with
    ``sep`` and ended by a newline: a ``str`` is the same in every row, a
    list holds one text per row.  Each run of adjacent strings is joined
    once, for all rows."""
    merged: list[str | list[str]] = []
    for part in parts:
        if isinstance(part, str) and merged and isinstance(merged[-1], str):
            merged[-1] += sep + part
        else:
            merged.append(part)
    if len(merged) == 1 and isinstance(merged[0], str):
        return (merged[0] + "\n") * n
    rows = zip(*(repeat(part) if isinstance(part, str) else part for part in merged))
    return "\n".join(map(sep.join, rows)) + "\n"


def _csv_chunks(tables: Iterable[Table]) -> Iterator[str]:
    """The CSV text of the rows of ``tables``: the header line, then one
    string per chunk of at most ``CSV_CHUNK_ROWS`` rows of one table, each
    chunk converted in one go.
    No rows, no text."""
    header = True
    for chunk in _rechunked(tables):
        if header:
            yield ",".join(map(_quoted, chunk.columns)) + "\n"
            header = False
        yield _joined_rows(_chunk_text(chunk, _CSV_CELL), ",", len(chunk))


def _jsonl_chunks(tables: Iterable[Table]) -> Iterator[str]:
    """One JSON object per row of ``tables``, as ``json.dumps(row,
    allow_nan=False)`` writes it with NaN as null, one string per chunk
    of at most ``CSV_CHUNK_ROWS`` rows of one table: the cells' texts with
    the key texts, which are the same in every row, between them."""
    keys = None
    for chunk in _rechunked(tables):
        if keys is None:
            names = list(map(json.dumps, chunk.columns))
            keys = [f"{{{names[0]}: ", *(f", {name}: " for name in names[1:])]
        cells = _chunk_text(chunk, _JSON_CELL)
        parts = [part for key, text in zip(keys, cells) for part in (key, text)]
        yield _joined_rows([*parts, "}"], "", len(chunk))


def rows_to_csv(table: Table) -> str:
    return "".join(_csv_chunks([table]))


def rows_to_jsonl(table: Table) -> str:
    return "".join(_jsonl_chunks([table]))


_CHUNKS = {"csv": _csv_chunks, "jsonl": _jsonl_chunks}


def write_rows(rows: Table | Iterable[Table], fmt: str, stream) -> None:
    """Write ``rows`` as ``fmt`` (csv or jsonl) to ``stream``, one chunk of
    at most ``CSV_CHUNK_ROWS`` rows of one table per write.  ``rows`` is a
    table, or tables of the same columns written one after another, such
    as the slabs of a run: those are taken one at a time, as the chunks
    need them."""
    if fmt not in _CHUNKS:
        raise ConfigError(f"unknown output format {fmt!r}")
    for chunk in _CHUNKS[fmt]([rows] if isinstance(rows, Table) else rows):
        stream.write(chunk)
