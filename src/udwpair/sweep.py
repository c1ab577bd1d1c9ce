"""Parameter sweeps, correlation difference maps, and verification runs.

A run is described by a :class:`~udwpair.config.SweepConfig`; the
configuration layer (:mod:`udwpair.config`: the config types, the key
parsers and ``OUTPUT_DIR_ENV``) imports no numpy and is re-exported here.
Importing this module loads numpy and the evaluation modules.

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

CSV floats are exactly ``"%.17g"``.  Their digits are computed in numpy
from a double-double product with a power of ten (:func:`_g17`); zeros,
non-finite values, extreme magnitudes and near-ties go through Python's
``"%.17g"``.  The float columns of a chunk are deduplicated together, so
each distinct value of the chunk is formatted once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache
from typing import Iterator, NamedTuple

import numpy as np

from . import wightman
from .config import (
    OUTPUT_DIR_ENV,
    GridAxis,
    SweepConfig,
    TopologyKind,
    config_from_mapping,
    parse_config_file,
    parse_range,
)
from .elements import elements_batch, image_terms, modulus, new_errors
from .entanglement import xstate_measures_batch
from .errors import ConfigError
from .geometry import Topology, WorldlinePair, separation_array

__all__ = [
    "OUTPUT_DIR_ENV",
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

#: The switching width of every sweep, written to the ``sigma`` column:
#: inputs and outputs are in units of sigma, the units of the kernels.
SIGMA = 1.0

VERIFY_TOLERANCE = 1e-6
_VERIFY_IMAGES = (1, -1, 2, -2)


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


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of the first occurrence of each distinct entry of
    ``keys`` (-0.0 and 0.0 are one entry), and the entry of each key."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


class _Memo:
    """The integrals of one kind that a run evaluated, by key: each value
    (NaN where the integral raised), and the exceptions raised."""

    def __init__(self):
        self.values: dict = {}
        self.raised: dict = {}

    def __len__(self) -> int:
        return len(self.values)

    def new(self, keys: list) -> list:
        """The ``keys`` not evaluated yet."""
        return [key for key in keys if key not in self.values]

    def store(self, keys: list, result) -> None:
        """Record ``result``: the values and per-row errors of ``keys``, or
        the exception of a call that raised, for all of them."""
        if isinstance(result, Exception):
            result = np.full(len(keys), math.nan), [result] * len(keys)
        values, errors = result
        self.values.update(zip(keys, values.tolist()))
        for key, error in zip(keys, errors):
            if error is not None:
                self.values[key] = math.nan
                self.raised[key] = error

    def recall(self, keys: list) -> tuple[np.ndarray, np.ndarray | None]:
        """The values of ``keys``, and per key its exception or None (None
        for all: no key raised)."""
        values = np.fromiter(map(self.values.__getitem__, keys), complex, len(keys))
        if not self.raised:
            return values, None
        raised = np.empty(len(keys), dtype=object)
        raised[:] = [self.raised.get(key) for key in keys]
        return values, raised


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
    ``oracle_x_envelope``), ``oracle_c`` on both.  :meth:`deviations`
    gathers the keys of every integral of a block at once, one
    ``np.unique`` per kind, keeping the first key seen (a gap of -0.0 and
    one of 0.0 are one integral).  The keys the run has not met yet are
    integrated in two calls: the self terms in one
    :func:`udwpair.wightman.oracle_a_batch`, the x and c integrals together
    in one pole pairing (``wightman._oracle_xc_batch``).  A point that
    already has an error needs no integral; a point whose integral raised
    gets that exception in ``errors``, the first one in the order a, then
    x and c of each term.
    """

    def __init__(self):
        self._a, self._x, self._c = _Memo(), _Memo(), _Memo()
        #: integrals the points asked for; ``quadratures`` of them were evaluated
        self.evaluations = 0

    @property
    def quadratures(self) -> int:
        return len(self._a) + len(self._x) + len(self._c)

    def _integrate(self, a_keys: list, x_keys: list, c_keys: list) -> None:
        """Evaluate the keys not evaluated yet: the self terms in one call,
        the x and c integrals in one pole pairing."""
        new_a, new_x, new_c = self._a.new(a_keys), self._x.new(x_keys), self._c.new(c_keys)
        if new_a:
            try:
                a_result = wightman.oracle_a_batch(new_a)
            except Exception as exc:
                a_result = exc
            self._a.store(new_a, a_result)
        if new_x or new_c:
            gaps, seps = [g for g, _ in new_c], [r for _, r in new_c]
            try:
                c_result, x_result = wightman._oracle_xc_batch(gaps, seps, new_x)
            except Exception as exc:
                c_result = x_result = exc
            self._c.store(new_c, c_result)
            self._x.store(new_x, x_result)

    def deviations(self, errors: np.ndarray, omega, a, terms) -> tuple[np.ndarray, list]:
        """|a - oracle_a| / max(1, |a|) at the gaps ``omega`` (a column)
        and, per term (r, x, c) of separations ``r`` with closed forms x
        and c, the deviations of x and c from their oracles; each
        deviation relative to max(1, |closed form|), NaN at a point with an
        error."""
        flat = errors.reshape(-1)
        todo = np.flatnonzero(np.equal(flat, None))
        n = todo.size

        def at_todo(v) -> np.ndarray:
            return np.broadcast_to(v, errors.shape).reshape(-1)[todo]

        gap = at_todo(omega)
        sep = np.concatenate([at_todo(r) for r, _, _ in terms])
        a_first, a_of = _first_seen(gap)
        x_first, x_of = _first_seen(sep)
        # (gap, separation) pairs by their gap and separation entries
        c_first, c_of = _first_seen(np.tile(a_of, len(terms)) * x_first.size + x_of)
        a_keys = gap[a_first].tolist()
        x_keys = sep[x_first].tolist()
        c_keys = list(zip(gap[c_first % max(n, 1)].tolist(), sep[c_first].tolist()))
        self._integrate(a_keys, x_keys, c_keys)

        alive = np.ones(n, dtype=bool)

        def take(recalled: tuple, of: np.ndarray) -> np.ndarray:
            # the integral at each point, and the exception of each point
            # still without an error whose integral raised
            values, raised = recalled
            self.evaluations += int(np.count_nonzero(alive))
            if raised is not None:
                bad = alive & np.not_equal(raised[of], None)
                flat[todo[bad]] = raised[of[bad]]
                alive[bad] = False
            out = np.full(flat.size, math.nan, dtype=complex)
            out[todo] = values[of]
            return out.reshape(errors.shape)

        dev_a = _deviation(a, take(self._a.recall(a_keys), a_of).real)
        envelope = np.array(
            [wightman.oracle_x_envelope(om) for om in omega.ravel().tolist()]
        ).reshape(omega.shape)
        x_recalled, c_recalled = self._x.recall(x_keys), self._c.recall(c_keys)
        devs = []
        for t, (_, x, c) in enumerate(terms):
            part = slice(t * n, (t + 1) * n)
            quad = take(x_recalled, x_of[part])
            oracle_c = take(c_recalled, c_of[part])
            devs.append((_deviation(x, envelope * quad), _deviation(c, oracle_c)))
        return dev_a, devs


def _oracle_deviations(block: _Block, oracle: _Oracle, mink, images=()) -> tuple:
    """The deviations of the Minkowski a, x and c of the block from the
    oracle and, per image (l_n, x_n, c_n) of ``images``, those of x_n and
    c_n: dev_a and a list of (dev_x, dev_c), the Minkowski term's first."""
    terms = [(separation_array(block.pair), mink.x, mink.c), *zip(*images)]
    return oracle.deviations(block.errors, block.gaps(), mink.a, terms)


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
            dev_a, ((dev_x, dev_c),) = _oracle_deviations(
                block, oracle, _minkowski_elements(config, block)
            )
            values.update(oracle_dev_a=dev_a, oracle_dev_x=dev_x, oracle_dev_c=dev_c)
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
        dev_a, ((dev_x, dev_c), *image_devs) = _oracle_deviations(block, oracle, mink, images)
        dev_image = np.zeros(block.errors.shape)
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


#: |v| outside (_G17_MIN, _G17_MAX) is formatted by Python's ``"%.17g"``
_G17_MIN, _G17_MAX = 1e-280, 1e280
#: a scaled value whose fraction lies this close to 1/2 may be a tie, and
#: is formatted by Python's ``"%.17g"``, which rounds ties to even
_G17_TIE = 1e-6
#: the decimal exponents of the tables: those of (_G17_MIN, _G17_MAX),
#: and one more each way
_K_MIN, _K_MAX = -281, 281
#: values formatted at once: bounds the temporaries to about 1 MB
_G17_BLOCK = 4096
_ZERO, _POINT, _MINUS, _NEWLINE = np.frombuffer(b"0.-\n", np.uint8)


def _split(a):
    """Veltkamp's split of doubles into halves of 26 bits: hi + lo == a."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


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
    pow10 = (*_split(np.array(hi)), np.array(lo))
    digits = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    return pow10, prefix, suffix, digits


def _scaled(x, k, pow10):
    """x 10**(16 - k) as its integer part and fraction, from a double-double
    product: within about 1e-14 for x 10**(16 - k) < 2e17."""
    hi_hi, hi_lo, lo = pow10
    i = k - _K_MIN
    b_hi, b_lo = hi_hi[i], hi_lo[i]
    a_hi, a_lo = _split(x)
    p = x * (b_hi + b_lo)
    # x * hi - p exactly (Dekker's two-product)
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    whole = np.floor(p)
    rest = (p - whole) + (err + x * lo[i])
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _g17(values: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` of each float64 v of ``values``, as an object array.

    For 1e-280 < |v| < 1e280, y = |v| 10**(16 - k) with k = floor(log10 |v|)
    is formed as a double-double; k is corrected by one where y falls
    outside [1e16, 1e17), and y is rounded to the 17 digits.  Zeros,
    non-finite values, extreme magnitudes and any y whose fraction lies
    near 1/2 (a possible tie) go through Python's ``"%.17g"``.
    """
    texts = np.empty(values.size, dtype=object)
    for start in range(0, values.size, _G17_BLOCK):
        texts[start:start + _G17_BLOCK] = _g17_block(values[start:start + _G17_BLOCK])
    return texts


def _g17_block(values: np.ndarray) -> np.ndarray:
    """``_g17`` of at most ``_G17_BLOCK`` values."""
    pow10, prefix, suffix, digits = _g17_tables()
    mag = np.abs(values)
    fast = np.flatnonzero((mag > _G17_MIN) & (mag < _G17_MAX))
    x = mag[fast]
    k = np.floor(np.log10(x)).astype(np.int64)
    whole, frac = _scaled(x, k, pow10)
    # log10 may miss k by one next to a power of ten
    step = (whole >= 10**17).astype(np.int64) - (whole < 10**16)
    redo = np.flatnonzero(step)
    k[redo] += step[redo]
    whole[redo], frac[redo] = _scaled(x[redo], k[redo], pow10)
    ok = (whole >= 10**16) & (whole < 10**17) & (np.abs(frac - 0.5) > _G17_TIE)
    fast, k, n = fast[ok], k[ok], whole[ok] + (frac[ok] > 0.5)
    top = n == 10**17  # rounded up into the next decade
    n[top] = 10**16
    k += top
    high, low = np.divmod(n, 10**8)
    groups = [high // 10**8, high // 10**4 % 10**4, high % 10**4, low // 10**4, low % 10**4]
    digit = digits[np.stack(groups, axis=1)].view(np.uint8)[:, 3:]
    nd = 17 - np.argmax(digit[:, ::-1] != _ZERO, axis=1)
    # the digit the point follows; negative where "0.000" holds the point
    point = np.where((k >= -4) & (k < 17), k, 0)
    ends = np.maximum(nd, point + 1)  # digits written: integer digits stay
    # one row of bytes per value, NUL where %g writes nothing: the sign,
    # "0.000", each digit followed by a slot for the point, "e+XXX", a
    # newline
    row = np.zeros((n.size, 46), np.uint8)
    row[:, 0] = np.signbit(values[fast]) * _MINUS
    row[:, 1:6] = prefix[k - _K_MIN]
    row[:, 6:40:2] = digit * (np.arange(17) < ends[:, None])
    dotted = np.flatnonzero((point >= 0) & (ends > point + 1))
    row[dotted, 7 + 2 * point[dotted]] = _POINT
    row[:, 40:45] = suffix[k - _K_MIN]
    row[:, 45] = _NEWLINE
    text = row.tobytes().translate(None, b"\0").decode("ascii")
    texts = np.empty(values.size, dtype=object)
    texts[fast] = np.array(text.split("\n")[:-1], dtype=object)
    slow = np.ones(values.size, dtype=bool)
    slow[fast] = False
    texts[slow] = np.array(list(map("%.17g".__mod__, values[slow].tolist())), dtype=object)
    return texts


def _json_floats(values: np.ndarray) -> np.ndarray:
    """Each float of ``values`` as ``json.dumps(value, allow_nan=False)``
    writes it (and raises on an infinity), NaN as null."""
    texts = np.array(list(map(float.__repr__, values.tolist())), dtype=object)
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        value = values.item(i)
        texts[i] = "null" if math.isnan(value) else json.dumps(value, allow_nan=False)
    return texts


#: (float format, format of any other value) of a CSV and of a JSON cell;
#: the float format maps an array of floats to an array of their texts
_CSV_CELL = (_g17, lambda value: _quoted(str(value)))
_JSON_CELL = (_json_floats, json.dumps)


def _float_text(columns: list[np.ndarray], fmt) -> list[list[str]]:
    """Text of each cell of equal-length float64 columns: one call of
    ``fmt`` on the distinct bit patterns of all of them (so ``-0.0`` and
    ``0.0`` keep their own texts)."""
    bits = np.stack(columns).view(np.int64)
    distinct, inverse = np.unique(bits.reshape(-1), return_inverse=True)
    return fmt(distinct.view(np.float64))[inverse.reshape(bits.shape)].tolist()


def _column_text(values: np.ndarray, fmt) -> list[str]:
    """Text of each cell of a column that is not float64: bool as
    ``true``/``false``, anything else through ``fmt``, once per distinct
    value."""
    if values.dtype == bool:
        return np.where(values, "true", "false").tolist()
    cells = values.tolist()
    texts = {value: fmt(value) for value in set(cells)}
    return list(map(texts.__getitem__, cells))


def _chunk_text(chunk: list[np.ndarray], cell) -> list[list[str]]:
    """Text of each cell of each column of one chunk: the float64 columns
    together through ``cell[0]``, the others through ``cell[1]``."""
    floats = [col for col in chunk if col.dtype == np.float64]
    float_texts = iter(_float_text(floats, cell[0]) if floats else ())
    return [
        next(float_texts) if col.dtype == np.float64 else _column_text(col, cell[1])
        for col in chunk
    ]


def _csv_chunks(table: Table) -> Iterator[str]:
    """The CSV text of ``table``: the header line, then one string per
    ``CSV_CHUNK_ROWS`` rows, each chunk converted in one go.  A table
    without rows has no text."""
    if not len(table):
        return
    yield ",".join(map(_quoted, table.columns)) + "\n"
    for chunk in table.chunks():
        yield "\n".join(map(",".join, zip(*_chunk_text(chunk, _CSV_CELL)))) + "\n"


def _jsonl_chunks(table: Table) -> Iterator[str]:
    """One JSON object per row, as ``json.dumps(row, allow_nan=False)``
    writes it with NaN as null, one string per ``CSV_CHUNK_ROWS`` rows."""
    keys = (json.dumps(key).replace("%", "%%") + ": %s" for key in table.columns)
    line = "{" + ", ".join(keys) + "}"
    for chunk in table.chunks():
        yield "\n".join(map(line.__mod__, zip(*_chunk_text(chunk, _JSON_CELL)))) + "\n"


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
