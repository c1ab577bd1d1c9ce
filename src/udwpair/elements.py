"""Closed-form matrix elements of the joint two-detector state.

Each detector is a two-level system with energy gap Omega, coupled to a
massless scalar field through a Gaussian switching function
e^{-t^2 / 2 sigma^2} with strength eps0.  At leading order the joint state
in the basis {|00>, |01>, |10>, |11>} is the X-state

    rho = [[1-A-B+E, 0,   0,   X ],
           [0,       B-E, C,   0 ],
           [0,       C*,  A-E, 0 ],
           [X*,      0,   0,   E ]],

with  E = |X|^2 + A B + 2|C|^2  at order eps0^4.  This module evaluates the
coefficients A/eps0^2, B/eps0^2, X/eps0^2, C/eps0^2, E/eps0^4 in Minkowski
space and, by the method of images, in the cylinder and twisted-cylinder
quotients.

The three building blocks, written for switching width sigma = s and a
static pair at spatial separation r > 0, are

    self term      a(Omega)    = (1/4 pi) [e^{-s^2 Omega^2}
                                   - sqrt(pi) s Omega erfc(s Omega)]
    exchange term  c(Omega, r) = (s / 4 sqrt(pi) r) e^{-r^2/4 s^2}
                                   ( Im[e^{i Omega r} erf(s Omega + i r/2s)]
                                     - sin(Omega r) )
    nonlocal term  x(Omega, r) = (s / 4 sqrt(pi) r) e^{-s^2 Omega^2}
                                   [ i e^{-r^2/4s^2} - (2/sqrt(pi)) D(r/2s) ]

where D is Dawson's integral.  For both gap signs the exchange term's
e^{-r^2/4s^2}( ... ) is evaluated as

    -e^{-s^2 Omega^2} Im w(-r/2s + i|s Omega|)
        - 2 [Omega < 0] e^{-r^2/4s^2} sin(Omega r)

with the Faddeeva function w (the reflection w(-z) = 2 e^{-z^2} - w(z)
turns a negative gap into a positive one), whose argument stays in the
upper half-plane, where |w| <= 1: it is finite at every gap and separation,
and the cancelling subtraction of sin(Omega r) is never formed.
All three are verified term by term against an independent distributional
quadrature of the Wightman function (see :mod:`udwpair.wightman`).

A note on decay: the delta-function (sin) parts of the pair terms fall off
like e^{-r^2/4s^2}, but the principal-value parts fall off only like
(s/r)^2 e^{-s^2 Omega^2} / 2 pi.  Image sums therefore converge
polynomially, ~ 1/(n ell)^2 per term, not Gaussianly; the truncation
bookkeeping below reflects that.

Every coefficient has one numpy implementation that takes arrays
(``*_array``).  :func:`elements_batch` evaluates a whole (Omega, worldline)
grid with them at once: image sums run over n in a fixed order with one
array operation per n, and per-point failures are recorded in an ``errors``
array instead of being raised.  :func:`elements_for`, the one-point entry,
is a batch of one point that raises its error, so it agrees exactly with
the batch.

The scipy.special functions (erfc, erfcx, wofz, dawsn) are imported where
the kernels use them, at the first element evaluation, so importing the
package and resolving a configuration do not load scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    GeometryError,
    InvalidStateError,
    PositivityError,
    TruncationWarning,
)
from .geometry import (
    Topology,
    TopologyKind,
    WorldlinePair,
    image_classes,
    image_separation_array,
    self_pair,
    separation_array,
)

__all__ = [
    "DetectorParams",
    "XStateAB",
    "XStateBatch",
    "joint_excitation",
    "self_excitation_array",
    "exchange_array",
    "nonlocal_array",
    "image_terms",
    "elements_for",
    "elements_batch",
    "new_errors",
    "flag_errors",
    "assemble_density_matrix",
    "assembly_checks",
    "modulus",
]

_SQRT_PI = math.sqrt(math.pi)
#: Region |x| <= _SERIES_X, y <= _SERIES_Y (x = s Omega, y = r/2s) where
#: Im erfcx(|x| + iy) = Im w(-y + i|x|) is summed from its Taylor series in
#: y, for both gap signs: scipy's Faddeeva routine keeps only
#: absolute accuracy in Im w there (errors up to 2.3e-13 relative), while the
#: series (_SERIES_TERMS odd orders) stays within 3e-14.
_SERIES_X = 8.0
_SERIES_Y = 0.3
_SERIES_TERMS = 10
#: From y = sigma*Omega = _CF_Y on, the self term's 1 - sqrt(pi) y erfcx(y)
#: is summed as a continued fraction (_CF_TERMS terms, backwards): the
#: direct subtraction loses up to three digits by y = 24, while with the
#: fraction a stays within 4e-16 relative of mpmath for y in [4, 24].
_CF_Y = 4.0
_CF_TERMS = 60
#: Image separations within this many units of round-off (eps) of the
#: largest coordinate forming them count as coincident worldlines.
_COINCIDENT_ULPS = 4.0
#: Relative tail size above which an image sum warns about its truncation.
TRUNCATION_RTOL = 1e-12


@dataclass(frozen=True)
class DetectorParams:
    """One detector: energy gap, Gaussian switching width, coupling strength.

    ``omega`` may be negative (a de-excitation probe of an initially excited
    detector maps onto a negative gap at this order).
    """

    omega: float
    sigma: float
    eps0: float = 0.01

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise InvalidStateError(f"sigma must be > 0, got {self.sigma!r}")
        if not (math.isfinite(self.eps0) and self.eps0 > 0.0):
            raise InvalidStateError(f"eps0 must be > 0, got {self.eps0!r}")
        if not math.isfinite(self.omega):
            raise InvalidStateError(f"omega must be finite, got {self.omega!r}")


@dataclass(frozen=True)
class XStateAB:
    """Leading-order X-state data, stored as coefficients of eps0 powers.

    ``a``, ``b``, ``x``, ``c`` are per eps0^2.  The joint excitation ``e``
    (per eps0^4) is not stored: it is derived from them by
    :func:`joint_excitation`.  ``tail_bound``, keyword-only, estimates the
    magnitude omitted by truncating an image sum (zero for Minkowski space).
    """

    a: float
    b: float
    x: complex
    c: complex
    tail_bound: float = field(default=0.0, kw_only=True)

    @property
    def e(self) -> float:
        """E/eps0^4 = |x|^2 + a b + 2 |c|^2."""
        return float(joint_excitation(self.a, self.b, self.x, self.c))


class XStateBatch(NamedTuple):
    """:class:`XStateAB` fields as arrays of one common shape (``c`` is
    real), with ``e`` derived in the same way."""

    a: np.ndarray
    b: np.ndarray
    x: np.ndarray
    c: np.ndarray
    tail_bound: np.ndarray

    @property
    def e(self) -> np.ndarray:
        """E/eps0^4 = |x|^2 + a b + 2 |c|^2."""
        return joint_excitation(self.a, self.b, self.x, self.c)


def new_errors(shape) -> np.ndarray:
    """Per-point error slots for a batch: None where the point is valid."""
    return np.full(shape, None, dtype=object)


def flag_errors(
    errors: np.ndarray, bad, make: Callable[..., Exception], *values
) -> None:
    """Record ``make(v1, v2, ...)`` for every point where ``bad`` holds and
    no earlier error is recorded, so each point keeps the first failure in
    evaluation order, the one :func:`elements_for` raises.  The v's are the
    point's entries of ``values``, as Python numbers."""
    flat = errors.reshape(-1)
    for i in np.flatnonzero(np.broadcast_to(bad, errors.shape)):
        if flat[i] is None:
            flat[i] = make(
                *(np.broadcast_to(v, errors.shape).reshape(-1)[i].item() for v in values)
            )


def _raise_first(errors: np.ndarray) -> None:
    exc = errors.reshape(-1)[0]
    if exc is not None:
        raise exc


def complex_array(re, im) -> np.ndarray:
    """Complex array with the given real and imaginary parts, both exact."""
    re, im = np.broadcast_arrays(re, im)
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def modulus(z):
    """|z| as hypot(Re z, Im z), the same rounding as Python's abs(complex)."""
    return np.hypot(np.real(z), np.imag(z))


def joint_excitation(a, b, x, c):
    """E/eps0^4 = |x|^2 + a b + 2 |c|^2 for arrays (valid also when a != b).

    Where |x|^2 overflows it is inf, which the assembly checks record."""
    ax = modulus(x)
    ac = modulus(c)
    with np.errstate(over="ignore"):
        return ax * ax + a * b + 2.0 * (ac * ac)


def _special():
    # imported here: scipy.special is most of the package's import time, and
    # show-config, --help and config errors evaluate no element
    import scipy.special

    return scipy.special


def _piecewise(cases, *args):
    """Evaluate each (mask, fn) case on the points where its mask holds (NaN
    where none does)."""
    out = np.full(np.shape(args[0]), math.nan)
    for mask, fn in cases:
        if np.any(mask):
            out[mask] = fn(*(a[mask] for a in args))
    return out


def _self_term_nonnegative(y):
    # the scaled complement erfcx keeps the product finite; the subtraction
    # cancels like 1/2y^2, hence _self_term_large_gap from _CF_Y on
    return np.exp(-y * y) * (1.0 - _SQRT_PI * y * _special().erfcx(y)) / (4.0 * math.pi)


def _self_term_large_gap(y):
    """The self term for y >= _CF_Y without the cancellation of
    1 - sqrt(pi) y erfcx(y) ~ 1/2y^2: Laplace's continued fraction
    sqrt(pi) erfcx(y) = 1/(y + K), K = (1/2)/(y + 1/(y + (3/2)/(y + ...))),
    gives 1 - sqrt(pi) y erfcx(y) = K/(y + K)."""
    k = 0.0
    for j in range(_CF_TERMS, 0, -1):
        k = (0.5 * j) / (y + k)
    return np.exp(-y * y) * (k / (y + k)) / (4.0 * math.pi)


def _self_term_negative(y):
    return (np.exp(-y * y) - _SQRT_PI * y * _special().erfc(y)) / (4.0 * math.pi)


def self_excitation_array(y):
    """A/eps0^2 as a function of y = sigma*Omega, for arrays."""
    y = np.asarray(y, dtype=float)
    return _piecewise(
        (
            ((y >= 0.0) & (y < _CF_Y), _self_term_nonnegative),
            (y >= _CF_Y, _self_term_large_gap),
            (y < 0.0, _self_term_negative),
        ),
        y,
    )


def _im_erfcx_series(x, y):
    """Im erfcx(x + iy) = sum_m (-1)^m u^(2m+1)(x) y^(2m+1) / (2m+1)! with
    u = erfcx, u' = 2xu - 2/sqrt(pi) and u^(n+1) = 2x u^(n) + 2n u^(n-1)."""
    prev = _special().erfcx(x)
    cur = 2.0 * x * prev - 2.0 / _SQRT_PI
    term = y
    total = cur * term
    for m in range(1, _SERIES_TERMS):
        prev, cur = cur, 2.0 * x * cur + 2.0 * (2 * m - 1) * prev
        prev, cur = cur, 2.0 * x * cur + 4.0 * m * prev
        term = -term * (y * y) / (2 * m * (2 * m + 1))
        total = total + cur * term
    return total


def _im_erfcx_faddeeva(x, y):
    return _special().wofz(complex_array(-y, x)).imag


def _exchange_bracket(x, y):
    """e^{-y^2} Im[e^{2ixy} erf(x + iy)] - e^{-y^2} sin(2xy) for real arrays
    x and y >= 0 of one shape, as

        -e^{-x^2} Im erfcx(|x| + iy) - 2 [x < 0] e^{-y^2} sin(2xy)

    (erfcx(z) = 2 e^{z^2} - erfcx(-z) for x < 0), with
    Im erfcx(|x| + iy) = Im w(-y + i|x|).  It keeps full relative accuracy
    where the subtraction would cancel (small y, large x), stays nonzero
    where e^{-y^2} sin(2xy) alone would swamp it, and its two terms do not
    cancel at negative x.
    """
    ax = np.abs(x)
    series = (ax <= _SERIES_X) & (y <= _SERIES_Y)
    out = _piecewise(((series, _im_erfcx_series), (~series, _im_erfcx_faddeeva)), ax, y)
    out *= -np.exp(-x * x)
    neg = x < 0.0
    out[neg] -= 2.0 * np.exp(-y[neg] * y[neg]) * np.sin(2.0 * x[neg] * y[neg])
    return out


def exchange_array(sigma: float, omega, r):
    """C/eps0^2 at separations r > 0 for arrays of gaps and separations:
    sigma/(4 sqrt(pi) r) times the bracket of x = sigma*Omega and
    y = r/2 sigma (:func:`_exchange_bracket`).

    At r = |x - J^n x| the same function gives the n-th image term of a
    single detector's probability A (the detector correlating with its own
    image).
    """
    omega, r = np.broadcast_arrays(np.asarray(omega, dtype=float), np.asarray(r, dtype=float))
    return sigma / (4.0 * _SQRT_PI * r) * _exchange_bracket(sigma * omega, r / (2.0 * sigma))


def nonlocal_array(sigma: float, omega, r):
    """X/eps0^2 at separations r > 0 for arrays of gaps and separations.

    The Dawson representation
    e^{-r^2/4s^2} [1 + erf(i r/2s)] = e^{-r^2/4s^2} + i (2/sqrt(pi)) D(r/2s)
    keeps the evaluation finite at any separation.
    """
    x = sigma * np.asarray(omega, dtype=float)
    r = np.asarray(r, dtype=float)
    y = r / (2.0 * sigma)
    envelope = np.exp(-(x * x))
    bracket = complex_array(-2.0 / _SQRT_PI * _special().dawsn(y), np.exp(-y * y))
    return sigma / (4.0 * _SQRT_PI * r) * envelope * bracket


def _separation_error(r: float) -> GeometryError:
    return GeometryError(f"separation must be finite and > 0, got {r!r}")


def _flag_separation(errors: np.ndarray, r) -> None:
    flag_errors(errors, ~(np.isfinite(r) & (r > 0.0)), _separation_error, r)


def _flag_coincident_image(
    errors: np.ndarray, topology: Topology, pair: WorldlinePair, n: int, l_n
) -> None:
    """GeometryError naming ``n`` where detector B sits on the n-th image of
    detector A: where ``l_n`` = |x_A - J^n x_B| is at most _COINCIDENT_ULPS
    units of round-off of the largest coordinate that forms it (the
    positions, and the shift n ell), so that rounding alone sets it."""
    scale = abs(n) * topology.ell
    for coord in (*pair.d_a, *pair.d_b, pair.z_a, pair.z_b):
        scale = np.maximum(scale, np.abs(coord))
    roundoff = _COINCIDENT_ULPS * np.finfo(float).eps * scale
    flag_errors(
        errors,
        l_n <= roundoff,
        lambda r, tol: GeometryError(
            f"detector B sits on image n = {n} of detector A: separation {r!r} "
            f"is within the round-off {tol!r} of its coordinates"
        ),
        l_n,
        roundoff,
    )


def image_terms(
    sigma: float, omega, pair: WorldlinePair, topology: Topology, n: int,
    errors: np.ndarray,
):
    """(l_n, x_n, c_n) of image n: l_n = |x_A - J^n x_B| and the nonlocal
    and exchange terms at it, without the field's weight under J^n.  A
    point where l_n is round-off (detector B on image n of detector A), or
    not finite and > 0, gets a GeometryError in ``errors``."""
    l_n = image_separation_array(topology, pair, n)
    _flag_coincident_image(errors, topology, pair, n, l_n)
    _flag_separation(errors, l_n)
    return l_n, nonlocal_array(sigma, omega, l_n), exchange_array(sigma, omega, l_n)


def _add_images(
    a, x, c, omega, sigma: float, pair: WorldlinePair, topology: Topology, nmax: int,
    errors: np.ndarray,
) -> XStateBatch:
    """The n = 0 terms a, x, c plus their images n = -nmax..-1, 1..nmax,
    one array operation per n.

    On the cylinder the single-detector image separations |n| ell do not
    depend on the position, so b = a and only detector A's sum is formed.
    """
    same_b = topology.kind is TopologyKind.CYLINDER
    weights = [image.weight for image in image_classes(topology, pair)]
    pair_a = self_pair(pair.d_a, pair.z_a)
    pair_b = self_pair(pair.d_b, pair.z_b)
    b = a
    last_a = last_b = last_x = last_c = 0.0
    for n in [*range(-nmax, 0), *range(1, nmax + 1)]:
        w = weights[n % 2]
        r_a = image_separation_array(topology, pair_a, n)
        _flag_separation(errors, r_a)
        t_a = w * exchange_array(sigma, omega, r_a)
        a = a + t_a
        if not same_b:
            r_b = image_separation_array(topology, pair_b, n)
            _flag_separation(errors, r_b)
            t_b = w * exchange_array(sigma, omega, r_b)
            b = b + t_b
        _, x_n, c_n = image_terms(sigma, omega, pair, topology, n, errors)
        t_x = w * x_n
        t_c = w * c_n
        x = x + t_x
        c = c + t_c
        if abs(n) == nmax:
            last_a = last_a + np.abs(t_a)
            last_x = last_x + modulus(t_x)
            last_c = last_c + np.abs(t_c)
            if not same_b:
                last_b = last_b + np.abs(t_b)
    if same_b:
        b, last_b = a, last_a

    shape = errors.shape
    a, b, x, c = (np.broadcast_to(v, shape) for v in (a, b, x, c))
    # Terms decay ~ K/n^2, so the omitted tail is roughly |t_nmax| * nmax.
    last = [np.broadcast_to(v, shape) for v in (last_a, last_b, last_x, last_c)]
    tail = np.maximum(np.maximum(last[0], last[1]), np.maximum(last[2], last[3])) * nmax
    with np.errstate(divide="ignore", invalid="ignore"):
        worst = np.maximum.reduce(
            [lk / np.maximum(modulus(sk), 1e-300) for lk, sk in zip(last, (a, b, x, c))]
        )
    valid = np.array([err is None for err in errors.reshape(-1)]).reshape(shape)
    if np.any(valid & (worst > TRUNCATION_RTOL)):
        warnings.warn(
            f"image sum truncated at |n| <= {nmax} with last-term relative "
            f"size up to {np.max(worst[valid]):.2e}; estimated omitted tail up to "
            f"{np.max(tail[valid]):.2e} "
            "(principal-value parts decay only like 1/(n ell)^2)",
            TruncationWarning,
            stacklevel=3,
        )
    return XStateBatch(a, b, x, c, tail)


def elements_batch(
    omega, sigma: float, pair: WorldlinePair, topology: Topology, nmax: int,
    errors: np.ndarray,
) -> XStateBatch:
    """Elements on a grid: gaps ``omega`` and pair coordinates broadcast to
    ``errors.shape``.

    The Minkowski (n = 0) terms are formed for every topology; a quotient
    adds the image sums over 1 <= |n| <= ``nmax``.  A point for which
    :func:`elements_for` would raise gets that exception in ``errors``
    instead; its values are then meaningless.  Points that already carry an
    error keep it.
    """
    quotient = topology.kind is not TopologyKind.MINKOWSKI
    if quotient and nmax < 1:
        raise GeometryError(f"nmax must be >= 1, got {nmax!r}")
    omega = np.asarray(omega, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        length = separation_array(pair)
        _flag_separation(errors, length)
        a = self_excitation_array(sigma * omega)
        x = nonlocal_array(sigma, omega, length)
        c = exchange_array(sigma, omega, length)
        if quotient:
            return _add_images(a, x, c, omega, sigma, pair, topology, nmax, errors)
    a = np.broadcast_to(a, errors.shape)
    return XStateBatch(a, a, x, c, np.zeros(errors.shape))


def _as_batch(state: XStateAB) -> XStateBatch:
    """One-point batch holding the values of ``state``."""
    return XStateBatch(
        np.array([state.a], dtype=float),
        np.array([state.b], dtype=float),
        np.array([state.x], dtype=complex),
        np.array([state.c], dtype=complex),
        np.array([state.tail_bound], dtype=float),
    )


def elements_for(
    p: DetectorParams, pair: WorldlinePair, topology: Topology, nmax: int = 10
) -> XStateAB:
    """Elements of one detector pair, by :func:`elements_batch` on one point.

    Raises the error that the batch records for the point.  b = a in
    Minkowski space and on the cylinder.  On the twisted cylinder the odd
    self images of detector k lie across the axis, in the odd class of the
    pair (k, k) at transverse distance 2 |d_k|, so a and b differ whenever
    |d_A| != |d_B|.
    """
    errors = new_errors((1,))
    state = elements_batch(np.array([p.omega]), p.sigma, pair, topology, nmax, errors)
    _raise_first(errors)
    a, b, x, c, tail = (v[0] for v in state)
    return XStateAB(
        a=float(a), b=float(b), x=complex(x), c=complex(c), tail_bound=float(tail)
    )


class Assembled(NamedTuple):
    """Diagonal (r11..r44) and anti-diagonal (rho14 = X, rho23 = C) entries."""

    r11: np.ndarray
    r22: np.ndarray
    r33: np.ndarray
    r44: np.ndarray
    x14: np.ndarray
    x23: np.ndarray


def _flag_probability(errors: np.ndarray, name: str, val) -> None:
    flag_errors(
        errors,
        ~((0.0 <= val) & (val <= 1.0)),
        lambda v: InvalidStateError(
            f"{name} = {v!r} outside [0, 1]; eps0 too large or invalid state"
        ),
        val,
    )


def _flag_positivity(errors: np.ndarray, name: str, z, bound_name: str, bound) -> None:
    """PositivityError where |z|^2 exceeds ``bound`` by more than 1e-12."""
    mod = modulus(z)
    sq = mod * mod
    flag_errors(
        errors,
        sq > bound + 1e-12,
        lambda u, v: PositivityError(f"{name} = {u!r} exceeds {bound_name} = {v!r}"),
        sq,
        bound,
    )


def assembly_checks(state, eps0: float, errors: np.ndarray) -> Assembled:
    """The physical X-state entries of a batch, with the checks of
    :func:`assemble_density_matrix` recorded per point in ``errors``."""
    if not (math.isfinite(eps0) and eps0 > 0.0):
        raise InvalidStateError(f"eps0 must be > 0, got {eps0!r}")
    e2 = eps0 * eps0
    big_a = e2 * state.a
    big_b = e2 * state.b
    big_x = e2 * state.x
    big_c = e2 * state.c
    big_e = e2 * e2 * state.e
    _flag_probability(errors, "A", big_a)
    _flag_probability(errors, "B", big_b)
    r11 = 1.0 - big_a - big_b + big_e
    r22 = big_b - big_e
    r33 = big_a - big_e
    r44 = big_e
    with np.errstate(invalid="ignore", over="ignore"):
        _flag_positivity(errors, "|X|^2", big_x, "r11 r44", r11 * r44)
        _flag_positivity(errors, "|C|^2", big_c, "r22 r33", r22 * r33)
    return Assembled(r11, r22, r33, r44, big_x, big_c)


def assemble_density_matrix(state: XStateAB, eps0: float) -> np.ndarray:
    """Assemble the physical 4x4 density matrix from eps0-scaled coefficients.

    Raises :class:`PositivityError` when either positivity condition
    r11 r44 >= |X|^2 or r22 r33 >= |C|^2 fails beyond 1e-12, which signals a
    coupling too strong for the leading-order truncation.
    """
    errors = new_errors((1,))
    ent = assembly_checks(_as_batch(state), eps0, errors)
    _raise_first(errors)
    r11, r22, r33, r44 = (float(v[0]) for v in ent[:4])
    x14 = complex(ent.x14[0])
    x23 = complex(ent.x23[0])
    return np.array(
        [
            [r11, 0.0, 0.0, x14],
            [0.0, r22, x23, 0.0],
            [0.0, x23.conjugate(), r33, 0.0],
            [x14.conjugate(), 0.0, 0.0, r44],
        ],
        dtype=complex,
    )
