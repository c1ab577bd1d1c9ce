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
quotients.  It computes only the coefficients: rho itself, and the checks
that it is a state, are in :mod:`udwpair.entanglement`.

The kernels take the gap as y = sigma*Omega and every length in units of
the switching width sigma: the separation as rho = r/sigma, the topology's
scale as ell/sigma.  For a static pair at separation rho > 0 the three
building blocks are

    self term      a(y)      = (1/4 pi) [e^{-y^2} - sqrt(pi) y erfc(y)]
    exchange term  c(y, rho) = (1 / 4 sqrt(pi) rho) e^{-rho^2/4}
                                 ( Im[e^{i y rho} erf(y + i rho/2)]
                                   - sin(y rho) )
    nonlocal term  x(y, rho) = (1 / 4 sqrt(pi) rho) e^{-y^2}
                                 [ i e^{-rho^2/4} - (2/sqrt(pi)) D(rho/2) ]

where D is Dawson's integral.  For both gap signs the exchange term's
e^{-rho^2/4}( ... ) is evaluated as

    -e^{-y^2} Im w(-rho/2 + i|y|) - 2 [y < 0] e^{-rho^2/4} sin(y rho)

with the Faddeeva function w (the reflection w(-z) = 2 e^{-z^2} - w(z)
turns a negative gap into a positive one), whose argument stays in the
upper half-plane, where |w| <= 1: it is finite at every gap and separation,
and the cancelling subtraction of sin(y rho) is never formed.
All three are verified term by term against an independent distributional
quadrature of the Wightman function (see :mod:`udwpair.wightman`).

A note on decay: the delta-function (sin) parts of the pair terms fall off
like e^{-rho^2/4}, but the principal-value parts fall off only like
e^{-y^2} / 2 pi rho^2.  Image sums therefore converge polynomially,
~ 1/(n ell)^2 per term, not Gaussianly; the truncation bookkeeping below
reflects that.

Every coefficient has one numpy implementation that takes arrays
(``*_array``).  :func:`elements_batch` evaluates a whole (y, worldline)
grid with them at once, and per-point failures are recorded in an
``errors`` array instead of being raised.  An image sum evaluates all its
images in one stacked pass, in chunks of consecutive n that keep memory
O(grid): the separations of every image at once, their checks, and each
distinct separation's exchange and nonlocal terms once against every gap.
The terms are then added one n at a time in the fixed order
n = -nmax..-1, 1..nmax, so every output bit is that of a loop over n.

:func:`elements_for`, the one-point entry, takes the same units: it
runs a batch of one point and raises the point's error, so it agrees
exactly with the batch.

The special functions are one numpy kernel, :func:`_faddeeva`, the
Faddeeva function w(z) = e^{-z^2} erfc(-iz) in the upper half-plane by
Weideman's rational approximation with N = 40 terms (J. A. C. Weideman,
SIAM J. Numer. Anal. 31, 1497 (1994)).  The self term's erfcx and erfc,
Dawson's integral of the nonlocal term and Im w of the exchange term all
come from it, so evaluating an element loads no module beyond numpy.
The gap envelope e^{-y^2} of all three terms is the exponential of y^2
split into a rounded square and its exact error (:func:`_gap_envelope`),
so it keeps full relative accuracy up to its underflow at |y| ~ 27.3.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable

import numpy as np

from .config import TopologyKind
from .errors import (
    DomainError,
    GeometryError,
    InvalidStateError,
    TruncationWarning,
)
from .geometry import (
    Topology,
    WorldlinePair,
    image_classes,
    image_separation_array,
    self_pair,
    separation_array,
)

__all__ = [
    "XStateAB",
    "check_gap",
    "gap_error",
    "joint_excitation",
    "self_excitation_array",
    "exchange_array",
    "nonlocal_array",
    "image_terms",
    "elements_for",
    "elements_batch",
    "TruncationTally",
    "new_errors",
    "flag_errors",
    "raise_first",
    "modulus",
]

_SQRT_PI = math.sqrt(math.pi)
#: Weideman's w(z) with N = 40 terms: L = sqrt(N / sqrt 2) and the real
#: coefficients a_1..a_N of p(Z) (:func:`_faddeeva_block`), each the
#: correctly rounded value of a_n = (1/2M) sum_{|k| < M} f(t_k) cos(n theta_k),
#: M = 2N, theta_k = k pi/M, t_k = L tan(theta_k/2), f(t) = e^{-t^2} (L^2 + t^2)
#: (tests/test_special.py recomputes them with mpmath).
_WEIDEMAN_L = math.sqrt(40.0 / math.sqrt(2.0))
_WEIDEMAN_COEFFS = (
    2.8996245093897053, 2.61605415276186, 2.201513794878312, 1.7253830848179779,
    1.2563815675765133, 0.8472174576593818, 0.5266528988277086, 0.29989437996150065,
    0.15504263802479495, 0.07182361779074337, 0.029202916471241867, 0.010048186242783424,
    0.0027054056330737914, 0.0004398070159869668, -3.939363145489569e-05,
    -5.591309264248318e-05, -1.8007447144750956e-05, -1.0660138984947143e-06,
    1.483566113220078e-06, 5.912136951899494e-07, 1.4198642399935674e-08,
    -6.35177348504429e-08, -1.8315616783040462e-08, 3.2497465180436973e-09,
    3.0177805400090707e-09, 2.1086006347066517e-10, -3.5632339865976533e-10,
    -9.055124450928292e-11, 3.47272670930455e-11, 1.7714495214011192e-11,
    -2.7276023158200452e-12, -2.907688342182867e-12, 1.2031458219387989e-13,
    4.5329666782606727e-13, 1.37256205867155e-14, -7.074086260286855e-14,
    -5.409310282882142e-15, 1.1357687198999241e-14, 1.128073562364402e-15,
    -1.899694947394927e-15,
)
#: Points per block of the w kernel, whose (4 x block) complex arrays
#: stay in cache.
_FADDEEVA_BLOCK = 2048
#: From y = _CF_Y on, the self term's 1 - sqrt(pi) y erfcx(y)
#: is summed as a continued fraction (_CF_TERMS terms, backwards): the
#: direct subtraction cancels like 1/2y^2, off by 1.4e-14 relative at
#: y = 3.88 and up to three digits by y = 24.  With 60 terms the fraction
#: is within 4e-16 relative of 50-digit mpmath from y = 2 (3.4e-16 on
#: 3000 random y in [2, 24]), and not below y = 1.97.
_CF_Y = 2.0
_CF_TERMS = 60
#: Image separations within this many units of round-off (eps) of the
#: largest coordinate forming them count as coincident worldlines.
_COINCIDENT_ULPS = 4.0
#: Image terms x grid points that one chunk of an image sum evaluates at
#: once: it bounds the memory of the stacked pass at any nmax, and keeps a
#: 64 x 64 grid at the default nmax = 10 (20 images) in one chunk.
_IMAGE_CHUNK = 1 << 17
#: Table entries (gaps x image separations) that one kernel call of an
#: image sum evaluates: the kernels' temporaries take about 90 bytes each.
_KERNEL_SLICE = 1 << 14
#: Relative tail size above which an image sum warns about its truncation.
TRUNCATION_RTOL = 1e-12


@dataclass(frozen=True)
class XStateAB:
    """Leading-order X-state data, stored as coefficients of eps0 powers:
    arrays of one common shape for a batch, Python numbers for one point.

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
        e = joint_excitation(self.a, self.b, self.x, self.c)
        return float(e) if np.ndim(e) == 0 else e


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


def raise_first(errors: np.ndarray) -> None:
    """Raise the error recorded for the first point, if any."""
    exc = errors.reshape(-1)[0]
    if exc is not None:
        raise exc


def complex_array(re, im) -> np.ndarray:
    """Complex array with the given real and imaginary parts (arrays of one
    shape), both exact."""
    out = np.empty(np.shape(re), dtype=complex)
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


def veltkamp_split(a):
    """Veltkamp's split of doubles into halves of 26 bits: hi + lo == a
    (for |a| below about 1.3e300, where 2**27 a overflows)."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _gap_envelope(y):
    """e^{-y^2} for arrays, from y^2 = hi + lo, hi the rounded square and
    lo its error (Dekker's two-product), as e^{-hi} (1 - lo): exp of the
    rounded square alone is off by up to y^2 eps/2 relative.  |y| is
    capped at 64 before the split, which cannot overflow there, and past
    27.3 e^{-hi} underflows to 0 either way."""
    y = np.minimum(np.abs(y), 64.0)
    hi = y * y
    y_hi, y_lo = veltkamp_split(y)
    lo = ((y_hi * y_hi - hi) + 2.0 * (y_hi * y_lo)) + y_lo * y_lo
    return np.exp(-hi) * (1.0 - lo)


@cache
def _weideman_chains() -> np.ndarray:
    """p(Z) = sum_j Z^j P_j(Z^4) (j = 0..3) with each P_j in powers of
    e = Z^4 - 1: entry [k, j] of the (10, 4, 1) table is the coefficient of
    e^k in 2 P_j, 2 sum_m C(m, k) a_(4m+j+1), correctly rounded from the
    exact sum of the frozen a_n (the factor 2 of w's 2 u p(Z), which
    changes no bit).  Built at the first call."""
    a = [Fraction(c) for c in _WEIDEMAN_COEFFS]
    shifted = [
        [float(2 * sum(math.comb(m, k) * a[4 * m + j] for m in range(k, 10))) for j in range(4)]
        for k in range(10)
    ]
    table = np.array(shifted, dtype=complex).reshape(10, 4, 1)
    table.flags.writeable = False
    return table


def _faddeeva_block(x, y) -> np.ndarray:
    """w(x + iy) on 1-D arrays with y >= 0, by Weideman's form: with
    u = 1/(L - iz) and Z = (L + iz)/(L - iz),

        w(z) = u (1/sqrt(pi) + 2 u p(Z)),   p(Z) = sum_k a_(k+1) Z^k.

    Near the imaginary axis Im w is far below |w|, and it is carried by the
    small imaginary parts of Z and of its powers, which the rounding of a
    power near 1 would swamp.  So no power of Z is formed: p is summed as
    four Horner chains in e = Z^4 - 1 (:func:`_weideman_chains`) and
    combined by q Z = q + q (Z - 1).  Z - 1 = 2iz u and Z + 1 = 2L u are
    formed free of cancellation, and e = (Z^2 - 1)(Z^2 + 1) with
    Z^2 - 1 = (Z - 1)(Z + 1); only Z^2 + 1 cancels, near Z = +-i (z = +-L),
    where Im w is of the order of |w|.
    With x and L + y scaled by the larger of them, nothing overflows at
    any finite z.  Each complex product goes to an array that is none of
    its inputs: numpy rounds an in-place complex product in another loop
    than one with a separate output, and a point's bits must not depend on
    its batch."""
    a = _WEIDEMAN_L + y
    s = np.maximum(a, np.abs(x))
    a_s, x_s, y_s = a / s, x / s, y / s
    xx = x_s * x_s
    q = a_s * a_s + xx
    u = complex_array(a_s / q / s, x_s / q / s)
    # Z - 1, whose real part is -2 (x^2 + y^2 + L y)/|L - iz|^2
    z_minus = complex_array(
        -2.0 * (xx + y_s * (y_s + _WEIDEMAN_L / s)) / q, (2.0 * _WEIDEMAN_L) * u.imag
    )
    sq_minus = z_minus * ((2.0 * _WEIDEMAN_L) * u)
    chains = _weideman_chains()
    e = np.empty((len(chains[0]), x.size), dtype=complex)
    np.multiply(sq_minus, sq_minus + 2.0, out=e)
    acc = chains[-1] * e
    tmp = np.empty_like(acc)
    for column in chains[-2:0:-1]:
        np.add(acc, column, out=tmp)
        np.multiply(tmp, e, out=acc)
    np.add(acc, chains[0], out=tmp)
    p0, p1, p2, p3 = tmp  # 2 P_j
    p = p3 + p3 * z_minus + p2
    p = p + p * z_minus + p1
    p = p + p * z_minus + p0
    return u * (u * p + 1.0 / _SQRT_PI)


def _faddeeva(x, y) -> tuple[np.ndarray, np.ndarray]:
    """(Re w, Im w) of the Faddeeva function w(z) = e^{-z^2} erfc(-iz) at
    z = x + iy, y >= 0, for arrays that broadcast: within 2e-15 relative
    of the parts that the element kernels take (Re w on the imaginary
    axis, Im w elsewhere), finite at any finite z.

    The points are evaluated in blocks of _FADDEEVA_BLOCK, as 1-D arrays
    (numpy's 0-d complex arithmetic rounds differently from its array
    loops), so every point's value is the same in any batch."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    shape = x.shape
    x, y = x.ravel(), y.ravel()
    re, im = np.empty(x.size), np.empty(x.size)
    for start in range(0, x.size, _FADDEEVA_BLOCK):
        block = slice(start, start + _FADDEEVA_BLOCK)
        w = _faddeeva_block(x[block], y[block])
        re[block], im[block] = w.real, w.imag
    return re.reshape(shape), im.reshape(shape)


def _erfcx(y):
    """The scaled complement e^{y^2} erfc(y) = Re w(iy) for arrays y >= 0."""
    return _faddeeva(0.0, y)[0]


def _piecewise(cases, *args):
    """Evaluate each (mask, fn) case on the points where its mask holds (NaN
    where none does)."""
    out = np.full(np.shape(args[0]), math.nan)
    for mask, fn in cases:
        if np.any(mask):
            out[mask] = fn(*(a[mask] for a in args))
    return out


def _self_term_small_gap(y):
    """The self term for y < _CF_Y from erfcx(|y|): at y >= 0 as
    e^{-y^2} (1 - sqrt(pi) y erfcx(y)), where the scaled complement keeps
    the product finite (the subtraction cancels like 1/2y^2, hence
    :func:`_self_term_large_gap` from _CF_Y on), and at y < 0 from
    erfc(y) = 2 - e^{-y^2} erfcx(-y)."""
    envelope = _gap_envelope(y)
    scaled = _erfcx(np.abs(y))
    nonnegative = envelope * (1.0 - _SQRT_PI * y * scaled)
    negative = envelope - _SQRT_PI * y * (2.0 - envelope * scaled)
    return np.where(y < 0.0, negative, nonnegative) / (4.0 * math.pi)


def _self_term_large_gap(y):
    """The self term for y >= _CF_Y without the cancellation of
    1 - sqrt(pi) y erfcx(y) ~ 1/2y^2: Laplace's continued fraction
    sqrt(pi) erfcx(y) = 1/(y + K), K = (1/2)/(y + 1/(y + (3/2)/(y + ...))),
    gives 1 - sqrt(pi) y erfcx(y) = K/(y + K)."""
    k = 0.0
    for j in range(_CF_TERMS, 0, -1):
        k = (0.5 * j) / (y + k)
    return _gap_envelope(y) * (k / (y + k)) / (4.0 * math.pi)


def self_excitation_array(y):
    """A/eps0^2 as a function of y = sigma*Omega, for arrays."""
    y = np.asarray(y, dtype=float)
    return _piecewise(
        ((y < _CF_Y, _self_term_small_gap), (y >= _CF_Y, _self_term_large_gap)),
        y,
    )


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
    out = _faddeeva(-y, np.abs(x))[1]
    out *= -_gap_envelope(x)
    neg = x < 0.0
    out[neg] -= 2.0 * np.exp(-y[neg] * y[neg]) * np.sin(2.0 * x[neg] * y[neg])
    return out


def exchange_array(y, rho):
    """C/eps0^2 at separations rho > 0 for arrays of gaps and separations:
    1/(4 sqrt(pi) rho) times the bracket of y and rho/2
    (:func:`_exchange_bracket`).

    At rho = |x - J^n x| the same function gives the n-th image term of a
    single detector's probability A (the detector correlating with its own
    image).
    """
    y, rho = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(rho, dtype=float))
    return 1.0 / (4.0 * _SQRT_PI * rho) * _exchange_bracket(y, rho / 2.0)


def nonlocal_array(y, rho):
    """X/eps0^2 at separations rho > 0 for arrays of gaps and separations.

    The Dawson representation
    e^{-rho^2/4} [1 + erf(i rho/2)] = e^{-rho^2/4} + i (2/sqrt(pi)) D(rho/2)
    keeps the evaluation finite at any separation.
    """
    y = np.asarray(y, dtype=float)
    rho = np.asarray(rho, dtype=float)
    half = rho / 2.0
    # (2/sqrt(pi)) D(rho/2) = Im w(rho/2)
    bracket = complex_array(-_faddeeva(half, 0.0)[1], np.exp(-half * half))
    return 1.0 / (4.0 * _SQRT_PI * rho) * _gap_envelope(y) * bracket


#: The smallest separation the closed forms and the oracle
#: (:mod:`udwpair.wightman`) take, the smallest normal float: below it rho
#: has lost precision, x ~ 1/rho overflows from about 7.8e-310 on, and the
#: oracle's 1/(2 r) under 2.8e-309
MIN_SEPARATION = float(np.finfo(float).tiny)


def _separation_error(r: float) -> DomainError | GeometryError:
    if 0.0 < r < MIN_SEPARATION:
        return DomainError(
            f"the closed forms take separations from {MIN_SEPARATION!r} sigma, the "
            f"smallest normal float, this one is {r!r} sigma"
        )
    return GeometryError(f"separation must be finite and > 0, got {r!r}")


def _bad_separation(r):
    return ~(np.isfinite(r) & (r >= MIN_SEPARATION))


def _flag_separation(errors: np.ndarray, r) -> None:
    flag_errors(errors, _bad_separation(r), _separation_error, r)


def _coincident_error(n: int, r: float, tol: float) -> GeometryError:
    return GeometryError(
        f"detector B sits on image n = {n} of detector A: separation {r!r} "
        f"is within the round-off {tol!r} of its coordinates"
    )


def _flag_images(errors: np.ndarray, checks) -> None:
    """Record, at each point without an error, the first check that fails
    in the order of a loop over the images: image by image along the
    leading axis, and within an image in the order of ``checks``.  Each
    check is ``(bad, make, *values)``, all stacked along that leading axis
    and broadcasting against ``errors`` behind it; the error is
    ``make(v1, v2, ...)`` of the failing image's values at the point, as
    Python numbers (as in :func:`flag_errors`)."""
    if not any(np.any(bad) for bad, *_ in checks):
        return
    full = (np.shape(checks[0][0])[0], *errors.shape)
    bad = np.stack([np.broadcast_to(check[0], full) for check in checks], axis=1)
    bad = bad.reshape(-1, errors.size)
    first = bad.argmax(axis=0)
    flat = errors.reshape(-1)
    for i in np.flatnonzero(bad.any(axis=0)):
        if flat[i] is None:
            image, k = divmod(int(first[i]), len(checks))
            _, make, *values = checks[k]
            at = (image, *np.unravel_index(i, errors.shape))
            flat[i] = make(*(np.broadcast_to(v, full)[at].item() for v in values))


def _split(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """``flat`` cut into consecutive pieces of the given shapes."""
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    return [piece.reshape(shape) for piece, shape in zip(np.split(flat, ends[:-1]), shapes)]


def _kernel_tables(y, seps):
    """The exchange and nonlocal terms of the gaps ``y`` at every array of
    ``seps`` (stacked image separations that broadcast against ``y``):
    flat tables ``(exchange, nonlocal)``, and ``(gap, at)``, where
    ``gap + at[j]`` indexes the entries of ``seps[j]`` in them.

    Each distinct separation (by bit pattern) is evaluated once, against
    every gap: the tables span (gaps x distinct separations).  Where that
    product would exceed the entries asked for (gaps and separations that
    vary together rather than on a grid), the kernels run on the entries
    themselves.  Either way every entry is the value of
    :func:`exchange_array` and :func:`nonlocal_array` at its own gap and
    separation, bit for bit.  The kernels run on _KERNEL_SLICE table
    entries at a time, which bounds their temporaries.
    """
    shapes = [np.broadcast_shapes(y.shape, np.shape(r)) for r in seps]
    flat = np.concatenate([np.ravel(r) for r in seps])
    distinct, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    if y.size * distinct.size > sum(map(math.prod, shapes)):
        gaps = np.concatenate([np.broadcast_to(y, s).ravel() for s in shapes])
        r = np.concatenate([np.broadcast_to(v, s).ravel() for v, s in zip(seps, shapes)])
        gap, at = 0, _split(np.arange(r.size), shapes)
    else:
        gaps, r = y.reshape(-1, 1), distinct.view(np.float64)
        gap = np.arange(y.size).reshape(y.shape) * r.size
        at = _split(inverse, [np.shape(v) for v in seps])
    shape = np.broadcast_shapes(gaps.shape, r.shape)
    exchange = np.empty(shape)
    nonlocal_ = np.empty(shape, dtype=complex)
    step = max(1, _KERNEL_SLICE * r.size // max(1, math.prod(shape)))
    for start in range(0, r.size, step):
        cols = slice(start, start + step)
        g = gaps[cols] if gaps.shape == r.shape else gaps  # entries, or a gap column
        exchange[..., cols] = exchange_array(g, r[cols])
        nonlocal_[..., cols] = nonlocal_array(g, r[cols])
    return exchange.reshape(-1), nonlocal_.reshape(-1), gap, at


def _image_terms(
    y, pair: WorldlinePair, topology: Topology, ns, errors: np.ndarray, selves=()
):
    """(l_n, x_n, c_n, self_terms) of the images ``ns``, stacked in that
    order along a leading axis: l_n = |x_A - J^n x_B|, the nonlocal and
    exchange terms at it, and the exchange term at the separation of each
    self pair in ``selves`` from its own image n, all without the field's
    weight under J^n.

    The checks of each image are recorded in ``errors`` in the order of a
    loop over the images (:func:`_flag_images`): every self separation
    finite and > 0, then l_n not round-off, then l_n finite and > 0.  l_n
    is round-off, and detector B sits on image n of detector A, where it is
    at most _COINCIDENT_ULPS units of round-off of the largest coordinate
    that forms it (the positions, and the shift n ell).
    """
    n = np.reshape(ns, (-1,) + (1,) * errors.ndim)
    selves = [image_separation_array(topology, p, n) for p in selves]
    l_n = image_separation_array(topology, pair, n)
    with np.errstate(over="ignore"):
        scale = np.abs(n) * topology.ell
    for coord in (*pair.d_a, *pair.d_b, pair.z_a, pair.z_b):
        scale = np.maximum(scale, np.abs(coord))
    roundoff = _COINCIDENT_ULPS * np.finfo(float).eps * scale
    checks = [(_bad_separation(r), _separation_error, r) for r in selves]
    checks += [
        (l_n <= roundoff, _coincident_error, n, l_n, roundoff),
        (_bad_separation(l_n), _separation_error, l_n),
    ]
    _flag_images(errors, checks)
    exchange, nonlocal_, gap, (*at_selves, at_l) = _kernel_tables(y, [*selves, l_n])
    at_l = gap + at_l
    x_n = np.take(nonlocal_, at_l)
    c_n = np.take(exchange, at_l)
    return l_n, x_n, c_n, [np.take(exchange, gap + at) for at in at_selves]


def image_terms(y, pair: WorldlinePair, topology: Topology, ns, errors: np.ndarray):
    """(l_n, x_n, c_n) of the images ``ns``, stacked in that order along a
    leading axis: l_n = |x_A - J^n x_B| and the nonlocal and exchange terms
    at it, without the field's weight under J^n.  A point where l_n is
    round-off (detector B on image n of detector A), or not finite and > 0,
    gets a GeometryError in ``errors``: the first of them over ``ns``.
    The kernels run under the floating-point state of
    :func:`elements_batch`: a value past the float range gives no warning
    (e^{-rho^2/4} is 0 where rho^2 overflows, y rho may be inf)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _image_terms(np.asarray(y, dtype=float), pair, topology, ns, errors)[:3]


class TruncationTally:
    """The truncation of the image sums of one or more batches: the largest
    relative size of a last term and the largest estimated omitted tail,
    over the points without an error.  :meth:`warn` gives one
    :class:`TruncationWarning` for all the batches, when a last term of
    any of them exceeded ``TRUNCATION_RTOL``."""

    def __init__(self) -> None:
        self.exceeded = False
        self.worst: list[float] = []
        self.tail: list[float] = []

    def add(self, worst: np.ndarray, tail: np.ndarray, valid: np.ndarray) -> None:
        if valid.any():
            self.exceeded |= bool(np.any(worst[valid] > TRUNCATION_RTOL))
            self.worst.append(np.max(worst[valid]))
            self.tail.append(np.max(tail[valid]))

    def warn(self, nmax: int, stacklevel: int = 1) -> None:
        if self.exceeded:
            warnings.warn(
                f"image sum truncated at |n| <= {nmax} with last-term relative "
                f"size up to {np.max(self.worst):.2e}; estimated omitted tail up to "
                f"{np.max(self.tail):.2e} "
                "(principal-value parts decay only like 1/(n ell)^2)",
                TruncationWarning,
                stacklevel=stacklevel + 1,
            )


def _add_images(
    a, x, c, y, pair: WorldlinePair, topology: Topology, nmax: int, errors: np.ndarray,
    truncation: TruncationTally | None,
) -> XStateAB:
    """The n = 0 terms a, x, c plus their images n = -nmax..-1, 1..nmax.

    The images are evaluated in one stacked pass (:func:`_image_terms`):
    in chunks of consecutive n of at most _IMAGE_CHUNK image terms x grid
    points (at least one image), so that memory stays O(grid) at any
    ``nmax``, with each distinct separation of a chunk evaluated once.
    The terms are then added in the order n = -nmax..-1, 1..nmax, one
    addition per n, so the sums do not depend on the chunking.

    On the cylinder the single-detector image separations |n| ell do not
    depend on the position, so b = a and only detector A's sum is formed.
    """
    same_b = topology.kind is TopologyKind.CYLINDER
    weights = [image.weight for image in image_classes(topology, pair)]
    selves = [self_pair(pair.d_a, pair.z_a)]
    if not same_b:
        selves.append(self_pair(pair.d_b, pair.z_b))
    images = [*range(-nmax, 0), *range(1, nmax + 1)]
    chunk = max(1, _IMAGE_CHUNK // max(1, errors.size))
    b = a
    last_a = last_b = last_x = last_c = 0.0
    for start in range(0, len(images), chunk):
        ns = images[start : start + chunk]
        _, x_n, c_n, self_terms = _image_terms(y, pair, topology, ns, errors, selves)
        for k, n in enumerate(ns):
            w = weights[n % 2]
            t_a = w * self_terms[0][k]
            a = a + t_a
            if not same_b:
                t_b = w * self_terms[1][k]
                b = b + t_b
            t_x = w * x_n[k]
            t_c = w * c_n[k]
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
    tally = TruncationTally() if truncation is None else truncation
    tally.add(worst, tail, np.equal(errors, None))
    if truncation is None:
        tally.warn(nmax, stacklevel=3)
    return XStateAB(a, b, x, c, tail_bound=tail)


def elements_batch(
    y, pair: WorldlinePair, topology: Topology, nmax: int, errors: np.ndarray,
    truncation: TruncationTally | None = None,
) -> XStateAB:
    """Elements on a grid: gaps y = sigma*Omega and pair coordinates (in
    units of sigma, as is ``topology.ell``) broadcast to ``errors.shape``.

    The Minkowski (n = 0) terms are formed for every topology; a quotient
    adds the image sums over 1 <= |n| <= ``nmax``.  A point for which
    :func:`elements_for` would raise gets that exception in ``errors``
    instead; its values are then meaningless.  Points that already carry an
    error keep it.  A quotient's image-sum truncation is added to
    ``truncation`` when it is given (to warn once for several batches),
    else the batch warns on its own.
    """
    quotient = topology.kind is not TopologyKind.MINKOWSKI
    if quotient and nmax < 1:
        raise GeometryError(f"nmax must be >= 1, got {nmax!r}")
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        length = separation_array(pair)
        _flag_separation(errors, length)
        a = self_excitation_array(y)
        x = nonlocal_array(y, length)
        c = exchange_array(y, length)
        if quotient:
            return _add_images(a, x, c, y, pair, topology, nmax, errors, truncation)
    a = np.broadcast_to(a, errors.shape)
    return XStateAB(a, a, x, c, tail_bound=np.zeros(errors.shape))


def gap_error(y: float) -> InvalidStateError:
    """The error of a gap y = sigma*Omega that is not finite."""
    return InvalidStateError(f"omega must be finite, got {y!r}")


def check_gap(y: float) -> None:
    """Raise :func:`gap_error` unless the gap y = sigma*Omega that a
    one-point entry takes from its caller is finite."""
    if not math.isfinite(y):
        raise gap_error(y)


def elements_for(
    y: float, pair: WorldlinePair, topology: Topology, nmax: int = 10
) -> XStateAB:
    """Elements of one detector pair, by :func:`elements_batch` on one point
    at the gap y = sigma*Omega, with the pair's coordinates and ell in
    units of sigma.

    Raises the error that the batch records for the point.  b = a in
    Minkowski space and on the cylinder.  On the twisted cylinder the odd
    self images of detector k lie across the axis, in the odd class of the
    pair (k, k) at transverse distance 2 |d_k|, so a and b differ whenever
    |d_A| != |d_B|.
    """
    check_gap(y)
    errors = new_errors((1,))
    state = elements_batch(np.array([y]), pair, topology, nmax, errors)
    raise_first(errors)
    return XStateAB(
        float(state.a[0]), float(state.b[0]), complex(state.x[0]), complex(state.c[0]),
        tail_bound=float(state.tail_bound[0]),
    )
