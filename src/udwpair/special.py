"""Overflow-safe error-function family for the detector matrix elements.

Every closed-form matrix element reduces to four primitives: the error
function of a complex argument, the real complementary error function,
Dawson's integral D(y) = e^{-y^2} \\int_0^y e^{t^2} dt, and products of the
form e^{-alpha} erf(z) in which neither factor is representable on its own.
All of them are derived from a single Faddeeva-style kernel

    w(z) = e^{-z^2} erfc(-i z),

evaluated by SciPy's ``wofz`` (relative accuracy around 1e-14), so a single
approximation carries all the accuracy requirements.  The overflow-safe
combinations are assembled here analytically in the exponent:

    e^{-alpha} erf(z)            = e^{-alpha} - e^{-alpha - z^2} w(iz),
    e^{-y^2} e^{2ixy} erf(x+iy)  = e^{-y^2 + 2ixy} - e^{-x^2} w(-y + ix),

where the second identity (``phase_scaled_erf``) is finite for *all* real
x, y because -y + ix keeps the Faddeeva argument in the bounded half-plane
for x >= 0 (and a reflection handles x < 0).

The validated domain for the complex-argument entry points is
|Re z| <= 50, |Im z| <= 50; outside it a :class:`DomainError` is raised.
Inside it, a result whose true magnitude exceeds double-precision range
raises :class:`RangeOverflowError` instead of returning ``inf``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import scipy.special as _sp

from .errors import DomainError, RangeOverflowError

__all__ = [
    "VALIDATED_BOUND",
    "erf_complex",
    "erfc_real",
    "dawson",
    "scaled_erf_product",
    "phase_scaled_erf",
    "phase_scaled_erf_array",
    "complex_array",
    "modulus",
]

#: Half-width of the validated square domain for complex arguments.
VALIDATED_BOUND = 50.0

# exp() of a real part above this limit is not representable in float64
_EXP_OVERFLOW = 709.0


def _require_in_domain(z: complex, name: str = "z") -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must be finite, got {z!r}")
    if abs(z.real) > VALIDATED_BOUND or abs(z.imag) > VALIDATED_BOUND:
        raise DomainError(
            f"{name}={z!r} outside validated domain "
            f"|Re|,|Im| <= {VALIDATED_BOUND:g}"
        )
    return z


def erf_complex(z: complex) -> complex:
    """Error function of a complex argument.

    Valid for |Re z|, |Im z| <= 50.  Within that square the true value can
    still overflow double precision (|erf(x+iy)| grows like
    e^{y^2 - x^2} / |z|); such points raise :class:`RangeOverflowError`
    rather than returning non-finite values.
    """
    z = _require_in_domain(z)
    out = complex(_sp.erf(z))
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise RangeOverflowError(
            f"erf({z!r}) exceeds double-precision range; "
            "use scaled_erf_product with a compensating exponent"
        )
    return out


def erfc_real(x: float) -> float:
    """Complementary error function erfc(x) = 1 - erf(x) for real x."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    return float(_sp.erfc(x))


def dawson(y: float) -> float:
    """Dawson's integral D(y) = e^{-y^2} \\int_0^y e^{t^2} dt.

    Odd, bounded (|D| <= D(0.924) ~ 0.541), and equal to
    (sqrt(pi)/2) e^{-y^2} erfi(y); this is what makes the combination
    e^{-L^2/4s^2} [1 + erf(iL/2s)] computable at any separation L.
    """
    y = float(y)
    if not math.isfinite(y):
        raise DomainError(f"y must be finite, got {y!r}")
    return float(_sp.dawsn(y))


def scaled_erf_product(alpha: float, z: complex) -> complex:
    """Compute e^{-alpha} * erf(z) without forming either factor.

    ``alpha`` must be non-negative; ``z`` must lie in the validated domain.
    The exponents are combined analytically, so the product is accurate even
    when e^{|Im z|^2} alone would overflow, provided the *product* itself is
    representable (otherwise :class:`RangeOverflowError`).

    Relative accuracy is limited by the Faddeeva kernel (~1e-13) except in
    the immediate neighbourhood of the complex zeros of erf, where the
    defining subtraction necessarily cancels.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0.0:
        raise DomainError(f"alpha must be finite and >= 0, got {alpha!r}")
    z = _require_in_domain(z)
    if z.real < 0.0:
        # erf is odd; reflect into Re z >= 0 where w(iz) is bounded.
        return -scaled_erf_product(alpha, -z)
    if abs(z) <= 1.0:
        # Small |z|: e^{-alpha} - e^{-alpha-z^2} w(iz) cancels badly; the
        # direct product is exact here because erf(z) = O(1) cannot overflow.
        return math.exp(-alpha) * complex(_sp.erf(z))
    expo = -alpha - z * z
    if expo.real > _EXP_OVERFLOW:
        raise RangeOverflowError(
            f"e^(-{alpha!r}) * erf({z!r}) exceeds double-precision range"
        )
    return math.exp(-alpha) - cmath.exp(expo) * complex(_sp.wofz(1j * z))


def complex_array(re, im) -> np.ndarray:
    """Complex array with the given real and imaginary parts, both exact."""
    if np.ndim(re) == 0 and np.ndim(im) == 0:
        return np.complex128(complex(re, im))
    re, im = np.broadcast_arrays(re, im)
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def modulus(z):
    """|z| as hypot(Re z, Im z), the same rounding as Python's abs(complex)."""
    return np.hypot(np.real(z), np.imag(z))


def phase_scaled_erf_array(x, y):
    """Array form of :func:`phase_scaled_erf` for real arrays x, y.

    For x >= 0 the Faddeeva argument is -|y| + ix; for x < 0 the identity
    w(-y + ix) = 2 e^{-(-y+ix)^2} - w(y - ix) moves it to |y| - ix, so it
    stays in the upper half-plane either way.  Negative y is handled by
    conjugation, erf(conj z) = conj(erf z).
    """
    x = np.asarray(x, dtype=float)[()]
    y = np.asarray(y, dtype=float)[()]
    ya = np.abs(y)
    sign = 2.0 * (x >= 0.0) - 1.0
    phase = np.exp(complex_array(-ya * ya, 2.0 * x * ya))
    out = sign * (phase - np.exp(-x * x) * _sp.wofz(complex_array(-sign * ya, sign * x)))
    return complex_array(out.real, (1.0 - 2.0 * (y < 0.0)) * out.imag)


def phase_scaled_erf(x: float, y: float) -> complex:
    """Compute e^{-y^2} e^{2ixy} erf(x + iy) for real x, y.

    This is the combination appearing in the exchange-type matrix element
    (with x = sigma*Omega, y = R/2 sigma, so 2xy = Omega*R).  Unlike
    :func:`scaled_erf_product` it carries the oscillatory phase inside,
    which makes it finite and numerically stable for *arbitrary* real
    arguments: the Faddeeva argument -y + ix (or its reflection) stays in
    the half-plane where |w| <= 1 plus a bounded Gaussian term.
    """
    x = float(x)
    y = float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"arguments must be finite, got x={x!r}, y={y!r}")
    return complex(phase_scaled_erf_array(x, y))


def _erf_representable(z: complex) -> bool:
    """True when erf(z) itself fits in double precision (used by tests)."""
    z = complex(z)
    return z.imag * z.imag - z.real * z.real < _EXP_OVERFLOW - 5.0


def sample_validated_domain(
    rng: np.random.Generator, n: int, bound: float = VALIDATED_BOUND
) -> np.ndarray:
    """Random complex points of the validated domain where erf is representable."""
    out = np.empty(n, dtype=complex)
    filled = 0
    while filled < n:
        zs = rng.uniform(-bound, bound, size=(2, n - filled))
        cand = zs[0] + 1j * zs[1]
        keep = cand[np.array([_erf_representable(c) for c in cand])]
        out[filled : filled + keep.size] = keep
        filled += keep.size
    return out
