"""Overflow-safe error-function kernels for the detector matrix elements.

The exchange element for a negative gap needs e^{-y^2} e^{2ixy} erf(x+iy),
in which erf(x+iy) alone overflows for large y.  It is evaluated from the
Faddeeva function

    w(z) = e^{-z^2} erfc(-i z),

by SciPy's ``wofz`` (relative accuracy around 1e-14), with the exponents
combined analytically:

    e^{-y^2} e^{2ixy} erf(x+iy)  = e^{-y^2 + 2ixy} - e^{-x^2} w(-y + ix),

which is finite for *all* real x, y because -y + ix (or its reflection for
x < 0) keeps the Faddeeva argument in the upper half-plane, where
|w| <= 1.  The other special functions of the elements, ``erfcx``,
``erfc`` and Dawson's integral ``dawsn``, are SciPy's and are called by
:mod:`udwpair.elements` directly.  All functions here take and return
numpy arrays.
"""

from __future__ import annotations

import numpy as np
import scipy.special as _sp

__all__ = [
    "phase_scaled_erf_array",
    "complex_array",
    "modulus",
]


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


def phase_scaled_erf_array(x, y):
    """e^{-y^2} e^{2ixy} erf(x + iy) for real arrays x, y.

    This is the combination in the exchange element for negative gaps (with
    x = sigma*Omega, y = r/2 sigma, so 2xy = Omega*r).  Unlike erf(x + iy)
    alone, which overflows once y^2 - x^2 exceeds about 709, it is finite
    for all real x, y.  For x >= 0 the Faddeeva argument is -|y| + ix; for
    x < 0 the identity w(-y + ix) = 2 e^{-(-y+ix)^2} - w(y - ix) moves it to
    |y| - ix, so it stays in the upper half-plane either way.  Negative y is
    handled by conjugation, erf(conj z) = conj(erf z).  Near x + iy = 0 the
    subtraction keeps only absolute accuracy (about 1e-16).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ya = np.abs(y)
    sign = 2.0 * (x >= 0.0) - 1.0
    phase = np.exp(complex_array(-ya * ya, 2.0 * x * ya))
    out = sign * (phase - np.exp(-x * x) * _sp.wofz(complex_array(-sign * ya, sign * x)))
    return complex_array(out.real, (1.0 - 2.0 * (y < 0.0)) * out.imag)
