"""Independent distributional quadrature of the detector integrals.

The vacuum two-point function of a massless scalar field in 4D flat space,
restricted to a static pair at spatial separation R and written in the time
difference u, is the distribution

    W(u, R) = (1/4 pi i) sgn(u) delta(u^2 - R^2)  -  1/(4 pi^2 (u^2 - R^2)).

Every leading-order matrix element is a double time integral of W against
Gaussian switching factors.  The centre-of-time Gaussian is integrated
analytically first (it is an exact Gaussian Fourier transform), which
reduces each element to a one-dimensional distributional integral:

    A-type (full line, also the exchange element C and every image term):
        I(Omega, R) = s sqrt(pi) * Int du  e^{-u^2/4 s^2} e^{-i Omega u} W(u, R)
    X-type (time-ordered half line u > 0):
        X(Omega, L) = -2 s sqrt(pi) e^{-s^2 Omega^2}
                        * Int_0^inf du  e^{-u^2/4 s^2} W(u, L)

The distributional pieces are evaluated by explicit rules:

* sgn(y) delta(y^2) acts as f -> f'(0)            (single worldline, R = 0)
* delta(u^2 - R^2) acts by endpoint evaluation at u = +-R
* the 1/u^2 double pole uses the Hadamard finite part
      <1/u^2, f> = Int_0^inf [f(u) + f(-u) - 2 f(0)] / u^2 du
  (note the integrand decays only like -2 f(0)/u^2, so the tail beyond the
  Gaussian support is added analytically as -2 f(0)/S)
* simple poles use a grid symmetric about the pole with pairwise
  cancellation, PV Int f(u)/(u-c) du = Int_0^inf [f(c+s) - f(c-s)]/s ds.

Quadrature is composite Gauss-Legendre with panel doubling; disagreement
between refinement levels beyond ``raise_tol`` raises
:class:`ConvergenceError`.

As a second, independent regularization, :func:`oracle_ieps` evaluates the
same integrals with the regular kernel

    W_eps(u, R) = -(1/4 pi^2) / ((u - i eps)^2 - R^2)

and Richardson-extrapolates eps -> 0 (the distributional limit).  The two
regularizations agreeing is the strongest correctness check available for
the closed forms.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .elements import DetectorParams
from .errors import ConvergenceError, DomainError, GeometryError

__all__ = [
    "pv_over_pole",
    "hadamard_double_pole",
    "sgn_delta_square",
    "richardson_zero_limit",
    "oracle_a",
    "oracle_x",
    "oracle_x_envelope",
    "oracle_x_time_integral",
    "oracle_c",
    "oracle_ieps",
    "IepsEstimate",
]

_SQRT_PI = math.sqrt(math.pi)
#: Gaussian switching support in units of sigma: e^{-(52/2)^2} ~ 1e-294.
_WINDOW_SIGMAS = 52.0

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _panel_quad(g: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> complex:
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    pts = mid + half * _GL_NODES[None, :]
    vals = np.asarray(g(pts.ravel())).reshape(pts.shape)
    return complex(np.sum(vals * (half * _GL_WEIGHTS[None, :])))


def _refined_quad(
    g: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    base_panels: int,
    target: float = 1e-12,
    raise_tol: float = 1e-8,
    max_doublings: int = 6,
) -> complex:
    """Composite Gauss-Legendre with panel doubling until stable."""
    n = max(4, base_panels)
    prev = _panel_quad(g, np.linspace(a, b, n + 1))
    diff = math.inf
    for _ in range(max_doublings):
        n *= 2
        cur = _panel_quad(g, np.linspace(a, b, n + 1))
        diff = abs(cur - prev)
        if diff <= target:
            return cur
        prev = cur
    if diff > raise_tol:
        raise ConvergenceError(
            f"quadrature did not stabilize on [{a!r}, {b!r}]: "
            f"last refinement changed the value by {diff:.3e}"
        )
    return cur


def _base_panels(length: float, sigma: float) -> int:
    return max(8, int(math.ceil(length / (3.0 * sigma))))


def pv_over_pole(
    f: Callable[[np.ndarray], np.ndarray],
    pole: float,
    *,
    span: float,
    sigma_scale: float = 1.0,
    target: float = 1e-12,
    raise_tol: float = 1e-8,
) -> complex:
    """PV integral of f(u)/(u - pole) over the whole line.

    ``span`` must cover the support of ``f`` as seen from the pole; the
    symmetric pairing [f(pole+s) - f(pole-s)]/s removes the singularity
    exactly and leaves a smooth integrand on (0, span].
    """

    def paired(s: np.ndarray) -> np.ndarray:
        return (f(pole + s) - f(pole - s)) / s

    return _refined_quad(
        paired,
        0.0,
        span,
        base_panels=_base_panels(span, sigma_scale),
        target=target,
        raise_tol=raise_tol,
    )


def hadamard_double_pole(
    f: Callable[[np.ndarray], np.ndarray],
    *,
    span: float,
    f0: complex | None = None,
    sigma_scale: float = 1.0,
    target: float = 1e-12,
    raise_tol: float = 1e-8,
) -> complex:
    """Hadamard finite part <1/u^2, f> = Int_0^inf [f(u)+f(-u)-2 f(0)]/u^2 du.

    ``span`` must cover the support of f; the slowly decaying -2 f(0)/u^2
    remainder beyond it is added analytically.
    """
    f00 = complex(f(np.array([0.0]))[0]) if f0 is None else complex(f0)

    def paired(s: np.ndarray) -> np.ndarray:
        return (f(s) + f(-s) - 2.0 * f00) / (s * s)

    finite = _refined_quad(
        paired,
        0.0,
        span,
        base_panels=_base_panels(span, sigma_scale),
        target=target,
        raise_tol=raise_tol,
    )
    return finite - 2.0 * f00 / span


def sgn_delta_square(
    f: Callable[[float], complex],
    fprime: Callable[[float], complex] | None = None,
    *,
    step: float = 0.5,
    levels: int = 6,
) -> complex:
    """Action of sgn(y) delta(y^2) on a test function: returns f'(0).

    Uses the supplied analytic derivative when given; otherwise Richardson
    extrapolation of central differences in powers of step^2.
    """
    if fprime is not None:
        return complex(fprime(0.0))
    hs = [step * 0.5**k for k in range(levels)]
    diffs = [(complex(f(h)) - complex(f(-h))) / (2.0 * h) for h in hs]
    return richardson_zero_limit([h * h for h in hs], diffs).value


class IepsEstimate(NamedTuple):
    value: complex
    error: float


def richardson_zero_limit(
    xs: Sequence[float], ys: Sequence[complex], *, divergence_tol: float = 1e-6
) -> IepsEstimate:
    """Neville polynomial extrapolation of (xs, ys) to x = 0.

    Returns the highest-order diagonal estimate and the magnitude of its
    last correction.  Raises :class:`ConvergenceError` when the diagonal
    stops contracting while still above ``divergence_tol``.
    """
    n = len(xs)
    if n != len(ys) or n < 2:
        raise DomainError("need at least two (x, y) samples to extrapolate")
    if any(x <= 0 for x in xs) or any(b >= a for a, b in zip(xs, xs[1:])):
        raise DomainError("xs must be strictly decreasing and positive")
    tableau = [complex(y) for y in ys]
    diag = [tableau[0]]
    for m in range(1, n):
        for i in range(n - 1, m - 1, -1):
            num = xs[i - m] * tableau[i] - xs[i] * tableau[i - 1]
            tableau[i] = num / (xs[i - m] - xs[i])
        diag.append(tableau[n - 1])
    corrections = [abs(b - a) for a, b in zip(diag, diag[1:])]
    err = corrections[-1]
    # Polynomial extrapolation of data analytic in eps contracts
    # superlinearly on a geometric sequence; corrections still above the
    # tolerance that shrink by less than 4x per stage (or grow) signal an
    # untrustworthy limit.
    if err > divergence_tol and len(corrections) >= 2 and err > 0.25 * corrections[-2]:
        raise ConvergenceError(
            f"extrapolation to eps = 0 is not contracting decisively: "
            f"last corrections {corrections[-2]:.3e} -> {corrections[-1]:.3e}"
        )
    return IepsEstimate(diag[-1], err)


def _full_line_kernel(p: DetectorParams, r: float, raise_tol: float) -> complex:
    """s sqrt(pi) Int du e^{-u^2/4s^2} e^{-i Omega u} W(u, r) for r > 0."""
    s = p.sigma
    om = p.omega

    def f(u: np.ndarray) -> np.ndarray:
        return np.exp(-u * u / (4.0 * s * s) - 1j * om * u)

    window = _WINDOW_SIGMAS * s
    # endpoint rule for sgn(u) delta(u^2 - r^2)
    fr = complex(f(np.array([r]))[0])
    fmr = complex(f(np.array([-r]))[0])
    delta_part = (fr - fmr) / (2.0 * r) / (4.0j * math.pi)
    pv_plus = pv_over_pole(f, r, span=r + window, sigma_scale=s, raise_tol=raise_tol)
    # f(-u) = conj f(u) and (-r) + t = -(r - t) hold exactly in floating
    # point, so the pole at -r gives the mirrored quadrature bit for bit
    pv_minus = -pv_plus.conjugate()
    pv_part = -(pv_plus - pv_minus) / (2.0 * r) / (4.0 * math.pi**2)
    return s * _SQRT_PI * (delta_part + pv_part)


def oracle_a(p: DetectorParams, l_image: float = 0.0, *, raise_tol: float = 1e-8) -> float:
    """Transition-probability coefficient A/eps0^2 from the distributional kernel.

    ``l_image = 0`` is the single-worldline self term (f'(0) delta rule plus
    Hadamard double pole); ``l_image > 0`` gives the image term of the
    probability for a detector correlating with its own translate at that
    separation.  The result is real for static worldlines.
    """
    if l_image < 0.0 or not math.isfinite(l_image):
        raise GeometryError(f"l_image must be >= 0, got {l_image!r}")
    s = p.sigma
    om = p.omega
    if l_image == 0.0:

        def f(u: np.ndarray) -> np.ndarray:
            return np.exp(-u * u / (4.0 * s * s) - 1j * om * u)

        # f'(0) = -i Omega exactly for the Gaussian-windowed phase factor
        delta_part = sgn_delta_square(
            lambda u: complex(f(np.array([u]))[0]), lambda _u: -1j * om
        ) / (4.0j * math.pi)
        had = hadamard_double_pole(
            f, span=_WINDOW_SIGMAS * s, f0=1.0, sigma_scale=s, raise_tol=raise_tol
        )
        val = s * _SQRT_PI * (delta_part - had / (4.0 * math.pi**2))
        return float(val.real)
    return float(_full_line_kernel(p, l_image, raise_tol).real)


def oracle_c(p: DetectorParams, l_image: float, *, raise_tol: float = 1e-8) -> complex:
    """Exchange coefficient C/eps0^2 from the distributional kernel.

    Identical static detectors give a real value; the imaginary part is
    returned as a diagnostic of quadrature quality.
    """
    if not (math.isfinite(l_image) and l_image > 0.0):
        raise GeometryError(f"l_image must be > 0, got {l_image!r}")
    return _full_line_kernel(p, l_image, raise_tol)


def oracle_x(p: DetectorParams, l_image: float, *, raise_tol: float = 1e-8) -> complex:
    """Nonlocal coefficient X/eps0^2 from the time-ordered half-plane integral:
    :func:`oracle_x_envelope` times :func:`oracle_x_time_integral`."""
    return oracle_x_envelope(p) * oracle_x_time_integral(p.sigma, l_image, raise_tol=raise_tol)


def oracle_x_envelope(p: DetectorParams) -> float:
    """The exact factor -2 s sqrt(pi) e^{-s^2 Omega^2} of X/eps0^2: the whole
    gap dependence, from the centre-of-time integral."""
    s = p.sigma
    return -2.0 * s * _SQRT_PI * math.exp(-((s * p.omega) ** 2))


def oracle_x_time_integral(sigma: float, l_image: float, *, raise_tol: float = 1e-8) -> complex:
    """Int_0^inf du e^{-u^2/4s^2} W(u, L): the gap-independent quadrature of X.

    The integral runs over the time difference u > 0 only, with the delta
    supported at u = +L and the simple pole at u = L handled by symmetric
    pairing inside (0, 2L).
    """
    if not (math.isfinite(l_image) and l_image > 0.0):
        raise GeometryError(f"l_image must be > 0, got {l_image!r}")
    s = sigma
    big_l = l_image
    window = _WINDOW_SIGMAS * s

    def g(u: np.ndarray) -> np.ndarray:
        return np.exp(-u * u / (4.0 * s * s))

    g_l = math.exp(-big_l * big_l / (4.0 * s * s))
    delta_part = g_l / (2.0 * big_l) / (4.0j * math.pi)

    def paired(t: np.ndarray) -> np.ndarray:
        return (g(big_l + t) - g(big_l - t)) / t

    pv_near = _refined_quad(
        paired, 0.0, big_l, base_panels=_base_panels(big_l, s), raise_tol=raise_tol
    )

    def far(u: np.ndarray) -> np.ndarray:
        return g(u) / (u - big_l)

    pv_far = _refined_quad(
        far,
        2.0 * big_l,
        2.0 * big_l + window,
        base_panels=_base_panels(window, s),
        raise_tol=raise_tol,
    )

    def mirror(u: np.ndarray) -> np.ndarray:
        return g(u) / (u + big_l)

    pv_mirror = _refined_quad(
        mirror,
        0.0,
        big_l + window,
        base_panels=_base_panels(big_l + window, s),
        raise_tol=raise_tol,
    )

    pv_part = -(pv_near + pv_far - pv_mirror) / (2.0 * big_l) / (4.0 * math.pi**2)
    return delta_part + pv_part


def _quad_complex(
    func: Callable[[float], complex],
    a: float,
    b: float,
    points: Sequence[float] | None,
) -> complex:
    # imported here: scipy.integrate is a large share of the package's
    # import time and only the -i eps oracle needs it
    from scipy.integrate import IntegrationWarning
    from scipy.integrate import quad as _scipy_quad

    kw = dict(limit=400, epsabs=1e-13, epsrel=1e-12)
    if points:
        kw["points"] = [x for x in points if a < x < b]
    # quality is judged by the eps -> 0 extrapolation contracting, not by
    # scipy's per-integral roundoff heuristic
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        re = _scipy_quad(lambda u: func(u).real, a, b, **kw)[0]
        im = _scipy_quad(lambda u: func(u).imag, a, b, **kw)[0]
    return complex(re, im)


def default_eps_sequence(sigma: float) -> list[float]:
    """eps_k = (sigma/4) 2^{-k}, k = 0..8."""
    return [sigma / 4.0 * 0.5**k for k in range(9)]


def oracle_ieps(
    which: str,
    p: DetectorParams,
    l_image: float,
    eps_sequence: Sequence[float] | None = None,
    *,
    divergence_tol: float = 1e-6,
) -> IepsEstimate:
    """Same integrals with the regular -i eps kernel, extrapolated to eps -> 0.

    No distributional bookkeeping is involved: for each eps > 0 the kernel
    W_eps(u, R) = -(1/4 pi^2)/((u - i eps)^2 - R^2) is an ordinary function
    whose poles sit off the real axis, and the distributional limit is
    recovered by polynomial Richardson extrapolation in eps.  Returns the
    extrapolated value together with the magnitude of the final correction.
    """
    which = which.upper()
    if which not in ("A", "X", "C"):
        raise DomainError(f"which must be one of 'A', 'X', 'C', got {which!r}")
    if which in ("X", "C") and not l_image > 0.0:
        raise GeometryError(f"{which} requires l_image > 0, got {l_image!r}")
    if l_image < 0.0:
        raise GeometryError(f"l_image must be >= 0, got {l_image!r}")
    eps_list = list(eps_sequence) if eps_sequence is not None else default_eps_sequence(p.sigma)
    if any(e <= 0 for e in eps_list) or any(
        b >= a for a, b in zip(eps_list, eps_list[1:])
    ):
        raise DomainError("eps_sequence must be strictly decreasing and positive")

    s = p.sigma
    om = p.omega
    window = _WINDOW_SIGMAS * s
    r = l_image

    values = []
    for eps in eps_list:
        if which == "X":

            def integrand(u: float, eps=eps) -> complex:
                kern = -1.0 / (4.0 * math.pi**2 * (complex(u, -eps) ** 2 - r * r))
                return math.exp(-u * u / (4.0 * s * s)) * kern

            raw = _quad_complex(integrand, 0.0, r + window, points=[r])
            values.append(-2.0 * s * _SQRT_PI * math.exp(-((s * om) ** 2)) * raw)
        else:

            def integrand(u: float, eps=eps) -> complex:
                kern = -1.0 / (4.0 * math.pi**2 * (complex(u, -eps) ** 2 - r * r))
                gauss = math.exp(-u * u / (4.0 * s * s))
                return gauss * complex(math.cos(om * u), -math.sin(om * u)) * kern

            pts = [-r, 0.0, r] if r > 0 else [0.0]
            raw = _quad_complex(integrand, -(r + window), r + window, points=pts)
            values.append(s * _SQRT_PI * raw)

    return richardson_zero_limit(eps_list, values, divergence_tol=divergence_tol)
