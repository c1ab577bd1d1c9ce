"""Independent distributional quadrature of the detector integrals.

Times and lengths are in units of the switching width sigma and the gap
is y = sigma*Omega.  The vacuum two-point function of a massless scalar
field in 4D flat space, restricted to a static pair at spatial separation
R and written in the time difference u, is the distribution

    W(u, R) = (1/4 pi i) sgn(u) delta(u^2 - R^2)  -  1/(4 pi^2 (u^2 - R^2)).

Every leading-order matrix element is a double time integral of W against
Gaussian switching factors.  The centre-of-time Gaussian is integrated
analytically first (it is an exact Gaussian Fourier transform), which
reduces each element to a one-dimensional distributional integral:

    A-type (full line, also the exchange element C and every image term):
        I(y, R) = sqrt(pi) * Int du  e^{-u^2/4} e^{-i y u} W(u, R)
    X-type (time-ordered half line u > 0):
        X(y, L) = -2 sqrt(pi) e^{-y^2} * Int_0^inf du  e^{-u^2/4} W(u, L)

The distributional pieces are evaluated by explicit rules:

* sgn(y) delta(y^2) acts as f -> f'(0)            (single worldline, R = 0)
* delta(u^2 - R^2) acts by endpoint evaluation at u = +-R
* the 1/u^2 double pole uses the Hadamard finite part
      <1/u^2, f> = Int_0^inf [f(u) + f(-u) - 2 f(0)] / u^2 du
  (note the integrand decays only like -2 f(0)/u^2, so the tail beyond the
  Gaussian support is added analytically as -2 f(0)/S)
* simple poles use a grid symmetric about the pole with pairwise
  cancellation, PV Int f(u)/(u-c) du = Int_0^inf [f(c+s) - f(c-s)]/s ds.

Quadrature is composite Gauss-Legendre with panel doubling, for many
integrands in one numpy pass; each row stops at its own refinement level,
so its value does not depend on the other rows of the batch, bit for bit.
:func:`oracle_a_batch` integrates the self term of all gaps at once.  The
exchange element and the X time integral pair the pole at u = r as

    f(r+s) - f(r-s) = e^{-i y r} [(g(r+s) - g(r-s)) cos(y s)
                                  - i (g(r+s) + g(r-s)) sin(y s)]

with g the Gaussian window, so :func:`oracle_c_batch` and
:func:`oracle_x_time_integral_batch` integrate rows of any (gap,
separation) on one panel grid from s = 0: per level, cos/sin are tabulated
once per gap and the Gaussian pair terms once per separation, and each row
is two dot products (one BLAS ddot each) of its gap's and its separation's
table rows over its own prefix of the grid.  A product grid of gaps and
separations takes all its dots at once on broadcast views of the tables, a
scattered batch takes two dots per row on its gathered table rows; both
are the same ddot of the same values.  A row whose last doubling
still changes it by more than ``raise_tol`` gets a
:class:`ConvergenceError`: the batch functions return it per row and leave
the other rows as they are; the one-value functions raise it.

The batch functions take gaps y and separations in units of sigma.  The
one-row :func:`oracle_a`, :func:`oracle_c`, :func:`oracle_x` and
:func:`oracle_ieps` take a :class:`DetectorParams` and a separation, and
scale them once: y = sigma*Omega, separations over sigma.

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
    "oracle_a_batch",
    "oracle_x",
    "oracle_x_envelope",
    "oracle_x_time_integral",
    "oracle_x_time_integral_batch",
    "oracle_c",
    "oracle_c_batch",
    "oracle_ieps",
    "IepsEstimate",
]

_SQRT_PI = math.sqrt(math.pi)
#: Gaussian switching support: e^{-(52/2)^2} ~ 1e-294.
_WINDOW_SIGMAS = 52.0

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
#: The nodes mapped to [0, 1].
_GL_UNIT = 0.5 + 0.5 * _GL_NODES

#: Width of a base-level panel of the pole-pairing grid.
_PANEL_SIGMAS = 3.0

#: Largest rows x nodes array one quadrature pass evaluates or gathers; a
#: batch with more is evaluated a slice of rows at a time (at least one row).
_BATCH_NODES = 1 << 15

#: An integrand of a batch: ``g(k, u)`` gives rows ``k`` (an index array)
#: at the nodes ``u`` (1-D) as a (len(k), len(u)) array.
_RowIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: The quadratures of a batch at one refinement: ``sums(k, level)`` gives
#: rows ``k`` (an index array) at doubling ``level`` (0: the base panels).
_LevelSums = Callable[[np.ndarray, int], np.ndarray]


def _pieces(items: np.ndarray, width: int) -> list[np.ndarray]:
    """``items`` in slices of at most ``_BATCH_NODES // width`` entries (at
    least one), so that a slice of rows of ``width`` nodes stays within
    ``_BATCH_NODES``."""
    step = max(1, _BATCH_NODES // width)
    return [items[i:i + step] for i in range(0, items.size, step)]


def _panel_sums(g: _RowIntegrand, k: np.ndarray, a: float, b: float, panels: int) -> np.ndarray:
    """32-point Gauss-Legendre on ``panels`` equal panels of [a, b], rows ``k``."""
    edges = np.linspace(a, b, panels + 1)
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    u = (mid + half * _GL_NODES).ravel()
    w = (half * _GL_WEIGHTS).ravel()
    return np.concatenate([(g(part, u) * w).sum(axis=1) for part in _pieces(k, u.size)])


def _refine(
    sums: _LevelSums,
    intervals: Sequence[tuple[float, float]],
    *,
    target: float = 1e-12,
    raise_tol: float = 1e-8,
    max_doublings: int = 6,
) -> tuple[np.ndarray, list[ConvergenceError | None]]:
    """Panel doubling until stable, for the rows of ``sums``, one per
    integration interval in ``intervals``.

    Each row stops at the first doubling that changes it by at most
    ``target``; only the rows still changing are evaluated at the next
    level, so a row's value does not depend on the other rows.  Returns the
    values and, per row, None or the :class:`ConvergenceError` of a row
    whose last doubling still changed it by more than ``raise_tol``.
    """
    rows = len(intervals)
    active = np.arange(rows)
    prev = sums(active, 0) if rows else np.empty(0)
    values = prev.copy()
    diff = np.full(rows, math.inf)
    for level in range(1, max_doublings + 1):
        if not active.size:
            break
        cur = sums(active, level)
        values[active] = cur
        # Python's abs (C hypot): numpy's complex abs rounds differently
        diff = np.array([abs(d) for d in (cur - prev).tolist()])
        keep = ~(diff <= target)
        active, prev, diff = active[keep], cur[keep], diff[keep]
    errors: list[ConvergenceError | None] = [None] * rows
    for k, d in zip(active.tolist(), diff.tolist()):
        if d > raise_tol:
            a, b = intervals[k]
            errors[k] = ConvergenceError(
                f"quadrature did not stabilize on [{a!r}, {b!r}]: "
                f"last refinement changed the value by {d:.3e}"
            )
    return values, errors


def _refined_quad(
    g: _RowIntegrand, rows: int, a: float, b: float, *, base_panels: int, **options
) -> tuple[np.ndarray, list[ConvergenceError | None]]:
    """:func:`_refine` of the ``rows`` integrands of ``g`` on [a, b], on
    ``max(4, base_panels)`` equal panels at the base level."""
    n = max(4, base_panels)
    return _refine(
        lambda k, level: _panel_sums(g, k, a, b, n << level), [(a, b)] * rows, **options
    )


def _one_row(f: Callable[[np.ndarray], np.ndarray]) -> _RowIntegrand:
    """The one-row batch integrand of a function of the nodes."""
    return lambda _k, u: np.asarray(f(u))[None]


def _single(values, errors):
    """The value of a one-row quadrature, or the error it recorded."""
    if errors[0] is not None:
        raise errors[0]
    return values[0]


def _quad(g: Callable[[np.ndarray], np.ndarray], a: float, b: float, **options) -> complex:
    """:func:`_refined_quad` of one function of the nodes: its value, or
    its error raised."""
    return complex(_single(*_refined_quad(_one_row(g), 1, a, b, **options)))


def _base_panels(length: float) -> int:
    return max(8, int(math.ceil(length / _PANEL_SIGMAS)))


def pv_over_pole(
    f: Callable[[np.ndarray], np.ndarray],
    pole: float,
    *,
    span: float,
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

    return _quad(
        paired, 0.0, span, base_panels=_base_panels(span), target=target, raise_tol=raise_tol
    )


def _hadamard_rows(
    f: _RowIntegrand, rows: int, *, span: float, f00: complex, target: float, raise_tol: float
) -> tuple[list[complex], list]:
    """:func:`hadamard_double_pole` of the ``rows`` functions ``f(k, u)``,
    all with f(k, 0) = ``f00``."""

    def paired(k: np.ndarray, s: np.ndarray) -> np.ndarray:
        return (f(k, s) + f(k, -s) - 2.0 * f00) / (s * s)

    finite, errors = _refined_quad(
        paired, rows, 0.0, span, base_panels=_base_panels(span), target=target,
        raise_tol=raise_tol,
    )
    return [v - 2.0 * f00 / span for v in finite.tolist()], errors


def hadamard_double_pole(
    f: Callable[[np.ndarray], np.ndarray],
    *,
    span: float,
    f0: complex | None = None,
    target: float = 1e-12,
    raise_tol: float = 1e-8,
) -> complex:
    """Hadamard finite part <1/u^2, f> = Int_0^inf [f(u)+f(-u)-2 f(0)]/u^2 du.

    ``span`` must cover the support of f; the slowly decaying -2 f(0)/u^2
    remainder beyond it is added analytically.
    """
    f00 = complex(f(np.array([0.0]))[0]) if f0 is None else complex(f0)
    return _single(*_hadamard_rows(
        _one_row(f), 1, span=span, f00=f00, target=target, raise_tol=raise_tol
    ))


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


def _windowed_phase(y: np.ndarray) -> _RowIntegrand:
    """f(k, u) = e^{-u^2/4 - i y_k u} for the gaps ``y``."""
    phase = 1j * y[:, None]

    def f(k: np.ndarray, u: np.ndarray) -> np.ndarray:
        # exp(-u * u / 4 - phase * u), in place: the same values
        # with two fewer rows x nodes arrays
        v = phase[k] * u
        np.subtract(-u * u / 4.0, v, out=v)
        return np.exp(v, out=v)

    return f


def oracle_a_batch(
    y, *, raise_tol: float = 1e-8
) -> tuple[np.ndarray, list[ConvergenceError | None]]:
    """The self term of :func:`oracle_a` (``l_image = 0``) at the gaps
    ``y``, all in one quadrature pass.

    Returns the values and, per gap, None or the :class:`ConvergenceError`
    of its quadrature; each value is the one-gap value bit for bit.
    """
    om = np.asarray(y, dtype=float).reshape(-1)
    had, errors = _hadamard_rows(
        _windowed_phase(om), om.size, span=_WINDOW_SIGMAS, f00=1.0, target=1e-12,
        raise_tol=raise_tol,
    )
    values = []
    for w, h in zip(om.tolist(), had):
        # sgn(u) delta(u^2) acts as f'(0) = -i y for the windowed phase
        delta_part = (-1j * w) / (4.0j * math.pi)
        values.append((_SQRT_PI * (delta_part - h / (4.0 * math.pi**2))).real)
    return np.array(values), errors


def _pairing_grid(width: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``panels`` panels of ``width``
    from s = 0; node j and its weight are the same for any ``panels`` that
    includes it."""
    s = ((np.arange(panels)[:, None] + _GL_UNIT) * width).ravel()
    w = np.tile(0.5 * width * _GL_WEIGHTS, panels)
    return s, w


def _pole_pairing(
    y: np.ndarray, r: np.ndarray, raise_tol: float
) -> tuple[np.ndarray, list[ConvergenceError | None]]:
    """PV Int du e^{-u^2/4 - i y u}/(u - r) for the rows (y, r), as P - i Q
    with the phase e^{-i y r} taken out:

        P = Int_0^span (g(r+s) - g(r-s)) cos(y s)/s ds
        Q = Int_0^span (g(r+s) + g(r-s)) sin(y s)/s ds

    Row k sums the first ``_base_panels(r_k + window)`` 2^level panels of
    width 3/2^level from s = 0, its n nodes.  At each level cos/sin
    are tabulated once per gap, and the pair terms (g(r+s) -+ g(r-s)) w/s
    once per separation; P and Q of a row are two dot products
    (``np.vecdot``, one BLAS ddot each) of its gap's and its separation's
    table rows over the same n contiguous nodes.  Where a block of rows
    covers at least half of its gaps x separations (a product grid, one
    gap), all of those dots are taken at once on broadcast views;
    otherwise each row's dots are taken on its gathered table rows, two
    per row.  Either way a row's value is the same ddot of the same values,
    so it depends only on its own (y, r).
    """
    # gaps by bit pattern, so that -0.0 and 0.0 keep their own tables
    gap_keys, gap_of = np.unique(y.view(np.int64), return_inverse=True)
    gaps = gap_keys.view(np.float64)
    seps, sep_of = np.unique(r, return_inverse=True)
    panels = np.array([_base_panels(x + _WINDOW_SIGMAS) for x in seps.tolist()])

    def sums(k: np.ndarray, level: int) -> np.ndarray:
        gap_k, sep_k = gap_of[k], sep_of[k]
        panels_k = panels[sep_k]
        s, w = _pairing_grid(_PANEL_SIGMAS * 0.5**level, int(panels_k.max()) << level)
        p, q = np.empty(k.size), np.empty(k.size)
        for gs in _pieces(np.unique(gap_k), s.size):
            phase = gaps[gs, None] * s
            cos, sin = np.cos(phase), np.sin(phase)
            in_gs = np.isin(gap_k, gs)
            for count in np.unique(panels_k[in_gs]).tolist():
                n = (count << level) * _GL_UNIT.size
                ws = w[:n] / s[:n]
                group = np.flatnonzero(in_gs & (panels_k == count))
                for js in _pieces(np.unique(sep_k[group]), n):
                    # g(r - s) = e and g(r + s) = e e^{-r s}: the
                    # difference through expm1, without cancellation at
                    # small r s
                    rj = seps[js, None]
                    e = np.exp(-((s[:n] - rj) ** 2) / 4.0)
                    d = e * np.expm1(-rj * s[:n])
                    dp, dq = d * ws, (2.0 * e + d) * ws
                    block = group[np.isin(sep_k[group], js)]
                    if gs.size * js.size <= 2 * block.size:
                        at_g = np.searchsorted(gs, gap_k[block])
                        at_s = np.searchsorted(js, sep_k[block])
                        p[block] = np.vecdot(cos[:, None, :n], dp[None])[at_g, at_s]
                        q[block] = np.vecdot(sin[:, None, :n], dq[None])[at_g, at_s]
                    else:
                        for part in _pieces(block, n):
                            at_g = np.searchsorted(gs, gap_k[part])
                            at_s = np.searchsorted(js, sep_k[part])
                            p[part] = np.vecdot(cos[at_g, :n], dp[at_s])
                            q[part] = np.vecdot(sin[at_g, :n], dq[at_s])
        return p - 1j * q

    span = (panels * _PANEL_SIGMAS).tolist()
    return _refine(
        sums, [(0.0, span[j]) for j in sep_of.tolist()], target=1e-12, raise_tol=raise_tol
    )


def _separations(l_image) -> np.ndarray:
    r = np.array(l_image, dtype=float).reshape(-1)
    bad = ~(np.isfinite(r) & (r > 0.0))
    if bad.any():
        raise GeometryError(f"l_image must be > 0, got {r[bad][0].item()!r}")
    return r


def oracle_c_batch(
    y, l_image, *, raise_tol: float = 1e-8
) -> tuple[np.ndarray, list[ConvergenceError | None]]:
    """:func:`oracle_c` at the gaps ``y`` and separations ``l_image``
    (broadcast against each other), all in one quadrature pass:
    sqrt(pi) Int du e^{-u^2/4} e^{-i y u} W(u, r).

    Returns the values and, per row, None or the :class:`ConvergenceError`
    of its quadrature; each value is the one-row value bit for bit.
    """
    om, r = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(l_image, dtype=float))
    om = np.array(om, dtype=float).reshape(-1)
    r = _separations(r)
    pv, errors = _pole_pairing(om, r, raise_tol)
    cos, sin = np.cos(om * r), np.sin(om * r)
    g = np.exp(-r * r / 4.0)
    # endpoint rule for sgn(u) delta(u^2 - r^2): f(r) - f(-r) = -2i g(r) sin(y r)
    delta_part = -g * sin / (4.0 * math.pi * r)
    # the pole at -r is -conj of the pole at r, so the pair leaves twice the
    # real part of e^{-i y r} (P - i Q): C is exactly real
    pv_part = -(cos * pv.real + sin * pv.imag) / (4.0 * math.pi**2 * r)
    return (_SQRT_PI * (delta_part + pv_part)).astype(complex), errors


def oracle_a(p: DetectorParams, l_image: float = 0.0, *, raise_tol: float = 1e-8) -> float:
    """Transition-probability coefficient A/eps0^2 from the distributional kernel.

    ``l_image = 0`` is the single-worldline self term (f'(0) delta rule plus
    Hadamard double pole); ``l_image > 0`` gives the image term of the
    probability for a detector correlating with its own translate at that
    separation.  The result is real for static worldlines.
    """
    if l_image < 0.0 or not math.isfinite(l_image):
        raise GeometryError(f"l_image must be >= 0, got {l_image!r}")
    if l_image == 0.0:
        return float(_single(*oracle_a_batch([p.sigma * p.omega], raise_tol=raise_tol)))
    return float(oracle_c(p, l_image, raise_tol=raise_tol).real)


def oracle_c(p: DetectorParams, l_image: float, *, raise_tol: float = 1e-8) -> complex:
    """Exchange coefficient C/eps0^2 from the distributional kernel.

    Identical static detectors give a real value: the imaginary part is
    exactly 0.
    """
    y, rho = p.sigma * p.omega, l_image / p.sigma
    return complex(_single(*oracle_c_batch([y], rho, raise_tol=raise_tol)))


def oracle_x(p: DetectorParams, l_image: float, *, raise_tol: float = 1e-8) -> complex:
    """Nonlocal coefficient X/eps0^2 from the time-ordered half-plane integral:
    :func:`oracle_x_envelope` times :func:`oracle_x_time_integral`."""
    quad = oracle_x_time_integral(l_image / p.sigma, raise_tol=raise_tol)
    return oracle_x_envelope(p.sigma * p.omega) * quad


def oracle_x_envelope(y: float) -> float:
    """The exact factor -2 sqrt(pi) e^{-y^2} of X/eps0^2: the whole gap
    dependence, from the centre-of-time integral."""
    return -2.0 * _SQRT_PI * math.exp(-(y**2))


def oracle_x_time_integral_batch(
    l_image, *, raise_tol: float = 1e-8
) -> tuple[np.ndarray, list[ConvergenceError | None]]:
    """:func:`oracle_x_time_integral` at the separations ``l_image``, all in
    one quadrature pass.

    Returns the values and, per separation, None or the
    :class:`ConvergenceError` of its quadrature; each value is the
    one-separation value bit for bit.
    """
    big_l = _separations(l_image)
    # PV Int_0^inf g(u)/(u^2 - L^2) = (1/2L) PV Int g(u)/(u - L) over the whole
    # line (g is even): the pole pairing at zero gap, whose integrand
    # (g(L+s) - g(L-s))/s is smooth on the scale 1 for any L
    pv, errors = _pole_pairing(np.zeros(big_l.size), big_l, raise_tol)
    g_l = np.exp(-big_l * big_l / 4.0)
    # the delta is supported at u = +L only
    delta_part = -(g_l / (2.0 * big_l)) / (4.0 * math.pi)
    pv_part = -pv.real / (2.0 * big_l) / (4.0 * math.pi**2)
    return pv_part + 1j * delta_part, errors


def oracle_x_time_integral(l_image: float, *, raise_tol: float = 1e-8) -> complex:
    """Int_0^inf du e^{-u^2/4} W(u, L): the gap-independent quadrature of X.

    The integral runs over the time difference u > 0 only, with the delta
    supported at u = +L and the simple pole at u = L; the principal value
    is taken over the whole line by symmetric pairing about the pole.
    """
    return complex(_single(*oracle_x_time_integral_batch([l_image], raise_tol=raise_tol)))


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


def default_eps_sequence() -> list[float]:
    """eps_k = 2^{-k}/4 in units of sigma, k = 0..8."""
    return [0.25 * 0.5**k for k in range(9)]


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
    s = p.sigma
    y, r = s * p.omega, l_image / s
    eps_list = default_eps_sequence() if eps_sequence is None else [e / s for e in eps_sequence]
    if any(e <= 0 for e in eps_list) or any(
        b >= a for a, b in zip(eps_list, eps_list[1:])
    ):
        raise DomainError("eps_sequence must be strictly decreasing and positive")

    values = []
    for eps in eps_list:
        if which == "X":

            def integrand(u: float, eps=eps) -> complex:
                kern = -1.0 / (4.0 * math.pi**2 * (complex(u, -eps) ** 2 - r * r))
                return math.exp(-u * u / 4.0) * kern

            raw = _quad_complex(integrand, 0.0, r + _WINDOW_SIGMAS, points=[r])
            values.append(oracle_x_envelope(y) * raw)
        else:

            def integrand(u: float, eps=eps) -> complex:
                kern = -1.0 / (4.0 * math.pi**2 * (complex(u, -eps) ** 2 - r * r))
                gauss = math.exp(-u * u / 4.0)
                return gauss * complex(math.cos(y * u), -math.sin(y * u)) * kern

            pts = [-r, 0.0, r] if r > 0 else [0.0]
            raw = _quad_complex(integrand, -(r + _WINDOW_SIGMAS), r + _WINDOW_SIGMAS, points=pts)
            values.append(_SQRT_PI * raw)

    return richardson_zero_limit(eps_list, values, divergence_tol=divergence_tol)
