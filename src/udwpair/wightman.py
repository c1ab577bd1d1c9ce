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
:func:`oracle_a_batch` integrates the self term of all gaps at once, in
real arithmetic: the Hadamard pairing of e^{-u^2/4 - i y u} is
[2 e^{-s^2/4} cos(y s) - 2]/s^2, even in y, so each |y| is one row.  The
exchange element and the X time integral pair the pole at u = r as

    f(r+s) - f(r-s) = e^{-i y r} [(g(r+s) - g(r-s)) cos(y s)
                                  - i (g(r+s) + g(r-s)) sin(y s)]

with g the Gaussian window, so rows of any (gap, separation) lie on one
panel grid from s = 0.  One pole pairing takes the exchange rows and the X
rows together (the X rows are its rows at gap 0): the sweep oracle makes
one such call per block, and :func:`oracle_c_batch` and
:func:`oracle_x_time_integral_batch` are its two halves.  cos is even and
sin odd, bit for bit, so each (|y|, r) is one row and a row at -y takes
the conjugate.  Per level, cos/sin are tabulated once per |y| and the
Gaussian pair terms once per separation, and each row is two dot products
(one BLAS ddot each) of its gap's and its separation's table rows over its
own prefix of the grid.  A product grid of gaps and separations takes all
its dots at once on broadcast views of the tables, a scattered batch takes
two dots per row on its gathered table rows; both are the same ddot of the
same values.  A row whose last doubling
still changes it by more than ``raise_tol`` gets a
:class:`ConvergenceError`: the batch functions return it per row and leave
the other rows as they are; the one-value functions raise it.

The batch functions take gaps y and separations in units of sigma.  The
one-row :func:`oracle_a`, :func:`oracle_c` and :func:`oracle_x` take a
:class:`DetectorParams` and a separation, and scale them once:
y = sigma*Omega, separations over sigma.

This is the package's one regularization of the kernel.  The tests check
it against a second one, the regular -i eps kernel extrapolated to eps -> 0,
kept with the one-row rules for single test functions in
``tests/references.py``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .elements import DetectorParams
from .errors import ConvergenceError, GeometryError

__all__ = [
    "oracle_a",
    "oracle_a_batch",
    "oracle_x",
    "oracle_x_envelope",
    "oracle_x_time_integral",
    "oracle_x_time_integral_batch",
    "oracle_c",
    "oracle_c_batch",
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
        # libm hypot, as Python's abs: numpy's complex abs rounds differently
        d = cur - prev
        diff = np.hypot(d.real, d.imag)
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


def _single(values, errors):
    """The value of a one-row quadrature, or the error it recorded."""
    if errors[0] is not None:
        raise errors[0]
    return values[0]


def _base_panels(length: float) -> int:
    return max(8, int(math.ceil(length / _PANEL_SIGMAS)))


def oracle_a_batch(
    y, *, raise_tol: float = 1e-8
) -> tuple[np.ndarray, list[ConvergenceError | None]]:
    """The self term of :func:`oracle_a` (``l_image = 0``) at the gaps
    ``y``, all in one quadrature pass.

    Returns the values and, per gap, None or the :class:`ConvergenceError`
    of its quadrature; each value is the one-gap value bit for bit.
    """
    om = np.asarray(y, dtype=float).reshape(-1)
    # the finite part is even in y (cos(-x) is cos(x) bit for bit): one
    # quadrature per |y|
    mags, mag_of = np.unique(np.abs(om), return_inverse=True)

    def paired(k: np.ndarray, s: np.ndarray) -> np.ndarray:
        # [f(s) + f(-s) - 2 f(0)]/s^2 of the windowed phase f(u) = e^{-u^2/4 - i y u}
        # is real: [2 e^{-s^2/4} cos(y s) - 2]/s^2.  Times 1/s^2 and summed as
        # complex numbers with imaginary part 0, as the complex form was:
        # the same roundings, so the values stay within one ulp of its values
        v = (2.0 * np.exp(-s * s / 4.0)) * np.cos(mags[k, None] * s) - 2.0
        return (v * (1.0 / (s * s))).astype(complex)

    finite, errors = _refined_quad(
        paired, mags.size, 0.0, _WINDOW_SIGMAS, base_panels=_base_panels(_WINDOW_SIGMAS),
        target=1e-12, raise_tol=raise_tol,
    )
    # the Hadamard finite part, with the -2 f(0)/u^2 tail beyond the window
    hadamard = finite.real[mag_of] - 2.0 / _WINDOW_SIGMAS
    # sgn(u) delta(u^2) acts as f'(0) = -i y: (-i y)/(4 pi i) = -y/(4 pi)
    delta_part = -om / (4.0 * math.pi)
    values = _SQRT_PI * (delta_part - hadamard / (4.0 * math.pi**2))
    return values, [errors[j] for j in mag_of.tolist()]


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

    cos(-y s) and sin(-y s) are cos(y s) and -sin(y s) bit for bit, so P is
    even in y and Q odd: each distinct (|y|, r) is integrated once, on
    cos/sin tabulated at |y|, and a row at y < 0 takes its P + i Q.  A gap
    of -0.0 is the gap 0.0.

    Row k sums the first ``_base_panels(r_k + window)`` 2^level panels of
    width 3/2^level from s = 0, its n nodes.  At each level cos/sin
    are tabulated once per |y|, and the pair terms (g(r+s) -+ g(r-s)) w/s
    once per separation; P and Q of a row are two dot products
    (``np.vecdot``, one BLAS ddot each) of its gap's and its separation's
    table rows over the same n contiguous nodes.  Where a block of rows
    covers at least half of its gaps x separations (a product grid, one
    gap), all of those dots are taken at once on broadcast views;
    otherwise each row's dots are taken on its gathered table rows, two
    per row.  Either way a row's value is the same ddot of the same values,
    so it depends only on its own (y, r).
    """
    gaps, gap_of = np.unique(np.abs(y), return_inverse=True)
    seps, sep_of = np.unique(r, return_inverse=True)
    # the distinct (|y|, r) rows
    rows, row_of = np.unique(gap_of * seps.size + sep_of, return_inverse=True)
    gap_of, sep_of = np.divmod(rows, seps.size)
    panels = np.array([_base_panels(x + _WINDOW_SIGMAS) for x in seps.tolist()])

    def sums(k: np.ndarray, level: int) -> np.ndarray:
        gap_k, sep_k = gap_of[k], sep_of[k]
        panels_k = panels[sep_k]
        s, w = _pairing_grid(_PANEL_SIGMAS * 0.5**level, int(panels_k.max()) << level)
        p, q = np.empty(k.size), np.empty(k.size)
        for gs in _pieces(np.unique(gap_k), s.size):
            phase = gaps[gs, None] * s
            cos, sin = np.cos(phase), np.sin(phase)
            # gs and js below are runs of sorted distinct indices: a row
            # is in one if its index lies between the run's ends
            in_gs = (gap_k >= gs[0]) & (gap_k <= gs[-1])
            for count in np.unique(panels_k[in_gs]).tolist():
                n = (count << level) * _GL_UNIT.size
                ws = w[:n] / s[:n]
                group = np.flatnonzero(in_gs & (panels_k == count))
                sep_g = sep_k[group]
                for js in _pieces(np.unique(sep_g), n):
                    # g(r - s) = e and g(r + s) = e e^{-r s}: the
                    # difference through expm1, without cancellation at
                    # small r s.  In place (no table-sized temporaries),
                    # with the roundings of e = exp(-(s - r)^2/4),
                    # d = e expm1(-r s), dp = d ws and dq = (2 e + d) ws
                    rj = seps[js, None]
                    e = s[:n] - rj
                    np.square(e, out=e)
                    np.negative(e, out=e)
                    np.exp(np.divide(e, 4.0, out=e), out=e)
                    d = np.expm1(-rj * s[:n])
                    d *= e
                    e *= 2.0
                    e += d
                    dp, dq = np.multiply(d, ws, out=d), np.multiply(e, ws, out=e)
                    block = group[(sep_g >= js[0]) & (sep_g <= js[-1])]
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
    values, errors = _refine(
        sums, [(0.0, span[j]) for j in sep_of.tolist()], target=1e-12, raise_tol=raise_tol
    )
    pv = values[row_of]
    mirrored = y < 0.0
    pv[mirrored] = pv[mirrored].conj()
    return pv, [errors[j] for j in row_of.tolist()]


def _separations(l_image) -> np.ndarray:
    r = np.array(l_image, dtype=float).reshape(-1)
    bad = ~(np.isfinite(r) & (r > 0.0))
    if bad.any():
        raise GeometryError(f"l_image must be > 0, got {r[bad][0].item()!r}")
    return r


def _oracle_xc_batch(
    y, l_c, l_x, raise_tol: float = 1e-8
) -> tuple[tuple[np.ndarray, list], tuple[np.ndarray, list]]:
    """:func:`oracle_c_batch` at the rows (``y``, ``l_c``) of equal length
    and :func:`oracle_x_time_integral_batch` at the separations ``l_x``, in
    one pole pairing: the X rows are its rows at gap +0.0.

    Returns the values and per-row errors of C, then those of X; each
    value is the one-row value bit for bit.
    """
    om = np.asarray(y, dtype=float).reshape(-1)
    r, big_l = _separations(l_c), _separations(l_x)
    pv, errors = _pole_pairing(
        np.concatenate([om, np.zeros(big_l.size)]), np.concatenate([r, big_l]), raise_tol
    )
    pv_c, pv_x = pv[:om.size], pv[om.size:]
    cos, sin = np.cos(om * r), np.sin(om * r)
    g = np.exp(-r * r / 4.0)
    # endpoint rule for sgn(u) delta(u^2 - r^2): f(r) - f(-r) = -2i g(r) sin(y r)
    delta_c = -g * sin / (4.0 * math.pi * r)
    # the pole at -r is -conj of the pole at r, so the pair leaves twice the
    # real part of e^{-i y r} (P - i Q): C is exactly real
    pv_part_c = -(cos * pv_c.real + sin * pv_c.imag) / (4.0 * math.pi**2 * r)
    c = (_SQRT_PI * (delta_c + pv_part_c)).astype(complex)
    # X: PV Int_0^inf g(u)/(u^2 - L^2) = (1/2L) PV Int g(u)/(u - L) over the
    # whole line (g is even): the pole pairing at zero gap, whose integrand
    # (g(L+s) - g(L-s))/s is smooth on the scale 1 for any L
    g_l = np.exp(-big_l * big_l / 4.0)
    # the delta is supported at u = +L only
    delta_x = -(g_l / (2.0 * big_l)) / (4.0 * math.pi)
    pv_part_x = -pv_x.real / (2.0 * big_l) / (4.0 * math.pi**2)
    return (c, errors[:om.size]), (pv_part_x + 1j * delta_x, errors[om.size:])


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
    return _oracle_xc_batch(om, r, (), raise_tol)[0]


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
    dependence, from the centre-of-time integral.  Where y^2 exceeds the
    float range (|y| > 1.3e154) it is -0.0, as where e^{-y^2} underflows."""
    try:
        y2 = y**2
    except OverflowError:
        y2 = math.inf
    return -2.0 * _SQRT_PI * math.exp(-y2)


def oracle_x_time_integral_batch(
    l_image, *, raise_tol: float = 1e-8
) -> tuple[np.ndarray, list[ConvergenceError | None]]:
    """:func:`oracle_x_time_integral` at the separations ``l_image``, all in
    one quadrature pass.

    Returns the values and, per separation, None or the
    :class:`ConvergenceError` of its quadrature; each value is the
    one-separation value bit for bit.
    """
    return _oracle_xc_batch((), (), l_image, raise_tol)[1]


def oracle_x_time_integral(l_image: float, *, raise_tol: float = 1e-8) -> complex:
    """Int_0^inf du e^{-u^2/4} W(u, L): the gap-independent quadrature of X.

    The integral runs over the time difference u > 0 only, with the delta
    supported at u = +L and the simple pole at u = L; the principal value
    is taken over the whole line by symmetric pairing about the pole.
    """
    return complex(_single(*oracle_x_time_integral_batch([l_image], raise_tol=raise_tol)))
