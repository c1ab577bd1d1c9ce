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

Quadrature is composite Gauss-Legendre on one grid, 32-node panels of
width 3/2^level from s = 0 (:func:`_pairing_grid`), with panel doubling
(:func:`_refine`), for many integrands in one numpy pass.  A row at
separation r covers s up to r + 24 (``_WINDOW_SIGMAS``) in whole base
panels, at least 8: the window terms it leaves out are at most e^{-144} <
2^-200 of the window's peak.  Each row stops at its own refinement level,
so its value does not depend on the other rows, bit for bit.  The self
term is that grid at r = 0, in real arithmetic: the Hadamard pairing of
e^{-u^2/4 - i y u} is

    [2 e^{-s^2/4} cos(y s) - 2]/s^2
        = [-4 e^{-s^2/4} sin^2(y s/2) + 2 expm1(-s^2/4)]/s^2,

even in y, so each |y| is one row: one dot product of its sin^2 table
with a gap-free weight table, plus a constant, and no cancellation at
small s.  The exchange element and the X time integral pair the pole as

    f(r+s) - f(r-s) = e^{-i y r} [(g(r+s) - g(r-s)) cos(y s)
                                  - i (g(r+s) + g(r-s)) sin(y s)]

with g the Gaussian window, so rows of any (gap, separation) lie on one
panel grid from s = 0; cos is even and sin odd, bit for bit, so each
(|y|, r) is one row, a row at -y takes the conjugate, and the X rows are
the rows at gap 0 (:func:`_pole_pairing_within_budget`).

:func:`oracle_batch` is the oracle of a batch of points, such as a slab of
``verify`` or ``sweep --oracle``: the self terms of all its points in one
pass and their x and c integrals in one pole pairing, each distinct row
once.  The one-row :func:`oracle_a` (the self term, of a gap),
:func:`oracle_c` and :func:`oracle_x` (of a gap and a separation) run the
same passes on their one row, so a point's values in a batch are theirs
bit for bit; an image term of a is ``oracle_c(y, L).real``.  A
separation that is not finite and positive gets a :class:`GeometryError`
in its rows; one whose grid would exceed ``ORACLE_NODE_BUDGET`` nodes at
the deepest refinement (over 1512), or that is below the smallest normal
float, gets a :class:`DomainError`; so does a self-term or exchange row
whose gap exceeds ``ORACLE_GAP_LIMIT``, the largest that the deepest
panels resolve.  All of these come before any
grid is sized.  A row whose last doubling still changes it by more than
1e-8 gets a :class:`ConvergenceError`.  :func:`oracle_batch` records these
per point and leaves the other points as they are; the one-row functions
raise them.

This is the package's one regularization of the kernel.  The tests check
it against a second one, the regular -i eps kernel extrapolated to eps -> 0,
kept with the one-row rules for single test functions in
``tests/references.py``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .elements import MIN_SEPARATION, check_gap, flag_errors, gap_error
from .errors import ConvergenceError, DomainError, GeometryError

__all__ = ["oracle_a", "oracle_batch", "oracle_c", "oracle_x"]

_SQRT_PI = math.sqrt(math.pi)
#: Gaussian switching support: past it the window e^{-u^2/4} is at most
#: e^{-(24/2)^2} = e^{-144} < 2^-200 of its peak, below what a double sum
#: of the integrand's O(1) terms can hold.
_WINDOW_SIGMAS = 24.0

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
#: The nodes mapped to [0, 1].
_GL_UNIT = 0.5 + 0.5 * _GL_NODES

#: Width of a base-level panel of the pole-pairing grid.
_PANEL_SIGMAS = 3.0

#: Largest rows x nodes array one quadrature pass evaluates or gathers; a
#: batch with more is evaluated a slice of rows at a time (at least one row).
_BATCH_NODES = 1 << 15

#: Panel doublings after the base level before a row that still changes
#: fails to converge.
_MAX_DOUBLINGS = 6

#: Most nodes that one separation's pole-pairing grid may have at the
#: deepest refinement: separations up to 1512 sigma.  A row's temporaries
#: take 72 bytes per node there (75 MB at the budget, by tracemalloc); a
#: larger separation gets a DomainError before anything is allocated.
ORACLE_NODE_BUDGET = 1 << 20

#: Largest gap |y| whose self-term and exchange rows are integrated: the
#: deepest panels (width 3/2^6, 32 nodes) then hold at least 2 pi nodes
#: per period of cos(y s), one node per radian of phase on average, which
#: gives 2048/3 = 682.7.  A larger gap gets a DomainError before any
#: quadrature (the self term stops converging near 814).
ORACLE_GAP_LIMIT = _GL_UNIT.size * (1 << _MAX_DOUBLINGS) / _PANEL_SIGMAS

#: The quadratures of a batch at one refinement: ``sums(k, level)`` gives
#: rows ``k`` (an index array) at doubling ``level`` (0: the base panels).
_LevelSums = Callable[[np.ndarray, int], np.ndarray]


def _pieces(items: np.ndarray, width: int) -> list[np.ndarray]:
    """``items`` in slices of at most ``_BATCH_NODES // width`` entries (at
    least one), so that a slice of rows of ``width`` nodes stays within
    ``_BATCH_NODES``."""
    step = max(1, _BATCH_NODES // width)
    return [items[i:i + step] for i in range(0, items.size, step)]


def _refine(
    sums: _LevelSums,
    intervals: Sequence[tuple[float, float]],
    *,
    target: float = 1e-12,
    raise_tol: float = 1e-8,
    max_doublings: int = _MAX_DOUBLINGS,
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


def _screen(check, values: np.ndarray) -> np.ndarray:
    """``check(v)`` of each of ``values``, the error of each (None for
    none), as an object array: the per-row errors of a batch."""
    return np.fromiter(map(check, values.tolist()), object, values.size)


def _base_panels(length: float) -> int:
    return max(8, int(math.ceil(length / _PANEL_SIGMAS)))


def _unresolved(mag: float) -> DomainError | None:
    """The error of a gap magnitude over ``ORACLE_GAP_LIMIT`` (or NaN),
    else None."""
    if mag <= ORACLE_GAP_LIMIT:
        return None
    return DomainError(
        f"the oracle's quadrature grid resolves gaps up to |Omega sigma| = "
        f"{ORACLE_GAP_LIMIT:.6g} (ORACLE_GAP_LIMIT), this one has |Omega sigma| = {mag!r}"
    )


def _self_terms(
    y: np.ndarray, mags: np.ndarray, mag_of: np.ndarray, rows: np.ndarray, errors: np.ndarray
) -> np.ndarray:
    """The self term at the gaps ``y`` (|y| = ``mags[mag_of]``) from one
    quadrature pass over the |y| = ``mags[rows]``, NaN at the others; the
    :class:`ConvergenceError` of a pass row goes to its slot of ``errors``."""
    gaps = mags[rows]
    # the pairing grid at r = 0
    panels = _base_panels(_WINDOW_SIGMAS)
    span = panels * _PANEL_SIGMAS

    def sums(k: np.ndarray, level: int) -> np.ndarray:
        # [f(s) + f(-s) - 2 f(0)]/s^2 of the windowed phase
        # f(u) = e^{-u^2/4 - i y u} is [2 e^{-s^2/4} cos(y s) - 2]/s^2, which
        # cancels at small s; as -4 e^{-s^2/4} sin^2(y s/2)/s^2 plus the
        # gap-free 2 expm1(-s^2/4)/s^2 it does not
        s, w = _pairing_grid(_PANEL_SIGMAS * 0.5**level, panels << level)
        ws = w / (s * s)
        weight = -4.0 * np.exp(-s * s / 4.0) * ws
        constant = np.dot(2.0 * np.expm1(-s * s / 4.0), ws)
        parts = []
        for part in _pieces(k, s.size):
            half = np.sin(gaps[part, None] * (s / 2.0))
            parts.append(np.vecdot(np.square(half, out=half), weight))
        return np.concatenate(parts) + constant

    finite, errors[rows] = _refine(sums, [(0.0, span)] * gaps.size)
    # the Hadamard finite part, with the -2 f(0)/u^2 tail beyond the span
    hadamard = np.full(mags.size, math.nan)
    hadamard[rows] = finite - 2.0 / span
    # sgn(u) delta(u^2) acts as f'(0) = -i y: (-i y)/(4 pi i) = -y/(4 pi)
    return _SQRT_PI * (-y / (4.0 * math.pi) - hadamard[mag_of] / (4.0 * math.pi**2))


def _pairing_grid(width: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``panels`` panels of ``width``
    from s = 0; node j and its weight are the same for any ``panels`` that
    includes it."""
    s = ((np.arange(panels)[:, None] + _GL_UNIT) * width).ravel()
    w = np.tile(0.5 * width * _GL_WEIGHTS, panels)
    return s, w


def _separation_error(r: float) -> GeometryError | DomainError | None:
    """The error of a separation that is not finite and positive, below
    ``MIN_SEPARATION``, or whose pole-pairing grid would exceed
    ``ORACLE_NODE_BUDGET`` nodes at the deepest refinement, else None."""
    if not 0.0 < r < math.inf:
        return GeometryError(f"separation must be finite and > 0, got {r!r}")
    if r < MIN_SEPARATION:
        return DomainError(
            f"the oracle takes separations from {MIN_SEPARATION!r} sigma, the smallest "
            f"normal float, this one is {r!r} sigma"
        )
    panel_nodes = _GL_UNIT.size << _MAX_DOUBLINGS
    if _base_panels(r + _WINDOW_SIGMAS) * panel_nodes <= ORACLE_NODE_BUDGET:
        return None
    # the node count itself may be too large for a float
    covered = ORACLE_NODE_BUDGET // panel_nodes * _PANEL_SIGMAS - _WINDOW_SIGMAS
    return DomainError(
        f"the oracle at separation {r!r} sigma is over its budget of {ORACLE_NODE_BUDGET} "
        f"quadrature nodes at the deepest refinement (ORACLE_NODE_BUDGET), which covers "
        f"separations up to {covered:g} sigma"
    )


def _pole_rows(
    mags: np.ndarray, seps: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """P - i Q of :func:`_pole_pairing_within_budget` at the sorted distinct
    rows ``keys``, key i * seps.size + j being (|y|, r) = (``mags[i]``,
    ``seps[j]``), and the rows' errors.  A row whose separation has a
    :func:`_separation_error`, or whose gap is over ``ORACLE_GAP_LIMIT``,
    sizes no grid: NaN, with that error (the separation's first)."""
    gap_of, sep_of = np.divmod(keys, seps.size)
    bad = _screen(_separation_error, seps)
    good = np.equal(bad, None)
    errors = np.where(good[sep_of], _screen(_unresolved, mags)[gap_of], bad[sep_of])
    fits = np.flatnonzero(np.equal(errors, None))
    pv = np.full(keys.size, math.nan, dtype=complex)
    # no row that fits has a separation with an error: those are 0 here,
    # so that sizing the separations' grids cannot overflow
    pv[fits], errors[fits] = _pole_pairing_within_budget(
        mags, gap_of[fits], np.where(good, seps, 0.0), sep_of[fits]
    )
    return pv, errors


def _pole_pairing_within_budget(
    gaps: np.ndarray, gap_of: np.ndarray, seps: np.ndarray, sep_of: np.ndarray
) -> tuple[np.ndarray, list[ConvergenceError | None]]:
    """PV Int du e^{-u^2/4 - i y u}/(u - r) for the rows (|y|, r), as
    P - i Q with the phase e^{-i y r} taken out, where row k has |y| =
    ``gaps[gap_of[k]]`` and r = ``seps[sep_of[k]]``: distinct rows, sorted
    by gap, then separation, of sorted distinct gaps and separations.

        P = Int_0^span (g(r+s) - g(r-s)) cos(y s)/s ds
        Q = Int_0^span (g(r+s) + g(r-s)) sin(y s)/s ds

    Row k sums the first ``_base_panels(r_k + window)`` 2^level panels of
    width 3/2^level from s = 0, its n nodes.  At each level cos/sin are
    tabulated once per |y| and the pair terms (g(r+s) -+ g(r-s)) w/s once
    per separation, and P and Q of a row are two dot products (``np.vecdot``,
    one BLAS ddot each) of its gap's and its separation's table rows over
    its n nodes: all at once on broadcast views where a block of rows covers
    at least half of its gaps x separations (a product grid, one gap), else
    two per row on gathered table rows.  Either way a row's value is the same
    ddot of the same values, so it depends only on its own (y, r).
    """
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
    return _refine(sums, [(0.0, span[j]) for j in sep_of.tolist()])


def _exchange(om: np.ndarray, r: np.ndarray, pv: np.ndarray) -> np.ndarray:
    """C at the rows (``om``, ``r``) from their pole pairings ``pv`` at
    |y|, NaN where ``pv`` is."""
    # cos(-y s) and sin(-y s) are cos(y s) and -sin(y s): P + i Q at -|y|
    pv = np.where(om < 0.0, pv.conj(), pv)
    # a row whose gap or separation the oracle does not take is NaN: so is
    # its separation here, where y r, r^2 or 1/r could overflow
    r = np.where(np.isnan(pv), math.nan, r)
    cos, sin = np.cos(om * r), np.sin(om * r)
    g = np.exp(-r * r / 4.0)
    # endpoint rule for sgn(u) delta(u^2 - r^2): f(r) - f(-r) = -2i g(r) sin(y r)
    delta_c = -g * sin / (4.0 * math.pi * r)
    # the pole at -r is -conj of the pole at r, so the pair leaves twice the
    # real part of e^{-i y r} (P - i Q): C is exactly real
    pv_part_c = -(cos * pv.real + sin * pv.imag) / (4.0 * math.pi**2 * r)
    return (_SQRT_PI * (delta_c + pv_part_c)).astype(complex)


def _time_integral(big_l: np.ndarray, pv: np.ndarray) -> np.ndarray:
    """Int_0^inf du e^{-u^2/4} W(u, L), the gap-independent quadrature of X,
    at the separations L = ``big_l`` from their pole pairings ``pv`` at gap
    0, NaN where ``pv`` is.  The integral runs over u > 0 only, with the
    delta supported at u = +L and the simple pole at u = L."""
    # PV Int_0^inf g(u)/(u^2 - L^2) = (1/2L) PV Int g(u)/(u - L) over the
    # whole line (g is even): the pole pairing at zero gap, whose integrand
    # (g(L+s) - g(L-s))/s is smooth on the scale 1 for any L
    big_l = np.where(np.isnan(pv), math.nan, big_l)
    g_l = np.exp(-big_l * big_l / 4.0)
    # the delta is supported at u = +L only
    delta_x = -(g_l / (2.0 * big_l)) / (4.0 * math.pi)
    pv_part_x = -pv.real / (2.0 * big_l) / (4.0 * math.pi**2)
    return pv_part_x + 1j * delta_x


def oracle_batch(
    y, separations: Sequence, errors: np.ndarray
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """a at the gaps ``y`` and, per array of ``separations``, x and c at
    those separations, at the points of ``errors`` (``y`` and each array
    broadcast to its shape): a and a list of (x, c), of that shape.

    A point with an error in ``errors`` is skipped.  A point whose gap is
    not finite gets there the :func:`~udwpair.elements.gap_error` that the
    one-row oracles raise, and any other point the exception of its first
    failing integral, in the order a, then x and c of each array; a pass
    that raises (the self terms or the pole pairing) fails its points.
    Values are NaN at a point with an error, else the values of
    :func:`oracle_a`, :func:`oracle_x` and :func:`oracle_c` bit for bit.
    """
    shape = errors.shape
    # the separations on a leading axis, of their own broadcast shape
    r = np.stack(np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in separations)))
    a = np.full(shape, math.nan)
    # NaN in both parts: |v - NaN| is NaN for any v, an infinite one too
    x, c = (np.full((len(r), *shape), complex(math.nan, math.nan)) for _ in "xc")
    y = np.asarray(y, dtype=float)
    flag_errors(errors, ~np.isfinite(y), gap_error, y)
    todo = np.equal(errors, None)
    if not todo.any():
        return a, list(zip(x, c))
    # the distinct |y| of the gaps and 0, the gap of the X rows (mags[0])
    mags, mag_of = np.unique(np.append(np.abs(y), 0.0), return_inverse=True)
    mag_of = mag_of[:-1].reshape(y.shape)
    gap_of = np.broadcast_to(mag_of, shape)[todo]
    # the distinct separations, then those of the points that take part
    seps, sep_of = np.unique(r, return_inverse=True)
    sep_of = np.stack([np.broadcast_to(term, shape)[todo] for term in sep_of.reshape(r.shape)])
    used = np.bincount(sep_of.reshape(-1), minlength=seps.size) > 0
    seps, sep_of = seps[used], (np.cumsum(used) - 1)[sep_of]
    # the distinct (|y|, r) rows, after the X rows (0, r) of each r
    pairs = np.concatenate([np.arange(seps.size), (gap_of * seps.size + sep_of).reshape(-1)])
    keys, row_of = np.unique(pairs, return_inverse=True)
    x_row, c_row = row_of[:seps.size], row_of[seps.size:].reshape(sep_of.shape)
    a_errors = _screen(_unresolved, mags)
    try:
        live = np.bincount(gap_of, minlength=mags.size) > 0
        rows = np.flatnonzero(live & np.equal(a_errors, None))
        a_y = _self_terms(y, mags, mag_of, rows, a_errors)
    except Exception as exc:
        a_y, a_errors = math.nan, np.full(mags.size, exc, object)
    try:
        pv, row_errors = _pole_rows(mags, seps, keys)
    except Exception as exc:
        pv, row_errors = np.full(keys.size, complex(math.nan)), np.full(keys.size, exc, object)

    first = a_errors[gap_of]
    for part in row_errors[np.stack([x_row[sep_of], c_row], axis=1).reshape(-1, gap_of.size)]:
        first = np.where(np.equal(first, None), part, first)
    errors[todo] = first
    done = np.equal(errors, None)
    ok = done[todo]

    a[done] = np.broadcast_to(a_y, shape)[done]
    envelope = np.array([_x_envelope(m) for m in mags.tolist()])
    x[:, done] = (envelope[gap_of] * _time_integral(seps, pv[x_row])[sep_of])[:, ok]
    c[:, done] = _exchange(np.broadcast_to(y, shape)[todo], seps[sep_of], pv[c_row])[:, ok]
    return a, list(zip(x, c))


def _pole_row(mag: float, r: float) -> np.ndarray:
    """The pole pairing of the one row (|y|, r) = (``mag``, ``r``), or its
    error raised."""
    pv, errors = _pole_rows(np.array([mag]), np.array([r]), np.zeros(1, dtype=int))
    if errors[0] is not None:
        raise errors[0]
    return pv


def oracle_a(y: float) -> float:
    """Transition-probability coefficient A/eps0^2 from the distributional
    kernel: the single-worldline self term (f'(0) delta rule plus Hadamard
    double pole), real for static worldlines.  An image term of A, a
    detector correlating with its own translate at separation L, is
    ``oracle_c(y, L).real``.
    """
    check_gap(y)
    gaps = np.array([y], dtype=float)
    mags = np.abs(gaps)
    errors = _screen(_unresolved, mags)
    fits = np.flatnonzero(np.equal(errors, None))
    a = _self_terms(gaps, mags, np.zeros(1, dtype=int), fits, errors)
    if errors[0] is not None:
        raise errors[0]
    return float(a[0])


def oracle_c(y: float, l_image: float) -> complex:
    """Exchange coefficient C/eps0^2 from the distributional kernel:
    sqrt(pi) Int du e^{-u^2/4} e^{-i y u} W(u, r).

    Identical static detectors give a real value: the imaginary part is
    exactly 0.
    """
    check_gap(y)
    gaps, rho = np.array([y], dtype=float), np.array([l_image], dtype=float)
    return complex(_exchange(gaps, rho, _pole_row(abs(gaps[0]), rho[0]))[0])


def oracle_x(y: float, l_image: float) -> complex:
    """Nonlocal coefficient X/eps0^2 from the time-ordered half-plane integral:
    :func:`_x_envelope` times the gap-independent time integral, whose
    principal value is taken over the whole line by symmetric pairing about
    the pole."""
    check_gap(y)
    big_l = np.array([l_image], dtype=float)
    quad = complex(_time_integral(big_l, _pole_row(0.0, big_l[0]))[0])
    return _x_envelope(float(y)) * quad


def _x_envelope(y: float) -> float:
    """The exact factor -2 sqrt(pi) e^{-y^2} of X/eps0^2: the whole gap
    dependence, from the centre-of-time integral.  Where y^2 exceeds the
    float range (|y| > 1.3e154) it is -0.0, as where e^{-y^2} underflows."""
    try:
        y2 = y**2
    except OverflowError:
        y2 = math.inf
    return -2.0 * _SQRT_PI * math.exp(-y2)
