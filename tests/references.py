"""Test-only references: a second regularization of the Wightman kernel,
the one-row distributional rules, the eigenvalue-exact entanglement
measures and the scalar geometry helpers.

The package evaluates the detector integrals one way, by the distributional
quadrature of :mod:`udwpair.wightman` that ``udwpair verify`` runs, and
the measures one way, by the X-state closed forms.  The tests check both
against these independent routes:

* :func:`oracle_ieps` evaluates the same integrals with the regular kernel

      W_eps(u, R) = -(1/4 pi^2) / ((u - i eps)^2 - R^2)

  by adaptive quadrature (``scipy.integrate.quad``) and
  Richardson-extrapolates eps -> 0 (the distributional limit).  The two
  regularizations agreeing is the strongest correctness check available
  for the closed forms.  It takes a :class:`DetectorParams` and a
  separation and scales them once: y = sigma*Omega, separations over
  sigma.
* :func:`sgn_delta_square`, :func:`pv_over_pole` and
  :func:`hadamard_double_pole` apply the distributional rules of
  :mod:`udwpair.wightman` to one test function each, on equal panels of
  any interval (:func:`_refined_quad`, a second grid under the package's
  panel doubling).  :func:`_hadamard_rows` takes the Hadamard finite part
  of a batch of complex test functions: the self term's complex form,
  against which the tests check the package's real one.
* :func:`negativity_exact` and :func:`concurrence_exact` take the
  eigenvalues (and singular values) of an arbitrary two-qubit density
  matrix, after checking it with the tolerances of
  :func:`udwpair.entanglement.xstate_measures_batch`.
* :func:`separation` is :func:`udwpair.geometry.separation_array` on
  floats, and :func:`worldlines_from_orientation` places a pair at length
  L and angle theta.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, NamedTuple, Sequence

import numpy as np

from udwpair.elements import DetectorParams
from udwpair.entanglement import _DENSITY_TOL, _trace_error
from udwpair.errors import ConvergenceError, DomainError, GeometryError, InvalidStateError
from udwpair.geometry import WorldlinePair, separation_array
from udwpair.wightman import (
    _GL_NODES,
    _GL_WEIGHTS,
    _SQRT_PI,
    _WINDOW_SIGMAS,
    _base_panels,
    _pieces,
    _refine,
    _x_envelope,
)

#: An integrand of a batch: ``g(k, u)`` gives rows ``k`` (an index array)
#: at the nodes ``u`` (1-D) as a (len(k), len(u)) array.
_RowIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


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


def _refined_quad(
    g: _RowIntegrand, rows: int, a: float, b: float, *, base_panels: int, **options
) -> tuple[np.ndarray, list[ConvergenceError | None]]:
    """The package's panel doubling (``udwpair.wightman._refine``) of the
    ``rows`` integrands of ``g`` on [a, b], on ``max(4, base_panels)`` equal
    panels at the base level: a second grid, for test functions of any
    interval."""
    n = max(4, base_panels)
    return _refine(
        lambda k, level: _panel_sums(g, k, a, b, n << level), [(a, b)] * rows, **options
    )


def _single(values, errors):
    """The value of a one-row quadrature, or the error it recorded."""
    if errors[0] is not None:
        raise errors[0]
    return values[0]


def _one_row(f: Callable[[np.ndarray], np.ndarray]) -> _RowIntegrand:
    """The one-row batch integrand of a function of the nodes."""
    return lambda _k, u: np.asarray(f(u))[None]


def _quad(g: Callable[[np.ndarray], np.ndarray], a: float, b: float, **options) -> complex:
    """:func:`_refined_quad` of one function of the nodes: its value, or
    its error raised."""
    return complex(_single(*_refined_quad(_one_row(g), 1, a, b, **options)))


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
    """Hadamard finite parts <1/u^2, f> = Int_0^inf [f(u)+f(-u)-2 f(0)]/u^2 du
    of the ``rows`` functions ``f(k, u)``, all with f(k, 0) = ``f00``.

    ``span`` must cover their support; the slowly decaying -2 f(0)/u^2
    remainder beyond it is added analytically.
    """

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
            values.append(_x_envelope(y) * raw)
        else:

            def integrand(u: float, eps=eps) -> complex:
                kern = -1.0 / (4.0 * math.pi**2 * (complex(u, -eps) ** 2 - r * r))
                gauss = math.exp(-u * u / 4.0)
                return gauss * complex(math.cos(y * u), -math.sin(y * u)) * kern

            pts = [-r, 0.0, r] if r > 0 else [0.0]
            raw = _quad_complex(integrand, -(r + _WINDOW_SIGMAS), r + _WINDOW_SIGMAS, points=pts)
            values.append(_SQRT_PI * raw)

    return richardson_zero_limit(eps_list, values, divergence_tol=divergence_tol)


_SY_SY = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
)


def _require_density_matrix(rho: np.ndarray, tol: float = _DENSITY_TOL) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidStateError(f"expected a 4x4 matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho.view(float))):
        raise InvalidStateError("density matrix contains non-finite entries")
    if abs(np.trace(rho) - 1.0) > tol:
        raise _trace_error(np.trace(rho), rho[3, 3].real, abs(rho[0, 3]))
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise InvalidStateError("matrix is not Hermitian")
    if np.linalg.eigvalsh(rho).min() < -tol:
        raise InvalidStateError("matrix is not positive semidefinite")
    return rho


def partial_transpose_a(rho: np.ndarray) -> np.ndarray:
    """Partial transpose over the first qubit: (kl, mn) -> (ml, kn)."""
    rho = np.asarray(rho, dtype=complex)
    return rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)


def negativity_exact(rho: np.ndarray) -> float:
    """Negativity (trace-norm form): sum of |negative eigenvalues| of rho^{T_A}."""
    rho = _require_density_matrix(rho)
    lams = np.linalg.eigvalsh(partial_transpose_a(rho))
    return float(np.sum(np.clip(-lams, 0.0, None)))


def concurrence_exact(rho: np.ndarray) -> float:
    """Wootters concurrence from the spin-flipped product rho rho~.

    The decreasing lambda_i are the square roots of the eigenvalues of
    rho rho~ with rho~ = (sy x sy) rho* (sy x sy).  They equal the singular
    values of sqrt(rho) (sy x sy) conj(sqrt(rho)), which is how they are
    computed here: the SVD route is backward stable and avoids the
    sqrt-of-eigenvalue noise amplification near degenerate points.
    """
    rho = _require_density_matrix(rho)
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lams = np.linalg.svd(sqrt_rho @ _SY_SY @ sqrt_rho.conj(), compute_uv=False)
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def separation(pair: WorldlinePair) -> float:
    """Euclidean distance L = |x_A - x_B| between the static worldlines."""
    return float(separation_array(pair))


def worldlines_from_orientation(length: float, theta: float) -> WorldlinePair:
    """Detector A at the spatial origin, B at (L cos(theta), 0, L sin(theta)).

    theta = pi/2 aligns the pair with the identified z-direction.  Only
    meaningful for translation-invariant spacetimes (Minkowski, cylinder);
    for the twisted cylinder absolute positions matter and should be set
    directly on :class:`WorldlinePair`.
    """
    if not (math.isfinite(length) and length > 0.0):
        raise GeometryError(f"separation must be finite and > 0, got {length!r}")
    return WorldlinePair(
        d_a=(0.0, 0.0),
        d_b=(length * math.cos(theta), 0.0),
        z_a=0.0,
        z_b=length * math.sin(theta),
    )
