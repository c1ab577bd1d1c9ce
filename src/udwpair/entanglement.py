"""Entanglement and correlation measures on the two-detector state.

Exact eigenvalue-based negativity and Wootters concurrence for arbitrary
two-qubit density matrices, their closed forms on X-states, the
leading-order harvesting condition max(0, |X| - A), the entanglement of
formation, and the sigma_z measurement correlation.

For an X-state with diagonal (r11, r22, r33, r44) and anti-diagonal entries
rho14, rho23, the partial transpose swaps the anti-diagonal entries between
the two 2x2 blocks, so the exact negativity is

    N = max(0, sqrt(((r22-r33)/2)^2 + |rho14|^2) - (r22+r33)/2,
               sqrt(((r11-r44)/2)^2 + |rho23|^2) - (r11+r44)/2)

and the entanglement condition is |rho14|^2 > r22 r33 or
|rho23|^2 > r11 r44 (the two branches are mutually exclusive for a valid
state).  The matching concurrence is
2 max(0, |rho14| - sqrt(r22 r33), |rho23| - sqrt(r11 r44)).

The eigenvalue routes (:func:`negativity_exact`, :func:`concurrence_exact`,
:func:`xstate_measures`) serve as oracles.  Sweeps use
:func:`xstate_measures_batch`, which evaluates the closed forms on arrays
and records, per point, the first failure that the scalar route would
raise: the checks of :func:`assemble_density_matrix` and of a valid density
matrix, in the same order and with the same tolerances and messages, with
positivity tested on the closed-form eigenvalues of the two 2x2 blocks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .elements import (
    XStateAB,
    XStateBatch,
    assemble_density_matrix,
    assembly_checks,
    flag_errors,
)
from .errors import DomainError, InvalidStateError
from .special import modulus

__all__ = [
    "EntanglementReport",
    "partial_transpose_a",
    "negativity_exact",
    "concurrence_exact",
    "xstate_entanglement",
    "entanglement_of_formation",
    "EntanglementOfFormation",
    "correlation",
    "Correlation",
    "xstate_measures",
    "MeasuresBatch",
    "xstate_measures_batch",
]

#: tolerance of the trace, Hermiticity and positivity checks on rho
_DENSITY_TOL = 1e-10
#: eigenvalue round-off absorbed at the ends of the concurrence range
_CONCURRENCE_SLACK = 1e-12
_LN2 = math.log(2.0)

_SY_SY = np.kron(
    np.array([[0.0, -1.0j], [1.0j, 0.0]]), np.array([[0.0, -1.0j], [1.0j, 0.0]])
)


def _trace_error(trace, r44: float, big_x: float) -> InvalidStateError:
    """The trace failure; where E = r44 > 1 it names that cause, a coupling
    for which eps0^2 |x| = |X| is not small."""
    text = f"trace = {complex(trace)!r} differs from 1"
    if r44 > 1.0:
        text += (
            f" because E = r44 = {float(r44)!r} > 1: |X| = eps0^2 |x| = "
            f"{float(big_x)!r} is not small"
        )
    return InvalidStateError(text)


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


def _xstate_entries(rho: np.ndarray, tol: float = 1e-12):
    zero_mask = np.array(
        [
            [False, True, True, False],
            [True, False, False, True],
            [True, False, False, True],
            [False, True, True, False],
        ]
    )
    if np.max(np.abs(rho[zero_mask])) > tol:
        raise InvalidStateError("matrix does not have the X zero pattern")
    diag = rho.diagonal().real
    return diag[0], diag[1], diag[2], diag[3], rho[0, 3], rho[1, 2]


def xstate_closed_forms(r11, r22, r33, r44, m14, m23):
    """(negativity, concurrence) of X-states from their diagonal entries and
    the moduli m14 = |rho14|, m23 = |rho23|; arrays or floats."""
    h1 = (r22 - r33) / 2.0
    h2 = (r11 - r44) / 2.0
    neg = np.maximum(
        np.maximum(0.0, np.sqrt(h1 * h1 + m14 * m14) - (r22 + r33) / 2.0),
        np.sqrt(h2 * h2 + m23 * m23) - (r11 + r44) / 2.0,
    )
    conc = 2.0 * np.maximum(
        np.maximum(0.0, m14 - np.sqrt(np.maximum(r22 * r33, 0.0))),
        m23 - np.sqrt(np.maximum(r11 * r44, 0.0)),
    )
    return neg, conc


def xstate_entanglement(rho: np.ndarray) -> tuple[float, float]:
    """Closed-form (negativity, concurrence) of an X-state density matrix."""
    rho = _require_density_matrix(rho)
    r11, r22, r33, r44, x14, x23 = _xstate_entries(rho)
    neg, conc = xstate_closed_forms(r11, r22, r33, r44, modulus(x14), modulus(x23))
    return float(neg), float(conc)


class EntanglementOfFormation(NamedTuple):
    exact: float
    perturbative: float


def eof_arrays(concurrence):
    """(exact, perturbative) entanglement of formation for concurrences in [0, 1].

    The perturbative form C^2/(4 ln 2) (1 - 2 ln(C/2)) takes the logarithm
    of C, not of C^2, so it stays finite where C^2 underflows.
    """
    c = np.asarray(concurrence, dtype=float)
    p = (1.0 + np.sqrt(np.maximum(0.0, 1.0 - c * c))) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
        pert = c * c / (4.0 * _LN2) * (1.0 - 2.0 * np.log(c / 2.0))
    exact = np.where((p <= 0.0) | (p >= 1.0), 0.0, entropy)
    return exact, np.where(c == 0.0, 0.0, pert)


def _concurrence_out_of_range(c):
    return ~(np.isfinite(c) & (-_CONCURRENCE_SLACK <= c) & (c <= 1.0 + _CONCURRENCE_SLACK))


def _concurrence_range_error(c: float) -> DomainError:
    return DomainError(f"concurrence must lie in [0, 1], got {c!r}")


def entanglement_of_formation(concurrence: float) -> EntanglementOfFormation:
    """Entanglement of formation in ebits from the concurrence.

    Returns the exact value h((1 + sqrt(1 - C^2))/2) together with its
    small-C expansion C^2/(4 ln 2) (1 - ln(C^2/4)), whose remainder is
    O(C^4 log C).
    """
    c = float(concurrence)
    if _concurrence_out_of_range(c):
        raise _concurrence_range_error(c)
    # absorb eigenvalue roundoff at the endpoints only
    exact, pert = eof_arrays(min(max(c, 0.0), 1.0))
    return EntanglementOfFormation(float(exact), float(pert))


class Correlation(NamedTuple):
    general: float
    leading_identical: float | None


def _degenerate_variance(big_a, big_b):
    return (big_a * (1.0 - big_a) <= 0.0) | (big_b * (1.0 - big_b) <= 0.0)


def _degenerate_variance_error(big_a: float, big_b: float) -> DomainError:
    return DomainError(
        "degenerate variance: excitation probabilities must lie strictly "
        f"inside (0, 1), got A={big_a!r}, B={big_b!r}"
    )


def correlation_arrays(a, b, x, c, eps0: float):
    """General sigma_z correlation per eps0^2, for arrays of coefficients.

    (E - A B)/sqrt(A(1-A) B(1-B)) with E - A B = eps0^4 (|x|^2 + 2|c|^2),
    written as [(|x|/sqrt a)(|x|/sqrt b) + 2 (|c|/sqrt a)(|c|/sqrt b)]
    / sqrt((1-A)(1-B)): no intermediate underflows while A and B are
    normal floats, and nothing cancels.
    """
    e2 = eps0 * eps0
    ra = np.sqrt(a)
    rb = np.sqrt(b)
    mx = modulus(x)
    mc = modulus(c)
    with np.errstate(divide="ignore", invalid="ignore"):
        num = (mx / ra) * (mx / rb) + 2.0 * ((mc / ra) * (mc / rb))
        return num / np.sqrt((1.0 - e2 * a) * (1.0 - e2 * b))


def correlation(state: XStateAB, eps0: float) -> Correlation:
    """sigma_z measurement correlation between the two detectors.

    ``general`` is (E - A B)/sqrt(A(1-A) B(1-B)) with the physical eps0
    scaling restored; ``leading_identical`` is the identical-detector
    shortcut eps0^2 (|x|^2 + 2|c|^2)/a (None when a != b), which agrees with
    the general form to relative O(eps0^2).
    """
    e2 = eps0 * eps0
    big_a = e2 * state.a
    big_b = e2 * state.b
    if _degenerate_variance(big_a, big_b):
        raise _degenerate_variance_error(big_a, big_b)
    general = e2 * float(correlation_arrays(state.a, state.b, state.x, state.c, eps0))
    leading = None
    if math.isclose(state.a, state.b, rel_tol=1e-12, abs_tol=0.0):
        ra = math.sqrt(state.a)
        mx = abs(state.x) / ra
        mc = abs(state.c) / ra
        leading = e2 * (mx * mx + 2.0 * (mc * mc))
    return Correlation(general, leading)


class EntanglementReport(NamedTuple):
    """Exact measures plus the closed-form and leading-order diagnostics.

    All entanglement values carry the physical eps0 scaling; ``corr`` is the
    general correlation.  ``negativity_leading = eps0^2 max(0, |x| - a)`` is
    the leading-order harvesting formula (concurrence twice that), and
    ``harvested`` flags |x| > a.
    """

    negativity: float
    concurrence: float
    eof: float
    corr: float
    harvested: bool
    negativity_xstate: float
    concurrence_xstate: float
    negativity_leading: float
    concurrence_leading: float
    negativity_identical: float | None
    corr_identical: float | None
    eof_perturbative: float


def xstate_measures(state: XStateAB, eps0: float) -> EntanglementReport:
    """Evaluate every measure on the assembled detector X-state.

    Reports the exact eigenvalue-based negativity/concurrence, the X-state
    closed forms, the identical-detector simplification r14 - r22 (when
    r22 = r33), and the leading-order max(0, |x| - a), together with the
    entanglement of formation and the measurement correlation.
    """
    rho = assemble_density_matrix(state, eps0)
    neg = negativity_exact(rho)
    conc = concurrence_exact(rho)
    neg_x, conc_x = xstate_entanglement(rho)
    e2 = eps0 * eps0
    neg_lead = e2 * max(0.0, abs(state.x) - state.a)
    r22 = rho[1, 1].real
    r33 = rho[2, 2].real
    neg_ident = None
    if math.isclose(r22, r33, rel_tol=1e-12, abs_tol=1e-16):
        neg_ident = max(0.0, abs(rho[0, 3]) - r22)
    eof = entanglement_of_formation(conc)
    corr = correlation(state, eps0)
    return EntanglementReport(
        negativity=neg,
        concurrence=conc,
        eof=eof.exact,
        corr=corr.general,
        harvested=abs(state.x) > state.a,
        negativity_xstate=neg_x,
        concurrence_xstate=conc_x,
        negativity_leading=neg_lead,
        concurrence_leading=2.0 * neg_lead,
        negativity_identical=neg_ident,
        corr_identical=corr.leading_identical,
        eof_perturbative=eof.perturbative,
    )


class MeasuresBatch(NamedTuple):
    """Sweep measures on a batch: closed-form ``negativity`` and
    ``concurrence`` and the EoF at the physical eps0; ``corr`` and
    ``concurrence_leading`` per eps0^2; ``harvested`` flags |x| > a."""

    negativity: np.ndarray
    concurrence: np.ndarray
    eof: np.ndarray
    eof_perturbative: np.ndarray
    corr: np.ndarray
    concurrence_leading: np.ndarray
    harvested: np.ndarray


def _block_min_eigenvalue(p, q, off):
    """Smaller eigenvalue of the Hermitian block [[p, off], [off*, q]]."""
    h = (p - q) / 2.0
    return (p + q) / 2.0 - np.sqrt(h * h + off * off)


def xstate_measures_batch(
    state: XStateBatch, eps0: float, errors: np.ndarray
) -> MeasuresBatch:
    """Closed-form measures of a batch of detector X-states.

    Records in ``errors`` the first failure that :func:`xstate_measures`
    would raise for each point (points with an error keep it): the checks
    of :func:`assemble_density_matrix`, then the density-matrix checks
    (finite entries, unit trace, positivity; the assembled matrix is
    Hermitian by construction), then the concurrence range of the EoF and
    the variance condition of the correlation.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        ent = assembly_checks(state, eps0, errors)
        r11, r22, r33, r44 = ent[:4]
        m14 = modulus(ent.x14)
        m23 = modulus(ent.x23)
        finite = np.isfinite(r11) & np.isfinite(r22) & np.isfinite(r33) & np.isfinite(r44)
        for z in (ent.x14, ent.x23):
            finite &= np.isfinite(np.real(z)) & np.isfinite(np.imag(z))
        flag_errors(
            errors, ~finite,
            lambda: InvalidStateError("density matrix contains non-finite entries"),
        )
        trace = r11 + r22 + r33 + r44
        flag_errors(
            errors, np.abs(trace - 1.0) > _DENSITY_TOL, _trace_error, trace, r44, m14
        )
        lowest = np.minimum(
            _block_min_eigenvalue(r11, r44, m14), _block_min_eigenvalue(r22, r33, m23)
        )
        flag_errors(
            errors,
            lowest < -_DENSITY_TOL,
            lambda: InvalidStateError("matrix is not positive semidefinite"),
        )

        neg, conc = xstate_closed_forms(r11, r22, r33, r44, m14, m23)
        flag_errors(
            errors,
            _concurrence_out_of_range(conc),
            _concurrence_range_error,
            conc,
        )
        eof, eof_pert = eof_arrays(np.clip(conc, 0.0, 1.0))

        e2 = eps0 * eps0
        big_a = e2 * state.a
        big_b = e2 * state.b
        flag_errors(
            errors,
            _degenerate_variance(big_a, big_b),
            _degenerate_variance_error,
            big_a,
            big_b,
        )
        corr = correlation_arrays(state.a, state.b, state.x, state.c, eps0)
        mx = modulus(state.x)
        lead = 2.0 * (e2 * np.maximum(0.0, mx - state.a)) / e2
    return MeasuresBatch(neg, conc, eof, eof_pert, corr, lead, mx > state.a)
