"""Entanglement and correlation measures on the two-detector state.

The closed-form negativity and Wootters concurrence of X-states, the
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

The measures of detector states come from :func:`xstate_measures_batch`,
which evaluates the closed forms on arrays and records, per point, the
first check that fails: those of :func:`assemble_density_matrix` (A and B
in [0, 1], |X|^2 <= r11 r44 and |C|^2 <= r22 r33 up to ``_BLOCK_SLACK``),
then those of a density matrix (finite entries, unit trace, eigenvalues of
both 2x2 blocks >= -``_DENSITY_TOL``), so this module states every rule of
a valid rho.  :func:`xstate_measures` is that batch on one point.  The
tests check the closed forms against the eigenvalues of arbitrary density
matrices, with the same tolerances, in ``tests/references.py``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .elements import XStateAB, flag_errors, modulus, new_errors, raise_first
from .errors import DomainError, InvalidStateError, PositivityError

__all__ = [
    "Measures",
    "assemble_density_matrix",
    "xstate_measures",
    "xstate_measures_batch",
]

#: absolute slack of the block conditions |X|^2 <= r11 r44, |C|^2 <= r22 r33
_BLOCK_SLACK = 1e-12
#: tolerance of the trace and eigenvalue checks on rho
_DENSITY_TOL = 1e-10
#: eigenvalue round-off absorbed at the ends of the concurrence range
_CONCURRENCE_SLACK = 1e-12
_LN2 = math.log(2.0)


def _as_batch(state: XStateAB) -> XStateAB:
    """One-point batch holding the values of ``state``."""
    return XStateAB(
        np.array([state.a], dtype=float),
        np.array([state.b], dtype=float),
        np.array([state.x], dtype=complex),
        np.array([state.c], dtype=complex),
        tail_bound=np.array([state.tail_bound], dtype=float),
    )


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
    """PositivityError where |z|^2 exceeds ``bound`` by more than _BLOCK_SLACK."""
    mod = modulus(z)
    sq = mod * mod
    flag_errors(
        errors,
        sq > bound + _BLOCK_SLACK,
        lambda u, v: PositivityError(f"{name} = {u!r} exceeds {bound_name} = {v!r}"),
        sq,
        bound,
    )


def _assembled(state: XStateAB, eps0: float, errors: np.ndarray) -> tuple:
    """(A, B, r11, r22, r33, r44, X, C) of a batch: the excitation
    probabilities, the diagonal and the anti-diagonal rho14 = X, rho23 = C
    of the physical X-state, with the checks of
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
    return big_a, big_b, r11, r22, r33, r44, big_x, big_c


def assemble_density_matrix(state: XStateAB, eps0: float) -> np.ndarray:
    """Assemble the physical 4x4 density matrix from eps0-scaled coefficients.

    Raises :class:`PositivityError` when either positivity condition
    r11 r44 >= |X|^2 or r22 r33 >= |C|^2 fails beyond 1e-12, which signals a
    coupling too strong for the leading-order truncation.
    """
    errors = new_errors((1,))
    entries = _assembled(_as_batch(state), eps0, errors)
    raise_first(errors)
    r11, r22, r33, r44 = (float(v[0]) for v in entries[2:6])
    x14, x23 = (complex(v[0]) for v in entries[6:])
    return np.array(
        [
            [r11, 0.0, 0.0, x14],
            [0.0, r22, x23, 0.0],
            [0.0, x23.conjugate(), r33, 0.0],
            [x14.conjugate(), 0.0, 0.0, r44],
        ],
        dtype=complex,
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


class Measures(NamedTuple):
    """Measures of detector X-states, the sweep columns of the same names:
    the closed-form ``negativity`` and ``concurrence`` and the EoF at the
    physical eps0; ``corr`` and ``concurrence_leading`` (2 max(0, |x| - a))
    per eps0^2; ``harvested`` flags |x| > a.  Arrays for a batch, Python
    numbers for one point."""

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
    state: XStateAB, eps0: float, errors: np.ndarray
) -> Measures:
    """Closed-form measures of a batch of detector X-states.

    Records in ``errors`` the first check that fails at each point (points
    with an error keep it): the checks of :func:`assemble_density_matrix`,
    then those of a density matrix (finite entries, unit trace, positivity,
    with the tolerance ``_DENSITY_TOL``; the assembled matrix is Hermitian
    by construction), then the concurrence range of the EoF and the
    variance condition of the correlation.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        big_a, big_b, r11, r22, r33, r44, big_x, big_c = _assembled(state, eps0, errors)
        m14 = modulus(big_x)
        m23 = modulus(big_c)
        finite = np.isfinite(r11) & np.isfinite(r22) & np.isfinite(r33) & np.isfinite(r44)
        for z in (big_x, big_c):
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
            lambda c: DomainError(f"concurrence must lie in [0, 1], got {c!r}"),
            conc,
        )
        eof, eof_pert = eof_arrays(np.clip(conc, 0.0, 1.0))

        flag_errors(
            errors,
            (big_a * (1.0 - big_a) <= 0.0) | (big_b * (1.0 - big_b) <= 0.0),
            lambda u, v: DomainError(
                "degenerate variance: excitation probabilities must lie strictly "
                f"inside (0, 1), got A={u!r}, B={v!r}"
            ),
            big_a,
            big_b,
        )
        corr = correlation_arrays(state.a, state.b, state.x, state.c, eps0)
        mx = modulus(state.x)
        lead = 2.0 * np.maximum(0.0, mx - state.a)
    return Measures(neg, conc, eof, eof_pert, corr, lead, mx > state.a)


def xstate_measures(state: XStateAB, eps0: float) -> Measures:
    """The measures of one detector state, by :func:`xstate_measures_batch`
    on one point: the values of a sweep row, in the same units.

    Raises the error that the batch records for the point.
    """
    errors = new_errors((1,))
    measures = xstate_measures_batch(_as_batch(state), eps0, errors)
    raise_first(errors)
    return Measures(*(v.item() for v in measures))
