"""Entanglement measures: eigenvalue-exact computations against X-state
closed forms, known states, bounds, and structural properties."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import concurrence_exact, negativity_exact, partial_transpose_a

from udwpair import (
    DetectorParams,
    DomainError,
    InvalidStateError,
    PositivityError,
    Topology,
    UdwError,
    WorldlinePair,
    XStateAB,
    assemble_density_matrix,
    elements_for,
    xstate_measures,
)
from udwpair.entanglement import (
    _concurrence_out_of_range,
    correlation_arrays,
    eof_arrays,
    xstate_closed_forms,
)

#: the coupling at which the detector states are measured
EPS0 = 0.01


def minkowski(p: DetectorParams, length: float) -> XStateAB:
    """elements_for in Minkowski space at separation ``length``."""
    return elements_for(p, WorldlinePair((0.0, 0.0), (length, 0.0)), Topology.minkowski())


def closed_forms(rho: np.ndarray):
    """(negativity, concurrence) of an X-state matrix by the closed forms,
    from its diagonal and anti-diagonal entries."""
    r11, r22, r33, r44 = rho.diagonal().real
    return xstate_closed_forms(r11, r22, r33, r44, abs(rho[0, 3]), abs(rho[1, 2]))


def random_xstate_matrix(rng) -> np.ndarray:
    """Random valid X-state: diagonal simplex point with anti-diagonal entries
    drawn inside the positivity disks, random phases."""
    diag = rng.dirichlet(np.ones(4))
    r11, r22, r33, r44 = diag
    m14 = math.sqrt(r11 * r44) * rng.uniform(0.0, 1.0)
    m23 = math.sqrt(r22 * r33) * rng.uniform(0.0, 1.0)
    x14 = m14 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    x23 = m23 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    rho = np.diag(diag).astype(complex)
    rho[0, 3] = x14
    rho[3, 0] = np.conj(x14)
    rho[1, 2] = x23
    rho[2, 1] = np.conj(x23)
    return rho


def random_density_matrix(rng) -> np.ndarray:
    """Random full-rank two-qubit state from a complex Ginibre matrix."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


BELL_PHI = np.zeros((4, 4), dtype=complex)
BELL_PHI[0, 0] = BELL_PHI[3, 3] = BELL_PHI[0, 3] = BELL_PHI[3, 0] = 0.5


class TestExactMeasures:
    def test_product_state_is_separable(self):
        rho = np.kron(np.diag([0.9, 0.1]), np.diag([0.7, 0.3])).astype(complex)
        assert negativity_exact(rho) == 0.0
        assert concurrence_exact(rho) == 0.0

    def test_bell_state(self):
        assert negativity_exact(BELL_PHI) == pytest.approx(0.5, abs=1e-14)
        assert concurrence_exact(BELL_PHI) == pytest.approx(1.0, abs=1e-12)

    def test_partial_transpose_index_convention(self):
        rng = np.random.default_rng(1)
        rho = random_density_matrix(rng)
        pt = partial_transpose_a(rho)
        for k in range(2):
            for l in range(2):
                for m in range(2):
                    for n in range(2):
                        assert pt[2 * k + l, 2 * m + n] == rho[2 * m + l, 2 * k + n]

    def test_invalid_states_rejected(self):
        with pytest.raises(InvalidStateError):
            negativity_exact(np.eye(4, dtype=complex))  # trace 4
        bad = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        bad[0, 1] = 0.3  # not Hermitian
        with pytest.raises(InvalidStateError):
            concurrence_exact(bad)
        nonpsd = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(InvalidStateError):
            negativity_exact(nonpsd)


#: Hand-built states that each fail one validity check at eps0 = EPS0,
#: in the order the checks run: (a, b, x, c), the exception type, and the
#: start of its message.
INVALID_STATES = [
    ((2e4, 1.0, 0.0, 0.0), InvalidStateError, "A = 2.0 outside [0, 1]"),
    ((1.0, -1.0, 0.0, 0.0), InvalidStateError, "B = -0.0001 outside [0, 1]"),
    # A is checked before B
    ((2e4, -1.0, 0.0, 0.0), InvalidStateError, "A = 2.0 outside [0, 1]"),
    # a != b: at a = b, |X|^2 <= r11 r44 holds for every x
    ((1.0, 3.0, 141.4, 0.0), PositivityError, "|X|^2 = "),
    ((1.0, 1.0, 0.0, 2.0), PositivityError, "|C|^2 = "),
    ((1.0, 1.0, 1e200, 0.0), InvalidStateError, "density matrix contains non-finite entries"),
    ((1.0, 1.0, 1e9j, 0.0), InvalidStateError, "trace = "),
    ((0.0, 1.0, 0.0, 0.0), DomainError, "degenerate variance: "),
    # |C|^2 within 1e-12 of r22 r33, the smaller eigenvalue below -1e-10
    ((1.0, 1.0, 0.0, 0.9997011196341605), InvalidStateError,
     "matrix is not positive semidefinite"),
    # fails both the block condition and the eigenvalue check
    ((1.0, 1.0, 0.0, 0.9998000899460341), PositivityError, "|C|^2 = "),
]


class TestValidity:
    @pytest.mark.parametrize("values, kind, start", INVALID_STATES)
    def test_checks_fire_in_order(self, values, kind, start):
        with pytest.raises(UdwError) as raised:
            xstate_measures(XStateAB(*values), EPS0)
        assert type(raised.value) is kind
        assert str(raised.value).startswith(start)
        if start == "trace = ":
            assert " because E = r44 = " in str(raised.value)


class TestXStateClosedForms:
    def test_bell_closed_form(self):
        neg, conc = closed_forms(BELL_PHI)
        assert neg == pytest.approx(0.5, abs=1e-15)
        assert conc == pytest.approx(1.0, abs=1e-15)

    def test_matches_eigen_exact_on_random_states(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            rho = random_xstate_matrix(rng)
            neg_cf, conc_cf = closed_forms(rho)
            assert neg_cf == pytest.approx(negativity_exact(rho), abs=1e-12)
            assert conc_cf == pytest.approx(concurrence_exact(rho), abs=1e-12)

    def test_branch_exclusivity(self):
        # r14^2 > r22 r33 and r23^2 > r11 r44 cannot hold simultaneously for
        # a valid state: positivity gives r14^2 <= r11 r44 and r23^2 <= r22 r33
        rng = np.random.default_rng(7)
        for _ in range(2000):
            rho = random_xstate_matrix(rng)
            d = rho.diagonal().real
            branch1 = abs(rho[0, 3]) ** 2 > d[1] * d[2]
            branch2 = abs(rho[1, 2]) ** 2 > d[0] * d[3]
            assert not (branch1 and branch2)

    def test_identical_detector_equality_case(self):
        # r22 = r33 with r14 > r22: negativity = concurrence/2 exactly and
        # the negative-eigenvalue eigenvector of the partial transpose is
        # the singlet-like (0, -1, 1, 0)/sqrt(2)
        rho = np.diag([0.66, 0.1, 0.1, 0.14]).astype(complex)
        rho[0, 3] = rho[3, 0] = 0.14
        neg, conc = closed_forms(rho)
        assert neg == pytest.approx(conc / 2.0, abs=1e-15)
        assert neg == pytest.approx(0.14 - 0.1, abs=1e-15)
        vals, vecs = np.linalg.eigh(partial_transpose_a(rho))
        vec = vecs[:, 0]
        vec = vec * np.exp(-1j * np.angle(vec[2]))
        want = np.array([0.0, -1.0, 1.0, 0.0]) / math.sqrt(2.0)
        assert np.allclose(vec.real, want, atol=1e-12)
        assert np.allclose(vec.imag, 0.0, atol=1e-12)
        assert vals[0] == pytest.approx(-neg, abs=1e-15)


class TestBounds:
    def test_concurrence_dominates_twice_negativity(self):
        rng = np.random.default_rng(11)
        for _ in range(800):
            rho = random_density_matrix(rng)
            assert concurrence_exact(rho) + 1e-10 >= 2.0 * negativity_exact(rho)


class TestEntanglementOfFormation:
    def test_endpoints(self):
        assert eof_arrays(0.0)[0] == 0.0
        assert eof_arrays(1.0)[0] == pytest.approx(1.0, abs=1e-15)

    def test_small_concurrence_expansion(self):
        exact, perturbative = eof_arrays(1e-3)
        assert exact == pytest.approx(5.8435672281927477204e-6, rel=1e-12)
        assert perturbative == pytest.approx(exact, rel=1e-4)

    def test_monotone(self):
        vals = eof_arrays(np.linspace(0, 1, 50))[0]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_perturbative_form_where_c_squared_underflows(self):
        for c in (1e-100, 1e-170):
            with mp.workdps(40):
                cm = mp.mpf(c)
                want = cm**2 / (4 * mp.log(2)) * (1 - mp.log(cm**2 / 4))
            got = eof_arrays(c)[1]
            assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)

    def test_range_errors(self):
        assert _concurrence_out_of_range(1.5)
        assert _concurrence_out_of_range(-0.2)
        # eigenvalue roundoff at the boundary is absorbed
        assert not _concurrence_out_of_range(1.0 + 1e-15)
        assert eof_arrays(np.clip(1.0 + 1e-15, 0.0, 1.0))[0] == pytest.approx(1.0)


def identical_shortcut(state: XStateAB, eps0: float) -> float:
    """The identical-detector correlation eps0^2 (|x|^2 + 2|c|^2)/a, which
    agrees with the general form to relative O(eps0^2)."""
    ra = math.sqrt(state.a)
    mx = abs(state.x) / ra
    mc = abs(state.c) / ra
    return eps0**2 * (mx * mx + 2.0 * (mc * mc))


class TestCorrelation:
    """``corr`` is per eps0^2; times eps0^2 it is the physical
    (E - A B)/sqrt(A(1-A) B(1-B))."""

    def test_uncorrelated_product(self):
        stx = XStateAB(a=0.02, b=0.03, x=0.0, c=0.0)
        assert xstate_measures(stx, 0.1).corr * 0.1**2 == pytest.approx(0.0, abs=1e-18)

    def test_identical_shortcut_matches_general(self):
        p = DetectorParams(omega=0.7, sigma=1.0)
        stx = minkowski(p, 1.3)
        assert stx.a == stx.b
        general = xstate_measures(stx, EPS0).corr * EPS0**2
        assert general == pytest.approx(
            identical_shortcut(stx, EPS0), rel=100.0 * EPS0**2
        )

    def test_degenerate_variance_rejected(self):
        stx = XStateAB(a=0.0, b=0.02, x=0.0, c=0.0)
        with pytest.raises(DomainError, match="degenerate variance"):
            xstate_measures(stx, 0.01)

    @pytest.mark.parametrize("omega", [12.0, 18.0, 24.0])
    def test_large_gap_against_mpmath(self, omega):
        # A B underflows here, so (E - A B)/sqrt(A(1-A) B(1-B)) is not
        # computable as written; the reference evaluates it in 60 digits
        # from the same float coefficients
        p = DetectorParams(omega=omega, sigma=1.0)
        for length in (0.5, 1.0, 10.0):
            stx = minkowski(p, length)
            with mp.workdps(60):
                e2 = mp.mpf(EPS0) ** 2
                a, b = e2 * stx.a, e2 * stx.b
                e = e2 * e2 * (abs(mp.mpc(stx.x)) ** 2 + mp.mpf(stx.a) * stx.b + 2 * abs(mp.mpc(stx.c)) ** 2)
                want = (e - a * b) / mp.sqrt(a * (1 - a) * b * (1 - b))
            got = xstate_measures(stx, EPS0).corr * EPS0**2
            assert got > 0.0
            assert got == pytest.approx(float(want), rel=1e-12)

    def test_vanishes_at_large_separation(self):
        p = DetectorParams(omega=1.0, sigma=1.0)
        near, far = (
            correlation_arrays(state.a, state.b, state.x, state.c, EPS0)
            for state in (minkowski(p, 1.0), minkowski(p, 40.0))
        )
        assert abs(far) < abs(near) * 1e-3


class TestReport:
    def test_spec_point_reproduces_expected_concurrence(self):
        p = DetectorParams(omega=1.0, sigma=1.0)
        state = minkowski(p, 1.0)
        report = xstate_measures(state, EPS0)
        # leading order: 2 (|x| - a) = 2 (0.047440 - 0.0070883), per eps0^2
        assert report.concurrence_leading == pytest.approx(0.0807041257, abs=1e-9)
        assert report.harvested
        rho = assemble_density_matrix(state, EPS0)
        assert negativity_exact(rho) == pytest.approx(
            EPS0**2 * report.concurrence_leading / 2.0, abs=10.0 * EPS0**4
        )
        assert concurrence_exact(rho) == pytest.approx(report.concurrence, abs=1e-12)
        r = rho.diagonal().real
        assert math.isclose(r[1], r[2], rel_tol=1e-12, abs_tol=1e-16)

    def test_separable_point(self):
        p = DetectorParams(omega=2.5, sigma=1.0)
        state = minkowski(p, 8.0)
        report = xstate_measures(state, EPS0)
        assert not report.harvested
        assert report.concurrence_leading == 0.0
        assert report.concurrence == pytest.approx(0.0, abs=1e-12)
        rho = assemble_density_matrix(state, EPS0)
        assert concurrence_exact(rho) == pytest.approx(0.0, abs=1e-12)
        assert report.eof == pytest.approx(0.0, abs=1e-10)

    def test_one_point_types(self):
        p = DetectorParams(omega=1.0, sigma=1.0)
        report = xstate_measures(minkowski(p, 1.0), EPS0)
        assert report.harvested is True
        assert all(type(v) is float for v in report[:-1])

    def test_second_entanglement_branch_never_fires_at_leading_order(self):
        # |C| > sqrt(E) would need |c|^2 > |x|^2 + a b + 2|c|^2, impossible;
        # the assembled detector state is only ever entangled through the
        # |rho_14| > sqrt(r22 r33) branch
        for om in np.linspace(-3.0, 3.0, 7):
            p = DetectorParams(omega=float(om), sigma=1.0)
            for length in np.linspace(0.2, 8.0, 9):
                stx = minkowski(p, float(length))
                rho = assemble_density_matrix(stx, EPS0)
                r = rho.diagonal().real
                assert abs(rho[1, 2]) <= math.sqrt(r[0] * r[3])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_closed_forms_match_eigen_on_arbitrary_xstates(seed):
    rng = np.random.default_rng(seed)
    rho = random_xstate_matrix(rng)
    neg_cf, conc_cf = closed_forms(rho)
    assert neg_cf == pytest.approx(negativity_exact(rho), abs=1e-12)
    assert conc_cf == pytest.approx(concurrence_exact(rho), abs=1e-12)
