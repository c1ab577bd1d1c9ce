"""Distributional quadrature: the finite-part and delta rules against test
functions with known closed-form actions, the oracles against frozen values,
refinement stability, and agreement between the two regularizations."""

import math

import numpy as np
import pytest

from udwpair import (
    ConvergenceError,
    DetectorParams,
    DomainError,
    GeometryError,
    Topology,
    WorldlinePair,
    elements_for,
    oracle_a,
    oracle_c,
    oracle_x,
)
from udwpair.wightman import (
    _WINDOW_SIGMAS,
    _refined_quad,
    hadamard_double_pole,
    oracle_ieps,
    oracle_x_envelope,
    oracle_x_time_integral,
    pv_over_pole,
    richardson_zero_limit,
    sgn_delta_square,
)

# mpmath-frozen actions of <1/x^2, e^{-a x^2} cos(b x)>
HADAMARD_GAUSS = {
    (1.0, 0.0): -3.5449077018110320546,
    (0.5, 2.0): -6.3365339651092817219,
    (2.0, 1.3): -6.0365374560403995285,
}
# mpmath-frozen PV integrals of e^{-u^2}/(u - x): -2 sqrt(pi) D(x)
PV_GAUSS = {
    0.7: -1.8096897654475031058,
    1.5: -1.5181034303840497401,
    -2.2: 0.93766623016159318999,
}

A_OMEGA_1 = 0.0070882722326364159723
X_L1_O1 = complex(-0.024850678746834721949, 0.040410755506246291431)
C_L1_O1 = 0.0066003343060240564385


def minkowski(p: DetectorParams, length: float):
    """elements_for in Minkowski space at separation ``length``."""
    return elements_for(p, WorldlinePair((0.0, 0.0), (length, 0.0)), Topology.minkowski())


class TestDistributionalRules:
    def test_hadamard_rule_on_gaussians(self):
        for (a, b), want in HADAMARD_GAUSS.items():

            def f(u, a=a, b=b):
                return np.exp(-a * u * u) * np.cos(b * u)

            got = hadamard_double_pole(f, span=40.0)
            assert got.imag == 0.0
            assert got.real == pytest.approx(want, abs=1e-10)

    def test_pv_rule_on_gaussians(self):
        for pole, want in PV_GAUSS.items():

            def f(u):
                return np.exp(-u * u)

            got = pv_over_pole(f, pole, span=abs(pole) + 40.0)
            assert got.real == pytest.approx(want, abs=1e-10)
            assert got.imag == 0.0

    def test_pv_rule_odd_function_vanishes(self):
        got = pv_over_pole(lambda u: np.exp(-u * u), 0.0, span=40.0)
        assert abs(got) < 1e-14

    def test_delta_square_rule_analytic_derivatives(self):
        cases = [
            (lambda y: math.exp(-((y - 0.8) ** 2)), 1.6 * math.exp(-0.64)),
            (lambda y: math.exp(-y * y) * math.cos(2.0 * y), 0.0),
            (lambda y: (y + 3.0) * math.exp(-y * y), 1.0),
        ]
        for f, want in cases:
            got = sgn_delta_square(f)
            assert complex(got).real == pytest.approx(want, abs=1e-10)
            assert complex(got).imag == pytest.approx(0.0, abs=1e-12)

    def test_delta_square_rule_uses_supplied_derivative(self):
        got = sgn_delta_square(lambda y: 0.0, fprime=lambda y: -2.5j)
        assert got == -2.5j


class TestRefinement:
    def test_doubling_stability(self):
        def g(u):
            return np.exp(-u * u / 4.0) * np.cos(1.3 * u)

        coarse = _refined_quad(g, 0.0, 30.0, base_panels=8, target=0.0, max_doublings=1)
        fine = _refined_quad(g, 0.0, 30.0, base_panels=16, target=0.0, max_doublings=1)
        assert abs(coarse - fine) < 1e-9

    def test_nonconvergence_raises(self):
        # integrable but non-smooth at an interior point: panel doubling on a
        # fixed grid cannot reach the tolerance
        def g(u):
            return np.sqrt(np.abs(u - 0.37))

        with pytest.raises(ConvergenceError):
            _refined_quad(
                g, 0.0, 1.0, base_panels=4, target=1e-15, raise_tol=1e-14, max_doublings=2
            )


class TestOracleValues:
    def test_self_term_forced_value(self):
        p = DetectorParams(omega=0.0, sigma=1.0)
        assert oracle_a(p) == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-12)

    def test_self_term_frozen_value(self):
        p = DetectorParams(omega=1.0, sigma=1.0)
        assert oracle_a(p) == pytest.approx(A_OMEGA_1, abs=1e-12)

    def test_x_frozen_value(self):
        p = DetectorParams(omega=1.0, sigma=1.0)
        got = oracle_x(p, 1.0)
        assert got.real == pytest.approx(X_L1_O1.real, abs=1e-10)
        assert got.imag == pytest.approx(X_L1_O1.imag, abs=1e-10)
        assert abs(got) == pytest.approx(0.047440335103833298, abs=1e-10)

    def test_c_frozen_value_and_realness(self):
        p = DetectorParams(omega=1.0, sigma=1.0)
        got = oracle_c(p, 1.0)
        assert got.real == pytest.approx(C_L1_O1, abs=1e-10)
        assert abs(got.imag) < 1e-12

    @pytest.mark.parametrize("omega, sigma, r", [(1.0, 1.0, 1.0), (-2.0, 1.3, 0.3), (0.7, 0.8, 9.5)])
    def test_c_equals_two_pole_form(self, omega, sigma, r):
        # oracle_c takes the pole at -r as -conj of the pole at +r; both
        # poles quadratured explicitly give the same value bit for bit
        p = DetectorParams(omega=omega, sigma=sigma)

        def f(u):
            return np.exp(-u * u / (4.0 * sigma * sigma) - 1j * omega * u)

        span = r + _WINDOW_SIGMAS * sigma
        fr = complex(f(np.array([r]))[0])
        fmr = complex(f(np.array([-r]))[0])
        delta_part = (fr - fmr) / (2.0 * r) / (4.0j * math.pi)
        pv_plus = pv_over_pole(f, r, span=span, sigma_scale=sigma)
        pv_minus = pv_over_pole(f, -r, span=span, sigma_scale=sigma)
        pv_part = -(pv_plus - pv_minus) / (2.0 * r) / (4.0 * math.pi**2)
        want = sigma * math.sqrt(math.pi) * (delta_part + pv_part)
        got = oracle_c(p, r)
        assert got == want and got.imag == 0.0

    def test_x_is_envelope_times_time_integral(self):
        p = DetectorParams(omega=1.0, sigma=1.0)
        got = oracle_x_envelope(p) * oracle_x_time_integral(1.0, 1.0)
        assert got == oracle_x(p, 1.0)
        with pytest.raises(GeometryError):
            oracle_x_time_integral(1.0, 0.0)

    def test_c_real_at_zero_gap(self):
        p = DetectorParams(omega=0.0, sigma=1.0)
        got = oracle_c(p, 0.8)
        assert abs(got.imag) < 1e-12
        conj_eval = oracle_c(DetectorParams(omega=-0.0, sigma=1.0), 0.8)
        assert got == pytest.approx(conj_eval, abs=1e-12)

    def test_scale_invariance_of_coefficients(self):
        # only Omega*sigma and L/sigma matter
        a = oracle_a(DetectorParams(omega=2.0, sigma=0.5))
        b = oracle_a(DetectorParams(omega=1.0, sigma=1.0))
        assert a == pytest.approx(b, abs=1e-12)
        xa = oracle_x(DetectorParams(omega=2.0, sigma=0.5), 0.5)
        xb = oracle_x(DetectorParams(omega=1.0, sigma=1.0), 1.0)
        assert xa == pytest.approx(xb, abs=1e-12)

    def test_power_law_tail_at_large_separation(self):
        # The principal-value part decays like sigma^2 e^{-s^2 Om^2}/(2 pi L^2),
        # not Gaussianly; the oracle and the closed form agree on it.
        p = DetectorParams(omega=1.0, sigma=1.0)
        got = oracle_x(p, 12.0)
        assert abs(got) == pytest.approx(
            math.exp(-1.0) / (2.0 * math.pi * 144.0), rel=0.05
        )
        assert abs(got - minkowski(p, 12.0).x) < 1e-8

    def test_x_phase_structure_matches_closed_form(self):
        rng = np.random.default_rng(3)
        p0 = DetectorParams(omega=1.0, sigma=1.0)
        for _ in range(10):
            length = float(rng.uniform(0.3, 5.0))
            omega = float(rng.uniform(-2.0, 2.0))
            p = DetectorParams(omega=omega, sigma=1.0)
            got = oracle_x(p, length)
            want = minkowski(p, length).x
            assert math.copysign(1.0, got.real) == math.copysign(1.0, want.real)
            assert math.copysign(1.0, got.imag) == math.copysign(1.0, want.imag)
            assert got == pytest.approx(want, abs=1e-8)

    def test_preconditions(self):
        p = DetectorParams(omega=0.0, sigma=1.0)
        with pytest.raises(GeometryError):
            oracle_x(p, 0.0)
        with pytest.raises(GeometryError):
            oracle_c(p, -1.0)
        with pytest.raises(GeometryError):
            oracle_a(p, -0.5)


class TestIepsRegularization:
    def test_forced_value(self):
        p = DetectorParams(omega=0.0, sigma=1.0)
        est = oracle_ieps("A", p, 0.0)
        assert est.value.real == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-6)
        assert est.error < 1e-6

    def test_agreement_with_distributional_a(self):
        p = DetectorParams(omega=1.0, sigma=1.0)
        est = oracle_ieps("A", p, 0.0)
        assert est.value.real == pytest.approx(oracle_a(p), abs=1e-6)

    def test_agreement_with_distributional_x(self):
        p = DetectorParams(omega=1.0, sigma=1.0)
        est = oracle_ieps("X", p, 1.0)
        assert est.value == pytest.approx(oracle_x(p, 1.0), abs=1e-6)

    def test_agreement_with_distributional_c(self):
        p = DetectorParams(omega=-2.0, sigma=1.0)
        est = oracle_ieps("C", p, 2.0)
        assert est.value == pytest.approx(oracle_c(p, 2.0), abs=1e-6)

    def test_custom_sequence_validation(self):
        p = DetectorParams(omega=0.0, sigma=1.0)
        with pytest.raises(DomainError):
            oracle_ieps("A", p, 0.0, eps_sequence=[0.1, 0.2])
        with pytest.raises(DomainError):
            oracle_ieps("A", p, 0.0, eps_sequence=[0.1, -0.05])
        with pytest.raises(DomainError):
            oracle_ieps("B", p, 0.0)

    def test_x_requires_separation(self):
        p = DetectorParams(omega=0.0, sigma=1.0)
        with pytest.raises(GeometryError):
            oracle_ieps("X", p, 0.0)


class TestRichardson:
    def test_polynomial_recovery(self):
        xs = [0.25 * 0.5**k for k in range(6)]
        ys = [3.0 + 2.0 * x - 7.0 * x * x for x in xs]
        est = richardson_zero_limit(xs, ys)
        assert est.value == pytest.approx(3.0, abs=1e-12)

    def test_noncontracting_sequence_raises(self):
        # a final sample inconsistent with the trend (e.g. a failed
        # quadrature at the smallest eps) must not be extrapolated silently
        xs = [0.25 * 0.5**k for k in range(6)]
        ys = [1.0, 1.0, 1.0, 1.0, 1.0, 2.0]
        with pytest.raises(ConvergenceError):
            richardson_zero_limit(xs, ys)

    def test_slow_drift_raises(self):
        # a pole at 0 drifts along a fixed geometric sequence with ratio-1/2
        # corrections; that is not decisive contraction either
        xs = [0.25 * 0.5**k for k in range(6)]
        ys = [1.0 / x for x in xs]
        with pytest.raises(ConvergenceError):
            richardson_zero_limit(xs, ys)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            richardson_zero_limit([0.1], [1.0])
        with pytest.raises(DomainError):
            richardson_zero_limit([0.1, 0.2], [1.0, 1.0])


class TestTermByTermAgainstClosedForms:
    """The oracle verdict on the image-term structure.

    The single-detector image contribution at separation R must equal the
    exchange-type closed form evaluated at R (the same integral with the
    same e^{-i Omega u} phase); this pins down the erf-argument convention
    i R/2s + s*Omega carried by :func:`udwpair.elements.exchange_array`.
    """

    @pytest.mark.parametrize("omega", [-1.0, 0.0, 0.7, 2.0])
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.5, 20.0])
    def test_a_image_term_is_the_exchange_form(self, omega, r):
        p = DetectorParams(omega=omega, sigma=1.0)
        assert oracle_a(p, r) == pytest.approx(
            minkowski(p, r).c.real, abs=1e-8
        )

    def test_a_image_term_is_even_in_omega_only_through_erf(self):
        # at Omega = 0 the image term is the pure Dawson tail, nonzero
        p = DetectorParams(omega=0.0, sigma=1.0)
        got = oracle_a(p, 1.0)
        assert got == pytest.approx(0.06755114846238817, abs=1e-8)
        assert got > 0.0

    def test_self_term_closed_form(self):
        for omega in (-2.0, -0.5, 0.0, 0.5, 1.0, 3.0):
            p = DetectorParams(omega=omega, sigma=1.0)
            assert oracle_a(p) == pytest.approx(
                minkowski(p, 1.0).a, abs=1e-10
            )
