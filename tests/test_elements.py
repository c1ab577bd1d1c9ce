"""Closed-form matrix elements: frozen values, image sums verified term by
term against the quadrature oracle, quotient-spacetime structure, and
density-matrix assembly."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from udwpair import (
    DetectorParams,
    GeometryError,
    InvalidStateError,
    PositivityError,
    StateConsistencyWarning,
    Topology,
    TruncationWarning,
    WorldlinePair,
    XStateAB,
    assemble_density_matrix,
    elements_cylinder,
    elements_for,
    elements_minkowski,
    elements_twisted,
    exchange_coefficient,
    image_separation,
    joint_excitation,
    nonlocal_coefficient,
    oracle_c,
    oracle_x,
    self_excitation_coefficient,
    separation,
)
from udwpair.geometry import self_pair, worldlines_from_orientation

A_OMEGA_1 = 0.0070882722326364159723
A_OMEGA_HALF = 0.028158875373857042038
A_OMEGA_MINUS_1 = 0.28918306400651455945
ABS_X_L1_O1 = 0.047440335103833298156
C_L1_O1 = 0.0066003343060240564385

P1 = DetectorParams(omega=1.0, sigma=1.0)


def quiet_elements(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return fn(*args, **kwargs)


class TestCoefficients:
    def test_self_term_at_zero_gap(self):
        p = DetectorParams(omega=0.0, sigma=2.5)
        assert self_excitation_coefficient(p) == 1.0 / (4.0 * math.pi)

    def test_self_term_frozen_values(self):
        for om, want in ((1.0, A_OMEGA_1), (0.5, A_OMEGA_HALF), (-1.0, A_OMEGA_MINUS_1)):
            got = self_excitation_coefficient(DetectorParams(omega=om, sigma=1.0))
            assert got == pytest.approx(want, rel=1e-12)

    def test_self_term_positive_and_cancellation_safe(self):
        # strictly positive wherever representable (value ~ e^{-s^2 Om^2}/8 pi s^2 Om^2
        # underflows to exactly 0.0 beyond s*Omega ~ 27, which is still finite)
        for om in (0.0, 1.0, 5.0, 10.0, 20.0, -7.0):
            a = self_excitation_coefficient(DetectorParams(omega=om, sigma=1.0))
            assert a > 0.0 and math.isfinite(a)
        assert self_excitation_coefficient(DetectorParams(omega=40.0, sigma=1.0)) == 0.0

    def test_nonlocal_frozen_value(self):
        x = nonlocal_coefficient(P1, 1.0)
        assert abs(x) == pytest.approx(ABS_X_L1_O1, rel=1e-12)
        assert x.real < 0.0 < x.imag

    def test_exchange_frozen_value(self):
        assert exchange_coefficient(P1, 1.0) == pytest.approx(C_L1_O1, rel=1e-12)

    def test_separation_validation(self):
        with pytest.raises(GeometryError):
            nonlocal_coefficient(P1, 0.0)
        with pytest.raises(GeometryError):
            exchange_coefficient(P1, -1.0)

    def test_extreme_separation_is_finite_power_law(self):
        # principal-value tails ~ s^2 e^{-s^2 Om^2} / (2 pi r^2); no overflow,
        # no spurious zeroing at any separation
        for r in (40.0, 200.0, 1e4):
            x = nonlocal_coefficient(P1, r)
            c = exchange_coefficient(P1, r)
            want = math.exp(-1.0) / (2.0 * math.pi * r * r)
            assert abs(x) == pytest.approx(want, rel=0.05)
            assert c == pytest.approx(want, rel=0.05)


def _mp_exchange(omega: float, r: float):
    """c at sigma = 1 from its defining subtraction, with enough digits that
    the cancellation between its two terms costs nothing."""
    with mp.workdps(330):
        om, rr = mp.mpf(omega), mp.mpf(r)
        y = rr / 2
        bracket = mp.im(mp.exp(1j * om * rr) * mp.erf(mp.mpc(om, y))) - mp.sin(om * rr)
        return mp.exp(-y * y) * bracket / (4 * mp.sqrt(mp.pi) * rr)


def _mp_self_term(omega: float):
    with mp.workdps(330):
        om = mp.mpf(omega)
        return (mp.exp(-om * om) - mp.sqrt(mp.pi) * om * mp.erfc(om)) / (4 * mp.pi)


class TestExchangeAccuracy:
    """c against a 330-digit mpmath evaluation of its defining formula.

    The error is taken relative to max(|c|, a): c tends to a as r -> 0 and
    passes through zero as r grows, and |C| <= sqrt(A B) makes a the scale
    on which its error matters.  Small r and large gaps are where a
    subtraction of e^{-y^2} sin(Omega r) cancels, completely for
    s Omega >= 12."""

    @pytest.mark.parametrize("omega", [0.5, 3.0, 12.0, 24.0])
    @pytest.mark.parametrize("r", [1e-3, 0.078, 1.0, 10.0])
    def test_against_mpmath(self, omega, r):
        got = exchange_coefficient(DetectorParams(omega=omega, sigma=1.0), r)
        want = _mp_exchange(omega, r)
        scale = max(abs(want), _mp_self_term(omega))
        assert float(abs(got - want) / scale) < 1e-13

    def test_scalar_matches_array_kernel(self):
        from udwpair.elements import exchange_array

        omegas = np.array([-2.0, 0.0, 0.5, 3.0, 9.0, 24.0])[:, None]
        rs = np.array([1e-3, 0.2, 0.59, 1.0, 7.0])[None, :]
        grid = exchange_array(1.0, omegas, rs)
        for i, om in enumerate(omegas[:, 0]):
            for j, r in enumerate(rs[0]):
                p = DetectorParams(omega=float(om), sigma=1.0)
                assert exchange_coefficient(p, float(r)) == grid[i, j]


class TestSelfTermAccuracy:
    """a against mpmath at large gaps, where 1 - sqrt(pi) y erfcx(y) ~ 1/2y^2
    cancels, on both sides of the switch to the continued fraction."""

    @pytest.mark.parametrize("omega", [3.9, 4.0, 8.0, 12.0, 18.0, 24.0])
    def test_against_mpmath(self, omega):
        got = self_excitation_coefficient(DetectorParams(omega=omega, sigma=1.0))
        want = _mp_self_term(omega)
        assert float(abs(got - want) / want) < 1e-14

    def test_scalar_matches_array_kernel(self):
        from udwpair.elements import self_excitation_array

        ys = np.array([-2.0, 0.0, 3.9, 4.0, 4.5, 24.0, 40.0])
        grid = self_excitation_array(ys)
        for y, got in zip(ys, grid):
            p = DetectorParams(omega=float(y), sigma=1.0)
            assert self_excitation_coefficient(p) == got


class TestMinkowski:
    def test_identical_detectors(self):
        st = elements_minkowski(P1, 1.0)
        assert st.b == st.a
        assert st.e == pytest.approx(joint_excitation(st.a, st.a, st.x, st.c), rel=1e-15)
        assert st.tail_bound == 0.0

    def test_large_separation_approaches_product_state(self):
        p = DetectorParams(omega=1.0, sigma=1.0, eps0=0.01)
        st = elements_minkowski(p, 12.0)
        rho = assemble_density_matrix(st, p.eps0)
        single = np.array(
            [[1.0 - p.eps0**2 * st.a, 0.0], [0.0, p.eps0**2 * st.a]]
        )
        product = np.kron(single, single)
        assert np.max(np.abs(rho - product)) < 1e-7

    def test_requires_positive_separation(self):
        with pytest.raises(GeometryError):
            elements_minkowski(P1, 0.0)


class TestImageTermsAgainstOracle:
    """Term-by-term verification of the image sums.

    Each image term of the nonlocal/exchange sums must equal the
    corresponding oracle integral at L_image = L_n, and each image term of
    the single-detector probability must equal the exchange-type oracle at
    the self-image separation.  This is the record of which erf-argument
    convention the sums carry: the oracle selects
    Im[e^{i Omega L_n} erf(i L_n/2s + s Omega)].
    """

    @pytest.mark.parametrize("n", [1, -1, 2, -2])
    def test_pair_image_terms(self, n):
        pair = WorldlinePair((0.0, 0.0), (0.6, 0.0), 0.0, 0.4)
        top = Topology.cylinder(1.2)
        l_n = image_separation(top, pair, n)
        assert nonlocal_coefficient(P1, l_n) == pytest.approx(
            oracle_x(P1, l_n), abs=1e-8
        )
        assert exchange_coefficient(P1, l_n) == pytest.approx(
            oracle_c(P1, l_n).real, abs=1e-8
        )

    @pytest.mark.parametrize("omega", [-1.0, 0.0, 1.5])
    def test_self_image_terms_cylinder(self, omega):
        from udwpair import oracle_a

        p = DetectorParams(omega=omega, sigma=1.0)
        top = Topology.cylinder(0.9)
        me = self_pair((0.3, 0.0), 0.1)
        for n in (1, 2, -3):
            r_n = image_separation(top, me, n)
            assert r_n == pytest.approx(abs(n) * 0.9, abs=1e-15)
            assert exchange_coefficient(p, r_n) == pytest.approx(
                oracle_a(p, r_n), abs=1e-8
            )

    def test_self_image_terms_twisted(self):
        from udwpair import effective_ell_twisted, oracle_a

        p = DetectorParams(omega=0.5, sigma=1.0)
        top = Topology.twisted_cylinder(1.1)
        me = self_pair((0.8, 0.0), 0.0)
        for n in (1, -1, 2, 3):
            r_n = image_separation(top, me, n)
            assert r_n == pytest.approx(
                abs(n) * effective_ell_twisted(0.8, 1.1, n), rel=1e-14
            )
            assert exchange_coefficient(p, r_n) == pytest.approx(
                oracle_a(p, r_n), abs=1e-8
            )


class TestCylinder:
    def test_translation_invariance(self):
        pair = WorldlinePair((0.0, 0.0), (0.7, 0.0), 0.0, 0.2)
        st = quiet_elements(elements_cylinder, P1, pair, Topology.cylinder(1.0))
        assert st.b == st.a

    def test_n0_term_is_minkowski(self):
        pair = WorldlinePair((0.0, 0.0), (0.5, 0.0), 0.0, 0.0)
        ell = 1.0
        st = quiet_elements(
            elements_cylinder, P1, pair, Topology.cylinder(ell), nmax=10
        )
        mink = elements_minkowski(P1, 0.5)
        image_x = sum(
            nonlocal_coefficient(P1, math.sqrt(0.25 + (n * ell) ** 2))
            for n in range(-10, 11)
            if n != 0
        )
        assert st.x == pytest.approx(mink.x + image_x, rel=1e-13)

    def test_twisted_field_flips_odd_terms(self):
        pair = WorldlinePair((0.0, 0.0), (0.5, 0.0), 0.0, 0.0)
        ell = 1.0
        plus = quiet_elements(elements_cylinder, P1, pair, Topology.cylinder(ell, eta=1))
        minus = quiet_elements(
            elements_cylinder, P1, pair, Topology.cylinder(ell, eta=-1)
        )
        # even-n terms unchanged: (plus + minus)/2 contains n=0 plus even images
        even_sum = 0.5 * (plus.x + minus.x)
        want_even = elements_minkowski(P1, 0.5).x + sum(
            nonlocal_coefficient(P1, math.sqrt(0.25 + (n * ell) ** 2))
            for n in range(-10, 11)
            if n != 0 and n % 2 == 0
        )
        assert even_sum == pytest.approx(want_even, rel=1e-13)
        # odd terms flip sign between the two field types
        odd_sum = 0.5 * (plus.x - minus.x)
        want_odd = sum(
            nonlocal_coefficient(P1, math.sqrt(0.25 + (n * ell) ** 2))
            for n in range(-10, 11)
            if n % 2 == 1 or n % 2 == -1
        )
        assert odd_sum == pytest.approx(want_odd, rel=1e-13)

    def test_monotone_approach_to_minkowski(self):
        pair = WorldlinePair((0.0, 0.0), (0.5, 0.0), 0.0, 0.0)
        mink_a = self_excitation_coefficient(P1)
        devs = []
        for ell in (1.0, 2.0, 5.0, 10.0, 20.0):
            st = quiet_elements(elements_cylinder, P1, pair, Topology.cylinder(ell))
            devs.append(abs(st.a - mink_a))
        assert all(d1 > d2 for d1, d2 in zip(devs, devs[1:]))
        # principal-value tails make the approach polynomial:
        # sum over +-n of e^{-s^2 Om^2} s^2 / (2 pi n^2 ell^2) = zeta(2)-law
        want = math.exp(-1.0) * (math.pi**2 / 6.0) / (math.pi * 400.0)
        assert devs[-1] == pytest.approx(want, rel=0.10)

    def test_truncation_warning_and_tail_bound(self):
        pair = WorldlinePair((0.0, 0.0), (0.5, 0.0), 0.0, 0.0)
        with pytest.warns(TruncationWarning):
            st = elements_cylinder(P1, pair, Topology.cylinder(1.0), nmax=10)
        assert st.tail_bound > 0.0
        st40 = quiet_elements(
            elements_cylinder, P1, pair, Topology.cylinder(1.0), nmax=40
        )
        # the omitted tail estimate bounds the actual truncation error
        assert abs(st40.x - st.x) <= 3.0 * st.tail_bound
        assert abs(st40.a - st.a) <= 3.0 * st.tail_bound

    def test_requires_cylinder_topology(self):
        pair = WorldlinePair((0.0, 0.0), (0.5, 0.0), 0.0, 0.0)
        with pytest.raises(GeometryError):
            elements_cylinder(P1, pair, Topology.twisted_cylinder(1.0))

    def test_requires_separated_detectors(self):
        with pytest.raises(GeometryError):
            elements_cylinder(P1, self_pair((0.0, 0.0)), Topology.cylinder(1.0))


class TestCoincidentImage:
    """B on an image of A: at theta = pi/2, L = ell the image n = -1 of B
    lies 6e-17 (from cos(pi/2)) from A, which is round-off, not a distance."""

    PAIR = worldlines_from_orientation(1.0, math.pi / 2)

    @pytest.mark.parametrize("topology", [Topology.cylinder(1.0), Topology.twisted_cylinder(1.0)])
    def test_scalar_path_names_the_image(self, topology):
        assert 0.0 < image_separation(topology, self.PAIR, -1) < 1e-16
        with pytest.raises(GeometryError, match=r"sits on image n = -1 of detector A"):
            quiet_elements(elements_for, P1, self.PAIR, topology)

    def test_resolved_separation_is_not_flagged(self):
        pair = WorldlinePair((0.0, 0.0), (1e-9, 0.0), 0.0, 1.0)
        state = quiet_elements(elements_for, P1, pair, Topology.cylinder(1.0))
        assert math.isfinite(state.a) and math.isfinite(abs(state.x))


class TestTwisted:
    def test_axis_detectors_reduce_to_cylinder(self):
        pair = WorldlinePair((0.0, 0.0), (0.0, 0.0), 0.0, 0.4)
        twisted = quiet_elements(
            elements_twisted, P1, pair, Topology.twisted_cylinder(1.0)
        )
        cyl = quiet_elements(elements_cylinder, P1, pair, Topology.cylinder(1.0))
        assert twisted.a == pytest.approx(cyl.a, rel=1e-14)
        assert twisted.b == pytest.approx(cyl.b, rel=1e-14)
        assert twisted.x == pytest.approx(cyl.x, rel=1e-14)
        assert twisted.c == pytest.approx(cyl.c, rel=1e-14)

    def test_position_dependence_breaks_a_b_symmetry(self):
        pair = WorldlinePair((1.0, 0.0), (1.5, 0.0), 0.0, 0.0)
        st = quiet_elements(elements_twisted, P1, pair, Topology.twisted_cylinder(1.0))
        assert st.a != st.b
        assert st.e == pytest.approx(
            joint_excitation(st.a, st.b, st.x, st.c), rel=1e-15
        )

    def test_equal_offsets_restore_a_b_symmetry(self):
        pair = WorldlinePair((0.7, 0.0), (0.7, 0.0), 0.0, 0.9)
        st = quiet_elements(elements_twisted, P1, pair, Topology.twisted_cylinder(1.0))
        assert st.a == pytest.approx(st.b, rel=1e-14)

    def test_dispatch(self):
        pair = WorldlinePair((0.0, 0.0), (0.5, 0.0), 0.0, 0.0)
        st1 = elements_for(P1, pair, Topology.minkowski())
        st2 = elements_minkowski(P1, separation(pair))
        assert st1 == st2


class TestAssembly:
    def test_matrix_structure(self):
        st = elements_minkowski(P1, 1.0)
        rho = assemble_density_matrix(st, 0.01)
        assert rho.shape == (4, 4)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(rho - rho.conj().T)) == 0.0
        zero_mask = np.array(
            [
                [False, True, True, False],
                [True, False, False, True],
                [True, False, False, True],
                [False, True, True, False],
            ]
        )
        assert np.all(rho[zero_mask] == 0.0)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_product_form_when_uncorrelated(self):
        a, b = 0.02, 0.05
        st = XStateAB(a=a, b=b, x=0.0, c=0.0, e=a * b)
        rho = assemble_density_matrix(st, 1.0)
        single_a = np.diag([1.0 - a, a])
        single_b = np.diag([1.0 - b, b])
        assert np.max(np.abs(rho - np.kron(single_a, single_b))) < 1e-15

    def test_eigenvalue_sweep_on_figure_grid(self):
        eps0 = 0.01
        for om in np.linspace(-3.0, 3.0, 7):
            p = DetectorParams(omega=float(om), sigma=1.0, eps0=eps0)
            for length in np.linspace(0.25, 10.0, 8):
                rho = assemble_density_matrix(
                    elements_minkowski(p, float(length)), eps0
                )
                assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_positivity_violation_rejected(self):
        # |c|^2 > a b violates the Cauchy-Schwarz structure of the exchange
        # element, so r22 r33 >= |C|^2 fails well beyond tolerance
        a = b = 0.01
        c = 0.02
        st = XStateAB(a=a, b=b, x=0.0, c=c, e=joint_excitation(a, b, 0.0, c))
        with pytest.raises(PositivityError):
            assemble_density_matrix(st, 0.1)

    def test_inconsistent_e_flagged(self):
        st = XStateAB(a=0.01, b=0.01, x=0.001, c=0.001, e=42.0)
        with pytest.warns(StateConsistencyWarning):
            assemble_density_matrix(st, 0.01)

    def test_unphysical_probability_rejected(self):
        st = XStateAB(a=2.0, b=0.01, x=0.0, c=0.0, e=0.02)
        with pytest.raises(InvalidStateError):
            assemble_density_matrix(st, 1.0)

    def test_params_validation(self):
        with pytest.raises(InvalidStateError):
            DetectorParams(omega=1.0, sigma=0.0)
        with pytest.raises(InvalidStateError):
            DetectorParams(omega=1.0, sigma=1.0, eps0=-0.1)
        with pytest.raises(InvalidStateError):
            DetectorParams(omega=math.inf, sigma=1.0)
