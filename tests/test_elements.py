"""Closed-form matrix elements: frozen values, image sums verified term by
term against the quadrature oracle, quotient-spacetime structure, and
density-matrix assembly."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from references import separation, worldlines_from_orientation

from udwpair import (
    DetectorParams,
    GeometryError,
    InvalidStateError,
    PositivityError,
    Topology,
    TruncationWarning,
    WorldlinePair,
    XStateAB,
    assemble_density_matrix,
    elements_for,
    oracle_c,
    oracle_x,
)
from udwpair.elements import (
    exchange_array,
    joint_excitation,
    nonlocal_array,
    self_excitation_array,
)
from udwpair.geometry import image_separation_array, self_pair

A_OMEGA_1 = 0.0070882722326364159723
A_OMEGA_HALF = 0.028158875373857042038
A_OMEGA_MINUS_1 = 0.28918306400651455945
ABS_X_L1_O1 = 0.047440335103833298156
C_L1_O1 = 0.0066003343060240564385

P1 = DetectorParams(omega=1.0, sigma=1.0)


def quiet_elements(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return elements_for(*args, **kwargs)


def minkowski(p: DetectorParams, length: float) -> XStateAB:
    """elements_for in Minkowski space at separation ``length``."""
    return elements_for(p, WorldlinePair((0.0, 0.0), (length, 0.0)), Topology.minkowski())


def self_term(omega: float) -> float:
    """a at sigma = 1 from the kernel on a one-element array."""
    return float(self_excitation_array(np.array([omega]))[0])


def exchange_term(omega: float, r: float) -> float:
    """c at sigma = 1 from the kernel on one-element arrays."""
    return float(exchange_array(np.array([omega]), np.array([r]))[0])


class TestCoefficients:
    def test_self_term_at_zero_gap(self):
        p = DetectorParams(omega=0.0, sigma=2.5)
        assert minkowski(p, 1.0).a == 1.0 / (4.0 * math.pi)

    def test_self_term_frozen_values(self):
        for om, want in ((1.0, A_OMEGA_1), (0.5, A_OMEGA_HALF), (-1.0, A_OMEGA_MINUS_1)):
            assert self_term(om) == pytest.approx(want, rel=1e-12)

    def test_self_term_positive_and_cancellation_safe(self):
        # strictly positive wherever representable (value ~ e^{-s^2 Om^2}/8 pi s^2 Om^2
        # underflows to exactly 0.0 beyond s*Omega ~ 27, which is still finite)
        for om in (0.0, 1.0, 5.0, 10.0, 20.0, -7.0):
            a = self_term(om)
            assert a > 0.0 and math.isfinite(a)
        assert self_term(40.0) == 0.0

    def test_nonlocal_frozen_value(self):
        x = complex(nonlocal_array(np.array([1.0]), np.array([1.0]))[0])
        assert abs(x) == pytest.approx(ABS_X_L1_O1, rel=1e-12)
        assert x.real < 0.0 < x.imag

    def test_exchange_frozen_value(self):
        assert exchange_term(1.0, 1.0) == pytest.approx(C_L1_O1, rel=1e-12)

    def test_separation_validation(self):
        with pytest.raises(GeometryError, match="separation must be finite and > 0, got 0.0"):
            minkowski(P1, 0.0)
        with pytest.raises(GeometryError, match="separation must be finite and > 0, got inf"):
            minkowski(P1, -math.inf)

    def test_extreme_separation_is_finite_power_law(self):
        # principal-value tails ~ s^2 e^{-s^2 Om^2} / (2 pi r^2); no overflow,
        # no spurious zeroing at any separation
        for r in (40.0, 200.0, 1e4):
            st = minkowski(P1, r)
            x, c = st.x, st.c.real
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
    s Omega >= 12; small negative gaps at small r are where the two terms
    of a negative gap would cancel if formed near x + iy = 0."""

    @pytest.mark.parametrize("omega", [0.5, 3.0, 12.0, 24.0, -1e-4, -0.05, -1.0, -3.0, -12.0])
    @pytest.mark.parametrize("r", [1e-3, 0.078, 1.0, 10.0])
    def test_against_mpmath(self, omega, r):
        got = exchange_term(omega, r)
        want = _mp_exchange(omega, r)
        scale = max(abs(want), _mp_self_term(omega))
        assert float(abs(got - want) / scale) < 1e-13

    def test_finite_at_extreme_arguments(self):
        # the Faddeeva argument -y + i|x| stays in the upper half-plane for
        # both gap signs, so no intermediate overflows
        rng = np.random.default_rng(7)
        for bound in (50.0, 1e4, 1e150):
            omega = -rng.uniform(0.0, bound, 500)
            r = rng.uniform(0.0, bound, 500) + 1e-300
            assert np.all(np.isfinite(exchange_array(omega, r)))
            assert np.all(np.isfinite(exchange_array(-omega, r)))

    def test_scalar_matches_array_kernel(self):
        omegas = np.array([-2.0, 0.0, 0.5, 3.0, 9.0, 24.0])[:, None]
        rs = np.array([1e-3, 0.2, 0.59, 1.0, 7.0])[None, :]
        grid = exchange_array(omegas, rs)
        for i, om in enumerate(omegas[:, 0]):
            for j, r in enumerate(rs[0]):
                p = DetectorParams(omega=float(om), sigma=1.0)
                assert minkowski(p, float(r)).c == grid[i, j]


class TestSelfTermAccuracy:
    """a against mpmath at large gaps, where 1 - sqrt(pi) y erfcx(y) ~ 1/2y^2
    cancels, on both sides of the switch to the continued fraction."""

    @pytest.mark.parametrize("omega", [3.9, 4.0, 8.0, 12.0, 18.0, 24.0])
    def test_against_mpmath(self, omega):
        got = self_term(omega)
        want = _mp_self_term(omega)
        assert float(abs(got - want) / want) < 1e-14

    def test_dense_grid_against_mpmath(self):
        # the direct form 1 - sqrt(pi) y erfcx(y) was off by 1.4e-14 at 3.88
        # while it ran up to the switch at 4
        ys = np.linspace(-6.0, 24.0, 3001)
        got = self_excitation_array(ys)
        with mp.workdps(50):
            want = [
                (mp.exp(-y * y) - mp.sqrt(mp.pi) * y * mp.erfc(y)) / (4 * mp.pi)
                for y in map(mp.mpf, ys.tolist())
            ]
        err = [float(abs(g - w) / w) for g, w in zip(got.tolist(), want)]
        assert max(err) < 1e-14

    def test_scalar_matches_array_kernel(self):
        ys = np.array([-2.0, 0.0, 1.9, 2.0, 3.9, 4.0, 4.5, 24.0, 40.0])
        grid = self_excitation_array(ys)
        for y, got in zip(ys, grid):
            p = DetectorParams(omega=float(y), sigma=1.0)
            assert minkowski(p, 1.0).a == got


class TestMinkowski:
    def test_identical_detectors(self):
        st = minkowski(P1, 1.0)
        assert st.b == st.a
        assert st.e == pytest.approx(joint_excitation(st.a, st.a, st.x, st.c), rel=1e-15)
        assert st.tail_bound == 0.0

    def test_large_separation_approaches_product_state(self):
        eps0 = 0.01
        st = minkowski(DetectorParams(omega=1.0, sigma=1.0), 12.0)
        rho = assemble_density_matrix(st, eps0)
        single = np.array([[1.0 - eps0**2 * st.a, 0.0], [0.0, eps0**2 * st.a]])
        product = np.kron(single, single)
        assert np.max(np.abs(rho - product)) < 1e-7

    def test_requires_positive_separation(self):
        with pytest.raises(GeometryError):
            minkowski(P1, 0.0)


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
        l_n = float(image_separation_array(top, pair, n))
        st = minkowski(P1, l_n)
        assert st.x == pytest.approx(oracle_x(P1, l_n), abs=1e-8)
        assert st.c.real == pytest.approx(
            oracle_c(P1, l_n).real, abs=1e-8
        )

    @pytest.mark.parametrize("omega", [-1.0, 0.0, 1.5])
    def test_self_image_terms_cylinder(self, omega):
        p = DetectorParams(omega=omega, sigma=1.0)
        top = Topology.cylinder(0.9)
        me = self_pair((0.3, 0.0), 0.1)
        for n in (1, 2, -3):
            r_n = float(image_separation_array(top, me, n))
            assert r_n == pytest.approx(abs(n) * 0.9, abs=1e-15)
            assert exchange_term(omega, r_n) == pytest.approx(
                oracle_c(p, r_n).real, abs=1e-8
            )

    def test_self_image_terms_twisted(self):
        p = DetectorParams(omega=0.5, sigma=1.0)
        top = Topology.twisted_cylinder(1.1)
        me = self_pair((0.8, 0.0), 0.0)
        for n in (1, -1, 2, 3):
            # odd self images lie across the axis, at 2 d_k transversally
            r_n = float(image_separation_array(top, me, n))
            assert r_n == pytest.approx(
                math.sqrt((n * 1.1) ** 2 + 4.0 * 0.8**2 * (n % 2)), rel=1e-14
            )
            assert exchange_term(0.5, r_n) == pytest.approx(
                oracle_c(p, r_n).real, abs=1e-8
            )


class TestCylinder:
    def test_translation_invariance(self):
        pair = WorldlinePair((0.0, 0.0), (0.7, 0.0), 0.0, 0.2)
        st = quiet_elements(P1, pair, Topology.cylinder(1.0))
        assert st.b == st.a

    def test_n0_term_is_minkowski(self):
        pair = WorldlinePair((0.0, 0.0), (0.5, 0.0), 0.0, 0.0)
        ell = 1.0
        st = quiet_elements(P1, pair, Topology.cylinder(ell), nmax=10)
        mink = minkowski(P1, 0.5)
        image_x = sum(
            minkowski(P1, math.sqrt(0.25 + (n * ell) ** 2)).x
            for n in range(-10, 11)
            if n != 0
        )
        assert st.x == pytest.approx(mink.x + image_x, rel=1e-13)

    def test_twisted_field_flips_odd_terms(self):
        pair = WorldlinePair((0.0, 0.0), (0.5, 0.0), 0.0, 0.0)
        ell = 1.0
        plus = quiet_elements(P1, pair, Topology.cylinder(ell, eta=1))
        minus = quiet_elements(P1, pair, Topology.cylinder(ell, eta=-1))
        # even-n terms unchanged: (plus + minus)/2 contains n=0 plus even images
        even_sum = 0.5 * (plus.x + minus.x)
        want_even = minkowski(P1, 0.5).x + sum(
            minkowski(P1, math.sqrt(0.25 + (n * ell) ** 2)).x
            for n in range(-10, 11)
            if n != 0 and n % 2 == 0
        )
        assert even_sum == pytest.approx(want_even, rel=1e-13)
        # odd terms flip sign between the two field types
        odd_sum = 0.5 * (plus.x - minus.x)
        want_odd = sum(
            minkowski(P1, math.sqrt(0.25 + (n * ell) ** 2)).x
            for n in range(-10, 11)
            if n % 2 == 1 or n % 2 == -1
        )
        assert odd_sum == pytest.approx(want_odd, rel=1e-13)

    def test_monotone_approach_to_minkowski(self):
        pair = WorldlinePair((0.0, 0.0), (0.5, 0.0), 0.0, 0.0)
        mink_a = minkowski(P1, 0.5).a
        devs = []
        for ell in (1.0, 2.0, 5.0, 10.0, 20.0):
            st = quiet_elements(P1, pair, Topology.cylinder(ell))
            devs.append(abs(st.a - mink_a))
        assert all(d1 > d2 for d1, d2 in zip(devs, devs[1:]))
        # principal-value tails make the approach polynomial:
        # sum over +-n of e^{-s^2 Om^2} s^2 / (2 pi n^2 ell^2) = zeta(2)-law
        want = math.exp(-1.0) * (math.pi**2 / 6.0) / (math.pi * 400.0)
        assert devs[-1] == pytest.approx(want, rel=0.10)

    def test_truncation_warning_and_tail_bound(self):
        pair = WorldlinePair((0.0, 0.0), (0.5, 0.0), 0.0, 0.0)
        with pytest.warns(TruncationWarning):
            st = elements_for(P1, pair, Topology.cylinder(1.0), nmax=10)
        assert st.tail_bound > 0.0
        st40 = quiet_elements(P1, pair, Topology.cylinder(1.0), nmax=40)
        # the omitted tail estimate bounds the actual truncation error
        assert abs(st40.x - st.x) <= 3.0 * st.tail_bound
        assert abs(st40.a - st.a) <= 3.0 * st.tail_bound

    def test_requires_separated_detectors(self):
        # the same check, and message, as in Minkowski space
        for topology in (Topology.cylinder(1.0), Topology.twisted_cylinder(1.0)):
            with pytest.raises(GeometryError, match="separation must be finite and > 0, got 0.0"):
                elements_for(P1, self_pair((0.0, 0.0)), topology)


class TestCoincidentImage:
    """B on an image of A: at theta = pi/2, L = ell the image n = -1 of B
    lies 6e-17 (from cos(pi/2)) from A, which is round-off, not a distance."""

    PAIR = worldlines_from_orientation(1.0, math.pi / 2)

    @pytest.mark.parametrize("topology", [Topology.cylinder(1.0), Topology.twisted_cylinder(1.0)])
    def test_scalar_path_names_the_image(self, topology):
        assert 0.0 < image_separation_array(topology, self.PAIR, -1) < 1e-16
        with pytest.raises(GeometryError, match=r"sits on image n = -1 of detector A"):
            quiet_elements(P1, self.PAIR, topology)

    def test_resolved_separation_is_not_flagged(self):
        pair = WorldlinePair((0.0, 0.0), (1e-9, 0.0), 0.0, 1.0)
        state = quiet_elements(P1, pair, Topology.cylinder(1.0))
        assert math.isfinite(state.a) and math.isfinite(abs(state.x))


class TestTwisted:
    def test_axis_detectors_reduce_to_cylinder(self):
        pair = WorldlinePair((0.0, 0.0), (0.0, 0.0), 0.0, 0.4)
        twisted = quiet_elements(P1, pair, Topology.twisted_cylinder(1.0))
        cyl = quiet_elements(P1, pair, Topology.cylinder(1.0))
        assert twisted.a == pytest.approx(cyl.a, rel=1e-14)
        assert twisted.b == pytest.approx(cyl.b, rel=1e-14)
        assert twisted.x == pytest.approx(cyl.x, rel=1e-14)
        assert twisted.c == pytest.approx(cyl.c, rel=1e-14)

    def test_position_dependence_breaks_a_b_symmetry(self):
        pair = WorldlinePair((1.0, 0.0), (1.5, 0.0), 0.0, 0.0)
        st = quiet_elements(P1, pair, Topology.twisted_cylinder(1.0))
        assert st.a != st.b
        assert st.e == pytest.approx(
            joint_excitation(st.a, st.b, st.x, st.c), rel=1e-15
        )

    def test_equal_offsets_restore_a_b_symmetry(self):
        pair = WorldlinePair((0.7, 0.0), (0.7, 0.0), 0.0, 0.9)
        st = quiet_elements(P1, pair, Topology.twisted_cylinder(1.0))
        assert st.a == pytest.approx(st.b, rel=1e-14)

    def test_dispatch(self):
        # Minkowski space: the closed forms at L, no image terms
        pair = WorldlinePair((0.0, 0.0), (0.5, 0.0), 0.0, 0.0)
        omega = np.array([P1.omega])
        length = np.array([separation(pair)])
        a = float(self_excitation_array(omega)[0])
        x = complex(nonlocal_array(omega, length)[0])
        c = complex(exchange_array(omega, length)[0])
        want = XStateAB(a=a, b=a, x=x, c=c)
        assert elements_for(P1, pair, Topology.minkowski()) == want
        # the quotients: image sums, with b != a only on the twisted cylinder
        off_axis = WorldlinePair((1.0, 0.0), (1.5, 0.0), 0.0, 0.0)
        cyl = quiet_elements(P1, off_axis, Topology.cylinder(1.0))
        twisted = quiet_elements(P1, off_axis, Topology.twisted_cylinder(1.0))
        assert cyl.a == cyl.b and cyl.tail_bound > 0.0
        assert twisted.a != twisted.b and twisted.tail_bound > 0.0


#: float.hex of (a, b, Re x, Im x, c) from ``elements_for`` at ``nmax`` 10 on
#: x_A = (d_A, 0, 0), x_B = (d_A + L cos theta, 0, L sin theta), L = 0.6,
#: ell = 1, keyed by (topology, eta, d_A, theta, Omega sigma).  The sweep
#: output files are pinned byte for byte, so the way the image sums are
#: formed must reproduce every bit of these.
QUOTIENT_BITS = {
    ("cylinder", 1, 0.1, 0.3, -2.0): (
        "0x1.c46a1a4103357p-1", "0x1.c46a1a4103357p-1", "-0x1.da22c08083b0ep-8",
        "0x1.0f8c02381efbbp-7", "0x1.312b9c1d5568dp-1",
    ),
    ("cylinder", 1, 0.1, 0.3, 0.5): (
        "0x1.82aec0aa39c1cp-3", "0x1.82aec0aa39c1cp-3", "-0x1.3b030f75f66e7p-2",
        "0x1.68d3bf3d49338p-2", "0x1.788134cdc0a04p-3",
    ),
    ("cylinder", 1, 0.1, 1.1, -2.0): (
        "0x1.c46a1a4103357p-1", "0x1.c46a1a4103357p-1", "-0x1.ea50fd59831dbp-8",
        "0x1.6183c3c7de05bp-7", "0x1.9fb495a4e8f3ap-1",
    ),
    ("cylinder", 1, 0.1, 1.1, 0.5): (
        "0x1.82aec0aa39c1cp-3", "0x1.82aec0aa39c1cp-3", "-0x1.45c3212c8ebd5p-2",
        "0x1.d5be9f598313bp-2", "0x1.8039de678fc1bp-3",
    ),
    ("cylinder", 1, 0.7, 0.3, -2.0): (
        "0x1.c46a1a4103357p-1", "0x1.c46a1a4103357p-1", "-0x1.da22c08083b0ep-8",
        "0x1.0f8c02381efbbp-7", "0x1.312b9c1d5568dp-1",
    ),
    ("cylinder", 1, 0.7, 0.3, 0.5): (
        "0x1.82aec0aa39c1cp-3", "0x1.82aec0aa39c1cp-3", "-0x1.3b030f75f66e7p-2",
        "0x1.68d3bf3d49338p-2", "0x1.788134cdc0a04p-3",
    ),
    ("cylinder", 1, 0.7, 1.1, -2.0): (
        "0x1.c46a1a4103357p-1", "0x1.c46a1a4103357p-1", "-0x1.ea50fd59831dcp-8",
        "0x1.6183c3c7de05dp-7", "0x1.9fb495a4e8f3ap-1",
    ),
    ("cylinder", 1, 0.7, 1.1, 0.5): (
        "0x1.82aec0aa39c1cp-3", "0x1.82aec0aa39c1cp-3", "-0x1.45c3212c8ebd5p-2",
        "0x1.d5be9f598313dp-2", "0x1.8039de678fc1bp-3",
    ),
    ("cylinder", -1, 0.1, 0.3, -2.0): (
        "0x1.826dd83f11be2p-4", "0x1.826dd83f11be2p-4", "-0x1.c1e91cc5d777cp-16",
        "0x1.64e0bdaf66ddcp-10", "0x1.155ac9d590372p-4",
    ),
    ("cylinder", -1, 0.1, 0.3, 0.5): (
        "0x1.2770c9036f105p-10", "0x1.2770c9036f105p-10", "-0x1.2aeabdc3340d9p-10",
        "0x1.da36ac7678c75p-5", "0x1.26cec5ee85f76p-10",
    ),
    ("cylinder", -1, 0.1, 1.1, -2.0): (
        "0x1.826dd83f11be2p-4", "0x1.826dd83f11be2p-4", "-0x1.c40283c2cb8bdp-16",
        "-0x1.d7bd02f22c528p-12", "-0x1.434709d2c9b88p-7",
    ),
    ("cylinder", -1, 0.1, 1.1, 0.5): (
        "0x1.2770c9036f105p-10", "0x1.2770c9036f105p-10", "-0x1.2c4fc9789a9b3p-10",
        "-0x1.396b4bd407a18p-6", "0x1.297db63d7d572p-10",
    ),
    ("cylinder", -1, 0.7, 0.3, -2.0): (
        "0x1.826dd83f11be2p-4", "0x1.826dd83f11be2p-4", "-0x1.c1e91cc5d777cp-16",
        "0x1.64e0bdaf66ddcp-10", "0x1.155ac9d590372p-4",
    ),
    ("cylinder", -1, 0.7, 0.3, 0.5): (
        "0x1.2770c9036f105p-10", "0x1.2770c9036f105p-10", "-0x1.2aeabdc3340d9p-10",
        "0x1.da36ac7678c75p-5", "0x1.26cec5ee85f76p-10",
    ),
    ("cylinder", -1, 0.7, 1.1, -2.0): (
        "0x1.826dd83f11be2p-4", "0x1.826dd83f11be2p-4", "-0x1.c40283c2cb8fdp-16",
        "-0x1.d7bd02f22c538p-12", "-0x1.434709d2c9b88p-7",
    ),
    ("cylinder", -1, 0.7, 1.1, 0.5): (
        "0x1.2770c9036f105p-10", "0x1.2770c9036f105p-10", "-0x1.2c4fc9789a973p-10",
        "-0x1.396b4bd407a10p-6", "0x1.297db63d7d562p-10",
    ),
    ("twisted", 1, 0.1, 0.3, -2.0): (
        "0x1.bada8f695ffd9p-1", "0x1.d4c25a38f94f5p-2", "-0x1.d1f115d8f41d2p-8",
        "0x1.fce347bd1ff8ap-8", "0x1.046de0c1ababdp-1",
    ),
    ("twisted", 1, 0.1, 0.3, 0.5): (
        "0x1.820d7dd72e41ap-3", "0x1.692515ee7ece0p-3", "-0x1.3591633e54ee3p-2",
        "0x1.5219d77e2e0e7p-2", "0x1.748011421aaf7p-3",
    ),
    ("twisted", 1, 0.1, 1.1, -2.0): (
        "0x1.bada8f695ffd9p-1", "0x1.58b410e9610b2p-1", "-0x1.e5834e62eee72p-8",
        "0x1.3f928fe4b2bdap-7", "0x1.7dcc6329483d8p-1",
    ),
    ("twisted", 1, 0.1, 1.1, 0.5): (
        "0x1.820d7dd72e41ap-3", "0x1.7a3df519ad1a2p-3", "-0x1.4292234a725a4p-2",
        "0x1.a8a48cf357cc6p-2", "0x1.7debb400b22c3p-3",
    ),
    ("twisted", 1, 0.7, 0.3, -2.0): (
        "0x1.c9d6fcc1b3bbbp-2", "0x1.e0cf9a8f38d24p-2", "-0x1.884ca6b3901dap-8",
        "0x1.6d0f5cf5c3605p-8", "0x1.10afe27203717p-2",
    ),
    ("twisted", 1, 0.7, 0.3, 0.5): (
        "0x1.67510155b8ecep-3", "0x1.3c45353bda203p-3", "-0x1.04a3fba5c160ap-2",
        "0x1.e515f94531829p-3", "0x1.4d036e6776d73p-3",
    ),
    ("twisted", 1, 0.7, 1.1, -2.0): (
        "0x1.c9d6fcc1b3bbbp-2", "0x1.aefac8c10a422p-2", "-0x1.a442cc4af74f6p-8",
        "0x1.9c89edacabcabp-8", "0x1.5d9fb4c99b587p-2",
    ),
    ("twisted", 1, 0.7, 1.1, 0.5): (
        "0x1.67510155b8ecep-3", "0x1.5338f8b7273cfp-3", "-0x1.1737cc3e2454ap-2",
        "0x1.121661b46d218p-2", "0x1.5c3f519e6e568p-3",
    ),
    ("twisted", -1, 0.1, 0.3, -2.0): (
        "0x1.ceea2efc2b7cfp-4", "0x1.0a56a82c68c59p-1", "-0x1.3e72788aad68ep-13",
        "0x1.edb3b07bded98p-10", "0x1.3da452596f105p-3",
    ),
    ("twisted", -1, 0.1, 0.3, 0.5): (
        "0x1.781232892f197p-10", "0x1.bd88c4dc1d1d1p-7", "-0x1.a725bd592d127p-8",
        "0x1.4802f537a8f82p-4", "0x1.93b045e0bf2b0p-9",
    ),
    ("twisted", -1, 0.1, 1.1, -2.0): (
        "0x1.ceea2efc2b7cfp-4", "0x1.380788bf08c45p-2", "-0x1.a46c5e95c0829p-14",
        "0x1.3334bcb99e584p-11", "0x1.cdb1654558f40p-5",
    ),
    ("twisted", -1, 0.1, 1.1, 0.5): (
        "0x1.781232892f197p-10", "0x1.57f5a45270b3ap-8", "-0x1.17536ae53f685p-8",
        "0x1.9835da8eacd70p-6", "0x1.284974d6240acp-9",
    ),
    ("twisted", -1, 0.7, 0.3, -2.0): (
        "0x1.0fcc56e80b8f5p-1", "0x1.0450080149041p-1", "-0x1.4e600ba6e5ab4p-10",
        "0x1.0b40d6e6544e9p-8", "0x1.96fe083e0b6e1p-2",
    ),
    ("twisted", -1, 0.7, 0.3, 0.5): (
        "0x1.daca0e687b305p-7", "0x1.22e1b40199feep-5", "-0x1.bc4ff46fc20f3p-5",
        "0x1.631f3052ff165p-3", "0x1.6e5b1f9136a71p-6",
    ),
    ("twisted", -1, 0.7, 1.1, -2.0): (
        "0x1.0fcc56e80b8f5p-1", "0x1.1d3a70e8604c1p-1", "-0x1.1f48ce493a678p-10",
        "0x1.0901c9b3ed7bcp-8", "0x1.d7af3e31a040dp-2",
    ),
    ("twisted", -1, 0.7, 1.1, 0.5): (
        "0x1.daca0e687b305p-7", "0x1.8e254c28cb17cp-6", "-0x1.7dbd25bf1819ep-5",
        "0x1.602311cfaaf08p-3", "0x1.326c41ace32f1p-6",
    ),
}


class TestQuotientBits:
    @pytest.mark.parametrize("key", sorted(QUOTIENT_BITS), ids=str)
    def test_elements_keep_their_bits(self, key):
        kind, eta, d_a, theta, omega = key
        top = (Topology.cylinder if kind == "cylinder" else Topology.twisted_cylinder)(1.0, eta)
        pair = WorldlinePair(
            (d_a, 0.0), (d_a + 0.6 * math.cos(theta), 0.0), 0.0, 0.6 * math.sin(theta)
        )
        st = quiet_elements(DetectorParams(omega=omega, sigma=1.0), pair, top, nmax=10)
        got = (st.a, st.b, st.x.real, st.x.imag, st.c.real)
        assert tuple(v.hex() for v in got) == QUOTIENT_BITS[key]
        assert st.c.imag == 0.0


class TestSigmaAtTheBoundary:
    """elements_for scales once, at DetectorParams: the elements at the gap
    Omega, width sigma and lengths L equal those at Omega sigma, width 1 and
    lengths L/sigma, within 1e-13 max(|v|, a)."""

    # both detectors off the axis (d_A != 0), B's images not coincident
    PAIR = WorldlinePair((0.3, -0.2), (1.1, 0.4), 0.25, -0.6)
    ELL = 1.7

    @staticmethod
    def _topology(case, ell):
        if case == "minkowski":
            return Topology.minkowski()
        kind, eta = case.split()
        return (Topology.cylinder if kind == "cylinder" else Topology.twisted_cylinder)(
            ell, int(eta)
        )

    @pytest.mark.parametrize(
        "case", ["minkowski", "cylinder 1", "cylinder -1", "twisted 1", "twisted -1"]
    )
    @pytest.mark.parametrize("sigma", [0.37, 0.8, 2.5])
    @pytest.mark.parametrize("omega", [-2.0, 0.5, 3.0])
    def test_elements_depend_on_omega_sigma_and_lengths_over_sigma(self, case, sigma, omega):
        p = self.PAIR
        scaled = WorldlinePair(
            (p.d_a[0] / sigma, p.d_a[1] / sigma), (p.d_b[0] / sigma, p.d_b[1] / sigma),
            p.z_a / sigma, p.z_b / sigma,
        )
        got = quiet_elements(
            DetectorParams(omega=omega, sigma=sigma), p, self._topology(case, self.ELL)
        )
        want = quiet_elements(
            DetectorParams(omega=omega * sigma, sigma=1.0), scaled,
            self._topology(case, self.ELL / sigma),
        )
        for name in ("a", "b", "x", "c"):
            v, w = getattr(got, name), getattr(want, name)
            assert abs(v - w) <= 1e-13 * max(abs(w), want.a), name


class TestAssembly:
    def test_matrix_structure(self):
        st = minkowski(P1, 1.0)
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
        st = XStateAB(a=a, b=b, x=0.0, c=0.0)
        rho = assemble_density_matrix(st, 1.0)
        single_a = np.diag([1.0 - a, a])
        single_b = np.diag([1.0 - b, b])
        assert np.max(np.abs(rho - np.kron(single_a, single_b))) < 1e-15

    def test_eigenvalue_sweep_on_figure_grid(self):
        eps0 = 0.01
        for om in np.linspace(-3.0, 3.0, 7):
            p = DetectorParams(omega=float(om), sigma=1.0)
            for length in np.linspace(0.25, 10.0, 8):
                rho = assemble_density_matrix(
                    minkowski(p, float(length)), eps0
                )
                assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_positivity_violation_rejected(self):
        # |c|^2 > a b violates the Cauchy-Schwarz structure of the exchange
        # element, so r22 r33 >= |C|^2 fails well beyond tolerance
        a = b = 0.01
        c = 0.02
        st = XStateAB(a=a, b=b, x=0.0, c=c)
        with pytest.raises(PositivityError):
            assemble_density_matrix(st, 0.1)

    def test_e_is_derived(self):
        st = XStateAB(a=0.01, b=0.02, x=0.001j, c=0.003)
        assert st.e == joint_excitation(0.01, 0.02, 0.001j, 0.003)
        # a fifth positional value is not read as tail_bound
        with pytest.raises(TypeError):
            XStateAB(0.01, 0.01, 0.001, 0.001, 42.0)

    def test_unphysical_probability_rejected(self):
        st = XStateAB(a=2.0, b=0.01, x=0.0, c=0.0)
        with pytest.raises(InvalidStateError):
            assemble_density_matrix(st, 1.0)

    @pytest.mark.parametrize("eps0", [-0.1, 0.0, math.nan, math.inf])
    def test_coupling_validation(self, eps0):
        st = XStateAB(a=0.01, b=0.01, x=0.0, c=0.0)
        with pytest.raises(InvalidStateError, match=r"^eps0 must be > 0, got "):
            assemble_density_matrix(st, eps0)

    def test_params_validation(self):
        with pytest.raises(InvalidStateError):
            DetectorParams(omega=1.0, sigma=0.0)
        with pytest.raises(InvalidStateError):
            DetectorParams(omega=math.inf, sigma=1.0)
