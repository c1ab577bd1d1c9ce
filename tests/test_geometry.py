"""Geometry: image separations from the parity classes must agree with the
explicit isometry action J^n applied to x_B coordinate by coordinate, for
both quotients, on random worldlines."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from references import separation, worldlines_from_orientation

from udwpair import GeometryError, Topology, TopologyKind, WorldlinePair
from udwpair.geometry import (
    ImageClass,
    image_classes,
    image_separation_array,
    self_pair,
    separation_array,
)


def isometry_separation(kind: TopologyKind, pair: WorldlinePair, ell: float, n: int) -> float:
    """|x_A - J^n x_B| with J^n applied to x_B coordinate by coordinate:
    J0 and J- shift z by ell; J- also reflects x and y."""
    flip = -1.0 if kind is TopologyKind.TWISTED_CYLINDER and n % 2 else 1.0
    x_b, y_b, z_b = flip * pair.d_b[0], flip * pair.d_b[1], pair.z_b + n * ell
    return separation(WorldlinePair(pair.d_a, (x_b, y_b), pair.z_a, z_b))


def cylinder_image(pair: WorldlinePair, ell: float, n: int) -> float:
    return float(image_separation_array(Topology.cylinder(ell), pair, n))


def twisted_image(pair: WorldlinePair, ell: float, n: int) -> float:
    return float(image_separation_array(Topology.twisted_cylinder(ell), pair, n))


coord = st.floats(-5, 5, allow_nan=False, allow_infinity=False)
scale = st.floats(0.1, 6, allow_nan=False, allow_infinity=False)


def pairs():
    return st.builds(
        WorldlinePair,
        d_a=st.tuples(coord, coord),
        d_b=st.tuples(coord, coord),
        z_a=coord,
        z_b=coord,
    )


class TestSeparation:
    def test_axis_aligned(self):
        w = WorldlinePair((0.0, 0.0), (0.0, 0.0), 0.0, 1.0)
        assert separation(w) == 1.0

    def test_three_four_five(self):
        w = WorldlinePair((0.3, 0.4), (0.0, 0.0), 2.0, 2.0)
        assert separation(w) == pytest.approx(0.5, abs=1e-15)

    def test_coincident(self):
        w = WorldlinePair((1.0, -2.0), (1.0, -2.0), 0.3, 0.3)
        assert separation(w) == 0.0

    @pytest.mark.parametrize("length", [1e200, 1e-200, 1e-160])
    def test_sum_of_squares_out_of_range(self, length):
        # L^2 overflows (1e200), underflows to 0 (1e-200) or is subnormal
        # (1e-160); the distance itself is representable
        axis = WorldlinePair((0.0, 0.0), (np.array([length, -length]), 0.0))
        assert np.all(separation_array(axis) == length)
        diagonal = WorldlinePair((0.0, 0.0), (3.0 * length, 0.0), 0.0, 4.0 * length)
        assert separation(diagonal) == pytest.approx(5.0 * length, rel=1e-15)
        assert separation(WorldlinePair((0.0, 0.0), (0.0, 0.0), length, 0.0)) == length

    def test_in_range_distances_keep_the_plain_sum_of_squares(self):
        rng = np.random.default_rng(5)
        d = rng.normal(size=(3, 1000)) * 10.0 ** rng.uniform(-150, 150, size=(3, 1000))
        pair = WorldlinePair((0.0, 0.0), (d[0], d[1]), 0.0, d[2])
        plain = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
        assert np.array_equal(separation_array(pair), plain)

    def test_nonfinite_coordinates_stay_nonfinite(self):
        assert separation(WorldlinePair((0.0, 0.0), (math.inf, 0.0))) == math.inf
        assert math.isnan(separation(WorldlinePair((0.0, 0.0), (math.nan, 1e200))))


class TestCylinderImages:
    def test_identity_image(self):
        w = WorldlinePair((0.1, 0.0), (0.4, 0.0), 0.0, 0.2)
        assert cylinder_image(w, 1.0, 0) == separation(w)

    def test_quoted_value(self):
        # L = 0.5, ell = 1, dz = 0, n = 1 -> sqrt(1.25)
        w = WorldlinePair((0.0, 0.0), (0.5, 0.0), 0.0, 0.0)
        assert cylinder_image(w, 1.0, 1) == pytest.approx(
            math.sqrt(1.25), abs=1e-15
        )

    def test_reflection_symmetry_at_zero_dz(self):
        w = WorldlinePair((0.0, 0.0), (0.7, 0.3), 0.0, 0.0)
        for n in range(1, 8):
            assert cylinder_image(w, 0.8, n) == pytest.approx(
                cylinder_image(w, 0.8, -n), abs=1e-15
            )


class TestTwistedImages:
    def test_even_n_matches_cylinder(self):
        w = WorldlinePair((0.2, -0.1), (0.4, 0.5), 0.1, -0.3)
        for n in (-4, -2, 2, 4):
            assert twisted_image(w, 1.3, n) == pytest.approx(
                cylinder_image(w, 1.3, n), abs=1e-15
            )

    def test_vanishing_planar_parts_match_cylinder(self):
        w = WorldlinePair((0.0, 0.0), (0.0, 0.0), 0.0, 0.6)
        for n in range(-5, 6):
            assert twisted_image(w, 1.0, n) == pytest.approx(
                cylinder_image(w, 1.0, n), abs=1e-15
            )

    def test_quoted_value(self):
        # dA=(0.1,0), dB=(0.2,0), dz=0, ell=1, n=1 -> Ltilde^2 = 1.09
        w = WorldlinePair((0.1, 0.0), (0.2, 0.0), 0.0, 0.0)
        assert twisted_image(w, 1.0, 1) ** 2 == pytest.approx(
            1.09, abs=1e-14
        )


class TestEffectiveEll:
    """Detector k sees its own n-th image at |n| ell_n, where
    n^2 ell_n^2 = |x_k - J^n x_k|^2 = n^2 ell^2 + 4 |d_k|^2 P(n) on the
    twisted cylinder (P(n) = n mod 2): the odd class of the pair (k, k)
    sits at 2 d_k."""

    def test_even_n_unchanged(self):
        assert twisted_image(self_pair((1.0, 0.0)), 0.7, 2) == 2 * 0.7

    def test_quoted_value(self):
        assert twisted_image(self_pair((1.0, 0.0)), 1.0, 1) == pytest.approx(
            math.sqrt(5.0), abs=1e-15
        )

    def test_axis_detector_unchanged(self):
        for n in (-3, -1, 1, 2, 5):
            assert twisted_image(self_pair((0.0, 0.0)), 1.2, n) == abs(n) * 1.2

    def test_zero_index_is_the_detector_itself(self):
        # ell_n is undefined at n = 0: the image is the detector, at distance 0
        assert twisted_image(self_pair((1.0, 0.0), 0.4), 1.0, 0) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 4, allow_nan=False), scale, st.integers(-12, 12))
    def test_parity_identity(self, d_k, ell, n):
        """|x_k - J^n x_k|^2 = n^2 ell^2 + 4 d_k^2 P(n), compared whole: the
        difference r_n^2 - n^2 ell^2 would carry rounding of order
        eps n^2 ell^2, which reaches 1e-12 on this grid."""
        if n == 0:
            return
        r_n = twisted_image(self_pair((d_k, 0.0)), ell, n)
        expected = n * n * ell * ell + 4.0 * d_k * d_k * (n % 2)
        assert r_n * r_n == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_consistency_with_self_image_separation(self):
        # the odd self class of detector k sits at 2 d_k, the even one at 0
        d_k, ell = 0.8, 1.1
        w = self_pair((d_k, 0.0), 0.4)
        even, odd = image_classes(Topology.twisted_cylinder(ell), w)
        assert (even.dx, even.dy, odd.dx, odd.dy) == (0.0, 0.0, 2 * d_k, 0.0)
        for n in (-3, -1, 1, 2, 7):
            assert twisted_image(w, ell, n) == pytest.approx(
                math.sqrt(n * n * ell * ell + 4.0 * d_k * d_k * (n % 2)), rel=1e-14
            )


class TestImageClasses:
    PAIR = WorldlinePair((0.2, -0.1), (0.4, 0.5), 0.1, -0.3)

    @pytest.mark.parametrize("eta", [1, -1])
    def test_cylinder(self, eta):
        even, odd = image_classes(Topology.cylinder(1.3, eta), self.PAIR)
        assert even == ImageClass(1, 0.2 - 0.4, -0.1 - 0.5)
        assert odd == ImageClass(eta, 0.2 - 0.4, -0.1 - 0.5)

    @pytest.mark.parametrize("eta", [1, -1])
    def test_twisted(self, eta):
        even, odd = image_classes(Topology.twisted_cylinder(1.3, eta), self.PAIR)
        assert even == ImageClass(1, 0.2 - 0.4, -0.1 - 0.5)
        assert odd == ImageClass(eta, 0.2 + 0.4, -0.1 + 0.5)

    @pytest.mark.parametrize("topology", [Topology.cylinder(1.3), Topology.twisted_cylinder(1.3)])
    def test_stacked_images_equal_single_images(self, topology):
        # n as a leading axis against array coordinates, each n in its own class
        pair = WorldlinePair((0.2, -0.1), (np.array([0.4, -0.7, 1.5]), 0.5), 0.1, -0.3)
        ns = [-3, -2, -1, 1, 2, 3]
        stacked = image_separation_array(topology, pair, np.reshape(ns, (-1, 1)))
        assert stacked.shape == (6, 3)
        for row, n in zip(stacked, ns):
            assert row.tobytes() == image_separation_array(topology, pair, n).tobytes()


class TestOrientation:
    def test_transverse(self):
        w = worldlines_from_orientation(2.0, 0.0)
        assert w.delta_z == 0.0
        assert separation(w) == pytest.approx(2.0, abs=1e-15)
        assert w.d_b == (2.0, 0.0)

    def test_axial(self):
        w = worldlines_from_orientation(1.5, math.pi / 2.0)
        assert w.z_b == pytest.approx(1.5, abs=1e-15)
        assert abs(w.d_b[0]) < 1e-15

    def test_mirror_symmetry(self):
        theta = 0.3
        w1 = worldlines_from_orientation(1.0, theta)
        w2 = worldlines_from_orientation(1.0, math.pi - theta)
        assert abs(w1.z_b) == pytest.approx(abs(w2.z_b), abs=1e-15)
        assert w1.d_b[0] == pytest.approx(-w2.d_b[0], abs=1e-15)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(GeometryError):
            worldlines_from_orientation(0.0, 0.1)
        with pytest.raises(GeometryError):
            worldlines_from_orientation(-1.0, 0.1)


class TestTopologyValidation:
    def test_eta_values(self):
        with pytest.raises(GeometryError):
            Topology.cylinder(1.0, eta=2)

    def test_quotient_needs_positive_ell(self):
        with pytest.raises(GeometryError):
            Topology.cylinder(0.0)
        with pytest.raises(GeometryError):
            Topology(TopologyKind.TWISTED_CYLINDER, None)

    def test_minkowski_has_no_ell(self):
        with pytest.raises(GeometryError):
            Topology(TopologyKind.MINKOWSKI, 1.0)
        with pytest.raises(GeometryError):
            image_separation_array(Topology.minkowski(), self_pair((0.0, 0.0)), 1)
        with pytest.raises(GeometryError, match="no identification isometry"):
            image_classes(Topology.minkowski(), self_pair((0.0, 0.0)))


@settings(max_examples=300, deadline=None)
@given(pairs(), scale, st.integers(-12, 12))
# L_n << n ell, where L^2 + n^2 ell^2 - 2 n ell dz cancels to 2^-26
@example(WorldlinePair((0.0, 1.0), (0.0, 1.0), 1.0, 1.657e-8), 1.0, 1)
def test_isometry_action_matches_quadratic_formula_cylinder(pair, ell, n):
    got = cylinder_image(pair, ell, n)
    want = isometry_separation(TopologyKind.CYLINDER, pair, ell, n)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(pairs(), scale, st.integers(-12, 12))
@example(WorldlinePair((0.0, 1.0), (0.0, 1.0), 1.0, 1.657e-8), 1.0, 2)
@example(WorldlinePair((0.0, 1.0), (0.0, -1.0), 1.0, 1.657e-8), 1.0, 1)
def test_isometry_action_matches_quadratic_formula_twisted(pair, ell, n):
    got = twisted_image(pair, ell, n)
    want = isometry_separation(TopologyKind.TWISTED_CYLINDER, pair, ell, n)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
