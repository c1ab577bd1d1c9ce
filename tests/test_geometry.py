"""Geometry: separations from the explicit isometry action must agree with
the quadratic closed forms, for both quotients, on random worldlines."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udwpair import (
    GeometryError,
    Topology,
    TopologyKind,
    WorldlinePair,
    effective_ell_twisted,
    image_separation,
    separation,
    worldlines_from_orientation,
)
from udwpair.geometry import (
    cylinder_separation_formula,
    image_separation_cylinder,
    image_separation_twisted,
    parity,
    self_pair,
    twisted_separation_formula,
)

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


class TestCylinderImages:
    def test_identity_image(self):
        w = WorldlinePair((0.1, 0.0), (0.4, 0.0), 0.0, 0.2)
        assert image_separation_cylinder(w, 1.0, 0) == separation(w)

    def test_quoted_value(self):
        # L = 0.5, ell = 1, dz = 0, n = 1 -> sqrt(1.25)
        w = WorldlinePair((0.0, 0.0), (0.5, 0.0), 0.0, 0.0)
        assert image_separation_cylinder(w, 1.0, 1) == pytest.approx(
            math.sqrt(1.25), abs=1e-15
        )

    def test_reflection_symmetry_at_zero_dz(self):
        w = WorldlinePair((0.0, 0.0), (0.7, 0.3), 0.0, 0.0)
        for n in range(1, 8):
            assert image_separation_cylinder(w, 0.8, n) == pytest.approx(
                image_separation_cylinder(w, 0.8, -n), abs=1e-15
            )


class TestTwistedImages:
    def test_even_n_matches_cylinder(self):
        w = WorldlinePair((0.2, -0.1), (0.4, 0.5), 0.1, -0.3)
        for n in (-4, -2, 2, 4):
            assert image_separation_twisted(w, 1.3, n) == pytest.approx(
                image_separation_cylinder(w, 1.3, n), abs=1e-15
            )

    def test_vanishing_planar_parts_match_cylinder(self):
        w = WorldlinePair((0.0, 0.0), (0.0, 0.0), 0.0, 0.6)
        for n in range(-5, 6):
            assert image_separation_twisted(w, 1.0, n) == pytest.approx(
                image_separation_cylinder(w, 1.0, n), abs=1e-15
            )

    def test_quoted_value(self):
        # dA=(0.1,0), dB=(0.2,0), dz=0, ell=1, n=1 -> Ltilde^2 = 1.09
        w = WorldlinePair((0.1, 0.0), (0.2, 0.0), 0.0, 0.0)
        assert image_separation_twisted(w, 1.0, 1) ** 2 == pytest.approx(
            1.09, abs=1e-14
        )


class TestEffectiveEll:
    def test_even_n_unchanged(self):
        assert effective_ell_twisted(1.0, 0.7, 2) == 0.7

    def test_quoted_value(self):
        assert effective_ell_twisted(1.0, 1.0, 1) == pytest.approx(
            math.sqrt(5.0), abs=1e-15
        )

    def test_axis_detector_unchanged(self):
        for n in (-3, -1, 1, 2, 5):
            assert effective_ell_twisted(0.0, 1.2, n) == 1.2

    def test_zero_index_rejected(self):
        with pytest.raises(GeometryError):
            effective_ell_twisted(1.0, 1.0, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 4, allow_nan=False), scale, st.integers(-12, 12))
    def test_parity_identity(self, d_k, ell, n):
        """n^2 ell_n^2 - n^2 ell^2 is exactly 0 or 4 d_k^2 by parity."""
        if n == 0:
            return
        ell_n = effective_ell_twisted(d_k, ell, n)
        diff = n * n * ell_n * ell_n - n * n * ell * ell
        expected = 4.0 * d_k * d_k * parity(n)
        assert diff == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_consistency_with_self_image_separation(self):
        # |n| ell_n equals the twisted self-image distance of detector k
        d_k, ell = 0.8, 1.1
        w = self_pair((d_k, 0.0), 0.4)
        for n in (-3, -1, 1, 2, 7):
            assert image_separation_twisted(w, ell, n) == pytest.approx(
                abs(n) * effective_ell_twisted(d_k, ell, n), rel=1e-14
            )


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
            image_separation(Topology.minkowski(), self_pair((0.0, 0.0)), 1)


@settings(max_examples=300, deadline=None)
@given(pairs(), scale, st.integers(-12, 12))
# L_n << n ell, where L^2 + n^2 ell^2 - 2 n ell dz cancels to 2^-26
@example(WorldlinePair((0.0, 1.0), (0.0, 1.0), 1.0, 1.657e-8), 1.0, 1)
def test_isometry_action_matches_quadratic_formula_cylinder(pair, ell, n):
    got = image_separation_cylinder(pair, ell, n)
    want = cylinder_separation_formula(pair, ell, n)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(pairs(), scale, st.integers(-12, 12))
@example(WorldlinePair((0.0, 1.0), (0.0, 1.0), 1.0, 1.657e-8), 1.0, 2)
@example(WorldlinePair((0.0, 1.0), (0.0, -1.0), 1.0, 1.657e-8), 1.0, 1)
def test_isometry_action_matches_quadratic_formula_twisted(pair, ell, n):
    got = image_separation_twisted(pair, ell, n)
    want = twisted_separation_formula(pair, ell, n)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
