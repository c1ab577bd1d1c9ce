"""Special-function accuracy against frozen high-precision values, plus
structural properties (odd/conjugation symmetry, complement identity,
overflow safety).  Frozen constants were generated offline with mpmath at
40 significant digits.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udwpair import (
    DomainError,
    RangeOverflowError,
    dawson,
    erfc_real,
    phase_scaled_erf,
)
from udwpair.special import (
    VALIDATED_BOUND,
    _erf_representable,
    erf_complex,
    sample_validated_domain,
    scaled_erf_product,
)

ERF_1 = 0.84270079294971486934
ERFI_HALF = 0.61495209469651098084  # erf(0.5i) = i * ERFI_HALF
ERFC_1 = 0.15729920705028513066
DAWSON_HALF = 0.42443638350202229593
ERF_1_HALF_I = complex(0.9507097283189571738, 0.18797346722338331363)
SCALED_25_5I = 0.11524596183093658848j  # e^{-25} erf(5i)
SCALED_4_2_2I = complex(0.021086994077622715254, 0.0023314275188054430403)
PSE_03_30 = complex(-0.00017214679647883917406, 0.01719552214990539984)
DAWSON_CROSS_13 = 0.54545568804272640526  # e^{-1.69} erfi(1.3)


class TestErfComplex:
    def test_origin(self):
        assert erf_complex(0.0) == 0.0

    def test_real_axis(self):
        assert erf_complex(1.0).real == pytest.approx(ERF_1, rel=1e-13)
        assert erf_complex(1.0).imag == 0.0

    def test_imaginary_axis(self):
        val = erf_complex(0.5j)
        assert val.real == 0.0
        assert val.imag == pytest.approx(ERFI_HALF, rel=1e-13)

    def test_generic_complex_point(self):
        val = erf_complex(1.0 + 0.5j)
        assert val.real == pytest.approx(ERF_1_HALF_I.real, rel=1e-13)
        assert val.imag == pytest.approx(ERF_1_HALF_I.imag, rel=1e-13)

    def test_domain_cap(self):
        with pytest.raises(DomainError):
            erf_complex(51.0)
        with pytest.raises(DomainError):
            erf_complex(1.0 + 50.5j)
        with pytest.raises(DomainError):
            erf_complex(complex(math.nan, 0.0))

    def test_overflow_is_an_explicit_error(self):
        # inside the validated square but |erf| ~ e^{1600} is unrepresentable
        with pytest.raises(RangeOverflowError):
            erf_complex(40.0j)


class TestErfcReal:
    def test_values(self):
        assert erfc_real(0.0) == 1.0
        assert erfc_real(1.0) == pytest.approx(ERFC_1, rel=1e-14)

    def test_reflection(self):
        x = 0.7
        assert erfc_real(-x) == pytest.approx(2.0 - erfc_real(x), abs=1e-15)

    def test_complement(self):
        for x in (-3.0, -0.4, 0.0, 0.9, 4.2):
            assert erfc_real(x) + erf_complex(x).real == pytest.approx(1.0, abs=1e-13)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            erfc_real(math.inf)


class TestDawson:
    def test_values(self):
        assert dawson(0.0) == 0.0
        assert dawson(0.5) == pytest.approx(DAWSON_HALF, rel=1e-14)

    def test_odd(self):
        assert dawson(-0.5) == -dawson(0.5)

    def test_cross_check_against_scaled_erfi(self):
        # (2/sqrt(pi)) D(y) = e^{-y^2} erfi(y)
        got = 2.0 / math.sqrt(math.pi) * dawson(1.3)
        assert got == pytest.approx(DAWSON_CROSS_13, rel=1e-13)

    def test_large_argument_no_overflow(self):
        # asymptotically D(y) ~ 1/2y; stays finite where e^{y^2} would not
        assert dawson(1e4) == pytest.approx(0.5e-4, rel=1e-6)


class TestScaledErfProduct:
    def test_reduces_to_erf_at_alpha_zero(self):
        assert scaled_erf_product(0.0, 1.0) == pytest.approx(ERF_1, rel=1e-13)

    def test_huge_suppressed_product(self):
        got = scaled_erf_product(25.0, 5.0j)
        assert got.real == pytest.approx(0.0, abs=1e-15)
        assert got.imag == pytest.approx(SCALED_25_5I.imag, rel=1e-12)

    def test_moderate_point(self):
        got = scaled_erf_product(4.0, 2.0 + 2.0j)
        assert got.real == pytest.approx(SCALED_4_2_2I.real, rel=1e-12)
        assert got.imag == pytest.approx(SCALED_4_2_2I.imag, rel=1e-12)

    def test_conjugation_symmetry(self):
        z = 2.0 + 2.0j
        assert scaled_erf_product(4.0, z.conjugate()) == scaled_erf_product(
            4.0, z
        ).conjugate()

    def test_rejects_negative_alpha(self):
        with pytest.raises(DomainError):
            scaled_erf_product(-1.0, 1.0)

    def test_overflowing_product_is_an_error(self):
        # alpha too small to tame e^{y^2 - x^2}
        with pytest.raises(RangeOverflowError):
            scaled_erf_product(0.0, 30.0j)


class TestPhaseScaledErf:
    def test_matches_direct_product_at_moderate_arguments(self):
        for x, y in [(1.0, 0.5), (-1.0, 0.5), (0.0, 2.0), (2.5, 1.3), (-0.3, 3.0)]:
            direct = (
                cmath.exp(complex(-y * y, 2.0 * x * y)) * erf_complex(complex(x, y))
            )
            got = phase_scaled_erf(x, y)
            assert got == pytest.approx(direct, rel=1e-12)

    def test_huge_imaginary_part(self):
        got = phase_scaled_erf(0.3, 30.0)
        assert got.real == pytest.approx(PSE_03_30.real, rel=1e-12)
        assert got.imag == pytest.approx(PSE_03_30.imag, rel=1e-12)

    def test_negative_y_by_conjugation(self):
        assert phase_scaled_erf(0.7, -2.0) == phase_scaled_erf(0.7, 2.0).conjugate()

    def test_finite_at_extreme_separations(self):
        for y in (1e2, 1e4, 1e8):
            val = phase_scaled_erf(1.0, y)
            assert cmath.isfinite(val)
            # dominated by the Dawson-type tail ~ 1/(sqrt(pi) y)
            assert abs(val) < 1.0 / y


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-6, 6, allow_nan=False),
    st.floats(-6, 6, allow_nan=False),
)
def test_erf_odd_and_conjugation_symmetry(x, y):
    z = complex(x, y)
    val = erf_complex(z)
    assert erf_complex(-z) == -val
    assert erf_complex(z.conjugate()) == val.conjugate()


@settings(max_examples=200, deadline=None)
@given(st.floats(-30, 30, allow_nan=False))
def test_erf_erfc_complement_property(x):
    assert erfc_real(x) + erf_complex(complex(x, 0.0)).real == pytest.approx(
        1.0, abs=1e-13
    )


@settings(max_examples=200, deadline=None)
@given(st.floats(-8, 8, allow_nan=False))
def test_dawson_odd_property(y):
    assert dawson(-y) == -dawson(y)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0, 100, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
)
def test_scaled_product_consistent_with_erf(alpha, x, y):
    z = complex(x, y)
    scaled = scaled_erf_product(alpha, z)
    direct = math.exp(-alpha) * erf_complex(z)
    assert scaled == pytest.approx(direct, rel=1e-10, abs=1e-300)


def test_symmetries_on_random_grid():
    """Pointwise symmetry identities on 1000 random points of the domain."""
    rng = np.random.default_rng(20260810)
    points = sample_validated_domain(rng, 1000)
    for z in points:
        z = complex(z)
        val = erf_complex(z)
        assert cmath.isfinite(val)
        neg = erf_complex(-z)
        conj = erf_complex(z.conjugate())
        scale = max(1.0, abs(val))
        assert abs(neg + val) <= 1e-12 * scale
        assert abs(conj - val.conjugate()) <= 1e-12 * scale
        if z.imag == 0.0:
            assert abs(val.real + erfc_real(z.real) - 1.0) <= 1e-13


def test_no_nonfinite_escapes_validated_domain():
    """Operations either return finite values or raise the documented errors."""
    rng = np.random.default_rng(7)
    for _ in range(500):
        z = complex(*rng.uniform(-VALIDATED_BOUND, VALIDATED_BOUND, 2))
        try:
            val = erf_complex(z)
        except RangeOverflowError:
            assert not _erf_representable(z)
            continue
        assert cmath.isfinite(val)
    for _ in range(500):
        x = float(rng.uniform(-VALIDATED_BOUND, VALIDATED_BOUND))
        assert math.isfinite(erfc_real(x))
        assert math.isfinite(dawson(x))
        alpha = float(rng.uniform(0.0, 200.0))
        y = float(rng.uniform(-VALIDATED_BOUND, VALIDATED_BOUND))
        zz = complex(x, y)
        if alpha >= y * y - x * x:  # product representable
            assert cmath.isfinite(scaled_erf_product(alpha, zz))
