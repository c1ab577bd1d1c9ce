"""Special-function accuracy against frozen high-precision values, plus
structural properties (odd/conjugation symmetry, complement identity,
overflow safety).

The package's own kernel is ``phase_scaled_erf_array``, e^{-y^2} e^{2ixy}
erf(x+iy): on the line y = 0 it is erf(x), on x = 0 it is e^{-y^2} erf(iy)
= i (2/sqrt(pi)) D(y), and it equals e^{-alpha} erf(z) times a unit phase
for alpha = y^2.  The real functions ``erfc`` and ``dawsn`` that the
element kernels call come from SciPy and are checked where they meet it.
Frozen constants were generated offline with mpmath at 40 significant
digits.
"""

import cmath
import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from udwpair.special import phase_scaled_erf_array

ERF_1 = 0.84270079294971486934
ERFC_1 = 0.15729920705028513066
DAWSON_HALF = 0.42443638350202229593
PSE_0_HALF = 0.47892517290104347254j  # e^{-1/4} erf(i/2)
PSE_1_HALF = complex(0.2768609057263250221, 0.70213341373216053087)
SCALED_25_5I = 0.11524596183093658848j  # e^{-25} erf(5i)
PSE_2_2 = complex(-0.0053747753933509928353, 0.020523368704385921361)
PSE_03_30 = complex(-0.00017214679647883917406, 0.01719552214990539984)
DAWSON_CROSS_13 = 0.54545568804272640526  # e^{-1.69} erfi(1.3)


def pse(x: float, y: float) -> complex:
    """phase_scaled_erf_array on a one-element array."""
    return complex(phase_scaled_erf_array(np.array([x]), np.array([y]))[0])


class TestErfComplex:
    """erf on the axes and at a generic point, through the kernel."""

    def test_origin(self):
        assert pse(0.0, 0.0) == 0.0

    def test_real_axis(self):
        assert pse(1.0, 0.0).real == pytest.approx(ERF_1, rel=1e-13)
        assert pse(1.0, 0.0).imag == 0.0

    def test_imaginary_axis(self):
        val = pse(0.0, 0.5)
        assert val.real == 0.0
        assert val.imag == pytest.approx(PSE_0_HALF.imag, rel=1e-13)

    def test_generic_complex_point(self):
        val = pse(1.0, 0.5)
        assert val.real == pytest.approx(PSE_1_HALF.real, rel=1e-13)
        assert val.imag == pytest.approx(PSE_1_HALF.imag, rel=1e-13)


class TestErfcReal:
    """SciPy's erfc, which the self term uses for negative gaps."""

    def test_values(self):
        assert sp.erfc(0.0) == 1.0
        assert sp.erfc(1.0) == pytest.approx(ERFC_1, rel=1e-14)

    def test_reflection(self):
        x = 0.7
        assert sp.erfc(-x) == pytest.approx(2.0 - sp.erfc(x), abs=1e-15)

    def test_complement(self):
        for x in (-3.0, -0.4, 0.0, 0.9, 4.2):
            assert sp.erfc(x) + pse(x, 0.0).real == pytest.approx(1.0, abs=1e-13)


class TestDawson:
    """SciPy's dawsn, which the nonlocal term uses, and the kernel's
    imaginary axis e^{-y^2} erfi(y) = (2/sqrt(pi)) D(y)."""

    def test_values(self):
        assert sp.dawsn(0.0) == 0.0
        assert sp.dawsn(0.5) == pytest.approx(DAWSON_HALF, rel=1e-14)

    def test_odd(self):
        assert sp.dawsn(-0.5) == -sp.dawsn(0.5)

    def test_cross_check_against_scaled_erfi(self):
        got = 2.0 / math.sqrt(math.pi) * sp.dawsn(1.3)
        assert got == pytest.approx(DAWSON_CROSS_13, rel=1e-13)
        assert pse(0.0, 1.3).imag == pytest.approx(DAWSON_CROSS_13, rel=1e-13)

    def test_large_argument_no_overflow(self):
        # asymptotically D(y) ~ 1/2y; stays finite where e^{y^2} would not
        assert sp.dawsn(1e4) == pytest.approx(0.5e-4, rel=1e-6)
        assert math.sqrt(math.pi) / 2.0 * pse(0.0, 1e4).imag == pytest.approx(
            0.5e-4, rel=1e-6
        )


class TestScaledErfProduct:
    """e^{-y^2} erf(x + iy), the kernel without its unit phase e^{2ixy}."""

    def test_reduces_to_erf_at_alpha_zero(self):
        assert pse(-1.0, 0.0) == pytest.approx(-ERF_1, rel=1e-13)

    def test_huge_suppressed_product(self):
        got = pse(0.0, 5.0)
        assert got.real == pytest.approx(0.0, abs=1e-15)
        assert got.imag == pytest.approx(SCALED_25_5I.imag, rel=1e-12)

    def test_moderate_point(self):
        got = pse(2.0, 2.0)
        assert got.real == pytest.approx(PSE_2_2.real, rel=1e-12)
        assert got.imag == pytest.approx(PSE_2_2.imag, rel=1e-12)

    def test_conjugation_symmetry(self):
        assert pse(2.0, -2.0) == pse(2.0, 2.0).conjugate()


class TestPhaseScaledErf:
    def test_matches_direct_product_at_moderate_arguments(self):
        for x, y in [(1.0, 0.5), (-1.0, 0.5), (0.0, 2.0), (2.5, 1.3), (-0.3, 3.0)]:
            direct = cmath.exp(complex(-y * y, 2.0 * x * y)) * complex(sp.erf(complex(x, y)))
            assert pse(x, y) == pytest.approx(direct, rel=1e-12)

    def test_huge_imaginary_part(self):
        got = pse(0.3, 30.0)
        assert got.real == pytest.approx(PSE_03_30.real, rel=1e-12)
        assert got.imag == pytest.approx(PSE_03_30.imag, rel=1e-12)

    def test_negative_y_by_conjugation(self):
        assert pse(0.7, -2.0) == pse(0.7, 2.0).conjugate()

    def test_finite_at_extreme_separations(self):
        for y in (1e2, 1e4, 1e8):
            val = pse(1.0, y)
            assert cmath.isfinite(val)
            # dominated by the Dawson-type tail ~ 1/(sqrt(pi) y)
            assert abs(val) < 1.0 / y


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-6, 6, allow_nan=False),
    st.floats(-6, 6, allow_nan=False),
)
def test_erf_odd_and_conjugation_symmetry(x, y):
    val = pse(x, y)
    assert pse(-x, -y) == -val
    assert pse(x, -y) == val.conjugate()


@settings(max_examples=200, deadline=None)
@given(st.floats(-30, 30, allow_nan=False))
def test_erf_erfc_complement_property(x):
    assert sp.erfc(x) + pse(x, 0.0).real == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=200, deadline=None)
@given(st.floats(-8, 8, allow_nan=False))
def test_dawson_odd_property(y):
    assert sp.dawsn(-y) == -sp.dawsn(y)


def test_symmetries_on_random_grid():
    """Pointwise symmetry identities on 1000 random points of the square
    |x|, |y| <= 50, most of them where erf(x + iy) itself overflows, and
    the complement identity on 1000 points of the real axis."""
    rng = np.random.default_rng(20260810)
    x, y = rng.uniform(-50.0, 50.0, size=(2, 1000))
    val = phase_scaled_erf_array(x, y)
    assert np.all(np.isfinite(val))
    scale = np.maximum(1.0, np.abs(val))
    assert np.all(np.abs(phase_scaled_erf_array(-x, -y) + val) <= 1e-12 * scale)
    assert np.all(np.abs(phase_scaled_erf_array(x, -y) - np.conj(val)) <= 1e-12 * scale)
    on_axis = phase_scaled_erf_array(x, np.zeros_like(x))
    assert np.all(np.abs(on_axis.real + sp.erfc(x) - 1.0) <= 1e-13)


def test_no_nonfinite_escapes_validated_domain():
    """The kernel and the real functions the elements call stay finite on
    |x|, |y| <= 50 and far beyond it."""
    rng = np.random.default_rng(7)
    for bound in (50.0, 1e4, 1e150):
        x, y = rng.uniform(-bound, bound, size=(2, 500))
        assert np.all(np.isfinite(phase_scaled_erf_array(x, y)))
    x = rng.uniform(-50.0, 50.0, 500)
    assert np.all(np.isfinite(sp.erfc(x)))
    assert np.all(np.isfinite(sp.erfcx(np.abs(x))))
    assert np.all(np.isfinite(sp.dawsn(x)))
