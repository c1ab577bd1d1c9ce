"""Special-function accuracy against frozen high-precision values, plus
structural properties (gap-sign reflection, complement identity, overflow
safety).

The package's own kernel is the exchange bracket ``_exchange_bracket``,
B(x, y) = e^{-y^2} Im[e^{2ixy} erf(x+iy)] - e^{-y^2} sin(2xy) for y >= 0:
on the line y = 0 it vanishes, on x = 0 it is e^{-y^2} erfi(y)
= (2/sqrt(pi)) D(y), and erf(-conj z) = -conj erf(z) gives the reflection
B(-x, y) = B(x, y) + 2 e^{-y^2} sin(2xy).  The real functions ``erfc`` and
``dawsn`` that the element kernels call come from SciPy and are checked
where they meet it.  The kernels import scipy.special at their first call;
a fresh interpreter checks that this first call gives the same bits.
Frozen constants were generated offline with mpmath at 40 significant
digits.
"""

import cmath
import contextlib
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import udwpair
from udwpair.elements import _exchange_bracket

ERF_1 = 0.84270079294971486934
ERFC_1 = 0.15729920705028513066
DAWSON_HALF = 0.42443638350202229593
B_0_HALF = 0.47892517290104347254  # e^{-1/4} erfi(1/2)
B_1_HALF = 0.046795151831904502107
B_M1_HALF = 1.3574716756324165596
SCALED_25_5I = 0.11524596183093658848  # e^{-25} erfi(5)
B_2_2 = 0.0024026403276408480534
B_M2_2 = 0.038644097081130994669
B_03_30 = 0.01719552214990539984  # the same for x = -0.3
DAWSON_CROSS_13 = 0.54545568804272640526  # e^{-1.69} erfi(1.3)


def bracket(x: float, y: float) -> float:
    """_exchange_bracket on one-element arrays."""
    return float(_exchange_bracket(np.array([x]), np.array([y]))[0])


def reflection(x, y):
    """B(-x, y) - B(x, y) = 2 e^{-y^2} sin(2xy)."""
    return 2.0 * np.exp(-y * y) * np.sin(2.0 * x * y)


class TestErfComplex:
    """The bracket on the axes and at a generic point, both gap signs."""

    def test_origin(self):
        assert bracket(0.0, 0.0) == 0.0

    def test_real_axis(self):
        # erf is real there
        for x in (-3.0, -1.0, 0.5, 1.0, 9.0):
            assert bracket(x, 0.0) == 0.0

    def test_imaginary_axis(self):
        assert bracket(0.0, 0.5) == pytest.approx(B_0_HALF, rel=1e-13)

    def test_generic_complex_point(self):
        assert bracket(1.0, 0.5) == pytest.approx(B_1_HALF, rel=1e-13)
        assert bracket(-1.0, 0.5) == pytest.approx(B_M1_HALF, rel=1e-13)


class TestErfcReal:
    """SciPy's erfc, which the self term uses for negative gaps."""

    def test_values(self):
        assert sp.erfc(0.0) == 1.0
        assert sp.erfc(1.0) == pytest.approx(ERFC_1, rel=1e-14)

    def test_reflection(self):
        x = 0.7
        assert sp.erfc(-x) == pytest.approx(2.0 - sp.erfc(x), abs=1e-15)

    def test_complement(self):
        assert sp.erf(1.0) == pytest.approx(ERF_1, rel=1e-14)
        for x in (-3.0, -0.4, 0.0, 0.9, 4.2):
            assert sp.erfc(x) + sp.erf(x) == pytest.approx(1.0, abs=1e-13)


class TestDawson:
    """SciPy's dawsn, which the nonlocal term uses, and the bracket's
    imaginary axis e^{-y^2} erfi(y) = (2/sqrt(pi)) D(y)."""

    def test_values(self):
        assert sp.dawsn(0.0) == 0.0
        assert sp.dawsn(0.5) == pytest.approx(DAWSON_HALF, rel=1e-14)

    def test_odd(self):
        assert sp.dawsn(-0.5) == -sp.dawsn(0.5)

    def test_cross_check_against_scaled_erfi(self):
        got = 2.0 / math.sqrt(math.pi) * sp.dawsn(1.3)
        assert got == pytest.approx(DAWSON_CROSS_13, rel=1e-13)
        assert bracket(0.0, 1.3) == pytest.approx(DAWSON_CROSS_13, rel=1e-13)

    def test_large_argument_no_overflow(self):
        # asymptotically D(y) ~ 1/2y; stays finite where e^{y^2} would not
        assert sp.dawsn(1e4) == pytest.approx(0.5e-4, rel=1e-6)
        assert math.sqrt(math.pi) / 2.0 * bracket(0.0, 1e4) == pytest.approx(
            0.5e-4, rel=1e-6
        )


class TestScaledErfProduct:
    """e^{-y^2} erf(x + iy) where erf(x + iy) alone is far from it."""

    def test_reduces_to_erf_at_alpha_zero(self):
        # B(x, y) / 8 sqrt(pi) y -> (e^{-x^2} - sqrt(pi) x erfc(x)) / 4 pi,
        # the self term (c -> a as r -> 0), at y^2 = 1e-16
        y = 1e-8
        want = (math.exp(-1.0) + math.sqrt(math.pi) * (2.0 - ERFC_1)) / (4.0 * math.pi)
        got = bracket(-1.0, y) / (8.0 * math.sqrt(math.pi) * y)
        assert got == pytest.approx(want, rel=1e-13)

    def test_huge_suppressed_product(self):
        assert bracket(0.0, 5.0) == pytest.approx(SCALED_25_5I, rel=1e-12)

    def test_moderate_point(self):
        assert bracket(2.0, 2.0) == pytest.approx(B_2_2, rel=1e-12)
        assert bracket(-2.0, 2.0) == pytest.approx(B_M2_2, rel=1e-12)

    def test_conjugation_symmetry(self):
        got = bracket(-2.0, 2.0) - bracket(2.0, 2.0)
        assert got == pytest.approx(reflection(2.0, 2.0), rel=1e-13)


class TestPhaseScaledErf:
    def test_matches_direct_product_at_moderate_arguments(self):
        for x, y in [(1.0, 0.5), (-1.0, 0.5), (0.0, 2.0), (2.5, 1.3), (-0.3, 3.0)]:
            phase = cmath.exp(complex(-y * y, 2.0 * x * y))
            direct = (phase * complex(sp.erf(complex(x, y)))).imag - phase.imag
            assert bracket(x, y) == pytest.approx(direct, rel=1e-12, abs=1e-15)

    def test_huge_imaginary_part(self):
        assert bracket(0.3, 30.0) == pytest.approx(B_03_30, rel=1e-12)
        assert bracket(-0.3, 30.0) == pytest.approx(B_03_30, rel=1e-12)

    def test_negative_y_by_conjugation(self):
        got = bracket(-0.7, 2.0) - bracket(0.7, 2.0)
        assert got == pytest.approx(reflection(0.7, 2.0), rel=1e-13)

    def test_finite_at_extreme_separations(self):
        for x in (1.0, -1.0):
            for y in (1e2, 1e4, 1e8):
                val = bracket(x, y)
                assert math.isfinite(val)
                # dominated by the Dawson-type tail ~ 1/(sqrt(pi) y)
                assert abs(val) < 1.0 / y


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-6, 6, allow_nan=False),
    st.floats(0, 6, allow_nan=False),
)
def test_erf_odd_and_conjugation_symmetry(x, y):
    got = bracket(-x, y) - bracket(x, y)
    assert got == pytest.approx(reflection(x, y), abs=1e-13)


@settings(max_examples=200, deadline=None)
@given(st.floats(-30, 30, allow_nan=False))
def test_erf_erfc_complement_property(x):
    assert sp.erfc(x) + sp.erf(x) == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=200, deadline=None)
@given(st.floats(-8, 8, allow_nan=False))
def test_dawson_odd_property(y):
    assert sp.dawsn(-y) == -sp.dawsn(y)


def test_symmetries_on_random_grid():
    """The reflection identity on 1000 random points of |x|, y <= 50, most
    of them where erf(x + iy) itself overflows, the vanishing on the real
    axis, and the complement identity on 1000 points of the real axis."""
    rng = np.random.default_rng(20260810)
    x = rng.uniform(-50.0, 50.0, size=1000)
    y = rng.uniform(0.0, 50.0, size=1000)
    val = _exchange_bracket(x, y)
    assert np.all(np.isfinite(val))
    scale = np.maximum(1.0, np.abs(val))
    assert np.all(np.abs(_exchange_bracket(-x, y) - val - reflection(x, y)) <= 1e-12 * scale)
    assert np.all(_exchange_bracket(x, np.zeros_like(x)) == 0.0)
    assert np.all(np.abs(sp.erf(x) + sp.erfc(x) - 1.0) <= 1e-13)


def test_no_nonfinite_escapes_validated_domain():
    """The bracket and the real functions the elements call stay finite on
    |x|, y <= 50 and far beyond it."""
    rng = np.random.default_rng(7)
    for bound in (50.0, 1e4, 1e150):
        x = rng.uniform(-bound, bound, 500)
        y = rng.uniform(0.0, bound, 500)
        assert np.all(np.isfinite(_exchange_bracket(x, y)))
    x = rng.uniform(-50.0, 50.0, 500)
    assert np.all(np.isfinite(sp.erfc(x)))
    assert np.all(np.isfinite(sp.erfcx(np.abs(x))))
    assert np.all(np.isfinite(sp.dawsn(x)))


#: elements_for at points that reach every scipy.special kernel: the self
#: term at Omega sigma >= 0 (erfcx) and < 0 (erfc), the exchange bracket
#: outside (wofz) and inside (erfcx series) the series region, the nonlocal
#: term (dawsn), and a cylinder image sum; prints float.hex of a, b, x, c.
ELEMENT_HEX = """
import warnings
from udwpair import DetectorParams, Topology, WorldlinePair, TruncationWarning, elements_for
warnings.simplefilter("ignore", TruncationWarning)
for omega, l, topology in (
    (0.5, 1.0, Topology.minkowski()),
    (-2.0, 1.0, Topology.minkowski()),
    (0.5, 0.4, Topology.minkowski()),
    (0.5, 1.0, Topology.cylinder(1.5)),
):
    pair = WorldlinePair((0.0, 0.0), (l, 0.0))
    s = elements_for(DetectorParams(omega, 1.0, 0.01), pair, topology)
    print(*map(float.hex, (s.a, s.b, s.x.real, s.x.imag, s.c.real, s.c.imag)))
"""


def test_first_evaluation_imports_scipy_special_bit_for_bit():
    # the kernels import scipy.special at their first call; this process
    # imported it above, so only a fresh interpreter takes that path
    src = str(Path(udwpair.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, udwpair\n"
        "print('scipy.special' in sys.modules)\n"
        f"{ELEMENT_HEX}\n"
        "print('scipy.special' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    lines = result.stdout.splitlines()
    assert lines[0] == "False" and lines[-1] == "True"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        exec(ELEMENT_HEX, {})
    assert lines[1:-1] == out.getvalue().splitlines()
