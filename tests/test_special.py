"""Special-function accuracy against frozen high-precision values and
40-digit mpmath, plus structural properties (gap-sign reflection,
complement identity, overflow safety, batch independence).

The package's special functions are one kernel, ``_faddeeva``, Weideman's
rational approximation of the Faddeeva function w(z) = e^{-z^2} erfc(-iz)
in the upper half-plane.  The exchange bracket ``_exchange_bracket``,
B(x, y) = e^{-y^2} Im[e^{2ixy} erf(x+iy)] - e^{-y^2} sin(2xy) for y >= 0,
takes Im w: on the line y = 0 it vanishes, on x = 0 it is
e^{-y^2} erfi(y) = (2/sqrt(pi)) D(y), and erf(-conj z) = -conj erf(z)
gives the reflection B(-x, y) = B(x, y) + 2 e^{-y^2} sin(2xy).  The real
functions the element kernels use come from the same kernel: erfcx(y) =
Re w(iy), erfc(y) = 2 - e^{-y^2} erfcx(-y) for y < 0, and Dawson's
integral D(x) = (sqrt(pi)/2) Im w(x); SciPy serves as an independent
reference where it is checked against them.  A fresh interpreter checks
that the first evaluation gives the same bits and loads no SciPy.  Frozen
constants were generated offline with mpmath at 40 significant digits.
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

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import udwpair
from udwpair.elements import (
    _FADDEEVA_BLOCK,
    _WEIDEMAN_COEFFS,
    _WEIDEMAN_L,
    _erfcx,
    _exchange_bracket,
    _faddeeva,
    _gap_envelope,
    exchange_array,
    nonlocal_array,
    self_excitation_array,
)

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


def erfc(x):
    """erfc from the package's kernel: e^{-x^2} erfcx(|x|), and 2 minus
    that for x < 0, as the self term forms it."""
    x = np.asarray(x, dtype=float)
    scaled = _gap_envelope(x) * _erfcx(np.abs(x))
    return np.where(x < 0.0, 2.0 - scaled, scaled)


def dawson(x):
    """Dawson's integral from the package's kernel: (sqrt(pi)/2) Im w(x)."""
    return math.sqrt(math.pi) / 2.0 * _faddeeva(x, 0.0)[1]


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
    """The kernel's erfc, which the self term uses for negative gaps."""

    def test_values(self):
        assert erfc(0.0) == 1.0
        assert erfc(1.0) == pytest.approx(ERFC_1, rel=1e-14)

    def test_reflection(self):
        x = 0.7
        assert erfc(-x) == pytest.approx(2.0 - erfc(x), abs=1e-15)

    def test_complement(self):
        assert 1.0 - erfc(1.0) == pytest.approx(ERF_1, rel=1e-14)
        for x in (-3.0, -0.4, 0.0, 0.9, 4.2):
            assert erfc(x) + sp.erf(x) == pytest.approx(1.0, abs=1e-13)


class TestDawson:
    """The kernel's Dawson integral, which the nonlocal term uses, and the
    bracket's imaginary axis e^{-y^2} erfi(y) = (2/sqrt(pi)) D(y)."""

    def test_values(self):
        assert dawson(0.0) == 0.0
        assert dawson(0.5) == pytest.approx(DAWSON_HALF, rel=1e-14)

    def test_odd(self):
        assert dawson(-0.5) == -dawson(0.5)

    def test_cross_check_against_scaled_erfi(self):
        got = 2.0 / math.sqrt(math.pi) * dawson(1.3)
        assert got == pytest.approx(DAWSON_CROSS_13, rel=1e-13)
        assert bracket(0.0, 1.3) == pytest.approx(DAWSON_CROSS_13, rel=1e-13)

    def test_large_argument_no_overflow(self):
        # asymptotically D(y) ~ 1/2y; stays finite where e^{y^2} would not
        assert dawson(1e4) == pytest.approx(0.5e-4, rel=1e-6)
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
    assert erfc(x) + sp.erf(x) == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=200, deadline=None)
@given(st.floats(-8, 8, allow_nan=False))
def test_dawson_odd_property(y):
    assert dawson(-y) == -dawson(y)


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
    assert np.all(np.abs(sp.erf(x) + erfc(x) - 1.0) <= 1e-13)


def test_no_nonfinite_escapes_validated_domain():
    """The bracket and the kernel's real functions stay finite on
    |x|, y <= 50 and far beyond it."""
    rng = np.random.default_rng(7)
    for bound in (50.0, 1e4, 1e150):
        x = rng.uniform(-bound, bound, 500)
        y = rng.uniform(0.0, bound, 500)
        assert np.all(np.isfinite(_exchange_bracket(x, y)))
    x = rng.uniform(-50.0, 50.0, 500)
    assert np.all(np.isfinite(erfc(x)))
    assert np.all(np.isfinite(_erfcx(np.abs(x))))
    assert np.all(np.isfinite(dawson(x)))


#: elements_for at points that reach every use of the kernel: the self
#: term at Omega sigma >= 0 (erfcx) and < 0 (erfc), the exchange bracket
#: (Im w) at two separations, the nonlocal term (Dawson), and a cylinder
#: image sum; prints float.hex of a, b, x, c.
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
    s = elements_for(DetectorParams(omega, 1.0), pair, topology)
    print(*map(float.hex, (s.a, s.b, s.x.real, s.x.imag, s.c.real, s.c.imag)))
"""


def test_first_evaluation_loads_no_scipy_bit_for_bit():
    # a fresh interpreter's first evaluation builds the kernel's tables; it
    # gives the bits of this warm process and loads no scipy module
    src = str(Path(udwpair.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    scipy_modules = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    code = f"import sys, udwpair\n{scipy_modules}{ELEMENT_HEX}\n{scipy_modules}"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    lines = result.stdout.splitlines()
    assert lines[0] == "[]" and lines[-1] == "[]"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        exec(ELEMENT_HEX, {})
    assert lines[1:-1] == out.getvalue().splitlines()


#: significant digits of the mpmath references below
DIGITS = 40


def _mp_w(x: float, y: float, extra: int = 0):
    """w(x + iy) at DIGITS + ``extra`` significant digits."""
    with mp.workdps(DIGITS + extra):
        z = mp.mpc(x, y)
        return mp.exp(-z * z) * mp.erfc(-1j * z)


def _mp_dawson(x: float):
    """D(x) at DIGITS digits; from 1e4 on by its asymptotic series
    (1/2x) sum_k (2k-1)!!/(2x^2)^k, whose seventh term is below 1e-48."""
    with mp.workdps(DIGITS):
        v = mp.mpf(x)
        if x < 1e4:
            return mp.sqrt(mp.pi) / 2 * mp.exp(-v * v) * mp.erfi(v)
        term, total = 1 / (2 * v), mp.mpf(0)
        for k in range(7):
            total += term
            term *= (2 * k + 1) / (2 * v * v)
        return total


def _rel(got, want) -> float:
    return float(abs(mp.mpf(float(got)) - want) / abs(want))


#: the kernel's bound, relative to 40-digit mpmath, on every domain below
KERNEL_RTOL = 2e-15


class TestFaddeevaKernel:
    """``_faddeeva`` on the domains the element kernels take it, against
    40-digit mpmath: Im w on the exchange term's z = -rho/2 + i|Omega sigma|,
    erfcx = Re w(iy), Dawson's integral D = (sqrt(pi)/2) Im w(x), and
    erfc(y) = 2 - e^{-y^2} erfcx(-y) at y < 0."""

    def test_coefficients_are_weidemans(self):
        # N = 40, M = 2N: a_n = (1/2M) sum_{|k| < M} f(t_k) cos(n theta_k),
        # theta_k = k pi/M, t_k = L tan(theta_k/2), f(t) = e^{-t^2} (L^2 + t^2)
        n_terms, m = 40, 80
        with mp.workdps(DIGITS):
            big_l = mp.sqrt(n_terms / mp.sqrt(2))
            theta = [k * mp.pi / m for k in range(1 - m, m)]
            f = [mp.exp(-t * t) * (big_l**2 + t * t) for t in (big_l * mp.tan(th / 2) for th in theta)]
            want = [
                float(mp.fsum(fk * mp.cos(n * th) for fk, th in zip(f, theta)) / (2 * m))
                for n in range(1, n_terms + 1)
            ]
            assert _WEIDEMAN_L == float(big_l)
        assert list(_WEIDEMAN_COEFFS) == want

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(st.floats(1e-12, 1.0), st.floats(1e-12, 5e7)),
        st.one_of(st.floats(0.0, 30.0), st.floats(0.0, 5e7)),
    )
    def test_im_w_on_the_exchange_domain(self, half, gap):
        # Im w falls to |x|/|z| of |w| near the imaginary axis: the reference
        # carries that many more digits
        got = _faddeeva(-half, gap)[1]
        extra = max(0, math.ceil(math.log10(max(1.0, math.hypot(half, gap)) / half)))
        assert _rel(got, _mp_w(-half, gap, extra).imag) <= KERNEL_RTOL

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.0, 8.0))
    def test_erfcx(self, y):
        with mp.workdps(DIGITS):
            want = mp.exp(mp.mpf(y) ** 2) * mp.erfc(y)
        assert _rel(_erfcx(y), want) <= KERNEL_RTOL

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.floats(1e-300, 50.0), st.floats(1e-300, 1e300)))
    def test_dawson(self, x):
        assert _rel(dawson(x), _mp_dawson(x)) <= KERNEL_RTOL

    @settings(max_examples=150, deadline=None)
    @given(st.floats(-30.0, 0.0, exclude_max=True))
    def test_erfc_at_negative_arguments(self, y):
        with mp.workdps(DIGITS):
            want = mp.erfc(y)
        assert _rel(erfc(y), want) <= KERNEL_RTOL

    @pytest.mark.parametrize(
        "x, y", [(-5e199, 3.0), (-1e300, 0.0), (1e-300, 0.0), (-1e154, 1.0), (0.0, 1e300),
                 (-1e300, 1e300), (-1.7976931348623157e308, 1.7976931348623157e308)]
    )
    def test_finite_to_the_float_range(self, x, y):
        # w ~ 1 + 2iz/sqrt(pi) for small |z|, ~ i/(sqrt(pi) z) for large
        re, im = _faddeeva(x, y)
        if max(abs(x), abs(y)) < 1.0:
            want = complex(1.0, 2.0 * x / math.sqrt(math.pi))
        else:
            want = 1j / (math.sqrt(math.pi) * complex(x / 2**512, y / 2**512)) / 2**512
        assert re == pytest.approx(want.real, rel=1e-15, abs=1e-320)
        assert im == pytest.approx(want.imag, rel=1e-15, abs=1e-320)

    def test_a_point_has_its_bits_in_any_batch(self):
        # numpy's 0-d complex arithmetic and its in-place complex products
        # round differently from its array loops: a point's value must be
        # that of its batch, for 0-d, one-element and n-element inputs, at
        # the first and the last position of a block
        rng = np.random.default_rng(29)
        n = 2 * _FADDEEVA_BLOCK + 3
        x = np.concatenate([-(10.0 ** rng.uniform(-8.0, 8.0, n - 3)), [0.25, 0.0, -1e300]])
        y = np.concatenate([
            rng.choice([0.0, 1.0], n - 3) * 10.0 ** rng.uniform(-3.0, 8.0, n - 3), [0.0, 5.0, 3.0]
        ])
        re, im = _faddeeva(x, y)
        block = _FADDEEVA_BLOCK
        for i in (0, block - 1, block, 2 * block - 1, 2 * block, n - 3, n - 2, n - 1):
            want = (re[i].hex(), im[i].hex())
            for args, at in (
                ((float(x[i]), float(y[i])), 0),
                ((np.array(x[i]), np.array(y[i])), 0),
                ((x[i : i + 1], y[i : i + 1]), 0),
                ((x[i : i + 7], y[i : i + 7]), 0),  # first in a batch
                ((x[max(0, i - 6) : i + 1], y[max(0, i - 6) : i + 1]), -1),  # last
                ((np.full((2, 3), x[i]), y[i]), -1),  # broadcast
            ):
                got_re, got_im = _faddeeva(*args)
                got = (float(np.ravel(got_re)[at]).hex(), float(np.ravel(got_im)[at]).hex())
                assert got == want, (i, args)
        # and through the element kernels: D(0.25) from a 0-d separation
        half = np.array(0.5)
        assert nonlocal_array(1.0, half) == nonlocal_array(np.ones(n), np.full(n, 0.5))[-1]


class TestGapEnvelope:
    """e^{-y^2} from the split square y^2 = hi + lo: exp of the rounded
    square alone was off by 1.7e-15 at Omega sigma = 5.3, 1.0e-14 at 12.7
    and 1.2e-14 at 23.41 in a and Re x."""

    @pytest.mark.parametrize("gap", [5.3, 12.7, 23.41])
    def test_elements_at_large_gaps(self, gap):
        with mp.workdps(50):
            y, half = mp.mpf(gap), mp.mpf(0.5)  # separation sigma
            a = (mp.exp(-y * y) - mp.sqrt(mp.pi) * y * mp.erfc(y)) / (4 * mp.pi)
            x = mp.exp(-y * y - half * half) * mp.mpc(-mp.erfi(half), 1) / (4 * mp.sqrt(mp.pi))
            c = -mp.im(mp.exp(mp.mpc(-half * half, y)) * mp.erfc(mp.mpc(y, half))) / (
                4 * mp.sqrt(mp.pi)
            )
        gaps, rho = np.array([gap]), np.array([1.0])
        got_x = nonlocal_array(gaps, rho)[0]
        assert _rel(self_excitation_array(gaps)[0], a) <= 5e-16
        assert _rel(got_x.real, x.real) <= 5e-16
        assert _rel(got_x.imag, x.imag) <= 5e-16
        assert _rel(exchange_array(gaps, rho)[0], c) <= 5e-16

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-26.6, 26.6))
    def test_envelope_where_it_is_normal(self, y):
        with mp.workdps(DIGITS):
            want = mp.exp(-mp.mpf(y) ** 2)
        assert _rel(_gap_envelope(y), want) <= 4e-16

    def test_zero_past_its_underflow(self):
        # the split is taken of |y| capped at 64, so it never overflows
        y = np.array([27.3, -30.0, 1e154, 1.3e300, -1.7976931348623157e308, np.inf])
        assert np.all(_gap_envelope(y) == 0.0)
