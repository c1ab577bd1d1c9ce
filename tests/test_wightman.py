"""Distributional quadrature: the finite-part and delta rules against test
functions with known closed-form actions, the oracles against frozen values,
refinement stability, and agreement between the two regularizations."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import (
    _hadamard_rows,
    _quad,
    _refined_quad,
    hadamard_double_pole,
    oracle_ieps,
    physical_exchange,
    physical_nonlocal,
    physical_self_term,
    pv_over_pole,
    richardson_zero_limit,
    sgn_delta_square,
)

from udwpair import (
    ConvergenceError,
    DomainError,
    GeometryError,
    InvalidStateError,
    Topology,
    WorldlinePair,
    elements_for,
    oracle_a,
    oracle_c,
    oracle_x,
)
from udwpair.wightman import (
    _SQRT_PI,
    _WINDOW_SIGMAS,
    _pole_row,
    _time_integral,
    _x_envelope,
    oracle_batch,
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


# c, and the time integral that x is the envelope times, one row per call,
# as (real, imag) float.hex: the bits of the pole pairing with cos/sin
# tabulated per signed gap, on x86-64 with numpy 2.4
PINNED_C = {
    (0.5, 0.02): ('0x1.cd55c4f4c0a4fp-6', '0x0.0p+0'),
    (0.5, 0.3): ('0x1.c8e3911fcaaffp-6', '0x0.0p+0'),
    (0.5, 1.3): ('0x1.8258971314f9fp-6', '0x0.0p+0'),
    (0.5, 9.5): ('0x1.6c0ab94ca7d6dp-10', '0x0.0p+0'),
    (0.5, 60.0): ('0x1.20e7988f1e004p-15', '0x0.0p+0'),
    (-0.5, 0.02): ('0x1.5a7f8d23c794ap-3', '0x0.0p+0'),
    (-0.5, 0.3): ('0x1.527dc882d1374p-3', '0x0.0p+0'),
    (-0.5, 1.3): ('0x1.c12103464ffcdp-4', '0x0.0p+0'),
    (-0.5, 9.5): ('0x1.6c0ab937e9d60p-10', '0x0.0p+0'),
    (-0.5, 60.0): ('0x1.20e7988f1e004p-15', '0x0.0p+0'),
    (2.0, 0.02): ('0x1.214af56903716p-13', '0x0.0p+0'),
    (2.0, 0.3): ('0x1.205b707102580p-13', '0x0.0p+0'),
    (2.0, 1.3): ('0x1.1073a1d6caa3dp-13', '0x0.0p+0'),
    (2.0, 9.5): ('0x1.cf7777d805bc2p-16', '0x0.0p+0'),
    (2.0, 60.0): ('0x1.b1082cf0ff483p-21', '0x0.0p+0'),
    (-2.0, 0.02): ('0x1.20d46d50bdfb3p-1', '0x0.0p+0'),
    (-2.0, 0.3): ('0x1.09dd5e1bc1ee7p-1', '0x0.0p+0'),
    (-2.0, 1.3): ('0x1.2cd472cdf4777p-4', '0x0.0p+0'),
    (-2.0, 9.5): ('0x1.cf77789f20146p-16', '0x0.0p+0'),
    (-2.0, 60.0): ('0x1.b1082cf0ff483p-21', '0x0.0p+0'),
    (0.0, 0.02): ('0x1.45ed76d30bfa3p-4', '0x0.0p+0'),
    (0.0, 0.3): ('0x1.411a92fbc6ce6p-4', '0x0.0p+0'),
    (0.0, 1.3): ('0x1.efe47415d6796p-5', '0x0.0p+0'),
    (0.0, 9.5): ('0x1.d94de48592f45p-10', '0x0.0p+0'),
    (0.0, 60.0): ('0x1.73107438f7cbdp-15', '0x0.0p+0'),
    (-0.0, 0.02): ('0x1.45ed76d30bfa3p-4', '0x0.0p+0'),
    (-0.0, 0.3): ('0x1.411a92fbc6ce6p-4', '0x0.0p+0'),
    (-0.0, 1.3): ('0x1.efe47415d6796p-5', '0x0.0p+0'),
    (-0.0, 9.5): ('0x1.d94de48592f45p-10', '0x0.0p+0'),
    (-0.0, 60.0): ('0x1.73107438f7cbdp-15', '0x0.0p+0'),
}
PINNED_X = {
    0.02: ('0x1.6fc518a7d5cb0p-6', '-0x1.fd3eb12ad513ap+0'),
    0.3: ('0x1.6a53ac1280ecdp-6', '-0x1.0994c4d750a83p-3'),
    1.3: ('0x1.17c6febe20c82p-6', '-0x1.48a90c76cfc5ep-6'),
    9.5: ('0x1.0b0888d66c357p-11', '-0x1.76befdbd822e5p-41'),
    60.0: ('0x1.a2b38190f9c9cp-17', '0x0.0p+0'),
}


def _self_term_error(got: float, y: float):
    """|got - a(y)| against the self term's closed form
    (e^{-y^2} - sqrt(pi) y erfc(y))/(4 pi) at 40 digits."""
    with mpmath.workdps(40):
        y = mpmath.mpf(y)
        want = (mpmath.exp(-y * y) - mpmath.sqrt(mpmath.pi) * y * mpmath.erfc(y)) / (4 * mpmath.pi)
        return abs(mpmath.mpf(got) - want)


def _bits(value) -> list[int]:
    """The bit patterns of a real or complex value."""
    return np.array([value], dtype=complex).view(np.uint64).tolist()


def _oracle_batch(gaps, *separations):
    """:func:`oracle_batch` at the points of ``gaps`` and ``separations``
    broadcast, none with an error beforehand: a, x and c of the first
    separation array and the points' errors."""
    shape = np.broadcast_shapes(np.shape(gaps), *(np.shape(r) for r in separations))
    errors = np.full(shape, None, dtype=object)
    a, [(x, c), *_] = oracle_batch(gaps, separations, errors)
    return a, x, c, errors


def _one_row_values(gaps, seps):
    """:func:`oracle_a`, :func:`oracle_x` and :func:`oracle_c` at the
    points (``gaps[i]``, ``seps[i]``), as arrays."""
    return (
        np.array([oracle_a(y) for y in gaps]),
        np.array([oracle_x(y, r) for y, r in zip(gaps, seps)]),
        np.array([oracle_c(y, r) for y, r in zip(gaps, seps)]),
    )


def minkowski(y: float, length: float):
    """elements_for in Minkowski space at separation ``length``."""
    return elements_for(y, WorldlinePair((0.0, 0.0), (length, 0.0)), Topology.minkowski())


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

        coarse = _quad(g, 0.0, 30.0, base_panels=8, target=0.0, max_doublings=1)
        fine = _quad(g, 0.0, 30.0, base_panels=16, target=0.0, max_doublings=1)
        assert abs(coarse - fine) < 1e-9

    def test_nonconvergence_raises(self):
        # integrable but non-smooth at an interior point: panel doubling on a
        # fixed grid cannot reach the tolerance
        def g(u):
            return np.sqrt(np.abs(u - 0.37))

        with pytest.raises(ConvergenceError):
            _quad(g, 0.0, 1.0, base_panels=4, target=1e-15, raise_tol=1e-14, max_doublings=2)

    def test_each_row_stops_at_its_own_level(self):
        # a smooth row (stable after one doubling), a row that needs a second
        # doubling, and the non-smooth row above, in one batch
        rows = [
            lambda u: np.exp(-u * u),
            lambda u: np.cos(350.0 * u),
            lambda u: np.sqrt(np.abs(u - 0.37)),
        ]
        seen = []

        def g(k, u):
            seen.append((k.tolist(), u.size))
            return np.stack([rows[i](u) for i in k.tolist()])

        options = dict(base_panels=4, max_doublings=3)
        values, errors = _refined_quad(g, 3, 0.0, 1.0, **options)
        assert seen == [([0, 1, 2], 128), ([0, 1, 2], 256), ([1, 2], 512), ([2], 1024)]
        for i in (0, 1):
            assert errors[i] is None
            assert values[i] == _quad(rows[i], 0.0, 1.0, **options)
        with pytest.raises(ConvergenceError) as one_row:
            _quad(rows[2], 0.0, 1.0, **options)
        assert isinstance(errors[2], ConvergenceError)
        assert str(errors[2]) == str(one_row.value)
        assert str(errors[2]).startswith("quadrature did not stabilize on [0.0, 1.0]")


    def test_row_slices_leave_values_unchanged(self, monkeypatch):
        # a batch wider than _BATCH_NODES is evaluated a slice of rows at a
        # time; one row per slice gives the same bits, on a batch that mixes
        # separations
        import udwpair.wightman as wightman

        gaps = [-2.0, -0.5, 0.0, 0.7, 3.0, 0.7, -0.5]
        seps = [1.3, 1.3, 0.02, 9.5, 1.3, 0.4, 9.5]
        *whole, whole_errors = _oracle_batch(gaps, seps)
        monkeypatch.setattr(wightman, "_BATCH_NODES", 1)
        *sliced, sliced_errors = _oracle_batch(gaps, seps)
        assert whole_errors.tolist() == sliced_errors.tolist() == [None] * len(gaps)
        for got, want in zip(sliced, whole):
            assert _bits(got) == _bits(want)


class TestPolePairingDots:
    """The pole pairing takes P and Q of each row as dot products of a gap
    table row and a separation table row: on broadcast views for a product
    grid, on gathered rows for a scattered batch."""

    # three panel counts of the pairing grid (18, 22 and 34)
    SEPS = [0.025, 1.625, 11.875, 50.0]

    @staticmethod
    def _record(monkeypatch):
        """Per ``np.vecdot`` call of the pole pairing its table rank and
        number of dots, and per pass of the pole pairing the rows it
        evaluates (the self terms' pass is not counted)."""
        import udwpair.wightman as wightman

        calls, rows, pairing = [], [], []
        vecdot, refine = np.vecdot, wightman._refine
        within_budget = wightman._pole_pairing_within_budget

        def counting_vecdot(x1, x2):
            out = vecdot(x1, x2)
            if pairing:
                calls.append((x1.ndim, out.size))
            return out

        def counting_refine(sums, intervals, **options):
            def counted(k, level):
                if pairing:
                    rows.append(k.size)
                return sums(k, level)

            return refine(counted, intervals, **options)

        def marked(*args):
            pairing.append(True)
            try:
                return within_budget(*args)
            finally:
                pairing.pop()

        monkeypatch.setattr(np, "vecdot", counting_vecdot)
        monkeypatch.setattr(wightman, "_refine", counting_refine)
        monkeypatch.setattr(wightman, "_pole_pairing_within_budget", marked)
        return calls, rows

    def test_product_grid_equals_one_row_calls_bit_for_bit(self, monkeypatch):
        # both zeros: the x rows (gap 0) complete the product grid
        gaps = np.array([-2.0, -0.5, 0.0, -0.0, 0.7, 3.0])
        grid_gaps, grid_seps = (v.ravel() for v in np.meshgrid(gaps, self.SEPS, indexing="ij"))
        want = _one_row_values(grid_gaps.tolist(), grid_seps.tolist())
        calls, _ = self._record(monkeypatch)
        *got, errors = _oracle_batch(gaps[:, None], self.SEPS)
        assert errors.tolist() == [[None] * len(self.SEPS)] * gaps.size
        for got_v, want_v in zip(got, want):
            assert _bits(got_v.ravel()) == _bits(want_v)
        # the dense branch: every dot of a product grid on broadcast views
        assert calls and all(ndim == 3 for ndim, _ in calls)

    def test_scattered_batch_equals_one_row_calls_bit_for_bit(self, monkeypatch):
        # distinct gaps and separations: no two c rows share either, and
        # each separation's x row is at gap 0
        rng = np.random.default_rng(7)
        gaps = rng.permutation(np.linspace(-3.0, 3.0, 12)).tolist()
        seps = np.geomspace(0.01, 40.0, 12).tolist()
        want = _one_row_values(gaps, seps)
        calls, rows = self._record(monkeypatch)
        *got, errors = _oracle_batch(gaps, seps)
        assert errors.tolist() == [None] * len(gaps)
        for got_v, want_v in zip(got, want):
            assert _bits(got_v) == _bits(want_v)
        # the gathered branch: two dots (P and Q) per row and level, not a
        # dot for every gap x separation
        assert calls and all(ndim == 2 for ndim, _ in calls)
        assert sum(dots for _, dots in calls) == 2 * sum(rows)

    def test_small_tables_leave_values_unchanged(self, monkeypatch):
        # narrower gap, separation and row slices mix the two branches
        import udwpair.wightman as wightman

        rng = np.random.default_rng(11)
        gaps = rng.choice([-1.5, 0.0, 0.4, 2.0, 3.1, -0.8], 20).tolist()
        seps = rng.choice(self.SEPS + [0.3, 5.0], 20).tolist()
        *whole, whole_errors = _oracle_batch(gaps, seps)
        # 5120 nodes: slices that run both branches on this batch, which
        # takes only the dense one whole
        monkeypatch.setattr(wightman, "_BATCH_NODES", 5120)
        calls, _ = self._record(monkeypatch)
        *sliced, sliced_errors = _oracle_batch(gaps, seps)
        assert whole_errors.tolist() == sliced_errors.tolist() == [None] * len(gaps)
        for got, want in zip(sliced, whole):
            assert _bits(got) == _bits(want)
        assert {ndim for ndim, _ in calls} == {2, 3}


class TestOneQuadraturePass:
    """The x and c integrals of any rows share one pole pairing, which
    integrates each (|y|, r) once; the self term is integrated in real
    arithmetic."""

    @staticmethod
    def _hex(value) -> tuple[str, str]:
        return value.real.hex(), value.imag.hex()

    def test_pinned_bits(self):
        # mirrored gaps, both zeros and separations from 0.02 to 60 in one
        # batch keep the bits of one row per call with per-gap tables; the
        # x of the points at gap 0 is the envelope there times the time
        # integral
        gaps, seps = (list(v) for v in zip(*PINNED_C))
        gaps += [0.0] * len(PINNED_X)
        seps += list(PINNED_X)
        _, x, c, errors = _oracle_batch(gaps, seps)
        assert errors.tolist() == [None] * len(gaps)
        assert [self._hex(v) for v in c[:len(PINNED_C)].tolist()] == list(PINNED_C.values())
        quad = np.array([complex(*map(float.fromhex, v)) for v in PINNED_X.values()])
        assert _bits(x[len(PINNED_C):]) == _bits(_x_envelope(0.0) * quad)

    def test_two_separation_arrays_equal_one_row_calls_bit_for_bit(self):
        # x rows are the pole pairing's rows at gap +0.0: c rows at gap
        # +-0.0 and the same separations share them
        gaps = [0.0, -0.0, 1.5, -1.5, 0.0, 2.0]
        seps = [1.3, 1.3, 1.3, 1.3, 4.0, 0.02]
        xs = [1.3, 4.0, 9.5, 9.5, 4.0, 1.3]
        errors = np.full(6, None, dtype=object)
        a, [(x, c), (x_more, c_more)] = oracle_batch(gaps, [seps, xs], errors)
        assert errors.tolist() == [None] * 6
        for r, x_r, c_r in ((seps, x, c), (xs, x_more, c_more)):
            want_a, want_x, want_c = _one_row_values(gaps, r)
            assert _bits(a) == _bits(want_a)
            assert _bits(x_r) == _bits(want_x) and _bits(c_r) == _bits(want_c)

    def test_mirrored_gaps_share_one_row(self, monkeypatch):
        import udwpair.wightman as wightman

        rows = []
        refine = wightman._refine

        def counting_refine(sums, intervals, **options):
            rows.append(len(intervals))
            return refine(sums, intervals, **options)

        monkeypatch.setattr(wightman, "_refine", counting_refine)
        gaps = np.array([-1.0, 1.0, -0.0, 0.0, 2.5] * 2)
        errors = np.full(10, None, dtype=object)
        _, [(x, c)] = oracle_batch(gaps, [[0.7] * 5 + [3.0] * 5], errors)
        # |y| in {0, 1, 2.5} for the self terms, then (|y|, r) in
        # {0, 1, 2.5} x {0.7, 3}; the x rows are those at |y| = 0
        assert rows == [3, 3 * 2]
        assert _bits(c[0]) == _bits(oracle_c(-1.0, 0.7))
        want_x = [oracle_x(0.0, r) for r in (0.7, 3.0)]
        assert _bits(x[[3, 8]]) == _bits(np.array(want_x))

    def test_self_term_matches_complex_hadamard_form(self):
        # the real sin^2/expm1 pairing against the complex finite part of
        # e^{-u^2/4 - i y u} with the f'(0) rule, on the equal-panel grid:
        # that form cancels at small s and is off by up to 1.30e-14 against
        # 40 digits here, the package by at most 5.8e-16
        y = np.concatenate([np.linspace(-6.0, 6.0, 1201), [-0.0]])
        phase = 1j * y[:, None]

        def f(k, u):
            return np.exp(-u * u / 4.0 - phase[k] * u)

        had, had_errors = _hadamard_rows(
            f, y.size, span=_WINDOW_SIGMAS, f00=1.0, target=1e-12, raise_tol=1e-8
        )
        want = [
            (_SQRT_PI * ((-1j * w) / (4.0j * math.pi) - h / (4.0 * math.pi**2))).real
            for w, h in zip(y.tolist(), had)
        ]
        got, _, _, errors = _oracle_batch(y, 1.0)
        assert errors.tolist() == had_errors == [None] * y.size
        assert np.max(np.abs(got - np.array(want))) <= 1.5e-14
        assert max(_self_term_error(g, v) for g, v in zip(got.tolist(), y.tolist())) <= 1e-15

    @pytest.mark.parametrize("y", [-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0])
    def test_self_term_against_40_digits(self, y):
        # (e^{-y^2} - sqrt(pi) y erfc(y))/(4 pi); the cos form of the
        # pairing was off by 1.17e-14 at y = +-2
        got = oracle_a(y)
        assert _self_term_error(got, y) <= 1e-16

    def test_self_term_on_the_pole_pairing_grid(self, monkeypatch):
        # the pairing grid at r = 0, ceil(24/3) = 8 panels of 3/2^level,
        # doubled by the refinement the pole pairing uses
        import udwpair.wightman as wightman

        grids, intervals = [], []
        pairing_grid, refine = wightman._pairing_grid, wightman._refine

        def recording_grid(width, panels):
            grids.append((width, panels))
            return pairing_grid(width, panels)

        def recording_refine(sums, rows, **options):
            intervals.extend(rows)
            return refine(sums, rows, **options)

        monkeypatch.setattr(wightman, "_pairing_grid", recording_grid)
        monkeypatch.setattr(wightman, "_refine", recording_refine)
        oracle_a(0.5)
        assert intervals == [(0.0, 24.0)]
        assert grids[:2] == [(3.0, 8), (1.5, 16)]

    def test_the_window_loses_nothing(self, monkeypatch):
        # past _WINDOW_SIGMAS the window is below 2^-200 of its peak: the
        # x and c rows are those of the 52 sigma window bit for bit, the
        # self term (whose -2/s^2 tail the window cuts off and adds back
        # analytically) agrees to rounding
        import udwpair.wightman as wightman

        assert math.exp(-(_WINDOW_SIGMAS**2) / 4.0) < 2.0**-200
        gaps, mags = np.linspace(-6.0, 6.0, 25), np.linspace(-6.0, 6.0, 1201)
        seps = np.geomspace(0.01, 1500.0, 16)

        def oracle():
            _, x, c, errors = _oracle_batch(gaps[:, None], seps)
            a, _, _, a_errors = _oracle_batch(mags, 1.0)
            assert not errors.any() and not a_errors.any()
            return c, x, a

        c, x, a = oracle()
        monkeypatch.setattr(wightman, "_WINDOW_SIGMAS", 52.0)
        # the 52 sigma window's budget covers separations up to 1484 sigma
        monkeypatch.setattr(wightman, "ORACLE_NODE_BUDGET", 2 * wightman.ORACLE_NODE_BUDGET)
        wide_c, wide_x, wide_a = oracle()
        assert _bits(c) == _bits(wide_c) and _bits(x) == _bits(wide_x)
        assert np.max(np.abs(a - wide_a)) <= 1e-15


class TestOracleValues:
    def test_self_term_forced_value(self):
        y = 0.0
        assert oracle_a(y) == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-12)

    def test_self_term_frozen_value(self):
        y = 1.0
        assert oracle_a(y) == pytest.approx(A_OMEGA_1, abs=1e-12)

    def test_x_frozen_value(self):
        y = 1.0
        got = oracle_x(y, 1.0)
        assert got.real == pytest.approx(X_L1_O1.real, abs=1e-10)
        assert got.imag == pytest.approx(X_L1_O1.imag, abs=1e-10)
        assert abs(got) == pytest.approx(0.047440335103833298, abs=1e-10)

    def test_c_frozen_value_and_realness(self):
        y = 1.0
        got = oracle_c(y, 1.0)
        assert got.real == pytest.approx(C_L1_O1, abs=1e-10)
        assert abs(got.imag) < 1e-12

    @staticmethod
    def _two_pole_form(y, rho):
        """c with both poles quadratured explicitly by pv_over_pole."""

        def f(u):
            return np.exp(-u * u / 4.0 - 1j * y * u)

        span = rho + _WINDOW_SIGMAS
        fr = complex(f(np.array([rho]))[0])
        fmr = complex(f(np.array([-rho]))[0])
        delta_part = (fr - fmr) / (2.0 * rho) / (4.0j * math.pi)
        pv_plus = pv_over_pole(f, rho, span=span)
        pv_minus = pv_over_pole(f, -rho, span=span)
        pv_part = -(pv_plus - pv_minus) / (2.0 * rho) / (4.0 * math.pi**2)
        return math.sqrt(math.pi) * (delta_part + pv_part)

    @pytest.mark.parametrize("omega, sigma, r", [(1.0, 1.0, 1.0), (-2.0, 1.3, 0.3), (0.7, 0.8, 9.5)])
    def test_c_equals_two_pole_form(self, omega, sigma, r):
        # oracle_c takes the pole at -r as -conj of the pole at +r, on its
        # own panel grid; both poles quadratured explicitly agree to rounding
        y, rho = omega * sigma, r / sigma
        got = oracle_c(y, rho)
        assert abs(got - self._two_pole_form(y, rho)) <= 1e-15
        assert got.imag == 0.0

    @settings(max_examples=60, deadline=None)
    @given(y=st.floats(-15.0, 15.0, allow_nan=False), rho=st.floats(1e-3, 20.0))
    def test_c_equals_two_pole_form_on_a_grid(self, y, rho):
        # 1e-15 scaled by |c| (ulps) and by 1/rho: the two-pole form sums
        # O(1) terms divided by rho, so its own rounding grows like 1/rho
        # (2e-14 against a 330-digit value near rho = 1e-3)
        want = self._two_pole_form(y, rho)
        got = oracle_c(y, rho)
        assert abs(got - want) <= 1e-15 * max(1.0, abs(want), 1.0 / rho)
        assert got.imag == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(-15.0, 15.0, allow_nan=False),
                ),
                st.one_of(st.sampled_from([1e-3, 1.0, 20.0]), st.floats(1e-3, 20.0)),
            ),
            min_size=1, max_size=8,
        ),
    )
    def test_batch_equals_one_row_calls_bit_for_bit(self, rows):
        # any order, duplicates, both zeros, mixed separations and one-row
        # batches: each point of a batch is the public one-row value to the
        # last bit
        gaps = [y for y, _ in rows]
        seps = [rho for _, rho in rows]
        *got, errors = _oracle_batch(gaps, seps)
        assert errors.tolist() == [None] * len(rows)
        for got_v, want_v in zip(got, _one_row_values(gaps, seps)):
            assert _bits(got_v) == _bits(want_v)

    def test_batch_broadcasts_gaps_against_separations(self):
        gaps = [-1.0, 0.0, 2.0]
        *one_r, _ = _oracle_batch(gaps, 1.3)
        *per_row, _ = _oracle_batch(gaps, [1.3] * 3)
        for got, want in zip(one_r, per_row):
            assert _bits(got) == _bits(want)

    def test_a_bad_separation_fails_only_its_points(self):
        # a separation that is not finite and positive is a GeometryError
        # in its own points; the valid a of a point with another separation
        # is kept, and so is every value of such a point
        a, x, c, errors = _oracle_batch([0.5] * 3, [1.0, 0.0, math.nan])
        assert [str(e) if e else None for e in errors.tolist()] == [
            None,
            "separation must be finite and > 0, got 0.0",
            "separation must be finite and > 0, got nan",
        ]
        assert all(isinstance(e, GeometryError) for e in errors[1:])
        want = _one_row_values([0.5], [1.0])
        assert _bits(a[:1]) == _bits(want[0]) and _bits(x[:1]) == _bits(want[1])
        assert _bits(c[:1]) == _bits(want[2])
        assert np.isnan(a[1:]).all() and np.isnan(x[1:]).all() and np.isnan(c[1:]).all()
        # a grid with one column of each kind of bad separation
        gaps = np.linspace(-3.0, 3.0, 20)[:, None]
        seps = np.array([0.3, math.inf, 1.3, -0.0, 9.5, -1.0, 2.0, math.nan])
        a, x, c, errors = _oracle_batch(gaps, seps)
        bad = np.array([False, True, False, True, False, True, False, True])
        assert (np.not_equal(errors, None) == bad).all()
        for e, r in zip(errors[0, bad].tolist(), seps[bad].tolist()):
            want = f"separation must be finite and > 0, got {r!r}"
            assert isinstance(e, GeometryError) and str(e) == want
        grid_gaps, grid_seps = np.broadcast_arrays(gaps, seps[~bad])
        want = _one_row_values(grid_gaps.ravel().tolist(), grid_seps.ravel().tolist())
        for got_v, want_v in zip((a, x, c), want):
            assert _bits(got_v[:, ~bad].ravel()) == _bits(want_v)

    def test_x_is_envelope_times_time_integral(self):
        # the whole gap dependence of x is the exact envelope
        quad = complex(_time_integral(np.array([1.0]), _pole_row(0.0, 1.0))[0])
        for y in (-2.0, 0.0, 1.0, 3.5):
            got = oracle_x(y, 1.0)
            assert _bits(got) == _bits(_x_envelope(y) * quad)

    def test_envelope_where_y_squared_overflows(self):
        # y**2 overflows a float at |y| > 1.34e154: the envelope is then its
        # limit -0.0, as where e^{-y^2} underflows; elsewhere its bits are
        # those of -2 sqrt(pi) e^{-(y**2)}
        for y in (1.34e154, -1.34e154, 30.0, 1.5, 0.0, -2.25):
            assert _bits(_x_envelope(y)) == _bits(-2.0 * _SQRT_PI * math.exp(-(y**2)))
        for y in (1.35e154, -2e154, 1e300, -math.inf, math.inf):
            assert _bits(_x_envelope(y)) == _bits(-0.0)

    def test_separations_over_the_node_budget(self, monkeypatch):
        # a separation whose grid would exceed ORACLE_NODE_BUDGET nodes at
        # the deepest refinement fails alone, before its grid is sized (numpy
        # asked for 2.43 TiB at 1e12 sigma); the other rows keep their bits
        import udwpair.wightman as wightman

        sized = []
        original = wightman._pairing_grid

        def recording(width, panels):
            sized.append(panels)
            return original(width, panels)

        monkeypatch.setattr(wightman, "_pairing_grid", recording)
        gaps = [0.5, 1.0, -0.5, 2.0, 0.5]
        # 1512 sigma is the largest that fits, the next float goes over
        seps = [1.3, 1e12, 1512.0, 1e300, math.nextafter(1512.0, math.inf)]
        a, x, c, errors = _oracle_batch(gaps, seps)
        over = [1, 3, 4]
        assert [i for i, e in enumerate(errors) if e is not None] == over
        for i in over:
            assert isinstance(errors[i], DomainError)
            assert f"over its budget of {wightman.ORACLE_NODE_BUDGET}" in str(errors[i])
            y = gaps[i]
            for one_row in (oracle_x, oracle_c):
                with pytest.raises(DomainError) as raised:
                    one_row(y, seps[i])
                assert str(raised.value) == str(errors[i])
        assert np.isnan(a[over]).all() and np.isnan(c[over]).all() and np.isnan(x[over]).all()
        assert max(sized) * wightman._GL_UNIT.size <= wightman.ORACLE_NODE_BUDGET
        fits = [0, 2]
        want = _one_row_values([gaps[i] for i in fits], [seps[i] for i in fits])
        for got_v, want_v in zip((a, x, c), want):
            assert _bits(got_v[fits]) == _bits(want_v)

    def test_separations_past_the_float_range(self):
        # a subnormal separation (where 1/(2 r) overflows) fails alone, and
        # so does one whose node count is past the float range: the error
        # is a DomainError, and no RuntimeWarning is raised
        seps = [5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e308]
        y = 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, x, c, errors = _oracle_batch([0.5] * len(seps), seps)
            for i in (0, 1, 4):
                for one_row in (oracle_x, oracle_c):
                    with pytest.raises(DomainError) as raised:
                        one_row(y, seps[i])
                    assert str(raised.value) == str(errors[i])
        assert [type(e).__name__ for e in errors] == (
            ["DomainError"] * 2 + ["NoneType"] * 2 + ["DomainError"]
        )
        assert str(errors[0]).startswith(
            "the oracle takes separations from 2.2250738585072014e-308 sigma"
        )
        assert str(errors[-1]).endswith("which covers separations up to 1512 sigma")
        for v in (a, x, c):
            assert np.isnan(v[[0, 1, 4]]).all() and np.isfinite(v[2:4]).all()

    def test_gaps_over_the_gap_limit(self, monkeypatch):
        # a self-term or exchange row at |y| over ORACLE_GAP_LIMIT fails
        # alone, before any quadrature; the other rows keep their bits, the
        # x rows (gap 0) included
        import udwpair.wightman as wightman

        limit = wightman.ORACLE_GAP_LIMIT
        assert limit == 32 * 2**6 / 3.0
        integrated = []
        refine = wightman._refine

        def recording_refine(sums, rows, **options):
            values, errors = refine(sums, rows, **options)
            integrated.append(len(rows))
            return values, errors

        monkeypatch.setattr(wightman, "_refine", recording_refine)
        gaps = [0.5, -700.0, limit, 2e154, -limit, math.nextafter(limit, math.inf)]
        a, x, c, errors = _oracle_batch(gaps, 1.3)
        # |y| in {0.5, limit} for a; then those and the x row (gap 0) at 1.3
        assert integrated == [2, 3]
        over = [1, 3, 5]
        assert [i for i, e in enumerate(errors) if e is not None] == over
        for i in over:
            want = (
                "the oracle's quadrature grid resolves gaps up to |Omega sigma| = "
                f"682.667 (ORACLE_GAP_LIMIT), this one has |Omega sigma| = {abs(gaps[i])!r}"
            )
            assert isinstance(errors[i], DomainError) and str(errors[i]) == want
            # the one-row a and c raise it; x is exact in the gap and has none
            for one_row in (oracle_a, lambda y: oracle_c(y, 1.3)):
                with pytest.raises(DomainError) as raised:
                    one_row(gaps[i])
                assert str(raised.value) == want
            assert oracle_x(gaps[i], 1.3) == 0j
        assert oracle_x(700.0, 1.0) == 0j
        assert np.isnan(a[over]).all() and np.isnan(x[over]).all() and np.isnan(c[over]).all()
        fits = [0, 2, 4]
        want = _one_row_values([gaps[i] for i in fits], [1.3] * 3)
        for got_v, want_v in zip((a, x, c), want):
            assert _bits(got_v[fits]) == _bits(want_v)

    def test_gaps_that_are_not_finite(self):
        # a NaN or infinite gap is the InvalidStateError of the one-row
        # oracles in its own points, not a gap over ORACLE_GAP_LIMIT; the
        # other points keep their bits
        gaps = [0.5, math.nan, -math.inf, math.inf, -1.5]
        a, x, c, errors = _oracle_batch(gaps, 1.3)
        bad = [1, 2, 3]
        assert [i for i, e in enumerate(errors) if e is not None] == bad
        for i in bad:
            want = f"omega must be finite, got {gaps[i]!r}"
            assert isinstance(errors[i], InvalidStateError) and str(errors[i]) == want
            for one_row in (oracle_a, lambda y: oracle_c(y, 1.3), lambda y: oracle_x(y, 1.3)):
                with pytest.raises(InvalidStateError) as raised:
                    one_row(gaps[i])
                assert str(raised.value) == want
        assert np.isnan(a[bad]).all() and np.isnan(x[bad]).all() and np.isnan(c[bad]).all()
        fits = [0, 4]
        want = _one_row_values([gaps[i] for i in fits], [1.3] * 2)
        for got_v, want_v in zip((a, x, c), want):
            assert _bits(got_v[fits]) == _bits(want_v)

    def test_x_at_small_separations(self):
        # the pole pairing (g(L+s) - g(L-s))/s is smooth on the scale sigma
        # however small L is: no ConvergenceError, and the closed form to
        # the verify tolerance
        for length in np.logspace(-4.0, 0.0, 41).tolist():
            y = 0.5
            assert abs(oracle_x(y, length) - minkowski(y, length).x) <= 1e-6

    def test_c_real_at_zero_gap(self):
        y = 0.0
        got = oracle_c(y, 0.8)
        assert abs(got.imag) < 1e-12
        conj_eval = oracle_c(-0.0, 0.8)
        assert got == pytest.approx(conj_eval, abs=1e-12)

    def test_power_law_tail_at_large_separation(self):
        # The principal-value part decays like sigma^2 e^{-s^2 Om^2}/(2 pi L^2),
        # not Gaussianly; the oracle and the closed form agree on it.
        y = 1.0
        got = oracle_x(y, 12.0)
        assert abs(got) == pytest.approx(
            math.exp(-1.0) / (2.0 * math.pi * 144.0), rel=0.05
        )
        assert abs(got - minkowski(y, 12.0).x) < 1e-8

    def test_x_phase_structure_matches_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            length = float(rng.uniform(0.3, 5.0))
            omega = float(rng.uniform(-2.0, 2.0))
            got = oracle_x(omega, length)
            want = minkowski(omega, length).x
            assert math.copysign(1.0, got.real) == math.copysign(1.0, want.real)
            assert math.copysign(1.0, got.imag) == math.copysign(1.0, want.imag)
            assert got == pytest.approx(want, abs=1e-8)

    def test_preconditions(self):
        y = 0.0
        with pytest.raises(GeometryError):
            oracle_x(y, 0.0)
        with pytest.raises(GeometryError):
            oracle_c(y, -1.0)
        with pytest.raises(GeometryError, match=r"^separation must be finite and > 0, got 0\.0$"):
            oracle_c(y, 0.0)
        with pytest.raises(GeometryError, match=r"^separation must be finite and > 0, got inf$"):
            oracle_c(0.5, math.inf)
        # a gap over ORACLE_GAP_LIMIT and a separation over the node budget:
        # the separation's error is named
        with pytest.raises(DomainError, match="over its budget of"):
            oracle_c(700.0, 1513.0)


class TestUnitsOfSigma:
    """The one-row oracles at the gap Omega sigma and the separation r/sigma
    equal the closed forms at the gap Omega, width sigma and separation r
    (:func:`physical_self_term` and its kin), within the refinement target
    1e-12."""

    @pytest.mark.parametrize("sigma", [0.37, 0.8, 2.5])
    @pytest.mark.parametrize("omega", [-2.0, 0.5, 3.0])
    def test_oracles_equal_the_closed_forms_in_physical_units(self, sigma, omega):
        r, y = 1.3, omega * sigma
        pairs = [
            (oracle_a(y), physical_self_term(omega, sigma)),
            (oracle_c(y, r / sigma), physical_exchange(omega, sigma, r)),
            (oracle_x(y, r / sigma), physical_nonlocal(omega, sigma, r)),
        ]
        for got, want in pairs:
            assert float(abs(got - want)) <= 1e-12


class TestIepsRegularization:
    def test_forced_value(self):
        y = 0.0
        est = oracle_ieps("A", y, 0.0)
        assert est.value.real == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-6)
        assert est.error < 1e-6

    def test_agreement_with_distributional_a(self):
        y = 1.0
        est = oracle_ieps("A", y, 0.0)
        assert est.value.real == pytest.approx(oracle_a(y), abs=1e-6)

    def test_agreement_with_distributional_x(self):
        y = 1.0
        est = oracle_ieps("X", y, 1.0)
        assert est.value == pytest.approx(oracle_x(y, 1.0), abs=1e-6)

    def test_agreement_with_distributional_c(self):
        y = -2.0
        est = oracle_ieps("C", y, 2.0)
        assert est.value == pytest.approx(oracle_c(y, 2.0), abs=1e-6)

    def test_custom_sequence_validation(self):
        y = 0.0
        with pytest.raises(DomainError):
            oracle_ieps("A", y, 0.0, eps_sequence=[0.1, 0.2])
        with pytest.raises(DomainError):
            oracle_ieps("A", y, 0.0, eps_sequence=[0.1, -0.05])
        with pytest.raises(DomainError):
            oracle_ieps("B", y, 0.0)

    def test_x_requires_separation(self):
        y = 0.0
        with pytest.raises(GeometryError):
            oracle_ieps("X", y, 0.0)


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
        assert oracle_c(omega, r).real == pytest.approx(
            minkowski(omega, r).c.real, abs=1e-8
        )

    def test_a_image_term_is_even_in_omega_only_through_erf(self):
        # at Omega = 0 the image term is the pure Dawson tail, nonzero
        y = 0.0
        got = oracle_c(y, 1.0).real
        assert got == pytest.approx(0.06755114846238817, abs=1e-8)
        assert got > 0.0

    def test_self_term_closed_form(self):
        for omega in (-2.0, -0.5, 0.0, 0.5, 1.0, 3.0):
            assert oracle_a(omega) == pytest.approx(
                minkowski(omega, 1.0).a, abs=1e-10
            )
