"""Distributional quadrature: the finite-part and delta rules against test
functions with known closed-form actions, the oracles against frozen values,
refinement stability, and agreement between the two regularizations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import (
    _hadamard_rows,
    _quad,
    default_eps_sequence,
    hadamard_double_pole,
    oracle_ieps,
    pv_over_pole,
    richardson_zero_limit,
    sgn_delta_square,
)

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
    _SQRT_PI,
    _WINDOW_SIGMAS,
    _refined_quad,
    oracle_a_batch,
    oracle_c_batch,
    oracle_x_envelope,
    oracle_x_time_integral,
    oracle_x_time_integral_batch,
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


# oracle_c_batch and oracle_x_time_integral_batch, one row per call, as
# (real, imag) float.hex: the bits of the pole pairing with cos/sin
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


def _bits(value) -> list[int]:
    """The bit patterns of a real or complex value."""
    return np.array([value], dtype=complex).view(np.uint64).tolist()


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
        whole = oracle_c_batch(gaps, seps)
        whole_x = oracle_x_time_integral_batch(seps)
        monkeypatch.setattr(wightman, "_BATCH_NODES", 1)
        sliced = oracle_c_batch(gaps, seps)
        sliced_x = oracle_x_time_integral_batch(seps)
        assert _bits(sliced[0]) == _bits(whole[0]) and sliced[1] == whole[1]
        assert _bits(sliced_x[0]) == _bits(whole_x[0]) and sliced_x[1] == whole_x[1]


class TestPolePairingDots:
    """The pole pairing takes P and Q of each row as dot products of a gap
    table row and a separation table row: on broadcast views for a product
    grid, on gathered rows for a scattered batch."""

    # three panel counts of the pairing grid (18, 22 and 34)
    SEPS = [0.025, 1.625, 11.875, 50.0]

    @staticmethod
    def _record(monkeypatch):
        """Per ``np.vecdot`` call its table rank and number of dots, and
        per pass of the pole pairing the rows it evaluates."""
        import udwpair.wightman as wightman

        calls, rows = [], []
        vecdot, refine = np.vecdot, wightman._refine

        def counting_vecdot(x1, x2):
            out = vecdot(x1, x2)
            calls.append((x1.ndim, out.size))
            return out

        def counting_refine(sums, intervals, **options):
            def counted(k, level):
                rows.append(k.size)
                return sums(k, level)

            return refine(counted, intervals, **options)

        monkeypatch.setattr(np, "vecdot", counting_vecdot)
        monkeypatch.setattr(wightman, "_refine", counting_refine)
        return calls, rows

    def _one_row_values(self, gaps, seps):
        c = [oracle_c(DetectorParams(omega=om, sigma=1.0), r) for om, r in zip(gaps, seps)]
        x = [oracle_x_time_integral(r) for r in seps]
        return c, x

    def test_product_grid_equals_one_row_calls_bit_for_bit(self, monkeypatch):
        gaps = np.array([-2.0, -0.5, 0.0, -0.0, 0.7, 3.0])
        grid_gaps, grid_seps = (v.ravel() for v in np.meshgrid(gaps, self.SEPS, indexing="ij"))
        want_c, want_x = self._one_row_values(grid_gaps.tolist(), grid_seps.tolist())
        calls, _ = self._record(monkeypatch)
        c, c_errors = oracle_c_batch(gaps[:, None], self.SEPS)
        x, x_errors = oracle_x_time_integral_batch(grid_seps)
        assert c_errors == x_errors == [None] * grid_gaps.size
        assert _bits(c) == _bits(np.array(want_c)) and _bits(x) == _bits(np.array(want_x))
        # the dense branch: every dot of a product grid on broadcast views
        assert calls and all(ndim == 3 for ndim, _ in calls)

    def test_scattered_batch_equals_one_row_calls_bit_for_bit(self, monkeypatch):
        # distinct gaps and separations, no two rows sharing either
        rng = np.random.default_rng(7)
        gaps = rng.permutation(np.linspace(-3.0, 3.0, 12)).tolist()
        seps = np.geomspace(0.01, 40.0, 12).tolist()
        want_c, _ = self._one_row_values(gaps, seps)
        calls, rows = self._record(monkeypatch)
        c, errors = oracle_c_batch(gaps, seps)
        assert errors == [None] * len(gaps)
        assert _bits(c) == _bits(np.array(want_c))
        # the gathered branch: two dots (P and Q) per row and level, not a
        # dot for every gap x separation
        assert calls and all(ndim == 2 for ndim, _ in calls)
        assert sum(dots for _, dots in calls) == 2 * sum(rows)

    def test_small_tables_leave_values_unchanged(self, monkeypatch):
        # narrower gap, separation and row slices mix the two branches
        import udwpair.wightman as wightman

        rng = np.random.default_rng(11)
        gaps = rng.choice([-1.5, 0.0, 0.4, 2.0], 20).tolist()
        seps = rng.choice(self.SEPS + [0.3, 5.0], 20).tolist()
        whole = oracle_c_batch(gaps, seps)
        monkeypatch.setattr(wightman, "_BATCH_NODES", 4096)
        calls, _ = self._record(monkeypatch)
        sliced = oracle_c_batch(gaps, seps)
        assert _bits(sliced[0]) == _bits(whole[0]) and sliced[1] == whole[1]
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
        # batch keep the bits of one row per call with per-gap tables
        gaps, seps = (list(v) for v in zip(*PINNED_C))
        c, c_errors = oracle_c_batch(gaps, seps)
        x, x_errors = oracle_x_time_integral_batch(list(PINNED_X))
        assert c_errors == [None] * len(gaps) and x_errors == [None] * len(PINNED_X)
        assert [self._hex(v) for v in c.tolist()] == list(PINNED_C.values())
        assert [self._hex(v) for v in x.tolist()] == list(PINNED_X.values())

    def test_joint_batch_is_both_batches_bit_for_bit(self):
        # x rows are the pole pairing's rows at gap +0.0: c rows at gap
        # +-0.0 and the same separations share them
        import udwpair.wightman as wightman

        gaps = [0.0, -0.0, 1.5, -1.5, 0.0, 2.0]
        seps = [1.3, 1.3, 1.3, 1.3, 4.0, 0.02]
        xs = [1.3, 4.0, 9.5]
        (c, c_errors), (x, x_errors) = wightman._oracle_xc_batch(gaps, seps, xs)
        want_c, want_c_errors = oracle_c_batch(gaps, seps)
        want_x, want_x_errors = oracle_x_time_integral_batch(xs)
        assert c_errors == want_c_errors == [None] * 6
        assert x_errors == want_x_errors == [None] * 3
        assert _bits(c) == _bits(want_c) and _bits(x) == _bits(want_x)

    def test_mirrored_gaps_share_one_row(self, monkeypatch):
        import udwpair.wightman as wightman

        rows = []
        refine = wightman._refine

        def counting_refine(sums, intervals, **options):
            rows.append(len(intervals))
            return refine(sums, intervals, **options)

        monkeypatch.setattr(wightman, "_refine", counting_refine)
        gaps = [-1.0, 1.0, -0.0, 0.0, 2.5]
        (c, _), (x, _) = wightman._oracle_xc_batch(gaps * 2, [0.7] * 5 + [3.0] * 5, [0.7, 3.0])
        # (|y|, r) in {0, 1, 2.5} x {0.7, 3}; the x rows are those at |y| = 0
        assert rows == [3 * 2]
        assert _bits(c[0].real) == _bits(oracle_c_batch([-1.0], 0.7)[0][0].real)
        assert x.tolist() == oracle_x_time_integral_batch([0.7, 3.0])[0].tolist()

    def test_self_term_matches_complex_hadamard_form(self):
        # [2 e^{-s^2/4} cos(y s) - 2]/s^2 in real arithmetic against the
        # complex finite part of e^{-u^2/4 - i y u} with the f'(0) rule
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
        got, errors = oracle_a_batch(y)
        assert errors == had_errors == [None] * y.size
        assert np.max(np.abs(got - np.array(want))) <= 2.5e-16


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
        got = oracle_c(DetectorParams(omega=y, sigma=1.0), rho)
        assert abs(got - self._two_pole_form(y, rho)) <= 1e-15
        assert got.imag == 0.0

    @settings(max_examples=60, deadline=None)
    @given(y=st.floats(-15.0, 15.0, allow_nan=False), rho=st.floats(1e-3, 20.0))
    def test_c_equals_two_pole_form_on_a_grid(self, y, rho):
        # 1e-15 scaled by |c| (ulps) and by 1/rho: the two-pole form sums
        # O(1) terms divided by rho, so its own rounding grows like 1/rho
        # (2e-14 against a 330-digit value near rho = 1e-3)
        want = self._two_pole_form(y, rho)
        got = oracle_c(DetectorParams(omega=y, sigma=1.0), rho)
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
    def test_batch_equals_one_gap_calls_bit_for_bit(self, rows):
        # any order, duplicates, both zeros, mixed separations and one-row
        # batches: each row of a batch is the public one-row value to the
        # last bit
        gaps = [y for y, _ in rows]
        seps = [rho for _, rho in rows]
        c, c_errors = oracle_c_batch(gaps, seps)
        x, x_errors = oracle_x_time_integral_batch(seps)
        a, a_errors = oracle_a_batch(gaps)
        assert c_errors == x_errors == a_errors == [None] * len(rows)
        for i, (y, rho) in enumerate(zip(gaps, seps)):
            p = DetectorParams(omega=y, sigma=1.0)
            assert _bits(c[i]) == _bits(oracle_c(p, rho))
            assert _bits(x[i]) == _bits(oracle_x_time_integral(rho))
            assert _bits(a[i]) == _bits(oracle_a(p))

    def test_c_batch_broadcasts_gaps_against_separations(self):
        gaps = [-1.0, 0.0, 2.0]
        one_r = oracle_c_batch(gaps, 1.3)[0]
        per_row = oracle_c_batch(gaps, [1.3] * 3)[0]
        assert _bits(one_r) == _bits(per_row)
        with pytest.raises(GeometryError, match="l_image must be > 0, got 0.0"):
            oracle_c_batch(gaps, [1.3, 0.0, 2.0])

    def test_x_is_envelope_times_time_integral(self):
        p = DetectorParams(omega=1.0, sigma=1.0)
        got = oracle_x_envelope(1.0) * oracle_x_time_integral(1.0)
        assert got == oracle_x(p, 1.0)
        with pytest.raises(GeometryError):
            oracle_x_time_integral(0.0)

    def test_envelope_where_y_squared_overflows(self):
        # y**2 overflows a float at |y| > 1.34e154: the envelope is then its
        # limit -0.0, as where e^{-y^2} underflows; elsewhere its bits are
        # those of -2 sqrt(pi) e^{-(y**2)}
        for y in (1.34e154, -1.34e154, 30.0, 1.5, 0.0, -2.25):
            assert _bits(oracle_x_envelope(y)) == _bits(-2.0 * _SQRT_PI * math.exp(-(y**2)))
        for y in (1.35e154, -2e154, 1e300, -math.inf, math.inf):
            assert _bits(oracle_x_envelope(y)) == _bits(-0.0)

    def test_x_at_small_separations(self):
        # the pole pairing (g(L+s) - g(L-s))/s is smooth on the scale sigma
        # however small L is: no ConvergenceError, and the closed form to
        # the verify tolerance
        for length in np.logspace(-4.0, 0.0, 41).tolist():
            p = DetectorParams(omega=0.5, sigma=1.0)
            assert abs(oracle_x(p, length) - minkowski(p, length).x) <= 1e-6

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


class TestSigmaAtTheBoundary:
    """The one-row oracles scale once, at DetectorParams: at the gap Omega,
    width sigma and separation r they equal the oracle at Omega sigma,
    width 1 and r/sigma, within the refinement target 1e-12."""

    @pytest.mark.parametrize("sigma", [0.37, 0.8, 2.5])
    @pytest.mark.parametrize("omega", [-2.0, 0.5, 3.0])
    def test_oracles_depend_on_omega_sigma_and_r_over_sigma(self, sigma, omega):
        r = 1.3
        p = DetectorParams(omega=omega, sigma=sigma)
        unit = DetectorParams(omega=omega * sigma, sigma=1.0)
        pairs = [
            (oracle_a(p), oracle_a(unit)),
            (oracle_a(p, r), oracle_a(unit, r / sigma)),
            (oracle_c(p, r), oracle_c(unit, r / sigma)),
            (oracle_x(p, r), oracle_x(unit, r / sigma)),
        ]
        for got, want in pairs:
            assert abs(got - want) <= 1e-12

    def test_ieps_scales_its_eps_sequence(self):
        # an eps sequence is in the units of r; the default one is
        # default_eps_sequence() in units of sigma
        sigma = 0.8
        p = DetectorParams(omega=-2.0 / sigma, sigma=sigma)
        eps = [sigma * e for e in default_eps_sequence()]
        got = oracle_ieps("C", p, 2.0 * sigma, eps)
        want = oracle_ieps("C", DetectorParams(omega=-2.0, sigma=1.0), 2.0)
        assert abs(got.value - want.value) <= 1e-10


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
