"""Sweep engine and CLI: configuration handling, deterministic output,
difference maps, verification (including fault injection), formats, exit
codes, and the output-directory environment variable."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from references import negativity_exact, separation

import udwpair.cli
import udwpair.config
import udwpair.elements
import udwpair.sweep as sweep_mod
import udwpair.wightman
from udwpair import (
    ConfigError,
    DetectorParams,
    Topology,
    TopologyKind,
    TruncationWarning,
    UdwError,
    WorldlinePair,
    assemble_density_matrix,
    elements_for,
    oracle_a,
    oracle_c,
    oracle_x,
    xstate_measures,
)
from udwpair.cli import main
from udwpair.config import (
    GRID_POINT_LIMIT,
    NMAX_LIMIT,
    OUTPUT_DIR_ENV,
    GridAxis,
    SweepConfig,
    config_from_mapping,
    parse_config_file,
)
from udwpair.elements import self_excitation_array
from udwpair.entanglement import Measures
from udwpair.geometry import image_separation_array
from udwpair.sweep import (
    rows_to_csv,
    rows_to_jsonl,
    run_difference_map,
    run_sweep,
    run_verification,
)
from udwpair.wightman import ORACLE_GAP_LIMIT

#: Magnitudes for fuzzing the oracle's entry points: zero, subnormals,
#: values up to 1e308, and both sides of ORACLE_GAP_LIMIT and of the node
#: budget's largest separation, 1512 sigma
_FUZZ_MAGNITUDES = st.one_of(
    st.sampled_from([
        0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-11, 0.5, 1.0, 30.0, 1.34e154,
        1e300, 1e308, 1.7976931348623157e308,
        *(v for x in (ORACLE_GAP_LIMIT, 1512.0)
          for v in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))),
    ]),
    st.floats(min_value=0.0, max_value=1e308),
)
_FUZZ_GAPS = st.builds(math.copysign, _FUZZ_MAGNITUDES, st.sampled_from([1.0, -1.0]))
_FUZZ_TOPOLOGIES = [
    [],
    ["--topology", "cylinder", "--ell", "1"],
    ["--topology", "twisted", "--ell", "1", "--eta", "-1", "--d-a", "0.1"],
]


#: Lines of a fuzzed configuration file: keys that keep a run small, two
#: of them invalid
_CONFIG_KEYS = st.sampled_from([
    b"", b"# comment", b"topology = cylinder", b"topology = twisted", b"ell = 1",
    b"ell = 0.5, 2", b"eta = -1", b"eta = 2", b"d_a = 0.1", b"theta = 0:1:2",
    b"nmax = 3", b"eps0 = 0.01", b"oracle = true", b"format = jsonl", b"format = csv",
    b"out = rows.out", b"key without value",
])


@st.composite
def _config_file(draw) -> bytes:
    """At most 256 bytes: lines of ``_CONFIG_KEYS``, in half of the files
    with arbitrary bytes among them, each line ended by LF, CR or CRLF."""
    lines = draw(st.lists(_CONFIG_KEYS, max_size=8))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.binary(max_size=24)))
    end = st.sampled_from([b"\n", b"\r", b"\r\n"])
    ends = draw(st.lists(end, min_size=len(lines), max_size=len(lines)))
    return b"".join(line + end for line, end in zip(lines, ends))[:256]


@st.composite
def _axis(draw, values) -> str:
    """MIN:MAX:N text of an axis of at most 3 points between two ``values``."""
    start, stop = sorted([draw(values), draw(values)])
    count = 1 if start == stop else draw(st.integers(2, 3))
    return f"{start!r}:{stop!r}:{count}"


SMALL_MINK = SweepConfig(omega=GridAxis(-1.0, 1.0, 3), l=GridAxis(0.5, 2.0, 3))
SMALL_CYL = SweepConfig(
    topology=TopologyKind.CYLINDER,
    ell=(1.0,),
    omega=GridAxis(-1.0, 1.0, 3),
    l=GridAxis(0.5, 2.0, 3),
)


def _udw_error_names() -> set[str]:
    """The names of UdwError and of every subclass of it."""
    names, todo = set(), [UdwError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo += cls.__subclasses__()
    return names


@pytest.fixture(autouse=True)
def _quiet_truncation():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        yield


class TestConfig:
    def test_mapping_round_trip(self):
        cfg = config_from_mapping(
            {
                "topology": "cylinder",
                "ell": "0.5, 1, 2",
                "eta": "-1",
                "omega": "-2:2:5",
                "l": "0.5:4:4",
                "theta": "0:1.5:2",
                "d_a": "0.1",
                "eps0": "0.02",
                "nmax": "12",
                "oracle": "true",
                "format": "jsonl",
            }
        )
        assert cfg.topology is TopologyKind.CYLINDER
        assert cfg.ell == (0.5, 1.0, 2.0)
        assert cfg.eta == -1
        assert cfg.omega == GridAxis(-2.0, 2.0, 5)
        assert cfg.oracle and cfg.fmt == "jsonl"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"frobnicate": "1"})

    def test_bad_range_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"omega": "1:2"})
        with pytest.raises(ConfigError):
            config_from_mapping({"omega": "2:1:5"})
        with pytest.raises(ConfigError):
            config_from_mapping({"omega": "1:2:1"})

    def test_overflowing_span_rejected(self):
        # linspace would step by inf and start the axis at NaN
        with pytest.raises(ConfigError, match="stop - start overflows"):
            config_from_mapping({"omega": "-1.7976931348623157e308:1e292:2"})

    def test_axis_at_the_float_range_has_its_stop(self):
        # start + step overflows on the way to the last value, which is stop
        axis = GridAxis(5.5e307, 1.7976931348623157e308, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = axis.values()
        assert values[-1] == axis.stop and np.isfinite(values).all()

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(omega=GridAxis(-1.0, 1.0, 0)).validate()

    def test_nonpositive_separation_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(l=GridAxis(0.0, 2.0, 3)).validate()

    def test_detector_b_within_the_float_range(self):
        # detector B sits at d_a + L cos(theta), written as d_b_x
        for d_a in (1e308, -1e308):
            with pytest.raises(ConfigError, match=r"\|d_a\| \+ L must be finite"):
                SweepConfig(d_a=d_a, l=GridAxis(1e308, 1e308, 1)).validate()
        SweepConfig(d_a=1e308, l=GridAxis(1.0, 1.0, 1)).validate()
        SweepConfig(d_a=-7e307, l=GridAxis(1e308, 1e308, 1)).validate()

    def test_topology_ell_consistency(self):
        with pytest.raises(ConfigError):
            SweepConfig(ell=(1.0,)).validate()
        with pytest.raises(ConfigError):
            SweepConfig(topology=TopologyKind.CYLINDER).validate()
        with pytest.raises(ConfigError):
            SweepConfig(topology=TopologyKind.CYLINDER, ell=(-1.0,)).validate()

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "topology = cylinder\n"
            "ell = 1.0\n"
            "omega = -1:1:3   # trailing comment\n"
            "\n"
            "l = 0.5:2:3\n"
        )
        mapping = parse_config_file(str(path))
        cfg = config_from_mapping(mapping)
        assert cfg.topology is TopologyKind.CYLINDER
        assert cfg.omega.count == 3

    def test_config_file_syntax_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("this is not a key value line\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))

    def test_config_file_line_ends(self, tmp_path):
        # LF, CRLF and CR end a line, as in a file read in text mode
        path = tmp_path / "ends.cfg"
        path.write_bytes(b"topology = cylinder\r\nell = 1.0\rnmax = 7\n# x = 1\r\n")
        assert parse_config_file(str(path)) == {"topology": "cylinder", "ell": "1.0", "nmax": "7"}

    def test_config_file_not_utf8(self, tmp_path):
        path = tmp_path / "utf16.cfg"
        path.write_bytes("nmax = 7\n".encode("utf-16"))  # starts with the BOM ff fe
        with pytest.raises(ConfigError) as raised:
            parse_config_file(str(path))
        assert str(raised.value) == (
            f"{path}: not UTF-8: byte 0xff at offset 0 (invalid start byte)"
        )
        path.write_bytes(b"nmax = 7\nell = caf\xe9\n")
        with pytest.raises(ConfigError, match=r": not UTF-8: byte 0xe9 at offset 18 "):
            parse_config_file(str(path))


class TestSweep:
    def test_row_count_and_order(self):
        rows = run_sweep(SMALL_MINK)
        assert len(rows) == 9
        omegas = [r["omega"] for r in rows]
        assert omegas == sorted(omegas)
        # outputs are in units of sigma
        assert all(r["error"] == "" and r["sigma"] == 1.0 for r in rows)

    def test_deterministic_bytes(self):
        a = rows_to_csv(run_sweep(SMALL_CYL))
        b = rows_to_csv(run_sweep(SMALL_CYL))
        assert a == b

    def test_oracle_columns(self):
        from dataclasses import replace

        cfg = replace(SMALL_MINK, oracle=True, omega=GridAxis(0.0, 0.0, 1), l=GridAxis(1.0, 1.0, 1))
        rows = run_sweep(cfg)
        assert rows[0]["oracle_dev_a"] < 1e-8
        assert rows[0]["oracle_dev_x"] < 1e-8
        assert rows[0]["oracle_dev_c"] < 1e-8

    def test_vanishing_boundary_column_consistency(self):
        rows = run_sweep(SMALL_MINK)
        for r in rows:
            if r["x_abs"] <= r["a"]:
                assert r["concurrence_leading"] == 0.0
                assert r["harvested"] is False
            else:
                assert r["concurrence_leading"] > 0.0
                assert r["harvested"] is True

    def test_csv_17_digit_floats(self):
        text = rows_to_csv(run_sweep(SMALL_MINK))
        header, first = text.splitlines()[:2]
        cols = dict(zip(header.split(","), first.split(",")))
        assert float(cols["a"]) == run_sweep(SMALL_MINK)[0]["a"]  # full round-trip

    def test_jsonl_round_trip(self):
        rows = run_sweep(SMALL_MINK)
        lines = rows_to_jsonl(rows).splitlines()
        assert len(lines) == len(rows)
        parsed = json.loads(lines[0])
        assert parsed["a"] == rows[0]["a"]
        assert isinstance(parsed["harvested"], bool)


class TestExtremeSeparations:
    """Separations whose square overflows or underflows a double."""

    OMEGA = GridAxis(-1.0, 1.0, 3)

    def test_huge_separation_row(self):
        rows = run_sweep(SweepConfig(omega=self.OMEGA, l=GridAxis(1e200, 1e200, 1)))
        for r in rows:
            assert r["error"] == "" and r["l"] == 1e200
            assert r["a"] == float(self_excitation_array(np.array([r["omega"]]))[0])
            assert r["x_abs"] < 1e-300 and not r["harvested"]

    @pytest.mark.parametrize("length", [1e-200, 1e-160])
    def test_tiny_separation_row(self, length):
        # the separation is exact, so the row fails on the state (|x| ~ 1/L
        # makes |x|^2 overflow), not on a spurious zero separation
        rows = run_sweep(SweepConfig(omega=self.OMEGA, l=GridAxis(length, length, 1)))
        for r in rows:
            assert r["l"] == length
            assert r["error"] == "InvalidStateError: density matrix contains non-finite entries"
            p = DetectorParams(omega=r["omega"], sigma=1.0)
            pair = WorldlinePair((0.0, 0.0), (length, 0.0))
            x = elements_for(p, pair, Topology.minkowski()).x
            want = math.exp(-r["omega"] ** 2) / (4.0 * math.sqrt(math.pi) * length)
            assert x.imag == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("length", [5e-324, 1e-320, 2.225073858507201e-308])
    def test_subnormal_separation_row(self, length):
        # the row fails at the separation check, which names the smallest
        # normal float, not on the state that x ~ 1/L makes non-finite
        rows = run_sweep(SweepConfig(omega=self.OMEGA, l=GridAxis(length, length, 1)))
        for r in rows:
            assert r["l"] == length
            assert r["error"] == (
                "DomainError: the closed forms take separations from "
                f"2.2250738585072014e-308 sigma, the smallest normal float, this one is "
                f"{length!r} sigma"
            )

    @pytest.mark.parametrize("length", [1e-10, 1e-100])
    def test_trace_failure_names_its_cause(self, length):
        # |x| ~ 1/L makes E = eps0^4 |x|^2 swamp 1 in r11 + r22 + r33 + r44
        (row,) = run_sweep(SweepConfig(omega=GridAxis(1.0, 1.0, 1), l=GridAxis(length, length, 1)))
        p = DetectorParams(omega=1.0, sigma=1.0)
        state = elements_for(p, WorldlinePair((0.0, 0.0), (length, 0.0)), Topology.minkowski())
        with pytest.raises(UdwError) as raised:
            xstate_measures(state, row["eps0"])
        assert row["error"] == f"InvalidStateError: {raised.value}"
        big_x = row["eps0"] ** 2 * abs(state.x)
        assert row["error"].startswith("InvalidStateError: trace = ")
        assert " differs from 1 because E = r44 = " in row["error"]
        assert row["error"].endswith(f" > 1: |X| = eps0^2 |x| = {big_x!r} is not small")
        assert "np." not in row["error"]

    def test_verify_image_terms_past_the_float_range(self):
        # y r and (r/2)^2 of the image kernels overflow on the way to their
        # values: no RuntimeWarning, and the oracle names its own limits
        cfg = SweepConfig(
            topology=TopologyKind.CYLINDER, ell=(1.0,), omega=GridAxis(-1e308, 0.0, 2),
            l=GridAxis(1e300, 1e300, 1),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_verification(cfg)
        assert [row["error"].partition(":")[0] for row in report.rows] == ["DomainError"] * 2

    def test_huge_circumference_rows_are_minkowski(self):
        grid = dict(omega=self.OMEGA, l=GridAxis(1.0, 1.0, 1))
        cyl = run_sweep(SweepConfig(topology=TopologyKind.CYLINDER, ell=(1e200,), **grid))
        mink = run_sweep(SweepConfig(**grid))
        for rc, rm in zip(cyl, mink):
            assert rc["error"] == "" and rc["tail_bound"] == 0.0
            for key in ("a", "b", "x_re", "x_im", "c_re", "c_im", "e", "concurrence_leading"):
                assert rc[key] == rm[key]


def _wootters_concurrence(rho: np.ndarray) -> float:
    """Concurrence from the eigenvalues of rho (sy x sy) rho* (sy x sy) in
    50-digit arithmetic, where taking their square roots costs nothing."""
    with mp.workdps(50):
        m = mp.matrix([[mp.mpc(complex(v)) for v in row] for row in rho])
        flip = mp.matrix(4, 4)
        for i, j, v in ((0, 3, -1), (1, 2, 1), (2, 1, 1), (3, 0, -1)):
            flip[i, j] = v
        conj = mp.matrix([[mp.conj(m[i, j]) for j in range(4)] for i in range(4)])
        eigs = mp.eig(m * flip * conj * flip, left=False, right=False)
        lams = sorted((mp.sqrt(max(mp.re(e), 0)) for e in eigs), reverse=True)
        return float(max(0, lams[0] - lams[1] - lams[2] - lams[3]))


#: Small grids holding rows that fail (at the smallest L) next to rows that
#: pass, on every topology: name -> (config, error types expected).
FAILING_GRIDS = {
    "minkowski": (
        SweepConfig(omega=GridAxis(-1.0, 2.0, 7), l=GridAxis(0.078125, 0.5, 3)),
        {"InvalidStateError"},
    ),
    "cylinder": (
        SweepConfig(
            topology=TopologyKind.CYLINDER, ell=(1.0,),
            omega=GridAxis(-1.0, 2.0, 7), l=GridAxis(0.078125, 0.5, 3),
        ),
        {"InvalidStateError", "PositivityError"},
    ),
    "twisted": (
        SweepConfig(
            topology=TopologyKind.TWISTED_CYLINDER, ell=(1.0,), d_a=0.1,
            omega=GridAxis(-0.7, 1.6, 6), l=GridAxis(0.15625, 0.5, 2),
        ),
        {"InvalidStateError", "PositivityError"},
    ),
    "twisted_eta_minus": (
        SweepConfig(
            topology=TopologyKind.TWISTED_CYLINDER, ell=(1.0,), eta=-1, d_a=0.1,
            omega=GridAxis(-1.0, 2.0, 7), l=GridAxis(0.078125, 0.3, 2),
        ),
        {"InvalidStateError"},
    ),
}


class TestBatchedPath:
    """The batched sweep against the one-point route elements_for +
    xstate_measures, point by point, and against the eigenvalue oracles."""

    @pytest.mark.parametrize("name", sorted(FAILING_GRIDS))
    def test_matches_scalar_route(self, name):
        cfg, kinds = FAILING_GRIDS[name]
        seen = set()
        for row in run_sweep(cfg):
            p = DetectorParams(omega=row["omega"], sigma=1.0)
            pair = WorldlinePair((cfg.d_a, 0.0), (row["d_b_x"], 0.0), 0.0, row["z_b"])
            ell = None if cfg.topology is TopologyKind.MINKOWSKI else row["ell"]
            try:
                state = elements_for(p, pair, cfg.topology_for(ell), cfg.nmax)
                report = xstate_measures(state, cfg.eps0)
                error = ""
            except UdwError as exc:
                error = f"{type(exc).__name__}: {exc}"
            assert row["error"] == error
            assert "np." not in error  # Python floats in the messages
            if error:
                seen.add(error.split(":")[0])
                assert math.isnan(row["a"]) and row["harvested"] is False
                continue
            # one kernel and one summation order: exactly equal
            assert row["a"] == state.a and row["b"] == state.b
            assert row["x_re"] == state.x.real and row["x_im"] == state.x.imag
            assert row["c_re"] == state.c.real and row["c_im"] == state.c.imag
            assert row["e"] == state.e and row["tail_bound"] == state.tail_bound
            for key in Measures._fields:
                assert row[key] == getattr(report, key), key
            rho = assemble_density_matrix(state, cfg.eps0)
            assert abs(row["negativity"] - negativity_exact(rho)) <= 1e-12
            # The X-state formula is Wootters' concurrence when |rho14|^2 <=
            # r11 r44 and |rho23|^2 <= r22 r33.  Next to the failing rows a
            # state can exceed a disk by less than the 1e-10 positivity
            # tolerance; the two formulas then differ by twice the excess.
            r = rho.diagonal().real
            excess = max(0.0, abs(rho[0, 3]) - math.sqrt(r[0] * r[3])) + max(
                0.0, abs(rho[1, 2]) - math.sqrt(r[1] * r[2])
            )
            want = _wootters_concurrence(rho)
            assert abs(row["concurrence"] - want) <= 1e-12 + 2.0 * excess
        assert seen == kinds

    def test_large_gap_strip_has_no_error_rows(self):
        result = CliRunner().invoke(
            main, ["sweep", "--omega-range", "12:24:25", "--l-range", "0.5:10:20"]
        )
        assert result.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert len(rows) == 500
        assert all(r["error"] == "" for r in rows)
        assert all(float(r["c_abs"]) > 0.0 and float(r["corr"]) > 0.0 for r in rows)

    def test_oracle_failure_is_contained(self, monkeypatch):
        from dataclasses import replace

        def broken(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")

        cfg = replace(SMALL_MINK, omega=GridAxis(0.0, 1.0, 2), l=GridAxis(1.0, 1.0, 1))
        plain = run_sweep(cfg)
        # the oracle's pass over the self terms
        monkeypatch.setattr(udwpair.wightman, "_self_terms", broken)
        # the oracle's failure fails its deviations, not the closed forms
        for row, want in zip(run_sweep(replace(cfg, oracle=True)), plain, strict=True):
            assert row["error"] == "ZeroDivisionError: float division by zero"
            assert row["a"] == want["a"] and row["corr"] == want["corr"]
            assert all(math.isnan(row[f"oracle_dev_{k}"]) for k in "axc")
        report = run_verification(cfg)
        assert not report.passed
        assert all(r["error"].startswith("ZeroDivisionError") for r in report.rows)

    def test_failing_pole_pairing_call_is_contained(self, monkeypatch):
        from dataclasses import replace

        def broken(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")

        # the x and c integrals of a slab are one pole pairing: every row
        # takes its exception
        monkeypatch.setattr(udwpair.wightman, "_pole_rows", broken)
        cfg = replace(SMALL_MINK, omega=GridAxis(0.0, 1.0, 2), l=GridAxis(1.0, 1.0, 1))
        for row in run_sweep(replace(cfg, oracle=True)):
            assert row["error"] == "ZeroDivisionError: float division by zero"
            assert math.isnan(row["oracle_dev_x"]) and math.isnan(row["oracle_dev_c"])
        report = run_verification(cfg)
        assert not report.passed
        assert all(r["error"].startswith("ZeroDivisionError") for r in report.rows)


class TestDifferenceMap:
    def test_requires_quotient_topology(self):
        with pytest.raises(ConfigError):
            run_difference_map(SMALL_MINK)

    def test_difference_definition(self):
        rows = run_difference_map(SMALL_CYL)
        for r in rows:
            assert r["corr_diff"] == pytest.approx(
                r["corr_minkowski"] - r["corr_topology"], abs=1e-15
            )

    def test_failed_rows_have_no_difference(self):
        # below the smallest normal float the closed forms fail and both
        # correlations are inf: the difference is NaN, with no warning
        # (RuntimeWarning is an error in the tests)
        from dataclasses import replace

        cfg = replace(SMALL_CYL, omega=GridAxis(0.0, 0.0, 1), l=GridAxis(1e-320, 1e-320, 1))
        (row,) = run_difference_map(cfg)
        assert row["error"].startswith("DomainError: the closed forms take separations")
        assert math.isnan(row["corr_diff"])

    def test_difference_shrinks_with_compactification_scale(self):
        from dataclasses import replace

        small = run_difference_map(replace(SMALL_CYL, ell=(2.0,)))
        large = run_difference_map(replace(SMALL_CYL, ell=(20.0,)))
        m_small = max(abs(r["corr_diff"]) for r in small)
        m_large = max(abs(r["corr_diff"]) for r in large)
        assert m_large < 0.2 * m_small
        # ... but only polynomially: the principal-value image tails keep the
        # difference measurable even at ell = 20 sigma
        assert m_large > 1e-6

    def test_orientation_dataset_mirror_symmetric(self):
        # L_n depends on theta through (L cos theta)^2 and Delta z = -L sin
        # theta only, so the concurrence dataset is symmetric under
        # theta -> pi - theta and matches at the period endpoints 0, pi
        cfg = SweepConfig(
            topology=TopologyKind.CYLINDER,
            ell=(1.0,),
            omega=GridAxis(0.5, 0.5, 1),
            l=GridAxis(0.6, 0.6, 1),
            theta=GridAxis(0.0, math.pi, 21),
        )
        conc = [r["concurrence_leading"] for r in run_sweep(cfg)]
        assert conc[0] == pytest.approx(conc[-1], rel=1e-12)
        for i in range(len(conc)):
            assert conc[i] == pytest.approx(conc[-1 - i], rel=1e-12)

    def test_label_swap_leaves_correlation_invariant(self):
        # corr is symmetric in the two detectors even on the twisted
        # cylinder where a != b
        p = DetectorParams(omega=0.5, sigma=1.0)
        top = Topology.twisted_cylinder(1.0)
        pair = WorldlinePair((0.1, 0.0), (0.6, 0.0), 0.0, 0.0)
        swapped = WorldlinePair((0.6, 0.0), (0.1, 0.0), 0.0, 0.0)
        corr1 = xstate_measures(elements_for(p, pair, top), 0.01).corr
        corr2 = xstate_measures(elements_for(p, swapped, top), 0.01).corr
        assert corr1 == pytest.approx(corr2, rel=1e-12)


class TestVerification:
    def test_passes_on_clean_build(self):
        report = run_verification(SMALL_MINK)
        assert report.passed
        assert report.max_deviation < 1e-8

    def test_quotient_includes_image_terms(self):
        from dataclasses import replace

        cfg = replace(
            SMALL_CYL, omega=GridAxis(0.5, 0.5, 1), l=GridAxis(1.0, 1.0, 1)
        )
        report = run_verification(cfg)
        assert report.passed
        assert all("dev_image" in r for r in report.rows)

    def test_fault_injection_detected(self, monkeypatch):
        original = udwpair.elements.nonlocal_array

        def corrupted(y, r):
            return original(y, r) + 1e-3

        monkeypatch.setattr(udwpair.elements, "nonlocal_array", corrupted)
        report = run_verification(SMALL_MINK)
        assert not report.passed
        assert report.max_deviation > 1e-4

    @pytest.mark.parametrize(
        "axes",
        [
            ["--omega-range", "-2:2:5", "--l-range", "0.5:4:4"],
            ["--omega-range", "4:24:21", "--l-range", "0.5:10:8"],
            ["--omega-range", "-24:-4:21", "--l-range", "0.5:10:8"],
        ],
        ids=["readme", "large-gaps", "large-negative-gaps"],
    )
    def test_relative_x_fault_detected_at_every_gap(self, monkeypatch, axes):
        # x is checked relative to |x|: a 1e-3 relative fault (9.99e-4 of the
        # faulty x) fails the run where |x| ~ e^{-y^2} is far below 1 (a
        # factor of 2 passed on the large-gap grids when x was checked
        # relative to max(1, |x|))
        assert CliRunner().invoke(main, ["verify", *axes]).exit_code == 0
        original = udwpair.elements.nonlocal_array
        monkeypatch.setattr(
            udwpair.elements, "nonlocal_array", lambda y, r: original(y, r) * (1.0 + 1e-3)
        )
        result = CliRunner().invoke(main, ["verify", *axes])
        assert result.exit_code == 2
        assert result.stderr.startswith("verify: FAIL (max deviation 9.990e-04")


def _reference_oracle_devs(cfg, row):
    """Oracle deviations of one row from the public scalar functions, point
    by point: the Minkowski a, x, c at the row's separation and, on a
    quotient, x and c at the images 1, -1, 2, -2; each of x relative to
    |x| (at least the smallest normal float), each other one to
    max(1, |closed form|)."""

    def dev(closed, oracle, floor=1.0):
        return abs(closed - oracle) / max(floor, abs(closed))

    def dev_x(closed, oracle):
        return dev(closed, oracle, sys.float_info.min)

    p = DetectorParams(omega=row["omega"], sigma=1.0)
    pair = WorldlinePair((cfg.d_a, 0.0), (row["d_b_x"], 0.0), 0.0, row["z_b"])
    lsep = separation(pair)
    mink = elements_for(p, pair, Topology.minkowski())
    devs = {
        "a": dev(mink.a, oracle_a(p)),
        "x": dev_x(mink.x, oracle_x(p, lsep)),
        "c": dev(mink.c, oracle_c(p, lsep)),
        "image": 0.0,
    }
    if cfg.topology is not TopologyKind.MINKOWSKI:
        topology = cfg.topology_for(row["ell"])
        for n in (1, -1, 2, -2):
            l_n = float(image_separation_array(topology, pair, n))
            term = elements_for(p, WorldlinePair((0.0, 0.0), (l_n, 0.0)), Topology.minkowski())
            devs["image"] = max(
                devs["image"], dev_x(term.x, oracle_x(p, l_n)), dev(term.c, oracle_c(p, l_n))
            )
    return devs


#: Small grids off theta = 0, where the images n and -n lie at different
#: separations, on every topology.
ORACLE_GRIDS = {
    "minkowski": SweepConfig(
        omega=GridAxis(-1.0, 2.0, 2), l=GridAxis(0.4, 3.0, 2), theta=GridAxis(0.3, 1.1, 2)
    ),
    "cylinder": SweepConfig(
        topology=TopologyKind.CYLINDER, ell=(1.0,),
        omega=GridAxis(-1.0, 2.0, 2), l=GridAxis(0.4, 3.0, 2), theta=GridAxis(0.3, 1.1, 2),
    ),
    "twisted": SweepConfig(
        topology=TopologyKind.TWISTED_CYLINDER, ell=(1.0,), eta=-1, d_a=0.1,
        omega=GridAxis(-1.0, 2.0, 2), l=GridAxis(0.4, 3.0, 2), theta=GridAxis(0.3, 1.1, 2),
    ),
}

#: 3 gaps x 4 separations on the cylinder at theta = 0, where the images n
#: and -n coincide: per point a, x and c at L, l_1 = l_-1 and l_2 = l_-2.
COUNT_GRID = SweepConfig(
    topology=TopologyKind.CYLINDER, ell=(1.0,),
    omega=GridAxis(-1.0, 1.0, 3), l=GridAxis(0.5, 1.7, 4),
)


#: B on the image n = -1 of A (r = 6e-17 from cos(pi/2)).
COINCIDENT = SweepConfig(
    topology=TopologyKind.CYLINDER, ell=(1.0,),
    omega=GridAxis(0.5, 0.5, 1), l=GridAxis(1.0, 1.0, 1),
    theta=GridAxis(math.pi / 2, math.pi / 2, 1),
)


class TestOraclePath:
    """verify and sweep --oracle: one oracle_batch call per slab, with two
    quadrature passes, the rows exactly as the scalar functions give them
    point by point."""

    @pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
    def test_verify_rows_match_scalar_reference(self, name):
        cfg = ORACLE_GRIDS[name]
        report = run_verification(cfg)
        assert report.passed and len(report.rows) == 8
        for row in report.rows:
            want = _reference_oracle_devs(cfg, row)
            assert row["error"] == ""
            assert row["dev_a"] == want["a"] and row["dev_x"] == want["x"]
            assert row["dev_c"] == want["c"] and row["dev_image"] == want["image"]
            assert row["max_dev"] == max(want.values())
        if name != "minkowski":
            assert any(r["dev_image"] > 0.0 for r in report.rows)

    @pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
    def test_oracle_sweep_rows_match_scalar_reference(self, name):
        from dataclasses import replace

        cfg = replace(ORACLE_GRIDS[name], oracle=True)
        for row in run_sweep(cfg):
            want = _reference_oracle_devs(cfg, row)
            assert row["error"] == ""
            assert row["oracle_dev_a"] == want["a"]
            assert row["oracle_dev_x"] == want["x"]
            assert row["oracle_dev_c"] == want["c"]

    @staticmethod
    def _refined_rows(monkeypatch) -> list[int]:
        """The rows of each call of ``udwpair.wightman._refine``, the
        quadratures that an oracle_batch call integrates."""
        rows = []
        original = udwpair.wightman._refine

        def counted(sums, intervals, **kwargs):
            rows.append(len(intervals))
            return original(sums, intervals, **kwargs)

        monkeypatch.setattr(udwpair.wightman, "_refine", counted)
        return rows

    def test_each_slab_integrates_its_distinct_rows_once(self, monkeypatch):
        from dataclasses import replace

        rows = self._refined_rows(monkeypatch)
        assert run_verification(COUNT_GRID).passed
        # one self-term row per |gap| (0 and 1), and one pole pairing row per
        # |gap| and separation: L, l_1 = l_-1 and l_2 = l_-2 at 4 lengths;
        # the x rows are the rows at gap 0
        assert rows == [2, 2 * 12]
        rows.clear()
        # nothing carries over from one block to the next
        assert run_verification(replace(COUNT_GRID, ell=(1.0, 2.0))).passed
        assert rows == [2, 2 * 12] * 2

    def test_minkowski_oracle_sweep_evaluates_each_slab_once(self, monkeypatch):
        # on Minkowski the sweep's elements are the oracle's: one
        # elements_batch call per slab, and the deviations those of verify,
        # which evaluates its Minkowski elements on its own
        monkeypatch.setattr(sweep_mod, "SLAB_POINTS", SMALL_SLAB)
        calls = []
        original = sweep_mod.elements_batch

        def counting(y, *args, **kwargs):
            calls.append(np.shape(y))
            return original(y, *args, **kwargs)

        monkeypatch.setattr(sweep_mod, "elements_batch", counting)
        cfg = config_from_mapping({**SLAB_GRIDS["minkowski"], "oracle": "true"})
        swept = run_sweep(cfg)
        # 7 omega rows in slabs of 3, 3 and 1
        assert calls == [(3, 1), (3, 1), (1, 1)]
        report = run_verification(cfg)
        assert report.passed
        for key in ("a", "x", "c"):
            got, want = swept.columns[f"oracle_dev_{key}"], report.rows.columns[f"dev_{key}"]
            assert got.tobytes() == want.tobytes()

    def test_failing_integral_fails_only_its_rows(self, monkeypatch):
        from dataclasses import replace

        from udwpair import ConvergenceError

        original = udwpair.wightman._pole_rows
        bad_r = float(COUNT_GRID.l.values()[1])

        def flaky(mags, seps, keys, *args, **kwargs):
            # the rows (|gap|, r) of the pole pairing: the x rows at r are
            # those at gap 0
            values, errors = original(mags, seps, keys, *args, **kwargs)
            at_r = seps[keys % seps.size] == bad_r
            errors[at_r] = ConvergenceError("no luck at r = 0.9")
            return values, errors

        monkeypatch.setattr(udwpair.wightman, "_pole_rows", flaky)
        cfg = replace(COUNT_GRID, topology=TopologyKind.MINKOWSKI, ell=())
        report = run_verification(cfg)
        swept = run_sweep(replace(cfg, oracle=True))
        assert not report.passed
        for rows, key in ((report.rows, "dev_c"), (swept, "oracle_dev_c")):
            for row in rows:
                if row["l"] == bad_r:
                    assert row["error"] == "ConvergenceError: no luck at r = 0.9"
                    assert math.isnan(row[key])
                else:
                    assert row["error"] == "" and row[key] < 1e-8
        assert sum(r["error"] != "" for r in report.rows) == 3

    def test_first_failing_integral_names_the_error(self, monkeypatch):
        # a point takes the error of its first failing integral in the order
        # a, then x and c of the Minkowski term and of each image in turn
        from udwpair import ConvergenceError

        l_1, l_2, l_3 = (float(v) for v in COUNT_GRID.l.values()[1:])
        topology = COUNT_GRID.topology_for(1.0)

        def image(length, n):
            pair = WorldlinePair((0.0, 0.0), (length, 0.0))
            return float(image_separation_array(topology, pair, n))

        x_bad = {image(l_1, 1), l_2, l_3}
        c_bad = {l_1, image(l_2, 2), l_3}
        original = udwpair.wightman._pole_rows

        def flaky(mags, seps, keys, *args, **kwargs):
            # the x rows are the rows at gap 0, which the c rows at gap 0
            # share: a row there fails as x where its r is in x_bad
            values, errors = original(mags, seps, keys, *args, **kwargs)
            gap, r = mags[keys // seps.size], seps[keys % seps.size]
            for k in range(keys.size):
                if gap[k] == 0.0 and r[k] in x_bad:
                    errors[k] = ConvergenceError("x")
                elif r[k] in c_bad:
                    errors[k] = ConvergenceError("c")
            return values, errors

        monkeypatch.setattr(udwpair.wightman, "_pole_rows", flaky)
        report = run_verification(COUNT_GRID)
        want = {l_1: "c", l_2: "x", l_3: "x"}
        assert [r["error"] for r in report.rows] == [
            f"ConvergenceError: {want[r['l']]}" if r["l"] in want else "" for r in report.rows
        ]

    @pytest.mark.parametrize("lengths", ["1:1:1", "1:1e12:3"])
    def test_oracle_only_failure_keeps_the_closed_forms(self, lengths):
        # gaps over ORACLE_GAP_LIMIT at -845, -790.67 and -736.33, and
        # separations over ORACLE_NODE_BUDGET, where the closed forms hold
        def rows(*command):
            args = [*command, "--omega-range", "-845:-682:4", "--l-range", lengths,
                    "--format", "jsonl"]
            return [json.loads(line) for line in CliRunner().invoke(main, args).stdout.splitlines()]

        plain, oracle = rows("sweep"), rows("sweep", "--oracle")
        a = {row["omega"]: row["a"] for row in plain}
        assert a[-790.6666666666666] == pytest.approx(223.04, abs=0.01)
        assert a[-736.3333333333334] == pytest.approx(207.72, abs=0.01)
        for want, row in zip(plain, oracle, strict=True):
            assert want["error"] == ""
            # the closed-form and measure columns bit for bit (JSON floats
            # read back exactly)
            assert {key: row[key] for key in want if key != "error"} == {
                key: value for key, value in want.items() if key != "error"
            }
            # the node budget covers separations up to 1512 sigma
            if row["omega"] < -ORACLE_GAP_LIMIT or row["l"] > 1512.0:
                assert row["error"].startswith("DomainError: ")
                assert row["oracle_dev_a"] is row["oracle_dev_x"] is row["oracle_dev_c"] is None
            else:
                assert row["error"] == "" and row["oracle_dev_a"] < 1e-6

    def test_coincident_image_fails_before_any_quadrature(self, monkeypatch):
        calls = []

        def forbidden(*args, **kwargs):
            calls.append(args)
            raise AssertionError("quadrature at a coincident image")

        for name in ("_self_terms", "_pole_rows"):
            monkeypatch.setattr(udwpair.wightman, name, forbidden)
        report = run_verification(COINCIDENT)
        assert not report.passed and not calls
        (row,) = report.rows
        assert row["error"].startswith(
            "GeometryError: detector B sits on image n = -1 of detector A"
        )


class TestCli:
    def test_sweep_stdout_csv(self):
        result = CliRunner().invoke(
            main,
            ["sweep", "--omega-range", "0:1:2", "--l-range", "1:2:2"],
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("topology,")

    def test_validation_error_exit_code(self):
        result = CliRunner().invoke(main, ["sweep", "--l-range", "0:2:2"])
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "topology", [[], ["--topology", "cylinder", "--ell", "1"], ["--topology", "twisted", "--ell", "1"]]
    )
    def test_rounded_away_separation_has_one_message(self, topology):
        # d_a + L rounds to d_a, so L = 0 on every topology
        result = CliRunner().invoke(
            main,
            ["sweep", *topology, "--d-a", "0.1", "--l-range", "1e-18:1e-18:1", "--omega-range", "1:1:1"],
        )
        assert result.exit_code == 0
        (row,) = csv.DictReader(io.StringIO(result.output))
        assert row["error"] == "GeometryError: separation must be finite and > 0, got 0.0"

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("omega = 0:1:2\nl = 1:2:2\nformat = csv\n")
        result = CliRunner().invoke(
            main,
            ["show-config", "--config", str(cfg), "--format", "jsonl"],
        )
        assert result.exit_code == 0
        assert "format = jsonl" in result.output
        assert "omega = 0:1:2" in result.output

    def test_bad_ell_flag_is_a_validation_error(self):
        result = CliRunner().invoke(main, ["sweep", "--topology", "cylinder", "--ell", "abc"])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stderr == "error: ell: could not convert string to float: 'abc'\n"

    def test_nmax_beyond_its_bound_is_a_validation_error(self):
        # the image sums build a list of 2 nmax image numbers: the bound
        # keeps it small, and a list beyond the C ssize_t range cannot be
        # built at all
        assert config_from_mapping({"nmax": str(NMAX_LIMIT)}).nmax == NMAX_LIMIT
        for nmax in (NMAX_LIMIT + 1, 99999999999999999999):
            result = CliRunner().invoke(
                main,
                ["sweep", "--topology", "cylinder", "--ell", "1", "--nmax", str(nmax),
                 "--omega-range", "0:0:1", "--l-range", "1:1:1"],
            )
            assert result.exit_code == 1
            assert result.exception is None or isinstance(result.exception, SystemExit)
            assert result.stderr == f"error: nmax must be <= 1000000, got {nmax}\n"

    @pytest.mark.parametrize(
        "command",
        [["sweep"], ["verify"], ["diffmap", "--topology", "cylinder", "--ell", "1"], ["show-config"]],
    )
    def test_detector_b_beyond_the_float_range_is_a_validation_error(self, command):
        # d_b_x = d_a + L would be inf, which a JSONL row cannot hold
        result = CliRunner().invoke(main, [
            *command, "--format", "jsonl", "--omega-range", "0:0:1", "--d-a", "1e308",
            "--l-range", "1e308:1e308:1",
        ])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == (
            "error: |d_a| + L must be finite: d_a = 1e+308 and L up to 1e+308 place "
            "detector B beyond the float range\n"
        )

    @pytest.mark.parametrize(
        "command, ell, n",
        [("sweep", "1e308", 10), ("verify", "1e308", 2), ("diffmap", "1e308", 10),
         ("sweep", "1.8e307", 10), ("sweep", "0.5,1.8e307", 10)],
    )
    def test_image_beyond_the_float_range_is_a_validation_error(self, command, ell, n):
        # image n lies at n ell: the farthest one a run sums overflows
        result = CliRunner().invoke(main, [
            command, "--topology", "cylinder", "--ell", ell, "--omega-range", "0:0:1",
            "--l-range", "1:1:1",
        ])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == (
            f"error: ell = {float(ell.split(',')[-1])!r}: the farthest image summed, "
            f"n = {n}, lies at n ell beyond the float range\n"
        )
        assert "Traceback" not in result.stderr

    #: runs whose summed images leave the float range at a coordinate that
    #: n ell alone does not show: the command, its grid, and the error line
    IMAGE_COORDINATES = [
        (
            ["sweep", "--topology", "cylinder", "--ell", "1.7e307", "--l-range", "1e308:1e308:1",
             "--theta-range", "1.5707963267948966:1.5707963267948966:1"],
            "ell = 1.7e+307 and L up to 1e+308: the farthest image summed, n = 10, lies at "
            "z_b +- n ell beyond the float range",
        ),
        (
            ["sweep", "--topology", "twisted", "--ell", "1", "--d-a", "9e307",
             "--l-range", "5e307:5e307:1"],
            "d_a = 9e+307 and L up to 5e+307: the images summed up to n = 10 lie, where n is "
            "odd, across the axis at d_a + d_b_x beyond the float range",
        ),
        (
            ["verify", "--topology", "twisted", "--ell", "1", "--d-a", "9e307",
             "--l-range", "5e307:5e307:1"],
            "d_a = 9e+307 and L up to 5e+307: the images summed up to n = 2 lie, where n is "
            "odd, across the axis at d_a + d_b_x beyond the float range",
        ),
        (
            ["sweep", "--topology", "twisted", "--ell", "1", "--l-range", "1e308:1e308:1"],
            "d_a = 0.0 and L up to 1e+308: the images summed up to n = 10 lie, where n is "
            "odd, across the axis at 2 d_b_x beyond the float range",
        ),
    ]

    @pytest.mark.parametrize(
        "argv, error", IMAGE_COORDINATES,
        ids=["cylinder-z", "twisted-across", "verify-twisted-across", "twisted-own"],
    )
    def test_image_coordinate_beyond_the_float_range_is_a_validation_error(
        self, tmp_path, argv, error
    ):
        # each row would be a GeometryError that blames an infinite separation
        out = tmp_path / "rows.csv"
        result = CliRunner().invoke(main, [*argv, "--omega-range", "0:0:1", "--out", str(out)])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == f"error: {error}\n"
        assert not out.exists()

    def test_image_coordinates_within_the_float_range_run(self):
        # at theta = 0, z_b = 0: the farthest image lies at 10 ell = 1e308
        result = CliRunner().invoke(main, [
            "sweep", "--topology", "cylinder", "--ell", "1e307", "--l-range", "1e308:1e308:1",
            "--omega-range", "0:0:1",
        ])
        assert result.exit_code == 0
        (row,) = csv.DictReader(io.StringIO(result.stdout))
        assert row["error"] == ""

    def test_farthest_image_at_the_float_range_runs(self):
        # 10 x 1.7e307 is finite: every image past the first is negligible
        grid = ["--omega-range", "0:0:1", "--l-range", "1:1:1"]
        cyl = CliRunner().invoke(main, ["sweep", "--topology", "cylinder", "--ell", "1.7e307", *grid])
        mink = CliRunner().invoke(main, ["sweep", *grid])
        assert cyl.exit_code == mink.exit_code == 0
        (row,), (row_m,) = (list(csv.DictReader(io.StringIO(r.stdout))) for r in (cyl, mink))
        assert row["error"] == ""
        for key in ("a", "b", "x_re", "x_im", "c_re", "e", "negativity"):
            assert row[key] == row_m[key]

    def test_grid_at_its_bound_resolves(self):
        # validation only: a 1024 x 1024 grid is the largest a run takes
        cfg = config_from_mapping({"omega": "0:1:1024", "l": "1:2:1024"})
        assert cfg.omega.count * cfg.l.count == GRID_POINT_LIMIT

    @pytest.mark.parametrize(
        "axes, points",
        [
            (["--omega-range", "0:0:99999999999999999999"], 64 * 99999999999999999999),
            (["--omega-range", "0:1:100000", "--l-range", "1:2:100000"], 10**10),
            (["--omega-range", "0:1:1024", "--l-range", "1:2:1025"], 1024 * 1025),
            (["--topology", "cylinder", "--ell", "1,2", "--omega-range", "0:1:1024",
              "--l-range", "1:2:1024"], 2 * 1024 * 1024),
        ],
    )
    @pytest.mark.parametrize("command", ["sweep", "diffmap", "verify", "show-config"])
    def test_grid_beyond_its_bound_is_a_validation_error(self, command, axes, points):
        # refused before an axis is allocated: such a run is never started
        result = CliRunner().invoke(main, [command, *axes])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stderr == (
            f"error: the grid has {points} points (omega x l x theta x ell), more than "
            f"the {GRID_POINT_LIMIT} a run takes\n"
        )

    @pytest.mark.parametrize("command", [["verify"], ["sweep", "--oracle"]])
    def test_oracle_at_a_gap_whose_square_overflows(self, command):
        # (Omega sigma)^2 overflows a float: the oracle's envelope is 0 there,
        # and the point records an error instead of aborting the run
        result = CliRunner().invoke(
            main, [*command, "--omega-range", "2e154:2e154:1", "--l-range", "1:1:1"]
        )
        assert result.exit_code in (0, 1, 2)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.stderr
        (row,) = csv.DictReader(io.StringIO(result.stdout))
        assert row["error"].split(":")[0] in _udw_error_names()

    @settings(max_examples=100, deadline=None)
    @given(
        command=st.sampled_from([["verify"], ["sweep", "--oracle"], ["sweep"], ["diffmap"]]),
        omega=_axis(_FUZZ_GAPS),
        lengths=_axis(_FUZZ_MAGNITUDES),
        topology=st.sampled_from(_FUZZ_TOPOLOGIES),
        fmt=st.sampled_from(["csv", "jsonl"]),
    )
    def test_oracle_entry_points_do_not_crash(self, command, omega, lengths, topology, fmt):
        # every evaluating command, the oracle's and the others, on grids
        # of at most 3 x 3 from signed zeros, subnormals, values up to 1e308
        # and both sides of the oracle's gap limit and node budget
        args = [*command, *topology, "--omega-range", omega, "--l-range", lengths,
                "--format", fmt]
        result = CliRunner().invoke(main, args)
        assert result.exit_code in (0, 1, 2), (args, result.exc_info)
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            args, result.exc_info
        )
        assert "Traceback" not in result.stderr
        if result.exit_code != 1:
            if fmt == "jsonl":
                rows = [json.loads(line) for line in result.stdout.splitlines()]
            else:
                rows = list(csv.DictReader(io.StringIO(result.stdout)))
            for row in rows:
                assert row["error"] == "" or row["error"].split(":")[0] in _udw_error_names()
        for line in result.stderr.splitlines():
            if line.startswith("verify:"):
                assert "nan" not in line, (args, line)

    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(["sweep", "diffmap", "verify", "show-config"]),
        config=_config_file(),
        out=st.sampled_from([None, "fresh", "directory", "below a file"]),
    )
    def test_config_files_and_out_paths_do_not_crash(self, command, config, out):
        # a raw --config file, with small omega and l axes as flags over it,
        # and an --out path that is fresh, an existing directory or below a
        # regular file: exit 0, 1 or 2 without a traceback, and every row
        # written, to stdout or to a file, names a UdwError in its error
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "run.cfg").write_bytes(config)
            (root / "afile").write_bytes(b"")
            outputs = root / "outputs"
            outputs.mkdir()
            paths = {
                "fresh": outputs / "new" / "rows.out",
                "directory": outputs,
                "below a file": root / "afile" / "rows.out",
            }
            args = [command, "--config", str(root / "run.cfg"),
                    "--omega-range", "-1:1:2", "--l-range", "0.5:2:2"]
            if out is not None:
                args += ["--out", str(paths[out])]
            result = CliRunner().invoke(main, args, env={OUTPUT_DIR_ENV: str(outputs)})
            assert result.exit_code in (0, 1, 2), (args, config, result.exc_info)
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                args, config, result.exc_info
            )
            assert "Traceback" not in result.stderr
            if result.exit_code == 1:
                assert result.stderr.startswith("error: ")
            for line in result.stderr.splitlines():
                if line.startswith("verify:"):
                    assert "nan" not in line, (args, config, line)
            texts = [p.read_text(encoding="utf-8") for p in outputs.rglob("*") if p.is_file()]
            if command != "show-config":
                texts.append(result.stdout)
            for text in filter(None, texts):
                if text.startswith("{"):
                    rows = [json.loads(line) for line in text.splitlines()]
                else:
                    rows = list(csv.DictReader(io.StringIO(text)))
                for row in rows:
                    assert row["error"] == "" or row["error"].split(":")[0] in _udw_error_names()

    def test_show_config_round_trips(self, tmp_path):
        args = [
            "--topology", "twisted", "--ell", "0.123456789,1e-07,3.0000000000000004",
            "--eta", "-1", "--d-a", "0.1", "--eps0", "0.0012345678901234567",
            "--omega-range", "-0.30000000000000004:2.5e-12:3",
            "--l-range", "0.1:0.7000000000000001:4",
            "--theta-range", "0:3.141592653589793:2", "--nmax", "7",
            "--oracle", "--format", "jsonl",
        ]
        result = CliRunner().invoke(main, ["show-config", *args])
        assert result.exit_code == 0
        assert "ell = 0.123456789,1e-07,3.0000000000000004\n" in result.output
        assert "theta = 0:3.141592653589793:2\n" in result.output
        path = tmp_path / "shown.cfg"
        path.write_text(result.output)
        expected = SweepConfig(
            topology=TopologyKind.TWISTED_CYLINDER,
            ell=(0.123456789, 1e-7, 3.0000000000000004),
            eta=-1,
            omega=GridAxis(-0.30000000000000004, 2.5e-12, 3),
            l=GridAxis(0.1, 0.7000000000000001, 4),
            theta=GridAxis(0.0, math.pi, 2),
            d_a=0.1,
            eps0=0.0012345678901234567,
            nmax=7,
            oracle=True,
            fmt="jsonl",
        )
        assert config_from_mapping(parse_config_file(str(path))) == expected
        again = CliRunner().invoke(main, ["show-config", "--config", str(path)])
        assert again.output == result.output

    def test_verify_exit_codes(self, monkeypatch):
        args = [
            "verify",
            "--omega-range", "0:1:2",
            "--l-range", "1:1:1",
        ]
        ok = CliRunner().invoke(main, args)
        assert ok.exit_code == 0

        original = udwpair.elements.nonlocal_array
        monkeypatch.setattr(
            udwpair.elements,
            "nonlocal_array",
            lambda y, r: original(y, r) + 1e-3,
        )
        bad = CliRunner().invoke(main, args)
        assert bad.exit_code == 2

    def test_quotient_warnings_are_one_line_each(self):
        flags = {"topology": "cylinder", "ell": "0.5,1", "omega": "-3:3:5", "l": "1:1:1"}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            table = run_sweep(config_from_mapping(flags))
        assert len(caught) == 2
        args = ["sweep", "--topology", "cylinder", "--ell", "0.5,1", "--omega-range", "-3:3:5",
                "--l-range", "1:1:1"]
        with warnings.catch_warnings():
            warnings.simplefilter("default")  # as in a fresh interpreter
            result = CliRunner().invoke(main, args)
        assert result.exit_code == 0
        # no file path, line number or source line of the code that warned
        assert result.stderr.splitlines() == [
            f"udwpair: TruncationWarning: {w.message}" for w in caught
        ]
        assert result.stdout == rows_to_csv(table)

    def test_verify_summary_ends_at_the_tolerance(self):
        result = CliRunner().invoke(
            main, ["verify", "--omega-range", "0:1:2", "--l-range", "1:1:1"]
        )
        assert result.exit_code == 0
        assert result.stderr.startswith("verify: PASS (max deviation ")
        assert result.stderr.endswith(", tolerance 1e-06)\n")

    def test_verify_at_a_small_separation(self):
        result = CliRunner().invoke(
            main, ["verify", "--omega-range", "0:0:1", "--l-range", "0.001:0.001:1"]
        )
        assert result.exit_code == 0, result.stderr
        assert result.stderr.startswith("verify: PASS (max deviation ")

    @pytest.mark.parametrize("topology", [[], ["--topology", "cylinder", "--ell", "1"]])
    @pytest.mark.parametrize("length", ["1e-11", "1e-12"])
    def test_verify_at_tiny_separations(self, topology, length):
        # |x| ~ sigma/(8 pi L) is about 1e9 here: deviations are relative
        # to max(1, |closed form|), so one ulp of x does not fail the run
        args = ["verify", *topology, "--omega-range", "0.5:0.5:1",
                "--l-range", f"{length}:{length}:1"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.stderr
        assert result.stderr.startswith("verify: PASS (max deviation ")

    def test_verify_at_a_tiny_separation_still_sees_a_relative_fault(self, monkeypatch):
        original = udwpair.elements.nonlocal_array

        def corrupted(y, r):
            return original(y, r) * (1.0 + 1e-3)

        monkeypatch.setattr(udwpair.elements, "nonlocal_array", corrupted)
        result = CliRunner().invoke(
            main, ["verify", "--omega-range", "0.5:0.5:1", "--l-range", "1e-11:1e-11:1"]
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("verify: FAIL (max deviation 9.99")

    def test_coincident_image_cli(self):
        args = [
            "--topology", "cylinder", "--ell", "1", "--omega-range", "0.5:0.5:1",
            "--l-range", "1:1:1",
            "--theta-range", "1.5707963267948966:1.5707963267948966:1",
        ]
        swept = CliRunner().invoke(main, ["sweep", "--format", "jsonl", *args])
        assert swept.exit_code == 0
        assert json.loads(swept.stdout)["error"].startswith("GeometryError: detector B")
        verified = CliRunner().invoke(main, ["verify", "--format", "jsonl", *args])
        assert verified.exit_code == 2
        assert json.loads(verified.stdout)["error"].startswith("GeometryError: detector B")

    def test_jobs_is_gone(self):
        assert CliRunner().invoke(main, ["sweep", "--jobs", "1"]).exit_code == 2
        with pytest.raises(ConfigError, match="unknown configuration key 'jobs'"):
            config_from_mapping({"jobs": "1"})

    def test_sigma_key_is_rejected(self, tmp_path):
        # every input is in units of sigma, so no value but 1 has a meaning
        path = tmp_path / "run.cfg"
        path.write_text("sigma = 2\n")
        result = CliRunner().invoke(main, ["sweep", "--config", str(path)])
        assert result.exit_code == 1
        assert result.stderr == "error: unknown configuration key 'sigma'\n"

    def test_each_key_has_one_option_and_one_show_config_line(self):
        keys = sorted(udwpair.config._PARSERS)
        for command in ("sweep", "diffmap", "verify", "show-config"):
            params = main.commands[command].params
            assert sorted(p.name for p in params if p.name != "config_path") == keys
        shown = CliRunner().invoke(main, ["show-config"]).output.splitlines()
        assert sorted(line.split(" = ")[0] for line in shown) == keys

    def test_out_file_and_env_dir(self, tmp_path):
        env = {OUTPUT_DIR_ENV: str(tmp_path)}
        result = CliRunner().invoke(
            main,
            [
                "sweep",
                "--omega-range", "0:1:2",
                "--l-range", "1:2:2",
                    "--out", "rows.csv",
            ],
            env=env,
        )
        assert result.exit_code == 0
        written = tmp_path / "rows.csv"
        assert written.exists()
        assert written.read_text().startswith("topology,")

    @pytest.mark.parametrize("where", ["below a file", "a directory"])
    @pytest.mark.parametrize("command", ["sweep", "diffmap", "verify"])
    def test_out_path_that_cannot_be_opened_is_an_error(self, tmp_path, command, where):
        # a path below a regular file cannot be created and a directory
        # cannot be written: one error line that names the path, exit 1
        (tmp_path / "afile").write_text("")
        named = tmp_path / "afile" if where == "below a file" else tmp_path
        out = named / "x.csv" if where == "below a file" else named
        topology = ["--topology", "cylinder", "--ell", "1"] if command == "diffmap" else []
        result = CliRunner().invoke(
            main,
            [command, *topology, "--omega-range", "0:0:1", "--l-range", "1:1:1", "--out", str(out)],
        )
        assert result.exit_code == 1, result.exc_info
        assert result.exception is None or isinstance(result.exception, SystemExit)
        (line,) = result.stderr.splitlines()
        assert line.startswith("error: [Errno ") and line.endswith(f": {str(named)!r}")
        assert result.stdout == ""

    @pytest.mark.parametrize("command", ["sweep", "show-config"])
    def test_unreadable_config_file_is_an_error(self, tmp_path, monkeypatch, command):
        # reading /proc/self/mem, for one, fails with EIO after click has
        # checked that the file exists
        def unreadable(path):
            raise OSError(5, "Input/output error", path)

        monkeypatch.setattr(udwpair.cli, "parse_config_file", unreadable)
        path = tmp_path / "run.cfg"
        path.write_text("")
        result = CliRunner().invoke(main, [command, "--config", str(path)])
        assert result.exit_code == 1, result.exc_info
        assert result.stderr == f"error: [Errno 5] Input/output error: {str(path)!r}\n"

    def test_closed_stdout_exits_quietly(self):
        # a reader that stops early (``| head``) closes the pipe: exit 1
        # with nothing on stderr, as click handles it, not an error line
        src = str(Path(udwpair.config.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "udwpair.cli", "sweep",
             "--omega-range", "-3:3:64", "--l-range", "1:2:64"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
        )
        proc.stdout.read(100)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert stderr == b""

    def test_diffmap_cli(self):
        result = CliRunner().invoke(
            main,
            [
                "diffmap",
                "--topology", "cylinder",
                "--ell", "1.0",
                "--omega-range", "0:1:2",
                "--l-range", "1:2:2",
                    "--format", "jsonl",
            ],
        )
        assert result.exit_code == 0
        row = json.loads(result.output.strip().splitlines()[0])
        assert "corr_diff" in row


#: Grids of each topology whose ell blocks span several slabs of at most
#: SMALL_SLAB points (three omega rows of five points, or one of ten), as
#: configuration keys
SMALL_SLAB = 16
SLAB_GRIDS = {
    "minkowski": {"omega": "-2:2:7", "l": "0.4:3:5"},
    "cylinder": {"topology": "cylinder", "ell": "1,2", "omega": "-2:2:7", "l": "0.4:3:5"},
    "twisted": {
        "topology": "twisted", "ell": "1", "eta": "-1", "d_a": "0.1",
        "omega": "-2:2:7", "l": "0.4:3:5", "theta": "0:1:2",
    },
}
_FLAGS = {"omega": "--omega-range", "l": "--l-range", "theta": "--theta-range", "d_a": "--d-a"}
_LIBRARY = {"sweep": run_sweep, "diffmap": run_difference_map}


def _flags(keys: dict) -> list[str]:
    """The CLI flags that set the configuration ``keys``."""
    return [tok for key, value in keys.items() for tok in (_FLAGS.get(key, f"--{key}"), value)]


def _slab_cases():
    for grid, keys in sorted(SLAB_GRIDS.items()):
        for command in ("sweep", "sweep --oracle", "diffmap", "verify"):
            if not (command == "diffmap" and grid == "minkowski"):
                for fmt in ("csv", "jsonl"):
                    yield pytest.param(command, keys, fmt, id=f"{command}-{grid}-{fmt}")


class TestSlabs:
    """The CLI evaluates and writes a run one slab of at most SLAB_POINTS
    points at a time: its bytes, warnings and summaries are those of the
    whole table, and its memory does not grow with the grid."""

    @pytest.mark.parametrize("command, keys, fmt", _slab_cases())
    def test_streamed_bytes_equal_the_library_table(self, monkeypatch, command, keys, fmt):
        name, *extra = command.split()
        cfg = config_from_mapping({**keys, "oracle": "true" if extra else "false"})
        # the library table in one slab per ell block
        if name == "verify":
            report = run_verification(cfg)
            table = report.rows
        else:
            table = _LIBRARY[name](cfg)
        writer = rows_to_csv if fmt == "csv" else rows_to_jsonl
        # the CLI in slabs of at most three omega rows, in chunks of seven
        # rows that straddle the slabs
        monkeypatch.setattr(sweep_mod, "SLAB_POINTS", SMALL_SLAB)
        monkeypatch.setattr(sweep_mod, "CSV_CHUNK_ROWS", 7)
        result = CliRunner().invoke(main, [name, *extra, *_flags(keys), "--format", fmt])
        assert result.exit_code == 0, result.stderr
        assert result.stdout == writer(table)
        if name == "verify":
            assert report.passed and report.error_rows == 0
            assert result.stderr == (
                f"verify: PASS (max deviation {report.max_deviation:.3e}, tolerance 1e-06)\n"
            )

    def test_streamed_bytes_at_the_slab_budget(self, monkeypatch):
        # 6144 points of 96 per omega row: slabs of 42 and 22 rows
        keys = {"omega": "-3:3:64", "l": "0.25:8:96", "format": "jsonl"}
        monkeypatch.setattr(sweep_mod, "SLAB_POINTS", 1 << 30)
        whole = rows_to_jsonl(run_sweep(config_from_mapping({**keys, "oracle": "true"})))
        monkeypatch.undo()
        assert 96 < sweep_mod.SLAB_POINTS < 64 * 96  # several slabs of whole rows
        result = CliRunner().invoke(main, ["sweep", "--oracle", *_flags(keys)])
        assert result.exit_code == 0
        assert result.stdout == whole

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_each_write_is_one_chunk(self, monkeypatch, fmt):
        monkeypatch.setattr(sweep_mod, "SLAB_POINTS", SMALL_SLAB)
        monkeypatch.setattr(sweep_mod, "CSV_CHUNK_ROWS", 7)
        writes = []

        class Recording:
            def write(self, text):
                writes.append(text)

        cfg = config_from_mapping(SLAB_GRIDS["cylinder"])
        sweep_mod.write_rows(sweep_mod.sweep_slabs(cfg), fmt, Recording())
        rows = [text.count("\n") for text in writes]
        if fmt == "csv":
            assert rows[0] == 1 and writes[0].startswith("topology,")
            rows = rows[1:]
        # 2 ell blocks x 7 omega rows x 5 points, in slabs of 15 points
        assert rows == [7] * 10

    def test_one_truncation_warning_per_block(self, monkeypatch):
        # 128 omega rows of 64 points: two slabs, whose image sums truncate
        # with different maxima; the block warns once, with its maxima
        args = ["sweep", "--topology", "cylinder", "--ell", "1", "--omega-range", "-3:3:128",
                "--l-range", "0.25:8:64"]
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            streamed = CliRunner().invoke(main, args)
            monkeypatch.setattr(sweep_mod, "SLAB_POINTS", 1 << 30)
            whole = CliRunner().invoke(main, args)
        assert streamed.exit_code == whole.exit_code == 0
        assert streamed.stdout == whole.stdout
        (line,) = streamed.stderr.splitlines()
        assert line.startswith("udwpair: TruncationWarning: image sum truncated at |n| <= 10")
        assert streamed.stderr == whole.stderr

    @pytest.mark.parametrize(
        "command, keys",
        [
            ("sweep", {"l": "0:2:2"}),
            ("diffmap", {}),
            ("verify", {"topology": "cylinder", "ell": "1", "eta": "2"}),
        ],
        ids=["sweep", "diffmap", "verify"],
    )
    def test_configuration_error_leaves_no_output_file(self, tmp_path, command, keys):
        path = tmp_path / "rows.csv"
        result = CliRunner().invoke(main, [command, *_flags(keys), "--out", str(path)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ")
        assert not path.exists()

    @pytest.mark.parametrize("command", ["sweep", "show-config"])
    def test_config_file_not_utf8_is_an_error(self, tmp_path, command):
        config = tmp_path / "utf16.cfg"
        config.write_bytes(b"\xff\xfen\x00m\x00a\x00x\x00")
        path = tmp_path / "rows.csv"
        args = [command, "--config", str(config)] + (["--out", str(path)] if command == "sweep" else [])
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1
        assert result.stderr == f"error: {config}: not UTF-8: byte 0xff at offset 0 (invalid start byte)\n"
        assert result.stdout == "" and not path.exists()

    @pytest.mark.parametrize("extra", [[], ["--oracle"]], ids=["sweep", "oracle"])
    def test_memory_does_not_grow_with_the_grid(self, tmp_path, extra):
        # tracemalloc counts numpy's buffers too; a 64 x 64 grid is one
        # slab and a 256 x 256 grid sixteen
        import tracemalloc

        def peak(n: int) -> int:
            args = ["sweep", *extra, "--omega-range", f"-3:3:{n}",
                    "--l-range", f"0.078125:10:{n}", "--out", str(tmp_path / f"{n}.csv")]
            tracemalloc.start()
            try:
                result = CliRunner().invoke(main, args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0
            return peak

        peak(64)  # imports and cached tables
        small, large = peak(64), peak(256)
        assert large < 1.25 * small, (small, large)
        assert (tmp_path / "256.csv").read_text().count("\n") == 256 * 256 + 1

    @pytest.mark.parametrize(
        "axes, summary",
        [
            # one gap whose square overflows: over the oracle's gap limit
            (["--omega-range", "1:2e154:2", "--l-range", "1:1:1"],
             "verify: FAIL (1 row with an error, the first a DomainError; "
             "max deviation {dev:.3e} over the other rows, tolerance 1e-06)\n"),
            (["--omega-range", "2e154:2e154:1", "--l-range", "1:1:1"],
             "verify: FAIL (1 row with an error, the first a DomainError; "
             "no deviation computed, tolerance 1e-06)\n"),
            # separations over the oracle's node budget
            (["--omega-range", "0:1:2", "--l-range", "1e12:1e12:1"],
             "verify: FAIL (2 rows with errors, the first a DomainError; "
             "no deviation computed, tolerance 1e-06)\n"),
        ],
        ids=["one-of-two", "all", "over-the-node-budget"],
    )
    def test_verify_reports_rows_with_errors(self, axes, summary):
        result = CliRunner().invoke(main, ["verify", *axes])
        report = run_verification(config_from_mapping({"omega": axes[1], "l": axes[3]}))
        assert result.exit_code == 2
        assert result.stderr == summary.format(dev=report.max_deviation)
        assert "nan" not in result.stderr
        first = next(r["error"] for r in report.rows if r["error"])
        assert report.error_rows == sum(r["error"] != "" for r in report.rows)
        assert first.startswith(f"{report.first_error}: ")
