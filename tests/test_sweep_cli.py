"""Sweep engine and CLI: configuration handling, deterministic output,
difference maps, verification (including fault injection), formats, exit
codes, and the output-directory environment variable."""

import csv
import io
import json
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from click.testing import CliRunner
from references import negativity_exact, separation

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
from udwpair.config import NMAX_LIMIT
from udwpair.elements import self_excitation_array
from udwpair.entanglement import Measures
from udwpair.geometry import image_separation_array
from udwpair.sweep import (
    GridAxis,
    SweepConfig,
    config_from_mapping,
    parse_config_file,
    rows_to_csv,
    rows_to_jsonl,
    run_difference_map,
    run_sweep,
    run_verification,
)

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

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(omega=GridAxis(-1.0, 1.0, 0)).validate()

    def test_nonpositive_separation_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(l=GridAxis(0.0, 2.0, 3)).validate()

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

    @pytest.mark.parametrize("length", [1e-10, 1e-100])
    def test_trace_failure_names_its_cause(self, length):
        # |x| ~ 1/L makes E = eps0^4 |x|^2 swamp 1 in r11 + r22 + r33 + r44
        (row,) = run_sweep(SweepConfig(omega=GridAxis(1.0, 1.0, 1), l=GridAxis(length, length, 1)))
        p = DetectorParams(omega=1.0, sigma=1.0, eps0=0.01)
        state = elements_for(p, WorldlinePair((0.0, 0.0), (length, 0.0)), Topology.minkowski())
        with pytest.raises(UdwError) as raised:
            xstate_measures(state, p.eps0)
        assert row["error"] == f"InvalidStateError: {raised.value}"
        big_x = p.eps0**2 * abs(state.x)
        assert row["error"].startswith("InvalidStateError: trace = ")
        assert " differs from 1 because E = r44 = " in row["error"]
        assert row["error"].endswith(f" > 1: |X| = eps0^2 |x| = {big_x!r} is not small")
        assert "np." not in row["error"]

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
            p = DetectorParams(omega=row["omega"], sigma=1.0, eps0=cfg.eps0)
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

        monkeypatch.setattr(udwpair.wightman, "oracle_a_batch", broken)
        cfg = replace(SMALL_MINK, omega=GridAxis(0.0, 1.0, 2), l=GridAxis(1.0, 1.0, 1))
        for row in run_sweep(replace(cfg, oracle=True)):
            assert row["error"] == "ZeroDivisionError: float division by zero"
            assert math.isnan(row["a"]) and math.isnan(row["oracle_dev_a"])
        report = run_verification(cfg)
        assert not report.passed
        assert all(r["error"].startswith("ZeroDivisionError") for r in report.rows)

    def test_failing_pole_pairing_call_is_contained(self, monkeypatch):
        from dataclasses import replace

        def broken(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")

        # the x and c integrals of a block are one call: every row takes
        # its exception, and each of its keys counts as evaluated once
        monkeypatch.setattr(udwpair.wightman, "_oracle_xc_batch", broken)
        cfg = replace(SMALL_MINK, omega=GridAxis(0.0, 1.0, 2), l=GridAxis(1.0, 1.0, 1))
        for row in run_sweep(replace(cfg, oracle=True)):
            assert row["error"] == "ZeroDivisionError: float division by zero"
            assert math.isnan(row["oracle_dev_x"]) and math.isnan(row["oracle_dev_c"])
        report = run_verification(cfg)
        assert not report.passed and report.quadratures == 2 + 1 + 2
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
        p = DetectorParams(omega=0.5, sigma=1.0, eps0=0.01)
        top = Topology.twisted_cylinder(1.0)
        pair = WorldlinePair((0.1, 0.0), (0.6, 0.0), 0.0, 0.0)
        swapped = WorldlinePair((0.6, 0.0), (0.1, 0.0), 0.0, 0.0)
        corr1 = xstate_measures(elements_for(p, pair, top), p.eps0).corr
        corr2 = xstate_measures(elements_for(p, swapped, top), p.eps0).corr
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


def _reference_oracle_devs(cfg, row):
    """Oracle deviations of one row from the public scalar functions, point
    by point: the Minkowski a, x, c at the row's separation and, on a
    quotient, x and c at the images 1, -1, 2, -2; each relative to
    max(1, |closed form|)."""

    def dev(closed, oracle):
        return abs(closed - oracle) / max(1.0, abs(closed))

    p = DetectorParams(omega=row["omega"], sigma=1.0, eps0=cfg.eps0)
    pair = WorldlinePair((cfg.d_a, 0.0), (row["d_b_x"], 0.0), 0.0, row["z_b"])
    lsep = separation(pair)
    mink = elements_for(p, pair, Topology.minkowski())
    devs = {
        "a": dev(mink.a, oracle_a(p)),
        "x": dev(mink.x, oracle_x(p, lsep)),
        "c": dev(mink.c, oracle_c(p, lsep)),
        "image": 0.0,
    }
    if cfg.topology is not TopologyKind.MINKOWSKI:
        topology = cfg.topology_for(row["ell"])
        for n in (1, -1, 2, -2):
            l_n = float(image_separation_array(topology, pair, n))
            term = elements_for(p, WorldlinePair((0.0, 0.0), (l_n, 0.0)), Topology.minkowski())
            devs["image"] = max(
                devs["image"], dev(term.x, oracle_x(p, l_n)), dev(term.c, oracle_c(p, l_n))
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
    """verify and sweep --oracle: each distinct quadrature once per run, the
    rows exactly as the scalar functions give them point by point."""

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
    def _count_calls(monkeypatch, *names):
        """The positional arguments of each call of the ``udwpair.wightman``
        functions ``names``, per name."""
        calls = {name: [] for name in names}
        for name in names:
            original = getattr(udwpair.wightman, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name].append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(udwpair.wightman, name, counted)
        return calls

    def test_each_distinct_integral_once(self, monkeypatch):
        calls = self._count_calls(
            monkeypatch, "oracle_a_batch", "_oracle_xc_batch", "_pole_pairing"
        )
        report = run_verification(COUNT_GRID)
        assert report.passed
        # one block: one self-term call for every gap, and one pole pairing
        # for x and c at L, l_1 and l_2 (l_-1 = l_1 and l_-2 = l_2 add no key)
        assert len(calls["oracle_a_batch"]) == 1
        assert len(calls["_pole_pairing"]) == 1
        a_gaps = [om for (gaps,) in calls["oracle_a_batch"] for om in gaps]
        assert len(a_gaps) == len(set(a_gaps)) == 3
        ((c_gaps, c_seps, x_keys),) = calls["_oracle_xc_batch"]
        assert len(x_keys) == len(set(x_keys)) == 4 * 3
        c_keys = list(zip(c_gaps, c_seps))
        assert len(c_keys) == 3 * 4 * 3
        assert len(set(c_keys)) == 3 * 4 * 3
        assert report.quadratures == 3 + 12 + 36
        assert report.evaluations == 12 * (1 + 2 + 2 * 4)

    def test_a_second_block_integrates_only_new_keys(self, monkeypatch):
        from dataclasses import replace

        calls = self._count_calls(
            monkeypatch, "oracle_a_batch", "_oracle_xc_batch", "_pole_pairing"
        )
        report = run_verification(replace(COUNT_GRID, ell=(1.0, 2.0)))
        assert report.passed
        # the gaps, the Minkowski term and the images n = 1 of the second
        # block are known (n = 1 at ell = 2 lies where n = 2 at ell = 1
        # does): no self-term call, and one pole pairing for n = 2 alone
        assert len(calls["oracle_a_batch"]) == 1
        assert len(calls["_pole_pairing"]) == len(calls["_oracle_xc_batch"]) == 2
        (_, _, x_1), (c_gaps, c_seps, x_2) = calls["_oracle_xc_batch"]
        assert len(x_2) == len(set(x_2)) == 4 and not set(x_2) & set(x_1)
        assert len(c_gaps) == len(set(zip(c_gaps, c_seps))) == 3 * 4
        assert report.quadratures == 3 + 12 + 36 + 4 + 12
        assert report.evaluations == 2 * 12 * (1 + 2 + 2 * 4)

    def test_failing_integral_fails_only_its_rows(self, monkeypatch):
        from dataclasses import replace

        from udwpair import ConvergenceError

        original = udwpair.wightman._oracle_xc_batch
        bad_r = float(COUNT_GRID.l.values()[1])

        def flaky(y, l_c, l_x, *args, **kwargs):
            (values, errors), x_part = original(y, l_c, l_x, *args, **kwargs)
            errors = [
                ConvergenceError("no luck at r = 0.9") if r == bad_r else e
                for r, e in zip(l_c, errors)
            ]
            return (values, errors), x_part

        monkeypatch.setattr(udwpair.wightman, "_oracle_xc_batch", flaky)
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
        original = udwpair.wightman._oracle_xc_batch

        def flaky(y, l_c, l_x, *args, **kwargs):
            (c, c_errors), (x, x_errors) = original(y, l_c, l_x, *args, **kwargs)
            c_errors = [ConvergenceError("c") if r in c_bad else e for r, e in zip(l_c, c_errors)]
            x_errors = [ConvergenceError("x") if r in x_bad else e for r, e in zip(l_x, x_errors)]
            return (c, c_errors), (x, x_errors)

        monkeypatch.setattr(udwpair.wightman, "_oracle_xc_batch", flaky)
        report = run_verification(COUNT_GRID)
        want = {l_1: "c", l_2: "x", l_3: "x"}
        assert [r["error"] for r in report.rows] == [
            f"ConvergenceError: {want[r['l']]}" if r["l"] in want else "" for r in report.rows
        ]
        # a point stops asking for integrals at its first error: the rows at
        # l_1 fail at the third of their 11 integrals, those at l_2 and l_3
        # at the second
        assert report.evaluations == 12 * 11 - 3 * (11 - 3) - 2 * 3 * (11 - 2)

    def test_coincident_image_fails_before_any_quadrature(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("quadrature at a coincident image")

        for name in ("oracle_a_batch", "_pole_pairing"):
            monkeypatch.setattr(udwpair.wightman, name, forbidden)
        report = run_verification(COINCIDENT)
        assert not report.passed and report.quadratures == 0
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

    def test_verify_reports_quadratures(self):
        result = CliRunner().invoke(
            main, ["verify", "--omega-range", "0:1:2", "--l-range", "1:1:1"]
        )
        assert result.exit_code == 0
        assert result.stderr.startswith("verify: PASS (max deviation ")
        assert result.stderr.endswith(
            ", tolerance 1e-06, 5 quadratures for 6 oracle evaluations)\n"
        )

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
        env = {sweep_mod.OUTPUT_DIR_ENV: str(tmp_path)}
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
