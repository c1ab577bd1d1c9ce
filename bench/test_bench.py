"""Tests of the benchmark's own logic (not of udwpair).

    python3 -m pytest bench -q

They cover the self-time arithmetic of the tracer, the failure accounting
of an aborted command, and the seed handling of the workload grids.
"""

from __future__ import annotations

import random
import re
import shlex
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run  # noqa: F401  (puts src/ and bench/ on sys.path)
import checks
import tracing
import workloads

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands() -> list[tuple[str, ...]]:
    """Every ``udwpair ...`` command in the README, continuation lines joined."""
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("udwpair "):
            argv = shlex.split(line)[1:]
            if "--out" in argv:
                i = argv.index("--out")
                del argv[i : i + 2]
            out.append(tuple(argv))
    return out


# -- self-time arithmetic ------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 5] -> b [2, 3];  root -> c [6, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 6.0])
    end = np.array([10.0, 5.0, 3.0, 9.0])
    own = tracing.self_times(parent, end - start)
    assert own.tolist() == [3.0, 3.0, 1.0, 3.0]
    assert own.sum() == pytest.approx(10.0)


def test_layer_self_times_from_wrapped_calls():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    wrapped_leaf = tracer.wrap("special", "leaf", leaf)

    def middle():
        time.sleep(0.02)
        wrapped_leaf()
        wrapped_leaf()

    wrapped_middle = tracer.wrap("elements", "middle", middle)
    tracer.wrap("cli", "main", wrapped_middle)()
    metrics = tracing.layer_metrics(tracer)
    assert list(tracer.parent) == [-1, 0, 1, 1]
    assert metrics["special.self_s"] == pytest.approx(0.04, abs=0.02)
    assert metrics["elements.self_s"] == pytest.approx(0.02, abs=0.015)
    assert metrics["cli.self_s"] < 0.01
    total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert total == pytest.approx(tracer.end[0] - tracer.start[0])


def test_failed_span_records_exception_type():
    tracer = tracing.Tracer()

    def boom():
        raise ZeroDivisionError("x")

    with pytest.raises(ZeroDivisionError):
        tracer.wrap("entanglement", "xstate_measures", boom)()
    assert tracer.exceptions == ["ZeroDivisionError"]
    assert tracing.layer_metrics(tracer)["entanglement.failures"] == 1


# -- failure accounting --------------------------------------------------------


def _aborting_main(argv, standalone_mode):
    raise ZeroDivisionError("float division by zero")


# the attribute Runner reads to learn whether the CLI still offers --jobs
_aborting_main.commands = {"sweep": SimpleNamespace(params=[])}


def test_aborted_command_fails_every_row(tmp_path):
    cmd = workloads.WORKLOADS["minkowski_harvest"][1][1]
    runner = run.Runner(SimpleNamespace(main=_aborting_main), (cmd,), tmp_path)
    assert not runner.has_jobs
    _, outcome = runner.run_one(cmd, jobs1=True)
    assert outcome.aborted and outcome.exception == "ZeroDivisionError"
    rep = checks.account(cmd, outcome, str(runner.path(cmd)))
    assert rep.attempted == rep.failed == cmd.points == 500
    assert rep.errors == {"ZeroDivisionError": 500}
    assert rep.problems == []


def test_nonzero_exit_counts_as_abort_and_fails_verify():
    cmd = workloads.WORKLOADS["oracle_verify"][1][0]
    rep = checks.account(cmd, checks.Outcome(2), "unused")
    assert rep.failed == cmd.points and rep.errors == {"exit2": cmd.points}
    assert any("did not PASS" in p for p in rep.problems)


def test_error_column_and_failed_verify_rows_count_by_type(tmp_path):
    cmd = workloads._cmd("tiny", "verify --omega-range 0:1:2 --l-range 1:1:1")
    header = checks.required_columns(cmd)
    rows = []
    for om, err, passed in ((0.0, "", "true"), (1.0, "", "false")):
        row = {k: "0" for k in header}
        row.update(topology="minkowski", ell="nan", omega=repr(om), l="1.0", error=err, passed=passed)
        rows.append(row)
    path = tmp_path / "tiny.csv"
    path.write_text(
        ",".join(header) + "\n" + "".join(",".join(r[k] for k in header) + "\n" for r in rows)
    )
    outcome = checks.Outcome(0, stderr="verify: PASS")
    rep = checks.account(cmd, outcome, str(path))
    assert rep.problems == []
    assert (rep.attempted, rep.failed, rep.errors) == (2, 1, {"VerifyFailed": 1})
    assert checks.row_failed({"error": "PositivityError: rho < 0"}) == "PositivityError"


# -- seeds and grids -----------------------------------------------------------


def test_seed_zero_runs_the_readme_commands_verbatim():
    readme = _readme_commands()
    cmds = {c.name: c for c in workloads.commands("topology_figures", 0)}
    cmds.update({c.name: c for c in workloads.commands("oracle_verify", 0)})
    for name in ("fig2", "fig3a", "fig3b", "fig4", "verify"):
        assert tuple(cmds[name].cli_args()) in readme, name
    # fig1 is the README's default-range sweep at 128 x 128 instead of 64 x 64
    fig1 = workloads.commands("minkowski_harvest", 0)[0]
    assert ("sweep",) in readme
    assert fig1.axis("--omega-range") == (-3.0, 3.0, 128)
    assert fig1.axis("--l-range") == (10.0 / 128, 10.0, 128)


def test_row_totals_of_the_workloads():
    totals = {
        name: sum(c.points for c in workloads.commands(name, 0))
        for name in workloads.WORKLOADS
    }
    assert totals == {"minkowski_harvest": 16884, "topology_figures": 9764, "oracle_verify": 2644}


@pytest.mark.parametrize("seed", [1, 7, 12345])
def test_other_seeds_shift_axes_by_less_than_a_step(seed):
    for name in workloads.WORKLOADS:
        for base, moved in zip(workloads.commands(name, 0), workloads.commands(name, seed)):
            assert moved.points == base.points
            assert moved.grid().shape == base.grid().shape
            for flag in ("--omega-range", "--l-range", "--theta-range"):
                b0, b1, n = base.axis(flag)
                m0, m1, m = moved.axis(flag)
                assert m == n
                step = (b1 - b0) / (n - 1) if n > 1 else 0.0
                assert abs(m0 - b0) <= workloads.SHIFT * step
                assert m1 - m0 == pytest.approx(b1 - b0)
            assert re.fullmatch(r"[\w.:,\- ]+", " ".join(moved.cli_args()))
    def argv(s):
        return [c.cli_args() for c in workloads.commands("topology_figures", s)]

    assert argv(seed) == argv(seed) != argv(seed + 1)


def test_sample_rows_are_seeded_and_in_range():
    cmd = workloads.WORKLOADS["minkowski_harvest"][1][0]
    a = cmd.sample(random.Random(1))
    assert a == cmd.sample(random.Random(1))
    assert a != cmd.sample(random.Random(2))
    assert all(0 <= i < cmd.points for i in a) and a == sorted(set(a))
    # four 8 x 8 corner blocks plus the seeded rows
    assert len(a) == 4 * 64 + cmd.extra
