"""udwpair benchmark: runs one workload of CLI commands in this process.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Workloads are defined in ``workloads.py``.

Untraced (``--trace 0``), after timing set-up in fresh interpreters, it
runs every command once with ``--jobs 1`` (also the warm-up), then repeats
the commands at the default worker count for ``--seconds`` seconds, and
prints the end-to-end metrics:

    setup_s        median wall time of a fresh interpreter importing
                   ``udwpair.cli`` and resolving each command's config
                   (``show-config`` with its flags)
    points_per_s   grid points attempted / sum of per-command median wall
                   times (CLI entry point through the output file)
    ok_rows_frac   rows without an error / rows attempted; every row of an
                   aborted command counts as failed
    max_rel_err_digits
                   log10(max_rel_err / 2**-52): decimal digits lost beyond
                   double-precision epsilon, where max_rel_err is the
                   largest relative deviation of sampled output columns
                   from the 30-digit reference (``reference.py``)
    peak_rss_mb    largest resident set of this process and its children

``ok_rows_frac`` stands in for an error fraction, and the accuracy is
reported in digits, because a benchmark metric must never read 0 and must
stay steady across seeds: ``oracle_verify`` fails no row, and where the
worst error is amplified round-off (Minkowski rows at large gap and small
separation) its value jumps by factors of 2 to 4 between neighbouring
inputs, which is a small step on a log scale.  The raw ``max_rel_err`` is
printed and kept in the result file.

Traced (``--trace 1``) it runs the commands untraced with ``--jobs 1``,
at the default worker count, and once more with ``--jobs 1`` while every
layer boundary is wrapped by ``tracing.py``, and prints per-layer metrics.

Both modes apply the correctness gate: verify commands PASS, outputs have
the grid's rows and columns, rows without an error hold no NaN, and every
pass writes byte-identical files.  A gate failure prints
``"correct": false`` and exits 1.  The last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files go to ``.bench_out/`` under the repository root.
"""

from __future__ import annotations

import os

# One BLAS thread per process: pool workers alone fill the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
#: double-precision machine epsilon, the zero point of max_rel_err_digits
EPS = 2.0**-52
#: exception types reported on their own in ``sweep.error_rows.<type>``
ERROR_TYPES = (
    "ZeroDivisionError", "InvalidStateError", "PositivityError", "GeometryError",
    "DomainError", "ConvergenceError", "VerifyFailed",
)

_SETUP_CODE = """
import json, sys
import udwpair.cli as cli
for flags in json.loads(sys.argv[1]):
    cli.main(["show-config", *flags], standalone_mode=False)
"""
_IMPORT_CODE = """
import time
t = time.perf_counter()
import udwpair.cli
print(time.perf_counter() - t)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    return env


class Runner:
    """Runs a workload's commands in-process and keeps what they produced."""

    def __init__(self, cli, cmds, out_dir: Path):
        self.cli = cli
        self.cmds = cmds
        self.out_dir = out_dir
        # Later versions may drop --jobs; then every pass is single-process.
        self.has_jobs = any(
            "--jobs" in p.opts for p in cli.main.commands["sweep"].params
        )
        self.problems: list[str] = []
        self.times: dict[str, list[float]] = {c.name: [] for c in cmds}
        self.outcomes: dict[str, list] = {c.name: [] for c in cmds}
        self.digests: dict[str, set] = {c.name: set() for c in cmds}

    def path(self, cmd) -> Path:
        return self.out_dir / f"{cmd.name}.{cmd.fmt}"

    def run_one(self, cmd, jobs1: bool) -> tuple[float, checks.Outcome]:
        path = self.path(cmd)
        path.unlink(missing_ok=True)
        argv = cmd.cli_args() + ["--out", str(path)]
        if jobs1 and self.has_jobs:
            argv += ["--jobs", "1"]
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                self.cli.main(argv, standalone_mode=False)
            outcome = checks.Outcome(0)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            outcome = checks.Outcome(code)
        except Exception as exc:  # an aborted command is counted, not fatal
            outcome = checks.Outcome(1, type(exc).__name__)
            err.write(f"{type(exc).__name__}: {exc}\n")
        elapsed = time.perf_counter() - t0
        outcome.stderr = err.getvalue()
        return elapsed, outcome

    def run_pass(self, jobs1: bool, timed: bool) -> float:
        total = 0.0
        for cmd in self.cmds:
            elapsed, outcome = self.run_one(cmd, jobs1)
            total += elapsed
            if timed:
                self.times[cmd.name].append(elapsed)
            self.outcomes[cmd.name].append(outcome)
            path = self.path(cmd)
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
            self.digests[cmd.name].add((outcome.key(), digest))
        return total

    def gate(self) -> tuple[list[checks.CommandReport], list[str]]:
        """Per-command accounting plus every gate failure found."""
        reports = []
        problems = list(self.problems)
        for cmd in self.cmds:
            if len(self.digests[cmd.name]) != 1:
                problems.append(f"{cmd.name}: passes differ in outcome or output bytes")
            rep = checks.account(cmd, self.outcomes[cmd.name][-1], str(self.path(cmd)))
            problems += [f"{cmd.name}: {p}" for p in rep.problems]
            reports.append(rep)
        return reports, problems


def measure_setup(cmds, repeats: int) -> tuple[float, list[str]]:
    """Median wall time of a fresh interpreter reaching a resolved config."""
    flags = [c.cli_args()[1:] for c in cmds]
    walls, problems = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, json.dumps(flags)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            problems.append(f"show-config failed: {proc.stderr.strip()[-300:]}")
    return statistics.median(walls), problems


def measure_import(repeats: int = 3) -> tuple[float, float]:
    """(import udwpair.cli wall, scipy.integrate cumulative import) in s."""
    walls, scipy_s = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", _IMPORT_CODE],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120,
        )
        walls.append(float(proc.stdout.strip().splitlines()[-1]))
        cumulative = 0.0
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "scipy.integrate":
                cumulative = float(parts[1].split()[-1]) * 1e-6
        scipy_s.append(cumulative)
    return statistics.median(walls), statistics.median(scipy_s)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def max_rel_err(cmds, reports, rng, cache_path: Path) -> tuple[float, str, int, int]:
    """Largest relative deviation over the sampled rows, where it occurs,
    rows compared, and sampled rows skipped because the reference failed."""
    import reference

    tasks = {}
    for cmd, rep in zip(cmds, reports):
        if not checks.REFERENCE_COLUMNS[cmd.subcommand] or not rep.rows:
            continue
        for idx in cmd.sample(rng):
            row = rep.rows[idx]
            if checks.row_failed(row):
                continue
            inputs = checks.reference_inputs(row)
            key = f"{cmd.subcommand}|{checks.reference_key(inputs)}"
            tasks.setdefault(key, (cmd, idx, inputs))
    cache = json.loads(cache_path.read_text()) if cache_path.exists() else {}
    missing = [k for k in tasks if k not in cache]
    slow = [k for k in missing if tasks[k][2]["topology"] != "minkowski"]
    fast = [k for k in missing if k not in slow]
    for key in fast:
        cache[key] = reference.values(tasks[key][0].subcommand, tasks[key][2])
    if slow:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        workers = min(len(slow), os.cpu_count() or 1)
        # fork, not spawn: spawn starts a resource-tracker process that
        # outlives this one; forked workers are all joined on shutdown.
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            futures = {
                k: pool.submit(reference.values, tasks[k][0].subcommand, tasks[k][2])
                for k in slow
            }
            for key, fut in futures.items():
                cache[key] = fut.result()
    if missing:
        tmp = cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache))
        tmp.replace(cache_path)
    worst, where = 0.0, ""
    skipped = [key for key in tasks if cache[key] is None]
    for key, (cmd, idx, _) in tasks.items():
        if cache[key] is None:
            continue
        row = reports[cmds.index(cmd)].rows[idx]
        for col, err in checks.row_errors(cmd.subcommand, row, cache[key]).items():
            if err > worst:
                worst, where = err, f"{cmd.name} row {idx} {col}"
    return worst, where, len(tasks) - len(skipped), len(skipped)


def provenance(workload: str, seed: int, trace: int, runner: Runner) -> dict:
    import mpmath
    import numpy
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    nproc = os.cpu_count() or 1
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": nproc,
        "workers": nproc if runner.has_jobs else 1,
        "cli_has_jobs": runner.has_jobs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "commit": commit,
    }


def error_counts(reports) -> dict[str, float]:
    out = {"sweep.error_rows": sum(r.failed for r in reports)}
    for kind in ERROR_TYPES + ("other",):
        out[f"sweep.error_rows.{kind}"] = 0
    for rep in reports:
        for kind, n in rep.errors.items():
            key = f"sweep.error_rows.{kind if kind in ERROR_TYPES else 'other'}"
            out[key] += n
    return out


def run_untraced(runner: Runner, args, cmds) -> dict:
    stages = {}
    t0 = time.perf_counter()
    setup_s, problems = measure_setup(cmds, SETUP_REPEATS)
    runner.problems += problems
    stages["setup"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    runner.run_pass(jobs1=True, timed=False)
    stages["jobs1_pass"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    while True:
        runner.run_pass(jobs1=False, timed=True)
        if time.perf_counter() - t0 >= args.seconds:
            break
    stages["timed"] = time.perf_counter() - t0
    rss = peak_rss_mb()
    t0 = time.perf_counter()
    reports, problems = runner.gate()
    stages["gate"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    attempted = sum(r.attempted for r in reports)
    failed = sum(r.failed for r in reports)
    med = {c.name: statistics.median(runner.times[c.name]) for c in cmds}
    cache = runner.out_dir.parent / "reference-cache.json"
    worst, where, compared, skipped = max_rel_err(
        list(cmds), reports, workloads.sample_rng(args.workload, args.seed), cache
    )
    stages["reference"] = time.perf_counter() - t0
    if not compared:
        problems.append("no output row could be compared with the reference")
        worst = EPS
    metrics = {
        "setup_s": (setup_s, "s"),
        "points_per_s": (attempted / sum(med.values()), "1/s"),
        "ok_rows_frac": (1.0 - failed / attempted, "1"),
        "max_rel_err_digits": (math.log10(worst / EPS), "digits"),
        "peak_rss_mb": (rss, "MB"),
    }
    details = {
        "passes": len(next(iter(runner.times.values()))),
        "median_s": med,
        "times_s": runner.times,
        "max_rel_err": worst,
        "max_rel_err_at": where,
        "rows_compared": compared,
        "reference_failures": skipped,
        "stage_s": {k: round(v, 3) for k, v in stages.items()},
    }
    return _result(reports, problems, metrics, details)


def run_traced(runner: Runner, args, cmds) -> dict:
    import tracing

    import_s, scipy_s = measure_import()
    jobs1 = runner.run_pass(jobs1=True, timed=False)
    default = runner.run_pass(jobs1=False, timed=False)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = runner.run_pass(jobs1=True, timed=False)
    tracer.save(str(runner.out_dir / "spans.npz"))
    reports, problems = runner.gate()
    metrics = {k: (v, _unit(k)) for k, v in tracing.layer_metrics(tracer).items()}
    rows = sum(r.attempted for r in reports)
    written = sum(runner.path(c).stat().st_size for c in cmds if runner.path(c).exists())
    metrics.update({k: (v, "count") for k, v in error_counts(reports).items()})
    metrics.update({
        "cli.import_s": (import_s, "s"),
        "cli.scipy_integrate_import_s": (scipy_s, "s"),
        "cli.commands_failed": (sum(1 for c in cmds if runner.outcomes[c.name][-1].aborted), "count"),
        "sweep.rows": (rows, "count"),
        "sweep.write_bytes": (written, "bytes"),
        "sweep.write_us_per_row": (metrics["sweep.write_s"][0] / rows * 1e6, "us"),
        "sweep.pool_speedup": (jobs1 / default, "1"),
        "wightman.max_dev": (max(r.max_dev for r in reports), "1"),
        "trace.overhead_frac": (traced / jobs1 - 1.0, "1"),
    })
    details = {"jobs1_s": jobs1, "default_s": default, "traced_s": traced, "spans": len(tracer.start)}
    return _result(reports, problems, metrics, details)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_us_" in name or name.split(".")[-1].startswith("us_"):
        return "us"
    if name.endswith(("_share", "_per_point", "_per_state", "tail_bound_max")):
        return "1"
    return "count"


def _result(reports, problems, metrics, details) -> dict:
    return {
        "reports": reports,
        "problems": problems,
        "metrics": metrics,
        "details": details,
        "attempted": sum(r.attempted for r in reports),
        "failed": sum(r.failed for r in reports),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import udwpair.cli as cli
    except ImportError as exc:
        print(f"bench: cannot import udwpair from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"bench: udwpair imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    cmds = workloads.commands(args.workload, args.seed)
    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(cli, cmds, out_dir)
    result = (run_traced if args.trace else run_untraced)(runner, args, cmds)
    info = provenance(args.workload, args.seed, args.trace, runner)

    print(" ".join(f"{k}={v}" for k, v in info.items()))
    for cmd, rep in zip(cmds, result["reports"]):
        times = runner.times[cmd.name]
        timing = f", median {statistics.median(times):.3f} s of {len(times)}" if times else ""
        errors = ", ".join(f"{k} {v}" for k, v in sorted(rep.errors.items())) or "none"
        print(f"  {cmd.name}: {' '.join(cmd.cli_args())}")
        print(f"    {rep.attempted} rows, {rep.failed} failed ({errors}){timing}")
    for key, value in result["details"].items():
        print(f"  {key}: {value}")
    for problem in result["problems"]:
        print(f"GATE FAILURE: {problem}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")

    correct = not result["problems"]
    record = {
        "provenance": info,
        "details": result["details"],
        "problems": result["problems"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
