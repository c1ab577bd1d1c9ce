"""Correctness gate, failure accounting and the reference comparison.

Everything here runs outside the timed region, on the files the CLI wrote.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from workloads import Command

_META = (
    "topology", "eta", "ell", "sigma", "eps0", "nmax", "omega", "l", "theta",
    "d_a", "d_b_x", "z_b", "delta_z", "error",
)
_SWEEP = (
    "a", "b", "x_re", "x_im", "x_abs", "c_re", "c_im", "c_abs", "e",
    "tail_bound", "concurrence_leading", "negativity", "concurrence", "eof",
    "eof_perturbative", "corr", "harvested",
)
_ORACLE = ("oracle_dev_a", "oracle_dev_x", "oracle_dev_c")
_DIFFMAP = ("corr_minkowski", "corr_topology", "corr_diff")
_VERIFY = ("dev_a", "dev_x", "dev_c", "dev_image", "max_dev", "passed")
#: columns compared against the reference, per subcommand
REFERENCE_COLUMNS = {
    "sweep": ("a", "b", "x_abs", "c_abs"),
    "diffmap": ("corr_minkowski", "corr_topology"),
    "verify": (),
}


def required_columns(cmd: Command) -> tuple[str, ...]:
    sub = cmd.subcommand
    if sub == "sweep":
        return _META + _SWEEP + (_ORACLE if "--oracle" in cmd.argv else ())
    if sub == "diffmap":
        return _META + _DIFFMAP
    return _META + _VERIFY


@dataclass
class Outcome:
    """How one CLI call ended: exit code, or the exception that aborted it."""

    exit_code: int
    exception: str = ""
    stderr: str = ""

    @property
    def aborted(self) -> bool:
        return bool(self.exception) or self.exit_code != 0

    def key(self) -> tuple:
        return (self.exit_code, self.exception)


@dataclass
class CommandReport:
    name: str
    attempted: int
    failed: int = 0
    errors: dict = field(default_factory=dict)  # exception type -> rows
    problems: list = field(default_factory=list)  # gate failures
    rows: list = field(default_factory=list)  # parsed rows (dicts)
    max_dev: float = 0.0  # largest oracle deviation in the output


def read_rows(path: str, fmt: str) -> tuple[list[str], list[dict]]:
    """Header and rows of an output file, values as strings (None for null)."""
    with open(path, encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            reader = csv.DictReader(fh)
            rows = list(reader)
            return list(reader.fieldnames or []), rows
        rows = []
        header: list[str] = []
        for line in fh:
            obj = json.loads(line)
            if not header:
                header = list(obj)
            elif list(obj) != header:
                raise ValueError("JSONL rows with differing keys")
            rows.append(
                {k: (None if v is None else _jsonl_text(v)) for k, v in obj.items()}
            )
        return header, rows


def _jsonl_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _number(text) -> float:
    if text is None:
        return math.nan
    return float(text)


def row_failed(row: dict) -> str:
    """Exception type of a failed row, or '' when the row succeeded."""
    err = row.get("error") or ""
    if err:
        return err.split(":", 1)[0].strip() or "error"
    if row.get("passed") == "false":
        return "VerifyFailed"
    return ""


def account(cmd: Command, outcome: Outcome, path: str) -> CommandReport:
    """Failure accounting and the row-level gate for one command's output.

    An aborted command counts every grid point as a failed row, under the
    exception type (or ``exit<N>``) that ended it.  A verify command must
    exit 0 and report PASS.
    """
    rep = CommandReport(cmd.name, cmd.points)
    if cmd.subcommand == "verify" and (outcome.aborted or "verify: PASS" not in outcome.stderr):
        rep.problems.append(
            f"verify did not PASS (exit {outcome.exit_code} {outcome.exception})"
        )
    if outcome.aborted:
        kind = outcome.exception or f"exit{outcome.exit_code}"
        rep.failed = cmd.points
        rep.errors[kind] = cmd.points
        return rep
    try:
        header, rows = read_rows(path, cmd.fmt)
    except (OSError, ValueError) as exc:
        rep.problems.append(f"unreadable output: {exc}")
        return rep
    rep.rows = rows
    missing = set(required_columns(cmd)) - set(header)
    if missing:
        rep.problems.append(f"missing columns {sorted(missing)}")
        return rep
    if len(rows) != cmd.points:
        rep.problems.append(f"{len(rows)} rows for {cmd.points} grid points")
        return rep
    grid = cmd.grid()
    got = np.array([[_number(r[k]) for k in ("ell", "omega", "l", "theta")] for r in rows])
    if not np.allclose(got, grid, rtol=1e-12, atol=1e-12, equal_nan=True):
        rep.problems.append("rows do not follow the grid order or values")
    numeric = [k for k in header if k not in ("topology", "error", "harvested", "passed")]
    for i, row in enumerate(rows):
        kind = row_failed(row)
        if kind:
            rep.failed += 1
            rep.errors[kind] = rep.errors.get(kind, 0) + 1
            continue
        for k in numeric:
            if k == "ell" and row["topology"] == "minkowski":
                continue
            if math.isnan(_number(row[k])):
                rep.problems.append(f"row {i}: NaN in {k} without an error")
                break
        for k in ("max_dev",) + _ORACLE:
            if k in row:
                rep.max_dev = max(rep.max_dev, _number(row[k]))
    return rep


def reference_inputs(row: dict) -> dict:
    """The row fields the reference needs (exact decimal text of floats)."""
    return {k: row[k] for k in ("topology", "eta", "ell", "eps0", "omega", "d_a", "d_b_x", "z_b")}


def reference_key(inputs: dict) -> str:
    return "|".join(str(inputs[k]) for k in sorted(inputs))


def row_errors(sub: str, row: dict, ref: dict) -> dict[str, float]:
    """Relative deviation of each compared column from the reference.

    ``ref`` holds decimal text from :func:`reference.values`; deviations are
    taken in 30-digit arithmetic from the exact binary value of each output
    float.  ``a``, ``b`` and the correlations are compared relative to
    their reference value.  The off-diagonal moduli ``|x|`` and ``|c|`` are
    compared relative to max(|ref|, sqrt(a b)): C passes through zero as
    the gap and separation vary, and sqrt(A B) bounds |C| for a valid state,
    so it is the scale on which their error matters.
    """
    with mp.workdps(30):
        r = {k: mp.mpf(v) for k, v in ref.items()}

        def dev(col, scale):
            return float(abs(mp.mpf(float(row[col])) - r[col]) / scale)

        if sub == "sweep":
            scale = mp.sqrt(r["a"] * r["b"])
            out = {"a": dev("a", r["a"]), "b": dev("b", r["b"])}
            for col in ("x_abs", "c_abs"):
                out[col] = dev(col, max(r[col], scale))
            return out
        return {col: dev(col, abs(r[col])) for col in REFERENCE_COLUMNS[sub]}
