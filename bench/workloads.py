"""Workload definitions: the udwpair CLI commands each workload runs.

Seed 0 runs every command exactly as written below (the README figure
commands are verbatim).  Any other seed shifts each non-degenerate grid
axis of each command by a seeded fraction of one grid step, drawn from
[-SHIFT, SHIFT), keeping the point counts, so a claim can be re-checked on
inputs it was not tuned on.  The seed also picks the rows sampled for the
reference comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

import numpy as np

#: Largest axis shift, as a fraction of one grid step.
SHIFT = 0.25

#: Axis flag -> default range of the CLI (``SweepConfig``), used when a
#: command leaves the flag out.
_RANGE_FLAGS = {
    "--omega-range": (-3.0, 3.0, 64),
    "--l-range": (10.0 / 64.0, 10.0, 64),
    "--theta-range": (0.0, 0.0, 1),
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation (without ``--out``/``--jobs``) and its grid."""

    name: str
    argv: tuple[str, ...]
    #: reference rows: all rows of a ``block`` x ``block`` square at each
    #: corner of the (outer, inner) row grid, plus ``extra`` seeded rows
    block: int = 1
    extra: int = 0
    #: axis flag -> (start, stop, count) overriding the written flags
    shifted: dict = field(default_factory=dict, compare=False)

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    def _flag(self, flag: str) -> str | None:
        if flag in self.argv:
            return self.argv[self.argv.index(flag) + 1]
        return None

    def axis(self, flag: str) -> tuple[float, float, int]:
        if flag in self.shifted:
            return self.shifted[flag]
        text = self._flag(flag)
        if text is None:
            return _RANGE_FLAGS[flag]
        start, stop, count = text.split(":")
        return float(start), float(stop), int(count)

    @property
    def ells(self) -> tuple[float, ...]:
        text = self._flag("--ell")
        return tuple(float(x) for x in text.split(",")) if text else (float("nan"),)

    @property
    def fmt(self) -> str:
        return self._flag("--format") or "csv"

    @property
    def points(self) -> int:
        n = len(self.ells)
        for flag in _RANGE_FLAGS:
            n *= self.axis(flag)[2]
        return n

    def cli_args(self) -> list[str]:
        """argv for the CLI: written flags, shifted ranges made explicit."""
        out: list[str] = []
        skip = False
        for i, tok in enumerate(self.argv):
            if skip:
                skip = False
                continue
            if tok in self.shifted:
                skip = True
                continue
            out.append(tok)
        for flag, (start, stop, count) in self.shifted.items():
            out += [flag, f"{start!r}:{stop!r}:{count}"]
        return out

    def grid(self) -> np.ndarray:
        """Expected (ell, omega, l, theta) of every row, in row order."""
        axes = []
        for flag in _RANGE_FLAGS:
            start, stop, count = self.axis(flag)
            axes.append(np.array([start]) if count == 1 else np.linspace(start, stop, count))
        mesh = np.meshgrid(np.array(self.ells), *axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def inner(self) -> int:
        """Rows per value of the outer axes (the l x theta block)."""
        return self.axis("--l-range")[2] * self.axis("--theta-range")[2]

    def sample(self, rng: random.Random) -> list[int]:
        """Row indices compared against the reference, in ascending order."""
        n_in = self.inner()
        n_out = self.points // n_in
        b_out, b_in = min(self.block, n_out), min(self.block, n_in)
        rows = {
            i * n_in + j
            for i in list(range(b_out)) + list(range(n_out - b_out, n_out))
            for j in list(range(b_in)) + list(range(n_in - b_in, n_in))
        }
        rest = sorted(set(range(self.points)) - rows)
        rows.update(rng.sample(rest, min(self.extra, len(rest))))
        return sorted(rows)

    def shifted_by(self, rng: random.Random) -> "Command":
        shifted = {}
        for flag in _RANGE_FLAGS:
            start, stop, count = self.axis(flag)
            if count < 2 or start == stop:
                continue
            delta = rng.uniform(-SHIFT, SHIFT) * (stop - start) / (count - 1)
            shifted[flag] = (start + delta, stop + delta, count)
        return replace(self, shifted=shifted)


def _cmd(name: str, line: str, block: int = 1, extra: int = 0) -> Command:
    return Command(name, tuple(line.split()), block, extra)


#: name -> (why, commands).  The README commands keep their README text.
WORKLOADS: dict[str, tuple[str, tuple[Command, ...]]] = {
    "minkowski_harvest": (
        "Minkowski harvesting surface plus a large-gap strip: entanglement "
        "measures dominate, no image sums, no oracle",
        (
            _cmd("fig1", "sweep --omega-range -3:3:128 --l-range 0.078125:10:128", 8, 64),
            _cmd("strip", "sweep --omega-range 12:24:25 --l-range 0.5:10:20", 4, 16),
        ),
    ),
    "topology_figures": (
        "README cylinder and twisted-cylinder figures plus a twisted-field "
        "sweep: image sums (elements, geometry, special) dominate",
        (
            _cmd("fig2", "sweep --topology cylinder --ell 0.5,1,2,4 --omega-range -3:3:121 --l-range 1:1:1"),
            _cmd("fig3a", "diffmap --topology cylinder --ell 1", 1, 1),
            _cmd("fig3b", "diffmap --topology twisted --ell 1 --d-a 0.1", 1, 1),
            _cmd("fig4", "sweep --topology cylinder --ell 1 --omega-range 0.5:0.5:1 --l-range 0.6:0.6:1 --theta-range 0:3.14159265:64"),
            _cmd("twisted", "sweep --topology twisted --ell 1 --eta -1 --d-a 0.1 --omega-range -3:3:32 --l-range 0.3125:10:32", 1, 1),
        ),
    ),
    "oracle_verify": (
        "closed forms against the quadrature oracle: verify on all three "
        "spacetimes and an oracle sweep written as JSONL; wightman dominates",
        (
            _cmd("verify", "verify --omega-range -2:2:5 --l-range 0.5:4:4"),
            _cmd("verify_cyl", "verify --topology cylinder --ell 1 --omega-range -3:3:25 --l-range 0.25:8:32"),
            _cmd("verify_tw", "verify --topology twisted --ell 1 --eta -1 --d-a 0.1 --omega-range -3:3:25 --l-range 0.25:8:32"),
            _cmd("oracle_sweep", "sweep --oracle --format jsonl --omega-range -3:3:32 --l-range 0.25:8:32", 4, 32),
        ),
    ),
}


def commands(workload: str, seed: int) -> tuple[Command, ...]:
    """The workload's commands for this seed (seed 0: exactly as written)."""
    cmds = WORKLOADS[workload][1]
    if seed == 0:
        return cmds
    rng = random.Random(f"{workload}:{seed}:grid")
    return tuple(c.shifted_by(rng) for c in cmds)


def sample_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:sample")
