"""The steps of the CI workflow, and a runner for those that need no install.

    python ci/workflow.py

runs, from the repository root, each ``run:`` step of the ``tests`` job of
``.github/workflows/tier1.yml`` in order, as GitHub's runner does (``bash
--noprofile --norc -eo pipefail``), with ``PYTHONPATH=src``, and stops at
the first that fails, with its exit status.  A step that installs with pip
or runs the installed ``udwpair`` entry point, and every other job, needs
installs: they are listed as not run.  ``ci/local.sh`` runs it.

:func:`steps` is the workflow parser the test suite checks the scripts
with.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
#: the job that runs here
JOB = "tests"

_JOB = re.compile(r"^  ([\w-]+):\s*$")
_ITEM = re.compile(r"^\s*- ")
_NAME = re.compile(r"^\s*(?:- )?name:\s*(.*)$")
_RUN_KEY = re.compile(r"^(\s*(?:- )?)run:\s*(.*)$")
#: what a script needs installed: pip, or the ``udwpair`` entry point
#: called as a command
_INSTALLS = re.compile(r"\bpip install\b|^\s*udwpair\s", re.MULTILINE)


class Step(NamedTuple):
    job: str
    name: str
    script: str

    def needs_install(self) -> bool:
        return _INSTALLS.search(self.script) is not None


def steps(text: str) -> list[Step]:
    """Every ``run:`` step of a workflow, with the key of its job under
    ``jobs:`` and its ``name:`` (its script's first line where it has
    none).  The script is a plain one-line value, or a ``|`` block scalar,
    whose lines are those indented past the key (and blank ones), less the
    indentation of its first line."""
    lines = text.splitlines()
    found = []
    job, name, in_jobs = None, None, False
    for i, line in enumerate(lines):
        if line.strip() and not line.startswith(" "):
            in_jobs = line.rstrip() == "jobs:"
        elif in_jobs and (key := _JOB.match(line)):
            job = key.group(1)
        if _ITEM.match(line):
            name = None
        if named := _NAME.match(line):
            name = named.group(1).strip()
        match = _RUN_KEY.match(line)
        if not match:
            continue
        if match.group(2) != "|":
            script = match.group(2)
        else:
            body = []
            for nxt in lines[i + 1 :]:
                if nxt.strip() and len(nxt) - len(nxt.lstrip()) <= len(match.group(1)):
                    break
                body.append(nxt)
            indent = min(len(b) - len(b.lstrip()) for b in body if b.strip())
            script = "\n".join(b[indent:] for b in body).rstrip("\n") + "\n"
        found.append(Step(job, name or script.splitlines()[0], script))
    return found


def run() -> int:
    """Run the steps of ``JOB`` that need no install; the exit status of
    the first that fails, else 0."""
    every = steps(WORKFLOW.read_text(encoding="utf-8"))
    env = {**os.environ, "PYTHONPATH": "src"}
    ran = 0
    for step in every:
        if step.job != JOB or step.needs_install():
            continue
        print(f"==> [{step.job}] {step.name}", flush=True)
        status = subprocess.run(
            ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", step.script],
            cwd=ROOT, env=env,
        ).returncode
        if status != 0:
            print(f"FAILED: [{step.job}] {step.name} (exit {status})", flush=True)
            return status
        ran += 1
    print(f"passed: {ran} steps of job {JOB}")
    for step in every:
        if step.job == JOB and step.needs_install():
            print(f"not run, needs an install: [{step.job}] {step.name}")
    for other in dict.fromkeys(step.job for step in every if step.job != JOB):
        print(f"not run, needs installs: job {other}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
