#!/usr/bin/env bash
# Run the CI workflow's `tests` job here, without network or installs:
# every `run:` step of .github/workflows/tier1.yml's `tests` job in order,
# with PYTHONPATH=src, stopping at the first that fails (its exit status).
# The pip install step, the installed entry point's step and the
# `numpy-floor` and `runtime` jobs need installs, and are listed as not run.
#
#     ci/local.sh
set -euo pipefail
cd "$(dirname "$0")/.."
exec python ci/workflow.py
