"""Batch command-line front end.

Subcommands: ``sweep`` (elements + measures over a grid), ``diffmap``
(Minkowski-minus-topology correlation difference), ``verify`` (closed forms
against the distributional quadrature oracle), ``show-config`` (resolved
configuration).  Flags override keys read from ``--config``; all quantities
are in units of the switching width sigma.

Exit codes: 0 success, 1 validation error, 2 verification failure.
Relative ``--out`` paths resolve under $UDWPAIR_OUT_DIR when set.

The commands resolve their configuration (:mod:`udwpair.config`, no
numpy) before anything else; ``sweep``, ``diffmap`` and ``verify`` then
call :func:`run_sweep`, :func:`run_difference_map` or
:func:`run_verification`, whose first call imports :mod:`udwpair.sweep`
and with it numpy and the kernels.  So ``--help``, ``show-config`` and a
configuration error load click only.  Those calls validate the
configuration and return the run's slabs unevaluated: :func:`write_rows`
evaluates and writes one slab at a time, so a run holds one slab of its
grid in memory, and a configuration error exits before the output file is
created.
"""

from __future__ import annotations

import math
import os
import sys
import warnings

import click

from .config import (
    OUTPUT_DIR_ENV,
    SweepConfig,
    TopologyKind,
    config_from_mapping,
    parse_config_file,
)
from .errors import ConfigError, UdwError

_EXIT_VALIDATION = 1
_EXIT_VERIFICATION = 2


def _config_options(fn):
    """``--config`` and one option per configuration key, named after it."""
    opts = [
        click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="Flat key = value configuration file."),
        click.option("--topology", type=click.Choice([t.value for t in TopologyKind]), default=None, help="Spacetime topology."),
        click.option("--ell", default=None, help="Comma-separated compactification scales (units of sigma)."),
        click.option("--eta", default=None, help="Field weight under the identification: +1 or -1."),
        click.option("--omega-range", "omega", default=None, metavar="MIN:MAX:N", help="Energy-gap axis Omega*sigma."),
        click.option("--l-range", "l", default=None, metavar="MIN:MAX:N", help="Separation axis L/sigma."),
        click.option("--theta-range", "theta", default=None, metavar="MIN:MAX:N", help="Orientation axis (radians)."),
        click.option("--d-a", default=None, help="Transverse offset of detector A (units of sigma)."),
        click.option("--eps0", default=None, help="Coupling strength."),
        click.option("--nmax", default=None, help="Image-sum truncation |n| <= nmax."),
        click.option("--oracle/--no-oracle", "oracle", default=None, help="Attach oracle deviation columns to sweep rows."),
        click.option("--format", type=click.Choice(["csv", "jsonl"]), default=None, help="Output format."),
        click.option("--out", default=None, help="Output path (default: stdout)."),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _resolve_config(config_path, **flags) -> SweepConfig:
    """The keys of ``--config`` with the flags that are set over them, all
    parsed by :func:`config_from_mapping`."""
    mapping = parse_config_file(config_path) if config_path else {}
    mapping.update((key, str(value)) for key, value in flags.items() if value is not None)
    return config_from_mapping(mapping)


# The evaluation entry points of udwpair.sweep, imported at their first
# call.  The commands look them up in this module, where bench/tracing.py
# wraps them as the sweep layer: the run_* calls validate and return the
# slabs, and the evaluation runs inside write_rows.
def run_sweep(cfg: SweepConfig):
    from .sweep import sweep_slabs

    return sweep_slabs(cfg)


def run_difference_map(cfg: SweepConfig):
    from .sweep import difference_map_slabs

    return difference_map_slabs(cfg)


def run_verification(cfg: SweepConfig):
    from .sweep import verification_slabs

    return verification_slabs(cfg)


def write_rows(slabs, fmt: str, stream) -> None:
    from .sweep import write_rows

    write_rows(slabs, fmt, stream)


def _emit(cfg: SweepConfig, slabs) -> None:
    """Write ``slabs`` to stdout, or to ``cfg.out``: a relative path there
    resolves under $UDWPAIR_OUT_DIR when that is set."""
    if cfg.out is None:
        write_rows(slabs, cfg.fmt, sys.stdout)
        return
    path = os.path.join(os.environ.get(OUTPUT_DIR_ENV, ""), cfg.out)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as stream:
        write_rows(slabs, cfg.fmt, stream)


@click.group()
def main() -> None:
    """Two static Unruh-DeWitt detectors in flat spacetimes with nontrivial topology."""
    # while the command runs, a warning is one line on stderr, without
    # the file, line number and source line of the code that raised it
    click.get_current_context().with_resource(warnings.catch_warnings())
    warnings.showwarning = _show_warning


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    click.echo(f"udwpair: {category.__name__}: {message}", err=True)


def _run_and_write(run, config_path, flags) -> None:
    try:
        cfg = _resolve_config(config_path, **flags)
        _emit(cfg, run(cfg))
    except ConfigError as exc:
        raise SystemExit(_fail(exc))


@main.command()
@_config_options
def sweep(config_path, **flags):
    """Tabulate matrix elements and entanglement measures over a grid."""
    _run_and_write(run_sweep, config_path, flags)


@main.command()
@_config_options
def diffmap(config_path, **flags):
    """Tabulate the correlation difference corr_M - corr_topology."""
    _run_and_write(run_difference_map, config_path, flags)


@main.command()
@_config_options
def verify(config_path, **flags):
    """Check every closed form against the distributional quadrature oracle."""
    try:
        cfg = _resolve_config(config_path, **flags)
        run = run_verification(cfg)
        _emit(cfg, run)
    except UdwError as exc:
        raise SystemExit(_fail(exc))
    click.echo(f"verify: {'PASS' if run.passed else 'FAIL'} ({_findings(run)})", err=True)
    if not run.passed:
        raise SystemExit(_EXIT_VERIFICATION)


def _findings(run) -> str:
    """The rows with an error (if any), the largest deviation of the
    others and the tolerance."""
    parts = []
    if run.error_rows:
        n = run.error_rows
        rows = "1 row with an error" if n == 1 else f"{n} rows with errors"
        parts.append(f"{rows}, the first a {run.first_error}; ")
    if math.isnan(run.max_deviation):
        parts.append("no deviation computed")
    else:
        others = " over the other rows" if run.error_rows else ""
        parts.append(f"max deviation {run.max_deviation:.3e}{others}")
    parts.append(f", tolerance {run.tolerance:g}")
    return "".join(parts)


@main.command(name="show-config")
@_config_options
def show_config(config_path, **flags):
    """Print the fully resolved configuration as key = value lines."""
    try:
        cfg = _resolve_config(config_path, **flags)
    except ConfigError as exc:
        raise SystemExit(_fail(exc))
    click.echo(f"topology = {cfg.topology.value}")
    click.echo(f"ell = {','.join(map(_exact, cfg.ell))}")
    click.echo(f"eta = {cfg.eta}")
    for name, axis in (("omega", cfg.omega), ("l", cfg.l), ("theta", cfg.theta)):
        click.echo(f"{name} = {_exact(axis.start)}:{_exact(axis.stop)}:{axis.count}")
    click.echo(f"d_a = {_exact(cfg.d_a)}")
    click.echo(f"eps0 = {_exact(cfg.eps0)}")
    click.echo(f"nmax = {cfg.nmax}")
    click.echo(f"oracle = {'true' if cfg.oracle else 'false'}")
    click.echo(f"format = {cfg.fmt}")
    click.echo(f"out = {cfg.out or ''}")


def _exact(value: float) -> str:
    """Shortest text that reads back as ``value``, without a trailing ``.0``."""
    return repr(float(value)).removesuffix(".0")


def _fail(exc: Exception) -> int:
    click.echo(f"error: {exc}", err=True)
    return _EXIT_VALIDATION


if __name__ == "__main__":
    main()
