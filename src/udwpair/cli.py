"""Batch command-line front end.

Subcommands: ``sweep`` (elements + measures over a grid), ``diffmap``
(Minkowski-minus-topology correlation difference), ``verify`` (closed forms
against the distributional quadrature oracle), ``show-config`` (resolved
configuration).  Flags override keys read from ``--config``; all quantities
are in units of the switching width sigma.

Exit codes: 0 success, 1 validation error, 2 verification failure.
Relative ``--out`` paths resolve under $UDWPAIR_OUT_DIR when set.
"""

from __future__ import annotations

import os
import sys

import click

from .errors import ConfigError, UdwError
from .geometry import TopologyKind
from .sweep import (
    OUTPUT_DIR_ENV,
    SweepConfig,
    config_from_mapping,
    parse_config_file,
    run_difference_map,
    run_sweep,
    run_verification,
    write_rows,
)

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


def _emit(cfg: SweepConfig, table) -> None:
    """Write ``table`` to stdout, or to ``cfg.out``: a relative path there
    resolves under $UDWPAIR_OUT_DIR when that is set."""
    if cfg.out is None:
        write_rows(table, cfg.fmt, sys.stdout)
        return
    path = os.path.join(os.environ.get(OUTPUT_DIR_ENV, ""), cfg.out)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as stream:
        write_rows(table, cfg.fmt, stream)


@click.group()
def main() -> None:
    """Two static Unruh-DeWitt detectors in flat spacetimes with nontrivial topology."""


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
        report = run_verification(cfg)
        _emit(cfg, report.rows)
    except UdwError as exc:
        raise SystemExit(_fail(exc))
    click.echo(
        f"verify: {'PASS' if report.passed else 'FAIL'} "
        f"(max deviation {report.max_deviation:.3e}, tolerance {report.tolerance:g}, "
        f"{report.quadratures} quadratures for {report.evaluations} oracle evaluations)",
        err=True,
    )
    if not report.passed:
        raise SystemExit(_EXIT_VERIFICATION)


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
