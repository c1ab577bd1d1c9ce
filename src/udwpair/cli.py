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
from dataclasses import replace

import click

from .errors import ConfigError, UdwError
from .geometry import TopologyKind
from .sweep import (
    OUTPUT_DIR_ENV,
    SweepConfig,
    parse_range,
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
    opts = [
        click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None, help="Flat key = value configuration file."),
        click.option("--topology", type=click.Choice([t.value for t in TopologyKind]), default=None, help="Spacetime topology."),
        click.option("--ell", default=None, help="Comma-separated compactification scales (units of sigma)."),
        click.option("--eta", type=int, default=None, help="Field weight under the identification: +1 or -1."),
        click.option("--omega-range", default=None, metavar="MIN:MAX:N", help="Energy-gap axis Omega*sigma."),
        click.option("--l-range", default=None, metavar="MIN:MAX:N", help="Separation axis L/sigma."),
        click.option("--theta-range", default=None, metavar="MIN:MAX:N", help="Orientation axis (radians)."),
        click.option("--d-a", type=float, default=None, help="Transverse offset of detector A (units of sigma)."),
        click.option("--eps0", type=float, default=None, help="Coupling strength."),
        click.option("--nmax", type=int, default=None, help="Image-sum truncation |n| <= nmax."),
        click.option("--oracle/--no-oracle", "oracle", default=None, help="Attach oracle deviation columns to sweep rows."),
        click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default=None, help="Output format."),
        click.option("--out", default=None, help="Output path (default: stdout)."),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _resolve_config(config_path, **flags) -> SweepConfig:
    mapping = parse_config_file(config_path) if config_path else {}
    cfg = config_from_mapping(mapping) if mapping else SweepConfig()
    updates = {}
    if flags.get("topology") is not None:
        updates["topology"] = TopologyKind(flags["topology"])
    if flags.get("ell") is not None:
        updates["ell"] = tuple(
            float(x) for x in str(flags["ell"]).split(",") if x.strip()
        )
    if flags.get("eta") is not None:
        updates["eta"] = flags["eta"]
    if flags.get("omega_range") is not None:
        updates["omega"] = parse_range(flags["omega_range"], "omega")
    if flags.get("l_range") is not None:
        updates["l"] = parse_range(flags["l_range"], "l")
    if flags.get("theta_range") is not None:
        updates["theta"] = parse_range(flags["theta_range"], "theta")
    for key in ("d_a", "eps0", "nmax", "oracle", "fmt", "out"):
        if flags.get(key) is not None:
            updates[key] = flags[key]
    return replace(cfg, **updates).validate()


def _open_output(cfg: SweepConfig):
    if cfg.out is None:
        return sys.stdout, False
    path = cfg.out
    if not os.path.isabs(path):
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            path = os.path.join(base, path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", encoding="utf-8", newline=""), True


def _emit(cfg: SweepConfig, rows) -> None:
    stream, close = _open_output(cfg)
    try:
        write_rows(rows, cfg.fmt, stream)
    finally:
        if close:
            stream.close()


@click.group()
def main() -> None:
    """Two static Unruh-DeWitt detectors in flat spacetimes with nontrivial topology."""


@main.command()
@_config_options
def sweep(config_path, **flags):
    """Tabulate matrix elements and entanglement measures over a grid."""
    try:
        cfg = _resolve_config(config_path, **flags)
        rows = run_sweep(cfg)
        _emit(cfg, rows)
    except ConfigError as exc:
        raise SystemExit(_fail(exc))


@main.command()
@_config_options
def diffmap(config_path, **flags):
    """Tabulate the correlation difference corr_M - corr_topology."""
    try:
        cfg = _resolve_config(config_path, **flags)
        rows = run_difference_map(cfg)
        _emit(cfg, rows)
    except ConfigError as exc:
        raise SystemExit(_fail(exc))


@main.command()
@_config_options
def verify(config_path, **flags):
    """Check every closed form against the distributional quadrature oracle."""
    try:
        cfg = _resolve_config(config_path, **flags)
        cfg = replace(cfg, oracle=True)
        report = run_verification(cfg)
        _emit(cfg, report.rows)
    except (ConfigError, UdwError) as exc:
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
    click.echo(f"ell = {','.join(f'{e:g}' for e in cfg.ell)}")
    click.echo(f"eta = {cfg.eta}")
    for name, axis in (("omega", cfg.omega), ("l", cfg.l), ("theta", cfg.theta)):
        click.echo(f"{name} = {axis.start:g}:{axis.stop:g}:{axis.count}")
    click.echo(f"d_a = {cfg.d_a:g}")
    click.echo(f"sigma = {cfg.sigma:g}")
    click.echo(f"eps0 = {cfg.eps0:g}")
    click.echo(f"nmax = {cfg.nmax}")
    click.echo(f"oracle = {'true' if cfg.oracle else 'false'}")
    click.echo(f"format = {cfg.fmt}")
    click.echo(f"out = {cfg.out or ''}")


def _fail(exc: Exception) -> int:
    click.echo(f"error: {exc}", err=True)
    return _EXIT_VALIDATION


if __name__ == "__main__":
    main()
