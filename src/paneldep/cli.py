"""Command-line entry point.

Exit codes: 0 success, 1 input/parse error, 2 configuration error,
3 internal numerical failure.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import click

from .battery import BatteryConfig, run_battery
from .burden import (
    BurdenInput,
    LifeTable,
    age_standardize,
    band_rates,
    compute_daly,
    compute_yld,
    compute_yll,
    load_band_csv,
    load_weights_csv,
)
from .errors import (
    ConfigError,
    DomainError,
    NormalizationError,
    NotFoundError,
    PanelDepError,
    ParseError,
)
from .panel import (
    GBD_HEADER,
    PanelDataset,
    load_fixture,
    parse_gbd_long,
    parse_wdi_wide,
)
from .report import (
    TOOL_VERSION,
    build_bundle,
    export_csv,
    export_json,
    render_heatmap_svg,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


@click.group()
@click.version_option(TOOL_VERSION, prog_name="paneldep")
@click.option("--seed", type=int, default=None,
              help="Seed for simulation helpers; the analysis pipeline itself "
                   "is deterministic and ignores it.")
@click.option("--quiet", is_flag=True, help="Suppress progress messages.")
@click.pass_context
def cli(ctx, seed, quiet):
    """Panel dependency battery over region/indicator/year series."""
    ctx.ensure_object(dict)
    ctx.obj["seed"] = seed
    ctx.obj["quiet"] = quiet


def _say(ctx, message: str) -> None:
    if not ctx.obj.get("quiet"):
        click.echo(message)


def _read_input(path: Path) -> str:
    """Text of an input file; a leading UTF-8 byte-order mark is dropped."""
    return path.read_text(encoding="utf-8-sig")


def _load_panel(path: Path) -> PanelDataset:
    text = _read_input(path)
    if text.lstrip().startswith("{"):
        return PanelDataset.from_json(text)
    first_line = text.lstrip().splitlines()[0] if text.strip() else ""
    if tuple(h.strip() for h in first_line.split(",")) == GBD_HEADER:
        return parse_gbd_long(text)
    return parse_wdi_wide(text)


@cli.command()
@click.option("--wdi", type=click.Path(path_type=Path),
              help="Wide indicator CSV (code [, region], year columns).")
@click.option("--gbd", type=click.Path(path_type=Path),
              help="Long outcome CSV (location,age_group,cause,measure,year,value).")
@click.option("--region", default=None,
              help="Region label for region-less wide files, or a filter "
                   "selecting one region from a multi-region file.")
@click.option("--out", required=True, type=click.Path(path_type=Path),
              help="Panel snapshot (JSON) to write.")
@click.pass_context
def ingest(ctx, wdi, gbd, region, out):
    """Parse input files and store a panel snapshot.

    Given both sources, their series are merged into one panel (the usual
    way to pair outcome series with indicator series).
    """
    if wdi is None and gbd is None:
        raise ConfigError("pass --wdi, --gbd, or both")
    dataset = None
    if wdi is not None:
        dataset = parse_wdi_wide(_read_input(wdi),
                                 default_region=region or "global")
        if region is not None and len(dataset.regions) > 1:
            dataset = dataset.restrict_region(region)
    if gbd is not None:
        outcomes = parse_gbd_long(_read_input(gbd))
        if region is not None:
            outcomes = outcomes.restrict_region(region)
        dataset = outcomes if dataset is None else dataset.merge(outcomes)
    out.write_text(dataset.to_json())
    _say(ctx, f"wrote {out}: {len(dataset.regions)} region(s), "
              f"{len(dataset.indicators)} series")


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text).strip("_") or "x"


@cli.command()
@click.option("--panel", required=True, type=click.Path(path_type=Path),
              help="Panel snapshot (JSON), wide CSV, or long outcome CSV.")
@click.option("--config", "config_path", required=True,
              type=click.Path(path_type=Path),
              help="Battery configuration (JSON object).")
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path),
              help="Output directory; one CSV and one SVG per matrix plus "
                   "a bundle JSON.")
@click.pass_context
def analyze(ctx, panel, config_path, out_dir):
    """Run the configured battery and write matrices, heatmaps, bundle."""
    dataset = _load_panel(panel)
    config = BatteryConfig.from_file(config_path)
    config = _fill_config_defaults(config, dataset)
    matrices = run_battery(dataset, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    for matrix in matrices:
        base = f"{matrix.method}__{_slug(matrix.outcome)}__{_slug(matrix.age_group.value)}"
        (out_dir / f"{base}.csv").write_text(export_csv(matrix))
        (out_dir / f"{base}.svg").write_text(render_heatmap_svg(matrix))
    bundle = build_bundle(matrices, dataset, config)
    (out_dir / "bundle.json").write_text(export_json(bundle))
    _say(ctx, f"wrote {len(matrices)} matrices to {out_dir}")


def _fill_config_defaults(config: BatteryConfig,
                          dataset: PanelDataset) -> BatteryConfig:
    """Empty outcome/indicator lists mean "everything of that kind"."""
    if config.outcomes and config.indicators:
        return config
    outcomes = list(config.outcomes)
    indicators = list(config.indicators)
    for ind in dataset.indicators:
        if ind.category == "MentalHealth":
            if not config.outcomes:
                outcomes.append(ind.code)
        elif not config.indicators:
            indicators.append(ind.code)
    return BatteryConfig.from_dict({
        **config.to_dict(),
        "outcomes": outcomes,
        "indicators": indicators,
    })


@cli.command()
@click.option("--deaths", required=True, type=click.Path(path_type=Path))
@click.option("--prevalence", required=True, type=click.Path(path_type=Path))
@click.option("--life-table", "life_table_path", required=True,
              type=click.Path(path_type=Path))
@click.option("--weights", "weights_path", required=True,
              type=click.Path(path_type=Path))
@click.option("--std-pop", "std_pop_path", default=None,
              type=click.Path(path_type=Path),
              help="Standard-population weights; adds an age-standardized rate.")
@click.option("--condition", default=None,
              help="Condition to read from the weights file (defaults to the "
                   "only condition present).")
def burden(deaths, prevalence, life_table_path, weights_path, std_pop_path,
           condition):
    """Compute burden components from per-band counts."""
    try:
        inputs = BurdenInput(
            deaths=load_band_csv(_read_input(deaths)),
            prevalence=load_band_csv(_read_input(prevalence)),
        )
        table = LifeTable(load_band_csv(_read_input(life_table_path)))
        weights = load_weights_csv(_read_input(weights_path))
    except DomainError as exc:
        raise ParseError(str(exc)) from None
    if condition is None:
        conditions = weights.conditions()
        if len(conditions) != 1:
            raise ConfigError(
                f"weights file holds {len(conditions)} conditions "
                f"{list(conditions)}; pick one with --condition"
            )
        condition = conditions[0]
    yll = compute_yll(inputs.deaths, table)
    yld = compute_yld(inputs.prevalence, weights, condition)
    summary = compute_daly(yll, yld)
    rate = None
    if std_pop_path is not None:
        std = load_band_csv(_read_input(std_pop_path))
        try:
            rate = age_standardize(band_rates(inputs, table, weights, condition), std)
        except NormalizationError as exc:
            raise ParseError(str(exc)) from None
    click.echo(f"YLL: {summary.yll:g}")
    click.echo(f"YLD: {summary.yld:g}")
    click.echo(f"DALY: {summary.daly:g}")
    if rate is not None:
        click.echo(f"Age-standardized rate: {rate:g}")


@cli.command()
@click.option("--out", type=click.Path(path_type=Path), default=None,
              help="Write to a file instead of stdout.")
@click.option("--with-outcomes", is_flag=True,
              help="Append the synthetic outcome series for self-testing.")
def fixture(out, with_outcomes):
    """Emit the bundled annual-indicator panel as wide CSV."""
    text = load_fixture(with_outcomes=with_outcomes).to_wdi_csv()
    if out is None:
        click.echo(text, nl=False)
    else:
        out.write_text(text)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False, obj={})
        return EXIT_OK
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_CONFIG
    except click.ClickException as exc:
        exc.show()
        return EXIT_INPUT
    except click.exceptions.Abort:
        return EXIT_INPUT
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        return EXIT_CONFIG
    except (ParseError, NotFoundError, OSError) as exc:
        click.echo(f"input error: {exc}", err=True)
        return EXIT_INPUT
    except PanelDepError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
