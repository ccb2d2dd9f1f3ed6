"""Command-line entry point.

Exit codes: 0 success, 1 input/parse error, 2 configuration or usage
error, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import replace
from pathlib import Path

from .battery import METHODS, BatteryConfig, plan_battery, run_battery
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
    cell_scalars,
    export_csv,
    export_json,
    render_heatmap_svg,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    """Bad command-line arguments (exit 2)."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises _UsageError instead of exiting."""

    def error(self, message):
        raise _UsageError(message)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _read_input(path: Path) -> str:
    """Text of a UTF-8 input file; a leading byte-order mark is dropped."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _load_panel(path: Path) -> PanelDataset:
    text = _read_input(path)
    if text.lstrip()[:1] in ("{", "["):  # a JSON document, so a snapshot
        return PanelDataset.from_json(text)
    first_line = text.lstrip().splitlines()[0] if text.strip() else ""
    if tuple(h.strip() for h in first_line.split(",")) == GBD_HEADER:
        return parse_gbd_long(text)
    return parse_wdi_wide(text)


def ingest(args) -> None:
    """Parse input files and store a panel snapshot.

    Given both sources, their series are merged into one panel (the usual
    way to pair outcome series with indicator series).
    """
    wdi, gbd, region, out = args.wdi, args.gbd, args.region, args.out
    if wdi is None and gbd is None:
        raise ConfigError("pass --wdi, --gbd, or both")
    dataset = None
    if wdi is not None:
        dataset = parse_wdi_wide(_read_input(wdi),
                                 default_region=region or "global")
        if region is not None and dataset.regions != (region,):
            dataset = dataset.restrict_region(region)
    if gbd is not None:
        outcomes = parse_gbd_long(_read_input(gbd))
        if region is not None:
            outcomes = outcomes.restrict_region(region)
        dataset = outcomes if dataset is None else dataset.merge(outcomes)
    out.write_text(dataset.to_json(), encoding="utf-8")
    _say(args, f"wrote {out}: {len(dataset.regions)} region(s), "
               f"{len(dataset.indicators)} series")


def analyze(args) -> None:
    """Run the configured battery and write matrices, heatmaps, bundle."""
    dataset = _load_panel(args.panel)
    config = BatteryConfig.from_json(_read_input(args.config))
    config = _fill_config_defaults(config, dataset)
    out_dir = args.out
    # a matrix file left by another run would sit beside a bundle.json that omits it
    written = {f"{matrix.stem}{suffix}" for matrix in plan_battery(dataset, config)
               for suffix in (".csv", ".svg")}
    stale = sorted(path for method in METHODS for path in out_dir.glob(f"{method}__*")
                   if path.suffix in (".csv", ".svg") and path.name not in written)
    if stale:
        raise ConfigError(f"{stale[0]} is not an output of this run; remove it "
                          f"or choose another --out")
    out_dir.mkdir(parents=True, exist_ok=True)
    matrices = run_battery(dataset, config)
    for matrix in matrices:
        scalars = cell_scalars(matrix)  # each value formatted once, for both files
        (out_dir / f"{matrix.stem}.csv").write_text(export_csv(matrix, scalars),
                                                    encoding="utf-8")
        (out_dir / f"{matrix.stem}.svg").write_text(
            render_heatmap_svg(matrix, scalars=scalars), encoding="utf-8")
    bundle = build_bundle(matrices, dataset, config)
    (out_dir / "bundle.json").write_text(export_json(bundle), encoding="utf-8")
    _say(args, f"wrote {len(matrices)} matrices to {out_dir}")


def _fill_config_defaults(config: BatteryConfig,
                          dataset: PanelDataset) -> BatteryConfig:
    """Empty outcome/indicator lists mean "everything of that kind"."""
    outcomes = tuple(i.code for i in dataset.indicators if i.category == "MentalHealth")
    indicators = tuple(i.code for i in dataset.indicators if i.category != "MentalHealth")
    return replace(config, outcomes=config.outcomes or outcomes,
                   indicators=config.indicators or indicators)


def burden(args) -> None:
    """Compute burden components from per-band counts."""
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

    try:
        inputs = BurdenInput(
            deaths=load_band_csv(_read_input(args.deaths)),
            prevalence=load_band_csv(_read_input(args.prevalence)),
        )
        table = LifeTable(load_band_csv(_read_input(args.life_table)))
        weights = load_weights_csv(_read_input(args.weights))
    except DomainError as exc:
        raise ParseError(str(exc)) from None
    condition = args.condition
    if condition is None:
        conditions = weights.conditions()
        if len(conditions) != 1:
            raise ConfigError(
                f"weights file holds {len(conditions)} conditions "
                f"{list(conditions)}; pick one with --condition"
            )
        condition = conditions[0]
    rate = None
    try:  # the inputs are checked, so a DomainError here is a total that overflows
        summary = compute_daly(compute_yll(inputs.deaths, table),
                               compute_yld(inputs.prevalence, weights, condition))
        if args.std_pop is not None:
            std = load_band_csv(_read_input(args.std_pop))
            rate = age_standardize(band_rates(inputs, table, weights, condition), std)
    except (DomainError, NormalizationError) as exc:
        raise ParseError(str(exc)) from None
    print(f"YLL: {summary.yll:g}")
    print(f"YLD: {summary.yld:g}")
    print(f"DALY: {summary.daly:g}")
    if rate is not None:
        print(f"Age-standardized rate: {rate:g}")


def fixture(args) -> None:
    """Emit the bundled annual-indicator panel as wide CSV."""
    text = load_fixture(with_outcomes=args.with_outcomes).to_wdi_csv()
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")


def _command(commands, run) -> argparse.ArgumentParser:
    """A subcommand parser that calls ``run(args)``, described by its docstring."""
    doc = run.__doc__ or ""  # None under python -OO
    parser = commands.add_parser(run.__name__, help=doc.partition("\n")[0],
                                 description=doc, allow_abbrev=False)
    parser.set_defaults(run=run)
    return parser


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="paneldep", allow_abbrev=False,
                     description="Panel dependency battery over "
                                 "region/indicator/year series.")
    parser.add_argument("--version", action="version",
                        version=f"paneldep, version {TOOL_VERSION}")
    parser.add_argument("--quiet", action="store_true",
                        help="Suppress progress messages.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND")

    sub = _command(commands, ingest)
    sub.add_argument("--wdi", type=Path, metavar="PATH",
                     help="Wide indicator CSV (code [, region], year columns).")
    sub.add_argument("--gbd", type=Path, metavar="PATH",
                     help="Long outcome CSV "
                          "(location,age_group,cause,measure,year,value).")
    sub.add_argument("--region",
                     help="Region label for region-less wide files, or a filter "
                          "selecting one region from a multi-region file.")
    sub.add_argument("--out", required=True, type=Path, metavar="PATH",
                     help="Panel snapshot (JSON) to write.")

    sub = _command(commands, analyze)
    sub.add_argument("--panel", required=True, type=Path, metavar="PATH",
                     help="Panel snapshot (JSON), wide CSV, or long outcome CSV.")
    sub.add_argument("--config", required=True, type=Path, metavar="PATH",
                     help="Battery configuration (JSON object).")
    sub.add_argument("--out", required=True, type=Path, metavar="PATH",
                     help="Output directory; one CSV and one SVG per matrix plus "
                          "a bundle JSON.")

    sub = _command(commands, burden)
    sub.add_argument("--deaths", required=True, type=Path, metavar="PATH")
    sub.add_argument("--prevalence", required=True, type=Path, metavar="PATH")
    sub.add_argument("--life-table", required=True, type=Path, metavar="PATH")
    sub.add_argument("--weights", required=True, type=Path, metavar="PATH")
    sub.add_argument("--std-pop", type=Path, metavar="PATH",
                     help="Standard-population weights; adds an age-standardized "
                          "rate.")
    sub.add_argument("--condition",
                     help="Condition to read from the weights file (defaults to "
                          "the only condition present).")

    sub = _command(commands, fixture)
    sub.add_argument("--out", type=Path, metavar="PATH",
                     help="Write to a file instead of stdout.")
    sub.add_argument("--with-outcomes", action="store_true",
                     help="Append the synthetic outcome series for self-testing.")
    return parser


def _check_global_options(parser: argparse.ArgumentParser, argv) -> None:
    """Name an unknown option given before the command; argparse would take
    the option's value for the command and name the value instead."""
    for arg in argv:
        if not arg.startswith("-"):
            return
        if arg.partition("=")[0] not in parser._option_string_actions:
            parser.error(f"unrecognized arguments: {arg}")


def main(argv=None) -> int:
    parser = _parser()
    try:
        _check_global_options(parser, sys.argv[1:] if argv is None else argv)
        args = parser.parse_args(argv)
        if not hasattr(args, "run"):
            parser.error(f"missing command\n{parser.format_usage().rstrip()}")
    except SystemExit as exc:  # --help and --version, after printing
        return exc.code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # A command's objects live until it returns, so a cyclic collection
    # during it frees nothing; the caller's setting is restored on every exit.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, NotFoundError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PanelDepError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        if collecting:
            gc.enable()
    return EXIT_OK


def entry() -> int:
    """Process entry point: ``main()``, with OpenBLAS on one thread unless
    the caller chose a count, then a frozen heap, so that the interpreter's
    collection at exit does not walk the command's objects. In-process
    callers use ``main``, which leaves the environment as it is and the
    heap unfrozen."""
    # The kernels' LAPACK calls (QRs of at most n x (2 max_lag + 2)) are too
    # small to thread, so a pool of one busy-waiting worker per CPU only costs
    # start-up and CPU. numpy, and so OpenBLAS, loads at the first kernel call,
    # after this. A thread count the caller set in any variable OpenBLAS reads wins.
    if not any(os.environ.get(name) for name in
               ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
