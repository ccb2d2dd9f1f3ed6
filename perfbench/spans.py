"""In-memory spans around paneldep's public functions, for one traced process.

Run as a script in place of ``python -m paneldep.cli``::

    PYTHONPATH=src python3 perfbench/spans.py SPANS.json --quiet analyze ...

It times ``import paneldep.cli``, wraps the functions listed in ``TARGETS``
(and, for the ``ingest`` command, ``INGEST_TARGETS``) at the names their
callers look up (so no package file changes), runs the CLI with the
remaining arguments, and exits with the CLI's exit code. The spans stay in
memory; SPANS.json gets their per-name totals (``Layers``), the clock
readings at start and at the end of tracing, and the targets that could not
be wrapped.

A span is ``[name, start, end, parent]``: perf_counter seconds, and the
index of the innermost span open when it started (-1 for a root). A span's
self time is its duration minus the durations of its direct children; the
self times of all spans add up to the durations of the roots.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

#: (owner, attribute, span name); an owner is "module" or "module:Class".
#: Functions are wrapped where the caller looks them up: the names the CLI
#: and the battery imported, and the PanelDataset methods on the class.
TARGETS = (
    ("paneldep.cli", "parse_wdi_wide", "panel.parse"),
    ("paneldep.cli", "parse_gbd_long", "panel.parse"),
    ("paneldep.cli", "run_battery", "battery.run"),
    ("paneldep.cli", "export_csv", "report.csv"),
    ("paneldep.cli", "render_heatmap_svg", "report.svg"),
    ("paneldep.cli", "build_bundle", "report.bundle_build"),
    ("paneldep.cli", "export_json", "report.bundle_json"),
    ("paneldep.panel:PanelDataset", "to_json", "panel.to_json"),
    ("paneldep.panel:PanelDataset", "from_json", "panel.snapshot_read"),
    ("paneldep.panel:PanelDataset", "fingerprint", "panel.fingerprint"),
    ("paneldep.battery", "align_pair", "panel.align"),
    ("paneldep.battery", "pearson", "linear.pearson"),
    ("paneldep.battery", "mutual_information", "info.mi"),
    ("paneldep.battery", "mic", "info.mic"),
    ("paneldep.battery", "lag_sweep", "temporal.lag_sweep"),
)

#: Wrapped only in an ``ingest`` process, whose one ``Path.write_text`` call
#: writes the snapshot file.
INGEST_TARGETS = (
    ("pathlib:Path", "write_text", "panel.snapshot_file"),
)


class Tracer:
    """Nested spans of one single-threaded process, plus named counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


@dataclass
class Layers:
    """Span totals per name, for one process or pooled over several."""

    total_s: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    #: Durations of the root spans: the sum of every span's self time.
    roots_s: float = 0.0
    #: Writing the snapshot: panel.to_json time outside fingerprint(), plus
    #: the panel.snapshot_file write.
    snapshot_write_s: float = 0.0
    #: Launch to the tracer's first clock read (interpreter start).
    startup_s: float = 0.0
    #: Summary written to process exit (interpreter teardown).
    exit_s: float = 0.0

    def add(self, other: "Layers") -> None:
        for mine, theirs in ((self.total_s, other.total_s), (self.self_s, other.self_s),
                             (self.calls, other.calls), (self.counts, other.counts)):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
        self.roots_s += other.roots_s
        self.snapshot_write_s += other.snapshot_write_s
        self.startup_s += other.startup_s
        self.exit_s += other.exit_s


def summarize(spans, counts=None) -> Layers:
    """Totals, self times and calls per span name, from one process's spans."""
    layers = Layers(counts=dict(counts or {}))
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        layers.total_s[name] = layers.total_s.get(name, 0.0) + end - start
        layers.self_s[name] = layers.self_s.get(name, 0.0) + own
        layers.calls[name] = layers.calls.get(name, 0) + 1
        if parent < 0:
            layers.roots_s += end - start
        if name == "panel.snapshot_file" or (name == "panel.to_json" and (
                parent < 0 or spans[parent][0] != "panel.fingerprint")):
            layers.snapshot_write_s += end - start
    return layers


def install(tracer: Tracer, targets=TARGETS) -> list[str]:
    """Wrap every target that exists; return the ones that do not."""
    from paneldep.errors import InsufficientDataError

    missing = []
    for owner_name, attr, span in targets:
        module, _, cls = owner_name.partition(":")
        owner = sys.modules.get(module)
        if owner is not None and cls:
            owner = getattr(owner, cls, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            missing.append(f"{owner_name}.{attr}")
            continue
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(span, raw.__func__)))
        elif attr == "lag_sweep":
            setattr(owner, attr, tracer.wrap(span, _counting_sweep(tracer, raw,
                                                                    InsufficientDataError)))
        else:
            setattr(owner, attr, tracer.wrap(span, raw))
    return missing


def _counting_sweep(tracer: Tracer, lag_sweep, insufficient):
    """lag_sweep that counts the lags it fitted and skipped.

    A sweep that fits no lag raises InsufficientDataError; all of its
    ``max_lag`` lags count as skipped.
    """
    def sweep(pair, max_lag, *args, **kwargs):
        try:
            result = lag_sweep(pair, max_lag, *args, **kwargs)
        except insufficient:
            tracer.counts["temporal.lags_skipped"] += max_lag
            raise
        tracer.counts["temporal.lags_fitted"] += len(result.results)
        tracer.counts["temporal.lags_skipped"] += len(result.skipped)
        return result
    return sweep


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    started = tracer.clock()
    index = tracer.begin("cli.import")
    import paneldep.cli
    tracer.end(index)
    command = next((a for a in cli_args if not a.startswith("-")), None)
    missing = install(tracer, TARGETS + (INGEST_TARGETS if command == "ingest" else ()))
    index = tracer.begin("cli.main")
    try:
        code = paneldep.cli.main(cli_args)
    finally:
        tracer.end(index)
        layers = summarize(tracer.spans, tracer.counts)
        with open(out, "w") as fh:
            json.dump({"started": started, "finished": tracer.clock(),
                       "layers": asdict(layers), "missing": missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
