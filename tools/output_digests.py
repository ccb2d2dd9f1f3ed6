"""Print the sha256 of every file the CLI writes in five reference runs.

The runs are:

- ``fixture``: ``paneldep fixture --with-outcomes``, then ``analyze`` of it
  with all four methods;
- ``regions-10``: the seed-1 10-region replica of the fixture (from
  ``perfbench/gen.py``), analyzed with all four methods;
- ``regions-130``: the seed-1 130-region replica (5,850 pairs per method,
  the paper's pair count), analyzed with all four methods, so that every
  kernel's stacks are cut into several slices;
- ``ingest-200``: the seed-1 200-region replica, ingested from its wide and
  long CSVs to a snapshot, then analyzed with Pearson and MI;
- ``gapped-27``: the seed-1 27-region replica with 15 % of its indicator
  values removed (a ``random.Random(7)`` sample of them), analyzed with all
  four methods. The other replicas repeat the fixture's gaps in every
  region; this one has many joint year sets, so many length groups, and
  pairs whose years jump, which Granger skips.

The output is one JSON object, run name -> file path -> sha256, with
sorted keys. Two trees that write the same bytes print the same object, and
so do two runs of one tree::

    python tools/output_digests.py > digests.json
"""

import dataclasses
import hashlib
import json
import random
import sys
import tempfile
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from paneldep.cli import main as cli_main  # noqa: E402

ALL_METHODS = ["pearson", "mutual_information", "granger", "mic"]


def _cli(*argv: str) -> None:
    code = cli_main(["--quiet", *argv])
    if code != 0:
        raise SystemExit(f"paneldep {' '.join(argv)} exited {code}")


def _analyze(work: Path, panel: Path, methods: list[str]) -> None:
    config = work / "config.json"
    config.write_text(json.dumps({"methods": methods}))
    _cli("analyze", "--panel", str(panel), "--config", str(config),
         "--out", str(work / "out"))


def _digests(work: Path, outputs: list[Path]) -> dict[str, str]:
    files = [*outputs, *sorted((work / "out").iterdir())]
    return {path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in files}


def fixture_run(work: Path) -> dict[str, str]:
    panel = work / "panel.csv"
    _cli("fixture", "--with-outcomes", "--out", str(panel))
    _analyze(work, panel, ALL_METHODS)
    return _digests(work, [panel])


def _panel_run(work: Path, panel: gen.Panel) -> dict[str, str]:
    gen.write_inputs(panel, work / "in")
    _analyze(work, work / "in" / "panel.csv", ALL_METHODS)
    return _digests(work, [])


def replica_run(work: Path, regions: int) -> dict[str, str]:
    return _panel_run(work, gen.make_replica(gen.fixture_panel(), regions, 1))


def gapped_run(work: Path) -> dict[str, str]:
    panel = gen.make_replica(gen.fixture_panel(), 27, 1)
    present = [(key, i) for key in sorted(panel.values) if key[1] in panel.indicators
               for i, value in enumerate(panel.values[key]) if value is not None]
    removed = set(random.Random(7).sample(present, round(0.15 * len(present))))
    values = {key: tuple(None if (key, i) in removed else value for i, value in enumerate(row))
              for key, row in panel.values.items()}
    return _panel_run(work, dataclasses.replace(panel, values=values))


def ingest_run(work: Path) -> dict[str, str]:
    gen.write_inputs(gen.make_replica(gen.fixture_panel(), 200, 1), work / "in")
    snapshot = work / "panel.json"
    _cli("ingest", "--wdi", str(work / "in" / "wide.csv"), "--gbd",
         str(work / "in" / "long.csv"), "--out", str(snapshot))
    _analyze(work, snapshot, ["pearson", "mutual_information"])
    return _digests(work, [snapshot])


RUNS = {"fixture": fixture_run, "regions-10": partial(replica_run, regions=10),
        "regions-130": partial(replica_run, regions=130), "ingest-200": ingest_run,
        "gapped-27": gapped_run}


def main() -> int:
    found = {}
    for name, run in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            found[name] = run(Path(tmp))
    print(json.dumps(found, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
