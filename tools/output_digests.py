"""Print the sha256 of every file the CLI writes in four reference runs.

The runs are:

- ``fixture``: ``paneldep fixture --with-outcomes``, then ``analyze`` of it
  with all four methods;
- ``regions-10``: the seed-1 10-region replica of the fixture (from
  ``perfbench/gen.py``), analyzed with all four methods;
- ``regions-130``: the seed-1 130-region replica (5,850 pairs per method,
  the paper's pair count), analyzed with all four methods, so that every
  kernel's stacks are cut into several slices;
- ``ingest-200``: the seed-1 200-region replica, ingested from its wide and
  long CSVs to a snapshot, then analyzed with Pearson and MI.

The output is one JSON object, run name -> file path -> sha256, with
sorted keys. Two trees that write the same bytes print the same object, and
so do two runs of one tree::

    python tools/output_digests.py > digests.json
"""

import hashlib
import json
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


def replica_run(work: Path, regions: int) -> dict[str, str]:
    gen.write_inputs(gen.make_replica(gen.fixture_panel(), regions, 1), work / "in")
    _analyze(work, work / "in" / "panel.csv", ALL_METHODS)
    return _digests(work, [])


def ingest_run(work: Path) -> dict[str, str]:
    gen.write_inputs(gen.make_replica(gen.fixture_panel(), 200, 1), work / "in")
    snapshot = work / "panel.json"
    _cli("ingest", "--wdi", str(work / "in" / "wide.csv"), "--gbd",
         str(work / "in" / "long.csv"), "--out", str(snapshot))
    _analyze(work, snapshot, ["pearson", "mutual_information"])
    return _digests(work, [snapshot])


RUNS = {"fixture": fixture_run, "regions-10": partial(replica_run, regions=10),
        "regions-130": partial(replica_run, regions=130), "ingest-200": ingest_run}


def main() -> int:
    found = {}
    for name, run in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            found[name] = run(Path(tmp))
    print(json.dumps(found, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
