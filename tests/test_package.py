"""The package namespace resolves lazily, and only a kernel imports numpy."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import paneldep

SRC = Path(paneldep.__file__).resolve().parents[1]

PUBLIC = [name for name in paneldep.__all__ if name != "__version__"]


class TestNamespace:
    @pytest.mark.parametrize("name", PUBLIC)
    def test_name_resolves_to_its_submodule_object(self, name):
        module = importlib.import_module(f"paneldep.{paneldep._MODULE_OF[name]}")
        assert getattr(paneldep, name) is getattr(module, name)

    def test_dir_lists_every_public_name(self):
        assert set(paneldep.__all__) <= set(dir(paneldep))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            paneldep.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            from paneldep import no_such_name  # noqa: F401

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from paneldep import *", namespace)
        assert set(paneldep.__all__) <= set(namespace)
        assert namespace["__version__"] == "0.1.0"

    def test_one_version_string(self):
        from paneldep.report import TOOL_VERSION

        assert TOOL_VERSION is paneldep.__version__


# Runs in a fresh interpreter: which of numpy and click has each step loaded?
PROBE = """
import json, sys

def loaded():
    return sorted(m for m in ("numpy", "click") if m in sys.modules)

steps = {}
import paneldep
steps["import paneldep"] = loaded()
from paneldep.cli import main
steps["import paneldep.cli"] = loaded()
steps["fixture"] = main(["fixture", "--with-outcomes", "--out", "panel.csv"]), loaded()
steps["ingest"] = main(["--quiet", "ingest", "--wdi", "panel.csv",
                        "--out", "panel.json"]), loaded()
steps["refused analyze"] = main(["--quiet", "analyze", "--panel", "panel.json",
                                 "--config", "config.json", "--out", "stale"]), loaded()
steps["file out"] = main(["--quiet", "analyze", "--panel", "panel.json",
                          "--config", "config.json", "--out", "panel.csv"]), loaded()
steps["analyze"] = main(["--quiet", "analyze", "--panel", "panel.json",
                         "--config", "config.json", "--out", "results"]), loaded()
print(json.dumps(steps))
"""


def test_numpy_loads_only_when_a_kernel_runs(tmp_path):
    (tmp_path / "config.json").write_text(json.dumps({"methods": ["pearson"]}))
    # a matrix file of another run: analyze refuses it before any kernel runs
    (tmp_path / "stale").mkdir()
    (tmp_path / "stale" / "granger__old__all.csv").write_text("")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), path]))}
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    steps = json.loads(done.stdout.splitlines()[-1])
    assert steps == {
        "import paneldep": [],
        "import paneldep.cli": [],
        "fixture": [0, []],
        "ingest": [0, []],
        "refused analyze": [2, []],
        "file out": [1, []],
        "analyze": [0, ["numpy"]],
    }


# A Pearson and MI run, in a fresh interpreter: which paneldep modules are loaded?
SCREEN_PROBE = """
import json, sys
from paneldep.cli import main
codes = [main(["fixture", "--with-outcomes", "--out", "panel.csv"]),
         main(["--quiet", "analyze", "--panel", "panel.csv", "--config", "config.json",
               "--out", "results"])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("paneldep."))]))
"""


def test_a_screen_loads_only_its_kernels(tmp_path):
    (tmp_path / "config.json").write_text(
        json.dumps({"methods": ["pearson", "mutual_information"]}))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), path]))}
    done = subprocess.run([sys.executable, "-c", SCREEN_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    codes, modules = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert {"paneldep.linear", "paneldep.info"} <= set(modules)
    assert not {"paneldep.temporal", "paneldep.burden"} & set(modules)
