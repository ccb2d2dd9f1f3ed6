"""The package namespace resolves lazily, only a kernel imports numpy, the
process entry point starts OpenBLAS with one thread, and the README's
examples run."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import paneldep

SRC = Path(paneldep.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"

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


# Runs in a fresh interpreter: which of numpy, numpy.ma and click has each
# step loaded? numpy.ma costs about 10 ms and 1.25 MB; a plain np.unique(x)
# loads it, and no kernel needs it.
PROBE = """
import json, sys

def loaded():
    return sorted(m for m in ("numpy", "numpy.ma", "click") if m in sys.modules)

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
    (tmp_path / "config.json").write_text(json.dumps(
        {"methods": ["pearson", "mutual_information", "granger", "mic"]}))
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


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# A Granger analyze through the process entry point, in a fresh interpreter:
# its exit code, whether numpy loaded, the thread variables and the thread count.
PIN_PROBE = """
import json, os, sys
from paneldep import cli
sys.argv = ["paneldep", "--quiet", "analyze", "--panel", "panel.csv",
            "--config", "config.json", "--out", "results"]
code = cli.entry()
task = "/proc/self/task"
print(json.dumps([code, "numpy" in sys.modules,
                  {name: os.environ.get(name) for name in %r},
                  len(os.listdir(task)) if os.path.isdir(task) else None]))
""" % (BLAS_THREAD_VARS,)


def _granger_inputs(path):
    from paneldep.panel import load_fixture

    (path / "panel.csv").write_text(load_fixture(with_outcomes=True).to_wdi_csv())
    (path / "config.json").write_text(json.dumps({"methods": ["granger"]}))


@pytest.mark.parametrize("caller, after, threads", [
    ({}, {"OPENBLAS_NUM_THREADS": "1"}, 1),
    ({"OPENBLAS_NUM_THREADS": ""}, {"OPENBLAS_NUM_THREADS": "1"}, 1),
    ({"OMP_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}, None),
], ids=["unset", "empty", "caller-set"])
def test_the_entry_point_starts_openblas_with_one_thread(tmp_path, caller, after,
                                                         threads):
    _granger_inputs(tmp_path)
    path = os.environ.get("PYTHONPATH")
    env = {name: value for name, value in os.environ.items()
           if name not in BLAS_THREAD_VARS}
    env.update(caller, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), path])))
    done = subprocess.run([sys.executable, "-c", PIN_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, numpy_loaded, seen, count = json.loads(done.stdout.splitlines()[-1])
    assert (code, numpy_loaded) == (0, True)
    assert seen == {name: after.get(name) for name in BLAS_THREAD_VARS}
    if threads is not None and count is not None:  # /proc/self/task is Linux's
        assert count == threads
    assert any((tmp_path / "results").glob("granger__*.csv"))


def test_main_leaves_the_environment_as_it_is(tmp_path, monkeypatch):
    from paneldep.cli import main

    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.chdir(tmp_path)
    _granger_inputs(tmp_path)
    before = dict(os.environ)
    assert main(["--quiet", "analyze", "--panel", "panel.csv", "--config",
                 "config.json", "--out", "results"]) == 0
    assert dict(os.environ) == before


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


def test_readme_python_blocks_run(capsys):
    """Each ```python block of README.md runs, in a namespace of its own, so
    the docs cannot name a function that is gone."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert blocks
    for i, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python block {i}", "exec"), {})
