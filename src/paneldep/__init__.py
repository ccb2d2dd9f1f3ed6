"""Panel-data dependency battery.

Ingests region x indicator x year panels, computes disease-burden
metrics, and runs Pearson, mutual information, Granger and MIC over every
outcome/indicator pair, emitting matrices, heatmaps and a reproducible
bundle.

The public names below are imported from their submodules on first use
(PEP 562), so ``import paneldep`` and the commands that run no kernel do
not import numpy.
"""

import importlib

#: The one copy of the version: pyproject.toml and report.TOOL_VERSION read it.
__version__ = "0.1.0"

_EXPORTS = {
    "battery": ("BatteryConfig", "MatrixCell", "ResultMatrix", "plan_battery",
                "run_battery", "summarize_lags"),
    "burden": ("BurdenInput", "BurdenSummary", "DisabilityWeights", "LifeTable",
               "age_standardize", "compute_daly", "compute_yld", "compute_yll"),
    "info": ("JointHistogram", "MicResult", "MutualInfoResult", "discretize",
             "entropy", "mic", "mutual_information"),
    "linear": ("PearsonResult", "pearson", "t_sf"),
    "panel": ("AgeGroup", "AlignedPair", "AnnualSeries", "BUILTIN_INDICATORS",
              "IndicatorCode", "PanelDataset", "align_pair", "indicator_lookup",
              "load_fixture", "parse_gbd_long", "parse_wdi_wide"),
    "report": ("ExportBundle", "build_bundle", "cell_scalars", "export_csv",
               "export_json", "render_heatmap_svg"),
    "special": ("f_sf",),
    "temporal": ("GrangerResult", "LagSweep", "SkippedLag", "first_difference",
                 "granger_test", "lag_sweep", "nested_rss"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
