"""Panel-data dependency battery.

Ingests region x indicator x year panels, computes disease-burden
metrics, and runs Pearson, mutual information, Granger and MIC over every
outcome/indicator pair, emitting matrices, heatmaps and a reproducible
bundle.
"""

from .battery import (
    BatteryConfig,
    MatrixCell,
    ResultMatrix,
    run_battery,
    summarize_lags,
)
from .burden import (
    BurdenInput,
    BurdenSummary,
    DisabilityWeights,
    LifeTable,
    age_standardize,
    compute_daly,
    compute_yld,
    compute_yll,
)
from .info import (
    JointHistogram,
    MicResult,
    MutualInfoResult,
    discretize,
    entropy,
    mic,
    mutual_information,
)
from .linear import PearsonResult, pearson, t_sf
from .panel import (
    AgeGroup,
    AlignedPair,
    AnnualSeries,
    BUILTIN_INDICATORS,
    IndicatorCode,
    PanelDataset,
    align_pair,
    indicator_lookup,
    load_fixture,
    parse_gbd_long,
    parse_wdi_wide,
)
from .report import (
    ExportBundle,
    build_bundle,
    export_csv,
    export_json,
    render_heatmap_svg,
)
from .temporal import (
    GrangerResult,
    LagDesign,
    LagSweep,
    SkippedLag,
    build_lag_design,
    f_sf,
    first_difference,
    granger_test,
    lag_sweep,
    nested_rss,
)

__version__ = "0.1.0"

__all__ = [
    "AgeGroup",
    "AlignedPair",
    "AnnualSeries",
    "BatteryConfig",
    "BUILTIN_INDICATORS",
    "BurdenInput",
    "BurdenSummary",
    "DisabilityWeights",
    "ExportBundle",
    "GrangerResult",
    "IndicatorCode",
    "JointHistogram",
    "LagDesign",
    "LagSweep",
    "LifeTable",
    "MatrixCell",
    "MicResult",
    "MutualInfoResult",
    "PanelDataset",
    "PearsonResult",
    "ResultMatrix",
    "SkippedLag",
    "age_standardize",
    "align_pair",
    "build_bundle",
    "build_lag_design",
    "compute_daly",
    "compute_yld",
    "compute_yll",
    "discretize",
    "entropy",
    "export_csv",
    "export_json",
    "f_sf",
    "first_difference",
    "granger_test",
    "indicator_lookup",
    "lag_sweep",
    "load_fixture",
    "mic",
    "mutual_information",
    "nested_rss",
    "parse_gbd_long",
    "parse_wdi_wide",
    "pearson",
    "render_heatmap_svg",
    "run_battery",
    "summarize_lags",
    "t_sf",
    "__version__",
]
