"""driftmap: quantify and map concept drift in timestamped tabular streams.

The pipeline: declare a schema and ingest CSV/ARFF data, encode it with
global equal-frequency discretization, estimate windowed distributions,
then measure drift between windows (total variation or Hellinger) over
any attribute subset -- including class-conditional and posterior
variants -- and communicate the results as drift time series and
heat-map grids rendered to SVG.
"""

from .schema import (
    Attribute,
    AttributeSchema,
    RawDataset,
    SchemaError,
    IngestError,
    parse_schema,
    ingest_records,
)
from .discretize import (
    MISSING_CODE,
    Discretizer,
    EncodedDataset,
    fit_discretizer,
    apply_discretizer,
)
from .estimate import (
    AttributeSubset,
    ConditionalFamily,
    DistributionEstimate,
    TimeInterval,
    WindowView,
    select_window,
    estimate_distribution,
    estimate_conditional,
)
from .measures import (
    DriftMeasurement,
    total_variation,
    hellinger,
    marginal_drift,
    conditioned_covariate_drift,
    posterior_drift,
    compute_drift,
)
from .temporal import (
    DriftSeries,
    MeasureSpec,
    SweepSpec,
    drift_series,
    series_statistics,
)
from .maps import (
    HeatMapGrid,
    pairwise_joint_map,
    conditioned_univariate_map,
    conditioned_pairwise_map,
    posterior_pairwise_map,
)
from .render import PlotStyle, render_heatmap, render_lineplot

__version__ = "0.1.0"


def __getattr__(name):
    # run_cli is imported on first use, so that ``python -m driftmap.cli`` does
    # not find driftmap.cli already imported by the package
    if name == "run_cli":
        from .cli import run_cli
        return run_cli
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Attribute",
    "AttributeSchema",
    "AttributeSubset",
    "ConditionalFamily",
    "Discretizer",
    "DistributionEstimate",
    "DriftMeasurement",
    "DriftSeries",
    "EncodedDataset",
    "HeatMapGrid",
    "IngestError",
    "MISSING_CODE",
    "MeasureSpec",
    "PlotStyle",
    "RawDataset",
    "SchemaError",
    "SweepSpec",
    "TimeInterval",
    "WindowView",
    "apply_discretizer",
    "compute_drift",
    "conditioned_covariate_drift",
    "conditioned_pairwise_map",
    "conditioned_univariate_map",
    "drift_series",
    "estimate_conditional",
    "estimate_distribution",
    "fit_discretizer",
    "hellinger",
    "ingest_records",
    "marginal_drift",
    "pairwise_joint_map",
    "parse_schema",
    "posterior_drift",
    "posterior_pairwise_map",
    "render_heatmap",
    "render_lineplot",
    "run_cli",
    "select_window",
    "series_statistics",
    "total_variation",
]
