"""Marginal models for gridded wildfire counts and burnt areas."""

__version__ = "0.1.0"

from .burnt_area import BaMixture, GpdParams, fit_gpd, fit_mixture
from .config import RunConfig, format_config, load_config
from .counts import CountModel, ZinbParams, fit_zinb
from .data import Dataset, PredictionTable, build_dataset, ingest
from .dependence import DependenceReport, dependence_report
from .errors import (
    DataError,
    FiremargError,
    GeometryError,
    GpdFitError,
    IngestError,
)
from .geo import haversine_km, zone_area_km2
from .neighborhoods import Neighborhood, NeighborhoodSpec, build_neighborhood
from .pipeline import (
    PredictResult,
    RunArtifacts,
    ScoreReport,
    benchmark_tables,
    predict_tables,
    run_all,
    score_tables,
)
from .rules import calibrate_water_cut
from .scoring import ScoreConfig, score_one, score_rows
from .synth import GroundTruth, SyntheticSpec, generate
from .tuning import CvPlan, TuningGrid, TuningResult, build_cv_plan, select_parameters

__all__ = [
    "BaMixture", "CountModel", "CvPlan", "DataError", "Dataset",
    "DependenceReport", "FiremargError", "GeometryError", "GpdFitError",
    "GpdParams", "GroundTruth", "IngestError", "Neighborhood",
    "NeighborhoodSpec", "PredictResult", "PredictionTable", "RunArtifacts",
    "RunConfig", "ScoreConfig", "ScoreReport", "SyntheticSpec", "TuningGrid",
    "TuningResult", "ZinbParams", "benchmark_tables", "build_cv_plan",
    "build_dataset", "build_neighborhood", "calibrate_water_cut",
    "dependence_report", "fit_gpd", "fit_mixture", "fit_zinb", "format_config",
    "generate", "haversine_km", "ingest", "load_config", "predict_tables",
    "run_all", "score_one", "score_rows", "score_tables",
    "select_parameters", "zone_area_km2", "__version__",
]
