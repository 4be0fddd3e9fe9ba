"""Objective data-quality scoring for static time-series IoT datasets.

Six metrics over packet inter-arrival times and schema adherence,
aggregated into a weighted quality report, computable either locally or
inside a simulated data-blind three-party workflow.
"""

from .errors import (
    AggregationError,
    AttestationError,
    ConfigError,
    DatasetRejectedError,
    DegenerateIatError,
    GenSpecError,
    IngestFormatError,
    IotDqError,
    ReportNotReady,
    SchemaError,
    SealingError,
    WorkflowError,
)
from .metrics_iat import estimate_mode
from .model import (
    AssessmentConfig,
    IatModel,
    MetricResult,
    QualityReport,
    registry,
)
from .pipeline import assess, assess_file
from .report import aggregate, deserialize_report, serialize_report
from .schema import AttributeSpec, SchemaDocument, parse_schema
from .synthgen import GenSpec, GroundTruth, generate, iat_histogram
from .version import __version__

__all__ = [
    "__version__",
    "registry",
    "IatModel",
    "MetricResult",
    "QualityReport",
    "AssessmentConfig",
    "SchemaDocument",
    "AttributeSpec",
    "parse_schema",
    "estimate_mode",
    "aggregate",
    "serialize_report",
    "deserialize_report",
    "assess",
    "assess_file",
    "GenSpec",
    "GroundTruth",
    "generate",
    "iat_histogram",
    "IotDqError",
    "ConfigError",
    "IngestFormatError",
    "DatasetRejectedError",
    "SchemaError",
    "DegenerateIatError",
    "AggregationError",
    "GenSpecError",
    "SealingError",
    "AttestationError",
    "WorkflowError",
    "ReportNotReady",
]
