"""Shared domain types and the metric registry.

No I/O and no metric computation happen here; types validate their own
invariants on construction and are immutable afterwards.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Sequence

from .errors import AggregationError, ConfigError, load_json

__all__ = [
    "METRIC_IDS",
    "DIMENSIONS",
    "IatModel",
    "MetricResult",
    "QualityReport",
    "AssessmentConfig",
    "registry",
]

METRIC_IDS: tuple[str, ...] = ("M1", "M2", "M3", "M4", "M5", "M6")

DIMENSIONS: dict[str, str] = {
    "M1": "Timeliness",
    "M2": "Consistency",
    "M3": "Uniqueness",
    "M4": "Completeness",
    "M5": "Validity",
    "M6": "Validity",
}

_DESCRIPTIONS: dict[str, str] = {
    "M1": "Regularity of inter-arrival times relative to the modal reporting interval.",
    "M2": "Share of inter-arrival times that are not modified-z-score outliers.",
    "M3": "Share of packets that are not duplicates under the configured key.",
    "M4": "Share of packets carrying every mandatory attribute.",
    "M5": "Share of packets free of attributes absent from the schema.",
    "M6": "Share of packets whose attribute values match their declared formats.",
}

MODE_SCOPES = ("per_sensor", "dataset")
DUPLICATE_KEYS = ("id_timestamp", "full_packet")
FORMAT_CHECKS = ("types_only", "full")
DATASET_FORMATS = ("ndjson", "csv", "json_array")


def registry() -> list[tuple[str, str, str]]:
    """Return the six (metric_id, dimension, description) entries."""
    return [(m, DIMENSIONS[m], _DESCRIPTIONS[m]) for m in METRIC_IDS]


@dataclass(frozen=True, slots=True)
class IatModel:
    """Modal inter-arrival time and spread statistics for one IAT sample."""

    mode: float
    quantization: float
    mad: float
    fallback_mean_ad: float | None = None

    def __post_init__(self) -> None:
        if not (self.mode > 0.0):
            raise ValueError("mode must be positive")
        if not (self.quantization > 0.0):
            raise ValueError("quantization must be positive")
        if self.mad < 0.0:
            raise ValueError("mad must be non-negative")
        if (self.mad == 0.0) != (self.fallback_mean_ad is not None):
            raise ValueError("fallback_mean_ad must be present exactly when mad == 0")
        if self.fallback_mean_ad is not None and self.fallback_mean_ad < 0.0:
            raise ValueError("fallback_mean_ad must be non-negative")


@dataclass(frozen=True, slots=True)
class MetricResult:
    """Score of one metric; score None marks an inapplicable metric."""

    metric_id: str
    score: float | None
    numerator_count: int
    denominator_count: int
    evidence: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.metric_id not in METRIC_IDS:
            raise ValueError(f"unknown metric id: {self.metric_id!r}")
        if self.numerator_count < 0 or self.denominator_count < 0:
            raise ValueError("counts must be non-negative")
        if self.score is not None and not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must lie in [0, 1], got {self.score!r}")

    @classmethod
    def ratio(
        cls,
        metric_id: str,
        violation_count: int,
        total_count: int,
        evidence: Mapping[str, Any] | None = None,
    ) -> "MetricResult":
        """Build a per-packet ratio result, score = 1 - violations/total."""
        if total_count <= 0:
            return cls.inapplicable(metric_id, evidence)
        if violation_count > total_count:
            raise ValueError("violation count exceeds total count")
        return cls(
            metric_id=metric_id,
            score=1.0 - violation_count / total_count,
            numerator_count=violation_count,
            denominator_count=total_count,
            evidence=dict(evidence) if evidence else {},
        )

    @classmethod
    def inapplicable(
        cls, metric_id: str, evidence: Mapping[str, Any] | None = None
    ) -> "MetricResult":
        return cls(
            metric_id=metric_id,
            score=None,
            numerator_count=0,
            denominator_count=0,
            evidence=dict(evidence) if evidence else {},
        )


def _normalize_weights(
    results: Sequence[MetricResult], weights: Mapping[str, float]
) -> tuple[dict[str, float], dict[str, float], float]:
    raw = {m: float(weights.get(m, 0.0)) for m in METRIC_IDS}
    for m, w in raw.items():
        if not math.isfinite(w) or w < 0.0:
            raise AggregationError(f"weight for {m} must be finite and >= 0")
    applicable = [r for r in results if r.score is not None]
    if not applicable:
        raise AggregationError("no applicable metric to aggregate")
    total = math.fsum(raw[r.metric_id] for r in applicable)
    if total <= 0.0:
        raise AggregationError("weights over applicable metrics must sum to > 0")
    normalized = {r.metric_id: raw[r.metric_id] / total for r in applicable}
    aggregate = math.fsum(normalized[r.metric_id] * r.score for r in applicable)
    # The exact weighted mean lies inside the score envelope; clip the
    # last-digit rounding noise so the bound holds in floating point too.
    scores = [r.score for r in applicable]
    aggregate = min(max(aggregate, min(scores)), max(scores))
    return raw, normalized, float(aggregate)


@dataclass(frozen=True, slots=True)
class QualityReport:
    """Assessment outcome: six metric results, weights, and the aggregate."""

    per_metric: tuple[MetricResult, ...]
    weights_raw: Mapping[str, float]
    weights_normalized: Mapping[str, float]
    aggregate_score: float
    dataset_fingerprint: str
    tool_version: str
    created_at: str | None = None
    per_sensor: Mapping[str, Mapping[str, Any]] | None = None

    def __post_init__(self) -> None:
        ids = [r.metric_id for r in self.per_metric]
        if ids != list(METRIC_IDS):
            raise ValueError("per_metric must hold M1..M6 in order")
        applicable = [r for r in self.per_metric if r.score is not None]
        if not applicable:
            raise ValueError("report requires at least one applicable metric")
        wsum = sum(self.weights_normalized.get(r.metric_id, 0.0) for r in applicable)
        if abs(wsum - 1.0) > 1e-9:
            raise ValueError("normalized weights over applicable metrics must sum to 1")
        recomputed = sum(
            self.weights_normalized.get(r.metric_id, 0.0) * r.score for r in applicable
        )
        if abs(recomputed - self.aggregate_score) > 1e-9:
            raise ValueError("aggregate_score does not match its weighted mean")

    def result(self, metric_id: str) -> MetricResult:
        for r in self.per_metric:
            if r.metric_id == metric_id:
                return r
        raise KeyError(metric_id)

    def score(self, metric_id: str) -> float | None:
        return self.result(metric_id).score


_CONFIG_STRINGS = (
    "timestamp_field",
    "sensor_id_field",
    "mode_scope",
    "duplicate_key",
    "format_checks",
    "dataset_format",
    "domain",
)


def _config_number(label: str, value: Any) -> float:
    """float(value) for an int or float config value, else ConfigError."""
    if not isinstance(value, (int, float)):
        raise ConfigError(f"{label} must be a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{label} is out of range") from exc


@dataclass(frozen=True, slots=True)
class AssessmentConfig:
    """Assessor-supplied knobs; defaults follow the metric definitions."""

    timestamp_field: str = "timestamp"
    sensor_id_field: str = "sensor_id"
    weights: Mapping[str, float] = field(
        default_factory=lambda: {m: 1.0 for m in METRIC_IDS}
    )
    rae_crossover: float = 0.5
    z_cutoff: float = 3.5
    quantization_seconds: float = 1.0
    mode_scope: str = "per_sensor"
    duplicate_key: str = "id_timestamp"
    format_checks: str = "types_only"
    dataset_format: str = "ndjson"
    domain: str = ""
    created_at: str | None = None

    def __post_init__(self) -> None:
        for name in _CONFIG_STRINGS:
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string")
        if self.created_at is not None and not isinstance(self.created_at, str):
            raise ConfigError("created_at must be a string or null")
        for name in ("rae_crossover", "z_cutoff", "quantization_seconds"):
            _config_number(name, getattr(self, name))
        if not isinstance(self.weights, Mapping):
            raise ConfigError("weights must map metric ids to numbers")
        if not self.timestamp_field or not self.sensor_id_field:
            raise ConfigError("timestamp_field and sensor_id_field must be named")
        if self.timestamp_field == self.sensor_id_field:
            raise ConfigError("timestamp_field and sensor_id_field must differ")
        if not (self.rae_crossover > 0.0):
            raise ConfigError("rae_crossover must be > 0")
        if not (self.z_cutoff > 0.0):
            raise ConfigError("z_cutoff must be > 0")
        if not (self.quantization_seconds > 0.0):
            raise ConfigError("quantization_seconds must be > 0")
        if self.mode_scope not in MODE_SCOPES:
            raise ConfigError(f"mode_scope must be one of {MODE_SCOPES}")
        if self.duplicate_key not in DUPLICATE_KEYS:
            raise ConfigError(f"duplicate_key must be one of {DUPLICATE_KEYS}")
        if self.format_checks not in FORMAT_CHECKS:
            raise ConfigError(f"format_checks must be one of {FORMAT_CHECKS}")
        if self.dataset_format not in DATASET_FORMATS:
            raise ConfigError(f"dataset_format must be one of {DATASET_FORMATS}")
        weights = {
            str(k): _config_number(f"weight for {k}", v)
            for k, v in self.weights.items()
        }
        unknown = set(weights) - set(METRIC_IDS)
        if unknown:
            raise ConfigError(f"weights name unknown metrics: {sorted(unknown)}")
        for m, w in weights.items():
            if not math.isfinite(w) or w < 0.0:
                raise ConfigError(f"weight for {m} must be finite and >= 0")
        full = {m: weights.get(m, 0.0) for m in METRIC_IDS}
        if not any(w > 0.0 for w in full.values()):
            raise ConfigError("at least one weight must be > 0")
        object.__setattr__(self, "weights", full)

    def to_json(self) -> bytes:
        return json.dumps(asdict(self), indent=2).encode("utf-8") + b"\n"

    @classmethod
    def from_json(cls, data: "bytes | str") -> "AssessmentConfig":
        doc = load_json(data, ConfigError, "config")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)
