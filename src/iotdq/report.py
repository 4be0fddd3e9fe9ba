"""Weighted aggregation into a QualityReport and canonical serialization.

Serialization is canonical so that byte equality is meaningful: fixed
top-level key order, metric entries in M1..M6 order, evidence and
per-sensor maps sorted by key, floats pre-rounded to 12 significant
digits, compact separators, trailing newline.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from typing import Any

from .errors import AggregationError, load_json
from .model import (
    DIMENSIONS,
    METRIC_IDS,
    MetricResult,
    QualityReport,
    _normalize_weights,
)
from .version import __version__

__all__ = ["aggregate", "serialize_report", "deserialize_report"]


def _c12(x: float) -> float:
    """Quantize to 12 significant digits; identity for short decimals."""
    return float(f"{x:.12g}")


def _canonical(value: Any) -> Any:
    """value with floats at 12 significant digits and maps sorted by key."""
    if isinstance(value, float):
        return _c12(value)
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def aggregate(
    results: Sequence[MetricResult],
    weights: Mapping[str, float],
    *,
    dataset_fingerprint: str = "",
    created_at: str | None = None,
    per_sensor: Mapping[str, Mapping[str, Any]] | None = None,
    tool_version: str = __version__,
) -> QualityReport:
    """Renormalize weights over applicable metrics and build the report.

    Metrics absent from results are recorded as inapplicable; duplicate
    entries for one metric are rejected.
    """
    by_id: dict[str, MetricResult] = {}
    for r in results:
        if r.metric_id in by_id:
            raise AggregationError(f"duplicate result for {r.metric_id}")
        by_id[r.metric_id] = r
    ordered = tuple(
        by_id.get(m, MetricResult.inapplicable(m)) for m in METRIC_IDS
    )
    raw, normalized, agg = _normalize_weights(ordered, weights)
    return QualityReport(
        per_metric=ordered,
        weights_raw=raw,
        weights_normalized=normalized,
        aggregate_score=agg,
        dataset_fingerprint=dataset_fingerprint,
        tool_version=tool_version,
        created_at=created_at,
        per_sensor=dict(per_sensor) if per_sensor is not None else None,
    )


def serialize_report(report: QualityReport) -> bytes:
    """Render the canonical JSON bytes of a report."""
    metrics = []
    for r in report.per_metric:
        metrics.append(
            {
                "id": r.metric_id,
                "dimension": DIMENSIONS[r.metric_id],
                "score": _canonical(r.score),
                "numerator_count": r.numerator_count,
                "denominator_count": r.denominator_count,
                "evidence": _canonical(r.evidence),
            }
        )
    doc = {
        "version": report.tool_version,
        "dataset_fingerprint": report.dataset_fingerprint,
        "created_at": report.created_at,
        "metrics": metrics,
        "per_sensor": _canonical(report.per_sensor),
        "weights": {
            "raw": {m: _c12(report.weights_raw.get(m, 0.0)) for m in METRIC_IDS},
            "normalized": {
                m: _c12(report.weights_normalized[m])
                for m in METRIC_IDS
                if m in report.weights_normalized
            },
        },
        "aggregate_score": _c12(report.aggregate_score),
    }
    text = json.dumps(doc, separators=(",", ":"), allow_nan=False)
    return text.encode("utf-8") + b"\n"


def deserialize_report(data: "bytes | str") -> QualityReport:
    """Rebuild a QualityReport from canonical JSON bytes.

    Accepts data only when serialize_report of the result gives the same
    bytes back (a str is compared as its UTF-8). Raises AggregationError,
    and no other error, for any input that is not a canonical report.
    """
    doc = load_json(data, AggregationError, "report")
    expected = {
        "version",
        "dataset_fingerprint",
        "created_at",
        "metrics",
        "per_sensor",
        "weights",
        "aggregate_score",
    }
    if set(doc) != expected:
        raise AggregationError("report does not have the canonical shape")
    try:
        results = [
            MetricResult(
                metric_id=entry["id"],
                score=entry["score"],
                numerator_count=entry["numerator_count"],
                denominator_count=entry["denominator_count"],
                evidence=entry["evidence"],
            )
            for entry in doc["metrics"]
        ]
        report = QualityReport(
            per_metric=tuple(results),
            weights_raw=doc["weights"]["raw"],
            weights_normalized=doc["weights"]["normalized"],
            aggregate_score=doc["aggregate_score"],
            dataset_fingerprint=doc["dataset_fingerprint"],
            tool_version=doc["version"],
            created_at=doc["created_at"],
            per_sensor=doc["per_sensor"],
        )
    except (ArithmeticError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise AggregationError(f"report is malformed: {exc!r}") from exc
    # A report that serializes to other bytes, or not at all (NaN evidence,
    # raw weights that are not a map), is not the one that was sealed.
    try:
        canonical = serialize_report(report)
    except (ArithmeticError, AttributeError, RecursionError, TypeError, ValueError):
        canonical = None
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    if canonical != data:
        raise AggregationError("report is not in canonical form")
    return report
