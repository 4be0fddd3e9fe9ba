"""End-to-end assessment of raw dataset bytes.

_fold reads records in one streaming pass: per-record normalisation,
schema flags, duplicate detection, and per-sensor timestamp collection.
assess() then runs the IAT metrics on the deduplicated per-sensor gaps
and assembles the report; sensor_iats() returns those gaps alone, for
the histogram command. The fold is the only scoring code: it
materializes no packet objects, which keeps million-record datasets
inside a tight time and memory envelope.

Records arrive from ingest.iter_records, which decodes NDJSON in blocks
of a few MiB rather than line by line. M4-M6 come from one Counter of
(metric, None) per violating record and (metric, attribute) per
violation. Under format_checks="types_only" a record's violations depend
only on its keys and value types, so the fold keeps its counter keys per
such signature and builds no attribute dict for a record whose signature
it has seen, unless the full_packet duplicate key needs one. Records
with nested values and every record under format_checks="full" are
judged one by one. One set holds the duplicate keys of every sensor:
the timestamp shifted past the sensor index under id_timestamp, the
packet_key_fields digest, which covers the sensor id, under full_packet.
Duplicates are counted per sensor.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
from array import array
from collections import Counter
from typing import Any, NamedTuple

import numpy as np

from . import _kernels
from .errors import DatasetRejectedError, DegenerateIatError
from .ingest import iter_records, parse_timestamp
from .metrics_iat import (
    EVIDENCE_CAP,
    estimate_mode,
    m1_from_sums,
    packet_key_fields,
    quantize,
    z_scores,
)
from .model import AssessmentConfig, MetricResult, QualityReport
from .report import aggregate
from .schema import METRIC_OF_KIND, SchemaDocument, _flags_for

__all__ = ["assess", "assess_file", "sensor_iats"]

logger = logging.getLogger(__name__)

_MEMO_CAP = 1 << 12  # distinct record signatures whose counter keys are kept
_NO_SCHEMA = SchemaDocument(attributes={}, mandatory=frozenset())


def _attributes(
    record: dict[str, Any], ts_field: str, sid_field: str
) -> tuple[dict[str, Any], bool]:
    """A record's attributes, nested objects flattened to dotted paths, and
    whether any value was nested. Raises ValueError on a list value."""
    attrs: dict[str, Any] = {}
    nested = False
    stack: list[tuple[str, dict[str, Any]]] = [("", record)]
    while stack:
        prefix, mapping = stack.pop()
        for key, value in mapping.items():
            if not prefix and (key == ts_field or key == sid_field):
                continue
            tv = type(value)
            if tv is dict:
                stack.append((f"{prefix}{key}.", value))
                nested = True
            elif tv is list or tv is tuple:
                raise ValueError(f"attribute {prefix + key!r} has a non-scalar value")
            else:
                attrs[prefix + key] = value
    return attrs, nested


def _hits(detail: tuple[tuple[str, str], ...]) -> tuple:
    """The violation counter keys of one record's _flags_for detail."""
    if not detail:
        return ()
    pairs = [(METRIC_OF_KIND[kind], attribute) for attribute, kind in detail]
    return (*{(metric, None) for metric, _ in pairs}, *pairs)


def _sensor_iat_arrays(buffers: list[array]) -> list[np.ndarray]:
    iats = []
    for buf in buffers:
        ts = np.sort(np.frombuffer(buf, dtype=np.int64))
        # The gap between sorted int64 values always fits in uint64, even
        # where int64 subtraction would wrap.
        iats.append((ts[1:].view(np.uint64) - ts[:-1].view(np.uint64)) / 1000.0)
    return iats


class _Tally(NamedTuple):
    """What one pass over the records leaves for scoring."""

    total: int  # valid records
    violations: Counter  # (metric, None) per record, (metric, attribute)
    dup_examples: list[list]
    sensor_index: dict[str, int]  # sensor id -> index, first-appearance order
    ts_buffers: list[array]  # deduplicated timestamps (ms) per sensor
    dups: list[int]  # duplicates per sensor


def _fold(
    data: bytes, schema: SchemaDocument, config: AssessmentConfig, fmt: str
) -> _Tally:
    """Normalise, flag and deduplicate every record in one pass.

    Raises DatasetRejectedError when more than half of the records are
    malformed.
    """
    prepared = schema.prepared()
    full_checks = config.format_checks == "full"
    ts_field = config.timestamp_field
    sid_field = config.sensor_id_field
    id_ts_key = config.duplicate_key == "id_timestamp"

    total = 0
    error_count = 0
    violations: Counter = Counter()
    dup_examples: list[list] = []
    sensor_index: dict[str, int] = {}
    ts_buffers: list[array] = []
    seen: set = set()  # duplicate keys of every sensor
    dups: list[int] = []

    # Under types_only checks a record's violations depend only on its keys
    # and value types, so they are judged once per such signature.
    memo: "dict[tuple, tuple] | None" = None if full_checks else {}

    for _index, record, _reason in iter_records(data, fmt):
        if record is None:
            error_count += 1
            continue
        try:
            if ts_field not in record:
                raise ValueError(f"missing timestamp field {ts_field!r}")
            timestamp_ms = parse_timestamp(record[ts_field])
            raw_id = record.get(sid_field)
            if isinstance(raw_id, bool) or raw_id is None:
                raise ValueError(f"missing sensor id field {sid_field!r}")
            if isinstance(raw_id, int):
                sensor_id = str(raw_id)
            elif isinstance(raw_id, str) and raw_id.strip():
                sensor_id = raw_id
            else:
                raise ValueError("sensor id must be a non-empty string or integer")
            hits = None
            if memo is not None:
                signature = (*record, *map(type, record.values()))
                hits = memo.get(signature)
            if hits is None or not id_ts_key:
                attrs, nested = _attributes(record, ts_field, sid_field)
        except ValueError:
            error_count += 1
            continue

        if hits is None:
            hits = _hits(_flags_for(attrs, prepared, full_checks))
            # A memoised signature never holds a nested or list value.
            if memo is not None and not nested and len(memo) < _MEMO_CAP:
                memo[signature] = hits
        total += 1
        for hit in hits:
            violations[hit] += 1

        sidx = sensor_index.get(sensor_id)
        if sidx is None:
            sidx = len(sensor_index)
            sensor_index[sensor_id] = sidx
            ts_buffers.append(array("q"))
            dups.append(0)
        if id_ts_key:
            # One int per (instant, sensor): no dataset has 2^64 sensors.
            key: Any = timestamp_ms << 64 | sidx
        else:
            key = packet_key_fields(sensor_id, timestamp_ms, attrs)
        if key in seen:
            dups[sidx] += 1
            if len(dup_examples) < EVIDENCE_CAP:
                dup_examples.append([sensor_id, timestamp_ms])
        else:
            seen.add(key)
            ts_buffers[sidx].append(timestamp_ms)

    records_seen = total + error_count
    if records_seen and error_count * 2 > records_seen:
        raise DatasetRejectedError(
            f"{error_count} of {records_seen} records malformed (more than half)"
        )
    if error_count:
        logger.info("ingestion skipped %d malformed records", error_count)
    return _Tally(total, violations, dup_examples, sensor_index, ts_buffers, dups)


def sensor_iats(
    data: bytes, config: AssessmentConfig, format: "str | None" = None
) -> list[tuple[str, np.ndarray]]:
    """(sensor_id, IATs in seconds) per sensor, in first-appearance order.

    The IATs are those assess() scores: gaps between the sorted timestamps
    a sensor keeps after deduplication under config.duplicate_key. Raises
    DatasetRejectedError when more than half of the records are malformed.
    """
    # No violation is read here; under types_only each signature is judged once.
    config = dataclasses.replace(config, format_checks="types_only")
    tally = _fold(data, _NO_SCHEMA, config, format or config.dataset_format)
    return list(zip(tally.sensor_index, _sensor_iat_arrays(tally.ts_buffers)))


def assess(
    data: bytes,
    schema: SchemaDocument,
    config: AssessmentConfig,
    format: "str | None" = None,
) -> QualityReport:
    """Assess one dataset; returns the quality report.

    Raises DatasetRejectedError when more than half of the records are
    malformed or no valid record remains.
    """
    tally = _fold(data, schema, config, format or config.dataset_format)
    total = tally.total
    if total == 0:
        raise DatasetRejectedError("dataset contains no valid records")
    iats = _sensor_iat_arrays(tally.ts_buffers)

    if config.mode_scope == "dataset":
        pooled = (
            np.concatenate([x for x in iats if x.size])
            if any(x.size for x in iats)
            else np.empty(0, dtype=np.float64)
        )
        shared_model = None
        if pooled.size:
            try:
                shared_model = estimate_mode(pooled, config.quantization_seconds)
            except DegenerateIatError:
                shared_model = None

    m1_num = 0.0
    m1_poor_den = 0.0
    m1_good = 0
    m1_poor = 0
    m2_out = 0
    m2_total = 0
    m2_max_z = 0.0
    m2_bases: set[str] = set()
    outlier_examples: list[list] = []
    degenerate_sensors: list[str] = []
    per_sensor: dict[str, dict[str, Any]] = {}

    for sensor_id, sensor_iats, unique, dups in zip(
        tally.sensor_index, iats, tally.ts_buffers, tally.dups
    ):
        entry: dict[str, Any] = {
            "packet_count": len(unique) + dups,
            "unique_count": len(unique),
            "iat_count": int(sensor_iats.size),
        }
        per_sensor[sensor_id] = entry
        if sensor_iats.size == 0:
            continue
        if config.mode_scope == "dataset":
            model = shared_model
        else:
            try:
                model = estimate_mode(sensor_iats, config.quantization_seconds)
            except DegenerateIatError:
                model = None
        if model is None:
            degenerate_sensors.append(sensor_id)
            entry["degenerate"] = True
            continue
        entry["mode"] = model.mode
        entry["mad"] = model.mad

        binned = quantize(sensor_iats, model.quantization)
        num, poor_den, good, poor = _kernels.m1_sums(
            binned, model.mode, config.rae_crossover
        )
        m1_num += float(num)
        m1_poor_den += float(poor_den)
        m1_good += int(good)
        m1_poor += int(poor)
        entry["m1_numerator_sum"] = float(num)
        entry["m1_denominator_sum"] = float(good) + float(poor_den)

        z, basis = z_scores(sensor_iats, model)
        absz = np.abs(z)
        outliers = np.nonzero(absz > config.z_cutoff)[0]
        m2_out += int(outliers.size)
        m2_total += int(sensor_iats.size)
        m2_max_z = max(m2_max_z, float(absz.max()))
        m2_bases.add(basis)
        entry["spread_basis"] = basis
        entry["m2_outlier_count"] = int(outliers.size)
        for i in outliers[: max(0, EVIDENCE_CAP - len(outlier_examples))]:
            outlier_examples.append([sensor_id, int(i)])

    results = []
    results.append(
        m1_from_sums(
            m1_num,
            m1_poor_den,
            m1_good,
            m1_poor,
            config.rae_crossover,
            {
                "mode_scope": config.mode_scope,
                "degenerate_sensors": sorted(degenerate_sensors),
            },
        )
    )
    if m2_total == 0:
        results.append(
            MetricResult.inapplicable(
                "M2", {"degenerate_sensors": sorted(degenerate_sensors)}
            )
        )
    else:
        results.append(
            MetricResult.ratio(
                "M2",
                m2_out,
                m2_total,
                {
                    "cutoff": float(config.z_cutoff),
                    "spread_basis": "/".join(sorted(m2_bases)),
                    "max_abs_z": m2_max_z,
                    "outlier_examples": outlier_examples,
                    "degenerate_sensors": sorted(degenerate_sensors),
                },
            )
        )
    dup_count = sum(tally.dups)
    results.append(
        MetricResult.ratio(
            "M3",
            dup_count,
            total,
            {
                "duplicate_key": config.duplicate_key,
                "distinct_keys": total - dup_count,
                "examples": tally.dup_examples,
            },
        )
    )
    violations = tally.violations
    for metric_id in ("M4", "M5", "M6"):
        by_attribute = sorted(
            (attribute, count)
            for (metric, attribute), count in violations.items()
            if metric == metric_id and attribute is not None
        )
        results.append(
            MetricResult.ratio(
                metric_id,
                violations[metric_id, None],
                total,
                {"by_attribute": dict(by_attribute)},
            )
        )

    return aggregate(
        results,
        config.weights,
        dataset_fingerprint=hashlib.sha256(data).hexdigest(),
        created_at=config.created_at,
        per_sensor=per_sensor,
    )


def assess_file(
    data_path: str,
    schema: SchemaDocument,
    config: AssessmentConfig,
    format: "str | None" = None,
) -> QualityReport:
    """Assess a dataset file on disk."""
    with open(data_path, "rb") as fh:
        data = fh.read()
    return assess(data, schema, config, format=format)
