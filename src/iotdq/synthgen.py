"""Synthetic time-series dataset generation with exact defect bookkeeping.

Defects are injected by index selection without replacement, so the
GroundTruth sidecar carries exact counts, and the expected scores of the
per-packet ratio metrics follow in closed form. Jitter is uniform in
plus/minus jitter_fraction of the interval; injected outlier gaps are a
jittered gap scaled by outlier_magnitude, far beyond the z cutoff by
construction. Duplicate copies are always taken from defect-free packets
so each injected count maps to exactly one metric.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, GenSpecError
from .schema import SchemaDocument, parse_schema

__all__ = [
    "DEFAULT_SCHEMA",
    "GenSpec",
    "GroundTruth",
    "generate",
    "iat_histogram",
]

# Demo schema used by the CLI when a generator spec names none.
DEFAULT_SCHEMA: dict[str, Any] = {
    "properties": {
        "pm25": {"type": "number", "minimum": 0, "maximum": 500},
        "temperature": {"type": "number", "minimum": -40, "maximum": 85},
        "status": {"type": "string"},
    },
    "required": ["pm25", "temperature"],
}

_UNKNOWN_ATTR = "unexpected_debug"
# 2026-01-01T00:00:00Z
_DEFAULT_START_MS = 1_767_225_600_000


@dataclass(frozen=True, slots=True)
class GenSpec:
    """Knobs of one deterministic generation run."""

    sensor_count: int = 1
    packets_per_sensor: int = 100
    interval_seconds: float = 60.0
    jitter_fraction: float = 0.0
    outlier_rate: float = 0.0
    outlier_magnitude: float = 10.0
    duplicate_rate: float = 0.0
    missing_mandatory_rate: float = 0.0
    unknown_attr_rate: float = 0.0
    format_error_rate: float = 0.0
    seed: int = 0
    timestamp_field: str = "timestamp"
    sensor_id_field: str = "sensor_id"
    start_epoch_ms: int = _DEFAULT_START_MS

    def __post_init__(self) -> None:
        if self.sensor_count < 1:
            raise GenSpecError("sensor_count must be >= 1")
        if self.packets_per_sensor < 1:
            raise GenSpecError("packets_per_sensor must be >= 1")
        if not (self.interval_seconds > 0.0):
            raise GenSpecError("interval_seconds must be > 0")
        if not (0.0 <= self.jitter_fraction < 0.5):
            raise GenSpecError("jitter_fraction must lie in [0, 0.5)")
        for name in (
            "outlier_rate",
            "duplicate_rate",
            "missing_mandatory_rate",
            "unknown_attr_rate",
            "format_error_rate",
        ):
            rate = getattr(self, name)
            if not (0.0 <= rate < 1.0):
                raise GenSpecError(f"{name} must lie in [0, 1)")
        if not (self.outlier_magnitude > 1.0):
            raise GenSpecError("outlier_magnitude must be > 1")
        if self.interval_seconds * (1.0 - self.jitter_fraction) < 0.001:
            raise GenSpecError("interval*(1-jitter) must be at least 1 ms")
        if not self.timestamp_field or not self.sensor_id_field:
            raise GenSpecError("timestamp_field and sensor_id_field must be named")

    def to_json(self) -> bytes:
        return json.dumps(asdict(self), indent=2).encode("utf-8") + b"\n"

    @classmethod
    def from_json(cls, data: "bytes | str") -> "GenSpec":
        try:
            doc = json.loads(data)
        except ValueError as exc:
            raise GenSpecError(f"spec is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise GenSpecError("spec must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known - {"schema"}
        if unknown:
            raise GenSpecError(f"unknown spec keys: {sorted(unknown)}")
        fields = {k: v for k, v in doc.items() if k in known}
        try:
            return cls(**fields)
        except TypeError as exc:
            raise GenSpecError(str(exc)) from exc


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """Exact injected-defect bookkeeping for one generated dataset."""

    packets_total: int
    iat_total: int
    duplicates: int
    outlier_iats: int
    missing_mandatory: int
    unknown_attrs: int
    format_errors: int
    sentinel_values: tuple[str, ...]
    per_sensor: Mapping[str, Mapping[str, int]]

    @property
    def expected_scores(self) -> dict[str, "float | None"]:
        """Closed-form expected metric scores (M1 is not predicted)."""
        n = self.packets_total
        scores: dict[str, float | None] = {"M1": None}
        scores["M2"] = (
            1.0 - self.outlier_iats / self.iat_total if self.iat_total else None
        )
        scores["M3"] = 1.0 - self.duplicates / n if n else None
        scores["M4"] = 1.0 - self.missing_mandatory / n if n else None
        scores["M5"] = 1.0 - self.unknown_attrs / n if n else None
        scores["M6"] = 1.0 - self.format_errors / n if n else None
        return scores

    def to_json(self) -> bytes:
        doc = {
            "packets_total": self.packets_total,
            "iat_total": self.iat_total,
            "duplicates": self.duplicates,
            "outlier_iats": self.outlier_iats,
            "missing_mandatory": self.missing_mandatory,
            "unknown_attrs": self.unknown_attrs,
            "format_errors": self.format_errors,
            "sentinel_values": list(self.sentinel_values),
            "per_sensor": {k: dict(v) for k, v in sorted(self.per_sensor.items())},
            "expected_scores": self.expected_scores,
        }
        return json.dumps(doc, indent=2, sort_keys=True).encode("utf-8") + b"\n"

    @classmethod
    def from_json(cls, data: "bytes | str") -> "GroundTruth":
        doc = json.loads(data)
        return cls(
            packets_total=doc["packets_total"],
            iat_total=doc["iat_total"],
            duplicates=doc["duplicates"],
            outlier_iats=doc["outlier_iats"],
            missing_mandatory=doc["missing_mandatory"],
            unknown_attrs=doc["unknown_attrs"],
            format_errors=doc["format_errors"],
            sentinel_values=tuple(doc["sentinel_values"]),
            per_sensor=doc["per_sensor"],
        )


def _sensor_plan(spec: GenSpec, schema: SchemaDocument) -> tuple[int, int, int, int, int]:
    """Per-sensor counts: (base, copies, missing, unknown, format_errors)."""
    n = spec.packets_per_sensor
    copies = round(spec.duplicate_rate * n)
    base = n - copies
    if base < 1:
        raise GenSpecError("duplicate_rate leaves no original packets")
    miss = round(spec.missing_mandatory_rate * n)
    unk = round(spec.unknown_attr_rate * n)
    fmt = round(spec.format_error_rate * n)
    if miss and not schema.mandatory:
        raise GenSpecError("missing_mandatory_rate needs a mandatory attribute")
    if fmt and not schema.attributes:
        raise GenSpecError("format_error_rate needs a declared attribute")
    if miss + unk + fmt > base:
        raise GenSpecError("defect rates exceed the packet budget")
    if copies > base - (miss + unk + fmt):
        raise GenSpecError("duplicate_rate exceeds the defect-free packet budget")
    return base, copies, miss, unk, fmt


def _attribute_values(
    schema: SchemaDocument,
    rng: np.random.Generator,
    count: int,
    sentinels: dict[str, str],
) -> dict[str, list]:
    """Column of clean values per declared attribute."""
    columns: dict[str, list] = {}
    for name in sorted(schema.attributes):
        spec = schema.attributes[name]
        if spec.declared_type == "string":
            columns[name] = [sentinels[name]] * count
        elif spec.declared_type == "boolean":
            columns[name] = [bool(b) for b in rng.integers(0, 2, size=count)]
        elif spec.declared_type == "integer":
            lo = int(spec.minimum) if spec.minimum is not None else 0
            hi = int(spec.maximum) if spec.maximum is not None else lo + 100
            columns[name] = [int(v) for v in rng.integers(lo, hi + 1, size=count)]
        else:
            lo = float(spec.minimum) if spec.minimum is not None else 0.0
            hi = float(spec.maximum) if spec.maximum is not None else lo + 100.0
            span = hi - lo
            vals = lo + rng.random(count) * span
            # Round within the open interval so full-range checks stay clean.
            columns[name] = [
                float(min(hi, max(lo, round(v, 3)))) for v in vals
            ]
    return columns


def generate(spec: GenSpec, schema: SchemaDocument) -> tuple[bytes, GroundTruth]:
    """Produce NDJSON dataset bytes and the exact GroundTruth sidecar."""
    rng = np.random.default_rng(spec.seed)
    base, copies, miss, unk, fmt = _sensor_plan(spec, schema)
    if unk and _UNKNOWN_ATTR in set(schema.attributes) | {
        spec.timestamp_field,
        spec.sensor_id_field,
    }:
        raise GenSpecError(f"{_UNKNOWN_ATTR!r} must stay undeclared for injection")
    sentinels = {
        name: f"sentinel-{spec.seed & 0xFFFFFFFF:08x}-{name}"
        for name in sorted(schema.attributes)
        if schema.attributes[name].declared_type == "string"
    }
    mandatory_target = sorted(schema.mandatory)[0] if schema.mandatory else None
    format_target = sorted(schema.attributes)[0] if schema.attributes else None

    lines: list[bytes] = []
    per_sensor: dict[str, dict[str, int]] = {}
    totals = {"dup": 0, "out": 0, "miss": 0, "unk": 0, "fmt": 0, "iat": 0}

    for s in range(spec.sensor_count):
        sensor_id = f"sensor-{s:04d}"
        gap_count = base - 1
        outliers = round(spec.outlier_rate * gap_count) if gap_count > 0 else 0

        gaps = np.full(gap_count, spec.interval_seconds, dtype=np.float64)
        if gap_count > 0:
            if spec.jitter_fraction > 0.0:
                gaps *= 1.0 + rng.uniform(
                    -spec.jitter_fraction, spec.jitter_fraction, size=gap_count
                )
            if outliers:
                chosen = rng.choice(gap_count, size=outliers, replace=False)
                gaps[chosen] *= spec.outlier_magnitude
        start = spec.start_epoch_ms + s * 137
        ts = np.empty(base, dtype=np.int64)
        ts[0] = start
        if gap_count > 0:
            ts[1:] = start + np.rint(np.cumsum(gaps) * 1000.0).astype(np.int64)

        columns = _attribute_values(schema, rng, base, sentinels)
        records: list[dict[str, Any]] = []
        for i in range(base):
            record: dict[str, Any] = {
                spec.sensor_id_field: sensor_id,
                spec.timestamp_field: int(ts[i]),
            }
            for name, column in columns.items():
                record[name] = column[i]
            records.append(record)

        order = rng.permutation(base)
        miss_idx = order[:miss]
        unk_idx = order[miss : miss + unk]
        fmt_idx = order[miss + unk : miss + unk + fmt]
        clean_idx = order[miss + unk + fmt :]
        for i in miss_idx:
            del records[i][mandatory_target]
        for i in unk_idx:
            records[i][_UNKNOWN_ATTR] = 1
        for i in fmt_idx:
            target_type = schema.attributes[format_target].declared_type
            records[i][format_target] = 12345 if target_type == "string" else "invalid"

        emitted: list[dict[str, Any]] = list(records)
        if copies:
            sources = sorted(int(i) for i in rng.choice(clean_idx, size=copies, replace=False))
            for offset, i in enumerate(sources):
                emitted.insert(i + 1 + offset, dict(records[i]))

        for record in emitted:
            lines.append(json.dumps(record, separators=(",", ":")).encode("utf-8"))

        per_sensor[sensor_id] = {
            "packets": base + copies,
            "unique": base,
            "iats": gap_count,
            "duplicates": copies,
            "outlier_iats": outliers,
            "missing_mandatory": miss,
            "unknown_attrs": unk,
            "format_errors": fmt,
        }
        totals["dup"] += copies
        totals["out"] += outliers
        totals["miss"] += miss
        totals["unk"] += unk
        totals["fmt"] += fmt
        totals["iat"] += gap_count

    truth = GroundTruth(
        packets_total=spec.sensor_count * spec.packets_per_sensor,
        iat_total=totals["iat"],
        duplicates=totals["dup"],
        outlier_iats=totals["out"],
        missing_mandatory=totals["miss"],
        unknown_attrs=totals["unk"],
        format_errors=totals["fmt"],
        sentinel_values=tuple(sentinels[k] for k in sorted(sentinels)),
        per_sensor=per_sensor,
    )
    return b"\n".join(lines) + b"\n", truth


def iat_histogram(
    iats: "Sequence[float] | np.ndarray", bin_width: float
) -> list[tuple[float, int]]:
    """Bin IATs to nearest multiples of bin_width; (bin, count) pairs.

    Raises ConfigError unless bin_width is positive and finite."""
    if not 0.0 < bin_width < math.inf:
        raise ConfigError(f"bin width must be a positive finite number, not {bin_width}")
    arr = np.asarray(iats, dtype=np.float64)
    if arr.size == 0:
        return []
    bins = np.rint(arr / bin_width) * bin_width
    values, counts = np.unique(bins, return_counts=True)
    return [(float(v), int(c)) for v, c in zip(values, counts)]
