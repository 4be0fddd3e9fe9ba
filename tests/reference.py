"""Reference scorer: the six metrics written out again with plain loops.

The oracle for iotdq.pipeline. Records come from iotdq.ingest.iter_records
and timestamps from parse_timestamp, each pinned by its own tests.
Everything after that is computed here, sharing no scoring code with the
package: sensor-id rules, attribute flattening, deduplication, IATs,
mode election, spread, the M1-M6 formulas and the schema verdicts.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from typing import Any

import pytest

from iotdq.errors import DatasetRejectedError
from iotdq.ingest import iter_records, parse_timestamp
from iotdq.model import AssessmentConfig
from iotdq.schema import SchemaDocument

MAD_Z = 0.6745  # modified z-score constant for the median absolute deviation
MEAN_AD_Z = 0.7979  # the same for the mean absolute deviation
FINEST_BIN = 0.001  # mode election retries tenfold finer bins down to 1 ms

_TYPES = {
    "integer": (int,),
    "float": (int, float),
    "string": (str,),
    "boolean": (bool,),
}


class _Malformed(Exception):
    """A record that cannot be read as a packet."""


def _sensor_id(value: Any) -> str:
    if type(value) is int:
        return str(value)
    if type(value) is str and value.strip():
        return value
    raise _Malformed


def _flatten(mapping: dict, prefix: str, skip: tuple, out: dict) -> dict:
    for key, value in mapping.items():
        if not prefix and key in skip:
            continue
        if type(value) is dict:
            _flatten(value, f"{prefix}{key}.", skip, out)
        elif type(value) in (list, tuple):
            raise _Malformed
        else:
            out[f"{prefix}{key}"] = value
    return out


def read_packets(
    data: bytes, config: AssessmentConfig, fmt: str
) -> list[tuple[str, int, dict]]:
    """(sensor_id, timestamp_ms, flat attributes) of every valid record."""
    packets = []
    malformed = 0
    skip = (config.timestamp_field, config.sensor_id_field)
    for record in iter_records(data, fmt):
        try:
            if record is None or config.timestamp_field not in record:
                raise _Malformed
            try:
                ts = parse_timestamp(record[config.timestamp_field])
            except ValueError as exc:
                raise _Malformed from exc
            sid = _sensor_id(record.get(config.sensor_id_field))
            packets.append((sid, ts, _flatten(record, "", skip, {})))
        except _Malformed:
            malformed += 1
    if malformed * 2 > malformed + len(packets):
        raise DatasetRejectedError("more than half of the records malformed")
    return packets


def _key(sid: str, ts: int, attrs: dict, duplicate_key: str) -> Any:
    if duplicate_key == "id_timestamp":
        return (sid, ts)
    return json.dumps([sid, ts, attrs], sort_keys=True)


def packet_iats(
    packets: list[tuple[str, int, dict]], duplicate_key: str
) -> tuple[dict[str, list[float]], int]:
    """Per-sensor IATs in seconds (first-appearance order) and the duplicates."""
    kept: dict[str, list[int]] = {}
    seen = set()
    duplicates = 0
    for sid, ts, attrs in packets:
        stamps = kept.setdefault(sid, [])
        key = _key(sid, ts, attrs, duplicate_key)
        if key in seen:
            duplicates += 1
        else:
            seen.add(key)
            stamps.append(ts)
    iats = {}
    for sid, stamps in kept.items():
        stamps.sort()
        iats[sid] = [(b - a) / 1000 for a, b in zip(stamps, stamps[1:])]
    return iats, duplicates


def _bin(x: float, q: float) -> float:
    return round(x / q) * q


def elect_mode(iats: list[float], q: float) -> "tuple[float, float] | None":
    """(mode, bin width) by counts of binned IATs; None if it stays zero."""
    while True:
        counts = Counter(_bin(x, q) for x in iats)
        mode = min(counts, key=lambda v: (-counts[v], v))
        if mode > 0:
            return mode, q
        if q <= FINEST_BIN:
            return None
        q = max(q / 10.0, FINEST_BIN)


def _spread(iats: list[float], mode: float) -> tuple[float, float]:
    """(z constant, spread); spread 0 means no IAT is an outlier."""
    devs = sorted(abs(x - mode) for x in iats)
    n = len(devs)
    mad = devs[n // 2] if n % 2 else (devs[n // 2 - 1] + devs[n // 2]) / 2
    if mad > 0:
        return MAD_Z, mad
    return MEAN_AD_Z, sum(devs) / n


def _model(iats: list[float], q: float) -> "tuple[float, float, float, float] | None":
    """(mode, bin width, z constant, spread) of a sample; None if degenerate."""
    elected = elect_mode(iats, q)
    if elected is None:
        return None
    return (*elected, *_spread(iats, elected[0]))


def m1_transcription(
    iats_binned: list[float], mode: float, crossover: float
) -> tuple[float, float]:
    """Literal per-IAT accumulation of the regularity score terms."""
    numerator = 0.0
    denominator = 0.0
    for x in iats_binned:
        rae = abs(x - mode) / mode
        if rae <= crossover:
            numerator += 1.0 - rae / crossover
            denominator += 1.0
        else:
            denominator += rae / crossover
    return numerator, denominator


def _verdict(
    attrs: dict, schema: SchemaDocument, full: bool
) -> tuple[bool, bool, bool]:
    """(missing a mandatory attribute, has an unknown one, has a bad value)."""
    missing = any(name not in attrs for name in schema.mandatory)
    unknown = any(name not in schema.attributes for name in attrs)
    bad = False
    for name, value in attrs.items():
        spec = schema.attributes.get(name)
        if spec is None:
            continue
        if type(value) not in _TYPES[spec.declared_type]:
            bad = True  # a null is never of the declared type
        elif full and spec.declared_type in ("integer", "float"):
            too_low = spec.minimum is not None and value < spec.minimum
            too_high = spec.maximum is not None and value > spec.maximum
            bad = bad or too_low or too_high
        elif full and spec.pattern is not None:
            bad = bad or re.search(spec.pattern, value) is None
    return missing, unknown, bad


def reference_scores(
    data: bytes, schema: SchemaDocument, config: AssessmentConfig, fmt: str
) -> dict[str, "float | None"]:
    """The six scores of a dataset; None marks an inapplicable metric."""
    packets = read_packets(data, config, fmt)
    total = len(packets)
    if total == 0:
        raise DatasetRejectedError("no valid records")
    iats, duplicates = packet_iats(packets, config.duplicate_key)

    q = config.quantization_seconds
    if config.mode_scope == "dataset":
        pooled = [x for sensor in iats.values() for x in sensor]
        shared = _model(pooled, q) if pooled else None
        models = {sid: shared for sid in iats}
    else:
        models = {sid: _model(sensor, q) for sid, sensor in iats.items() if sensor}

    numerator = denominator = 0.0
    outliers = scored = 0
    for sid, sensor in iats.items():
        model = models.get(sid)
        if not sensor or model is None:
            continue
        mode, width, constant, spread = model
        num, den = m1_transcription(
            [_bin(x, width) for x in sensor], mode, config.rae_crossover
        )
        numerator += num
        denominator += den
        for x in sensor:
            z = constant * (x - mode) / spread if spread > 0 else 0.0
            outliers += abs(z) > config.z_cutoff
        scored += len(sensor)

    verdicts = [
        _verdict(attrs, schema, config.format_checks == "full")
        for _sid, _ts, attrs in packets
    ]
    return {
        "M1": numerator / denominator if scored else None,
        "M2": 1.0 - outliers / scored if scored else None,
        "M3": 1.0 - duplicates / total,
        "M4": 1.0 - sum(v[0] for v in verdicts) / total,
        "M5": 1.0 - sum(v[1] for v in verdicts) / total,
        "M6": 1.0 - sum(v[2] for v in verdicts) / total,
    }


def assert_scores_match(report, want: dict[str, "float | None"]) -> None:
    for metric_id, expected in want.items():
        got = report.score(metric_id)
        if expected is None:
            assert got is None, metric_id
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12), metric_id
