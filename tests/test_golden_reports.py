"""Pinned sha256 of canonical report bytes: the report is a byte contract.

Each case scores a small generated dataset (as NDJSON, as NDJSON with a
tail of hand-written edge-case lines, or as a JSON array) under one
combination of duplicate_key x format_checks x mode_scope. A change to ingestion, schema verdicts,
duplicate detection or the IAT metrics that alters any report byte
fails here; the hashes are only updated for a deliberate change of the
report contract.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import pytest

from iotdq.model import AssessmentConfig
from iotdq.pipeline import assess
from iotdq.report import serialize_report
from iotdq.schema import parse_schema
from iotdq.synthgen import GenSpec, generate

SCHEMA = parse_schema(
    {
        "properties": {
            "pm25": {"type": "number", "minimum": 0, "maximum": 500},
            "temperature": {"type": "number", "minimum": -40, "maximum": 85},
            "count": {"type": "integer", "minimum": 0, "maximum": 1000},
            "ok": {"type": "boolean"},
            "status": {"type": "string", "pattern": "^sentinel-"},
        },
        "required": ["pm25", "temperature"],
    }
)

_T0 = 1_767_225_600_000  # synthgen's default start, 2026-01-01T00:00:00Z
_DROP = object()  # marks a field that _line leaves out


def _line(**fields) -> bytes:
    base = {
        "sensor_id": "sensor-0001",
        "timestamp": _T0 + 30_000,
        "pm25": 12.5,
        "temperature": 20.0,
        "count": 7,
        "ok": False,
        "status": "sentinel-tail",
    }
    base.update(fields)
    return json.dumps(
        {k: v for k, v in base.items() if v is not _DROP},
        separators=(",", ":"),
        ensure_ascii=False,
    ).encode("utf-8")


# Odd but legal records, schema violations and malformed lines.
_EDGE_TAIL = b"\n".join(
    [
        _line(),
        _line(timestamp=_T0 + 95_000, count=True),
        _line(timestamp=_T0 + 155_000, count=5.0),
        _line(timestamp=_T0 + 215_000, pm25=7),
        _line(timestamp=_T0 + 275_000, pm25=None),
        _line(timestamp=_T0 + 335_000, pm25=900.0),
        _line(timestamp=_T0 + 395_000, status="no-match"),
        _line(timestamp=_T0 + 455_000, temperature=_DROP),
        _line(timestamp=_T0 + 515_000, meta={"fw": 3, "hw": {"rev": "b"}}),
        _line(timestamp=_T0 + 575_000, tags=[1, 2]),
        _line(timestamp=_T0 + 635_000, ok=1),
        _line(timestamp=_T0 + 695_000, status="sentinel-a b\u0085c"),
        _line(sensor_id=42, timestamp=_T0),
        _line(sensor_id=42, timestamp=_T0 + 60_000),
        _line(sensor_id=42, timestamp=_T0 + 60_000, pm25=13.0),
        _line(sensor_id="solo", timestamp="2026-01-01T00:01:00Z"),
        _line(sensor_id="sensor-0002", timestamp=1_767_225_620.5),
        _line(sensor_id="sensor-0002", timestamp=float(_T0 + 99_000)),
        _line(sensor_id="", timestamp=_T0),
        _line(sensor_id=True),
        _line(timestamp=True),
        _line(timestamp=_DROP),
        _line(timestamp="yesterday"),
        b'{"sensor_id":"sensor-0001","timestamp":NaN,"pm25":1.0,"temperature":2.0}',
        b"",
        b" \t ",
        b'  {"sensor_id":"sensor-0001","timestamp":%d,"pm25":1,"temperature":2}  '
        % (_T0 + 755_000),
        b'\xef\xbb\xbf{"sensor_id":"sensor-0001","timestamp":%d,"pm25":1,'
        b'"temperature":2}' % (_T0 + 815_000),
        b'{"sensor_id":"sensor-0001","timestamp":%d,"pm25":1,"temperature":2}\r'
        % (_T0 + 875_000),
        b'{"sensor_id":"sensor-0001",',
        b"[1,2,3]",
        b'"just a string"',
        b"\xff\xfe{",
        b'{"sensor_id":"sensor-0001","timestamp":1} trailing',
    ]
) + b"\n"


def _dataset(name: str) -> bytes:
    spec = GenSpec(
        sensor_count=3,
        packets_per_sensor=150,
        interval_seconds=60.0,
        jitter_fraction=0.1,
        outlier_rate=0.03,
        duplicate_rate=0.05,
        missing_mandatory_rate=0.03,
        unknown_attr_rate=0.03,
        format_error_rate=0.03,
        seed=11,
    )
    data, _truth = generate(spec, SCHEMA)
    if name == "array":
        return b"[" + b",".join(data.splitlines()) + b"]"
    return data + _EDGE_TAIL if name == "edge" else data


GOLDEN: dict[tuple[str, str, str, str], str] = {
    ('generated', 'id_timestamp', 'types_only', 'per_sensor'): (
        "8b5a5765293341cd14be3bceff0760529e6d5bdc634e463163b57d79ceb3c825"
    ),
    ('generated', 'id_timestamp', 'types_only', 'dataset'): (
        "30526874fb6b18f1984d014511e19f95df92000b3c1f3c5fb8e916a57db68abb"
    ),
    ('generated', 'id_timestamp', 'full', 'per_sensor'): (
        "8b5a5765293341cd14be3bceff0760529e6d5bdc634e463163b57d79ceb3c825"
    ),
    ('generated', 'id_timestamp', 'full', 'dataset'): (
        "30526874fb6b18f1984d014511e19f95df92000b3c1f3c5fb8e916a57db68abb"
    ),
    ('generated', 'full_packet', 'types_only', 'per_sensor'): (
        "f37e36059889687544705ba422eaae02a42b349b8dc645a0b2aae9f7d6ba2dde"
    ),
    ('generated', 'full_packet', 'types_only', 'dataset'): (
        "ccd419ba7fefe036c74dbb9c79a77281087191b81774c6aa616a993eb6ecd3e7"
    ),
    ('generated', 'full_packet', 'full', 'per_sensor'): (
        "f37e36059889687544705ba422eaae02a42b349b8dc645a0b2aae9f7d6ba2dde"
    ),
    ('generated', 'full_packet', 'full', 'dataset'): (
        "ccd419ba7fefe036c74dbb9c79a77281087191b81774c6aa616a993eb6ecd3e7"
    ),
    ('edge', 'id_timestamp', 'types_only', 'per_sensor'): (
        "f58b8fc05639051939d04c295a57a44645b8340c9dd6e06d3a91dfcab29b527e"
    ),
    ('edge', 'id_timestamp', 'types_only', 'dataset'): (
        "dfd27a5d99aae7c4f8427505d6026f6aa5383ce677241b677b8b854a3bf1e0de"
    ),
    ('edge', 'id_timestamp', 'full', 'per_sensor'): (
        "7245eeae9aef961060670057d1d87d76622f71784d15e3be7c2a4a51249e514c"
    ),
    ('edge', 'id_timestamp', 'full', 'dataset'): (
        "d7c37a292df93464c55f46933b86d6820627e2112016033e14a6dd34a0a8a650"
    ),
    ('edge', 'full_packet', 'types_only', 'per_sensor'): (
        "3351a55e52d1f0fc5090445c0cda30e261d20523f78a3d1137afd222eec2b1e3"
    ),
    ('edge', 'full_packet', 'types_only', 'dataset'): (
        "c6693fc6ab5ec3c577ed13eaa71ec40ccb22a7d64f8b76d296b492c6b874cca6"
    ),
    ('edge', 'full_packet', 'full', 'per_sensor'): (
        "e0b348f746b310f47104f6676ab4dec3ff4c5e8f0266c75867c08a1a2af330fc"
    ),
    ('edge', 'full_packet', 'full', 'dataset'): (
        "713248749bce6505da1dcff9a540636be13a965716501c7a90e31f0ca2beee6d"
    ),
    ('array', 'id_timestamp', 'types_only', 'per_sensor'): (
        "9e216d0a226d395a0c5356ece0ff4b1a8501701f023635969e36285c968a7651"
    ),
    ('array', 'id_timestamp', 'types_only', 'dataset'): (
        "d24e61daa82529fcc96099abd6dc0468d37e607ae22bf564fe1a205ba97e6dc7"
    ),
    ('array', 'id_timestamp', 'full', 'per_sensor'): (
        "9e216d0a226d395a0c5356ece0ff4b1a8501701f023635969e36285c968a7651"
    ),
    ('array', 'id_timestamp', 'full', 'dataset'): (
        "d24e61daa82529fcc96099abd6dc0468d37e607ae22bf564fe1a205ba97e6dc7"
    ),
    ('array', 'full_packet', 'types_only', 'per_sensor'): (
        "ab3fcc8410943f78d8893ee4831bbec4871b1a9e8346adbb9f2515fe0d0ac5e5"
    ),
    ('array', 'full_packet', 'types_only', 'dataset'): (
        "299bed5787eb13068f430aaaaf9a68e94ed54eda0202b0c38b8d9b49b518166f"
    ),
    ('array', 'full_packet', 'full', 'per_sensor'): (
        "ab3fcc8410943f78d8893ee4831bbec4871b1a9e8346adbb9f2515fe0d0ac5e5"
    ),
    ('array', 'full_packet', 'full', 'dataset'): (
        "299bed5787eb13068f430aaaaf9a68e94ed54eda0202b0c38b8d9b49b518166f"
    ),
}

CASES = list(
    itertools.product(
        ("generated", "edge", "array"),
        ("id_timestamp", "full_packet"),
        ("types_only", "full"),
        ("per_sensor", "dataset"),
    )
)


@pytest.mark.parametrize("case", CASES, ids=["-".join(c) for c in CASES])
def test_report_bytes_are_pinned(case: tuple[str, str, str, str]) -> None:
    name, duplicate_key, format_checks, mode_scope = case
    config = AssessmentConfig(
        quantization_seconds=60.0,
        duplicate_key=duplicate_key,
        format_checks=format_checks,
        mode_scope=mode_scope,
        dataset_format="json_array" if name == "array" else "ndjson",
    )
    report = assess(_dataset(name), SCHEMA, config)
    digest = hashlib.sha256(serialize_report(report)).hexdigest()
    assert digest == GOLDEN[case]
