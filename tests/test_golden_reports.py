"""Pinned sha256 of canonical report bytes: the report is a byte contract.

Each case scores a small generated dataset (as NDJSON, as NDJSON with a
tail of hand-written edge-case lines, as a JSON array, or as CSV with a
tail of hand-written edge-case rows) under one combination of
duplicate_key x format_checks x mode_scope. A change to ingestion, schema verdicts,
duplicate detection or the IAT metrics that alters any report byte
fails here; the hashes are only updated for a deliberate change of the
report contract.
"""

from __future__ import annotations

import csv
import hashlib
import io
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


# Rows after the generated records' CSV, whose header is sensor_id,
# timestamp, count, ok, pm25, status, temperature, unexpected_debug.
_CSV_TAIL = b"".join(
    [
        # A quoted cell holding a newline, after a CRLF row end.
        b'sensor-0001,%d,7,false,12.5,"sentinel-two\nlines",20.0,\r\n' % (_T0 + 30_000),
        # A quoted "12\n" reads as the integer 12, "1.5\n" as the float 1.5.
        b'sensor-0001,%d,"12\n",False,"1.5\n",sentinel-tail,20.0,\n' % (_T0 + 95_000),
        b"sensor-0001,%d,7,TRUE,12.5,sentinel-tail,20.0,\n" % (_T0 + 155_000),
        b"sensor-0001,%d,True,FALSE,12.5,sentinel-tail,20.0,\n" % (_T0 + 215_000),
        # An empty cell is null.
        b"sensor-0001,%d,7,false,,sentinel-tail,20.0,\r\n" % (_T0 + 275_000),
        # A short row lacks its last fields; a row with an extra field is
        # malformed.
        b"sensor-0001,%d,7\n" % (_T0 + 335_000),
        b"sensor-0001,%d,7,false,12.5,sentinel-tail,20.0,,extra\n" % (_T0 + 395_000),
        # Blank lines, with each line end.
        b"\n\r\n\r",
        b"solo,2026-01-01T00:01:00Z,7,false,12.5,sentinel-tail,20.0,\r\n",
        b"solo,2026-01-01T00:02:00.5+00:00,8,true,13.5,no-match,-50,\r",
        b'42,%d,"7",false,12.5,"sentinel-""q"", a",20.0,1\r\n' % _T0,
        b"42,%d,7,false,900,sentinel-tail,20.0,\n" % (_T0 + 60_000),
        b"sensor-0002,1767225620.5,7,false,12.5,sentinel-tail,20.0,\n",
        b",%d,7,false,12.5,sentinel-tail,20.0,\n" % _T0,
        b"sensor-0001,yesterday,7,false,12.5,sentinel-tail,20.0,\n",
        # A quote left open runs to the end of the source.
        b'sensor-0001,%d,7,false,12.5,"sentinel-open' % (_T0 + 455_000),
    ]
)


def _csv(ndjson: bytes) -> bytes:
    """The records of ndjson, written by csv.DictWriter over the union of
    their keys."""
    records = [json.loads(line) for line in ndjson.splitlines()]
    fieldnames = list(dict.fromkeys(key for record in records for key in record))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(records)
    return out.getvalue().encode("utf-8")


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
    if name == "csv":
        return _csv(data) + _CSV_TAIL
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
    ('csv', 'id_timestamp', 'types_only', 'per_sensor'): (
        "e79c6d76ce456a44745513c2329da9c0c81a77014c550f2b40c0409dd5a566f3"
    ),
    ('csv', 'id_timestamp', 'types_only', 'dataset'): (
        "10bb6a2103d55a289d87022034ba4a250f3f76618fde2a78bb2a7fdf11a32aa0"
    ),
    ('csv', 'id_timestamp', 'full', 'per_sensor'): (
        "9869b6cfe753ad1b96eb0a14f925634f68a47c6f58ab2e3a20fc81ec17c02ff8"
    ),
    ('csv', 'id_timestamp', 'full', 'dataset'): (
        "67c0f33bb7c7ce20834160434eec414b83b2dac322661e50918cf093e6eb0692"
    ),
    ('csv', 'full_packet', 'types_only', 'per_sensor'): (
        "4f765e829ca5fa0bed37de3d873e271160e930e07fe9bf790b84e02dec8de1d1"
    ),
    ('csv', 'full_packet', 'types_only', 'dataset'): (
        "bbb676224122a9221a517ac662c243fde4a6f03ac140c774c302350ca671e418"
    ),
    ('csv', 'full_packet', 'full', 'per_sensor'): (
        "ab198b66091bf5125857ccdf792591c628ee03358d0698857847b0a60f1f1eb0"
    ),
    ('csv', 'full_packet', 'full', 'dataset'): (
        "7cdf1d02ee35aefa30133cc069c21d76f4351b3722b8b3389c6e5f70d7c7db7b"
    ),
}

CASES = list(
    itertools.product(
        ("generated", "edge", "array", "csv"),
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
        dataset_format={"array": "json_array", "csv": "csv"}.get(name, "ndjson"),
    )
    report = assess(_dataset(name), SCHEMA, config)
    digest = hashlib.sha256(serialize_report(report)).hexdigest()
    assert digest == GOLDEN[case]
