"""End-to-end assessment: the streaming fold against the reference scorer."""

from __future__ import annotations

import ast
import csv
import hashlib
import io
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import iotdq.pipeline
from conftest import ndjson_bytes
from iotdq.errors import DatasetRejectedError
from iotdq.model import AssessmentConfig
from iotdq.pipeline import assess, assess_file, sensor_iats
from iotdq.schema import parse_schema
from iotdq.synthgen import DEFAULT_SCHEMA, GenSpec, generate
from reference import (
    assert_scores_match,
    packet_iats,
    read_packets,
    reference_scores,
)

SCHEMA = parse_schema(DEFAULT_SCHEMA)


_COMBINATIONS = list(
    itertools.product(
        ["id_timestamp", "full_packet"], ["types_only", "full"], ["per_sensor", "dataset"]
    )
)


EDGE_SCHEMA = parse_schema(
    {
        "properties": {
            **DEFAULT_SCHEMA["properties"],
            "status": {"type": "string", "pattern": "^sentinel-"},
            "count": {"type": "integer", "minimum": 0, "maximum": 1000},
            "ok": {"type": "boolean"},
        },
        "required": DEFAULT_SCHEMA["required"],
    }
)
_T0 = 1_767_225_600  # epoch seconds
_DROP = object()  # marks a field that _edge leaves out


def _edge(sensor, timestamp, **fields) -> dict:
    record = {"sensor_id": sensor, "timestamp": timestamp, "pm25": 12.5, "temperature": 20.0}
    record.update(fields)
    return {k: v for k, v in record.items() if v is not _DROP}


def _gaps(sensor: str, iats: list[float]) -> list[dict]:
    stamps = [_T0 + 1000.0]
    for iat in iats:
        stamps.append(stamps[-1] + iat)
    return [_edge(sensor, t) for t in stamps]


# Odd but legal records, schema violations, malformed records and sensors
# that reach the corners of mode election and outlier labelling.
_EDGE_RECORDS = [
    {"sensor_id": " ", "timestamp": _T0},
    {"sensor_id": "", "timestamp": _T0},
    {"sensor_id": True, "timestamp": _T0},
    {"sensor_id": "e", "timestamp": None},
    {"sensor_id": "e", "timestamp": _T0, "xs": [1]},
    *[_edge(7, _T0 + 60 * i) for i in range(4)],
    _edge("7", _T0 + 240),
    *[_edge("iso", f"2026-01-01T00:0{i}:00Z") for i in range(5)],
    _edge("e", _T0, temperature=_DROP, pm25="x"),
    _edge("e", _T0 + 60, pm25=0),
    _edge("e", _T0 + 120, pm25=500.0),
    _edge("e", _T0 + 180, pm25=500.5),
    _edge("e", _T0 + 240, temperature=-40.5),
    _edge("e", _T0 + 300, count=True),
    _edge("e", _T0 + 360, count=3.0),
    _edge("e", _T0 + 420, count=1001),
    _edge("e", _T0 + 480, ok=1),
    _edge("e", _T0 + 540, ok=False),
    _edge("e", _T0 + 600, status="nope"),
    _edge("e", _T0 + 660, status="sentinel-x"),
    _edge("e", _T0 + 720, pm25=None),
    _edge("e", _T0 + 780, meta={"fw": 3, "hw": {"rev": "b"}}),
    # Sub-second gaps: the modal bin is zero until the bins are much finer.
    *_gaps("fast", [0.3] * 6 + [0.5, 0.4]),
    # Two modal bins tie; the smaller one wins.
    *_gaps("tie", [60.0, 60.0, 120.0, 120.0]),
    # Distinct payloads at one instant: degenerate under the full_packet key.
    *[_edge("still", _T0, pm25=float(i)) for i in range(4)],
    # MAD 0.5 around mode 60: z(62.5) = 3.3725, just inside the cutoff.
    *_gaps("near", [60.0] * 5 + [59.0, 61.0, 59.0, 61.0, 62.5]),
]


def _defect_dataset(seed: int) -> bytes:
    """A generated dataset, records that share a timestamp but not a payload,
    and the edge records above."""
    spec = GenSpec(
        sensor_count=3,
        packets_per_sensor=60,
        interval_seconds=60.0,
        jitter_fraction=0.08,
        outlier_rate=0.05,
        duplicate_rate=0.1,
        missing_mandatory_rate=0.05,
        unknown_attr_rate=0.04,
        format_error_rate=0.05,
        seed=seed,
    )
    data, _truth = generate(spec, SCHEMA)
    records = [json.loads(line) for line in data.splitlines()]
    for record in records[seed % 7 :: 11]:
        variant = dict(record)
        variant["pm25"] = 499.5 if variant.get("pm25") != 499.5 else 0.5
        records.append(variant)
    return ndjson_bytes(records + _EDGE_RECORDS)


class TestFoldMatchesModularComposition:
    """assess() gives the scores of the reference scorer in tests/reference.py."""

    @pytest.mark.parametrize("duplicate_key,format_checks,mode_scope", _COMBINATIONS)
    def test_every_config_combination(
        self, duplicate_key: str, format_checks: str, mode_scope: str
    ) -> None:
        config = AssessmentConfig(
            quantization_seconds=60.0,
            duplicate_key=duplicate_key,
            format_checks=format_checks,
            mode_scope=mode_scope,
        )
        for seed in range(4):
            data = _defect_dataset(seed)
            records = [json.loads(line) for line in data.splitlines()]
            array = json.dumps(records).encode()
            for source, fmt in ((data, "ndjson"), (array, "json_array")):
                report = assess(source, EDGE_SCHEMA, config, format=fmt)
                want = reference_scores(source, EDGE_SCHEMA, config, fmt)
                assert_scores_match(report, want)

    def test_reference_shares_no_scoring_code(self) -> None:
        tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
                imported |= {f"{node.module}.{a.name}" for a in node.names}
        forbidden = {
            "iotdq.pipeline",
            "iotdq.metrics_iat",
            "iotdq._kernels",
            "iotdq.schema._flags_for",
        }
        assert not imported & forbidden
        assert not any(name.startswith(tuple(forbidden)) for name in imported)

    def test_on_generated_defect_datasets(self) -> None:
        for seed in range(8):
            spec = GenSpec(
                sensor_count=3,
                packets_per_sensor=120,
                interval_seconds=60.0,
                jitter_fraction=0.08,
                outlier_rate=0.05,
                duplicate_rate=0.1,
                missing_mandatory_rate=0.05,
                unknown_attr_rate=0.04,
                format_error_rate=0.03,
                seed=seed,
            )
            data, _truth = generate(spec, SCHEMA)
            config = AssessmentConfig(quantization_seconds=60.0)
            report = assess(data, SCHEMA, config)
            assert_scores_match(report, reference_scores(data, SCHEMA, config, "ndjson"))

    def test_with_full_checks_and_full_packet_key(self) -> None:
        spec = GenSpec(
            sensor_count=2,
            packets_per_sensor=80,
            jitter_fraction=0.05,
            duplicate_rate=0.1,
            format_error_rate=0.05,
            seed=42,
        )
        data, _ = generate(spec, SCHEMA)
        config = AssessmentConfig(
            quantization_seconds=60.0,
            duplicate_key="full_packet",
            format_checks="full",
        )
        report = assess(data, SCHEMA, config)
        assert_scores_match(report, reference_scores(data, SCHEMA, config, "ndjson"))

    def test_with_nested_attributes_and_malformed_lines(self) -> None:
        records = [
            {"sensor_id": "a", "timestamp": i * 60, "env": {"pm25": 1.0}, "temperature": 20}
            for i in range(10)
        ]
        data = ndjson_bytes(records) + b'{broken\n{"sensor_id":"a"}\n'
        config = AssessmentConfig()
        report = assess(data, SCHEMA, config)
        assert_scores_match(report, reference_scores(data, SCHEMA, config, "ndjson"))
        # env.pm25 is unknown and pm25 is missing in every record.
        assert report.score("M4") == 0.0
        assert report.score("M5") == 0.0

    def test_same_records_across_formats(self) -> None:
        records = [
            {"sensor_id": f"s{i % 2}", "timestamp": 60 * i, "pm25": float(i), "temperature": 20}
            for i in range(40)
        ]
        records.append(dict(records[5]))
        nd = ndjson_bytes(records)
        ja = json.dumps(records).encode()
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["sensor_id", "timestamp", "pm25", "temperature"])
        writer.writeheader()
        writer.writerows(records)
        cv = buf.getvalue().encode()

        config = AssessmentConfig()
        reports = [
            assess(nd, SCHEMA, config, format="ndjson"),
            assess(ja, SCHEMA, config, format="json_array"),
            assess(cv, SCHEMA, config, format="csv"),
        ]
        for metric_id in ("M1", "M2", "M3", "M4", "M5", "M6"):
            scores = {r.score(metric_id) for r in reports}
            assert len(scores) == 1, metric_id
        for report, source, fmt in zip(reports, (nd, ja, cv), ("ndjson", "json_array", "csv")):
            assert_scores_match(report, reference_scores(source, SCHEMA, config, fmt))
        assert reports[0].score("M3") == pytest.approx(40 / 41)
        fingerprints = {r.dataset_fingerprint for r in reports}
        assert len(fingerprints) == 3


class TestSensorIats:
    """sensor_iats() yields the IATs assess() scores, per sensor."""

    @pytest.mark.parametrize("duplicate_key", ["id_timestamp", "full_packet"])
    def test_matches_reference_grouping(self, duplicate_key: str) -> None:
        config = AssessmentConfig(duplicate_key=duplicate_key)
        for seed in range(6):
            data = _defect_dataset(seed)
            want, _dups = packet_iats(read_packets(data, config, "ndjson"), duplicate_key)
            got = sensor_iats(data, config)
            assert [sid for sid, _ in got] == list(want)
            for sid, iats in got:
                assert iats.dtype == np.float64
                assert iats.tolist() == want[sid], sid

    def test_format_defaults_to_config(self) -> None:
        records = [{"sensor_id": "a", "timestamp": 60 * i} for i in range(3)]
        config = AssessmentConfig(dataset_format="json_array")
        [(sid, iats)] = sensor_iats(json.dumps(records).encode(), config)
        assert sid == "a" and iats.tolist() == [60.0, 60.0]

    def test_full_checks_judge_each_signature_once(self, monkeypatch) -> None:
        calls: list = []
        original = iotdq.pipeline._flags_for

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(iotdq.pipeline, "_flags_for", counting)
        records = [
            {"sensor_id": "a", "timestamp": 60 * i, "pm25": 1.0} for i in range(100)
        ]
        config = AssessmentConfig(format_checks="full")
        [(_sid, iats)] = sensor_iats(ndjson_bytes(records), config)
        assert iats.tolist() == [60.0] * 99
        # One signature, judged once (pm25 is unknown).
        assert calls == [{"pm25": 1.0}]

    def test_empty_source_has_no_sensors(self) -> None:
        assert sensor_iats(b"", AssessmentConfig()) == []

    def test_majority_malformed_rejected(self) -> None:
        with pytest.raises(DatasetRejectedError, match="malformed"):
            sensor_iats(b'{"sensor_id":"a","timestamp":0}\n{x\n{y\n', AssessmentConfig())

    def test_gaps_beyond_int64_range_are_exact(self) -> None:
        # -9e18 to 9e18 ms wraps around in int64 subtraction.
        records = [
            {"sensor_id": "a", "timestamp": -9 * 10**18},
            {"sensor_id": "a", "timestamp": 9 * 10**18},
            {"sensor_id": "a", "timestamp": 9 * 10**18 + 61_440},
        ]
        data = ndjson_bytes(records)
        [(_sid, iats)] = sensor_iats(data, AssessmentConfig())
        assert iats.tolist() == [1.8e16, 61.44]
        report = assess(data, parse_schema({}), AssessmentConfig())
        entry = report.per_sensor["a"]
        assert "degenerate" not in entry
        assert entry["mode"] == 61.0
        assert report.result("M1").evidence["degenerate_sensors"] == []


class TestRejection:
    def test_empty_dataset_rejected(self) -> None:
        with pytest.raises(DatasetRejectedError, match="no valid records"):
            assess(b"", SCHEMA, AssessmentConfig())

    def test_majority_malformed_rejected(self) -> None:
        data = b'{"sensor_id":"a","timestamp":0}\n{x\n{y\n'
        with pytest.raises(DatasetRejectedError, match="malformed"):
            assess(data, SCHEMA, AssessmentConfig())

    def test_exactly_half_malformed_kept(self) -> None:
        data = ndjson_bytes(
            [
                {"sensor_id": "a", "timestamp": 0, "pm25": 1.0, "temperature": 2.0},
                {"sensor_id": "a", "timestamp": 60, "pm25": 1.0, "temperature": 2.0},
            ]
        ) + b"{x\n{y\n"
        report = assess(data, SCHEMA, AssessmentConfig())
        assert report.score("M4") == 1.0


class TestDegenerateSensors:
    def test_zero_gap_sensor_excluded_from_m1_m2(self) -> None:
        # Sensor z emits distinct payloads at one instant: its gaps are all
        # zero under the full_packet key, degenerate down to 1 ms binning.
        records = [
            {"sensor_id": "a", "timestamp": 60 * i, "pm25": 1.0, "temperature": 2.0}
            for i in range(10)
        ] + [
            {"sensor_id": "z", "timestamp": 0, "pm25": float(i), "temperature": 2.0}
            for i in range(5)
        ]
        config = AssessmentConfig(duplicate_key="full_packet")
        report = assess(ndjson_bytes(records), SCHEMA, config)
        assert report.result("M1").evidence["degenerate_sensors"] == ["z"]
        assert report.per_sensor["z"]["degenerate"] is True
        assert report.score("M1") == 1.0
        assert report.result("M2").denominator_count == 9

    def test_all_sensors_degenerate_makes_m1_m2_inapplicable(self) -> None:
        records = [
            {"sensor_id": "z", "timestamp": 0, "pm25": float(i), "temperature": 2.0}
            for i in range(5)
        ]
        config = AssessmentConfig(duplicate_key="full_packet")
        report = assess(ndjson_bytes(records), SCHEMA, config)
        assert report.score("M1") is None
        assert report.score("M2") is None
        assert report.score("M3") == 1.0
        assert sum(report.weights_normalized.values()) == pytest.approx(1.0)

    def test_single_packet_sensors_make_m1_m2_inapplicable(self) -> None:
        records = [
            {"sensor_id": f"s{i}", "timestamp": i, "pm25": 1.0, "temperature": 2.0}
            for i in range(4)
        ]
        report = assess(ndjson_bytes(records), SCHEMA, AssessmentConfig())
        assert report.score("M1") is None
        assert report.score("M2") is None
        assert report.aggregate_score == 1.0


class TestModeScope:
    def _mixed_interval_data(self) -> bytes:
        records = [
            {"sensor_id": "a", "timestamp": 60 * i, "pm25": 1.0, "temperature": 2.0}
            for i in range(11)
        ] + [
            {"sensor_id": "b", "timestamp": 10_000 + 20 * i, "pm25": 1.0, "temperature": 2.0}
            for i in range(6)
        ]
        return ndjson_bytes(records)

    def test_per_sensor_scope_scores_each_stream_against_its_own_mode(self) -> None:
        report = assess(self._mixed_interval_data(), SCHEMA, AssessmentConfig())
        assert report.score("M1") == 1.0
        assert report.per_sensor["a"]["mode"] == 60.0
        assert report.per_sensor["b"]["mode"] == 20.0

    def test_dataset_scope_elects_one_global_mode(self) -> None:
        config = AssessmentConfig(mode_scope="dataset")
        report = assess(self._mixed_interval_data(), SCHEMA, config)
        # Global mode 60: the five 20 s gaps have RAE 2/3 > 0.5, so
        # M1 = 10 / (10 + 5 * (2/3)/0.5) = 0.6.
        assert report.score("M1") == pytest.approx(0.6, abs=1e-12)
        assert report.per_sensor["b"]["mode"] == 60.0
        assert report.result("M1").evidence["mode_scope"] == "dataset"


class TestReportPlumbing:
    def _data(self) -> bytes:
        return ndjson_bytes(
            [
                {"sensor_id": "a", "timestamp": 60 * i, "pm25": 1.0, "temperature": 2.0}
                for i in range(5)
            ]
        )

    def test_fingerprint_is_sha256_of_input(self) -> None:
        data = self._data()
        report = assess(data, SCHEMA, AssessmentConfig())
        assert report.dataset_fingerprint == hashlib.sha256(data).hexdigest()

    def test_per_sensor_bookkeeping(self) -> None:
        data = self._data()
        report = assess(data, SCHEMA, AssessmentConfig())
        entry = report.per_sensor["a"]
        assert entry["packet_count"] == 5
        assert entry["unique_count"] == 5
        assert entry["iat_count"] == 4
        assert entry["mode"] == 60.0
        assert entry["spread_basis"] == "zero_spread"

    def test_created_at_flows_from_config(self) -> None:
        config = AssessmentConfig(created_at="2026-02-03T04:05:06Z")
        report = assess(self._data(), SCHEMA, config)
        assert report.created_at == "2026-02-03T04:05:06Z"

    def test_assess_file_matches_assess(self, tmp_path) -> None:
        data = self._data()
        path = tmp_path / "data.ndjson"
        path.write_bytes(data)
        by_path = assess_file(str(path), SCHEMA, AssessmentConfig())
        by_bytes = assess(data, SCHEMA, AssessmentConfig())
        assert by_path == by_bytes

    def test_duplicate_evidence_lists_offenders(self) -> None:
        records = [
            {"sensor_id": "a", "timestamp": 0, "pm25": 1.0, "temperature": 2.0},
            {"sensor_id": "a", "timestamp": 0, "pm25": 9.0, "temperature": 2.0},
            {"sensor_id": "a", "timestamp": 60, "pm25": 1.0, "temperature": 2.0},
        ]
        report = assess(ndjson_bytes(records), SCHEMA, AssessmentConfig())
        m3 = report.result("M3")
        assert m3.numerator_count == 1
        assert m3.evidence["examples"] == [["a", 0]]
        assert m3.evidence["distinct_keys"] == 2

    def test_full_packet_duplicates_are_per_sensor(self) -> None:
        # Identical payloads from two sensors at one instant are two packets.
        payload = {"timestamp": 0, "pm25": 1.0, "temperature": 2.0}
        records = [
            {"sensor_id": "a", **payload},
            {"sensor_id": "b", **payload},
            {"sensor_id": "a", **payload},
            {"sensor_id": "a", **payload},
            {"sensor_id": "b", **payload, "timestamp": 60},
        ]
        config = AssessmentConfig(duplicate_key="full_packet")
        report = assess(ndjson_bytes(records), SCHEMA, config)
        assert report.result("M3").evidence["examples"] == [["a", 0], ["a", 0]]
        counts = {
            sid: (e["packet_count"], e["unique_count"])
            for sid, e in report.per_sensor.items()
        }
        assert counts == {"a": (3, 1), "b": (2, 2)}
