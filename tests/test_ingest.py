"""Ingestion: format readers, timestamp normalization, grouping, IATs."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ndjson_bytes
from iotdq.errors import DatasetRejectedError, IngestFormatError
from iotdq.ingest import (
    RawDataset,
    compute_iats,
    group_by_sensor,
    iter_records,
    parse_dataset,
    parse_timestamp,
)
from iotdq.model import AssessmentConfig, DataPacket
from iotdq.pipeline import assess
from iotdq.schema import parse_schema

CFG = AssessmentConfig()


class TestParseTimestamp:
    def test_epoch_seconds(self) -> None:
        assert parse_timestamp(60) == 60_000
        assert parse_timestamp(59.7) == 59_700

    def test_epoch_milliseconds_above_heuristic_floor(self) -> None:
        assert parse_timestamp(1_700_000_000_000) == 1_700_000_000_000
        assert parse_timestamp(1_700_000_000) == 1_700_000_000_000

    def test_iso_with_z_suffix(self) -> None:
        assert parse_timestamp("1970-01-01T00:01:00Z") == 60_000

    def test_iso_with_offset(self) -> None:
        assert parse_timestamp("1970-01-01T01:01:00+01:00") == 60_000

    def test_naive_iso_is_utc(self) -> None:
        assert parse_timestamp("1970-01-01T00:01:00") == 60_000

    def test_fractional_iso_seconds(self) -> None:
        assert parse_timestamp("1970-01-01T00:00:59.700Z") == 59_700

    @pytest.mark.parametrize(
        "value", [True, None, "", "not a time", float("nan"), float("inf"), [1]]
    )
    def test_invalid_values_rejected(self, value) -> None:
        with pytest.raises(ValueError):
            parse_timestamp(value)


    def test_integer_too_large_for_a_float_is_value_error(self) -> None:
        with pytest.raises(ValueError, match="out of range"):
            parse_timestamp(10**400)

    @pytest.mark.parametrize("value", [2**63, -(2**64), 1e300, -1e19])
    def test_beyond_int64_milliseconds_is_value_error(self, value) -> None:
        with pytest.raises(ValueError, match="out of range"):
            parse_timestamp(value)

    @pytest.mark.parametrize(
        "value",
        [0, 1, -1, 99_999_999_999, 100_000_000_000, -100_000_000_000,
         -99_999_999_999, 2**53 - 1, -(2**53) + 1, 2**53, 2**53 + 1],
    )
    def test_integer_fast_path_boundaries(self, value: int) -> None:
        assert parse_timestamp(value) == _float_path(value)

    @given(st.integers(min_value=-(2**54), max_value=2**54))
    @settings(max_examples=300, deadline=None)
    def test_integer_fast_path_matches_float_arithmetic(self, value: int) -> None:
        assert parse_timestamp(value) == _float_path(value)

    def test_huge_integer_timestamp_is_a_malformed_record(self) -> None:
        big = b"9" * 401
        data = (
            ndjson_bytes([{"sensor_id": "a", "timestamp": 60 * i} for i in range(3)])
            + b'{"sensor_id":"a","timestamp":' + big + b"}\n"
        )
        packets, errors = parse_dataset(data, "ndjson", CFG)
        assert len(packets) == 3
        assert [(e.record_index, e.reason) for e in errors] == [
            (3, "timestamp out of range")
        ]
        report = assess(data, parse_schema({}), CFG)
        assert report.result("M3").denominator_count == 3


def _float_path(value: int) -> int:
    """The float arithmetic that parse_timestamp applies to any number."""
    v = float(value)
    return int(round(v)) if abs(v) >= 1e11 else int(round(v * 1000.0))


class TestNdjson:
    def test_three_clean_lines(self) -> None:
        data = ndjson_bytes(
            [
                {"sensor_id": "a", "timestamp": 0, "pm25": 1.0},
                {"sensor_id": "a", "timestamp": 60, "pm25": 2.0},
                {"sensor_id": "b", "timestamp": 0, "pm25": 3.0},
            ]
        )
        packets, errors = parse_dataset(data, "ndjson", CFG)
        assert errors == []
        assert [p.sensor_id for p in packets] == ["a", "a", "b"]
        assert packets[1].timestamp_ms == 60_000
        assert packets[0].attributes == {"pm25": 1.0}

    def test_blank_lines_skipped_without_index(self) -> None:
        data = b'\n{"sensor_id":"a","timestamp":0}\n\n{"sensor_id":"a"}\n'
        packets, errors = parse_dataset(data, "ndjson", CFG)
        assert len(packets) == 1
        assert len(errors) == 1
        assert errors[0].record_index == 1

    def test_missing_timestamp_becomes_error(self) -> None:
        data = ndjson_bytes(
            [{"sensor_id": "a", "pm25": 1.0}, {"sensor_id": "a", "timestamp": 0}]
        )
        packets, errors = parse_dataset(data, "ndjson", CFG)
        assert len(packets) == 1
        assert "timestamp" in errors[0].reason

    def test_invalid_json_line_becomes_error(self) -> None:
        data = b'{"sensor_id":"a","timestamp":0}\n{broken\n{"sensor_id":"a","timestamp":1}\n'
        packets, errors = parse_dataset(data, "ndjson", CFG)
        assert len(packets) == 2
        assert errors[0].record_index == 1
        assert "JSON" in errors[0].reason

    def test_non_object_line_becomes_error(self) -> None:
        data = b'[1,2]\n{"sensor_id":"a","timestamp":0}\n{"sensor_id":"a","timestamp":1}\n'
        packets, errors = parse_dataset(data, "ndjson", CFG)
        assert len(packets) == 2
        assert errors[0].reason == "record is not a JSON object"

    def test_integer_sensor_id_stringified(self) -> None:
        data = ndjson_bytes([{"sensor_id": 7, "timestamp": 0}])
        packets, _ = parse_dataset(data, "ndjson", CFG)
        assert packets[0].sensor_id == "7"

    def test_nested_attributes_flattened(self) -> None:
        data = ndjson_bytes(
            [
                {
                    "sensor_id": "a",
                    "timestamp": 0,
                    "env": {"pm": {"fine": 1.5}, "rh": 40},
                }
            ]
        )
        packets, _ = parse_dataset(data, "ndjson", CFG)
        assert packets[0].attributes == {"env.pm.fine": 1.5, "env.rh": 40}

    def test_list_attribute_becomes_error(self) -> None:
        data = ndjson_bytes(
            [
                {"sensor_id": "a", "timestamp": 0, "xs": [1, 2]},
                {"sensor_id": "a", "timestamp": 1},
            ]
        )
        packets, errors = parse_dataset(data, "ndjson", CFG)
        assert len(packets) == 1
        assert "non-scalar" in errors[0].reason

    def test_custom_field_names(self) -> None:
        cfg = AssessmentConfig(timestamp_field="ts", sensor_id_field="device")
        data = ndjson_bytes([{"device": "d1", "ts": 5, "v": 1}])
        packets, _ = parse_dataset(data, "ndjson", cfg)
        assert packets[0].sensor_id == "d1"
        assert packets[0].attributes == {"v": 1}

    def test_envelope_fields_removed_from_attributes(self) -> None:
        data = ndjson_bytes([{"sensor_id": "a", "timestamp": 0, "pm25": 1.0}])
        packets, _ = parse_dataset(data, "ndjson", CFG)
        assert "sensor_id" not in packets[0].attributes
        assert "timestamp" not in packets[0].attributes


class TestCsv:
    def test_two_rows_with_type_inference(self) -> None:
        cfg = AssessmentConfig(timestamp_field="ts", sensor_id_field="id")
        data = b"id,ts,pm25,active,note\na,0,12.5,true,fine\na,60,13,false,\n"
        packets, errors = parse_dataset(data, "csv", cfg)
        assert errors == []
        assert packets[0].attributes == {"pm25": 12.5, "active": True, "note": "fine"}
        assert packets[1].attributes == {"pm25": 13, "active": False, "note": None}
        assert isinstance(packets[1].attributes["pm25"], int)
        assert packets[1].timestamp_ms == 60_000

    def test_row_with_extra_fields_is_error(self) -> None:
        cfg = AssessmentConfig(timestamp_field="ts", sensor_id_field="id")
        data = b"id,ts\na,0\na,1,shoved\n"
        packets, errors = parse_dataset(data, "csv", cfg)
        assert len(packets) == 1
        assert "more fields" in errors[0].reason

    def test_short_row_missing_timestamp_is_error(self) -> None:
        cfg = AssessmentConfig(timestamp_field="ts", sensor_id_field="id")
        data = b"id,ts,v\na,0,1\na\n"
        packets, errors = parse_dataset(data, "csv", cfg)
        assert len(packets) == 1
        assert len(errors) == 1

    def test_non_utf8_rejected(self) -> None:
        with pytest.raises(IngestFormatError, match="UTF-8"):
            list(iter_records(b"id,ts\n\xff\xfe,0\n", "csv"))

    def test_header_only_yields_nothing(self) -> None:
        packets, errors = parse_dataset(b"id,ts\n", "csv", CFG)
        assert packets == [] and errors == []


class TestJsonArray:
    def test_array_of_objects(self) -> None:
        doc = [
            {"sensor_id": "a", "timestamp": 0},
            {"sensor_id": "a", "timestamp": 60},
        ]
        packets, errors = parse_dataset(json.dumps(doc).encode(), "json_array", CFG)
        assert len(packets) == 2 and errors == []

    def test_non_array_rejected(self) -> None:
        with pytest.raises(IngestFormatError, match="array"):
            parse_dataset(b"{}", "json_array", CFG)

    def test_invalid_json_rejected(self) -> None:
        with pytest.raises(IngestFormatError):
            parse_dataset(b"[{", "json_array", CFG)

    def test_non_object_entry_is_error(self) -> None:
        doc = [{"sensor_id": "a", "timestamp": 0}, 42, {"sensor_id": "a", "timestamp": 1}]
        packets, errors = parse_dataset(json.dumps(doc).encode(), "json_array", CFG)
        assert len(packets) == 2
        assert errors[0].record_index == 1

    def test_unknown_format_rejected(self) -> None:
        with pytest.raises(IngestFormatError, match="unknown"):
            parse_dataset(b"", "parquet", CFG)


class TestRejectionThreshold:
    def _dataset(self, good: int, bad: int) -> bytes:
        lines = [
            json.dumps({"sensor_id": "a", "timestamp": i}) for i in range(good)
        ] + ["{broken"] * bad
        return ("\n".join(lines) + "\n").encode()

    def test_exactly_half_malformed_is_kept(self) -> None:
        packets, errors = parse_dataset(self._dataset(5, 5), "ndjson", CFG)
        assert len(packets) == 5 and len(errors) == 5

    def test_more_than_half_malformed_rejected(self) -> None:
        with pytest.raises(DatasetRejectedError, match="malformed"):
            parse_dataset(self._dataset(4, 5), "ndjson", CFG)

    def test_empty_source_yields_nothing(self) -> None:
        packets, errors = parse_dataset(b"", "ndjson", CFG)
        assert packets == [] and errors == []

    def test_raw_dataset_records_count(self) -> None:
        raw = RawDataset("ndjson", self._dataset(3, 0))
        packets, _ = raw.parse(CFG)
        assert raw.packet_count == len(packets) == 3


class TestGroupingAndIats:
    def _p(self, sid: str, ms: int, **attrs) -> DataPacket:
        return DataPacket(sid, ms, attrs)

    def test_first_appearance_order_and_sorting(self) -> None:
        packets = [
            self._p("b", 2000),
            self._p("a", 60_000),
            self._p("a", 0),
            self._p("b", 1000),
        ]
        streams = group_by_sensor(packets)
        assert [s.sensor_id for s in streams] == ["b", "a"]
        assert [p.timestamp_ms for p in streams[0].packets] == [1000, 2000]
        assert [p.timestamp_ms for p in streams[1].packets] == [0, 60_000]

    def test_stable_sort_preserves_tied_input_order(self) -> None:
        packets = [self._p("a", 0, v=1), self._p("a", 0, v=2), self._p("a", 0, v=3)]
        streams = group_by_sensor(packets)
        assert [p.attributes["v"] for p in streams[0].packets] == [1, 2, 3]

    def test_trivial_example_is_float_exact(self) -> None:
        packets = [self._p("a", 0), self._p("a", 59_700), self._p("a", 120_100)]
        stream = group_by_sensor(packets)[0]
        assert compute_iats(stream) == [59.7, 60.4]
        assert list(stream.iat_seconds) == [59.7, 60.4]

    def test_single_packet_has_no_iats(self) -> None:
        stream = group_by_sensor([self._p("a", 0)])[0]
        assert compute_iats(stream) == []
        assert stream.unique_count == 1

    def test_duplicates_removed_before_iats(self) -> None:
        packets = [
            self._p("a", 0),
            self._p("a", 60_000),
            self._p("a", 60_000),
            self._p("a", 120_000),
        ]
        stream = group_by_sensor(packets)[0]
        assert compute_iats(stream) == [60.0, 60.0]
        assert stream.unique_count == 3
        assert len(stream.packets) == 4

    def test_full_packet_key_keeps_distinct_payloads(self) -> None:
        packets = [
            self._p("a", 0, v=1),
            self._p("a", 60_000, v=1),
            self._p("a", 60_000, v=2),
        ]
        stream = group_by_sensor(packets, "full_packet")[0]
        assert stream.unique_count == 3
        assert compute_iats(stream, "full_packet") == [60.0, 0.0]

    def test_empty_input_gives_no_streams(self) -> None:
        assert group_by_sensor([]) == []

    @settings(max_examples=100, deadline=None)
    @given(
        ts=st.lists(st.integers(min_value=0, max_value=10**7), min_size=2, max_size=50)
    )
    def test_iats_are_nonnegative_and_sum_to_span(self, ts: list[int]) -> None:
        packets = [self._p("a", t) for t in ts]
        stream = group_by_sensor(packets)[0]
        iats = np.asarray(compute_iats(stream))
        assert (iats >= 0).all()
        unique_sorted = sorted(set(ts))
        span = (unique_sorted[-1] - unique_sorted[0]) / 1000.0
        assert float(iats.sum()) == pytest.approx(span, abs=1e-6)


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=0, max_value=10**6),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_ndjson_parse_serialize_parse(self, rows) -> None:
        records = [
            {"sensor_id": s, "timestamp": t, "pm25": v} for s, t, v in rows
        ]
        packets1, _ = parse_dataset(ndjson_bytes(records), "ndjson", CFG)
        re_records = [
            {"sensor_id": p.sensor_id, "timestamp": p.timestamp_ms / 1000.0, **p.attributes}
            for p in packets1
        ]
        packets2, _ = parse_dataset(ndjson_bytes(re_records), "ndjson", CFG)
        assert packets1 == packets2
