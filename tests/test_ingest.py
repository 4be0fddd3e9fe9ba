"""Ingestion: format readers, timestamp normalization, grouping, IATs.

Record-level outcomes are read from the reports of assess() under an
empty schema: the valid-record count is M3's denominator, sensor ids are
the per_sensor keys, and flattened attribute names are M5's unknown
attributes. Grouping and IATs are read from sensor_iats().
"""

from __future__ import annotations

import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import iats_of, ndjson_bytes
from iotdq.errors import ConfigError, DatasetRejectedError, IngestFormatError
from iotdq.ingest import iter_records, parse_timestamp, records_at
from iotdq.model import AssessmentConfig
from iotdq.pipeline import assess
from iotdq.schema import parse_schema

CFG = AssessmentConfig()
NO_SCHEMA = parse_schema({})


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
        [_, _, _, record] = iter_records(data, "ndjson")
        with pytest.raises(ValueError, match="timestamp out of range"):
            parse_timestamp(record["timestamp"])
        assert _valid_count(data) == 3


def _float_path(value: int) -> int:
    """The float arithmetic that parse_timestamp applies to any number."""
    v = float(value)
    return int(round(v)) if abs(v) >= 1e11 else int(round(v * 1000.0))


def _report(data: bytes, config: AssessmentConfig = CFG, fmt: str = "ndjson"):
    return assess(data, NO_SCHEMA, replace(config, dataset_format=fmt))


def _valid_count(data: bytes, config: AssessmentConfig = CFG, fmt: str = "ndjson") -> int:
    return _report(data, config, fmt).result("M3").denominator_count


def _attribute_names(data: bytes, config: AssessmentConfig = CFG) -> dict[str, int]:
    """Flattened attribute names and their counts: all unknown to NO_SCHEMA."""
    return _report(data, config).result("M5").evidence["by_attribute"]


class TestNdjson:
    def test_three_clean_lines(self) -> None:
        records = [
            {"sensor_id": "a", "timestamp": 0, "pm25": 1.0},
            {"sensor_id": "a", "timestamp": 60, "pm25": 2.0},
            {"sensor_id": "b", "timestamp": 0, "pm25": 3.0},
        ]
        data = ndjson_bytes(records)
        assert list(iter_records(data, "ndjson")) == records
        report = _report(data)
        assert report.result("M3").denominator_count == 3
        assert list(report.per_sensor) == ["a", "b"]
        assert report.per_sensor["a"]["mode"] == 60.0
        assert report.result("M5").evidence["by_attribute"] == {"pm25": 3}

    def test_blank_lines_skipped_without_index(self) -> None:
        data = b'\n{"sensor_id":"a","timestamp":0}\n\n{"sensor_id":"a"}\n'
        assert list(iter_records(data, "ndjson")) == [
            {"sensor_id": "a", "timestamp": 0}, {"sensor_id": "a"}
        ]
        assert _valid_count(data) == 1

    def test_missing_timestamp_becomes_error(self) -> None:
        data = ndjson_bytes(
            [{"sensor_id": "a", "pm25": 1.0}, {"sensor_id": "a", "timestamp": 0}]
        )
        assert _valid_count(data) == 1

    def test_invalid_json_line_becomes_error(self) -> None:
        data = b'{"sensor_id":"a","timestamp":0}\n{broken\n{"sensor_id":"a","timestamp":1}\n'
        got = [r is None for r in iter_records(data, "ndjson")]
        assert got == [False, True, False]
        assert _valid_count(data) == 2

    def test_non_object_line_becomes_error(self) -> None:
        data = b'[1,2]\n{"sensor_id":"a","timestamp":0}\n{"sensor_id":"a","timestamp":1}\n'
        got = [r is None for r in iter_records(data, "ndjson")]
        assert got == [True, False, False]
        assert _valid_count(data) == 2

    def test_integer_sensor_id_stringified(self) -> None:
        data = ndjson_bytes([{"sensor_id": 7, "timestamp": 0}])
        assert list(_report(data).per_sensor) == ["7"]

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
        assert _attribute_names(data) == {"env.pm.fine": 1, "env.rh": 1}

    def test_list_attribute_becomes_error(self) -> None:
        data = ndjson_bytes(
            [
                {"sensor_id": "a", "timestamp": 0, "xs": [1, 2]},
                {"sensor_id": "a", "timestamp": 1},
            ]
        )
        assert _valid_count(data) == 1

    def test_custom_field_names(self) -> None:
        cfg = AssessmentConfig(timestamp_field="ts", sensor_id_field="device")
        data = ndjson_bytes([{"device": "d1", "ts": 5, "v": 1}])
        assert list(_report(data, cfg).per_sensor) == ["d1"]
        assert _attribute_names(data, cfg) == {"v": 1}

    def test_envelope_fields_removed_from_attributes(self) -> None:
        data = ndjson_bytes([{"sensor_id": "a", "timestamp": 0, "pm25": 1.0}])
        assert _attribute_names(data) == {"pm25": 1}


class TestCsv:
    CFG = AssessmentConfig(timestamp_field="ts", sensor_id_field="id")

    def test_two_rows_with_type_inference(self) -> None:
        data = b"id,ts,pm25,active,note\na,0,12.5,true,fine\na,60,13,false,\n"
        records = list(iter_records(data, "csv"))
        assert records == [
            {"id": "a", "ts": 0, "pm25": 12.5, "active": True, "note": "fine"},
            {"id": "a", "ts": 60, "pm25": 13, "active": False, "note": None},
        ]
        assert isinstance(records[1]["pm25"], int)
        report = _report(data, self.CFG, "csv")
        assert report.result("M3").denominator_count == 2
        assert report.per_sensor["a"]["mode"] == 60.0

    def test_row_with_extra_fields_is_error(self) -> None:
        data = b"id,ts\na,0\na,1,shoved\n"
        assert list(iter_records(data, "csv")) == [{"id": "a", "ts": 0}, None]
        assert _valid_count(data, self.CFG, "csv") == 1

    def test_short_row_missing_timestamp_is_error(self) -> None:
        data = b"id,ts,v\na,0,1\na\n"
        assert list(iter_records(data, "csv"))[1] == {"id": "a"}
        assert _valid_count(data, self.CFG, "csv") == 1

    def test_non_utf8_rejected(self) -> None:
        with pytest.raises(IngestFormatError, match="UTF-8"):
            list(iter_records(b"id,ts\n\xff\xfe,0\n", "csv"))

    def test_header_only_yields_nothing(self) -> None:
        assert list(iter_records(b"id,ts\n", "csv")) == []
        assert iats_of(b"id,ts\n", replace(CFG, dataset_format="csv")) == []

    def test_field_over_the_csv_limit_is_a_malformed_row(self) -> None:
        data = b"id,ts,note\na,0," + b"x" * 200_000 + b"\na,60,fine\n"
        assert list(iter_records(data, "csv")) == [
            None, {"id": "a", "ts": 60, "note": "fine"}
        ]
        assert _valid_count(data, self.CFG, "csv") == 1

    def test_header_over_the_csv_limit_rejected(self) -> None:
        data = b"id,ts," + b"x" * 200_000 + b"\na,0,1\n"
        with pytest.raises(IngestFormatError, match="header"):
            list(iter_records(data, "csv"))


class TestJsonArray:
    def test_array_of_objects(self) -> None:
        doc = [
            {"sensor_id": "a", "timestamp": 0},
            {"sensor_id": "a", "timestamp": 60},
        ]
        assert _valid_count(json.dumps(doc).encode(), fmt="json_array") == 2

    def test_non_array_rejected(self) -> None:
        with pytest.raises(IngestFormatError, match="array"):
            _report(b"{}", fmt="json_array")

    def test_invalid_json_rejected(self) -> None:
        with pytest.raises(IngestFormatError):
            _report(b"[{", fmt="json_array")

    def test_non_object_entry_is_error(self) -> None:
        doc = [{"sensor_id": "a", "timestamp": 0}, 42, {"sensor_id": "a", "timestamp": 1}]
        data = json.dumps(doc).encode()
        got = [r is None for r in iter_records(data, "json_array")]
        assert got == [False, True, False]
        assert _valid_count(data, fmt="json_array") == 2

    def test_unknown_format_rejected(self) -> None:
        with pytest.raises(IngestFormatError, match="unknown"):
            list(iter_records(b"", "parquet"))
        # The config refuses the format before assess reads a byte.
        with pytest.raises(ConfigError, match="dataset_format"):
            _report(b"", fmt="parquet")


_ELEMENTS = st.lists(
    st.dictionaries(st.text(max_size=3), st.integers() | st.text(max_size=3), max_size=3)
    | st.integers()
    | st.lists(st.integers(), max_size=2)
    | st.none(),
    max_size=12,
)


@given(elements=_ELEMENTS, data=st.data())
@settings(max_examples=100, deadline=None)
def test_json_array_records_at_match_iter_records(elements, data) -> None:
    source = json.dumps(elements).encode()
    records = list(iter_records(source, "json_array"))
    ordinals = [i for i in range(len(records)) if data.draw(st.booleans())]
    got = list(records_at(source, "json_array", ordinals))
    assert got == [records[i] for i in ordinals]
    with pytest.raises(IngestFormatError, match="no record"):
        list(records_at(source, "json_array", [len(records)]))


class TestRejectionThreshold:
    def _dataset(self, good: int, bad: int) -> bytes:
        lines = [
            json.dumps({"sensor_id": "a", "timestamp": i}) for i in range(good)
        ] + ["{broken"] * bad
        return ("\n".join(lines) + "\n").encode()

    def test_exactly_half_malformed_is_kept(self) -> None:
        assert _valid_count(self._dataset(5, 5)) == 5

    def test_more_than_half_malformed_rejected(self) -> None:
        with pytest.raises(DatasetRejectedError, match="malformed"):
            _report(self._dataset(4, 5))
        with pytest.raises(DatasetRejectedError, match="malformed"):
            iats_of(self._dataset(4, 5), CFG)

    def test_empty_source_yields_nothing(self) -> None:
        assert list(iter_records(b"", "ndjson")) == []
        assert iats_of(b"", CFG) == []

    def test_raw_dataset_records_count(self) -> None:
        report = _report(self._dataset(3, 0))
        assert report.result("M3").denominator_count == 3
        assert report.per_sensor["a"]["packet_count"] == 3


_T0 = 1_700_000_000_000  # epoch ms; the offsets below are milliseconds after it


def _r(sid: str, ms: int, **attrs) -> dict:
    return {"sensor_id": sid, "timestamp": _T0 + ms, **attrs}


def _iats(records: list[dict], duplicate_key: str = "id_timestamp") -> dict:
    config = AssessmentConfig(duplicate_key=duplicate_key)
    return {sid: iats.tolist() for sid, iats in iats_of(ndjson_bytes(records), config)}


class TestGroupingAndIats:
    def test_first_appearance_order_and_sorting(self) -> None:
        records = [_r("b", 2000), _r("a", 60_000), _r("a", 0), _r("b", 1000)]
        got = iats_of(ndjson_bytes(records), CFG)
        assert [(sid, iats.tolist()) for sid, iats in got] == [
            ("b", [1.0]),
            ("a", [60.0]),
        ]

    def test_stable_sort_preserves_tied_input_order(self) -> None:
        # Tied timestamps give the same gaps in whatever order they arrive.
        records = [_r("a", 0, v=1), _r("a", 0, v=2), _r("a", 0, v=3), _r("a", 5000)]
        for order in itertools.permutations(records):
            assert _iats(list(order), "full_packet") == {"a": [0.0, 0.0, 5.0]}
            assert _iats(list(order)) == {"a": [5.0]}

    def test_trivial_example_is_float_exact(self) -> None:
        records = [_r("a", 0), _r("a", 59_700), _r("a", 120_100)]
        assert _iats(records) == {"a": [59.7, 60.4]}

    def test_single_packet_has_no_iats(self) -> None:
        assert _iats([_r("a", 0)]) == {"a": []}
        assert _report(ndjson_bytes([_r("a", 0)])).per_sensor["a"]["unique_count"] == 1

    def test_duplicates_removed_before_iats(self) -> None:
        records = [_r("a", 0), _r("a", 60_000), _r("a", 60_000), _r("a", 120_000)]
        assert _iats(records) == {"a": [60.0, 60.0]}
        entry = _report(ndjson_bytes(records)).per_sensor["a"]
        assert entry["unique_count"] == 3
        assert entry["packet_count"] == 4

    def test_full_packet_key_keeps_distinct_payloads(self) -> None:
        records = [_r("a", 0, v=1), _r("a", 60_000, v=1), _r("a", 60_000, v=2)]
        assert _iats(records, "full_packet") == {"a": [60.0, 0.0]}
        config = AssessmentConfig(duplicate_key="full_packet")
        entry = _report(ndjson_bytes(records), config).per_sensor["a"]
        assert entry["unique_count"] == 3

    def test_empty_input_gives_no_streams(self) -> None:
        assert iats_of(b"", CFG) == []

    @settings(max_examples=100, deadline=None)
    @given(
        ts=st.lists(st.integers(min_value=0, max_value=10**7), min_size=2, max_size=50)
    )
    def test_iats_are_nonnegative_and_sum_to_span(self, ts: list[int]) -> None:
        iats = np.asarray(_iats([_r("a", t) for t in ts])["a"])
        assert (iats >= 0).all()
        unique_sorted = sorted(set(ts))
        assert len(iats) == len(unique_sorted) - 1
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
        # The same records with integer and with float epoch seconds.
        records = [{"sensor_id": s, "timestamp": t, "pm25": v} for s, t, v in rows]
        re_records = [dict(r, timestamp=float(r["timestamp"])) for r in records]
        first = _report(ndjson_bytes(records))
        second = _report(ndjson_bytes(re_records))
        assert first.per_metric == second.per_metric
        assert first.per_sensor == second.per_sensor
