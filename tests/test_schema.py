"""Schema parsing and per-packet validation verdicts (schema._flags_for)."""

from __future__ import annotations

import json
import logging
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotdq.errors import ConfigError, SchemaError
from iotdq.model import AssessmentConfig
from iotdq.schema import (
    FORMAT_KINDS,
    METRIC_OF_KIND,
    AttributeSpec,
    SchemaDocument,
    _flags_for,
    _value_faults,
    _value_plan,
    parse_schema,
)

AIR_SCHEMA = {
    "properties": {
        "pm25": {"type": "number", "minimum": 0, "maximum": 500},
        "temperature": {"type": "number", "minimum": -40, "maximum": 85},
        "status": {"type": "string", "pattern": "^(ok|warn|fail)$"},
        "count": {"type": "integer", "minimum": 0},
        "active": {"type": "boolean"},
    },
    "required": ["pm25", "temperature"],
}


def _schema() -> SchemaDocument:
    return parse_schema(json.dumps(AIR_SCHEMA))


class Verdict(NamedTuple):
    missing_mandatory: bool
    has_unknown: bool
    has_format_error: bool
    detail: tuple[tuple[str, str], ...]


def _judge(attributes: dict, checks: str = "types_only") -> Verdict:
    """The fold's verdict: _flags_for's, then under full checks the value
    checks of _value_plan run by _value_faults."""
    prepared = _schema().prepared()
    detail = _flags_for(attributes, prepared)
    if checks == "full":
        detail += tuple(_value_faults(attributes, _value_plan(attributes, prepared)))
    metrics = {METRIC_OF_KIND[kind] for _name, kind in detail}
    return Verdict("M4" in metrics, "M5" in metrics, "M6" in metrics, detail)


class TestParseSchema:
    def test_fixture_parses(self) -> None:
        schema = _schema()
        assert set(schema.attributes) == {"pm25", "temperature", "status", "count", "active"}
        assert schema.mandatory == frozenset({"pm25", "temperature"})
        spec = schema.attributes["pm25"]
        assert spec.declared_type == "float"
        assert spec.minimum == 0
        assert spec.maximum == 500

    def test_accepts_bytes_str_and_mapping(self) -> None:
        as_dict = parse_schema(AIR_SCHEMA)
        as_str = parse_schema(json.dumps(AIR_SCHEMA))
        as_bytes = parse_schema(json.dumps(AIR_SCHEMA).encode())
        assert as_dict.mandatory == as_str.mandatory == as_bytes.mandatory

    def test_type_spellings(self) -> None:
        doc = {
            "properties": {
                "a": {"type": "int"},
                "b": {"type": "double"},
                "c": {"type": "str"},
                "d": {"type": "bool"},
            }
        }
        schema = parse_schema(doc)
        assert schema.attributes["a"].declared_type == "integer"
        assert schema.attributes["b"].declared_type == "float"
        assert schema.attributes["c"].declared_type == "string"
        assert schema.attributes["d"].declared_type == "boolean"

    def test_empty_schema_is_valid(self) -> None:
        schema = parse_schema({})
        assert schema.attributes == {}
        assert schema.mandatory == frozenset()

    def test_required_must_be_declared(self) -> None:
        with pytest.raises(SchemaError, match="not declared"):
            parse_schema({"properties": {}, "required": ["ghost"]})

    def test_missing_type_rejected(self) -> None:
        with pytest.raises(SchemaError, match="declares no type"):
            parse_schema({"properties": {"a": {"minimum": 0}}})

    def test_unsupported_type_rejected(self) -> None:
        with pytest.raises(SchemaError, match="unsupported type"):
            parse_schema({"properties": {"a": {"type": "object"}}})

    def test_invalid_json_rejected(self) -> None:
        with pytest.raises(SchemaError, match="JSON"):
            parse_schema(b"{nope")
        with pytest.raises(SchemaError):
            parse_schema(b"[1]")

    def test_unknown_keyword_warns_but_parses(
        self, caplog: pytest.LogCaptureFixture
    ) -> None:
        with caplog.at_level(logging.WARNING, logger="iotdq.schema"):
            parse_schema(
                {
                    "$schema": "x",
                    "properties": {"a": {"type": "string", "maxLength": 3}},
                }
            )
        messages = " ".join(r.getMessage() for r in caplog.records)
        assert "$schema" in messages
        assert "maxLength" in messages

    def test_pattern_on_non_string_rejected(self) -> None:
        with pytest.raises(SchemaError, match="string type only"):
            parse_schema({"properties": {"a": {"type": "integer", "pattern": "x"}}})

    def test_bounds_on_non_numeric_rejected(self) -> None:
        with pytest.raises(SchemaError, match="numeric"):
            parse_schema({"properties": {"a": {"type": "string", "minimum": 0}}})

    def test_inverted_bounds_rejected(self) -> None:
        with pytest.raises(SchemaError, match="exceed"):
            parse_schema({"properties": {"a": {"type": "float", "minimum": 5, "maximum": 1}}})

    def test_bad_pattern_rejected(self) -> None:
        with pytest.raises(SchemaError, match="pattern"):
            parse_schema({"properties": {"a": {"type": "string", "pattern": "("}}})


class TestValidatePacket:
    def _verdict(self, attributes: dict, checks: str = "types_only") -> Verdict:
        return _judge(attributes, checks)

    def test_clean_packet(self) -> None:
        v = self._verdict({"pm25": 12.5, "temperature": 21.0, "status": "ok"})
        assert not v.missing_mandatory
        assert not v.has_unknown
        assert not v.has_format_error
        assert v.detail == ()

    def test_missing_mandatory(self) -> None:
        v = self._verdict({"pm25": 12.5})
        assert v.missing_mandatory
        assert ("temperature", "missing") in v.detail

    def test_unknown_attribute(self) -> None:
        v = self._verdict({"pm25": 1.0, "temperature": 1.0, "debug": 1})
        assert v.has_unknown
        assert ("debug", "unknown") in v.detail

    def test_type_mismatch(self) -> None:
        v = self._verdict({"pm25": "high", "temperature": 1.0})
        assert v.has_format_error
        assert ("pm25", "type") in v.detail

    def test_null_counts_as_format_error_not_missing(self) -> None:
        v = self._verdict({"pm25": None, "temperature": 1.0})
        assert v.has_format_error
        assert not v.missing_mandatory
        assert ("pm25", "null") in v.detail

    def test_bool_is_not_integer_or_float(self) -> None:
        v = self._verdict({"pm25": True, "temperature": 1.0, "count": False})
        kinds = dict(v.detail)
        assert kinds["pm25"] == "type"
        assert kinds["count"] == "type"

    def test_integer_widens_to_float(self) -> None:
        v = self._verdict({"pm25": 12, "temperature": 21})
        assert not v.has_format_error

    def test_float_is_not_integer(self) -> None:
        v = self._verdict({"pm25": 1.0, "temperature": 1.0, "count": 2.5})
        assert ("count", "type") in v.detail

    def test_boolean_attribute(self) -> None:
        ok = self._verdict({"pm25": 1.0, "temperature": 1.0, "active": True})
        assert not ok.has_format_error
        bad = self._verdict({"pm25": 1.0, "temperature": 1.0, "active": 1})
        assert ("active", "type") in bad.detail

    def test_range_checked_only_in_full_mode(self) -> None:
        attrs = {"pm25": 900.0, "temperature": 1.0}
        assert not self._verdict(attrs, "types_only").has_format_error
        full = self._verdict(attrs, "full")
        assert full.has_format_error
        assert ("pm25", "range") in full.detail

    def test_pattern_checked_only_in_full_mode(self) -> None:
        attrs = {"pm25": 1.0, "temperature": 1.0, "status": "broken"}
        assert not self._verdict(attrs, "types_only").has_format_error
        full = self._verdict(attrs, "full")
        assert ("status", "pattern") in full.detail

    def test_range_boundaries_inclusive(self) -> None:
        low = self._verdict({"pm25": 0.0, "temperature": -40.0}, "full")
        high = self._verdict({"pm25": 500.0, "temperature": 85.0}, "full")
        assert not low.has_format_error
        assert not high.has_format_error

    def test_unknown_checks_mode_rejected(self) -> None:
        with pytest.raises(ConfigError, match="format_checks"):
            AssessmentConfig(format_checks="all")

    @settings(max_examples=200, deadline=None)
    @given(
        attributes=st.dictionaries(
            st.sampled_from(["pm25", "temperature", "status", "count", "active", "debug"]),
            st.sampled_from([None, True, 3, -50, 2.5, 900.0, "ok", "broken"]),
        ),
        checks=st.sampled_from(["types_only", "full"]),
    )
    def test_verdict_consistency_enforced(self, attributes: dict, checks: str) -> None:
        # At most one violation per attribute, and the names of each kind
        # are exactly those the schema implies.
        v = self._verdict(attributes, checks)
        assert len(dict(v.detail)) == len(v.detail)
        names = {kind: {n for n, k in v.detail if k == kind} for kind in METRIC_OF_KIND}
        declared = set(AIR_SCHEMA["properties"])
        present = set(attributes)
        assert names["missing"] == set(AIR_SCHEMA["required"]) - present
        assert names["unknown"] == present - declared
        assert names["null"] == {n for n in present & declared if attributes[n] is None}
        formatted = set().union(*(names[kind] for kind in FORMAT_KINDS))
        assert formatted <= present & declared

    def test_attribute_spec_direct_construction_validates(self) -> None:
        with pytest.raises(SchemaError):
            AttributeSpec(declared_type="object")

    @settings(max_examples=150, deadline=None)
    @given(
        pm25=st.floats(min_value=0, max_value=500, allow_nan=False),
        temperature=st.floats(min_value=-40, max_value=85, allow_nan=False),
        status=st.sampled_from(["ok", "warn", "fail"]),
        checks=st.sampled_from(["types_only", "full"]),
    )
    def test_conforming_values_always_pass(
        self, pm25: float, temperature: float, status: str, checks: str
    ) -> None:
        v = self._verdict(
            {"pm25": pm25, "temperature": temperature, "status": status}, checks
        )
        assert v.detail == ()

    def test_verdict_independent_of_attribute_order(self) -> None:
        a = self._verdict({"pm25": "x", "temperature": 1.0, "debug": 1}, "full")
        b = self._verdict({"debug": 1, "temperature": 1.0, "pm25": "x"}, "full")
        assert set(a.detail) == set(b.detail)
        assert (a.missing_mandatory, a.has_unknown, a.has_format_error) == (
            b.missing_mandatory,
            b.has_unknown,
            b.has_format_error,
        )
