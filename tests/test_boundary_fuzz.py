"""Boundary parsers raise only IotDqError subclasses, whatever the bytes.

parse_schema, AssessmentConfig.from_json, AttestationStub.from_json
and GenSpec.from_json read documents that come from outside the program.
Any input they cannot use must surface as the package's own error, never
as a RecursionError, TypeError or other leak.
"""

from __future__ import annotations

import contextlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from iotdq.errors import IotDqError
from iotdq.model import AssessmentConfig
from iotdq.schema import parse_schema
from iotdq.synthgen import GenSpec
from iotdq.workflow.attestation import AttestationStub

# Keys the parsers look for, so that the search reaches the checks past
# the JSON decode.
_KEYS = [
    "properties", "required", "type", "minimum", "maximum", "pattern",
    "timestamp_field", "sensor_id_field", "weights", "rae_crossover",
    "z_cutoff", "quantization_seconds", "mode_scope", "duplicate_key",
    "format_checks", "dataset_format", "domain", "created_at", "M1", "M6",
    "code_hash", "enclave_public_key", "sensor_count", "packets_per_sensor",
    "interval_seconds", "jitter_fraction", "outlier_rate", "outlier_magnitude",
    "duplicate_rate", "missing_mandatory_rate", "unknown_attr_rate",
    "format_error_rate", "seed", "start_epoch_ms", "schema",
]
_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["string", "int", "float", "integer", "number", "bool"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(_KEYS) | st.text(max_size=8), inner, max_size=4
    ),
    max_leaves=12,
)
_documents = st.one_of(
    st.binary(max_size=64),
    st.text(max_size=64),
    st.builds(json.dumps, _values),
    st.builds(lambda doc: json.dumps(doc).encode(), _values),
    # Nesting far past the interpreter's recursion limit.
    st.builds(
        lambda opener, depth: opener * depth,
        st.sampled_from(["[", '{"properties":', b'{"a":']),
        st.integers(min_value=1, max_value=20_000),
    ),
)


@given(data=_documents)
@settings(max_examples=2000, deadline=None)
def test_parse_schema_raises_only_iotdq_errors(data) -> None:
    with contextlib.suppress(IotDqError):
        parse_schema(data)


@given(data=_documents)
@settings(max_examples=1000, deadline=None)
def test_config_from_json_raises_only_iotdq_errors(data) -> None:
    with contextlib.suppress(IotDqError):
        AssessmentConfig.from_json(data)


@given(data=_documents)
@settings(max_examples=1000, deadline=None)
def test_attestation_stub_from_json_raises_only_iotdq_errors(data) -> None:
    with contextlib.suppress(IotDqError):
        AttestationStub.from_json(data)


@given(data=_documents)
@settings(max_examples=1000, deadline=None)
def test_gen_spec_from_json_raises_only_iotdq_errors(data) -> None:
    with contextlib.suppress(IotDqError):
        GenSpec.from_json(data)
