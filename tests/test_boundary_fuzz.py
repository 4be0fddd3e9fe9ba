"""Boundary parsers raise only IotDqError subclasses, whatever the bytes.

parse_schema, AssessmentConfig.from_json, AttestationStub.from_json,
GenSpec.from_json, deserialize_report and iter_records(..., "json_array")
read documents that come from outside the program. Each decodes them with
errors.load_json, the one place that turns a JSON decode failure into the
package's own error. Any input they cannot use must surface as an
IotDqError, never as a RecursionError, TypeError or other leak. The last
test holds the package to that one loader: json.loads is called nowhere
else but where the program reads one NDJSON line or its own bytes, and
no HTTP answer is decoded with its .json().
"""

from __future__ import annotations

import ast
import contextlib
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import iotdq
from iotdq.errors import IotDqError
from iotdq.ingest import iter_records
from iotdq.model import AssessmentConfig
from iotdq.report import deserialize_report
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
    "format_error_rate", "seed", "start_epoch_ms", "schema", "version",
    "dataset_fingerprint", "metrics", "per_sensor", "aggregate_score",
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


@given(data=_documents)
@settings(max_examples=1000, deadline=None)
def test_deserialize_report_raises_only_iotdq_errors(data) -> None:
    with contextlib.suppress(IotDqError):
        deserialize_report(data)


@given(data=_documents)
@settings(max_examples=1000, deadline=None)
def test_json_array_records_raise_only_iotdq_errors(data) -> None:
    with contextlib.suppress(IotDqError):
        list(iter_records(data, "json_array"))


# Callers of json.loads that read no outside document: one NDJSON line,
# whose failure is a malformed record, or bytes the program wrote itself.
_JSON_LOADS_CALLERS = {
    "errors.load_json",
    "ingest._ndjson_line",
}


def _json_loads_callers(node: ast.AST, scope: str):
    """The qualified name of the scope of each json.loads call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _json_loads_callers(child, f"{scope}.{child.name}")
            continue
        func = getattr(child, "func", None)
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "loads"
            and isinstance(func.value, ast.Name)
            and func.value.id == "json"
        ):
            yield scope
        yield from _json_loads_callers(child, scope)


def test_json_loads_is_called_only_by_the_loader_and_known_readers() -> None:
    root = Path(iotdq.__file__).parent
    callers = set()
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                assert "loads" not in {a.name for a in node.names}, path
            # A response's .json() decodes outside the loader as well.
            if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "json":
                raise AssertionError(f"{path}:{node.lineno} calls .json()")
        callers.update(_json_loads_callers(tree, module))
    assert callers == _JSON_LOADS_CALLERS
