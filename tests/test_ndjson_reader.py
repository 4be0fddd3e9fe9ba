"""Block-decoded NDJSON reader and per-signature schema verdicts.

The reader must yield exactly what the per-line reader it replaced
yielded (kept below as _oracle), error reasons included. The fold's
verdict memo must give the verdicts of _flags_for on every record.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iotdq.pipeline
from conftest import ndjson_bytes
from iotdq.errors import IngestFormatError
from iotdq.ingest import _iter_ndjson, iter_records
from iotdq.model import AssessmentConfig
from iotdq.pipeline import assess
from iotdq.schema import parse_schema
from iotdq.synthgen import DEFAULT_SCHEMA
from reference import assert_scores_match, reference_scores

SCHEMA = parse_schema(DEFAULT_SCHEMA)


def _oracle(source: bytes):
    """The per-line reader: bytes.splitlines, then json.loads per line."""
    index = 0
    for line in source.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            yield index, None, f"invalid JSON: {exc}"
        else:
            if isinstance(record, dict):
                yield index, record, None
            else:
                yield index, None, "record is not a JSON object"
        index += 1


def _assert_same_as_oracle(source: bytes, block_bytes: int) -> None:
    # repr tells 1, 1.0 and True apart and compares NaN equal to itself.
    want = repr(list(_oracle(source)))
    assert repr(list(_iter_ndjson(source, block_bytes))) == want
    assert repr(list(iter_records(source, "ndjson"))) == want


_OK = b'{"sensor_id":"a","timestamp":60}'

NAMED = {
    "crlf": _OK + b"\r\n" + _OK + b"\r\n",
    "lone_cr": _OK + b"\r" + _OK + b"\r\r" + _OK,
    "cr_at_end": _OK + b"\r",
    "u2028_u0085_in_strings": '{"s":"a\u2028b\u0085c\x1cd\x1e"}\n{"t":"\u2029"}\n'.encode(),
    "escaped_u2028": b'{"s":"a\\u2028b\\u0085"}\n',
    "utf8_bom_line": b"\xef\xbb\xbf" + _OK + b"\n" + _OK + b"\n",
    "bom_mid_file": _OK + b"\n\xef\xbb\xbf" + _OK + b"\n\xef\xbb\xbf\n",
    "utf16_line": _OK + b"\n" + '{"a":1}'.encode("utf-16") + b"\n" + _OK,
    "utf16le_no_bom": '{"a":1}'.encode("utf-16-le") + b"\n",
    "utf32_line": '{"a":1}'.encode("utf-32") + b"\n",
    "invalid_utf8": _OK + b"\n" + b'{"s":"\xff\xfe"}' + b"\n" + _OK + b"\n",
    "escaped_lone_surrogate": b'{"s":"\\ud800"}\n',
    "raw_lone_surrogate": b'{"s":"\xed\xa0\x80"}\n' + _OK,
    "vt_ff_only_lines": b"\x0b\n\x0c\n \t\x0b\x0c\n" + _OK + b"\n\x0b" + _OK + b"\x0c\n",
    "surrounding_spaces": b"  " + _OK + b"  \n\t" + _OK + b"\n",
    "other_unicode_space": "\u00a0".encode() + _OK + b"\n\x1c\n",
    "valid_only_when_joined": b'{"a":"\n"}\n{"a":1},{"b":2}\n{"a":"},{"}\n',
    "non_objects": b"[1]\n2\n\"s\"\nnull\ntrue\n",
    "nan_and_big_int": b'{"t":NaN,"u":-Infinity}\n{"t":' + b"9" * 401 + b"}\n",
    "too_many_digits": b'{"t":' + b"9" * 5000 + b"}\n" + _OK,
    "truncated": _OK + b"\n" + _OK[:-3],
    "nul_bytes": b"\x00\n" + _OK + b"\x00\n1\x00\n",
    "no_trailing_newline": _OK + b"\n" + _OK,
    "empty": b"",
    "only_newlines": b"\n\n\r\n\r",
}


@pytest.mark.parametrize("block_bytes", [1, 2, 7, 64, 1 << 22])
@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_cases_match_oracle(name: str, block_bytes: int) -> None:
    _assert_same_as_oracle(NAMED[name], block_bytes)


def test_blocks_keep_lines_whole_and_indices_running() -> None:
    lines = [{"sensor_id": "a", "timestamp": i, "v": "x" * (i % 13)} for i in range(200)]
    source = ndjson_bytes(lines)
    for block_bytes in (1, 5, 33, 1000):
        got = list(_iter_ndjson(source, block_bytes))
        assert [r for _i, r, _e in got] == lines
        assert [i for i, _r, _e in got] == list(range(200))


# Far deeper than the interpreter's recursion limit.
_DEEP = b"[" * 100_000


@pytest.mark.parametrize("block_bytes", [1, 7, 1 << 22])
def test_too_deeply_nested_line_is_a_malformed_record(block_bytes: int) -> None:
    source = _OK + b"\n" + _DEEP + b"\n" + b'{"a":' * 100_000 + b"\n" + _OK
    got = list(_iter_ndjson(source, block_bytes))
    assert [(i, r is None, e) for i, r, e in got] == [
        (0, False, None),
        (1, True, "invalid JSON: nesting too deep"),
        (2, True, "invalid JSON: nesting too deep"),
        (3, False, None),
    ]


def test_too_deeply_nested_line_in_a_non_utf8_block() -> None:
    source = b'{"s":"\xff"}\n' + _DEEP + b"\n"
    reasons = [e for _i, _r, e in _iter_ndjson(source)]
    assert reasons[1] == "invalid JSON: nesting too deep"


def test_assess_counts_a_too_deeply_nested_line_as_malformed() -> None:
    records = [_rec(i) for i in range(5)]
    report = assess(ndjson_bytes(records) + _DEEP + b"\n", SCHEMA, AssessmentConfig())
    assert report.result("M3").denominator_count == 5


def test_too_deeply_nested_json_array_is_a_format_error() -> None:
    with pytest.raises(IngestFormatError, match="nested too deeply"):
        list(iter_records(b"[" + _DEEP + b"]", "json_array"))
    with pytest.raises(IngestFormatError, match="nested too deeply"):
        assess(b"[" + _DEEP + b"]", SCHEMA, AssessmentConfig(), format="json_array")


_TOKENS = [
    b"\n", b"\r", b"\r\n", b" ", b"\t", b"\x0b", b"\x0c", b"\x00",
    b"\xef\xbb\xbf", b"\xff", b"\xfe", b"\xed\xa0\x80", b"\xc2\x85",
    "\u2028".encode(), b"\x1c", b"{", b"}", b"[", b"]", b",", b":", b'"',
    b"\\", b"\\u", b"d800", b"1", b"-", b".5", b"e3", b"NaN", b"null",
    b'"a"', b'{"a":', b'"},{"', b"}\n{", _OK,
]

_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_record_bytes = st.builds(
    lambda doc, ascii_only: json.dumps(doc, ensure_ascii=ascii_only).encode(
        "utf-8", "surrogatepass"
    ),
    st.dictionaries(st.text(max_size=4), _values, max_size=4),
    st.booleans(),
)
_soup = st.lists(
    st.one_of(st.sampled_from(_TOKENS), _record_bytes, st.binary(max_size=4)),
    max_size=24,
).map(b"".join)


@given(source=_soup, block_bytes=st.integers(min_value=1, max_value=48))
@settings(max_examples=400, deadline=None)
def test_byte_soup_matches_oracle(source: bytes, block_bytes: int) -> None:
    _assert_same_as_oracle(source, block_bytes)


# -- per-signature verdict memo -------------------------------------------


def _rec(i: int, sensor: str = "a", **fields) -> dict:
    rec = {"sensor_id": sensor, "timestamp": 60 * i, "pm25": 1.5,
           "temperature": 20.0, "status": "ok"}
    rec.update(fields)
    return rec


# Records sharing the clean records' keys, each with one odd value.
_ODD_VALUES = {
    "none": None,
    "bool": True,
    "int_for_float": 3,
    "wrong_type": "high",
    "nested_known": {"pm25": 1.0},
    "nested_unknown": {"zzz": 1.0},
    "list": [1.0],
}


@pytest.mark.parametrize("format_checks", ["types_only", "full"])
@pytest.mark.parametrize("odd", sorted(_ODD_VALUES))
def test_memo_gives_per_record_verdicts(odd: str, format_checks: str) -> None:
    value = _ODD_VALUES[odd]
    records = [_rec(i) for i in range(20)]
    for i in (3, 9, 15):
        records[i]["pm25"] = value
        records[i]["temperature"] = value
    records.append(_rec(30, pm25=900.0))  # out of range: flagged under full only
    records.append(_rec(31, status={"a": 1}))
    records.append(_rec(32, status={"b": 1}))
    data = ndjson_bytes(records)
    config = AssessmentConfig(quantization_seconds=60.0, format_checks=format_checks)
    report = assess(data, SCHEMA, config)
    assert_scores_match(report, reference_scores(data, SCHEMA, config, "ndjson"))


def test_nested_signatures_are_never_memoised() -> None:
    # Same top-level keys and types; the flattened keys differ.
    records = [_rec(i, env={"rh": 40}) for i in range(4)]
    records += [_rec(i + 4, env={"zzz": 1}) for i in range(4)]
    schema = parse_schema(
        {"properties": {**DEFAULT_SCHEMA["properties"], "env.rh": {"type": "int"}}}
    )
    report = assess(ndjson_bytes(records), schema, AssessmentConfig())
    m5 = report.result("M5")
    assert (m5.numerator_count, m5.denominator_count) == (4, 8)
    assert m5.evidence["by_attribute"] == {"env.zzz": 4}


def _count_flags_calls(monkeypatch) -> list:
    calls: list = []
    original = iotdq.pipeline._flags_for

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(iotdq.pipeline, "_flags_for", counting)
    return calls


def test_types_only_checks_once_per_signature(monkeypatch) -> None:
    calls = _count_flags_calls(monkeypatch)
    records = [_rec(i) for i in range(50)] + [_rec(50 + i, pm25="x") for i in range(5)]
    report = assess(ndjson_bytes(records), SCHEMA, AssessmentConfig())
    # One check per signature: the clean one and the flagged one.
    assert len(calls) == 2
    assert report.result("M6").numerator_count == 5
    assert report.result("M6").evidence["by_attribute"] == {"pm25": 5}


def test_full_checks_call_flags_for_every_record(monkeypatch) -> None:
    calls = _count_flags_calls(monkeypatch)
    records = [_rec(i) for i in range(50)] + [_rec(50, pm25=900.0)]
    report = assess(
        ndjson_bytes(records), SCHEMA, AssessmentConfig(format_checks="full")
    )
    assert len(calls) == 51
    assert report.result("M6").evidence["by_attribute"] == {"pm25": 1}
