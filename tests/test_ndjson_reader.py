"""orjson NDJSON reader and per-signature schema verdicts.

The reader must yield exactly what a per-line json.loads reader yields
(kept below as _oracle), None for each malformed line included, and no
line may crash the interpreter, whether it reads bytes in memory or a
file through os.pread; records_at must give the same record at each
ordinal. The fold's verdict memo must give the verdicts of _flags_for on
every record, and the full_packet digests of the rows it reads again must
be those of the records' flattened attributes.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iotdq
import iotdq.ingest
import iotdq.pipeline
from conftest import malformed_ordinals, ndjson_bytes, record_order_columns
from iotdq.errors import IngestFormatError
from iotdq.ingest import (
    _in_file,
    _in_memory,
    _iter_ndjson,
    iter_records,
    parse_timestamp,
    records_at,
)
from iotdq.metrics_iat import packet_key_fields
from iotdq.model import AssessmentConfig
from iotdq.pipeline import assess
from iotdq.schema import FORMAT_KINDS, _value_faults, _value_plan, parse_schema
from iotdq.synthgen import DEFAULT_SCHEMA
from reference import assert_scores_match, reference_scores

SCHEMA = parse_schema(DEFAULT_SCHEMA)


def _oracle(source: bytes):
    """The per-line reader: bytes.splitlines, then json.loads per line."""
    for line in source.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            yield None
        else:
            yield record if isinstance(record, dict) else None


def _read_from_file(source: bytes, block_bytes: int) -> tuple[list, list]:
    """_iter_ndjson over a temporary file holding source, read with os.pread,
    and records_at at every ordinal of that file; the reads that look for
    the end of a block start at 2 bytes, so that they end inside lines and
    between \\r and \\n."""
    with tempfile.TemporaryFile() as fh:
        fh.write(source)
        fh.flush()
        with mock.patch.object(iotdq.ingest, "_PROBE_BYTES", 2):
            in_file = _in_file(fh.fileno(), len(source))
            records = list(_iter_ndjson(in_file, block_bytes))
            with mock.patch.object(iotdq.ingest, "_BLOCK_BYTES", block_bytes):
                return records, list(records_at(in_file, "ndjson", range(len(records))))


def _assert_same_as_oracle(source: bytes, block_bytes: int) -> None:
    # repr tells 1, 1.0 and True apart and compares NaN equal to itself.
    records = list(_oracle(source))
    want = repr(records)
    assert repr(list(_iter_ndjson(source, block_bytes))) == want
    assert repr(list(iter_records(source, "ndjson"))) == want
    from_file, at_in_file = _read_from_file(source, block_bytes)
    assert repr(from_file) == want
    assert repr(at_in_file) == want
    with mock.patch.object(iotdq.ingest, "_BLOCK_BYTES", block_bytes):
        _assert_records_at_match(source, "ndjson", records)


def _assert_records_at_match(source: bytes, fmt: str, records: list) -> None:
    """records_at over source gives records[i] at each ordinal i: all of
    them, every other one from each start, and the last alone; one past the
    last raises."""
    count = len(records)
    for ordinals in (range(count), range(0, count, 2), range(1, count, 2)):
        got = records_at(source, fmt, ordinals)
        assert repr(list(got)) == repr([records[i] for i in ordinals])
    if count:
        assert repr(list(records_at(source, fmt, [count - 1]))) == repr(records[-1:])
    with pytest.raises(IngestFormatError, match=f"no record {count}"):
        list(records_at(source, fmt, [count]))


_OK = b'{"sensor_id":"a","timestamp":60}'
# Past the int64/uint64 edges orjson 3.8 returns a float where json keeps the int.
_EDGE_INTS = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64]
_LONG_NOTE = b',"note":"' + b"calibrated " * 100 + b'"}'


def _split_mantissa(x: float, digits: int, offset: int) -> bytes:
    """The halfway point between x and the next double, to digits significant
    digits in positional notation, moved offset units in its last digit."""
    with localcontext() as ctx:
        ctx.prec = 400
        mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
        unit = Decimal(10) ** (mid.adjusted() - digits + 1)
        return format(mid.quantize(unit) + offset * unit, "f").encode()


_HALFWAY = [
    _split_mantissa(x, digits, offset)
    for x in (0.1, 1.0, 2.5, math.pi, 123456.789, 2.0**53, 1e15 / 7, 4e19 / 3)
    for digits in (20, 34, 40)
    for offset in (-1, 0, 1)
]


def _nested_line(size: int) -> bytes:
    """A valid record line of size bytes, nested as deep as that allows."""
    depth = (size - 6) // 2
    line = b'{"a":' + b"[" * depth + b"]" * depth + b"}"
    return line + b" " * (size - len(line))


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
    "int64_uint64_edges": b"".join(b'{"n":%d}\n' % n for n in _EDGE_INTS),
    "digit_run_in_string": b'{"s":"' + b"1234567890" * 3 + b'"}\n' + _OK,
    "float_out_of_range": b'{"t":1e400}\n{"t":-1e400}\n',
    "line_1023_bytes": _nested_line(1023) + b"\n" + _OK,
    "line_1024_bytes": _nested_line(1024) + b"\n" + _OK,
    "utf8_line_in_non_utf8_block": b'{"s":"caf\xe9"}\n'
    + '{"s":"caf\u00e9 \u2603"}\n'.encode()
    + _OK,
    "edge_ints_after_separators": b"".join(
        b'{"a": %d}\n{"b":[1,\t%d ]}\n{"c":[%d]}\n' % (n, n, n) for n in _EDGE_INTS
    ),
    "nanosecond_timestamp": b'{"sensor_id":"a","timestamp":1767225600123456789}\n',
    "split_mantissas": b"".join(b'{"v":%s}\n' % lit for lit in _HALFWAY),
    "guarded_lines_not_whole": b"\n".join(
        head + tail
        for head in (_OK[:-1] + _LONG_NOTE, b'{"n":%d}' % 2**64)
        for tail in (b"", b" ", b"\x00", b"]", b",1")
    )
    + b"\n "
    + _OK[:-1] + _LONG_NOTE
    + b"\n\xef\xbb\xbf"
    + _OK[:-1] + _LONG_NOTE
    + b'\n{"s":"\xed\xa0\x80","n":%d}' % 2**64
    + b'\n{"s":"\xff"' + _LONG_NOTE
    + b"\n[" + _OK + b"," + b"1" * 1200 + b"]\n",
    # Each line holding an integer past 2**64 is found from the block's mask
    # by counting the \n, \r and \r\n breaks before it.
    "digit_runs_across_line_breaks": b"".join(
        line + brk
        for line, brk in zip(
            [_OK, b'{"n":%d}' % 2**64, b"", _OK, b'{"a":%d,"b":[%d]}' % (2**64, -(2**63) - 1),
             b"", _OK, b'{"n":%d}' % 2**64, _OK, b'{"n":%d}' % 2**64],
            [b"\r\n", b"\r", b"\r\n", b"\n", b"\n", b"\r", b"\r\n", b"\r", b"\r", b""],
        )
    ),  # fmt: skip
    # A block grows until its line ends.
    "line_longer_than_a_block": _OK + b"\n" + _OK[:-1] + _LONG_NOTE * 9 + b"\n" + _OK,
    "cr_only": _OK + b"\r" + b'{"n":%d}' % 2**64 + b"\r\r" + _OK + b"\r",
    # With every line one byte longer than the last, some \r\n falls across
    # each edge of a read or block.
    "crlf_across_read_edges": b"".join(
        b'{"a":%s}\r\n' % (b"1" * k) for k in range(1, 30)
    ),
    "blank_only": b" \n\t\r\n\x0b\r  \n",
    # An integer past 2**64 on the line just before and just after a cut.
    "digit_run_at_a_cut": b"".join(
        _OK[: 1 + k] + b"\n" + b'{"n":%d}\n' % 2**64 for k in range(0, 70, 7)
    ),
    # Lines averaging over 1024 bytes, so the block is not masked whole.
    "long_lines_around_a_masked_line": b"\n".join(
        [_OK[:-1] + _LONG_NOTE * 3] * 2 + [b'{"n":%d}' % (-(2**63) - 1), _OK]
    ),
}


@pytest.mark.parametrize("block_bytes", [1, 2, 7, 64, 1 << 22])
@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_cases_match_oracle(name: str, block_bytes: int) -> None:
    _assert_same_as_oracle(NAMED[name], block_bytes)


# Lines of each kind the reader treats apart: plain, a 20-digit integer
# (orjson would make it a float), long, NaN, a BOM, invalid UTF-8, blank.
_DECODE_RULE_LINES = [
    _OK,
    b'{"sensor_id":"a","timestamp":60,"v":1.5,"ok":true,"none":null}',
    b'{"n":%d}' % 2**64,
    b'{"a":[1,\t%d ]}' % (-(2**63) - 1),
    b'{"s":"%d"}' % 2**64,
    _OK[:-1] + _LONG_NOTE,
    b'{"n":%d' % 2**64 + _LONG_NOTE,
    b'{"t":NaN,"u":-Infinity}',
    b"\xef\xbb\xbf" + _OK,
    b'{"s":"\xff\xfe"}',
    b'{"s":"\xff"' + _LONG_NOTE,
    b'{"s":"\xed\xa0\x80"}',
    b"[1]",
    b"{x",
    b"",
    b" \t",
]


@given(
    lines=st.lists(st.sampled_from(_DECODE_RULE_LINES), max_size=30),
    breaks=st.sampled_from([b"\n", b"\r\n"]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_records_at_decodes_as_iter_records(lines, breaks, data) -> None:
    source = breaks.join(lines)
    items = list(iter_records(source, "ndjson"))
    ordinals = sorted(data.draw(st.sets(st.integers(0, max(len(items) - 1, 0)))))
    ordinals = [i for i in ordinals if i < len(items)]
    # repr tells 1, 1.0 and True apart and compares NaN equal to itself.
    got = list(records_at(source, "ndjson", ordinals))
    assert repr(got) == repr([items[i] for i in ordinals])


def test_blocks_keep_lines_whole_and_indices_running() -> None:
    lines = [{"sensor_id": "a", "timestamp": i, "v": "x" * (i % 13)} for i in range(200)]
    source = ndjson_bytes(lines)
    for block_bytes in (1, 5, 33, 1000):
        assert list(_iter_ndjson(source, block_bytes)) == lines


def test_reader_holds_about_a_block() -> None:
    line = (
        b'{"sensor_id":"sensor-03","timestamp":1767225600,"pm25":12.5,'
        b'"temperature":21.5,"humidity":40.25,"status":"ok"}\n'
    )
    source = line * ((16 << 20) // len(line) + 1)
    tracemalloc.start()
    try:
        count = sum(1 for _ in iter_records(source, "ndjson"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == source.count(b"\n")
    # A block, its mask and its split lines: 3.4 MiB in 1 MiB blocks, and
    # 13.5 MiB in 4 MiB blocks, which this bound refuses.
    assert peak < 5 << 20, f"{peak / (1 << 20):.2f} MiB"


# Far deeper than the interpreter's recursion limit.
_DEEP = b"[" * 100_000


@pytest.mark.parametrize("block_bytes", [1, 7, 1 << 22])
def test_too_deeply_nested_line_is_a_malformed_record(block_bytes: int) -> None:
    source = _OK + b"\n" + _DEEP + b"\n" + b'{"a":' * 100_000 + b"\n" + _OK
    got = list(_iter_ndjson(source, block_bytes))
    assert [r is None for r in got] == [False, True, True, False]


_CLOSED_DEEP_SCRIPT = """
import json, sys
from iotdq.ingest import iter_records
from iotdq.model import AssessmentConfig
from iotdq.pipeline import assess
from iotdq.schema import parse_schema
from iotdq.synthgen import DEFAULT_SCHEMA

source = open(sys.argv[1], "rb").read()
lines = [r is None for r in iter_records(source, "ndjson")]
report = assess(source, parse_schema(DEFAULT_SCHEMA), AssessmentConfig())
print(json.dumps([lines, report.result("M3").denominator_count]))
"""


@pytest.mark.parametrize("depth", [100_000, 1_000_000])
def test_closed_too_deeply_nested_line_is_a_malformed_record(
    tmp_path, depth: int
) -> None:
    # Valid JSON far past json's recursion limit. orjson 3.8.3 decodes the
    # first depth to a dict and crashes the interpreter on the second; the
    # child process keeps a crash from taking pytest down with it.
    closed = b'{"a":' + b"[" * depth + b"]" * depth + b"}"
    records = [_rec(i) for i in range(5)]
    source = tmp_path / "deep.ndjson"
    source.write_bytes(
        ndjson_bytes(records[:2]) + closed + b"\n" + ndjson_bytes(records[2:])
    )
    child = subprocess.run(
        [sys.executable, "-c", _CLOSED_DEEP_SCRIPT, str(source)],
        capture_output=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(iotdq.__file__).parents[1])},
    )
    assert child.returncode == 0, child.stderr.decode(errors="replace")
    lines, m3_denominator = json.loads(child.stdout)
    assert lines == [False, False, True, False, False, False]
    assert m3_denominator == 5


def test_too_deeply_nested_line_in_a_non_utf8_block() -> None:
    source = b'{"s":"\xff"}\n' + _DEEP + b"\n"
    # Both lines are malformed: the first is not UTF-8, the second too deep.
    assert list(_iter_ndjson(source)) == [None, None]


def test_assess_counts_a_too_deeply_nested_line_as_malformed() -> None:
    records = [_rec(i) for i in range(5)]
    report = assess(ndjson_bytes(records) + _DEEP + b"\n", SCHEMA, AssessmentConfig())
    assert report.result("M3").denominator_count == 5


def test_too_deeply_nested_json_array_is_a_format_error() -> None:
    with pytest.raises(IngestFormatError, match="nested too deeply"):
        list(iter_records(b"[" + _DEEP + b"]", "json_array"))
    with pytest.raises(IngestFormatError, match="nested too deeply"):
        assess(b"[" + _DEEP + b"]", SCHEMA, AssessmentConfig(dataset_format="json_array"))


_TOKENS = [
    b"\n", b"\r", b"\r\n", b" ", b"\t", b"\x0b", b"\x0c", b"\x00",
    b"\xef\xbb\xbf", b"\xff", b"\xfe", b"\xed\xa0\x80", b"\xc2\x85",
    "\u2028".encode(), b"\x1c", b"{", b"}", b"[", b"]", b",", b":", b'"',
    b"\\", b"\\u", b"d800", b"1", b"-", b".5", b"e3", b"NaN", b"null",
    b'"a"', b'{"a":', b'"},{"', b"}\n{", _OK,
    # Past the reader's two guards: long lines, and integers of 20 digits or
    # of "-" and 19 digits.
    b"]" * 8, b"]" * 600, _nested_line(1100), b"9" * 19, b"1" * 20, b"1" * 25,
    b"18446744073709551616", b"-9223372036854775809", b"0.1234567890123456789",
    b"12345678901234567.12345678901234567", _LONG_NOTE,
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


@given(
    halfway=st.lists(
        st.tuples(
            st.floats(min_value=1e-4, max_value=1e21),
            st.integers(min_value=20, max_value=40),
            st.integers(min_value=-1, max_value=1),
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=300, deadline=None)
def test_split_mantissas_match_oracle(halfway) -> None:
    # Long significands split by the point, at and beside halfway points:
    # where a fast float parser would be likeliest to round otherwise.
    source = b"".join(b'{"v":%s}\n' % _split_mantissa(*h) for h in halfway)
    _assert_same_as_oracle(source, 1 << 22)


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


def test_full_checks_call_flags_for_once_per_signature(monkeypatch) -> None:
    calls = _count_flags_calls(monkeypatch)
    records = [_rec(i) for i in range(50)] + [_rec(50, pm25=900.0)]
    records += [_rec(51 + i, status="x") for i in range(5)]
    records += [_rec(56, temperature=-41.0, pm25=-0.5)]
    report = assess(
        ndjson_bytes(records), SCHEMA, AssessmentConfig(format_checks="full")
    )
    # One signature: its later records, out of range ones too, are memo hits
    # that run only the range checks.
    assert len(calls) == 1
    m6 = report.result("M6")
    assert m6.numerator_count == 2
    assert m6.evidence["by_attribute"] == {"pm25": 2, "temperature": 1}


# -- full checks on memo hits ----------------------------------------------

# Float bounds on pm25, a one-sided float bound on temperature, an integer
# bound on count and a pattern on status.
_PLAN_SCHEMA = parse_schema(
    {
        "properties": {
            "pm25": {"type": "number", "minimum": 0.0, "maximum": 500.0},
            "temperature": {"type": "number", "minimum": -40.5},
            "count": {"type": "integer", "maximum": 1000},
            "status": {"type": "string", "pattern": "^(ok|warn)$"},
            "note": {"type": "string"},
        },
        "required": ["pm25"],
    }
)
# JSON literals, in range and out of it. NaN, the infinities and the
# integers past 2**64 are read by the json.loads fallback.
_NUMBERS = [
    b"12.5", b"0", b"0.0", b"500.0", b"500.5", b"-0.5", b"-40.5", b"-41",
    b"NaN", b"Infinity", b"-Infinity", b"%d" % 2**64, b"%d" % -(2**64),
    b"%d" % 2**70, b"true", b"false", b"null", b'"5"',
]  # fmt: skip
_COUNTS = [b"3", b"1000", b"1001", b"-7", b"%d" % 2**64, b"2.0", b"true", b"null"]
_STATUSES = [b'"ok"', b'"warn"', b'"okay"', b'"nope"', b'""', b"null", b"1"]
_PLAN_ROWS = st.lists(
    st.tuples(
        st.sampled_from([b"a", b"b"]),
        st.integers(0, 5),
        st.sampled_from(_NUMBERS),
        st.sampled_from(_NUMBERS),
        st.sampled_from(_COUNTS),
        st.sampled_from(_STATUSES),
        st.booleans(),
    ),
    min_size=1,
    max_size=30,
)


def _plan_data(rows) -> bytes:
    """Each row as a record, then every row again ten minutes later: the
    second copies share their signatures with the first, so the memo hits
    carry every odd value."""
    lines = []
    for shift in (0, 600):
        for sensor, minute, pm25, temperature, count, status, debug in rows:
            line = b'{"sensor_id":"%s","timestamp":%d,"pm25":%s,"temperature":%s' % (
                sensor, 60 * minute + shift, pm25, temperature
            )
            line += b',"count":%s,"status":%s' % (count, status)
            lines.append(line + (b',"debug":1}' if debug else b"}"))
    return b"\n".join(lines) + b"\n"


@pytest.mark.parametrize("duplicate_key", ["id_timestamp", "full_packet"])
@given(rows=_PLAN_ROWS)
@settings(max_examples=150, deadline=None)
def test_full_checks_on_memo_hits_match_oracle(rows, duplicate_key: str) -> None:
    data = _plan_data(rows)
    config = AssessmentConfig(
        quantization_seconds=60.0, format_checks="full", duplicate_key=duplicate_key
    )
    report = assess(data, _PLAN_SCHEMA, config)
    assert_scores_match(report, reference_scores(data, _PLAN_SCHEMA, config, "ndjson"))
    # Each record's violations are those of its own full verdict.
    prepared = _PLAN_SCHEMA.prepared()
    per_attribute: dict = {}
    for record in iter_records(data, "ndjson"):
        attrs, _ = iotdq.pipeline._attributes(record, "timestamp", "sensor_id")
        detail = iotdq.pipeline._flags_for(attrs, prepared)
        faults = _value_faults(attrs, _value_plan(attrs, prepared))
        for name, kind in (*detail, *faults):
            if kind in FORMAT_KINDS:
                per_attribute[name] = per_attribute.get(name, 0) + 1
    assert report.result("M6").evidence["by_attribute"] == per_attribute


def _sensor_id_by_the_rule(raw) -> str:
    """A record's sensor id as every record's id is judged: bool and None
    refused, an int as its str, a str that is not blank as itself."""
    if isinstance(raw, bool) or raw is None:
        raise ValueError("missing sensor id")
    if isinstance(raw, int):
        return str(raw)
    if isinstance(raw, str) and raw.strip():
        return raw
    raise ValueError("sensor id must be a non-empty string or integer")


def _key_columns_by_the_rule(data: bytes) -> tuple:
    """The sensors, sensor column, timestamp column and malformed ordinals
    that a scan of data must give, every record's id judged in full."""
    sensors: dict[str, int] = {}
    sensor_col, ts_col, malformed = [], [], []
    for ordinal, line in enumerate(data.splitlines()):
        record = json.loads(line)
        try:
            timestamp = parse_timestamp(record["timestamp"])
            sensor_id = _sensor_id_by_the_rule(record.get("sensor_id"))
            iotdq.pipeline._attributes(record, "timestamp", "sensor_id")
        except (KeyError, ValueError):
            malformed.append(ordinal)
            continue
        sensor_col.append(sensors.setdefault(sensor_id, len(sensors)))
        ts_col.append(timestamp)
    return list(sensors), sensor_col, ts_col, malformed


_DROP = object()  # marks a field left out of the record
_SENSOR_IDS = st.one_of(
    st.sampled_from(
        [5, "5", -5, 2**70, True, False, None, "", " ", "\t\n", "a", " a ", 5.0,
         "sensor-01", "\u00df", "\u4f20\u611f", "\U0001f321", [1], ["a"], {"a": 1}, {}]
    ),
    st.text(max_size=3),
    st.integers(-10, 10),
)  # fmt: skip


@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.just(_DROP), _SENSOR_IDS),
            st.sampled_from([60, "2026-01-01T00:00:00Z", "never", _DROP]),
            st.booleans(),  # a list attribute, which makes the record malformed
        ),
        max_size=40,
    )
)
@settings(max_examples=300, deadline=None)
def test_scan_judges_sensor_ids_by_the_rule(rows) -> None:
    records = []
    for sensor_id, timestamp, listed in rows:
        record = {"sensor_id": sensor_id, "timestamp": timestamp, "pm25": 1.0}
        if listed:
            record["pm25"] = [1.0]
        records.append({k: v for k, v in record.items() if v is not _DROP})
    data = ndjson_bytes(records) if records else b""
    scan = iotdq.pipeline._scan(data, SCHEMA.prepared(), AssessmentConfig())
    want = _key_columns_by_the_rule(data)
    _rows, sensor_col, ts_col = record_order_columns(scan)
    got = scan.sensors, sensor_col, ts_col, malformed_ordinals(scan)
    assert got == want
    assert scan.total == len(want[1])


def test_scan_judges_sensor_ids_by_the_rule_on_named_cases() -> None:
    # An int id and its str share a sensor; an id first seen in a record
    # that fails a later check is not registered by it.
    records = [
        {"sensor_id": 5, "timestamp": 60},
        {"sensor_id": "5", "timestamp": 120},
        {"sensor_id": "b", "timestamp": 60, "pm25": [1.0]},
        {"sensor_id": " ", "timestamp": 60},
        {"sensor_id": "", "timestamp": 60},
        {"sensor_id": True, "timestamp": 60},
        {"sensor_id": None, "timestamp": 60},
        {"sensor_id": ["5"], "timestamp": 60},
        {"sensor_id": {"5": 5}, "timestamp": 60},
        {"sensor_id": "\u4f20\u611f", "timestamp": 60},
        {"sensor_id": "b", "timestamp": 60},
    ]
    data = ndjson_bytes(records)
    scan = iotdq.pipeline._scan(data, SCHEMA.prepared(), AssessmentConfig())
    assert scan.sensors == ["5", "\u4f20\u611f", "b"]
    _rows, sensor_col, ts_col = record_order_columns(scan)
    assert sensor_col == [0, 0, 1, 2]
    assert ts_col == [60_000, 120_000, 60_000, 60_000]
    assert [list(rows) for rows in scan.rows] == [[0, 1], [9], [10]]
    assert scan.malformed == 7
    assert malformed_ordinals(scan) == [2, 3, 4, 5, 6, 7, 8]


# Lines the scan counts as malformed: blank lines are no items at all.
_JUNK_LINES = [
    b"",
    b" \t",
    b"{x",
    b"[1]",
    b'{"sensor_id":"a"}',
    b'{"timestamp":1,"sensor_id":true}',
]


@given(
    rows=_PLAN_ROWS,
    junk=st.lists(
        st.tuples(st.integers(0, 60), st.sampled_from(_JUNK_LINES)), max_size=8
    ),
    crlf=st.booleans(),
    cores=st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_tied_row_digests_match_flattened_attributes(rows, junk, crlf, cores) -> None:
    lines = _plan_data(rows).splitlines()
    for at, line in junk:
        lines.insert(at, line)
    data = (b"\r\n" if crlf else b"\n").join(lines)
    config = AssessmentConfig(format_checks="full", duplicate_key="full_packet")
    # The blocks a forked fold would scan, each scanned here.
    with mock.patch.object(iotdq.pipeline, "_BLOCK_MIN_BYTES", 1), mock.patch.object(
        os, "sched_getaffinity", lambda _pid: set(range(cores)), create=True
    ):
        cuts = iotdq.pipeline._cuts(_in_memory(data), "ndjson")
    blocks = [_in_memory(data)._replace(start=start, stop=stop) for start, stop in cuts]
    scans = [iotdq.pipeline._scan(b, _PLAN_SCHEMA.prepared(), config) for b in blocks]
    items = list(iter_records(data, "ndjson"))
    # Each valid record's item ordinal, which numbers it as a row.
    ordinals = [
        ordinal
        for ordinal, record in enumerate(items)
        if record and "timestamp" in record and isinstance(record["sensor_id"], str)
    ]
    valid = [items[ordinal] for ordinal in ordinals]
    keys = [(r["sensor_id"], parse_timestamp(r["timestamp"])) for r in valid]
    assert sum(scan.total for scan in scans) == len(valid) == 2 * len(rows)
    assert sum(scan.total + scan.malformed for scan in scans) == len(items)
    tied = [row for row, key in enumerate(keys) if keys.count(key) > 1]
    # Asked for out of record order, as the merge asks by (sensor, timestamp).
    tied.sort(key=lambda row: (keys[row], -row))
    sensor_ids = [keys[row][0] for row in tied]
    timestamps = [keys[row][1] for row in tied]
    got = iotdq.pipeline._digests(
        np.array([ordinals[row] for row in tied], dtype=np.intp),
        sensor_ids,
        timestamps,
        scans,
        blocks,
        config,
    )
    attributes = [
        iotdq.pipeline._attributes(record, "timestamp", "sensor_id")[0]
        for record in valid
    ]
    want = [packet_key_fields(*keys[row], attributes[row]) for row in tied]
    assert got.tobytes() == b"".join(want)
