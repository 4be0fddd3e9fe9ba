"""CSV reader: csv.reader rows zipped with the header row.

The reader must yield exactly what the csv.DictReader reader it replaced
yields (kept below as _oracle), None for each malformed row included, and
raise the same IngestFormatError for an unreadable source or header;
records_at must give the same record at each ordinal.
"""

from __future__ import annotations

import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotdq.errors import IngestFormatError
from iotdq.ingest import _coerce_csv_value, iter_records, records_at

_MISSING = object()


def _oracle(source: bytes):
    """The csv.DictReader reader: a short row's absent fields are dropped
    through a restval sentinel, a long row is caught by its restkey, and
    the header is the first row that is not blank."""
    try:
        text = source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestFormatError(f"CSV source is not UTF-8: {exc}") from exc
    reader = csv.DictReader(
        io.StringIO(text, newline=""), restkey=None, restval=_MISSING
    )
    try:
        # Blank lines before the header are skipped, as blank rows are.
        header = next(reader.reader, None)
        while header == []:
            header = next(reader.reader, None)
    except csv.Error as exc:
        raise IngestFormatError(f"CSV header is unreadable: {exc}") from exc
    if header is None:
        return
    reader.fieldnames = header
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error:
            yield None
            continue
        if None in row:
            yield None
            continue
        yield {k: _coerce_csv_value(v) for k, v in row.items() if v is not _MISSING}


def _outcome(read, source: bytes) -> tuple[str, "str | None"]:
    """repr of the items read before any IngestFormatError, and its text."""
    items: list = []
    try:
        for item in read(source):
            items.append(item)
    except IngestFormatError as exc:
        return repr(items), str(exc)
    return repr(items), None


def _assert_same_as_oracle(source: bytes) -> None:
    # repr tells 1, 1.0 and True apart and shows the order of the keys.
    want = _outcome(_oracle, source)
    assert _outcome(lambda s: iter_records(s, "csv"), source) == want
    # records_at gives the same record at each ordinal, skipping the others.
    records = [] if want[1] else list(iter_records(source, "csv"))
    count = len(records)
    for ordinals in (range(count), range(0, count, 2), range(1, count, 2)):
        got = _outcome(lambda s: records_at(s, "csv", ordinals), source)
        assert got == (repr([records[i] for i in ordinals]), want[1])


_OVER_LIMIT = "x" * (csv.field_size_limit() + 1)

NAMED = {
    "empty": b"",
    "header_only": b"a,b\r\n",
    "blank_lines_everywhere": b"\n\r\n\ra,b\n\n1,2\r\n\r\n\r3,4\n\n",
    "blank_lines_before_the_header": b"\n\r\n\ra,b\n1,2\n\n",
    "short_rows": b"a,b,c\n1\n1,2\n,\n",
    "long_rows": b"a,b\n1,2,3\n1,2,\n4,5\n",
    "repeated_header_short_row": b"a,b,a\n1,2\n1,2,3\n1\n",
    "repeated_header_names": b"a,a,a\nx,y,z\nx,y\n",
    "empty_header_names": b",,\n1,2,3\n1\n,\n",
    "quoted_newlines": b'a,b\n"1\n2","x\r\ny"\n"12\n","1.5\n"\n',
    "quoted_quotes_and_commas": b'a,b\n"x,""y""",z\n"",""""\n',
    "crlf_and_lone_cr": b"a,b\r\n1,2\r3,4\r\n\r5,6",
    "open_quote_at_end": b'a,b\n1,"open',
    "quote_mid_field": b'a,b\nx"y,1\n"x"y,2\n',
    "booleans_and_numbers": b"a,b,c\nTRUE,False,-0\n+1,.5,1e3\n1.,nan,inf\n",
    "iso_timestamp": b"id,ts\na,2026-01-01T00:00:00Z\n",
    "nul_and_separators": "a,b\n\x00,\x1c \n\u0085,\x0b\x0c\n".encode(),
    "bom": b"\xef\xbb\xbfa,b\n1,2\n",
    "not_utf8": b"a,b\n\xff,1\n",
    "field_over_limit": ("a,b\n1," + _OVER_LIMIT + "\n2,3\n").encode(),
    "quoted_field_over_limit": ('a,b\n1,"' + _OVER_LIMIT + '"\n2,3\n').encode(),
    "header_over_limit": ("a," + _OVER_LIMIT + "\n1,2\n").encode(),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_cases_match_oracle(name: str) -> None:
    _assert_same_as_oracle(NAMED[name])


def test_repeated_header_short_row_drops_the_repeated_name() -> None:
    # The absent third field is named a, so a is absent, though the first
    # field, also named a, is present.
    assert list(iter_records(b"a,b,a\n1,2\n", "csv")) == [{"b": 2}]


def test_blank_rows_are_skipped() -> None:
    assert list(iter_records(b"a\n1\n\n\r\n2\n", "csv")) == [{"a": 1}, {"a": 2}]


def test_blank_lines_before_the_header_are_skipped() -> None:
    assert list(iter_records(b"\na,b\n1,2\n\n", "csv")) == [{"a": 1, "b": 2}]
    assert list(iter_records(b"\r\n\r\n", "csv")) == []


_CELLS = [
    "", "a", "b", "id", "ts", "1", "12", "-3", "1.5", ".5", "1e3", "TRUE",
    "false", "x y", " ", "\x00", "\u00e9", "\u00a0", '"', '""', '"a,b"', '"12\n"',
    '"1.5\n"', '"x\r\ny"', '"q""q"', 'a"b', '"open', _OVER_LIMIT,
    '"' + _OVER_LIMIT + '"',
]  # fmt: skip
_ENDS = ["\n", "\r", "\r\n", ""]
_row = st.builds(
    lambda cells, end: ",".join(cells) + end,
    st.lists(st.sampled_from(_CELLS), max_size=5),
    st.sampled_from(_ENDS),
)
_soup = st.lists(
    st.one_of(_row, st.sampled_from(_ENDS + _CELLS + [","])),
    max_size=12,
).map(lambda parts: "".join(parts).encode("utf-8"))


@given(source=_soup | st.binary(max_size=24))
@settings(max_examples=500, deadline=None)
def test_soup_matches_oracle(source: bytes) -> None:
    _assert_same_as_oracle(source)
