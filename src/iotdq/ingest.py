"""Dataset ingestion: NDJSON, CSV, and JSON-array sources to records.

Timestamps are normalized to integer epoch milliseconds. Numeric values
below 1e11 are read as epoch seconds (fractions allowed), larger ones as
epoch milliseconds; strings are parsed as RFC 3339 / ISO 8601, naive
times taken as UTC.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import re
from datetime import datetime, timezone
from typing import Any, Iterator, Mapping

from .errors import IngestFormatError

__all__ = ["parse_timestamp", "iter_records"]

_EPOCH_MS_FLOOR = 1e11  # numeric timestamps at or above this are milliseconds
_EPOCH_MS_FLOOR_INT = int(_EPOCH_MS_FLOOR)
_EXACT_INT = 1 << 53  # integers below this magnitude are exact as floats
_INT64 = 1 << 63  # timestamps are kept as int64 milliseconds
_BLOCK_BYTES = 4 << 20  # NDJSON decode unit; each block ends after a newline
_BLANK = " \t\n\r\x0b\x0c"  # the whitespace bytes.strip() removes
_scan_once = json.JSONDecoder().scan_once
_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_MISSING = object()


def parse_timestamp(value: Any) -> int:
    """Normalize a record timestamp to integer epoch milliseconds."""
    if type(value) is int and -_EXACT_INT < value < _EXACT_INT:
        # Exactly what the float arithmetic below gives in this range.
        if value >= _EPOCH_MS_FLOOR_INT or value <= -_EPOCH_MS_FLOOR_INT:
            return value
        return value * 1000
    if isinstance(value, bool):
        raise ValueError("boolean is not a timestamp")
    if isinstance(value, (int, float)):
        try:
            v = float(value)
        except OverflowError as exc:
            raise ValueError("timestamp out of range") from exc
        if v != v or v in (float("inf"), float("-inf")):
            raise ValueError("non-finite timestamp")
        if abs(v) >= _EPOCH_MS_FLOOR:
            ms = int(round(v))
        else:
            ms = int(round(v * 1000.0))
        if not -_INT64 <= ms < _INT64:
            raise ValueError("timestamp out of range")
        return ms
    if isinstance(value, str):
        text = value.strip()
        if not text:
            raise ValueError("empty timestamp")
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        try:
            dt = datetime.fromisoformat(text)
        except ValueError as exc:
            raise ValueError(f"unparseable timestamp {value!r}") from exc
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(round(dt.timestamp() * 1000.0))
    raise ValueError(f"unsupported timestamp type {type(value).__name__}")


def _coerce_csv_value(text: str) -> Any:
    if text == "":
        return None
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if _INT_RE.match(text):
        return int(text)
    if _FLOAT_RE.match(text):
        return float(text)
    return text


def _ndjson_line(line: bytes) -> tuple["dict | None", "str | None"]:
    """(record, error_reason) of one NDJSON line; the reference parse."""
    try:
        record = json.loads(line)
    except ValueError as exc:
        return None, f"invalid JSON: {exc}"
    except RecursionError:
        return None, "invalid JSON: nesting too deep"
    if isinstance(record, dict):
        return record, None
    return None, "record is not a JSON object"


def _iter_ndjson(
    source: bytes, block_bytes: int = _BLOCK_BYTES
) -> Iterator[tuple[int, "dict | None", "str | None"]]:
    """NDJSON records as (index, record, reason), decoded block by block.

    Lines split as bytes.splitlines() does (on \\n, \\r and \\r\\n only).
    Each block is decoded once and its lines are scanned directly; a line
    the scanner does not consume whole (whitespace, a BOM, another
    encoding, bad JSON) and every line of a block that is not UTF-8 goes
    through _ndjson_line, so results and error reasons are those of
    json.loads on the line's bytes.
    """
    scan = _scan_once
    index = 0
    start = 0
    size = len(source)
    while start < size:
        cut = source.find(b"\n", start + block_bytes - 1) + 1 or size
        block = source[start:cut]
        start = cut
        try:
            text = block.decode("utf-8", "surrogatepass")
        except UnicodeDecodeError:
            for raw in block.splitlines():
                if raw.strip():
                    yield (index, *_ndjson_line(raw))
                    index += 1
            continue
        # "\r\n" becomes an empty line, which is skipped like any blank one.
        for line in text.replace("\r", "\n").split("\n"):
            if not line.strip(_BLANK):
                continue
            try:
                record, end = scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end == len(line) and type(record) is dict:
                yield index, record, None
            else:
                yield (index, *_ndjson_line(line.encode("utf-8", "surrogatepass")))
            index += 1


def iter_records(
    source: bytes, format: str
) -> Iterator[tuple[int, "Mapping[str, Any] | None", "str | None"]]:
    """Yield (record_index, record, error_reason) triples from raw bytes.

    Exactly one of record / error_reason is set per yielded item. Record
    indices are positions in the record sequence (blank NDJSON lines are
    skipped without consuming an index).
    """
    if format == "ndjson":
        yield from _iter_ndjson(source)
        return
    if format == "csv":
        try:
            text = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IngestFormatError(f"CSV source is not UTF-8: {exc}") from exc
        reader = csv.DictReader(
            io.StringIO(text, newline=""), restkey=None, restval=_MISSING
        )
        try:
            if reader.fieldnames is None:
                return
        except csv.Error as exc:
            raise IngestFormatError(f"CSV header is unreadable: {exc}") from exc
        for index in itertools.count():
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                # A field over the size limit, say; reading resumes at the next row.
                yield index, None, f"unreadable CSV row: {exc}"
                continue
            if None in row:
                yield index, None, "row has more fields than the header"
                continue
            record = {
                k: _coerce_csv_value(v) for k, v in row.items() if v is not _MISSING
            }
            yield index, record, None
    if format == "json_array":
        try:
            doc = json.loads(source)
        except ValueError as exc:
            raise IngestFormatError(f"source is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise IngestFormatError("source JSON is nested too deeply") from exc
        if not isinstance(doc, list):
            raise IngestFormatError("JSON source must be an array of objects")
        for index, record in enumerate(doc):
            if isinstance(record, dict):
                yield index, record, None
            else:
                yield index, None, "record is not a JSON object"
        return
    raise IngestFormatError(f"unknown dataset format: {format!r}")

