"""Dataset ingestion: NDJSON, CSV, and JSON-array sources to records.

NDJSON lines are decoded with orjson, one line's bytes at a time; a line
orjson cannot be trusted with is read by the standard library's scanner
and, failing that, by json.loads, so every record is what json.loads
gives on that line. NDJSON is read a block at a time through one reader
of offsets, _Source: a slice of bytes in memory, or os.pread of an open
file. CSV and JSON arrays are read whole with the standard library. A
malformed record is yielded as None: nothing reads why it failed.

_open_dataset is the only code that opens a dataset file. A regular file
becomes an os.pread _Source, and its identity (device, inode, size and
modification time) is checked again when the caller is done with it, so
a file that changed while it was read raises IngestFormatError. Any other
file (a FIFO, /dev/stdin from a pipe) is read whole into memory.

records_at reads chosen records again: it walks the same items as
iter_records (each format's item walk is shared: _ndjson_blocks and
_nonblank, _csv_items, the JSON array's elements) and decodes only the
items at the ordinals asked for, NDJSON lines with _ndjson_record: the
reader's own rule, applied to one line alone.

Timestamps are normalized to integer epoch milliseconds. Numeric values
below 1e11 are read as epoch seconds (fractions allowed), larger ones as
epoch milliseconds; strings are parsed as RFC 3339 / ISO 8601, naive
times taken as UTC.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import stat
from datetime import datetime, timezone
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import IngestFormatError, load_json

__all__ = ["parse_timestamp", "iter_records", "records_at"]

_EPOCH_MS_FLOOR = 1e11  # numeric timestamps at or above this are milliseconds
_EPOCH_MS_FLOOR_INT = int(_EPOCH_MS_FLOOR)
_EXACT_INT = 1 << 53  # integers below this magnitude are exact as floats
_INT64 = 1 << 63  # timestamps are kept as int64 milliseconds
# NDJSON is read, masked and split in blocks of this size, each ending after
# a newline. A block, its mask and its split lines are what the reader
# holds; a 500k-record scan took as long in 4, 2, 1 and 0.5 MiB blocks.
_BLOCK_BYTES = 1 << 20
_PROBE_BYTES = 4 << 10  # first read when looking for the end of a line
_FILE_CHANGED = "dataset file changed while it was assessed"
# Valid JSON nested d deep takes at least 2d bytes, so a shorter line stays
# far below the depth at which json.loads raises RecursionError. orjson 3.8
# decodes a closed line 100,000 deep that json.loads refuses, and crashes
# the interpreter on one 1,000,000 deep.
_TRUSTED_LINE_BYTES = 1024
# orjson turns an integer below -2**63 or from 2**64 on into a float. Such a
# literal is "-" and 19 digits, or 20 digits, and in valid JSON it follows
# ":", "," or "[" and perhaps spaces or tabs. The mask maps digits and "-"
# to b"0" and those bytes to b":", so the literal shows as _DIGIT_RUN while
# digits just after a quote, inside a string, do not.
_NUMBER_MASK = bytes.maketrans(b"-123456789:,[ \t", b"0" * 10 + b":" * 5)
_DIGIT_RUN = b":" + b"0" * 20
_scan_once = json.JSONDecoder().scan_once
_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


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


class _Source(NamedTuple):
    """Bytes start to stop of a dataset, got through read(start, stop): a
    slice of bytes in memory, or os.pread of an open file."""

    read: Callable[[int, int], bytes]
    start: int
    stop: int


def _in_memory(data: bytes) -> _Source:
    return _Source(lambda start, stop: data[start:stop], 0, len(data))


def _in_file(fd: int, size: int) -> _Source:
    """The first size bytes of the file open at fd, read with os.pread,
    which leaves the fd's offset alone, so forked workers can share the fd.
    A read raises IngestFormatError when the file ends before size."""

    def read(start: int, stop: int) -> bytes:
        parts = []
        while start < stop:
            data = os.pread(fd, stop - start, start)
            if not data:
                raise IngestFormatError(_FILE_CHANGED)
            parts.append(data)
            start += len(data)
        return b"".join(parts)  # no copy when one read got it all

    return _Source(read, 0, size)


def _identity(st: os.stat_result) -> tuple[int, ...]:
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


@contextlib.contextmanager
def _open_dataset(path: str) -> Iterator[_Source]:
    """The dataset file at path as a _Source, open for the with block.

    A regular file is read with os.pread (see _in_file) and never whole;
    on leaving the block without an exception, IngestFormatError is
    raised if the file's identity changed since it was opened. Any other
    file is read whole here.
    """
    with open(path, "rb") as fh:
        before = os.fstat(fh.fileno())
        if not stat.S_ISREG(before.st_mode):
            yield _in_memory(fh.read())
            return
        yield _in_file(fh.fileno(), before.st_size)
        if _identity(os.fstat(fh.fileno())) != _identity(before):
            raise IngestFormatError(_FILE_CHANGED)


def _line_end(source: _Source, at: int) -> int:
    """The offset just past source's first newline at or after at, or
    source.stop if there is none. Each read doubles, so a long line takes
    few reads."""
    probe = _PROBE_BYTES
    while at < source.stop:
        chunk = source.read(at, min(at + probe, source.stop))
        found = chunk.find(b"\n")
        if found >= 0:
            return at + found + 1
        at += len(chunk)
        probe *= 2
    return source.stop


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


def _ndjson_line(line: bytes) -> "dict | None":
    """The record of one NDJSON line, or None; the reference parse."""
    try:
        record = json.loads(line)
    except (ValueError, RecursionError):
        return None
    return record if isinstance(record, dict) else None


def _scanned_line(line: bytes) -> "dict | None":
    """The record of a non-blank line that orjson is not trusted with: the
    standard library's scanner reads it decoded from UTF-8, and a line the
    scanner does not turn whole into a dict goes to _ndjson_line."""
    try:
        text = line.decode("utf-8", "surrogatepass")
        record, end = _scan_once(text, 0)
        if end == len(text) and type(record) is dict:
            return record
    except (StopIteration, ValueError, RecursionError):
        pass
    return _ndjson_line(line)


def _ndjson_record(line: bytes) -> "dict | None":
    """The record of one non-blank NDJSON line, or None, decoded by the
    rule of _iter_ndjson with the line judged alone: orjson reads it if it
    is shorter than _TRUSTED_LINE_BYTES and its _NUMBER_MASK holds no
    _DIGIT_RUN, and _scanned_line otherwise."""
    if len(line) >= _TRUSTED_LINE_BYTES or _DIGIT_RUN in line.translate(_NUMBER_MASK):
        return _scanned_line(line)
    import orjson  # loaded by the first NDJSON read; see _iter_ndjson

    try:
        record = orjson.loads(line)
    except orjson.JSONDecodeError:
        record = None
    return record if type(record) is dict else _ndjson_line(line)


def _lines_holding_digit_run(masked: bytes, count: int, at: int) -> Iterator[bool]:
    """Whether each of the count lines of masked, split as bytes.splitlines()
    splits them, holds _DIGIT_RUN, whose first match is at offset at.

    The mask leaves \r and \n alone, so these are the lines of the block
    it masks; each match's line is found by counting line breaks, and no
    line is split out or masked again.
    """
    guarded = [False] * count
    crlf = b"\r" in masked
    line = start = 0
    while at >= 0:
        # A match starts with b":", so no \r\n pair straddles start or at.
        line += masked.count(b"\n", start, at)
        if crlf:
            line += masked.count(b"\r", start, at) - masked.count(b"\r\n", start, at)
        guarded[line] = True
        start = at
        at = masked.find(_DIGIT_RUN, at + 1)
    return iter(guarded)


# Every NDJSON line but a blank one (ASCII whitespace only, all of which
# bytes.strip removes) is an item: a record, or None.
_nonblank = bytes.strip


def _ndjson_blocks(source: _Source, block_bytes: int) -> Iterator[tuple[int, int]]:
    """(start, stop) of each block of NDJSON source, in order. A block holds
    at least block_bytes and is cut just after a newline: a line longer than
    a block grows its block until the line ends. Its lines are split as
    bytes.splitlines() splits them (on \\n, \\r and \\r\\n only), so no
    line or \\r\\n pair straddles a cut."""
    start = source.start
    while start < source.stop:
        stop = _line_end(source, start + block_bytes - 1)
        yield start, stop
        start = stop


def _iter_ndjson(
    source: "bytes | _Source", block_bytes: int = _BLOCK_BYTES
) -> Iterator["dict | None"]:
    """NDJSON records, or None for a malformed one, each line decoded by orjson.

    The items are the lines of the blocks of _ndjson_blocks that are not
    blank (see _nonblank). A line that is _TRUSTED_LINE_BYTES or longer, or
    whose _NUMBER_MASK holds _DIGIT_RUN, is decoded from UTF-8 and read by
    the standard library's scanner instead of orjson. A line neither reader
    turns whole into a dict (one orjson raises on, whitespace orjson
    rejects, a BOM, another encoding, invalid UTF-8, NaN, bad JSON) goes to
    _ndjson_line. So every record, and every None, is what json.loads gives
    on the line's bytes: _ndjson_line over every item gives the same
    records, only slower. No more than a block of the source is held at
    once. A block is masked whole, and the lines holding its matches of
    _DIGIT_RUN are found in that mask, so no line is masked twice; a block
    whose lines average _TRUSTED_LINE_BYTES or more, which skip orjson
    anyway, is not masked whole: each of its lines goes to _ndjson_record,
    which masks only the shorter ones.
    """
    # Imported here: a fresh process takes about 10 ms to load orjson (with
    # uuid, zoneinfo and sysconfig), which only NDJSON reading needs.
    import orjson

    loads = orjson.loads
    decode_error = orjson.JSONDecodeError
    if not isinstance(source, _Source):
        source = _in_memory(source)
    for start, stop in _ndjson_blocks(source, block_bytes):
        block = source.read(start, stop)
        lines = block.splitlines()
        if len(lines) * _TRUSTED_LINE_BYTES <= len(block):
            # Lines that average _TRUSTED_LINE_BYTES or more skip orjson
            # anyway, so the block is not masked: each line is judged alone.
            yield from map(_ndjson_record, filter(_nonblank, lines))
        else:
            masked = block.translate(_NUMBER_MASK)
            at = masked.find(_DIGIT_RUN)
            guarded = None  # per line: whether it skips orjson
            if at >= 0:
                guarded = _lines_holding_digit_run(masked, len(lines), at)
            del masked
            for line in lines:
                if not (guarded and next(guarded)) and len(line) < _TRUSTED_LINE_BYTES:
                    try:
                        record = loads(line)
                    except decode_error:
                        record = None
                    if type(record) is dict:
                        yield record
                    elif _nonblank(line):
                        yield _ndjson_line(line)
                elif _nonblank(line):
                    yield _scanned_line(line)
        del lines  # not held beside the next block's


def _csv_items(
    data: bytes,
) -> tuple[Iterator["list[str] | None"], Callable[[Any], "dict | None"]]:
    """The items of CSV data, and what decodes an item to its record or None.

    The first row that is not blank is the header. An item is each later
    row that is not blank, or None for one csv.reader cannot read. A row
    longer than the header is malformed; a short row lacks its absent
    fields.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestFormatError(f"CSV source is not UTF-8: {exc}") from exc
    rows = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(rows, None)
        while header == []:  # blank lines before it, skipped as blank rows are
            header = next(rows, None)
    except csv.Error as exc:
        raise IngestFormatError(f"CSV header is unreadable: {exc}") from exc

    def items() -> Iterator["list[str] | None"]:
        if header is None:
            return
        while True:
            try:
                row = next(rows)
            except StopIteration:
                return
            except csv.Error:
                # A field over the size limit, say; reading resumes at the next row.
                row = None
            if row != []:  # a blank line is []
                yield row

    def decode(row: "list[str] | None") -> "dict | None":
        if row is None or len(row) > len(header):
            return None
        record = {k: _coerce_csv_value(v) for k, v in zip(header, row)}
        # A short row lacks every name of its absent fields, even one that a
        # present field repeats.
        for key in header[len(row) :]:
            record.pop(key, None)
        return record

    return items(), decode


def _items(
    source: _Source, format: str
) -> tuple[Iterator[Any], Callable[[Any], "dict | None"]]:
    """The items of source in order, one per record, and what decodes an
    item to its record, or None if malformed.

    The items are the non-blank NDJSON lines, read a block at a time and
    decoded by _ndjson_record; the items of _csv_items; and the JSON array's
    elements, an element that is not an object being malformed. CSV and
    JSON arrays are read and parsed whole here.
    """
    if format == "ndjson":
        blocks = _ndjson_blocks(source, _BLOCK_BYTES)
        items = (filter(_nonblank, source.read(*b).splitlines()) for b in blocks)
        return chain.from_iterable(items), _ndjson_record
    data = source.read(source.start, source.stop)
    if format == "csv":
        return _csv_items(data)
    if format == "json_array":
        elements = load_json(data, IngestFormatError, "source", list)
        return iter(elements), lambda item: item if isinstance(item, dict) else None
    raise IngestFormatError(f"unknown dataset format: {format!r}")


def iter_records(
    source: "bytes | _Source", format: str
) -> Iterator["Mapping[str, Any] | None"]:
    """Yield one item per record of raw bytes: the record, or None if malformed.

    Records are the non-blank NDJSON lines, the CSV rows and the JSON
    array's elements, in order. NDJSON is read a block at a time; CSV and
    JSON arrays are decoded whole.
    """
    if not isinstance(source, _Source):
        source = _in_memory(source)
    if format == "ndjson":
        yield from _iter_ndjson(source)
        return
    items, decode = _items(source, format)
    yield from map(decode, items)


def records_at(
    source: "bytes | _Source", format: str, ordinals: Iterable[int]
) -> Iterator["Mapping[str, Any] | None"]:
    """Yield the items of iter_records(source, format) at ordinals, which
    ascend strictly and count those items from 0.

    Only the wanted items are decoded, each as iter_records decodes it;
    the source is walked once, as far as the last of them (NDJSON a block
    at a time). Raises IngestFormatError for an ordinal past the last item.
    """
    if not isinstance(source, _Source):
        source = _in_memory(source)
    items, decode = _items(source, format)
    at = 0
    for ordinal in ordinals:
        try:
            item = next(islice(items, ordinal - at, None))
        except StopIteration:
            raise IngestFormatError(f"source has no record {ordinal}") from None
        at = ordinal + 1
        yield decode(item)
