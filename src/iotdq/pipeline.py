"""End-to-end assessment of a dataset, in bytes or in a file.

_fold reads the records and leaves what scoring needs: violation counts,
per-sensor duplicate counts and each sensor's sorted deduplicated
timestamps. assess() then runs the IAT metrics on the per-sensor gaps
and assembles the report; sensor_iats() returns those gaps alone, for
the histogram command. The fold is the only scoring code: it
materializes no packet objects, which keeps million-record datasets
inside a tight time and memory envelope. It also takes the fingerprint,
through its meanwhile callback.

The fold has two parts. _scan walks the records of one block in order:
per-record normalisation and schema flags, per-sensor key columns (the
rows of each sensor and their timestamps, 12 bytes a row) and the item
ordinal of each malformed record. _merge walks the sensors in
first-appearance order; each sensor's timestamps are gathered from the
blocks' scans in block order, so in record order, and sorted on their
own, stably, which keeps the first occurrence in record order and yields
the sensor's sorted timestamps. Its rows are gathered only when a
timestamp repeats, and its columns are dropped from the scans once it is
merged. So the merge needs no order over all rows: beside the scans'
columns, which shrink as it goes, it holds the kept timestamps (8 bytes
a kept row) and one sensor's temporaries. (A row is numbered within its
block as a uint32, so a block holds fewer than 2**32 rows.) _score then
takes each sensor's IATs when it reaches that sensor. Under the
full_packet duplicate key, equal packets can only lie in a run of equal
(sensor, timestamp), so only the rows of such runs are digested with
packet_key_fields, all at once, and each run is then sorted by digest.
Those rows are read again in this process once the scans are joined:
records_at walks each of their blocks once more, as iter_records walked
it, and decodes only their records. A row whose (sensor, timestamp) is
unique costs no digest and no second decode. A large NDJSON source is
cut at newlines into one block per usable core, and every block but the
first is scanned in a forked worker process; any other source is one
block. Each process reads only its own block, through ingest's one
reader of offsets: a slice of bytes in memory, or os.pread of a file
opened by ingest._open_dataset, so that assess_file and sensor_iats
never hold a regular NDJSON file whole.

Records arrive from ingest.iter_records, which decodes NDJSON lines with
orjson (the C scanner or json.loads where orjson cannot be trusted).
M4-M6 come from one Counter of (metric, None) per violating record and
(metric, attribute) per violation. A record's missing, unknown, null and
type violations depend only on its keys and value types, so the scan
judges them once per such signature with _flags_for and keeps their
counter keys, together with the signature's plan of value checks: under
format_checks="full", one (name, lo, hi, pattern) per type-correct
attribute that declares a bound or a pattern; under "types_only", none.
Every record of a seen signature runs only that plan, and builds no
attribute dict. Records with nested values are never memoised and are
judged one by one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import os
import pickle
import signal
from array import array
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Any, BinaryIO, Callable, NamedTuple, NoReturn

import numpy as np

from . import _kernels
from .errors import DatasetRejectedError, DegenerateIatError, IngestFormatError
from .ingest import (
    _FILE_CHANGED,
    _in_memory,
    _line_end,
    _open_dataset,
    _Source,
    iter_records,
    parse_timestamp,
    records_at,
)
from .metrics_iat import (
    EVIDENCE_CAP,
    estimate_mode,
    m1_from_sums,
    packet_key_fields,
    quantize,
    z_scores,
)
from .model import AssessmentConfig, MetricResult, QualityReport
from .report import aggregate
from .schema import (
    METRIC_OF_KIND,
    SchemaDocument,
    _flags_for,
    _value_faults,
    _value_plan,
)

__all__ = ["assess", "assess_file", "sensor_iats"]

logger = logging.getLogger(__name__)

_MEMO_CAP = 1 << 12  # distinct record signatures whose counter keys are kept
# NDJSON is scanned in blocks of at least this size, one per usable core.
# On a 2-core VM a 2 MiB source took 75 ms in one process and 94 ms in
# two, 3 MiB broke even, and 4 MiB took 132 ms in two against 209 ms in one.
_BLOCK_MIN_BYTES = 2 << 20
_HASH_BYTES = 1 << 20  # read size of a file's fingerprint
# What the scan calls, as bound at import; see _fold.
_SCAN_CALLS = (iter_records, parse_timestamp, _flags_for)
_NO_SCHEMA = SchemaDocument(attributes={}, mandatory=frozenset())


def _attributes(
    record: dict[str, Any], ts_field: str, sid_field: str
) -> tuple[dict[str, Any], bool]:
    """A record's attributes, nested objects flattened to dotted paths, and
    whether any value was nested. Raises ValueError on a list value."""
    attrs: dict[str, Any] = {}
    nested = False
    stack: list[tuple[str, dict[str, Any]]] = [("", record)]
    while stack:
        prefix, mapping = stack.pop()
        for key, value in mapping.items():
            if not prefix and (key == ts_field or key == sid_field):
                continue
            tv = type(value)
            if tv is dict:
                stack.append((f"{prefix}{key}.", value))
                nested = True
            elif tv is list or tv is tuple:
                raise ValueError(f"attribute {prefix + key!r} has a non-scalar value")
            else:
                attrs[prefix + key] = value
    return attrs, nested


def _hits(detail: tuple[tuple[str, str], ...]) -> tuple:
    """The violation counter keys of one record's _flags_for detail."""
    if not detail:
        return ()
    pairs = [(METRIC_OF_KIND[kind], attribute) for attribute, kind in detail]
    return (*{(metric, None) for metric, _ in pairs}, *pairs)


def _iats(ts: np.ndarray) -> np.ndarray:
    """IATs in seconds between a sensor's sorted int64 timestamps (ms)."""
    # The gap between sorted int64 values always fits in uint64, even
    # where int64 subtraction would wrap.
    return (ts[1:].view(np.uint64) - ts[:-1].view(np.uint64)) / 1000.0


class _Scan(NamedTuple):
    """What a scan of one block leaves: counts and per-sensor key columns.

    A row is a valid record, numbered from 0 in record order within the
    block. The columns are arrays in the process that scanned, and
    memoryviews of the same type over a bytearray when a worker sent them
    (see _ColumnPickler); _merge reads them with np.frombuffer.
    """

    total: int  # valid records
    malformed: "array | memoryview"  # ("q") ascending, each malformed record's ordinal
    violations: Counter  # (metric, None) per record, (metric, attribute)
    sensors: list[str]  # sensor ids in first-appearance order within the block
    rows: list  # per sensor, ("I") its rows, ascending
    stamps: list  # per sensor, ("q") the timestamps (ms) of its rows


class _Tally(NamedTuple):
    """What the fold leaves for scoring."""

    total: int  # valid records
    violations: Counter  # (metric, None) per record, (metric, attribute)
    dup_examples: list[list]
    sensor_index: dict[str, int]  # sensor id -> index, first-appearance order
    ts_buffers: list[np.ndarray]  # sorted deduplicated timestamps (ms) per sensor
    dups: list[int]  # duplicates per sensor


def _scan(
    source: "bytes | _Source", prepared: tuple, config: AssessmentConfig
) -> _Scan:
    """Normalise and flag every record of source, in record order."""
    full_checks = config.format_checks == "full"
    ts_field = config.timestamp_field
    sid_field = config.sensor_id_field

    total = 0
    malformed = array("q")
    violations: Counter = Counter()
    sensor_index: dict[str, int] = {}
    rows: list[array] = []
    stamps: list[array] = []

    # A record's type-level violations depend only on its keys and value
    # types, so they are judged once per such signature, together with the
    # plan of value checks (range, pattern) that every record of the
    # signature runs under full checks. Under types_only the plan is empty.
    memo: dict[tuple, tuple] = {}

    for record in iter_records(source, config.dataset_format):
        if record is None:
            malformed.append(total + len(malformed))
            continue
        try:
            if ts_field not in record:
                raise ValueError(f"missing timestamp field {ts_field!r}")
            timestamp_ms = parse_timestamp(record[ts_field])
            raw_id = record.get(sid_field)
            # Every key of sensor_index is an id that passed the rule below.
            sidx = sensor_index.get(raw_id) if type(raw_id) is str else None
            if sidx is None:
                if isinstance(raw_id, bool) or raw_id is None:
                    raise ValueError(f"missing sensor id field {sid_field!r}")
                if isinstance(raw_id, int):
                    sensor_id = str(raw_id)
                elif isinstance(raw_id, str) and raw_id.strip():
                    sensor_id = raw_id
                else:
                    raise ValueError("sensor id must be a non-empty string or integer")
            signature = (*record, *map(type, record.values()))
            verdict = memo.get(signature)
            if verdict is None:
                attrs, nested = _attributes(record, ts_field, sid_field)
        except ValueError:
            malformed.append(total + len(malformed))
            continue

        if verdict is None:
            detail = _flags_for(attrs, prepared)
            plan = _value_plan(attrs, prepared) if full_checks else ()
            verdict = (detail, _hits(detail), plan)
            if not nested and len(memo) < _MEMO_CAP:
                memo[signature] = verdict
            values = attrs
        else:
            values = record
        detail, hits, plan = verdict
        if plan:
            faults = _value_faults(values, plan)
            if faults:
                hits = _hits((*detail, *faults))
        for hit in hits:
            violations[hit] += 1

        if sidx is None:
            sidx = sensor_index.get(sensor_id)
            if sidx is None:
                sidx = sensor_index[sensor_id] = len(rows)
                rows.append(array("I"))
                stamps.append(array("q"))
        rows[sidx].append(total)
        stamps[sidx].append(timestamp_ms)
        total += 1
    return _Scan(total, malformed, violations, list(sensor_index), rows, stamps)


def _cuts(source: _Source, fmt: str) -> list[tuple[int, int]]:
    """(start, stop) of each block of source to scan.

    NDJSON is cut just after newlines into up to one block per usable
    core, none planned smaller than _BLOCK_MIN_BYTES; each cut is found by
    a small read near its planned offset. Anything else is one block: CSV
    may hold newlines inside quoted fields, and a JSON array is one
    document.
    """
    start, stop = source.start, source.stop
    size = stop - start
    count = 1
    # Platforms with sched_getaffinity have fork.
    if fmt == "ndjson" and hasattr(os, "sched_getaffinity"):
        count = min(len(os.sched_getaffinity(0)), size // _BLOCK_MIN_BYTES)
    bounds = [start]
    for k in range(1, count):
        cut = _line_end(source, max(bounds[-1], start + size * k // count))
        if cut >= stop:
            break
        bounds.append(cut)
    bounds.append(stop)
    return list(zip(bounds, bounds[1:]))


class _ColumnPickler(pickle.Pickler):
    """Pickles each array as a protocol-5 PickleBuffer, which unpickles
    straight into one bytearray (an array's pickle is unpickled into bytes
    and then copied), and _column views that bytearray as the array did."""

    def reducer_override(self, obj: Any) -> Any:
        if type(obj) is array:
            return _column, (obj.typecode, pickle.PickleBuffer(obj))
        return NotImplemented


def _column(typecode: str, buffer: bytearray) -> memoryview:
    return memoryview(buffer).cast(typecode)


def _in_worker(write_fd: int, work: Callable[[], Any]) -> NoReturn:
    """Run work in a forked worker, pickle (True, result) or (False, the
    exception) to write_fd with _ColumnPickler and exit, with status 0 once
    that is written. Never returns, so that no frame of the parent goes on
    in the worker."""
    status = 1
    try:
        try:
            outcome = (True, work())
        except Exception as exc:  # the parent raises it
            outcome = (False, exc)
        with os.fdopen(write_fd, "wb") as pipe:
            _ColumnPickler(pipe, protocol=5).dump(outcome)
        status = 0
    finally:
        os._exit(status)


def _scan_blocks(
    source: _Source,
    cuts: list[tuple[int, int]],
    prepared: tuple,
    config: AssessmentConfig,
    meanwhile: Callable[[], Any],
) -> tuple[list[_Scan], Any]:
    """The scans of the NDJSON blocks (start, stop) of source, in block
    order, and what meanwhile() returned.

    This process scans the first block; every other block is scanned in a
    forked worker, which reads its own range of source and pickles its
    scan back over a pipe, each column as one buffer (see _ColumnPickler);
    meanwhile runs in a thread while this process scans. Workers are
    reaped before this returns or raises, and a worker's exception, or
    meanwhile's, is raised here.
    """
    pipes: list[BinaryIO] = []
    workers: list[int] = []  # pids not yet reaped, in block order
    try:
        for start, stop in cuts[1:]:
            block = source._replace(start=start, stop=stop)
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            try:
                pid = os.fork()
            except OSError:
                os.close(write_fd)
                raise
            if pid == 0:
                _in_worker(write_fd, lambda: _scan(block, prepared, config))
            os.close(write_fd)
            workers.append(pid)
        # Started only once every worker is forked: a worker forked while a
        # thread runs may inherit a lock that thread held, and never see it
        # released. The pool's with joins the thread on every exit path.
        with ThreadPoolExecutor(max_workers=1) as pool:
            aside = pool.submit(meanwhile)
            start, stop = cuts[0]
            scans = [_scan(source._replace(start=start, stop=stop), prepared, config)]
        for pipe in pipes:
            # Unpickled as it arrives, so the stream is never held beside the
            # scan decoded from it. A worker that died mid-result leaves a truncated
            # stream, which is not read as a result once the worker is reaped.
            unread = None
            try:
                with pipe:
                    ok, result = pickle.load(pipe)
            except Exception as exc:
                unread = exc
            _, status = os.waitpid(workers.pop(0), 0)
            if status or unread is not None:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(
                    f"a fold worker ended without a result (exit {code})"
                ) from unread
            if not ok:
                raise result
            scans.append(result)
        return scans, aside.result()
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _merge(
    scans: list[_Scan], blocks: list[_Source], config: AssessmentConfig
) -> _Tally:
    """Join block scans in block order and deduplicate; blocks[i] is the
    source that scans[i] scanned. Each sensor's columns are dropped from
    its scans once the sensor is merged.

    Rows are the valid records of all scans, numbered in record order.
    The sensors are walked in first-appearance order. A sensor's
    timestamps are gathered from its scans in block order, so in record
    order, and sorted on their own, stably, so the first of each run of
    equal keys is the first in record order; timestamps that already
    ascend are left in place, and if none repeats, the sensor keeps its
    scan's buffer as it is. Rows are read only where a timestamp repeats.
    So beside the scans' columns (12 bytes a row, freed sensor by
    sensor), the merge holds the kept timestamps (8 bytes a kept row), the
    earliest EVIDENCE_CAP duplicates and one sensor's temporaries.
    Under full_packet, a sensor with repeated timestamps holds its sorted
    timestamps and the rows of its tied runs until the tied rows of all
    sensors are digested, all at once; then each run of equal timestamps
    keeps the first of each run of equal digests.

    Raises DatasetRejectedError when more than half of the records are
    malformed.
    """
    total = sum(scan.total for scan in scans)
    error_count = sum(len(scan.malformed) for scan in scans)
    records_seen = total + error_count
    if records_seen and error_count * 2 > records_seen:
        raise DatasetRejectedError(
            f"{error_count} of {records_seen} records malformed (more than half)"
        )
    if error_count:
        logger.info("ingestion skipped %d malformed records", error_count)

    violations: Counter = Counter()
    # Per sensor in first-appearance order: (scan, the sensor's index there,
    # the scan's first row), in block order.
    parts: dict[str, list[tuple[_Scan, int, int]]] = {}
    offset = 0
    for scan in scans:
        violations.update(scan.violations)
        for k, sensor_id in enumerate(scan.sensors):
            parts.setdefault(sensor_id, []).append((scan, k, offset))
        offset += scan.total
    sensor_ids = list(parts)

    ts_buffers: list[np.ndarray] = []
    dups = [0] * len(sensor_ids)
    examples: list[tuple[int, int, int]] = []  # (row, sensor index, timestamp)

    def keep(sidx: int, ts: np.ndarray, dup: np.ndarray, dup_rows: np.ndarray) -> None:
        """Keep sensor sidx's sorted ts where dup is False; dup_rows are the
        rows where it is True."""
        ts_buffers[sidx] = ts[~dup]
        dups[sidx] = dup_rows.size
        if dup_rows.size:
            earliest = np.argsort(dup_rows)[:EVIDENCE_CAP]
            examples.extend(
                zip(
                    dup_rows[earliest].tolist(),
                    [sidx] * earliest.size,
                    ts[dup][earliest].tolist(),
                )
            )
            examples.sort()
            del examples[EVIDENCE_CAP:]

    # full_packet: (sensor index, sorted timestamps, tied positions, their rows)
    pending: list = []
    for sidx, where in enumerate(parts.values()):
        ts = [np.frombuffer(scan.stamps[k], np.int64) for scan, k, _ in where]
        ts = ts[0] if len(ts) == 1 else np.concatenate(ts)
        # Timestamps that already ascend, as a sensor's mostly do, keep
        # their place: a stable sort leaves them as they are.
        by_ts = None
        if (ts[1:] < ts[:-1]).any():
            by_ts = np.argsort(ts, kind="stable")
            ts = ts[by_ts]
        repeat = ts[1:] == ts[:-1]
        ts_buffers.append(ts)  # keep() replaces it where a timestamp repeats
        if repeat.any():
            if config.duplicate_key == "full_packet":
                tied = _tied(repeat)
                pending.append((sidx, ts, tied, _rows_at(where, tied, by_ts)))
            else:
                dup = np.concatenate(([False], repeat))
                keep(sidx, ts, dup, _rows_at(where, np.flatnonzero(dup), by_ts))
        for scan, k, _ in where:
            scan.rows[k] = scan.stamps[k] = None

    if pending:
        # The digest covers the sensor id and the timestamp, so equal digests
        # lie in one run of equal (sensor, timestamp): only the rows of such
        # runs are digested, all at once.
        digests = _digests(
            np.concatenate([rows for _, _, _, rows in pending]),
            [sensor_ids[sidx] for sidx, _, tied, _ in pending for _ in tied],
            np.concatenate([ts[tied] for _, ts, tied, _ in pending]).tolist(),
            scans,
            blocks,
            config,
        )
        start = 0
        for i, (sidx, ts, tied, rows) in enumerate(pending):
            pending[i] = None  # so the full timestamps go once kept
            held = digests[start : start + tied.size]
            start += tied.size
            # Each run of equal timestamps is sorted by digest, stably, so
            # equal packets stay in record order.
            repeat = ts[1:] == ts[:-1]
            run = np.cumsum(np.concatenate(([True], ~repeat)))[tied]
            sort = np.lexsort((held[:, 1], held[:, 0], run))
            held = held[sort]
            pairs = np.flatnonzero(repeat)
            at = np.searchsorted(tied, pairs)  # pairs + 1 is at tied[at + 1]
            repeat[pairs] = (held[at] == held[at + 1]).all(1)
            dup = np.concatenate(([False], repeat))
            # Only a tied row can repeat the row before.
            keep(sidx, ts, dup, rows[sort][dup[tied]])

    dup_examples = [[sensor_ids[sidx], t] for _, sidx, t in examples]
    sensor_index = dict(zip(sensor_ids, range(len(sensor_ids))))
    return _Tally(total, violations, dup_examples, sensor_index, ts_buffers, dups)


def _rows_at(
    where: list[tuple[_Scan, int, int]], at: np.ndarray, by_ts: "np.ndarray | None"
) -> np.ndarray:
    """The rows at positions at of a sensor's timestamps as the merge
    sorted them with by_ts (None: as gathered, in block order); where are
    the sensor's (scan, its index there, the scan's first row)."""
    if by_ts is not None:
        at = by_ts[at]
    rows = np.empty(at.size, np.int64)
    start = 0
    for scan, k, first in where:
        part = np.frombuffer(scan.rows[k], np.uint32)
        mine = (at >= start) & (at < start + part.size)
        rows[mine] = part[at[mine] - start].astype(np.int64) + first
        start += part.size
    return rows


def _tied(repeat: np.ndarray) -> np.ndarray:
    """Positions of the rows in a run of two or more equal keys, given
    where each row repeats the key of the row before."""
    return np.flatnonzero(
        np.concatenate(([False], repeat)) | np.concatenate((repeat, [False]))
    )


def _digests(
    rows: np.ndarray,
    sensor_ids: list[str],
    timestamps: list[int],
    scans: list[_Scan],
    blocks: list[_Source],
    config: AssessmentConfig,
) -> np.ndarray:
    """packet_key_fields of each of rows (numbered in record order across
    the scans), whose sensor ids and timestamps are given, as uint64 pairs;
    blocks[i] is the source that scans[i] scanned.

    Each row's record is read again, alone, from its block: its item
    ordinal there is its row index within the scan plus the number of the
    scan's malformed records before it. The attributes are those of the
    decoded record.
    """
    ts_field, sid_field = config.timestamp_field, config.sensor_id_field
    digests = [b""] * rows.size
    by_row = np.argsort(rows)
    stop = 0
    for scan, block in zip(scans, blocks):
        start, stop = stop, stop + scan.total
        mine = by_row[(rows[by_row] >= start) & (rows[by_row] < stop)]
        if not mine.size:
            continue
        local = rows[mine] - start
        # The k-th malformed record (from 0) follows its ordinal minus k valid ones.
        malformed = np.frombuffer(scan.malformed, dtype=np.int64)
        skipped = np.searchsorted(malformed - np.arange(malformed.size), local, "right")
        ordinals = (local + skipped).tolist()
        records = records_at(block, config.dataset_format, ordinals)
        for at, record in zip(mine.tolist(), records):
            try:
                attrs = _attributes(record, ts_field, sid_field)[0]
            except (AttributeError, ValueError):  # not the record the scan read
                raise IngestFormatError(_FILE_CHANGED) from None
            digests[at] = packet_key_fields(sensor_ids[at], timestamps[at], attrs)
    return np.frombuffer(b"".join(digests), np.uint64).reshape(-1, 2)


def _fold(
    source: _Source,
    schema: SchemaDocument,
    config: AssessmentConfig,
    meanwhile: Callable[[], Any] = lambda: None,
) -> tuple[_Tally, Any]:
    """Normalise, flag and deduplicate every record; returns the tally and
    what meanwhile() returned.

    _cuts splits a large NDJSON source into one block per usable core,
    _scan_blocks scans the blocks in parallel processes and _merge joins
    the scans in block order, so the tally does not depend on the cuts.
    Any other source is scanned here as one block. The fold also stays in
    this process when a name the scan calls (iter_records,
    parse_timestamp, _flags_for) has been replaced at run time, as a
    tracer or a test does to time or count its calls: the calls made in a
    forked worker would not reach the replacement's counters. (The
    full_packet digests are taken here, after the scans.) meanwhile runs
    in a thread beside the scan when the fold forks (see _scan_blocks),
    and here after the scan when it does not: a thread that waits for the
    interpreter lock behind a short scan may cost it a whole switch
    interval.

    Raises DatasetRejectedError when more than half of the records are
    malformed.
    """
    prepared = schema.prepared()
    cuts = _cuts(source, config.dataset_format)
    if len(cuts) == 1 or _SCAN_CALLS != (iter_records, parse_timestamp, _flags_for):
        blocks = [source]
        scans = [_scan(source, prepared, config)]
        aside = meanwhile()
    else:
        scans, aside = _scan_blocks(source, cuts, prepared, config, meanwhile)
        blocks = [source._replace(start=start, stop=stop) for start, stop in cuts]
    return _merge(scans, blocks, config), aside


def sensor_iats(
    data_path: str, config: AssessmentConfig
) -> list[tuple[str, np.ndarray]]:
    """(sensor_id, IATs in seconds) per sensor, in first-appearance order.

    The IATs are those assess_file() scores on the file at data_path, read
    as it reads it: gaps between the sorted timestamps a sensor keeps after
    deduplication under config.duplicate_key. Raises as assess_file() does.
    """
    # No violation is read here, so no record runs a value check.
    config = dataclasses.replace(config, format_checks="types_only")
    with _open_dataset(data_path) as source:
        tally, _ = _fold(source, _NO_SCHEMA, config)
    return [(sid, _iats(ts)) for sid, ts in zip(tally.sensor_index, tally.ts_buffers)]


def assess(data: bytes, schema: SchemaDocument, config: AssessmentConfig) -> QualityReport:
    """Assess one dataset; returns the quality report.

    Raises DatasetRejectedError when more than half of the records are
    malformed or no valid record remains.
    """
    return _assess(_in_memory(data), schema, config)


def assess_file(
    data_path: str, schema: SchemaDocument, config: AssessmentConfig
) -> QualityReport:
    """Assess a dataset file on disk; returns the report assess() gives on
    the file's bytes.

    A regular NDJSON file is never held whole: each process reads its own
    blocks, and the fingerprint is taken over 1 MiB reads. Raises
    IngestFormatError when the file changes while it is assessed, and
    DatasetRejectedError as assess() does.
    """
    with _open_dataset(data_path) as source:
        return _assess(source, schema, config)


def _assess(
    source: _Source, schema: SchemaDocument, config: AssessmentConfig
) -> QualityReport:
    return _score(*_fold(source, schema, config, lambda: _sha256(source)), config)


def _sha256(source: _Source) -> str:
    digest = hashlib.sha256()
    for start in range(source.start, source.stop, _HASH_BYTES):
        digest.update(source.read(start, min(start + _HASH_BYTES, source.stop)))
    return digest.hexdigest()


def _score(tally: _Tally, fingerprint: str, config: AssessmentConfig) -> QualityReport:
    """The quality report of a fold's tally; raises DatasetRejectedError
    when no valid record remains."""
    total = tally.total
    if total == 0:
        raise DatasetRejectedError("dataset contains no valid records")
    # Each sensor's IATs are taken when the loop below reaches it; the
    # dataset scope pools them all first.
    if config.mode_scope == "dataset":
        pooled = np.concatenate([_iats(ts) for ts in tally.ts_buffers])
        shared_model = None
        if pooled.size:
            try:
                shared_model = estimate_mode(pooled, config.quantization_seconds)
            except DegenerateIatError:
                shared_model = None

    m1_num = 0.0
    m1_poor_den = 0.0
    m1_good = 0
    m1_poor = 0
    m2_out = 0
    m2_total = 0
    m2_max_z = 0.0
    m2_bases: set[str] = set()
    outlier_examples: list[list] = []
    degenerate_sensors: list[str] = []
    per_sensor: dict[str, dict[str, Any]] = {}

    for sensor_id, unique, dups in zip(
        tally.sensor_index, tally.ts_buffers, tally.dups
    ):
        sensor_iats = _iats(unique)
        entry: dict[str, Any] = {
            "packet_count": len(unique) + dups,
            "unique_count": len(unique),
            "iat_count": int(sensor_iats.size),
        }
        per_sensor[sensor_id] = entry
        if sensor_iats.size == 0:
            continue
        if config.mode_scope == "dataset":
            model = shared_model
        else:
            try:
                model = estimate_mode(sensor_iats, config.quantization_seconds)
            except DegenerateIatError:
                model = None
        if model is None:
            degenerate_sensors.append(sensor_id)
            entry["degenerate"] = True
            continue
        entry["mode"] = model.mode
        entry["mad"] = model.mad

        binned = quantize(sensor_iats, model.quantization)
        num, poor_den, good, poor = _kernels.m1_sums(
            binned, model.mode, config.rae_crossover
        )
        m1_num += float(num)
        m1_poor_den += float(poor_den)
        m1_good += int(good)
        m1_poor += int(poor)
        entry["m1_numerator_sum"] = float(num)
        entry["m1_denominator_sum"] = float(good) + float(poor_den)

        z, basis = z_scores(sensor_iats, model)
        absz = np.abs(z)
        outliers = np.nonzero(absz > config.z_cutoff)[0]
        m2_out += int(outliers.size)
        m2_total += int(sensor_iats.size)
        m2_max_z = max(m2_max_z, float(absz.max()))
        m2_bases.add(basis)
        entry["spread_basis"] = basis
        entry["m2_outlier_count"] = int(outliers.size)
        for i in outliers[: max(0, EVIDENCE_CAP - len(outlier_examples))]:
            outlier_examples.append([sensor_id, int(i)])

    results = []
    results.append(
        m1_from_sums(
            m1_num,
            m1_poor_den,
            m1_good,
            m1_poor,
            config.rae_crossover,
            {
                "mode_scope": config.mode_scope,
                "degenerate_sensors": sorted(degenerate_sensors),
            },
        )
    )
    if m2_total == 0:
        results.append(
            MetricResult.inapplicable(
                "M2", {"degenerate_sensors": sorted(degenerate_sensors)}
            )
        )
    else:
        results.append(
            MetricResult.ratio(
                "M2",
                m2_out,
                m2_total,
                {
                    "cutoff": float(config.z_cutoff),
                    "spread_basis": "/".join(sorted(m2_bases)),
                    "max_abs_z": m2_max_z,
                    "outlier_examples": outlier_examples,
                    "degenerate_sensors": sorted(degenerate_sensors),
                },
            )
        )
    dup_count = sum(tally.dups)
    results.append(
        MetricResult.ratio(
            "M3",
            dup_count,
            total,
            {
                "duplicate_key": config.duplicate_key,
                "distinct_keys": total - dup_count,
                "examples": tally.dup_examples,
            },
        )
    )
    violations = tally.violations
    for metric_id in ("M4", "M5", "M6"):
        by_attribute = sorted(
            (attribute, count)
            for (metric, attribute), count in violations.items()
            if metric == metric_id and attribute is not None
        )
        results.append(
            MetricResult.ratio(
                metric_id,
                violations[metric_id, None],
                total,
                {"by_attribute": dict(by_attribute)},
            )
        )

    return aggregate(
        results,
        config.weights,
        dataset_fingerprint=fingerprint,
        created_at=config.created_at,
        per_sensor=per_sensor,
    )

