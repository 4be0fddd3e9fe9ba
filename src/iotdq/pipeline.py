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
per-record normalisation and schema flags, per-record key columns (the
timestamp and the sensor index) and the item ordinal of each malformed
record. _merge joins the blocks' scans in block order and deduplicates
sensor by sensor: one stable sort of the sensor indices, kept in the
narrowest unsigned type that holds them, groups the rows by sensor in
record order; each sensor's timestamps are then gathered from the scans'
columns and sorted on their own, stably, which keeps the first
occurrence in record order and yields the sensor's sorted timestamps.
Beside the scans' columns (12 bytes a row), the merge holds 17 bytes a
row up to 256 sensors (the index, the sort order and the kept
timestamps) and one sensor's temporaries. Under the full_packet
duplicate key, equal packets can only lie in a run of equal (sensor,
timestamp), so only the rows of such runs are digested with
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
from typing import Any, BinaryIO, Callable, Iterator, NamedTuple, NoReturn

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


def _sensor_iat_arrays(buffers: list[np.ndarray]) -> list[np.ndarray]:
    """IATs in seconds between each sensor's sorted int64 timestamps (ms)."""
    # The gap between sorted int64 values always fits in uint64, even
    # where int64 subtraction would wrap.
    return [
        (ts[1:].view(np.uint64) - ts[:-1].view(np.uint64)) / 1000.0 for ts in buffers
    ]


class _Scan(NamedTuple):
    """What a scan of one block leaves: counts and per-record key columns."""

    total: int  # valid records
    malformed: array  # ("q") ascending, the item ordinal of each malformed record
    violations: Counter  # (metric, None) per record, (metric, attribute)
    sensors: list[str]  # sensor ids in first-appearance order within the block
    sensor_col: array  # ("i") per valid record, its index into sensors
    ts_col: array  # ("q") per valid record, its timestamp (ms)


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
    sensor_col = array("i")
    ts_col = array("q")

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
        total += 1
        for hit in hits:
            violations[hit] += 1

        sidx = sensor_index.get(sensor_id)
        if sidx is None:
            sidx = sensor_index[sensor_id] = len(sensor_index)
        sensor_col.append(sidx)
        ts_col.append(timestamp_ms)
    return _Scan(total, malformed, violations, list(sensor_index), sensor_col, ts_col)


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


def _in_worker(write_fd: int, work: Callable[[], Any]) -> NoReturn:
    """Run work in a forked worker, pickle (True, result) or (False, the
    exception) to write_fd and exit, with status 0 once that is written.
    Never returns, so that no frame of the parent goes on in the worker."""
    status = 1
    try:
        try:
            outcome = (True, work())
        except Exception as exc:  # the parent raises it
            outcome = (False, exc)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(outcome, pipe, protocol=pickle.HIGHEST_PROTOCOL)
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
    scan back over a pipe; meanwhile runs in a thread while this process
    scans. Workers are reaped before this returns or raises, and a
    worker's exception, or meanwhile's, is raised here.
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
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(workers.pop(0), 0)
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"a fold worker ended without a result (exit {code})")
            ok, result = pickle.loads(payload)
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
    source that scans[i] scanned.

    Rows are the valid records of all scans, in record order. One stable
    argsort of the sensor column (uint8 up to 256 sensors, a radix sort)
    groups them by sensor, in record order within a sensor; each sensor's
    segment then gathers its timestamps from the scans' columns and sorts
    them on its own, stably, so the first of each run of equal keys is the
    first in record order. Beside the scans' own columns, what lives the
    whole merge is the sensor column (1 byte a row up to 256 sensors, 2 up
    to 65,536), the sort order (8 bytes a row) and the kept timestamps
    (8 bytes a kept row); the rest is one sensor's segment at a time.
    Under full_packet the segments are walked twice: once to find the
    rows of tied runs, which are digested together, and once to keep the
    first of each run of equal digests.

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
    sensor_index: dict[str, int] = {}
    for scan in scans:
        violations.update(scan.violations)
        for sensor_id in scan.sensors:
            sensor_index.setdefault(sensor_id, len(sensor_index))
    sensor_ids = list(sensor_index)
    sensors = np.empty(total, np.min_scalar_type(max(len(sensor_ids) - 1, 0)))
    offsets = np.cumsum([0] + [scan.total for scan in scans])
    for scan, start, stop in zip(scans, offsets, offsets[1:]):
        remap = np.array([sensor_index[s] for s in scan.sensors], sensors.dtype)
        np.take(remap, np.frombuffer(scan.sensor_col, np.intc), out=sensors[start:stop])
    order = np.argsort(sensors, kind="stable")
    ends = np.cumsum(np.bincount(sensors, minlength=len(sensor_ids))).tolist()
    del sensors
    ts_cols = [np.frombuffer(scan.ts_col, np.int64) for scan in scans]

    tied_rows = digests = None
    if config.duplicate_key == "full_packet":
        # The digest covers the sensor id and the timestamp, so equal digests
        # lie in one run of equal (sensor, timestamp): only the rows of such
        # runs are digested, all at once, and the segments are walked again.
        tied = [
            rows[_tied(repeat)]
            for rows, _, repeat in _segments(order, ends, offsets, ts_cols)
            if repeat.any()
        ]
        if tied:
            tied_rows = np.sort(np.concatenate(tied))
            digests = _digests(tied_rows, scans, blocks, config)

    ts_buffers: list[np.ndarray] = []
    dups: list[int] = []
    examples: list[tuple[int, int, int]] = []  # (row, sensor index, timestamp)
    for sidx, (rows, ts, repeat) in enumerate(_segments(order, ends, offsets, ts_cols)):
        if digests is not None and repeat.any():
            # Each run of equal timestamps is sorted by digest, stably, so
            # equal packets stay in record order.
            tied = _tied(repeat)
            run = np.cumsum(np.concatenate(([True], ~repeat)))[tied]
            held = digests[np.searchsorted(tied_rows, rows[tied])]
            sort = np.lexsort((held[:, 1], held[:, 0], run))
            rows[tied] = rows[tied][sort]
            held = held[sort]
            pairs = np.flatnonzero(repeat)
            at = np.searchsorted(tied, pairs)  # pairs + 1 is at tied[at + 1]
            repeat[pairs] = (held[at] == held[at + 1]).all(1)
        first = np.concatenate(([True], ~repeat))
        ts_buffers.append(ts[first])
        dup_rows = rows[~first]
        dups.append(dup_rows.size)
        if dup_rows.size:
            earliest = np.argsort(dup_rows)[:EVIDENCE_CAP]
            examples += zip(
                dup_rows[earliest].tolist(),
                [sidx] * earliest.size,
                ts[~first][earliest].tolist(),
            )
            examples.sort()
            del examples[EVIDENCE_CAP:]
    dup_examples = [[sensor_ids[sidx], t] for _, sidx, t in examples]
    return _Tally(total, violations, dup_examples, sensor_index, ts_buffers, dups)


def _segments(
    order: np.ndarray, ends: list[int], offsets: np.ndarray, ts_cols: list[np.ndarray]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per sensor, its rows and their timestamps sorted stably by timestamp,
    and where each row repeats the timestamp of the row before.

    order[ends[k - 1]:ends[k]] are sensor k's rows in record order; the
    timestamps of rows offsets[i] to offsets[i + 1] are ts_cols[i].
    """
    start = 0
    for end in ends:
        rows = order[start:end]
        start = end
        ts = np.empty(rows.size, np.int64)
        cut = np.searchsorted(rows, offsets)  # rows ascend within a sensor
        for col, offset, a, b in zip(ts_cols, offsets, cut, cut[1:]):
            ts[a:b] = col[rows[a:b] - offset]
        by_ts = np.argsort(ts, kind="stable")
        ts = ts[by_ts]
        yield rows[by_ts], ts, ts[1:] == ts[:-1]


def _tied(repeat: np.ndarray) -> np.ndarray:
    """Positions of the rows in a run of two or more equal keys, given
    where each row repeats the key of the row before."""
    return np.flatnonzero(
        np.concatenate(([False], repeat)) | np.concatenate((repeat, [False]))
    )


def _digests(
    rows: np.ndarray,
    scans: list[_Scan],
    blocks: list[_Source],
    config: AssessmentConfig,
) -> np.ndarray:
    """packet_key_fields of each of rows (indices into the scans' joined
    columns), as uint64 pairs; blocks[i] is the source that scans[i] scanned.

    Each row's record is read again, alone, from its block: its item
    ordinal there is its row index within the scan plus the number of the
    scan's malformed records before it. The sensor id and timestamp are
    the scan's, the attributes those of the decoded record.
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
        for at, row, record in zip(mine.tolist(), local.tolist(), records):
            try:
                attrs = _attributes(record, ts_field, sid_field)[0]
            except (AttributeError, ValueError):  # not the record the scan read
                raise IngestFormatError(_FILE_CHANGED) from None
            sensor_id = scan.sensors[scan.sensor_col[row]]
            digests[at] = packet_key_fields(sensor_id, scan.ts_col[row], attrs)
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
    return list(zip(tally.sensor_index, _sensor_iat_arrays(tally.ts_buffers)))


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
    iats = _sensor_iat_arrays(tally.ts_buffers)

    if config.mode_scope == "dataset":
        pooled = (
            np.concatenate([x for x in iats if x.size])
            if any(x.size for x in iats)
            else np.empty(0, dtype=np.float64)
        )
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

    for sensor_id, sensor_iats, unique, dups in zip(
        tally.sensor_index, iats, tally.ts_buffers, tally.dups
    ):
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

