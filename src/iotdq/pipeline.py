"""End-to-end assessment of raw dataset bytes.

_fold reads the records and leaves what scoring needs: violation counts,
per-sensor duplicate counts and each sensor's sorted deduplicated
timestamps. assess() then runs the IAT metrics on the per-sensor gaps
and assembles the report; sensor_iats() returns those gaps alone, for
the histogram command. The fold is the only scoring code: it
materializes no packet objects, which keeps million-record datasets
inside a tight time and memory envelope.

The fold has two parts. _scan walks the records of one block in order:
per-record normalisation and schema flags, and per-record key columns
(the timestamp, the sensor index and, under the full_packet duplicate
key, the packet_key_fields digest, which covers the sensor id). _merge
joins the blocks' scans in block order and deduplicates once: a stable
sort by (sensor, timestamp[, digest]) keeps the first occurrence in
record order and yields each sensor's sorted timestamps. A large NDJSON
source is cut at newlines into one block per usable core, and every
block but the first is scanned in a forked worker process; any other
source is one block.

Records arrive from ingest.iter_records, which decodes NDJSON in blocks
of a few MiB rather than line by line. M4-M6 come from one Counter of
(metric, None) per violating record and (metric, attribute) per
violation. Under format_checks="types_only" a record's violations depend
only on its keys and value types, so the scan keeps its counter keys per
such signature and builds no attribute dict for a record whose signature
it has seen, unless the full_packet duplicate key needs one. Records
with nested values and every record under format_checks="full" are
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
from typing import Any, BinaryIO, Callable, NamedTuple, NoReturn

import numpy as np

from . import _kernels
from .errors import DatasetRejectedError, DegenerateIatError
from .ingest import iter_records, parse_timestamp
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
from .schema import METRIC_OF_KIND, SchemaDocument, _flags_for

__all__ = ["assess", "assess_file", "sensor_iats"]

logger = logging.getLogger(__name__)

_MEMO_CAP = 1 << 12  # distinct record signatures whose counter keys are kept
# NDJSON is scanned in blocks of at least this size, one per usable core.
# On a 2-core VM a 2 MiB source took 75 ms in one process and 94 ms in
# two, 3 MiB broke even, and 4 MiB took 132 ms in two against 209 ms in one.
_BLOCK_MIN_BYTES = 2 << 20
# What the scan calls, as bound at import; see _fold.
_SCAN_CALLS = (iter_records, parse_timestamp, _flags_for, packet_key_fields)
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
    malformed: int
    violations: Counter  # (metric, None) per record, (metric, attribute)
    sensors: list[str]  # sensor ids in first-appearance order within the block
    sensor_col: array  # ("i") per valid record, its index into sensors
    ts_col: array  # ("q") per valid record, its timestamp (ms)
    digests: bytearray  # per valid record, packet_key_fields; full_packet only


class _Tally(NamedTuple):
    """What the fold leaves for scoring."""

    total: int  # valid records
    violations: Counter  # (metric, None) per record, (metric, attribute)
    dup_examples: list[list]
    sensor_index: dict[str, int]  # sensor id -> index, first-appearance order
    ts_buffers: list[np.ndarray]  # sorted deduplicated timestamps (ms) per sensor
    dups: list[int]  # duplicates per sensor


def _scan(data: bytes, prepared: tuple, config: AssessmentConfig, fmt: str) -> _Scan:
    """Normalise and flag every record of data, in record order."""
    full_checks = config.format_checks == "full"
    ts_field = config.timestamp_field
    sid_field = config.sensor_id_field
    id_ts_key = config.duplicate_key == "id_timestamp"

    total = 0
    malformed = 0
    violations: Counter = Counter()
    sensor_index: dict[str, int] = {}
    sensor_col = array("i")
    ts_col = array("q")
    digests = bytearray()

    # Under types_only checks a record's violations depend only on its keys
    # and value types, so they are judged once per such signature.
    memo: "dict[tuple, tuple] | None" = None if full_checks else {}

    for _index, record, _reason in iter_records(data, fmt):
        if record is None:
            malformed += 1
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
            hits = None
            if memo is not None:
                signature = (*record, *map(type, record.values()))
                hits = memo.get(signature)
            if hits is None or not id_ts_key:
                attrs, nested = _attributes(record, ts_field, sid_field)
        except ValueError:
            malformed += 1
            continue

        if hits is None:
            hits = _hits(_flags_for(attrs, prepared, full_checks))
            # A memoised signature never holds a nested or list value.
            if memo is not None and not nested and len(memo) < _MEMO_CAP:
                memo[signature] = hits
        total += 1
        for hit in hits:
            violations[hit] += 1

        sidx = sensor_index.get(sensor_id)
        if sidx is None:
            sidx = sensor_index[sensor_id] = len(sensor_index)
        sensor_col.append(sidx)
        ts_col.append(timestamp_ms)
        if not id_ts_key:
            digests += packet_key_fields(sensor_id, timestamp_ms, attrs)
    return _Scan(
        total, malformed, violations, list(sensor_index), sensor_col, ts_col, digests
    )


def _cuts(data: bytes, fmt: str) -> list[tuple[int, int]]:
    """(start, stop) of each block to scan.

    NDJSON is cut just after newlines into up to one block per usable
    core, none planned smaller than _BLOCK_MIN_BYTES. Anything else is one
    block: CSV may hold newlines inside quoted fields, and a JSON array is
    one document.
    """
    size = len(data)
    count = 1
    # Platforms with sched_getaffinity have fork.
    if fmt == "ndjson" and hasattr(os, "sched_getaffinity"):
        count = min(len(os.sched_getaffinity(0)), size // _BLOCK_MIN_BYTES)
    bounds = [0]
    for k in range(1, count):
        cut = data.find(b"\n", max(bounds[-1], size * k // count)) + 1
        if not 0 < cut < size:
            break
        bounds.append(cut)
    bounds.append(size)
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
        with open(write_fd, "wb") as pipe:
            pickle.dump(outcome, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _scan_blocks(
    data: bytes, cuts: list[tuple[int, int]], prepared: tuple, config: AssessmentConfig
) -> list[_Scan]:
    """The scans of the NDJSON blocks data[start:stop], in block order.

    This process scans the first block; every other block is scanned in a
    forked worker, which pickles its scan back over a pipe. Workers are
    reaped before this returns or raises, and a worker's exception is
    raised here.
    """
    pipes: list[BinaryIO] = []
    workers: list[int] = []  # pids not yet reaped, in block order
    try:
        for start, stop in cuts[1:]:
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            try:
                pid = os.fork()
            except OSError:
                os.close(write_fd)
                raise
            if pid == 0:
                _in_worker(
                    write_fd,
                    lambda: _scan(data[start:stop], prepared, config, "ndjson"),
                )
            os.close(write_fd)
            workers.append(pid)
        start, stop = cuts[0]
        scans = [_scan(data[start:stop], prepared, config, "ndjson")]
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
        return scans
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _merge(scans: list[_Scan], config: AssessmentConfig) -> _Tally:
    """Join block scans in block order and deduplicate.

    Raises DatasetRejectedError when more than half of the records are
    malformed.
    """
    total = sum(scan.total for scan in scans)
    error_count = sum(scan.malformed for scan in scans)
    records_seen = total + error_count
    if records_seen and error_count * 2 > records_seen:
        raise DatasetRejectedError(
            f"{error_count} of {records_seen} records malformed (more than half)"
        )
    if error_count:
        logger.info("ingestion skipped %d malformed records", error_count)

    violations: Counter = Counter()
    sensor_index: dict[str, int] = {}
    sensor_parts = []
    for scan in scans:
        violations.update(scan.violations)
        remap = np.array(
            [sensor_index.setdefault(s, len(sensor_index)) for s in scan.sensors],
            dtype=np.intp,
        )
        sensor_parts.append(remap[np.frombuffer(scan.sensor_col, dtype=np.intc)])
    sensors = np.concatenate(sensor_parts)
    ts = np.concatenate([np.frombuffer(scan.ts_col, dtype=np.int64) for scan in scans])

    # A stable sort by (sensor, timestamp[, digest]) keeps equal keys in
    # record order, so the first of each run of equal keys is kept.
    keys = [ts, sensors]
    if config.duplicate_key == "full_packet":
        # The digest covers the sensor id and the timestamp.
        digests = np.frombuffer(b"".join(scan.digests for scan in scans), np.uint64)
        keys[:0] = [digests[1::2], digests[0::2]]
    order = np.lexsort(keys)
    repeat = np.ones(max(order.size - 1, 0), dtype=bool)
    for key in keys:
        ordered = key[order]
        repeat &= ordered[1:] == ordered[:-1]
    first = np.concatenate(([True], ~repeat))[: order.size]

    sensor_ids = list(sensor_index)
    by_sensor = sensors[order]
    ends = np.cumsum(np.bincount(by_sensor[first], minlength=len(sensor_ids)))
    ts_buffers = np.split(ts[order][first], ends[:-1]) if sensor_ids else []
    dups = np.bincount(by_sensor[~first], minlength=len(sensor_ids)).tolist()
    dup_examples = [
        [sensor_ids[sensors[i]], int(ts[i])]
        for i in np.sort(order[~first])[:EVIDENCE_CAP]
    ]
    return _Tally(total, violations, dup_examples, sensor_index, ts_buffers, dups)


def _fold(
    data: bytes, schema: SchemaDocument, config: AssessmentConfig, fmt: str
) -> _Tally:
    """Normalise, flag and deduplicate every record.

    _cuts splits a large NDJSON source into one block per usable core,
    _scan_blocks scans the blocks in parallel processes and _merge joins
    the scans in block order, so the tally does not depend on the cuts.
    Any other source is scanned here as one block. The fold also stays in
    this process when a name the scan calls (iter_records,
    parse_timestamp, _flags_for, packet_key_fields) has been replaced at
    run time, as a tracer or a test does to time or count its calls: the
    calls made in a forked worker would not reach the replacement's
    counters.

    Raises DatasetRejectedError when more than half of the records are
    malformed.
    """
    prepared = schema.prepared()
    cuts = _cuts(data, fmt)
    if len(cuts) == 1 or _SCAN_CALLS != (
        iter_records, parse_timestamp, _flags_for, packet_key_fields
    ):
        scans = [_scan(data, prepared, config, fmt)]
    else:
        scans = _scan_blocks(data, cuts, prepared, config)
    return _merge(scans, config)


def sensor_iats(
    data: bytes, config: AssessmentConfig, format: "str | None" = None
) -> list[tuple[str, np.ndarray]]:
    """(sensor_id, IATs in seconds) per sensor, in first-appearance order.

    The IATs are those assess() scores: gaps between the sorted timestamps
    a sensor keeps after deduplication under config.duplicate_key. Raises
    DatasetRejectedError when more than half of the records are malformed.
    """
    # No violation is read here; under types_only each signature is judged once.
    config = dataclasses.replace(config, format_checks="types_only")
    tally = _fold(data, _NO_SCHEMA, config, format or config.dataset_format)
    return list(zip(tally.sensor_index, _sensor_iat_arrays(tally.ts_buffers)))


def assess(
    data: bytes,
    schema: SchemaDocument,
    config: AssessmentConfig,
    format: "str | None" = None,
) -> QualityReport:
    """Assess one dataset; returns the quality report.

    Raises DatasetRejectedError when more than half of the records are
    malformed or no valid record remains.
    """
    tally = _fold(data, schema, config, format or config.dataset_format)
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
        dataset_fingerprint=hashlib.sha256(data).hexdigest(),
        created_at=config.created_at,
        per_sensor=per_sensor,
    )


def assess_file(
    data_path: str,
    schema: SchemaDocument,
    config: AssessmentConfig,
    format: "str | None" = None,
) -> QualityReport:
    """Assess a dataset file on disk."""
    with open(data_path, "rb") as fh:
        data = fh.read()
    return assess(data, schema, config, format=format)
