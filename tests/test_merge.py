"""The merge of block scans: the per-sensor merge against a lexsort oracle.

_lexsort_merge below is the merge as it was written first: the scans'
columns, flattened back into record order, concatenated whole and
deduplicated with one np.lexsort by (sensor, timestamp).
iotdq.pipeline._merge must leave the same _Tally, field for field, while
it holds no full-length column beside the scans' own. _merge consumes
the scans' columns, so the oracle reads them first.
"""

from __future__ import annotations

import os
import re
import tracemalloc
from array import array
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iotdq.pipeline
from conftest import record_order_columns
from iotdq.errors import DatasetRejectedError
from iotdq.ingest import _in_memory
from iotdq.metrics_iat import EVIDENCE_CAP
from iotdq.model import AssessmentConfig
from iotdq.pipeline import _digests, _merge, _Scan, _Tally, assess
from iotdq.report import serialize_report
from iotdq.schema import parse_schema

_ID_TIMESTAMP = AssessmentConfig()
_FULL_PACKET = AssessmentConfig(duplicate_key="full_packet", format_checks="full")


def _lexsort_merge(
    scans: list[_Scan], blocks: list, config: AssessmentConfig
) -> _Tally:
    """The oracle: the scans' columns joined whole, one lexsort."""
    total = sum(scan.total for scan in scans)
    error_count = sum(len(scan.malformed) for scan in scans)
    records_seen = total + error_count
    if records_seen and error_count * 2 > records_seen:
        raise DatasetRejectedError(
            f"{error_count} of {records_seen} records malformed (more than half)"
        )
    violations: Counter = Counter()
    sensor_index: dict[str, int] = {}
    sensor_parts, ts_parts = [np.empty(0, np.intp)], [np.empty(0, np.int64)]
    for scan in scans:
        violations.update(scan.violations)
        remap = np.array(
            [sensor_index.setdefault(s, len(sensor_index)) for s in scan.sensors],
            dtype=np.intp,
        )
        sensor_col, ts_col = record_order_columns(scan)
        sensor_parts.append(remap[np.array(sensor_col, dtype=np.intp)])
        ts_parts.append(np.array(ts_col, dtype=np.int64))
    sensors = np.concatenate(sensor_parts)
    ts = np.concatenate(ts_parts)
    sensor_ids = list(sensor_index)

    order = np.lexsort((ts, sensors))
    by_sensor = sensors[order]
    by_ts = ts[order]
    repeat = (by_sensor[1:] == by_sensor[:-1]) & (by_ts[1:] == by_ts[:-1])
    if config.duplicate_key == "full_packet" and repeat.any():
        tied = np.flatnonzero(
            np.concatenate(([False], repeat)) | np.concatenate((repeat, [False]))
        )
        run = np.cumsum(np.concatenate(([True], ~repeat)))[tied]
        rows = order[tied]
        row_sensors = [sensor_ids[sensors[row]] for row in rows.tolist()]
        digests = _digests(rows, row_sensors, ts[rows].tolist(), scans, blocks, config)
        sort = np.lexsort((digests[:, 1], digests[:, 0], run))
        order[tied] = rows[sort]
        digests = digests[sort]
        pairs = np.flatnonzero(repeat)
        at = np.searchsorted(tied, pairs)
        repeat[pairs] = (digests[at] == digests[at + 1]).all(1)
    first = np.concatenate(([True], ~repeat))[: order.size]

    ends = np.cumsum(np.bincount(by_sensor[first], minlength=len(sensor_ids)))
    ts_buffers = np.split(by_ts[first], ends[:-1]) if sensor_ids else []
    dups = np.bincount(by_sensor[~first], minlength=len(sensor_ids)).tolist()
    dup_examples = [
        [sensor_ids[sensors[i]], int(ts[i])]
        for i in np.sort(order[~first])[:EVIDENCE_CAP]
    ]
    return _Tally(total, violations, dup_examples, sensor_index, ts_buffers, dups)


def _assert_same_merge(
    scans: list[_Scan], blocks: list, config: AssessmentConfig
) -> "_Tally | None":
    """_merge and the oracle leave equal tallies, or raise the same error."""
    try:
        want = _lexsort_merge(scans, blocks, config)
    except DatasetRejectedError as exc:
        with pytest.raises(DatasetRejectedError, match=re.escape(str(exc))):
            _merge(scans, blocks, config)
        return None
    got = _merge(scans, blocks, config)
    assert got.total == want.total
    assert got.violations == want.violations
    assert list(got.sensor_index.items()) == list(want.sensor_index.items())
    assert got.dups == want.dups
    assert got.dup_examples == want.dup_examples
    assert len(got.ts_buffers) == len(want.ts_buffers)
    for kept, wanted in zip(got.ts_buffers, want.ts_buffers):
        assert kept.dtype == wanted.dtype == np.int64
        assert kept.tolist() == wanted.tolist()
    return got


def _scan_of(items: list, violations: Counter | None = None) -> _Scan:
    """A block's scan of items: (sensor id, timestamp) per valid record,
    None per malformed one."""
    malformed = array("q")
    sensors: dict[str, int] = {}
    rows: list[array] = []
    stamps: list[array] = []
    total = 0
    for ordinal, item in enumerate(items):
        if item is None:
            malformed.append(ordinal)
            continue
        sensor_id, timestamp_ms = item
        sidx = sensors.setdefault(sensor_id, len(sensors))
        if sidx == len(rows):
            rows.append(array("I"))
            stamps.append(array("q"))
        rows[sidx].append(total)
        stamps[sidx].append(timestamp_ms)
        total += 1
    scan = _Scan(total, malformed, violations or Counter(), list(sensors), rows, stamps)
    flat = [item for item in items if item is not None]
    sensor_col, ts_col = record_order_columns(scan)
    assert [(scan.sensors[s], t) for s, t in zip(sensor_col, ts_col)] == flat
    return scan


# Few sensors and few instants, so that keys tie often; the int64 ends sort too.
_SENSOR_IDS = ["a", "b", "c", "7", "sensor-e"]
_INSTANTS = st.one_of(st.integers(-3, 5), st.sampled_from([-(2**63), 2**63 - 1]))


@st.composite
def _block_scans(draw) -> list[_Scan]:
    scans = []
    for _ in range(draw(st.integers(1, 4))):
        # Each block meets the sensors in an order of its own.
        names = draw(st.permutations(_SENSOR_IDS))
        pairs = st.tuples(st.sampled_from(names), _INSTANTS)
        items = draw(st.lists(st.one_of(st.none(), pairs, pairs, pairs), max_size=40))
        violations = Counter(draw(st.dictionaries(st.sampled_from(
            [("M4", None), ("M5", None), ("M5", "x"), ("M6", "pm25")]
        ), st.integers(1, 3))))  # fmt: skip
        scans.append(_scan_of(items, violations))
    return scans


@given(scans=_block_scans())
@settings(max_examples=300, deadline=None)
def test_merge_matches_lexsort_oracle(scans: list[_Scan]) -> None:
    _assert_same_merge(scans, [None] * len(scans), _ID_TIMESTAMP)


def test_zero_row_scans_and_no_sensors() -> None:
    empty = _scan_of([])
    only_malformed = _scan_of([None])
    tally = _assert_same_merge([empty, empty], [None, None], _ID_TIMESTAMP)
    assert (tally.total, tally.sensor_index, tally.ts_buffers) == (0, {}, [])
    assert (tally.dups, tally.dup_examples) == ([], [])
    # _merge consumes its scans' columns, so each merge gets new scans.
    items = {"e": [], "r": [("a", 1), ("a", 1), ("b", 0), None], "m": [None]}
    for layout in ("er", "rem", "ere"):
        scans = [_scan_of(items[c]) for c in layout]
        _assert_same_merge(scans, [None] * len(scans), _ID_TIMESTAMP)
    with pytest.raises(DatasetRejectedError):
        _merge([only_malformed, empty], [None, None], _ID_TIMESTAMP)


@pytest.mark.parametrize("sensor_count", [256, 257, 65_536, 65_537])
def test_sensor_indices_past_a_narrow_dtype(sensor_count: int) -> None:
    # 256 sensors fit uint8, 257 need uint16, 65,537 need uint32.
    rng = np.random.default_rng(sensor_count)
    rows = 2 * sensor_count
    sensor_of = np.concatenate(
        (np.arange(sensor_count), rng.integers(0, sensor_count, rows - sensor_count))
    )
    rng.shuffle(sensor_of)
    ts = rng.integers(0, 3, rows)
    items = [(f"s{s}", int(t)) for s, t in zip(sensor_of.tolist(), ts.tolist())]
    # Three blocks, each meeting the sensors in its own order.
    cuts = [0, rows // 3, 2 * rows // 3, rows]
    scans = [_scan_of(items[a:b]) for a, b in zip(cuts, cuts[1:])]
    tally = _assert_same_merge(scans, [None] * 3, _ID_TIMESTAMP)
    assert len(tally.sensor_index) == sensor_count
    assert sum(tally.dups) > EVIDENCE_CAP


def test_duplicate_examples_stay_in_record_order() -> None:
    # Every sensor repeats more than EVIDENCE_CAP times, the sensors
    # interleaved, so each sensor's own first repeats are not the first ones.
    items = []
    for i in range(3 * EVIDENCE_CAP):
        for sensor_id in ("late", "early", "mid"):
            items.append((sensor_id, (i * 7919) % 5))
    scans = [_scan_of(items[: len(items) // 2]), _scan_of(items[len(items) // 2 :])]
    tally = _assert_same_merge(scans, [None, None], _ID_TIMESTAMP)
    assert len(tally.dup_examples) == EVIDENCE_CAP
    seen = {sensor_id for sensor_id, _ in tally.dup_examples}
    assert seen == {"late", "early", "mid"}


# -- full_packet, on NDJSON scanned in blocks -------------------------------

_SCHEMA = parse_schema(
    {
        "properties": {
            "v": {"type": "number", "minimum": 0},
            "note": {"type": "string"},
        },
        "required": ["v"],
    }
)
_JUNK = [b"", b"{x", b"[1]", b'{"sensor_id":"a"}', b'{"timestamp":1,"sensor_id":true}']
_PACKETS = st.tuples(
    st.sampled_from([b'"a"', b'"b"', b"3", b'"c"']),
    st.integers(0, 4),
    st.sampled_from([b"1", b"1.0", b"2", b"-1", b'"x"']),
    st.sampled_from([b"", b',"note":"n"', b',"note":"m"', b',"extra":{"k":1}']),
)


def _ndjson(packets, junk) -> bytes:
    lines = [
        b'{"sensor_id":%s,"timestamp":%d,"v":%s%s}' % (sid, 60 * minute, v, more)
        for sid, minute, v, more in packets
    ]
    for at, line in junk:
        lines.insert(at, line)
    return b"\n".join(lines) + b"\n"


@given(
    packets=st.lists(_PACKETS, min_size=1, max_size=60),
    junk=st.lists(st.tuples(st.integers(0, 60), st.sampled_from(_JUNK)), max_size=6),
    cores=st.integers(1, 4),
)
@settings(max_examples=150, deadline=None)
def test_full_packet_merge_matches_lexsort_oracle(packets, junk, cores) -> None:
    data = _ndjson(packets, junk)
    # The blocks a forked fold would scan, each scanned here.
    with mock.patch.object(iotdq.pipeline, "_BLOCK_MIN_BYTES", 1), mock.patch.object(
        os, "sched_getaffinity", lambda _pid: set(range(cores)), create=True
    ):
        cuts = iotdq.pipeline._cuts(_in_memory(data), "ndjson")
    blocks = [_in_memory(data)._replace(start=start, stop=stop) for start, stop in cuts]
    for config in (_FULL_PACKET, _ID_TIMESTAMP):
        scans = [iotdq.pipeline._scan(b, _SCHEMA.prepared(), config) for b in blocks]
        _assert_same_merge(scans, blocks, config)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no forked fold")
@given(
    packets=st.lists(_PACKETS, min_size=1, max_size=60),
    junk=st.lists(st.tuples(st.integers(0, 60), st.sampled_from(_JUNK)), max_size=6),
    cores=st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_full_packet_assess_matches_lexsort_oracle(packets, junk, cores) -> None:
    data = _ndjson(packets, junk)
    with mock.patch.object(iotdq.pipeline, "_BLOCK_MIN_BYTES", 1), mock.patch.object(
        os, "sched_getaffinity", lambda _pid: set(range(cores))
    ):
        got = want = None
        try:
            got = serialize_report(assess(data, _SCHEMA, _FULL_PACKET))
        except DatasetRejectedError:
            pass
        with mock.patch.object(iotdq.pipeline, "_merge", _lexsort_merge):
            try:
                want = serialize_report(assess(data, _SCHEMA, _FULL_PACKET))
            except DatasetRejectedError:
                pass
    assert got == want


# -- memory -----------------------------------------------------------------


def _synthetic_scan(rows: int, seed: int, sensor_count: int) -> _Scan:
    """rows records of sensor_count sensors, each of which appears, one a
    minute each, 1% of them repeated."""
    rng = np.random.default_rng(seed)
    sensor_col = rng.integers(0, sensor_count, rows)
    ts = (np.arange(rows, dtype=np.int64) // 10) * 60_000 + seed * 10**12
    repeat = rng.random(rows) < 0.01
    ts[1:][repeat[1:]] = ts[:-1][repeat[1:]]
    by_sensor = np.argsort(sensor_col, kind="stable")
    ends = np.cumsum(np.bincount(sensor_col, minlength=sensor_count))
    per_sensor = sorted(np.split(by_sensor, ends[:-1]), key=lambda r: r[0])
    return _Scan(
        rows,
        array("q"),
        Counter(),
        [f"sensor-{sensor_col[r[0]]}" for r in per_sensor],
        [array("I", r.astype(np.uint32).tobytes()) for r in per_sensor],
        [array("q", ts[r].tobytes()) for r in per_sensor],
    )


def test_merge_memory_per_row() -> None:
    rows = 500_000
    scans = [_synthetic_scan(rows, 1, 1_000), _synthetic_scan(rows, 2, 1_000)]
    tracemalloc.start()
    try:
        tally = _merge(scans, [None, None], _ID_TIMESTAMP)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(buffer.size for buffer in tally.ts_buffers) + sum(tally.dups) == 2 * rows
    # The tally's own kept timestamps are 8 bytes a row of this; beside
    # them the merge holds one sensor's temporaries: 9.0 bytes a row in
    # all. A merge through a global row order, narrowed to uint32 from
    # intp beside a uint16 sensor column, read 14.1.
    assert peak <= 11 * 2 * rows, f"{peak / (2 * rows):.1f} bytes a row"
