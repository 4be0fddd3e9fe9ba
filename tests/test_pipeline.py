"""End-to-end assessment: the streaming fold against the reference scorer."""

from __future__ import annotations

import ast
import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import iotdq.ingest
import iotdq.pipeline
from conftest import iats_of, ndjson_bytes
from iotdq.errors import DatasetRejectedError, IngestFormatError
from iotdq.ingest import _in_file, _in_memory
from iotdq.model import AssessmentConfig
from iotdq.pipeline import _cuts, assess, assess_file
from iotdq.report import serialize_report
from iotdq.schema import parse_schema
from iotdq.synthgen import DEFAULT_SCHEMA, GenSpec, generate
from reference import (
    assert_scores_match,
    packet_iats,
    read_packets,
    reference_scores,
)

SCHEMA = parse_schema(DEFAULT_SCHEMA)


_COMBINATIONS = list(
    itertools.product(
        ["id_timestamp", "full_packet"], ["types_only", "full"], ["per_sensor", "dataset"]
    )
)


EDGE_SCHEMA = parse_schema(
    {
        "properties": {
            **DEFAULT_SCHEMA["properties"],
            "status": {"type": "string", "pattern": "^sentinel-"},
            "count": {"type": "integer", "minimum": 0, "maximum": 1000},
            "ok": {"type": "boolean"},
        },
        "required": DEFAULT_SCHEMA["required"],
    }
)
_T0 = 1_767_225_600  # epoch seconds
_DROP = object()  # marks a field that _edge leaves out


def _edge(sensor, timestamp, **fields) -> dict:
    record = {"sensor_id": sensor, "timestamp": timestamp, "pm25": 12.5, "temperature": 20.0}
    record.update(fields)
    return {k: v for k, v in record.items() if v is not _DROP}


def _gaps(sensor: str, iats: list[float]) -> list[dict]:
    stamps = [_T0 + 1000.0]
    for iat in iats:
        stamps.append(stamps[-1] + iat)
    return [_edge(sensor, t) for t in stamps]


# Odd but legal records, schema violations, malformed records and sensors
# that reach the corners of mode election and outlier labelling.
_EDGE_RECORDS = [
    {"sensor_id": " ", "timestamp": _T0},
    {"sensor_id": "", "timestamp": _T0},
    {"sensor_id": True, "timestamp": _T0},
    {"sensor_id": "e", "timestamp": None},
    {"sensor_id": "e", "timestamp": _T0, "xs": [1]},
    *[_edge(7, _T0 + 60 * i) for i in range(4)],
    _edge("7", _T0 + 240),
    *[_edge("iso", f"2026-01-01T00:0{i}:00Z") for i in range(5)],
    _edge("e", _T0, temperature=_DROP, pm25="x"),
    _edge("e", _T0 + 60, pm25=0),
    _edge("e", _T0 + 120, pm25=500.0),
    _edge("e", _T0 + 180, pm25=500.5),
    _edge("e", _T0 + 240, temperature=-40.5),
    _edge("e", _T0 + 300, count=True),
    _edge("e", _T0 + 360, count=3.0),
    _edge("e", _T0 + 420, count=1001),
    _edge("e", _T0 + 480, ok=1),
    _edge("e", _T0 + 540, ok=False),
    _edge("e", _T0 + 600, status="nope"),
    _edge("e", _T0 + 660, status="sentinel-x"),
    _edge("e", _T0 + 720, pm25=None),
    _edge("e", _T0 + 780, meta={"fw": 3, "hw": {"rev": "b"}}),
    # Sub-second gaps: the modal bin is zero until the bins are much finer.
    *_gaps("fast", [0.3] * 6 + [0.5, 0.4]),
    # Two modal bins tie; the smaller one wins.
    *_gaps("tie", [60.0, 60.0, 120.0, 120.0]),
    # Distinct payloads at one instant: degenerate under the full_packet key.
    *[_edge("still", _T0, pm25=float(i)) for i in range(4)],
    # MAD 0.5 around mode 60: z(62.5) = 3.3725, just inside the cutoff.
    *_gaps("near", [60.0] * 5 + [59.0, 61.0, 59.0, 61.0, 62.5]),
]


def _defect_dataset(seed: int) -> bytes:
    """A generated dataset, records that share a timestamp but not a payload,
    and the edge records above."""
    spec = GenSpec(
        sensor_count=3,
        packets_per_sensor=60,
        interval_seconds=60.0,
        jitter_fraction=0.08,
        outlier_rate=0.05,
        duplicate_rate=0.1,
        missing_mandatory_rate=0.05,
        unknown_attr_rate=0.04,
        format_error_rate=0.05,
        seed=seed,
    )
    data, _truth = generate(spec, SCHEMA)
    records = [json.loads(line) for line in data.splitlines()]
    for record in records[seed % 7 :: 11]:
        variant = dict(record)
        variant["pm25"] = 499.5 if variant.get("pm25") != 499.5 else 0.5
        records.append(variant)
    return ndjson_bytes(records + _EDGE_RECORDS)


class TestFoldMatchesModularComposition:
    """assess() gives the scores of the reference scorer in tests/reference.py."""

    @pytest.mark.parametrize("duplicate_key,format_checks,mode_scope", _COMBINATIONS)
    def test_every_config_combination(
        self, duplicate_key: str, format_checks: str, mode_scope: str
    ) -> None:
        config = AssessmentConfig(
            quantization_seconds=60.0,
            duplicate_key=duplicate_key,
            format_checks=format_checks,
            mode_scope=mode_scope,
        )
        for seed in range(4):
            data = _defect_dataset(seed)
            records = [json.loads(line) for line in data.splitlines()]
            array = json.dumps(records).encode()
            for source, fmt in ((data, "ndjson"), (array, "json_array")):
                report = assess(source, EDGE_SCHEMA, replace(config, dataset_format=fmt))
                want = reference_scores(source, EDGE_SCHEMA, config, fmt)
                assert_scores_match(report, want)

    def test_reference_shares_no_scoring_code(self) -> None:
        tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
                imported |= {f"{node.module}.{a.name}" for a in node.names}
        forbidden = {
            "iotdq.pipeline",
            "iotdq.metrics_iat",
            "iotdq._kernels",
            "iotdq.schema._flags_for",
        }
        assert not imported & forbidden
        assert not any(name.startswith(tuple(forbidden)) for name in imported)

    def test_on_generated_defect_datasets(self) -> None:
        for seed in range(8):
            spec = GenSpec(
                sensor_count=3,
                packets_per_sensor=120,
                interval_seconds=60.0,
                jitter_fraction=0.08,
                outlier_rate=0.05,
                duplicate_rate=0.1,
                missing_mandatory_rate=0.05,
                unknown_attr_rate=0.04,
                format_error_rate=0.03,
                seed=seed,
            )
            data, _truth = generate(spec, SCHEMA)
            config = AssessmentConfig(quantization_seconds=60.0)
            report = assess(data, SCHEMA, config)
            assert_scores_match(report, reference_scores(data, SCHEMA, config, "ndjson"))

    def test_with_full_checks_and_full_packet_key(self) -> None:
        spec = GenSpec(
            sensor_count=2,
            packets_per_sensor=80,
            jitter_fraction=0.05,
            duplicate_rate=0.1,
            format_error_rate=0.05,
            seed=42,
        )
        data, _ = generate(spec, SCHEMA)
        config = AssessmentConfig(
            quantization_seconds=60.0,
            duplicate_key="full_packet",
            format_checks="full",
        )
        report = assess(data, SCHEMA, config)
        assert_scores_match(report, reference_scores(data, SCHEMA, config, "ndjson"))

    def test_with_nested_attributes_and_malformed_lines(self) -> None:
        records = [
            {"sensor_id": "a", "timestamp": i * 60, "env": {"pm25": 1.0}, "temperature": 20}
            for i in range(10)
        ]
        data = ndjson_bytes(records) + b'{broken\n{"sensor_id":"a"}\n'
        config = AssessmentConfig()
        report = assess(data, SCHEMA, config)
        assert_scores_match(report, reference_scores(data, SCHEMA, config, "ndjson"))
        # env.pm25 is unknown and pm25 is missing in every record.
        assert report.score("M4") == 0.0
        assert report.score("M5") == 0.0

    def test_same_records_across_formats(self) -> None:
        records = [
            {"sensor_id": f"s{i % 2}", "timestamp": 60 * i, "pm25": float(i), "temperature": 20}
            for i in range(40)
        ]
        records.append(dict(records[5]))
        nd = ndjson_bytes(records)
        ja = json.dumps(records).encode()
        cv = _csv_bytes(records)

        config = AssessmentConfig()
        reports = [
            assess(nd, SCHEMA, config),
            assess(ja, SCHEMA, replace(config, dataset_format="json_array")),
            assess(cv, SCHEMA, replace(config, dataset_format="csv")),
        ]
        for metric_id in ("M1", "M2", "M3", "M4", "M5", "M6"):
            scores = {r.score(metric_id) for r in reports}
            assert len(scores) == 1, metric_id
        for report, source, fmt in zip(reports, (nd, ja, cv), ("ndjson", "json_array", "csv")):
            assert_scores_match(report, reference_scores(source, SCHEMA, config, fmt))
        assert reports[0].score("M3") == pytest.approx(40 / 41)
        fingerprints = {r.dataset_fingerprint for r in reports}
        assert len(fingerprints) == 3


def _line(sensor, minute: int, **fields) -> bytes:
    return json.dumps(_edge(sensor, _T0 + 60 * minute, **fields)).encode()


# NDJSON lines for block cuts to land on: CRLF endings, a lone-CR ending,
# blank lines, a line that is not UTF-8, a sensor first seen late, records
# repeating earlier ones, and a last line without a newline.
_BOUNDARY_LINES = [
    *[_line("a", i) + b"\r\n" for i in range(6)],
    b" " * 80 + b"\n",
    b"\t" * 80 + b"\r\n",
    _line("a", 6)[:-1] + b', "status": "\xff"}\n',
    _line("a", 7) + b"\r" + _line("a", 8) + b"\n",
    *[_line(9, i) + b"\n" for i in range(5)],
    _line("a", 3, pm25=1.0) + b"\n",
    _line("a", 2) + b"\n",
    _line(9, 0, pm25=_DROP) + b"\n",
    b"{broken\n",
    _line(9, 5),
]


class _DiesWhenPickled:
    def __reduce__(self):
        os._exit(3)


@pytest.fixture
def cut_into(monkeypatch):
    """Cut NDJSON of any size into one block per core for the given count,
    and check afterwards that no worker process is left."""

    def cut(cores: int) -> None:
        monkeypatch.setattr(iotdq.pipeline, "_BLOCK_MIN_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cores)))

    yield cut
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _typecode(column) -> str:
    if type(column) is memoryview:
        assert type(column.obj) is bytearray
        return column.format
    return column.typecode


class TestForkedScan:
    """NDJSON scanned in blocks by forked workers scores exactly as in one
    block, and as the reference scorer does."""

    @pytest.mark.parametrize("duplicate_key,format_checks,mode_scope", _COMBINATIONS)
    def test_every_config_combination(
        self, cut_into, tmp_path, duplicate_key: str, format_checks: str, mode_scope: str
    ) -> None:
        config = AssessmentConfig(
            quantization_seconds=60.0,
            duplicate_key=duplicate_key,
            format_checks=format_checks,
            mode_scope=mode_scope,
        )
        sources = [_defect_dataset(seed) for seed in range(2)]
        sources.append(b"".join(_BOUNDARY_LINES))
        path = tmp_path / "data.ndjson"
        for data in sources:
            path.write_bytes(data)
            cut_into(1)
            one_block = serialize_report(assess(data, EDGE_SCHEMA, config))
            want = reference_scores(data, EDGE_SCHEMA, config, "ndjson")
            for cores in (2, 3, len(_BOUNDARY_LINES)):
                cut_into(cores)
                assert len(_cuts(_in_memory(data), "ndjson")) > 1
                report = assess(data, EDGE_SCHEMA, config)
                assert serialize_report(report) == one_block
                assert_scores_match(report, want)
                # Each process reads its own blocks of the file.
                by_path = assess_file(str(path), EDGE_SCHEMA, config)
                assert serialize_report(by_path) == one_block

    def test_worker_columns_come_back_as_bytearray_views(
        self, cut_into, monkeypatch
    ) -> None:
        # Each column arrives as one bytearray, viewed with its array's type:
        # no array is rebuilt from a bytes copy of its pickle.
        merge = iotdq.pipeline._merge
        seen: list = []

        def looking(scans, blocks, config):
            for scan in scans:
                columns = [scan.malformed, *scan.rows, *scan.stamps]
                seen.append({(type(c), _typecode(c)) for c in columns})
            return merge(scans, blocks, config)

        monkeypatch.setattr(iotdq.pipeline, "_merge", looking)
        data = _defect_dataset(0)
        cut_into(1)
        one_block = serialize_report(assess(data, EDGE_SCHEMA, AssessmentConfig()))
        cut_into(3)
        report = assess(data, EDGE_SCHEMA, AssessmentConfig())
        assert serialize_report(report) == one_block
        in_this_process = {(array, "q"), (array, "I")}
        from_a_worker = {(memoryview, "q"), (memoryview, "I")}
        assert seen == [in_this_process, in_this_process, from_a_worker, from_a_worker]

    def test_cuts_fall_after_newlines(self, cut_into, tmp_path, monkeypatch) -> None:
        data = b"".join(_BOUNDARY_LINES)
        cut_into(len(_BOUNDARY_LINES))
        cuts = _cuts(_in_memory(data), "ndjson")
        path = tmp_path / "data.ndjson"
        path.write_bytes(data)
        # A file's cuts are found by reads that start at one byte and grow.
        monkeypatch.setattr(iotdq.ingest, "_PROBE_BYTES", 1)
        with open(path, "rb") as fh:
            assert _cuts(_in_file(fh.fileno(), len(data)), "ndjson") == cuts
        config = AssessmentConfig()
        by_path = assess_file(str(path), EDGE_SCHEMA, config)
        assert by_path == assess(data, EDGE_SCHEMA, config)
        assert [start for start, _ in cuts[1:]] == [stop for _, stop in cuts[:-1]]
        assert (cuts[0][0], cuts[-1][1]) == (0, len(data))
        blocks = [data[start:stop] for start, stop in cuts]
        assert all(block.endswith(b"\n") for block in blocks[:-1])
        assert blocks[-1] == _BOUNDARY_LINES[-1]
        assert any(block.endswith(b"\r\n") for block in blocks)
        assert any(not block.strip() for block in blocks)
        assert any(b"\xff" in block for block in blocks[1:])
        # Sensor 9 appears first in a later block, after sensor "a".
        first_with_9 = next(i for i, b in enumerate(blocks) if b'"sensor_id": 9' in b)
        assert first_with_9 > 0 and b'"sensor_id": "a"' not in blocks[first_with_9]

    def test_duplicates_across_blocks(self, cut_into) -> None:
        data = b"".join(_BOUNDARY_LINES)
        cut_into(len(_BOUNDARY_LINES))
        for duplicate_key, examples in (
            # In record order of the repeats, not of the records they repeat.
            ("id_timestamp", [["a", (_T0 + 180) * 1000], ["a", (_T0 + 120) * 1000],
                              ["9", _T0 * 1000]]),
            ("full_packet", [["a", (_T0 + 120) * 1000]]),
        ):
            report = assess(data, EDGE_SCHEMA, AssessmentConfig(duplicate_key=duplicate_key))
            assert report.result("M3").evidence["examples"] == examples
            assert list(report.per_sensor) == ["a", "9"]

    @pytest.mark.parametrize("cores", [1, 3])
    def test_packet_key_digests_only_tied_rows(self, cut_into, monkeypatch, cores) -> None:
        calls: list[tuple[str, int]] = []
        digest = iotdq.pipeline.packet_key_fields

        def counting(sensor_id: str, timestamp_ms: int, attributes) -> bytes:
            calls.append((sensor_id, timestamp_ms))
            return digest(sensor_id, timestamp_ms, attributes)

        monkeypatch.setattr(iotdq.pipeline, "packet_key_fields", counting)
        cut_into(cores)
        config = AssessmentConfig(duplicate_key="full_packet")
        unique = b"".join(_line("a", i) + b"\n" for i in range(40))
        for data in (_defect_dataset(0), b"".join(_BOUNDARY_LINES), unique):
            assert len(_cuts(_in_memory(data), "ndjson")) == cores
            keys = [(sid, ts) for sid, ts, _ in read_packets(data, config, "ndjson")]
            calls.clear()
            assess(data, EDGE_SCHEMA, config)
            # Once per row whose (sensor, timestamp) another row shares.
            assert sorted(calls) == sorted(k for k in keys if keys.count(k) > 1)
            assert bool(calls) == (data is not unique)

    def test_sensor_iats_match_one_block(self, cut_into) -> None:
        data = _defect_dataset(3)
        config = AssessmentConfig(duplicate_key="full_packet")
        cut_into(3)
        got = iats_of(data, config)
        cut_into(1)
        want = iats_of(data, config)
        assert [sid for sid, _ in got] == [sid for sid, _ in want]
        for (_sid, a), (_same, b) in zip(got, want):
            assert a.tolist() == b.tolist()

    def test_fewer_lines_than_cores(self, cut_into) -> None:
        data = _line("a", 0) + b"\n" + _line("a", 1) + b"\n"
        cut_into(8)
        assert len(_cuts(_in_memory(data), "ndjson")) == 2
        report = assess(data, SCHEMA, AssessmentConfig())
        assert report.per_sensor["a"]["iat_count"] == 1

    def test_rejection_counts_the_whole_source(self, cut_into) -> None:
        good = [_line("a", i) + b"\n" for i in range(4)]
        bad = [b"{x" + b" " * 60 + b"\n"] * 4
        cut_into(8)
        # Each malformed line is a block of its own, rejected alone.
        half = b"".join(bad + good)
        assert len(_cuts(_in_memory(half), "ndjson")) > 4
        assert assess(half, SCHEMA, AssessmentConfig()).result("M3").denominator_count == 4
        with pytest.raises(DatasetRejectedError, match="5 of 9"):
            assess(half + bad[0], SCHEMA, AssessmentConfig())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_replaced_scan_calls_keep_the_scan_in_this_process(
        self, cut_into, monkeypatch
    ) -> None:
        forks: list[int] = []
        scan_blocks = iotdq.pipeline._scan_blocks

        def counting(*args):
            forks.append(len(args[1]))
            return scan_blocks(*args)

        monkeypatch.setattr(iotdq.pipeline, "_scan_blocks", counting)
        data = _defect_dataset(1)
        cut_into(3)
        config = AssessmentConfig(format_checks="full")
        assess(data, EDGE_SCHEMA, config)
        assert forks == [3]
        parse = iotdq.pipeline.parse_timestamp
        calls: list = []
        monkeypatch.setattr(
            iotdq.pipeline,
            "parse_timestamp",
            lambda value: calls.append(value) or parse(value),
        )
        assess(data, EDGE_SCHEMA, config)
        assert forks == [3]
        # Every timestamp was parsed where the wrapper counts.
        stamped = [json.loads(line) for line in data.splitlines()]
        assert len(calls) == sum("timestamp" in record for record in stamped)

    def test_worker_exception_is_raised(self, cut_into, monkeypatch) -> None:
        parent = os.getpid()
        scan = iotdq.pipeline._scan

        def failing(*args):
            if os.getpid() != parent:
                raise ZeroDivisionError("worker failed")
            return scan(*args)

        monkeypatch.setattr(iotdq.pipeline, "_scan", failing)
        cut_into(3)
        with pytest.raises(ZeroDivisionError, match="worker failed"):
            assess(_defect_dataset(0), EDGE_SCHEMA, AssessmentConfig())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_ending_without_a_result(self, cut_into, monkeypatch) -> None:
        parent = os.getpid()
        scan = iotdq.pipeline._scan

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return scan(*args)

        monkeypatch.setattr(iotdq.pipeline, "_scan", dying)
        cut_into(2)
        with pytest.raises(RuntimeError, match="exit 3"):
            assess(_defect_dataset(0), EDGE_SCHEMA, AssessmentConfig())

    def test_worker_dying_mid_result(self, cut_into, monkeypatch) -> None:
        parent = os.getpid()
        scan = iotdq.pipeline._scan

        def dying_mid_result(*args):
            if os.getpid() != parent:
                # Past the pipe's buffer, then the worker dies while pickling.
                return (b"\0" * (1 << 20), _DiesWhenPickled())
            return scan(*args)

        monkeypatch.setattr(iotdq.pipeline, "_scan", dying_mid_result)
        cut_into(2)
        with pytest.raises(RuntimeError, match="exit 3") as raised:
            assess(_defect_dataset(0), EDGE_SCHEMA, AssessmentConfig())
        # The worker wrote 1 MiB, and the stream ended where it died.
        assert isinstance(raised.value.__cause__, EOFError)
        with pytest.raises(ChildProcessError):  # reaped: no zombie is left
            os.waitpid(-1, os.WNOHANG)

    def test_failed_fork_stops_the_started_workers(self, cut_into, monkeypatch) -> None:
        fork = os.fork
        forks: list[int] = []

        def fork_once() -> int:
            if forks:
                raise BlockingIOError("fork refused")
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", fork_once)
        cut_into(3)
        with pytest.raises(BlockingIOError, match="fork refused"):
            assess(_defect_dataset(0), EDGE_SCHEMA, AssessmentConfig())
        assert forks == [1]

    def test_failure_here_stops_the_workers(self, cut_into, monkeypatch) -> None:
        parent = os.getpid()

        def stalled_or_failing(*args):
            if os.getpid() != parent:
                time.sleep(60)
            raise ZeroDivisionError("parent block failed")

        monkeypatch.setattr(iotdq.pipeline, "_scan", stalled_or_failing)
        cut_into(3)
        started = time.monotonic()
        with pytest.raises(ZeroDivisionError, match="parent block failed"):
            assess(_defect_dataset(0), EDGE_SCHEMA, AssessmentConfig())
        assert time.monotonic() - started < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


_MEMORY_SCRIPT = """
import json, os, resource, sys
import numpy, orjson  # the reader imports orjson on first use
from iotdq.model import AssessmentConfig
from iotdq.pipeline import assess_file, sensor_iats
from iotdq.schema import parse_schema
from iotdq.synthgen import DEFAULT_SCHEMA

os.sched_getaffinity = lambda _pid: {0, 1}  # one forked worker on any host
schema = parse_schema(DEFAULT_SCHEMA)
config = AssessmentConfig(quantization_seconds=60.0)
baseline = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
if sys.argv[2] == "assess_file":
    records = assess_file(sys.argv[1], schema, config).result("M3").denominator_count
else:
    records = sum(iats.size + 1 for _, iats in sensor_iats(sys.argv[1], config))
print(json.dumps({
    "baseline": baseline,
    "scoring": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "worker": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    "records": records,
}))
"""


def _peaks_reading_32_mib(tmp_path: Path, function: str) -> tuple[dict, float]:
    """Peak RSS (KiB) of a fresh process that runs function ("assess_file"
    or "sensor_iats") on a 32 MiB NDJSON file, and the file's size in KiB."""
    path = tmp_path / "big.ndjson"
    # 112 bytes a line, near the 126 of the generated benchmark records:
    # past a block, memory grows with the record count.
    line = (
        '{"sensor_id":"sensor-%02d","timestamp":%d,"pm25":%d.5,'
        '"temperature":21.5,"humidity":40.25,"status":"ok"}\n'
    )
    count = 0
    with open(path, "w") as fh:
        while fh.tell() < 32 << 20:
            step, sensor = divmod(count, 10)
            fh.write(line % (sensor, 1_767_225_600 + 60 * step, count % 400))
            count += 1
    child = subprocess.run(
        [sys.executable, "-c", _MEMORY_SCRIPT, str(path), function],
        capture_output=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(Path(iotdq.__file__).parents[1])},
    )
    assert child.returncode == 0, child.stderr.decode(errors="replace")
    peaks = json.loads(child.stdout)
    assert peaks["records"] == count
    # The worker's peak counts the pages it shares with the scoring
    # process after the fork; 0 would mean that nothing was forked.
    assert peaks["worker"] > 0
    return peaks, path.stat().st_size / 1024


def _csv_bytes(records: list[dict]) -> bytes:
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(records[0]))
    writer.writeheader()
    writer.writerows(records)
    return text.getvalue().encode()


class TestAssessFile:
    """assess_file reads a regular NDJSON file in blocks, each process its
    own, and gives the report assess() gives on the file's bytes."""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
    def test_memory_scales_with_a_block_not_with_the_file(self, tmp_path) -> None:
        peaks, size_kib = _peaks_reading_32_mib(tmp_path, "assess_file")
        assert peaks["scoring"] - peaks["baseline"] < size_kib, peaks
        assert peaks["worker"] - peaks["baseline"] < size_kib / 2, peaks

    def test_fifo_is_read_whole(self, tmp_path) -> None:
        data = _defect_dataset(0)
        fifo = tmp_path / "data.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            report = assess_file(str(fifo), EDGE_SCHEMA, AssessmentConfig())
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        want = assess(data, EDGE_SCHEMA, AssessmentConfig())
        assert serialize_report(report) == serialize_report(want)

    def test_file_appended_to_during_the_fold(self, tmp_path, monkeypatch) -> None:
        records = [_edge("a", _T0 + 60 * i) for i in range(20)]
        parse = iotdq.pipeline.parse_timestamp
        for fmt, data in (
            ("ndjson", _defect_dataset(0)),
            ("csv", _csv_bytes(records)),
            ("json_array", json.dumps(records).encode()),
        ):
            path = tmp_path / f"data.{fmt}"
            path.write_bytes(data)
            config = AssessmentConfig(dataset_format=fmt)
            report = assess_file(str(path), EDGE_SCHEMA, config)
            assert report == assess(data, EDGE_SCHEMA, config)
            appended: list[int] = []

            def appending(value):
                # A replaced parse_timestamp also keeps the fold in this process.
                if not appended:
                    with open(path, "ab") as fh:
                        appended.append(fh.write(b"\n"))
                return parse(value)

            monkeypatch.setattr(iotdq.pipeline, "parse_timestamp", appending)
            with pytest.raises(IngestFormatError, match="changed while it was assessed"):
                assess_file(str(path), EDGE_SCHEMA, config)
            assert appended
            monkeypatch.undo()

    def test_a_read_past_the_end_of_the_file_raises(self, tmp_path) -> None:
        path = tmp_path / "data.ndjson"
        path.write_bytes(b"abc")
        with open(path, "rb") as fh:
            read = _in_file(fh.fileno(), 5).read
            assert read(1, 3) == b"bc"
            with pytest.raises(IngestFormatError, match="changed while it was assessed"):
                read(0, 5)

    def test_only_a_forked_fold_starts_a_thread(
        self, cut_into, tmp_path, monkeypatch
    ) -> None:
        data = _defect_dataset(0)
        path = tmp_path / "data.ndjson"
        path.write_bytes(data)
        started: list[threading.Thread] = []
        start = threading.Thread.start

        def counting(thread: threading.Thread) -> None:
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        config = AssessmentConfig()
        want = serialize_report(assess(data, EDGE_SCHEMA, config))
        assert serialize_report(assess_file(str(path), EDGE_SCHEMA, config)) == want
        iats_of(data, config)
        assert started == []
        cut_into(2)
        assert serialize_report(assess(data, EDGE_SCHEMA, config)) == want
        assert len(started) == 1

    def test_only_ingest_opens_a_file(self) -> None:
        tree = ast.parse(Path(iotdq.pipeline.__file__).read_text())
        imported = set()
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
            elif isinstance(node, ast.Call):
                called.add(ast.unparse(node.func))
        assert "stat" not in imported
        # The fold's pipe ends are wrapped with os.fdopen, which opens no path.
        assert not called & {"open", "os.fstat", "os.pread"}

    def test_file_cut_short_during_a_forked_fold(
        self, cut_into, tmp_path, monkeypatch
    ) -> None:
        path = tmp_path / "data.ndjson"
        path.write_bytes(_defect_dataset(0))
        parent = os.getpid()
        scan = iotdq.pipeline._scan

        def truncating(*args):
            if os.getpid() == parent:
                os.truncate(path, 10)
            return scan(*args)

        monkeypatch.setattr(iotdq.pipeline, "_scan", truncating)
        cut_into(3)
        with pytest.raises(IngestFormatError, match="changed while it was assessed"):
            assess_file(str(path), EDGE_SCHEMA, AssessmentConfig())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


    def test_file_rewritten_before_its_tied_rows_are_read_again(
        self, tmp_path, monkeypatch
    ) -> None:
        data = _defect_dataset(0)
        path = tmp_path / "data.ndjson"
        path.write_bytes(data)
        scan = iotdq.pipeline._scan

        def rewriting(*args):
            scanned = scan(*args)
            # The same size, with every line now malformed.
            lines = data.splitlines(keepends=True)
            path.write_bytes(b"".join(b"{".ljust(len(line) - 1) + b"\n" for line in lines))
            return scanned

        monkeypatch.setattr(iotdq.pipeline, "_scan", rewriting)
        config = AssessmentConfig(duplicate_key="full_packet")
        with pytest.raises(IngestFormatError, match="changed while it was assessed"):
            assess_file(str(path), EDGE_SCHEMA, config)


class TestSensorIats:
    """sensor_iats() yields the IATs assess() scores, per sensor."""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
    def test_memory_scales_with_a_block_not_with_the_file(self, tmp_path) -> None:
        peaks, size_kib = _peaks_reading_32_mib(tmp_path, "sensor_iats")
        assert peaks["scoring"] - peaks["baseline"] < size_kib, peaks

    @pytest.mark.parametrize("duplicate_key", ["id_timestamp", "full_packet"])
    def test_matches_reference_grouping(self, duplicate_key: str) -> None:
        config = AssessmentConfig(duplicate_key=duplicate_key)
        for seed in range(6):
            data = _defect_dataset(seed)
            want, _dups = packet_iats(read_packets(data, config, "ndjson"), duplicate_key)
            got = iats_of(data, config)
            assert [sid for sid, _ in got] == list(want)
            for sid, iats in got:
                assert iats.dtype == np.float64
                assert iats.tolist() == want[sid], sid

    def test_format_defaults_to_config(self) -> None:
        records = [{"sensor_id": "a", "timestamp": 60 * i} for i in range(3)]
        config = AssessmentConfig(dataset_format="json_array")
        [(sid, iats)] = iats_of(json.dumps(records).encode(), config)
        assert sid == "a" and iats.tolist() == [60.0, 60.0]

    def test_full_checks_judge_each_signature_once(self, monkeypatch) -> None:
        calls: list = []
        original = iotdq.pipeline._flags_for

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(iotdq.pipeline, "_flags_for", counting)
        records = [
            {"sensor_id": "a", "timestamp": 60 * i, "pm25": 1.0} for i in range(100)
        ]
        config = AssessmentConfig(format_checks="full")
        [(_sid, iats)] = iats_of(ndjson_bytes(records), config)
        assert iats.tolist() == [60.0] * 99
        # One signature, judged once (pm25 is unknown).
        assert calls == [{"pm25": 1.0}]

    def test_empty_source_has_no_sensors(self) -> None:
        assert iats_of(b"", AssessmentConfig()) == []

    def test_majority_malformed_rejected(self) -> None:
        with pytest.raises(DatasetRejectedError, match="malformed"):
            iats_of(b'{"sensor_id":"a","timestamp":0}\n{x\n{y\n', AssessmentConfig())

    def test_gaps_beyond_int64_range_are_exact(self) -> None:
        # -9e18 to 9e18 ms wraps around in int64 subtraction.
        records = [
            {"sensor_id": "a", "timestamp": -9 * 10**18},
            {"sensor_id": "a", "timestamp": 9 * 10**18},
            {"sensor_id": "a", "timestamp": 9 * 10**18 + 61_440},
        ]
        data = ndjson_bytes(records)
        [(_sid, iats)] = iats_of(data, AssessmentConfig())
        assert iats.tolist() == [1.8e16, 61.44]
        report = assess(data, parse_schema({}), AssessmentConfig())
        entry = report.per_sensor["a"]
        assert "degenerate" not in entry
        assert entry["mode"] == 61.0
        assert report.result("M1").evidence["degenerate_sensors"] == []


class TestRejection:
    def test_empty_dataset_rejected(self) -> None:
        with pytest.raises(DatasetRejectedError, match="no valid records"):
            assess(b"", SCHEMA, AssessmentConfig())

    def test_majority_malformed_rejected(self) -> None:
        data = b'{"sensor_id":"a","timestamp":0}\n{x\n{y\n'
        with pytest.raises(DatasetRejectedError, match="malformed"):
            assess(data, SCHEMA, AssessmentConfig())

    def test_exactly_half_malformed_kept(self) -> None:
        data = ndjson_bytes(
            [
                {"sensor_id": "a", "timestamp": 0, "pm25": 1.0, "temperature": 2.0},
                {"sensor_id": "a", "timestamp": 60, "pm25": 1.0, "temperature": 2.0},
            ]
        ) + b"{x\n{y\n"
        report = assess(data, SCHEMA, AssessmentConfig())
        assert report.score("M4") == 1.0


class TestDegenerateSensors:
    def test_zero_gap_sensor_excluded_from_m1_m2(self) -> None:
        # Sensor z emits distinct payloads at one instant: its gaps are all
        # zero under the full_packet key, degenerate down to 1 ms binning.
        records = [
            {"sensor_id": "a", "timestamp": 60 * i, "pm25": 1.0, "temperature": 2.0}
            for i in range(10)
        ] + [
            {"sensor_id": "z", "timestamp": 0, "pm25": float(i), "temperature": 2.0}
            for i in range(5)
        ]
        config = AssessmentConfig(duplicate_key="full_packet")
        report = assess(ndjson_bytes(records), SCHEMA, config)
        assert report.result("M1").evidence["degenerate_sensors"] == ["z"]
        assert report.per_sensor["z"]["degenerate"] is True
        assert report.score("M1") == 1.0
        assert report.result("M2").denominator_count == 9

    def test_all_sensors_degenerate_makes_m1_m2_inapplicable(self) -> None:
        records = [
            {"sensor_id": "z", "timestamp": 0, "pm25": float(i), "temperature": 2.0}
            for i in range(5)
        ]
        config = AssessmentConfig(duplicate_key="full_packet")
        report = assess(ndjson_bytes(records), SCHEMA, config)
        assert report.score("M1") is None
        assert report.score("M2") is None
        assert report.score("M3") == 1.0
        assert sum(report.weights_normalized.values()) == pytest.approx(1.0)

    def test_single_packet_sensors_make_m1_m2_inapplicable(self) -> None:
        records = [
            {"sensor_id": f"s{i}", "timestamp": i, "pm25": 1.0, "temperature": 2.0}
            for i in range(4)
        ]
        report = assess(ndjson_bytes(records), SCHEMA, AssessmentConfig())
        assert report.score("M1") is None
        assert report.score("M2") is None
        assert report.aggregate_score == 1.0


class TestModeScope:
    def _mixed_interval_data(self) -> bytes:
        records = [
            {"sensor_id": "a", "timestamp": 60 * i, "pm25": 1.0, "temperature": 2.0}
            for i in range(11)
        ] + [
            {"sensor_id": "b", "timestamp": 10_000 + 20 * i, "pm25": 1.0, "temperature": 2.0}
            for i in range(6)
        ]
        return ndjson_bytes(records)

    def test_per_sensor_scope_scores_each_stream_against_its_own_mode(self) -> None:
        report = assess(self._mixed_interval_data(), SCHEMA, AssessmentConfig())
        assert report.score("M1") == 1.0
        assert report.per_sensor["a"]["mode"] == 60.0
        assert report.per_sensor["b"]["mode"] == 20.0

    def test_dataset_scope_elects_one_global_mode(self) -> None:
        config = AssessmentConfig(mode_scope="dataset")
        report = assess(self._mixed_interval_data(), SCHEMA, config)
        # Global mode 60: the five 20 s gaps have RAE 2/3 > 0.5, so
        # M1 = 10 / (10 + 5 * (2/3)/0.5) = 0.6.
        assert report.score("M1") == pytest.approx(0.6, abs=1e-12)
        assert report.per_sensor["b"]["mode"] == 60.0
        assert report.result("M1").evidence["mode_scope"] == "dataset"


class TestReportPlumbing:
    def _data(self) -> bytes:
        return ndjson_bytes(
            [
                {"sensor_id": "a", "timestamp": 60 * i, "pm25": 1.0, "temperature": 2.0}
                for i in range(5)
            ]
        )

    def test_fingerprint_is_sha256_of_input(self) -> None:
        data = self._data()
        report = assess(data, SCHEMA, AssessmentConfig())
        assert report.dataset_fingerprint == hashlib.sha256(data).hexdigest()

    def test_per_sensor_bookkeeping(self) -> None:
        data = self._data()
        report = assess(data, SCHEMA, AssessmentConfig())
        entry = report.per_sensor["a"]
        assert entry["packet_count"] == 5
        assert entry["unique_count"] == 5
        assert entry["iat_count"] == 4
        assert entry["mode"] == 60.0
        assert entry["spread_basis"] == "zero_spread"

    def test_created_at_flows_from_config(self) -> None:
        config = AssessmentConfig(created_at="2026-02-03T04:05:06Z")
        report = assess(self._data(), SCHEMA, config)
        assert report.created_at == "2026-02-03T04:05:06Z"

    def test_assess_file_matches_assess(self, tmp_path) -> None:
        data = self._data()
        path = tmp_path / "data.ndjson"
        path.write_bytes(data)
        by_path = assess_file(str(path), SCHEMA, AssessmentConfig())
        by_bytes = assess(data, SCHEMA, AssessmentConfig())
        assert by_path == by_bytes

    def test_duplicate_evidence_lists_offenders(self) -> None:
        records = [
            {"sensor_id": "a", "timestamp": 0, "pm25": 1.0, "temperature": 2.0},
            {"sensor_id": "a", "timestamp": 0, "pm25": 9.0, "temperature": 2.0},
            {"sensor_id": "a", "timestamp": 60, "pm25": 1.0, "temperature": 2.0},
        ]
        report = assess(ndjson_bytes(records), SCHEMA, AssessmentConfig())
        m3 = report.result("M3")
        assert m3.numerator_count == 1
        assert m3.evidence["examples"] == [["a", 0]]
        assert m3.evidence["distinct_keys"] == 2

    def test_full_packet_duplicates_are_per_sensor(self) -> None:
        # Identical payloads from two sensors at one instant are two packets.
        payload = {"timestamp": 0, "pm25": 1.0, "temperature": 2.0}
        records = [
            {"sensor_id": "a", **payload},
            {"sensor_id": "b", **payload},
            {"sensor_id": "a", **payload},
            {"sensor_id": "a", **payload},
            {"sensor_id": "b", **payload, "timestamp": 60},
        ]
        config = AssessmentConfig(duplicate_key="full_packet")
        report = assess(ndjson_bytes(records), SCHEMA, config)
        assert report.result("M3").evidence["examples"] == [["a", 0], ["a", 0]]
        counts = {
            sid: (e["packet_count"], e["unique_count"])
            for sid, e in report.per_sensor.items()
        }
        assert counts == {"a": (3, 1), "b": (2, 2)}
