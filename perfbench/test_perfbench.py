"""Tests of the benchmark's own machinery: correctness gate, tracer, catalogue.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import iotdq.pipeline  # noqa: E402
from catalogue import benchmark_json, per_layer_values  # noqa: E402
from checks import Tally, report_problems  # noqa: E402
from hostspeed import EDGE_BURSTS, REFERENCE_BURST_S, HostSampler, scale_now  # noqa: E402
from iotdq import AssessmentConfig, parse_schema, serialize_report  # noqa: E402
from iotdq.synthgen import DEFAULT_SCHEMA, GenSpec, generate  # noqa: E402
from run import percentile  # noqa: E402
from tracer import LOCAL_PROBES, Tracer, http_route  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLIND = WORKLOADS["blind_roundtrip"]


@pytest.fixture(scope="module")
def blind_case():
    """First dataset of blind_roundtrip at its default seed, and its report."""
    schema = parse_schema(json.dumps(DEFAULT_SCHEMA))
    seed = BLIND.default_seed
    data, truth = generate(GenSpec(seed=BLIND.gen_seed(seed, 0), **BLIND.gen), schema)
    config = AssessmentConfig(**BLIND.config)
    report = serialize_report(iotdq.pipeline.assess(data, schema, config))
    return {
        "schema": schema,
        "config": config,
        "data": data,
        "truth": json.loads(truth.to_json()),
        "sha256": hashlib.sha256(data).hexdigest(),
        "report": report,
        "seed": seed,
    }


def problems_of(case, report: bytes) -> list[str]:
    return report_problems(report, case["truth"], case["sha256"], BLIND, case["seed"])


def test_genuine_report_passes_and_matches_pin(blind_case):
    assert problems_of(blind_case, blind_case["report"]) == []


def test_tampered_count_is_a_failure(blind_case):
    doc = json.loads(blind_case["report"])
    m4 = next(m for m in doc["metrics"] if m["id"] == "M4")
    m4["numerator_count"] += 1
    tampered = json.dumps(doc, separators=(",", ":")).encode() + b"\n"
    found = problems_of(blind_case, tampered)
    assert any(p.startswith("M4 counts") for p in found)
    tally = Tally()
    tally.record(problems_of(blind_case, blind_case["report"]))
    tally.record(found)
    assert (tally.attempted, tally.failed, tally.failed_ratio) == (2, 1, 0.5)


def test_tampered_bytes_fail_the_pin_and_the_parse(blind_case):
    # Same counts, different bytes: only the pinned hash can catch it.
    report = blind_case["report"].replace(b'"aggregate_score":', b'"aggregate_score": ', 1)
    assert any("pinned" in p for p in problems_of(blind_case, report))
    assert problems_of(blind_case, report[:-40])[0].startswith("report is not")


def test_report_of_another_dataset_fails(blind_case):
    found = report_problems(
        blind_case["report"], blind_case["truth"], "0" * 64, BLIND, seed=1
    )
    assert found == ["dataset_fingerprint does not match the dataset"]


def test_traced_assess_gives_the_same_bytes_and_restores_names(blind_case):
    original = iotdq.pipeline.assess
    tracer = Tracer()
    tracer.install(LOCAL_PROBES)
    try:
        assert iotdq.pipeline.assess is not original
        traced = serialize_report(
            iotdq.pipeline.assess(
                blind_case["data"], blind_case["schema"], blind_case["config"]
            )
        )
    finally:
        tracer.uninstall()
    assert iotdq.pipeline.assess is original
    assert traced == blind_case["report"]
    summary = tracer.summary(1)
    assert summary["absent"] == []
    packets = blind_case["truth"]["packets_total"]
    assert summary["counters"]["ingest.records"] == packets
    assert summary["probes"]["ingest.parse_timestamp"][0] == packets
    assert summary["probes"]["metrics_iat.mode"][0] == BLIND.gen["sensor_count"]
    assert summary["key_shapes"] == 3  # clean, missing pm25, extra attribute
    calls, total, self_time = summary["probes"]["pipeline.assess"]
    assert calls == 1 and 0.0 < self_time < total


def test_missing_name_is_reported_absent_not_raised():
    tracer = Tracer()
    tracer.install(
        (
            ("gone.function", ("iotdq.pipeline:no_such_function",), "call"),
            ("gone.module", ("iotdq.no_such_module:assess",), "call"),
            ("gone.attribute", ("iotdq.pipeline:no_such_module.m1_sums",), "call"),
        )
    )
    tracer.uninstall()
    assert tracer.absent == ["gone.function", "gone.module", "gone.attribute"]
    values = per_layer_values(
        tracer.summary(1), {"overhead": 1.0, "generate_s": 0.0, "report_bytes": 0}
    )
    assert values["trace.absent_probes"] == 3.0
    assert values["ingest.iter_records_s"] == 0.0


def test_probe_targets_resolve_today():
    tracer = Tracer()
    from tracer import SETUP_PROBES, WORKFLOW_PROBES

    tracer.install(LOCAL_PROBES + WORKFLOW_PROBES + SETUP_PROBES)
    tracer.uninstall()
    assert tracer.absent == [] and tracer.unresolved == []


@pytest.mark.parametrize(
    ("method", "path", "route"),
    [
        ("PUT", "/objects", "http.put_objects"),
        ("GET", "/objects/ab12", "http.get_objects"),
        ("GET", "/attestation", "http.get_attestation"),
        ("POST", "/attestation", "http.post_attestation"),
        ("POST", "/assessments", "http.post_assessments"),
        ("POST", "/assessments/claim", "http.post_claim"),
        ("POST", "/assessments/ab12/complete", "http.post_complete"),
        ("GET", "/assessments/ab12", "http.get_assessment"),
    ],
)
def test_http_routes(method, path, route):
    assert http_route(method, path) == route


def test_percentile_interpolates():
    assert percentile([3.0], 90) == 3.0
    assert percentile([1.0, 2.0], 50) == 1.5
    assert percentile([float(i) for i in range(1, 101)], 90) == pytest.approx(90.1)


def test_host_sampler_times_bursts_while_the_body_runs():
    with HostSampler() as host:
        time.sleep(0.3)
    assert len(host.bursts) > 2 * EDGE_BURSTS
    assert all(b > 0 for b in host.bursts)
    assert host.scale == REFERENCE_BURST_S / statistics.median(host.bursts)
    assert scale_now() > 0


def test_benchmark_json_matches_catalogue():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == benchmark_json(committed["run_seconds"])


def test_refuses_to_run_without_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "blind_roundtrip",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
