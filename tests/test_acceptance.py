"""Acceptance criteria for the release gate.

Each test covers one numbered criterion and prints a single PASS or FAIL
line so the gate can be audited from the test log. Tolerances are pinned
as module constants; count-ratio scores are compared exactly.

Run with `python -m pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import resource
import time
from pathlib import Path

import numpy as np
import pytest
import requests

from conftest import iats_of, ndjson_bytes
from iotdq.model import AssessmentConfig
from iotdq.pipeline import assess
from iotdq.report import aggregate, serialize_report
from iotdq.schema import parse_schema
from iotdq.synthgen import DEFAULT_SCHEMA, GenSpec, generate, iat_histogram
from iotdq.workflow.attestation import compute_code_hash
from iotdq.workflow.clients import (
    ProxyClient,
    assessee_fetch_report,
    assessee_submit,
    assessor_request,
)
from iotdq.workflow.enclave import EnclaveRunner
from iotdq.workflow.proxy import CONTENT_KINDS, GET_SCOPES, PUT_SCOPES, ROLES, ProxyServer
from iotdq.workflow.sealing import KeyPair, seal
from reference import reference_scores

TOL = 1e-12
SCHEMA = parse_schema(DEFAULT_SCHEMA)
SCHEMA_BYTES = json.dumps(DEFAULT_SCHEMA).encode()
METRIC_IDS = ("M1", "M2", "M3", "M4", "M5", "M6")


def criterion(number: int, label: str):
    """Print one auditable PASS/FAIL line per acceptance criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {number} ({label}): FAIL", flush=True)
                raise
            print(f"\ncriterion {number} ({label}): PASS", flush=True)
            return result

        return run

    return wrap


class TestAcceptance:
    @criterion(1, "clean-dataset identity")
    def test_criterion_1_clean_dataset_scores_all_one(self) -> None:
        spec = GenSpec(
            sensor_count=3,
            packets_per_sensor=1000,
            interval_seconds=60.0,
            jitter_fraction=0.10,
            seed=1,
        )
        data, truth = generate(spec, SCHEMA)
        assert truth.packets_total == 3000
        config = AssessmentConfig(quantization_seconds=60.0)
        started = time.perf_counter()
        report = assess(data, SCHEMA, config)
        elapsed = time.perf_counter() - started
        for metric_id in METRIC_IDS:
            assert report.score(metric_id) == 1.0, metric_id
        assert report.aggregate_score == 1.0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"

    @criterion(2, "closed-form oracle equivalence over 50 seeds")
    def test_criterion_2_ground_truth_equivalence(self) -> None:
        config = AssessmentConfig(quantization_seconds=60.0)
        for seed in range(50):
            spec = GenSpec(
                sensor_count=3,
                packets_per_sensor=120,
                interval_seconds=60.0,
                jitter_fraction=0.08,
                outlier_rate=0.05,
                duplicate_rate=0.10,
                missing_mandatory_rate=0.05,
                unknown_attr_rate=0.04,
                format_error_rate=0.03,
                seed=seed,
            )
            data, truth = generate(spec, SCHEMA)
            report = assess(data, SCHEMA, config)
            for metric_id in ("M2", "M3", "M4", "M5", "M6"):
                expected = truth.expected_scores[metric_id]
                got = report.score(metric_id)
                assert got is not None and expected is not None
                assert abs(got - expected) <= TOL, (seed, metric_id)
            independent_m1 = reference_scores(data, SCHEMA, config, "ndjson")["M1"]
            got_m1 = report.score("M1")
            assert got_m1 is not None and independent_m1 is not None
            assert abs(got_m1 - independent_m1) <= TOL, seed

    @criterion(3, "hand-computed fixtures")
    def test_criterion_3_hand_fixtures(self) -> None:
        config = AssessmentConfig(quantization_seconds=1.0)
        no_schema = parse_schema({})

        def one_sensor(iats: list[float]) -> bytes:
            """One sensor whose successive gaps are the given IATs."""
            stamps = [0.0]
            for iat in iats:
                stamps.append(stamps[-1] + iat)
            return ndjson_bytes({"sensor_id": "s", "timestamp": t} for t in stamps)

        report_a = assess(one_sensor([60.0, 60.0, 60.0, 90.0]), no_schema, config)
        assert report_a.score("M1") == 0.75

        report_b = assess(one_sensor([60.0, 60.0, 180.0]), no_schema, config)
        assert report_b.score("M1") == 1.0 / 3.0

        sample = [58.0, 59.0, 60.0, 60.0, 60.0, 61.0, 62.0, 600.0]
        assert assess(one_sensor(sample), no_schema, config).score("M2") == 0.875

        records = [{"sensor_id": "s", "timestamp": i * 60, "v": i} for i in range(8)]
        records += [records[0], records[3]]
        assert assess(ndjson_bytes(records), no_schema, config).score("M3") == 0.8

    @criterion(4, "score bounds, envelope, weight-scaling invariance")
    def test_criterion_4_randomized_property_suite(self) -> None:
        rng = np.random.default_rng(2026)
        for i in range(1000):
            spec = GenSpec(
                sensor_count=int(rng.integers(1, 4)),
                packets_per_sensor=int(rng.integers(15, 61)),
                interval_seconds=float(rng.choice([10.0, 30.0, 60.0])),
                jitter_fraction=float(rng.uniform(0.0, 0.2)),
                outlier_rate=float(rng.uniform(0.0, 0.08)),
                duplicate_rate=float(rng.uniform(0.0, 0.12)),
                missing_mandatory_rate=float(rng.uniform(0.0, 0.08)),
                unknown_attr_rate=float(rng.uniform(0.0, 0.08)),
                format_error_rate=float(rng.uniform(0.0, 0.08)),
                seed=i,
            )
            data, _truth = generate(spec, SCHEMA)
            weights = {
                metric_id: float(rng.uniform(0.1, 3.0)) for metric_id in METRIC_IDS
            }
            config = AssessmentConfig(
                quantization_seconds=spec.interval_seconds, weights=weights
            )
            report = assess(data, SCHEMA, config)
            applicable = [
                r.score for r in report.per_metric if r.score is not None
            ]
            for score in applicable:
                assert 0.0 <= score <= 1.0, i
            assert applicable
            assert min(applicable) <= report.aggregate_score <= max(applicable), i
            scaled = aggregate(
                report.per_metric,
                {k: 3.0 * v for k, v in weights.items()},
                dataset_fingerprint=report.dataset_fingerprint,
            )
            assert abs(scaled.aggregate_score - report.aggregate_score) <= TOL, i

    @criterion(5, "histogram argmax equals the programmed interval")
    def test_criterion_5_unimodal_histograms(self) -> None:
        intervals = [10.0, 30.0, 60.0, 120.0]
        for seed in range(20):
            interval = intervals[seed % len(intervals)]
            jitter = 0.05 + 0.01 * seed  # tops out at 0.24
            spec = GenSpec(
                sensor_count=2,
                packets_per_sensor=200,
                interval_seconds=interval,
                jitter_fraction=min(jitter, 0.25),
                outlier_rate=0.02,
                seed=seed,
            )
            data, _truth = generate(spec, SCHEMA)
            config = AssessmentConfig(quantization_seconds=interval)
            for sensor_id, iats in iats_of(data, config):
                histogram = iat_histogram(iats, interval)
                assert histogram
                dominant = max(histogram, key=lambda pair: pair[1])[0]
                assert dominant == interval, (seed, sensor_id)

    @criterion(6, "workflow privacy, scope enforcement, report identity")
    def test_criterion_6_blind_workflow(self, tmp_path: Path) -> None:
        started = time.perf_counter()
        spec = GenSpec(
            sensor_count=2,
            packets_per_sensor=80,
            jitter_fraction=0.05,
            duplicate_rate=0.05,
            missing_mandatory_rate=0.05,
            seed=60,
        )
        data, truth = generate(spec, SCHEMA)
        sentinels = truth.sentinel_values
        assert sentinels

        server = ProxyServer(str(tmp_path / "store"))
        server.start()
        enclave = EnclaveRunner(server.base_url, server.token_for("enclave"))
        try:
            enclave.register()
            reply_key = KeyPair.generate()
            config = AssessmentConfig(quantization_seconds=60.0, domain="acceptance")
            submitted = assessee_submit(
                data,
                SCHEMA_BYTES,
                server.base_url,
                server.token_for("assessee"),
                domain="acceptance",
                expected_code_hash=compute_code_hash(),
                reply_keypair=reply_key,
            )
            assessment_id = assessor_request(
                config.to_json(),
                submitted.dataset_id,
                submitted.schema_id,
                server.base_url,
                server.token_for("assessor"),
                domain="acceptance",
            )
            assert enclave.run_once() == "done"
            fetched = assessee_fetch_report(
                assessment_id,
                server.base_url,
                server.token_for("assessee"),
                reply_key,
            )
            assert serialize_report(fetched) == serialize_report(
                assess(data, SCHEMA, config)
            )

            store_files = [p for p in server.store.root.rglob("*") if p.is_file()]
            assert store_files
            for path in store_files:
                blob = path.read_bytes()
                for sentinel in sentinels:
                    assert sentinel.encode() not in blob, path

            with ProxyClient(server.base_url, server.token_for("assessor")) as assessor:
                responses = [
                    assessor.request("GET", "/attestation"),
                    assessor.request("GET", f"/assessments/{assessment_id}"),
                    assessor.request("GET", f"/objects/{submitted.dataset_id}"),
                ]
            assert responses[-1].status_code == 403
            for response in responses:
                for sentinel in sentinels:
                    assert sentinel.encode() not in response.content

            recipient = KeyPair.generate()
            denied = 0
            for kind in CONTENT_KINDS:
                for role in ROLES:
                    put = requests.put(
                        f"{server.base_url}/objects",
                        data=seal(b"probe", recipient.public_bytes),
                        headers={
                            "Authorization": f"Bearer {server.token_for(role)}",
                            "X-Content-Kind": kind,
                        },
                        timeout=10,
                    )
                    if role in PUT_SCOPES[kind]:
                        assert put.status_code == 201
                        object_id = put.json()["object_id"]
                        for reader in ROLES:
                            get = requests.get(
                                f"{server.base_url}/objects/{object_id}",
                                headers={
                                    "Authorization": f"Bearer {server.token_for(reader)}"
                                },
                                timeout=10,
                            )
                            if reader in GET_SCOPES[kind]:
                                assert get.status_code == 200
                            else:
                                assert get.status_code == 403, (kind, reader)
                                denied += 1
                    else:
                        assert put.status_code == 403, (kind, role)
                        denied += 1
            route_probes = (
                ("POST", "/assessments", ("assessee", "enclave")),
                ("POST", "/assessments/claim", ("assessee", "assessor")),
                ("POST", "/assessments/x/complete", ("assessee", "assessor")),
                ("POST", "/attestation", ("assessee", "assessor")),
                ("GET", f"/assessments/{assessment_id}", ("enclave",)),
            )
            for method, path, barred_roles in route_probes:
                for role in barred_roles:
                    response = requests.request(
                        method,
                        f"{server.base_url}{path}",
                        data=b"{}",
                        headers={
                            "Authorization": f"Bearer {server.token_for(role)}"
                        },
                        timeout=10,
                    )
                    assert response.status_code == 403, (method, path, role)
                    denied += 1
            assert denied > 0
        finally:
            enclave.close()
            server.stop()
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"

    @criterion(7, "million-packet performance envelope")
    def test_criterion_7_performance_envelope(self) -> None:
        spec = GenSpec(
            sensor_count=10,
            packets_per_sensor=100_000,
            interval_seconds=60.0,
            jitter_fraction=0.10,
            outlier_rate=0.005,
            duplicate_rate=0.01,
            missing_mandatory_rate=0.005,
            unknown_attr_rate=0.005,
            format_error_rate=0.005,
            seed=7,
        )
        data, truth = generate(spec, SCHEMA)
        assert truth.packets_total == 1_000_000
        config = AssessmentConfig(quantization_seconds=60.0)
        started = time.perf_counter()
        report = assess(data, SCHEMA, config)
        elapsed = time.perf_counter() - started
        assert report.aggregate_score is not None
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # The largest reaped child: the fold's forked workers.
        worker_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(
            f"criterion 7: {elapsed:.2f}s, peak rss {peak_kib / 1024:.0f} MiB,"
            f" worker peak rss {worker_kib / 1024:.0f} MiB"
        )
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        assert peak_kib < 1.5 * 1024 * 1024, f"peak rss {peak_kib / 1024:.0f} MiB"
        assert worker_kib < 1.5 * 1024 * 1024, f"worker rss {worker_kib / 1024:.0f} MiB"

    @criterion(8, "deterministic byte-identical reports")
    def test_criterion_8_determinism(self) -> None:
        spec = GenSpec(
            sensor_count=3,
            packets_per_sensor=100,
            jitter_fraction=0.08,
            duplicate_rate=0.06,
            missing_mandatory_rate=0.04,
            seed=88,
        )
        data, _truth = generate(spec, SCHEMA)
        config = AssessmentConfig(quantization_seconds=60.0)
        first = serialize_report(assess(data, SCHEMA, config))
        second = serialize_report(assess(data, SCHEMA, config))
        assert first == second
        assert (
            hashlib.sha256(first).hexdigest() == hashlib.sha256(second).hexdigest()
        )
