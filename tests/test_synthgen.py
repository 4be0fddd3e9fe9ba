"""Synthetic generator: determinism, exact bookkeeping, feasibility limits."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from conftest import iats_of
from iotdq.errors import ConfigError, GenSpecError
from iotdq.model import AssessmentConfig
from iotdq.pipeline import assess
from iotdq.schema import parse_schema
from iotdq.synthgen import DEFAULT_SCHEMA, GenSpec, generate, iat_histogram

SCHEMA = parse_schema(DEFAULT_SCHEMA)


class TestDeterminism:
    def test_same_spec_same_bytes_and_truth(self) -> None:
        spec = GenSpec(
            sensor_count=2,
            packets_per_sensor=50,
            jitter_fraction=0.1,
            duplicate_rate=0.1,
            missing_mandatory_rate=0.06,
            seed=123,
        )
        data1, truth1 = generate(spec, SCHEMA)
        data2, truth2 = generate(spec, SCHEMA)
        assert data1 == data2
        assert truth1 == truth2

    def test_different_seeds_differ(self) -> None:
        a, _ = generate(GenSpec(packets_per_sensor=50, jitter_fraction=0.1, seed=1), SCHEMA)
        b, _ = generate(GenSpec(packets_per_sensor=50, jitter_fraction=0.1, seed=2), SCHEMA)
        assert a != b


class TestBookkeeping:
    SPEC = GenSpec(
        sensor_count=3,
        packets_per_sensor=100,
        interval_seconds=60.0,
        jitter_fraction=0.08,
        outlier_rate=0.05,
        duplicate_rate=0.1,
        missing_mandatory_rate=0.05,
        unknown_attr_rate=0.04,
        format_error_rate=0.03,
        seed=7,
    )

    def test_emitted_line_count_matches_packets_total(self) -> None:
        data, truth = generate(self.SPEC, SCHEMA)
        lines = [l for l in data.splitlines() if l.strip()]
        assert len(lines) == truth.packets_total == 300

    def test_per_sensor_counts_sum_to_totals(self) -> None:
        _, truth = generate(self.SPEC, SCHEMA)
        assert sum(s["packets"] for s in truth.per_sensor.values()) == truth.packets_total
        assert sum(s["duplicates"] for s in truth.per_sensor.values()) == truth.duplicates
        assert sum(s["iats"] for s in truth.per_sensor.values()) == truth.iat_total
        assert sum(s["outlier_iats"] for s in truth.per_sensor.values()) == truth.outlier_iats

    def test_injected_counts_follow_rates(self) -> None:
        _, truth = generate(self.SPEC, SCHEMA)
        assert truth.duplicates == 30
        assert truth.missing_mandatory == 15
        assert truth.unknown_attrs == 12
        assert truth.format_errors == 9
        # 90 originals per sensor give 89 gaps; round(0.05 * 89) = 4.
        assert truth.outlier_iats == 12
        assert truth.iat_total == 267

    def test_expected_scores_closed_form(self) -> None:
        _, truth = generate(self.SPEC, SCHEMA)
        scores = truth.expected_scores
        assert scores["M1"] is None
        assert scores["M2"] == 1.0 - 12 / 267
        assert scores["M3"] == 0.9
        assert scores["M4"] == 0.95
        assert scores["M5"] == 0.96
        assert scores["M6"] == 0.97

    def test_assessment_reproduces_expected_scores(self) -> None:
        data, truth = generate(self.SPEC, SCHEMA)
        report = assess(data, SCHEMA, AssessmentConfig(quantization_seconds=60.0))
        for metric_id, expected in truth.expected_scores.items():
            if expected is None:
                continue
            assert report.score(metric_id) == expected, metric_id

    def test_duplicate_rate_example(self) -> None:
        spec = GenSpec(packets_per_sensor=1000, duplicate_rate=0.1, seed=5)
        data, truth = generate(spec, SCHEMA)
        assert truth.duplicates == 100
        report = assess(data, SCHEMA, AssessmentConfig(quantization_seconds=60.0))
        assert report.score("M3") == 0.9

    def test_duplicates_are_adjacent_copies_of_clean_packets(self) -> None:
        spec = GenSpec(packets_per_sensor=40, duplicate_rate=0.1, seed=9)
        data, _ = generate(spec, SCHEMA)
        records = [json.loads(l) for l in data.splitlines()]
        dup_positions = [
            i for i in range(1, len(records)) if records[i] == records[i - 1]
        ]
        assert len(dup_positions) == 4

    def test_sentinels_planted_in_string_attributes(self) -> None:
        spec = GenSpec(packets_per_sensor=10, seed=31)
        data, truth = generate(spec, SCHEMA)
        assert truth.sentinel_values == ("sentinel-0000001f-status",)
        assert truth.sentinel_values[0].encode() in data

    def test_unknown_attr_absent_without_injection(self) -> None:
        data, _ = generate(GenSpec(packets_per_sensor=10, seed=1), SCHEMA)
        assert b"unexpected_debug" not in data

    def test_jitter_bounds_hold(self) -> None:
        spec = GenSpec(packets_per_sensor=200, jitter_fraction=0.2, seed=3)
        data, _ = generate(spec, SCHEMA)
        [(_sensor, iats)] = iats_of(data, AssessmentConfig())
        assert (iats >= 60.0 * 0.8 - 0.001).all()
        assert (iats <= 60.0 * 1.2 + 0.001).all()

    def test_spec_json_round_trip(self) -> None:
        assert GenSpec.from_json(self.SPEC.to_json()) == self.SPEC

    def test_spec_json_tolerates_schema_key(self) -> None:
        spec = GenSpec.from_json(b'{"packets_per_sensor": 5, "schema": {}}')
        assert spec.packets_per_sensor == 5

    def test_spec_json_rejects_unknown_keys(self) -> None:
        with pytest.raises(GenSpecError, match="unknown"):
            GenSpec.from_json(b'{"packet_count": 5}')

    def test_spec_json_rejects_an_interval_past_float_range(self) -> None:
        with pytest.raises(GenSpecError):
            GenSpec.from_json(b'{"interval_seconds": 1%s}' % (b"0" * 400))


class TestFeasibility:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sensor_count": 0},
            {"packets_per_sensor": 0},
            {"interval_seconds": 0.0},
            {"jitter_fraction": 0.5},
            {"jitter_fraction": -0.1},
            {"outlier_rate": 1.0},
            {"outlier_magnitude": 1.0},
            {"interval_seconds": 0.001, "jitter_fraction": 0.4},
            {"interval_seconds": math.inf},
            {"interval_seconds": math.nan},
            {"interval_seconds": 10**400},
            {"interval_seconds": "60"},
            {"interval_seconds": True},
            {"outlier_magnitude": math.inf},
            {"outlier_magnitude": math.nan},
            {"sensor_count": 2.0},
            {"sensor_count": True},
            {"packets_per_sensor": 10.5},
            {"packets_per_sensor": "10"},
            {"seed": 1.0},
            {"seed": False},
            {"start_epoch_ms": math.inf},
            {"start_epoch_ms": 1.5e12},
            {"start_epoch_ms": None},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs: dict) -> None:
        with pytest.raises(GenSpecError):
            GenSpec(**kwargs)

    @pytest.mark.parametrize(
        "doc",
        [
            b'{"interval_seconds": 1e400, "packets_per_sensor": 3}',
            b'{"outlier_magnitude": 1e400}',
            b'{"outlier_magnitude": NaN}',
            b'{"start_epoch_ms": 1e400}',
            b'{"start_epoch_ms": 1767225600000.0}',
            b'{"sensor_count": 2.0}',
            b'{"seed": true}',
        ],
    )
    def test_spec_json_rejects_non_finite_and_mistyped_values(self, doc: bytes) -> None:
        with pytest.raises(GenSpecError):
            GenSpec.from_json(doc)

    def test_integral_interval_is_accepted(self) -> None:
        assert GenSpec(interval_seconds=60, outlier_magnitude=5).interval_seconds == 60

    def test_defect_budget_enforced(self) -> None:
        spec = GenSpec(
            packets_per_sensor=10,
            missing_mandatory_rate=0.4,
            unknown_attr_rate=0.4,
            format_error_rate=0.4,
        )
        with pytest.raises(GenSpecError, match="budget"):
            generate(spec, SCHEMA)

    def test_missing_rate_needs_mandatory_attribute(self) -> None:
        schema = parse_schema({"properties": {"x": {"type": "integer"}}})
        with pytest.raises(GenSpecError, match="mandatory"):
            generate(GenSpec(packets_per_sensor=10, missing_mandatory_rate=0.2), schema)

    def test_format_rate_needs_declared_attribute(self) -> None:
        schema = parse_schema({})
        with pytest.raises(GenSpecError, match="declared"):
            generate(GenSpec(packets_per_sensor=10, format_error_rate=0.2), schema)

    def test_unknown_attr_name_must_stay_undeclared(self) -> None:
        schema = parse_schema(
            {"properties": {"unexpected_debug": {"type": "integer"}}}
        )
        with pytest.raises(GenSpecError, match="undeclared"):
            generate(GenSpec(packets_per_sensor=10, unknown_attr_rate=0.2), schema)


class TestHistogram:
    def test_counts_partition_the_sample(self) -> None:
        rng = np.random.default_rng(2)
        iats = 60.0 * (1.0 + rng.uniform(-0.3, 0.3, size=500))
        hist = iat_histogram(iats, 10.0)
        assert sum(c for _, c in hist) == 500
        assert [b for b, _ in hist] == sorted(b for b, _ in hist)

    def test_clean_interval_dominates(self) -> None:
        spec = GenSpec(packets_per_sensor=300, jitter_fraction=0.2, seed=8)
        data, _ = generate(spec, SCHEMA)
        [(_sensor, iats)] = iats_of(data, AssessmentConfig())
        hist = iat_histogram(iats, 60.0)
        top_bin = max(hist, key=lambda bc: bc[1])[0]
        assert top_bin == 60.0

    def test_empty_sample(self) -> None:
        assert iat_histogram([], 1.0) == []

    def test_bad_bin_width_rejected(self) -> None:
        for width in (0.0, -5.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                iat_histogram([1.0], width)
