"""Domain types: registry contents, invariant checks, config round-trip.

Packets and sensor streams are not types; their invariants are checked
on what the fold accepts and emits.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import iats_of, ndjson_bytes
from iotdq.errors import AggregationError, ConfigError
from iotdq.model import (
    DIMENSIONS,
    METRIC_IDS,
    AssessmentConfig,
    IatModel,
    MetricResult,
    QualityReport,
    _normalize_weights,
    registry,
)
from iotdq.pipeline import assess
from iotdq.schema import parse_schema

_T0 = 1_700_000_000_000  # epoch ms
NO_SCHEMA = parse_schema({})


def _report(records: list[dict], duplicate_key: str = "id_timestamp"):
    config = AssessmentConfig(duplicate_key=duplicate_key)
    return assess(ndjson_bytes(records), NO_SCHEMA, config)


class TestRegistry:
    def test_six_metrics_in_order(self) -> None:
        entries = registry()
        assert [m for m, _, _ in entries] == list(METRIC_IDS) == [
            "M1", "M2", "M3", "M4", "M5", "M6",
        ]

    def test_dimension_assignment(self) -> None:
        assert DIMENSIONS["M1"] == "Timeliness"
        assert DIMENSIONS["M2"] == "Consistency"
        assert DIMENSIONS["M3"] == "Uniqueness"
        assert DIMENSIONS["M4"] == "Completeness"
        assert DIMENSIONS["M5"] == "Validity"
        assert DIMENSIONS["M6"] == "Validity"

    def test_descriptions_nonempty(self) -> None:
        assert all(desc for _, _, desc in registry())


class TestDataPacket:
    """A packet is a record the fold accepts: sensor id, ms timestamp, attributes."""

    def test_basic(self) -> None:
        record = {"sensor_id": "s1", "timestamp": _T0 + 1000, "pm25": 12.5}
        report = _report([record, record])
        assert list(report.per_sensor) == ["s1"]
        assert report.result("M3").evidence["examples"] == [["s1", _T0 + 1000]]
        assert report.result("M5").evidence["by_attribute"] == {"pm25": 2}

    def test_empty_sensor_id_rejected(self) -> None:
        records = [
            {"sensor_id": "", "timestamp": 0},
            {"sensor_id": " ", "timestamp": 60},
            {"sensor_id": "s1", "timestamp": 0},
            {"sensor_id": "s1", "timestamp": 60},
        ]
        report = _report(records)
        assert list(report.per_sensor) == ["s1"]
        assert report.result("M3").denominator_count == 2

    def test_non_int_timestamp_rejected(self) -> None:
        # A boolean is no timestamp; fractions of a millisecond are rounded away.
        records = [
            {"sensor_id": "s1", "timestamp": True},
            {"sensor_id": "s1", "timestamp": _T0 + 0.4},
            {"sensor_id": "s1", "timestamp": _T0 + 0.6},
            {"sensor_id": "s1", "timestamp": _T0 + 1.0},
        ]
        m3 = _report(records).result("M3")
        assert m3.denominator_count == 3
        assert m3.evidence["examples"] == [["s1", _T0 + 1]]
        assert type(m3.evidence["examples"][0][1]) is int


class TestSensorStream:
    """A sensor's stream: its deduplicated timestamps, sorted, and their gaps.

    The fold reports it through sensor_iats() and the per_sensor entries.
    """

    def _stream(self, *ms: int, duplicate_key: str = "id_timestamp"):
        records = [{"sensor_id": "s1", "timestamp": _T0 + t, "v": t} for t in ms]
        config = AssessmentConfig(duplicate_key=duplicate_key)
        [(_sid, iats)] = iats_of(ndjson_bytes(records), config)
        return iats, _report(records, duplicate_key).per_sensor["s1"]

    def test_iat_length_tracks_unique_count(self) -> None:
        iats, entry = self._stream(0, 1000, 2000, 2000)
        assert list(iats) == [1.0, 1.0]
        assert entry["iat_count"] == entry["unique_count"] - 1 == 2

    def test_single_packet_has_no_iats(self) -> None:
        iats, entry = self._stream(0)
        assert iats.size == 0
        assert (entry["unique_count"], entry["iat_count"]) == (1, 0)

    def test_unsorted_rejected(self) -> None:
        # Arrival order does not matter: gaps are taken between sorted timestamps.
        iats, _entry = self._stream(2000, 0, 500)
        assert list(iats) == [0.5, 1.5]

    @settings(max_examples=50, deadline=None)
    @given(
        ms=st.lists(st.integers(0, 20), min_size=1, max_size=30),
        duplicate_key=st.sampled_from(["id_timestamp", "full_packet"]),
    )
    def test_iat_length_mismatch_rejected(self, ms: list[int], duplicate_key: str) -> None:
        iats, entry = self._stream(*(t * 1000 for t in ms), duplicate_key=duplicate_key)
        assert iats.size == entry["iat_count"] == max(0, entry["unique_count"] - 1)

    @settings(max_examples=50, deadline=None)
    @given(ms=st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=30))
    def test_negative_iat_rejected(self, ms: list[int]) -> None:
        iats, _entry = self._stream(*ms)
        assert (iats >= 0.0).all()

    @settings(max_examples=50, deadline=None)
    @given(
        ms=st.lists(st.integers(0, 5), min_size=1, max_size=30),
        duplicate_key=st.sampled_from(["id_timestamp", "full_packet"]),
    )
    def test_unique_count_bounds(self, ms: list[int], duplicate_key: str) -> None:
        _iats, entry = self._stream(*ms, duplicate_key=duplicate_key)
        assert 1 <= entry["unique_count"] <= entry["packet_count"] == len(ms)


class TestIatModel:
    def test_regular(self) -> None:
        m = IatModel(mode=60.0, quantization=1.0, mad=0.5)
        assert m.fallback_mean_ad is None

    def test_fallback_required_iff_mad_zero(self) -> None:
        IatModel(mode=60.0, quantization=1.0, mad=0.0, fallback_mean_ad=2.0)
        with pytest.raises(ValueError):
            IatModel(mode=60.0, quantization=1.0, mad=0.0)
        with pytest.raises(ValueError):
            IatModel(mode=60.0, quantization=1.0, mad=0.5, fallback_mean_ad=2.0)

    def test_positive_mode_required(self) -> None:
        with pytest.raises(ValueError):
            IatModel(mode=0.0, quantization=1.0, mad=0.5)
        with pytest.raises(ValueError):
            IatModel(mode=-1.0, quantization=1.0, mad=0.5)


class TestMetricResult:
    def test_score_bounds_enforced(self) -> None:
        with pytest.raises(ValueError):
            MetricResult("M1", 1.2, 0, 0)
        with pytest.raises(ValueError):
            MetricResult("M1", -0.1, 0, 0)

    def test_unknown_metric_rejected(self) -> None:
        with pytest.raises(ValueError):
            MetricResult("M7", 1.0, 0, 0)

    def test_inapplicable(self) -> None:
        r = MetricResult.inapplicable("M2", {"reason": "no iats"})
        assert r.score is None
        assert r.evidence["reason"] == "no iats"

    def test_ratio_zero_total_is_inapplicable(self) -> None:
        assert MetricResult.ratio("M3", 0, 0).score is None

    def test_ratio_violations_capped_at_total(self) -> None:
        with pytest.raises(ValueError):
            MetricResult.ratio("M3", 5, 4)

    @given(
        total=st.integers(min_value=1, max_value=10**9),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_ratio_identity_is_exact(self, total: int, frac: float) -> None:
        bad = min(total, int(frac * total))
        r = MetricResult.ratio("M4", bad, total)
        assert r.score == 1.0 - bad / total
        assert r.numerator_count == bad
        assert r.denominator_count == total
        assert 0.0 <= r.score <= 1.0


class TestNormalizeWeights:
    def _results(self, scores: dict[str, float | None]) -> list[MetricResult]:
        return [
            MetricResult(m, s, 0, 0) if s is None else MetricResult(m, s, 0, 1)
            for m, s in scores.items()
        ]

    def test_equal_weights_of_ones_is_exactly_one(self) -> None:
        results = self._results({m: 1.0 for m in METRIC_IDS})
        _, normalized, aggregate = _normalize_weights(results, {m: 1.0 for m in METRIC_IDS})
        assert aggregate == 1.0
        assert sum(normalized.values()) == pytest.approx(1.0, abs=1e-15)

    def test_inapplicable_metric_excluded_from_normalization(self) -> None:
        results = self._results({"M1": None, "M2": 1.0, "M3": 0.5, "M4": 1.0, "M5": 1.0, "M6": 1.0})
        raw, normalized, aggregate = _normalize_weights(results, {m: 1.0 for m in METRIC_IDS})
        assert "M1" not in normalized
        assert raw["M1"] == 1.0
        assert aggregate == pytest.approx(0.9, abs=1e-12)

    def test_all_inapplicable_raises(self) -> None:
        results = self._results({m: None for m in METRIC_IDS})
        with pytest.raises(AggregationError):
            _normalize_weights(results, {m: 1.0 for m in METRIC_IDS})

    def test_zero_weight_over_applicable_raises(self) -> None:
        results = self._results({"M1": 0.5, "M2": None, "M3": None, "M4": None, "M5": None, "M6": None})
        with pytest.raises(AggregationError):
            _normalize_weights(results, {"M1": 0.0, "M2": 1.0})

    def test_negative_weight_raises(self) -> None:
        results = self._results({m: 1.0 for m in METRIC_IDS})
        with pytest.raises(AggregationError):
            _normalize_weights(results, {"M1": -1.0})

    @given(
        scores=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6
        ),
        weights=st.lists(
            st.floats(min_value=0.01, max_value=100.0), min_size=6, max_size=6
        ),
    )
    def test_aggregate_inside_score_envelope(
        self, scores: list[float], weights: list[float]
    ) -> None:
        results = [MetricResult(m, s, 0, 1) for m, s in zip(METRIC_IDS, scores)]
        wmap = dict(zip(METRIC_IDS, weights))
        _, _, aggregate = _normalize_weights(results, wmap)
        assert min(scores) <= aggregate <= max(scores)


class TestQualityReport:
    def _report(self, aggregate: float) -> QualityReport:
        per_metric = tuple(MetricResult(m, 1.0, 0, 1) for m in METRIC_IDS)
        sixth = 1.0 / 6.0
        return QualityReport(
            per_metric=per_metric,
            weights_raw={m: 1.0 for m in METRIC_IDS},
            weights_normalized={m: sixth for m in METRIC_IDS},
            aggregate_score=aggregate,
            dataset_fingerprint="",
            tool_version="0.0.0",
        )

    def test_consistent_report_accepted(self) -> None:
        report = self._report(1.0)
        assert report.score("M1") == 1.0
        assert report.result("M6").metric_id == "M6"

    def test_inconsistent_aggregate_rejected(self) -> None:
        with pytest.raises(ValueError, match="aggregate"):
            self._report(0.5)

    def test_metric_order_enforced(self) -> None:
        per_metric = tuple(MetricResult(m, 1.0, 0, 1) for m in reversed(METRIC_IDS))
        with pytest.raises(ValueError, match="order"):
            QualityReport(
                per_metric=per_metric,
                weights_raw={m: 1.0 for m in METRIC_IDS},
                weights_normalized={m: 1.0 / 6.0 for m in METRIC_IDS},
                aggregate_score=1.0,
                dataset_fingerprint="",
                tool_version="0.0.0",
            )

    def test_unknown_metric_lookup_raises(self) -> None:
        with pytest.raises(KeyError):
            self._report(1.0).result("M9")


class TestAssessmentConfig:
    def test_defaults(self) -> None:
        cfg = AssessmentConfig()
        assert cfg.timestamp_field == "timestamp"
        assert cfg.rae_crossover == 0.5
        assert cfg.z_cutoff == 3.5
        assert cfg.weights == {m: 1.0 for m in METRIC_IDS}

    def test_partial_weights_filled_with_zero(self) -> None:
        cfg = AssessmentConfig(weights={"M3": 2.0})
        assert cfg.weights == {"M1": 0.0, "M2": 0.0, "M3": 2.0, "M4": 0.0, "M5": 0.0, "M6": 0.0}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timestamp_field": ""},
            {"timestamp_field": "x", "sensor_id_field": "x"},
            {"rae_crossover": 0.0},
            {"z_cutoff": -1.0},
            {"quantization_seconds": 0.0},
            {"mode_scope": "global"},
            {"duplicate_key": "nope"},
            {"format_checks": "all"},
            {"dataset_format": "parquet"},
            {"weights": {"M9": 1.0}},
            {"weights": {"M1": -1.0}},
            {"weights": {m: 0.0 for m in METRIC_IDS}},
        ],
    )
    def test_invalid_config_rejected(self, kwargs: dict) -> None:
        with pytest.raises(ConfigError):
            AssessmentConfig(**kwargs)

    def test_json_round_trip(self) -> None:
        cfg = AssessmentConfig(
            weights={"M1": 2.0, "M2": 1.0},
            quantization_seconds=60.0,
            mode_scope="dataset",
            duplicate_key="full_packet",
            format_checks="full",
            domain="air-quality",
        )
        assert AssessmentConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_json_key_rejected(self) -> None:
        with pytest.raises(ConfigError, match="unknown"):
            AssessmentConfig.from_json(b'{"extra_knob": 1}')

    def test_non_object_json_rejected(self) -> None:
        with pytest.raises(ConfigError):
            AssessmentConfig.from_json(b"[1, 2]")
        with pytest.raises(ConfigError):
            AssessmentConfig.from_json(b"not json")

    @pytest.mark.parametrize(
        "doc",
        [
            b'{"weights": 5}',
            b'{"weights": "ab"}',
            b'{"weights": {"M1": "x"}}',
            b'{"weights": {"M1": null}}',
            b'{"weights": {"M1": 1%s}}' % (b"0" * 400),
            b'{"z_cutoff": "x"}',
            b'{"rae_crossover": null}',
            b'{"quantization_seconds": [60]}',
            b'{"timestamp_field": ["ts"]}',
            b'{"domain": 1}',
            b'{"created_at": 5}',
        ],
        ids=lambda doc: doc.decode()[:32],
    )
    def test_wrongly_typed_json_value_is_config_error(self, doc: bytes) -> None:
        with pytest.raises(ConfigError):
            AssessmentConfig.from_json(doc)
