"""Weighted aggregation and canonical report serialization."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotdq.errors import AggregationError, IotDqError
from iotdq.model import METRIC_IDS, AssessmentConfig, MetricResult
from iotdq.pipeline import assess
from iotdq.report import aggregate, deserialize_report, serialize_report
from iotdq.schema import parse_schema
from iotdq.synthgen import DEFAULT_SCHEMA, GenSpec, generate

EQUAL = {m: 1.0 for m in METRIC_IDS}


def _results(scores: dict[str, float | None]) -> list[MetricResult]:
    out = []
    for m, s in scores.items():
        if s is None:
            out.append(MetricResult.inapplicable(m))
        else:
            out.append(MetricResult(m, s, 0, 1))
    return out


class TestAggregate:
    def test_all_ones_is_exactly_one(self) -> None:
        report = aggregate(_results({m: 1.0 for m in METRIC_IDS}), EQUAL)
        assert report.aggregate_score == 1.0

    def test_single_imperfect_metric(self) -> None:
        report = aggregate(
            _results({"M1": 1.0, "M2": 1.0, "M3": 0.8, "M4": 1.0, "M5": 1.0, "M6": 1.0}),
            EQUAL,
        )
        assert report.aggregate_score == pytest.approx(29.0 / 30.0, abs=1e-15)
        assert f"{report.aggregate_score:.4f}" == "0.9667"

    def test_missing_metrics_become_inapplicable(self) -> None:
        report = aggregate(_results({"M3": 0.5}), EQUAL)
        assert report.score("M1") is None
        assert report.score("M3") == 0.5
        assert report.aggregate_score == 0.5
        assert report.weights_normalized == {"M3": 1.0}

    def test_renormalization_over_applicable_subset(self) -> None:
        scores = {"M1": None, "M2": None, "M3": 1.0, "M4": 1.0, "M5": 1.0, "M6": 1.0}
        report = aggregate(_results(scores), EQUAL)
        assert report.aggregate_score == 1.0
        assert report.weights_normalized == {m: 0.25 for m in ("M3", "M4", "M5", "M6")}
        assert report.weights_raw["M1"] == 1.0

    def test_unequal_weights(self) -> None:
        scores = {"M1": 1.0, "M2": 0.0, "M3": None, "M4": None, "M5": None, "M6": None}
        report = aggregate(_results(scores), {"M1": 3.0, "M2": 1.0})
        assert report.aggregate_score == pytest.approx(0.75, abs=1e-15)

    def test_duplicate_results_rejected(self) -> None:
        results = _results({"M1": 1.0}) + _results({"M1": 0.5})
        with pytest.raises(AggregationError, match="duplicate"):
            aggregate(results, EQUAL)

    def test_no_applicable_metric_rejected(self) -> None:
        with pytest.raises(AggregationError):
            aggregate(_results({m: None for m in METRIC_IDS}), EQUAL)

    def test_zero_weight_on_only_applicable_rejected(self) -> None:
        with pytest.raises(AggregationError):
            aggregate(_results({"M1": 1.0}), {"M1": 0.0, "M2": 1.0})

    def test_metadata_passthrough(self) -> None:
        report = aggregate(
            _results({"M3": 1.0}),
            EQUAL,
            dataset_fingerprint="ab" * 32,
            created_at="2026-01-01T00:00:00Z",
            per_sensor={"s1": {"packet_count": 3}},
            tool_version="9.9.9",
        )
        assert report.dataset_fingerprint == "ab" * 32
        assert report.created_at == "2026-01-01T00:00:00Z"
        assert report.per_sensor == {"s1": {"packet_count": 3}}
        assert report.tool_version == "9.9.9"

    @settings(max_examples=150, deadline=None)
    @given(
        scores=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6),
        factor=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_weight_scaling_invariance(self, scores: list[float], factor: float) -> None:
        results = _results(dict(zip(METRIC_IDS, scores)))
        a = aggregate(results, EQUAL).aggregate_score
        b = aggregate(results, {m: factor for m in METRIC_IDS}).aggregate_score
        assert b == pytest.approx(a, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        scores=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6),
        weights=st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=6, max_size=6),
    )
    def test_aggregate_bounded_by_scores(
        self, scores: list[float], weights: list[float]
    ) -> None:
        results = _results(dict(zip(METRIC_IDS, scores)))
        report = aggregate(results, dict(zip(METRIC_IDS, weights)))
        assert min(scores) <= report.aggregate_score <= max(scores)


class TestSerialization:
    def _report(self):
        scores = {"M1": 2.0 / 3.0, "M2": 0.875, "M3": 0.9, "M4": 1.0, "M5": 1.0, "M6": None}
        return aggregate(
            _results(scores),
            EQUAL,
            dataset_fingerprint="f" * 64,
            per_sensor={"s2": {"packet_count": 2}, "s1": {"packet_count": 1}},
        )

    def test_top_level_key_order(self) -> None:
        doc = json.loads(serialize_report(self._report()))
        assert list(doc) == [
            "version",
            "dataset_fingerprint",
            "created_at",
            "metrics",
            "per_sensor",
            "weights",
            "aggregate_score",
        ]

    def test_metrics_in_order_with_dimensions(self) -> None:
        doc = json.loads(serialize_report(self._report()))
        assert [m["id"] for m in doc["metrics"]] == list(METRIC_IDS)
        assert [m["dimension"] for m in doc["metrics"]] == [
            "Timeliness",
            "Consistency",
            "Uniqueness",
            "Completeness",
            "Validity",
            "Validity",
        ]

    def test_inapplicable_score_is_null_and_unweighted(self) -> None:
        doc = json.loads(serialize_report(self._report()))
        assert doc["metrics"][5]["score"] is None
        assert "M6" not in doc["weights"]["normalized"]
        assert doc["weights"]["raw"]["M6"] == 1.0

    def test_trailing_newline_and_compact_body(self) -> None:
        data = serialize_report(self._report())
        assert data.endswith(b"\n")
        assert b": " not in data
        assert b", " not in data

    def test_floats_limited_to_12_significant_digits(self) -> None:
        data = serialize_report(self._report())
        doc = json.loads(data)
        assert doc["metrics"][0]["score"] == 0.666666666667

    def test_byte_level_round_trip(self) -> None:
        data = serialize_report(self._report())
        assert serialize_report(deserialize_report(data)) == data

    def test_deterministic_across_rebuilds(self) -> None:
        assert serialize_report(self._report()) == serialize_report(self._report())

    def test_per_sensor_sorted_by_key(self) -> None:
        doc = json.loads(serialize_report(self._report()))
        assert list(doc["per_sensor"]) == ["s1", "s2"]

    def test_null_created_at_by_default(self) -> None:
        doc = json.loads(serialize_report(self._report()))
        assert doc["created_at"] is None

    def test_deserialize_rejects_wrong_shape(self) -> None:
        with pytest.raises(AggregationError, match="shape"):
            deserialize_report(b'{"version":"1"}')
        with pytest.raises(AggregationError, match="JSON"):
            deserialize_report(b"{nope")

    def test_deserialize_validates_invariants(self) -> None:
        data = serialize_report(self._report())
        doc = json.loads(data)
        doc["aggregate_score"] = 0.1
        with pytest.raises(AggregationError, match="aggregate"):
            deserialize_report(json.dumps(doc))

    @settings(max_examples=50, deadline=None)
    @given(
        scores=st.lists(
            st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
            min_size=6,
            max_size=6,
        )
    )
    def test_round_trip_property(self, scores) -> None:
        if all(s is None for s in scores):
            scores = list(scores)
            scores[0] = 0.5
        report = aggregate(_results(dict(zip(METRIC_IDS, scores))), EQUAL)
        data = serialize_report(report)
        assert serialize_report(deserialize_report(data)) == data


def _paths(node, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _replaced(doc, path, value):
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


_schema = parse_schema(DEFAULT_SCHEMA)
_data, _truth = generate(
    GenSpec(sensor_count=2, packets_per_sensor=30, duplicate_rate=0.1,
            outlier_rate=0.05, missing_mandatory_rate=0.05, seed=5),
    _schema,
)
_CANONICAL = serialize_report(assess(_data, _schema, AssessmentConfig()))
_PATHS = list(_paths(json.loads(_CANONICAL)))

_nodes = st.one_of(
    st.integers(),
    st.lists(st.integers(), max_size=3),
    st.text(max_size=5),
    st.none(),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
)


class TestDeserializeFuzz:
    @settings(max_examples=400, deadline=None)
    @given(
        where=st.integers(min_value=0, max_value=len(_PATHS) - 1),
        value=_nodes,
        compact=st.booleans(),
    )
    def test_only_package_errors_escape(self, where: int, value, compact) -> None:
        doc = _replaced(json.loads(_CANONICAL), _PATHS[where], value)
        separators = (",", ":") if compact else None
        data = json.dumps(doc, separators=separators).encode() + b"\n"
        try:
            report = deserialize_report(data)
        except IotDqError:
            return
        assert serialize_report(report) == data

    @pytest.mark.parametrize(
        "doc",
        [
            {"metrics": [1]},
            {"metrics": [{"id": "M1"}]},
            {"weights": {"raw": {}, "normalized": []}},
            {"aggregate_score": 10**400},
        ],
    )
    def test_malformed_nodes_are_aggregation_errors(self, doc) -> None:
        full = json.loads(_CANONICAL)
        full.update(doc)
        with pytest.raises(AggregationError):
            deserialize_report(json.dumps(full))

    @pytest.mark.parametrize(
        "path, value",
        [
            (("metrics", 0, "evidence", "nan"), float("nan")),
            (("weights", "raw"), 3),
        ],
    )
    def test_reports_that_do_not_serialize_back_are_refused(self, path, value) -> None:
        doc = _replaced(json.loads(_CANONICAL), path, value)
        data = json.dumps(doc, separators=(",", ":")) + "\n"
        with pytest.raises(AggregationError, match="canonical form"):
            deserialize_report(data)

    def test_canonical_text_is_accepted_as_its_utf8(self) -> None:
        assert serialize_report(deserialize_report(_CANONICAL.decode())) == _CANONICAL
        with pytest.raises(AggregationError, match="canonical form"):
            deserialize_report(_CANONICAL.rstrip(b"\n"))
