"""Schema-adherence metric scores (M4-M6) of small datasets run through assess()."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ndjson_bytes
from iotdq.model import AssessmentConfig, MetricResult
from iotdq.pipeline import assess
from iotdq.schema import parse_schema

SCHEMA = parse_schema(
    {
        "properties": {
            "pm25": {"type": "number", "minimum": 0, "maximum": 500},
            "temperature": {"type": "number"},
        },
        "required": ["pm25", "temperature"],
    }
)


def _results(
    attribute_maps: list[dict], checks: str = "types_only"
) -> dict[str, MetricResult]:
    """M4, M5 and M6 of one packet per attribute map."""
    records = [
        {"sensor_id": "s1", "timestamp": 60 * i, **attrs}
        for i, attrs in enumerate(attribute_maps)
    ]
    config = AssessmentConfig(format_checks=checks)
    report = assess(ndjson_bytes(records), SCHEMA, config)
    return {m: report.result(m) for m in ("M4", "M5", "M6")}


class TestM4:
    def test_one_missing_among_four(self) -> None:
        result = _results(
            [
                {"pm25": 1.0, "temperature": 2.0},
                {"pm25": 1.0, "temperature": 2.0},
                {"pm25": 1.0},
                {"pm25": 1.0, "temperature": 2.0},
            ]
        )["M4"]
        assert result.score == 0.75
        assert result.numerator_count == 1
        assert result.denominator_count == 4
        assert result.evidence["by_attribute"] == {"temperature": 1}

    def test_packet_missing_both_counts_once(self) -> None:
        result = _results([{}, {"pm25": 1.0, "temperature": 2.0}])["M4"]
        assert result.score == 0.5
        assert result.evidence["by_attribute"] == {"pm25": 1, "temperature": 1}

    def test_empty_is_inapplicable(self) -> None:
        assert MetricResult.ratio("M4", 0, 0).score is None


class TestM5:
    def test_unknown_attribute_share(self) -> None:
        result = _results(
            [
                {"pm25": 1.0, "temperature": 2.0, "debug": 1},
                {"pm25": 1.0, "temperature": 2.0},
            ]
        )["M5"]
        assert result.score == 0.5
        assert result.evidence["by_attribute"] == {"debug": 1}

    def test_several_unknowns_in_one_packet_count_once(self) -> None:
        result = _results([{"pm25": 1.0, "temperature": 2.0, "a": 1, "b": 2}] * 2)["M5"]
        assert result.score == 0.0
        assert result.numerator_count == 2
        assert result.evidence["by_attribute"] == {"a": 2, "b": 2}

    def test_empty_is_inapplicable(self) -> None:
        assert MetricResult.ratio("M5", 0, 0).score is None


class TestM6:
    def test_type_violation_share(self) -> None:
        result = _results(
            [
                {"pm25": "high", "temperature": 2.0},
                {"pm25": 1.0, "temperature": 2.0},
                {"pm25": 1.0, "temperature": 2.0},
                {"pm25": 1.0, "temperature": 2.0},
            ]
        )["M6"]
        assert result.score == 0.75
        assert result.evidence["by_attribute"] == {"pm25": 1}

    def test_full_checks_count_range_violations(self) -> None:
        maps = [{"pm25": 900.0, "temperature": 2.0}, {"pm25": 1.0, "temperature": 2.0}]
        assert _results(maps, "types_only")["M6"].score == 1.0
        assert _results(maps, "full")["M6"].score == 0.5

    def test_missing_attribute_is_not_a_format_error(self) -> None:
        results = _results([{"pm25": 1.0}])
        assert results["M6"].score == 1.0
        assert results["M4"].score == 0.0

    def test_unknown_attribute_is_not_a_format_error(self) -> None:
        results = _results([{"pm25": 1.0, "temperature": 2.0, "x": "anything"}])
        assert results["M6"].score == 1.0
        assert results["M5"].score == 0.0

    def test_empty_is_inapplicable(self) -> None:
        assert MetricResult.ratio("M6", 0, 0).score is None


class TestCrossMetricIndependence:
    @settings(max_examples=100, deadline=None)
    @given(
        flags=st.lists(
            st.tuples(st.booleans(), st.booleans(), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    def test_each_score_counts_only_its_own_flag(
        self, flags: list[tuple[bool, bool, bool]]
    ) -> None:
        maps = []
        for missing, unknown, bad_type in flags:
            attrs: dict = {"pm25": "x" if bad_type else 1.0, "temperature": 2.0}
            if missing:
                del attrs["temperature"]
            if unknown:
                attrs["extra"] = 1
            maps.append(attrs)
        results = _results(maps)
        n = len(flags)
        assert results["M4"].score == 1.0 - sum(f[0] for f in flags) / n
        assert results["M5"].score == 1.0 - sum(f[1] for f in flags) / n
        assert results["M6"].score == 1.0 - sum(f[2] for f in flags) / n
