"""Inter-arrival-time metrics against hand-computed fixtures and properties.

Every fixture value in this file was frozen by hand before the metric
code existed; none was produced by running the implementation. M1 and
M2 are computed here from the building blocks assess() composes
(quantize, _kernels.m1_sums, m1_from_sums, z_scores); the fixtures of
criterion 3 also run through assess() itself in test_acceptance.py.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iotdq
from conftest import ndjson_bytes
from iotdq import _kernels
from iotdq.errors import ConfigError, DegenerateIatError
from iotdq.metrics_iat import (
    MEAN_AD_CONSTANT,
    MIN_QUANTIZATION,
    MOD_Z_CONSTANT,
    estimate_mode,
    m1_from_sums,
    packet_key_fields,
    quantize,
    z_scores,
)
from iotdq.model import AssessmentConfig, IatModel, MetricResult
from iotdq.pipeline import assess
from iotdq.schema import parse_schema
from reference import m1_transcription

NO_SCHEMA = parse_schema({})
_ASTRAL = "\U0001f600"
_SURROGATE_PAIR = "\ud83d\ude00"  # two code points, one json.dumps text
# Values where orjson.dumps and json.dumps part ways, and their neighbours.
_DIGEST_VALUES = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e30, None,
    True, False, 0, 1, 1.0, 2**63, 2**64, 2**64 - 1, -(2**63), -(2**63) - 1,
    10**30, "\ud800", "\udc00", "\ud83d", _ASTRAL, _SURROGATE_PAIR,
    _SURROGATE_PAIR + "\ud800", "null", "NaN", "x\null", "", "\u00e9", "\u03a9",
    {"v": None}, {"v": float("nan")}, [None], [float("inf")],
]  # fmt: skip
_DIGEST_KEYS = ["x", "y", "null", "\uffff", "\ud83d", _ASTRAL, _SURROGATE_PAIR]


def _m1_reference(iats_quantized, mode: float, crossover: float = 0.5) -> float:
    """Straight per-element transcription of the regularity formula."""
    numerator, denominator = m1_transcription(iats_quantized, mode, crossover)
    return numerator / denominator


def _m1(iats, model: IatModel, crossover: float = 0.5) -> MetricResult:
    """M1 of one sensor's IATs, composed as assess() composes it."""
    binned = quantize(iats, model.quantization)
    return m1_from_sums(*_kernels.m1_sums(binned, model.mode, crossover), crossover)


def _m2(iats, model: IatModel, z_cutoff: float = 3.5) -> MetricResult:
    """M2 of one sensor's IATs, composed as assess() composes it."""
    z, basis = z_scores(iats, model)
    absz = np.abs(z)
    outliers = np.nonzero(absz > z_cutoff)[0]
    evidence = {
        "spread_basis": basis,
        "max_abs_z": float(absz.max()) if absz.size else 0.0,
        "outlier_indices": outliers.tolist(),
    }
    return MetricResult.ratio("M2", int(outliers.size), len(z), evidence)


def _m3(keys: list[tuple[str, int]], duplicate_key: str = "id_timestamp"):
    """M3 of packets (sensor, ms offset) whose attribute v is their position."""
    records = [
        {"sensor_id": s, "timestamp": 1_700_000_000_000 + t, "v": i}
        for i, (s, t) in enumerate(keys)
    ]
    config = AssessmentConfig(duplicate_key=duplicate_key)
    return assess(ndjson_bytes(records), NO_SCHEMA, config).result("M3")


def _m2_reference(iats, model: IatModel, cutoff: float = 3.5) -> float:
    """Straight per-element transcription of the outlier-share formula."""
    outliers = 0
    for x in iats:
        dev = x - model.mode
        if model.mad > 0.0:
            z = MOD_Z_CONSTANT * dev / model.mad
        elif model.fallback_mean_ad and model.fallback_mean_ad > 0.0:
            z = MEAN_AD_CONSTANT * dev / model.fallback_mean_ad
        else:
            z = 0.0
        if abs(z) > cutoff:
            outliers += 1
    return 1.0 - outliers / len(iats)


class TestQuantize:
    def test_rounds_to_nearest_step(self) -> None:
        out = quantize([59.7, 60.2, 60.4, 120.1], 1.0)
        np.testing.assert_array_equal(out, [60.0, 60.0, 60.0, 120.0])

    def test_coarse_step(self) -> None:
        out = quantize([57.0, 63.0, 95.0], 60.0)
        np.testing.assert_array_equal(out, [60.0, 60.0, 120.0])

    def test_nonpositive_step_rejected(self) -> None:
        with pytest.raises(ValueError):
            quantize([1.0], 0.0)


class TestEstimateMode:
    def test_mixed_sample_elects_modal_bin(self) -> None:
        model = estimate_mode([59.7, 60.2, 60.4, 120.1], 1.0)
        assert model.mode == 60.0
        assert model.quantization == 1.0

    def test_constant_sample_has_zero_spread(self) -> None:
        model = estimate_mode([60.0, 60.0, 60.0], 1.0)
        assert model.mode == 60.0
        assert model.mad == 0.0
        assert model.fallback_mean_ad == 0.0

    def test_tie_breaks_to_smallest(self) -> None:
        model = estimate_mode([30.0, 30.0, 60.0, 60.0], 1.0)
        assert model.mode == 30.0

    def test_mad_on_unquantized_deviations(self) -> None:
        model = estimate_mode([58.0, 59.0, 60.0, 60.0, 60.0, 61.0, 62.0, 600.0], 1.0)
        assert model.mode == 60.0
        assert model.mad == 1.0
        assert model.fallback_mean_ad is None

    def test_fallback_mean_ad_when_mad_zero(self) -> None:
        model = estimate_mode([60.0] * 9 + [600.0], 1.0)
        assert model.mode == 60.0
        assert model.mad == 0.0
        assert model.fallback_mean_ad == 54.0

    def test_zero_mode_retries_with_finer_bins(self) -> None:
        # 0.3 s gaps land in bin 0 at 1 s quantization; one retry at 0.1 s
        # yields a positive mode.
        model = estimate_mode([0.3, 0.3, 0.3, 60.0], 1.0)
        assert model.mode == pytest.approx(0.3)
        assert model.quantization == pytest.approx(0.1)

    def test_degenerate_when_zero_down_to_min_quantization(self) -> None:
        with pytest.raises(DegenerateIatError):
            estimate_mode([0.0, 0.0, 0.0], 1.0)
        with pytest.raises(DegenerateIatError):
            estimate_mode([0.0002, 0.0003], 0.001)

    def test_retry_stops_at_min_quantization(self) -> None:
        assert MIN_QUANTIZATION == 0.001

    def test_empty_sample_rejected(self) -> None:
        with pytest.raises(ValueError):
            estimate_mode([], 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        base=st.floats(min_value=0.01, max_value=10_000.0),
        n=st.integers(min_value=1, max_value=50),
    )
    def test_mode_always_positive(self, base: float, n: int) -> None:
        iats = [base] * n
        try:
            model = estimate_mode(iats, 1.0)
        except DegenerateIatError:
            pytest.fail("constant positive sample must not degenerate")
        assert model.mode > 0.0


class TestM1Fixtures:
    def test_one_gap_at_the_crossover(self) -> None:
        # RAEs [0, 0, 0, 0.5]: numerator 1+1+1+0 = 3, denominator 4.
        model = estimate_mode([60.0, 60.0, 60.0, 90.0], 1.0)
        result = _m1([60.0, 60.0, 60.0, 90.0], model)
        assert result.score == 0.75
        assert result.evidence["good_count"] == 4
        assert result.evidence["poor_count"] == 0

    def test_one_gap_beyond_the_crossover(self) -> None:
        # RAE(180) = 2: numerator 2, denominator 2 + 2/0.5 = 6.
        model = estimate_mode([60.0, 60.0, 180.0], 1.0)
        result = _m1([60.0, 60.0, 180.0], model)
        assert result.score == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert result.evidence["good_count"] == 2
        assert result.evidence["poor_count"] == 1
        assert result.evidence["denominator_sum"] == 6.0

    def test_perfect_stream_scores_one(self) -> None:
        iats = [60.0] * 100
        model = estimate_mode(iats, 1.0)
        assert _m1(iats, model).score == 1.0

    def test_empty_is_inapplicable(self) -> None:
        model = IatModel(mode=60.0, quantization=1.0, mad=0.5)
        assert _m1([], model).score is None

    def test_jitter_below_half_bin_collapses_onto_mode(self) -> None:
        rng = np.random.default_rng(3)
        iats = 60.0 * (1.0 + rng.uniform(-0.1, 0.1, size=500))
        model = estimate_mode(iats, 60.0)
        assert model.mode == 60.0
        assert _m1(iats, model).score == 1.0

    def test_custom_crossover(self) -> None:
        # RAE(90) = 0.5 exceeds crossover 0.25: numerator 3, denominator 3 + 2.
        model = estimate_mode([60.0, 60.0, 60.0, 90.0], 1.0)
        result = _m1([60.0, 60.0, 60.0, 90.0], model, crossover=0.25)
        assert result.score == 0.6

    def test_m1_from_sums_merges_like_single_pass(self) -> None:
        model = estimate_mode([60.0] * 6 + [90.0, 180.0], 1.0)
        whole = _m1([60.0] * 6 + [90.0, 180.0], model)
        a = _m1([60.0] * 6, model)
        b = _m1([90.0, 180.0], model)
        merged = m1_from_sums(
            a.evidence["numerator_sum"] + b.evidence["numerator_sum"],
            (a.evidence["denominator_sum"] - a.evidence["good_count"])
            + (b.evidence["denominator_sum"] - b.evidence["good_count"]),
            a.evidence["good_count"] + b.evidence["good_count"],
            a.evidence["poor_count"] + b.evidence["poor_count"],
            0.5,
        )
        assert merged.score == pytest.approx(whole.score, abs=1e-15)

    def test_m1_from_sums_empty_is_inapplicable(self) -> None:
        assert m1_from_sums(0.0, 0.0, 0, 0, 0.5).score is None


class TestM1ReferenceEquivalence:
    def test_matches_literal_formula_on_random_samples(self) -> None:
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(1, 400))
            base = float(rng.choice([5.0, 30.0, 60.0, 600.0]))
            iats = base * (1.0 + rng.normal(0.0, 0.15, size=n))
            iats[rng.random(n) < 0.1] *= float(rng.uniform(2.0, 20.0))
            iats = np.abs(iats) + 1e-9
            try:
                model = estimate_mode(iats, 1.0)
            except DegenerateIatError:
                continue
            got = _m1(iats, model).score
            want = _m1_reference(quantize(iats, model.quantization), model.mode)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_matches_literal_formula_with_custom_crossover(self) -> None:
        rng = np.random.default_rng(19)
        for crossover in (0.1, 0.5, 1.0, 2.0):
            iats = np.abs(60.0 + rng.normal(0.0, 25.0, size=300)) + 1e-9
            model = estimate_mode(iats, 1.0)
            got = _m1(iats, model, crossover=crossover).score
            want = _m1_reference(
                quantize(iats, model.quantization), model.mode, crossover
            )
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        scale=st.floats(min_value=0.01, max_value=1000.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_scale_invariance(self, scale: float, seed: int) -> None:
        rng = np.random.default_rng(seed)
        iats = np.abs(60.0 + rng.normal(0.0, 10.0, size=50)) + 1e-9
        model = estimate_mode(iats, 1.0)
        scaled_model = IatModel(
            mode=model.mode * scale,
            quantization=model.quantization * scale,
            mad=model.mad * scale,
            fallback_mean_ad=(
                None if model.fallback_mean_ad is None
                else model.fallback_mean_ad * scale
            ),
        )
        a = _m1(iats, model).score
        b = _m1(iats * scale, scaled_model).score
        assert b == pytest.approx(a, rel=1e-9, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        iats=st.lists(
            st.floats(min_value=0.5, max_value=1e5, allow_nan=False),
            min_size=1,
            max_size=100,
        )
    )
    def test_score_stays_in_unit_interval(self, iats: list[float]) -> None:
        model = estimate_mode(iats, 1.0)
        score = _m1(iats, model).score
        assert score is not None
        assert 0.0 <= score <= 1.0


class TestRaeValues:
    def test_window_matches_crossover_rule(self) -> None:
        iats = [60.0, 60.0, 60.0, 90.0, 180.0, 29.0, 31.0]
        model = estimate_mode(iats, 1.0)
        binned = quantize(iats, model.quantization)
        _num, _poor_den, good, poor = _kernels.m1_sums(binned, model.mode, 0.5)
        inside = [abs(x - model.mode) <= 0.5 * model.mode for x in binned]
        assert (good, poor) == (sum(inside), len(inside) - sum(inside)) == (5, 2)

    def test_negative_rae_rejected(self) -> None:
        # RAE is an absolute error: gaps 30 and 90 both sit at RAE 0.5 of
        # mode 60, on the crossover, so each adds 0 to the numerator.
        num, poor_den, good, poor = _kernels.m1_sums(np.array([30.0, 90.0]), 60.0, 0.5)
        assert (num, poor_den, good, poor) == (0.0, 0.0, 2, 0)


class TestM2Fixtures:
    FIXTURE = [58.0, 59.0, 60.0, 60.0, 60.0, 61.0, 62.0, 600.0]

    def test_single_outlier_with_mad_spread(self) -> None:
        # mode 60, MAD 1.0, z(600) = 0.6745 * 540 / 1 = 364.23: one of eight.
        model = estimate_mode(self.FIXTURE, 1.0)
        result = _m2(self.FIXTURE, model)
        assert result.score == 0.875
        assert result.evidence["spread_basis"] == "mad"
        assert result.evidence["max_abs_z"] == pytest.approx(364.23, abs=1e-9)
        assert result.evidence["outlier_indices"] == [7]

    def test_fallback_mean_ad_spread(self) -> None:
        # MAD 0 falls back to mean absolute deviation 54.0;
        # z(600) = 0.7979 * 540 / 54 = 7.979 exceeds 3.5.
        iats = [60.0] * 9 + [600.0]
        model = estimate_mode(iats, 1.0)
        result = _m2(iats, model)
        assert result.score == 0.9
        assert result.evidence["spread_basis"] == "mean_ad"
        assert result.evidence["max_abs_z"] == pytest.approx(7.979, abs=1e-9)

    def test_zero_spread_means_no_outliers(self) -> None:
        iats = [60.0] * 5
        model = estimate_mode(iats, 1.0)
        result = _m2(iats, model)
        assert result.score == 1.0
        assert result.evidence["spread_basis"] == "zero_spread"

    def test_empty_is_inapplicable(self) -> None:
        model = IatModel(mode=60.0, quantization=1.0, mad=1.0)
        assert _m2([], model).score is None

    def test_cutoff_is_strict_inequality(self) -> None:
        # A z exactly equal to the cutoff must not flag; just below it must.
        model = IatModel(mode=60.0, quantization=1.0, mad=1.0)
        z = float(z_scores([65.0], model)[0][0])
        assert z > 0.0
        assert _m2([65.0], model, z_cutoff=z).numerator_count == 0
        assert _m2([65.0], model, z_cutoff=z * (1.0 - 1e-9)).numerator_count == 1

    def test_matches_literal_formula_on_random_samples(self) -> None:
        rng = np.random.default_rng(23)
        for _ in range(500):
            n = int(rng.integers(2, 300))
            iats = np.abs(60.0 * (1.0 + rng.normal(0.0, 0.1, size=n))) + 1e-9
            iats[rng.random(n) < 0.08] *= 12.0
            model = estimate_mode(iats, 1.0)
            got = _m2(iats, model).score
            want = _m2_reference(iats, model)
            assert got == want

    def test_z_scores_spread_basis_labels(self) -> None:
        z, basis = z_scores([60.0, 600.0], IatModel(60.0, 1.0, 1.0))
        assert basis == "mad"
        z, basis = z_scores([60.0], IatModel(60.0, 1.0, 0.0, fallback_mean_ad=2.0))
        assert basis == "mean_ad"
        z, basis = z_scores([60.0], IatModel(60.0, 1.0, 0.0, fallback_mean_ad=0.0))
        assert basis == "zero_spread"
        assert list(z) == [0.0]

    def test_label_fields(self) -> None:
        # z(600) = 0.6745 * 540 / 1 = 364.23 flags the second IAT only.
        model = IatModel(mode=60.0, quantization=1.0, mad=1.0)
        result = _m2([60.0, 600.0], model)
        assert result.evidence["outlier_indices"] == [1]
        assert result.evidence["max_abs_z"] == pytest.approx(364.23, abs=1e-9)


class TestM3Fixtures:
    def test_two_duplicates_among_ten(self) -> None:
        keys = [("a", i * 1000) for i in range(8)]
        result = _m3(keys + [keys[0], keys[3]])
        assert result.score == 0.8
        assert result.numerator_count == 2
        assert result.evidence["distinct_keys"] == 8
        t0 = 1_700_000_000_000
        assert result.evidence["examples"] == [["a", t0], ["a", t0 + 3000]]

    def test_no_duplicates(self) -> None:
        assert _m3([("a", 0), ("a", 1000), ("b", 0)]).score == 1.0

    def test_empty_is_inapplicable(self) -> None:
        assert MetricResult.ratio("M3", 0, 0).score is None

    def test_full_packet_key_distinguishes_attribute_changes(self) -> None:
        records = [
            {"sensor_id": "a", "timestamp": 0, "v": 1},
            {"sensor_id": "a", "timestamp": 0, "v": 2},
            {"sensor_id": "a", "timestamp": 0, "v": 1},
        ]
        counts = {}
        for key in ("id_timestamp", "full_packet"):
            config = AssessmentConfig(duplicate_key=key)
            report = assess(ndjson_bytes(records), NO_SCHEMA, config)
            counts[key] = report.result("M3").numerator_count
        assert counts == {"id_timestamp": 2, "full_packet": 1}

    def test_full_packet_key_ignores_attribute_order(self) -> None:
        a = packet_key_fields("a", 0, {"x": 1, "y": 2})
        b = packet_key_fields("a", 0, {"y": 2, "x": 1})
        assert a == b
        assert a != packet_key_fields("a", 0, {"x": 1, "y": 3})

    def test_full_packet_key_follows_json_text_at_orjson_edges(self) -> None:
        def same(x, y) -> bool:
            return packet_key_fields("a", 0, {"x": x}) == packet_key_fields(
                "a", 0, {"x": y}
            )

        # orjson writes NaN and the infinities as null, like None.
        assert not same(float("nan"), None)
        assert not same(float("inf"), float("-inf"))
        assert same(float("nan"), float("nan")) and same(None, None)
        assert not same({"v": float("nan")}, {"v": None})
        assert not same([None], [float("-inf")])
        assert not same(-0.0, 0.0)
        assert not same(True, 1) and not same(1, 1.0)
        # orjson raises on these; json.dumps writes them.
        assert same(2**64, 2**64) and not same(2**64, 2**64 - 1)
        assert not same("\ud800", "\udc00")
        # A surrogate pair held as two code points has the json.dumps text
        # of the character it encodes.
        assert same(_SURROGATE_PAIR, _ASTRAL)
        assert packet_key_fields(_SURROGATE_PAIR, 0, {_SURROGATE_PAIR: 1}) == (
            packet_key_fields(_ASTRAL, 0, {_ASTRAL: 1})
        )
        # Key order differs between the two forms, and so does the text.
        assert packet_key_fields("a", 0, {_SURROGATE_PAIR: 1, "\uffff": 2}) != (
            packet_key_fields("a", 0, {_ASTRAL: 1, "\uffff": 2})
        )

    @settings(max_examples=400, deadline=None)
    @given(
        packets=st.lists(
            st.tuples(
                st.sampled_from(["a", _ASTRAL, _SURROGATE_PAIR]),
                st.integers(0, 1),
                st.dictionaries(
                    st.sampled_from(_DIGEST_KEYS),
                    st.sampled_from(_DIGEST_VALUES),
                    max_size=3,
                ),
            ),
            min_size=2,
            max_size=12,
        )
    )
    def test_full_packet_digests_equal_exactly_when_json_texts_do(
        self, packets: list
    ) -> None:
        def twin(value):
            # What orjson may confuse with value: None and NaN, which it
            # writes alike, and a surrogate pair and the character it
            # encodes, which json.dumps writes alike.
            if value is None:
                return float("nan")
            if type(value) is float and value != value:
                return None
            if type(value) is str:
                return (
                    value.replace(_SURROGATE_PAIR, "\0")
                    .replace(_ASTRAL, _SURROGATE_PAIR)
                    .replace("\0", _ASTRAL)
                )
            if type(value) is dict:
                return {twin(k): twin(v) for k, v in value.items()}
            if type(value) is list:
                return [twin(v) for v in value]
            return value

        twins = [(twin(sensor), ts, twin(attrs)) for sensor, ts, attrs in packets]
        pairs = {
            (
                json.dumps(
                    {"a": attrs, "s": sensor, "t": ts},
                    sort_keys=True,
                    separators=(",", ":"),
                ),
                packet_key_fields(sensor, ts, attrs),
            )
            for sensor, ts, attrs in packets + twins
        }
        texts = {text for text, _digest in pairs}
        digests = {digest for _text, digest in pairs}
        assert len(texts) == len(digests) == len(pairs)

    def test_unknown_key_mode_rejected(self) -> None:
        with pytest.raises(ConfigError, match="duplicate_key"):
            AssessmentConfig(duplicate_key="nope")

    @settings(max_examples=100, deadline=None)
    @given(
        keys=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 20)),
            min_size=1,
            max_size=60,
        ),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_score_is_permutation_invariant(
        self, keys: list[tuple[str, int]], seed: int
    ) -> None:
        keys = [(s, t * 1000) for s, t in keys]
        rng = np.random.default_rng(seed)
        shuffled = [keys[i] for i in rng.permutation(len(keys))]
        assert _m3(keys).score == _m3(shuffled).score

    @settings(max_examples=100, deadline=None)
    @given(
        keys=st.lists(
            st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 10)),
            min_size=1,
            max_size=40,
        )
    )
    def test_score_equals_distinct_share(self, keys: list[tuple[str, int]]) -> None:
        result = _m3([(s, t * 1000) for s, t in keys])
        distinct = len(set(keys))
        assert result.score == 1.0 - (len(keys) - distinct) / len(keys)


def test_importing_the_package_leaves_orjson_unloaded() -> None:
    # A fresh process takes about 10 ms to load orjson; only reading NDJSON
    # and the full_packet digest need it, and both import it on first use.
    script = (
        "import sys, iotdq, iotdq.workflow, iotdq.cli; "
        "print('orjson' in sys.modules)"
    )
    child = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(iotdq.__file__).parents[1])},
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"
