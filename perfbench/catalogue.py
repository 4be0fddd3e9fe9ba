"""The benchmark's metrics: names, units, directions, bounds, and what moves what.

``END_TO_END`` metrics are what a user of iotdq sees; each untraced run
reports all of them. ``PER_LAYER`` metrics come from one traced run; each
names the end-to-end metric (and workload) it should move, and computes
its value from the tracer's probe totals. Per-layer times and counts are
per assessment unless the entry says otherwise. BENCHMARK.json is
``benchmark_json()`` written out; a test keeps the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from workloads import WORKLOADS


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str
    value: Callable[["LayerView"], float]


class LayerView:
    """Probe totals of one traced run, divided by the assessments traced."""

    def __init__(self, summary: Mapping[str, Any], extra: Mapping[str, float]) -> None:
        self.assessments = max(1, summary["assessments"])
        self.probes = summary["probes"]
        self.counters = summary["counters"]
        self.absent = summary["absent"]
        self.extra = extra

    def _field(self, name: str, index: int) -> float:
        entry = self.probes.get(name)
        return entry[index] / self.assessments if entry else 0.0

    def calls(self, name: str) -> float:
        return self._field(name, 0)

    def total(self, name: str) -> float:
        return self._field(name, 1)

    def self_time(self, name: str) -> float:
        return self._field(name, 2)

    def count(self, name: str) -> float:
        return self.counters.get(name, 0) / self.assessments

    def per_call(self, name: str) -> float:
        calls, total, _ = self.probes.get(name, (0, 0.0, 0.0))
        return total / calls if calls else 0.0

    def http(self, field: int) -> float:
        return sum(
            self._field(name, field) for name in self.probes if name.startswith("http.")
        )


# What each end-to-end metric measures is in README.md.
END_TO_END = (
    EndToEnd("assess_s", "s", "lower", 0.25),
    EndToEnd("roundtrip_s_p50", "s", "lower", 0.25),
    EndToEnd("roundtrip_s_p90", "s", "lower", 0.25),
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.1),
    EndToEnd("setup_s", "s", "lower", 0.25),
)

_ASSESS = "assess_s on ndjson_1m and blind_roundtrip"
_BLIND = "assess_s on blind_roundtrip (no change predicted on ndjson_1m)"
_RT = "roundtrip_s_p50 and roundtrip_s_p90 on blind_roundtrip"
_ROUTES = (
    "put_objects",
    "get_objects",
    "get_attestation",
    "post_assessments",
    "post_claim",
    "post_complete",
    "get_assessment",
)

PER_LAYER = (
    Layer(
        "ingest.iter_records_s", "s", "lower",
        "assess_s: JSON decode on ndjson_1m",
        lambda v: v.total("ingest.iter_records"),
    ),
    Layer("ingest.records", "count", "lower", _ASSESS,
          lambda v: v.count("ingest.records")),
    Layer("ingest.malformed", "count", "lower", _ASSESS,
          lambda v: v.count("ingest.malformed")),
    Layer("ingest.parse_timestamp_s", "s", "lower", _ASSESS,
          lambda v: v.total("ingest.parse_timestamp")),
    Layer("ingest.parse_timestamp_calls", "count", "lower", _ASSESS,
          lambda v: v.calls("ingest.parse_timestamp")),
    Layer("schema.flags_s", "s", "lower", _ASSESS,
          lambda v: v.total("schema.flags")),
    Layer("schema.flags_calls", "count", "lower", _ASSESS,
          lambda v: v.calls("schema.flags")),
    Layer(
        "pipeline.self_s", "s", "lower",
        "assess_s, mainly on ndjson_1m (normalisation, dedupe, bookkeeping)",
        lambda v: v.self_time("pipeline.assess") + v.self_time("enclave.assess"),
    ),
    Layer("metrics_iat.packet_key_s", "s", "lower",
          "assess_s on blind_roundtrip only; 0 on ndjson_1m",
          lambda v: v.total("metrics_iat.packet_key")),
    Layer("metrics_iat.mode_s", "s", "lower", _BLIND,
          lambda v: v.total("metrics_iat.mode")),
    Layer("metrics_iat.quantize_s", "s", "lower", _BLIND,
          lambda v: v.total("metrics_iat.quantize")),
    Layer("metrics_iat.m1_s", "s", "lower", _BLIND,
          lambda v: v.total("metrics_iat.m1")),
    Layer("metrics_iat.zscore_s", "s", "lower", _BLIND,
          lambda v: v.total("metrics_iat.zscore")),
    Layer("metrics_iat.sensor_calls", "count", "lower", _BLIND,
          lambda v: v.calls("metrics_iat.mode")),
    Layer("report.aggregate_s", "s", "lower", _BLIND,
          lambda v: v.total("report.aggregate")),
    Layer("report.serialize_s", "s", "lower", _BLIND,
          lambda v: v.total("report.serialize")),
    Layer("report.bytes", "bytes", "lower", _BLIND,
          lambda v: v.extra["report_bytes"]),
    Layer("report.deserialize_s", "s", "lower", "roundtrip_s_p50 on blind_roundtrip",
          lambda v: v.total("report.deserialize")),
    Layer("http.requests_per_assessment", "count", "lower", _RT,
          lambda v: v.http(0)),
    *(
        Layer(f"http.{route}_s", "s", "lower", _RT,
              lambda v, route=route: v.total(f"http.{route}"))
        for route in _ROUTES
    ),
    Layer("proxy.handler_s", "s", "lower", "roundtrip_s_p50 on blind_roundtrip",
          lambda v: v.total("proxy.handler")),
    Layer(
        "http.stall_s", "s", "lower",
        "roundtrip_s_p50 on blind_roundtrip (client-observed HTTP time minus"
        " handler time)",
        lambda v: max(0.0, v.http(1) - v.total("proxy.handler")),
    ),
    Layer("sealing.seal_s", "s", "lower", "roundtrip_s_p50 on blind_roundtrip",
          lambda v: v.total("sealing.seal")),
    Layer("sealing.seal_calls", "count", "lower", "roundtrip_s_p50 on blind_roundtrip",
          lambda v: v.calls("sealing.seal")),
    Layer("sealing.unseal_s", "s", "lower", "roundtrip_s_p50 on blind_roundtrip",
          lambda v: v.total("sealing.unseal")),
    Layer("sealing.unseal_calls", "count", "lower", "roundtrip_s_p50 on blind_roundtrip",
          lambda v: v.calls("sealing.unseal")),
    Layer("enclave.assess_s", "s", "lower", "roundtrip_s_p50 on blind_roundtrip",
          lambda v: v.total("enclave.assess")),
    Layer("enclave.run_once_s", "s", "lower", "roundtrip_s_p50 on blind_roundtrip",
          lambda v: v.total("enclave.run_once")),
    Layer(
        "attestation.code_hash_s", "s", "lower",
        "setup_s on blind_roundtrip (seconds per call)",
        lambda v: v.per_call("attestation.code_hash"),
    ),
    Layer(
        "synthgen.generate_s", "s", "lower",
        "none: input preparation, kept visible (seconds per dataset)",
        lambda v: v.extra["generate_s"],
    ),
    Layer("trace.overhead", "ratio", "lower",
          "none: traced assess_s (or round trip p50) over the untraced one",
          lambda v: v.extra["overhead"]),
    Layer("trace.absent_probes", "count", "lower",
          "none: probe targets the program no longer binds",
          lambda v: float(len(v.absent))),
)


def per_layer_values(
    summary: Mapping[str, Any], extra: Mapping[str, float]
) -> dict[str, float]:
    view = LayerView(summary, extra)
    return {layer.name: float(layer.value(view)) for layer in PER_LAYER}


def benchmark_json(run_seconds: int) -> dict[str, Any]:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
