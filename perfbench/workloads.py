"""The benchmark's workloads: generator specs, scoring configs, pinned hashes.

Standard library only, so that the orchestrator can read it without
importing iotdq. Every input is made by ``iotdq.synthgen.generate`` from
the run's seed; the program itself sees only the generated bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

SEED_SPACE = 1 << 32
# Seed stride between the per-assessment datasets of one blind run.
TRIP_SEED_STRIDE = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "local" (one assess per fresh process) or "blind" (round trips)
    why: str
    gen: dict[str, Any]
    config: dict[str, Any]
    # Report metrics whose counts must equal the generator's GroundTruth.
    checked: tuple[str, ...]
    default_seed: int
    # sha256 of the canonical report bytes at default_seed (first trip on blind).
    pinned_sha256: str

    def gen_seed(self, seed: int, trip: int = 0) -> int:
        """GenSpec seed of one dataset; trip numbers the blind assessments."""
        if self.kind == "blind":
            return (seed * TRIP_SEED_STRIDE + trip) % SEED_SPACE
        return seed % SEED_SPACE


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ndjson_1m",
            kind="local",
            why=(
                "criterion-7 dataset: 1M NDJSON packets from 10 sensors; per-record"
                " ingest dominates and IAT numerics are under 1%"
            ),
            gen=dict(
                sensor_count=10,
                packets_per_sensor=100_000,
                interval_seconds=60.0,
                jitter_fraction=0.10,
                outlier_rate=0.005,
                duplicate_rate=0.01,
                missing_mandatory_rate=0.005,
                unknown_attr_rate=0.005,
                format_error_rate=0.005,
            ),
            config=dict(quantization_seconds=60.0),
            checked=("M2", "M3", "M4", "M5", "M6"),
            default_seed=7,
            pinned_sha256=(
                "c3aac90f43295e1cd1e0686dabd46caa216fedfcd35f0660e19c43f2e29a58ef"
            ),
        ),
        Workload(
            name="blind_roundtrip",
            kind="blind",
            why=(
                "closed-loop data-blind round trips (4 x 500 packets each) through"
                " sealing, clients, proxy and enclave; content-key dedupe and range"
                " checks"
            ),
            gen=dict(
                sensor_count=4,
                packets_per_sensor=500,
                interval_seconds=60.0,
                jitter_fraction=0.10,
                outlier_rate=0.01,
                duplicate_rate=0.02,
                missing_mandatory_rate=0.01,
                unknown_attr_rate=0.01,
                format_error_rate=0.01,
            ),
            # Content-key dedupe and range checks run here, so that every
            # layer of the scorer is measured by one of the workloads.
            config=dict(
                quantization_seconds=60.0,
                domain="perfbench",
                duplicate_key="full_packet",
                format_checks="full",
            ),
            checked=("M2", "M3", "M4", "M5", "M6"),
            default_seed=3,
            pinned_sha256=(
                "7cdb7a7d584cfa67fd82085d894924b94b7f91a0eb45f33edbf5e378b25a2f1e"
            ),
        ),
    )
}
