"""Correctness gate for the benchmark's reports (standard library only).

A report passes when its fingerprint names the dataset it was made from,
every checked metric's violation and total counts equal the generator's
GroundTruth, it covers every generated sensor, and, at the workload's
default seed, its bytes hash to the pinned value.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from workloads import Workload

# GroundTruth field holding each metric's injected violation count.
_TRUTH_VIOLATIONS = {
    "M2": "outlier_iats",
    "M3": "duplicates",
    "M4": "missing_mandatory",
    "M5": "unknown_attrs",
    "M6": "format_errors",
}


def expected_counts(metric_id: str, truth: Mapping[str, Any]) -> tuple[int, int]:
    """(violations, total) that a correct report holds for one metric."""
    total = truth["iat_total"] if metric_id == "M2" else truth["packets_total"]
    return truth[_TRUTH_VIOLATIONS[metric_id]], total


def report_problems(
    report: bytes,
    truth: Mapping[str, Any],
    data_sha256: str,
    workload: Workload,
    seed: int,
    pin: bool = True,
) -> list[str]:
    """Every way the report departs from the truth; empty when it is correct.

    ``pin`` asks for the pinned-hash comparison, which applies only to the
    first dataset of a run at the workload's default seed.
    """
    try:
        doc = json.loads(report)
        metrics = {m["id"]: m for m in doc["metrics"]}
        fingerprint = doc["dataset_fingerprint"]
        sensors = len(doc["per_sensor"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report is not a canonical report: {exc!r}"]
    problems = []
    if fingerprint != data_sha256:
        problems.append("dataset_fingerprint does not match the dataset")
    for metric_id in workload.checked:
        entry = metrics.get(metric_id, {})
        got = (entry.get("numerator_count"), entry.get("denominator_count"))
        want = expected_counts(metric_id, truth)
        if got != want:
            problems.append(f"{metric_id} counts {got} != ground truth {want}")
    if sensors != len(truth["per_sensor"]):
        problems.append(f"{sensors} sensors reported, {len(truth['per_sensor'])} made")
    if pin and seed == workload.default_seed:
        digest = hashlib.sha256(report).hexdigest()
        if digest != workload.pinned_sha256:
            problems.append(f"report sha256 {digest} != pinned {workload.pinned_sha256}")
    return problems


class Tally:
    """Attempted and failed assessments of one run, with the first problems."""

    KEEP = 10

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, self.KEEP - len(self.problems))])

    def merge(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems[: max(0, self.KEEP - len(self.problems))])

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
