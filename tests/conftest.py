"""Shared fixtures and dataset-building helpers."""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Iterable, Mapping

import numpy as np
import pytest

from iotdq import parse_schema
from iotdq.model import AssessmentConfig
from iotdq.pipeline import sensor_iats
from iotdq.schema import SchemaDocument
from iotdq.synthgen import DEFAULT_SCHEMA


def ndjson_bytes(records: Iterable[Mapping[str, Any]]) -> bytes:
    lines = [json.dumps(dict(r), separators=(",", ":")) for r in records]
    return ("\n".join(lines) + "\n").encode("utf-8")


def record_order_columns(scan) -> tuple[list[int], list[int]]:
    """A pipeline._Scan's per-sensor columns flattened back into record
    order: each row's sensor index (into scan.sensors) and its timestamp."""
    sensor_col = [-1] * scan.total
    ts_col = [0] * scan.total
    for sidx, (rows, stamps) in enumerate(zip(scan.rows, scan.stamps)):
        assert len(rows) == len(stamps) and list(rows) == sorted(rows)
        for row, timestamp in zip(rows, stamps):
            assert sensor_col[row] == -1, f"row {row} is in two sensors"
            sensor_col[row] = sidx
            ts_col[row] = timestamp
    assert -1 not in sensor_col, "a row is in no sensor"
    return sensor_col, ts_col


def iats_of(data: bytes, config: AssessmentConfig) -> list[tuple[str, np.ndarray]]:
    """sensor_iats of a dataset's bytes, written to a temporary file first."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data")
        with open(path, "wb") as fh:
            fh.write(data)
        return sensor_iats(path, config)


@pytest.fixture
def demo_schema_bytes() -> bytes:
    return json.dumps(DEFAULT_SCHEMA).encode("utf-8")


@pytest.fixture
def demo_schema(demo_schema_bytes: bytes) -> SchemaDocument:
    return parse_schema(demo_schema_bytes)
