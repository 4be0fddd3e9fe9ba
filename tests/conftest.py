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


def record_order_columns(scan) -> tuple[list[int], list[int], list[int]]:
    """A pipeline._Scan's per-sensor columns flattened back into record
    order: each row (its item ordinal in the block), its sensor index
    (into scan.sensors) and its timestamp."""
    items = scan.total + scan.malformed
    by_row: dict[int, tuple[int, int]] = {}
    for sidx, (rows, stamps) in enumerate(zip(scan.rows, scan.stamps)):
        assert len(rows) == len(stamps) and list(rows) == sorted(rows)
        for row, timestamp in zip(rows, stamps):
            assert row not in by_row, f"row {row} is in two sensors"
            assert 0 <= row < items, f"row {row} is past the block's {items} items"
            by_row[row] = (sidx, timestamp)
    assert len(by_row) == scan.total, "a valid record is in no sensor"
    rows = sorted(by_row)
    return rows, [by_row[row][0] for row in rows], [by_row[row][1] for row in rows]


def malformed_ordinals(scan) -> list[int]:
    """The item ordinals of a pipeline._Scan's block that are no row."""
    rows = set(record_order_columns(scan)[0])
    return [o for o in range(scan.total + scan.malformed) if o not in rows]


def iats_of(data: bytes, config: AssessmentConfig) -> list[tuple[str, np.ndarray]]:
    """sensor_iats of a dataset's bytes, written to a temporary file first."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data")
        with open(path, "wb") as fh:
            fh.write(data)
        return list(sensor_iats(path, config))


@pytest.fixture
def demo_schema_bytes() -> bytes:
    return json.dumps(DEFAULT_SCHEMA).encode("utf-8")


@pytest.fixture
def demo_schema(demo_schema_bytes: bytes) -> SchemaDocument:
    return parse_schema(demo_schema_bytes)
