"""Exception hierarchy shared across the package, and the one JSON loader
for documents that come from outside the program."""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "load_json",
    "IotDqError",
    "ConfigError",
    "IngestFormatError",
    "DatasetRejectedError",
    "SchemaError",
    "DegenerateIatError",
    "AggregationError",
    "GenSpecError",
    "SealingError",
    "AttestationError",
    "WorkflowError",
    "ReportNotReady",
]


class IotDqError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(IotDqError):
    """Invalid assessment configuration."""


class IngestFormatError(IotDqError):
    """Unreadable source or unknown dataset format."""


class DatasetRejectedError(IotDqError):
    """Dataset unfit for assessment (more than half of records malformed)."""


class SchemaError(IotDqError):
    """Malformed schema document or schema invariant violation."""


class DegenerateIatError(IotDqError):
    """Mode estimation failed: no positive modal bin down to 1 ms."""


class AggregationError(IotDqError):
    """No applicable metric to aggregate, or weights unusable."""


class GenSpecError(IotDqError):
    """Synthetic generator spec is infeasible or out of range."""


class SealingError(IotDqError):
    """Sealed envelope malformed, tampered, or addressed to another key."""


class AttestationError(IotDqError):
    """Enclave code hash does not match the pinned expectation."""


class WorkflowError(IotDqError):
    """Proxy interaction failed (transport, status, or protocol error)."""


class ReportNotReady(WorkflowError):
    """Assessment still queued or running; retry later."""


def load_json(
    data: "bytes | str", error: "type[IotDqError]", what: str, shape: type = dict
) -> Any:
    """json.loads(data), required to be a shape (dict or list).

    Every failure raises error, naming the document as what; nothing else
    escapes, whatever the bytes.
    """
    try:
        doc = json.loads(data)
    except (ValueError, TypeError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise error(f"{what} is nested too deeply") from exc
    if not isinstance(doc, shape):
        kind = "object" if shape is dict else "array"
        raise error(f"{what} must be a JSON {kind}")
    return doc
