"""Declarative schema documents and per-packet validation verdicts.

The schema syntax is a strict subset of JSON Schema: top-level keys
`properties` and `required`; per-attribute keys `type`, `minimum`,
`maximum`, `pattern`. Anything else is ignored with a logged warning.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from typing import Any, Mapping, Pattern

from .errors import SchemaError, load_json

__all__ = ["FORMAT_KINDS", "AttributeSpec", "SchemaDocument", "parse_schema"]

logger = logging.getLogger(__name__)

_TYPE_ALIASES = {
    "integer": "integer",
    "int": "integer",
    "float": "float",
    "number": "float",
    "double": "float",
    "string": "string",
    "str": "string",
    "boolean": "boolean",
    "bool": "boolean",
}
_ATTRIBUTE_KEYWORDS = {"type", "minimum", "maximum", "pattern"}
_TOP_KEYWORDS = {"properties", "required"}

# The metric each violation kind counts against.
METRIC_OF_KIND = {
    "missing": "M4",
    "unknown": "M5",
    "type": "M6",
    "null": "M6",
    "range": "M6",
    "pattern": "M6",
}
# Violation kinds that count against format conformity (M6).
FORMAT_KINDS = frozenset(k for k, m in METRIC_OF_KIND.items() if m == "M6")


@dataclass(frozen=True)
class AttributeSpec:
    """Type and optional constraints declared for one attribute."""

    declared_type: str
    minimum: float | None = None
    maximum: float | None = None
    pattern: str | None = None
    compiled_pattern: Pattern | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.declared_type not in ("integer", "float", "string", "boolean"):
            raise SchemaError(f"unsupported declared type: {self.declared_type!r}")
        numeric = self.declared_type in ("integer", "float")
        if (self.minimum is not None or self.maximum is not None) and not numeric:
            raise SchemaError("minimum/maximum apply to numeric types only")
        if self.minimum is not None and self.maximum is not None:
            if self.minimum > self.maximum:
                raise SchemaError("minimum must not exceed maximum")
        if self.pattern is not None and self.declared_type != "string":
            raise SchemaError("pattern applies to string type only")
        if self.pattern is not None and self.compiled_pattern is None:
            try:
                object.__setattr__(self, "compiled_pattern", re.compile(self.pattern))
            except re.error as exc:
                raise SchemaError(f"invalid pattern {self.pattern!r}: {exc}") from exc


@dataclass(frozen=True)
class SchemaDocument:
    """Declared attributes and the mandatory subset."""

    attributes: Mapping[str, AttributeSpec]
    mandatory: frozenset[str]

    def __post_init__(self) -> None:
        undeclared = self.mandatory - set(self.attributes)
        if undeclared:
            raise SchemaError(
                f"mandatory attributes not declared: {sorted(undeclared)}"
            )

    def prepared(self) -> tuple[tuple[str, ...], dict[str, tuple]]:
        """Flat lookup tables for the validation loop, cached per document.

        Each attribute maps to (declared type, value check), the check being
        None or the (name, lo, hi, pattern) entry of a _value_faults plan.
        """
        cached = self.__dict__.get("_prepared")
        if cached is None:
            lookup = {
                name: (spec.declared_type, _value_check(name, spec))
                for name, spec in self.attributes.items()
            }
            cached = (tuple(sorted(self.mandatory)), lookup)
            object.__setattr__(self, "_prepared", cached)
        return cached


def _value_check(name: str, spec: AttributeSpec) -> "tuple | None":
    """(name, lo, hi, pattern) when spec declares a bound or a pattern.

    An absent bound is -inf or +inf. No value, NaN included, lies below
    -inf or above +inf, so the < and > of _value_faults pass every value
    against an absent bound, as no check would.
    """
    if spec.minimum is None and spec.maximum is None and spec.compiled_pattern is None:
        return None
    lo = -math.inf if spec.minimum is None else spec.minimum
    hi = math.inf if spec.maximum is None else spec.maximum
    return (name, lo, hi, spec.compiled_pattern)


def _type_ok(value: Any, declared: str) -> bool:
    if declared == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if declared == "float":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if declared == "string":
        return isinstance(value, str)
    return isinstance(value, bool)


def _flags_for(
    attributes: Mapping[str, Any], prepared: tuple[tuple[str, ...], dict[str, tuple]]
) -> tuple[tuple[str, str], ...]:
    """(attribute, kind) per missing, unknown, null or wrongly typed attribute
    of one packet; empty when it is clean.

    The only implementation of these verdicts; METRIC_OF_KIND names each
    kind's metric. The range and pattern checks are _value_plan's and
    _value_faults'.
    """
    mandatory, lookup = prepared
    detail = [(name, "missing") for name in mandatory if name not in attributes]
    for name, value in attributes.items():
        spec = lookup.get(name)
        if spec is None:
            detail.append((name, "unknown"))
        elif value is None:
            detail.append((name, "null"))
        elif not _type_ok(value, spec[0]):
            detail.append((name, "type"))
    return tuple(detail)


def _value_plan(
    attributes: Mapping[str, Any], prepared: tuple[tuple[str, ...], dict[str, tuple]]
) -> tuple[tuple, ...]:
    """The value checks of attributes: (name, lo, hi, pattern) per attribute
    whose value passes its type check and whose spec declares a bound or a
    pattern. Records with the same keys and value types share one plan."""
    lookup = prepared[1]
    plan = []
    for name, value in attributes.items():
        spec = lookup.get(name)
        if spec is not None and spec[1] is not None and _type_ok(value, spec[0]):
            plan.append(spec[1])
    return tuple(plan)


def _value_faults(
    attributes: Mapping[str, Any], plan: tuple[tuple, ...]
) -> list[tuple[str, str]]:
    """(attribute, "range" or "pattern") per check of plan that fails.

    The only implementation of the range and pattern checks: a number
    fails below lo or above hi, a string fails when pattern finds no match.
    """
    faults = []
    for name, lo, hi, pattern in plan:
        value = attributes[name]
        if pattern is not None:
            if pattern.search(value) is None:
                faults.append((name, "pattern"))
        elif value < lo or value > hi:
            faults.append((name, "range"))
    return faults


def parse_schema(source: "bytes | str | Mapping[str, Any]") -> SchemaDocument:
    """Parse a JSON schema document, rejecting invariant violations."""
    if isinstance(source, (bytes, bytearray, str)):
        doc = load_json(source, SchemaError, "schema")
    elif isinstance(source, Mapping):
        doc = source
    else:
        raise SchemaError("schema must be a JSON object")
    for key in doc:
        if key not in _TOP_KEYWORDS:
            logger.warning("ignoring unsupported schema keyword: %s", key)
    properties = doc.get("properties", {})
    if not isinstance(properties, Mapping):
        raise SchemaError("'properties' must be an object")
    attributes: dict[str, AttributeSpec] = {}
    for name, body in properties.items():
        if not isinstance(body, Mapping):
            raise SchemaError(f"attribute {name!r} must map to an object")
        for key in body:
            if key not in _ATTRIBUTE_KEYWORDS:
                logger.warning(
                    "ignoring unsupported keyword %r on attribute %r", key, name
                )
        if "type" not in body:
            raise SchemaError(f"attribute {name!r} declares no type")
        raw_type = body["type"]
        declared = _TYPE_ALIASES.get(raw_type if isinstance(raw_type, str) else "")
        if declared is None:
            raise SchemaError(f"attribute {name!r} has unsupported type {raw_type!r}")
        minimum = body.get("minimum")
        maximum = body.get("maximum")
        for bound, label in ((minimum, "minimum"), (maximum, "maximum")):
            if bound is not None and (
                isinstance(bound, bool) or not isinstance(bound, (int, float))
            ):
                raise SchemaError(f"{label} of {name!r} must be a number")
        pattern = body.get("pattern")
        if pattern is not None and not isinstance(pattern, str):
            raise SchemaError(f"pattern of {name!r} must be a string")
        attributes[name] = AttributeSpec(
            declared_type=declared,
            minimum=minimum,
            maximum=maximum,
            pattern=pattern,
        )
    required = doc.get("required", [])
    if not isinstance(required, list) or not all(
        isinstance(r, str) for r in required
    ):
        raise SchemaError("'required' must be a list of attribute names")
    return SchemaDocument(attributes=attributes, mandatory=frozenset(required))
