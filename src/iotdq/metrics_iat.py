"""Inter-arrival-time metrics: regularity (M1), outliers (M2), duplicate keys (M3).

M1 evaluates relative absolute error on quantization-rounded IATs (the
same binning that elected the mode), so jitter smaller than half a bin
collapses onto the mode. M2 keeps raw-IAT sensitivity: its spread
statistics are computed on unquantized deviations from the mode.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import DegenerateIatError
from .model import IatModel, MetricResult

__all__ = [
    "MOD_Z_CONSTANT",
    "MEAN_AD_CONSTANT",
    "MIN_QUANTIZATION",
    "quantize",
    "estimate_mode",
    "z_scores",
    "m1_from_sums",
    "packet_key_fields",
]

MOD_Z_CONSTANT = 0.6745
MEAN_AD_CONSTANT = 0.7979
MIN_QUANTIZATION = 0.001
EVIDENCE_CAP = 50
# Imported by the first packet_key_fields call: a fresh process takes about
# 10 ms to load orjson, which import iotdq need not pay.
_orjson: Any = None


def quantize(values: "Sequence[float] | np.ndarray", quantization: float) -> np.ndarray:
    """Round each value to the nearest multiple of the quantization step."""
    if not (quantization > 0.0):
        raise ValueError("quantization must be positive")
    arr = np.asarray(values, dtype=np.float64)
    return np.rint(arr / quantization) * quantization


def estimate_mode(iats: "Sequence[float] | np.ndarray", quantization: float) -> IatModel:
    """Elect the modal IAT from quantized bins and measure spread around it.

    Ties break toward the smallest value. A winning bin of zero retries
    with a tenfold finer bin down to one millisecond, then raises
    DegenerateIatError. Spread (MAD, and the mean-absolute-deviation
    fallback when MAD is zero) is measured on unquantized deviations.
    """
    arr = np.asarray(iats, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("iats must be a non-empty one-dimensional sample")
    if not (quantization > 0.0):
        raise ValueError("quantization must be positive")
    q = float(quantization)
    while True:
        # The most frequent bin; ties break to the smallest value.
        values, counts = np.unique(quantize(arr, q), return_counts=True)
        mode = float(values[int(np.argmax(counts))])
        if mode > 0.0:
            break
        if q <= MIN_QUANTIZATION:
            raise DegenerateIatError(
                "modal inter-arrival time is zero down to 1 ms binning"
            )
        q = max(q / 10.0, MIN_QUANTIZATION)
    deviations = np.abs(arr - mode)
    mad = float(np.median(deviations))
    fallback = float(np.mean(deviations)) if mad == 0.0 else None
    return IatModel(mode=mode, quantization=q, mad=mad, fallback_mean_ad=fallback)


def z_scores(
    iats: "Sequence[float] | np.ndarray", model: IatModel
) -> tuple[np.ndarray, str]:
    """Modified z-scores against the mode; returns (scores, spread basis)."""
    arr = np.asarray(iats, dtype=np.float64)
    if model.mad > 0.0:
        return MOD_Z_CONSTANT * (arr - model.mode) / model.mad, "mad"
    if model.fallback_mean_ad and model.fallback_mean_ad > 0.0:
        return MEAN_AD_CONSTANT * (arr - model.mode) / model.fallback_mean_ad, "mean_ad"
    return np.zeros(arr.shape[0], dtype=np.float64), "zero_spread"


def m1_from_sums(
    numerator_sum: float,
    poor_denominator_sum: float,
    good_count: int,
    poor_count: int,
    crossover: float,
    extra_evidence: Mapping[str, Any] | None = None,
) -> MetricResult:
    """Assemble M1 from accumulated sums (mergeable across sensors)."""
    total = good_count + poor_count
    if total == 0:
        return MetricResult.inapplicable("M1", extra_evidence)
    denominator_sum = good_count + poor_denominator_sum
    evidence: dict[str, Any] = {
        "crossover": float(crossover),
        "good_count": int(good_count),
        "poor_count": int(poor_count),
        "numerator_sum": float(numerator_sum),
        "denominator_sum": float(denominator_sum),
    }
    if extra_evidence:
        evidence.update(extra_evidence)
    return MetricResult(
        metric_id="M1",
        score=float(numerator_sum / denominator_sum),
        numerator_count=0,
        denominator_count=0,
        evidence=evidence,
    )


def _json_text(packet: dict[str, Any]) -> str:
    return json.dumps(packet, sort_keys=True, separators=(",", ":"))


def _null_is_ambiguous(attributes: Mapping[str, Any]) -> bool:
    """Whether a null in orjson's bytes of these attributes may stand for
    NaN or an infinity, which orjson writes as it writes None: whether a
    value is a non-finite float or a container."""
    for value in attributes.values():
        if type(value) is float:
            if not math.isfinite(value):
                return True
        elif isinstance(value, (dict, list, tuple)):
            return True
    return False


def _json_canon(packet: dict[str, Any]) -> bytes:
    """packet's canonical bytes where orjson.dumps raises on it: b"j" and
    its json.dumps text.

    json.dumps writes a str holding a surrogate pair as it writes the
    character the pair encodes, and orjson raises on the first form only.
    So a text with a surrogate escape is read back first: when that gives
    a packet with the same text whose orjson bytes follow it, those bytes
    stand for the text, as they do for every packet of that text that
    orjson takes.
    """
    text = _json_text(packet)
    if "\\ud" in text:
        plain = json.loads(text)
        if _json_text(plain) == text:
            try:
                canon = _orjson.dumps(plain, option=_orjson.OPT_SORT_KEYS)
            except _orjson.JSONEncodeError:
                pass
            else:
                if b"null" not in canon or not _null_is_ambiguous(plain["a"]):
                    return b"o" + canon
    return b"j" + text.encode("utf-8")


def packet_key_fields(
    sensor_id: str, timestamp_ms: int, attributes: Mapping[str, Any]
) -> bytes:
    """Duplicate identity of one packet under the full_packet key.

    Two packets get equal digests exactly when their json.dumps texts
    (sorted keys, no spaces) are equal. The digest is taken over b"o" and
    the orjson.dumps bytes, which are equal for equal texts and differ for
    different ones, except where orjson raises (on integers past 64 bits
    and on surrogate code points) or writes a null that may stand for NaN
    or an infinity. Such a packet is digested over b"j" and its json.dumps
    text or, where orjson raised, over the b"o" bytes of another packet
    with that text (see _json_canon).
    """
    global _orjson
    if _orjson is None:
        import orjson as _orjson
    packet = {"a": attributes, "s": sensor_id, "t": timestamp_ms}
    try:
        canon = _orjson.dumps(packet, option=_orjson.OPT_SORT_KEYS)
    except _orjson.JSONEncodeError:
        canon = _json_canon(packet)
    else:
        if b"null" in canon and _null_is_ambiguous(attributes):
            # No packet of this text has orjson bytes that follow it.
            canon = b"j" + _json_text(packet).encode("utf-8")
        else:
            canon = b"o" + canon
    return hashlib.blake2b(canon, digest_size=16).digest()
